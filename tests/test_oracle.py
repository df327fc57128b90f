"""Dispersion, closed-form solutions, frequency selection, sharpness targets."""

import math
import re

import numpy as np
import pytest
from scipy.integrate import quad

from wavecompact.data import PRESETS, ForcingLevels, Profile, build_u1h
from wavecompact.errors import ConfigurationError, ContractViolation, MeshTooCoarseError
from wavecompact.experiments import random_dataspec
from wavecompact.grid import build_mesh
from wavecompact.operators import apply_implicit, apply_spatial
from wavecompact.oracle import (HarmonicData, _dst, _modes, asymptotic_constant, canonical_mesh,
                                choose_k_h, discrete_blocks, discrete_trajectory, dispersion,
                                forced_mode_response, harmonic_dataspec,
                                sharpness_prediction)
from wavecompact.scheme import _march, evolve, evolve_grid, prepare_inputs

from _harmonic import (discrete_harmonic_trajectory, exact_harmonic_solution,
                       variant_amplitude)

MESH = build_mesh(math.pi, math.pi, 16, 64)


# --------------------------------------------------------------------------
# dispersion

def test_dispersion_minimal_mesh_eigenvalue():
    mesh = build_mesh(math.pi, math.pi, 2, 8)
    rec = dispersion(1, mesh)
    assert rec.lambda_k == pytest.approx(8.0 / math.pi ** 2, rel=1e-14)
    assert rec.lambda_k == pytest.approx(0.81057, abs=5e-6)


def test_dispersion_small_kh_expansion():
    # tau = h/2, h = pi/64: mu_1 = 1 - nu_h + O(h^6), nu_h ~ 1.134e-8
    mesh = build_mesh(math.pi, math.pi, 64, 128)
    rec = dispersion(1, mesh)
    assert rec.nu_h == pytest.approx(mesh.h ** 4 * (1 - 1.0 / 16.0) / 480.0, rel=1e-14)
    assert rec.nu_h == pytest.approx(1.134e-8, rel=1e-3)
    assert rec.mu_k - 1.0 == pytest.approx(-rec.nu_h, rel=2e-4)


def test_dispersion_mu_comparable_to_k():
    # 2/pi * k <= mu_k <= (pi/2) sqrt(3/2) k on every stable mesh, all modes
    lo, hi = 2.0 / math.pi, math.pi / 2.0 * math.sqrt(1.5)
    for mesh in (build_mesh(math.pi, math.pi, 16, 64),
                 build_mesh(math.pi, math.pi, 64, 128),
                 build_mesh(math.pi, math.pi, 128, 512, eps0=0.5)):
        for k in range(1, mesh.N):
            mu = dispersion(k, mesh).mu_k
            assert lo * k <= mu <= hi * k


def test_dispersion_phi_bound_sweep():
    # (tau/2) sqrt(lam) <= tau phi/2 <= min(1/sqrt(1+eps1), sqrt(3/2)(tau/2)sqrt(lam))
    for eps0 in (1.0, 0.7):
        mesh = build_mesh(math.pi, math.pi, 64, 160, eps0=eps0)
        eps1 = (2.0 / 3.0) * eps0 ** 2 / (1.0 - eps0 ** 2 / 2.0)
        for k in range(1, mesh.N):
            rec = dispersion(k, mesh)
            arg = mesh.tau * rec.phi_k / 2.0
            lower = mesh.tau / 2.0 * math.sqrt(rec.lambda_k)
            upper = min(1.0 / math.sqrt(1.0 + eps1),
                        math.sqrt(1.5) * mesh.tau / 2.0 * math.sqrt(rec.lambda_k))
            assert lower <= arg * (1 + 1e-13)
            assert arg <= upper * (1 + 1e-13)
            assert arg < 1.0


def test_dispersion_nu_h_band():
    # eps0^2 h^4 / 2 <= 480 nu_h <= h^4 on stable meshes
    for eps0, ratio in ((1.0, 0.5), (0.6, 0.25), (0.8, 0.7)):
        mesh = build_mesh(math.pi, math.pi, 32, int(32 / ratio), eps0=eps0)
        rec = dispersion(1, mesh)
        assert eps0 ** 2 * mesh.h ** 4 / 2.0 <= 480.0 * rec.nu_h <= mesh.h ** 4


def test_dispersion_rejects_out_of_range_mode():
    with pytest.raises(ContractViolation):
        dispersion(0, MESH)
    with pytest.raises(ContractViolation):
        dispersion(MESH.N, MESH)


def test_dispersion_expansion_with_fitted_constant():
    # |mu_k - k + k^5 nu_h| <= C k^7 h^6 with one C across meshes, k <= sqrt(N)
    ratios = {}
    for n in (64, 128, 256):
        mesh = build_mesh(math.pi, math.pi, n, 2 * n)
        worst = 0.0
        for k in range(1, int(math.isqrt(n)) + 1):
            rec = dispersion(k, mesh)
            remainder = abs(rec.mu_k - k + k ** 5 * rec.nu_h)
            worst = max(worst, remainder / (k ** 7 * mesh.h ** 6))
        ratios[n] = worst
    # mesh-independent constant: per-mesh maxima agree within a factor of 2
    vals = list(ratios.values())
    assert max(vals) / min(vals) < 2.0
    assert max(vals) < 1.0  # the actual constant is ~1e-3; 1.0 is a safe cap


# --------------------------------------------------------------------------
# variant amplitudes

def test_variant_amplitudes_continuum_limit():
    # kh -> 0: all three a_1k -> 1
    mesh = build_mesh(math.pi, math.pi, 256, 1024)
    for variant in ("v0", "v1", "v2"):
        assert variant_amplitude(variant, 1, mesh) == pytest.approx(1.0, abs=2e-4)


def test_variant_amplitudes_differ_generically():
    a0 = variant_amplitude("v0", 3, MESH)
    a1 = variant_amplitude("v1", 3, MESH)
    a2 = variant_amplitude("v2", 3, MESH)
    assert a0 != pytest.approx(a1, rel=1e-6)
    assert a1 != pytest.approx(a2, rel=1e-6)


def test_variant_amplitude_matches_operator_application():
    # the formula equals the multiplier extracted from build_u1h on sin(3x)
    mesh = build_mesh(math.pi, math.pi, 8, 32)
    k = 3
    for variant in ("v0", "v1", "v2"):
        grid_fn = build_u1h(variant, Profile.harmonic_mode(k, math.pi), mesh)
        shape = np.sin(k * mesh.nodes())
        extracted = grid_fn[2] / shape[2]
        assert extracted == pytest.approx(variant_amplitude(variant, k, mesh),
                                          rel=1e-12)


# --------------------------------------------------------------------------
# exact solution

def test_exact_solution_initial_condition_and_smooth_case():
    kind0 = HarmonicData(j=0, k=4)
    x = np.linspace(0, math.pi, 7)
    np.testing.assert_allclose(exact_harmonic_solution(kind0, x, 0.0),
                               np.sin(4 * x), atol=1e-15)
    # j=1, k=1 is exactly sin(t) sin(x)
    kind1 = HarmonicData(j=1, k=1)
    for t in (0.3, 1.0, 2.5):
        np.testing.assert_allclose(exact_harmonic_solution(kind1, x, t),
                                   math.sin(t) * np.sin(x), rtol=1e-14, atol=1e-15)


def test_exact_forced_solution_hand_value():
    # j=2, k=2 at t=pi/2: y = 1/2 + 1/6 = 2/3, u = (1/2)(2/3) sin(2x)
    kind = HarmonicData(j=2, k=2)
    x = np.array([math.pi / 4])
    got = exact_harmonic_solution(kind, x, math.pi / 2)
    assert got[0] == pytest.approx(0.5 * (2.0 / 3.0) * math.sin(math.pi / 2), rel=1e-14)


def test_forced_mode_response_matches_quadrature():
    omega = 2.0
    for kappa in (3.0, 1.3):
        for t in (0.7, 2.1):
            got = forced_mode_response(omega, kappa, t)
            ref, _ = quad(lambda s: math.sin(omega * s) * math.sin(kappa * (t - s)),
                          0.0, t, limit=200)
            assert float(got) == pytest.approx(ref, rel=1e-10, abs=1e-12)
    with pytest.raises(ContractViolation):
        forced_mode_response(2.0, 2.0, 1.0)  # kappa = omega resonates


def test_harmonic_data_validation():
    with pytest.raises(ContractViolation):
        HarmonicData(j=2, k=1)
    with pytest.raises(ContractViolation):
        HarmonicData(j=3, k=1)
    with pytest.raises(ContractViolation, match="^k must be >= 1, got 0$"):
        HarmonicData(j=0, k=0)


# --------------------------------------------------------------------------
# discrete solution vs the stepper

def test_discrete_solution_first_levels():
    kind = HarmonicData(j=0, k=3)
    mesh = MESH
    mu = dispersion(3, mesh).mu_k
    traj = discrete_harmonic_trajectory(kind, mesh, "v2")
    np.testing.assert_allclose(traj[0], np.sin(3 * mesh.nodes()), atol=1e-14)
    np.testing.assert_allclose(
        traj[1], math.cos(mu * mesh.tau) * np.sin(3 * mesh.nodes()), rtol=1e-13, atol=1e-14)


def test_discrete_trajectory_solves_the_scheme_equations():
    # the closed form satisfies the two-level start and the recurrence, each
    # applied with the operators, on forced random data of a rescaled mesh
    mesh = build_mesh(X=2.0, T=1.3, N=12, M=30, a=0.7, eps0=0.9)
    rng = np.random.default_rng(7)
    v0, u1h, space = np.zeros((3, mesh.N + 1))
    v0[1:-1], u1h[1:-1], space[1:-1] = rng.standard_normal((3, mesh.N - 1))
    time = rng.standard_normal(mesh.M)
    v = discrete_trajectory(mesh, v0, u1h, ForcingLevels(time, space))
    fh = np.multiply.outer(time, space)  # the levels the scheme steps
    tau, a2 = mesh.tau, mesh.a ** 2
    np.testing.assert_allclose(v[0], v0, rtol=0, atol=1e-14)
    start = (apply_implicit((v[1] - v[0]) / tau, mesh)
             - 0.5 * tau * a2 * apply_spatial("laplacian", v[0], mesh) - u1h - 0.5 * tau * fh[0])
    assert np.abs(start[1:-1]).max() < 1e-12
    for m in range(1, mesh.M):
        rhs = a2 * apply_spatial("laplacian", v[m], mesh) + fh[m]
        lhs = apply_implicit((v[m + 1] - 2.0 * v[m] + v[m - 1]) / tau ** 2, mesh)
        assert np.abs((lhs - rhs)[1:-1]).max() < 1e-10 * max(1.0, np.abs(rhs).max())
    assert np.all(v[:, ::mesh.N] == 0.0)


def _whole_array_trajectory(mesh, v0, u1h, fh=None):
    """The closed form of one data set on whole (M+1, N-1) mode arrays: the
    reference that discrete_blocks must reproduce bit for bit."""
    N, M, tau = mesh.N, mesh.M, mesh.tau
    _, amp, theta = _modes(np.arange(1, N), mesh)
    gain = tau / (amp * np.sin(theta))
    angles = np.outer(np.arange(M + 1), theta)
    cos, sin = np.cos(angles), np.sin(angles)
    modes = _dst(v0[1:-1]) * cos + _dst(u1h[1:-1]) * gain * sin
    if fh is not None:
        kicks = _dst(np.multiply.outer(fh.time, fh.space[1:-1])) * (tau * gain)
        kicks[0] *= 0.5
        modes[1:] += (sin[1:] * np.cumsum(kicks * cos[:-1], axis=0)
                      - cos[1:] * np.cumsum(kicks * sin[:-1], axis=0))
    out = np.zeros((M + 1, N + 1))
    out[:, 1:-1] = _dst(modes) * (2.0 / N)
    return out


@pytest.mark.parametrize("m", [1, 15, 16, 17, 37, 64])
@pytest.mark.parametrize("forced", [False, True], ids=["free", "forced"])
def test_discrete_blocks_keep_the_bits_of_the_whole_array_formula(m, forced):
    # served in _march's blocks, one data set or a stack of three, carrying the
    # Duhamel prefix sums across the seams: every level keeps its bits
    mesh = build_mesh(math.pi, m * math.pi / 64, 32, m)  # tau = h / 2
    rng = np.random.default_rng(m)
    v0, u1h, space = np.zeros((3, 3, mesh.N + 1))
    v0[..., 1:-1], u1h[..., 1:-1], space[..., 1:-1] = rng.standard_normal((3, 3, mesh.N - 1))
    time = rng.standard_normal((3, m))
    stack = discrete_trajectory(mesh, v0, u1h, ForcingLevels(time, space) if forced else None)
    assert stack.shape == (3, m + 1, mesh.N + 1)
    for b in range(3):
        fh = ForcingLevels(time[b], space[b]) if forced else None
        expected = _whole_array_trajectory(mesh, v0[b], u1h[b], fh)
        assert np.array_equal(discrete_trajectory(mesh, v0[b], u1h[b], fh), expected)
        assert np.array_equal(stack[b], expected)
    for inputs, lead in (((v0[0], u1h[0], None), 1), ((v0, u1h, None), 3)):
        stepped = [(first, levels.shape) for first, levels
                   in _march(mesh, *inputs, lead == 3, np.empty((lead, m)))]
        assert [(first, levels.shape) for first, levels
                in discrete_blocks(mesh, *inputs)] == stepped


@pytest.mark.parametrize("name, bad, error, message", [
    ("v0", np.zeros(MESH.N + 2), ContractViolation, r"^v0 must have shape \(17,\)"),
    ("v0", np.full(MESH.N + 1, np.nan), ConfigurationError, "^v0 has values that are not finite"),
    ("u1h", np.zeros(MESH.N), ContractViolation, r"^u1h must have shape \(17,\)"),
    ("u1h", np.full(MESH.N + 1, np.inf), ConfigurationError, "^u1h has values that are not finite"),
    ("time", np.zeros(MESH.M + 1), ContractViolation, r"^fh time factor must have shape \(64,\)"),
    ("time", np.full(MESH.M, np.nan), ConfigurationError,
     "^fh time factor has values that are not finite"),
    ("space", np.zeros((2, MESH.N + 1)), ContractViolation,
     r"^fh space factor must have shape \(17,\)"),
    ("space", np.full(MESH.N + 1, -np.inf), ConfigurationError,
     "^fh space factor has values that are not finite"),
])
def test_discrete_trajectory_checks_its_data_on_entry(name, bad, error, message):
    # the shape and finiteness of each datum, named; the ends are taken as zero
    inputs = {"v0": MESH.zeros(), "u1h": MESH.zeros(), "time": np.ones(MESH.M),
              "space": MESH.zeros()}
    inputs[name] = bad
    with pytest.raises(error, match=message):
        discrete_trajectory(MESH, inputs["v0"], inputs["u1h"],
                            ForcingLevels(inputs["time"], inputs["space"]))
    ones, inner = np.ones((2, MESH.N + 1))
    inner[::MESH.N] = 0.0
    assert np.array_equal(discrete_trajectory(MESH, ones, ones),
                          discrete_trajectory(MESH, inner, inner))


def test_discrete_blocks_refuse_factors_whose_levels_overflow():
    # finite factors whose product is not: refused and named as evolve_grid
    # refuses them, not served as NaN levels
    big = ForcingLevels(np.full(MESH.M, 1e200), np.full(MESH.N + 1, 1e200))
    with pytest.raises(ConfigurationError, match="^fh has values that are not finite$"):
        discrete_trajectory(MESH, MESH.zeros(), MESH.zeros(), big)
    stack = ForcingLevels(np.ones((3, MESH.M)), np.ones((3, MESH.N + 1)))
    stack.time[1], stack.space[1] = big.time, big.space
    with pytest.raises(ConfigurationError, match="^fh column 1 has values that are not finite$"):
        next(discrete_blocks(MESH, np.zeros((3, MESH.N + 1)), np.zeros((3, MESH.N + 1)), stack))


@pytest.mark.parametrize("preset", ["hat_step", "quad_spline_hat"])
@pytest.mark.parametrize("n", [256, 1024])
def test_stepper_matches_the_closed_form_on_rough_presets(preset, n):
    mesh = build_mesh(math.pi, math.pi, n, 2 * n)
    inputs = prepare_inputs(mesh, PRESETS[preset].make(mesh.X), "v2")
    closed = discrete_trajectory(mesh, *inputs)
    scale = max(1.0, float(np.max(np.abs(closed))))
    assert np.max(np.abs(evolve_grid(mesh, *inputs).slices - closed)) / scale < 1e-9


@pytest.mark.parametrize("n", [16, 64])
def test_stepper_matches_the_closed_form_on_forced_random_data(n):
    mesh = build_mesh(math.pi, math.pi, n, 2 * n)
    rng = np.random.default_rng(n)
    forced = 0
    while forced < 5:
        data = random_dataspec(rng, mesh.X)
        if data.f is None:
            continue
        forced += 1
        inputs = prepare_inputs(mesh, data, "v2")
        closed = discrete_trajectory(mesh, *inputs)
        scale = max(1.0, float(np.max(np.abs(closed))))
        assert np.max(np.abs(evolve_grid(mesh, *inputs).slices - closed)) / scale < 1e-9


@pytest.mark.parametrize("j,k", [(0, 2), (1, 3), (2, 4)])
def test_oracle_equivalence_spot_checks(j, k):
    kind = HarmonicData(j=j, k=k)
    mesh = build_mesh(math.pi, math.pi, 16, 64)
    for variant in ("v0", "v1", "v2"):
        run = evolve(mesh, harmonic_dataspec(kind, mesh), variant=variant)
        closed = discrete_harmonic_trajectory(kind, mesh, variant)
        scale = max(1.0, float(np.max(np.abs(closed))))
        assert np.max(np.abs(run.slices - closed)) / scale < 1e-10


def test_oracle_equivalence_on_rescaled_mesh():
    # a general (X, a, T) run maps onto the canonical closed form
    mesh = build_mesh(X=2.0, T=1.3, N=20, M=52, a=0.7, eps0=0.9)
    for kind in (HarmonicData(j=0, k=2), HarmonicData(j=1, k=3), HarmonicData(j=2, k=2)):
        run = evolve(mesh, harmonic_dataspec(kind, mesh))
        closed = discrete_harmonic_trajectory(kind, mesh, "v2")
        scale = max(1.0, float(np.max(np.abs(closed))))
        assert np.max(np.abs(run.slices - closed)) / scale < 1e-10


# --------------------------------------------------------------------------
# frequency selection and constants

def test_choose_k_h_hand_example():
    # alpha=2, h=0.01, tau=0.005: nu_h = (1e-8 - 6.25e-10)/480 = 1.953125e-11,
    # rho = (2/nu_h)^(1/5) = 159.24..., so k_h = 160 (hand arithmetic)
    nu_ex = (0.01 ** 4 - 0.005 ** 4) / 480.0
    assert nu_ex == pytest.approx(1.953125e-11, rel=1e-12)
    rho_ex = (2.0 / nu_ex) ** 0.2
    assert rho_ex == pytest.approx(159.24, abs=0.01)
    # the same ladder rung realized as an exact pi-mesh (N = 314 ~ pi/0.01)
    mesh = build_mesh(math.pi, math.pi, 314, 628)
    nu = (mesh.h ** 4 - mesh.tau ** 4) / 480.0
    rho = (2.0 / nu) ** 0.2
    k = choose_k_h(2.0, mesh)
    assert k == int(rho) + 1
    assert k <= mesh.N - 1


def test_choose_k_h_scaling_law():
    # doubling N multiplies k_h by about 2^(4/5)
    ks = []
    for n in (256, 512, 1024, 2048):
        mesh = build_mesh(math.pi, math.pi, n, 2 * n)
        ks.append(choose_k_h(2.0, mesh))
    for a, b in zip(ks, ks[1:]):
        assert b / a == pytest.approx(2 ** 0.8, rel=0.02)


def test_choose_k_h_frequency_shift_trend():
    # mu_{k_h} - (k_h - alpha) = O(h^(2/5)): the scaled shift stays bounded
    scaled = []
    for n in (128, 256, 512, 1024):
        mesh = build_mesh(math.pi, math.pi, n, 2 * n)
        k = choose_k_h(2.0, mesh)
        shift = dispersion(k, mesh).mu_k - (k - 2.0)
        scaled.append(abs(shift) / mesh.h ** 0.4)
    assert max(scaled) < 2.0
    assert scaled[-1] < 2.0 * scaled[0] + 0.5  # no upward drift


def test_choose_k_h_small_alpha_and_coarse_mesh():
    mesh = build_mesh(math.pi, math.pi, 64, 128)
    assert choose_k_h(1e-12, mesh) == 1
    for alpha in (0.0, -2.0):
        with pytest.raises(ContractViolation, match="^alpha must be positive$"):
            choose_k_h(alpha, mesh)
    coarse = build_mesh(math.pi, math.pi, 4, 8)
    with pytest.raises(MeshTooCoarseError) as err:
        choose_k_h(2.0, coarse)
    assert err.value.minimal_n is not None and err.value.minimal_n > 4


@pytest.mark.parametrize("alpha", [1e2, 1e4, 1e8, 1e12])
def test_choose_k_h_names_the_least_n_that_suffices(alpha):
    # the named N resolves its own k_h at the same tau/h, and half of it does not
    mesh = build_mesh(math.pi, math.pi, 16, 32)
    with pytest.raises(MeshTooCoarseError) as err:
        choose_k_h(alpha, mesh)
    n = err.value.minimal_n
    assert n > mesh.N and f"N >= {n} suffices for alpha = {alpha}" in str(err.value)
    assert choose_k_h(alpha, build_mesh(math.pi, math.pi, n, 2 * n)) <= n - 1
    if n // 2 > mesh.N:
        with pytest.raises(MeshTooCoarseError):
            choose_k_h(alpha, build_mesh(math.pi, math.pi, n // 2, n))


@pytest.mark.parametrize("alpha", [1e40, 1e250, 1e300, 1e308])
def test_choose_k_h_beyond_every_mesh_is_a_configuration_error(alpha):
    # no N <= MAX_CELLS resolves k_h (1e40 needs N = 16 * 2^132), or
    # (alpha / nu_h)^(1/5) overflows: refused naming alpha, not an overflow
    refusal = re.escape(f"alpha = {alpha} puts k_h beyond N - 1")
    with pytest.raises(ConfigurationError, match=refusal):
        choose_k_h(alpha, build_mesh(math.pi, math.pi, 16, 32))


def test_asymptotic_constants():
    assert asymptotic_constant(0, math.pi) == pytest.approx(4.0, rel=1e-14)
    assert asymptotic_constant(1, math.pi) == pytest.approx(4.0, rel=1e-14)
    assert asymptotic_constant(0, math.pi / 2) == pytest.approx(2.0, rel=1e-14)
    assert asymptotic_constant(2, math.pi) == pytest.approx(math.pi, rel=1e-14)
    for j, T in ((0, 0.0), (2, -1.0)):
        with pytest.raises(ContractViolation, match="^T must be positive$"):
            asymptotic_constant(j, T)
    # c_0(T) is twice the integral of |sin| over (0, T)
    for T in (1.0, 4.0, 9.5):
        kinks = [k * math.pi for k in range(1, int(T / math.pi) + 1)]
        ref, _ = quad(lambda t: abs(math.sin(t)), 0.0, T, points=kinks or None,
                      limit=200)
        assert asymptotic_constant(0, T) == pytest.approx(2.0 * ref, rel=1e-9)


def test_sharpness_prediction_values():
    assert sharpness_prediction(0, 0, 7, math.pi) == pytest.approx(16.0 / math.pi, rel=1e-14)
    assert sharpness_prediction(0, 0, 7, math.pi) == pytest.approx(5.0930, abs=5e-5)
    # j=1, l=1 cancels the k factor: same value as j=0, l=0
    assert sharpness_prediction(1, 1, 13, math.pi) == pytest.approx(
        sharpness_prediction(0, 0, 13, math.pi), rel=1e-14)
    assert sharpness_prediction(2, 0, 10, math.pi) == pytest.approx(0.4, rel=1e-14)
    with pytest.raises(ContractViolation):
        sharpness_prediction(2, 0, 1, math.pi)
    with pytest.raises(ContractViolation, match="^l must be 0 or 1$"):
        sharpness_prediction(0, 2, 3, math.pi)
    for j in (3, -1):  # j names a family, not an index
        with pytest.raises(ContractViolation, match=f"j must be 0, 1 or 2, got {j}"):
            sharpness_prediction(j, 0, 5, 1.0)


def test_trig_identity_cos_difference():
    # cos(kt) - cos((k-2)t) + 2 sin(t) sin((k-1)t) = 0 pointwise
    rng = np.random.default_rng(4)
    for _ in range(50):
        k = rng.integers(2, 40)
        t = rng.uniform(0, 10)
        val = (math.cos(k * t) - math.cos((k - 2) * t)
               + 2.0 * math.sin(t) * math.sin((k - 1) * t))
        assert abs(val) < 1e-12


def test_canonical_mesh_round_trip():
    mesh = build_mesh(2.0, 3.0, 10, 60, a=0.5, eps0=0.8)
    cm = canonical_mesh(mesh)
    assert cm.X == pytest.approx(math.pi)
    assert cm.a == 1.0
    assert cm.N == mesh.N and cm.M == mesh.M
    assert cm.stable == mesh.stable
    already = build_mesh(math.pi, 1.0, 8, 16)
    assert canonical_mesh(already) is already
