"""Reference providers against closed forms, brute-force superposition and
quadrature."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from wavecompact import reference
from wavecompact.data import PRESETS, DataSpec, Profile, average_qh, sine_coefficients
from wavecompact.errors import ConfigurationError, ContractViolation
from wavecompact.experiments import random_dataspec
from wavecompact.grid import build_mesh
from wavecompact.oracle import HarmonicData, exact_harmonic_solution
from wavecompact.reference import GridReference, HarmonicReference, dalembert_reference


def _qh_oracle(func, mesh, kinks=()):
    """(q_h w)_i by adaptive quadrature of w against the hats, split at the
    node and at the kinks of w inside the hat."""
    out = mesh.zeros()
    x = mesh.nodes()
    for i in range(1, mesh.N):
        hat = lambda s: max(1.0 - abs(s / mesh.h - i), 0.0)
        points = [x[i], *(k for k in kinks if x[i - 1] < k < x[i + 1])]
        val, _ = quad(lambda s: func(s) * hat(s), x[i - 1], x[i + 1],
                      points=points, limit=200)
        out[i] = val / mesh.h
    return out


def test_grid_reference_round_trip():
    mesh = build_mesh(1.0, 1.0, 4, 8)
    values = np.zeros((9, 5))
    values[:, 2] = np.arange(9)
    ref = GridReference(mesh, values)
    np.testing.assert_array_equal(ref.values(3), values[3])
    with pytest.raises(ContractViolation):
        ref.qh_values(0)
    with pytest.raises(ContractViolation):
        GridReference(mesh, np.zeros((3, 5)))


def test_harmonic_reference_matches_exact_solution():
    mesh = build_mesh(math.pi, math.pi, 12, 48)
    kind = HarmonicData(j=2, k=3)
    ref = HarmonicReference(mesh, kind)
    x, t = mesh.nodes(), mesh.times()
    for m in (0, 5, mesh.M):
        np.testing.assert_allclose(ref.values(m),
                                   exact_harmonic_solution(kind, mesh, x, t[m]),
                                   rtol=1e-13, atol=1e-14)


def test_harmonic_reference_qh_slices_by_quadrature():
    mesh = build_mesh(math.pi, math.pi, 8, 32)
    kind = HarmonicData(j=0, k=2)
    ref = HarmonicReference(mesh, kind)
    t = mesh.times()[7]
    oracle = _qh_oracle(lambda x: exact_harmonic_solution(kind, mesh, x, t), mesh)
    np.testing.assert_allclose(ref.qh_values(7), oracle, rtol=1e-12, atol=1e-13)


def _brute_series_reference(mesh, coeffs0, coeffs1, n_modes, qh=False):
    """Direct mode-sum of the exact solution (or its hat averages) at the grid
    points, for orthonormal sine coefficients of u0 and u1."""
    x, t = mesh.nodes(), mesh.times()
    k = np.arange(1, n_modes + 1)
    omega = np.pi * k / mesh.X
    root = math.sqrt(2.0 / mesh.X)
    a = np.zeros(n_modes)
    b = np.zeros(n_modes)
    a[:min(n_modes, len(coeffs0))] = np.asarray(coeffs0)[:n_modes] * root
    b[:min(n_modes, len(coeffs1))] = np.asarray(coeffs1)[:n_modes] * root
    shape = np.sin(np.outer(omega, x))
    if qh:
        half = omega * mesh.h / 2
        shape *= ((np.sin(half) / half) ** 2)[:, None]
    phase = np.outer(t, mesh.a * omega)
    vals = (a * np.cos(phase) + b / (mesh.a * omega) * np.sin(phase)) @ shape
    vals[:, 0] = vals[:, -1] = 0.0
    return vals


def _data_cases(X):
    """hat_step, quad_spline_hat and three unforced random draws on (0, X)."""
    cases = [PRESETS[name].make(X) for name in ("hat_step", "quad_spline_hat")]
    rng = np.random.default_rng(7)
    draws = [random_dataspec(rng, X) for _ in range(3)]
    return cases + [DataSpec(u0=d.u0, u1=d.u1) for d in draws]


_DATA_IDS = ["hat_step", "quad_spline_hat", "random0", "random1", "random2"]


# a tau / h is 1/2 at T = pi, 2/5 at T = 0.8 pi and irrational at T = 2.5
_PATHS = {"argvalues": [math.pi, 0.8 * math.pi, 2.5],
          "ids": ["lattice", "lattice_p2_q5", "per_level"]}


@pytest.mark.parametrize("T", **_PATHS)
@pytest.mark.parametrize("case", range(5), ids=_DATA_IDS)
def test_dalembert_reference_initial_slice_is_data(T, case):
    mesh = build_mesh(math.pi, T, 8, 16)
    data = _data_cases(math.pi)[case]
    ref = dalembert_reference(mesh, data)
    samples = data.u0(mesh.nodes())
    samples[0] = samples[-1] = 0.0
    np.testing.assert_allclose(ref.values(0), samples, rtol=0, atol=1e-14)
    np.testing.assert_allclose(ref.qh_values(0), average_qh(data.u0, mesh), rtol=0, atol=1e-14)


@pytest.mark.parametrize("X, a, N, M", [(math.pi, 1.0, 16, 32), (2.0, 1.5, 8, 12)],
                         ids=["pi", "X2_a1.5"])
@pytest.mark.parametrize("case", range(5), ids=_DATA_IDS)
def test_dalembert_reference_reflects_u0_at_half_period(X, a, N, M, case):
    # at aT = X the u1 terms cancel and u(x, T) = -u0(X - x)
    mesh = build_mesh(X, X / a, N, M, a)
    data = _data_cases(X)[case]
    expected = -data.u0(X - mesh.nodes())
    expected[0] = expected[-1] = 0.0
    np.testing.assert_allclose(dalembert_reference(mesh, data).values(mesh.M), expected,
                               rtol=0, atol=1e-14)


def _hat_step_solution(X, a):
    """u(x, t) of hat_step by d'Alembert's formula, written out by hand: U0 is
    the odd extension of the hat, V1 the even extension of min(r, X - r)."""
    def fold(y):
        r = np.mod(y, 2 * X)
        return np.where(r > X, 2 * X - r, r), np.where(r > X, -1.0, 1.0)

    def u0_ext(y):
        r, sign = fold(y)
        return sign * (1.0 - np.abs(2.0 * r / X - 1.0))

    def v1_ext(y):
        r, _ = fold(y)
        return np.minimum(r, X - r)

    def u(x, t):
        return (0.5 * (u0_ext(x + a * t) + u0_ext(x - a * t))
                + (v1_ext(x + a * t) - v1_ext(x - a * t)) / (2 * a))
    return u


@pytest.mark.parametrize("X, a, T, N, M", [
    (math.pi, 1.0, math.pi, 8, 16),
    (math.pi, 1.0, 0.8 * math.pi, 8, 16),
    (math.pi, 1.0, 2.5, 8, 16),
    (2.0, 1.5, 2.0 / 1.5, 8, 12),
    (2.0, 1.5, 1.1, 8, 12),  # a tau / h = 11/20, q > M
], ids=["lattice", "lattice_p2_q5", "per_level", "X2_a1.5_lattice", "X2_a1.5_per_level"])
def test_dalembert_reference_qh_slices_by_quadrature(X, a, T, N, M):
    mesh = build_mesh(X, T, N, M, a)
    ref = dalembert_reference(mesh, PRESETS["hat_step"].make(X))
    u = _hat_step_solution(X, a)
    for m in (1, 5, mesh.M):
        t = mesh.times()[m]
        # u(., t) is piecewise linear, kinked where x +- a t is a multiple of X/2
        kinks = [j * X / 2 + s * a * t for j in range(-8, 9) for s in (1, -1)]
        oracle = _qh_oracle(lambda x: float(u(x, t)), mesh, kinks)
        np.testing.assert_allclose(ref.qh_values(m), oracle, rtol=0, atol=1e-12)
        expected = u(mesh.nodes(), t)
        expected[0] = expected[-1] = 0.0
        np.testing.assert_allclose(ref.values(m), expected, rtol=0, atol=1e-14)


@pytest.mark.parametrize("X, a, N, M", [(math.pi, 1.0, 8, 16), (2.0, 1.5, 8, 12)],
                         ids=["pi", "X2_a1.5"])
@pytest.mark.parametrize("case", range(5), ids=_DATA_IDS)
def test_dalembert_reference_lattice_vs_per_level_paths(monkeypatch, X, a, N, M, case):
    mesh = build_mesh(X, X / a, N, M, a)
    data = _data_cases(X)[case]
    lattice = dalembert_reference(mesh, data)
    monkeypatch.setattr(reference, "_lattice", lambda mesh: None)
    per_level = dalembert_reference(mesh, data)
    levels = slice(None)
    np.testing.assert_allclose(lattice.values(levels), per_level.values(levels),
                               rtol=0, atol=1e-13)
    np.testing.assert_allclose(lattice.qh_values(levels), per_level.qh_values(levels),
                               rtol=0, atol=1e-13)


@pytest.mark.parametrize("T", **_PATHS)
def test_dalembert_reference_paths_match_brute_force(T):
    # the mode sum stops at K; its pointwise gap is at most the sum of the
    # omitted amplitudes.  They decay like k^-2, so those beyond 16 K add at
    # most a fifteenth of those in (K, 16 K]: twice that sum bounds the gap.
    mesh = build_mesh(math.pi, T, 8, 16)
    data = PRESETS["hat_step"].make(math.pi)
    k_total = 4096
    c0 = sine_coefficients(data.u0, 16 * k_total)
    c1 = sine_coefficients(data.u1, 16 * k_total)
    k = np.arange(k_total + 1, 16 * k_total + 1)
    omitted = np.abs(c0[k_total:]) + np.abs(c1[k_total:]) / k  # a = 1, X = pi
    bound = 2.0 * math.sqrt(2.0 / math.pi) * float(np.sum(omitted))
    ref = dalembert_reference(mesh, data)
    values = _brute_series_reference(mesh, c0, c1, k_total)
    qh_values = _brute_series_reference(mesh, c0, c1, k_total, qh=True)
    assert 0.0 < np.max(np.abs(ref.values(slice(None)) - values)) <= bound < 1e-3
    assert np.max(np.abs(ref.qh_values(slice(None)) - qh_values)) <= bound


@pytest.mark.parametrize("T", **_PATHS)
def test_dalembert_reference_of_a_sine_series_is_its_mode_sum(T):
    mesh = build_mesh(math.pi, T, 8, 16)
    rng = np.random.default_rng(0)
    c0 = rng.standard_normal(6)
    c1 = rng.standard_normal(6)
    data = DataSpec(u0=Profile.sine_series(c0, math.pi),
                    u1=Profile.sine_series(c1, math.pi))
    ref = dalembert_reference(mesh, data)
    np.testing.assert_allclose(ref.values(slice(None)), _brute_series_reference(mesh, c0, c1, 6),
                               rtol=1e-11, atol=1e-12)
    np.testing.assert_allclose(ref.qh_values(slice(None)),
                               _brute_series_reference(mesh, c0, c1, 6, qh=True),
                               rtol=1e-11, atol=1e-12)


def test_dalembert_reference_rejects_forcing():
    from wavecompact.data import Forcing, TimeProfile
    mesh = build_mesh(math.pi, math.pi, 4, 8)
    data = DataSpec(u0=Profile.zero(math.pi), u1=Profile.zero(math.pi),
                    f=Forcing(space=Profile.harmonic_mode(1, math.pi),
                              time=TimeProfile.harmonic_sin(1.0)))
    with pytest.raises(ContractViolation):
        dalembert_reference(mesh, data)


@pytest.mark.parametrize("T", [math.pi, 2.5], ids=["lattice", "per_level"])
@pytest.mark.parametrize("name, breakpoints, pieces", [
    # u = 1e308 (1 + x) overflows; so does its antiderivative
    ("u0", (0.0, math.pi), ((1e308, 1e308),)),
    ("u1", (0.0, math.pi), ((1e308, 1e308),)),
    # every value of u1 is finite, but V1 passes 1.8e308 between x = 1 and 2,
    # so the pieces of its antiderivative are not finite
    ("u1", (0.0, 1.0, 2.0, math.pi), ((1e308,),) * 3),
], ids=["u0", "u1", "u1_antiderivative"])
def test_dalembert_reference_rejects_non_finite_values(name, breakpoints, pieces, T):
    mesh = build_mesh(math.pi, T, 4, 8)
    profiles = {"u0": Profile.zero(math.pi), "u1": Profile.zero(math.pi)}
    profiles[name] = Profile.piecewise_poly(breakpoints, pieces)
    with pytest.raises(ConfigurationError,
                       match=f"^the exact solution of {name} is not finite on the N=4, M=8 mesh$"):
        dalembert_reference(mesh, DataSpec(**profiles))
