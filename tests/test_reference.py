"""The exact reference against closed forms, brute-force superposition and
quadrature."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad

from wavecompact import reference
from wavecompact.data import (PRESETS, DataSpec, Forcing, Profile, TimeProfile, average_qh,
                              sine_coefficients, step_profile)
from wavecompact.errors import ConfigurationError
from wavecompact.experiments import random_dataspec
from wavecompact.grid import build_mesh
from wavecompact.oracle import (HarmonicData, canonical_mesh, exact_harmonic_solution,
                                harmonic_dataspec)
from wavecompact.reference import dalembert_reference


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


# X = 2, a = 1.5: a tau / h is 2/3 at T = X / a and 11/20 (q > M) at T = 1.1
@pytest.mark.parametrize("T, lattice", [(2.0 / 1.5, True), (1.1, False)],
                         ids=["lattice", "per_level"])
@pytest.mark.parametrize("j", [0, 1, 2])
def test_dalembert_reference_of_harmonic_data_is_the_closed_form(j, T, lattice):
    # harmonic_dataspec scales the data so that the canonical closed form holds
    mesh = build_mesh(2.0, T, 8, 12, 1.5)
    assert (reference._lattice(mesh) is not None) == lattice
    kind = HarmonicData(j=j, k=3)
    ref = dalembert_reference(mesh, harmonic_dataspec(kind, mesh))
    cm = canonical_mesh(mesh)
    exact = exact_harmonic_solution(kind, cm.nodes(), cm.times()[:, None])
    exact[:, ::mesh.N] = 0.0
    np.testing.assert_allclose(ref.values(slice(None)), exact, rtol=0, atol=1e-12)
    for m in (1, 7, mesh.M):
        oracle = _qh_oracle(lambda x: float(exact_harmonic_solution(
            kind, math.pi * x / mesh.X, cm.times()[m])), mesh)
        np.testing.assert_allclose(ref.qh_values(m), oracle, rtol=0, atol=1e-12)


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


@pytest.mark.parametrize("T", [2.0 / 1.5, 1.1], ids=["lattice", "per_level"])
def test_dalembert_reference_of_forced_modes_is_the_duhamel_integral(T):
    # u_k(t) = c_k sqrt(2/X) / w_k int_0^t sin(omega s) sin(w_k (t - s)) ds, by quadrature
    X, a, omega, c = 2.0, 1.5, 1.1, (0.4, 0.0, -0.7)
    mesh = build_mesh(X, T, 8, 12, a)
    data = DataSpec(u0=Profile.zero(X), u1=Profile.zero(X),
                    f=Forcing(space=Profile.sine_series(c, X),
                              time=TimeProfile.harmonic_sin(omega)))
    ref = dalembert_reference(mesh, data)
    x, t = mesh.nodes(), mesh.times()
    for m in (1, 7, mesh.M):
        expected, qh_expected = np.zeros(mesh.N + 1), np.zeros(mesh.N + 1)
        for k, ck in enumerate(c, start=1):
            w_k = a * math.pi * k / X
            duhamel, _ = quad(lambda s: math.sin(omega * s) * math.sin(w_k * (t[m] - s)),
                              0.0, t[m])
            amplitude = ck * math.sqrt(2.0 / X) / w_k * duhamel
            expected += amplitude * np.sin(math.pi * k * x / X)
            qh_expected += amplitude * _qh_oracle(lambda y: math.sin(math.pi * k * y / X), mesh)
        expected[::mesh.N] = qh_expected[::mesh.N] = 0.0
        np.testing.assert_allclose(ref.values(m), expected, rtol=0, atol=1e-13)
        np.testing.assert_allclose(ref.qh_values(m), qh_expected, rtol=0, atol=1e-13)
    # with initial data too, the reference is the sum of the two (linearity)
    rough = PRESETS["hat_step"].make(X)
    both = dalembert_reference(mesh, DataSpec(u0=rough.u0, u1=rough.u1, f=data.f))
    unforced = dalembert_reference(mesh, rough)
    for view in ("values", "qh_values"):
        np.testing.assert_allclose(
            getattr(both, view)(slice(None)),
            getattr(unforced, view)(slice(None)) + getattr(ref, view)(slice(None)),
            rtol=0, atol=1e-14)


def test_dalembert_reference_rejects_forcing():
    # only a sine series in x times sin(omega t), off resonance, has an exact reference
    mesh = build_mesh(math.pi, math.pi, 4, 8)
    mode, step = Profile.harmonic_mode(1, math.pi), step_profile(math.pi)
    for space, time, reason in [
        (mode, TimeProfile.harmonic_sin(1.0), "resonant with mode k = 1"),  # a pi k / X = 1
        (step, TimeProfile.harmonic_sin(0.5), "piecewise space factor"),
        (mode, TimeProfile.polynomial((1.0,)), "polynomial time factor"),
    ]:
        data = DataSpec(u0=Profile.zero(math.pi), u1=Profile.zero(math.pi),
                        f=Forcing(space=space, time=time))
        assert reason in reference.reference_refusal(mesh, data)
        with pytest.raises(ConfigurationError, match=f"^no exact reference for forced data.*{reason}"):
            dalembert_reference(mesh, data)


@pytest.mark.parametrize("T", [math.pi, 2.5], ids=["lattice", "per_level"])
@pytest.mark.parametrize("name, datum", [
    # u = 1e308 (1 + x) overflows; so does its antiderivative
    ("u0", Profile.piecewise_poly((0.0, math.pi), ((1e308, 1e308),))),
    ("u1", Profile.piecewise_poly((0.0, math.pi), ((1e308, 1e308),))),
    # every value of u1 is finite, but V1 passes 1.8e308 between x = 1 and 2,
    # so the pieces of its antiderivative are not finite
    ("u1", Profile.piecewise_poly((0.0, 1.0, 2.0, math.pi), ((1e308,),) * 3)),
    # the mode's amplitude 1.43e308 times its response, above 1.3 before
    # t = 2.5, passes 1.8e308
    ("f", Forcing(space=Profile.sine_series((1.79e308,), math.pi),
                  time=TimeProfile.harmonic_sin(0.99))),
], ids=["u0", "u1", "u1_antiderivative", "f"])
def test_dalembert_reference_rejects_non_finite_values(name, datum, T):
    mesh = build_mesh(math.pi, T, 4, 8)
    data = {"u0": Profile.zero(math.pi), "u1": Profile.zero(math.pi), name: datum}
    with pytest.raises(ConfigurationError,
                       match=f"^the exact solution of {name} is not finite on the N=4, M=8 mesh$"):
        dalembert_reference(mesh, DataSpec(**data))


def test_lattice_reference_is_served_block_by_block():
    # the build keeps period arrays of about 2N + M entries and never holds an
    # (M+1, N+1) array, 16.8 MB here; the transient peak is the Gauss-point
    # evaluation of the hat averages, about 0.9 MB.  Blocks of levels are the
    # full range bit for bit.
    mesh = build_mesh(math.pi, math.pi, 1024, 2048)
    data = PRESETS["hat_step"].make(math.pi)
    tracemalloc.start()
    try:
        ref = dalembert_reference(mesh, data)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert reference._lattice(mesh) is not None
    assert kept < 2 ** 20 and peak < 2 * 2 ** 20
    for view in (ref.values, ref.qh_values):
        full = view(slice(None))
        assert not np.any(full[:, ::mesh.N])  # Dirichlet ends, exactly
        blocks = [view(slice(start, start + 17)) for start in range(0, mesh.M + 1, 17)]
        np.testing.assert_array_equal(np.concatenate(blocks), full)
        np.testing.assert_array_equal(view(mesh.M), full[-1])
        np.testing.assert_array_equal(view(slice(None, None, -5)), full[::-5])


def _forced_sine_series_data(X):
    rng = np.random.default_rng(5)
    return DataSpec(u0=Profile.sine_series(rng.standard_normal(6), X),
                    u1=Profile.sine_series(rng.standard_normal(6), X),
                    f=Forcing(space=Profile.sine_series(rng.standard_normal(6), X),
                              time=TimeProfile.harmonic_sin(1.3)))


def test_per_level_reference_is_served_block_by_block():
    # a tau / h = 1.25 / 1.5 has no q <= M: the per-level build.  Blocks of
    # levels are the full range bit for bit, and the full range is the eager
    # sum of the unforced views (zero ends) and the forced modes' coeffs @
    # shapes (zero ends), bit for bit
    mesh = build_mesh(math.pi, 2.5, 16, 48)
    assert reference._lattice(mesh) is None
    data = _forced_sine_series_data(mesh.X)
    ref = dalembert_reference(mesh, data)
    unforced = dalembert_reference(mesh, DataSpec(u0=data.u0, u1=data.u1))
    coeffs, shapes = reference._forced_modes(mesh, data.f)
    shapes[..., ::mesh.N] = 0.0
    eager = coeffs @ shapes
    for v, view in enumerate((ref.values, ref.qh_values)):
        full = view(slice(None))
        expected = (unforced.values, unforced.qh_values)[v](slice(None)) + eager[v]
        np.testing.assert_array_equal(full, expected)
        assert not np.any(full[:, ::mesh.N])
        blocks = [view(slice(start, start + 17)) for start in range(0, mesh.M + 1, 17)]
        np.testing.assert_array_equal(np.concatenate(blocks), full)


def test_forced_per_level_build_holds_one_views_array():
    # the build fills one (2, M+1, N+1) array level by level; the forced
    # modes are served per call, not added to it through a second such array
    mesh = build_mesh(math.pi, 2.5, 128, 256)
    assert reference._lattice(mesh) is None
    data = _forced_sine_series_data(mesh.X)
    views_bytes = 2 * (mesh.M + 1) * (mesh.N + 1) * 8
    tracemalloc.start()
    try:
        dalembert_reference(mesh, data)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.3 * views_bytes
