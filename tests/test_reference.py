"""The exact reference against closed forms, brute-force superposition and
quadrature."""

import math
import tracemalloc
import warnings
from dataclasses import astuple
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad

import wavecompact.data as data_mod
from wavecompact import reference
from wavecompact.data import (PRESETS, DataSpec, Forcing, Profile, TimeProfile, average_qh,
                              extension_sampler, step_profile)
from wavecompact.errors import ConfigurationError
from wavecompact.experiments import random_dataspec
from wavecompact.grid import build_mesh
from wavecompact.oracle import (HarmonicData, canonical_mesh, forced_mode_response,
                                harmonic_dataspec)
from wavecompact.reference import dalembert_reference

from _harmonic import exact_harmonic_solution
from _q2h import q2h_factor, q2h_from_qh, q2h_periodic
from _sine_analysis import sine_coefficients


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
        np.testing.assert_allclose(ref.q2h_values(m), q2h_from_qh(oracle), rtol=0, atol=1e-12)


def _brute_series_reference(mesh, coeffs0, coeffs1, n_modes, q2h=False):
    """Direct mode-sum of the exact solution (or of its q_2h averages, each
    mode times its eigenfactor) at the grid points, for orthonormal sine
    coefficients of u0 and u1."""
    x, t = mesh.nodes(), mesh.times()
    k = np.arange(1, n_modes + 1)
    omega = np.pi * k / mesh.X
    root = math.sqrt(2.0 / mesh.X)
    a = np.zeros(n_modes)
    b = np.zeros(n_modes)
    a[:min(n_modes, len(coeffs0))] = np.asarray(coeffs0)[:n_modes] * root
    b[:min(n_modes, len(coeffs1))] = np.asarray(coeffs1)[:n_modes] * root
    shape = np.sin(np.outer(omega, x))
    if q2h:
        shape *= q2h_factor(omega, mesh.h)[:, None]
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
    np.testing.assert_allclose(ref.q2h_values(0), q2h_from_qh(average_qh(data.u0, mesh)),
                               rtol=0, atol=1e-14)


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
        np.testing.assert_allclose(ref.q2h_values(m), q2h_from_qh(oracle), rtol=0, atol=1e-12)
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
    np.testing.assert_allclose(lattice.q2h_values(levels), per_level.q2h_values(levels),
                               rtol=0, atol=1e-13)


@pytest.mark.parametrize("T", **_PATHS)
def test_dalembert_reference_paths_match_brute_force(T):
    # the mode sum stops at K; its pointwise gap is at most the sum of the
    # omitted amplitudes.  They decay like k^-2, so those beyond 16 K add at
    # most a fifteenth of those in (K, 16 K]: twice that sum bounds the gap,
    # and of the q_2h averages too, whose eigenfactors are at most 1
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
    q2h_values = _brute_series_reference(mesh, c0, c1, k_total, q2h=True)
    assert np.all(q2h_factor(np.arange(1, 16 * k_total + 1), mesh.h) <= 1.0)
    assert 0.0 < np.max(np.abs(ref.values(slice(None)) - values)) <= bound < 1e-3
    assert np.max(np.abs(ref.q2h_values(slice(None)) - q2h_values)) <= bound


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
    np.testing.assert_allclose(ref.q2h_values(slice(None)),
                               _brute_series_reference(mesh, c0, c1, 6, q2h=True),
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
        np.testing.assert_allclose(ref.q2h_values(m), q2h_from_qh(qh_expected), rtol=0,
                                   atol=1e-13)
    # with initial data too, the reference is the sum of the two (linearity)
    rough = PRESETS["hat_step"].make(X)
    both = dalembert_reference(mesh, DataSpec(u0=rough.u0, u1=rough.u1, f=data.f))
    unforced = dalembert_reference(mesh, rough)
    for view in ("values", "q2h_values"):
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
        # modes are read as stored, whatever their size
        (Profile.sine_series((1.0, 1.0), math.pi, (3, 2 ** 70)), TimeProfile.harmonic_sin(3.0),
         "resonant with mode k = 3"),
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
    # (M+1, N+1) array, 16.8 MB here; its transient peak is about 0.4 MB.
    # Blocks of levels are the full range bit for bit.
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
    for view in (ref.values, ref.q2h_values):
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
    # a tau / h = 1.25 / 1.5 has no q <= M: E and F are evaluated for the
    # levels served.  Blocks of levels are the full range bit for bit, and the
    # full range is, in the lattice's order, the forced modes' coeffs @ shapes
    # plus E(x + a t) plus F(x - a t), with zero ends, bit for bit; the q_2h
    # view filters the hat averages of E and F at the nodes
    mesh = build_mesh(math.pi, 2.5, 16, 48)
    assert reference._lattice(mesh) is None
    data = _forced_sine_series_data(mesh.X)
    ref = dalembert_reference(mesh, data)
    coeffs, shapes = reference._forced_modes(mesh, data.f)
    terms = ((extension_sampler(data.u0, False, mesh.h), 0.5),
             (extension_sampler(data.u1, True, mesh.h), 0.5 / mesh.a))
    for v, view in enumerate((ref.values, ref.q2h_values)):
        def halves(y):  # U0/2 and V1/(2a) at x + y
            return [np.multiply(sampler[v](y, mesh.N + 1), scale)
                    for sampler, scale in terms]
        view_of = q2h_from_qh if v else (lambda w: w)
        expected = coeffs(slice(None)) @ shapes[v]
        expected += [view_of(np.add(*halves(y))) for y in mesh.a * mesh.times()]
        expected += [view_of(np.subtract(*halves(-y))) for y in mesh.a * mesh.times()]
        expected[:, ::mesh.N] = 0.0
        full = view(slice(None))
        np.testing.assert_array_equal(full, expected)
        blocks = [view(slice(start, start + 17)) for start in range(0, mesh.M + 1, 17)]
        np.testing.assert_array_equal(np.concatenate(blocks), full)


def _lattice_formula(mesh, data, v, levels):
    """View v at levels as one array: the forced modes' coeffs @ shapes, plus
    E[qi + pm] + F[qi - pm] of E and F on one period of the lattice, flat entry
    q j + r holding y = (q j + r) h/q, with zero ends; in view 1 each residue
    class r is the q_2h filter of its hat averages on the period."""
    p, q = reference._lattice(mesh)
    n, h = mesh.N, mesh.h
    view_of = q2h_periodic if v else (lambda w: w)
    classes = [[np.multiply(sampler[v](r * h / q, 2 * n), scale)
                for sampler, scale in ((extension_sampler(data.u0, False, h), 0.5),
                                       (extension_sampler(data.u1, True, h), 0.5 / mesh.a))]
               for r in range(q)]
    m = np.arange(mesh.M + 1)[levels]
    e, f = (np.take(np.stack([view_of(combine(u0, v1)) for u0, v1 in classes], axis=-1).ravel(),
                    np.add.outer(sign * p * m, q * np.arange(n + 1)), mode="wrap")
            for combine, sign in ((np.add, 1), (np.subtract, -1)))
    if data.f is None:
        out = e + f
    else:
        coeffs, shapes = reference._forced_modes(mesh, data.f)
        out = coeffs(slice(None))[levels] @ shapes[v]
        out += e
        out += f
    out[..., ::n] = 0.0
    return out


@pytest.mark.parametrize("forced", [False, True], ids=["unforced", "forced"])
@pytest.mark.parametrize("T, lattice", [(math.pi, (1, 2)), (0.8 * math.pi, (2, 5))],
                         ids=["q2", "q5"])
def test_lattice_reference_serves_the_period_formula_bit_for_bit(T, lattice, forced):
    # each residue class of the lattice is served as contiguous rows, for an
    # int level, blocks that cross classes and steps other than 1, into out
    # or not: the values of E[qi + pm] + F[qi - pm]
    mesh = build_mesh(math.pi, T, 20, 40)
    assert reference._lattice(mesh) == lattice
    data = _forced_sine_series_data(mesh.X)
    data = data if forced else DataSpec(u0=data.u0, u1=data.u1)
    ref = dalembert_reference(mesh, data)
    blocks = [slice(start, start + 17) for start in (0, 3, 16, 29)]
    for v, view in enumerate((ref.values, ref.q2h_values)):
        for levels in [7, mesh.M, *blocks, slice(None, None, -5), slice(3, None, 7)]:
            expected = _lattice_formula(mesh, data, v, levels)
            assert np.array_equal(view(levels), expected)
            out = np.full_like(expected, np.nan)
            assert view(levels, out=out) is out and np.array_equal(out, expected)


def test_forced_modes_are_evaluated_per_served_block():
    # K = 128 modes over M = 1024 levels: the build keeps their shapes, not
    # an (M+1, K) array of time coefficients, and blocks of levels are the
    # full range bit for bit
    mesh = build_mesh(math.pi, 2.5, 128, 1024)
    assert reference._lattice(mesh) is None
    rng = np.random.default_rng(5)
    data = DataSpec(u0=Profile.zero(math.pi), u1=Profile.zero(math.pi),
                    f=Forcing(space=Profile.sine_series(rng.standard_normal(128), math.pi),
                              time=TimeProfile.harmonic_sin(1.3)))
    tracemalloc.start()
    try:
        ref = dalembert_reference(mesh, data)
        kept, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert kept < 0.4 * 2 ** 20
    for view in (ref.values, ref.q2h_values):
        blocks = [view(slice(start, start + 17)) for start in range(0, mesh.M + 1, 17)]
        assert np.array_equal(np.concatenate(blocks), view(slice(None)))


@pytest.mark.parametrize("T, forced", [(math.pi, False), (0.8 * math.pi, True), (2.5, True)],
                         ids=["q2_lattice", "q5_lattice", "forced_per_level"])
def test_the_reference_keeps_at_most_the_arrays_config_counts(T, forced):
    # the arrays a build keeps (the data's own samplers aside, which a
    # per-level mesh keeps) are at most reference_bytes, the count config adds
    # for the runs that build the reference, and most of it
    mesh = build_mesh(math.pi, T, 64, 128)
    data = _forced_sine_series_data(mesh.X)
    data = data if forced else DataSpec(u0=data.u0, u1=data.u1)
    only = [tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain),
            tracemalloc.Filter(False, data_mod.__file__)]
    tracemalloc.start()
    try:
        before = tracemalloc.take_snapshot().filter_traces(only)
        ref = dalembert_reference(mesh, data)  # alive through the second snapshot
        after = tracemalloc.take_snapshot().filter_traces(only)
    finally:
        tracemalloc.stop()
    kept = sum(stat.size_diff for stat in after.compare_to(before, "filename"))
    counted = reference.reference_bytes(mesh, 6 if forced else 0)
    assert 0.99 * counted <= kept <= counted


def test_per_level_reference_holds_no_views_array():
    # the build and serving both views in 17-level blocks, as the measurer
    # asks, stay below a tenth of a (2, M+1, N+1) array of both views
    mesh = build_mesh(math.pi, 2.5, 128, 512)
    assert reference._lattice(mesh) is None
    rng = np.random.default_rng(5)
    data = DataSpec(u0=Profile.sine_series(rng.standard_normal(6), math.pi),
                    u1=Profile.sine_series(rng.standard_normal(6), math.pi),
                    f=Forcing(space=Profile.harmonic_mode(2, math.pi),
                              time=TimeProfile.harmonic_sin(1.3)))
    tracemalloc.start()
    try:
        ref = dalembert_reference(mesh, data)
        for view in (ref.values, ref.q2h_values):
            for start in range(0, mesh.M, 16):
                view(slice(start, start + 17))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.1 * 2 * (mesh.M + 1) * (mesh.N + 1) * 8


def test_per_level_node_values_evaluate_no_hat_average(monkeypatch):
    # the build evaluates level 0 of both views; after it, node values of
    # every level take no hat average, and the q_2h view does
    calls = []

    def counting(*args, averages=data_mod._hat_averages):
        calls.append(args)
        return averages(*args)
    monkeypatch.setattr(data_mod, "_hat_averages", counting)
    mesh = build_mesh(math.pi, 2.5, 16, 48)
    assert reference._lattice(mesh) is None
    ref = dalembert_reference(mesh, PRESETS["hat_step"].make(math.pi))
    built = len(calls)
    assert built > 0
    ref.values(slice(None))
    assert len(calls) == built
    ref.q2h_values(mesh.M)
    assert len(calls) > built


def test_per_level_reference_refuses_a_later_non_finite_level():
    # u0 = 1e308 x on (0, 1.8) overflows only on (1.7977, 1.8), which no node
    # of level 0 meets, but x_1 + a t_9 = 1.799 does; the hat averages of level
    # 0 are exact, and x_4's overflows, so the build names the datum, warning-free
    mesh = build_mesh(math.pi, 2.5, 8, 16)
    assert reference._lattice(mesh) is None
    u0 = Profile.piecewise_poly((0.0, 1.8, math.pi), ((0.0, 1e308), (0.0,)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigurationError, match=r"^the exact solution of u0 is not "
                                                     r"finite on the N=8, M=16 mesh$"):
            dalembert_reference(mesh, DataSpec(u0=u0, u1=Profile.zero(math.pi)))


@pytest.mark.parametrize("T", [0.8 * math.pi, 2.5], ids=["lattice", "per_level"])
def test_forced_coefficients_keep_the_bits_of_the_duhamel_response(T):
    # coeffs takes a block's times as its level integers times tau and checks
    # no resonance (the build refused it): each block, int level and step has
    # the bits of scale * forced_mode_response at mesh.times()[levels, None]
    mesh = build_mesh(math.pi, T, 16, 48)
    f = _forced_sine_series_data(mesh.X).f
    coeffs, _ = reference._forced_modes(mesh, f)
    kappa = mesh.a * (math.pi * np.array(f.space.modes) / mesh.X)
    scale = np.asarray(f.space.coeffs) * math.sqrt(2.0 / mesh.X) / kappa
    blocks = [slice(start, start + 17) for start in range(0, mesh.M, 16)]
    for levels in [0, 7, mesh.M, *blocks, slice(None), slice(None, None, -5), slice(3, None, 7)]:
        expected = scale * forced_mode_response(f.time.omega, kappa,
                                                mesh.times()[levels, None])
        got = coeffs(levels)
        assert got.shape == expected.shape and np.array_equal(got, expected)


def test_halves_reduces_its_points_once_for_piecewise_data(monkeypatch):
    # U0 and V1 of piecewise data share one period: each halves call reduces
    # its points once, the build's two calls and one per level served, and
    # every level keeps the bits of the samplers called on their own points
    calls = []

    def counting(y, X, on_period=data_mod._on_period):
        calls.append(np.shape(y))
        return on_period(y, X)
    monkeypatch.setattr(data_mod, "_on_period", counting)
    data = PRESETS["hat_step"].make(math.pi)
    for T, lattice in ((math.pi, True), (2.5, False)):
        mesh = build_mesh(math.pi, T, 16, 32 if lattice else 48)
        assert (reference._lattice(mesh) is not None) == lattice
        del calls[:]
        ref = dalembert_reference(mesh, data)
        assert len(calls) == 2
        for v, view in enumerate((ref.values, ref.q2h_values)):
            del calls[:]
            served = view(slice(0, 17))
            assert len(calls) == (0 if lattice else 17)
            if lattice:
                continue
            terms = ((extension_sampler(data.u0, False, mesh.h), 0.5),
                     (extension_sampler(data.u1, True, mesh.h), 0.5 / mesh.a))
            view_of = q2h_from_qh if v else (lambda w: w)
            for m, s in enumerate(mesh.a * mesh.times()[:17]):
                e = np.add(*(np.multiply(sampler[v](s, mesh.N + 1), scale)
                             for sampler, scale in terms))
                f = np.subtract(*(np.multiply(sampler[v](-s, mesh.N + 1), scale)
                                  for sampler, scale in terms))
                expected = view_of(e) + view_of(f)
                expected[::mesh.N] = 0.0
                assert served[m].tobytes() == expected.tobytes()


@pytest.mark.parametrize("N, M, eps0, lattice", [
    *[(128 * 2 ** i, 256 * 2 ** i, 1.0, (1, 2)) for i in range(5)],  # the bench's ladders
    *[(n, 4 * n, 1.0, (1, 4)) for n in (64, 128, 256, 512)],  # a tau / h = 0.25
    *[(n, 5 * n // 4, 0.5, (4, 5)) for n in (64, 128, 256, 512)],  # a tau / h = 0.8
    *[(n, 11 * n // 10, 0.3, (10, 11)) for n in (640, 1280)],  # M = 1.1 N
    (512, 563, 0.3, None), (2048, 2253, 0.3, None),  # M = round(1.1 N): q = M
])
def test_a_lattice_only_where_it_holds_at_most_4_32n_2m_floats(N, M, eps0, lattice):
    # E and F of both views on the lattice, 4 (qN + pM + q) floats, against
    # 4 (32 N + 2 M), about a measured run's buffers: the q = 2, 4 and 5 meshes
    # of the bench and the rate tests keep their lattice, and so does M = 1.1 N
    # (q = 11); a q = M lattice is served per level
    mesh = build_mesh(math.pi, math.pi, N, M, eps0=eps0)
    assert reference._lattice(mesh) == lattice
    p, q = Fraction(N, M).limit_denominator(M).as_integer_ratio()
    assert (q * N + p * M + q <= 32 * N + 2 * M) == (lattice is not None)


def test_a_mesh_moved_off_the_lattice_keeps_its_errors(monkeypatch):
    # N = 256, M = 282: a tau / h = 128/141, a lattice of 2.3 MB against 0.25 MB
    # of a measured run's buffers, served per level; the errors of hat_step move by at most
    # 1e-12 relative, in both modes
    from wavecompact.scheme import evolve_measured, prepare_inputs
    mesh = build_mesh(math.pi, math.pi, 256, 282, eps0=0.3)
    data = PRESETS["hat_step"].make(math.pi)
    inputs = prepare_inputs(mesh, data, "v2")
    per_level = dalembert_reference(mesh, data)
    monkeypatch.setattr(reference, "_LATTICE_FLOATS_PER_NODE", math.inf)
    assert reference._lattice(mesh) == (128, 141)
    on_lattice = dalembert_reference(mesh, data)
    for mode in ("node_sampled", "q2h_filtered"):
        moved, _ = evolve_measured(mesh, *inputs, per_level, mode)
        kept, _ = evolve_measured(mesh, *inputs, on_lattice, mode)
        for got, want in zip(astuple(moved)[:4], astuple(kept)[:4]):
            assert got == pytest.approx(want, rel=1e-12, abs=0)


def test_the_reference_of_a_q_m_mesh_builds_in_o_n():
    # N = 2048, M = 2253 held a 305 MB lattice whose build peaked near 1.3 GB;
    # per level, the build peaks below ten times a measured run's buffers
    from wavecompact.scheme import level_bytes
    mesh = build_mesh(math.pi, math.pi, 2048, 2253, eps0=0.3)
    assert reference._lattice(mesh) is None
    tracemalloc.start()
    try:
        dalembert_reference(mesh, PRESETS["hat_step"].make(math.pi))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10 * level_bytes(mesh, False)


def _wide_data(preset, X):
    """Data whose samplers are wide: sine series of 300 modes, or degree 12
    pieces; forced by 300 modes."""
    rng = np.random.default_rng(11)
    if preset == "sine_300":
        return DataSpec(u0=Profile.sine_series(rng.standard_normal(300) / 300, X),
                        u1=Profile.sine_series(rng.standard_normal(300) / 300, X))
    if preset == "degree_12":
        b = np.linspace(0.0, X, 5)
        return DataSpec(u0=Profile.piecewise_poly(b, 0.1 * rng.standard_normal((4, 13))),
                        u1=Profile.piecewise_poly(b, 0.1 * rng.standard_normal((4, 13))))
    return DataSpec(u0=Profile.zero(X), u1=Profile.zero(X),
                    f=Forcing(space=Profile.sine_series(rng.standard_normal(300), X),
                              time=TimeProfile.harmonic_sin(0.3)))


@pytest.mark.parametrize("preset", ["hat_step", "quad_spline_hat", "sine", "forced",
                                    "sine_300", "degree_12", "forced_300"])
@pytest.mark.parametrize("T, M, eps0", [(math.pi, 512, 1.0), (math.pi, 320, 0.5), (2.5, 512, 1.0)],
                         ids=["q2_lattice", "q5_lattice", "per_level"])
def test_build_bytes_bound_the_peak_of_a_build(preset, T, M, eps0):
    # what config counts for a run that builds the reference: its peak while
    # building, temporaries included, whatever the samplers' width
    mesh = build_mesh(math.pi, T, 256, M, eps0=eps0)
    assert (reference._lattice(mesh) is None) == (T == 2.5)
    if preset == "sine":
        data = DataSpec(u0=Profile.sine_series([1.0, 0.5, 0.2], math.pi),
                        u1=Profile.sine_series([0.3, 0.1], math.pi))
    elif preset == "forced":
        data = _forced_sine_series_data(mesh.X)
    elif preset in PRESETS:
        data = PRESETS[preset].make(math.pi)
    else:
        data = _wide_data(preset, mesh.X)
    modes = len(data.f.space.modes) if data.f else 0
    tracemalloc.start()
    try:
        dalembert_reference(mesh, data)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert reference.reference_bytes(mesh, modes) < peak <= reference.build_bytes(mesh, modes, data)


@pytest.mark.parametrize("j", [0, 1, 2])
def test_build_bytes_of_a_harmonic_datum(j):
    # config counts a sharpness run's reference without its datum (data None):
    # one sine mode, forced for j = 2
    mesh = build_mesh(math.pi, math.pi, 256, 512)
    data = harmonic_dataspec(HarmonicData(j=j, k=17), mesh)
    modes = 1 if j == 2 else 0
    assert reference.build_bytes(mesh, modes, data) <= reference.build_bytes(mesh, modes, None)
