"""Reference providers against brute-force superposition and quadrature."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from wavecompact.data import PRESETS, DataSpec, Profile, sine_coefficients
from wavecompact.errors import ConfigurationError, ContractViolation
from wavecompact.grid import build_mesh
from wavecompact.oracle import HarmonicData, exact_harmonic_solution
from wavecompact.reference import GridReference, HarmonicReference, SeriesReference


def _qh_oracle(func, mesh):
    """(q_h w)_i by adaptive quadrature of w against the hats."""
    out = mesh.zeros()
    x = mesh.nodes()
    for i in range(1, mesh.N):
        hat = lambda s: max(1.0 - abs(s / mesh.h - i), 0.0)
        val, _ = quad(lambda s: func(s) * hat(s), x[i - 1], x[i + 1],
                      points=[x[i]], limit=200)
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
    """Direct mode-sum of the exact solution (or its hat averages) at the grid points."""
    x, t = mesh.nodes(), mesh.times()
    root = math.sqrt(2.0 / mesh.X)
    vals = np.zeros((mesh.M + 1, mesh.N + 1))
    for k in range(1, n_modes + 1):
        a = coeffs0[k - 1] * root if k <= len(coeffs0) else 0.0
        b = coeffs1[k - 1] * root if k <= len(coeffs1) else 0.0
        if a == 0.0 and b == 0.0:
            continue
        shape = np.sin(k * x)
        if qh:
            shape *= (math.sin(k * mesh.h / 2) / (k * mesh.h / 2)) ** 2
        vals += np.outer(a * np.cos(k * t) + b / k * np.sin(k * t), shape)
    vals[:, 0] = vals[:, -1] = 0.0
    return vals


@pytest.mark.parametrize("T, n_modes, k_total", [
    (0.8 * math.pi, None, 8 * 8),     # T' != pi: 8N direct modes
    (math.pi, None, 64 * 32),         # exact fold, default 64 groups of L = 32
    (math.pi, 3 * 32 + 5, 3 * 32 + 5),  # exact fold, last group partly filled
], ids=["direct", "folded", "folded_partial_group"])
def test_series_reference_paths_match_brute_force(T, n_modes, k_total):
    mesh = build_mesh(math.pi, T, 8, 16)
    data = PRESETS["hat_step"].make(math.pi)
    ref = SeriesReference(mesh, data, n_modes=n_modes)
    c0 = sine_coefficients(data.u0, k_total)
    c1 = sine_coefficients(data.u1, k_total)
    values = _brute_series_reference(mesh, c0, c1, k_total)
    qh_values = _brute_series_reference(mesh, c0, c1, k_total, qh=True)
    for m in range(mesh.M + 1):
        np.testing.assert_allclose(ref.values(m), values[m], rtol=0, atol=1e-12)
        np.testing.assert_allclose(ref.qh_values(m), qh_values[m], rtol=0, atol=1e-12)


def test_series_reference_matches_brute_force_superposition():
    mesh = build_mesh(math.pi, math.pi, 8, 16)
    rng = np.random.default_rng(0)
    c0 = rng.standard_normal(6)
    c1 = rng.standard_normal(6)
    data = DataSpec(u0=Profile.sine_series(c0, math.pi),
                    u1=Profile.sine_series(c1, math.pi))
    ref = SeriesReference(mesh, data)
    brute = _brute_series_reference(mesh, c0, c1, 6)
    for m in (0, 1, 9, mesh.M):
        np.testing.assert_allclose(ref.values(m), brute[m], rtol=1e-11,
                                   atol=1e-12)


def test_series_reference_folded_vs_direct_paths():
    # the exact joint fold and the plain truncated synthesis agree on the
    # resolvable part when fed the same finite series
    mesh = build_mesh(math.pi, math.pi, 8, 16)
    hat = Profile.piecewise_poly((0.0, math.pi / 2, math.pi),
                                 ((0.0, 2.0 / math.pi), (2.0, -2.0 / math.pi)))
    data = DataSpec(u0=hat, u1=Profile.zero(math.pi))
    folded = SeriesReference(mesh, data, fold_groups=128)
    k_total = 128 * math.lcm(2 * mesh.N, 2 * mesh.M)
    direct = SeriesReference(mesh, data, n_modes=k_total)
    for m in (0, 3, mesh.M):
        np.testing.assert_allclose(folded.values(m), direct.values(m),
                                   rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(folded.qh_values(m),
                                   direct.qh_values(m), rtol=1e-10, atol=1e-12)


def test_series_reference_qh_slices_by_quadrature():
    mesh = build_mesh(math.pi, math.pi, 6, 12)
    c0 = (0.5, -0.2, 0.1)
    data = DataSpec(u0=Profile.sine_series(c0, math.pi), u1=Profile.zero(math.pi))
    ref = SeriesReference(mesh, data)
    m = 4
    t = mesh.times()[m]
    oracle = _qh_oracle(
        lambda x: sum(c0[k - 1] * math.sqrt(2 / math.pi) * math.cos(k * t) * math.sin(k * x)
                      for k in (1, 2, 3)), mesh)
    np.testing.assert_allclose(ref.qh_values(m), oracle, rtol=1e-11, atol=1e-12)


def test_series_reference_initial_slice_is_data():
    # at t = 0 the reference reproduces node samples of u0 up to the >K tail,
    # which concentrates at the kink node (pointwise ~ 1/(2K) there) and is
    # orders smaller elsewhere
    mesh = build_mesh(math.pi, math.pi, 32, 64)
    hat = Profile.piecewise_poly((0.0, math.pi / 2, math.pi),
                                 ((0.0, 2.0 / math.pi), (2.0, -2.0 / math.pi)))
    data = DataSpec(u0=hat, u1=Profile.zero(math.pi))
    ref = SeriesReference(mesh, data)
    samples = hat(mesh.nodes())
    samples[0] = samples[-1] = 0.0
    diff = np.abs(ref.values(0) - samples)
    kink = mesh.N // 2
    assert diff[kink] < 1e-4
    off_kink = np.delete(diff, kink)
    assert np.max(off_kink) < 1e-8
    # the reported tail estimate is of the same order as the worst deviation
    assert 0.1 * diff[kink] < ref.tail_estimate < 1e-3


def test_series_reference_rejects_forcing():
    from wavecompact.data import Forcing, TimeProfile
    mesh = build_mesh(math.pi, math.pi, 4, 8)
    data = DataSpec(u0=Profile.zero(math.pi), u1=Profile.zero(math.pi),
                    f=Forcing(space=Profile.harmonic_mode(1, math.pi),
                              time=TimeProfile.harmonic_sin(1.0)))
    with pytest.raises(ContractViolation):
        SeriesReference(mesh, data)


@pytest.mark.parametrize("name", ["u0", "u1"])
def test_series_reference_rejects_non_finite_amplitudes(name):
    mesh = build_mesh(math.pi, math.pi, 4, 8)
    profiles = {"u0": Profile.zero(math.pi), "u1": Profile.zero(math.pi)}
    profiles[name] = Profile.piecewise_poly((0.0, math.pi), ((1e308,),))
    with pytest.raises(ConfigurationError, match=name):
        SeriesReference(mesh, DataSpec(**profiles))
