"""Descriptors and hat averages against independent quadrature oracles."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from wavecompact.data import (DataSpec, Forcing, Profile, TimeProfile, average_qh,
                              average_qtau, build_fh, build_u1h, q2h_from_qh,
                              sample_nodes, sine_coefficients)
from wavecompact.errors import ConfigurationError, ContractViolation
from wavecompact.grid import build_mesh, space_norm
from wavecompact.operators import stencil

MESH = build_mesh(math.pi, math.pi, 8, 32)


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


# --------------------------------------------------------------------------
# profiles

def test_profile_validation():
    with pytest.raises(ConfigurationError):
        Profile.harmonic_mode(0, math.pi)
    with pytest.raises(ConfigurationError):
        Profile.piecewise_poly((0.0, 0.5), ((1.0,), (2.0,)))  # count mismatch
    with pytest.raises(ConfigurationError):
        Profile.piecewise_poly((0.1, 0.5, 1.0), ((1.0,), (2.0,)))  # must start at 0
    with pytest.raises(ConfigurationError, match="breakpoints"):
        Profile.piecewise_poly((), ((1.0,),))
    with pytest.raises(ConfigurationError, match="breakpoints"):
        Profile.piecewise_poly((1.0,), ())
    with pytest.raises(ConfigurationError, match="pieces"):
        Profile.piecewise_poly((0.0, 0.5, 1.0), ((1.0,), ()))


def test_piecewise_node_convention():
    step = Profile.piecewise_poly((0.0, 0.5, 1.0), ((1.0,), (-1.0,)))
    assert step(np.array([0.25]))[0] == 1.0
    assert step(np.array([0.75]))[0] == -1.0
    assert step(np.array([0.5]))[0] == 0.0  # mean convention
    left = Profile.piecewise_poly((0.0, 0.5, 1.0), ((1.0,), (-1.0,)),
                                  node_convention="left")
    assert left(np.array([0.5]))[0] == 1.0
    strict = Profile.piecewise_poly((0.0, 0.5, 1.0), ((1.0,), (-1.0,)),
                                    node_convention=None)
    with pytest.raises(ContractViolation):
        strict(np.array([0.5]))
    with pytest.raises(ConfigurationError, match="middle"):
        Profile.piecewise_poly((0.0, 0.5, 1.0), ((1.0,), (-1.0,)), node_convention="middle")


def test_dataspec_requires_shared_domain():
    with pytest.raises(ConfigurationError):
        DataSpec(u0=Profile.zero(1.0), u1=Profile.zero(2.0))


# --------------------------------------------------------------------------
# q_h

def test_qh_of_constant_is_one():
    one = Profile.piecewise_poly((0.0, MESH.X), ((1.0,),))
    got = average_qh(one, MESH)
    np.testing.assert_allclose(got[1:-1], 1.0, rtol=1e-14)
    assert got[0] == got[-1] == 0.0


def test_qh_sine_eigenfactor_example():
    # X = pi, N = 4, k = 1: factor (sin(h/2)/(h/2))^2 with h = pi/4 is ~0.94965
    mesh = build_mesh(math.pi, math.pi, 4, 16)
    got = average_qh(Profile.harmonic_mode(1, math.pi), mesh)
    factor = (math.sin(mesh.h / 2) / (mesh.h / 2)) ** 2
    assert factor == pytest.approx(0.9496412, abs=5e-8)
    np.testing.assert_allclose(got, factor * np.sin(mesh.nodes()), atol=1e-14)
    # cross-check by quadrature
    oracle = _qh_oracle(math.sin, mesh)
    np.testing.assert_allclose(got[1:-1], oracle[1:-1], rtol=1e-10)


def test_qh_piecewise_step_exact_integration():
    # unit step at X/2: nodes with full one-sided support give 0 or 1
    mesh = build_mesh(math.pi, math.pi, 8, 32)
    step = Profile.piecewise_poly((0.0, math.pi / 2, math.pi), ((0.0,), (1.0,)))
    got = average_qh(step, mesh)
    oracle = _qh_oracle(lambda s: 0.0 if s < math.pi / 2 else 1.0, mesh)
    np.testing.assert_allclose(got[1:-1], oracle[1:-1], atol=1e-12)
    assert np.all(got[1:4] == 0.0)      # fully left of the jump
    np.testing.assert_allclose(got[5:-1], 1.0)  # fully right


def _hat_cell_integrals_by_loop(evaluate, edges, splits, n_nodes):
    """The per-cell reference: panels cell by cell, summed in panel order."""
    from wavecompact.data import _gauss_rule
    width = edges[1] - edges[0]
    splits = np.sort(np.asarray(splits, dtype=float))
    gn, gw = _gauss_rule(n_nodes)
    i_rise, i_fall = np.zeros(len(edges) - 1), np.zeros(len(edges) - 1)
    for j in range(len(edges) - 1):
        lo, hi = edges[j], edges[j + 1]
        inside = splits[(splits > lo + 1e-14 * width) & (splits < hi - 1e-14 * width)]
        bounds = np.concatenate([[lo], inside, [hi]])
        for a, b in zip(bounds[:-1], bounds[1:]):
            half, mid = 0.5 * (b - a), 0.5 * (b + a)
            pts = mid + half * gn
            rise_w = (pts - lo) / width
            base = evaluate(pts) * gw * half
            i_rise[j] += np.sum(base * rise_w)
            i_fall[j] += np.sum(base * (1.0 - rise_w))
    return i_rise, i_fall


@pytest.mark.parametrize("n", [4, 16, 64])
def test_hat_cell_integrals_match_the_per_cell_loop(n):
    # splits on a node, within 1e-14 width of one, repeated, outside the
    # domain and several in one cell: the panels and their sums are the loop's
    from wavecompact.data import _hat_cell_integrals
    mesh = build_mesh(1.0, 1.0, n, 2 * n)
    h = mesh.h
    rng = np.random.default_rng(n)
    splits = [0.5, 0.25 + 1e-16, 3 * h - 1e-17, 0.3, 0.3, -0.1, 1.2,
              *rng.uniform(0.0, 1.0, 5), h / 3, 2 * h / 3]
    f = Profile.piecewise_poly((0.0, 0.3, 1.0), ((1.0, -2.0, 3.0), (0.5, 1.0)))
    for evaluate, cuts in ((f, splits), (f, ()), (np.cos, splits)):
        got = _hat_cell_integrals(evaluate, mesh.nodes(), cuts, 8, "test")
        want = _hat_cell_integrals_by_loop(evaluate, mesh.nodes(), cuts, 8)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


def test_qh_overflow_names_the_cell():
    from wavecompact.errors import QuadratureError
    mesh = build_mesh(1.0, 1.0, 4, 16)
    # 1e308 (1 + x) overflows for x > 0.8, inside the last cell only
    bad = Profile.piecewise_poly((0.0, 1.0), ((1e308, 1e308),))
    with pytest.raises(QuadratureError) as err, np.errstate(over="ignore"):
        average_qh(bad, mesh)
    assert err.value.cell == 3


def test_qh_laplacian_identity_for_smooth_data():
    # Lap(node samples of w) = q_h(w'') for w vanishing at the ends
    mesh = build_mesh(math.pi, math.pi, 16, 64)
    w = Profile.harmonic_mode(2, math.pi)
    lap = stencil("laplacian", sample_nodes(w, mesh), mesh)
    qh_dd = _qh_oracle(lambda s: -4.0 * math.sin(2 * s), mesh)
    np.testing.assert_allclose(lap[1:-1], qh_dd[1:-1], rtol=1e-9, atol=1e-12)


def test_qh_l2_contraction():
    # |q_h w|_h <= |w|_L2 for assorted profiles
    mesh = build_mesh(math.pi, math.pi, 16, 64)
    profiles = [
        Profile.harmonic_mode(3, math.pi),
        Profile.piecewise_poly((0.0, 1.0, math.pi), ((0.3, 1.0), (-2.0, 0.5))),
    ]
    for p in profiles:
        lhs = space_norm(average_qh(p, mesh), "l2", mesh)
        rhs = math.sqrt(quad(lambda s: p(np.array([s]))[0] ** 2, 0, math.pi,
                             points=[1.0], limit=200)[0])
        assert lhs <= rhs * (1 + 1e-10)


# --------------------------------------------------------------------------
# q_tau

def test_qtau_constant_is_one_including_level_zero():
    g = TimeProfile.polynomial((1.0,))
    all_levels = average_qtau(g, MESH, None)
    np.testing.assert_allclose(all_levels, 1.0, rtol=1e-14)


def test_qtau_linear_level_zero_closed_form():
    # g(t) = t, m = 0, tau = 0.1: (2/tau) int t (1 - t/tau) dt = tau/3
    mesh = build_mesh(1.0, 1.0, 40, 10, eps0=0.5)
    assert mesh.tau == pytest.approx(0.1)
    g = TimeProfile.polynomial((0.0, 1.0))
    assert average_qtau(g, mesh, 0) == pytest.approx(mesh.tau / 3.0, rel=1e-13)
    assert average_qtau(g, mesh, 0) == pytest.approx(0.03333, abs=5e-6)


def test_qtau_harmonic_interior_eigenfactor_and_quadrature():
    omega = 3.0
    g = TimeProfile.harmonic_sin(omega)
    t = MESH.times()
    for m in (1, 5, MESH.M - 1):
        got = average_qtau(g, MESH, m)
        factor = (math.sin(omega * MESH.tau / 2) / (omega * MESH.tau / 2)) ** 2
        assert got == pytest.approx(factor * math.sin(omega * t[m]), rel=1e-12)
        hat = lambda s: max(1.0 - abs(s / MESH.tau - m), 0.0)
        ref, _ = quad(lambda s: math.sin(omega * s) * hat(s),
                      t[m - 1], t[m + 1], points=[t[m]], limit=200)
        assert got == pytest.approx(ref / MESH.tau, rel=1e-10)


def test_qtau_harmonic_level_zero_quadrature():
    omega = 2.5
    g = TimeProfile.harmonic_sin(omega)
    ref, _ = quad(lambda s: math.sin(omega * s) * (1.0 - s / MESH.tau),
                  0.0, MESH.tau, limit=200)
    assert average_qtau(g, MESH, 0) == pytest.approx(2.0 * ref / MESH.tau, rel=1e-12)


def test_qtau_rejects_out_of_range_level():
    g = TimeProfile.polynomial((1.0,))
    with pytest.raises(ContractViolation):
        average_qtau(g, MESH, MESH.M)


# --------------------------------------------------------------------------
# q_2h

def test_q2h_zero_and_sine_diagonal():
    assert np.all(q2h_from_qh(average_qh(Profile.zero(math.pi), MESH), MESH) == 0.0)
    # q_2h is diagonal on the sine basis: (lam_k/k^2)(1 + h^2 lam_k / 12)
    k = 2
    got = q2h_from_qh(average_qh(Profile.harmonic_mode(k, math.pi), MESH), MESH)
    lam = (2.0 / MESH.h * math.sin(k * MESH.h / 2.0)) ** 2
    factor = lam / k ** 2 * (1.0 + MESH.h ** 2 * lam / 12.0)
    np.testing.assert_allclose(got[1:-1], factor * np.sin(k * MESH.nodes())[1:-1],
                               rtol=1e-12, atol=1e-15)


def test_q2h_fourth_order_on_smooth_profile():
    # |w - q_2h w|_h = O(h^4): ratios across N in {8,16,32} near 16
    errs = []
    for n in (8, 16, 32):
        mesh = build_mesh(math.pi, math.pi, n, 4 * n)
        w = Profile.harmonic_mode(1, math.pi)
        diff = sample_nodes(w, mesh) - q2h_from_qh(average_qh(w, mesh), mesh)
        diff[0] = diff[-1] = 0.0
        errs.append(space_norm(diff, "l2", mesh))
    assert errs[0] / errs[1] == pytest.approx(16.0, rel=0.1)
    assert errs[1] / errs[2] == pytest.approx(16.0, rel=0.05)


# --------------------------------------------------------------------------
# u1h variants

@pytest.mark.parametrize("variant,a1k_formula", [
    ("v0", lambda lam, k, h, tau: 1.0 - (h ** 2 + tau ** 2) / 12.0 * lam),
    ("v1", lambda lam, k, h, tau: lam / k ** 2 * (1.0 - tau ** 2 * k ** 2 / 12.0)),
    ("v2", lambda lam, k, h, tau: lam / k ** 2 * (1.0 - tau ** 2 * lam / 12.0)),
])
def test_build_u1h_sine_multipliers(variant, a1k_formula):
    mesh = build_mesh(math.pi, math.pi, 8, 32)
    k = 3
    got = build_u1h(variant, Profile.harmonic_mode(k, math.pi), mesh)
    lam = (2.0 / mesh.h * math.sin(k * mesh.h / 2.0)) ** 2
    expected = a1k_formula(lam, k, mesh.h, mesh.tau) * np.sin(k * mesh.nodes())
    np.testing.assert_allclose(got[1:-1], expected[1:-1], rtol=1e-12)


def test_build_u1h_zero_everywhere():
    for variant in ("v0", "v1", "v2"):
        assert np.all(build_u1h(variant, Profile.zero(math.pi), MESH) == 0.0)


def test_build_u1h_v2_operator_vs_formula():
    # numeric multiplier extracted from the grid function vs the closed form
    mesh = build_mesh(math.pi, math.pi, 8, 32)
    k = 3
    got = build_u1h("v2", Profile.harmonic_mode(k, math.pi), mesh)
    shape = np.sin(k * mesh.nodes())
    extracted = got[1] / shape[1]
    lam = (2.0 / mesh.h * math.sin(k * mesh.h / 2.0)) ** 2
    formula = lam / k ** 2 * (1.0 - mesh.tau ** 2 * lam / 12.0)
    assert extracted == pytest.approx(formula, rel=1e-12)
    np.testing.assert_allclose(got[1:-1], extracted * shape[1:-1], rtol=1e-12)


def test_build_u1h_rejects_unknown_variant():
    with pytest.raises(ContractViolation):
        build_u1h("v3", Profile.zero(math.pi), MESH)


# --------------------------------------------------------------------------
# forcing slices

def test_build_fh_zero_and_separable_product():
    assert np.all(build_fh(None, MESH) == 0.0)
    # f = sin(kx) * 1: every slice is (lam_k / k^2) sin(k x)
    k = 2
    f = Forcing(space=Profile.harmonic_mode(k, math.pi),
                time=TimeProfile.polynomial((1.0,)))
    fh = build_fh(f, MESH)
    lam = (2.0 / MESH.h * math.sin(k * MESH.h / 2.0)) ** 2
    expected = lam / k ** 2 * np.sin(k * MESH.nodes())
    for m in range(MESH.M):
        np.testing.assert_allclose(fh[m][1:-1], expected[1:-1], rtol=1e-12)


def test_build_fh_harmonic_product_against_2d_quadrature():
    # f = sin(kx) sin((k-1)t), k = 2: spot-check three (i, m) cells by 2d quadrature
    mesh = build_mesh(math.pi, math.pi, 16, 16, eps0=0.5)
    k = 2
    f = Forcing(space=Profile.harmonic_mode(k, math.pi),
                time=TimeProfile.harmonic_sin(k - 1.0))
    fh = build_fh(f, mesh)
    x, t = mesh.nodes(), mesh.times()
    rng = np.random.default_rng(9)
    for i, m in zip(rng.integers(1, mesh.N, 3), rng.integers(1, mesh.M - 1, 3)):
        hat_x = lambda s: max(1.0 - abs(s / mesh.h - i), 0.0)
        hat_t = lambda s: max(1.0 - abs(s / mesh.tau - m), 0.0)
        sx, _ = quad(lambda s: math.sin(k * s) * hat_x(s), x[i - 1], x[i + 1],
                     points=[x[i]], limit=200)
        st, _ = quad(lambda s: math.sin((k - 1) * s) * hat_t(s), t[m - 1], t[m + 1],
                     points=[t[m]], limit=200)
        assert fh[m][i] == pytest.approx(sx / mesh.h * st / mesh.tau, rel=1e-10)


# --------------------------------------------------------------------------
# sine analysis

def test_sine_coefficients_orthogonality():
    w = Profile.harmonic_mode(1, math.pi)
    c = sine_coefficients(w, 5)
    assert c[0] == pytest.approx(math.sqrt(math.pi / 2.0), rel=1e-14)
    np.testing.assert_allclose(c[1:], 0.0, atol=1e-15)


def test_sine_coefficients_of_indicator():
    # w = 1 on (0, pi): sqrt(2/pi) (1 - cos(k pi)) / k
    one = Profile.piecewise_poly((0.0, math.pi), ((1.0,),))
    c = sine_coefficients(one, 8)
    for k in range(1, 9):
        expected = math.sqrt(2.0 / math.pi) * (1.0 - math.cos(k * math.pi)) / k
        assert c[k - 1] == pytest.approx(expected, abs=1e-13)


def test_sine_coefficients_hat_decay_and_quadrature():
    hat = Profile.piecewise_poly((0.0, math.pi / 2, math.pi),
                                 ((0.0, 2.0 / math.pi), (2.0, -2.0 / math.pi)))
    c = sine_coefficients(hat, 32)
    for k in (1, 3, 7, 15, 31):
        ref, _ = quad(lambda s: hat(np.array([s]))[0] * math.sin(k * s),
                      0, math.pi, points=[math.pi / 2], limit=200)
        assert c[k - 1] == pytest.approx(math.sqrt(2.0 / math.pi) * ref, abs=1e-12)
    np.testing.assert_allclose(c[1::2], 0.0, atol=1e-14)  # even modes vanish
    odd = np.abs(c[::2])
    ks = np.arange(1, 33, 2)
    np.testing.assert_allclose(odd * ks ** 2, odd[0], rtol=1e-10)  # ~ k^-2


def test_sine_series_round_trip():
    coeffs = (0.3, -1.2, 0.0, 0.7)
    w = Profile.sine_series(coeffs, math.pi)
    np.testing.assert_allclose(sine_coefficients(w, 4), coeffs, atol=1e-15)
    np.testing.assert_allclose(sine_coefficients(w, 6)[4:], 0.0)
