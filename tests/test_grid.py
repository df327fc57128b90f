"""Meshes, grid functions, norms: examples with brute-force oracles."""

import math

import numpy as np
import pytest

from wavecompact.errors import (ConfigurationError, ContractViolation, InvariantError,
                               UnstableMeshError)
from wavecompact.grid import (_energy_from_differences, _mass_form, _stiffness_form, _three_point,
                              build_mesh, energy_norm_pair, require_dirichlet, space_norm,
                              time_aggregate)
from wavecompact.operators import stencil


def test_build_mesh_derived_quantities():
    m = build_mesh(math.pi, math.pi, 4, 8, a=1.0, eps0=1.0)
    assert m.h == pytest.approx(math.pi / 4)
    assert m.tau == pytest.approx(math.pi / 8)
    assert m.sigma == pytest.approx(5.0 / 12.0)  # (1/12)(1 + 4)
    assert m.stable  # tau^2 = h^2/4 <= h^2/2


def test_build_mesh_stability_flag():
    unstable = build_mesh(1.0, 1.0, 10, 10)
    assert not unstable.stable  # tau = h, 0.01 > 0.5 * 0.01
    stable = build_mesh(1.0, 1.0, 10, 20)
    assert stable.stable  # 0.0025 <= 0.005


@pytest.mark.parametrize("bad", [
    dict(X=-1.0, T=1.0, N=4, M=4),
    dict(X=1.0, T=0.0, N=4, M=4),
    dict(X=1.0, T=1.0, N=1, M=4),
    dict(X=1.0, T=1.0, N=4, M=0),
    dict(X=1.0, T=1.0, N=4, M=4, a=-2.0),
    dict(X=1.0, T=1.0, N=4, M=4, eps0=0.0),
    dict(X=1.0, T=1.0, N=4, M=4, eps0=1.5),
    dict(X=1.0, T=1.0, N=4, M=4, eps0=1e-300),  # eps0^2 underflows to 0
])
def test_build_mesh_rejects_bad_input(bad):
    with pytest.raises(ConfigurationError):
        build_mesh(**bad)


def test_nodes_are_exact_multiples():
    m = build_mesh(2.0, 3.0, 7, 5)
    assert np.array_equal(m.nodes(), np.arange(8) * (2.0 / 7))
    assert np.array_equal(m.times(), np.arange(6) * (3.0 / 5))


# --------------------------------------------------------------------------
# space norms

MESH = build_mesh(math.pi, math.pi, 8, 32)


def _dirichlet(values):
    w = np.asarray(values, dtype=float)
    w[0] = w[-1] = 0.0
    return w


def test_space_norm_zero_for_all_kinds():
    z = MESH.zeros()
    for kind in ("l2", "diff_l2", "l1", "mass", "stiffness"):
        assert space_norm(z, kind, MESH) == 0.0
    with pytest.raises(ContractViolation) as refused:
        space_norm(z, "l3", MESH)
    assert str(refused.value) == ("unknown space norm kind 'l3'; expected one of "
                                  "('l2', 'diff_l2', 'l1', 'mass', 'stiffness')")


def test_l2_norm_of_sine_brute_force():
    # discrete orthogonality: sum_i sin^2(k x_i) = N/2 on X = pi
    w = _dirichlet(np.sin(MESH.nodes()))
    brute = math.sqrt(sum(w[i] ** 2 * MESH.h for i in range(1, MESH.N)))
    assert space_norm(w, "l2", MESH) == pytest.approx(brute, rel=1e-14)
    assert space_norm(w, "l2", MESH) ** 2 == pytest.approx(math.pi / 2, rel=1e-12)


@pytest.mark.parametrize("k", range(1, 8))
def test_stiffness_norm_eigenvalue_identity(k):
    # (-Lap w, w) for w = sin(k x) equals lambda_k * pi/2 by brute-force sums
    w = _dirichlet(np.sin(k * MESH.nodes()))
    lam = (2.0 / MESH.h * math.sin(k * MESH.h / 2.0)) ** 2
    brute = 0.0
    for i in range(1, MESH.N + 1):
        brute += ((w[i] - w[i - 1]) / MESH.h) ** 2 * MESH.h
    assert space_norm(w, "stiffness", MESH) ** 2 == pytest.approx(brute, rel=1e-12)
    assert brute == pytest.approx(lam * math.pi / 2.0, rel=1e-12)


def test_stiffness_equals_diff_l2_summation_by_parts():
    rng = np.random.default_rng(3)
    for _ in range(20):
        w = _dirichlet(rng.standard_normal(MESH.N + 1))
        assert space_norm(w, "stiffness", MESH) == pytest.approx(
            space_norm(w, "diff_l2", MESH), rel=1e-12)


def test_l1_norm_is_exact_trapezoid_and_scales():
    rng = np.random.default_rng(5)
    w = np.abs(rng.standard_normal(MESH.N + 1))
    brute = sum(0.5 * (w[i - 1] + w[i]) * MESH.h for i in range(1, MESH.N + 1))
    assert space_norm(w, "l1", MESH) == pytest.approx(brute, rel=1e-14)
    for kind in ("l2", "diff_l2", "l1"):
        assert space_norm(3.5 * w, kind, MESH) == pytest.approx(
            3.5 * space_norm(w, kind, MESH), rel=1e-13)


def test_l1_norm_takes_the_absolute_values_once_with_the_same_bits():
    # |w| once, then 0.5 (|w|[:-1] + |w|[1:]): the expression that took |w| of
    # each overlapping slice gives the same bits, on stacks with exact zeros
    # and values near the largest grid data prepare_inputs accepts
    from wavecompact.scheme import _DATA_BOUND
    rng = np.random.default_rng(11)
    for scale in (1.0, 1e-300, _DATA_BOUND):
        w = rng.standard_normal((7, MESH.N + 1)) * scale
        w[rng.random(w.shape) < 0.3] = 0.0
        w[:, 0] = w[:, -1] = 0.0
        w[0] = _DATA_BOUND * np.sign(w[0])
        before = np.sum(0.5 * (np.abs(w[..., :-1]) + np.abs(w[..., 1:])) * MESH.h, axis=-1)
        assert np.array_equal(space_norm(w, "l1", MESH), before)
        assert space_norm(w[3], "l1", MESH) == before[3]


def test_dirichlet_required_for_operator_norms():
    w = np.ones(MESH.N + 1)
    for kind in ("mass", "stiffness"):
        with pytest.raises(ContractViolation):
            space_norm(w, kind, MESH)


def test_operator_bound_inequalities_randomized():
    # 1/3 <= (Bw,w)/|w|^2 <= 1 and 0 < (-Lap w, w)/|w|^2 <= 4/h^2
    rng = np.random.default_rng(11)
    for mesh in (MESH, build_mesh(1.0, 1.0, 64, 128)):
        for _ in range(25):
            w = _dirichlet(rng.standard_normal(mesh.N + 1))
            l2_sq = space_norm(w, "l2", mesh) ** 2
            mass_sq = space_norm(w, "mass", mesh) ** 2
            stiff_sq = space_norm(w, "stiffness", mesh) ** 2
            assert l2_sq / 3.0 - 1e-12 * l2_sq <= mass_sq <= l2_sq * (1 + 1e-12)
            assert 0.0 < stiff_sq <= 4.0 / mesh.h ** 2 * l2_sq * (1 + 1e-12)


def test_stacked_norms_equal_row_by_row_calls():
    # a stack of levels reduces over its last axis, bit for bit as per level
    rng = np.random.default_rng(13)
    mesh = build_mesh(math.pi, math.pi, 32, 64)
    stack = rng.standard_normal((9, mesh.N + 1))
    stack[:, 0] = stack[:, -1] = 0.0
    for kind in ("l2", "diff_l2", "l1", "mass", "stiffness"):
        norms = space_norm(stack, kind, mesh)
        assert norms.shape == (9,)
        assert norms.tolist() == [space_norm(w, kind, mesh) for w in stack]
        # a column-major stack sums each level in the same order
        assert space_norm(np.asfortranarray(stack), kind, mesh).tolist() == norms.tolist()
    assert energy_norm_pair(stack[:-1], stack[1:], mesh).tolist() == [
        energy_norm_pair(p, c, mesh) for p, c in zip(stack[:-1], stack[1:])]
    assert isinstance(space_norm(stack[0], "mass", mesh), float)
    assert isinstance(energy_norm_pair(stack[0], stack[1], mesh), float)


def test_norm_forms_share_the_stencil_kernel():
    # the forms, q_2h and the stencils all call one kernel; each is compared
    # with its former inline arithmetic, kept here as the reference
    rng = np.random.default_rng(29)
    mesh = build_mesh(math.pi, math.pi, 32, 64)
    h = mesh.h
    stack = rng.standard_normal((7, mesh.N + 1))
    stack[:, 0] = stack[:, -1] = 0.0
    stack[2, 5:20] = 0.0  # exact-zero runs, inside a level and as whole levels
    stack[4] = 0.0
    for w in (stack, stack[3]):
        inner = w[..., 1:-1]
        mass = np.sum(((w[..., :-2] + 4.0 * inner + w[..., 2:]) / 6.0) * inner, axis=-1) * h
        lap = (w[..., :-2] - 2.0 * inner + w[..., 2:]) / h ** 2
        assert _mass_form(w, h).tobytes() == mass.tobytes()
        assert _stiffness_form(w, h).tobytes() == (-np.sum(lap * inner, axis=-1) * h).tobytes()
        q = _three_point(np.empty_like(inner), w, -14.0, -12.0)  # the reference's q_2h
        assert np.array_equal(q, (-w[..., :-2] + 14.0 * inner - w[..., 2:]) / 12.0)
    for w in stack:
        assert _mass_form(w, h) == np.sum(stencil("mass", w, mesh)[1:-1] * w[1:-1]) * h


def test_stack_with_one_non_dirichlet_row_names_it():
    mesh = build_mesh(math.pi, math.pi, 8, 16)
    stack = np.zeros((6, mesh.N + 1))
    stack[:, 1:-1] = 1.0
    stack[4, -1] = 1e-6
    with pytest.raises(ContractViolation, match="row 4"):
        require_dirichlet(stack, mesh)
    with pytest.raises(ContractViolation, match="row 4"):
        space_norm(stack, "stiffness", mesh)
    with pytest.raises(ContractViolation, match="row 3"):
        energy_norm_pair(stack[1:], stack[:-1], mesh)
    with pytest.raises(ContractViolation):
        space_norm(np.zeros((2, 3, mesh.N + 1)), "l2", mesh)


# --------------------------------------------------------------------------
# time aggregates

def test_time_aggregate_constant_and_zero():
    series = np.ones(MESH.M + 1)
    assert time_aggregate(series, MESH) == pytest.approx(math.pi)
    assert time_aggregate(np.zeros(MESH.M + 1), MESH) == 0.0


def test_time_aggregate_identity_trapezoid():
    m = build_mesh(1.0, 1.0, 4, 4, eps0=0.5)
    series = m.times()  # y_j = t_j
    brute = sum(0.5 * (series[j - 1] + series[j]) * m.tau for j in range(1, 5))
    assert time_aggregate(series, m) == pytest.approx(0.5)
    assert time_aggregate(series, m) == pytest.approx(brute)


def test_time_aggregate_rejects_short_series():
    for series in ([], [1.0], np.ones((2, MESH.M + 1))):
        with pytest.raises(ContractViolation):
            time_aggregate(series, MESH)


# --------------------------------------------------------------------------
# energy norm

def test_energy_norm_trivial_cases():
    w = _dirichlet(np.sin(2 * MESH.nodes()))
    assert energy_norm_pair(MESH.zeros(), MESH.zeros(), MESH) == 0.0
    # equal slices: time difference vanishes, only the average term remains
    expected = MESH.a * space_norm(w, "stiffness", MESH)
    assert energy_norm_pair(w, w, MESH) == pytest.approx(expected, rel=1e-12)


def test_energy_norm_term_by_term_brute_force():
    mesh = build_mesh(math.pi, math.pi, 8, 16)
    v_prev = mesh.zeros()
    v_curr = _dirichlet(np.sin(mesh.nodes()))
    h, tau, a = mesh.h, mesh.tau, mesh.a
    dtv = (v_curr - v_prev) / tau
    stv = 0.5 * (v_curr + v_prev)

    def brute_mass(w):
        return sum((w[i - 1] + 4 * w[i] + w[i + 1]) / 6.0 * w[i] * h
                   for i in range(1, mesh.N))

    def brute_stiff(w):
        return sum(((w[i] - w[i - 1]) / h) ** 2 * h for i in range(1, mesh.N + 1))

    expected_sq = (brute_mass(dtv)
                   + (mesh.sigma - 0.25) * tau ** 2 * a ** 2 * brute_stiff(dtv)
                   + a ** 2 * brute_stiff(stv))
    assert energy_norm_pair(v_prev, v_curr, mesh) == pytest.approx(
        math.sqrt(expected_sq), rel=1e-12)


def test_energy_norm_requires_stable_mesh():
    unstable = build_mesh(1.0, 1.0, 10, 10)
    with pytest.raises(ContractViolation):
        energy_norm_pair(unstable.zeros(), unstable.zeros(), unstable)


def test_energy_norm_matches_the_three_point_forms():
    # summation by parts against the mass and stiffness forms, on random
    # Dirichlet pairs and stacks; the eps0 < 1 meshes have sigma < 1/4
    rng = np.random.default_rng(31)
    for n, m, a, eps0 in ((32, 64, 1.0, 1.0), (32, 33, 1.0, 0.3), (32, 50, 1.3, 0.5)):
        mesh = build_mesh(math.pi, math.pi, n, m, a=a, eps0=eps0)
        assert mesh.stable and (eps0 == 1.0 or mesh.sigma < 0.25)
        h, tau = mesh.h, mesh.tau
        stack = rng.standard_normal((7, n + 1)) * 10.0 ** rng.uniform(-3, 3, (7, 1))
        stack[1] = np.sin(2 * mesh.nodes())  # a smooth level beside the rough ones
        stack[:, 0] = stack[:, -1] = 0.0
        dtv = (stack[1:] - stack[:-1]) / tau
        stv = 0.5 * (stack[1:] + stack[:-1])
        expected = np.sqrt(_mass_form(dtv, h)
                           + (mesh.sigma - 0.25) * tau ** 2 * a ** 2 * _stiffness_form(dtv, h)
                           + a ** 2 * _stiffness_form(stv, h))
        np.testing.assert_allclose(energy_norm_pair(stack[:-1], stack[1:], mesh), expected,
                                   rtol=1e-12, atol=0)
        for prev, curr, want in zip(stack[:-1], stack[1:], expected):
            assert energy_norm_pair(prev, curr, mesh) == pytest.approx(want, rel=1e-12)


def test_energy_kernel_refuses_a_negative_radicand_naming_the_row():
    # differences that belong to no pair of levels: zero values, and
    # d_curr = -d_prev leave only the D dt terms, whose coefficient
    # -h^2/12 - tau^2 a^2/6 is negative
    mesh = build_mesh(math.pi, math.pi, 8, 16)
    values = np.zeros((3, mesh.N + 1))
    d_prev = np.zeros((3, mesh.N))
    d_prev[1] = 1.0
    sq = (d_prev ** 2).sum(axis=-1) * mesh.h  # each row's ||D v||^2, for d_prev and -d_prev
    with pytest.raises(InvariantError, match="negative beyond tolerance in row 1"):
        _energy_from_differences(values, values, d_prev, -d_prev, mesh, sq=(sq, sq))
    with pytest.raises(InvariantError, match=r"negative beyond tolerance \(scale"):
        _energy_from_differences(values[1], values[1], d_prev[1], -d_prev[1], mesh,
                                 sq=(sq[1], sq[1]))
    assert _energy_from_differences(values, values, d_prev, d_prev, mesh,
                                    sq=(sq, sq)).tolist() == [0.0, mesh.a * math.sqrt(mesh.X), 0.0]


def _energy_with_d_st_formed(v_prev, v_curr, mesh):
    """The energy norm with D st v formed, halved and squared, term by term as
    the kernel computed it before the parallelogram law."""
    h, tau, a2 = mesh.h, mesh.tau, mesh.a ** 2
    d_prev, d_curr = np.diff(v_prev) * (1.0 / h), np.diff(v_curr) * (1.0 / h)
    dt = (v_curr - v_prev) * (1.0 / tau)
    d_dt = (d_curr - d_prev) * (1.0 / tau)
    d_st = (d_curr + d_prev) * 0.5
    d_dt_sq = np.vecdot(d_dt, d_dt) * h
    return np.sqrt(np.vecdot(dt[..., 1:-1], dt[..., 1:-1]) * h - h ** 2 / 6.0 * d_dt_sq
                   + (mesh.sigma - 0.25) * tau ** 2 * a2 * d_dt_sq
                   + a2 * np.vecdot(d_st, d_st) * h)


@pytest.mark.parametrize("n, m, eps0", [(32, 64, 1.0), (256, 512, 1.0), (64, 80, 0.6)])
def test_energy_kernel_by_the_parallelogram_law_matches_d_st_formed(n, m, eps0):
    # ||D st v||^2 from the row sums of squares and ||D dt v||^2, against D st v
    # formed explicitly: random pairs of magnitudes 1e-5..1e5, pairs with
    # d_curr = -d_prev or nearly (D st v nearly vanishes), and pairs of a
    # smooth solution at consecutive levels
    rng = np.random.default_rng(n + m)
    mesh = build_mesh(math.pi, math.pi, n, m, eps0=eps0)
    x, t = mesh.nodes(), mesh.times()
    rows = rng.standard_normal((3, 40, n + 1)) * 10.0 ** rng.uniform(-5, 5, (3, 40, 1))
    prev, curr = rows[0], rows[1]
    opposite_prev = rows[2]
    opposite_curr = -opposite_prev + 10.0 ** rng.uniform(-12, -2, (40, 1)) * rows[0]
    opposite_curr[0] = -opposite_prev[0]
    smooth = (np.sin(np.outer(t[:41], [1.0, 3.0, 7.0]) @ rng.uniform(-1, 1, (3, 1)))
              * np.sin(np.outer(np.arange(1, 4), x)).sum(axis=0))  # (41, N+1)
    for v_prev, v_curr in ((prev, curr), (opposite_prev, opposite_curr),
                           (smooth[:-1], smooth[1:])):
        v_prev, v_curr = v_prev.copy(), v_curr.copy()
        for v in (v_prev, v_curr):
            v[:, ::n] = 0.0
        expected = _energy_with_d_st_formed(v_prev, v_curr, mesh)
        got = energy_norm_pair(v_prev, v_curr, mesh)
        np.testing.assert_allclose(got, expected, rtol=2e-15, atol=0)
        d_prev, d_curr = np.diff(v_prev) / mesh.h, np.diff(v_curr) / mesh.h
        kernel = _energy_from_differences(
            v_prev, v_curr, d_prev, d_curr, mesh,
            sq=(np.vecdot(d_prev, d_prev) * mesh.h, np.vecdot(d_curr, d_curr) * mesh.h))
        np.testing.assert_allclose(kernel, expected, rtol=2e-15, atol=0)


def test_energy_lower_bounds_on_random_pairs():
    # eps0^2 |dt v|_B^2 + a^2 |st v|_S^2 <= E^2  and the eps1^2 = eps0^2/3 variant
    rng = np.random.default_rng(7)
    for eps0 in (1.0, 0.6):
        mesh = build_mesh(math.pi, math.pi, 32, 64, eps0=eps0)
        for _ in range(50):
            v_prev = _dirichlet(rng.standard_normal(mesh.N + 1))
            v_curr = _dirichlet(rng.standard_normal(mesh.N + 1))
            e_sq = energy_norm_pair(v_prev, v_curr, mesh) ** 2
            dtv = (v_curr - v_prev) / mesh.tau
            stv = 0.5 * (v_curr + v_prev)
            first = (eps0 ** 2 * space_norm(dtv, "mass", mesh) ** 2
                     + mesh.a ** 2 * space_norm(stv, "stiffness", mesh) ** 2)
            second = (eps0 ** 2 / 3.0) * mesh.a ** 2 * 0.5 * (
                space_norm(v_prev, "stiffness", mesh) ** 2
                + space_norm(v_curr, "stiffness", mesh) ** 2)
            assert first <= e_sq * (1 + 1e-11) + 1e-13
            assert second <= e_sq * (1 + 1e-11) + 1e-13


def test_unstable_mesh_error_message_names_inequality():
    unstable = build_mesh(1.0, 1.0, 10, 10)
    from wavecompact.grid import check_stable
    with pytest.raises(UnstableMeshError, match="tau"):
        check_stable(unstable)


def test_ends_within_the_dirichlet_tolerance_pass():
    # ends that are not exact zeros pass within 1e-13 of the level's scale
    mesh = build_mesh(math.pi, math.pi, 8, 16)
    w = np.full(9, 100.0)
    w[0], w[-1] = 5e-12, -5e-12
    assert require_dirichlet(w, mesh) is w
    stack = np.stack([np.zeros(9), w])
    assert require_dirichlet(stack, mesh) is stack
    stack[1, -1] = 2e-11
    with pytest.raises(ContractViolation, match=r"row 1\) must vanish at the boundary"):
        require_dirichlet(stack, mesh)
