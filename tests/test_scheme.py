"""The time integrator: defining equations, stability, superposition, errors."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wavecompact.scheme as scheme
from wavecompact.data import (U1_VARIANTS, DataSpec, Forcing, ForcingLevels, Profile,
                              TimeProfile)
from wavecompact.errors import (ConfigurationError, ContractViolation, InvariantError,
                                UnstableMeshError)
from wavecompact.experiments import random_dataspec
from wavecompact.grid import _tridiagonal, build_mesh, energy_norm_pair, space_norm
from wavecompact.operators import apply_implicit, solve_implicit, stencil
from wavecompact.oracle import HarmonicData, discrete_trajectory, dispersion, harmonic_dataspec
from wavecompact.reference import Reference, dalembert_reference
from wavecompact.scheme import (ERROR_MODES, evolve, evolve_grid, evolve_measured, measure_error,
                                prepare_inputs)

from _q2h import q2h_factor

MESH = build_mesh(math.pi, math.pi, 16, 64)


def _zero_data(X=math.pi):
    return DataSpec(u0=Profile.zero(X), u1=Profile.zero(X))


def _stored_reference(values, q2h_values=None):
    """A Reference serving stored (M+1, N+1) node values and q_2h-filtered
    values, the node values again if none are given, as the pair (values, 0)."""
    views = (values, values if q2h_values is None else q2h_values)
    return Reference(lambda view, levels: (views[view][levels], 0.0))


def _harmonic_shape(mesh, k):
    shape = np.sin(k * mesh.nodes())
    shape[0] = shape[-1] = 0.0
    return shape


def _zero_factors(mesh, columns=None):
    """Zero forcing factors; a stack of columns if given."""
    lead = () if columns is None else (columns,)
    return ForcingLevels(np.zeros(lead + (mesh.M,)), np.zeros(lead + (mesh.N + 1,)))


def _random_factors(mesh, rng, columns=None):
    """Random forcing factors with zero space ends; a stack of columns if given."""
    levels = _zero_factors(mesh, columns)
    levels.time[:] = rng.standard_normal(levels.time.shape)
    levels.space[..., 1:-1] = rng.standard_normal(levels.space[..., 1:-1].shape)
    return levels


def test_evolve_grid_zero_data():
    run = evolve_grid(MESH, MESH.zeros(), MESH.zeros(), _zero_factors(MESH))
    assert np.all(run.slices == 0.0)


def test_evolve_grid_first_level_harmonic_closed_form():
    # v0 = sin(kx), u1h = 0, fh = 0 -> v1 = cos(mu_k tau) sin(kx)
    mesh = build_mesh(math.pi, math.pi, 16, 64)
    v0 = _harmonic_shape(mesh, 3)
    v1 = evolve_grid(mesh, v0, mesh.zeros()).slices[1]
    mu = dispersion(3, mesh).mu_k
    np.testing.assert_allclose(v1, math.cos(mu * mesh.tau) * v0, rtol=1e-12,
                               atol=1e-14)


def test_evolve_grid_first_level_satisfies_defining_equation():
    rng = np.random.default_rng(0)
    mesh = MESH
    v0 = mesh.zeros(); v0[1:-1] = rng.standard_normal(mesh.N - 1)
    u1h = mesh.zeros(); u1h[1:-1] = rng.standard_normal(mesh.N - 1)
    fh = _random_factors(mesh, rng)
    v1 = evolve_grid(mesh, v0, u1h, fh).slices[1]
    dt0 = (v1 - v0) / mesh.tau
    lhs = apply_implicit(dt0, mesh)
    rhs = (0.5 * mesh.tau * mesh.a ** 2 * stencil("laplacian", v0, mesh)
           + u1h + 0.5 * mesh.tau * fh.time[0] * fh.space)
    scale = max(1.0, float(np.max(np.abs(rhs))))
    assert np.max(np.abs(lhs[1:-1] - rhs[1:-1])) <= 1e-11 * scale


def test_evolve_grid_refuses_unstable_mesh():
    unstable = build_mesh(1.0, 1.0, 10, 10)
    with pytest.raises(UnstableMeshError):
        evolve_grid(unstable, unstable.zeros(), unstable.zeros())


def test_evolve_grid_refuses_a_mesh_with_one_interior_node():
    # N = 2 is a valid mesh, but the implicit solve needs two interior nodes
    mesh = build_mesh(math.pi, 1.0, 2, 1)
    with pytest.raises(ContractViolation, match="needs 2 interior nodes.*N=2"):
        evolve_grid(mesh, mesh.zeros(), mesh.zeros())


def test_evolve_grid_free_harmonic_recurrence():
    # from v0 = sin(kx) at rest, every level is the closed form cos(mu_k t_m) sin(kx)
    mesh = build_mesh(math.pi, math.pi, 16, 64)
    shape = _harmonic_shape(mesh, 3)
    mu = dispersion(3, mesh).mu_k
    slices = evolve_grid(mesh, shape, mesh.zeros()).slices
    np.testing.assert_allclose(slices, np.cos(mu * mesh.times())[:, None] * shape,
                               rtol=1e-11, atol=1e-12)


def _inputs(stack=None):
    """Zero (v0, u1h, fh) grid data, a stack of columns if given, as evolve_grid's
    keywords, and the array of each that the checks read: fh's space factor."""
    inputs = {"v0": MESH.zeros(), "u1h": MESH.zeros(), "fh": _zero_factors(MESH)}
    if stack is not None:
        inputs = dict(zip(inputs, _stacked(MESH, [tuple(inputs.values())] * stack)))
    return inputs, {**inputs, "fh": inputs["fh"].space}


@pytest.mark.parametrize("bad", ["v0", "u1h", "fh"])
def test_evolve_grid_names_bad_input(bad):
    inputs, arrays = _inputs()
    arrays[bad][-1] = 1.0  # the space factor makes every forcing level's end non-zero
    with pytest.raises(ContractViolation, match=f"^{bad}.* must vanish at the boundary"):
        evolve_grid(MESH, **inputs)


def test_free_evolution_energy_bound():
    # with zero data beyond v0: max_m E <= a |(-Lap)^(1/2) v0|
    mesh = build_mesh(math.pi, math.pi, 16, 64)
    rng = np.random.default_rng(1)
    v0 = mesh.zeros(); v0[1:-1] = rng.standard_normal(mesh.N - 1)
    slices = evolve_grid(mesh, v0, mesh.zeros()).slices
    bound = mesh.a * space_norm(v0, "stiffness", mesh)
    for m in range(1, mesh.M + 1):
        assert energy_norm_pair(slices[m - 1], slices[m], mesh) <= bound * (1 + 1e-11)


def test_evolve_zero_data_and_diagnostics():
    run = evolve(MESH, _zero_data())
    assert np.all(run.slices == 0.0)
    assert run.residual_max.shape == (MESH.M,)
    assert np.all(run.residual_max <= 1e-11)


def test_evolve_residuals_nonzero_data():
    kind = HarmonicData(j=2, k=3)
    run = evolve(MESH, harmonic_dataspec(kind, MESH))
    assert np.max(run.residual_max) <= 1e-11 * max(
        1.0, float(np.max(np.abs(run.slices))))


def test_evolve_superposition():
    # evolve is additive in the data, forcing included:
    # (u0, u1, f) = (u0', u1', f) + (u0'', u1'', 0)
    mesh = build_mesh(math.pi, math.pi, 12, 48)
    r = np.random.default_rng(5)
    c0a, c0b = r.standard_normal(6), r.standard_normal(6)
    c1a, c1b = r.standard_normal(6), r.standard_normal(6)
    f = Forcing(space=Profile.sine_series(r.standard_normal(4), math.pi),
                time=TimeProfile.polynomial(r.standard_normal(3)))
    d1 = DataSpec(u0=Profile.sine_series(c0a, math.pi),
                  u1=Profile.sine_series(c1a, math.pi), f=f)
    d2 = DataSpec(u0=Profile.sine_series(c0b, math.pi),
                  u1=Profile.sine_series(c1b, math.pi))
    both = DataSpec(u0=Profile.sine_series(c0a + c0b, math.pi),
                    u1=Profile.sine_series(c1a + c1b, math.pi), f=f)
    run1 = evolve(mesh, d1)
    run2 = evolve(mesh, d2)
    run12 = evolve(mesh, both)
    scale = max(1.0, np.max(np.abs(run12.slices)))
    assert np.max(np.abs(run1.slices + run2.slices
                         - run12.slices)) <= 1e-11 * scale


def test_error_report_self_reference_is_zero():
    kind = HarmonicData(j=1, k=2)
    run = evolve(MESH, harmonic_dataspec(kind, MESH))
    ref = _stored_reference(run.slices)
    rep = measure_error(MESH, run.slices, ref, mode="node_sampled")
    assert rep.max_energy_error == pytest.approx(0.0, abs=1e-13)
    assert rep.max_dx_error == pytest.approx(0.0, abs=1e-13)
    assert rep.l1_spacetime_error == pytest.approx(0.0, abs=1e-13)
    assert rep.l1_spacetime_dx_error == pytest.approx(0.0, abs=1e-13)


# M = 16 fits in one block of measure_error; M = 150 spans ten blocks of 16
# level pairs (more than the id says), the last one partial, so the pair
# norms cross nine seams
SEAM_MESHES = pytest.mark.parametrize("m_levels", [16, 150], ids=["one_block", "three_blocks"])


@SEAM_MESHES
def test_error_report_brute_force_norms(m_levels):
    # all four fields recomputed with plain loops on a tiny run
    mesh = build_mesh(math.pi, math.pi, 8, m_levels)
    kind = HarmonicData(j=0, k=2)
    data = harmonic_dataspec(kind, mesh)
    run = evolve(mesh, data)
    ref = dalembert_reference(mesh, data)
    rep = measure_error(mesh, run.slices, ref, mode="node_sampled")

    errs = [ref.values(m) - run.slices[m] for m in range(mesh.M + 1)]
    h, tau = mesh.h, mesh.tau
    e_energy = max(energy_norm_pair(errs[m - 1], errs[m], mesh)
                   for m in range(1, mesh.M + 1))
    e_dx = max(math.sqrt(sum(((e[i] - e[i - 1]) / h) ** 2 * h
                             for i in range(1, mesh.N + 1))) for e in errs)
    sl1 = [sum(0.5 * (abs(e[i - 1]) + abs(e[i])) * h for i in range(1, mesh.N + 1))
           for e in errs]
    sdx = [sum(abs((e[i] - e[i - 1]) / h) * h for i in range(1, mesh.N + 1))
           for e in errs]
    e_l1 = sum(0.5 * (sl1[m - 1] + sl1[m]) * tau for m in range(1, mesh.M + 1))
    e_l1dx = sum(0.5 * (sdx[m - 1] + sdx[m]) * tau for m in range(1, mesh.M + 1))
    assert rep.max_energy_error == pytest.approx(e_energy, rel=1e-12)
    assert rep.max_dx_error == pytest.approx(e_dx, rel=1e-12)
    assert rep.l1_spacetime_error == pytest.approx(e_l1, rel=1e-12)
    assert rep.l1_spacetime_dx_error == pytest.approx(e_l1dx, rel=1e-12)


@SEAM_MESHES
def test_error_report_q2h_mode_brute_force(m_levels):
    # the exact solution is one sine mode: q_2h u is u times its eigenfactor
    mesh = build_mesh(math.pi, math.pi, 8, m_levels)
    kind = HarmonicData(j=1, k=1)
    data = harmonic_dataspec(kind, mesh)
    run = evolve(mesh, data)
    ref = dalembert_reference(mesh, data)
    rep = measure_error(mesh, run.slices, ref, mode="q2h_filtered")
    factor = q2h_factor(kind.k * math.pi / mesh.X, mesh.h)
    filt = [factor * ref.values(m) - run.slices[m] for m in range(mesh.M + 1)]
    node = [ref.values(m) - run.slices[m] for m in range(mesh.M + 1)]
    expected = max(
        space_norm((filt[m] - filt[m - 1]) / mesh.tau, "l2", mesh)
        + space_norm(node[m], "diff_l2", mesh)
        for m in range(1, mesh.M + 1))
    assert rep.max_energy_error == pytest.approx(expected, rel=1e-12)


def test_measure_error_sees_the_pair_across_a_block_seam():
    # the error is +w on the last level of the first block and -w on the next
    # level, so the largest pair norm lies on the seam between the blocks
    from wavecompact.scheme import _RESIDUAL_BLOCK
    mesh = build_mesh(math.pi, math.pi, 8, 3 * _RESIDUAL_BLOCK)
    run = evolve(mesh, _zero_data())
    w = mesh.zeros()
    w[1:-1] = np.random.default_rng(2).standard_normal(mesh.N - 1)
    exact = run.slices.copy()
    exact[_RESIDUAL_BLOCK] += w
    exact[_RESIDUAL_BLOCK + 1] -= w
    rep = measure_error(mesh, run.slices, _stored_reference(exact))
    assert rep.max_energy_error == energy_norm_pair(w, -w, mesh)
    assert rep.max_energy_error > energy_norm_pair(mesh.zeros(), w, mesh)


def test_measure_error_node_sampled_refuses_an_unstable_mesh():
    # the one stability refusal, raised before any level is measured
    unstable = build_mesh(1.0, 1.0, 10, 10)
    zeros = np.zeros((unstable.M + 1, unstable.N + 1))
    with pytest.raises(UnstableMeshError) as measured:
        measure_error(unstable, zeros, _stored_reference(zeros), mode="node_sampled")
    with pytest.raises(UnstableMeshError) as direct:
        energy_norm_pair(unstable.zeros(), unstable.zeros(), unstable)
    assert str(measured.value) == str(direct.value) == unstable.stability_report()


def test_smooth_manufactured_solution_fourth_order():
    # u = sin t sin x (data j=1, k=1): energy-norm order ~ 4 across a short ladder
    errors = []
    hs = []
    for n in (8, 16, 32):
        mesh = build_mesh(math.pi, math.pi, n, 2 * n)
        kind = HarmonicData(j=1, k=1)
        data = harmonic_dataspec(kind, mesh)
        run = evolve(mesh, data)
        rep = measure_error(mesh, run.slices, dalembert_reference(mesh, data))
        errors.append(rep.max_energy_error)
        hs.append(mesh.h)
    order1 = math.log2(errors[0] / errors[1])
    order2 = math.log2(errors[1] / errors[2])
    assert order1 == pytest.approx(4.0, abs=0.4)
    assert order2 == pytest.approx(4.0, abs=0.2)


def test_one_stepping_kernel_behind_every_path():
    # evolve and evolve_grid share one kernel: on forced rough data their
    # slices agree bit for bit, and every stored slice vanishes exactly at
    # both ends
    from wavecompact.scheme import RESIDUAL_RTOL
    mesh = build_mesh(math.pi, math.pi, 32, 64)
    data = random_dataspec(np.random.default_rng(1), mesh.X)
    assert data.f is not None
    run = evolve(mesh, data)
    grid = evolve_grid(mesh, *prepare_inputs(mesh, data, "v2"))
    assert np.array_equal(run.slices, grid.slices)
    assert np.array_equal(run.residual_max, grid.residual_max)
    assert run.slices.shape == (mesh.M + 1, mesh.N + 1)
    assert np.all(run.slices[:, [0, -1]] == 0.0)
    assert run.residual_max.shape == (mesh.M,)
    assert np.all(run.residual_max <= RESIDUAL_RTOL)


def _poison_solve(monkeypatch, call, index=2, shift=None):
    """Make the given dpttrs call of evolve_grid return a NaN, or its value
    plus shift, at index of its (N-1, B) solution: in every column of row 2
    by default."""
    dpttrs = scheme.dpttrs
    calls = 0

    def poisoned(d, e, b, *args, **kwargs):
        nonlocal calls
        calls += 1
        x, info = dpttrs(d, e, b, *args, **kwargs)
        if calls == call:
            x[index] = np.nan if shift is None else x[index] + shift
        return x, info

    monkeypatch.setattr(scheme, "dpttrs", poisoned)


def test_step_residual_rejects_nan(monkeypatch):
    # a NaN in one step's solution makes its residual NaN, and the loop's
    # residual check refuses it, naming the level
    _poison_solve(monkeypatch, 3)
    with pytest.raises(InvariantError, match=r"nan of the step to level 3 on the N=16, M=64 "):
        evolve_grid(MESH, _harmonic_shape(MESH, 3), MESH.zeros())


@pytest.mark.parametrize("level, m_levels", [(21, 64), (35, 37)])
def test_step_residual_rejects_nan_in_later_blocks(monkeypatch, level, m_levels):
    # the residuals are checked per block of steps: a NaN in a later block,
    # or in the run's final partial block, is refused naming its own level
    mesh = build_mesh(math.pi, math.pi, 16, m_levels)
    _poison_solve(monkeypatch, level)
    with pytest.raises(InvariantError, match=rf"nan of the step to level {level} on the "
                                             rf"N=16, M={m_levels} "):
        evolve_grid(mesh, _harmonic_shape(mesh, 3), mesh.zeros())


def _operator_loop(mesh, v0, u1h, fh):
    """The stepping loop composed of the operator calls, kept as the bit-exact
    reference: stencil, solve_implicit and apply_implicit on full levels."""
    tau, a = mesh.tau, mesh.a
    slices = np.empty((mesh.M + 1, mesh.N + 1))
    residuals = np.empty(mesh.M)

    def residual(lhs_fn, rhs):
        return float(np.max(np.abs(lhs_fn[1:-1] - rhs[1:-1])))

    rhs = 0.5 * tau * a ** 2 * stencil("laplacian", v0, mesh) + u1h
    if fh is not None:
        rhs = rhs + 0.5 * tau * (fh.time[0] * fh.space)
    dt0 = solve_implicit(rhs, mesh)
    residuals[0] = residual(apply_implicit(dt0, mesh), rhs)
    slices[0], slices[1] = v0, v0 + tau * dt0
    for m in range(1, mesh.M):
        rhs = a ** 2 * stencil("laplacian", slices[m], mesh)
        if fh is not None:
            rhs = rhs + fh.time[m] * fh.space
        lam_t = solve_implicit(rhs, mesh)
        residuals[m] = residual(apply_implicit(lam_t, mesh), rhs)
        slices[m + 1] = tau ** 2 * lam_t + 2.0 * slices[m] - slices[m - 1]
    return slices, residuals


def test_evolve_grid_matches_the_operator_loop_bit_for_bit():
    cases = []
    mesh = build_mesh(math.pi, math.pi, 64, 128)
    for j in (0, 1, 2):
        data = harmonic_dataspec(HarmonicData(j=j, k=3), mesh)
        cases.append((mesh, prepare_inputs(mesh, data, "v2")))
    mesh = build_mesh(math.pi, math.pi, 32, 64)
    for seed in range(6):
        data = random_dataspec(np.random.default_rng(seed), mesh.X)
        for variant in U1_VARIANTS:
            cases.append((mesh, prepare_inputs(mesh, data, variant)))
    # the residual blocks' edges: M below, at and one above the block size,
    # and one M that is not a multiple of it; T shrinks with M so that
    # a^2 tau^2 = h^2 / 4 keeps every mesh stable
    assert scheme._RESIDUAL_BLOCK == 16
    for m_levels in (9, 16, 17, 37):
        mesh = build_mesh(math.pi, math.pi * m_levels / 32, 16, m_levels)
        assert (mesh.a * mesh.tau) ** 2 <= mesh.h ** 2 / 2
        v0, u1h, fh = _random_grid_data(mesh, np.random.default_rng(m_levels))
        cases += [(mesh, (v0, u1h, fh)), (mesh, (v0, u1h, None))]
    assert {inputs[2] is None for _, inputs in cases} == {True, False}  # fh and none
    for mesh, inputs in cases:
        run = evolve_grid(mesh, *inputs)
        slices, residuals = _operator_loop(mesh, *inputs)
        assert np.array_equal(run.slices, slices)
        assert np.array_equal(run.residual_max, residuals)


def test_the_residual_check_matches_the_operator_loop_at_small_meshes_and_large_data():
    # the check applies A to the solutions with their zero ends implied: at
    # N = 3 those ends are the whole stencil of both interior nodes.  Data
    # scaled by 1e9 put the steps far above RESIDUAL_RTOL in absolute terms
    # (at N = 16 every step), so every block's scales are taken, and no step
    # is refused.  Single and stacked.
    for n, scale in ((3, 1.0), (3, 1e9), (16, 1e9)):
        mesh = build_mesh(math.pi, math.pi, n, 4 * n)
        rng = np.random.default_rng(n)
        sets = []
        for forced in (True, False):
            v0, u1h, fh = _random_grid_data(mesh, rng, forced)
            sets.append((v0 * scale, u1h * scale,
                         None if fh is None else ForcingLevels(fh.time * scale, fh.space)))
        for inputs in sets:
            run = evolve_grid(mesh, *inputs)
            slices, residuals = _operator_loop(mesh, *inputs)
            assert np.array_equal(run.slices, slices)
            assert np.array_equal(run.residual_max, residuals)
            if scale > 1.0:  # far above 1e-11: the scales of every block are taken
                assert residuals.max() > 1e-9 and (n == 3 or residuals.min() > 1e-9)
        _assert_columns_are_single_runs(mesh, sets)


def test_the_stencil_of_an_interior_with_implied_zero_ends():
    # _tridiagonal on an interior, its zero ends implied, has the bits of the
    # stencil on the full levels; at N = 2 the one interior node has no
    # neighbour, and the scheme refuses N = 2, single or stacked
    rng = np.random.default_rng(5)
    for n in (2, 3, 16):
        for lead in ((), (4,), (3, 2)):
            full = np.zeros(lead + (n + 1,))
            full[..., 1:-1] = rng.standard_normal(lead + (n - 1,))
            want = _tridiagonal(np.empty(lead + (n - 1,)), full, 0.9, -0.3)
            inner = full[..., 1:-1].copy()
            got = _tridiagonal(np.empty_like(inner), inner, 0.9, -0.3, scratch=inner)
            assert np.array_equal(got, want)
    mesh = build_mesh(math.pi, 1.0, 2, 1)
    for lead in ((), (2,)):
        with pytest.raises(ContractViolation, match="needs 2 interior nodes.*N=2"):
            evolve_grid(mesh, np.zeros(lead + (3,)), np.zeros(lead + (3,)))


@pytest.mark.parametrize("bad", ["v0", "u1h", "fh"])
def test_evolve_grid_refuses_non_finite_input(bad):
    inputs, arrays = _inputs()
    arrays[bad][MESH.N // 2] = np.nan if bad == "u1h" else np.inf
    with pytest.raises(ConfigurationError, match=f"^{bad}.* has values that are not finite"):
        evolve_grid(MESH, **inputs)


@pytest.mark.parametrize("rows", [3, 40])
def test_evolve_grid_checks_the_fh_shape(rows):
    # too few forcing levels failed mid-run; too many were silently dropped
    mesh = build_mesh(math.pi, math.pi, 8, 16)
    fh = ForcingLevels(np.zeros(rows), mesh.zeros())
    with pytest.raises(ContractViolation,
                       match=rf"^fh time factor must have shape \(16,\), got \({rows},\)"):
        evolve_grid(mesh, mesh.zeros(), mesh.zeros(), fh)


def test_a_dense_fh_is_refused_naming_the_factors():
    # ForcingLevels factors are the one grid format of a forcing: the dense
    # (M, N+1) levels are refused by the stepper and the spectral oracle alike
    dense, zeros = np.zeros((MESH.M, MESH.N + 1)), (MESH.zeros(), MESH.zeros())
    reference = _stored_reference(np.zeros((MESH.M + 1, MESH.N + 1)))
    message = r"^fh must be None or data\.ForcingLevels\(time, space\), got ndarray$"
    for call in (lambda: evolve_grid(MESH, *zeros, dense),
                 lambda: evolve_measured(MESH, *zeros, dense, reference),
                 lambda: discrete_trajectory(MESH, *zeros, dense)):
        with pytest.raises(ContractViolation, match=message):
            call()


def test_evolve_grid_validates_once(monkeypatch):
    # the boundary values are checked on entry, never per step
    calls = []
    require_dirichlet = scheme.require_dirichlet

    def counting(w, mesh, what="grid function"):
        calls.append(what)
        return require_dirichlet(w, mesh, what)

    monkeypatch.setattr(scheme, "require_dirichlet", counting)
    counts = []
    for m_levels in (16, 256):
        mesh = build_mesh(math.pi, math.pi, 8, m_levels)
        calls.clear()
        evolve_grid(mesh, _harmonic_shape(mesh, 2), mesh.zeros(), _zero_factors(mesh))
        counts.append(len(calls))
    assert counts[0] == counts[1] <= 3


# --------------------------------------------------------------------------
# stacks: B data sets stepped as the columns of one run

def _random_grid_data(mesh, rng, forced=True):
    """Random (v0, u1h, fh) grid data with zero ends; fh factors, None unless forced."""
    v0, u1h = mesh.zeros(), mesh.zeros()
    v0[1:-1], u1h[1:-1] = rng.standard_normal((2, mesh.N - 1))
    return v0, u1h, _random_factors(mesh, rng) if forced else None


def _stacked(mesh, sets):
    """The stack of the grid data sets; unforced sets get zero factors."""
    fh = _zero_factors(mesh, len(sets))
    for b, (_, _, f) in enumerate(sets):
        if f is not None:
            fh.time[b], fh.space[b] = f.time, f.space
    return np.stack([s[0] for s in sets]), np.stack([s[1] for s in sets]), fh


def _assert_columns_are_single_runs(mesh, sets):
    run = evolve_grid(mesh, *_stacked(mesh, sets))
    assert run.slices.shape == (len(sets), mesh.M + 1, mesh.N + 1)
    assert run.residual_max.shape == (len(sets), mesh.M)
    for b, inputs in enumerate(sets):
        single = evolve_grid(mesh, *inputs)
        assert np.array_equal(run.slices[b], single.slices)
        assert np.array_equal(run.residual_max[b], single.residual_max)


def test_stacked_columns_equal_their_single_runs_on_mixed_data():
    # forced and unforced random data sets, mixed in one stack: each column is
    # its own run bit for bit, the unforced ones stepping zero forcing rows
    for n in (16, 64):
        mesh = build_mesh(math.pi, math.pi, n, 2 * n)
        rng = np.random.default_rng(n)
        sets = [prepare_inputs(mesh, random_dataspec(rng, mesh.X), "v2") for _ in range(6)]
        sets += [_random_grid_data(mesh, rng, forced=b % 2 == 0) for b in range(4)]
        assert {s[2] is None for s in sets} == {True, False}
        _assert_columns_are_single_runs(mesh, sets)


@pytest.mark.parametrize("m_levels", [9, 16, 17, 37])
def test_stacked_columns_equal_their_single_runs_at_the_residual_block_edges(m_levels):
    # M below, at and one above the residual block, and one M that is not a
    # multiple of it; T shrinks with M to keep a^2 tau^2 = h^2 / 4
    mesh = build_mesh(math.pi, math.pi * m_levels / 32, 16, m_levels)
    rng = np.random.default_rng(m_levels)
    sets = [_random_grid_data(mesh, rng, forced=b != 1) for b in range(3)]
    _assert_columns_are_single_runs(mesh, sets)


def test_a_stack_of_one_column_is_the_single_run():
    mesh = build_mesh(math.pi, math.pi, 32, 64)
    v0, u1h, fh = _random_grid_data(mesh, np.random.default_rng(3))
    run = evolve_grid(mesh, v0[None], u1h[None], ForcingLevels(fh.time[None], fh.space[None]))
    single = evolve_grid(mesh, v0, u1h, fh)
    assert run.slices.shape == (1, mesh.M + 1, mesh.N + 1)
    assert run.residual_max.shape == (1, mesh.M)
    assert np.array_equal(run.slices[0], single.slices)
    assert np.array_equal(run.residual_max[0], single.residual_max)


def test_stack_inputs_stacks_the_prepare_inputs_of_each_column():
    # each column holds its prepare_inputs arrays bit for bit; an unforced
    # column of a forced stack gets zero factors, and a stack of unforced
    # columns gets None
    mesh = build_mesh(math.pi, math.pi, 16, 32)
    rng = np.random.default_rng(11)
    columns = [(random_dataspec(rng, mesh.X), U1_VARIANTS[b % 3]) for b in range(8)]
    unforced = [(data, variant) for data, variant in columns if data.f is None]
    assert 0 < len(unforced) < len(columns)
    for stack in (columns, unforced):
        v0s, u1hs, fh = scheme.stack_inputs(mesh, stack)
        assert v0s.shape == u1hs.shape == (len(stack), mesh.N + 1)
        assert (fh is None) == (stack is unforced)
        for b, (data, variant) in enumerate(stack):
            v0, u1h, f = prepare_inputs(mesh, data, variant)
            assert np.array_equal(v0s[b], v0) and np.array_equal(u1hs[b], u1h)
            if fh is not None:
                time, space = ((np.zeros(mesh.M), mesh.zeros()) if f is None
                               else (f.time, f.space))
                assert np.array_equal(fh.time[b], time) and np.array_equal(fh.space[b], space)
    with pytest.raises(ContractViolation, match="^a stack of grid data needs at least one column"):
        scheme.stack_inputs(mesh, [])


def _stack_of_three(mesh=MESH):
    """Three forced random data sets as one stack, writable."""
    rng = np.random.default_rng(11)
    return dict(zip(("v0", "u1h", "fh"), _stacked(
        mesh, [_random_grid_data(mesh, rng) for _ in range(3)])))


@pytest.mark.parametrize("bad", ["v0", "u1h", "fh"])
def test_a_stack_names_the_column_that_does_not_vanish_at_the_ends(bad):
    inputs, arrays = _inputs(stack=3)
    arrays[bad][1, -1] = 1.0
    with pytest.raises(ContractViolation,
                       match=f"^{bad}( space factor)? column 1 .*must vanish at the boundary"):
        evolve_grid(MESH, **inputs)


@pytest.mark.parametrize("bad", ["v0", "u1h", "fh"])
def test_a_stack_names_the_column_that_is_not_finite(bad):
    inputs, arrays = _inputs(stack=3)
    arrays[bad][1, MESH.N // 2] = np.nan if bad == "u1h" else np.inf
    with pytest.raises(ConfigurationError,
                       match=f"^{bad}( space factor)? column 1 has values that are not finite"):
        evolve_grid(MESH, **inputs)


@pytest.mark.parametrize("bad", ["v0", "u1h", "fh"])
def test_a_stack_of_20_names_its_first_bad_column_in_the_same_words(bad):
    # the stack is checked in one pass; when that fails, the columns are
    # walked, and the error names the first bad one as a walk alone did
    name = "fh space factor" if bad == "fh" else bad
    inputs, arrays = _inputs(stack=20)
    arrays[bad][[7, 12], MESH.N // 2] = np.nan
    with pytest.raises(ConfigurationError,
                       match=f"^{name} column 7 has values that are not finite$"):
        evolve_grid(MESH, **inputs)
    inputs, arrays = _inputs(stack=20)
    arrays[bad][[7, 12], -1] = 0.5
    with pytest.raises(ContractViolation, match=re.escape(
            f"{name} column 7 must vanish at the boundary nodes, got w[0]=0.000e+00, "
            "w[N]=5.000e-01")):
        evolve_grid(MESH, **inputs)


def test_a_stack_checks_its_shapes():
    inputs = _stack_of_three()
    with pytest.raises(ContractViolation, match=r"^u1h must have shape \(3, 17\), got \(2, 17\)"):
        evolve_grid(MESH, inputs["v0"], inputs["u1h"][:2], inputs["fh"])
    single = ForcingLevels(inputs["fh"].time[0], inputs["fh"].space[0])
    with pytest.raises(ContractViolation, match=r"^fh time factor must have shape \(3, 64\)"):
        evolve_grid(MESH, inputs["v0"], inputs["u1h"], single)
    with pytest.raises(ContractViolation, match="at least one column"):
        evolve_grid(MESH, inputs["v0"][:0], inputs["u1h"][:0])


def test_a_stack_names_the_column_of_a_failing_residual(monkeypatch):
    # a NaN in the middle column's solution of one step is refused naming the
    # level and the column
    _poison_solve(monkeypatch, 21, index=(2, 1))
    with pytest.raises(InvariantError, match=r"nan of the step to level 21 in column 1 on "
                                             r"the N=16, M=64 "):
        evolve_grid(MESH, **_stack_of_three())


def test_each_column_has_its_own_residual_scale(monkeypatch):
    # column 0's forcing is of order 1e6, so its own residual bound is about
    # 1e-5; a 1e-8 error in the middle column's solution, whose data are of
    # order 1, is refused against that column's bound
    inputs = _stack_of_three()
    inputs["fh"].time[0] *= 1e6
    _poison_solve(monkeypatch, 5, index=(2, 1), shift=1e-8)
    with pytest.raises(InvariantError, match=r"of the step to level 5 in column 1 on "):
        evolve_grid(MESH, **inputs)


# --------------------------------------------------------------------------
# measured runs: stepped and measured block by block, no stored trajectory

def _random_reference(mesh, rng):
    """A Reference of random node values and q_2h-filtered values, for data
    that has no exact reference."""
    return _stored_reference(*rng.standard_normal((2, mesh.M + 1, mesh.N + 1)))


# M = 9 is one partial block; 16 one full block; 17 a full block and a
# one-step block; 37 and 150 several seams and a partial last block
@pytest.mark.parametrize("m_levels", [9, 16, 17, 37, 150])
@pytest.mark.parametrize("mode", ERROR_MODES)
@pytest.mark.parametrize("forced", [False, True], ids=["unforced", "forced"])
def test_measured_run_is_the_stored_run_measured_bit_for_bit(m_levels, mode, forced):
    mesh = build_mesh(math.pi, math.pi / 2, 8, m_levels)
    rng = np.random.default_rng(m_levels)
    if forced:  # polynomial time factors: no exact reference
        inputs = _random_grid_data(mesh, rng, forced=True)
        reference = _random_reference(mesh, rng)
    else:
        data = random_dataspec(rng, mesh.X)
        data = DataSpec(u0=data.u0, u1=data.u1)
        inputs = prepare_inputs(mesh, data, "v2")
        reference = dalembert_reference(mesh, data)
    report, residual_max = evolve_measured(mesh, *inputs, reference, mode)
    run = evolve_grid(mesh, *inputs)
    assert report == measure_error(mesh, run.slices, reference, mode)
    assert np.array_equal(residual_max, run.residual_max)


@pytest.mark.parametrize("m_levels", [37, 150])
@pytest.mark.parametrize("mode", ERROR_MODES)
def test_the_l1_series_keep_the_bits_of_np_sum(monkeypatch, m_levels, mode):
    # the measurer sums |e| and |De| per level with np.add.reduce: the series
    # it aggregates in time have the bits of np.sum(np.abs(e), axis=-1) * h
    # (and of De, the backward differences times 1/h, zero ends of e implied)
    series = []

    def recording(y, mesh, aggregate=scheme.time_aggregate):
        series.append(np.array(y))
        return aggregate(y, mesh)
    monkeypatch.setattr(scheme, "time_aggregate", recording)
    mesh = build_mesh(math.pi, math.pi / 2, 32, m_levels)
    rng = np.random.default_rng(m_levels)
    slices = rng.standard_normal((mesh.M + 1, mesh.N + 1)) * 10.0 ** rng.uniform(-3, 3)
    reference = _random_reference(mesh, rng)
    measure_error(mesh, slices, reference, mode)
    e = reference.values(slice(None)) - slices
    e[:, ::mesh.N] = 0.0
    de = np.diff(e) * (1.0 / mesh.h)
    l1, l1_dx = series
    assert l1.tobytes() == (np.sum(np.abs(e), axis=-1) * mesh.h).tobytes()
    assert l1_dx.tobytes() == (np.sum(np.abs(de), axis=-1) * mesh.h).tobytes()


def test_a_measured_run_takes_one_data_set_and_checks_it():
    # evolve_grid's entry checks, one data set and not a stack, a known mode
    # and a stable mesh
    v0, u1h, fh = _random_grid_data(MESH, np.random.default_rng(3))
    reference = _random_reference(MESH, np.random.default_rng(4))
    with pytest.raises(ContractViolation, match=r"^v0 must have shape \(17,\), got \(1, 17\)"):
        evolve_measured(MESH, v0[None], u1h, fh, reference)
    space = fh.space.copy()
    space[0] = 1.0
    with pytest.raises(ContractViolation, match=r"^fh space factor must vanish"):
        evolve_measured(MESH, v0, u1h, ForcingLevels(fh.time, space), reference)
    with pytest.raises(ContractViolation, match="unknown error mode"):
        evolve_measured(MESH, v0, u1h, fh, reference, "energy")
    unstable = build_mesh(1.0, 1.0, 10, 10)
    with pytest.raises(UnstableMeshError):
        evolve_measured(unstable, unstable.zeros(), unstable.zeros(), None, reference)


class _RecordingReference:
    """A stored reference that records the levels each view serves."""

    def __init__(self, values, q2h_values=None):
        self._reference = _stored_reference(values, q2h_values)
        self.served, self.served_q2h = [], []

    def values(self, levels, out=None):
        self.served.append((levels.start, levels.stop))
        return self._reference.values(levels, out)

    def q2h_values(self, levels, out=None):
        self.served_q2h.append((levels.start, levels.stop))
        return self._reference.q2h_values(levels, out)


@pytest.mark.parametrize("m_levels", [9, 16, 17, 37])
@pytest.mark.parametrize("mode", ERROR_MODES)
def test_the_measurer_serves_blocks_of_at_least_two_levels(m_levels, mode):
    # a forced reference's bits depend on its block: coeffs @ shapes of one
    # level takes another BLAS path than a block of two or more.  Stepped or
    # stored, a run is measured in blocks of two or more levels, each view
    # the same blocks, so no report depends on that
    mesh = build_mesh(math.pi, math.pi / 2, 8, m_levels)
    rng = np.random.default_rng(m_levels)
    inputs = _random_grid_data(mesh, rng)
    reference = _RecordingReference(*rng.standard_normal((2, mesh.M + 1, mesh.N + 1)))
    evolve_measured(mesh, *inputs, reference, mode)
    measure_error(mesh, evolve_grid(mesh, *inputs).slices, reference, mode)
    assert reference.served_q2h == (reference.served if mode == "q2h_filtered" else [])
    blocks = [range(mesh.M + 1)[slice(*levels)] for levels in reference.served]
    assert [(b[0], b[-1]) for b in blocks] == 2 * [(s, min(s + 16, mesh.M))
                                                  for s in range(0, mesh.M, 16)]
    assert min(map(len, blocks)) >= 2


def test_a_measured_run_refuses_a_failing_step_before_measuring_its_block(monkeypatch):
    # a NaN in the step to level 40 (the block of levels 32..48) is refused
    # naming its level; only the two blocks before it were measured
    mesh = build_mesh(math.pi, math.pi, 16, 64)
    v0 = _harmonic_shape(mesh, 3)
    reference = _RecordingReference(evolve_grid(mesh, v0, mesh.zeros()).slices)
    _poison_solve(monkeypatch, 40)
    with pytest.raises(InvariantError, match=r"nan of the step to level 40 on the N=16, M=64 "):
        evolve_measured(mesh, v0, mesh.zeros(), None, reference)
    assert reference.served == [(0, 17), (16, 33)]


# --------------------------------------------------------------------------
# forcing factors: the levels as time (M,) and space (N+1,) factors

@settings(max_examples=30, deadline=None)
@given(st.integers(3, 24), st.integers(1, 70), st.integers(0, 2 ** 32 - 1))
def test_factor_runs_step_as_the_operator_loop(n, m_levels, seed):
    # any M, a partial last block of forcing rows included; tau = h / 2 keeps
    # every mesh stable
    mesh = build_mesh(math.pi, math.pi * m_levels / (2 * n), n, m_levels)
    rng = np.random.default_rng(seed)
    v0, u1h, levels = _random_grid_data(mesh, rng)
    slices, residuals = _operator_loop(mesh, v0, u1h, levels)
    run = evolve_grid(mesh, v0, u1h, levels)
    assert np.array_equal(run.slices, slices)
    assert np.array_equal(run.residual_max, residuals)
    reference = _random_reference(mesh, rng)
    report, measured_residuals = evolve_measured(mesh, v0, u1h, levels, reference)
    assert report == measure_error(mesh, slices, reference)
    assert np.array_equal(measured_residuals, residuals)
    # a stack of three whose middle column is unforced: zero factors
    sets = [(v0, u1h, levels), (u1h, v0, None), _random_grid_data(mesh, rng)]
    run = evolve_grid(mesh, *_stacked(mesh, sets))
    for b, inputs in enumerate(sets):
        slices, residuals = _operator_loop(mesh, *inputs)
        assert np.array_equal(run.slices[b], slices)
        assert np.array_equal(run.residual_max[b], residuals)


def test_forcing_factors_are_checked_on_entry():
    rng = np.random.default_rng(5)
    levels = _random_factors(MESH, rng)
    zeros = MESH.zeros(), MESH.zeros()
    time = levels.time.copy()
    time[7] = np.nan
    with pytest.raises(ConfigurationError, match="^fh time factor has values that are not fin"):
        evolve_grid(MESH, *zeros, ForcingLevels(time, levels.space))
    # finite factors whose levels overflow are not finite either
    with pytest.raises(ConfigurationError, match="^fh has values that are not finite"):
        evolve_grid(MESH, *zeros, ForcingLevels(levels.time * 1e200, levels.space * 1e200))
    space = levels.space.copy()
    space[-1] = 1.0
    with pytest.raises(ContractViolation, match="^fh space factor must vanish at the boundary"):
        evolve_grid(MESH, *zeros, ForcingLevels(levels.time, space))
    with pytest.raises(ContractViolation,
                       match=r"^fh time factor must have shape \(64,\), got \(63,\)"):
        evolve_grid(MESH, *zeros, ForcingLevels(levels.time[:-1], levels.space))
    with pytest.raises(ContractViolation,
                       match=r"^fh space factor must have shape \(17,\), got \(16,\)"):
        evolve_measured(MESH, *zeros, ForcingLevels(levels.time, levels.space[:-1]),
                        _random_reference(MESH, rng))
    # in a stack, the failing column is named
    stack = _random_factors(MESH, rng, columns=3)
    stack.time[1, 3] = np.inf
    with pytest.raises(ConfigurationError,
                       match="^fh time factor column 1 has values that are not finite"):
        evolve_grid(MESH, np.zeros((3, MESH.N + 1)), np.zeros((3, MESH.N + 1)), stack)
    stack.time[1, 3] = 1e200
    stack.space[1] *= 1e200
    with pytest.raises(ConfigurationError, match="^fh column 1 has values that are not finite"):
        evolve_grid(MESH, np.zeros((3, MESH.N + 1)), np.zeros((3, MESH.N + 1)), stack)


@pytest.mark.parametrize("amplitude", [1e100, 1e200])
def test_forcing_factors_beyond_the_data_bound_are_refused(amplitude):
    # each factor below the bound, or each above it: their levels exceed it
    mesh = build_mesh(math.pi, math.pi, 16, 32)
    data = DataSpec(u0=Profile.zero(mesh.X), u1=Profile.zero(mesh.X),
                    f=Forcing(space=Profile.sine_series([amplitude], mesh.X),
                              time=TimeProfile.polynomial((amplitude,))))
    with pytest.raises(ConfigurationError,
                       match=r"^the grid data of f are not finite or exceed 1\.3e\+154 in "
                             r"magnitude on the N=16, M=32 mesh$"):
        prepare_inputs(mesh, data, "v2")


def test_a_forced_measured_run_holds_no_forcing_array():
    # the factors, one block of forcing rows and the level ring: at N = 128,
    # M = 4096 assembly, stepping and measurement peak below a quarter of the
    # (M, N+1) float64 forcing array
    import tracemalloc
    mesh = build_mesh(math.pi, math.pi, 128, 4096)
    data = harmonic_dataspec(HarmonicData(j=2, k=3), mesh)
    reference = dalembert_reference(mesh, data)
    evolve_measured(mesh, *prepare_inputs(mesh, data, "v2"), reference)  # caches, imports
    tracemalloc.start()
    try:
        evolve_measured(mesh, *prepare_inputs(mesh, data, "v2"), reference)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.25 * mesh.M * (mesh.N + 1) * 8, peak


def test_a_finite_stack_whose_sum_overflows_passes_the_column_walk():
    # the one-pass sum overflows, so each column is checked alone: all are
    # finite with zero ends, and the stack enters unchanged
    mesh = build_mesh(math.pi, math.pi, 8, 16)
    w = np.zeros((3, 9))
    w[:, 1:-1] = 1e308
    with np.errstate(over="ignore"):
        assert not np.isfinite(w.sum())
    assert scheme._entry_datum("v0", w, (3, 9), mesh, True) is w
    w[2, 4] = np.inf
    with pytest.raises(ConfigurationError, match="^v0 column 2 has values that are not finite$"):
        scheme._entry_datum("v0", w, (3, 9), mesh, True)


def test_measure_error_refuses_slices_of_the_wrong_shape():
    mesh = build_mesh(math.pi, math.pi, 8, 16)
    with pytest.raises(ContractViolation) as refused:
        measure_error(mesh, np.zeros((16, 9)), None)
    assert str(refused.value) == "slices must have shape (17, 9), got (16, 9)"
