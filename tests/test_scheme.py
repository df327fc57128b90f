"""The time integrator: defining equations, stability, superposition, errors."""

import math

import numpy as np
import pytest

import wavecompact.scheme as scheme
from wavecompact.data import U1_VARIANTS, DataSpec, Forcing, Profile, TimeProfile
from wavecompact.errors import (ConfigurationError, ContractViolation, InvariantError,
                                UnstableMeshError)
from wavecompact.experiments import random_dataspec
from wavecompact.grid import build_mesh, energy_norm_pair, space_norm
from wavecompact.operators import apply_implicit, solve_implicit, stencil
from wavecompact.oracle import HarmonicData, dispersion, harmonic_dataspec
from wavecompact.reference import Reference, dalembert_reference
from wavecompact.scheme import (ERROR_MODES, evolve, evolve_grid, evolve_measured, measure_error,
                                prepare_inputs)

MESH = build_mesh(math.pi, math.pi, 16, 64)


def _zero_data(X=math.pi):
    return DataSpec(u0=Profile.zero(X), u1=Profile.zero(X))


def _stored_reference(values, qh_values=None):
    """A Reference serving stored (M+1, N+1) node values and hat averages,
    the node values again if none are given."""
    views = np.stack([values, values if qh_values is None else qh_values])
    return Reference(views, np.broadcast_to(0.0, views.shape))


def _harmonic_shape(mesh, k):
    shape = np.sin(k * mesh.nodes())
    shape[0] = shape[-1] = 0.0
    return shape


def test_evolve_grid_zero_data():
    fh = np.zeros((MESH.M, MESH.N + 1))
    run = evolve_grid(MESH, MESH.zeros(), MESH.zeros(), fh)
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
    fh = np.zeros((mesh.M, mesh.N + 1)); fh[:, 1:-1] = rng.standard_normal((mesh.M, mesh.N - 1))
    v1 = evolve_grid(mesh, v0, u1h, fh).slices[1]
    dt0 = (v1 - v0) / mesh.tau
    lhs = apply_implicit(dt0, mesh)
    rhs = (0.5 * mesh.tau * mesh.a ** 2 * stencil("laplacian", v0, mesh)
           + u1h + 0.5 * mesh.tau * fh[0])
    scale = max(1.0, float(np.max(np.abs(rhs))))
    assert np.max(np.abs(lhs[1:-1] - rhs[1:-1])) <= 1e-11 * scale


def test_evolve_grid_refuses_unstable_mesh():
    unstable = build_mesh(1.0, 1.0, 10, 10)
    with pytest.raises(UnstableMeshError):
        evolve_grid(unstable, unstable.zeros(), unstable.zeros())


def test_evolve_grid_free_harmonic_recurrence():
    # from v0 = sin(kx) at rest, every level is the closed form cos(mu_k t_m) sin(kx)
    mesh = build_mesh(math.pi, math.pi, 16, 64)
    shape = _harmonic_shape(mesh, 3)
    mu = dispersion(3, mesh).mu_k
    slices = evolve_grid(mesh, shape, mesh.zeros()).slices
    np.testing.assert_allclose(slices, np.cos(mu * mesh.times())[:, None] * shape,
                               rtol=1e-11, atol=1e-12)


@pytest.mark.parametrize("bad", ["v0", "u1h", "fh"])
def test_evolve_grid_names_bad_input(bad):
    inputs = {"v0": MESH.zeros(), "u1h": MESH.zeros(), "fh": np.zeros((MESH.M, MESH.N + 1))}
    target = inputs[bad]
    if target.ndim == 2:
        target[MESH.M // 2, 0] = 1.0  # one forcing level with a non-zero end
    else:
        target[-1] = 1.0
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
    from wavecompact.data import q2h_from_qh
    mesh = build_mesh(math.pi, math.pi, 8, m_levels)
    kind = HarmonicData(j=1, k=1)
    data = harmonic_dataspec(kind, mesh)
    run = evolve(mesh, data)
    ref = dalembert_reference(mesh, data)
    rep = measure_error(mesh, run.slices, ref, mode="q2h_filtered")
    filt = [q2h_from_qh(ref.qh_values(m), mesh) - run.slices[m]
            for m in range(mesh.M + 1)]
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

    def poisoned(d, e, b, **kwargs):
        nonlocal calls
        calls += 1
        x, info = dpttrs(d, e, b, **kwargs)
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
        rhs = rhs + 0.5 * tau * fh[0]
    dt0 = solve_implicit(rhs, mesh)
    residuals[0] = residual(apply_implicit(dt0, mesh), rhs)
    slices[0], slices[1] = v0, v0 + tau * dt0
    for m in range(1, mesh.M):
        rhs = a ** 2 * stencil("laplacian", slices[m], mesh)
        if fh is not None:
            rhs = rhs + fh[m]
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


@pytest.mark.parametrize("bad", ["v0", "u1h", "fh"])
def test_evolve_grid_refuses_non_finite_input(bad):
    inputs = {"v0": MESH.zeros(), "u1h": MESH.zeros(), "fh": np.zeros((MESH.M, MESH.N + 1))}
    inputs[bad].flat[MESH.N // 2] = np.nan if bad == "u1h" else np.inf
    with pytest.raises(ConfigurationError, match=f"^{bad} has values that are not finite"):
        evolve_grid(MESH, **inputs)


@pytest.mark.parametrize("rows", [3, 40])
def test_evolve_grid_checks_the_fh_shape(rows):
    # too few forcing levels failed mid-run; too many were silently dropped
    mesh = build_mesh(math.pi, math.pi, 8, 16)
    with pytest.raises(ContractViolation,
                       match=rf"^fh must have shape \(16, 9\), got \({rows}, 9\)"):
        evolve_grid(mesh, mesh.zeros(), mesh.zeros(), np.zeros((rows, mesh.N + 1)))


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
        evolve_grid(mesh, _harmonic_shape(mesh, 2), mesh.zeros(),
                    np.zeros((mesh.M, mesh.N + 1)))
        counts.append(len(calls))
    assert counts[0] == counts[1] <= 3


# --------------------------------------------------------------------------
# stacks: B data sets stepped as the columns of one run

def _random_grid_data(mesh, rng, forced=True):
    """Random (v0, u1h, fh) grid data with zero ends; fh None unless forced."""
    v0, u1h = mesh.zeros(), mesh.zeros()
    fh = np.zeros((mesh.M, mesh.N + 1)) if forced else None
    for w in (v0, u1h) + (() if fh is None else (fh.T,)):
        w[1:-1] = rng.standard_normal(w[1:-1].shape)
    return v0, u1h, fh


def _stacked(mesh, sets):
    """The stack of the grid data sets; unforced sets get zero fh rows."""
    fh = np.zeros((len(sets), mesh.M, mesh.N + 1))
    for b, (_, _, f) in enumerate(sets):
        if f is not None:
            fh[b] = f
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
    run = evolve_grid(mesh, v0[None], u1h[None], fh[None])
    single = evolve_grid(mesh, v0, u1h, fh)
    assert run.slices.shape == (1, mesh.M + 1, mesh.N + 1)
    assert run.residual_max.shape == (1, mesh.M)
    assert np.array_equal(run.slices[0], single.slices)
    assert np.array_equal(run.residual_max[0], single.residual_max)


def _stack_of_three(mesh=MESH):
    """Three forced random data sets as one stack, writable."""
    rng = np.random.default_rng(11)
    return dict(zip(("v0", "u1h", "fh"), _stacked(
        mesh, [_random_grid_data(mesh, rng) for _ in range(3)])))


@pytest.mark.parametrize("bad", ["v0", "u1h", "fh"])
def test_a_stack_names_the_column_that_does_not_vanish_at_the_ends(bad):
    inputs = _stack_of_three()
    if bad == "fh":
        inputs[bad][1, MESH.M // 2, 0] = 1.0  # one forcing level with a non-zero end
    else:
        inputs[bad][1, -1] = 1.0
    with pytest.raises(ContractViolation,
                       match=f"^{bad} column 1 .*must vanish at the boundary"):
        evolve_grid(MESH, **inputs)


@pytest.mark.parametrize("bad", ["v0", "u1h", "fh"])
def test_a_stack_names_the_column_that_is_not_finite(bad):
    inputs = _stack_of_three()
    inputs[bad][1].flat[MESH.N // 2] = np.nan if bad == "u1h" else np.inf
    with pytest.raises(ConfigurationError,
                       match=f"^{bad} column 1 has values that are not finite"):
        evolve_grid(MESH, **inputs)


def test_a_stack_checks_its_shapes():
    inputs = _stack_of_three()
    with pytest.raises(ContractViolation, match=r"^u1h must have shape \(3, 17\), got \(2, 17\)"):
        evolve_grid(MESH, inputs["v0"], inputs["u1h"][:2], inputs["fh"])
    with pytest.raises(ContractViolation, match=r"^fh must have shape \(3, 64, 17\)"):
        evolve_grid(MESH, inputs["v0"], inputs["u1h"], inputs["fh"][0])
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
    inputs["fh"][0] *= 1e6
    _poison_solve(monkeypatch, 5, index=(2, 1), shift=1e-8)
    with pytest.raises(InvariantError, match=r"of the step to level 5 in column 1 on "):
        evolve_grid(MESH, **inputs)


# --------------------------------------------------------------------------
# measured runs: stepped and measured block by block, no stored trajectory

def _random_reference(mesh, rng):
    """A Reference of random node values and hat averages, for data that has
    no exact reference."""
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


def test_a_measured_run_takes_one_data_set_and_checks_it():
    # evolve_grid's entry checks, one data set and not a stack, a known mode
    # and a stable mesh
    v0, u1h, fh = _random_grid_data(MESH, np.random.default_rng(3))
    reference = _random_reference(MESH, np.random.default_rng(4))
    with pytest.raises(ContractViolation, match=r"^v0 must have shape \(17,\), got \(1, 17\)"):
        evolve_measured(MESH, v0[None], u1h, fh, reference)
    bad = fh.copy()
    bad[3, 0] = 1.0
    with pytest.raises(ContractViolation, match=r"^fh \(row 3\) must vanish"):
        evolve_measured(MESH, v0, u1h, bad, reference)
    with pytest.raises(ContractViolation, match="unknown error mode"):
        evolve_measured(MESH, v0, u1h, fh, reference, "energy")
    unstable = build_mesh(1.0, 1.0, 10, 10)
    with pytest.raises(UnstableMeshError):
        evolve_measured(unstable, unstable.zeros(), unstable.zeros(), None, reference)


class _RecordingReference:
    """A stored reference that records the levels it serves."""

    def __init__(self, values):
        self._reference = _stored_reference(values)
        self.served = []

    def values(self, levels):
        self.served.append((levels.start, levels.stop))
        return self._reference.values(levels)


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
