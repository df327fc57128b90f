"""The time integrator: defining equations, stability, superposition, errors."""

import math

import numpy as np
import pytest

from wavecompact.data import DataSpec, Forcing, Profile, TimeProfile
from wavecompact.errors import ContractViolation, InvariantError, UnstableMeshError
from wavecompact.grid import build_mesh, energy_norm_pair, space_norm
from wavecompact.operators import apply_implicit, stencil
from wavecompact.oracle import HarmonicData, dispersion, harmonic_dataspec
from wavecompact.reference import GridReference, HarmonicReference
from wavecompact.scheme import _step_residual, evolve, evolve_grid, measure_error

MESH = build_mesh(math.pi, math.pi, 16, 64)


def _zero_data(X=math.pi):
    return DataSpec(u0=Profile.zero(X), u1=Profile.zero(X))


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


def test_evolve_v0_mode_switch():
    kind = HarmonicData(j=0, k=2)
    data = harmonic_dataspec(kind, MESH)
    samples = evolve(MESH, data, v0_mode="node_samples")
    averaged = evolve(MESH, data, v0_mode="qh_average")
    fac = (math.sin(2 * MESH.h / 2) / (2 * MESH.h / 2)) ** 2
    np.testing.assert_allclose(averaged.slices[0],
                               fac * samples.slices[0],
                               rtol=1e-12, atol=1e-14)
    with pytest.raises(ContractViolation):
        evolve(MESH, data, v0_mode="nearest")


def test_error_report_self_reference_is_zero():
    kind = HarmonicData(j=1, k=2)
    run = evolve(MESH, harmonic_dataspec(kind, MESH))
    ref = GridReference(MESH, run.slices.copy())
    rep = measure_error(MESH, run.slices, ref, mode="node_sampled")
    assert rep.max_energy_error == pytest.approx(0.0, abs=1e-13)
    assert rep.max_dx_error == pytest.approx(0.0, abs=1e-13)
    assert rep.l1_spacetime_error == pytest.approx(0.0, abs=1e-13)
    assert rep.l1_spacetime_dx_error == pytest.approx(0.0, abs=1e-13)


# M = 16 fits in one block of measure_error; M = 150 spans three blocks, the
# last one partial, so the pair norms cross two seams
SEAM_MESHES = pytest.mark.parametrize("m_levels", [16, 150], ids=["one_block", "three_blocks"])


@SEAM_MESHES
def test_error_report_brute_force_norms(m_levels):
    # all four fields recomputed with plain loops on a tiny run
    mesh = build_mesh(math.pi, math.pi, 8, m_levels)
    kind = HarmonicData(j=0, k=2)
    run = evolve(mesh, harmonic_dataspec(kind, mesh))
    ref = HarmonicReference(mesh, kind)
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
    run = evolve(mesh, harmonic_dataspec(kind, mesh))
    ref = HarmonicReference(mesh, kind)
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
    from wavecompact.scheme import _BLOCK_LEVELS
    mesh = build_mesh(math.pi, math.pi, 8, 3 * _BLOCK_LEVELS)
    run = evolve(mesh, _zero_data())
    w = mesh.zeros()
    w[1:-1] = np.random.default_rng(2).standard_normal(mesh.N - 1)
    exact = run.slices.copy()
    exact[_BLOCK_LEVELS] += w
    exact[_BLOCK_LEVELS + 1] -= w
    rep = measure_error(mesh, run.slices, GridReference(mesh, exact))
    assert rep.max_energy_error == energy_norm_pair(w, -w, mesh)
    assert rep.max_energy_error > energy_norm_pair(mesh.zeros(), w, mesh)


def test_smooth_manufactured_solution_fourth_order():
    # u = sin t sin x (data j=1, k=1): energy-norm order ~ 4 across a short ladder
    errors = []
    hs = []
    for n in (8, 16, 32):
        mesh = build_mesh(math.pi, math.pi, n, 2 * n)
        kind = HarmonicData(j=1, k=1)
        run = evolve(mesh, harmonic_dataspec(kind, mesh))
        rep = measure_error(mesh, run.slices, HarmonicReference(mesh, kind))
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
    from wavecompact.experiments import random_dataspec
    from wavecompact.scheme import RESIDUAL_RTOL, prepare_inputs
    mesh = build_mesh(math.pi, math.pi, 32, 64)
    data = random_dataspec(np.random.default_rng(1), mesh.X)
    assert data.f is not None
    run = evolve(mesh, data)
    grid = evolve_grid(mesh, *prepare_inputs(mesh, data, "v2", "node_samples"))
    assert np.array_equal(run.slices, grid.slices)
    assert np.array_equal(run.residual_max, grid.residual_max)
    assert run.slices.shape == (mesh.M + 1, mesh.N + 1)
    assert np.all(run.slices[:, [0, -1]] == 0.0)
    assert run.residual_max.shape == (mesh.M,)
    assert np.all(run.residual_max <= RESIDUAL_RTOL)


def test_step_residual_rejects_nan():
    rhs = np.linspace(0.0, 1.0, MESH.N + 1)
    assert _step_residual(rhs.copy(), rhs) == 0.0
    lhs = rhs.copy()
    lhs[3] = np.nan
    with pytest.raises(InvariantError):
        _step_residual(lhs, rhs)
