"""Order fitting, presets, data norms, stability sides, runner behavior."""

import csv
import json
import math
import re

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly
from scipy.integrate import quad

from wavecompact.config import config_from_dict
from wavecompact.data import (PRESETS, Forcing, Profile, TimeProfile, forcing_l21_norm,
                              hat_profile, profile_h01_norm, profile_l2_norm,
                              quad_spline_profile, step_profile, time_l1_norm)
from wavecompact.errors import ConfigurationError, ContractViolation
from wavecompact.experiments import (energy_lower_bound_margins, fit_order,
                                     random_dataspec, run_convergence,
                                     run_oracle_check, run_sharpness, run_solve,
                                     run_stability_probe, stability_bound_sides)
from wavecompact.grid import build_mesh, energy_norm_pair, space_norm
from wavecompact.scheme import evolve_grid, stack_inputs

from _harmonic import discrete_harmonic_trajectory
from _sine_analysis import sine_coefficients


# --------------------------------------------------------------------------
# fit_order

def test_fit_order_exact_powers():
    assert fit_order([(1.0, 1.0), (0.5, 0.0625)]).slope == pytest.approx(4.0, abs=1e-12)
    assert fit_order([(1.0, 1.0), (0.5, 2 ** -0.4)]).slope == pytest.approx(0.4, abs=1e-12)


def test_fit_order_synthetic_sequence():
    hs = np.array([1.0, 0.5, 0.25, 0.125, 0.0625])
    errs = hs ** 3.25
    fit = fit_order(zip(hs, errs))
    assert fit.slope == pytest.approx(3.25, abs=1e-12)
    assert fit.residual < 1e-12


def test_fit_order_noisy_sequence():
    hs = np.array([1.0, 0.5, 0.25, 0.125, 0.0625, 0.03125])
    noise = 1.0 + 0.01 * np.array([1, -1, 1, -1, 1, -1])
    errs = hs ** 1.2 * noise
    assert fit_order(zip(hs, errs)).slope == pytest.approx(1.2, abs=0.05)


def test_fit_order_contract():
    with pytest.raises(ContractViolation):
        fit_order([(1.0, 1.0)])
    with pytest.raises(ContractViolation):
        fit_order([(1.0, 1.0), (0.5, -1.0)])
    with pytest.raises(ContractViolation):
        fit_order([(1.0, 1.0), (1.0, 2.0)])


# --------------------------------------------------------------------------
# presets

def test_preset_coefficient_decay_classes():
    # u0 ~ k^-2 (hat), u1 ~ k^-1 (step) on the rough preset
    X = math.pi
    c_hat = sine_coefficients(hat_profile(X), 64)
    c_step = sine_coefficients(step_profile(X), 64)
    k = np.arange(1, 65)
    nz_hat = np.abs(c_hat) > 1e-12
    nz_step = np.abs(c_step) > 1e-12
    r_hat = np.abs(c_hat[nz_hat]) * k[nz_hat] ** 2
    r_step = np.abs(c_step[nz_step]) * k[nz_step]
    assert r_hat.max() / r_hat.min() < 1.01  # clean Theta(k^-2)
    assert r_step.max() / r_step.min() < 1.01  # Theta(k^-1) on its support
    # quadratic spline decays one order faster than the hat
    c_q = sine_coefficients(quad_spline_profile(X), 64)
    nz_q = np.abs(c_q) > 1e-14
    r_q = np.abs(c_q[nz_q]) * k[nz_q] ** 3
    assert r_q.max() / r_q.min() < 1.01


def test_preset_profiles_shape():
    X = math.pi
    hat = hat_profile(X)
    assert hat(np.array([X / 2]))[0] == pytest.approx(1.0)
    assert hat(np.array([0.0]))[0] == 0.0
    q = quad_spline_profile(X)
    assert q(np.array([0.0]))[0] == pytest.approx(0.0, abs=1e-15)
    assert q(np.array([X]))[0] == pytest.approx(0.0, abs=1e-14)
    # derivative kink at the midpoint: one-sided slopes differ
    eps = 1e-7
    left = (q(np.array([X / 2]))[0] - q(np.array([X / 2 - eps]))[0]) / eps
    right = (q(np.array([X / 2 + eps]))[0] - q(np.array([X / 2]))[0]) / eps
    assert left == pytest.approx(right, abs=1e-5)  # C^1: slopes agree
    # but curvature jumps: second differences differ in sign
    dd_left = q(np.array([X / 2 - 2 * eps]))[0] - 2 * q(np.array([X / 2 - eps]))[0] \
        + q(np.array([X / 2]))[0]
    dd_right = q(np.array([X / 2]))[0] - 2 * q(np.array([X / 2 + eps]))[0] \
        + q(np.array([X / 2 + 2 * eps]))[0]
    assert dd_left * dd_right < 0
    assert PRESETS["hat_step"].expected_order == pytest.approx(0.4)
    assert PRESETS["quad_spline_hat"].expected_order == pytest.approx(1.2)


# --------------------------------------------------------------------------
# continuous data norms

def test_profile_norms_against_quadrature():
    X = math.pi
    hat = hat_profile(X)
    l2_ref, _ = quad(lambda x: hat(np.array([x]))[0] ** 2, 0, X, points=[X / 2])
    assert profile_l2_norm(hat) == pytest.approx(math.sqrt(l2_ref), rel=1e-10)
    # |hat'| = 2/pi everywhere -> H1 seminorm = sqrt((2/pi)^2 * pi)
    assert profile_h01_norm(hat) == pytest.approx(math.sqrt((2 / X) ** 2 * X), rel=1e-12)
    series = Profile.sine_series((0.7, -0.3), X)
    assert profile_l2_norm(series) == pytest.approx(math.hypot(0.7, 0.3), rel=1e-13)
    assert profile_h01_norm(series) == pytest.approx(
        math.sqrt(0.7 ** 2 + 4 * 0.3 ** 2), rel=1e-13)
    # random piecewise data: the norms of the stability bounds, piece by piece
    rng = np.random.default_rng(7)
    for _ in range(10):
        data = random_dataspec(rng, X)
        checks = [(data.u0, npoly.polyder, profile_h01_norm), (data.u1, None, profile_l2_norm)]
        if data.f is not None:
            checks.append((data.f.space, None, profile_l2_norm))
        for p, derive, norm in checks:
            b = p.breakpoints
            ref = sum(quad(lambda x: npoly.polyval(x, derive(c) if derive else c) ** 2,
                           lo, hi, epsabs=0.0, epsrel=1e-13)[0]
                      for c, lo, hi in zip(p.pieces, b, b[1:]))
            assert norm(p) == pytest.approx(math.sqrt(ref), rel=1e-12)


def test_time_l1_norms():
    g = TimeProfile.polynomial((-0.25, 1.0))  # t - 1/4, sign change at 0.25
    ref, _ = quad(lambda t: abs(t - 0.25), 0.0, 1.0, points=[0.25])
    assert time_l1_norm(g, 1.0) == pytest.approx(ref, rel=1e-13)
    # (t - 0.3)(t - 0.7) with both roots inside, a constant, the zero polynomial,
    # and leading coefficients so small that polyroots overflows
    for coeffs, T, roots in (((0.21, -1.0, 1.0), 1.0, [0.3, 0.7]), ((-2.0,), 1.5, None),
                             ((0.0, 0.0, 0.0), 1.0, None), ((0.0, 4.0, 1e-308), 1.0, None),
                             ((1.0, 1e-311), 1.0, None)):
        ref, _ = quad(lambda t: abs(npoly.polyval(t, coeffs)), 0.0, T, points=roots,
                      epsabs=0.0, epsrel=1e-13)
        assert time_l1_norm(TimeProfile.polynomial(coeffs), T) == pytest.approx(
            ref, rel=1e-12, abs=0.0)
    s = TimeProfile.harmonic_sin(3.0)
    ref2, _ = quad(lambda t: abs(math.sin(3 * t)), 0.0, 2.0,
                   points=[math.pi / 3, 2 * math.pi / 3])
    assert time_l1_norm(s, 2.0) == pytest.approx(ref2, rel=1e-10)


def test_forcing_l21_norm_separable():
    f = Forcing(space=Profile.harmonic_mode(1, math.pi),
                time=TimeProfile.polynomial((1.0,)))
    assert forcing_l21_norm(f, 2.0) == pytest.approx(math.sqrt(math.pi / 2) * 2.0,
                                                     rel=1e-12)


# --------------------------------------------------------------------------
# stability sides

def test_stability_bounds_randomized_small():
    rng = np.random.default_rng(42)
    mesh = build_mesh(math.pi, math.pi, 16, 32)
    datas = [random_dataspec(rng, math.pi) for _ in range(5)]
    for (lhs, rhs), (lhs2, rhs2) in stability_bound_sides(mesh, datas):
        assert lhs <= rhs * (1 + 1e-11)
        assert lhs2 <= rhs2 * (1 + 1e-11)


_COURANT_EDGE = {"X": math.pi, "T": math.pi / 2.3, "a": 2.3, "eps0": 0.3}


@pytest.mark.parametrize("mesh", [
    build_mesh(math.pi, math.pi, 16, 32),
    *(build_mesh(N=n, M=m, **_COURANT_EDGE) for n, m in ((16, 17), (32, 33), (64, 66)))],
    ids=["N16_M32", "courant_edge_N16", "courant_edge_N32", "courant_edge_N64"])
def test_stability_bound_lhs_are_the_norms_of_the_stored_levels(mesh):
    # the probe's 20 random data sets, stepped and stored by evolve_grid: the
    # energy bound's LHS is the largest energy_norm_pair of the levels, the
    # data-norm bound's eps0 max(max ||dt v||_mass, a/sqrt(6) max ||dx v||)
    # with the three-point mass form, each within 1e-13 relative
    rng = np.random.default_rng(0)
    datas = [random_dataspec(rng, mesh.X) for _ in range(20)]
    run = evolve_grid(mesh, *stack_inputs(mesh, [(data, "v2") for data in datas]))
    for ((lhs, _), (lhs2, _)), v in zip(stability_bound_sides(mesh, datas), run.slices,
                                        strict=True):
        dt = space_norm((v[1:] - v[:-1]) / mesh.tau, "mass", mesh).max()
        dx = space_norm(v, "diff_l2", mesh).max()
        assert lhs == pytest.approx(energy_norm_pair(v[:-1], v[1:], mesh).max(), rel=1e-13, abs=0)
        assert lhs2 == pytest.approx(mesh.eps0 * max(dt, mesh.a / math.sqrt(6.0) * dx),
                                     rel=1e-13, abs=0)


def test_lower_bound_margins_nonnegative():
    rng = np.random.default_rng(43)
    mesh = build_mesh(math.pi, math.pi, 24, 48, eps0=0.7)
    for _ in range(30):
        vp, vc = mesh.zeros(), mesh.zeros()
        vp[1:-1] = rng.standard_normal(mesh.N - 1)
        vc[1:-1] = rng.standard_normal(mesh.N - 1)
        m1, m2 = energy_lower_bound_margins(mesh, vp, vc)
        assert m1 >= -1e-11
        assert m2 >= -1e-11


# --------------------------------------------------------------------------
# runners

def _base_mesh_cfg(n=16, refinements=0, **kw):
    cfg = {"X": math.pi, "T": math.pi, "N": n, "M": 2 * n,
           "refinements": refinements}
    cfg.update(kw)
    return cfg


def test_run_solve_zero_data(tmp_path):
    cfg = config_from_dict({
        "kind": "solve",
        "mesh": _base_mesh_cfg(8),
        "data": None,
        "out_dir": str(tmp_path),
    })
    result = run_solve(cfg)
    with np.load(tmp_path / "trajectory.npz") as payload:
        assert np.all(payload["v"] == 0.0)
    assert (tmp_path / "trajectory.csv").exists()
    assert (tmp_path / "run_summary.json").exists()
    # zero data also has zero error norms against the (zero) exact solution
    assert result.report is not None
    assert result.report.max_energy_error == 0.0
    assert result.report.l1_spacetime_error == 0.0


def test_run_solve_golden_error_report(tmp_path):
    # d^(1), k=1, N=32, M=128: errors must match a report regenerated from the
    # closed-form discrete solution and the exact solution
    from wavecompact.oracle import HarmonicData, harmonic_dataspec
    from wavecompact.reference import dalembert_reference
    from wavecompact.scheme import measure_error

    cfg = config_from_dict({
        "kind": "solve",
        "mesh": {"X": math.pi, "T": math.pi, "N": 32, "M": 128},
        "data": {"harmonic": {"j": 1, "k": 1}},
        "out_dir": str(tmp_path),
    })
    result = run_solve(cfg)
    assert result.report is not None

    mesh = cfg.rungs[0]
    kind = HarmonicData(j=1, k=1)
    golden_slices = discrete_harmonic_trajectory(kind, mesh, "v2")
    golden = measure_error(mesh, golden_slices,
                           dalembert_reference(mesh, harmonic_dataspec(kind, mesh)))
    assert result.report.max_energy_error == pytest.approx(
        golden.max_energy_error, rel=1e-9)
    assert result.report.l1_spacetime_error == pytest.approx(
        golden.l1_spacetime_error, rel=1e-9)
    stored = json.loads((tmp_path / "error_report.json").read_text())
    assert stored["max_energy_error"] == pytest.approx(golden.max_energy_error,
                                                       rel=1e-9)


def test_run_convergence_smooth_csv_schema(tmp_path):
    cfg = config_from_dict({
        "kind": "converge",
        "mesh": _base_mesh_cfg(8, refinements=2),
        "data": {"harmonic": {"j": 1, "k": 1}},
        "out_dir": str(tmp_path),
    })
    result = run_convergence(cfg)
    assert result.fitted_order == pytest.approx(4.0, abs=0.45)
    lines = (tmp_path / "converge.csv").read_text().strip().splitlines()
    assert lines[0] == "N,M,h,tau,err_energy,err_dx,err_l1,order_energy"
    assert len(lines) == 4
    # h halves down the ladder exactly
    hs = [float(line.split(",")[2]) for line in lines[1:]]
    assert hs[0] / hs[1] == pytest.approx(2.0, rel=1e-15)
    assert hs[1] / hs[2] == pytest.approx(2.0, rel=1e-15)
    summary = json.loads((tmp_path / "run_summary.json").read_text())
    assert "fitted_order" in summary and "versions" in summary


def test_rough_rate_holds_on_a_per_level_mesh():
    # acceptance 3's hat_step rate at T = 2.5, where a tau / h = 1.25 / pi is
    # no lattice ratio and the reference takes its hat averages level by level
    cfg = config_from_dict({"kind": "converge",
                            "mesh": {"X": math.pi, "T": 2.5, "N": 64, "M": 128,
                                     "refinements": 3},
                            "data": {"preset": "hat_step"}, "mode": "q2h_filtered",
                            "fit_drop_coarsest": 0})
    assert abs(run_convergence(cfg, emit=False).fitted_order - 0.4) <= 0.1


@pytest.mark.parametrize("courant, factor, eps0", [(0.25, 4.0, 1.0), (0.8, 1.25, 0.5)])
def test_rough_rate_holds_at_other_courant_numbers(courant, factor, eps0):
    # acceptance 3's hat_step rate at a tau / h = 0.25 (M = 4N) and 0.8
    # (M = 1.25N, stable for eps0 = 0.5): q = 4 and q = 5 lattices
    rungs = [[n, int(factor * n)] for n in (64, 128, 256, 512)]
    assert all(n / m == courant for n, m in rungs)
    cfg = config_from_dict({"kind": "converge",
                            "mesh": {"X": math.pi, "T": math.pi, "eps0": eps0, "rungs": rungs},
                            "data": {"preset": "hat_step"}, "mode": "q2h_filtered",
                            "fit_drop_coarsest": 0})
    assert abs(run_convergence(cfg, emit=False).fitted_order - 0.4) <= 0.1


@pytest.mark.parametrize("j", [0, 1, 2])
def test_dx_ratio_is_the_ratio_times_the_difference_symbol(j):
    # the l = 1 ratio is the l = 0 ratio times the backward difference's
    # symbol sin(k_h h/2) / (k_h h/2), whose defect is about (k_h h)^2 / 24
    cfg = config_from_dict({"kind": "sharpness",
                            "mesh": {"X": math.pi, "T": math.pi, "N": 2048, "M": 4096},
                            "data": {"harmonic": {"j": j}}, "alpha": 2.0})
    result = run_sharpness(cfg, emit=False)
    (row,), (row_dx,) = result.rows, result.rows_dx
    half = 0.5 * row.k_h * cfg.rungs[0].h
    assert abs(row_dx.ratio / row.ratio / (math.sin(half) / half) - 1.0) < 1e-5


def test_run_convergence_requires_three_rungs():
    with pytest.raises(ConfigurationError):
        config_from_dict({
            "kind": "converge",
            "mesh": _base_mesh_cfg(8, refinements=1),
            "data": {"harmonic": {"j": 1, "k": 1}},
        })


def test_run_oracle_check_pass_and_resonance_rejection(tmp_path):
    cfg = config_from_dict({
        "kind": "oracle_check",
        "mesh": _base_mesh_cfg(16),
        "data": {"harmonic": {"j": 0, "k": 3}},
        "variant": "all",
        "out_dir": str(tmp_path),
    })
    rows = run_oracle_check(cfg)
    assert len(rows) == 3  # all three variants
    assert all(r.passed for r in rows)
    lines = (tmp_path / "oracle_check.csv").read_text().strip().splitlines()
    assert lines[0] == "N,M,variant,deviation,passed"
    assert [line.split(",")[2] for line in lines[1:]] == ["v0", "v1", "v2"]
    with pytest.raises(ConfigurationError):
        config_from_dict({
            "kind": "oracle_check",
            "mesh": _base_mesh_cfg(16),
            "data": {"harmonic": {"j": 2, "k": 1}},
        })


def test_run_sharpness_small(tmp_path):
    cfg = config_from_dict({
        "kind": "sharpness",
        "mesh": {"X": math.pi, "T": math.pi, "N": 64, "M": 128, "refinements": 1},
        "data": {"harmonic": {"j": 0}},
        "alpha": 2.0,
        "out_dir": str(tmp_path),
    })
    result = run_sharpness(cfg)
    assert len(result.rows) == 2
    for row in result.rows:
        assert 0.5 < row.ratio < 1.5
    lines = (tmp_path / "sharpness.csv").read_text().strip().splitlines()
    assert lines[0] == "N,k_h,measured,predicted,ratio"
    assert (tmp_path / "sharpness_dx.csv").exists()


def test_run_stability_probe_no_violations(tmp_path):
    cfg = config_from_dict({
        "kind": "stability_probe",
        "mesh": _base_mesh_cfg(16),
        "n_random": 3,
        "n_pairs": 10,
        "out_dir": str(tmp_path),
        "seed": 7,  # draws forcing, so the data-norm bound adds ||f||_L21
    })
    rows = run_stability_probe(cfg)
    assert all(r.passed for r in rows)
    with (tmp_path / "stability.csv").open(newline="") as fh:
        assert fh.readline().strip() == "N,M,check,lhs,rhs,margin,passed"
        fh.seek(0)
        written = list(csv.DictReader(fh))
    assert len(written) == len(rows)
    for row, back in zip(rows, written):
        # plain float reprs: every number parses with float() and round-trips,
        # and passed is the literal True or False, never a numpy scalar's repr
        assert [float(back[k]) for k in ("lhs", "rhs", "margin")] == [
            row.lhs, row.rhs, row.margin]
        assert back["passed"] == ("True" if row.passed else "False")


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_stability_probe_holds_at_the_courant_edge(seed):
    # eps0 = 0.3, a = 2.3, T = pi / a and M = ceil(N / sqrt(1 - eps0^2 / 2)):
    # a tau / h = N / M just inside the stability condition; no inequality fails
    a, eps0 = 2.3, 0.3
    rungs = [[n, math.ceil(n / math.sqrt(1.0 - eps0 ** 2 / 2.0))] for n in (16, 32, 64)]
    assert rungs == [[16, 17], [32, 33], [64, 66]]
    cfg = config_from_dict({
        "kind": "stability_probe",
        "mesh": {"X": math.pi, "T": math.pi / a, "a": a, "eps0": eps0, "rungs": rungs},
        "n_random": 20,
        "seed": seed,
    })
    rows = run_stability_probe(cfg, emit=False)
    assert len(rows) == len(rungs) * 2 * (cfg.n_random + cfg.n_pairs)
    assert [r for r in rows if not r.passed] == []


def test_stability_probe_steps_each_data_set_once(monkeypatch):
    # both bounds of a random data set read one run: each mesh makes one
    # scheme._march call, whose columns are its n_random data sets, and none
    # for the lower-bound pairs
    import wavecompact.scheme as scheme
    calls = []
    march = scheme._march

    def counting(mesh, v0, *args):
        calls.append((mesh, len(v0)))
        return march(mesh, v0, *args)

    monkeypatch.setattr(scheme, "_march", counting)
    cfg = config_from_dict({
        "kind": "stability_probe",
        "mesh": _base_mesh_cfg(8, refinements=1),
        "n_random": 3,
        "n_pairs": 4,
        "seed": 7,
    })
    rows = run_stability_probe(cfg, emit=False)
    assert all(r.passed for r in rows)
    assert calls == [(mesh, cfg.n_random) for mesh in cfg.rungs]


def test_stability_probe_rows_are_the_sides_of_each_data_set_alone(tmp_path):
    # stepping a mesh's data sets as one stack changes no row: the probe's
    # rows are those of stability_bound_sides on each data set alone, drawn in
    # the probe's order (a mesh's data sets, then its pairs)
    cfg = config_from_dict({
        "kind": "stability_probe",
        "mesh": _base_mesh_cfg(8, refinements=1),
        "n_random": 6,
        "n_pairs": 4,
        "seed": 5,
        "out_dir": str(tmp_path),
    })
    rows = run_stability_probe(cfg)
    rng = np.random.default_rng(cfg.seed)
    expected = []
    for mesh in cfg.rungs:
        datas = [random_dataspec(rng, mesh.X) for _ in range(cfg.n_random)]
        rng.standard_normal((cfg.n_pairs, 2, mesh.N - 1))
        assert {d.f is None for d in datas} == {True, False}  # forced and unforced mixed
        for data in datas:
            [sides] = stability_bound_sides(mesh, [data])
            expected += [(mesh.N, check, lhs, rhs)
                         for check, (lhs, rhs) in zip(("energy_bound", "data_norm_bound"), sides)]
    got = [(r.N, r.check, r.lhs, r.rhs) for r in rows if not r.check.startswith("lower")]
    assert got == expected
    # the run summary has one row per mesh: its run's size, time and residual
    summary = json.loads((tmp_path / "run_summary.json").read_text())
    assert [(r["N"], r["M"], r["columns"]) for r in summary["rungs"]] == [
        (mesh.N, mesh.M, cfg.n_random) for mesh in cfg.rungs]
    assert all(r["step_measure_s"] > 0 and 0 <= r["residual_max"] <= 1e-11
               for r in summary["rungs"])


def test_stability_probe_assembles_and_bounds_each_mesh_in_a_fixed_number_of_calls(
        tmp_path, monkeypatch):
    # the data sets of a mesh are one stack: its hat-average calls do not grow
    # with n_random (at seed 2 every mesh has forced data sets), and the run
    # summary times assembly, stepping and bounds
    import wavecompact.data as data_mod
    import wavecompact.experiments as experiments_mod
    calls, per_rung = [], []

    def counting(*args, averages=data_mod._hat_averages):
        calls.append(args)
        return averages(*args)

    def rung(mesh, datas, run=experiments_mod._stability_rung):
        before = len(calls)
        out = run(mesh, datas)
        per_rung.append((len(datas), mesh.N, len(calls) - before))
        return out
    monkeypatch.setattr(data_mod, "_hat_averages", counting)
    monkeypatch.setattr(experiments_mod, "_stability_rung", rung)
    for n_random in (3, 30):
        cfg = config_from_dict({"kind": "stability_probe",
                                "mesh": _base_mesh_cfg(8, refinements=1),
                                "n_random": n_random, "n_pairs": 2, "seed": 2,
                                "out_dir": str(tmp_path / str(n_random))})
        run_stability_probe(cfg)
        summary = json.loads((cfg.out_dir / "run_summary.json").read_text())
        for r in summary["rungs"]:
            assert r["assemble_s"] >= 0 and r["bounds_s"] >= 0
            assert (r["assemble_s"] + r["step_measure_s"] + r["bounds_s"]
                    <= summary["wall_time_s"])
    few, many = [[count for n, _, count in per_rung if n == size] for size in (3, 30)]
    assert few == many and max(few) <= 8


_RUNNER_CONFIGS = {
    run_convergence: {"kind": "converge", "mesh": _base_mesh_cfg(8, refinements=2),
                      "data": {"preset": "hat_step"}},
    run_solve: {"kind": "solve", "mesh": _base_mesh_cfg(8), "data": {"preset": "hat_step"}},
    run_sharpness: {"kind": "sharpness", "mesh": _base_mesh_cfg(64),
                    "data": {"harmonic": {"j": 0}}},
    run_oracle_check: {"kind": "oracle_check", "mesh": _base_mesh_cfg(8),
                       "data": {"harmonic": {"j": 1, "k": 1}}},
    run_stability_probe: {"kind": "stability_probe", "mesh": _base_mesh_cfg(8), "data": None,
                          "n_random": 2, "n_pairs": 2},
}


@pytest.mark.parametrize("runner", list(_RUNNER_CONFIGS), ids=lambda r: r.__name__)
def test_runners_refuse_an_out_dir_that_is_a_file_before_any_rung(tmp_path, monkeypatch,
                                                                   runner):
    # writing would fail only after the last rung: the runner refuses first,
    # naming the out_dir, and steps nothing; without emit it is never read
    import wavecompact.scheme as scheme
    taken = tmp_path / "taken"
    taken.write_text("kept")
    config = config_from_dict({**_RUNNER_CONFIGS[runner], "out_dir": str(taken / "out")})
    stepped, march = [], scheme._march

    def counting(mesh, *args):
        stepped.append(mesh.N)
        return march(mesh, *args)

    monkeypatch.setattr(scheme, "_march", counting)
    with pytest.raises(ConfigurationError,
                       match=f"^out_dir {re.escape(repr(str(taken / 'out')))} is a file or "
                             "inside one$"):
        runner(config)
    assert not stepped and taken.read_text() == "kept"
    runner(config, emit=False)
    assert stepped


@pytest.mark.parametrize("j", [1, 2])
def test_oracle_check_steps_the_variants_as_one_run(monkeypatch, j):
    # with variant all, each mesh makes one stepping run whose three columns
    # share v0 and fh; u1 (j = 1) tells the columns apart
    import wavecompact.scheme as scheme
    calls = []
    march = scheme._march

    def counting(mesh, v0, u1h, fh, *args):
        calls.append((mesh.N, v0.shape, u1h.shape,
                      None if fh is None else (fh.time.shape, fh.space.shape)))
        return march(mesh, v0, u1h, fh, *args)

    monkeypatch.setattr(scheme, "_march", counting)
    cfg = config_from_dict({
        "kind": "oracle_check",
        "mesh": _base_mesh_cfg(8, refinements=1),
        "data": {"harmonic": {"j": j, "k": 3}},
        "variant": "all",
    })
    rows = run_oracle_check(cfg, emit=False)
    assert [r.variant for r in rows] == ["v0", "v1", "v2"] * 2 and all(r.passed for r in rows)
    assert calls == [(m.N, (3, m.N + 1), (3, m.N + 1),
                      ((3, m.M), (3, m.N + 1)) if j == 2 else None) for m in cfg.rungs]


def test_oracle_check_fails_only_the_rung_of_a_perturbed_last_block(monkeypatch, tmp_path):
    # the M = 37 rung steps blocks of 16, 16 and 5 steps: its last 5 levels
    # shifted by 1e-6 fail that rung's rows alone, and the summary has a row
    # per rung
    import wavecompact.scheme as scheme
    march = scheme._march

    def perturbed(mesh, *args):
        for first, levels in march(mesh, *args):
            if mesh.M == 37 and first == 32:
                assert levels.shape[1] == 6
                levels = levels.copy()
                levels[:, 1:] += 1e-6
            yield first, levels

    monkeypatch.setattr(scheme, "_march", perturbed)
    cfg = config_from_dict({
        "kind": "oracle_check",
        "mesh": {"X": math.pi, "T": math.pi, "rungs": [[16, 37], [16, 40]]},
        "data": {"preset": "hat_step"}, "variant": "all", "out_dir": str(tmp_path)})
    rows = run_oracle_check(cfg)
    assert [(r.M, r.passed) for r in rows] == [(37, False)] * 3 + [(40, True)] * 3
    assert all(1e-7 < r.deviation < 1e-5 for r in rows[:3])
    rungs = json.loads((tmp_path / "run_summary.json").read_text())["rungs"]
    assert [sorted(r) for r in rungs] == [["M", "N", "columns", "residual_max",
                                           "step_check_s"]] * 2
    assert [(r["N"], r["M"], r["columns"]) for r in rungs] == [(16, 37, 3), (16, 40, 3)]
    assert all(r["step_check_s"] > 0 and 0 <= r["residual_max"] < 1e-11 for r in rungs)


@pytest.mark.parametrize("j", [0, 2])
def test_oracle_check_of_all_variants_writes_the_rows_of_each_variant_alone(tmp_path, j):
    # stepping the variants as the columns of one run changes no bit of a row:
    # the rows of variant all are those of the three single-variant runs
    def csv_rows(variant):
        cfg = config_from_dict({
            "kind": "oracle_check", "mesh": _base_mesh_cfg(8, refinements=1),
            "data": {"harmonic": {"j": j, "k": 3}}, "variant": variant,
            "out_dir": str(tmp_path / variant)})
        run_oracle_check(cfg)
        return (tmp_path / variant / "oracle_check.csv").read_text().splitlines()

    alone = {v: csv_rows(v) for v in ("v0", "v1", "v2")}
    header, *rows = csv_rows("all")
    assert header == alone["v0"][0] and len(rows) == 6
    assert rows == [alone[v][1 + i] for i in range(2) for v in ("v0", "v1", "v2")]


def test_sharpness_measurement_oracle_self_consistency():
    # replacing the stepper by the closed-form discrete solution changes the
    # measured ratio by less than 1e-8
    from wavecompact.oracle import HarmonicData, choose_k_h
    from wavecompact.reference import dalembert_reference
    from wavecompact.scheme import evolve, measure_error
    from wavecompact.oracle import harmonic_dataspec

    mesh = build_mesh(math.pi, math.pi, 128, 256)
    k = choose_k_h(2.0, mesh)
    kind = HarmonicData(j=0, k=k)
    data = harmonic_dataspec(kind, mesh)
    ref = dalembert_reference(mesh, data)
    run = evolve(mesh, data)
    stepper = measure_error(mesh, run.slices, ref).l1_spacetime_error
    closed = measure_error(mesh, discrete_harmonic_trajectory(kind, mesh, "v2"),
                           ref).l1_spacetime_error
    assert abs(stepper - closed) / closed < 1e-8


def test_random_dataspec_properties():
    rng = np.random.default_rng(0)
    for _ in range(10):
        data = random_dataspec(rng, math.pi)
        assert data.u0(np.array([0.0]))[0] == pytest.approx(0.0, abs=1e-12)
        assert data.u0(np.array([math.pi]))[0] == pytest.approx(0.0, abs=1e-12)
        assert data.X == pytest.approx(math.pi)
        b, pieces = data.u0.breakpoints, data.u0.pieces
        for j in range(1, len(b) - 1):  # continuous at every interior break
            assert npoly.polyval(b[j], pieces[j - 1]) == pytest.approx(
                npoly.polyval(b[j], pieces[j]), abs=1e-12)
        profiles = [data.u0, data.u1] + ([] if data.f is None else [data.f.space])
        assert all(len(c) <= 4 for p in profiles for c in p.pieces)


# --------------------------------------------------------------------------
# measured rungs: converge and sharpness hold O(N) levels per rung

def _rung_configs(n, m):
    mesh = {"X": math.pi, "T": math.pi, "N": n, "M": m, "refinements": 2}
    sharp = config_from_dict({"kind": "sharpness", "mesh": mesh,
                              "data": {"harmonic": {"j": 0}}, "alpha": 2.0})
    conv = config_from_dict({"kind": "converge", "mesh": mesh, "data": {"preset": "hat_step"},
                             "mode": "q2h_filtered", "fit_drop_coarsest": 0})
    return sharp, conv


def test_a_measured_rung_allocates_less_than_half_a_trajectory():
    # the whole rung (data, reference, stepping and measurement) at N = 256,
    # M = 512 peaks below half of the (M+1)(N+1) float64 trajectory it no
    # longer stores
    import tracemalloc

    import wavecompact.experiments as experiments
    for config, rung in zip(_rung_configs(256, 512),
                            (experiments._sharpness_rung, experiments._converge_rung)):
        mesh = config.rungs[0]
        rung(config, mesh)  # the factor caches and lazy imports
        tracemalloc.start()
        try:
            rung(config, mesh)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * (mesh.M + 1) * (mesh.N + 1) * 8, (config.kind, peak)


def _unforced_level_bytes(N, M):
    """The README's count: 69 rows of N+1 floats (ring 18, and 17 each of
    err_buf, diff_buf and energy_buf), 48 of N-1 (sols, rhss, t) and six
    series of M or M+1 (residuals, edge, energy, dx, l1, l1_dx)."""
    return (69 * (N + 1) + 48 * (N - 1) + 6 * M + 3) * 8


def test_measured_rungs_have_summary_rows(tmp_path):
    # one run-summary row per rung: its size, its step-and-measure time, its
    # largest residual and the bytes of the buffers it allocated, O(N + M)
    # where a stored trajectory is O(M N)
    for config in _rung_configs(32, 256):
        config.out_dir = tmp_path / config.kind
        (run_sharpness if config.kind == "sharpness" else run_convergence)(config)
        rows = json.loads((config.out_dir / "run_summary.json").read_text())["rungs"]
        assert [(r["N"], r["M"]) for r in rows] == [(m.N, m.M) for m in config.rungs]
        for r in rows:
            assert r["step_measure_s"] > 0 and 0 <= r["residual_max"] <= 1e-11
            assert r["level_bytes"] == _unforced_level_bytes(r["N"], r["M"])
        assert rows[-1]["level_bytes"] < (rows[-1]["M"] + 1) * (rows[-1]["N"] + 1) * 8 / 5


def test_a_forced_rung_counts_its_forcing_block_and_factors(tmp_path):
    # j = 2 forcing: one 16-row block of forcing levels and the (M,) and
    # (N+1,) factors on top of an unforced rung's buffers
    config = config_from_dict({"kind": "sharpness", "data": {"harmonic": {"j": 2}},
                               "mesh": {"X": math.pi, "T": math.pi, "N": 32, "M": 256,
                                        "refinements": 1}, "out_dir": str(tmp_path)})
    run_sharpness(config)
    rows = json.loads((tmp_path / "run_summary.json").read_text())["rungs"]
    assert [r["level_bytes"] for r in rows] == [
        _unforced_level_bytes(m.N, m.M) + (16 * (m.N + 1) + m.M + m.N + 1) * 8
        for m in config.rungs]


@pytest.mark.parametrize("mode", ["node_sampled", "q2h_filtered"])
@pytest.mark.parametrize("j", [1, 2], ids=["unforced", "forced"])
def test_level_bytes_bounds_the_peak_of_a_measured_run(j, mode):
    # the buffers level_bytes counts are most of what a measured lattice run
    # allocates; the rest is per-block temporaries of the norms and the
    # reference's served blocks
    import tracemalloc

    from wavecompact.oracle import HarmonicData, harmonic_dataspec
    from wavecompact.reference import dalembert_reference
    from wavecompact.scheme import evolve_measured, level_bytes, prepare_inputs
    mesh = build_mesh(math.pi, math.pi, 64, 512)
    data = harmonic_dataspec(HarmonicData(j=j, k=3), mesh)
    inputs, reference = prepare_inputs(mesh, data, "v2"), dalembert_reference(mesh, data)
    evolve_measured(mesh, *inputs, reference, mode)  # the factor caches
    tracemalloc.start()
    try:
        evolve_measured(mesh, *inputs, reference, mode)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    counted = level_bytes(mesh, j == 2)
    assert counted <= peak <= 2 * counted


@pytest.mark.parametrize("j", [1, 2])
@pytest.mark.parametrize("variant", ["v2", "all"])
def test_oracle_check_load_count_is_within_25_percent_of_its_peak(monkeypatch, j, variant):
    # config counts the buffers oracle-check holds at once, stepping and
    # comparing block by block, and names the count when memory is short
    import os
    import re
    import tracemalloc
    raw = {"kind": "oracle_check", "mesh": {"X": math.pi, "T": math.pi, "N": 256, "M": 512},
           "data": {"harmonic": {"j": j, "k": 3}}, "variant": variant}
    cfg = config_from_dict(raw)
    run_oracle_check(cfg, emit=False)  # the factor caches
    tracemalloc.start()
    try:
        run_oracle_check(cfg, emit=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    monkeypatch.setattr(os, "sysconf", lambda name: 1)  # one byte of memory
    with pytest.raises(ConfigurationError, match="bytes of arrays at once") as refusal:
        config_from_dict(raw)
    counted = int(re.search(r"holds (\d+) bytes", str(refusal.value)).group(1))
    assert abs(counted - peak) <= 0.25 * peak, (counted, peak)


def test_oracle_check_holds_o_n_levels_whatever_m_is():
    # stepped and compared block by block, three forced columns at N = 256
    # hold less than half of one (M+1, N+1) level array at M = 4096, and at
    # most 1.5 times what they hold at M = 512
    import tracemalloc
    peaks = {}
    for m in (512, 4096):
        cfg = config_from_dict({"kind": "oracle_check",
                                "mesh": {"X": math.pi, "T": math.pi, "N": 256, "M": m},
                                "data": {"harmonic": {"j": 2, "k": 3}}, "variant": "all"})
        if m == 512:  # the imports and caches; a factor of A is O(N)
            run_oracle_check(cfg, emit=False)
        tracemalloc.start()
        try:
            assert all(r.passed for r in run_oracle_check(cfg, emit=False))
            peaks[m] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[4096] < 0.5 * 8 * 4097 * 257, peaks
    assert peaks[4096] <= 1.5 * peaks[512], peaks


def test_stability_probe_holds_o_n_levels_whatever_m_is():
    # stepped and measured block by block, four columns at N = 256 hold less
    # than half of one (M+1, N+1) level array at M = 4096
    import tracemalloc
    cfg = config_from_dict({"kind": "stability_probe",
                            "mesh": {"X": math.pi, "T": math.pi, "N": 256, "M": 4096},
                            "seed": 3, "n_random": 4, "n_pairs": 10})
    run_stability_probe(cfg, emit=False)  # the imports and caches
    tracemalloc.start()
    try:
        assert all(r.passed for r in run_stability_probe(cfg, emit=False))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * 8 * 4097 * 257, peak


@pytest.mark.parametrize("n, m, columns", [(16, 32, 20), (256, 512, 4), (64, 4096, 8)],
                         ids=["stepping_peak", "bounds_peak", "assembly_peak"])
def test_stability_probe_load_count_bounds_its_peak(monkeypatch, n, m, columns):
    # config counts each column's stepping and norm buffers, a forced run's
    # level_bytes, and the run's fixed overhead: the peak of 20 columns at
    # N = 16, of 4 columns at N = 256, and of 8 columns assembled for
    # M = 4096 levels stay within it
    import os
    import tracemalloc
    raw = {"kind": "stability_probe", "mesh": {"X": math.pi, "T": math.pi, "N": n, "M": m},
           "seed": 3, "n_random": columns, "n_pairs": 10}
    cfg = config_from_dict(raw)
    run_stability_probe(cfg, emit=False)  # the factor caches
    tracemalloc.start()
    try:
        run_stability_probe(cfg, emit=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    monkeypatch.setattr(os, "sysconf", lambda name: 1)  # one byte of memory
    with pytest.raises(ConfigurationError, match="bytes of arrays at once") as refusal:
        config_from_dict(raw)
    counted = int(re.search(r"holds (\d+) bytes", str(refusal.value)).group(1))
    assert peak <= counted <= 1.5 * peak, (counted, peak)


def test_oracle_check_names_the_datum_and_mesh_of_bad_grid_data():
    # each column's data are checked: a non-finite forcing is named with its mesh
    cfg = config_from_dict({
        "kind": "oracle_check",
        "mesh": _base_mesh_cfg(8),
        "data": {"harmonic": {"j": 2, "k": 3}},
        "variant": "all",
    })
    f = cfg.data.f
    cfg.data = type(cfg.data)(u0=cfg.data.u0, u1=cfg.data.u1, f=Forcing(
        space=Profile.sine_series((1e200,) * 3, math.pi), time=f.time))
    with pytest.raises(ConfigurationError, match=r"grid data of f .* on the N=8, M=16 mesh"):
        run_oracle_check(cfg, emit=False)
