"""Order fitting, presets, data norms, stability sides, runner behavior."""

import csv
import json
import math

import numpy as np
import pytest
from scipy.integrate import quad

from wavecompact.config import config_from_dict
from wavecompact.data import Forcing, Profile, TimeProfile, sine_coefficients
from wavecompact.errors import ConfigurationError, ContractViolation
from wavecompact.experiments import (PRESETS, energy_lower_bound_margins, fit_order,
                                     forcing_l21_norm, hat_profile, profile_h01_norm,
                                     profile_l2_norm, quad_spline_profile,
                                     random_dataspec, run_convergence,
                                     run_oracle_check, run_sharpness, run_solve,
                                     run_stability_probe, stability_bound_sides,
                                     step_profile, time_l1_norm)
from wavecompact.grid import build_mesh


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


def test_time_l1_norms():
    g = TimeProfile.polynomial((-0.25, 1.0))  # t - 1/4, sign change at 0.25
    ref, _ = quad(lambda t: abs(t - 0.25), 0.0, 1.0, points=[0.25])
    assert time_l1_norm(g, 1.0) == pytest.approx(ref, rel=1e-13)
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
    for _ in range(5):
        data = random_dataspec(rng, math.pi)
        (lhs, rhs), (lhs2, rhs2) = stability_bound_sides(mesh, data)
        assert lhs <= rhs * (1 + 1e-11)
        assert lhs2 <= rhs2 * (1 + 1e-11)


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
    from wavecompact.oracle import HarmonicData, discrete_harmonic_trajectory
    from wavecompact.reference import HarmonicReference
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
    golden = measure_error(mesh, golden_slices, HarmonicReference(mesh, kind))
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
    assert math.isnan(result.extrapolated_ratio)  # needs three rungs
    lines = (tmp_path / "sharpness.csv").read_text().strip().splitlines()
    assert lines[0] == "N,k_h,measured,predicted,ratio"
    assert (tmp_path / "sharpness_dx.csv").exists()


def test_sharpness_ratio_extrapolation():
    from wavecompact.experiments import _extrapolate_ratios
    # geometric approach to 1: r = 1 - c q^n extrapolates to 1 exactly
    ratios = [1 - 0.2 * 0.5 ** n for n in range(3)]
    assert _extrapolate_ratios(ratios) == pytest.approx(1.0, abs=1e-12)
    assert math.isnan(_extrapolate_ratios([0.9, 0.95]))


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
        # plain float reprs: every number parses with float() and round-trips
        assert [float(back[k]) for k in ("lhs", "rhs", "margin")] == [
            row.lhs, row.rhs, row.margin]


def test_stability_probe_steps_each_data_set_once(monkeypatch):
    # both bounds of a random data set read one run: one implicit solve per
    # time step of every data set, and none for the lower-bound pairs
    import wavecompact.scheme as scheme
    solves = 0
    solve_implicit = scheme.solve_implicit

    def counting(rhs, mesh):
        nonlocal solves
        solves += 1
        return solve_implicit(rhs, mesh)

    monkeypatch.setattr(scheme, "solve_implicit", counting)
    cfg = config_from_dict({
        "kind": "stability_probe",
        "mesh": _base_mesh_cfg(8, refinements=1),
        "n_random": 3,
        "n_pairs": 4,
        "seed": 7,
    })
    rows = run_stability_probe(cfg, emit=False)
    assert all(r.passed for r in rows)
    assert solves == cfg.n_random * sum(mesh.M for mesh in cfg.rungs)


def test_sharpness_measurement_oracle_self_consistency():
    # replacing the stepper by the closed-form discrete solution changes the
    # measured ratio by less than 1e-8
    from wavecompact.oracle import (HarmonicData, choose_k_h,
                                    discrete_harmonic_trajectory)
    from wavecompact.reference import HarmonicReference
    from wavecompact.scheme import evolve, measure_error
    from wavecompact.oracle import harmonic_dataspec

    mesh = build_mesh(math.pi, math.pi, 128, 256)
    k = choose_k_h(2.0, mesh)
    kind = HarmonicData(j=0, k=k)
    ref = HarmonicReference(mesh, kind)
    run = evolve(mesh, harmonic_dataspec(kind, mesh))
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


def test_rung_pool_has_no_more_workers_than_rungs(monkeypatch):
    # a huge jobs value must not become a huge pool; the fake pool starts no
    # process and maps in this one
    import wavecompact.experiments as experiments
    sizes = []

    class FakePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, payloads):
            return map(fn, payloads)

    monkeypatch.setattr(experiments, "ProcessPoolExecutor", FakePool)
    assert experiments._map_rungs(abs, [-1, -2, -3], 10 ** 6) == [1, 2, 3]
    assert experiments._map_rungs(abs, [-1, -2, -3], 2) == [1, 2, 3]
    assert sizes == [3, 2]


def test_parallel_rungs_match_sequential():
    base = {
        "kind": "converge",
        "mesh": _base_mesh_cfg(8, refinements=2),
        "data": {"harmonic": {"j": 0, "k": 2}},
    }
    seq = run_convergence(config_from_dict(base), emit=False)
    par = run_convergence(config_from_dict({**base, "jobs": 2}), emit=False)
    for a, b in zip(seq.rows, par.rows):
        assert a.err_energy == pytest.approx(b.err_energy, rel=1e-14)
