"""Batch experiment drivers: solve, convergence, sharpness, oracle and
stability checks, plus the order fit and the random data they use.

Each runner takes an ExperimentConfig and returns a result record.  solve,
converge and sharpness measure against the one exact reference,
reference.dalembert_reference; solve stores the trajectory it writes, and
converge and sharpness measure each rung as it steps (_measured).  solve
measures nothing for data that reference.reference_refusal refuses, and config
refuses a converge of such data at load.  With emit set, a runner first
refuses an output directory that is a file or inside one (_begin), and _emit
writes plain columnar CSV plus a JSON run summary to it (solve writes its
trajectory itself).  A table's header is the field names of its row record,
and every cell is the repr of its field (strings as they are).

The stability probe and oracle-check step their data sets of one mesh as the
columns of one run of scheme._march, which scheme.stack_inputs assembles: the
probe's n_random random data sets, each with u1 variant v2, and oracle-check's
data with each of its u1 variants; each column equals its own run bit for bit.
Both read the run block by block and store no level: O(N) levels per column.
The probe keeps each column's running maxima of the level norms its bounds
read, and takes the norms of its data and grid data for all data sets at once.
oracle-check compares each block with oracle.discrete_blocks of the same grid
data, for any data section: it checks stepping, not data assembly.

Every runner steps its rungs one after another in one process, so a run
holds one rung's arrays at a time: those that config's memory check counts.
"""

from __future__ import annotations

import csv
import json
import math
import sys
import time
from dataclasses import asdict, dataclass, fields
from operator import itemgetter
from pathlib import Path

import numpy as np
import scipy

from . import __version__, grid, scheme
from .config import ExperimentConfig
from .data import (U1_VARIANTS, DataSpec, Forcing, Profile, TimeProfile,
                   forcing_l21_norm, profile_h01_norm, profile_l2_norm)
from .errors import ConfigurationError, ContractViolation
from .grid import MeshSpec, energy_norm_pair, space_norm
from .operators import mass_inv_half_norm
from .oracle import (HarmonicData, canonical_mesh, choose_k_h, discrete_blocks,
                     harmonic_dataspec, sharpness_prediction)
from .reference import dalembert_reference, reference_refusal
from .scheme import (ErrorReport, evolve, evolve_measured, level_bytes, measure_error,
                     prepare_inputs, stack_inputs)


# --------------------------------------------------------------------------
# order fitting

@dataclass(frozen=True)
class OrderFit:
    slope: float
    residual: float


def fit_order(points) -> OrderFit:
    """Least-squares slope of log(error) against log(h).

    points: iterable of (h, error) with positive entries and at least two
    distinct h values.
    """
    pts = [(float(h), float(e)) for h, e in points]
    if len(pts) < 2:
        raise ContractViolation("order fit needs at least two points")
    if any(h <= 0 or e <= 0 for h, e in pts):
        raise ContractViolation("order fit needs positive mesh sizes and errors")
    hs, es = np.array(pts).T
    if np.allclose(hs, hs[0]):
        raise ContractViolation("order fit needs distinct mesh sizes")
    design = np.vstack([np.log(hs), np.ones_like(hs)]).T
    sol, *_ = np.linalg.lstsq(design, np.log(es), rcond=None)
    resid = np.log(es) - design @ sol
    return OrderFit(slope=float(sol[0]), residual=float(np.linalg.norm(resid)))


# --------------------------------------------------------------------------
# random data

def random_dataspec(rng: np.random.Generator, X: float) -> DataSpec:
    """Random piecewise-polynomial data: continuous u0 with zero ends,
    discontinuous u1 and, with probability 0.7, a separable forcing with a
    polynomial time factor."""

    def random_breaks() -> tuple[float, ...]:
        inner = np.sort(rng.uniform(0.15 * X, 0.85 * X, rng.integers(1, 4)))
        return (0.0, *inner, X)

    def continuous_zero_ends(breaks) -> Profile:
        vals = rng.uniform(-1.0, 1.0, len(breaks))
        vals[0] = vals[-1] = 0.0
        pieces = []
        for p in range(len(breaks) - 1):
            # the line through the end values minus the bubble (x - lo)(x - hi)(c0 + c1 x)
            lo, hi = breaks[p], breaks[p + 1]
            slope = (vals[p + 1] - vals[p]) / (hi - lo)
            c0, c1 = rng.uniform(-1.0, 1.0, 2)
            pieces.append((vals[p] - slope * lo - c0 * lo * hi,
                           slope + c0 * (lo + hi) - c1 * lo * hi,
                           c1 * (lo + hi) - c0,
                           -c1))
        return Profile.piecewise_poly(breaks, pieces)

    def rough(breaks) -> Profile:
        pieces = [tuple(rng.uniform(-1.0, 1.0, rng.integers(1, 4)))
                  for _ in range(len(breaks) - 1)]
        return Profile.piecewise_poly(breaks, pieces)

    u0 = continuous_zero_ends(random_breaks())
    u1 = rough(random_breaks())
    f = None
    if rng.random() < 0.7:
        f = Forcing(space=rough(random_breaks()),
                    time=TimeProfile.polynomial(rng.uniform(-1.0, 1.0, 3)))
    return DataSpec(u0=u0, u1=u1, f=f)


# --------------------------------------------------------------------------
# stability inequalities (used by the probe runner and the acceptance suite)

def stability_bound_sides(mesh: MeshSpec, datas: list[DataSpec]):
    """One ((LHS, RHS), (LHS, RHS)) per data set of datas, of the energy bound
    and of the data-norm bound, all read from one run of the scheme in which
    every data set is a column.

    Energy bound (discrete data):
      LHS: max over levels of the two-level energy norm of the run.
      RHS: sqrt(a^2 ||dx v0||^2 + eps0^-2 ||B^-1/2 u1h||^2)
           + eps0^-1 (tau ||B^-1/2 fh0|| + 2 tau sum_{m=1}^{M-1} ||B^-1/2 fh^m||).
    Data-norm bound (u1 through its hat average):
      LHS: eps0 max( max_m ||dt v^m||_mass, max_m a/sqrt(6) ||dx v^m||_diff_l2 ),
           ||dt v^m||_mass by summation by parts, the energy norm's mass term.
      RHS: sqrt(a^2 ||dx u0||_L2^2 + eps0^-2 ||u1||_L2^2) + 2 eps0^-1 ||f||_L21.
    """
    return _stability_rung(mesh, datas)[0]


def _stability_rung(mesh: MeshSpec, datas: list[DataSpec]):
    """(stability_bound_sides of datas, the run's summary row): N, M, the
    columns stepped, the seconds assembling them, stepping and measuring them
    and computing the bound sides, and the largest residual."""
    e0, N, M = mesh.eps0, mesh.N, mesh.M
    started = time.perf_counter()
    v0s, u1hs, fhs = stack_inputs(mesh, [(data, "v2") for data in datas])
    assembled = time.perf_counter()
    residuals, maxima = np.empty((len(datas), M)), np.zeros((3, len(datas)))
    for _, v in scheme._march(mesh, v0s, u1hs, fhs, True, residuals):
        # each column's largest E(v), ||dt v||_B^2 and ||D v||^2, from the ring's rows of
        # every column in one array; D v is not bound, so no block-sized array is held
        # while the next block steps
        np.maximum(maxima, [norms.max(axis=-1) for norms in itemgetter(0, 1, 3)(
            grid._pair_norms(np.ascontiguousarray(v), mesh))], out=maxima)
    stepped = time.perf_counter()
    # both bounds' sides of all columns at once: one call per data norm (sqrt is monotone:
    # the root of the largest square is the largest root)
    a, tau = mesh.a, mesh.tau
    rhs = np.sqrt(a ** 2 * space_norm(v0s, "stiffness", mesh) ** 2
                  + mass_inv_half_norm(u1hs, mesh) ** 2 / e0 ** 2)
    lhs2 = e0 * np.maximum(np.sqrt(maxima[1]), a / math.sqrt(6.0) * np.sqrt(maxima[2]))
    rhs2 = np.sqrt(a ** 2 * profile_h01_norm([data.u0 for data in datas]) ** 2
                   + profile_l2_norm([data.u1 for data in datas]) ** 2 / e0 ** 2)
    forced = [b for b, data in enumerate(datas) if data.f is not None]
    if forced:
        # the norm is homogeneous: level m's is |q_tau f|_m times that of q_h f;
        # the levels m >= 1 are summed in order, from 0 (cumsum)
        fh_norms = np.abs(fhs.time[forced]) * mass_inv_half_norm(fhs.space, mesh)[forced, None]
        first, fh_norms[:, 0] = fh_norms[:, 0] * tau, 0.0
        rhs[forced] += (first + 2.0 * tau * np.cumsum(fh_norms, axis=1)[:, -1]) / e0
        rhs2[forced] += 2.0 / e0 * forcing_l21_norm([datas[b].f for b in forced], mesh.T)
    sides = [((lhs, r), (l2, r2)) for lhs, r, l2, r2 in zip(
        maxima[0].tolist(), rhs.tolist(), lhs2.tolist(), rhs2.tolist())]
    return sides, {"N": N, "M": M, "columns": len(datas), "assemble_s": assembled - started,
                   "step_measure_s": stepped - assembled, "bounds_s": time.perf_counter() - stepped,
                   "residual_max": float(np.max(residuals))}


def energy_lower_bound_margins(mesh: MeshSpec, v_prev, v_curr):
    """Margins (>= 0 when satisfied) of the two lower energy inequalities,
    for one pair of levels or for stacks of pairs (one margin per row)."""
    e_sq = energy_norm_pair(v_prev, v_curr, mesh) ** 2
    tau, a, e0 = mesh.tau, mesh.a, mesh.eps0
    dtv = (v_curr - v_prev) / tau
    stv = 0.5 * (v_curr + v_prev)
    first = e_sq - (e0 ** 2 * space_norm(dtv, "mass", mesh) ** 2
                    + a ** 2 * space_norm(stv, "stiffness", mesh) ** 2)
    eps1_sq = e0 ** 2 / 3.0
    second = e_sq - eps1_sq * a ** 2 * 0.5 * (
        space_norm(v_prev, "stiffness", mesh) ** 2
        + space_norm(v_curr, "stiffness", mesh) ** 2)
    return first, second


# --------------------------------------------------------------------------
# emission helpers

def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _write_rows(path: Path, row_class, rows) -> None:
    """One CSV row per record: the header is row_class's field names, and each
    cell is the repr of its field, or the field itself if it is a string."""
    names = [f.name for f in fields(row_class)]
    _write_csv(path, names, [[v if isinstance(v, str) else repr(v)
                              for v in (getattr(r, name) for name in names)]
                             for r in rows])


def _write_summary(config: ExperimentConfig, extra: dict, started: float,
                   outputs: list[str]) -> None:
    """run_summary.json, written after the outputs, which made the directory."""
    summary = {
        "config": config.echo,
        "versions": {
            "wavecompact": __version__,
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
        "wall_time_s": time.perf_counter() - started,
        "outputs": outputs,
        **extra,
    }
    (config.out_dir / "run_summary.json").write_text(json.dumps(summary, indent=2, default=str))


def _begin(config: ExperimentConfig, emit: bool) -> float:
    """The run's start time, once an out_dir that emit would write to is known
    not to be a file or inside one: writing there would fail after the last rung."""
    out = config.out_dir
    if emit and any(p.exists() and not p.is_dir() for p in (out, *out.parents)):
        raise ConfigurationError(f"out_dir {str(out)!r} is a file or inside one")
    return time.perf_counter()


def _emit(config: ExperimentConfig, started: float, tables, extra: dict) -> None:
    """Write each (file name, row class, rows) table and the run summary."""
    for name, row_class, rows in tables:
        _write_rows(config.out_dir / name, row_class, rows)
    _write_summary(config, extra, started, [str(config.out_dir / t[0]) for t in tables])


# --------------------------------------------------------------------------
# convergence

@dataclass(frozen=True)
class ConvergenceRow:
    N: int
    M: int
    h: float
    tau: float
    err_energy: float
    err_dx: float
    err_l1: float
    order_energy: float  # pairwise log2(e_coarse / e_fine); nan on the first rung


@dataclass(frozen=True)
class ConvergenceResult:
    rows: list[ConvergenceRow]
    fitted_order: float
    fit_residual: float


def _measured(config: ExperimentConfig, mesh: MeshSpec, data: DataSpec, reference,
              mode: str):
    """(report, summary row: N, M, the step-and-measure seconds, the largest
    residual, the bytes of the levels held) of data, measured as it steps."""
    inputs = prepare_inputs(mesh, data, config.variant)
    started = time.perf_counter()
    report, residuals = evolve_measured(mesh, *inputs, reference, mode)
    return report, {"N": mesh.N, "M": mesh.M, "step_measure_s": time.perf_counter() - started,
                    "residual_max": float(np.max(residuals)),
                    "level_bytes": level_bytes(mesh, inputs[2] is not None)}


def _converge_rung(config: ExperimentConfig, mesh: MeshSpec):
    return _measured(config, mesh, config.data, dalembert_reference(mesh, config.data),
                     config.mode)


def run_convergence(config: ExperimentConfig, emit: bool = True) -> ConvergenceResult:
    """Ladder study: error norms per rung, pairwise orders, fitted slope."""
    started = _begin(config, emit)
    pairs = [_converge_rung(config, mesh) for mesh in config.rungs]
    reports = [p[0] for p in pairs]
    rows = []
    for i, (mesh, rep) in enumerate(zip(config.rungs, reports)):
        if i > 0 and rep.max_energy_error > 0 and reports[i - 1].max_energy_error > 0:
            ratio = reports[i - 1].max_energy_error / rep.max_energy_error
            order = math.log2(ratio) / math.log2(config.rungs[i - 1].h / mesh.h)
        else:
            order = float("nan")
        rows.append(ConvergenceRow(
            N=mesh.N, M=mesh.M, h=mesh.h, tau=mesh.tau,
            err_energy=rep.max_energy_error, err_dx=rep.max_dx_error,
            err_l1=rep.l1_spacetime_error, order_energy=order))
    fit = fit_order([(r.h, r.err_energy) for r in rows[config.fit_drop_coarsest:]])
    result = ConvergenceResult(rows=rows, fitted_order=fit.slope,
                               fit_residual=fit.residual)
    if emit:
        _emit(config, started, [("converge.csv", ConvergenceRow, rows)],
              {"fitted_order": fit.slope, "fit_residual": fit.residual,
               "rungs": [p[1] for p in pairs]})
    return result


# --------------------------------------------------------------------------
# solve

@dataclass(frozen=True)
class SolveResult:
    report: ErrorReport | None
    outputs: list[str]


def run_solve(config: ExperimentConfig, emit: bool = True) -> SolveResult:
    """Single run on the first rung; writes the trajectory and the error report."""
    started = _begin(config, emit)
    mesh = config.rungs[0]
    # the reference first: it names non-finite data before the stepper meets it
    reference = (None if reference_refusal(mesh, config.data) is not None
                 else dalembert_reference(mesh, config.data))
    run = evolve(mesh, config.data, variant=config.variant)
    report = None if reference is None else measure_error(mesh, run.slices, reference,
                                                          config.mode)
    outputs: list[str] = []
    if emit:
        out = config.out_dir
        out.mkdir(parents=True, exist_ok=True)
        npz_path = out / "trajectory.npz"
        np.savez_compressed(npz_path, x=mesh.nodes(), t=mesh.times(),
                            v=run.slices)
        outputs.append(str(npz_path))
        stride = max(1, mesh.M // config.decimate)
        levels = list(range(0, mesh.M + 1, stride))
        csv_path = out / "trajectory.csv"
        header = ["x"] + [f"v_t{mesh.times()[m]:.6g}" for m in levels]
        body = [[f"{x!r}"] + [f"{run.slices[m][i]!r}" for m in levels]
                for i, x in enumerate(mesh.nodes())]
        _write_csv(csv_path, header, body)
        outputs.append(str(csv_path))
        extra = {"residual_max": float(np.max(run.residual_max))}
        if report is not None:
            rep_path = out / "error_report.json"
            rep_path.write_text(json.dumps(asdict(report), indent=2))
            outputs.append(str(rep_path))
            extra["error_report"] = asdict(report)
        _write_summary(config, extra, started, outputs)
    return SolveResult(report=report, outputs=outputs)


# --------------------------------------------------------------------------
# sharpness

@dataclass(frozen=True)
class SharpnessRow:
    N: int
    k_h: int
    measured: float
    predicted: float
    ratio: float


@dataclass(frozen=True)
class SharpnessResult:
    rows: list[SharpnessRow]     # l = 0
    rows_dx: list[SharpnessRow]  # l = 1
    j: int


def _sharpness_rung(config: ExperimentConfig, mesh: MeshSpec):
    j = config.sharpness_j
    k_h = choose_k_h(config.alpha, mesh)
    data = harmonic_dataspec(HarmonicData(j=j, k=k_h), mesh)
    report, rung = _measured(config, mesh, data, dalembert_reference(mesh, data), "node_sampled")
    T = canonical_mesh(mesh).T  # the final time in the frame of the prediction
    rows = []
    for l, measured in ((0, report.l1_spacetime_error), (1, report.l1_spacetime_dx_error)):
        predicted = sharpness_prediction(j, l, k_h, T)
        rows.append(SharpnessRow(N=mesh.N, k_h=k_h, measured=measured,
                                 predicted=predicted, ratio=measured / predicted))
    return rows, rung


def run_sharpness(config: ExperimentConfig, emit: bool = True) -> SharpnessResult:
    """Measured vs predicted space-time L1 error norms at the selected modes."""
    started = _begin(config, emit)
    pairs = [_sharpness_rung(config, mesh) for mesh in config.rungs]
    rows = [p[0][0] for p in pairs]
    rows_dx = [p[0][1] for p in pairs]
    result = SharpnessResult(rows=rows, rows_dx=rows_dx, j=config.sharpness_j)
    if emit:
        _emit(config, started, [("sharpness.csv", SharpnessRow, rows),
                                ("sharpness_dx.csv", SharpnessRow, rows_dx)],
              {"ratios": [r.ratio for r in rows], "j": config.sharpness_j,
               "rungs": [p[1] for p in pairs]})
    return result


# --------------------------------------------------------------------------
# oracle check

@dataclass(frozen=True)
class OracleCheckRow:
    N: int
    M: int
    variant: str
    deviation: float
    passed: bool


ORACLE_TOLERANCE = 1e-9


def run_oracle_check(config: ExperimentConfig, emit: bool = True) -> list[OracleCheckRow]:
    """Max relative deviation of the stepper from the closed-form scheme
    solution (oracle.discrete_blocks) of the same grid data; the run summary
    gets one row per mesh: N, M, the columns, the seconds stepping and
    comparing them, and the largest residual."""
    started = _begin(config, emit)
    variants = U1_VARIANTS if config.variant == "all" else (config.variant,)
    rows, rungs = [], []
    for mesh in config.rungs:
        inputs = stack_inputs(mesh, [(config.data, v) for v in variants])
        stepping, residuals = time.perf_counter(), np.empty((len(variants), mesh.M))
        maxima = np.zeros((2, len(variants)))  # running maxima of |v - exact| and |exact|
        for (_, v), (_, exact) in zip(scheme._march(mesh, *inputs, True, residuals),
                                      discrete_blocks(mesh, *inputs), strict=True):
            np.maximum(maxima, np.abs([v - exact, exact]).max(axis=(2, 3)), out=maxima)
        rungs.append({"N": mesh.N, "M": mesh.M, "columns": len(variants),
                      "step_check_s": time.perf_counter() - stepping,
                      "residual_max": float(np.max(residuals))})
        rows += [OracleCheckRow(N=mesh.N, M=mesh.M, variant=variant, deviation=d,
                                passed=d <= ORACLE_TOLERANCE)
                 for variant, d in zip(variants, (maxima[0] / np.maximum(1.0, maxima[1])).tolist())]
    if emit:
        _emit(config, started, [("oracle_check.csv", OracleCheckRow, rows)],
              {"all_passed": all(r.passed for r in rows), "rungs": rungs})
    return rows


# --------------------------------------------------------------------------
# stability probe

@dataclass(frozen=True)
class StabilityProbeRow:
    N: int
    M: int
    check: str
    lhs: float
    rhs: float
    margin: float
    passed: bool


STABILITY_SLACK = 1e-11


def run_stability_probe(config: ExperimentConfig, emit: bool = True) -> list[StabilityProbeRow]:
    """Randomized numerical verification of the energy inequalities.

    Per mesh, the n_random data sets are drawn first and then the n_pairs
    pairs; the data sets are stepped as the columns of one run, and the run
    summary gets one row per mesh (see _stability_rung)."""
    started = _begin(config, emit)
    rng = np.random.default_rng(config.seed)
    rows, rungs = [], []
    for mesh in config.rungs:
        datas = [random_dataspec(rng, mesh.X) for _ in range(config.n_random)]
        all_sides, rung = _stability_rung(mesh, datas)
        rungs.append(rung)
        for sides in all_sides:
            for check, (lhs, rhs) in zip(("energy_bound", "data_norm_bound"), sides):
                slack = STABILITY_SLACK * max(1.0, abs(rhs))
                rows.append(StabilityProbeRow(mesh.N, mesh.M, check, lhs, rhs,
                                              rhs - lhs, lhs <= rhs + slack))
        # (pair, v_prev/v_curr, node): the draws of n_pairs successive pairs
        pairs = np.zeros((config.n_pairs, 2, mesh.N + 1))
        pairs[..., 1:-1] = rng.standard_normal((config.n_pairs, 2, mesh.N - 1))
        first, second = energy_lower_bound_margins(mesh, pairs[:, 0], pairs[:, 1])
        for margins in zip(first.tolist(), second.tolist()):
            for name, margin in zip(("lower_bound_1", "lower_bound_2"), margins):
                rows.append(StabilityProbeRow(mesh.N, mesh.M, name, -margin, 0.0,
                                              margin, margin >= -STABILITY_SLACK))
    if emit:
        _emit(config, started, [("stability.csv", StabilityProbeRow, rows)],
              {"violations": sum(not r.passed for r in rows), "rungs": rungs})
    return rows
