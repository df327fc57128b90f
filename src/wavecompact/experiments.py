"""Batch experiment drivers: solve, convergence, sharpness, oracle and
stability checks, plus the order-fitting and data-preset utilities they share.

Each runner takes an ExperimentConfig, returns a result record, and (when
emit is set) writes plain columnar CSV plus a JSON run summary to the
config's output directory.  A table's header is the field names of its row
record, and every cell is the repr of its field (strings as they are).

Ladder rungs are independent and run in a process pool when jobs > 1.
"""

from __future__ import annotations

import csv
import json
import math
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np
from numpy.polynomial import polynomial as npoly

from . import __version__
from .config import ExperimentConfig
from .data import U1_VARIANTS, DataSpec, Forcing, Profile, TimeProfile, sine_coefficients
from .errors import ConfigurationError, ContractViolation
from .grid import MeshSpec, energy_norm_pair, space_norm
from .operators import mass_inv_half_norm
from .oracle import (HarmonicData, choose_k_h, discrete_harmonic_trajectory,
                     harmonic_dataspec, sharpness_prediction)
from .reference import HarmonicReference, SeriesReference
from .scheme import ErrorReport, evolve, evolve_grid, measure_error, prepare_inputs


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
    hs = np.array([p[0] for p in pts])
    es = np.array([p[1] for p in pts])
    if np.allclose(hs, hs[0]):
        raise ContractViolation("order fit needs distinct mesh sizes")
    design = np.vstack([np.log(hs), np.ones_like(hs)]).T
    sol, *_ = np.linalg.lstsq(design, np.log(es), rcond=None)
    resid = np.log(es) - design @ sol
    return OrderFit(slope=float(sol[0]), residual=float(np.linalg.norm(resid)))


# --------------------------------------------------------------------------
# data presets

def hat_profile(X: float) -> Profile:
    """Continuous piecewise-linear bump, peak 1 at X/2; coefficients ~ k^-2."""
    return Profile.piecewise_poly(
        (0.0, X / 2.0, X),
        ((0.0, 2.0 / X), (2.0, -2.0 / X)))


def step_profile(X: float) -> Profile:
    """Centered step: +1 on (0, X/2), -1 on (X/2, X); coefficients ~ k^-1."""
    return Profile.piecewise_poly(
        (0.0, X / 2.0, X),
        ((1.0,), (-1.0,)))


def quad_spline_profile(X: float) -> Profile:
    """C^1 piecewise quadratic with a derivative kink at X/2 (integrated hat,
    zero mean slope); coefficients ~ k^-3."""
    return Profile.piecewise_poly(
        (0.0, X / 2.0, X),
        ((0.0, -0.5, 1.0 / X), (-X / 2.0, 1.5, -1.0 / X)))


@dataclass(frozen=True)
class DataPreset:
    name: str
    smoothness: float  # data smoothness exponent driving the expected rate

    @property
    def expected_order(self) -> float:
        return 4.0 * (self.smoothness - 1.0) / 5.0

    def make(self, X: float) -> DataSpec:
        if self.name == "hat_step":
            return DataSpec(u0=hat_profile(X), u1=step_profile(X))
        if self.name == "quad_spline_hat":
            return DataSpec(u0=quad_spline_profile(X), u1=hat_profile(X))
        raise ConfigurationError(f"unknown data preset {self.name!r}")


PRESETS = {
    "hat_step": DataPreset("hat_step", smoothness=1.5),
    "quad_spline_hat": DataPreset("quad_spline_hat", smoothness=2.5),
}


def random_dataspec(rng: np.random.Generator, X: float, with_forcing: bool = True,
                    max_breaks: int = 3) -> DataSpec:
    """Random piecewise-polynomial data: continuous u0 with zero ends,
    discontinuous u1, optional separable forcing with a polynomial time factor."""

    def random_breaks() -> tuple[float, ...]:
        inner = np.sort(rng.uniform(0.15 * X, 0.85 * X, rng.integers(1, max_breaks + 1)))
        return (0.0, *inner, X)

    def continuous_zero_ends(breaks) -> Profile:
        vals = rng.uniform(-1.0, 1.0, len(breaks))
        vals[0] = vals[-1] = 0.0
        pieces = []
        for p in range(len(breaks) - 1):
            lo, hi = breaks[p], breaks[p + 1]
            line = npoly.polyfit([lo, hi], [vals[p], vals[p + 1]], 1)
            bubble = npoly.polymul(npoly.polyfromroots([lo, hi]),
                                   rng.uniform(-1.0, 1.0, 2))
            pieces.append(tuple(npoly.polyadd(line, -bubble)))
        return Profile.piecewise_poly(breaks, pieces)

    def rough(breaks) -> Profile:
        pieces = [tuple(rng.uniform(-1.0, 1.0, rng.integers(1, 4)))
                  for _ in range(len(breaks) - 1)]
        return Profile.piecewise_poly(breaks, pieces)

    u0 = continuous_zero_ends(random_breaks())
    u1 = rough(random_breaks())
    f = None
    if with_forcing and rng.random() < 0.7:
        f = Forcing(space=rough(random_breaks()),
                    time=TimeProfile.polynomial(rng.uniform(-1.0, 1.0, 3)))
    return DataSpec(u0=u0, u1=u1, f=f)


# --------------------------------------------------------------------------
# continuous data norms (right-hand sides of the stability bounds)

def _piece_l2_sq(coeffs, lo: float, hi: float) -> float:
    sq = npoly.polymul(coeffs, coeffs)
    anti = npoly.polyint(sq)
    return float(npoly.polyval(hi, anti) - npoly.polyval(lo, anti))


def profile_l2_norm(p: Profile) -> float:
    """L2(0, X) norm of a profile (exact)."""
    if p.form in ("harmonic", "sine_series"):
        c = sine_coefficients(p, p.k if p.form == "harmonic" else max(1, len(p.coeffs)))
        return float(np.sqrt(np.sum(c ** 2)))
    total = sum(_piece_l2_sq(p.pieces[i], p.breakpoints[i], p.breakpoints[i + 1])
                for i in range(len(p.pieces)))
    return math.sqrt(total)


def profile_h01_norm(p: Profile) -> float:
    """||dx w||_L2 for a profile vanishing at the ends."""
    if p.form in ("harmonic", "sine_series"):
        c = sine_coefficients(p, p.k if p.form == "harmonic" else max(1, len(p.coeffs)))
        k = np.arange(1, len(c) + 1)
        return float(np.sqrt(np.sum((np.pi * k / p.X) ** 2 * c ** 2)))
    total = 0.0
    for i in range(len(p.pieces)):
        d = npoly.polyder(p.pieces[i]) if len(p.pieces[i]) > 1 else (0.0,)
        total += _piece_l2_sq(d, p.breakpoints[i], p.breakpoints[i + 1])
    return math.sqrt(total)


def _poly_abs_integral(coeffs, lo: float, hi: float) -> float:
    """Integral of |p(t)| on [lo, hi], splitting at the real roots."""
    coeffs = np.asarray(coeffs, dtype=float)
    if len(coeffs) > 1 and np.any(coeffs[1:] != 0.0):
        roots = npoly.polyroots(coeffs)
        cuts = sorted({lo, hi, *(float(r.real) for r in roots
                                 if abs(r.imag) < 1e-12 and lo < r.real < hi)})
    else:
        cuts = [lo, hi]
    anti = npoly.polyint(coeffs)
    total = 0.0
    for a, b in zip(cuts[:-1], cuts[1:]):
        total += abs(npoly.polyval(b, anti) - npoly.polyval(a, anti))
    return float(total)


def time_l1_norm(g: TimeProfile, T: float) -> float:
    """Integral of |g| over (0, T)."""
    if g.form == "polynomial":
        return _poly_abs_integral(g.coeffs, 0.0, T)
    w = abs(g.omega)
    if w == 0.0:
        return 0.0
    periods = math.floor(w * T / math.pi)
    return (2.0 * periods + 1.0 - math.cos(w * T - periods * math.pi)) / w


def forcing_l21_norm(f: Forcing, T: float) -> float:
    """||f||_{L^{2,1}} = ||space||_{L2} * integral of |time| for separable f."""
    return profile_l2_norm(f.space) * time_l1_norm(f.time, T)


# --------------------------------------------------------------------------
# stability inequalities (used by the probe runner and the acceptance suite)

def stability_bound_sides(mesh: MeshSpec, data: DataSpec):
    """((LHS, RHS), (LHS, RHS)) of the energy bound and of the data-norm bound,
    both read from one run of the scheme.

    Energy bound (discrete data):
      LHS: max over levels of the two-level energy norm of the run.
      RHS: sqrt(a^2 ||dx v0||^2 + eps0^-2 ||B^-1/2 u1h||^2)
           + eps0^-1 (tau ||B^-1/2 fh0|| + 2 tau sum_{m=1}^{M-1} ||B^-1/2 fh^m||).
    Data-norm bound (u1 through its hat average):
      LHS: eps0 max( max_m ||dt v^m||_mass, max_m a/sqrt(6) ||dx v^m||_diff_l2 ).
      RHS: sqrt(a^2 ||dx u0||_L2^2 + eps0^-2 ||u1||_L2^2) + 2 eps0^-1 ||f||_L21.
    """
    v0, u1h, fh = prepare_inputs(mesh, data, "v2", "node_samples")
    slices = evolve_grid(mesh, v0, u1h, fh).slices
    e0 = mesh.eps0
    lhs = float(np.max(energy_norm_pair(slices[:-1], slices[1:], mesh)))
    rhs = math.sqrt(mesh.a ** 2 * space_norm(v0, "stiffness", mesh) ** 2
                    + mass_inv_half_norm(u1h, mesh) ** 2 / e0 ** 2)
    if fh is not None:
        fh_norms = mass_inv_half_norm(fh, mesh).tolist()
        rhs += (fh_norms[0] * mesh.tau + 2.0 * mesh.tau * sum(fh_norms[1:])) / e0

    max_dt = float(np.max(space_norm(np.diff(slices, axis=0) / mesh.tau, "mass", mesh)))
    max_dx = float(np.max(space_norm(slices, "diff_l2", mesh)))
    lhs2 = e0 * max(max_dt, mesh.a / math.sqrt(6.0) * max_dx)
    rhs2 = math.sqrt(mesh.a ** 2 * profile_h01_norm(data.u0) ** 2
                     + profile_l2_norm(data.u1) ** 2 / e0 ** 2)
    if data.f is not None:
        rhs2 += 2.0 / e0 * forcing_l21_norm(data.f, mesh.T)
    return (lhs, rhs), (lhs2, rhs2)


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


def _write_summary(out_dir: Path, config: ExperimentConfig, extra: dict,
                   started: float, outputs: list[str]) -> Path:
    out_dir.mkdir(parents=True, exist_ok=True)
    summary = {
        "config": config.echo,
        "versions": {
            "wavecompact": __version__,
            "python": sys.version.split()[0],
            "numpy": np.__version__,
        },
        "wall_time_s": time.perf_counter() - started,
        "outputs": outputs,
        **extra,
    }
    try:
        import scipy
        summary["versions"]["scipy"] = scipy.version.version
    except Exception:
        pass
    path = out_dir / "run_summary.json"
    path.write_text(json.dumps(summary, indent=2, default=str))
    return path


def _resolve_jobs(config: ExperimentConfig) -> int:
    return max(1, config.jobs)


def _map_rungs(fn, payloads, jobs: int):
    if jobs > 1 and len(payloads) > 1:
        # no more workers than rungs: the pool may start all of them at once
        with ProcessPoolExecutor(max_workers=min(jobs, len(payloads))) as pool:
            return list(pool.map(fn, payloads))
    return [fn(p) for p in payloads]


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


def _resolve_data(config: ExperimentConfig, mesh: MeshSpec) -> DataSpec:
    if config.harmonic is not None:
        return harmonic_dataspec(config.harmonic, mesh)
    if config.preset is not None:
        if config.preset not in PRESETS:
            raise ConfigurationError(
                f"unknown preset {config.preset!r}; available: {sorted(PRESETS)}")
        return PRESETS[config.preset].make(mesh.X)
    return config.data


def _reference_for(config: ExperimentConfig, mesh: MeshSpec, data: DataSpec,
                   required: bool = True):
    """Exact-solution reference for the configured data, or None.

    Harmonic data has a closed form; anything else gets a folded series
    reference, which exists only for zero forcing.
    """
    if config.harmonic is not None:
        return HarmonicReference(mesh, config.harmonic)
    if data.f is not None:
        if required:
            raise ConfigurationError(
                "no exact reference for forced non-harmonic data; use harmonic "
                "data or drop the forcing")
        return None
    return SeriesReference(mesh, data, n_modes=config.n_modes,
                           fold_groups=config.fold_groups)


def _converge_rung(payload) -> ErrorReport:
    config, mesh = payload
    data = _resolve_data(config, mesh)
    reference = _reference_for(config, mesh, data)
    run = evolve(mesh, data, variant=config.variant, v0_mode=config.v0_mode)
    report = measure_error(mesh, run.slices, reference, mode=config.mode)
    tail = getattr(reference, "tail_estimate", 0.0)
    gate = max(report.max_energy_error, report.max_dx_error)
    if gate > 0 and tail > config.tail_fraction * gate:
        raise ConfigurationError(
            f"reference truncation tail {tail:.3e} exceeds {config.tail_fraction:.0%} "
            f"of the measured error {gate:.3e}; increase fold_groups or n_modes")
    return report


def run_convergence(config: ExperimentConfig, emit: bool = True) -> ConvergenceResult:
    """Ladder study: error norms per rung, pairwise orders, fitted slope."""
    started = time.perf_counter()
    jobs = _resolve_jobs(config)
    reports = _map_rungs(_converge_rung, [(config, mesh) for mesh in config.rungs], jobs)
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
    drop = min(config.fit_drop_coarsest, len(rows) - 2)
    fit_rows = rows[max(drop, 0):]
    fit = fit_order([(r.h, r.err_energy) for r in fit_rows])
    result = ConvergenceResult(rows=rows, fitted_order=fit.slope,
                               fit_residual=fit.residual)
    if emit:
        out = config.out_dir
        csv_path = out / "converge.csv"
        _write_rows(csv_path, ConvergenceRow, rows)
        _write_summary(out, config,
                       {"fitted_order": fit.slope, "fit_residual": fit.residual},
                       started, [str(csv_path)])
    return result


# --------------------------------------------------------------------------
# solve

@dataclass(frozen=True)
class SolveResult:
    report: ErrorReport | None
    outputs: list[str]


def run_solve(config: ExperimentConfig, emit: bool = True) -> SolveResult:
    """Single run on the first rung; writes the trajectory and the error report."""
    started = time.perf_counter()
    mesh = config.rungs[0]
    data = _resolve_data(config, mesh)
    # the reference first: it names non-finite data before the stepper meets it
    reference = _reference_for(config, mesh, data, required=False)
    run = evolve(mesh, data, variant=config.variant, v0_mode=config.v0_mode)
    report = None
    if reference is not None:
        report = measure_error(mesh, run.slices, reference, mode=config.mode)
    outputs: list[str] = []
    if emit:
        out = config.out_dir
        out.mkdir(parents=True, exist_ok=True)
        npz_path = out / "trajectory.npz"
        np.savez_compressed(npz_path, x=mesh.nodes(), t=mesh.times(),
                            v=run.slices)
        outputs.append(str(npz_path))
        stride = max(1, mesh.M // max(1, config.decimate))
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
        _write_summary(out, config, extra, started, outputs)
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
    extrapolated_ratio: float    # Richardson-style limit of the l=0 ratios; nan if < 3 rungs


def _extrapolate_ratios(ratios: list[float]) -> float:
    """Aitken limit of the ratio sequence across the last three meshes.

    The measured/predicted ratio converges like 1 + c h^(1/5) with an unknown
    c; differencing three rungs eliminates it without assuming a constant.
    """
    if len(ratios) < 3:
        return float("nan")
    r1, r2, r3 = ratios[-3:]
    denom = (r3 - r2) - (r2 - r1)
    if abs(denom) < 1e-15:
        return r3
    return r3 - (r3 - r2) ** 2 / denom


def _sharpness_rung(payload):
    config, mesh = payload
    j = config.sharpness_j
    k_h = choose_k_h(config.alpha, mesh)
    kind = HarmonicData(j=j, k=k_h)
    data = harmonic_dataspec(kind, mesh)
    reference = HarmonicReference(mesh, kind)
    run = evolve(mesh, data, variant=config.variant, v0_mode=config.v0_mode)
    report = measure_error(mesh, run.slices, reference, mode="node_sampled")
    rows = []
    for l, measured in ((0, report.l1_spacetime_error), (1, report.l1_spacetime_dx_error)):
        predicted = sharpness_prediction(j, l, k_h, mesh.T * mesh.a * math.pi / mesh.X)
        rows.append(SharpnessRow(N=mesh.N, k_h=k_h, measured=measured,
                                 predicted=predicted, ratio=measured / predicted))
    return rows


def run_sharpness(config: ExperimentConfig, emit: bool = True) -> SharpnessResult:
    """Measured vs predicted space-time L1 error norms at the selected modes."""
    started = time.perf_counter()
    jobs = _resolve_jobs(config)
    pairs = _map_rungs(_sharpness_rung, [(config, mesh) for mesh in config.rungs], jobs)
    rows = [p[0] for p in pairs]
    rows_dx = [p[1] for p in pairs]
    trend = [r.ratio for r in rows]
    result = SharpnessResult(rows=rows, rows_dx=rows_dx, j=config.sharpness_j,
                             extrapolated_ratio=_extrapolate_ratios(trend))
    if emit:
        out = config.out_dir
        paths = []
        for name, block in (("sharpness.csv", rows), ("sharpness_dx.csv", rows_dx)):
            path = out / name
            _write_rows(path, SharpnessRow, block)
            paths.append(str(path))
        _write_summary(out, config,
                       {"ratios": trend, "j": config.sharpness_j,
                        "extrapolated_ratio": result.extrapolated_ratio},
                       started, paths)
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
    """Max relative deviation of the stepper from the closed-form solution."""
    started = time.perf_counter()
    kind = config.harmonic
    variants = U1_VARIANTS if config.variant == "all" else (config.variant,)
    rows = []
    for mesh in config.rungs:
        data = harmonic_dataspec(kind, mesh)
        for variant in variants:
            run = evolve(mesh, data, variant=variant, v0_mode=config.v0_mode)
            closed = discrete_harmonic_trajectory(kind, mesh, variant)
            scale = max(1.0, float(np.max(np.abs(closed))))
            dev = float(np.max(np.abs(run.slices - closed))) / scale
            rows.append(OracleCheckRow(N=mesh.N, M=mesh.M, variant=variant,
                                       deviation=dev, passed=dev <= ORACLE_TOLERANCE))
    if emit:
        out = config.out_dir
        path = out / "oracle_check.csv"
        _write_rows(path, OracleCheckRow, rows)
        _write_summary(out, config, {"all_passed": all(r.passed for r in rows)},
                       started, [str(path)])
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
    """Randomized numerical verification of the energy inequalities."""
    started = time.perf_counter()
    rng = np.random.default_rng(config.seed)
    rows: list[StabilityProbeRow] = []
    for mesh in config.rungs:
        for _ in range(config.n_random):
            data = random_dataspec(rng, mesh.X)
            sides = stability_bound_sides(mesh, data)
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
        out = config.out_dir
        path = out / "stability.csv"
        _write_rows(path, StabilityProbeRow, rows)
        _write_summary(out, config,
                       {"violations": sum(not r.passed for r in rows)},
                       started, [str(path)])
    return rows
