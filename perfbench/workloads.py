"""The benchmark's fixed workloads: configs, work counts and correctness gates.

A workload is a list of jobs; one job is one ``wavecompact`` CLI invocation
(subcommand plus a JSON config).  One pass runs every job of the workload
once, and counts only if every job exits 0 and every output CSV passes the
workload's gate.  This module imports nothing from numpy or wavecompact, so
the set-up probe can time those imports itself.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

PI = math.pi

#: order window of the acceptance-3 hat_step ladder
ROUGH_ORDER = (0.4, 0.1)
#: acceptance-4 band for the finest l = 0 sharpness ratio
SHARP_BAND = (0.75, 1.25)
#: slack of the stability inequalities, as in experiments.STABILITY_SLACK
STABILITY_SLACK = 1e-11


@dataclass(frozen=True)
class Job:
    command: str      # CLI subcommand
    config: dict      # JSON config written for it
    csv_name: str     # the output file the gate reads
    evolves_per_rung: int = 1  # scheme.evolve calls per ladder rung

    def rungs(self) -> list[tuple[int, int]]:
        mesh = self.config["mesh"]
        if "rungs" in mesh:
            return [(int(n), int(m)) for n, m in mesh["rungs"]]
        r = mesh.get("refinements", 0)
        return [(mesh["N"] * 2 ** i, mesh["M"] * 2 ** i) for i in range(r + 1)]

    def points(self) -> int:
        """Space-time points stepped: sum over evolve calls of (N - 1) * M."""
        return sum((n - 1) * m for n, m in self.rungs()) * self.evolves_per_rung


def _ladder(n: int, m: int, refinements: int) -> dict:
    return {"X": PI, "T": PI, "N": n, "M": m, "refinements": refinements}


def _rough(mesh: dict) -> Job:
    return Job("converge", {
        "kind": "converge", "mesh": mesh, "data": {"preset": "hat_step"},
        "variant": "v2", "mode": "q2h_filtered", "fit_drop_coarsest": 0,
        "tail_fraction": 0.01}, "converge.csv")


def _sharp(mesh: dict, j: int) -> Job:
    return Job("sharpness", {
        "kind": "sharpness", "mesh": mesh, "data": {"harmonic": {"j": j}},
        "alpha": 2.0, "mode": "node_sampled"}, "sharpness.csv")


def _probe(rungs: list, seed: int, n_random: int, n_pairs: int) -> Job:
    return Job("stability-probe", {
        "kind": "stability_probe", "mesh": {"X": PI, "T": PI, "rungs": rungs},
        "seed": seed, "n_random": n_random, "n_pairs": n_pairs},
        "stability.csv", evolves_per_rung=2 * n_random)


# -- gates: each returns None when the outputs are right, else the reason --

def _read(path: Path) -> list[dict]:
    with path.open(newline="") as fh:
        return list(csv.DictReader(fh))


def _num(text: str) -> float:
    """A CSV number; the probe writes numpy scalars by repr, as np.float64(x)."""
    return float(text.removeprefix("np.float64(").removesuffix(")"))


def _slope(xs: list[float], ys: list[float]) -> float:
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    return (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
            / sum((x - mx) ** 2 for x in xs))


def _expect_ns(rows: list[dict], job: Job) -> str | None:
    got = [int(r["N"]) for r in rows]
    want = [n for n, _ in job.rungs()]
    return None if got == want else f"rungs N={got}, expected {want}"


def check_rough(job: Job, out: Path) -> str | None:
    rows = _read(out / job.csv_name)
    bad = _expect_ns(rows, job)
    if bad:
        return bad
    errs = [float(r["err_energy"]) for r in rows]
    if not all(math.isfinite(e) and e > 0 for e in errs):
        return f"energy errors not finite and positive: {errs}"
    order = _slope([math.log(float(r["h"])) for r in rows], [math.log(e) for e in errs])
    target, tol = ROUGH_ORDER
    if abs(order - target) > tol:
        return f"fitted order {order:.4f} outside {target} +- {tol}"
    return None


def check_sharp(job: Job, out: Path) -> str | None:
    rows = _read(out / job.csv_name)
    bad = _expect_ns(rows, job)
    if bad:
        return bad
    ratios = [float(r["ratio"]) for r in rows]
    if not all(abs(1 - b) <= abs(1 - a) + 1e-12 for a, b in zip(ratios, ratios[1:])):
        return f"ratios {ratios} do not approach 1 monotonically"
    lo, hi = SHARP_BAND
    if not lo <= ratios[-1] <= hi:
        return f"final ratio {ratios[-1]:.4f} outside [{lo}, {hi}]"
    return None


def check_probe(job: Job, out: Path) -> str | None:
    rows = _read(out / job.csv_name)
    cfg = job.config
    want = len(job.rungs()) * 2 * (cfg["n_random"] + cfg["n_pairs"])
    if len(rows) != want:
        return f"{len(rows)} inequality rows, expected {want}"
    violations = 0
    for r in rows:
        lhs, rhs, margin = _num(r["lhs"]), _num(r["rhs"]), _num(r["margin"])
        if r["check"].startswith("lower_bound"):
            holds = margin >= -STABILITY_SLACK
        else:
            holds = lhs <= rhs + STABILITY_SLACK * max(1.0, abs(rhs))
        if not holds or r["passed"] != "True":
            violations += 1
    return f"{violations} stability violations" if violations else None


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    make_jobs: Callable[[int], list[Job]]  # --seed -> the jobs of one pass
    warmup: tuple[Job, ...]  # small meshes that no full pass uses, so a warm-up
                             # fills lazy imports but none of the factor caches
    gate: Callable[[Job, Path], str | None]
    kernel: str  # the host-speed kernel whose work resembles the passes'

    def points(self) -> int:
        return sum(job.points() for job in self.make_jobs(0))


WORKLOADS = {w.name: w for w in (
    Workload(
        "rough_ladder",
        "acceptance-3 hat_step ladder N=128..1024, q2h_filtered: the folded "
        "SeriesReference build dominates; largest memory peak",
        lambda seed: [_rough(_ladder(128, 256, 3))],
        (_rough(_ladder(16, 32, 2)),),
        check_rough, "large"),
    Workload(
        "sharp_ladder",
        "acceptance-4 sharpness ladders j=0,1,2, N=512..2048, node_sampled: "
        "stepping and energy-norm measurement, closed-form reference",
        lambda seed: [_sharp(_ladder(512, 1024, 2), j) for j in (0, 1, 2)],
        tuple(_sharp(_ladder(64, 128, 0), j) for j in (0, 1, 2)),
        check_sharp, "large"),
    Workload(
        "stability_probe",
        "acceptance-5 probe, N=16,32,64, 20 forced random data sets and 100 "
        "pairs per mesh: thousands of tiny calls, per-call overhead",
        lambda seed: [_probe([[16, 32], [32, 64], [64, 128]], seed, 20, 100)],
        (_probe([[8, 16]], 0, 2, 2),),
        check_probe, "small"),
)}
