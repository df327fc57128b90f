"""Benchmark of the wavecompact experiment runners on three fixed workloads.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run it from the root of a source checkout: the package is imported from
./src, and nothing else is needed.  Each pass calls the public entry point,
wavecompact.cli.main, once per job of the workload, with a JSON config
written by the benchmark, --jobs 1 and a temporary --out directory, all in
the process running this script.  Passes run back to back (one closed-loop
client) until --seconds have passed, and at least MIN_PASSES times.  After
each pass its CSV output is read back and checked; a failed pass is counted
and never timed.

--trace 0 measures the end-to-end metrics with tracing off.  Times are
normalized for host speed: a fixed numpy kernel (host_kernel) is timed
before every pass, and the median pass time is rescaled to a host on which
that kernel takes REFERENCE_S.  On a shared host, slow phases last as long
as a run; the raw pass times, printed as context, then mostly measure the
neighbours.  --trace 1
alternates untraced passes with passes traced by tracer.Tracer and reports
the per-layer metrics.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics; the metric names and
units are those of BENCHMARK.json.  The exit code is 0 only when every pass
was correct.  --workload all runs every workload in a fresh process each and
prints every metric per workload.

BLAS/OpenMP thread counts are pinned to 1 and WAVECOMPACT_JOBS is ignored.
Temporary files go to .perfbench_work/ in the checkout and are removed at exit.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("WAVECOMPACT_JOBS", None)

import argparse
import contextlib
import csv
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

from workloads import WORKLOADS, Job, Workload

SCRIPT = Path(__file__).resolve()
ROOT = SCRIPT.parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

MIN_PASSES = 3
#: fresh processes timed for setup_s; the median is reported
SETUP_PROBES = 7
#: the traced passes' self times must cover the pass time within this share
COVER_TOLERANCE = 0.05
COUNT_SUFFIXES = ("_calls", "_misses")
#: host_kernel seconds of the reference host, near the median on a shared
#: 2-vCPU 2.1 GHz Xeon VM; the scale of every normalized time
REFERENCE_S = {"large": 0.025, "small": 0.015}


def require_sources() -> Path:
    """The package directory under ./src; exit 2 when it is not there."""
    package = SRC / "wavecompact"
    if not (package / "__init__.py").is_file():
        print(f"perfbench: no wavecompact package under {SRC}; run from the root "
              f"of a source checkout", file=sys.stderr)
        sys.exit(2)
    return package


def import_program():
    """Import wavecompact from ./src, never from an installed copy."""
    package = require_sources()
    sys.path.insert(0, str(SRC))
    import wavecompact.cli
    if Path(wavecompact.cli.__file__).resolve().parent != package.resolve():
        print(f"perfbench: imported wavecompact from {wavecompact.cli.__file__}, "
              f"not from {package}", file=sys.stderr)
        sys.exit(2)
    return wavecompact.cli


# --------------------------------------------------------------------------
# one pass

def run_pass(cli, jobs: list[Job], gate, workdir: Path, tracer=None):
    """Run the jobs through the CLI; return (seconds, failure reason or None).

    Only the CLI calls are timed (and traced); configs are written before and
    the outputs are checked after.
    """
    argvs = []
    for i, job in enumerate(jobs):
        out = workdir / f"out{i}"
        shutil.rmtree(out, ignore_errors=True)  # a stale CSV must not pass the gate
        cfg = workdir / f"job{i}.json"
        cfg.write_text(json.dumps(job.config))
        argvs.append([job.command, "--config", str(cfg), "--out", str(out), "--jobs", "1"])
    sink = io.StringIO()
    traced = tracer.installed() if tracer is not None else contextlib.nullcontext()
    codes = []
    t0 = perf_counter()
    try:
        with traced, contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            for argv in argvs:
                codes.append(cli.main(argv))
    except Exception as exc:  # an error escaping the CLI fails the pass
        return perf_counter() - t0, f"{type(exc).__name__}: {exc}"
    seconds = perf_counter() - t0
    for job, code, i in zip(jobs, codes, range(len(jobs))):
        if code != 0:
            return seconds, f"{job.command} exited {code}: {sink.getvalue().strip()[-300:]}"
        if gate is not None:
            try:
                why = gate(job, workdir / f"out{i}")
            except (OSError, ValueError, KeyError) as exc:
                why = f"unreadable output: {type(exc).__name__}: {exc}"
            if why:
                return seconds, f"{job.command} job {i}: {why}"
    return seconds, None


def host_kernel(kind: str) -> float:
    """Seconds of a fixed numpy kernel that calls nothing of wavecompact.

    "large" is array work on 2^18 values, like the ladders' big meshes;
    "small" is a Python loop of three-point stencils on 65 values, like the
    probe's tiny meshes.  Timed between passes, it measures the host's
    current speed for that kind of work.
    """
    import numpy as np
    rng = np.random.default_rng(0)
    if kind == "large":
        a = rng.standard_normal(1 << 18)
        t0 = perf_counter()
        for _ in range(3):
            np.sort(a)
            np.cumsum(np.sin(a))
        return perf_counter() - t0
    x = rng.standard_normal(65)
    t0 = perf_counter()
    for _ in range(1500):
        y = np.zeros_like(x)
        y[1:-1] = (x[:-2] - 2.0 * x[1:-1] + x[2:]) * 0.5
        float(np.max(np.abs(y)))
    return perf_counter() - t0


def normalized(seconds: float, kind: str, kernel_s: float) -> float:
    """Seconds rescaled to a host on which host_kernel(kind) takes REFERENCE_S."""
    return seconds * REFERENCE_S[kind] / kernel_s


# --------------------------------------------------------------------------
# set-up

def setup_probe(workload: Workload, workdir: Path) -> dict:
    """Body of one fresh set-up process: import, config load, cold extra."""
    t0 = perf_counter()
    cli = import_program()
    import_s = perf_counter() - t0
    paths = []
    for i, job in enumerate(workload.make_jobs(0)):
        paths.append(workdir / f"load{i}.json")
        paths[-1].write_text(json.dumps(job.config))
    from wavecompact.config import load_config
    t0 = perf_counter()
    for path in paths:
        load_config(path)
    config_s = perf_counter() - t0
    cold_s, why = run_pass(cli, list(workload.warmup), None, workdir)
    warm_s, why2 = run_pass(cli, list(workload.warmup), None, workdir)
    if why or why2:
        raise SystemExit(f"perfbench: warm-up pass failed: {why or why2}")
    kernel_s = min(host_kernel("small") for _ in range(3))
    return {"import_s": import_s, "config_s": config_s, "cold_s": cold_s,
            "warm_s": warm_s, "kernel_s": kernel_s}


def measure_setup(workload: Workload, workdir: Path) -> list[dict]:
    """Run SETUP_PROBES fresh processes one after another."""
    probes = []
    for k in range(SETUP_PROBES):
        probe_dir = workdir / f"setup{k}"
        probe_dir.mkdir()
        proc = subprocess.run(
            [sys.executable, str(SCRIPT), "--workload", workload.name,
             "--setup-probe", str(probe_dir)],
            capture_output=True, text=True, timeout=120, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise SystemExit(f"perfbench: set-up probe failed ({proc.returncode}): "
                             f"{proc.stderr.strip()[-500:]}")
        probes.append(json.loads(lines[-1]))
    return probes


def setup_seconds(probe: dict) -> float:
    """Import + config load + the extra cost of a cold warm-up pass, rescaled
    by the host speed the same process saw (imports are interpreter work)."""
    raw = probe["import_s"] + probe["config_s"] + max(0.0, probe["cold_s"] - probe["warm_s"])
    return normalized(raw, "small", probe["kernel_s"])


# --------------------------------------------------------------------------
# the measured loops

def keep_going(attempted: int, done: int, elapsed: float, seconds: float) -> bool:
    """Run for `seconds`, and on to MIN_PASSES good passes within 3 * seconds."""
    return (attempted == 0 or elapsed < seconds
            or (done < MIN_PASSES and elapsed < 3 * seconds))


def timed_loop(cli, workload: Workload, seed: int, seconds: float, workdir: Path):
    """Untraced passes, all on the inputs drawn from `seed`, each preceded
    by a host_kernel sample (and one more after the last).

    Returns the times of the good passes (of all passes if none was good),
    the kernel samples, the failure reasons and the number of passes attempted.
    """
    jobs = workload.make_jobs(seed)
    times, failed_times, kernel, failures = [], [], [], []
    start = perf_counter()
    n = 0
    while keep_going(n, len(times), perf_counter() - start, seconds):
        kernel.append(host_kernel(workload.kernel))
        dt, why = run_pass(cli, jobs, workload.gate, workdir)
        n += 1
        if why:
            failures.append(why)
            failed_times.append(dt)
        else:
            times.append(dt)
    kernel.append(host_kernel(workload.kernel))
    return times or failed_times, kernel, failures, n


def tail_to_gate(tails, out: Path, tail_fraction: float) -> float:
    """Largest SeriesReference tail over tail_fraction * measured error."""
    if not tails:
        return 0.0
    with (out / "converge.csv").open(newline="") as fh:
        gate = {int(r["N"]): max(float(r["err_energy"]), float(r["err_dx"]))
                for r in csv.DictReader(fh)}
    return max(tail / (tail_fraction * gate[n]) for n, tail in tails)


def traced_loop(cli, workload: Workload, seed: int, seconds: float, workdir: Path):
    """Traced passes alternating with untraced ones, all on the inputs drawn
    from `seed`, so every traced pass repeats the same calls."""
    from tracer import Tracer
    from wavecompact import operators

    def factor_misses() -> int:
        return (operators._implicit_factor.cache_info().misses
                + operators._mass_factor.cache_info().misses)

    tracer = Tracer()
    jobs = workload.make_jobs(seed)
    samples, untraced, failures = [], [], []
    first_counts = None
    extra = {}
    start = perf_counter()
    n = 0
    while keep_going(n, min(len(samples), len(untraced)), perf_counter() - start, seconds):
        traced = n % 2 == 0
        misses = factor_misses()
        tracer.reset()
        dt, why = run_pass(cli, jobs, workload.gate, workdir, tracer if traced else None)
        n += 1
        if why:
            failures.append(why)
            continue
        if not traced:
            untraced.append(dt)
            continue
        samples.append(tracer.pass_metrics(dt))
        if first_counts is None:
            first_counts = tracer.counts()
            extra["operators.factor_misses"] = factor_misses() - misses
            extra["reference.tail_to_gate"] = tail_to_gate(
                tracer.tails, workdir / "out0", jobs[0].config.get("tail_fraction", 0.01))
        elif tracer.counts() != first_counts:
            failures.append("span counts differ between passes on identical inputs")
    metrics = dict(extra)
    for name in samples[0] if samples else ():
        values = [s[name] for s in samples]
        metrics[name] = values[0] if name.endswith(COUNT_SUFFIXES) else statistics.median(values)
    if samples and untraced:
        metrics["trace.overhead_frac"] = metrics["trace.pass_s"] / statistics.median(untraced) - 1.0
        cover = metrics["trace.self_cover_frac"]
        if abs(cover - 1.0) > COVER_TOLERANCE:
            failures.append(f"layer self times cover {cover:.3f} of the traced pass time")
    return metrics, failures, n, {"traced_passes": len(samples), "untraced_passes": len(untraced)}


# --------------------------------------------------------------------------
# reporting

def context() -> dict:
    import numpy
    import scipy
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(), "cpu": cpu,
            "threads": os.environ["OMP_NUM_THREADS"]}


def spec_metrics(trace: bool) -> dict[str, str]:
    """name -> unit of the metrics BENCHMARK.json asks for in this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def report(workload: Workload, metrics: dict, units: dict, attempted: int,
           failures: list, samples: dict, ctx: dict) -> int:
    missing = sorted(set(units) - set(metrics))
    if missing:
        raise SystemExit(f"perfbench: metrics not measured: {missing}")
    print(f"perfbench context {json.dumps(ctx)}")
    for why in failures:
        print(f"FAILED PASS {workload.name}: {why}")
    for name, unit in units.items():
        n = samples.get(name, samples["default"])
        print(f"{workload.name} {name} = {metrics[name]:.6g} {unit} (n={n})")
    print(f"{workload.name} fail_frac = {len(failures) / attempted:.6g} (n={attempted})")
    result = {"correct": not failures, "attempted": attempted, "failed": len(failures),
              "metrics": {name: {"value": metrics[name], "unit": unit}
                          for name, unit in units.items()}}
    print(json.dumps(result), flush=True)
    return 0 if not failures else 1


def run_workload(args) -> int:
    workload = WORKLOADS[args.workload]
    units = spec_metrics(args.trace == 1)
    cli = import_program()
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=WORK))
    try:
        _, why = run_pass(cli, list(workload.warmup), None, workdir)
        if why:
            raise SystemExit(f"perfbench: warm-up pass failed: {why}")
        ctx = context()
        if args.trace:
            metrics, failures, attempted, counts = traced_loop(
                cli, workload, args.seed, args.seconds, workdir)
            samples = {"default": counts["traced_passes"]}
            ctx.update(counts)
        else:
            times, kernel, failures, attempted = timed_loop(
                cli, workload, args.seed, args.seconds, workdir)
            setup = measure_setup(workload, workdir)
            wall = normalized(statistics.median(times), workload.kernel,
                              statistics.median(kernel))
            metrics = {
                "wall_s": wall,
                "points_per_s": workload.points() / wall,
                "setup_s": statistics.median(setup_seconds(p) for p in setup),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            samples = {"default": len(times), "setup_s": len(setup), "peak_rss_mb": 1}
            ctx.update({"pass_s": times, "pass_s_median": statistics.median(times),
                        "host_kernel": workload.kernel, "host_kernel_s": kernel,
                        "points_per_pass": workload.points(), "setup_probes": setup,
                        "fail_frac": len(failures) / attempted})
        ctx["workload"] = {"name": workload.name, "seed": args.seed, "why": workload.why}
        return report(workload, metrics, units, attempted, failures, samples, ctx)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()


def run_all(args) -> int:
    """Every workload in a fresh process; exit 1 if any pass failed anywhere."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(SCRIPT), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, cwd=ROOT, timeout=900)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(proc.stderr)
        worst = max(worst, proc.returncode)
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            merged["correct"] = False
            continue
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(merged), flush=True)
    return 0 if merged["correct"] and worst == 0 else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe is not None:
        print(json.dumps(setup_probe(WORKLOADS[args.workload], args.setup_probe)))
        return 0
    require_sources()
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
