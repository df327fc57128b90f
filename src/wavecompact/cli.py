"""Command-line driver.

    wavecompact <solve|converge|sharpness|oracle-check|stability-probe>
                --config PATH [--out DIR] [--jobs INT]

Exit codes: 0 success, 2 stability or coarseness violation (the violated
inequality is printed), 3 configuration error, 1 failed checks, a violated
internal invariant or unexpected errors.  An InvariantError, such as a step
whose defining-equation residual exceeds its bound, is printed on stderr as
"invariant violated: ..." naming the level and the mesh, without a traceback.
--jobs (default 1) is the number of parallel rung workers of converge and
sharpness; below 1, or above 1 for another subcommand, it is a configuration
error, as is an output directory that is a file or inside one.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import experiments
from .config import KINDS, load_config
from .errors import (ConfigurationError, InvariantError, MeshTooCoarseError,
                     UnstableMeshError)


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="wavecompact",
                                     description="Compact fourth-order wave-equation experiments")
    parser.add_argument("command", choices=[kind.replace("_", "-") for kind in KINDS])
    parser.add_argument("--config", type=Path, required=True,
                        help="path to the JSON experiment config")
    parser.add_argument("--out", type=Path, default=None,
                        help="output directory (overrides the config)")
    parser.add_argument("--jobs", type=int, default=1,
                        help="parallel rung workers of converge and sharpness (default 1)")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        config = load_config(args.config)
        kind = args.command.replace("-", "_")
        if config.kind != kind:
            raise ConfigurationError(
                f"config kind {config.kind!r} does not match subcommand {args.command!r}")
        if args.out is not None:
            config.out_dir = args.out
        if args.jobs < 1:
            raise ConfigurationError(f"--jobs must be an integer >= 1, got {args.jobs}")
        if args.jobs > 1 and kind not in ("converge", "sharpness"):
            raise ConfigurationError(f"--jobs {args.jobs} is not read by {args.command}: only "
                                     "converge and sharpness run rungs in parallel")
        config.jobs = args.jobs

        if kind == "solve":
            result = experiments.run_solve(config)
            if result.report is not None:
                print(f"max energy error {result.report.max_energy_error:.6e}")
            for path in result.outputs:
                print(f"wrote {path}")
            return 0
        if kind == "converge":
            result = experiments.run_convergence(config)
            for row in result.rows:
                print(f"N={row.N:6d} h={row.h:.6e} err_energy={row.err_energy:.6e} "
                      f"order={row.order_energy:.3f}")
            print(f"fitted order {result.fitted_order:.4f} "
                  f"(residual {result.fit_residual:.2e})")
            return 0
        if kind == "sharpness":
            result = experiments.run_sharpness(config)
            for row in result.rows:
                print(f"N={row.N:6d} k_h={row.k_h:5d} measured={row.measured:.6e} "
                      f"predicted={row.predicted:.6e} ratio={row.ratio:.4f}")
            return 0
        if kind == "oracle_check":
            rows = experiments.run_oracle_check(config)
            for row in rows:
                status = "pass" if row.passed else "FAIL"
                print(f"N={row.N:6d} M={row.M:6d} variant={row.variant} "
                      f"deviation={row.deviation:.3e} {status}")
            return 0 if all(r.passed for r in rows) else 1
        rows = experiments.run_stability_probe(config)
        bad = [r for r in rows if not r.passed]
        print(f"{len(rows)} inequality checks, {len(bad)} violations")
        for row in bad:
            print(f"VIOLATED {row.check} on N={row.N}: lhs={row.lhs!r} rhs={row.rhs!r}")
        return 0 if not bad else 1
    except (UnstableMeshError, MeshTooCoarseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 3
    except InvariantError as exc:
        print(f"invariant violated: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
