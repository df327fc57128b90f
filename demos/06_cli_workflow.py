"""The command-line workflow: config file in, CSV and JSON out.

Experiments are driven by a single JSON config.  This script writes one,
invokes the CLI in-process (identical to `wavecompact converge --config ...`),
and reads back the emitted files.  Exit codes: 0 success, 2 stability or
coarseness violation, 3 malformed config.
"""

import json
import math
import sys
import tempfile
from pathlib import Path

from wavecompact.cli import main

tmp = tempfile.TemporaryDirectory(prefix="wavecompact_demo_")
workdir = Path(tmp.name)
out_dir = workdir / "out"

config = {
    "kind": "converge",
    "mesh": {"X": math.pi, "T": math.pi, "N": 16, "M": 32, "refinements": 2},
    "data": {"harmonic": {"j": 1, "k": 1}},
    "variant": "v2",
    "mode": "node_sampled",
    "out_dir": str(out_dir),
}
config_path = workdir / "converge.json"
config_path.write_text(json.dumps(config, indent=2))
print(f"wrote {config_path}\n", flush=True)

code = main(["converge", "--config", str(config_path)])
print(f"\nexit code: {code}\n")

print("converge.csv:")
print((out_dir / "converge.csv").read_text())

summary = json.loads((out_dir / "run_summary.json").read_text())
print(f"run summary: fitted_order={summary['fitted_order']:.3f}, "
      f"wall_time={summary['wall_time_s']:.2f}s, "
      f"versions={summary['versions']}")

# a deliberately unstable mesh is refused with exit code 2
bad = dict(config, mesh={"X": 1.0, "T": 1.0, "N": 10, "M": 10, "refinements": 2})
bad_path = workdir / "unstable.json"
bad_path.write_text(json.dumps(bad))
sys.stdout.flush()
print(f"\nunstable config exit code: {main(['converge', '--config', str(bad_path)])}")
tmp.cleanup()
