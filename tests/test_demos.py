"""The demo scripts run to completion and leave no temporary files behind."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_every_demo_runs_and_cleans_up(tmp_path):
    assert len(DEMOS) == 6
    tmp = tmp_path / "tmp"
    tmp.mkdir()
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), TMPDIR=str(tmp))
    # concurrently: each demo spends much of its time importing numpy and scipy
    procs = [subprocess.Popen([sys.executable, str(demo)], env=env, cwd=tmp_path,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
             for demo in DEMOS]
    failed = {}
    try:
        for demo, proc in zip(DEMOS, procs):
            _, err = proc.communicate(timeout=120)
            if proc.returncode != 0:
                failed[demo.name] = err[-2000:]
    finally:
        for proc in procs:
            proc.kill()  # a no-op on a process that has exited
            proc.wait()
    assert not failed
    assert list(tmp.iterdir()) == []
