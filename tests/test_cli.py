"""Command-line interface: subcommands, exit codes, output files."""

import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from wavecompact.cli import main
from wavecompact.config import config_from_dict
from wavecompact.reference import dalembert_reference

from _alarm import alarm

SRC = Path(__file__).resolve().parent.parent / "src"


def _write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


def _mesh(n=16, m=None, **kw):
    cfg = {"X": math.pi, "T": math.pi, "N": n, "M": m if m is not None else 2 * n}
    cfg.update(kw)
    return cfg


def test_solve_succeeds_and_writes_outputs(tmp_path, capsys):
    cfg = _write_config(tmp_path, {
        "kind": "solve",
        "mesh": _mesh(16),
        "data": {"harmonic": {"j": 1, "k": 1}},
        "out_dir": str(tmp_path / "out"),
    })
    assert main(["solve", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "max energy error" in out
    assert (tmp_path / "out" / "trajectory.npz").exists()
    assert (tmp_path / "out" / "run_summary.json").exists()


def test_residual_violation_exits_1_without_traceback(tmp_path, capsys, monkeypatch):
    # the residual bound is read when the run starts: at 0 every step with a
    # rounding error fails, and the message names the level and the mesh
    import wavecompact.scheme as scheme
    monkeypatch.setattr(scheme, "RESIDUAL_RTOL", 0.0)
    cfg = _write_config(tmp_path, {
        "kind": "solve",
        "mesh": _mesh(8),
        "data": {"harmonic": {"j": 1, "k": 1}},
        "out_dir": str(tmp_path / "out"),
    })
    assert main(["solve", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("invariant violated: defining-equation residual")
    assert re.search(r"of the step to level \d+ on the N=8, M=16 mesh exceeds 0e\+00", err)
    assert "Traceback" not in err


def test_unstable_mesh_exits_2_without_outputs(tmp_path, capsys):
    cfg = _write_config(tmp_path, {
        "kind": "solve",
        "mesh": {"X": 1.0, "T": 1.0, "N": 10, "M": 10},
        "data": None,
        "out_dir": str(tmp_path / "out"),
    })
    assert main(["solve", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "tau" in err  # the violated inequality is printed
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [["oracle_check"], ["frob"], ["solve", "converge"], []],
                         ids=["underscore", "unknown", "two_commands", "none"])
def test_a_command_line_that_names_no_one_command_exits_2(tmp_path, capsys, argv):
    # argparse refuses it before the config is read, naming the commands
    cfg = _write_config(tmp_path, {"kind": "solve", "mesh": _mesh(8)})
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--config", str(cfg)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: wavecompact") and "error:" in err
    assert not (tmp_path / "out").exists()


def test_config_parse_failure_exits_3(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["solve", "--config", str(bad)]) == 3
    missing = tmp_path / "missing.json"
    assert main(["solve", "--config", str(missing)]) == 3
    wrong_kind = _write_config(tmp_path, {
        "kind": "converge",
        "mesh": _mesh(8, refinements=2),
        "data": {"harmonic": {"j": 1, "k": 1}},
    }, name="wrong.json")
    assert main(["solve", "--config", str(wrong_kind)]) == 3


def test_integer_literal_of_too_many_digits_exits_3(tmp_path, capsys):
    # json.loads refuses an integer of more than 4300 digits with a plain
    # ValueError; json.dumps cannot write one, so the text is written raw
    path = tmp_path / "huge.json"
    path.write_text('{"kind": "solve", "mesh": {"X": 3.14, "T": 3.14, "N": 1'
                    + "0" * 5000 + ', "M": 32}, "data": {"harmonic": {"j": 1, "k": 1}}}')
    assert main(["solve", "--config", str(path)]) == 3
    err = capsys.readouterr().err
    assert f"config file {path} is not valid JSON" in err and "Traceback" not in err


def test_mesh_too_coarse_exits_2(tmp_path, capsys):
    cfg = _write_config(tmp_path, {
        "kind": "sharpness",
        "mesh": _mesh(4),
        "data": {"harmonic": {"j": 0}},
        "alpha": 2.0,
        "out_dir": str(tmp_path / "out"),
    })
    assert main(["sharpness", "--config", str(cfg)]) == 2
    assert "N >=" in capsys.readouterr().err


@pytest.mark.parametrize("alpha", [1e40, 1e300])
def test_alpha_beyond_every_mesh_exits_3_without_traceback(tmp_path, capsys, alpha):
    # no N <= MAX_CELLS resolves k_h (1e300: its root overflows on the way)
    cfg = _write_config(tmp_path, {"kind": "sharpness", "mesh": _mesh(16),
                                   "data": {"harmonic": {"j": 0}}, "alpha": alpha})
    assert main(["sharpness", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert f"configuration error: alpha = {alpha} puts k_h beyond N - 1" in err
    assert "Traceback" not in err


def test_a_mode_at_the_finest_n_is_refused_for_memory_at_once(tmp_path, capsys, monkeypatch):
    # k = 2^24 - 1 is one stored mode: the load reaches the memory count at once
    # (a dense series of k coefficients took seconds and hundreds of MB first)
    cfg = _write_config(tmp_path, {
        "kind": "converge", "mesh": _mesh(2 ** 22, refinements=2),
        "data": {"u0": {"form": "harmonic", "k": 2 ** 24 - 1}}})
    monkeypatch.setattr(os, "sysconf", lambda name: 2 ** 15)  # 1 GiB of memory
    started = time.perf_counter()
    code = main(["converge", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == 3 and time.perf_counter() - started < 0.5
    assert "bytes of arrays at once, more than the 1073741824 bytes" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_unresolvable_harmonic_k_exits_2_at_load(tmp_path, capsys):
    # refused at load, before any rung
    for kind in ("solve", "converge", "oracle_check"):
        cfg = _write_config(tmp_path, {
            "kind": kind, "mesh": _mesh(8, refinements=2),
            "data": {"harmonic": {"j": 1, "k": 10 ** 12}},
            "out_dir": str(tmp_path / "out"),
        })
        assert main([kind.replace("_", "-"), "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert f"mode index k = {10 ** 12} exceeds N - 1 = 31; N >= " in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("slot", ["u0", "u1", "f"])
def test_unresolvable_harmonic_profile_k_exits_2_at_load(tmp_path, capsys, slot):
    # a harmonic profile descriptor is refused at load, before any rung
    profile = {"form": "harmonic", "k": 10 ** 12}
    data = ({"f": {"space": profile, "time": {"form": "polynomial", "coeffs": [1.0]}}}
            if slot == "f" else {slot: profile})
    cfg = _write_config(tmp_path, {"kind": "solve", "mesh": _mesh(16), "data": data,
                                   "out_dir": str(tmp_path / "out")})
    assert main(["solve", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert f"mode index k = {10 ** 12} exceeds N - 1 = 15; N >= " in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("k, code", [(2 ** 52 - 1, 2), (2 ** 52, 3), (10 ** 30, 3), (10 ** 400, 3)],
                         ids=["2^52-1", "2^52", "1e30", "1e400"])
@pytest.mark.parametrize("where", ["harmonic", "profile"])
def test_harmonic_k_that_no_mesh_resolves_exits_3_at_load(tmp_path, capsys, where, k, code):
    # on N = 8, M = 16 the least N 2^e that resolves k = 2^52 - 1 is 2^52, with
    # M = 2^53 = MAX_CELLS: a finer mesh to name (exit 2); no mesh of N, M <=
    # MAX_CELLS resolves k = 2^52, nor a k past the float range (exit 3)
    data = ({"harmonic": {"j": 1, "k": k}} if where == "harmonic"
            else {"u0": {"form": "harmonic", "k": k}})
    cfg = _write_config(tmp_path, {"kind": "solve", "mesh": _mesh(8), "data": data,
                                   "out_dir": str(tmp_path / "out")})
    assert main(["solve", "--config", str(cfg)]) == code
    err = capsys.readouterr().err
    assert (f"mode index k = {k} exceeds N - 1 = 7; N >= {2 ** 52} suffices at the same tau/h"
            if code == 2 else f"configuration error: mode index k = {k} exceeds N - 1 on every "
            f"mesh of N, M <= {2 ** 53} at the tau/h of the N=8, M=16 mesh") in err
    assert "Traceback" not in err and not (tmp_path / "out").exists()


def test_harmonic_k_on_coarse_rungs_still_runs(tmp_path, capsys):
    # only the finest rung must resolve k: the N = 8 and 16 rungs still run
    cfg = _write_config(tmp_path, {
        "kind": "converge", "mesh": _mesh(8, refinements=2),
        "data": {"harmonic": {"j": 1, "k": 20}},
        "out_dir": str(tmp_path / "out"),
    })
    assert main(["converge", "--config", str(cfg)]) == 0
    rows = (tmp_path / "out" / "converge.csv").read_text().splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == ["8", "16", "32"]


def test_converge_prints_rows_and_fit(tmp_path, capsys):
    cfg = _write_config(tmp_path, {
        "kind": "converge",
        "mesh": _mesh(8, refinements=2),
        "data": {"harmonic": {"j": 1, "k": 1}},
        "out_dir": str(tmp_path / "out"),
    })
    assert main(["converge", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "fitted order" in out
    assert (tmp_path / "out" / "converge.csv").exists()


def test_oracle_check_command(tmp_path, capsys):
    cfg = _write_config(tmp_path, {
        "kind": "oracle_check",
        "mesh": _mesh(16),
        "data": {"harmonic": {"j": 2, "k": 2}},
        "out_dir": str(tmp_path / "out"),
    })
    assert main(["oracle-check", "--config", str(cfg)]) == 0
    assert "pass" in capsys.readouterr().out


def test_oracle_mode_above_the_mesh_exits_2_without_traceback(tmp_path, capsys):
    cfg = _write_config(tmp_path, {
        "kind": "oracle_check",
        "mesh": _mesh(16),
        "data": {"harmonic": {"j": 0, "k": 16}},
        "out_dir": str(tmp_path / "out"),
    })
    assert main(["oracle-check", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "k = 16" in err and "N - 1 = 15" in err and "N >= 32" in err
    assert "Traceback" not in err


_FORCED_PIECEWISE = {
    "u0": {"form": "piecewise", "breakpoints": [0, 1.0, math.pi], "pieces": [[0, 1], [1.0]]},
    "f": {"space": {"form": "piecewise", "breakpoints": [0, 2.0, math.pi],
                    "pieces": [[0.5, -1.0], [0.0, 0.0, 1.0]]},
          "time": {"form": "polynomial", "coeffs": [1.0, -0.5, 0.25]}}}


@pytest.mark.parametrize("data", [{"preset": "hat_step"}, _FORCED_PIECEWISE, None],
                         ids=["hat_step", "forced_piecewise_polynomial", "null"])
def test_oracle_check_of_any_data_passes_every_variant(tmp_path, capsys, data):
    # the stepper is compared with the closed-form scheme solution of the same
    # grid data, whatever the data section
    cfg = _write_config(tmp_path, {
        "kind": "oracle_check", "mesh": _mesh(16, refinements=1), "data": data,
        "variant": "all", "out_dir": str(tmp_path / "out")})
    assert main(["oracle-check", "--config", str(cfg)]) == 0
    header, *rows = (tmp_path / "out" / "oracle_check.csv").read_text().splitlines()
    assert header == "N,M,variant,deviation,passed" and len(rows) == 6
    assert all(row.endswith(",True") for row in rows)
    assert "FAIL" not in capsys.readouterr().out


def test_oracle_check_fails_a_stepper_off_by_1e_6(tmp_path, capsys, monkeypatch):
    # levels shifted after the stepper's residual check: the residual contract
    # passed them, the oracle comparison does not
    from wavecompact import scheme
    march = scheme._march

    def perturbed(*args):
        return ((first, levels + 1e-6) for first, levels in march(*args))

    monkeypatch.setattr(scheme, "_march", perturbed)
    cfg = _write_config(tmp_path, {
        "kind": "oracle_check", "mesh": _mesh(16), "data": {"preset": "hat_step"},
        "variant": "all", "out_dir": str(tmp_path / "out")})
    assert main(["oracle-check", "--config", str(cfg)]) == 1
    assert capsys.readouterr().out.count(" FAIL") == 3
    _, *rows = (tmp_path / "out" / "oracle_check.csv").read_text().splitlines()
    assert len(rows) == 3 and all(row.endswith(",False") for row in rows)


def test_zero_data_converge_exits_3_without_traceback(tmp_path, capsys):
    cfg = _write_config(tmp_path, {
        "kind": "converge",
        "mesh": _mesh(8, refinements=2),
        "data": None,
        "out_dir": str(tmp_path / "out"),
    })
    assert main(["converge", "--config", str(cfg)]) == 3
    err = capsys.readouterr().err
    assert "nonzero data" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_finite_sine_series_converge_exits_0(tmp_path, capsys):
    # descriptors, not the harmonic form: the reference is d'Alembert's formula,
    # exact for a finite series, which the old tail fit refused as unknown
    c0, c1 = np.array([0.5, 0.0, 0.2]), np.array([0.3, -0.1, 0.05])
    payload = {"kind": "converge", "mesh": _mesh(16, refinements=2),
               "data": {"u0": {"form": "sine_series", "coeffs": c0.tolist()},
                        "u1": {"form": "sine_series", "coeffs": c1.tolist()}},
               "out_dir": str(tmp_path / "out")}
    assert main(["converge", "--config", str(_write_config(tmp_path, payload))]) == 0
    assert "fitted order" in capsys.readouterr().out
    cfg = config_from_dict(payload)
    k = np.arange(1, 4)
    for mesh in cfg.rungs:
        # X = pi, a = 1: u = sum_k sqrt(2/pi) (c0_k cos kt + c1_k / k sin kt) sin kx
        times = np.cos(np.outer(mesh.times(), k)) * c0 + np.sin(np.outer(mesh.times(), k)) * c1 / k
        modes = math.sqrt(2 / math.pi) * times @ np.sin(np.outer(k, mesh.nodes()))
        modes[:, ::mesh.N] = 0.0
        np.testing.assert_allclose(dalembert_reference(mesh, cfg.data).values(slice(None)),
                                   modes, rtol=0, atol=1e-13)


_MODES = {"form": "sine_series", "coeffs": [0.3, 0.0, -0.2]}
_STEP = {"form": "piecewise", "breakpoints": [0.0, 1.5, math.pi], "pieces": [[1.0], [-1.0]]}


def test_forced_sine_series_converge_fits_fourth_order(tmp_path, capsys):
    # smooth forcing alone: the reference adds its Duhamel modes to zero data
    payload = {"kind": "converge", "mesh": _mesh(16, refinements=2),
               "data": {"f": {"space": _MODES, "time": {"form": "harmonic_sin", "omega": 0.5}}},
               "out_dir": str(tmp_path / "out")}
    assert main(["converge", "--config", str(_write_config(tmp_path, payload))]) == 0
    assert "fitted order" in capsys.readouterr().out
    summary = json.loads((tmp_path / "out" / "run_summary.json").read_text())
    assert abs(summary["fitted_order"] - 4.0) < 0.3


@pytest.mark.parametrize("space, time, factor", [
    (_STEP, {"form": "harmonic_sin", "omega": 0.5}, "piecewise space factor"),
    (_MODES, {"form": "polynomial", "coeffs": [1.0, -0.5]}, "polynomial time factor"),
], ids=["piecewise_space", "polynomial_time"])
def test_converge_of_forcing_without_exact_reference_exits_3(tmp_path, capsys, space, time,
                                                             factor):
    cfg = _write_config(tmp_path, {
        "kind": "converge", "mesh": _mesh(8, refinements=2),
        "data": {"f": {"space": space, "time": time}}, "out_dir": str(tmp_path / "out")})
    assert main(["converge", "--config", str(cfg)]) == 3
    err = capsys.readouterr().err
    assert f"no exact reference for forced data with a {factor}" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_converge_of_resonant_forcing_exits_3_naming_k(tmp_path, capsys):
    # X = a = 1: omega = 3 pi drives mode k = 3, whose coefficient is -0.2
    cfg = _write_config(tmp_path, {
        "kind": "converge", "mesh": {"X": 1.0, "T": 1.0, "N": 8, "M": 16, "refinements": 2},
        "data": {"f": {"space": _MODES, "time": {"form": "harmonic_sin", "omega": 3 * math.pi}}},
        "out_dir": str(tmp_path / "out")})
    assert main(["converge", "--config", str(cfg)]) == 3
    err = capsys.readouterr().err
    assert "no exact reference for forced data resonant with mode k = 3" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_stability_probe_command(tmp_path, capsys):
    cfg = _write_config(tmp_path, {
        "kind": "stability_probe",
        "mesh": _mesh(8),
        "n_random": 2,
        "n_pairs": 5,
        "out_dir": str(tmp_path / "out"),
    })
    assert main(["stability-probe", "--config", str(cfg)]) == 0
    assert "0 violations" in capsys.readouterr().out


def test_stability_probe_of_too_many_pairs_exits_3_at_load(tmp_path, capsys):
    # the load counts per pair its draws' and margins' 8 (N + 1) floats or, the
    # larger at N = 16, its two rows with their CSV cells, 2 * 1024 bytes
    from wavecompact.grid import build_mesh
    from wavecompact.scheme import level_bytes
    n_pairs = 10 ** 9
    cfg = _write_config(tmp_path, {"kind": "stability_probe", "mesh": _mesh(16),
                                   "n_pairs": n_pairs})
    assert main(["stability-probe", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 3
    held = (20 * level_bytes(build_mesh(math.pi, math.pi, 16, 32), True) + 2 ** 18
            + 2048 * n_pairs)
    err = capsys.readouterr().err
    assert f"the N=16, M=32 rung holds {held} bytes of arrays at once" in err
    assert "Traceback" not in err and not (tmp_path / "out").exists()


def test_out_flag_overrides_config(tmp_path):
    cfg = _write_config(tmp_path, {
        "kind": "solve",
        "mesh": _mesh(8),
        "data": None,
        "out_dir": str(tmp_path / "from_config"),
    })
    override = tmp_path / "from_flag"
    assert main(["solve", "--config", str(cfg), "--out", str(override)]) == 0
    assert override.exists()
    assert not (tmp_path / "from_config").exists()


@pytest.mark.parametrize("where", ["config", "flag", "parent"])
def test_out_dir_that_is_a_file_exits_3_before_any_rung(tmp_path, capsys, monkeypatch, where):
    import wavecompact.experiments as experiments
    monkeypatch.setattr(experiments, "_converge_rung", None)  # a rung run is a TypeError
    taken = tmp_path / "taken"
    taken.write_text("kept")
    out = taken / "out" if where == "parent" else taken
    cfg = _write_config(tmp_path, {
        "kind": "converge",
        "mesh": _mesh(8, refinements=2),
        "data": {"harmonic": {"j": 0, "k": 1}},
        "out_dir": str(tmp_path / "out" if where == "flag" else out),
    })
    flag = ["--out", str(out)] if where == "flag" else []
    assert main(["converge", "--config", str(cfg), *flag]) == 3
    err = capsys.readouterr().err
    assert f"out_dir {str(out)!r} is a file or inside one" in err and "Traceback" not in err
    assert taken.read_text() == "kept" and not (tmp_path / "out").exists()


_JOBS_CONFIGS = {
    "solve": {"kind": "solve", "mesh": _mesh(8), "data": {"harmonic": {"j": 0, "k": 1}}},
    "converge": {"kind": "converge", "mesh": _mesh(8, refinements=2),
                 "data": {"harmonic": {"j": 0, "k": 1}}},
    "sharpness": {"kind": "sharpness", "mesh": _mesh(16, refinements=1),
                  "data": {"harmonic": {"j": 0}}},
    "oracle-check": {"kind": "oracle_check", "mesh": _mesh(8),
                     "data": {"harmonic": {"j": 0, "k": 1}}},
    "stability-probe": {"kind": "stability_probe", "mesh": _mesh(8), "n_random": 2,
                        "n_pairs": 2},
}


@pytest.mark.parametrize("command, jobs, code", [
    ("solve", "1", 0), ("converge", "1", 0), ("sharpness", "1", 0), ("oracle-check", "1", 0),
    ("stability-probe", "1", 0), ("converge", "2", 3), ("converge", "0", 3),
    ("converge", "-2", 3), ("sharpness", "2", 3), ("solve", "2", 3), ("oracle-check", "2", 3),
    ("stability-probe", "4", 3)],
    ids=["solve-1-0", "converge-1-0", "sharpness-1-0", "oracle-check-1-0",
         "stability-probe-1-0", "converge-2-3", "0-3", "-2-3", "sharpness-2-3", "solve-2-3",
         "oracle-check-2-3", "stability-probe-4-3"])
def test_jobs_flag_runs_rungs_in_parallel_and_refuses_below_1(tmp_path, capsys, command, jobs,
                                                              code):
    # no run starts a worker process: --jobs 1, which the benchmark passes, runs
    # as no flag does, and any other value is refused, naming the flag
    out, plain = tmp_path / "out", tmp_path / "plain"
    cfg = _write_config(tmp_path, {**_JOBS_CONFIGS[command], "out_dir": str(out)})
    assert main([command, "--config", str(cfg), "--jobs", jobs]) == code
    printed, err = capsys.readouterr()
    if code:
        assert f"configuration error: --jobs {jobs} is not read" in err
        assert "Traceback" not in err and not out.exists()
        return
    assert main([command, "--config", str(cfg), "--out", str(plain)]) == 0
    assert capsys.readouterr().out == printed.replace(str(out), str(plain))
    names = sorted(path.name for path in out.iterdir())
    assert names == sorted(path.name for path in plain.iterdir())
    for name in names:  # the summary's timings and the npz's zip timestamps differ
        if name.endswith(".csv") or name == "error_report.json":
            assert (out / name).read_bytes() == (plain / name).read_bytes(), name


@pytest.mark.parametrize("what", ["directory", "not_utf8"])
def test_unreadable_config_path_exits_3(tmp_path, capsys, what):
    if what == "directory":
        path = tmp_path / "configs"
        path.mkdir()
    else:
        path = tmp_path / "latin1.json"
        path.write_bytes('{"kind": "solve", "out_dir": "\u00e9t\u00e9"}'.encode("latin-1"))
    assert main(["solve", "--config", str(path)]) == 3
    err = capsys.readouterr().err
    assert f"config file {path} cannot be read" in err and "Traceback" not in err


def test_non_finite_data_exits_3_without_traceback(tmp_path, capsys):
    cfg = _write_config(tmp_path, {
        "kind": "converge",
        "mesh": _mesh(8, refinements=2),
        "data": {"u0": {"form": "piecewise", "breakpoints": [0.0, math.pi],
                        "pieces": [[1e308]]}},
        "out_dir": str(tmp_path / "out"),
    })
    assert main(["converge", "--config", str(cfg)]) == 3
    err = capsys.readouterr().err
    assert "u0" in err and "not finite" in err and "Traceback" not in err
    assert "on the N=8, M=16 mesh" in err
    assert not (tmp_path / "out").exists()


def test_solve_non_finite_data_exits_3_without_traceback(tmp_path, capsys):
    cfg = _write_config(tmp_path, {
        "kind": "solve",
        "mesh": _mesh(8),
        "data": {"u0": {"form": "piecewise", "breakpoints": [0.0, math.pi],
                        "pieces": [[1e308]]}},
        "out_dir": str(tmp_path / "out"),
    })
    assert main(["solve", "--config", str(cfg)]) == 3
    err = capsys.readouterr().err
    assert "u0" in err and "not finite" in err and "Traceback" not in err
    assert "on the N=8, M=16 mesh" in err
    assert not (tmp_path / "out").exists()


_NO_SPACE_FORCING = {"u0": None, "u1": None,
                     "f": {"time": {"form": "polynomial", "coeffs": [1.0]}}}


@pytest.mark.parametrize("kind, key, edit", [
    ("solve", "mesh.N", {"mesh": _mesh(16, N="abc")}),
    ("solve", "mesh.N must be an integer >= 3", {"mesh": _mesh(2, m=1)}),
    ("solve", "mesh.rungs N must be an integer >= 3",
     {"mesh": {"X": math.pi, "T": 1.0, "rungs": [[2, 1]]}}),
    ("stability_probe", "n_pairs", {"n_pairs": "x"}),
    ("solve", "space", {"data": _NO_SPACE_FORCING}),
    ("solve", "decimate", {"decimate": 0}),
    ("solve", "mesh.X", {"mesh": _mesh(16, X="abc")}),
    ("solve", "mesh.X", {"mesh": _mesh(16, X=None)}),
    ("solve", "mesh.T", {"mesh": _mesh(16, T="abc")}),
    ("solve", "mesh.a", {"mesh": _mesh(16, a="fast")}),
    ("solve", "mesh.eps0", {"mesh": _mesh(16, eps0="x")}),
    ("solve", "needs M (or explicit rungs)", {"mesh": {"X": math.pi, "T": math.pi, "N": 16}}),
    ("sharpness", "alpha", {"alpha": "x", "data": {"harmonic": {"j": 0}}}),
    ("sharpness", "alpha", {"alpha": 0, "data": {"harmonic": {"j": 0}}}),
    ("sharpness", "alpha", {"alpha": -1, "data": {"harmonic": {"j": 0}}}),
    ("converge", "mesh.rungs", {"mesh": {"X": math.pi, "T": math.pi,
                                         "rungs": [[16, 32], [16, 32], [16, 32]]},
                                "data": {"preset": "hat_step"}}),
    ("converge", "fit_drop_coarsest", {"fit_drop_coarsest": "x"}),
    ("converge", "fit_drop_coarsest must be an integer >= 0", {"fit_drop_coarsest": -3}),
    ("stability_probe", "seed", {"seed": "x"}),
    ("stability_probe", "seed", {"seed": -1}),
    ("sharpness", "data.harmonic.j", {"data": {"harmonic": {"j": "x"}}}),
    ("solve", "data.harmonic.k", {"data": {"harmonic": {"j": 1, "k": "x"}}}),
    ("solve", "coeffs", {"data": {"u0": {"form": "sine_series", "coeffs": ["x"]}}}),
    ("solve", "breakpoints", {"data": {"u0": {"form": "piecewise", "breakpoints": [0, "a"],
                                              "pieces": [[1.0]]}}}),
    ("solve", "pieces", {"data": {"u0": {"form": "piecewise", "breakpoints": [0, math.pi],
                                         "pieces": [1]}}}),
    ("solve", "time", {"data": {"f": {"space": {"form": "harmonic", "k": 1}, "time": "x"}}}),
    ("solve", "data.f", {"data": {"f": "x"}}),
    ("solve", "polynomial time profile needs coefficients",
     {"data": {"f": {"space": {"form": "harmonic", "k": 1}, "time": {"form": "polynomial"}}}}),
    ("solve", "out_dir", {"out_dir": 5}),
    ("solve", "out_dir", {"out_dir": None}),
    ("solve", "breakpoints", {"data": {"u0": {"form": "piecewise", "breakpoints": [],
                                              "pieces": [[1.0]]}}}),
    ("solve", "pieces", {"data": {"u0": {"form": "piecewise", "breakpoints": [0, math.pi],
                                         "pieces": [[]]}}}),
    ("converge", "variant", {"variant": "all"}),
    ("solve", "variant", {"variant": 3}),
    ("converge", "mode", {"mode": None}),
    ("sharpness", "mode", {"mode": "q2h_filtered", "data": {"harmonic": {"j": 0}}}),
    # keys a runner does not read
    ("stability_probe", "data {'preset': 'hat_step'} is not read by stability_probe",
     {"data": {"preset": "hat_step"}}),
    ("stability_probe", "variant 'v1' is not read by stability_probe", {"variant": "v1"}),
    ("stability_probe", "mode 'q2h_filtered' is not read by stability_probe",
     {"mode": "q2h_filtered"}),
    ("oracle_check", "mode 'q2h_filtered' is not read by oracle_check",
     {"mode": "q2h_filtered", "data": {"harmonic": {"j": 0, "k": 3}}}),
    ("solve", "mesh.refinements gives 2 rungs", {"mesh": _mesh(16, refinements=1)}),
    ("solve", "mesh.rungs gives 2 rungs",
     {"mesh": {"X": math.pi, "T": math.pi, "rungs": [[16, 32], [32, 64]]}}),
    ("solve", "v0_mode", {"v0_mode": "x"}),
    ("solve", "v0_mode", {"v0_mode": "node_samples"}),
    ("solve", "node_convention", {"data": {"u0": {"form": "piecewise",
                                                  "breakpoints": [0, math.pi],
                                                  "pieces": [[1.0]], "node_convention": "mean"}}}),
    ("converge", "data.preset", {"data": {"preset": None}}),
    ("solve", "data.preset", {"data": {"preset": "nope"}}),
    # misspelled keys, at the top level and in mesh, name the nearest key
    ("converge", "unknown mesh key 'refinments'; did you mean 'refinements'?",
     {"mesh": _mesh(16, refinments=2), "data": {"preset": "hat_step"}}),
    ("stability_probe", "unknown config key 'seeed'; did you mean 'seed'?", {"seeed": 3}),
    # meshes beyond the float range: h^2, tau^2 or a^2 tau^2 overflows or underflows
    *[("solve", "X=1e+308, T=3.14", {"mesh": _mesh(16, X=1e308)}),
      ("solve", "T=1e+308, a=1.0, N=16, M=32", {"mesh": _mesh(16, T=1e308)}),
      ("solve", "a=1e+200, N=16", {"mesh": _mesh(16, a=1e200)}),
      ("solve", "a=1e-200, N=16", {"mesh": _mesh(16, a=1e-200)}),
      ("solve", "T=1e-320, a=1.0", {"mesh": _mesh(16, T=1e-320)}),
      ("solve", "X=1e-320, T=1e-300", {"mesh": _mesh(16, X=1e-320, T=1e-300)}),
      ("stability_probe", "M=32, eps0=1e-300 is beyond the float range",
       {"mesh": _mesh(16, eps0=1e-300)})],
    # cell counts a float cannot index
    ("solve", "mesh.N must be an integer >= 3 and <= 9007199254740992",
     {"mesh": _mesh(16, N=10 ** 400)}),
    ("solve", "mesh.M must be an integer >= 1 and <= 9007199254740992",
     {"mesh": _mesh(16, m=10 ** 400)}),
    ("solve", "mesh.rungs N must be an integer >= 3 and <= ",
     {"mesh": {"X": math.pi, "T": math.pi, "rungs": [[10 ** 400, 32]]}}),
    # misspelled keys inside data name the nearest key of their section
    ("solve", "unknown data key 'preest'; did you mean 'preset'?",
     {"data": {"preest": "hat_step"}}),
    ("solve", "unknown sine_series profile key 'coefs'; did you mean 'coeffs'?",
     {"data": {"u0": {"form": "sine_series", "coefs": [1.0]}}}),
    ("solve", "unknown piecewise profile key 'breakpoint'; did you mean 'breakpoints'?",
     {"data": {"u1": {"form": "piecewise", "breakpoints": [0, math.pi], "pieces": [[1.0]],
                      "breakpoint": [0, 1]}}}),
    ("solve", "unknown polynomial time profile key 'coef'; did you mean 'coeffs'?",
     {"data": {"f": {"space": {"form": "harmonic", "k": 1},
                     "time": {"form": "polynomial", "coeffs": [1.0], "coef": [2.0]}}}}),
    ("solve", "unknown data.f key 'tme'; did you mean 'time'?",
     {"data": {"f": {"space": {"form": "harmonic", "k": 1},
                     "time": {"form": "harmonic_sin", "omega": 1.5}, "tme": 1}}}),
    ("oracle_check", "unknown data.harmonic key 'kk'; did you mean 'k'?",
     {"data": {"harmonic": {"j": 0, "kk": 3}}}),
    # a data section is one of harmonic, preset or u0/u1/f
    ("solve", "the data section mixes harmonic and preset",
     {"data": {"harmonic": {"j": 0, "k": 3}, "preset": "hat_step"}}),
    ("solve", "the data section mixes preset and u0/u1/f",
     {"data": {"preset": "hat_step", "u1": {"form": "harmonic", "k": 2}}}),
    ("sharpness", "data.harmonic.k 7 is not read by sharpness runs",
     {"data": {"harmonic": {"j": 0, "k": 7}}}),
    # a harmonic profile's k is named as such, not as a sine_series mode
    *[("solve", f"profile k must be an integer >= 1, got {k}",
       {"data": {"u0": {"form": "harmonic", "k": k}}}) for k in (0, -3)],
], ids=["mesh_N", "mesh_N_2", "mesh_rungs_N_2",
        "n_pairs", "forcing_without_space", "decimate", "mesh_X",
        "mesh_X_null", "mesh_T", "mesh_a", "mesh_eps0", "mesh_M_missing", "alpha",
        "alpha_zero", "alpha_negative", "rungs_repeat_N",
        "fit_drop_coarsest", "fit_drop_coarsest_negative", "seed", "seed_negative",
        "harmonic_j", "harmonic_k", "profile_coeffs", "profile_breakpoints",
        "profile_pieces", "time_not_object", "forcing_not_object",
        "f_time_polynomial_empty", "out_dir_number",
        "out_dir_null", "profile_breakpoints_empty", "profile_piece_empty",
        "variant_all_on_converge", "variant_number", "mode_null", "sharpness_mode_filtered",
        "probe_data", "probe_variant", "probe_mode", "oracle_mode", "solve_refinements",
        "solve_rungs",
        "v0_mode_unknown",
        "v0_mode_set", "profile_node_convention",
        "preset_null", "preset_unknown", "mesh_key_misspelled", "key_misspelled",
        "mesh_X_huge", "mesh_T_huge", "mesh_a_huge", "mesh_a_tiny", "mesh_T_subnormal",
        "mesh_X_subnormal", "probe_eps0_squared_underflows", "mesh_N_huge", "mesh_M_huge", "mesh_rungs_N_huge",
        "data_key_misspelled", "profile_key_misspelled", "piecewise_key_misspelled",
        "time_profile_key_misspelled", "forcing_key_misspelled", "harmonic_key_misspelled",
        "data_harmonic_and_preset", "data_preset_and_profiles", "sharpness_harmonic_k",
        "profile_k_zero", "profile_k_negative"])
def test_malformed_config_keys_exit_3(tmp_path, capsys, kind, key, edit):
    cfg = _write_config(tmp_path, {
        "kind": kind, "mesh": _mesh(16), "data": None,
        "out_dir": str(tmp_path / "out"), **edit})
    assert main([kind.replace("_", "-"), "--config", str(cfg)]) == 3
    err = capsys.readouterr().err
    assert key in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("kind", ["solve", "converge", "stability_probe"])
@pytest.mark.parametrize("given, named", [
    ({"N": "abc", "M": None, "refinements": 7}, "N"),
    ({"N": 16}, "N"), ({"M": 32}, "M"), ({"refinements": 0}, "refinements"),
], ids=["N_M_refinements", "N", "M", "refinements"])
def test_a_mesh_key_beside_rungs_exits_3(tmp_path, capsys, kind, given, named):
    # rungs give every N and M: N, M or refinements beside them would not be read
    cfg = _write_config(tmp_path, {
        "kind": kind, "mesh": {"X": math.pi, "T": math.pi, **given,
                               "rungs": [[16, 32], [32, 64], [64, 128]]},
        "data": None, "out_dir": str(tmp_path / "out")})
    assert main([kind.replace("_", "-"), "--config", str(cfg)]) == 3
    err = capsys.readouterr().err
    assert f"mesh.{named} is not read when mesh.rungs is given; drop it" in err
    assert "Traceback" not in err and not (tmp_path / "out").exists()


def _piecewise_ending_at(end):
    return {"form": "piecewise", "breakpoints": [0.0, 1.0, end], "pieces": [[1.0], [0.0, 1.0]]}


@pytest.mark.parametrize("command", ["solve", "converge", "oracle-check"])
@pytest.mark.parametrize("data, named", [
    ({"u0": _piecewise_ending_at(3.0), "u1": _piecewise_ending_at(3.0)}, "data.u0 ends at 3.0"),
    ({"u0": _piecewise_ending_at(math.pi * (1 + 5e-12)),
      "u1": _piecewise_ending_at(math.pi * (1 + 5e-12))}, "data.u0 ends at 3.14159"),
    # within 1e-12 X of one another, as DataSpec allows, but not of the mesh's X
    ({"u0": _piecewise_ending_at(math.pi * (1 - 0.9e-12)),
      "u1": _piecewise_ending_at(math.pi * (1 - 1.8e-12))}, "data.u1 ends at 3.14159"),
    ({"u0": _piecewise_ending_at(math.pi * (1 + 0.5e-12)),
      "u1": _piecewise_ending_at(math.pi * (1 + 0.5e-12)),
      "f": {"space": _piecewise_ending_at(math.pi * (1 + 1.2e-12)),
            "time": {"form": "harmonic_sin", "omega": 1.0}}}, "data.f.space ends at 3.14159"),
], ids=["at_3", "past_x", "u1_off", "f_space_off"])
def test_piecewise_data_on_another_domain_exit_3(tmp_path, capsys, command, data, named):
    # a piecewise profile's X is its last breakpoint; one that is not the
    # mesh's X ended in a traceback from the hat averages
    cfg = _write_config(tmp_path, {
        "kind": command.replace("-", "_"),
        "mesh": _mesh(16, refinements=0 if command == "solve" else 2), "data": data,
        "out_dir": str(tmp_path / "out")})
    assert main([command, "--config", str(cfg)]) == 3
    err = capsys.readouterr().err
    assert named in err and f"the mesh's X is {math.pi!r}" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("refinements", [10 ** 6, 1e308])
def test_refinements_beyond_the_cell_bound_exit_3_at_once(tmp_path, capsys, refinements):
    # the ladder is bounded before any rung is built; building N 2^r for
    # every r stalled the load, so the load runs under an alarm
    cfg = _write_config(tmp_path, {
        "kind": "converge", "mesh": _mesh(16, refinements=refinements),
        "data": {"preset": "hat_step"}, "out_dir": str(tmp_path / "out")})
    with alarm(2):
        assert main(["converge", "--config", str(cfg)]) == 3
    err = capsys.readouterr().err
    assert "mesh.refinements must be an integer >= 0 and <= 48" in err
    assert "Traceback" not in err and not (tmp_path / "out").exists()


_HUGE = [1e308, 1e308]
_UNIT_TIME = {"form": "polynomial", "coeffs": [1.0]}


@pytest.mark.parametrize("name, data", [
    ("u0", {"u0": {"form": "sine_series", "coeffs": _HUGE}}),
    ("u1", {"u1": {"form": "sine_series", "coeffs": _HUGE}}),
    ("f", {"f": {"space": {"form": "piecewise", "breakpoints": [0.0, math.pi],
                           "pieces": [_HUGE]}, "time": _UNIT_TIME}}),
    ("f", {"f": {"space": {"form": "sine_series", "coeffs": _HUGE}, "time": _UNIT_TIME}}),
    # factors of 1e200 each: the levels, their product, overflow
    ("f", {"f": {"space": {"form": "sine_series", "coeffs": [1e200]},
                 "time": {"form": "polynomial", "coeffs": [1e200]}}}),
], ids=["u0_sine_series", "u1_sine_series", "f_piecewise", "f_sine_series", "f_factors"])
def test_overflowing_grid_data_exits_3(tmp_path, capsys, name, data):
    cfg = _write_config(tmp_path, {
        "kind": "solve", "mesh": _mesh(16), "data": data,
        "out_dir": str(tmp_path / "out")})
    assert main(["solve", "--config", str(cfg)]) == 3
    err = capsys.readouterr().err
    assert f"grid data of {name} are not finite" in err and "on the N=16, M=32 mesh" in err
    assert "Traceback" not in err and "Warning" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("amplitude", [1e152, 1e153, 1e154])
def test_data_too_large_to_measure_exits_3(tmp_path, capsys, amplitude):
    # grid data below the bound of prepare_inputs whose error norms overflow:
    # a rung that measures inf or NaN is refused, never written or fitted
    cfg = _write_config(tmp_path, {
        "kind": "converge", "mesh": _mesh(64, refinements=2),
        "data": {"u1": {"form": "piecewise", "breakpoints": [0.0, math.pi / 2, math.pi],
                        "pieces": [[amplitude], [-amplitude]]}},
        "out_dir": str(tmp_path / "out")})
    assert main(["converge", "--config", str(cfg)]) == 3
    err = capsys.readouterr().err
    assert "not finite" in err and "N=" in err and "M=" in err
    assert "Traceback" not in err and "Warning" not in err
    assert not (tmp_path / "out").exists()


# every numeric key, as (section, key): None is the top level
_NUMERIC_KEYS = [("mesh", k) for k in ("X", "T", "N", "M", "a", "eps0", "refinements")] + [
    ("harmonic", k) for k in ("j", "k")] + [
    (None, k) for k in ("alpha", "seed", "fit_drop_coarsest", "n_random", "n_pairs",
                        "decimate")]

_NOT_A_NUMBER = (st.none() | st.booleans() | st.text(max_size=4)
                 | st.lists(st.integers(), max_size=2)
                 | st.dictionaries(st.text(max_size=2), st.integers(), max_size=1))


_STRING_KEYS = {"kind": ("solve", "converge", "sharpness", "oracle_check", "stability_probe"),
                "variant": ("v0", "v1", "v2"),
                "mode": ("node_sampled", "q2h_filtered"),
                "data.preset": ("hat_step", "quad_spline_hat")}


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(_STRING_KEYS)), _NOT_A_NUMBER | st.integers()
       | st.sampled_from(["all", "v3", "", "hat"]))
def test_malformed_value_in_any_string_key_exits_3(key, value):
    assume(value not in _STRING_KEYS[key])
    payload = {"kind": "solve", "mesh": {"X": math.pi, "T": math.pi, "N": 8, "M": 16},
               "data": {"preset": "hat_step"}}
    if key == "data.preset":
        payload["data"]["preset"] = value
    else:
        payload[key] = value
    with tempfile.TemporaryDirectory() as tmp:
        payload["out_dir"] = str(Path(tmp) / "out")
        cfg = _write_config(Path(tmp), payload)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            assert main(["solve", "--config", str(cfg)]) == 3
        assert f"{key} must be one of" in err.getvalue()
        assert "Traceback" not in err.getvalue()
        assert not (Path(tmp) / "out").exists()


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(_NUMERIC_KEYS), _NOT_A_NUMBER)
def test_non_numeric_value_in_any_numeric_key_exits_3(section_key, value):
    section, key = section_key
    mesh = {"X": math.pi, "T": math.pi, "N": 8, "M": 16}
    payload = {"kind": "solve", "mesh": mesh, "data": {"harmonic": {"j": 1, "k": 1}}}
    target = {"mesh": mesh, "harmonic": payload["data"]["harmonic"], None: payload}
    target[section][key] = value
    with tempfile.TemporaryDirectory() as tmp:
        payload["out_dir"] = str(Path(tmp) / "out")
        cfg = _write_config(Path(tmp), payload)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            assert main(["solve", "--config", str(cfg)]) == 3
        assert f"{key} must be" in err.getvalue()
        assert not (Path(tmp) / "out").exists()


def test_importing_the_cli_skips_scipy_linalg_and_the_process_pool():
    # the package import of scipy.linalg, for two LAPACK routines, would be
    # half of every run's start-up; no run starts a process pool, and difflib
    # is imported only when a config key is unknown
    probe = ("import sys, wavecompact.cli; print(sorted(m for m in sys.modules if m in "
             "('scipy.linalg', 'concurrent.futures.process', 'difflib')))")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(SRC)), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_a_violated_probe_row_is_printed_and_exits_1(tmp_path, capsys, monkeypatch):
    # a negative margin fails its row: the CLI names the check, the mesh and
    # both sides, and exits 1
    import wavecompact.experiments as experiments
    monkeypatch.setattr(experiments, "energy_lower_bound_margins",
                        lambda mesh, prev, curr: (np.full(len(prev), -0.5), np.ones(len(prev))))
    cfg = _write_config(tmp_path, {"kind": "stability_probe", "mesh": _mesh(8),
                                   "n_random": 2, "n_pairs": 3, "seed": 1})
    assert main(["stability-probe", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out == ["10 inequality checks, 3 violations"] + [
        "VIOLATED lower_bound_1 on N=8: lhs=0.5 rhs=0.0"] * 3
