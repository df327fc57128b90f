"""Command-line interface: subcommands, exit codes, output files."""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from wavecompact.cli import main


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


def test_jobs_env_fallback(tmp_path, monkeypatch):
    cfg = _write_config(tmp_path, {
        "kind": "converge",
        "mesh": _mesh(8, refinements=2),
        "data": {"harmonic": {"j": 0, "k": 1}},
        "out_dir": str(tmp_path / "out"),
    })
    monkeypatch.setenv("WAVECOMPACT_JOBS", "2")
    assert main(["converge", "--config", str(cfg)]) == 0


def test_jobs_env_not_an_integer_exits_3(tmp_path, monkeypatch, capsys):
    cfg = _write_config(tmp_path, {
        "kind": "converge",
        "mesh": _mesh(8, refinements=2),
        "data": {"harmonic": {"j": 0, "k": 1}},
        "out_dir": str(tmp_path / "out"),
    })
    monkeypatch.setenv("WAVECOMPACT_JOBS", "two")
    assert main(["converge", "--config", str(cfg)]) == 3
    assert "WAVECOMPACT_JOBS must be an integer, got 'two'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_bad_reference_sizes_exit_3(tmp_path, capsys):
    for key, bad in [("fold_groups", 0), ("n_modes", "x")]:
        cfg = _write_config(tmp_path, {
            "kind": "converge",
            "mesh": _mesh(8, refinements=2),
            "data": {"preset": "hat_step"},
            key: bad,
            "out_dir": str(tmp_path / "out"),
        })
        assert main(["converge", "--config", str(cfg)]) == 3
        err = capsys.readouterr().err
        assert key in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


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
    assert not (tmp_path / "out").exists()


def test_solve_non_finite_data_exits_3_without_traceback(tmp_path, capsys):
    # the reference is built before the stepper runs, so it names u0 first
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
    assert not (tmp_path / "out").exists()


_NO_SPACE_FORCING = {"u0": None, "u1": None,
                     "f": {"time": {"form": "polynomial", "coeffs": [1.0]}}}


@pytest.mark.parametrize("kind, key, edit", [
    ("solve", "mesh.N", {"mesh": _mesh(16, N="abc")}),
    ("stability_probe", "n_pairs", {"n_pairs": "x"}),
    ("solve", "space", {"data": _NO_SPACE_FORCING}),
    ("solve", "decimate", {"decimate": 0}),
    ("solve", "mesh.X", {"mesh": _mesh(16, X="abc")}),
    ("solve", "mesh.X", {"mesh": _mesh(16, X=None)}),
    ("solve", "mesh.T", {"mesh": _mesh(16, T="abc")}),
    ("solve", "mesh.a", {"mesh": _mesh(16, a="fast")}),
    ("solve", "mesh.eps0", {"mesh": _mesh(16, eps0="x")}),
    ("solve", "mesh.tau_over_h", {"mesh": {"X": math.pi, "T": math.pi, "N": 16,
                                           "tau_over_h": "x"}}),
    ("sharpness", "alpha", {"alpha": "x", "data": {"harmonic": {"j": 0}}}),
    ("converge", "tail_fraction", {"tail_fraction": "x"}),
    ("converge", "jobs", {"jobs": "x"}),
    ("converge", "fit_drop_coarsest", {"fit_drop_coarsest": "x"}),
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
    ("solve", "out_dir", {"out_dir": 5}),
    ("solve", "out_dir", {"out_dir": None}),
    ("solve", "breakpoints", {"data": {"u0": {"form": "piecewise", "breakpoints": [],
                                              "pieces": [[1.0]]}}}),
    ("solve", "pieces", {"data": {"u0": {"form": "piecewise", "breakpoints": [0, math.pi],
                                         "pieces": [[]]}}}),
], ids=["mesh_N", "n_pairs", "forcing_without_space", "decimate", "mesh_X",
        "mesh_X_null", "mesh_T", "mesh_a", "mesh_eps0", "mesh_tau_over_h", "alpha",
        "tail_fraction", "jobs", "fit_drop_coarsest", "seed", "seed_negative",
        "harmonic_j", "harmonic_k", "profile_coeffs", "profile_breakpoints",
        "profile_pieces", "time_not_object", "forcing_not_object", "out_dir_number",
        "out_dir_null", "profile_breakpoints_empty", "profile_piece_empty"])
def test_malformed_config_keys_exit_3(tmp_path, capsys, kind, key, edit):
    cfg = _write_config(tmp_path, {
        "kind": kind, "mesh": _mesh(16), "data": None,
        "out_dir": str(tmp_path / "out"), **edit})
    assert main([kind.replace("_", "-"), "--config", str(cfg)]) == 3
    err = capsys.readouterr().err
    assert key in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


_HUGE = [1e308, 1e308]
_UNIT_TIME = {"form": "polynomial", "coeffs": [1.0]}


@pytest.mark.parametrize("name, data", [
    ("u0", {"u0": {"form": "sine_series", "coeffs": _HUGE}}),
    ("u1", {"u1": {"form": "sine_series", "coeffs": _HUGE}}),
    ("f", {"f": {"space": {"form": "piecewise", "breakpoints": [0.0, math.pi],
                           "pieces": [_HUGE]}, "time": _UNIT_TIME}}),
    ("f", {"f": {"space": {"form": "sine_series", "coeffs": _HUGE}, "time": _UNIT_TIME}}),
], ids=["u0_sine_series", "u1_sine_series", "f_piecewise", "f_sine_series"])
def test_overflowing_grid_data_exits_3(tmp_path, capsys, name, data):
    cfg = _write_config(tmp_path, {
        "kind": "solve", "mesh": _mesh(16), "data": data,
        "out_dir": str(tmp_path / "out")})
    assert main(["solve", "--config", str(cfg)]) == 3
    err = capsys.readouterr().err
    assert f"grid data of {name} are not finite" in err
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
_NUMERIC_KEYS = [("mesh", k) for k in ("X", "T", "N", "M", "a", "eps0", "tau_over_h",
                                       "refinements")] + [
    ("harmonic", k) for k in ("j", "k")] + [
    (None, k) for k in ("alpha", "tail_fraction", "jobs", "seed", "fit_drop_coarsest",
                        "n_random", "n_pairs", "fold_groups", "n_modes", "decimate")]

_NOT_A_NUMBER = (st.none() | st.booleans() | st.text(max_size=4)
                 | st.lists(st.integers(), max_size=2)
                 | st.dictionaries(st.text(max_size=2), st.integers(), max_size=1))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(_NUMERIC_KEYS), _NOT_A_NUMBER)
def test_non_numeric_value_in_any_numeric_key_exits_3(section_key, value):
    section, key = section_key
    assume(not (key == "n_modes" and value is None))  # null means "the default"
    mesh = {"X": math.pi, "T": math.pi, "N": 8, "M": 16}
    if key == "tau_over_h":
        del mesh["M"]  # an explicit M would win over tau_over_h
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
