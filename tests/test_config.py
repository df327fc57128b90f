"""Config parsing, validation, and descriptor parsing."""

import importlib.util
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from wavecompact.config import config_from_dict, dataspec_from_dict, profile_from_dict
from wavecompact.data import PRESETS, DataSpec, Forcing, Profile, TimeProfile
from wavecompact.errors import ConfigurationError, UnstableMeshError
from wavecompact.oracle import HarmonicData, harmonic_dataspec


def test_profile_round_trips():
    X = math.pi
    cases = [
        ({"form": "harmonic", "k": 3}, Profile.harmonic_mode(3, X)),
        ({"form": "sine_series", "coeffs": [0.1, -0.2, 0.0, 0.4]},
         Profile.sine_series((0.1, -0.2, 0.0, 0.4), X)),
        ({"form": "piecewise", "breakpoints": [0.0, 1.0, X], "pieces": [[0.5], [0.0, 1.0]]},
         Profile.piecewise_poly((0.0, 1.0, X), ((0.5,), (0.0, 1.0)))),
    ]
    for d, p in cases:
        assert profile_from_dict(d, X, 16) == p


def test_dataspec_round_trip():
    X = math.pi
    spec = DataSpec(
        u0=Profile.harmonic_mode(1, X),
        u1=Profile.sine_series((1.0, 2.0), X),
        f=Forcing(space=Profile.piecewise_poly((0.0, X), ((1.0,),)),
                  time=TimeProfile.harmonic_sin(2.0)))
    d = {"u0": {"form": "harmonic", "k": 1},
         "u1": {"form": "sine_series", "coeffs": [1.0, 2.0]},
         "f": {"space": {"form": "piecewise", "breakpoints": [0.0, X], "pieces": [[1.0]]},
               "time": {"form": "harmonic_sin", "omega": 2.0}}}
    assert dataspec_from_dict(d, X, 16) == spec


def test_mesh_needs_m_or_rungs():
    # M is given or each rung is; a tau_over_h key does not stand in for it
    for mesh in ({"X": math.pi, "T": math.pi, "N": 32},
                 {"X": math.pi, "T": math.pi, "N": 32, "tau_over_h": 0.5}):
        with pytest.raises(ConfigurationError,
                           match=r"^mesh section needs M \(or explicit rungs\)$"):
            config_from_dict({"kind": "solve", "mesh": mesh, "data": None})


def test_explicit_rungs_and_refinements():
    cfg = config_from_dict({
        "kind": "oracle_check",
        "mesh": {"X": math.pi, "T": math.pi, "rungs": [[16, 64], [64, 256]]},
        "data": {"harmonic": {"j": 0, "k": 1}},
    })
    assert [(r.N, r.M) for r in cfg.rungs] == [(16, 64), (64, 256)]
    cfg2 = config_from_dict({
        "kind": "converge",
        "mesh": {"X": math.pi, "T": math.pi, "N": 8, "M": 16, "refinements": 2},
        "data": {"harmonic": {"j": 0, "k": 1}},
    })
    assert [(r.N, r.M) for r in cfg2.rungs] == [(8, 16), (16, 32), (32, 64)]
    # refinements keep tau/h fixed
    ratios = {r.tau / r.h for r in cfg2.rungs}
    assert len(ratios) == 1


def test_unstable_rung_raises_at_validation():
    with pytest.raises(UnstableMeshError):
        config_from_dict({
            "kind": "solve",
            "mesh": {"X": 1.0, "T": 1.0, "N": 10, "M": 10},
            "data": None,
        })


def test_malformed_configs():
    with pytest.raises(ConfigurationError):
        config_from_dict({"kind": "explode", "mesh": {"X": 1, "T": 1, "N": 4, "M": 8}})
    with pytest.raises(ConfigurationError):
        config_from_dict({"kind": "solve"})
    with pytest.raises(ConfigurationError):
        config_from_dict({"kind": "solve", "mesh": {"X": 1.0, "T": 1.0, "N": 4},
                          "data": None})
    with pytest.raises(ConfigurationError):
        config_from_dict({"kind": "solve", "mesh": {"X": 1.0, "T": 1.0, "N": 4, "M": 16},
                          "data": {"u0": {"form": "warped"}}})
    with pytest.raises(ConfigurationError):
        config_from_dict({"kind": "sharpness",
                          "mesh": {"X": 1.0, "T": 1.0, "N": 8, "M": 32},
                          "data": {"preset": "hat_step"}})


def test_descriptor_tree_parses_to_dataspec():
    cfg = config_from_dict({
        "kind": "solve",
        "mesh": {"X": math.pi, "T": math.pi, "N": 8, "M": 16},
        "data": {
            "u0": {"form": "piecewise", "breakpoints": [0.0, math.pi],
                   "pieces": [[0.0, 1.0]]},
            "u1": {"form": "harmonic", "k": 2},
            "f": {"space": {"form": "sine_series", "coeffs": [1.0]},
                  "time": {"form": "polynomial", "coeffs": [0.0, 1.0]}},
        },
    })
    assert cfg.data.u0.form == "piecewise"
    assert cfg.data.u1 == Profile.harmonic_mode(2, math.pi)
    assert cfg.data.f.time.coeffs == (0.0, 1.0)


def test_removed_reference_keys_are_ignored():
    # n_modes, fold_groups and tail_fraction tuned a truncated series that no
    # longer exists; like any unknown key they are read by nothing
    base = {"kind": "converge",
            "mesh": {"X": math.pi, "T": math.pi, "N": 8, "M": 16, "refinements": 2},
            "data": {"preset": "hat_step"}}
    cfg = config_from_dict({**base, "n_modes": "x", "fold_groups": 0, "tail_fraction": None})
    assert cfg.data == config_from_dict(base).data
    assert not any(hasattr(cfg, key) for key in ("n_modes", "fold_groups", "tail_fraction"))


def test_removed_evaluation_keys_are_refused():
    # v0_mode and node_convention changed results: ignoring them would too
    base = {"kind": "solve", "mesh": {"X": math.pi, "T": math.pi, "N": 8, "M": 16},
            "data": {"preset": "hat_step"}}
    for value in ("node_samples", "qh_average", None):
        with pytest.raises(ConfigurationError, match="^v0_mode is removed"):
            config_from_dict({**base, "v0_mode": value})
    step = {"form": "piecewise", "breakpoints": [0.0, 1.0, math.pi], "pieces": [[1.0], [-1.0]]}
    for value in ("mean", "left", None):
        with pytest.raises(ConfigurationError, match="^profile node_convention is removed"):
            config_from_dict({**base, "data": {"u1": {**step, "node_convention": value}}})
    assert config_from_dict({**base, "data": {"u1": step}}).data.u1(np.array([1.0]))[0] == 0.0


def test_scalar_keys_take_json_numbers():
    # integers and floats stay accepted wherever they were; an integer key
    # takes an integral float; non-finite numbers are refused at the door
    base = {"kind": "converge",
            "mesh": {"X": 3, "T": 3.0, "N": 8, "M": 16, "a": 1, "eps0": 0.5,
                     "refinements": 2},
            "data": {"preset": "hat_step"}}
    cfg = config_from_dict({**base, "alpha": 2, "decimate": 2.0, "seed": 5,
                            "fit_drop_coarsest": 0})
    assert (cfg.rungs[0].X, cfg.rungs[0].T, cfg.rungs[0].a) == (3.0, 3.0, 1.0)
    assert cfg.alpha == 2.0
    assert (cfg.decimate, cfg.seed, cfg.fit_drop_coarsest) == (2, 5, 0)
    assert all(type(v) is int for v in (cfg.decimate, cfg.seed, cfg.fit_drop_coarsest))
    for key, bad in [("alpha", math.nan), ("alpha", math.inf), ("decimate", 2.5),
                     ("seed", -1), ("seed", True), ("alpha", "2.0"), ("alpha", 0),
                     ("alpha", -1.0), ("fit_drop_coarsest", -1)]:
        with pytest.raises(ConfigurationError, match=key):
            config_from_dict({**base, key: bad})
    for bad in (math.inf, 10 ** 400, "3"):
        with pytest.raises(ConfigurationError, match="mesh.X"):
            config_from_dict({**base, "mesh": {**base["mesh"], "X": bad}})


def test_data_is_decided_at_load():
    mesh = {"X": 2.0, "T": 2.0, "N": 8, "M": 32, "a": 1.5, "refinements": 2}
    base = {"kind": "converge", "mesh": mesh}
    cfg = config_from_dict({**base, "data": {"preset": "quad_spline_hat"}})
    assert cfg.data == PRESETS["quad_spline_hat"].make(2.0) and cfg.harmonic is None
    cfg = config_from_dict({**base, "data": {"harmonic": {"j": 2, "k": 3}}})
    assert cfg.harmonic == HarmonicData(j=2, k=3)
    # one DataSpec serves every rung: it reads only X and a, which they share
    assert all(cfg.data == harmonic_dataspec(cfg.harmonic, r) for r in cfg.rungs)
    zero = config_from_dict({**base, "kind": "solve", "data": None}).data
    assert zero == DataSpec(u0=Profile.zero(2.0), u1=Profile.zero(2.0))
    sharp = config_from_dict({**base, "kind": "sharpness", "data": {"harmonic": {"j": 1}}})
    assert (sharp.data, sharp.harmonic, sharp.sharpness_j) == (None, None, 1)


def test_converge_refuses_data_it_cannot_measure_at_load():
    base = {"kind": "converge",
            "mesh": {"X": math.pi, "T": math.pi, "N": 8, "M": 16, "refinements": 2}}
    forced = {"u0": {"form": "piecewise", "breakpoints": [0.0, math.pi], "pieces": [[0.0, 1.0]]},
              "f": {"space": {"form": "piecewise", "breakpoints": [0.0, 1.0, math.pi],
                              "pieces": [[1.0], [-1.0]]},
                    "time": {"form": "polynomial", "coeffs": [1.0]}}}
    with pytest.raises(ConfigurationError, match="no exact reference for forced"):
        config_from_dict({**base, "data": forced})
    # solve takes the same data and measures nothing
    assert config_from_dict({**base, "kind": "solve", "data": forced}).data.f is not None
    for zero in (None, {}, {"u0": {"form": "sine_series", "coeffs": [0.0, 0.0]},
                            "u1": {"form": "piecewise", "breakpoints": [0.0, math.pi],
                                   "pieces": [[0.0, 0.0]]}}):
        with pytest.raises(ConfigurationError, match="nonzero data"):
            config_from_dict({**base, "data": zero})
    # a key error is named before the ladder, and the ladder before the data
    with pytest.raises(ConfigurationError, match="^mode must be one of"):
        config_from_dict({**base, "mesh": {**base["mesh"], "refinements": 0},
                          "data": forced, "mode": "x"})
    with pytest.raises(ConfigurationError, match=">= 3 rungs"):
        config_from_dict({**base, "mesh": {**base["mesh"], "refinements": 0}, "data": forced})


def test_string_keys_take_one_of_their_values():
    base = {"kind": "oracle_check", "mesh": {"X": math.pi, "T": math.pi, "N": 8, "M": 16},
            "data": {"harmonic": {"j": 0, "k": 1}}}
    assert config_from_dict({**base, "variant": "all"}).variant == "all"
    for key, bad in [("kind", None), ("kind", "Solve"), ("variant", "V2"), ("variant", 2),
                     ("mode", True)]:
        with pytest.raises(ConfigurationError, match=f"^{key} must be one of"):
            config_from_dict({**base, key: bad})
    with pytest.raises(ConfigurationError, match="^variant must be one of"):
        config_from_dict({**base, "kind": "solve", "variant": "all"})
    with pytest.raises(ConfigurationError, match=r"^data.preset must be one of \('hat_step'"):
        config_from_dict({**base, "kind": "solve", "data": {"preset": "None"}})


def test_benchmark_job_configs_load():
    # every config the benchmark writes, full passes and warm-ups alike, loads
    # and names its subcommand's kind; the module is imported read-only
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("_bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # dataclasses look their module up by name
    write_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(workloads)
    finally:
        sys.dont_write_bytecode = write_bytecode
        del sys.modules[spec.name]
    assert set(workloads.WORKLOADS) == {"rough_ladder", "sharp_ladder", "stability_probe"}
    for workload in workloads.WORKLOADS.values():
        for job in (*workload.make_jobs(0), *workload.make_jobs(1), *workload.warmup):
            config = config_from_dict(job.config)
            assert config.kind == job.command.replace("-", "_")
            assert [(mesh.N, mesh.M) for mesh in config.rungs] == job.rungs()
