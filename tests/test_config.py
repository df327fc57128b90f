"""Config parsing, validation, and descriptor parsing."""

import contextlib
import copy
import functools
import importlib.util
import json
import math
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wavecompact.cli import main
from wavecompact.config import KINDS, config_from_dict, dataspec_from_dict, profile_from_dict
from wavecompact.data import PRESETS, DataSpec, Forcing, Profile, TimeProfile
from wavecompact.errors import ConfigurationError, MeshTooCoarseError, UnstableMeshError
from wavecompact.experiments import run_convergence
from wavecompact.grid import build_mesh
from wavecompact.oracle import HarmonicData, harmonic_dataspec

from _alarm import alarm


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
        assert profile_from_dict(d, build_mesh(X, X, 16, 32)) == p


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
    assert dataspec_from_dict(d, build_mesh(X, X, 16, 32)) == spec


def test_mesh_needs_m_or_rungs():
    # M is given or each rung is
    with pytest.raises(ConfigurationError, match=r"^mesh section needs M \(or explicit rungs\)$"):
        config_from_dict({"kind": "solve", "mesh": {"X": math.pi, "T": math.pi, "N": 32},
                          "data": None})


_MESH = {"X": math.pi, "T": math.pi, "N": 16, "M": 32}
_STEP = {"form": "piecewise", "breakpoints": [0.0, 1.0, math.pi], "pieces": [[1.0], [-1.0]]}


@pytest.mark.parametrize("edit, message", [
    # the removed keys are unknown keys like any other
    ({"n_modes": 64}, "config key 'n_modes'"),
    ({"fold_groups": 2}, "config key 'fold_groups'"),
    ({"jobs": 2}, "config key 'jobs'$"),
    ({"v0_mode": "node_samples"}, "config key 'v0_mode'; did you mean 'mode'"),
    ({"mesh": {**_MESH, "tau_over_h": 0.5}}, "mesh key 'tau_over_h'$"),
    ({"data": {"u1": {**_STEP, "node_convention": "mean"}}},
     "piecewise profile key 'node_convention'"),
    ({"mesh": {**_MESH, "Eps0": 1.0}}, "mesh key 'Eps0'.*'eps0'"),
    ({"out": "x"}, "config key 'out'.*'out_dir'"),
    # a dict built in Python may have keys that are not strings; like jobs and
    # tau_over_h, they are close to no known key, so none is suggested
    ({1: 2}, "config key 1$"),
    ({"data": {None: 0}}, "data key None$"),
    # only tail_fraction is ignored: the benchmark's rough_ladder sends it
    ({"tail_fraction": 0.01}, None),
], ids=["n_modes", "fold_groups", "jobs", "v0_mode", "tau_over_h", "node_convention",
        "mesh_misspelled", "config_misspelled", "not_a_string", "data_not_a_string",
        "tail_fraction"])
def test_removed_and_unknown_keys_are_refused(edit, message):
    base = {"kind": "solve", "mesh": _MESH, "data": {"u1": _STEP}}
    if message is None:
        cfg = config_from_dict({**base, **edit})
        assert cfg.data == config_from_dict(base).data and not hasattr(cfg, "tail_fraction")
        return
    with pytest.raises(ConfigurationError, match=f"^unknown {message}"):
        config_from_dict({**base, **edit})


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


def test_scalar_keys_take_json_numbers():
    # integers and floats stay accepted wherever they were; an integer key
    # takes an integral float; non-finite numbers are refused at the door;
    # each key is tried under a kind that reads it
    mesh = {"X": 3, "T": 3.0, "N": 8, "M": 16, "a": 1, "eps0": 0.5, "refinements": 2}
    readers = {"alpha": {"kind": "sharpness", "data": {"harmonic": {"j": 0}}},
               "decimate": {"kind": "solve", "mesh": {**mesh, "refinements": 0}},
               "seed": {"kind": "stability_probe", "data": None},
               "fit_drop_coarsest": {"kind": "converge"}}

    def load(key, value):
        return config_from_dict({"mesh": mesh, "data": {"preset": "hat_step"}, **readers[key],
                                 key: value})

    cfg = load("fit_drop_coarsest", 0)
    assert (cfg.rungs[0].X, cfg.rungs[0].T, cfg.rungs[0].a) == (3.0, 3.0, 1.0)
    assert load("alpha", 2).alpha == 2.0
    values = [getattr(load(key, value), key)
              for key, value in (("decimate", 2.0), ("seed", 5), ("fit_drop_coarsest", 0))]
    assert values == [2, 5, 0] and all(type(v) is int for v in values)
    for key, bad in [("alpha", math.nan), ("alpha", math.inf), ("decimate", 2.5),
                     ("seed", -1), ("seed", True), ("alpha", "2.0"), ("alpha", 0),
                     ("alpha", -1.0), ("fit_drop_coarsest", -1)]:
        with pytest.raises(ConfigurationError, match=key):
            load(key, bad)
    for bad in (math.inf, 10 ** 400, "3"):
        with pytest.raises(ConfigurationError, match="mesh.X"):
            config_from_dict({"kind": "converge", "mesh": {**mesh, "X": bad},
                              "data": {"preset": "hat_step"}})


#: per scalar key: its default, a value other than it, and the kinds whose runner reads it
_SCALAR_READERS = {
    "variant": ("v2", "v1", ("solve", "converge", "sharpness", "oracle_check")),
    "mode": ("node_sampled", "q2h_filtered", ("solve", "converge")),
    "alpha": (2.0, 3.0, ("sharpness",)),
    "out_dir": ("out", "elsewhere", KINDS),
    "seed": (0, 5, ("stability_probe",)),
    "n_random": (20, 3, ("stability_probe",)),
    "n_pairs": (100, 7, ("stability_probe",)),
    "fit_drop_coarsest": (1, 0, ("converge",)),
    "decimate": (32, 4, ("solve",)),
}
_SMALL = {"X": math.pi, "T": math.pi, "N": 8, "M": 16}
_KIND_CONFIGS = {
    "solve": {"mesh": _SMALL, "data": {"preset": "hat_step"}},
    "converge": {"mesh": {**_SMALL, "refinements": 2}, "data": {"preset": "hat_step"}},
    "sharpness": {"mesh": _SMALL, "data": {"harmonic": {"j": 0}}},
    "oracle_check": {"mesh": _SMALL, "data": {"harmonic": {"j": 1, "k": 3}}},
    "stability_probe": {"mesh": _SMALL, "data": None},
}


@pytest.mark.parametrize("key", list(_SCALAR_READERS))
@pytest.mark.parametrize("kind", KINDS)
def test_a_scalar_key_is_refused_by_a_kind_that_does_not_read_it(tmp_path, capsys, kind, key):
    # the default always loads; another value loads only where the runner reads it
    default, value, readers = _SCALAR_READERS[key]
    raw = {"kind": kind, **_KIND_CONFIGS[kind]}
    config_from_dict({**raw, key: default})
    if kind in readers:
        assert getattr(config_from_dict({**raw, key: value}), key) == (
            Path(value) if key == "out_dir" else value)
        return
    path = tmp_path / "c.json"
    path.write_text(json.dumps({**raw, key: value}))
    assert main([kind.replace("_", "-"), "--config", str(path),
                 "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert (f"{key} {value!r} is not read by {kind} runs, which use only "
            f"{json.dumps(default)}; drop the {key} key") in err and "Traceback" not in err


def test_fit_drop_coarsest_leaves_two_rungs_to_fit(tmp_path, capsys):
    # a ladder of 4 rungs fits its last two at most: 2 loads and fits them, 3 exits 3
    raw = {"kind": "converge",
           "mesh": {"X": math.pi, "T": math.pi, "N": 8, "M": 16, "refinements": 3},
           "data": {"preset": "hat_step"}, "out_dir": str(tmp_path / "out")}
    result = run_convergence(config_from_dict({**raw, "fit_drop_coarsest": 2}), emit=False)
    assert result.fitted_order == pytest.approx(result.rows[-1].order_energy, rel=1e-12)
    path = tmp_path / "c.json"
    path.write_text(json.dumps({**raw, "fit_drop_coarsest": 3}))
    assert main(["converge", "--config", str(path)]) == 3
    err = capsys.readouterr().err
    assert "fit_drop_coarsest 3" in err and "must be <= 2" in err and "two of 4 rungs" in err
    assert "Traceback" not in err and not (tmp_path / "out").exists()


def test_data_is_decided_at_load():
    mesh = {"X": 2.0, "T": 2.0, "N": 8, "M": 32, "a": 1.5, "refinements": 2}
    base = {"kind": "converge", "mesh": mesh}
    cfg = config_from_dict({**base, "data": {"preset": "quad_spline_hat"}})
    assert cfg.data == PRESETS["quad_spline_hat"].make(2.0)
    cfg = config_from_dict({**base, "data": {"harmonic": {"j": 2, "k": 3}}})
    # one DataSpec serves every rung: it reads only X and a, which they share
    assert all(cfg.data == harmonic_dataspec(HarmonicData(j=2, k=3), r) for r in cfg.rungs)
    zero = config_from_dict({"kind": "solve", "mesh": {**mesh, "refinements": 0},
                             "data": None}).data
    assert zero == DataSpec(u0=Profile.zero(2.0), u1=Profile.zero(2.0))
    sharp_cfg = {**base, "kind": "sharpness", "data": {"harmonic": {"j": 1}}}
    sharp = config_from_dict(sharp_cfg)
    assert (sharp.data, sharp.sharpness_j) == (None, 1)
    # sharpness rungs measure node_sampled errors: another mode is refused, not ignored
    assert config_from_dict({**sharp_cfg, "mode": "node_sampled"}).mode == "node_sampled"
    with pytest.raises(ConfigurationError, match="^mode 'q2h_filtered' is not read by sharpness"):
        config_from_dict({**sharp_cfg, "mode": "q2h_filtered"})


@pytest.mark.parametrize("kind, extra, columns", [
    ("solve", {"data": {"preset": "hat_step"}}, 1),
    ("stability_probe", {"n_random": 7}, 7),
    ("oracle_check", {"data": {"harmonic": {"j": 1, "k": 3}}, "variant": "all"}, 3),
    ("converge", {"data": {"preset": "hat_step"}}, None),
    ("sharpness", {"data": {"harmonic": {"j": 2}}}, None),
])
def test_a_rung_beyond_physical_memory_is_refused_at_load(tmp_path, capsys, kind, extra, columns):
    # N = 1e9: no machine holds the arrays of the first rung at once, and the
    # refusal, exit code 3, comes before any of them is allocated
    import tracemalloc
    from wavecompact.scheme import level_bytes
    n, m = 10 ** 9, 2 * 10 ** 9
    mesh = build_mesh(math.pi, math.pi, n, m)
    held = (8 * (m + 1) * (n + 1) * columns if columns else level_bytes(mesh, kind == "sharpness"))
    # oracle-check steps and compares block by block: per column, the stepping
    # loop's buffers and the closed form's block, twice a measured run's buffers
    if kind == "oracle_check":
        held = 2 * columns * level_bytes(mesh, False)
    # the probe steps and measures block by block: per column, a forced measured
    # run's buffers, plus its fixed overhead and, per pair (100 by default), the
    # larger of its draws' and margins' 8 (N + 1) floats and its two rows' bytes
    if kind == "stability_probe":
        held = columns * level_bytes(mesh, True) + 2 ** 18 + 100 * 64 * (n + 1)
    # the runs that build the exact reference hold it too: a tau / h = 1/2, so
    # E and F of both views are 4 (2N + M + 2) floats, and sharpness's j = 2
    # forces one mode, 2 (N + 2)
    if kind in ("solve", "converge", "sharpness"):
        held += 8 * (4 * (2 * n + m + 2) + (kind == "sharpness") * 2 * (n + 2))
    refinements = 2 if kind == "converge" else 0
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"kind": kind, "mesh": {"X": math.pi, "T": math.pi, "N": n, "M": m,
                                                       "refinements": refinements}, **extra}))
    tracemalloc.start()
    try:
        code = main([kind.replace("_", "-"), "--config", str(path), "--out", str(tmp_path / "o")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 3 and peak < 2 ** 20
    assert f"the N={n}, M={m} rung holds {held} bytes of arrays at once" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_converge_refuses_data_it_cannot_measure_at_load():
    base = {"kind": "converge",
            "mesh": {"X": math.pi, "T": math.pi, "N": 8, "M": 16, "refinements": 2}}
    forced = {"u0": {"form": "piecewise", "breakpoints": [0.0, math.pi], "pieces": [[0.0, 1.0]]},
              "f": {"space": {"form": "piecewise", "breakpoints": [0.0, 1.0, math.pi],
                              "pieces": [[1.0], [-1.0]]},
                    "time": {"form": "polynomial", "coeffs": [1.0]}}}
    with pytest.raises(ConfigurationError, match="no exact reference for forced"):
        config_from_dict({**base, "data": forced})
    # solve, on one rung, takes the same data and measures nothing
    assert config_from_dict({"kind": "solve", "mesh": {**base["mesh"], "refinements": 0},
                             "data": forced}).data.f is not None
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


def _bench_workloads():
    """The benchmark's perfbench/workloads.py, imported read-only: no bytecode
    is written next to it."""
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
    return workloads


def test_benchmark_job_configs_load():
    # every config the benchmark writes, full passes and warm-ups alike, loads
    # and names its subcommand's kind
    workloads = _bench_workloads()
    assert set(workloads.WORKLOADS) == {"rough_ladder", "sharp_ladder", "stability_probe"}
    for workload in workloads.WORKLOADS.values():
        for job in (*workload.make_jobs(0), *workload.make_jobs(1), *workload.warmup):
            config = config_from_dict(job.config)
            assert config.kind == job.command.replace("-", "_")
            assert [(mesh.N, mesh.M) for mesh in config.rungs] == job.rungs()


def test_benchmark_warmup_jobs_run_and_pass_their_gates(tmp_path, capsys):
    # the warm-up jobs, small meshes of every workload, through the CLI with
    # the benchmark's own arguments: a CLI or config change that would fail
    # the benchmark fails here first
    for name, workload in _bench_workloads().WORKLOADS.items():
        for i, job in enumerate(workload.warmup):
            cfg, out = tmp_path / f"{name}_{i}.json", tmp_path / f"{name}_{i}"
            cfg.write_text(json.dumps(job.config))
            argv = [job.command, "--config", str(cfg), "--out", str(out), "--jobs", "1"]
            assert main(argv) == 0, capsys.readouterr().err
            assert workload.gate(job, out) is None


# --------------------------------------------------------------------------
# whole configs with one to three values replaced or deleted

_VALID_CONFIGS = {
    "solve": {"kind": "solve", "mesh": {"X": 2.0, "T": 1.5, "N": 16, "M": 32, "a": 0.8,
                                        "eps0": 0.9},
              "data": {"u0": {"form": "piecewise", "breakpoints": [0.0, 1.0, 2.0],
                              "pieces": [[0.0, 1.0], [2.0, -1.0]]},
                       "u1": {"form": "sine_series", "coeffs": [0.5, 0.0, -0.25]},
                       "f": {"space": {"form": "harmonic", "k": 2},
                             "time": {"form": "polynomial", "coeffs": [1.0, -0.5]}}},
              "variant": "v1", "mode": "q2h_filtered", "decimate": 4, "out_dir": "out"},
    "converge": {"kind": "converge",
                 "mesh": {"X": math.pi, "T": math.pi, "N": 8, "M": 16, "refinements": 2},
                 "data": {"u0": {"form": "sine_series", "coeffs": [1.0, 0.5]},
                          "f": {"space": {"form": "sine_series", "coeffs": [0.0, 1.0]},
                                "time": {"form": "harmonic_sin", "omega": 1.3}}},
                 "mode": "node_sampled", "fit_drop_coarsest": 0},
    "sharpness": {"kind": "sharpness",
                  "mesh": {"X": math.pi, "T": math.pi, "rungs": [[64, 128], [128, 256]]},
                  "data": {"harmonic": {"j": 2}}, "alpha": 2.0},
    "oracle_check": {"kind": "oracle_check",
                     "mesh": {"X": math.pi, "T": 2.5, "N": 8, "M": 16, "refinements": 1},
                     "data": {"harmonic": {"j": 1, "k": 3}}, "variant": "all"},
    "stability_probe": {"kind": "stability_probe", "mesh": {"X": 1.0, "T": 0.5, "N": 8,
                                                            "M": 8},
                        "data": None, "seed": 3, "n_random": 2, "n_pairs": 5},
}

#: a deleted key, or a value of the wrong type or beyond the float range
_DELETE = object()
_REPLACEMENTS = [_DELETE, None, True, "x", [1.0], {"form": "harmonic"}, 1e308, -1e308, 1e-320,
                 10 ** 400]


def _slots(tree, path=()):
    """The paths to every value of a JSON tree, the containers' included."""
    children = (tree.items() if isinstance(tree, dict)
                else enumerate(tree) if isinstance(tree, list) else ())
    for key, child in children:
        yield path + (key,)
        yield from _slots(child, path + (key,))


def test_valid_configs_load():
    for kind, raw in _VALID_CONFIGS.items():
        assert config_from_dict(raw).kind == kind


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(_VALID_CONFIGS)), st.data())
def test_malformed_whole_configs_are_refused_or_load(kind, data):
    # every config either loads or is refused with one of the errors the CLI
    # maps to exit 2 or 3, within 2 s: no OverflowError, no stall
    raw = copy.deepcopy(_VALID_CONFIGS[kind])
    for _ in range(data.draw(st.integers(1, 3))):
        slots = list(_slots(raw))
        if not slots:
            break
        *path, key = data.draw(st.sampled_from(slots))
        parent = functools.reduce(lambda tree, step: tree[step], path, raw)
        value = data.draw(st.sampled_from(_REPLACEMENTS))
        if value is _DELETE:
            del parent[key]
        else:
            parent[key] = copy.deepcopy(value)
    with alarm(2), contextlib.suppress(ConfigurationError, UnstableMeshError,
                                       MeshTooCoarseError):
        config_from_dict(raw)
