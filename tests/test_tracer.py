"""Smoke test of the benchmark's traced path: perfbench/tracer.py around cli.main.

The traced stability probe and a rough converge ladder must repeat their
span counts pass for pass on identical inputs, and the wrappers must leave
the factor caches in place.
No timing or coverage is asserted: tiny runs cover less of their pass than
the benchmark's workloads do.
"""

import importlib.util
import json
import math
from pathlib import Path

from wavecompact import operators
from wavecompact.cli import main

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _tracer_class():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer


def test_traced_passes_exit_0_and_repeat_their_span_counts(tmp_path):
    tracer = _tracer_class()()
    probe, sharp = tmp_path / "probe.json", tmp_path / "sharp.json"
    mesh = {"X": math.pi, "T": math.pi}
    probe.write_text(json.dumps({"kind": "stability_probe", "seed": 1, "n_random": 3,
                                 "n_pairs": 4, "mesh": {**mesh, "rungs": [[8, 16], [16, 32]]}}))
    sharp.write_text(json.dumps({"kind": "sharpness", "data": {"harmonic": {"j": 2}},
                                 "mesh": {**mesh, "N": 64, "M": 128}}))
    counts = []
    with tracer.installed():
        for i in range(2):
            tracer.reset()
            assert main(["stability-probe", "--config", str(probe),
                         "--out", str(tmp_path / f"probe{i}")]) == 0
            counts.append(tracer.counts())
        assert main(["sharpness", "--config", str(sharp), "--out", str(tmp_path / "sharp")]) == 0
        for factor in (operators._implicit_factor, operators._mass_factor):
            assert callable(factor.cache_info)  # the bench counts their misses
    assert counts[0] == counts[1] and counts[0]["experiments.energy_lower_bound_margins"] == 2


def test_traced_rough_ladder_repeats_its_span_counts(tmp_path):
    # hat_step's q2h ladder as the bench's rough_ladder runs it, tiny: the data
    # layer's hat averages and the reference, traced twice with the same counts
    tracer = _tracer_class()()
    rough = tmp_path / "rough.json"
    rough.write_text(json.dumps({"kind": "converge", "data": {"preset": "hat_step"},
                                 "mode": "q2h_filtered", "fit_drop_coarsest": 0,
                                 "mesh": {"X": math.pi, "T": math.pi,
                                          "rungs": [[16, 32], [32, 64], [64, 128]]}}))
    counts = []
    with tracer.installed():
        for i in range(2):
            tracer.reset()
            assert main(["converge", "--config", str(rough),
                         "--out", str(tmp_path / f"rough{i}")]) == 0
            counts.append(tracer.counts())
    assert counts[0] == counts[1] and counts[0]["data.extension_sampler"] == 2 * 3


def test_traced_per_level_ladder_repeats_its_span_counts(tmp_path):
    # the same ladder at T = 2.5, where a tau / h is no lattice ratio: the
    # reference serves each level as it is measured, a path no bench workload runs
    tracer = _tracer_class()()
    rough = tmp_path / "rough.json"
    rough.write_text(json.dumps({"kind": "converge", "data": {"preset": "hat_step"},
                                 "mode": "q2h_filtered", "fit_drop_coarsest": 0,
                                 "mesh": {"X": math.pi, "T": 2.5,
                                          "rungs": [[16, 32], [32, 64], [64, 128]]}}))
    counts = []
    with tracer.installed():
        for i in range(2):
            tracer.reset()
            assert main(["converge", "--config", str(rough),
                         "--out", str(tmp_path / f"rough{i}")]) == 0
            counts.append(tracer.counts())
    assert counts[0] == counts[1] and counts[0]["data.extension_sampler"] == 2 * 3
