"""Per-layer spans recorded from outside the program.

Tracer.installed() replaces every public function of the layer modules (and
the public methods of their classes) with a wrapper that records a span:
its layer, its duration and the time covered by its child spans.  Because
the modules import each other's functions by name, each wrapper is patched
into every wavecompact module namespace that holds the original.  Spans are
aggregated in memory as they close; nothing is written while a pass runs.

A layer's self time is the time during which its span is the innermost
open one; its busy time is the time during which any of its spans is open.
Generator functions are left unwrapped: their bodies run inside the
consumer's span, which in this package is always in the same layer.
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import statistics
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

LAYERS = ("config", "experiments", "data", "reference", "oracle", "scheme",
          "operators", "grid")

#: private functions that are layer boundaries the per-layer metrics need
PRIVATE_BOUNDARIES = {"experiments": ("_converge_rung", "_sharpness_rung",
                                      "_write_csv", "_write_summary")}

REFERENCE_BUILDS = ("reference.SeriesReference.__init__",
                    "reference.HarmonicReference.__init__",
                    "reference.GridReference.__init__",
                    "reference.CallableReference.__init__")
RUNGS = ("experiments._converge_rung", "experiments._sharpness_rung")
#: the probe has no rung function; its rung is all bound checks on one mesh
PROBE_CHECKS = ("experiments.energy_bound_sides", "experiments.data_norm_bound_sides",
                "experiments.energy_lower_bound_margins")


class Tracer:
    def __init__(self, package: str = "wavecompact"):
        self.package = package
        self.modules = {layer: importlib.import_module(f"{package}.{layer}")
                        for layer in LAYERS}
        self._stack: list[list] = []  # open spans: [key, seconds in child spans]
        self._stats: dict[str, list] = {}  # key -> [calls, inclusive s, self s]
        self._layers = {layer: [0, 0.0, 0.0] for layer in LAYERS}  # open, self s, busy s
        self.reset()

    def reset(self) -> None:
        """Zero the aggregates; call between passes, with no span open."""
        for stat in self._stats.values():
            stat[:] = [0, 0.0, 0.0]
        for lay in self._layers.values():
            lay[1:] = [0.0, 0.0]
        self.solve_s: list[float] = []  # every solve_implicit duration
        self.levels = Counter()         # time levels stepped / measured
        self.rung = defaultdict(float)  # one rung -> seconds
        self.tails: list[tuple[int, float]] = []  # (N, SeriesReference tail)
        self.assemble_s = 0.0           # data spans directly under prepare_inputs
        self.assemble_in_evolve_s = 0.0  # prepare_inputs spans directly under evolve

    # -- recording -----------------------------------------------------------
    def _hook(self, key: str):
        """Extra bookkeeping of one span key, or None: (dt, args, parent) -> None."""
        if key == "operators.solve_implicit":
            return lambda dt, args, parent: self.solve_s.append(dt)
        if key == "scheme.evolve":
            def hook(dt, args, parent):
                self.levels[key] += args[0].M
        elif key == "scheme.measure_error":
            def hook(dt, args, parent):
                self.levels[key] += args[0].M + 1
        elif key in RUNGS:
            def hook(dt, args, parent):
                self.rung[key, len(self.rung)] = dt
        elif key in PROBE_CHECKS:
            def hook(dt, args, parent):
                self.rung["probe", args[0].N] += dt
        elif key == "reference.SeriesReference.__init__":
            def hook(dt, args, parent):
                self.tails.append((args[1].N, args[0].tail_estimate))
        elif key == "scheme.prepare_inputs":
            def hook(dt, args, parent):
                if parent is not None and parent[0] == "scheme.evolve":
                    self.assemble_in_evolve_s += dt
        elif key.startswith("data."):
            def hook(dt, args, parent):
                if parent is not None and parent[0] == "scheme.prepare_inputs":
                    self.assemble_s += dt
        else:
            return None
        return hook

    def _wrap(self, key: str, layer: str, fn):
        stack = self._stack
        stat = self._stats.setdefault(key, [0, 0.0, 0.0])
        lay = self._layers[layer]
        hook = self._hook(key)

        def span(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [key, 0.0]
            stack.append(frame)
            lay[0] += 1
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                lay[0] -= 1
                if parent is not None:
                    parent[1] += dt
                own = dt - frame[1]
                stat[0] += 1
                stat[1] += dt
                stat[2] += own
                lay[1] += own
                if lay[0] == 0:  # outermost span of its layer
                    lay[2] += dt
                if hook is not None:
                    hook(dt, args, parent)

        span.__wrapped__ = fn
        return span

    # -- installation --------------------------------------------------------
    def _targets(self):
        """(owner, attribute, original, key, layer) for everything wrapped."""
        for layer, mod in self.modules.items():
            for name, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                public = not name.startswith("_") or name in PRIVATE_BOUNDARIES.get(layer, ())
                if inspect.isfunction(obj) and public and not inspect.isgeneratorfunction(obj):
                    yield mod, name, obj, f"{layer}.{name}", layer
                elif inspect.isclass(obj) and public:
                    yield from self._class_targets(layer, obj)

    @staticmethod
    def _class_targets(layer: str, cls):
        for attr, raw in list(vars(cls).items()):
            fn = raw.__func__ if isinstance(raw, (staticmethod, classmethod)) else raw
            if not inspect.isfunction(fn) or inspect.isgeneratorfunction(fn):
                continue
            if attr.startswith("_") and attr not in ("__init__", "__call__"):
                continue
            if attr == "__init__" and dataclasses.is_dataclass(cls):
                continue  # generated field assignment, no work of its own
            yield cls, attr, raw, f"{layer}.{cls.__name__}.{attr}", layer

    @contextmanager
    def installed(self):
        patches = []
        swap = {}
        for owner, attr, raw, key, layer in self._targets():
            if isinstance(raw, (staticmethod, classmethod)):
                new = type(raw)(self._wrap(key, layer, raw.__func__))
            else:
                new = self._wrap(key, layer, raw)
                swap[id(raw)] = (raw, new)
            patches.append((owner, attr, raw))
            setattr(owner, attr, new)
        # re-point every by-name import of a wrapped function
        for name, mod in list(sys.modules.items()):
            if name != self.package and not name.startswith(self.package + "."):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = swap.get(id(obj))
                if hit is not None and hit[0] is obj and getattr(mod, attr) is not hit[1]:
                    patches.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])
        try:
            yield self
        finally:
            for owner, attr, raw in reversed(patches):
                setattr(owner, attr, raw)

    # -- per-pass metrics ----------------------------------------------------
    def pass_metrics(self, pass_s: float) -> dict[str, float]:
        """Per-layer metrics of the spans recorded since the last reset."""
        zero = (0, 0.0, 0.0)

        def calls(key):
            return self._stats.get(key, zero)[0]

        def incl(key):
            return self._stats.get(key, zero)[1]

        def own(key):
            return self._stats.get(key, zero)[2]

        m: dict[str, float] = {}
        for layer, (_, self_s, busy_s) in self._layers.items():
            m[f"{layer}.self_s"] = self_s
            m["config.load_s" if layer == "config" else f"{layer}.busy_s"] = busy_s
        m["reference.build_s"] = sum(incl(k) for k in REFERENCE_BUILDS)
        m["reference.build_self_s"] = sum(own(k) for k in REFERENCE_BUILDS)
        m["data.sine_coeff_s"] = incl("data.sine_coefficients")
        m["data.assemble_calls"] = calls("scheme.prepare_inputs")
        m["data.assemble_s"] = self.assemble_s
        solves = sorted(self.solve_s)
        m["operators.solve_calls"] = calls("operators.solve_implicit")
        m["operators.solve_us_p50"] = 1e6 * statistics.median(solves) if solves else 0.0
        m["operators.solve_us_p99"] = 1e6 * solves[int(0.99 * (len(solves) - 1))] if solves else 0.0
        m["operators.apply_calls"] = calls("operators.apply_implicit")
        m["operators.mass_norm_s"] = incl("operators.mass_inv_half_norm")
        m["scheme.evolve_s"] = incl("scheme.evolve")
        m["scheme.evolve_self_s"] = own("scheme.evolve")
        stepping = incl("scheme.evolve") - self.assemble_in_evolve_s
        m["scheme.step_us"] = 1e6 * stepping / max(1, self.levels["scheme.evolve"])
        m["scheme.measure_s"] = incl("scheme.measure_error")
        m["scheme.measure_us_per_level"] = (1e6 * incl("scheme.measure_error")
                                            / max(1, self.levels["scheme.measure_error"]))
        m["grid.energy_norm_calls"] = calls("grid.energy_norm_pair")
        m["grid.energy_norm_s"] = incl("grid.energy_norm_pair")
        m["grid.space_norm_calls"] = calls("grid.space_norm")
        m["grid.space_norm_s"] = incl("grid.space_norm")
        m["grid.require_dirichlet_calls"] = calls("grid.require_dirichlet")
        m["experiments.bounds_s"] = sum(incl(k) for k in PROBE_CHECKS)
        m["experiments.rung_s_max"] = max(self.rung.values(), default=0.0)
        m["experiments.emit_s"] = incl("experiments._write_csv") + incl("experiments._write_summary")
        m["trace.pass_s"] = pass_s
        m["trace.self_cover_frac"] = sum(lay[1] for lay in self._layers.values()) / pass_s
        return m

    def counts(self) -> dict[str, int]:
        """Every span's call count: repeats exactly for identical inputs."""
        return {key: stat[0] for key, stat in self._stats.items()}
