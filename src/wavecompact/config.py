"""Experiment configuration: JSON schema, descriptor parsing and checks.

A config file is a single JSON object:

    {
      "kind": "solve" | "converge" | "sharpness" | "oracle_check" | "stability_probe",
      "mesh": {"X": ..., "T": ..., "N": ..., "M": ...,
               "refinements": 0, "a": 1.0, "eps0": 1.0,
               "rungs": [[N1, M1], [N2, M2], ...]},             # optional, instead of N/M
      "data": {"harmonic": {"j": 0, "k": 3}}
              | {"preset": "hat_step"}
              | {"u0": {...}, "u1": {...}, "f": {...}}
              | null,
      "variant": "v2" | "v0" | "v1" | "all",                     # "all": oracle_check only
      "mode": "node_sampled" | "q2h_filtered",
      "alpha": 2.0,                                              # > 0
      "out_dir": "out",
      ...and seed, n_random, n_pairs, fit_drop_coarsest, decimate
    }

The scalar keys, variant to decimate, are the table _SCALARS: each key's default,
check and the kinds whose runner reads it.  Every key is parsed first, so a
malformed value is named; then another kind refuses any value but the default.

A key outside this schema is refused, naming the nearest key of its section
if one is close: at the top level, in mesh, in data, data.f and data.harmonic,
and in each profile or time profile descriptor, whose keys are those of its
form.  Of the removed keys only tail_fraction is ignored, as the benchmark's
rough_ladder still sends it.  A data section is one of harmonic, preset or
u0/u1/f; one that mixes them is refused, and so is a piecewise profile that
does not end at the mesh's X, within 1e-12 X.  Besides the scalar keys, what
a runner does not read is refused: a data.harmonic.k for sharpness (each
rung chooses k_h), a data section but null for stability_probe (random
data), more than one rung for solve, and a fit_drop_coarsest that leaves a
converge fit fewer than two rungs.

Profile dictionaries use the forms of data.Profile, sine_series and piecewise,
plus {"form": "harmonic", "k": k}, which parses to the one-mode sine series
Profile.harmonic_mode(k, X); a sine_series coeffs list is dense, c_1, c_2, ...,
and its zero entries are dropped as it parses.  Time profiles use the forms of
data.TimeProfile.  Every entry must be a JSON number.  Every ladder rung must
satisfy the stability condition; a rung that violates it raises
UnstableMeshError (CLI exit code 2), while malformed configuration raises
ConfigurationError (exit code 3).  A converge ladder must not repeat an N,
and every N is at least 3: the implicit solve needs two interior nodes.

config_from_dict parses and checks a config in one pass.  The data section
becomes config.data, the DataSpec every rung steps: zero data for null,
PRESETS[name].make(X), the descriptor tree, or harmonic_dataspec (sharpness
keeps only j).  A harmonic k, of data.harmonic or of a harmonic profile
descriptor, that the finest rung does not resolve is a MeshTooCoarseError
(exit code 2), or a ConfigurationError if no mesh of N, M <= MAX_CELLS at
its tau/h does; one that it resolves is one stored mode.  A converge with
zero data, or with data that has no exact reference (reference.reference_refusal:
a forcing without a sine_series space factor and a harmonic_sin time factor,
or one resonant with a mode k), is refused with that reason.  So is a rung
whose arrays held at once exceed physical memory, naming their bytes: the
(M+1, N+1) levels solve stores, and scheme.level_bytes per column of the runners
that step block by block: of a measured converge or sharpness run, twice for
oracle-check (the stepping loop's buffers and the closed form's block), and of
a forced run for the probe, plus 256 KiB for its data descriptors, row views and
numpy's iteration buffers, and per pair of n_pairs the larger of its draws' and
margins' 8 (N+1) floats and its two rows with their CSV cells, plus the rows of
the rungs before (they are kept until emit); plus reference.reference_bytes
where a run builds it, or reference.build_bytes if larger: the reference is
built before the run's arrays are, and its build count reads only the mesh
and the forced modes, its samplers holding O(points) whatever the data.
Runs step one rung at a time: that is all they hold.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from pathlib import Path

from .data import PRESETS, U1_VARIANTS, DataSpec, Forcing, Profile, TimeProfile
from .errors import ConfigurationError
from .grid import MAX_CELLS, MeshSpec, build_mesh, check_stable
from .oracle import HarmonicData, harmonic_dataspec, require_resolved
from .reference import build_bytes, reference_bytes, reference_refusal
from .scheme import ERROR_MODES, level_bytes

KINDS = ("solve", "converge", "sharpness", "oracle_check", "stability_probe")
#: one row per scalar key of a config: its default, its check (value, key, kind ->
#: the value parsed, else a ConfigurationError naming key) and the kinds whose
#: runner reads it; any other kind refuses a value but the default
_SCALARS = {
    "variant": ("v2", lambda v, key, kind: _choice(
        v, key, (*U1_VARIANTS, "all") if kind == "oracle_check" else U1_VARIANTS),
        ("solve", "converge", "sharpness", "oracle_check")),
    "mode": ("node_sampled", lambda v, key, kind: _choice(v, key, ERROR_MODES),
             ("solve", "converge")),
    "alpha": (2.0, lambda v, key, kind: _number(v, key, positive=True), ("sharpness",)),
    "out_dir": ("out", lambda v, key, kind: Path(_choice(v, key, None)), KINDS),
    "seed": (0, lambda v, key, kind: _integer(v, key, 0), ("stability_probe",)),
    "n_random": (20, lambda v, key, kind: _integer(v, key, 1), ("stability_probe",)),
    "n_pairs": (100, lambda v, key, kind: _integer(v, key, 1), ("stability_probe",)),
    "fit_drop_coarsest": (1, lambda v, key, kind: _integer(v, key, 0), ("converge",)),
    "decimate": (32, lambda v, key, kind: _integer(v, key, 1), ("solve",)),
}
_KEYS = {"config": ("kind", "mesh", "data", *_SCALARS),
         "mesh": ("X", "T", "N", "M", "refinements", "a", "eps0", "rungs")}
#: a removed key still ignored, as the benchmark's rough_ladder sends it
_IGNORED_KEYS = ("tail_fraction",)
#: the keys of a data section, and of each profile and time profile form besides 'form'
_DATA_KEYS = ("harmonic", "preset", "u0", "u1", "f")
#: the bytes of a stability-probe row and its seven CSV cells (tracemalloc: about 610)
_PROBE_ROW_BYTES = 1024
_FORM_KEYS = {"harmonic": ("k",), "sine_series": ("coeffs",),
              "piecewise": ("breakpoints", "pieces"), "harmonic_sin": ("omega",),
              "polynomial": ("coeffs",)}


def _refuse_unknown(section: dict, known: tuple, where: str, ignored: tuple = ()) -> None:
    """Refuse a key of section outside known and ignored, naming the known key
    nearest to it if one is close (difflib's default cutoff, 0.6)."""
    for key in (key for key in section if key not in known + ignored):
        import difflib  # 0.25 MB and a millisecond: only on this error path
        near = difflib.get_close_matches(str(key), known, n=1)
        raise ConfigurationError(f"unknown {where} key {key!r}"
                                 + "".join(f"; did you mean {k!r}?" for k in near))


# --------------------------------------------------------------------------
# descriptor parsing

def _list(value, key: str) -> list:
    """value as a JSON list, else a ConfigurationError naming key."""
    if not isinstance(value, list):
        raise ConfigurationError(f"{key} must be a list, got {value!r}")
    return value


def _numbers(value, key: str) -> tuple[float, ...]:
    """value as a tuple of finite numbers, else a ConfigurationError naming key."""
    return tuple(_number(v, key) for v in _list(value, key))


def _form(value, what: str, forms: tuple) -> str:
    """The form of a descriptor: value must be an object with a 'form' key, one of
    forms, and no key outside that form's, else a ConfigurationError naming what."""
    if not isinstance(value, dict) or "form" not in value:
        raise ConfigurationError(f"{what} must be an object with a 'form' key, got {value!r}")
    form = value["form"]
    if form not in forms:
        raise ConfigurationError(f"unknown {what} form {form!r}")
    _refuse_unknown(value, ("form",) + _FORM_KEYS[form], f"{form} {what}")
    return form


def profile_from_dict(d: dict, finest: MeshSpec) -> Profile:
    """The Profile of a descriptor on finest's [0, X]; a harmonic k that
    finest does not resolve is refused (oracle.require_resolved)."""
    form = _form(d, "profile", ("harmonic", "sine_series", "piecewise"))
    if form == "harmonic":
        k = _integer(d["k"], "profile k", 1)
        require_resolved(k, finest)
        return Profile.harmonic_mode(k, finest.X)
    if form == "sine_series":
        return Profile.sine_series(_numbers(d.get("coeffs", []), "profile coeffs"), finest.X)
    return Profile.piecewise_poly(
        _numbers(d["breakpoints"], "profile breakpoints"),
        [_numbers(p, "profile pieces") for p in _list(d["pieces"], "profile pieces")])


def time_profile_from_dict(d: dict) -> TimeProfile:
    if _form(d, "time profile", ("harmonic_sin", "polynomial")) == "harmonic_sin":
        return TimeProfile.harmonic_sin(_number(d["omega"], "time profile omega"))
    return TimeProfile.polynomial(_numbers(d.get("coeffs", []), "time profile coeffs"))


def dataspec_from_dict(d: dict, finest: MeshSpec) -> DataSpec:
    X = finest.X
    try:
        u0 = profile_from_dict(d["u0"], finest) if d.get("u0") else Profile.zero(X)
        u1 = profile_from_dict(d["u1"], finest) if d.get("u1") else Profile.zero(X)
        f = None
        if d.get("f"):
            fd = d["f"]
            if not isinstance(fd, dict):
                raise ConfigurationError(f"data.f must be an object, got {fd!r}")
            _refuse_unknown(fd, ("space", "time"), "data.f")
            f = Forcing(space=profile_from_dict(fd["space"], finest),
                        time=time_profile_from_dict(fd["time"]))
    except KeyError as exc:
        raise ConfigurationError(f"missing data key: {exc}") from exc
    # a piecewise profile's X is its last breakpoint: the steppers take it within 1e-12 X
    for name, p in (("u0", u0), ("u1", u1), ("f.space", f and f.space)):
        if p and abs(p.X - X) > 1e-12 * X:
            raise ConfigurationError(f"data.{name} ends at {p.X!r}, but the mesh's X is {X!r}")
    return DataSpec(u0=u0, u1=u1, f=f)


# --------------------------------------------------------------------------
# the experiment config

@dataclass
class ExperimentConfig:
    """A checked experiment, every field read from the config: the runners
    step its rungs one at a time.  data is what every rung steps: None only
    for sharpness, whose mode k_h each rung chooses from sharpness_j."""

    kind: str
    rungs: list[MeshSpec]
    data: DataSpec | None
    sharpness_j: int | None
    echo: dict
    variant: str
    mode: str
    alpha: float
    out_dir: Path
    seed: int
    n_random: int
    n_pairs: int
    fit_drop_coarsest: int
    decimate: int


def _integer(value, key: str, minimum: int | None = None, maximum: int | None = None) -> int:
    """value as an integer within the bounds that are given (integral floats
    accepted), else a ConfigurationError naming key."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if (isinstance(value, bool) or not isinstance(value, int)
            or (minimum is not None and value < minimum)
            or (maximum is not None and value > maximum)):
        bound = "" if minimum is None else f" >= {minimum}"
        bound += "" if maximum is None else f" and <= {maximum}"
        raise ConfigurationError(f"{key} must be an integer{bound}, got {value!r}")
    return value


def _number(value, key: str, positive: bool = False) -> float:
    """value as a finite float (a JSON number), positive if asked, else a
    ConfigurationError naming key."""
    if not isinstance(value, bool) and isinstance(value, (int, float)):
        try:
            number = float(value)
        except OverflowError:
            number = math.inf
        if math.isfinite(number) and (number > 0 or not positive):
            return number
    raise ConfigurationError(f"{key} must be a finite number{' > 0' * positive}, got {value!r}")


def _choice(value, key: str, allowed: tuple | None) -> str:
    """value as a string, one of allowed unless that is None, else a
    ConfigurationError naming key."""
    if not isinstance(value, str) or (allowed is not None and value not in allowed):
        wanted = "a string" if allowed is None else f"one of {allowed}"
        raise ConfigurationError(f"{key} must be {wanted}, got {value!r}")
    return value


def _build_rungs(mesh_cfg: dict) -> list[MeshSpec]:
    try:
        X = _number(mesh_cfg["X"], "mesh.X")
        T = _number(mesh_cfg["T"], "mesh.T")
    except KeyError as exc:
        raise ConfigurationError(f"mesh section is missing {exc}") from exc
    a = _number(mesh_cfg.get("a", 1.0), "mesh.a")
    eps0 = _number(mesh_cfg.get("eps0", 1.0), "mesh.eps0")

    def one(N: int, M: int) -> MeshSpec:
        return build_mesh(X, T, N, M, a, eps0)

    if "rungs" in mesh_cfg:
        for key in ("N", "M", "refinements"):
            if key in mesh_cfg:
                raise ConfigurationError(
                    f"mesh.{key} is not read when mesh.rungs is given; drop it")
        pairs = mesh_cfg["rungs"]
        if not (isinstance(pairs, (list, tuple)) and pairs
                and all(isinstance(p, (list, tuple)) and len(p) == 2 for p in pairs)):
            raise ConfigurationError(
                f"mesh.rungs must be a nonempty list of [N, M] pairs, got {pairs!r}")
        return [one(_integer(n, "mesh.rungs N", 3, MAX_CELLS),
                    _integer(m, "mesh.rungs M", 1, MAX_CELLS)) for n, m in pairs]

    for key in ("N", "M"):
        if key not in mesh_cfg:
            raise ConfigurationError(f"mesh section needs {key} (or explicit rungs)")
    N = _integer(mesh_cfg["N"], "mesh.N", 3, MAX_CELLS)
    M = _integer(mesh_cfg["M"], "mesh.M", 1, MAX_CELLS)
    # the most doublings that keep the finest rung's N and M within MAX_CELLS
    refinements = _integer(mesh_cfg.get("refinements", 0), "mesh.refinements", 0,
                           (MAX_CELLS // max(N, M)).bit_length() - 1)
    return [one(N * 2 ** r, M * 2 ** r) for r in range(refinements + 1)]


def config_from_dict(raw: dict) -> ExperimentConfig:
    """Parse and check a config in one pass; the data section becomes config.data."""
    if not isinstance(raw, dict):
        raise ConfigurationError("config must be a JSON object")
    kind = _choice(raw.get("kind"), "kind", KINDS)
    mesh_cfg = raw.get("mesh")
    if not isinstance(mesh_cfg, dict):
        raise ConfigurationError("config needs a 'mesh' object")
    _refuse_unknown(raw, _KEYS["config"], "config", _IGNORED_KEYS)
    _refuse_unknown(mesh_cfg, _KEYS["mesh"], "mesh")
    rungs = _build_rungs(mesh_cfg)
    X, finest = rungs[0].X, max(rungs, key=lambda mesh: mesh.N)

    data_cfg = raw.get("data")
    sharpness_j = None
    if isinstance(data_cfg, dict):
        _refuse_unknown(data_cfg, _DATA_KEYS, "data")
        given = [g for g in ("harmonic", "preset", "u0/u1/f")
                 if any(key in data_cfg for key in g.split("/"))]
        if len(given) > 1:
            raise ConfigurationError(f"the data section mixes {' and '.join(given)}: give "
                                     "one of harmonic, preset or u0/u1/f")
    if data_cfg is None:
        data = DataSpec(u0=Profile.zero(X), u1=Profile.zero(X))
    elif not isinstance(data_cfg, dict):
        raise ConfigurationError("'data' must be an object or null")
    elif "harmonic" in data_cfg:
        hc = data_cfg["harmonic"]
        if not isinstance(hc, dict):
            raise ConfigurationError(f"data.harmonic must be an object, got {hc!r}")
        _refuse_unknown(hc, ("j", "k"), "data.harmonic")
        j = _integer(hc.get("j", 0), "data.harmonic.j")
        if kind == "sharpness":
            if j not in (0, 1, 2):
                raise ConfigurationError("harmonic j must be 0, 1 or 2")
            if "k" in hc:  # a key the runner does not read
                raise ConfigurationError(f"data.harmonic.k {hc['k']!r} is not read by sharpness "
                                         "runs, which choose k_h on each rung; drop the "
                                         "data.harmonic.k key")
            sharpness_j, data = j, None
        else:
            try:
                harmonic = HarmonicData(j=j, k=_integer(hc.get("k", 1), "data.harmonic.k"))
            except ValueError as exc:
                raise ConfigurationError(f"invalid harmonic data: {exc}") from exc
            # k is checked against the finest rung; the data are valid
            # on every rung: they read only X and a, which the rungs share
            require_resolved(harmonic.k, finest)
            data = harmonic_dataspec(harmonic, rungs[0])
    elif "preset" in data_cfg:
        data = PRESETS[_choice(data_cfg["preset"], "data.preset", tuple(PRESETS))].make(X)
    else:
        data = dataspec_from_dict(data_cfg, finest)

    scalars = {key: check(raw.get(key, default), key, kind)
               for key, (default, check, _) in _SCALARS.items()}
    # a key the runner does not read: a value other than the one it uses is refused
    for key, (default, _, readers) in _SCALARS.items():
        if kind not in readers and scalars[key] != default:
            raise ConfigurationError(f"{key} {raw[key]!r} is not read by {kind} runs, which "
                                     f"use only {json.dumps(default)}; drop the {key} key")
    if kind == "stability_probe" and data_cfg is not None:
        raise ConfigurationError(f"data {data_cfg!r} is not read by stability_probe runs, "
                                 "which use only null; drop the data key")
    cfg = ExperimentConfig(kind=kind, rungs=rungs, data=data, sharpness_j=sharpness_j,
                           echo=dict(raw), **scalars)
    if kind == "converge":
        if len(rungs) < 3:
            raise ConfigurationError("convergence studies need a ladder of >= 3 rungs")
        if cfg.fit_drop_coarsest > len(rungs) - 2:
            raise ConfigurationError(f"fit_drop_coarsest {cfg.fit_drop_coarsest} must be <= "
                                     f"{len(rungs) - 2}: the fit needs two of {len(rungs)} rungs")
        if len({mesh.N for mesh in rungs}) < len(rungs):
            raise ConfigurationError(f"mesh.rungs repeat an N: {[mesh.N for mesh in rungs]}")
        refusal = reference_refusal(rungs[0], data)  # the rungs share X and a
        if refusal is not None:
            raise ConfigurationError(refusal)
        if data.f is None and not any(p.coeffs or any(map(any, p.pieces or ()))
                                      for p in (data.u0, data.u1)):
            raise ConfigurationError("convergence studies need nonzero data to fit an order")
    if kind == "sharpness" and sharpness_j is None:
        raise ConfigurationError("sharpness runs need data: {'harmonic': {'j': ...}}")
    if kind == "solve" and len(rungs) > 1:
        key = "mesh.rungs" if "rungs" in mesh_cfg else "mesh.refinements"
        raise ConfigurationError(f"{key} gives {len(rungs)} rungs, but solve runs step one mesh")
    memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    forced = kind == "stability_probe" or sharpness_j == 2 or bool(data and data.f)  # probe: random
    # solve stores its (M+1, N+1) levels; the other runners step block by block and hold
    # buffers per column: oracle-check twice, the stepping loop's and the closed form's
    columns = {"oracle_check": 2 * len(U1_VARIANTS) if cfg.variant == "all" else 2,
               "stability_probe": cfg.n_random}.get(kind, 1)
    # runs that build the exact reference hold it too (sharpness: one forced mode)
    builds = kind in ("converge", "sharpness") or (
        kind == "solve" and reference_refusal(rungs[0], data) is None)
    modes = len(data.f.space.modes) if builds and data and data.f else forced
    for rung, mesh in enumerate(rungs):
        check_stable(mesh)
        held = (8 * (mesh.M + 1) * (mesh.N + 1) if kind == "solve"
                else columns * level_bytes(mesh, forced))
        if builds:  # the reference is built before the run's arrays are allocated
            held = max(held + reference_bytes(mesh, modes), build_bytes(mesh, modes))
        # the probe: what does not grow with the mesh, and per pair the larger of its
        # draws' and margins' 8 (N+1) floats and its two rows, plus the two rows of each
        # rung before (kept until emit), each row with its CSV cells
        held += kind == "stability_probe" and 2 ** 18 + cfg.n_pairs * (
            max(64 * (mesh.N + 1), 2 * _PROBE_ROW_BYTES) + 2 * rung * _PROBE_ROW_BYTES)
        if held > memory:
            raise ConfigurationError(f"the N={mesh.N}, M={mesh.M} rung holds {held} bytes of "
                                     f"arrays at once, more than the {memory} bytes of memory")
    return cfg


def load_config(path) -> ExperimentConfig:
    path = Path(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError as exc:
        raise ConfigurationError(f"config file not found: {path}") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigurationError(f"config file {path} cannot be read: {exc}") from exc
    except ValueError as exc:  # JSONDecodeError, or an integer of too many digits
        raise ConfigurationError(f"config file {path} is not valid JSON: {exc}") from exc
    return config_from_dict(raw)
