"""Data descriptors and the hat-function averages that feed the scheme.

Initial data and forcing enter the time stepper only through integrals
against the piecewise-linear "hat" basis, which is what lets the scheme
accept merely integrable data:

    (q_h w)_i   = (1/h)   int w(x) e_i(x) dx,           1 <= i <= N-1,
    (q_tau z)_0 = (2/tau) int_0^tau z(t) e_0(t) dt,
    (q_tau z)_m = (1/tau) int z(t) e_m(t) dt,           1 <= m <= M-1,

with e_i the hat centered at node i.  Boundary entries of q_h are zero.  The
second-level average q_2h combines q_h with the Numerov correction,

    (q_2h w)_i = (-q_h w_{i-1} + 14 q_h w_i - q_h w_{i+1}) / 12;

the exact reference filters its hat averages so (reference.Reference.q2h_values).

Quadrature policy: integration cells are split at descriptor breakpoints and
each panel uses the Gauss-Legendre rule of _gauss_nodes, at least 8 nodes and
exact for the piece times a hat at any degree, so discontinuous data adds no
quadrature noise; q_h is extension_sampler's hat average.  A sine series is
held as its nonzero modes (Profile.modes, with their amplitudes in
Profile.coeffs), and every consumer reads those pairs: its hat averages use
the exact eigenfactor (sin(wh/2)/(wh/2))^2 of each mode instead of panels.  A
jump of a piecewise profile evaluates to the mean of its two sides.  The data
norms of the stability bounds use the same panels on the one cell
(0, X) or (0, T), exact for the squared pieces, with |g| split at the real
roots of g as well; a sine series takes its norms from its coefficients.

One quadrature call per stack: the averages, node samples and norms take one
descriptor or a stack of them (a list), whose piecewise profiles or
polynomial time factors _piecewise_stack evaluates and _hat_cell_integrals
integrates in one call, each row on its own panels and Gauss rule, so every
row has the bits of its descriptor alone; a single descriptor is a stack of
one.  Sine series and harmonic factors take their closed forms row by row.

Descriptors refuse non-finite entries with a ConfigurationError naming the
entry.  PRESETS holds the rough data of the convergence studies, hat_step
(smoothness 3/2) and quad_spline_hat (5/2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np
from numpy.polynomial import polynomial as npoly

from .errors import ConfigurationError, ContractViolation, QuadratureError
from .grid import GridFn, MeshSpec
from .operators import stencil

PROFILE_FORMS = ("sine_series", "piecewise")
TIME_FORMS = ("harmonic_sin", "polynomial")
U1_VARIANTS = ("v0", "v1", "v2")


# --------------------------------------------------------------------------
# descriptors

def _require_finite(what: str, values) -> None:
    """Refuse a descriptor entry that is not a finite number, naming it."""
    for v in values:
        if not math.isfinite(v):
            raise ConfigurationError(f"{what} must be finite, got {v!r}")


@dataclass(frozen=True)
class Profile:
    """Spatial data descriptor on (0, X).

    Forms
    -----
    sine_series  sum_k c_k sqrt(2/X) sin(pi k x / X) with orthonormal c_k,
                 held as its nonzero modes: coeffs are the c_k of the
                 strictly increasing modes k >= 1, so a mode k costs O(1);
                 harmonic_mode(k, X) is the single mode sin(pi k x / X)
    piecewise    polynomial pieces between strictly increasing breakpoints
                 spanning [0, X], coefficients in ascending powers of the
                 global coordinate; a jump evaluates to the mean of its sides
    """

    X: float
    form: str
    coeffs: tuple[float, ...] | None = None
    modes: tuple[int, ...] | None = None
    breakpoints: tuple[float, ...] | None = None
    pieces: tuple[tuple[float, ...], ...] | None = None

    def __post_init__(self):
        if self.form not in PROFILE_FORMS:
            raise ConfigurationError(f"unknown profile form {self.form!r}")
        # the breakpoints first: X is read off them
        _require_finite("profile breakpoints", self.breakpoints or ())
        _require_finite("profile pieces", (c for p in self.pieces or () for c in p))
        if self.form == "piecewise":
            b = self.breakpoints
            if b is None or self.pieces is None:
                raise ConfigurationError("piecewise profile needs breakpoints and pieces")
            if len(b) < 2 or len(b) != len(self.pieces) + 1:
                raise ConfigurationError(
                    f"piecewise profile needs at least two breakpoints and one piece "
                    f"between each two, got {len(b)} breakpoints and {len(self.pieces)} pieces")
            if not all(self.pieces):
                raise ConfigurationError("piecewise profile pieces must not be empty")
            if b[0] != 0.0 or abs(b[-1] - self.X) > 1e-12 * self.X:
                raise ConfigurationError("breakpoints must start at 0 and end at X")
            if np.any(np.diff(b) <= 0):
                raise ConfigurationError("breakpoints must be strictly increasing")
        if not 0.0 < self.X < math.inf:
            raise ConfigurationError(f"domain length must be positive and finite, got {self.X}")
        k, c = self.modes, self.coeffs
        if self.form == "sine_series" and (
                None in (k, c) or len(k) != len(c) or 0.0 in c
                or not all(isinstance(b, int) and a < b for a, b in zip((0,) + k, k))):
            raise ConfigurationError("sine_series profile needs strictly increasing integer "
                                     "modes >= 1 and one nonzero coefficient each")
        _require_finite("profile coefficients", self.coeffs or ())

    # -- constructors ------------------------------------------------------
    @staticmethod
    def harmonic_mode(k: int, X: float) -> "Profile":
        """sin(pi k x / X) as the one-mode sine series."""
        amplitude = np.sqrt(max(X, 0.0) / 2.0)  # the constructor refuses X <= 0 and inf
        return Profile.sine_series((amplitude,), X, (k,))

    @staticmethod
    def sine_series(coeffs, X: float, modes=None) -> "Profile":
        """The series of coeffs: c_k of the given integer modes or, dense, of
        k = 1, 2, ...; the zero ones are dropped."""
        modes = range(1, len(coeffs) + 1) if modes is None else np.asarray(modes).tolist()
        pairs = [(k, float(c)) for k, c in zip(modes, coeffs, strict=True) if c != 0.0]
        return Profile(X=float(X), form="sine_series", modes=tuple(k for k, _ in pairs),
                       coeffs=tuple(c for _, c in pairs))

    @staticmethod
    def piecewise_poly(breakpoints, pieces) -> "Profile":
        bp = tuple(float(b) for b in breakpoints)
        return Profile(X=bp[-1] if bp else 0.0, form="piecewise", breakpoints=bp,
                       pieces=tuple(tuple(float(c) for c in p) for p in pieces))

    @staticmethod
    def zero(X: float) -> "Profile":
        return Profile.sine_series((), X)

    # -- pointwise evaluation ---------------------------------------------
    def __call__(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.form == "sine_series":
            out = np.zeros_like(x)
            root = np.sqrt(2.0 / self.X)
            for k, c in zip(self.modes, self.coeffs):
                out += c * root * np.sin(np.pi * k * x / self.X)
            return out
        return _piecewise_stack(self.X, [self.breakpoints], [self.pieces])(0, x)


def _piecewise_stack(X: float, breakpoints, pieces):
    """evaluate(rows, x) of B piecewise polynomials on (0, X), row b the
    breakpoints[b] and pieces[b] of a piecewise Profile, at x, rows broadcast
    against x giving the row of each x.  One Horner loop over the zero-padded
    coefficient table, gathered by piece, gives polyval's bits and an interior
    breakpoint the mean of its sides: each row has its profile's bits."""
    P, width = max(map(len, pieces)), max(len(c) for row in pieces for c in row)
    inner = np.full((P - 1, len(pieces)), np.nan)  # by column; NaN compares false
    table = np.zeros((width, len(pieces) * P))  # coefficient k of piece j of row b at [k, bP + j]
    for b, (bp, row) in enumerate(zip(breakpoints, pieces)):
        inner[:len(row) - 1, b] = bp[1:-1]
        for j, c in enumerate(row):
            table[:len(c), b * P + j] = c

    def horner(piece, x):
        out = np.zeros(np.broadcast(piece, x).shape)
        for k in reversed(range(width)):
            out *= x
            out += table[k].take(piece)
        return out

    def evaluate(rows, x):
        cuts = [col[rows] for col in inner]
        out = horner(rows * P + sum(x >= cut for cut in cuts), x)
        for j, cut in enumerate(cuts):  # near breakpoint j the mean of pieces j and j + 1
            near = np.abs(x - cut) <= 1e-13 * X
            if near.any():
                left = rows * P + j
                np.copyto(out, 0.5 * (horner(left, cut) + horner(left + 1, cut)), where=near)
        return out
    return evaluate


@dataclass(frozen=True)
class TimeProfile:
    """Separable time factor of the forcing on (0, T).

    Forms: harmonic_sin -> sin(omega t); polynomial with ascending
    coefficients.
    """

    form: str
    omega: float | None = None
    coeffs: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.form not in TIME_FORMS:
            raise ConfigurationError(f"unknown time profile form {self.form!r}")
        _require_finite("time profile omega", () if self.omega is None else (self.omega,))
        _require_finite("time profile coefficients", self.coeffs or ())
        if self.form == "harmonic_sin" and self.omega is None:
            raise ConfigurationError("harmonic_sin needs omega")
        if self.form == "polynomial" and not self.coeffs:
            raise ConfigurationError("polynomial time profile needs coefficients")

    @staticmethod
    def harmonic_sin(omega: float) -> "TimeProfile":
        return TimeProfile(form="harmonic_sin", omega=float(omega))

    @staticmethod
    def polynomial(coeffs) -> "TimeProfile":
        return TimeProfile(form="polynomial", coeffs=tuple(float(c) for c in coeffs))

    def __call__(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        if self.form == "harmonic_sin":
            return np.sin(self.omega * t)
        return npoly.polyval(t, self.coeffs)


@dataclass(frozen=True)
class Forcing:
    """Separable forcing f(x, t) = space(x) * time(t)."""

    space: Profile
    time: TimeProfile


@dataclass(frozen=True)
class DataSpec:
    """The data triple (u0, u1, f) of the problem; f may be absent."""

    u0: Profile
    u1: Profile
    f: Forcing | None = None

    def __post_init__(self):
        xs = {self.u0.X, self.u1.X}
        if self.f is not None:
            xs.add(self.f.space.X)
        if max(xs) - min(xs) > 1e-12 * max(xs):
            raise ConfigurationError("u0, u1 and f must share the same domain length")

    @property
    def X(self) -> float:
        return self.u0.X


# --------------------------------------------------------------------------
# data presets

def hat_profile(X: float) -> Profile:
    """Continuous piecewise-linear bump, peak 1 at X/2; coefficients ~ k^-2."""
    return Profile.piecewise_poly((0.0, X / 2.0, X), ((0.0, 2.0 / X), (2.0, -2.0 / X)))


def step_profile(X: float) -> Profile:
    """Centered step: +1 on (0, X/2), -1 on (X/2, X); coefficients ~ k^-1."""
    return Profile.piecewise_poly((0.0, X / 2.0, X), ((1.0,), (-1.0,)))


def quad_spline_profile(X: float) -> Profile:
    """C^1 piecewise quadratic with a derivative kink at X/2 (integrated hat,
    zero mean slope); coefficients ~ k^-3."""
    return Profile.piecewise_poly((0.0, X / 2.0, X),
                                  ((0.0, -0.5, 1.0 / X), (-X / 2.0, 1.5, -1.0 / X)))


@dataclass(frozen=True)
class DataPreset:
    """Unforced rough data (u0(X), u1(X)) of a known smoothness."""

    smoothness: float  # data smoothness exponent driving the expected rate
    u0: Callable[[float], Profile]
    u1: Callable[[float], Profile]

    @property
    def expected_order(self) -> float:
        return 4.0 * (self.smoothness - 1.0) / 5.0

    def make(self, X: float) -> DataSpec:
        return DataSpec(u0=self.u0(X), u1=self.u1(X))


PRESETS = {
    "hat_step": DataPreset(1.5, hat_profile, step_profile),
    "quad_spline_hat": DataPreset(2.5, quad_spline_profile, hat_profile),
}


# --------------------------------------------------------------------------
# Gauss-Legendre panel quadrature

@lru_cache(maxsize=32)
def _gauss_rule(n: int):
    nodes, weights = np.polynomial.legendre.leggauss(n)
    return nodes, weights


def _gauss_nodes(n_coeffs: int) -> int:
    """Gauss nodes per panel, at least 8, exact for n_coeffs coefficients times a hat."""
    return max(8, (n_coeffs + 2) // 2 + 1)


def _hat_cell_integrals(evaluate, edges: np.ndarray, splits, n_nodes, label: str):
    """Per-cell integrals of f times the rising and falling hat weights.

    For each cell [edges[j], edges[j+1]] returns

        I_rise[j] = int f(x) (x - left)  / width dx,
        I_fall[j] = int f(x) (right - x) / width dx,

    splitting every cell at the supplied breakpoints that lie inside it, more
    than 1e-14 * width from its edges.  A batch of B integrands: splits (B, S),
    NaN-padded, n_nodes one count or one per row, evaluate(rows, x), rows the
    row of each x, and (B, cells) results, each row with the panels, rule,
    first non-finite cell and bits of its own call.
    """
    splits = np.asarray(splits, dtype=float)
    B, ncells = len(splits), len(edges) - 1
    width = edges[1] - edges[0]
    cell = np.searchsorted(edges[1:-1], splits, side="right")  # an end cell if outside
    keep = ((splits > edges[cell] + 1e-14 * width)
            & (splits < edges[cell + 1] - 1e-14 * width))
    # each row's panel boundaries, in order: the cell edges and its kept splits
    bounds = np.empty((B, ncells + 1 + splits.shape[1]))
    bounds[:, :ncells + 1] = edges
    bounds[:, ncells + 1:] = np.where(keep, splits, np.nan)
    bounds.sort(axis=1)
    valid = ~np.isnan(bounds[:, 1:])
    panel_lo, panel_hi = bounds[:, :-1][valid], bounds[:, 1:][valid]
    panel_row = np.repeat(np.arange(B), valid.sum(axis=1))
    panel_cell = np.searchsorted(edges, panel_lo, side="right") - 1

    counts = np.zeros(B, dtype=int) + n_nodes
    rules = sorted(set(counts.tolist()))
    rise, fall = np.empty((2, len(panel_lo)))
    for n in rules:  # one Gauss rule per node count
        sel = slice(None) if len(rules) == 1 else counts[panel_row] == n
        gn, gw = _gauss_rule(n)
        half = 0.5 * (panel_hi[sel] - panel_lo[sel])
        mid = 0.5 * (panel_hi[sel] + panel_lo[sel])
        pts = mid[:, None] + half[:, None] * gn[None, :]
        vals = evaluate(panel_row[sel, None], pts)
        if not np.all(np.isfinite(vals)):
            bad = int(panel_cell[sel][np.argmax(~np.all(np.isfinite(vals), axis=1))])
            raise QuadratureError(f"non-finite values while integrating {label}", cell=bad)
        rise_w = (pts - edges[panel_cell[sel]][:, None]) / width
        base = vals * gw[None, :] * half[:, None]
        rise[sel] = np.sum(base * rise_w, axis=1)
        fall[sel] = np.sum(base * (1.0 - rise_w), axis=1)
    rise, fall = (np.bincount(panel_row * ncells + panel_cell, w, B * ncells).reshape(B, ncells)
                  for w in (rise, fall))
    return rise, fall


def _padded(rows) -> np.ndarray:
    """Rows of splits of any lengths as one (B, S) array, NaN-padded."""
    out = np.full((len(rows), max(map(len, rows))), np.nan)
    for b, row in enumerate(rows):
        out[b, :len(row)] = row
    return out


def _by_form(w, form: str, closed, batched):
    """The rows of a stack of descriptors, a list or tuple w, in order: those
    of the given form from one batched(list of them) call, and each other
    one's closed(descriptor).  One descriptor w is a stack of one, whose row
    is returned, a float for a number."""
    ws = list(w) if isinstance(w, (list, tuple)) else [w]
    picked = [b for b, d in enumerate(ws) if d.form == form]
    rows = [None if d.form == form else closed(d) for d in ws]
    for b, row in zip(picked, batched([ws[b] for b in picked]) if picked else ()):
        rows[b] = row
    out = np.array(rows, dtype=float)
    return out if isinstance(w, (list, tuple)) else float(out[0]) if out.ndim == 1 else out[0]


def hat_average_factor(y):
    """Eigenfactor (sin(y/2) / (y/2))^2 of the hat average on frequency y = w*step."""
    y = np.asarray(y, dtype=float)
    half = 0.5 * y
    with np.errstate(invalid="ignore", divide="ignore"):
        fac = np.where(half == 0.0, 1.0, (np.sin(half) / np.where(half == 0.0, 1.0, half)) ** 2)
    return fac


# --------------------------------------------------------------------------
# the averages

def average_qh(w, mesh: MeshSpec) -> GridFn:
    """Hat average of a spatial profile, or the (B, N+1) rows of a stack of
    profiles; boundary entries are zero.

    This is extension_sampler's hat average at the nodes: on (0, X) the odd
    extension is w itself.
    """
    if any(abs(p.X - mesh.X) > 1e-12 * mesh.X
           for p in (w if isinstance(w, (list, tuple)) else [w])):
        raise ContractViolation("profile and mesh domain lengths differ")
    try:
        out = _by_form(w, "piecewise",
                       lambda p: extension_sampler(p, False)[1](0.0, mesh.N + 1, mesh.h),
                       lambda ps: _folded_stack(ps, False)[1](0.0, mesh.N + 1, mesh.h))
    except QuadratureError as exc:
        # sampler cell c is mesh cell c - 1; the two outside (0, X) mirror their neighbours
        cell = min(max(exc.cell - 1, 0), mesh.N - 1)
        raise QuadratureError(f"non-finite values while integrating q_h profile on mesh cell "
                              f"{cell}", cell=cell) from exc
    out[..., ::mesh.N] = 0.0
    return out


def average_qtau(g, mesh: MeshSpec) -> np.ndarray:
    """Hat averages of a time factor at the levels 0..M-1, or the (B, M) rows
    of a stack of time factors.

    The first level uses the one-sided weight: (q_tau g)_0 = (2/tau) times the
    integral of g against the falling half hat on [0, tau].
    """
    def harmonic(g):
        out = np.empty(mesh.M)
        y = g.omega * mesh.tau
        out[0] = 0.0 if y == 0.0 else 2.0 / y * (1.0 - np.sin(y) / y)
        out[1:] = hat_average_factor(y) * np.sin(g.omega * mesh.times()[1:mesh.M])
        return out

    def polynomial(gs):
        i_rise, i_fall = _hat_cell_integrals(
            _piecewise_stack(mesh.T, [(0.0, mesh.T)] * len(gs), [(g.coeffs,) for g in gs]),
            mesh.times(), np.empty((len(gs), 0)), [_gauss_nodes(len(g.coeffs)) for g in gs],
            "q_tau profile")
        out = np.empty((len(gs), mesh.M))
        out[:, 0] = 2.0 / mesh.tau * i_fall[:, 0]
        out[:, 1:] = (i_rise[:, : mesh.M - 1] + i_fall[:, 1: mesh.M]) / mesh.tau
        return out
    return _by_form(g, "polynomial", harmonic, polynomial)


def extension_sampler(w: Profile, antiderivative: bool):
    """(evaluate, average) of W at y = start + j h, j = 0..count-1, both called
    as f(start, count, h): evaluate gives the values of W and average their hat
    averages, where W is the odd 2X-periodic extension of w or, with
    antiderivative set, the even periodic antiderivative of that extension.

    A sine series is its own extension, its antiderivative the cosine series,
    and each mode's hat average is its eigenfactor times the mode; a piecewise
    profile is the stack of one of _folded_stack.
    """
    X = w.X
    if w.form == "sine_series":
        omega = np.pi * np.array(w.modes, dtype=float) / X
        amps = np.array(w.coeffs) * math.sqrt(2.0 / X)
        wave, amps = (np.cos, -amps / omega) if antiderivative else (np.sin, amps)

        def basis(start, count, h):
            return wave(np.outer(start + h * np.arange(count), omega))
        return ((lambda start, count, h: basis(start, count, h) @ amps),
                (lambda start, count, h:
                 basis(start, count, h) @ (amps * hat_average_factor(omega * h))))
    if antiderivative:
        b, pieces, value = w.breakpoints, [], 0.0
        for lo, hi, piece in zip(b, b[1:], w.pieces):
            pieces.append(npoly.polyint(piece, k=value, lbnd=lo))
            value = npoly.polyval(hi, pieces[-1])
        w = Profile.piecewise_poly(b, pieces)
    evaluate, average = _folded_stack([w], antiderivative)
    return (lambda *args: evaluate(*args)[0]), (lambda *args: average(*args)[0])


def _folded_stack(ws, antiderivative: bool):
    """extension_sampler's (evaluate, average) of piecewise profiles sharing X
    (with antiderivative set, those of the polyint pieces), giving (B, count)
    rows: folded onto [0, X] and evaluated as one _piecewise_stack, and averaged
    in one call of exact Gauss rules split at each extension's breaks."""
    X = ws[0].X
    profile = _piecewise_stack(X, [w.breakpoints for w in ws], [w.pieces for w in ws])

    def extension(rows, y):
        r = np.mod(y, 2.0 * X)
        flip = r > X
        r = np.where(flip, 2.0 * X - r, r)
        out = profile(rows, r)
        if not antiderivative:
            out = np.where(flip, -out, out)
            out[..., np.minimum(r, X - r) <= 1e-13 * X] = 0.0
        return out

    breaks = _padded([w.breakpoints for w in ws])
    breaks = np.sort(np.concatenate([breaks, 2.0 * X - breaks], axis=1), axis=1)
    breaks[:, 1:][breaks[:, 1:] == breaks[:, :-1]] = np.nan  # each row's unique breaks
    nodes = [_gauss_nodes(max(map(len, w.pieces))) for w in ws]

    def average(start, count, h):
        edges = start + h * np.arange(-1, count + 1)
        periods = 2.0 * X * np.arange(math.floor(edges[0] / (2.0 * X)),
                                      math.ceil(edges[-1] / (2.0 * X)) + 1)
        rise, fall = _hat_cell_integrals(extension, edges, (periods[:, None] + breaks[:, None])
                                         .reshape(len(ws), -1), nodes, "the exact solution")
        return (rise[:, :-1] + fall[:, 1:]) / h
    return (lambda start, count, h: extension(np.arange(len(ws))[:, None],
                                              start + h * np.arange(count))), average


def sample_nodes(w, mesh: MeshSpec) -> GridFn:
    """Pointwise node samples of a profile, or the (B, N+1) rows of a stack of
    profiles (the mean of the sides at a jump)."""
    x = mesh.nodes()
    return _by_form(w, "piecewise", lambda p: p(x), lambda ps: _piecewise_stack(
        ps[0].X, [p.breakpoints for p in ps], [p.pieces for p in ps])(
        np.arange(len(ps))[:, None], x))


def build_u1h(variant: str, u1, mesh: MeshSpec) -> GridFn:
    """Initial-velocity grid data for the two-level first step, of a profile
    or, (B, N+1) rows, of a stack of profiles.

    v0: numerov(u1) + (tau^2 a^2 / 12) laplacian(u1)          (node samples)
    v1: q_h u1      + (tau^2 a^2 / 12) laplacian(u1 samples)
    v2: (I + (tau^2 a^2 / 12) laplacian) q_h u1               (integrable u1)

    The pointwise variants v0/v1 evaluate u1 at the nodes, the mean of the
    two sides at a jump; v2 needs only integrability and is the right choice
    for rough data.
    """
    if variant not in U1_VARIANTS:
        raise ContractViolation(f"unknown u1 variant {variant!r}; expected one of {U1_VARIANTS}")
    c = mesh.tau ** 2 * mesh.a ** 2 / 12.0
    if variant == "v0":
        samples = sample_nodes(u1, mesh)
        out = stencil("numerov", samples, mesh) + c * stencil("laplacian", samples, mesh)
    elif variant == "v1":
        samples = sample_nodes(u1, mesh)
        out = average_qh(u1, mesh) + c * stencil("laplacian", samples, mesh)
    else:
        qh = average_qh(u1, mesh)
        out = qh + c * stencil("laplacian", qh, mesh)
    out[..., ::mesh.N] = 0.0
    return out


@dataclass(frozen=True, eq=False)
class ForcingLevels:
    """Forcing levels fh^m = time[m] * space, m < M, as time (M,) and space
    (N+1,), or (B, M) and (B, N+1): the one grid format of a forcing."""

    time: np.ndarray
    space: np.ndarray


def build_fh(f, mesh: MeshSpec) -> ForcingLevels:
    """Forcing levels (q_h q_tau f)^m, m = 0..M-1, as the factors q_tau and
    q_h, of a forcing or, (B, M) and (B, N+1), of a sequence of forcings."""
    times, spaces = ((f.time, f.space) if isinstance(f, Forcing)
                     else ([g.time for g in f], [g.space for g in f]))
    return ForcingLevels(average_qtau(times, mesh), average_qh(spaces, mesh))


# --------------------------------------------------------------------------
# continuous data norms (right-hand sides of the stability bounds), of one
# descriptor or, as the (B,) norms, of a stack

def _l2_norms(X: float, breakpoints, pieces) -> np.ndarray:
    """L2(0, X) norms of _piecewise_stack rows (exact): the rise and fall
    integrals of the one cell (0, X) sum to the integral of the square."""
    evaluate = _piecewise_stack(X, breakpoints, pieces)
    integrals = _hat_cell_integrals(
        lambda rows, x: evaluate(rows, x) ** 2, np.array([0.0, X]), _padded(breakpoints),
        [_gauss_nodes(2 * max(map(len, row)) - 1) for row in pieces], "the L2 norm")
    return np.sqrt(np.sum(integrals, axis=0)[:, 0])


def profile_l2_norm(p):
    """L2(0, X) norm of a profile (exact)."""
    return _by_form(p, "piecewise", lambda q: np.sqrt(np.sum(np.square(q.coeffs))), lambda ps:
                    _l2_norms(ps[0].X, [q.breakpoints for q in ps], [q.pieces for q in ps]))


def profile_h01_norm(p):
    """||dx w||_L2 for a profile vanishing at the ends."""
    def derivatives(ps):
        return _l2_norms(ps[0].X, [q.breakpoints for q in ps],
                         [[np.arange(1, len(c)) * c[1:] if len(c) > 1 else (0.0,)
                           for c in q.pieces] for q in ps])
    return _by_form(p, "piecewise", lambda q: np.sqrt(np.sum(
        (np.pi * np.array(q.modes, dtype=float) / q.X) ** 2 * np.asarray(q.coeffs) ** 2)),
        derivatives)


def _real_roots(coeffs) -> np.ndarray:
    """The real roots of a polynomial.  A leading coefficient c[-1] so small
    that some c[i] / c[-1] overflows is dropped first: the roots it adds lie
    beyond any float, and polyroots would meet the overflow."""
    c = np.asarray(coeffs, dtype=float)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        while len(c) > 1 and not np.all(np.isfinite(c[:-1] / c[-1])):
            c = c[:-1]
    roots = npoly.polyroots(c)
    return roots[np.abs(roots.imag) < 1e-12].real


def time_l1_norm(g, T: float):
    """Integral of |g| over (0, T)."""
    def harmonic(g):
        w = abs(g.omega)
        if w == 0.0:
            return 0.0
        periods = math.floor(w * T / math.pi)
        return (2.0 * periods + 1.0 - math.cos(w * T - periods * math.pi)) / w

    def polynomial(gs):  # |g| is a polynomial between the real roots of g
        evaluate = _piecewise_stack(T, [(0.0, T)] * len(gs), [(g.coeffs,) for g in gs])
        return np.sum(_hat_cell_integrals(
            lambda rows, t: np.abs(evaluate(rows, t)), np.array([0.0, T]),
            _padded([_real_roots(g.coeffs) for g in gs]),
            [_gauss_nodes(len(g.coeffs)) for g in gs], "the L1 norm"), axis=0)[:, 0]
    return _by_form(g, "polynomial", harmonic, polynomial)


def forcing_l21_norm(f, T: float):
    """||f||_{L^{2,1}} = ||space||_{L2} * integral of |time| for separable f."""
    if isinstance(f, Forcing):
        return profile_l2_norm(f.space) * time_l1_norm(f.time, T)
    return profile_l2_norm([g.space for g in f]) * time_l1_norm([g.time for g in f], T)
