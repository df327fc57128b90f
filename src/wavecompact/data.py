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

One piece table per piecewise datum: _period_pieces holds W, the odd (or
even) 2X-periodic extension of w, as its pieces on [-X, X).  Node values read
it through _period_values (a jump is the mean of its two sides); the hat
average of a piecewise polynomial is a piecewise polynomial, which
_hat_average_table builds from it once per stack and h and _hat_averages
serves; q_h is extension_sampler's hat average.  A polynomial time factor's
q_tau is its hat moments (average_qtau).  A sine series is held as its
nonzero modes (Profile.modes, their amplitudes Profile.coeffs), and its hat
averages use each mode's exact eigenfactor (sin(wh/2)/(wh/2))^2.  The data
norms of the stability bounds integrate the squared pieces, and |g| between
its real roots, through antiderivatives.

One call per stack: the averages, node samples and norms take one descriptor
or a stack of them (a list), a single descriptor being a stack of one.
Piecewise profiles and polynomial time factors are zero-padded into one
coefficient table; the padding adds only exact zeros, in a fixed order, so
every row has the bits of its descriptor alone.  Sine series and harmonic
factors take their closed forms row by row.

Descriptors refuse non-finite entries with a ConfigurationError naming the
entry.  PRESETS holds the rough data of the convergence studies, hat_step
(smoothness 3/2) and quad_spline_hat (5/2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.polynomial import polynomial as npoly

from .errors import ConfigurationError, ContractViolation
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
        """w at x: a sine series at any x, a piecewise profile on [0, X] and,
        through its even 2X-periodic extension, beyond it."""
        x = np.asarray(x, dtype=float)
        if self.form == "sine_series":
            out = np.zeros_like(x)
            root = np.sqrt(2.0 / self.X)
            for k, c in zip(self.modes, self.coeffs):
                out += c * root * np.sin(np.pi * k * x / self.X)
            return out
        return _period_values(_period_pieces([self], 1.0), _on_period(x, self.X))[0]


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
# polynomial arithmetic: coefficient arrays with the ascending powers on axis 0
# and one polynomial per column, a leading zero adding exact zeros

def _padded(rows, fill: float) -> np.ndarray:
    """Rows of numbers of any lengths as one array, padded with fill."""
    width = max(map(len, rows))
    return np.array([list(row) + [fill] * (width - len(row)) for row in rows], dtype=float)


def _coefficients(pieces) -> np.ndarray:
    """Rows of pieces of ascending coefficients as one zero-padded (width, rows, pieces) array."""
    P, width = max(map(len, pieces)), max(len(c) for row in pieces for c in row)
    return np.moveaxis(np.array([[list(c) + [0.0] * (width - len(c)) for c in row]
                                 + [[0.0] * width] * (P - len(row)) for row in pieces]), 2, 0)


def _shifted(a, s) -> np.ndarray:
    """The coefficients of p(t + s) for the columns p of a, by synthetic division."""
    a = np.array(a, dtype=float)
    for i in range(len(a) - 1):
        for j in range(len(a) - 2, i - 1, -1):
            a[j] += s * a[j + 1]
    return a


def _hat_moments(a, h) -> np.ndarray:
    """The hat averages of width h of the columns p of a as polynomials,
    sum_k 2 h^2k / (2k+2)! p^(2k), summed in ascending k."""
    out = np.array(a, dtype=float)
    for k in range(1, (len(a) + 1) // 2):
        factor = np.power(h, 2 * k) * np.array([2.0 * math.comb(n + 2 * k, n) / (
            (2 * k + 1) * (2 * k + 2)) for n in range(len(a) - 2 * k)])
        out[:-2 * k] += (factor * a[2 * k:].T).T
    return out


def _abs_integral_sums(bounds, pieces, squared: bool) -> np.ndarray:
    """Per row, the sum over its pieces j of |int p_j| (of p_j^2 if squared) on
    [bounds[j], bounds[j + 1]], p_j of one sign there, rows being lists of
    breakpoints and ascending coefficients: each piece in its own coordinate
    x - bounds[j], through its antiderivative, summed in piece order."""
    ends, c = _padded(bounds, 0.0), _coefficients(pieces)  # zero pieces, integrals 0
    with np.errstate(over="ignore", invalid="ignore"):
        c = _shifted(c, ends[:, :-1])
        if squared:
            square = np.zeros((2 * len(c) - 1,) + c.shape[1:])
            for i in range(len(c)):
                square[i:i + len(c)] += c[i] * c
            c = square
        integrals = np.abs(npoly.polyval(np.diff(ends), npoly.polyint(c, axis=0), tensor=False))
    return np.cumsum(integrals, axis=1)[:, -1]


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
    with np.errstate(over="ignore", invalid="ignore"):  # overflowing data: non-finite averages
        out = _by_form(w, "piecewise",
                       lambda p: extension_sampler(p, False, mesh.h)[1](0.0, mesh.N + 1),
                       lambda ps: _hat_averages(
                           _hat_average_table(_period_pieces(ps, -1.0), mesh.h),
                           _on_period(mesh.h * np.arange(mesh.N + 1), ps[0].X)))
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
        if abs(y) < 0.5:  # 2/y (1 - sin(y)/y) cancels: sum 2 (-1)^(k+1) y^(2k-1) / (2k+1)!
            out[0] = y * npoly.polyval(y * y, [2.0 * (-1) ** k / math.factorial(2 * k + 3)
                                               for k in range(8)])
        else:
            out[0] = 2.0 / y * (1.0 - np.sin(y) / y)
        out[1:] = hat_average_factor(y) * np.sin(g.omega * mesh.times()[1:mesh.M])
        return out

    def polynomial(gs):  # interior levels the hat moments at t_m, level 0 their one-sided form
        c = _coefficients([[g.coeffs] for g in gs])[:, :, 0]
        n = np.arange(len(c))[:, None]
        out = np.empty((len(gs), mesh.M))
        with np.errstate(over="ignore", invalid="ignore"):
            out[:, 0] = 2.0 * npoly.polyval(mesh.tau, c / ((n + 1) * (n + 2)))
            out[:, 1:] = npoly.polyval(mesh.times()[1:mesh.M], _hat_moments(c, mesh.tau))
        return out
    return _by_form(g, "polynomial", harmonic, polynomial)


class SamplePoints:
    """The points y = start + j h, j = 0..count-1, one row per start, of
    extension_sampler's calls, as given (y) and on a period [-X, X)
    (on_period(X)); the reduction is made once per X and shared by every
    sampler called on the same points."""

    def __init__(self, start, count: int, h: float):
        self.y, self._reduced = np.add.outer(start, h * np.arange(count)), {}

    def on_period(self, X: float) -> np.ndarray:
        if X not in self._reduced:
            self._reduced[X] = _on_period(self.y, X)
        return self._reduced[X]


def extension_sampler(w: Profile, antiderivative: bool, h: float):
    """(evaluate, average) of W at y = start + j h, j = 0..count-1, called as
    f(start, count) with h bound here: one row per start, a number or an array
    of them; or called as f(points) on SamplePoints(start, count, h), which
    samplers of one period share.  evaluate gives W and average its hat
    averages, W being the odd 2X-periodic extension of w or, with
    antiderivative set, the even periodic antiderivative of that extension.

    A sine series is its own extension, its antiderivative the cosine series,
    and each mode's hat average is its eigenfactor times the mode; a row is
    one matrix-vector product, with the bits of its call alone.  A piecewise
    profile is one _period_pieces table, all rows in one call on the points
    reduced onto its period.
    """
    def sampler(kernel):  # kernel of the SamplePoints
        def sample(start, count=None):
            return kernel(start if count is None else SamplePoints(start, count, h))
        return sample
    if w.form == "sine_series":
        omega = np.pi * np.array(w.modes, dtype=float) / w.X
        amps = np.array(w.coeffs) * math.sqrt(2.0 / w.X)
        wave, amps = (np.cos, -amps / omega) if antiderivative else (np.sin, amps)

        def rows(a):  # one matrix-vector product per row
            return sampler(lambda points: np.apply_along_axis(
                lambda y: wave(np.outer(y, omega)) @ a, -1, points.y))
        return rows(amps), rows(amps * hat_average_factor(omega * h))
    if antiderivative:
        b, pieces, value = w.breakpoints, [], 0.0
        for lo, hi, piece in zip(b, b[1:], w.pieces):
            pieces.append(npoly.polyint(piece, k=value, lbnd=lo))
            value = npoly.polyval(hi, pieces[-1])
        w = Profile.piecewise_poly(b, pieces)
    period = _period_pieces([w], 1.0 if antiderivative else -1.0)
    table = _hat_average_table(period, h)
    return (sampler(lambda points: _period_values(period, points.on_period(period[0]))[0]),
            sampler(lambda points: _hat_averages(table, points.on_period(period[0]))[0]))


def _period_pieces(ws, sign: float):
    """(X, sign, ends, coeffs) of W, the 2X-periodic extension with W(-x) =
    sign w(x) of each row's piecewise profile w, as its pieces on [-X, X) in
    the global coordinate, mirrored ones (right to left) then w's: piece j of
    row r, from ends[r, j] to ends[r, j + 1] (NaN-padded), has the ascending
    coefficients coeffs[:, r, j] (zero-padded, zero from X), sign (-1)^n c_n if
    mirrored: a sign flip, so exact."""
    ends = _padded([[-b for b in w.breakpoints[:0:-1]] + list(w.breakpoints) for w in ws], np.nan)
    coeffs = _coefficients([w.pieces[::-1] + w.pieces + ((0.0,),) for w in ws])
    coeffs *= np.where(ends < 0.0, sign * (-1.0) ** np.arange(len(coeffs))[:, None, None], 1.0)
    return ws[0].X, sign, ends, coeffs


def _on_period(y, X: float) -> np.ndarray:
    """y on W's period [-X, X): np.mod(y, 2X), less 2X from X on, exactly."""
    r = np.fmod(y, 2.0 * X)  # np.mod's bits, faster: -0.0 made 0.0
    r = np.where(r < 0.0, r + 2.0 * X, r + 0.0)
    return np.where(r >= X, r - 2.0 * X, r)


def _period_values(pieces, r) -> np.ndarray:
    """W of a _period_pieces table at the points r on its period (_on_period),
    as (B,) + r.shape rows: one piece lookup and one Horner pass.  Within
    1e-13 X of an edge W is the mean of its two sides there, exactly 0 at 0 and
    +-X for an odd W, where an even W is one-sided.  Horner at -x of a mirrored
    piece is that of the piece at x, negated for an odd W: the values of w
    folded onto [0, X]."""
    X, sign, ends, coeffs = pieces
    shape, r, tol = np.shape(r), np.reshape(r, (1, -1)), 1e-13 * X
    first = np.arange(len(ends))[:, None] * ends.shape[1]  # row b's edges and pieces, flat
    last = np.count_nonzero(~np.isnan(ends), axis=1)[:, None] - 1  # each row's edge at X
    k = np.array([row[1:].searchsorted(r[0] + tol, side="right") for row in ends])  # edge k:
    at = ends.take(first + k)  # the rightmost up to r + tol, or -X (a row may end below X)

    def horner(piece, x):  # npoly.polyval's bits, piece of the flat table
        return npoly.polyval(x, coeffs.reshape(len(coeffs), -1).take(piece, axis=1), tensor=False)
    out = horner(first + np.maximum(k - (at > r), 0), r)
    near = np.abs(r - at) <= tol
    if sign > 0:  # an even W's 0 and +-X are no jumps
        near[near] = np.abs(at[near]) % X != 0.0
    if near.any():  # the mean of edge k's sides; at +-X the last piece at X, the first at -X
        b, i = np.nonzero(near)
        k, at, last, first = k[b, i], at[b, i], last[b, 0], first[b, 0]
        out[b, i] = 0.5 * (horner(first + (k - 1) % last, np.where(k == 0, X, at))
                           + horner(first + k % last, np.where(k == last, -X, at)))
    return out.reshape((len(ends),) + shape)


@np.errstate(over="ignore", invalid="ignore")  # overflowing data: non-finite averages
def _hat_average_table(pieces, h: float):
    """(X, cuts, table) of Q, the hat average of width h of the W of a
    _period_pieces table.  On [-X, X) cut at each piece edge b and b +- h, Q is
    one polynomial from a cut of row r to the next: table[:, r C + i] in
    y - cuts[r, i], C = cuts.shape[1].  It is the hat moments of the piece at y
    plus, for each edge b within h of y, with jump D_b(x - b) and G_b(w) =
    sum d_n w^(n+2) / ((n+1)(n+2)), G_b(y - b + h) / h^2 if b is right of y and
    -G_b(y - b - h) / h^2 if left, summed in one order."""
    X, _, ends, coeffs = pieces
    count = np.count_nonzero(~np.isnan(ends), axis=1)[:, None] // 2
    k, width = np.arange(ends.shape[1] - 1), len(coeffs)
    edges, coeffs = np.where(k < 2 * count, ends[:, :-1], np.nan), coeffs[..., :-1]  # left edges
    # each piece about its left edge, and the one left of it (left of -X the last, about X)
    at = np.where(np.isnan(edges), 0.0, edges)
    previous = np.take_along_axis(coeffs, np.where(k == 0, 2 * count - 1, k - 1)[None], 2)
    right, left = _shifted(np.stack([coeffs, previous], axis=1),
                           np.stack([at, np.where(k == 0, X, at)])).swapaxes(0, 1)

    cuts = np.mod(np.concatenate([edges - h, edges, edges + h], axis=1), 2.0 * X)
    cuts = np.sort(np.where(cuts >= X, cuts - 2.0 * X, cuts), axis=1)  # on [-X, X), NaN last
    cuts[:, 1:][cuts[:, 1:] == cuts[:, :-1]] = np.nan
    cuts.sort(axis=1)
    mid = 0.5 * (cuts + np.fmin(np.concatenate([cuts[:, 1:], cuts[:, :1] + 2.0 * X], 1), X))
    d = edges[:, None, :] - mid[..., None]  # NaN for no interval or no edge
    piece = np.sum(d <= 0.0, axis=2) - 1  # the piece at each interval
    s = np.where(d >= X, -1.0, np.where(d < -X, 1.0, 0.0))  # b + 2 X s, the one within h <= X
    d += 2.0 * X * s
    rows, i = np.nonzero(~np.isnan(cuts))
    b, j, e = np.nonzero(np.abs(d) < h)
    piece, right_of, s = piece[rows, i], d[b, j, e] > 0.0, s[b, j, e]
    n, base = np.arange(width)[:, None], len(rows)
    terms = np.zeros((width + 2, base + len(b)))
    terms[:width, :base] = _hat_moments(right[:, rows, piece], h)
    terms[2:, base:] = ((right[:, b, e] - left[:, b, e]) / ((n + 1) * (n + 2)) / (h * h)
                        * np.where(right_of, 1.0, -1.0))
    # (cut - s X) - (edge + s X) is exact for an edge and a cut near -+X
    terms = _shifted(terms, np.concatenate([
        cuts[rows, i] - edges[rows, piece],
        (cuts[b, j] - s * X) - (edges[b, e] + s * X) + np.where(right_of, h, -h)]))
    table = np.zeros((width + 2, cuts.size))  # each interval's moments, then its edges' terms
    np.add.at(table.T, np.concatenate([rows, b]) * cuts.shape[1] + np.concatenate([i, j]), terms.T)
    return X, np.where(np.isnan(cuts), np.inf, cuts), table


def _hat_averages(table, r) -> np.ndarray:
    """Q of a _hat_average_table at the points r on its period (_on_period),
    as (B,) + r.shape rows."""
    _, cuts, coeffs = table
    at = (np.array([row.searchsorted(r, side="right") for row in cuts])  # the interval of each r
          + np.arange(-1, cuts.size - 1, cuts.shape[1]).reshape((-1,) + (1,) * r.ndim))
    return npoly.polyval(r - cuts.ravel().take(at), coeffs.take(at, axis=1), tensor=False)


def sample_nodes(w, mesh: MeshSpec) -> GridFn:
    """Pointwise node samples of a profile, or the (B, N+1) rows of a stack of
    profiles: w through its even extension (the mean of the sides at a jump)."""
    x = mesh.nodes()
    return _by_form(w, "piecewise", lambda p: p(x),
                    lambda ps: _period_values(_period_pieces(ps, 1.0), _on_period(x, ps[0].X)))


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

def profile_l2_norm(p):
    """L2(0, X) norm of a profile (exact)."""
    return _by_form(p, "piecewise", lambda q: np.sqrt(np.sum(np.square(q.coeffs))), lambda ps:
                    np.sqrt(_abs_integral_sums([q.breakpoints for q in ps],
                                               [q.pieces for q in ps], True)))


def profile_h01_norm(p):
    """||dx w||_L2 for a profile vanishing at the ends."""
    def derivatives(ps):
        return np.sqrt(_abs_integral_sums([q.breakpoints for q in ps], [
            [np.arange(1, len(c)) * c[1:] if len(c) > 1 else (0.0,) for c in q.pieces]
            for q in ps], True))
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
        periods = math.floor(w * T / math.pi)  # 1 - cos x as 2 sin^2(x/2), which keeps its digits
        return (2.0 * periods + 2.0 * math.sin(0.5 * (w * T - periods * math.pi)) ** 2) / w

    def polynomial(gs):  # g has one sign between its real roots
        bounds = [sorted({0.0, T, *(x for x in _real_roots(g.coeffs).tolist() if 0.0 < x < T)})
                  for g in gs]
        return _abs_integral_sums(bounds, [[g.coeffs] * (len(t) - 1) for g, t in zip(gs, bounds)],
                                  False)
    return _by_form(g, "polynomial", harmonic, polynomial)


def forcing_l21_norm(f, T: float):
    """||f||_{L^{2,1}} = ||space||_{L2} * integral of |time| for separable f."""
    if isinstance(f, Forcing):
        return profile_l2_norm(f.space) * time_l1_norm(f.time, T)
    return profile_l2_norm([g.space for g in f]) * time_l1_norm([g.time for g in f], T)
