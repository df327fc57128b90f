"""Data descriptors and the hat-function averages that feed the scheme.

Initial data and forcing enter the time stepper only through integrals
against the piecewise-linear "hat" basis, which is what lets the scheme
accept merely integrable data:

    (q_h w)_i   = (1/h)   int w(x) e_i(x) dx,           1 <= i <= N-1,
    (q_tau z)_0 = (2/tau) int_0^tau z(t) e_0(t) dt,
    (q_tau z)_m = (1/tau) int z(t) e_m(t) dt,           1 <= m <= M-1,

with e_i the hat centered at node i.  Boundary entries of q_h are zero.  The
second-level average q_2h combines q_h with the Numerov correction,

    (q_2h w)_i = (-q_h w_{i-1} + 14 q_h w_i - q_h w_{i+1}) / 12,

the negated (-14, 12) case of the three-point kernel grid._three_point.

Quadrature policy: integration cells are split at descriptor breakpoints and
each panel uses the Gauss-Legendre rule of _gauss_nodes, at least 8 nodes and
exact for the piece times a hat at any degree, so discontinuous data adds no
quadrature noise; q_h is extension_sampler's hat average.  Sine series use
the exact eigenfactor (sin(wh/2)/(wh/2))^2 of each nonzero mode instead of
panels.  A jump of a piecewise profile evaluates to the mean of its two sides.
The data norms of the stability bounds use the same panels on the one cell
(0, X) or (0, T), exact for the squared pieces, with |g| split at the real
roots of g as well; a sine series takes its norms from its coefficients.

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
from .grid import GridFn, MeshSpec, _three_point, require_dirichlet
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
    sine_series  sum_k c_k sqrt(2/X) sin(pi k x / X) with orthonormal c_k;
                 harmonic_mode(k, X) is the single mode sin(pi k x / X)
    piecewise    polynomial pieces between strictly increasing breakpoints
                 spanning [0, X], coefficients in ascending powers of the
                 global coordinate; a jump evaluates to the mean of its sides
    """

    X: float
    form: str
    coeffs: tuple[float, ...] | None = None
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
        if self.form == "sine_series" and self.coeffs is None:
            raise ConfigurationError("sine_series profile needs coefficients")
        _require_finite("profile coefficients", self.coeffs or ())

    # -- constructors ------------------------------------------------------
    @staticmethod
    def harmonic_mode(k: int, X: float) -> "Profile":
        """sin(pi k x / X) as the one-coefficient sine series."""
        if k < 1:
            raise ConfigurationError("harmonic profile needs an integer k >= 1")
        amplitude = np.sqrt(max(X, 0.0) / 2.0)  # the constructor refuses X <= 0 and inf
        return Profile.sine_series((0.0,) * (k - 1) + (amplitude,), X)

    @staticmethod
    def sine_series(coeffs, X: float) -> "Profile":
        return Profile(X=float(X), form="sine_series",
                       coeffs=tuple(float(c) for c in coeffs))

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
            for k, c in enumerate(self.coeffs, start=1):
                if c != 0.0:
                    out += c * root * np.sin(np.pi * k * x / self.X)
            return out
        return self._piecewise_eval(x)

    def _piecewise_eval(self, x: np.ndarray) -> np.ndarray:
        b = np.asarray(self.breakpoints)
        idx = np.clip(np.searchsorted(b, x, side="right") - 1, 0, len(self.pieces) - 1)
        # Horner over the zero-padded coefficient table, gathered by idx: polyval's bits
        width = max(map(len, self.pieces))
        table = np.array([list(c) + [0.0] * (width - len(c)) for c in self.pieces])
        out = np.zeros_like(x, dtype=float)
        for k in reversed(range(width)):
            out *= x
            out += table[idx, k]
        # an interior breakpoint takes the mean of its two sides
        for j in range(1, len(b) - 1):
            m = np.abs(x - b[j]) <= 1e-13 * self.X
            if np.any(m):
                out[m] = 0.5 * (npoly.polyval(b[j], self.pieces[j - 1])
                                + npoly.polyval(b[j], self.pieces[j]))
        return out


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


def _hat_cell_integrals(evaluate, edges: np.ndarray, splits, n_nodes: int,
                        label: str):
    """Per-cell integrals of f times the rising and falling hat weights.

    For each cell [edges[j], edges[j+1]] returns

        I_rise[j] = int f(x) (x - left)  / width dx,
        I_fall[j] = int f(x) (right - x) / width dx,

    splitting every cell at the supplied breakpoints that lie inside it, more
    than 1e-14 * width from its edges.
    """
    ncells = len(edges) - 1
    width = edges[1] - edges[0]
    splits = np.asarray(splits, dtype=float)
    cell = np.searchsorted(edges, splits, side="right") - 1
    inside = (cell >= 0) & (cell < ncells)
    cell, splits = cell[inside], splits[inside]
    keep = ((splits > edges[cell] + 1e-14 * width)
            & (splits < edges[cell + 1] - 1e-14 * width))
    # panel boundaries: the cell edges and the kept splits, in order
    bounds = np.sort(np.concatenate([edges, splits[keep]]))
    panel_lo, panel_hi = bounds[:-1], bounds[1:]
    panel_cell = np.searchsorted(edges, panel_lo, side="right") - 1

    gn, gw = _gauss_rule(n_nodes)
    half = 0.5 * (panel_hi - panel_lo)
    mid = 0.5 * (panel_hi + panel_lo)
    pts = mid[:, None] + half[:, None] * gn[None, :]
    vals = evaluate(pts.ravel()).reshape(pts.shape)
    if not np.all(np.isfinite(vals)):
        bad = int(panel_cell[np.argmax(~np.all(np.isfinite(vals), axis=1))])
        raise QuadratureError(f"non-finite values while integrating {label}", cell=bad)

    rise_w = (pts - edges[panel_cell][:, None]) / width
    base = vals * gw[None, :] * half[:, None]
    rise = np.sum(base * rise_w, axis=1)
    fall = np.sum(base * (1.0 - rise_w), axis=1)
    return (np.bincount(panel_cell, rise, ncells),
            np.bincount(panel_cell, fall, ncells))


def hat_average_factor(y):
    """Eigenfactor (sin(y/2) / (y/2))^2 of the hat average on frequency y = w*step."""
    y = np.asarray(y, dtype=float)
    half = 0.5 * y
    with np.errstate(invalid="ignore", divide="ignore"):
        fac = np.where(half == 0.0, 1.0, (np.sin(half) / np.where(half == 0.0, 1.0, half)) ** 2)
    return fac


# --------------------------------------------------------------------------
# the averages

def average_qh(w: Profile, mesh: MeshSpec) -> GridFn:
    """Hat average of a spatial profile; boundary entries are zero.

    This is extension_sampler's hat average at the nodes: on (0, X) the odd
    extension is w itself.
    """
    if abs(w.X - mesh.X) > 1e-12 * mesh.X:
        raise ContractViolation("profile and mesh domain lengths differ")
    try:
        out = extension_sampler(w, False)[1](0.0, mesh.N + 1, mesh.h)
    except QuadratureError as exc:
        # sampler cell c is mesh cell c - 1; the two outside (0, X) mirror their neighbours
        cell = min(max(exc.cell - 1, 0), mesh.N - 1)
        raise QuadratureError(f"non-finite values while integrating q_h profile on mesh cell "
                              f"{cell}", cell=cell) from exc
    out[0] = out[-1] = 0.0
    return out


def average_qtau(g: TimeProfile, mesh: MeshSpec) -> np.ndarray:
    """Hat averages of the time factor at the levels 0..M-1.

    The first level uses the one-sided weight: (q_tau g)_0 = (2/tau) times the
    integral of g against the falling half hat on [0, tau].
    """
    out = np.empty(mesh.M)
    if g.form == "harmonic_sin":
        y = g.omega * mesh.tau
        out[0] = 0.0 if y == 0.0 else 2.0 / y * (1.0 - np.sin(y) / y)
        out[1:] = hat_average_factor(y) * np.sin(g.omega * mesh.times()[1:mesh.M])
        return out
    i_rise, i_fall = _hat_cell_integrals(g, mesh.times(), (), _gauss_nodes(len(g.coeffs)),
                                         "q_tau profile")
    out[0] = 2.0 / mesh.tau * i_fall[0]
    out[1:] = (i_rise[: mesh.M - 1] + i_fall[1: mesh.M]) / mesh.tau
    return out


def q2h_from_qh(qh_values, mesh: MeshSpec) -> GridFn:
    """Numerov-corrected average from already computed q_h values (one level
    or a stack of levels)."""
    q = require_dirichlet(qh_values, mesh, "q_h values")
    out = np.zeros_like(q)
    inner = out[..., 1:-1]
    np.negative(_three_point(inner, q, -14.0, 12.0), out=inner)
    return out


def extension_sampler(w: Profile, antiderivative: bool):
    """(evaluate, average) of W at y = start + j h, j = 0..count-1, both called
    as f(start, count, h): evaluate gives the values of W and average their hat
    averages, where W is the odd 2X-periodic extension of w or, with
    antiderivative set, the even periodic antiderivative of that extension.

    A sine series is its own extension, its antiderivative the cosine series,
    and each mode's hat average is its eigenfactor times the mode; a piecewise
    profile, or that of its polyint pieces, is folded onto [0, X] and averaged
    by exact Gauss rules split at the breaks of the extension.
    """
    X = w.X
    if w.form == "sine_series":
        ks = np.flatnonzero(w.coeffs)  # a mode k costs O(count k) otherwise
        omega = np.pi * (ks + 1) / X
        amps = np.asarray(w.coeffs)[ks] * math.sqrt(2.0 / X)
        wave, amps = (np.cos, -amps / omega) if antiderivative else (np.sin, amps)

        def basis(start, count, h):
            return wave(np.outer(start + h * np.arange(count), omega))
        return ((lambda start, count, h: basis(start, count, h) @ amps),
                (lambda start, count, h:
                 basis(start, count, h) @ (amps * hat_average_factor(omega * h))))

    b = np.asarray(w.breakpoints)
    if antiderivative:
        pieces, value = [], 0.0
        for lo, hi, piece in zip(b, b[1:], w.pieces):
            pieces.append(npoly.polyint(piece, k=value, lbnd=lo))
            value = npoly.polyval(hi, pieces[-1])
        w = Profile.piecewise_poly(b, pieces)

    def extension(y):
        r = np.mod(y, 2.0 * X)
        flip = r > X
        r = np.where(flip, 2.0 * X - r, r)
        out = w(r)
        if not antiderivative:
            out = np.where(flip, -out, out)
            out[np.minimum(r, X - r) <= 1e-13 * X] = 0.0
        return out

    breaks = np.unique(np.concatenate([b, 2.0 * X - b]))
    nodes = _gauss_nodes(max(map(len, w.pieces)))

    def average(start, count, h):
        edges = start + h * np.arange(-1, count + 1)
        periods = 2.0 * X * np.arange(math.floor(edges[0] / (2.0 * X)),
                                      math.ceil(edges[-1] / (2.0 * X)) + 1)
        rise, fall = _hat_cell_integrals(extension, edges, np.add.outer(periods, breaks).ravel(),
                                         nodes, "the exact solution")
        return (rise[:-1] + fall[1:]) / h
    return (lambda start, count, h: extension(start + h * np.arange(count))), average


def sample_nodes(w: Profile, mesh: MeshSpec) -> GridFn:
    """Pointwise node samples of a profile (the mean of the sides at a jump)."""
    return w(mesh.nodes())


def build_u1h(variant: str, u1: Profile, mesh: MeshSpec) -> GridFn:
    """Initial-velocity grid data for the two-level first step.

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
    out[0] = out[-1] = 0.0
    return out


@dataclass(frozen=True, eq=False)
class ForcingLevels:
    """Forcing levels fh^m = time[m] * space, m < M, as time (M,) and space
    (N+1,), or (B, M) and (B, N+1): the one grid format of a forcing."""

    time: np.ndarray
    space: np.ndarray


def build_fh(f: Forcing, mesh: MeshSpec) -> ForcingLevels:
    """Forcing levels (q_h q_tau f)^m, m = 0..M-1, as the factors q_tau and q_h."""
    return ForcingLevels(average_qtau(f.time, mesh), average_qh(f.space, mesh))


# --------------------------------------------------------------------------
# continuous data norms (right-hand sides of the stability bounds)

def profile_l2_norm(p: Profile) -> float:
    """L2(0, X) norm of a profile (exact)."""
    if p.form == "sine_series":
        return float(np.sqrt(np.sum(np.square(p.coeffs))))
    # one cell (0, X): its rise and fall integrals sum to the integral of p^2
    nodes = _gauss_nodes(2 * max(map(len, p.pieces)) - 1)
    return math.sqrt(np.sum(_hat_cell_integrals(lambda x: p(x) ** 2, np.array([0.0, p.X]),
                                                p.breakpoints, nodes, "the L2 norm")))


def profile_h01_norm(p: Profile) -> float:
    """||dx w||_L2 for a profile vanishing at the ends."""
    if p.form == "sine_series":
        c = np.asarray(p.coeffs)
        k = np.arange(1, len(c) + 1)
        return float(np.sqrt(np.sum((np.pi * k / p.X) ** 2 * c ** 2)))
    return profile_l2_norm(Profile.piecewise_poly(
        p.breakpoints, [tuple(np.arange(1, len(c)) * c[1:]) or (0.0,) for c in p.pieces]))


def time_l1_norm(g: TimeProfile, T: float) -> float:
    """Integral of |g| over (0, T)."""
    if g.form == "polynomial":
        # |g| is a polynomial between the real roots of g
        roots = npoly.polyroots(g.coeffs)
        return float(np.sum(_hat_cell_integrals(
            lambda t: np.abs(g(t)), np.array([0.0, T]), roots[np.abs(roots.imag) < 1e-12].real,
            _gauss_nodes(len(g.coeffs)), "the L1 norm")))
    w = abs(g.omega)
    if w == 0.0:
        return 0.0
    periods = math.floor(w * T / math.pi)
    return (2.0 * periods + 1.0 - math.cos(w * T - periods * math.pi)) / w


def forcing_l21_norm(f: Forcing, T: float) -> float:
    """||f||_{L^{2,1}} = ||space||_{L2} * integral of |time| for separable f."""
    return profile_l2_norm(f.space) * time_l1_norm(f.time, T)
