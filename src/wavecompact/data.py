"""Data descriptors and the hat-function averages that feed the scheme.

Initial data and forcing enter the time stepper only through integrals
against the piecewise-linear "hat" basis, which is what lets the scheme
accept merely integrable data:

    (q_h w)_i   = (1/h)   int w(x) e_i(x) dx,           1 <= i <= N-1,
    (q_tau z)_0 = (2/tau) int_0^tau z(t) e_0(t) dt,
    (q_tau z)_m = (1/tau) int z(t) e_m(t) dt,           1 <= m <= M-1,

with e_i the hat centered at node i.  Boundary entries of q_h are zero.  The
second-level average q_2h combines q_h with the Numerov correction,

    (q_2h w)_i = (-q_h w_{i-1} + 14 q_h w_i - q_h w_{i+1}) / 12.

Quadrature policy: integration cells are split at descriptor breakpoints and
each panel uses 8-node Gauss-Legendre (more for a time polynomial of higher
degree), so piecewise polynomials of degree <= 14 integrate exactly against
the hats and mollification of discontinuous data adds no quadrature noise.
Harmonic profiles use the exact eigenfactor (sin(wh/2)/(wh/2))^2 instead of
panels.

Sine analysis uses the orthonormal basis sqrt(2/X) sin(pi k x / X): a
sine_series profile stores exactly the coefficients that sine_coefficients
returns.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial import polynomial as npoly

from .errors import ConfigurationError, ContractViolation, QuadratureError
from .grid import GridFn, MeshSpec, require_dirichlet
from .operators import stencil

PROFILE_FORMS = ("harmonic", "sine_series", "piecewise")
TIME_FORMS = ("harmonic_sin", "polynomial")
U1_VARIANTS = ("v0", "v1", "v2")
NODE_CONVENTIONS = (None, "mean", "left", "right")

#: Gauss-Legendre nodes per quadrature panel
_QUADRATURE_NODES = 8


# --------------------------------------------------------------------------
# descriptors

@dataclass(frozen=True)
class Profile:
    """Spatial data descriptor on (0, X).

    Forms
    -----
    harmonic     sin(pi k x / X)
    sine_series  sum_k c_k sqrt(2/X) sin(pi k x / X) with orthonormal c_k
    piecewise    polynomial pieces between strictly increasing breakpoints
                 spanning [0, X]; coefficients are in ascending powers of the
                 global coordinate

    node_convention resolves pointwise evaluation exactly on an interior
    breakpoint of a discontinuous piecewise profile: "mean" (default) takes
    the average of the one-sided values, "left"/"right" take a side, None
    refuses and raises.
    """

    X: float
    form: str
    k: int | None = None
    coeffs: tuple[float, ...] | None = None
    breakpoints: tuple[float, ...] | None = None
    pieces: tuple[tuple[float, ...], ...] | None = None
    node_convention: str | None = "mean"

    def __post_init__(self):
        if self.form not in PROFILE_FORMS:
            raise ConfigurationError(f"unknown profile form {self.form!r}")
        if self.form == "piecewise":  # before X, which is read off the breakpoints
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
        if self.X <= 0:
            raise ConfigurationError(f"domain length must be positive, got {self.X}")
        if self.form == "harmonic" and (self.k is None or self.k < 1):
            raise ConfigurationError("harmonic profile needs an integer k >= 1")
        if self.form == "sine_series" and self.coeffs is None:
            raise ConfigurationError("sine_series profile needs coefficients")
        if self.node_convention not in NODE_CONVENTIONS:
            raise ConfigurationError(
                f"node_convention must be one of {NODE_CONVENTIONS}, "
                f"got {self.node_convention!r}")

    # -- constructors ------------------------------------------------------
    @staticmethod
    def harmonic_mode(k: int, X: float) -> "Profile":
        return Profile(X=float(X), form="harmonic", k=int(k))

    @staticmethod
    def sine_series(coeffs, X: float) -> "Profile":
        return Profile(X=float(X), form="sine_series",
                       coeffs=tuple(float(c) for c in coeffs))

    @staticmethod
    def piecewise_poly(breakpoints, pieces, node_convention: str | None = "mean") -> "Profile":
        bp = tuple(float(b) for b in breakpoints)
        return Profile(X=bp[-1] if bp else 0.0, form="piecewise", breakpoints=bp,
                       pieces=tuple(tuple(float(c) for c in p) for p in pieces),
                       node_convention=node_convention)

    @staticmethod
    def zero(X: float) -> "Profile":
        return Profile.sine_series((), X)

    # -- pointwise evaluation ---------------------------------------------
    def __call__(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.form == "harmonic":
            return np.sin(np.pi * self.k * x / self.X)
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
        out = np.empty_like(x, dtype=float)
        for p in range(len(self.pieces)):
            m = idx == p
            if np.any(m):
                out[m] = npoly.polyval(x[m], self.pieces[p])
        # interior breakpoints need a convention when the pieces disagree
        for j in range(1, len(b) - 1):
            m = np.isclose(x, b[j], rtol=0.0, atol=1e-13 * self.X)
            if not np.any(m):
                continue
            left = npoly.polyval(b[j], self.pieces[j - 1])
            right = npoly.polyval(b[j], self.pieces[j])
            if abs(left - right) <= 1e-12 * (1.0 + abs(left) + abs(right)):
                out[m] = 0.5 * (left + right)
                continue
            if self.node_convention == "mean":
                out[m] = 0.5 * (left + right)
            elif self.node_convention == "left":
                out[m] = left
            elif self.node_convention == "right":
                out[m] = right
            else:
                raise ContractViolation(
                    f"profile is discontinuous at x={b[j]:.6g} and declares no node "
                    "convention; set node_convention to 'left', 'right' or 'mean'")
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
        if self.form == "harmonic_sin" and self.omega is None:
            raise ConfigurationError("harmonic_sin needs omega")
        if self.form == "polynomial" and self.coeffs is None:
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

    def __call__(self, x, t):
        return self.space(x) * self.time(t)


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
# Gauss-Legendre panel quadrature

@lru_cache(maxsize=32)
def _gauss_rule(n: int):
    nodes, weights = np.polynomial.legendre.leggauss(n)
    return nodes, weights


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
    """Hat average of a spatial profile; boundary entries are zero."""
    if abs(w.X - mesh.X) > 1e-12 * mesh.X:
        raise ContractViolation("profile and mesh domain lengths differ")
    out = mesh.zeros()
    if w.form == "harmonic":
        omega = np.pi * w.k / mesh.X
        out[:] = hat_average_factor(omega * mesh.h) * np.sin(omega * mesh.nodes())
    elif w.form == "sine_series":
        root = np.sqrt(2.0 / mesh.X)
        x = mesh.nodes()
        for k, c in enumerate(w.coeffs, start=1):
            if c != 0.0:
                omega = np.pi * k / mesh.X
                out += c * root * hat_average_factor(omega * mesh.h) * np.sin(omega * x)
    else:
        i_rise, i_fall = _hat_cell_integrals(
            w, mesh.nodes(), w.breakpoints[1:-1], _QUADRATURE_NODES, "q_h profile")
        out[1:-1] = (i_rise[:-1] + i_fall[1:]) / mesh.h
    out[0] = out[-1] = 0.0
    return out


def average_qtau(g: TimeProfile, mesh: MeshSpec, m: int | None = None):
    """Hat average of the time factor at level m, or all of 0..M-1 when m is None.

    The first level uses the one-sided weight: (q_tau g)_0 = (2/tau) times the
    integral of g against the falling half hat on [0, tau].
    """
    if m is not None and not (0 <= m <= mesh.M - 1):
        raise ContractViolation(f"time average level must lie in 0..{mesh.M - 1}, got {m}")
    if g.form == "harmonic_sin":
        omega = g.omega
        t = mesh.times()

        def level0() -> float:
            y = omega * mesh.tau
            if y == 0.0:
                return 0.0
            return float(2.0 / y * (1.0 - np.sin(y) / y))

        if m == 0:
            return level0()
        if m is not None:
            return float(hat_average_factor(omega * mesh.tau) * np.sin(omega * t[m]))
        out = np.empty(mesh.M)
        out[0] = level0()
        out[1:] = hat_average_factor(omega * mesh.tau) * np.sin(omega * t[1:mesh.M])
        return out

    nodes = max(_QUADRATURE_NODES, (len(g.coeffs) + 2) // 2 + 1)
    i_rise, i_fall = _hat_cell_integrals(g, mesh.times(), (), nodes, "q_tau profile")
    all_levels = np.empty(mesh.M)
    all_levels[0] = 2.0 / mesh.tau * i_fall[0]
    all_levels[1:] = (i_rise[: mesh.M - 1] + i_fall[1: mesh.M]) / mesh.tau
    return all_levels if m is None else float(all_levels[m])


def q2h_from_qh(qh_values, mesh: MeshSpec) -> GridFn:
    """Numerov-corrected average from already computed q_h values (one level
    or a stack of levels)."""
    q = require_dirichlet(qh_values, mesh, "q_h values")
    out = np.zeros_like(q)
    out[..., 1:-1] = (-q[..., :-2] + 14.0 * q[..., 1:-1] - q[..., 2:]) / 12.0
    return out


def sample_nodes(w: Profile, mesh: MeshSpec) -> GridFn:
    """Pointwise node samples of a profile (respecting its node convention)."""
    return w(mesh.nodes())


def build_u1h(variant: str, u1: Profile, mesh: MeshSpec) -> GridFn:
    """Initial-velocity grid data for the two-level first step.

    v0: numerov(u1) + (tau^2 a^2 / 12) laplacian(u1)          (node samples)
    v1: q_h u1      + (tau^2 a^2 / 12) laplacian(u1 samples)
    v2: (I + (tau^2 a^2 / 12) laplacian) q_h u1               (integrable u1)

    The pointwise variants v0/v1 evaluate u1 at the nodes, so a discontinuous
    descriptor must carry an explicit node convention; v2 needs only
    integrability and is the right choice for rough data.
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


def build_fh(f: Forcing | None, mesh: MeshSpec) -> np.ndarray:
    """Forcing slices (q_h q_tau f)^m for m = 0..M-1 (separable product)."""
    if f is None:
        return np.zeros((mesh.M, mesh.N + 1))
    qh_space = average_qh(f.space, mesh)
    qtau = average_qtau(f.time, mesh, None)
    return np.outer(qtau, qh_space)


# --------------------------------------------------------------------------
# sine analysis

def poly_sin_integral(coeffs, omegas, lo: float, hi: float) -> np.ndarray:
    """Exact integral of p(x) sin(omega x) over [lo, hi], vectorized in omega.

    Uses the repeated-integration-by-parts antiderivative
    sum_j p^(j)(x) g_j(omega x) / omega^(j+1) with g cycling through
    -cos, +sin, +cos, -sin.
    """
    omegas = np.atleast_1d(np.asarray(omegas, dtype=float))
    safe = np.where(omegas == 0.0, 1.0, omegas)
    derivs = [np.asarray(coeffs, dtype=float)]
    while len(derivs[-1]) > 1:
        derivs.append(npoly.polyder(derivs[-1]))

    def antiderivative(x: float) -> np.ndarray:
        total = np.zeros_like(omegas)
        s, c = np.sin(omegas * x), np.cos(omegas * x)
        invw = 1.0 / safe
        power = invw.copy()
        for j, d in enumerate(derivs):
            pj = npoly.polyval(x, d)
            r = j % 4
            if r == 0:
                term = -pj * c
            elif r == 1:
                term = pj * s
            elif r == 2:
                term = pj * c
            else:
                term = -pj * s
            total += term * power
            power = power * invw
        return total

    out = antiderivative(hi) - antiderivative(lo)
    out[omegas == 0.0] = 0.0
    return out


def sine_coefficients(w: Profile, K: int) -> np.ndarray:
    """First K coefficients of w in the orthonormal sine basis.

    Exact for every profile form.
    """
    if K < 1:
        raise ContractViolation("K must be at least 1")
    out = np.zeros(K)
    if w.form == "harmonic":
        if w.k <= K:
            out[w.k - 1] = np.sqrt(w.X / 2.0)
        return out
    if w.form == "sine_series":
        upto = min(K, len(w.coeffs))
        out[:upto] = w.coeffs[:upto]
        return out
    root = np.sqrt(2.0 / w.X)
    ks = np.arange(1, K + 1)
    omegas = np.pi * ks / w.X
    b = w.breakpoints
    for p, coeffs in enumerate(w.pieces):
        out += root * poly_sin_integral(coeffs, omegas, b[p], b[p + 1])
    return out
