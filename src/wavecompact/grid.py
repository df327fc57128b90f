"""Uniform space-time meshes, grid functions, and the discrete norms.

The spatial mesh has nodes x_i = i*h, 0 <= i <= N, with h = X/N; the time mesh
has t_m = m*tau, 0 <= m <= M, with tau = T/M.  A grid function is a plain
float array of length N+1; members of the Dirichlet space vanish at i = 0 and
i = N.  A stack of levels is a float array of shape (L, N+1); a run of the
scheme is the stack of its levels 0..M.  Nodes are always generated as i*h
from the exact divisions X/N, T/M, never by cumulative addition.

The implicit weight of the scheme is sigma = (1 + h^2/(a^2 tau^2)) / 12, and
the time step is admissible when

    a^2 tau^2 <= (1 - eps0^2/2) h^2,   0 < eps0 <= 1.

Under that restriction the two-level energy norm

    E(v_prev, v_curr)^2 = ||dt v||_B^2 + (sigma - 1/4) tau^2 a^2 ||dt v||_S^2
                          + a^2 ||st v||_S^2

is positive semidefinite, where dt v = (v_curr - v_prev)/tau is the backward
time difference, st v = (v_curr + v_prev)/2 the two-level average, ||.||_B the
mass-weighted norm and ||.||_S the stiffness norm (sum of squared backward
space differences).  Note (sigma - 1/4) tau^2 a^2 = h^2/12 - tau^2 a^2/6,
which may be negative on admissible meshes with eps0 < 1; the full sum is
computed and its nonnegativity asserted rather than clamped.  The tau^2
factor is what makes the middle term commensurate with the others: with it,
the pair norm of a freely propagating discrete mode is conserved in time,
and the energy stability bound holds with constant one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, ContractViolation, InvariantError, UnstableMeshError

GridFn = np.ndarray

#: tolerance for treating a boundary value as zero, relative to the array scale
_DIRICHLET_RTOL = 1e-13


@dataclass(frozen=True)
class MeshSpec:
    """Uniform mesh of the space-time box (0, X) x (0, T).

    Attributes
    ----------
    X, T : domain length and final time
    N, M : number of space cells (>= 2) and time cells (>= 1)
    a    : wave speed
    eps0 : stability margin in (0, 1]
    """

    X: float
    T: float
    N: int
    M: int
    a: float = 1.0
    eps0: float = 1.0

    def __post_init__(self):
        if not (self.X > 0 and self.T > 0 and self.a > 0):
            raise ConfigurationError(
                f"X, T, a must be positive, got X={self.X}, T={self.T}, a={self.a}")
        if not (isinstance(self.N, (int, np.integer)) and self.N >= 2):
            raise ConfigurationError(f"N must be an integer >= 2, got {self.N}")
        if not (isinstance(self.M, (int, np.integer)) and self.M >= 1):
            raise ConfigurationError(f"M must be an integer >= 1, got {self.M}")
        if not (0.0 < self.eps0 <= 1.0):
            raise ConfigurationError(f"eps0 must lie in (0, 1], got {self.eps0}")

    @property
    def h(self) -> float:
        return self.X / self.N

    @property
    def tau(self) -> float:
        return self.T / self.M

    @property
    def sigma(self) -> float:
        """Implicit weight (1 + h^2/(a^2 tau^2)) / 12 of the scheme."""
        return (1.0 + self.h ** 2 / (self.a ** 2 * self.tau ** 2)) / 12.0

    @property
    def stable(self) -> bool:
        """Whether a^2 tau^2 <= (1 - eps0^2/2) h^2 holds."""
        return self.a ** 2 * self.tau ** 2 <= (1.0 - self.eps0 ** 2 / 2.0) * self.h ** 2

    def stability_report(self) -> str:
        lhs = self.a ** 2 * self.tau ** 2
        rhs = (1.0 - self.eps0 ** 2 / 2.0) * self.h ** 2
        rel = "<=" if self.stable else ">"
        return (f"a^2 tau^2 = {lhs:.6e} {rel} (1 - eps0^2/2) h^2 = {rhs:.6e} "
                f"(N={self.N}, M={self.M}, eps0={self.eps0})")

    def nodes(self) -> np.ndarray:
        return np.arange(self.N + 1) * self.h

    def times(self) -> np.ndarray:
        return np.arange(self.M + 1) * self.tau

    def zeros(self) -> GridFn:
        return np.zeros(self.N + 1)


def build_mesh(X: float, T: float, N: int, M: int, a: float = 1.0,
               eps0: float = 1.0) -> MeshSpec:
    """Validate the parameters and return the mesh descriptor."""
    return MeshSpec(X=float(X), T=float(T), N=int(N), M=int(M), a=float(a),
                    eps0=float(eps0))


def require_gridfn(w, mesh: MeshSpec) -> GridFn:
    """w as a grid function: one level (N+1,) or a stack of levels (L, N+1).

    The result is C-contiguous, so every reduction over the last axis sums
    each level in the same order as a call on that level alone."""
    w = np.ascontiguousarray(w, dtype=float)
    if w.ndim not in (1, 2) or w.shape[-1] != mesh.N + 1:
        raise ContractViolation(
            f"expected {mesh.N + 1} values per level, one level or a stack, got shape {w.shape}")
    return w


def _reduced(values):
    """A float for one level, the array of L values for a stack."""
    return float(values) if np.ndim(values) == 0 else values


def require_dirichlet(w, mesh: MeshSpec, what: str = "grid function") -> GridFn:
    """Check that w, one level or a stack of levels, lives on the mesh nodes and
    vanishes at both ends of every level; a failure names the first bad row."""
    w = require_gridfn(w, mesh)
    rows = np.atleast_2d(w)
    edges = np.abs(rows[:, ::mesh.N])  # w[0] and w[N] of every level
    if not edges.any():  # exact zeros pass at any scale
        return w
    scale = np.maximum(1.0, np.abs(rows).max(axis=1))
    bad = np.flatnonzero(edges.max(axis=1) > _DIRICHLET_RTOL * scale)
    if bad.size:
        r = bad[0]
        raise ContractViolation(
            f"{what}{f' (row {r})' if w.ndim == 2 else ''} must vanish at the boundary "
            f"nodes, got w[0]={rows[r, 0]:.3e}, w[N]={rows[r, -1]:.3e}")
    return w


# --------------------------------------------------------------------------
# quadratic forms of the spatial operators, reduced over the last axis (kept
# local so the norms below do not depend on the operators module)

def _mass_form(w: np.ndarray, h: float):
    """(B w, w)_h with the interior stencil (w[i-1] + 4 w[i] + w[i+1]) / 6."""
    inner = w[..., 1:-1]
    return np.sum(((w[..., :-2] + 4.0 * inner + w[..., 2:]) / 6.0) * inner, axis=-1) * h

def _stiffness_form(w: np.ndarray, h: float):
    """(-Lap w, w)_h computed through the second-difference stencil."""
    inner = w[..., 1:-1]
    lap = (w[..., :-2] - 2.0 * inner + w[..., 2:]) / h ** 2
    return -np.sum(lap * inner, axis=-1) * h

def _backward_diff_sq(w: np.ndarray, h: float):
    """sum_{i=1..N} ((w[i] - w[i-1]) / h)^2 h."""
    d = np.diff(w, axis=-1) / h
    return np.sum(d * d, axis=-1) * h


SPACE_NORM_KINDS = ("l2", "diff_l2", "l1", "mass", "stiffness")


def space_norm(w, kind: str, mesh: MeshSpec):
    """Discrete spatial norm of a grid function, or of each level of a stack.

    w is one level, shape (N+1,), and the norm is a float, or a stack of
    levels, shape (L, N+1), and the norms are an array of L values.

    Kinds
    -----
    l2           (sum_{i=1..N-1} w_i^2 h)^(1/2)
    diff_l2      l2 norm of the backward differences over cells i = 1..N
    l1           trapezoid sum of |w| over all cells
    mass         (B w, w)_h^(1/2), mass-weighted; requires Dirichlet w
    stiffness    (-Lap w, w)_h^(1/2); requires Dirichlet w and then equals
                 diff_l2 exactly (summation by parts)

    diff_l2 and l1 use backward differences / cells indexed 1..N throughout.
    """
    if kind in ("mass", "stiffness"):
        w = require_dirichlet(w, mesh, what=f"{kind}-norm argument")
    else:
        w = require_gridfn(w, mesh)
    h = mesh.h
    if kind == "l2":
        return _reduced(np.sqrt(np.sum(w[..., 1:-1] ** 2, axis=-1) * h))
    if kind == "diff_l2":
        return _reduced(np.sqrt(_backward_diff_sq(w, h)))
    if kind == "l1":
        return _reduced(np.sum(0.5 * (np.abs(w[..., :-1]) + np.abs(w[..., 1:])) * h, axis=-1))
    if kind == "mass":
        return _reduced(np.sqrt(np.maximum(_mass_form(w, h), 0.0)))
    if kind == "stiffness":
        return _reduced(np.sqrt(np.maximum(_stiffness_form(w, h), 0.0)))
    raise ContractViolation(f"unknown space norm kind {kind!r}; expected one of {SPACE_NORM_KINDS}")


def time_aggregate(series, mesh: MeshSpec) -> float:
    """Trapezoid sum of |y| over the time cells of a per-level series on 0..M."""
    y = np.asarray(series, dtype=float)
    if y.ndim != 1 or y.size < 2:
        raise ContractViolation("time aggregate needs a 1d series of at least two levels")
    return float(np.sum(0.5 * (np.abs(y[:-1]) + np.abs(y[1:])) * mesh.tau))


def energy_norm_pair(v_prev, v_curr, mesh: MeshSpec):
    """Two-level energy norm of the slice pair (v_prev, v_curr).

    v_prev and v_curr are single levels (a float is returned) or stacks of
    levels paired row by row (an array of L norms).  Requires a stable mesh:
    the norm may lose definiteness otherwise.  The radicand is evaluated in
    full; a negative value beyond -1e-12 times its own scale indicates a
    broken invariant and raises, naming the first such row of a stack.
    """
    if not mesh.stable:
        raise ContractViolation(
            "energy norm requires a stable mesh: " + mesh.stability_report())
    v_prev = require_dirichlet(v_prev, mesh, "energy-norm slice")
    v_curr = require_dirichlet(v_curr, mesh, "energy-norm slice")
    h, tau, a = mesh.h, mesh.tau, mesh.a
    dtv = (v_curr - v_prev) / tau
    stv = 0.5 * (v_curr + v_prev)
    term_b = _mass_form(dtv, h)
    term_mid = (mesh.sigma - 0.25) * tau ** 2 * a ** 2 * _stiffness_form(dtv, h)
    term_avg = a ** 2 * _stiffness_form(stv, h)
    total = term_b + term_mid + term_avg
    scale = np.abs(term_b) + np.abs(term_mid) + np.abs(term_avg)
    bad = np.flatnonzero(total < -1e-12 * np.maximum(scale, 1e-300))
    if bad.size:
        r = bad[0]
        raise InvariantError(
            f"energy radicand {np.ravel(total)[r]:.3e} is negative beyond tolerance"
            f"{f' in row {r}' if np.ndim(total) else ''} (scale {np.ravel(scale)[r]:.3e})")
    return _reduced(np.sqrt(np.maximum(total, 0.0)))


def check_stable(mesh: MeshSpec) -> None:
    """Raise UnstableMeshError when the time-step restriction fails."""
    if not mesh.stable:
        raise UnstableMeshError(mesh.stability_report())
