"""Uniform space-time meshes, grid functions, and the discrete norms.

The spatial mesh has nodes x_i = i*h, 0 <= i <= N, with h = X/N; the time mesh
has t_m = m*tau, 0 <= m <= M, with tau = T/M.  A grid function is a plain
float array of length N+1; members of the Dirichlet space vanish at i = 0 and
i = N.  A stack of levels is a float array of shape (L, N+1); a run of the
scheme is the stack of its levels 0..M.  Nodes are always generated as i*h
from the exact divisions X/N, T/M, never by cumulative addition.

_three_point, (w[i-1] + c w[i] + w[i+1]) / d on the interior nodes, is the
package's one three-point kernel: the mass and stiffness forms below, the
operators module's stencils, the q_2h average and the stepping loop all call
it.

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

The energy norm is evaluated by summation by parts, exact for Dirichlet
levels, from the interior values and the backward differences
D w = (w[i] - w[i-1]) / h of the two levels:

    ||w||_B^2 = ||w||_l2^2 - (h^2/6) ||D w||^2,    ||w||_S^2 = ||D w||^2,

so a caller that already holds the differences of its levels, as
scheme.measure_error does, reuses them; _energy_from_differences is the
package's one energy formula.  The mass and stiffness norms of space_norm keep
the three-point forms _mass_form and _stiffness_form, so summation by parts
can be checked against them.
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
# the three-point stencil kernel and the quadratic forms built on it

def _three_point(out, w, centre: float, divisor: float):
    """(w[i-1] + centre w[i] + w[i+1]) / divisor on the interior nodes of one
    level or of each level of a stack, written into out and returned.

    Every caller computes the same bits; centre = -2 with divisor h^2 is the
    laplacian.
    """
    np.multiply(w[..., 1:-1], centre, out=out)
    np.add(w[..., :-2], out, out=out)
    np.add(out, w[..., 2:], out=out)
    return np.divide(out, divisor, out=out)


def _mass_form(w: np.ndarray, h: float):
    """(B w, w)_h with the interior stencil (w[i-1] + 4 w[i] + w[i+1]) / 6."""
    inner = w[..., 1:-1]
    return np.sum(_three_point(np.empty_like(inner), w, 4.0, 6.0) * inner, axis=-1) * h

def _stiffness_form(w: np.ndarray, h: float):
    """(-Lap w, w)_h computed through the second-difference stencil."""
    inner = w[..., 1:-1]
    return -np.sum(_three_point(np.empty_like(inner), w, -2.0, h ** 2) * inner, axis=-1) * h

def _sq_sum(x: np.ndarray, h: float, out=None):
    """sum_i x[i]^2 h over the last axis: the squared l2 norm of the values x;
    the squares go to out, which may be x itself."""
    return np.add.reduce(np.multiply(x, x, out=out), axis=-1) * h


def _backward_diff(w: np.ndarray, h: float, out=None):
    """(w[i] - w[i-1]) / h for i = 1..N, of one level or of each level of a
    stack, written into out when it is given."""
    d = np.subtract(w[..., 1:], w[..., :-1], out=out)
    return np.divide(d, h, out=d)


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
        return _reduced(np.sqrt(_sq_sum(w[..., 1:-1], h)))
    if kind == "diff_l2":
        return _reduced(np.sqrt(_sq_sum(_backward_diff(w, h), h)))
    if kind == "l1":
        a = np.abs(w)  # once; the cells' sums, halved and scaled in place
        cells = np.add(a[..., :-1], a[..., 1:])
        cells *= 0.5
        cells *= h
        return _reduced(np.sum(cells, axis=-1))
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
    levels paired row by row (an array of L norms).  An unstable mesh, on
    which the norm may lose definiteness, is an UnstableMeshError.  The radicand is evaluated in
    full; a negative value beyond -1e-12 times its own scale indicates a
    broken invariant and raises, naming the first such row of a stack.
    """
    check_stable(mesh)
    v_prev = require_dirichlet(v_prev, mesh, "energy-norm slice")
    v_curr = require_dirichlet(v_curr, mesh, "energy-norm slice")
    h = mesh.h
    return _reduced(_energy_from_differences(
        v_prev, v_curr, _backward_diff(v_prev, h), _backward_diff(v_curr, h), mesh))


def _energy_from_differences(v_prev, v_curr, d_prev, d_curr, mesh: MeshSpec):
    """The energy norms of Dirichlet level pairs from their values and backward
    differences d = (w[i] - w[i-1]) / h, by summation by parts.

    dt v, D dt v and D st v are formed before squaring (times 1/tau, which is
    within an ulp of the quotient), so the sums overflow where the three-point
    forms do.  A radicand below -1e-12 times the sum of its terms' magnitudes
    is an InvariantError naming the first such row of a stack; the caller has
    checked the mesh and the Dirichlet ends.
    """
    h, tau, a2 = mesh.h, mesh.tau, mesh.a ** 2
    t = np.empty(np.shape(d_curr))  # the one scratch array, squared in place
    dt = np.subtract(v_curr[..., 1:-1], v_prev[..., 1:-1], out=t[..., :-1])
    dt_sq = _sq_sum(np.multiply(dt, 1.0 / tau, out=dt), h, out=dt)
    d_dt = np.subtract(d_curr, d_prev, out=t)
    d_dt_sq = _sq_sum(np.multiply(d_dt, 1.0 / tau, out=d_dt), h, out=d_dt)
    d_st = np.add(d_curr, d_prev, out=t)
    term_b = dt_sq - h ** 2 / 6.0 * d_dt_sq  # ||dt v||_B^2 by summation by parts
    term_mid = (mesh.sigma - 0.25) * tau ** 2 * a2 * d_dt_sq
    term_avg = a2 * _sq_sum(np.multiply(d_st, 0.5, out=d_st), h, out=d_st)
    total = term_b + term_mid + term_avg
    if not np.min(total) >= 0.0:  # no row can fail otherwise
        scale = np.abs(term_b) + np.abs(term_mid) + np.abs(term_avg)
        bad = np.flatnonzero(total < -1e-12 * np.maximum(scale, 1e-300))
        if bad.size:
            r = bad[0]
            raise InvariantError(
                f"energy radicand {np.ravel(total)[r]:.3e} is negative beyond tolerance"
                f"{f' in row {r}' if np.ndim(total) else ''} (scale {np.ravel(scale)[r]:.3e})")
    return np.sqrt(np.maximum(total, 0.0))


def check_stable(mesh: MeshSpec) -> None:
    """Raise UnstableMeshError when the time-step restriction fails."""
    if not mesh.stable:
        raise UnstableMeshError(mesh.stability_report())
