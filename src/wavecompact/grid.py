"""Uniform space-time meshes, grid functions, and the discrete norms.

The spatial mesh has nodes x_i = i*h, 0 <= i <= N, with h = X/N; the time mesh
has t_m = m*tau, 0 <= m <= M, with tau = T/M.  A grid function is a plain
float array of length N+1; members of the Dirichlet space vanish at i = 0 and
i = N.  A stack of levels is a float array of shape (L, N+1); a run of the
scheme is the stack of its levels 0..M.  Nodes are always generated as i*h
from the exact divisions X/N, T/M, never by cumulative addition.

_three_point, (w[i-1] + c w[i] + w[i+1]) / d on the interior nodes, is the
package's one three-point kernel: the mass and stiffness forms below, the
operators module's stencils and the reference's q_2h filter call it, and the
stepping loop computes its bits.  Beside it, _tridiagonal, off (w[i-1] +
w[i+1]) + diag w[i], is the implicit matrix A as one stencil of the entries
its LDL^T factor is built from (operators._implicit_entries):
operators.apply_implicit calls it, and the stepping loop's residual check on
the solutions' interiors, zero ends implied.

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
scheme.measure_error does, reuses them, and with them the row sums of
squares ||D w||^2 of its dx norms: the average term comes from those by the
parallelogram law,

    ||D st v||^2 = (||D v_prev||^2 + ||D v_curr||^2) / 2 - tau^2 ||D dt v||^2 / 4,

so D st v is never formed.  dt v and D dt v are formed, times 1/tau, before
they are squared: the sums then overflow exactly where the three-point forms
do, and data too large to measure is refused rather than measured finite.
_energy_from_differences is the package's one energy formula, and _sq_sum,
one row dot product (np.vecdot, the BLAS ddot) per level, its one sum of
squares.  The mass and stiffness norms of space_norm keep the three-point
forms _mass_form and _stiffness_form, so summation by parts can be checked
against them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, ContractViolation, InvariantError, UnstableMeshError

GridFn = np.ndarray

#: tolerance for treating a boundary value as zero, relative to the array scale
_DIRICHLET_RTOL = 1e-13

#: the most cells in space or time of a configured rung: up to 2**53 every
#: node index i and level index m is an exact float, so i * h and m * tau
#: multiply exact integers
MAX_CELLS = 2 ** 53


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
        try:  # float ** raises on overflow, and sigma divides by a^2 tau^2
            scales = (self.h ** 2, self.tau ** 2, self.a ** 2 * self.tau ** 2, self.sigma,
                      self.eps0 ** 2)
        except (OverflowError, ZeroDivisionError):
            scales = (math.inf,)
        if not all(0.0 < s < math.inf for s in scales):
            raise ConfigurationError(
                f"the mesh X={self.X}, T={self.T}, a={self.a}, N={self.N}, M={self.M}, "
                f"eps0={self.eps0} is beyond the float range: h^2, tau^2, a^2 tau^2, sigma "
                "and eps0^2 must be finite and positive")

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


def _tridiagonal(out, w, diag: float, off: float, scratch=None):
    """off (w[i-1] + w[i+1]) + diag w[i] on the interior nodes of one level or
    of each level of a stack, into out and returned; w is the levels, or their
    interior, C-contiguous as out, zero ends implied.  diag w goes to scratch if given."""
    if w.shape[-1] == out.shape[-1]:  # the interior: one flat pass (0 + x is x), then the ends
        flat = w.reshape(-1, copy=False)
        np.add(flat[:-2], flat[2:], out=out.reshape(-1, copy=False)[1:-1])
        out[..., [0, -1]] = w[..., [1, -2]] if w.shape[-1] > 1 else 0.0  # N = 2: no neighbour
    else:
        np.add(w[..., :-2], w[..., 2:], out=out)
        w = w[..., 1:-1]
    out *= off  # the neighbours are read: scratch may be w
    return np.add(out, np.multiply(w, diag, out=scratch), out=out)


def _mass_form(w: np.ndarray, h: float):
    """(B w, w)_h with the interior stencil (w[i-1] + 4 w[i] + w[i+1]) / 6."""
    inner = w[..., 1:-1]
    return np.sum(_three_point(np.empty_like(inner), w, 4.0, 6.0) * inner, axis=-1) * h

def _stiffness_form(w: np.ndarray, h: float):
    """(-Lap w, w)_h computed through the second-difference stencil."""
    inner = w[..., 1:-1]
    return -np.sum(_three_point(np.empty_like(inner), w, -2.0, h ** 2) * inner, axis=-1) * h

def _sq_sum(x: np.ndarray, h: float):
    """sum_i x[i]^2 h over the last axis in one pass: the squared l2 norm of x."""
    return np.vecdot(x, x) * h


def _backward_diff(w: np.ndarray, h: float, out=None):
    """(w[i] - w[i-1]) * (1/h) for i = 1..N (within an ulp of the quotient), of
    one level or of each level of a C-contiguous stack, in the first N columns
    of out (new if None), as wide as w, and zero in its last: one flat pass, as
    is every later pass over out."""
    flat, out = w.reshape(-1, copy=False), np.empty(w.shape) if out is None else out
    np.subtract(flat[1:], flat[:-1], out=out.reshape(-1, copy=False)[:-1])
    out[..., -1] = 0.0  # the seams between rows
    return np.multiply(out, 1.0 / h, out=out)


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
        return _reduced(np.sqrt(_sq_sum(_backward_diff(w, h)[..., :-1], h)))
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


def _energy_from_differences(v_prev, v_curr, d_prev, d_curr, mesh: MeshSpec, scratch=None,
                             sq=None):
    """The energy norms of Dirichlet level pairs from their values, backward
    differences d = (w[i] - w[i-1]) / h (or _backward_diff's zero-ended rows)
    and the row sums of squares sq = (||D v_prev||^2, ||D v_curr||^2), which
    the measurers hold from their dx norms (None: summed here from d), by
    summation by parts, in scratch (shaped as the levels) if given.

    dt v and D dt v are formed and scaled by 1/tau (within an ulp of the
    quotient) before squaring, so the sums overflow where the three-point forms
    do.  D st v is not formed: by the parallelogram law

        ||D st v||^2 = (||D v_prev||^2 + ||D v_curr||^2) / 2 - tau^2 ||D dt v||^2 / 4,

    three passes fewer than forming, halving and squaring it.  Its rounding is
    relative to a^2 (||D v_prev||^2 + ||D v_curr||^2) / 2, which is at most
    (3 / eps0^2 - 1/2) times the energy's square on an admissible mesh (the
    mass term bounds tau^2 a^2 ||D dt v||^2 / 4), so of a pair of levels the
    norm keeps its relative accuracy, even where D st v nearly vanishes.  A
    radicand below -1e-12 times the sum of its terms' magnitudes is an
    InvariantError naming the first such row of a stack; the caller has
    checked the mesh and the Dirichlet ends.
    """
    h, tau, a2, n = mesh.h, mesh.tau, mesh.a ** 2, mesh.N
    sq_prev, sq_curr = ((_sq_sum(d_prev[..., :n], h), _sq_sum(d_curr[..., :n], h))
                        if sq is None else sq)
    t = np.empty(np.shape(v_curr)) if scratch is None else scratch  # the one scratch array
    dt = np.subtract(v_curr, v_prev, out=t)  # the ends are not read
    dt_sq = _sq_sum(np.multiply(dt, 1.0 / tau, out=dt)[..., 1:-1], h)
    d_dt = np.subtract(d_curr, d_prev, out=t[..., :np.shape(d_curr)[-1]])
    d_dt_sq = _sq_sum(np.multiply(d_dt, 1.0 / tau, out=d_dt)[..., :n], h)
    term_b = dt_sq - h ** 2 / 6.0 * d_dt_sq  # ||dt v||_B^2 by summation by parts
    term_mid = (mesh.sigma - 0.25) * tau ** 2 * a2 * d_dt_sq
    term_avg = a2 * (0.5 * (sq_prev + sq_curr) - 0.25 * tau ** 2 * d_dt_sq)  # a^2 ||D st v||^2
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
