"""Spatial averaging and difference operators, and the implicit level solver.

Interior three-point stencils, all acting in the Dirichlet space (output
boundary rows are zero) on one level (N+1,) or on each level of a stack
(L, N+1):

    numerov    (w[i-1] + 10 w[i] + w[i+1]) / 12   = I + (h^2/12) laplacian
    mass       (w[i-1] +  4 w[i] + w[i+1]) / 6    = I + (h^2/6)  laplacian
    laplacian  (w[i-1] - 2 w[i] + w[i+1]) / h^2

Every time level of the scheme solves a system with the matrix

    A = mass - sigma tau^2 a^2 laplacian,

whose interior rows have diagonal 2/3 + 2 s and off-diagonals 1/6 - s with
s = sigma tau^2 a^2 / h^2.  The matrix is symmetric positive definite,
tridiagonal and strictly diagonally dominant (|diag| - 2 |off| >= 1/3 for
every s > 0), so its LDL^T factorization (LAPACK dpttrf) without pivoting
cannot break down; a factorization that reports a failure anyway is an
InvariantError naming the matrix and N.  The factor (d, e) depends only on the
mesh and is cached per MeshSpec, which amortizes the setup across all M time
steps.  solve_implicit and solve_mass solve with their factors through LAPACK
dpttrs; scheme.evolve_grid calls dpttrs on the same cached factor of A, in
place on its own buffers, once per step.  Both routines come from scipy's
_flapack extension, loaded by path (_tridiagonal_lapack) to skip the package
import of scipy.linalg.  The numerov, mass and laplacian stencils are the
kernel grid._three_point; apply_implicit applies A as the one stencil
grid._tridiagonal of the interior entries that its factor is built from
(_implicit_entries), as the scheme's residual check does, zero ends implied.
"""

from __future__ import annotations

import importlib.util
from functools import lru_cache
from importlib.machinery import EXTENSION_SUFFIXES
from pathlib import Path

import numpy as np
import scipy

from .errors import ContractViolation, InvariantError
from .grid import GridFn, MeshSpec, _three_point, _tridiagonal, require_dirichlet, require_gridfn

SPATIAL_OP_KINDS = ("numerov", "mass", "laplacian")


def _tridiagonal_lapack(directory: Path):
    """(dpttrf, dpttrs) of scipy's _flapack extension in directory, loaded by
    its path: the package import of scipy.linalg would double the CLI's
    start-up.  A missing file or a failed load falls back to that import."""
    paths = [directory / f"_flapack{suffix}" for suffix in EXTENSION_SUFFIXES]
    try:
        spec = importlib.util.spec_from_file_location(
            "scipy.linalg._flapack", next(path for path in paths if path.is_file()))
        flapack = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(flapack)
    except (StopIteration, ImportError, OSError):
        from scipy.linalg import lapack as flapack
    return flapack.dpttrf, flapack.dpttrs


dpttrf, dpttrs = _tridiagonal_lapack(Path(scipy.__path__[0]) / "linalg")


def stencil(kind: str, w, mesh: MeshSpec) -> GridFn:
    """Raw three-point stencil on the interior nodes; no Dirichlet check.

    Boundary values of w participate in the rows i = 1 and i = N-1, which is
    what the scheme's data assembly needs for pointwise initial data that
    does not vanish at the ends.  Output boundary rows are zero.
    """
    w = require_gridfn(w, mesh)
    if kind not in SPATIAL_OP_KINDS:
        raise ContractViolation(
            f"unknown spatial operator {kind!r}; expected one of {SPATIAL_OP_KINDS}")
    centre, divisor = {"numerov": (10.0, 12.0), "mass": (4.0, 6.0),
                       "laplacian": (-2.0, mesh.h ** 2)}[kind]
    out = np.zeros_like(w)
    _three_point(out[..., 1:-1], w, centre, divisor)
    return out


def apply_spatial(kind: str, w, mesh: MeshSpec) -> GridFn:
    """Apply one of the operators to a Dirichlet grid function."""
    w = require_dirichlet(w, mesh, what=f"{kind} operand")
    return stencil(kind, w, mesh)


def _implicit_entries(mesh: MeshSpec) -> tuple[float, float]:
    """A's interior diagonal 2/3 + 2 s and off-diagonal 1/6 - s, with
    s = sigma tau^2 a^2 / h^2: what its factor and its stencil read."""
    s = mesh.sigma * mesh.tau ** 2 * mesh.a ** 2 / mesh.h ** 2
    return 2.0 / 3.0 + 2.0 * s, 1.0 / 6.0 - s


def _ldlt(what: str, diag: float, off: float, n: int):
    """dpttrf's LDL^T factor (d, e) of the n x n tridiagonal Toeplitz matrix
    with diagonal diag and off-diagonals off; dpttrf needs n >= 2."""
    if n < 2:
        raise ContractViolation(f"the {what} matrix needs 2 interior nodes, N >= 3, got N={n + 1}")
    d, e, info = dpttrf(np.full(n, diag), np.full(n - 1, off))
    if info != 0:
        raise InvariantError(f"the LDL^T factorization of the {what} matrix on the "
                             f"N={n + 1} mesh failed (dpttrf info {info})")
    return d, e


@lru_cache(maxsize=128)
def _implicit_factor(mesh: MeshSpec):
    """LDL^T factor (d, e) of mass - sigma tau^2 a^2 laplacian (interior)."""
    return _ldlt("implicit", *_implicit_entries(mesh), mesh.N - 1)


@lru_cache(maxsize=128)
def _mass_factor(mesh: MeshSpec):
    """LDL^T factor (d, e) of the interior mass matrix."""
    return _ldlt("mass", 2.0 / 3.0, 1.0 / 6.0, mesh.N - 1)


def apply_implicit(w, mesh: MeshSpec) -> GridFn:
    """Forward application of mass - sigma tau^2 a^2 laplacian on H_h."""
    w = require_dirichlet(w, mesh, what="implicit operand")
    out = np.zeros_like(w)
    _tridiagonal(out[..., 1:-1], w, *_implicit_entries(mesh))
    return out


def solve_implicit(rhs, mesh: MeshSpec) -> GridFn:
    """Solve (mass - sigma tau^2 a^2 laplacian) w = rhs on the interior.

    Returns w in the Dirichlet space.  The matrix symbol lies in [2/3, 1] on
    stable meshes, so the solve is extremely well conditioned; the residual
    satisfies max|A w - rhs| <= 1e-12 max(1, max|rhs|).
    """
    rhs = require_dirichlet(rhs, mesh, what="implicit right-hand side")
    out = np.zeros_like(rhs)
    out[..., 1:-1] = dpttrs(*_implicit_factor(mesh), rhs[..., 1:-1].T)[0].T
    return out


def solve_mass(rhs, mesh: MeshSpec) -> GridFn:
    """Solve mass * w = rhs on the interior; used by the stability bounds."""
    rhs = require_dirichlet(rhs, mesh, what="mass right-hand side")
    out = np.zeros_like(rhs)
    out[..., 1:-1] = dpttrs(*_mass_factor(mesh), rhs[..., 1:-1].T)[0].T
    return out


def mass_inv_half_norm(w, mesh: MeshSpec):
    """||B^(-1/2) w||_h = (B^{-1} w, w)_h^(1/2) of one level (a float) or of
    each level of a stack (an array)."""
    w = require_dirichlet(w, mesh, what="mass_inv_half_norm argument")
    z = solve_mass(w, mesh)
    norm = np.sqrt(np.maximum(np.sum(z[..., 1:-1] * w[..., 1:-1], axis=-1) * mesh.h, 0.0))
    return float(norm) if w.ndim == 1 else norm
