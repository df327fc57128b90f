"""The three-level compact time integrator and its error measurement.

With A = mass - sigma tau^2 a^2 laplacian, the main recurrence advances

    A (v^{m+1} - 2 v^m + v^{m-1}) / tau^2 = a^2 laplacian v^m + f_h^m,

and the first level comes from the two-level implicit initial condition

    A (v^1 - v^0) / tau = (tau/2) a^2 laplacian v^0 + u1h + (tau/2) f_h^0,

which involves no derivatives of the data and is what keeps the scheme
applicable to rough initial velocities.  v^0 is taken as node samples of u0
by default, with a hat-average alternative for data that has no meaningful
point values.

evolve_grid is the one way to step: it runs both recurrences on grid data
(v0, u1h, fh) and returns the stored slices and the residual of every step.

Error reports compare a run against a reference solution in two modes:

    node_sampled   errors r^m = u(x_i, t_m) - v^m enter every norm; the
                   energy field is the full two-level scheme energy norm.
    q2h_filtered   the time-difference part is measured on the filtered error
                   q_2h u - v while the space-difference part stays on u - v;
                   the energy field is then max_m of
                   ||dt(q_2h u - v)^m||_l2 + ||dx(u - v)^m||_diff_l2.
                   (The full energy norm is not finite-order for rough data,
                   which is exactly the regime this mode exists for.)
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import data as data_mod
from .errors import ConfigurationError, ContractViolation, InvariantError, QuadratureError
from .grid import (GridFn, MeshSpec, check_stable, energy_norm_pair,
                   require_dirichlet, space_norm, time_aggregate)
from .operators import apply_implicit, solve_implicit, stencil

V0_MODES = ("node_samples", "qh_average")
ERROR_MODES = ("node_sampled", "q2h_filtered")

#: defining-equation residual contract, relative to max(1, |rhs|_inf)
RESIDUAL_RTOL = 1e-11

#: largest grid-data magnitude prepare_inputs accepts: the norms square it
_DATA_BOUND = float(np.sqrt(np.finfo(float).max))

#: time levels per block of measure_error; consecutive blocks share a level
_BLOCK_LEVELS = 64


@dataclass(frozen=True)
class SchemeRun:
    """One integrator run: its levels and the residual of every step."""

    slices: np.ndarray        # (M+1, N+1): slices[m] is v^m
    residual_max: np.ndarray  # residual_max[m-1] belongs to the step producing v^m


@dataclass(frozen=True)
class ErrorReport:
    max_energy_error: float
    max_dx_error: float
    l1_spacetime_error: float
    l1_spacetime_dx_error: float
    mode: str


def _step_residual(lhs_fn: GridFn, rhs: GridFn) -> float:
    res = float(np.max(np.abs(lhs_fn[1:-1] - rhs[1:-1])))
    scale = max(1.0, float(np.max(np.abs(rhs))))
    if not res <= RESIDUAL_RTOL * scale:  # a NaN residual fails too
        raise InvariantError(f"defining-equation residual {res:.3e} exceeds "
                             f"{RESIDUAL_RTOL:.0e} * {scale:.3e}")
    return res


# The two recurrences of the scheme.  The level functions trust their inputs:
# evolve_grid validates the mesh and the boundary values once, before
# stepping, so no step pays for validation.

def _first_level(mesh: MeshSpec, v0: GridFn, u1h: GridFn, fh0) -> tuple[GridFn, float]:
    """(v^1, residual) from the two-level initial condition."""
    tau, a = mesh.tau, mesh.a
    rhs = 0.5 * tau * a ** 2 * stencil("laplacian", v0, mesh) + u1h
    if fh0 is not None:
        rhs = rhs + 0.5 * tau * fh0
    dt0 = solve_implicit(rhs, mesh)
    residual = _step_residual(apply_implicit(dt0, mesh), rhs)
    return v0 + tau * dt0, residual


def _next_level(mesh: MeshSpec, v_prev: GridFn, v_curr: GridFn,
                fh_m) -> tuple[GridFn, float]:
    """(v^{m+1}, residual) from the three-level main recurrence."""
    tau, a = mesh.tau, mesh.a
    rhs = a ** 2 * stencil("laplacian", v_curr, mesh)
    if fh_m is not None:
        rhs = rhs + fh_m
    lam_t = solve_implicit(rhs, mesh)
    residual = _step_residual(apply_implicit(lam_t, mesh), rhs)
    return tau ** 2 * lam_t + 2.0 * v_curr - v_prev, residual


def prepare_inputs(mesh: MeshSpec, data: data_mod.DataSpec, variant: str,
                   v0_mode: str):
    """Assemble (v0, u1h, fh) grid data from the descriptors.

    This is where grid data enters the scheme: a datum whose quadrature fails,
    or whose grid data is not finite or beyond _DATA_BOUND in magnitude, is a
    ConfigurationError naming it.
    """
    if v0_mode not in V0_MODES:
        raise ContractViolation(f"unknown v0 mode {v0_mode!r}; expected one of {V0_MODES}")

    def v0():
        if v0_mode == "qh_average":
            return data_mod.average_qh(data.u0, mesh)
        samples = data_mod.sample_nodes(data.u0, mesh)
        samples[0] = samples[-1] = 0.0
        return samples

    def checked(name, build):
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                values = build()
        except QuadratureError as exc:
            raise ConfigurationError(f"the grid data of {name} are not finite: {exc}") from exc
        if not -_DATA_BOUND <= values.min() <= values.max() <= _DATA_BOUND:  # NaN fails too
            raise ConfigurationError(f"the grid data of {name} are not finite or exceed "
                                     f"{_DATA_BOUND:.1e} in magnitude")
        return values

    return (checked("u0", v0),
            checked("u1", lambda: data_mod.build_u1h(variant, data.u1, mesh)),
            None if data.f is None else checked("f", lambda: data_mod.build_fh(data.f, mesh)))


def evolve_grid(mesh: MeshSpec, v0, u1h, fh=None) -> SchemeRun:
    """Run the integrator from grid data (v0, u1h, fh) and store every slice.

    v0 and u1h are levels and fh, if given, holds the forcing levels
    0..M-1; each must vanish at both ends, and a failure names it.  The
    recurrences keep those boundary values, so every stored slice vanishes at
    both ends too.  Every step checks its defining-equation residual against
    RESIDUAL_RTOL; residual_max[m-1] records it for the step producing v^m.
    """
    check_stable(mesh)
    slices = np.empty((mesh.M + 1, mesh.N + 1))
    residuals = np.empty(mesh.M)
    slices[0] = require_dirichlet(v0, mesh, "v0")
    u1h = require_dirichlet(u1h, mesh, "u1h")
    if fh is not None:
        fh = require_dirichlet(fh, mesh, "fh")
    slices[1], residuals[0] = _first_level(mesh, slices[0], u1h,
                                           None if fh is None else fh[0])
    for m in range(1, mesh.M):
        slices[m + 1], residuals[m] = _next_level(mesh, slices[m - 1], slices[m],
                                                  None if fh is None else fh[m])
    return SchemeRun(slices=slices, residual_max=residuals)


def evolve(mesh: MeshSpec, data: data_mod.DataSpec, variant: str = "v2",
           v0_mode: str = "node_samples") -> SchemeRun:
    """Assemble the grid data of the descriptors and run evolve_grid on it."""
    return evolve_grid(mesh, *prepare_inputs(mesh, data, variant, v0_mode))


@np.errstate(over="ignore", invalid="ignore")  # data too large to measure is refused below
def measure_error(mesh: MeshSpec, slices, reference,
                  mode: str = "node_sampled") -> ErrorReport:
    """Error norms of a stored (M+1, N+1) trajectory against a reference.

    reference serves values(levels), and qh_values(levels) in q2h_filtered
    mode, for a slice of levels.  The trajectory is measured in blocks of
    levels; consecutive blocks share one level, so the two-level norms see
    every pair of levels, the seams included.
    """
    if mode not in ERROR_MODES:
        raise ContractViolation(f"unknown error mode {mode!r}; expected one of {ERROR_MODES}")
    slices = np.asarray(slices, dtype=float)
    if slices.shape != (mesh.M + 1, mesh.N + 1):
        raise ContractViolation(
            f"slices must have shape {(mesh.M + 1, mesh.N + 1)}, got {slices.shape}")
    h = mesh.h
    energy = np.empty(mesh.M)  # energy[m-1] belongs to the pair (v^{m-1}, v^m)
    dx, l1, l1_dx = np.empty((3, mesh.M + 1))
    for start in range(0, mesh.M, _BLOCK_LEVELS):
        stop = min(start + _BLOCK_LEVELS, mesh.M)
        levels = slice(start, stop + 1)
        v = slices[levels]
        err = reference.values(levels) - v
        err[:, 0] = err[:, -1] = 0.0
        l1[levels] = space_norm(err, "l1", mesh)
        l1_dx[levels] = np.sum(np.abs(np.diff(err) / h), axis=-1) * h
        dx[levels] = space_norm(err, "diff_l2", mesh)
        if mode == "q2h_filtered":
            filt = data_mod.q2h_from_qh(reference.qh_values(levels), mesh) - v
            filt[:, 0] = filt[:, -1] = 0.0
            energy[start:stop] = (space_norm(np.diff(filt, axis=0) / mesh.tau, "l2", mesh)
                                  + dx[start + 1:stop + 1])
        else:
            energy[start:stop] = energy_norm_pair(err[:-1], err[1:], mesh)
    norms = (float(np.max(energy)), float(np.max(dx)),
             time_aggregate(l1, mesh), time_aggregate(l1_dx, mesh))
    if not np.all(np.isfinite(norms)):
        raise ConfigurationError(
            f"the error norms on the N={mesh.N}, M={mesh.M} mesh are not finite: "
            "the data are too large to measure")
    return ErrorReport(*norms, mode=mode)
