"""The three-level compact time integrator and its error measurement.

With A = mass - sigma tau^2 a^2 laplacian, the main recurrence advances

    A (v^{m+1} - 2 v^m + v^{m-1}) / tau^2 = a^2 laplacian v^m + f_h^m,

and the first level comes from the two-level implicit initial condition

    A (v^1 - v^0) / tau = (tau/2) a^2 laplacian v^0 + u1h + (tau/2) f_h^0,

which involves no derivatives of the data and is what keeps the scheme
applicable to rough initial velocities.  v^0 is the node samples of u0:
u0 has order lambda >= 1, so it is continuous and its samples are defined,
while u1, of order lambda - 1 >= 0, enters only through hat averages.

One stepping loop, _march, steps every run.  It checks the shapes,
finiteness and zero ends of (v0, u1h, fh) once, on entry; each step calls
LAPACK dpttrs on the cached LDL^T factor of the tridiagonal A and the stencil
kernel grid._three_point, in buffers allocated once per run.  The levels live
in a ring of RING_LEVELS rows per column, and the defining-equation residual
of every step and column is checked per block of _RESIDUAL_BLOCK consecutive
steps, in one vectorized pass after the block's last step (and after the
run's last step); only then are the block's levels handed on, so a failing
step surfaces after at most _RESIDUAL_BLOCK - 1 further steps.  evolve_grid
stores the blocks as a trajectory; the scheme is linear, so B data sets can
be stepped as the columns of one run, each step making one dpttrs call with B
right-hand sides, whose cost per column is flat.  evolve_measured measures
each block as it is stepped and stores none: O(N) levels, whatever M is.

Error reports compare a run against a reference solution in two modes:

    node_sampled   errors r^m = u(x_i, t_m) - v^m enter every norm; the
                   energy field is the full two-level scheme energy norm.
    q2h_filtered   the time-difference part is measured on the filtered error
                   q_2h u - v while the space-difference part stays on u - v;
                   the energy field is then max_m of
                   ||dt(q_2h u - v)^m||_l2 + ||dx(u - v)^m||_diff_l2.
                   (The full energy norm is not finite-order for rough data,
                   which is exactly the regime this mode exists for.)

One block measurer, _measure, reads the blocks of _march or, in
measure_error, the same blocks of a stored trajectory: the errors of a block
and their backward space differences, in two buffers allocated once per call,
computed once and read by every norm of the block, the energy norm included
(grid._energy_from_differences, the formula energy_norm_pair evaluates).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dpttrs

from . import data as data_mod
from .errors import ConfigurationError, ContractViolation, InvariantError, QuadratureError
from .grid import (GridFn, MeshSpec, _backward_diff, _energy_from_differences, _sq_sum,
                   _three_point, check_stable, require_dirichlet, space_norm,
                   time_aggregate)
from .operators import _implicit_factor

ERROR_MODES = ("node_sampled", "q2h_filtered")

#: defining-equation residual contract, relative to max(1, |rhs|_inf)
RESIDUAL_RTOL = 1e-11

#: largest grid-data magnitude prepare_inputs accepts: the norms square it
_DATA_BOUND = float(np.sqrt(np.finfo(float).max))

#: steps per residual check and level pairs per measured block; 17 rows of
#: N = 2048 stay in L2, and consecutive blocks share a level
_RESIDUAL_BLOCK = 16

#: levels per column that the stepping loop holds
RING_LEVELS = _RESIDUAL_BLOCK + 2


@dataclass(frozen=True)
class SchemeRun:
    """One integrator run, or a stack of B runs: the levels and the residual of
    every step."""

    slices: np.ndarray        # (M+1, N+1), slices[m] is v^m; (B, M+1, N+1) for a stack
    residual_max: np.ndarray  # residual_max[..., m-1] belongs to the step producing v^m


@dataclass(frozen=True)
class ErrorReport:
    max_energy_error: float
    max_dx_error: float
    l1_spacetime_error: float
    l1_spacetime_dx_error: float
    mode: str


def prepare_inputs(mesh: MeshSpec, data: data_mod.DataSpec, variant):
    """Assemble (v0, u1h, fh) grid data from the descriptors; for a tuple of
    u1 variants u1h is their (B, N+1) stack, and v0 and fh are built once.

    This is where grid data enters the scheme: a datum whose quadrature fails,
    or whose grid data is not finite or beyond _DATA_BOUND in magnitude, is a
    ConfigurationError naming it and the mesh.
    """
    def v0():
        samples = data_mod.sample_nodes(data.u0, mesh)
        samples[0] = samples[-1] = 0.0
        return samples

    def checked(name, build):
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                values = build()
        except QuadratureError as exc:
            raise ConfigurationError(f"the grid data of {name} are not finite on the "
                                     f"N={mesh.N}, M={mesh.M} mesh: {exc}") from exc
        if not -_DATA_BOUND <= values.min() <= values.max() <= _DATA_BOUND:  # NaN fails too
            raise ConfigurationError(f"the grid data of {name} are not finite or exceed "
                                     f"{_DATA_BOUND:.1e} in magnitude on the N={mesh.N}, "
                                     f"M={mesh.M} mesh")
        return values

    def u1h(v):
        return checked("u1", lambda: data_mod.build_u1h(v, data.u1, mesh))

    return (checked("u0", v0),
            u1h(variant) if isinstance(variant, str) else np.stack([u1h(v) for v in variant]),
            None if data.f is None else checked("f", lambda: data_mod.build_fh(data.f, mesh)))


def _entry_datum(name: str, w, shape: tuple, mesh: MeshSpec, stacked: bool) -> GridFn:
    """w as float data of the given shape, finite and vanishing at both ends;
    in a stack each column is checked, and a failure names it."""
    w = np.asarray(w, dtype=float)
    if w.shape != shape:
        raise ContractViolation(f"{name} must have shape {shape}, got {w.shape}")
    for b, col in enumerate(w) if stacked else ((None, w),):
        what = name if b is None else f"{name} column {b}"
        if not -np.inf < col.min() <= col.max() < np.inf:  # reads only; NaN fails too
            raise ConfigurationError(f"{what} has values that are not finite")
        require_dirichlet(col, mesh, what)
    return w


def _march(mesh: MeshSpec, v0, u1h, fh, stacked: bool, residuals: np.ndarray):
    """Check the mesh and the data (B columns, or B = 1 unless stacked), then
    return the stepping loop, a generator.  Its ring holds v^{first-1}, v^first
    and a block's new levels; after the residual check of a block of n steps,
    which writes their residuals into residuals (B, M), it yields (first,
    levels), levels the (B, n+1, N+1) view of v^first..v^{first+n} in the ring
    that the next block overwrites."""
    check_stable(mesh)
    N, M, tau, a2, h2 = mesh.N, mesh.M, mesh.tau, mesh.a ** 2, mesh.h ** 2
    B = len(v0) if stacked else 1
    if B < 1:
        raise ContractViolation("a stack of grid data needs at least one column")
    lead = (B,) if stacked else ()
    v0, u1h = (_entry_datum(name, w, lead + (N + 1,), mesh, stacked).reshape(B, N + 1)
               for name, w in (("v0", v0), ("u1h", u1h)))
    if fh is not None:
        fh = _entry_datum("fh", fh, lead + (M, N + 1), mesh, stacked).reshape(B, M, N + 1)
    # |rhs| at the ends, per column and step
    edge = np.zeros((B, M)) if fh is None else np.abs(fh[..., ::N]).max(axis=-1)
    edge[:, 0] = np.abs(u1h[:, ::N] + (0.0 if fh is None else 0.5 * tau * fh[:, 0, ::N])
                        ).max(axis=-1)
    (d, e), c = _implicit_factor(mesh), mesh.sigma * tau ** 2 * a2
    ring = np.empty((B, RING_LEVELS, N + 1))
    ring[:, 1], ring[:, 2:, ::N] = v0, v0[:, None, ::N] + 0.0  # the ends that stay
    # one block's solutions, each row's transpose the F-contiguous (N-1, B)
    # operand of dpttrs, and its rhs rows; lam, the zero-ended copy of the
    # solutions that the residual check reads, and then the solution rows, as
    # its scratch with t, whose first row the steps use
    lams = np.zeros((_RESIDUAL_BLOCK, B, N + 1))
    sols, rhss, t = np.empty((3, _RESIDUAL_BLOCK, B, N - 1))

    def check_block(first: int, n: int) -> None:
        """The residuals of the steps to levels first+1..first+n, from the
        block's first n rows, with the operator calls' operations row by row;
        the first above RESIDUAL_RTOL * max(1, |rhs|_inf, edge) is refused."""
        lams[:n, :, 1:-1] = sols[:n]
        lhs = _three_point(sols[:n], lams[:n], 4.0, 6.0)  # (mass - c laplacian) lam - rhs
        lhs -= np.multiply(_three_point(t[:n], lams[:n], -2.0, h2), c, out=t[:n])
        lhs -= rhss[:n]
        res = np.abs(lhs, out=lhs).max(axis=-1)  # (step, column)
        residuals[:, first:first + n] = res.T
        for i, b in zip(*np.nonzero(~(res <= RESIDUAL_RTOL))):  # the scale is >= 1; NaN fails
            scale = max(1.0, np.abs(rhss[i, b]).max(), edge[b, first + i])
            if not res[i, b] <= RESIDUAL_RTOL * scale:
                raise InvariantError(
                    f"defining-equation residual {res[i, b]:.3e} of the step to level "
                    f"{first + i + 1}{f' in column {b}' if stacked else ''} on the "
                    f"N={N}, M={M} mesh exceeds {RESIDUAL_RTOL:.0e} * {scale:.3e}")

    def steps():
        for m in range(M):
            row = m % _RESIDUAL_BLOCK
            v, nxt, sol, rhs = ring[:, row + 1], ring[:, row + 2, 1:-1], sols[row], rhss[row]
            _three_point(rhs, v, -2.0, h2)  # the recurrences' rhs, in the operator calls' order
            rhs *= a2 if m else 0.5 * tau * a2
            if m == 0:
                rhs += u1h[:, 1:-1]
            if fh is not None:
                rhs += fh[:, m, 1:-1] if m else np.multiply(fh[:, 0, 1:-1], 0.5 * tau, out=t[0])
            sol[:] = rhs  # solved in place; a failed dpttrs leaves rhs, which the residual refuses
            dpttrs(d, e, sol.T, overwrite_b=1)
            # v^1 = tau lam + v^0, and v^{m+1} = tau^2 lam + 2 v^m - v^{m-1}
            np.multiply(sol, tau ** 2 if m else tau, out=nxt)
            nxt += np.multiply(v[:, 1:-1], 2.0, out=t[0]) if m else v[:, 1:-1]
            if m:
                nxt -= ring[:, row, 1:-1]
            if row == _RESIDUAL_BLOCK - 1 or m == M - 1:
                check_block(m - row, row + 1)
                yield m - row, ring[:, 1:row + 3]
                ring[:, :2] = ring[:, row + 1:row + 3]  # the next block's first two rows

    return steps()


def evolve_grid(mesh: MeshSpec, v0, u1h, fh=None) -> SchemeRun:
    """Run the integrator from grid data (v0, u1h, fh) and store every slice.

    v0, u1h (N+1,) and fh (M, N+1), the forcing levels 0..M-1, make one run.
    Stacks v0, u1h (B, N+1) and fh (B, M, N+1) make B runs, the columns,
    stepped together: slices is then (B, M+1, N+1) and residual_max (B, M),
    and each column equals its own run bit for bit.  The data are checked
    once, on entry, for shape, finiteness and zero ends (every slice keeps
    those of v0); a failure names the datum and, in a stack, the column.  Each
    step makes one LAPACK dpttrs call on the cached LDL^T factor of A for all
    columns.  The residuals are checked per block of _RESIDUAL_BLOCK steps,
    after the block's last step, against RESIDUAL_RTOL * max(1, |rhs|_inf) of
    each column: residual_max[..., m-1] is that of the step producing v^m, and
    a failure is an InvariantError naming the first failing level of the block
    (and, in a stack, the column), raised before any later block is stepped.
    """
    stacked = np.ndim(v0) == 2
    residuals = np.empty((len(v0) if stacked else 1, mesh.M))
    blocks = _march(mesh, v0, u1h, fh, stacked, residuals)  # the checks come first
    slices = np.empty((len(residuals), mesh.M + 1, mesh.N + 1))
    for first, levels in blocks:
        slices[:, first:first + levels.shape[1]] = levels
    return SchemeRun(slices, residuals) if stacked else SchemeRun(slices[0], residuals[0])


def evolve_measured(mesh: MeshSpec, v0, u1h, fh, reference,
                    mode: str = "node_sampled") -> tuple[ErrorReport, np.ndarray]:
    """measure_error's report and evolve_grid's residual_max of one data set,
    stepped and measured block by block, with every check of both; a block is
    measured only after its residual check passes."""
    residuals = np.empty((1, mesh.M))
    blocks = _march(mesh, v0, u1h, fh, False, residuals)
    return _measure(mesh, ((first, v[0]) for first, v in blocks), reference, mode), residuals[0]


def evolve(mesh: MeshSpec, data: data_mod.DataSpec, variant: str = "v2") -> SchemeRun:
    """Assemble the grid data of the descriptors and run evolve_grid on it."""
    return evolve_grid(mesh, *prepare_inputs(mesh, data, variant))


def measure_error(mesh: MeshSpec, slices, reference,
                  mode: str = "node_sampled") -> ErrorReport:
    """Error norms of a stored (M+1, N+1) trajectory against a reference."""
    slices = np.asarray(slices, dtype=float)
    if slices.shape != (mesh.M + 1, mesh.N + 1):
        raise ContractViolation(
            f"slices must have shape {(mesh.M + 1, mesh.N + 1)}, got {slices.shape}")
    return _measure(mesh, ((s, slices[s:min(s + _RESIDUAL_BLOCK, mesh.M) + 1])
                           for s in range(0, mesh.M, _RESIDUAL_BLOCK)), reference, mode)


def _measure(mesh: MeshSpec, blocks, reference, mode: str) -> ErrorReport:
    """The error norms of the levels that blocks yields as (first, v), v the
    levels first..first+n of a block (n <= _RESIDUAL_BLOCK; consecutive blocks
    share a level, so the two-level norms see every pair), against a reference
    serving values(levels), and qh_values(levels) in q2h_filtered mode;
    node_sampled mode refuses an unstable mesh, as energy_norm_pair does."""
    if mode not in ERROR_MODES:
        raise ContractViolation(f"unknown error mode {mode!r}; expected one of {ERROR_MODES}")
    if mode == "node_sampled":
        check_stable(mesh)
    h = mesh.h
    energy = np.empty(mesh.M)  # energy[m-1] belongs to the pair (v^{m-1}, v^m)
    dx, l1, l1_dx = np.empty((3, mesh.M + 1))
    err_buf = np.empty((_RESIDUAL_BLOCK + 1, mesh.N + 1))
    diff_buf = np.empty((_RESIDUAL_BLOCK + 1, mesh.N))
    for start, v in blocks:
        # data too large to measure is refused below; the stepping is outside
        with np.errstate(over="ignore", invalid="ignore"):
            stop = start + len(v) - 1
            levels, rows = slice(start, stop + 1), stop + 1 - start
            err = np.subtract(reference.values(levels), v, out=err_buf[:rows])
            err[:, 0] = err[:, -1] = 0.0
            d = _backward_diff(err, h, out=diff_buf[:rows])
            l1[levels] = space_norm(err, "l1", mesh)
            l1_dx[levels] = np.sum(np.abs(d), axis=-1) * h
            dx[levels] = np.sqrt(_sq_sum(d, h))
            if mode == "q2h_filtered":  # the filtered errors overwrite the read errors
                filt = np.subtract(data_mod.q2h_from_qh(reference.qh_values(levels), mesh),
                                   v, out=err)
                filt[:, 0] = filt[:, -1] = 0.0
                energy[start:stop] = (space_norm(np.diff(filt, axis=0) / mesh.tau, "l2", mesh)
                                      + dx[start + 1:stop + 1])
            else:
                energy[start:stop] = _energy_from_differences(err[:-1], err[1:], d[:-1], d[1:],
                                                              mesh)
    with np.errstate(over="ignore", invalid="ignore"):
        norms = (float(np.max(energy)), float(np.max(dx)),
                 time_aggregate(l1, mesh), time_aggregate(l1_dx, mesh))
    if not np.all(np.isfinite(norms)):
        raise ConfigurationError(
            f"the error norms on the N={mesh.N}, M={mesh.M} mesh are not finite: "
            "the data are too large to measure")
    return ErrorReport(*norms, mode=mode)
