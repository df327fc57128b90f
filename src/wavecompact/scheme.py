"""The three-level compact time integrator and its error measurement.

With A = mass - sigma tau^2 a^2 laplacian, the main recurrence advances

    A (v^{m+1} - 2 v^m + v^{m-1}) / tau^2 = a^2 laplacian v^m + f_h^m,

and the first level comes from the two-level implicit initial condition

    A (v^1 - v^0) / tau = (tau/2) a^2 laplacian v^0 + u1h + (tau/2) f_h^0,

which involves no derivatives of the data and is what keeps the scheme
applicable to rough initial velocities.  v^0 is the node samples of u0:
u0 has order lambda >= 1, so it is continuous and its samples are defined,
while u1, of order lambda - 1 >= 0, enters only through hat averages.

One stepping loop, _march, steps every run.  It checks the shapes, finiteness
and zero ends of (v0, u1h, fh) once, on entry; each step calls LAPACK dpttrs
(from operators) on the cached LDL^T factor of the tridiagonal A and computes
grid._three_point's stencil, keeping its -2 v, in buffers allocated once per run; the
residual check applies A as the stencil grid._tridiagonal of the factor's
entries, zero ends implied.  fh, the data.ForcingLevels factors, is multiplied
out one block of steps at a time.  The levels live in a ring of RING_LEVELS
rows per column, and the defining-equation residual of every step and column
is checked per block of _RESIDUAL_BLOCK consecutive steps, in one vectorized
pass after the block's last step (and after the run's last step); only then
are the block's levels handed on, so a failing step surfaces after at most
_RESIDUAL_BLOCK - 1 further steps.  evolve_grid stores the blocks as a
trajectory; the scheme is linear, so B data sets can be stepped as the columns
of one run, each step making one dpttrs call with B right-hand sides, whose
cost per column is flat; stack_inputs, the one builder of such stacks,
assembles them from descriptors, each datum of every column in one data-layer
call.  evolve_measured measures each block as it is stepped and stores none:
O(N) levels, whatever M is.

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
and their backward space differences, in buffers allocated once per call,
computed once and read by every norm of the block, each sum of squares one
row dot product (grid._sq_sum), each L1 norm h sum |e| (np.add.reduce, the
bits of np.sum).  The dx norms' row sums of squares feed the energy norm
(grid._energy_from_differences, the formula energy_norm_pair evaluates),
which forms only dt e and D dt e: per block of n levels and N + 1 columns,
node_sampled mode makes 15 passes over n (N + 1) values (serving e, e - v,
the difference and its 1/h, the dx sums, two passes for each L1 norm and six
for the energy), where forming D st e made 18.  The reference serves its
views into err_buf, the q_2h view (filtered by the reference) once the node
errors are read: the filtered error is one subtraction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import data as data_mod
from .errors import ConfigurationError, ContractViolation, InvariantError
from .grid import (GridFn, MeshSpec, _backward_diff, _energy_from_differences, _sq_sum,
                   _tridiagonal, check_stable, require_dirichlet, time_aggregate)
from .operators import _implicit_entries, _implicit_factor, dpttrs

ERROR_MODES = ("node_sampled", "q2h_filtered")

#: defining-equation residual contract, relative to max(1, |rhs|_inf, |rhs| at the ends)
RESIDUAL_RTOL = 1e-11

#: largest grid-data magnitude stack_inputs accepts: the norms square it
_DATA_BOUND = float(np.sqrt(np.finfo(float).max))

#: steps per residual check and level pairs per measured block; 17 rows of
#: N = 2048 stay in L2, and consecutive blocks share a level
_RESIDUAL_BLOCK = 16

#: levels per column that the stepping loop holds
RING_LEVELS = _RESIDUAL_BLOCK + 2


def level_bytes(mesh: MeshSpec, forced: bool) -> int:
    """Bytes of the buffers a measured run allocates once: _march's ring, sols,
    rhss and t, and for forcing factors a block of rows and the factors;
    _measure's err_buf, diff_buf and energy_buf; and the series residuals,
    edge, energy, dx, l1 and l1_dx."""
    N, M, block = mesh.N, mesh.M, _RESIDUAL_BLOCK
    rows = RING_LEVELS + 3 * (block + 1) + forced * block  # ring, _measure's, forcing
    return 8 * (rows * (N + 1) + 3 * block * (N - 1) + 3 * M + 3 * (M + 1)
                + forced * (M + N + 1))


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


def prepare_inputs(mesh: MeshSpec, data: data_mod.DataSpec, variant: str):
    """Assemble (v0, u1h, fh) grid data from the descriptors, u1h of the given
    u1 variant and fh the data.ForcingLevels factors, or None unforced: the
    stack of one column of stack_inputs, with its checks."""
    v0, u1h, fh = stack_inputs(mesh, [(data, variant)])
    return v0[0], u1h[0], None if fh is None else data_mod.ForcingLevels(fh.time[0], fh.space[0])


def stack_inputs(mesh: MeshSpec, columns):
    """evolve_grid's stack (v0, u1h, fh) of the (data, variant) columns: v0 and
    u1h (B, N+1), and fh the ForcingLevels of (B, M) and (B, N+1) factors, zero
    for an unforced column, or None when no column is forced.  Each datum is
    assembled for all columns by one data-layer call, and each row has the
    bits of its column assembled alone.

    This is where grid data enters the scheme: a datum whose grid data is not
    finite (its averages overflow, say) or beyond _DATA_BOUND in magnitude is
    a ConfigurationError naming it and the mesh (for fh, max|time| * max|space|).
    """
    if not columns:
        raise ContractViolation("a stack of grid data needs at least one column")
    datas = [data for data, _ in columns]
    forced = [b for b, data in enumerate(datas) if data.f is not None]

    def v0():
        samples = data_mod.sample_nodes([data.u0 for data in datas], mesh)
        samples[:, 0] = samples[:, -1] = 0.0
        return samples

    def fh():
        levels = data_mod.build_fh([datas[b].f for b in forced], mesh)
        factors = data_mod.ForcingLevels(np.zeros((len(datas), mesh.M)),
                                         np.zeros((len(datas), mesh.N + 1)))
        factors.time[forced], factors.space[forced] = levels.time, levels.space
        return factors

    def checked(name, build):
        with np.errstate(over="ignore", invalid="ignore"):
            values = build()
            peak = (np.abs(values.time).max(axis=1) * np.abs(values.space).max(axis=1)
                    if isinstance(values, data_mod.ForcingLevels)
                    else np.abs(values).max(axis=1))
        if not np.all(peak <= _DATA_BOUND):  # NaN fails too
            raise ConfigurationError(f"the grid data of {name} are not finite or exceed "
                                     f"{_DATA_BOUND:.1e} in magnitude on the N={mesh.N}, "
                                     f"M={mesh.M} mesh")
        return values

    def u1h():
        out = np.empty((len(datas), mesh.N + 1))
        for variant in dict.fromkeys(v for _, v in columns):  # one call per variant
            rows = [b for b, (_, v) in enumerate(columns) if v == variant]
            out[rows] = data_mod.build_u1h(variant, [datas[b].u1 for b in rows], mesh)
        return out

    return checked("u0", v0), checked("u1", u1h), checked("f", fh) if forced else None


def _entry_datum(name: str, w, shape, mesh: MeshSpec, stacked: bool, dirichlet=True) -> GridFn:
    """w as float data of the given shape, finite and, if dirichlet, vanishing
    at both ends; in a stack each column is checked, and a failure names it."""
    w = np.asarray(w, dtype=float)
    if w.shape != shape:
        raise ContractViolation(f"{name} must have shape {shape}, got {w.shape}")
    with np.errstate(over="ignore", invalid="ignore"):  # the whole stack in one pass;
        if np.isfinite(w.sum()) and not (dirichlet and w[..., ::mesh.N].any()):
            return w  # a failure, or a sum that overflows, walks the columns
    for b, col in enumerate(w) if stacked else ((None, w),):
        what = name if b is None else f"{name} column {b}"
        if not -np.inf < col.min() <= col.max() < np.inf:  # reads only; NaN fails too
            raise ConfigurationError(f"{what} has values that are not finite")
        if dirichlet:
            require_dirichlet(col, mesh, what)
    return w


def _entry_data(mesh: MeshSpec, v0, u1h, fh, stacked: bool, dirichlet=True):
    """(v0, u1h, fh) of B columns (B = 1 unless stacked), v0 and u1h (B, N+1) and fh None
    or ForcingLevels of (B, M, 1) and (B, 1, N+1) factors, with every check of _march's
    entry; the ends are checked only if dirichlet."""
    check_stable(mesh)
    N, M, B = mesh.N, mesh.M, len(v0) if stacked else 1
    if B < 1:
        raise ContractViolation("a stack of grid data needs at least one column")
    lead = (B,) if stacked else ()
    v0, u1h = (_entry_datum(name, w, lead + (N + 1,), mesh, stacked, dirichlet).reshape(B, N + 1)
               for name, w in (("v0", v0), ("u1h", u1h)))
    if fh is None:
        return v0, u1h, None
    if not isinstance(fh, data_mod.ForcingLevels):
        raise ContractViolation("fh must be None or data.ForcingLevels(time, space), got "
                                f"{type(fh).__name__}")
    time = _entry_datum("fh time factor", fh.time, lead + (M,), mesh, stacked, False)
    space = _entry_datum("fh space factor", fh.space, lead + (N + 1,), mesh, stacked, dirichlet)
    time, space = time.reshape(B, M, 1), space.reshape(B, 1, N + 1)
    with np.errstate(over="ignore"):  # the largest |level|: rounding is monotone
        peak = np.abs(time).max(axis=(1, 2)) * np.abs(space).max(axis=(1, 2))
    _entry_datum("fh", peak.reshape(lead), lead, mesh, stacked, False)  # finite levels
    return v0, u1h, data_mod.ForcingLevels(time, space)


def _march(mesh: MeshSpec, v0, u1h, fh, stacked: bool, residuals: np.ndarray):
    """Check the mesh and the data (B columns, or B = 1 unless stacked), then
    return the stepping loop, a generator.  Its ring holds v^{first-1}, v^first
    and a block's new levels; after the residual check of a block of n steps,
    which writes their residuals into residuals (B, M), each within RESIDUAL_RTOL
    * max(1, |rhs|_inf, edge = |rhs| at the ends), it yields (first, levels),
    levels the (B, n+1, N+1) ring view of v^first..v^{first+n}."""
    v0, u1h, fh = _entry_data(mesh, v0, u1h, fh, stacked)
    N, M, B, tau, a2, h2 = mesh.N, mesh.M, len(v0), mesh.tau, mesh.a ** 2, mesh.h ** 2
    if fh is not None:  # the levels are time * space
        time, space = fh.time, fh.space
        ends, buf = time * space[..., ::N], np.empty((B, _RESIDUAL_BLOCK, N + 1))
    # |rhs| at the ends, per column and step
    edge = np.zeros((B, M)) if fh is None else np.abs(ends).max(axis=-1)
    edge[:, 0] = np.abs(u1h[:, ::N] + (0.0 if fh is None else 0.5 * tau * ends[:, 0])
                        ).max(axis=-1)
    (d, e), (diag, off) = _implicit_factor(mesh), _implicit_entries(mesh)
    ring = np.empty((B, RING_LEVELS, N + 1))
    ring[:, 1], ring[:, 2:, ::N] = v0, v0[:, None, ::N] + 0.0  # the ends that stay
    # one block's solutions, each row's transpose the F-contiguous (N-1, B)
    # operand of dpttrs, and its rhs rows; each step keeps -2 v in its row of t,
    # where the residual check applies A to the solutions, zero ends implied
    sols, rhss, t = np.empty((3, _RESIDUAL_BLOCK, B, N - 1))
    # per ring row, once: v's three stencil views, next and previous interiors, sol, sol.T, rhs, t
    views = [(ring[:, r + 1, :-2], ring[:, r + 1, 1:-1], ring[:, r + 1, 2:], ring[:, r + 2, 1:-1],
              ring[:, r, 1:-1], sols[r], sols[r].T, rhss[r], t[r]) for r in range(_RESIDUAL_BLOCK)]

    def check_block(first: int, n: int) -> None:
        """The residuals of the steps to levels first+1..first+n, from the
        block's first n rows, with the operator calls' operations row by row;
        the first, row-major, above RESIDUAL_RTOL * max(1, |rhs|_inf, edge) is refused."""
        lhs = _tridiagonal(t[:n], sols[:n], diag, off, scratch=sols[:n])  # A sol - rhs
        lhs -= rhss[:n]
        res = np.abs(lhs, out=lhs).max(axis=-1)  # (step, column)
        residuals[:, first:first + n] = res.T
        if not res.max() <= RESIDUAL_RTOL:  # scales >= 1; NaN fails; fmax drops NaN as max does
            scale = np.fmax(np.fmax(1.0, np.abs(rhss[:n], out=t[:n]).max(axis=-1)),
                            edge[:, first:first + n].T)
            for i, b in np.argwhere(~(res <= RESIDUAL_RTOL * scale))[:1]:  # the first
                raise InvariantError(
                    f"defining-equation residual {res[i, b]:.3e} of the step to level "
                    f"{first + i + 1}{f' in column {b}' if stacked else ''} on the "
                    f"N={N}, M={M} mesh exceeds {RESIDUAL_RTOL:.0e} * {scale[i, b]:.3e}")

    def steps():
        for m in range(M):
            row = m % _RESIDUAL_BLOCK
            if fh is not None and row == 0:  # the block's forcing levels
                f = np.multiply(time[:, m:m + _RESIDUAL_BLOCK], space, out=buf[:, :M - m])
            left, inner, right, nxt, prev, sol, sol_t, rhs, minus2v = views[row]
            # the recurrences' rhs, with the bits of grid._three_point(rhs, v, -2.0, h2)
            np.add(left, np.multiply(inner, -2.0, out=minus2v), out=rhs)
            np.divide(np.add(rhs, right, out=rhs), h2, out=rhs)
            if m == 0 or a2 != 1.0:  # times 1.0 is the identity
                rhs *= a2 if m else 0.5 * tau * a2
            if m == 0:
                rhs += u1h[:, 1:-1]
            if fh is not None:
                rhs += f[:, row, 1:-1] if m else np.multiply(f[:, 0, 1:-1], 0.5 * tau, out=sol)
            np.copyto(sol, rhs)  # solved in place; the residual refuses a failed dpttrs's rhs
            dpttrs(d, e, sol_t, 1)
            # v^1 = tau lam + v^0, and v^{m+1} = tau^2 lam - (-2 v^m) - v^{m-1}, the
            # bits of tau^2 lam + 2 v^m - v^{m-1}
            np.multiply(sol, tau ** 2 if m else tau, out=nxt)
            if m:
                np.subtract(np.subtract(nxt, minus2v, out=nxt), prev, out=nxt)
            else:
                nxt += inner
            if row == _RESIDUAL_BLOCK - 1 or m == M - 1:
                check_block(m - row, row + 1)
                yield m - row, ring[:, 1:row + 3]
                ring[:, :2] = ring[:, row + 1:row + 3]  # the next block's first two rows

    return steps()


def evolve_grid(mesh: MeshSpec, v0, u1h, fh=None) -> SchemeRun:
    """Run the integrator from grid data (v0, u1h, fh) and store every slice.

    v0, u1h (N+1,) and fh, None or the data.ForcingLevels factors (M,), (N+1,)
    of the forcing levels 0..M-1 (any other fh is a ContractViolation), make one
    run.  Stacks v0, u1h (B, N+1) and factors (B, M), (B, N+1) make B runs, the
    columns, stepped together: slices is then (B, M+1, N+1) and residual_max
    (B, M), and each column equals its own run bit for bit.  The data are checked
    once, on entry, for shape, finiteness and zero ends (every slice keeps
    those of v0); a failure names the datum and, in a stack, the column.  Each
    step makes one LAPACK dpttrs call on the cached LDL^T factor of A for all
    columns.  The residuals are checked per block of _RESIDUAL_BLOCK steps,
    after the block's last step, against RESIDUAL_RTOL * max(1, |rhs|_inf, |rhs|
    at the ends) of each column: residual_max[..., m-1] is that of the step
    producing v^m, and a failure is an InvariantError naming the first failing
    level of the block (and, in a stack, the column), raised before any later
    block is stepped.
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
    """measure_error's report and evolve_grid's residual_max of one data set, fh
    None or ForcingLevels factors, stepped and measured block by block with every
    check of both; a block is measured only after its residual check passes."""
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
    serving values(levels), and q2h_values(levels) in q2h_filtered mode, each
    block of at least two levels into err_buf; node_sampled mode refuses an
    unstable mesh, as energy_norm_pair does."""
    if mode not in ERROR_MODES:
        raise ContractViolation(f"unknown error mode {mode!r}; expected one of {ERROR_MODES}")
    if mode == "node_sampled":
        check_stable(mesh)
    h = mesh.h
    energy = np.empty(mesh.M)  # energy[m-1] belongs to the pair (v^{m-1}, v^m)
    dx, l1, l1_dx = np.empty((3, mesh.M + 1))
    # the errors, their differences and the energy's scratch, as wide as the levels
    err_buf, diff_buf, energy_buf = np.empty((3, _RESIDUAL_BLOCK + 1, mesh.N + 1))
    for start, v in blocks:
        # data too large to measure is refused below; the stepping is outside
        with np.errstate(over="ignore", invalid="ignore"):
            stop = start + len(v) - 1
            levels, rows = slice(start, stop + 1), stop + 1 - start
            err = reference.values(levels, out=err_buf[:rows])
            np.subtract(err, v, out=err)
            err[:, 0] = err[:, -1] = 0.0
            d = _backward_diff(err, h, out=diff_buf[:rows])
            d_sq = _sq_sum(d[:, :-1], h)
            dx[levels] = np.sqrt(d_sq)
            if mode == "node_sampled":
                energy[start:stop] = _energy_from_differences(
                    err[:-1], err[1:], d[:-1], d[1:], mesh, energy_buf[:rows - 1],
                    sq=(d_sq[:-1], d_sq[1:]))
            # |e| and |De| in place, after their last reader; the ends of e are
            # zero, so the trapezoid's end weights vanish
            l1[levels] = np.add.reduce(np.abs(err, out=err), axis=-1) * h
            l1_dx[levels] = np.add.reduce(np.abs(d, out=d)[:, :-1], axis=-1) * h
            if mode == "q2h_filtered":  # q_2h u - v over the read errors
                err = np.subtract(reference.q2h_values(levels, out=err), v, out=err)
                dt = np.subtract(err[1:], err[:-1], out=diff_buf[:rows - 1])  # d is read
                dt = np.multiply(dt, 1.0 / mesh.tau, out=dt)
                energy[start:stop] = np.sqrt(_sq_sum(dt[:, 1:-1], h)) + dx[start + 1:stop + 1]
    with np.errstate(over="ignore", invalid="ignore"):
        norms = (float(np.max(energy)), float(np.max(dx)),
                 time_aggregate(l1, mesh), time_aggregate(l1_dx, mesh))
    if not np.all(np.isfinite(norms)):
        raise ConfigurationError(
            f"the error norms on the N={mesh.N}, M={mesh.M} mesh are not finite: "
            "the data are too large to measure")
    return ErrorReport(*norms, mode=mode)
