"""The exact reference solution on a fixed mesh.

A reference object serves two views of the exact solution u: raw node values
u(x_i, t_m) through values(levels) and (q_2h u(., t_m))_i through
q2h_values(levels), the latter feeding the q2h_filtered error norms.  levels
is a time level or a slice of levels, as in numpy indexing.

dalembert_reference is the one exact reference.  For the initial data it
evaluates d'Alembert's formula

    u(x, t) = [U0(x + at) + U0(x - at)] / 2 + [V1(x + at) - V1(x - at)] / (2a)
            = E(x + at) + F(x - at),   E, F = (U0 +- V1 / a) / 2,

with U0 the odd 2X-periodic extension of u0 and V1 the even periodic
antiderivative of the odd extension of u1.  data.extension_sampler evaluates
U0 and V1 and their hat averages; q_2h, the filter (-1, 14, -1) / 12 of hat
averages at y - h, y, y + h (grid._three_point's (-14, -12) case), is linear
and commutes with shifts, so the q_2h view is the same formula on filtered E, F.
A forcing sum_k c_k sqrt(2/X) sin(pi k x / X) sin(omega t) adds, by Duhamel's
principle, the modes

    u_k(x, t) = c_k sqrt(2/X) / w_k int_0^t sin(omega s) sin(w_k (t - s)) ds
                * sin(pi k x / X),   w_k = a pi k / X,

each times its hat-average and filter eigenfactors in the q_2h view.
reference_refusal is the rule for which data this covers: any initial data,
and forcing whose space factor is a sine series and whose time factor is
harmonic_sin off resonance.

One Reference class serves every mesh through one function, which gives the
pair E(x_i + a t_m), F(x_i - a t_m) for just the view and the levels asked
for; no (M+1, N+1) array is held.  When a tau / h = p / q is rational with
q <= M, as with aT = X (p/q = N/M) or M = 2N and T = 0.8 X/a (2/5), every
x_i +- a t_m = (q i +- p m) h/q lies on the lattice of spacing h/q: E and F
are evaluated once on one period of it, L = 2Nq points in one call (filtered
once), and kept as one flat array of qN + pM + 1 values each, served as the
read-only (M+1, N+1) strided views E[qi + pm] and F[qi - pm + pM].  A
lattice is taken only where it is small, qN + pM + q <= 32 N + 2 M
(_lattice).  Other meshes evaluate the levels served, one call per level for
its rows x_i + a t_m and x_i - a t_m; the build evaluates level 0, which
holds every value of U0 and V1 on (0, X), and every level refuses non-finite
node values or averages alike, naming the datum (a filter beyond ~1e307 may
overflow: the measurer refuses data that large).
The samplers hold O(points) floats per call whatever the data, so the
build's memory count, build_bytes, depends on the mesh and the number of
forced modes alone.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .data import DataSpec, Forcing, SamplePoints, extension_sampler, hat_average_factor
from .errors import ConfigurationError
from .grid import MeshSpec, _three_point
from .oracle import _duhamel, resonant


class Reference:
    """The exact reference, both views: view v (0 node values, 1 q_2h-filtered
    values) at levels m is, with zero ends, e + f of the pair (e, f) = serve(v, m)
    of E and F at the levels' rows, added to coeffs(m) @ shapes[v] of the forced
    modes if forced is not None.  Each call builds just the view and the levels
    asked for, into out if given, shaped as e."""

    def __init__(self, serve, forced=None):
        self._serve, self._forced = serve, forced

    def _view(self, view: int, levels, out) -> np.ndarray:
        e, f = self._serve(view, levels)
        if out is None:
            out = np.empty(e.shape)
        if self._forced is None:
            np.add(e, f, out=out)
        else:  # (coeffs @ shapes + e) + f
            coeffs, shapes = self._forced
            np.matmul(coeffs(levels), shapes[view], out=out)
            np.add(np.add(out, e, out=out), f, out=out)
        out[..., ::out.shape[-1] - 1] = 0.0
        return out

    def values(self, levels, out=None) -> np.ndarray:
        return self._view(0, levels, out)

    def q2h_values(self, levels, out=None) -> np.ndarray:
        return self._view(1, levels, out)


def reference_refusal(mesh: MeshSpec, data: DataSpec) -> str | None:
    """Why dalembert_reference cannot solve data exactly on mesh, or None if
    it can: a forcing needs a sine_series space factor and a harmonic_sin
    time factor whose omega drives no mode k with c_k != 0 at resonance,
    |omega| = a pi k / X."""
    f = data.f
    if f is None:
        return None
    for factor, form, needed in (("space", f.space.form, "sine_series"),
                                 ("time", f.time.form, "harmonic_sin")):
        if form != needed:
            return (f"no exact reference for forced data with a {form} {factor} factor; "
                    "the forcing needs a sine_series space factor and a harmonic_sin "
                    "time factor")
    hits = [k for k in f.space.modes if resonant(f.time.omega, mesh.a * (math.pi * k / mesh.X))]
    if hits:
        return (f"no exact reference for forced data resonant with mode k = {hits[0]}: "
                f"the time factor's omega {f.time.omega!r} equals a pi k / X")
    return None


def _forced_modes(mesh: MeshSpec, f: Forcing):
    """(coeffs, shapes) of the Duhamel modes of f: coeffs(levels)[..., j] is mode
    j's time coefficient at the levels, per call, oracle.forced_mode_response's
    formula without its resonance check (reference_refusal made it), shapes[view, j]
    its node values (view 0) and q_2h values (view 1: times its hat average's
    eigenfactor and the filter's, (14 - 2 cos(pi k h / X)) / 12); Reference
    zeroes their ends."""
    wave = math.pi * np.array(f.space.modes, dtype=float) / mesh.X
    kappa, omega = mesh.a * wave, f.time.omega
    scale = np.array(f.space.coeffs) * math.sqrt(2.0 / mesh.X) / kappa

    def coeffs(levels):
        r = range(mesh.M + 1)[levels]  # their times: level integers * tau
        t = np.multiply(np.arange(r.start, r.stop, r.step) if isinstance(r, range) else r,
                        mesh.tau)[..., None]
        return scale * _duhamel(omega, kappa, t)
    shapes = np.empty((2, len(wave), mesh.N + 1))
    shapes[0] = np.sin(np.outer(wave, mesh.nodes()))
    shapes[1] = shapes[0] * (hat_average_factor(wave * mesh.h)
                             * (14.0 - 2.0 * np.cos(wave * mesh.h)) / 12.0)[:, None]
    return coeffs, shapes


def reference_bytes(mesh: MeshSpec, modes: int) -> int:
    """Bytes of the arrays dalembert_reference keeps on mesh for data forced by
    K = modes sine modes: on a lattice, E and F of both views, qN + pM + 1
    floats each, and 2K (N + 2) floats of the modes."""
    p, q = _lattice(mesh) or (0, 0)
    flats = 4 * (q * mesh.N + p * mesh.M + 1) if q else 0
    return 8 * (flats + 2 * modes * (mesh.N + 2))


def build_bytes(mesh: MeshSpec, modes: int) -> int:
    """Bytes dalembert_reference holds at once while it builds on mesh for data
    forced by K = modes sine modes: what it keeps (reference_bytes), the M + 1
    times of the levels, the 2K (N + 1) temporaries of the forced modes' shapes,
    and 20 floats per point of its largest halves call, q rows of 2N points on
    a lattice or 2 rows of N + 1 per level: the (2, rows, count) output, E + F,
    the filter's padded copies and the samplers' own, which hold O(points)
    whatever the data."""
    lattice = _lattice(mesh)
    rows, count = (lattice[1], 2 * mesh.N) if lattice else (2, mesh.N + 1)
    return reference_bytes(mesh, modes) + 8 * (
        20 * rows * count + 2 * modes * (mesh.N + 1) + mesh.M + 1)


# a lattice's E and F of both views, 4 (qN + pM + 1) floats, are kept only up to 4
# (32 N + 2 M): about a measured run's buffers, 117 N + 6 M floats (scheme.level_bytes)
_LATTICE_FLOATS_PER_NODE, _LATTICE_FLOATS_PER_LEVEL = 32, 2


def _lattice(mesh: MeshSpec):
    """(p, q) with a tau / h = p / q to 1e-12 and q <= M, if E and F of both
    views on the lattice hold at most 4 (32 N + 2 M) floats; else None, and
    the reference is served level by level, in O(N)."""
    ratio = mesh.a * mesh.tau / mesh.h
    frac = Fraction(ratio).limit_denominator(mesh.M)
    if abs(frac - ratio) > 1e-12 * ratio:
        return None
    p, q = frac.numerator, frac.denominator
    if (q * mesh.N + p * mesh.M + q
            > _LATTICE_FLOATS_PER_NODE * mesh.N + _LATTICE_FLOATS_PER_LEVEL * mesh.M):
        return None
    return p, q


# finite data may overflow in the forced modes: refuse names the datum
@np.errstate(over="ignore", invalid="ignore")
def dalembert_reference(mesh: MeshSpec, data: DataSpec):
    """The exact reference of data, both views; data that reference_refusal
    refuses is a ConfigurationError with its reason, and so is an exact
    solution that is not finite, built or served, naming the datum and mesh."""
    refusal = reference_refusal(mesh, data)
    if refusal is not None:
        raise ConfigurationError(refusal)
    n, m, h = mesh.N, mesh.M, mesh.h

    def refuse(name):
        raise ConfigurationError(
            f"the exact solution of {name} is not finite on the N={n}, M={m} mesh")

    try:
        v1 = extension_sampler(data.u1, True, h)
    except ConfigurationError:  # Profile refuses a piece of V1 that overflows
        refuse("u1")
    data_terms = (("u0", extension_sampler(data.u0, False, h), 0.5), ("u1", v1, 0.5 / mesh.a))
    forced = None
    if data.f is not None:
        forced = _forced_modes(mesh, data.f)
        if not all(np.isfinite(forced[0](slice(s, s + 64))).all() for s in range(0, m + 1, 64)):
            refuse("f")  # every level, 64 at a time: no (M+1, K) array

    @np.errstate(over="ignore", invalid="ignore")  # it serves after the build too
    def halves(view, starts, count):
        """E and F, U0/2 +- V1/(2a), at starts + j h, one row per start, as one
        (2, len(starts), count) array; view 1 the q_2h filter of their hat
        averages, each row read as periodic (Reference zeroes a level's ends).
        The samplers share the points and, for piecewise data, their reduction."""
        out, points = np.empty((2, len(starts), count)), SamplePoints(starts, count, h)
        for d, (name, sampler, scale) in enumerate(data_terms):
            np.multiply(sampler[view](points), scale, out=out[d])
            if not np.all(np.isfinite(out[d])):
                refuse(name)
        e = out[0] + out[1]
        np.subtract(out[0], out[1], out=out[1])
        out[0] = e
        del e  # before the filter's padded copy
        return _three_point(out, np.take(out, range(-1, count + 1), axis=2, mode="wrap"),
                            -14.0, -12.0) if view else out

    lattice = _lattice(mesh)
    if lattice is not None:
        p, q = lattice
        entries, size = np.arange(q * n + p * m + 1), np.dtype(float).itemsize
        flats = []
        for view in (0, 1):  # entry q j + c of a period holds y = (q j + c) h/q
            e, f = halves(view, np.arange(q) * h / q, 2 * n).transpose(0, 2, 1).reshape(2, -1)
            # E from y = 0 and F from y = -pM h/q: level m, node i reads entry
            # q i + p m of E and q i - p m + pM of F
            e, f = e.take(entries, mode="wrap"), f.take(entries - p * m, mode="wrap")
            flats.append((as_strided(e, (m + 1, n + 1), (p * size, q * size), writeable=False),
                          as_strided(f[p * m:], (m + 1, n + 1), (-p * size, q * size),
                                     writeable=False)))

        def serve(view, levels):
            e, f = flats[view]
            return e[levels], f[levels]
        return Reference(serve, forced)

    def serve(view, levels):
        """E at x_i + a t_m and F at x_i - a t_m, m in levels, for the view."""
        at = mesh.a * mesh.times()[levels]
        e, f = np.empty((2,) + np.shape(at) + (n + 1,))
        for j, s in np.ndenumerate(at):  # E of the row at s, F of the row at -s
            (e[j], _), (_, f[j]) = halves(view, np.array([s, -s]), n + 1)
        return e, f
    serve(0, 0), serve(1, 0)  # level 0 holds every value of U0 and V1 on (0, X)
    return Reference(serve, forced)
