"""The exact reference solution on a fixed mesh.

A reference object serves two views of the exact solution u: raw node values
u(x_i, t_m) through values(levels) and hat-averaged values (q_h u(., t_m))_i
through qh_values(levels), the latter feeding the q_2h-filtered error norms.
levels is a time level or a slice of levels, as in numpy indexing.

dalembert_reference is the one exact reference.  For the initial data it
evaluates d'Alembert's formula

    u(x, t) = [U0(x + at) + U0(x - at)] / 2 + [V1(x + at) - V1(x - at)] / (2a)
            = E(x + at) + F(x - at),   E, F = (U0 +- V1 / a) / 2,

with U0 the odd 2X-periodic extension of u0 and V1 the even periodic
antiderivative of the odd extension of u1.  data.extension_sampler evaluates
U0 and V1 and their hat averages; the hat average of a shifted function is the
shifted hat average, so the q_h view is the same formula on those averages.
A forcing sum_k c_k sqrt(2/X) sin(pi k x / X) sin(omega t) adds, by Duhamel's
principle, the modes

    u_k(x, t) = c_k sqrt(2/X) / w_k int_0^t sin(omega s) sin(w_k (t - s)) ds
                * sin(pi k x / X),   w_k = a pi k / X,

each multiplied by its hat-average eigenfactor in the q_h view.
reference_refusal is the rule for which data this covers: any initial data,
and forcing whose space factor is a sine series and whose time factor is
harmonic_sin off resonance.

One Reference class serves every mesh; only its e and f are built differently.
When a tau / h = p / q is rational with q <= M, as with aT = X (p/q = N/M) or
M = 2N and T = 0.8 X/a (2/5), every x_i +- a t_m = (q i +- p m) h/q lies on
the lattice of spacing h/q.  E and F are evaluated once on one period of that
lattice, L = 2Nq points, and kept as arrays of qN + pM + 1 entries per view; e
and f are strided views of them, E[qi + pm] and F[qi - pm], so no (M+1, N+1)
array is held.  Other meshes evaluate x_i +- a t_m level by level, once at
build, into one (2, M+1, N+1) array e, with f a zero-stride view of 0.0.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .data import DataSpec, Forcing, extension_sampler, hat_average_factor
from .errors import ConfigurationError, QuadratureError
from .grid import MeshSpec
from .oracle import forced_mode_response, resonant


class Reference:
    """The exact reference, both views: view v (0 node values, 1 hat
    averages) at level m and node i is e[v, m, i] + f[v, m, i] plus, if
    forced is not None, coeffs[m] @ shapes[v] of the forced modes' (M+1, K)
    time coefficients and (2, K, N+1) shapes, with zero ends.  e and f are
    (2, M+1, N+1) arrays or views; each call builds just the view and the
    levels asked for."""

    def __init__(self, e: np.ndarray, f: np.ndarray, forced=None):
        self._e, self._f, self._forced = e, f, forced

    def _view(self, view: int, levels) -> np.ndarray:
        e, f = self._e[view, levels], self._f[view, levels]
        if self._forced is None:
            out = np.add(e, f)
        else:  # one array per call: a second one costs as much as the sum
            coeffs, shapes = self._forced
            out = coeffs[levels] @ shapes[view]
            out += e
            out += f
        out[..., ::e.shape[-1] - 1] = 0.0
        return out

    def values(self, levels) -> np.ndarray:
        return self._view(0, levels)

    def qh_values(self, levels) -> np.ndarray:
        return self._view(1, levels)


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
    ks = np.flatnonzero(f.space.coeffs) + 1
    hits = ks[resonant(f.time.omega, mesh.a * (math.pi * ks / mesh.X))]
    if hits.size:
        return (f"no exact reference for forced data resonant with mode k = {hits[0]}: "
                f"the time factor's omega {f.time.omega!r} equals a pi k / X")
    return None


def _forced_modes(mesh: MeshSpec, f: Forcing):
    """(coeffs, shapes) of the Duhamel modes of f: coeffs[m, j] is mode j's time
    coefficient at level m, shapes[view, j] its node values (view 0) and hat
    averages (view 1); Reference zeroes their ends."""
    ks = np.flatnonzero(f.space.coeffs)
    wave = math.pi * (ks + 1) / mesh.X
    amps = np.asarray(f.space.coeffs)[ks] * math.sqrt(2.0 / mesh.X)
    kappa = mesh.a * wave
    coeffs = amps / kappa * forced_mode_response(f.time.omega, kappa, mesh.times()[:, None])
    shapes = np.empty((2, len(ks), mesh.N + 1))
    shapes[0] = np.sin(np.outer(wave, mesh.nodes()))
    shapes[1] = shapes[0] * hat_average_factor(wave * mesh.h)[:, None]
    return coeffs, shapes


def _lattice(mesh: MeshSpec):
    """(p, q) with a tau / h = p / q to 1e-12 and q <= M, else None."""
    ratio = mesh.a * mesh.tau / mesh.h
    frac = Fraction(ratio).limit_denominator(mesh.M)
    if abs(frac - ratio) > 1e-12 * ratio:
        return None
    return frac.numerator, frac.denominator


# finite data may overflow in U0, V1, their hat averages or the forced modes:
# refuse names the datum
@np.errstate(over="ignore", invalid="ignore")
def dalembert_reference(mesh: MeshSpec, data: DataSpec):
    """The exact reference of data, both views; data that reference_refusal
    refuses is a ConfigurationError with its reason, and so is an exact
    solution that is not finite, naming the datum and the mesh."""
    refusal = reference_refusal(mesh, data)
    if refusal is not None:
        raise ConfigurationError(refusal)
    n, m, h = mesh.N, mesh.M, mesh.h

    def refuse(name):
        raise ConfigurationError(
            f"the exact solution of {name} is not finite on the N={n}, M={m} mesh")

    try:
        v1 = extension_sampler(data.u1, True)
    except ConfigurationError:  # Profile refuses a piece of V1 that overflows
        refuse("u1")
    data_terms = (("u0", extension_sampler(data.u0, False), 0.5), ("u1", v1, 0.5 / mesh.a))
    forced = None
    if data.f is not None:
        forced = _forced_modes(mesh, data.f)
        if not np.all(np.isfinite(forced[0])):
            refuse("f")

    def halves(start, count):
        """(view, datum, j): U0/2 and V1/(2a) at start + j h; view 1 hat-averaged."""
        out = np.empty((2, 2, count))
        for d, (name, (evaluate, average), scale) in enumerate(data_terms):
            try:
                out[:, d] = np.multiply((evaluate(start, count, h), average(start, count, h)),
                                        scale)
            except QuadratureError:
                out[:, d] = np.nan
            if not np.all(np.isfinite(out[:, d])):
                refuse(name)
        return out

    lattice = _lattice(mesh)
    if lattice is not None:
        p, q = lattice
        # entry q j + r of one period holds y = (q j + r) h/q
        period = np.stack([halves(r * h / q, 2 * n) for r in range(q)], axis=-1)
        u, v = period.reshape(2, 2, 2 * n * q).swapaxes(0, 1)
        e = np.take(u + v, np.arange(q * n + p * m + 1), axis=-1, mode="wrap")
        f = np.take(u - v, np.arange(-p * m, q * n + 1), axis=-1, mode="wrap")
        # view[:, m, i] = e[:, qi + pm] + f[:, pM + qi - pm]
        step, shape = e.strides[1], (2, m + 1, n + 1)
        return Reference(
            as_strided(e, shape, (e.strides[0], p * step, q * step), writeable=False),
            as_strided(f[:, p * m:], shape, (f.strides[0], -p * step, q * step), writeable=False),
            forced)
    views = np.empty((2, m + 1, n + 1))
    for level, shift in enumerate(mesh.a * mesh.times()):
        (u, v), (u_, v_) = (halves(s, n + 1).swapaxes(0, 1) for s in (shift, -shift))
        views[:, level] = (u + v) + (u_ - v_)
    return Reference(views, np.broadcast_to(0.0, views.shape), forced)
