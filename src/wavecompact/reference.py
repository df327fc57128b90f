"""Reference solutions on a fixed mesh.

A reference object serves two views of the exact solution u: raw node values
u(x_i, t_m) through values(levels) and hat-averaged values (q_h u(., t_m))_i
through qh_values(levels), the latter feeding the q_2h-filtered error norms.
levels is a time level or a slice of levels, as in numpy indexing; the
array-backed references return read-only views.

HarmonicReference is the closed form of a single-harmonic data family.
dalembert_reference is exact for any unforced data, by d'Alembert's formula

    u(x, t) = [U0(x + at) + U0(x - at)] / 2 + [V1(x + at) - V1(x - at)] / (2a)
            = E(x + at) + F(x - at),   E, F = (U0 +- V1 / a) / 2,

with U0 the odd 2X-periodic extension of u0 and V1 the even periodic
antiderivative of the odd extension of u1.  data.extension_sampler evaluates
U0 and V1 and their hat averages; the hat average of a shifted function is the
shifted hat average, so the q_h view is the same formula on those averages.
This module only composes the two.

When a tau / h = p / q is rational with q <= M, as with aT = X (p/q = N/M)
or M = 2N and T = 0.8 X/a (2/5), every x_i +- a t_m = (q i +- p m) h/q lies
on the lattice of spacing h/q.  E and F are evaluated once on one period of
that lattice, L = 2Nq points, and each view is one np.add of two strided
views of their periodic extensions, E[qi + pm] + F[qi - pm].  Other meshes
evaluate x_i +- a t_m level by level.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .data import DataSpec, extension_sampler, hat_average_factor
from .errors import ConfigurationError, ContractViolation, QuadratureError
from .grid import MeshSpec
from .oracle import HarmonicData, canonical_mesh, exact_time_coefficients


def _read_only(values: np.ndarray) -> np.ndarray:
    view = values.view()
    view.flags.writeable = False
    return view


class GridReference:
    """Reference backed by precomputed (M+1, N+1) arrays."""

    def __init__(self, mesh: MeshSpec, values: np.ndarray,
                 qh_values: np.ndarray | None = None):
        if values.shape != (mesh.M + 1, mesh.N + 1):
            raise ContractViolation("reference array shape does not match the mesh")
        self._values = _read_only(values)
        self._qh = None if qh_values is None else _read_only(qh_values)

    def values(self, levels) -> np.ndarray:
        return self._values[levels]

    def qh_values(self, levels) -> np.ndarray:
        if self._qh is None:
            raise ContractViolation("this reference carries no hat-averaged slices")
        return self._qh[levels]


class HarmonicReference:
    """Exact solution of a single-harmonic data family."""

    def __init__(self, mesh: MeshSpec, kind: HarmonicData):
        cm = canonical_mesh(mesh)
        self._coeffs = exact_time_coefficients(kind, cm.times())
        shape = np.sin(kind.k * cm.nodes())
        shape[0] = shape[-1] = 0.0
        self._shape = shape
        self._qh_factor = float(hat_average_factor(kind.k * cm.h))

    def values(self, levels) -> np.ndarray:
        return self._coeffs[levels, None] * self._shape

    def qh_values(self, levels) -> np.ndarray:
        return self._qh_factor * self._coeffs[levels, None] * self._shape


def _lattice(mesh: MeshSpec):
    """(p, q) with a tau / h = p / q to 1e-12 and q <= M, else None."""
    ratio = mesh.a * mesh.tau / mesh.h
    frac = Fraction(ratio).limit_denominator(mesh.M)
    if abs(frac - ratio) > 1e-12 * ratio:
        return None
    return frac.numerator, frac.denominator


# finite data may overflow in U0, V1 or their hat averages: refuse names the datum
@np.errstate(over="ignore", invalid="ignore")
def dalembert_reference(mesh: MeshSpec, data: DataSpec) -> GridReference:
    """Exact reference of unforced data by d'Alembert's formula, both views."""
    if data.f is not None:
        raise ContractViolation("d'Alembert's formula needs zero forcing; use a harmonic reference")
    n, m, h = mesh.N, mesh.M, mesh.h

    def refuse(name):
        raise ConfigurationError(
            f"the exact solution of {name} is not finite on the N={n}, M={m} mesh")

    try:
        v1 = extension_sampler(data.u1, True)
    except ConfigurationError:  # Profile refuses a piece of V1 that overflows
        refuse("u1")
    data_terms = (("u0", extension_sampler(data.u0, False), 0.5), ("u1", v1, 0.5 / mesh.a))

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

    views = np.empty((2, m + 1, n + 1))
    lattice = _lattice(mesh)
    if lattice is not None:
        p, q = lattice
        # entry q j + r of one period holds y = (q j + r) h/q
        period = np.stack([halves(r * h / q, 2 * n) for r in range(q)], axis=-1)
        u, v = period.reshape(2, 2, 2 * n * q).swapaxes(0, 1)
        e = np.take(u + v, np.arange(q * n + p * m + 1), axis=-1, mode="wrap")
        f = np.take(u - v, np.arange(-p * m, q * n + 1), axis=-1, mode="wrap")
        # views[:, m, i] = e[:, qi + pm] + f[:, pM + qi - pm]
        step, shape = e.strides[1], (2, m + 1, n + 1)
        np.add(as_strided(e, shape, (e.strides[0], p * step, q * step)),
               as_strided(f[:, p * m:], shape, (f.strides[0], -p * step, q * step)), out=views)
    else:
        for level, shift in enumerate(mesh.a * mesh.times()):
            (u, v), (u_, v_) = (halves(s, n + 1).swapaxes(0, 1) for s in (shift, -shift))
            views[:, level] = (u + v) + (u_ - v_)
    views[:, :, ::n] = 0.0
    return GridReference(mesh, views[0], views[1])
