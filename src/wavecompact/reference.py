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
antiderivative of the odd extension of u1.  A piecewise datum is folded back
onto [0, X]: U0 is u0 there, with the mean of the two sides at a jump (0 at
multiples of X), and each piece of V1 is exact through npoly.polyint.  A
sine_series datum is its own U0, and V1 is the matching cosine series.  The
hat average of a shifted function is the shifted hat average, so the q_h view
is the same formula on the hat averages of U0 and V1: exact per-cell Gauss
rules split at the breakpoints of the extension, or the eigenfactor
hat_average_factor of each sine mode.

When a tau / h = p / q is rational with q <= M, as with aT = X (p/q = N/M)
or M = 2N and T = 0.8 X/a (2/5), every x_i +- a t_m = (q i +- p m) h/q lies
on the lattice of spacing h/q.  E and F are evaluated once on one period of
that lattice, L = 2Nq points, and each view is one np.add of two strided
views of their periodic extensions, E[qi + pm] + F[qi - pm].  Other meshes
evaluate x_i +- a t_m level by level.
"""

from __future__ import annotations

import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
from numpy.lib.stride_tricks import as_strided
from numpy.polynomial import polynomial as npoly

from .data import (_QUADRATURE_NODES, DataSpec, Profile, _hat_cell_integrals,
                   hat_average_factor)
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


def _sampler(w: Profile, antiderivative: bool):
    """sample(start, count, h) -> (W, hat average of W) at y = start + j h,
    j = 0..count-1, where W is the odd 2X-periodic extension of w or, with
    antiderivative set, the even periodic antiderivative of that extension."""
    X = w.X
    if w.form == "sine_series":
        omega = np.pi * np.arange(1, len(w.coeffs) + 1) / X
        amps = np.asarray(w.coeffs) * math.sqrt(2.0 / X)
        wave, amps = (np.cos, -amps / omega) if antiderivative else (np.sin, amps)

        def sample(start, count, h):
            basis = wave(np.outer(start + h * np.arange(count), omega))
            return basis @ amps, basis @ (amps * hat_average_factor(omega * h))
        return sample

    b = np.asarray(w.breakpoints)
    if antiderivative:
        pieces, value = [], 0.0
        for lo, hi, piece in zip(b, b[1:], w.pieces):
            pieces.append(npoly.polyint(piece, k=value, lbnd=lo))
            value = npoly.polyval(hi, pieces[-1])

        def folded(r):
            piece = np.searchsorted(b[1:-1], r, side="right")
            return np.select([piece == j for j in range(len(pieces))],
                             [npoly.polyval(r, c) for c in pieces])
    else:
        pieces, folded = w.pieces, replace(w, node_convention="mean")

    def extension(y):
        r = np.mod(y, 2.0 * X)
        flip = r > X
        r = np.where(flip, 2.0 * X - r, r)
        out = folded(r)
        if not antiderivative:
            out = np.where(flip, -out, out)
            out[np.minimum(r, X - r) <= 1e-13 * X] = 0.0
        return out

    breaks = np.unique(np.concatenate([b, 2.0 * X - b]))
    # Gauss nodes per panel that integrate a piece times a hat exactly
    nodes = max(_QUADRATURE_NODES, (max(map(len, pieces)) + 2) // 2 + 1)

    def sample(start, count, h):
        edges = start + h * np.arange(-1, count + 1)
        periods = 2.0 * X * np.arange(math.floor(edges[0] / (2.0 * X)),
                                      math.ceil(edges[-1] / (2.0 * X)) + 1)
        rise, fall = _hat_cell_integrals(extension, edges, np.add.outer(periods, breaks).ravel(),
                                         nodes, "the exact solution")
        return extension(edges[1:-1]), (rise[:-1] + fall[1:]) / h
    return sample


def _lattice(mesh: MeshSpec):
    """(p, q) with a tau / h = p / q to 1e-12 and q <= M, else None."""
    ratio = mesh.a * mesh.tau / mesh.h
    frac = Fraction(ratio).limit_denominator(mesh.M)
    if abs(frac - ratio) > 1e-12 * ratio:
        return None
    return frac.numerator, frac.denominator


# finite data may overflow in U0, V1 or their hat averages: halves refuses that
@np.errstate(over="ignore", invalid="ignore")
def dalembert_reference(mesh: MeshSpec, data: DataSpec) -> GridReference:
    """Exact reference of unforced data by d'Alembert's formula, both views."""
    if data.f is not None:
        raise ContractViolation("d'Alembert's formula needs zero forcing; use a harmonic reference")
    n, m, h = mesh.N, mesh.M, mesh.h
    data_terms = (("u0", _sampler(data.u0, False), 0.5),
                  ("u1", _sampler(data.u1, True), 0.5 / mesh.a))

    def halves(start, count):
        """(view, datum, j): U0/2 and V1/(2a) at start + j h; view 1 hat-averaged."""
        out = np.empty((2, 2, count))
        for d, (name, sample, scale) in enumerate(data_terms):
            try:
                out[:, d] = np.multiply(sample(start, count, h), scale)
            except QuadratureError:
                out[:, d] = np.nan
            if not np.all(np.isfinite(out[:, d])):
                raise ConfigurationError(
                    f"the exact solution of {name} is not finite on the N={n}, M={m} mesh")
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
