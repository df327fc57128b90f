"""Reference solutions on a fixed mesh.

A reference object serves two views of the exact solution u: raw node values
u(x_i, t_m) through values(levels) and hat-averaged values (q_h u(., t_m))_i
through qh_values(levels), the latter feeding the q_2h-filtered error norms.
levels is a time level or a slice of levels, as in numpy indexing; the
array-backed references return read-only views.

SeriesReference builds u by sine-mode superposition in the canonical frame,

    u(x, t) = sum_k [A_k cos(k t) + B_k sin(k t)] sin(k x),  A_k = a_k, B_k = b_k / k.

On the grid, sin(k x_i) folds onto sin(r x_i) with r = k mod 2N (up to sign),
and when T' = pi the time factors fold with period L = lcm(2N, 2M) too, so
the modes are summed class by class over L with one reshape.  The truncation
tail then decays like the amplitude tail itself (the mesh caps difference
quotients at 2/h); it is estimated from the fitted decay of the supplied
coefficients and reported for gating.  With alpha = L/2M, beta = L/2N and
indices mod L, the product-to-sum identities give

    u(x_i, t_m) = [S(beta i + alpha m) + S(beta i - alpha m)] / 2
                + [C(beta i - alpha m) - C(beta i + alpha m)] / 2

for S = -Im FFT_L(A) (odd) and C = Re FFT_L(B) (even); that is,
u = [D(beta i - alpha m) - D(-beta i - alpha m)] / 2 with D = Re FFT_L(B + iA),
one length-L FFT per view.  The q_h view weights A and B by the hat average's
eigenfactor.  For T' != pi, the time rows A_k cos(k t_m) + B_k sin(k t_m) of
8N modes (by default) are summed over k mod 2N and a length-2N FFT evaluates
the sine series at the nodes.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.fft import fft, rfft

from .data import DataSpec, hat_average_factor, sine_coefficients
from .errors import ConfigurationError, ContractViolation
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


def _fit_decay(amps: np.ndarray):
    """Fit |amp_k| ~ C k^-q on the top quarter of the index range.

    Coefficients that vanish up to roundoff (closed-form integration leaves
    ~1e-17 garbage in exactly-zero entries) are excluded from the fit.  No
    point left is a series that ends before the top quarter, a zero tail
    (C = 0); one to three are too few to fit, an unknown tail (C = inf).
    """
    k = np.arange(1, len(amps) + 1)
    scale = float(np.max(np.abs(amps), initial=0.0))
    if scale == 0.0:
        return 0.0, float("inf")
    lo = max(1, (3 * len(amps)) // 4)
    mask = (k >= lo) & (np.abs(amps) > 1e-13 * scale)
    usable = np.count_nonzero(mask)
    if usable < 4:
        return (0.0, float("inf")) if usable == 0 else (float("inf"), 0.0)
    lk = np.log(k[mask])
    la = np.log(np.abs(amps[mask]))
    slope, intercept = np.polyfit(lk, la, 1)
    return float(np.exp(intercept)), float(-slope)


def _tail_amp_sq(amps: np.ndarray) -> float:
    """Estimated sum of squared amplitudes beyond the supplied range."""
    c, q = _fit_decay(amps)
    if c == 0.0:
        return 0.0
    p = 2.0 * q
    if p <= 1.0:
        return float("inf")
    big_k = len(amps)
    return c * c * big_k ** (1.0 - p) / (p - 1.0)  # c * c overflows to inf, c ** 2 raises


def _mode_classes(amps: np.ndarray, period: int) -> np.ndarray:
    """Amplitudes (..., K) of modes k = 1..K, padded to (..., groups, period).

    Entry [..., g, r] holds mode g * period + r, or 0 where there is none."""
    n_modes = amps.shape[-1]
    groups = n_modes // period + 1
    padded = np.zeros(amps.shape[:-1] + (groups * period,))
    padded[..., 1:n_modes + 1] = amps
    return padded.reshape(amps.shape[:-1] + (groups, period))


def _views_folded(amps: np.ndarray, n: int, m: int, period: int) -> np.ndarray:
    """(view, 2, K) amplitudes -> (view, M+1, N+1) node values when T' = pi."""
    classes = _mode_classes(amps, period).sum(axis=-2)
    # D = C + S from the class sums of A (row 0) and B (row 1)
    d = fft(classes[:, 1] + 1j * classes[:, 0], axis=-1).real
    alpha, beta = period // (2 * m), period // (2 * n)
    # u = (D(beta i - alpha m) - D(-beta i - alpha m)) / 2, read as strided
    # views of D repeated twice: windows[:, s, w] = D((s + w) mod L)
    windows = sliding_window_view(np.concatenate([d, d], axis=-1), period // 2 + 1, axis=-1)
    plus = windows[:, period::-alpha][:, :m + 1, ::beta]
    minus = windows[:, period // 2::-alpha][:, :m + 1, ::-beta]
    return 0.5 * (plus - minus)


def _views_direct(amps: np.ndarray, n: int, times: np.ndarray) -> np.ndarray:
    """(view, 2, K) amplitudes -> (view, M+1, N+1) node values at any times."""
    period = 2 * n
    classes = _mode_classes(amps, period)
    rows = np.zeros((amps.shape[0], len(times), period))
    # stop before a last group that holds only residue 0, zero at every node
    for g in range((amps.shape[-1] - 1) // period + 1):
        phases = np.outer(times, np.arange(g * period, (g + 1) * period))
        rows += (classes[:, 0, g, None, :] * np.cos(phases)
                 + classes[:, 1, g, None, :] * np.sin(phases))
    # sum_r rows[r] sin(pi r i / N) over the residues r = k mod 2N, i = 0..N
    return -rfft(rows).imag


class SeriesReference:
    """Truncated sine-series superposition of the exact solution.

    Supports f = None only; forcing references come from HarmonicReference.
    n_modes defaults to fold_groups times the joint alias period when T' = pi
    (exact folding), else to 8 N.
    """

    # finite but huge data may overflow to non-finite amplitudes, an infinite
    # tail estimate or infinite views: the checks below, the tail gate and
    # prepare_inputs refuse such data
    @np.errstate(over="ignore", invalid="ignore")
    def __init__(self, mesh: MeshSpec, data: DataSpec, n_modes: int | None = None,
                 fold_groups: int = 64):
        if data.f is not None:
            raise ContractViolation(
                "series reference supports zero forcing; use a harmonic reference")
        cm = canonical_mesh(mesh)
        n, m = mesh.N, mesh.M

        # plain canonical amplitudes: a_k from u0, b_k from the rescaled u1
        joint = math.lcm(2 * n, 2 * m)
        exact_fold = abs(cm.T - math.pi) <= 1e-12 * math.pi
        if n_modes is None:
            n_modes = fold_groups * joint if exact_fold else 8 * n
        root = math.sqrt(2.0 / mesh.X)
        scale_t = mesh.a * math.pi / mesh.X
        a = sine_coefficients(data.u0, n_modes) * root
        b = sine_coefficients(data.u1, n_modes) * root / scale_t
        for name, amps in (("u0", a), ("u1", b)):
            if not np.all(np.isfinite(amps)):
                raise ConfigurationError(f"the sine amplitudes of {name} are not finite")
        k = np.arange(1, n_modes + 1)
        qh_fac = hat_average_factor(k * cm.h)

        self.tail_estimate = self._estimate_tail(a, b, k, cm)

        # (view, cos/sin, k): time-cosine and time-sine amplitudes of each
        # mode, plain and hat-averaged
        amps = np.stack([a, b / k])
        amps = np.stack([amps, amps * qh_fac])
        if exact_fold:
            views = _views_folded(amps, n, m, joint)
        else:
            views = _views_direct(amps, n, cm.times())
        self._values, self._qh = _read_only(views)

    # -- tail --------------------------------------------------------------
    def _estimate_tail(self, a, b, k, cm) -> float:
        tail_sq = _tail_amp_sq(a) + _tail_amp_sq(b / k)
        if not np.isfinite(tail_sq):
            return float("inf")
        # aliased modes contribute at most 2/h per backward space difference
        # and 2/tau per backward time difference
        cap = 2.0 / cm.h + 2.0 / cm.tau
        return math.sqrt(math.pi / 2.0 * tail_sq) * cap

    # -- views -------------------------------------------------------------
    def values(self, levels) -> np.ndarray:
        return self._values[levels]

    def qh_values(self, levels) -> np.ndarray:
        return self._qh[levels]
