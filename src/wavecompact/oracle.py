"""Closed forms of the scheme: its solution for any grid data, its dispersion,
the harmonic data families and the sharpness targets they measure.

The closed forms work in the canonical frame X = pi, a = 1; a general mesh
is rescaled through canonical_mesh (x' = pi x / X, t' = a pi t / X), under
which node values of both the exact solution and the scheme solution are
preserved once the data amplitudes are scaled accordingly (harmonic_dataspec
does that scaling).

On a uniform mesh with constant a the sine modes sin(k x'_i) diagonalize the
scheme: the mass form has eigenvalue 1 - h^2 lambda_k / 6, the laplacian
-lambda_k, and A = mass - sigma tau^2 a^2 laplacian has
A_k = 1 + (a^2 tau^2 - h^2) lambda_k / 12, with

    lambda_k = (2/h sin(kh/2))^2,
    theta_k  = mu_k tau = 2 arcsin((tau/2) sqrt(lambda_k / A_k))

in the canonical frame (A_k and theta_k are the same in every frame).  Mode by
mode the recurrence and its two-level start then solve in closed form: for
grid data with sine coefficients v0_k, u1h_k and fh^l_k (l = 0..M-1),

    v^m_k = v0_k cos(m theta) + tau u1h_k sin(m theta) / (A_k sin theta)
            + sum_{l<m} w_l tau^2 fh^l_k sin((m-l) theta) / (A_k sin theta),

w_0 = 1/2 and w_l = 1 otherwise.  discrete_blocks evaluates that sum by angle
addition and prefix sums carried from block to block, between a DST-I of the
data and one inverse DST-I per block of levels: a machine-precision ground
truth for the stepper on any grid data, served as the stepper serves levels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import DataSpec, Forcing, Profile, TimeProfile, time_l1_norm
from .errors import ConfigurationError, ContractViolation, InvariantError, MeshTooCoarseError
from .grid import MAX_CELLS, MeshSpec, check_stable
from .scheme import _RESIDUAL_BLOCK, _entry_data


def canonical_mesh(mesh: MeshSpec) -> MeshSpec:
    """Rescale a mesh to the X = pi, a = 1 frame (identity when already there)."""
    if mesh.X == math.pi and mesh.a == 1.0:
        return mesh
    return MeshSpec(X=math.pi, T=mesh.a * math.pi * mesh.T / mesh.X,
                    N=mesh.N, M=mesh.M, a=1.0, eps0=mesh.eps0)


@dataclass(frozen=True)
class DispersionRecord:
    """Per-mode dispersion quantities in the canonical frame."""

    k: int
    lambda_k: float  # discrete eigenvalue of -laplacian on sin(kx)
    phi_k: float     # intermediate frequency
    mu_k: float      # discrete frequency propagating the mode
    nu_h: float      # dispersion coefficient (h^4 - tau^4) / 480


@dataclass(frozen=True)
class HarmonicData:
    """Harmonic data family: j = 0 -> (sin kx, 0, 0), j = 1 -> (0, sin kx, 0),
    j = 2 -> (0, 0, sin(kx) sin((k-1)t))."""

    j: int
    k: int

    def __post_init__(self):
        if self.j not in (0, 1, 2):
            raise ContractViolation(f"j must be 0, 1 or 2, got {self.j}")
        if self.k < 1:
            raise ContractViolation(f"k must be >= 1, got {self.k}")
        if self.j == 2 and self.k < 2:
            raise ContractViolation("forcing data needs k >= 2 (resonant denominator at k = 1)")


def require_resolved(k: int, N: int) -> None:
    """Refuse a mode k > N - 1 with a MeshTooCoarseError naming a sufficient N."""
    if k > N - 1:  # the least N 2^e >= k + 1, in integers: k may exceed the float range
        finer = N * 2 ** ((k + N) // N - 1).bit_length()
        raise MeshTooCoarseError(f"mode index k = {k} exceeds N - 1 = {N - 1}; N >= "
                                 f"{finer} suffices at the same tau/h", minimal_n=finer)


def _modes(k, mesh: MeshSpec):
    """(lambda_k, A_k, theta_k) of a mode or an array of modes, canonical frame."""
    cm = canonical_mesh(mesh)
    h, tau = cm.h, cm.tau
    lam = (2.0 / h * np.sin(k * h / 2.0)) ** 2
    amp = 1.0 + (tau ** 2 - h ** 2) * lam / 12.0
    arg = tau / 2.0 * np.sqrt(lam / amp)
    if not np.all((0.0 < arg) & (arg < 1.0)):
        raise InvariantError("arcsin argument outside (0, 1); stability should preclude this")
    return lam, amp, 2.0 * np.arcsin(arg)


def dispersion(k: int, mesh: MeshSpec) -> DispersionRecord:
    """Dispersion record of mode k on a stable mesh."""
    check_stable(mesh)
    if k < 1:
        raise ContractViolation(f"mode index must be >= 1, got {k}")
    require_resolved(k, mesh.N)
    lam, amp, theta = _modes(k, mesh)
    cm = canonical_mesh(mesh)
    return DispersionRecord(k=k, lambda_k=float(lam), phi_k=float(np.sqrt(lam / amp)),
                            mu_k=float(theta / cm.tau),
                            nu_h=(cm.h ** 4 - cm.tau ** 4) / 480.0)


# --------------------------------------------------------------------------
# exact forced modes

def resonant(omega, kappa) -> np.ndarray:
    """Where sin(omega t) drives a mode of frequency kappa at resonance,
    |kappa| = |omega| to 1e-14 relative."""
    omega = abs(float(omega))
    return np.abs(np.abs(kappa) - omega) < 1e-14 * max(1.0, omega)


def forced_mode_response(omega: float, kappa, t) -> np.ndarray:
    """int_0^t sin(omega s) sin(kappa (t - s)) ds in closed form, broadcast
    over kappa and t (no kappa resonant with omega)."""
    if np.any(resonant(omega, kappa)):
        raise ContractViolation("resonant denominator: |kappa| = |omega|")
    return _duhamel(omega, kappa, np.asarray(t, dtype=float))


def _duhamel(omega: float, kappa, t) -> np.ndarray:
    """forced_mode_response without its resonance check, for callers that
    checked once (reference.reference_refusal) and evaluate per block."""
    sin_omega, sin_kappa = np.sin(omega * t), np.sin(kappa * t)
    return (-0.5 * (sin_omega - sin_kappa) / (omega - kappa)
            + 0.5 * (sin_omega + sin_kappa) / (omega + kappa))


# --------------------------------------------------------------------------
# discrete solution

def _dst(values: np.ndarray) -> np.ndarray:
    """DST-I along the last axis, out_k = sum_i values_i sin(pi k i / N) for
    i, k = 1..N-1, as the real FFT of the odd extension; twice it is N/2."""
    zero = np.zeros(values.shape[:-1] + (1,))
    odd = np.concatenate([zero, values, zero, -values[..., ::-1]], axis=-1)
    return -0.5 * np.fft.rfft(odd, axis=-1)[..., 1:-1].imag


def discrete_blocks(mesh: MeshSpec, v0, u1h, fh=None):
    """The closed-form solution of grid data (v0, u1h, fh), checked as evolve_grid
    checks them but with the ends taken as zero, in scheme._march's blocks: yields
    (first, levels), levels the (B, n+1, N+1) v^first..v^{first+n}, B = 1 unless
    stacked.  A block carries the two Duhamel prefix sums on to the next."""
    v0, u1h, fh = _entry_data(mesh, v0, u1h, fh, np.ndim(v0) == 2, False)
    N, M, B, tau = mesh.N, mesh.M, len(v0), mesh.tau
    v0, u1h = (_dst(w[:, None, 1:-1]) for w in (v0, u1h))
    if fh is not None:
        time, space = fh.time, fh.space[..., 1:-1]
    _, amp, theta = _modes(np.arange(1, N), mesh)
    gain = tau / (amp * np.sin(theta))
    c = s = np.zeros((B, 1, N - 1))  # sum_{l<first} kick_l (cos, sin)(l theta) in the last row
    for first in range(0, M, _RESIDUAL_BLOCK):
        angles = np.multiply.outer(np.arange(first, min(first + _RESIDUAL_BLOCK, M) + 1), theta)
        cos, sin = np.cos(angles), np.sin(angles, out=angles)  # sin reuses the angles' buffer
        modes = v0 * cos + u1h * gain * sin
        if fh is not None:
            kicks = _dst(time[:, first:first + _RESIDUAL_BLOCK] * space) * (tau * gain)
            kicks[:, 0] *= 1.0 if first else 0.5  # w_0 = 1/2
            # sin((m - l) theta) = sin(m theta) cos(l theta) - cos(m theta) sin(l theta)
            c, s = (np.cumsum(np.concatenate([prior[:, -1:], kicks * trig[:-1]], axis=1), axis=1)
                    for prior, trig in ((c, cos), (s, sin)))
            modes += sin * c - cos * s
        levels = np.zeros((B, len(cos), N + 1))
        levels[..., 1:-1] = _dst(modes) * (2.0 / N)
        yield first, levels


def discrete_trajectory(mesh: MeshSpec, v0, u1h, fh=None) -> np.ndarray:
    """The closed-form scheme solution, (M+1, N+1) or (B, M+1, N+1): discrete_blocks, stacked."""
    levels = np.hstack([v[:, bool(first):] for first, v in discrete_blocks(mesh, v0, u1h, fh)])
    return levels if np.ndim(v0) == 2 else levels[0]


def harmonic_dataspec(kind: HarmonicData, mesh: MeshSpec) -> DataSpec:
    """DataSpec in user coordinates whose canonical image is the d^(j)_k family.

    Amplitudes carry the rescaling x' = pi x / X, t' = a pi t / X: the initial
    velocity picks up a factor a pi / X and the forcing (a pi / X)^2, so that
    node values of solutions agree with the canonical formulas.  The datum is
    the one mode k, stored as such: its cost does not grow with k.
    """
    X = mesh.X
    scale_t = mesh.a * math.pi / X  # dt'/dt
    zero = Profile.zero(X)

    def mode_profile(amplitude: float) -> Profile:
        return Profile.sine_series((amplitude * math.sqrt(X / 2.0),), X, (kind.k,))

    if kind.j == 0:
        return DataSpec(u0=mode_profile(1.0), u1=zero)
    if kind.j == 1:
        return DataSpec(u0=zero, u1=mode_profile(scale_t))
    forcing = Forcing(space=mode_profile(scale_t ** 2),
                      time=TimeProfile.harmonic_sin((kind.k - 1) * scale_t))
    return DataSpec(u0=zero, u1=zero, f=forcing)


# --------------------------------------------------------------------------
# frequency selection and sharpness targets

def choose_k_h(alpha: float, mesh: MeshSpec) -> int:
    """Mode index k_h = floor((alpha / nu_h)^(1/5)) + 1 used by the lower bounds.

    Raises MeshTooCoarseError naming the least N 2^r that resolves its k_h at
    the same tau/h when k_h exceeds the largest resolvable mode N - 1, and a
    ConfigurationError naming alpha when no such N with N 2^r, M 2^r <=
    MAX_CELLS does or (alpha / nu_h)^(1/5) is not finite.  h and tau halve
    exactly, so the nu_h of N 2^r is nu_h 2^(-4r): no mesh is built per doubling.
    """
    if alpha <= 0:
        raise ContractViolation("alpha must be positive")
    check_stable(mesh)
    cm = canonical_mesh(mesh)
    nu = (cm.h ** 4 - cm.tau ** 4) / 480.0

    def candidate(r: int) -> int:
        """k_h of the N 2^r, M 2^r mesh."""
        root = (alpha / (nu / 16.0 ** r)) ** 0.2 if nu > 0.0 else math.inf
        if not math.isfinite(root) or 2 ** r * max(mesh.N, mesh.M) > MAX_CELLS:
            raise ConfigurationError(
                f"alpha = {alpha} puts k_h beyond N - 1 on every mesh of N, M <= {MAX_CELLS} "
                f"at the tau/h of the N={mesh.N}, M={mesh.M} mesh")
        return math.floor(root) + 1

    k, r = candidate(0), 0
    while candidate(r) > 2 ** r * mesh.N - 1:
        r += 1
    if r:
        raise MeshTooCoarseError(
            f"mode k_h = {k} exceeds N - 1 = {mesh.N - 1}; N >= {2 ** r * mesh.N} suffices "
            f"for alpha = {alpha}", minimal_n=2 ** r * mesh.N)
    return k


def asymptotic_constant(j: int, T: float) -> float:
    """Leading error-norm constant c_j(T) of the harmonic families.

    c_0 = c_1 = twice the integral of |sin| over (0, T) (data.time_l1_norm);
    c_2 = T - sin T.
    """
    if j not in (0, 1, 2):
        raise ContractViolation(f"j must be 0, 1 or 2, got {j}")
    if T <= 0:
        raise ContractViolation("T must be positive")
    if j == 2:
        return T - math.sin(T)
    return 2.0 * time_l1_norm(TimeProfile.harmonic_sin(1.0), T)


def sharpness_prediction(j: int, l: int, k: int, T: float) -> float:
    """Leading space-time L1 error norm k^(l - p_j) (4/pi) c_j(T) at mode k.

    p_0 = 0 and p_1 = p_2 = 1.  The correction is excluded and must be handled
    as an empirical band by the caller: the measured ratio's defect from 1
    shrinks like h^0.4, about h^0.8 for j = 2 at l = 0.  The l = 1 ratio is
    the l = 0 ratio times the backward difference's symbol sin(k h/2) / (k h/2)
    (to 1.2e-6 at N = 2048), so its extra defect is about (k h)^2 / 24.
    """
    if l not in (0, 1):
        raise ContractViolation("l must be 0 or 1")
    constant = asymptotic_constant(j, T)  # refuses a j but 0, 1 or 2 first
    if j == 2 and k < 2:
        raise ContractViolation("forcing data needs k >= 2")
    p = (0, 1, 1)[j]
    return float(k) ** (-p + l) * 4.0 / math.pi * constant
