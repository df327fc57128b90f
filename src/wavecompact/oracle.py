"""Closed-form exact and discrete solutions for single-harmonic data.

Everything in this module works in the canonical frame X = pi, a = 1; a
general mesh is rescaled through canonical_mesh (x' = pi x / X,
t' = a pi t / X), under which node values of both the exact solution and the
scheme solution are preserved once the data amplitudes are scaled
accordingly (harmonic_dataspec does that scaling).

For data (alpha0, alpha1, g(t)) sin(kx), the scheme solution is

    v(x, t_m) = [alpha0 cos(mu_k t_m) + gamma_hat (alpha1/k) sin(mu_k t_m)
                 + (gamma/k) int_0^{t_m} g(th) PL[sin(mu_k (t_m - th))] dth] sin(k x_i),

where PL interpolates the trailing factor piecewise-linearly on the time
mesh and the frequencies come from the discrete dispersion relation

    lambda_k = (2/h sin(kh/2))^2,
    phi_k    = sqrt(lambda_k / (1 + (tau^2 - h^2) lambda_k / 12)),
    mu_k     = (2/tau) arcsin(tau phi_k / 2).

The hat-interpolated convolution is evaluated by exact per-subinterval
antiderivatives (never quadrature), so the closed form is a machine-precision
ground truth for the stepper.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import U1_VARIANTS, DataSpec, Forcing, Profile, TimeProfile
from .errors import ContractViolation, InvariantError, MeshTooCoarseError
from .grid import MeshSpec, check_stable


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
class HarmonicCoefficients:
    gamma_hat_1k: float  # discrete velocity amplitude
    gamma_1k: float      # discrete forcing amplitude


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
    if k > N - 1:
        finer = N * 2 ** math.ceil(math.log2((k + 1) / N))
        raise MeshTooCoarseError(f"mode index k = {k} exceeds N - 1 = {N - 1}; N >= "
                                 f"{finer} suffices at the same tau/h", minimal_n=finer)


def dispersion(k: int, mesh: MeshSpec) -> DispersionRecord:
    """Dispersion record of mode k on a stable mesh."""
    check_stable(mesh)
    cm = canonical_mesh(mesh)
    if k < 1:
        raise ContractViolation(f"mode index must be >= 1, got {k}")
    require_resolved(k, cm.N)
    h, tau = cm.h, cm.tau
    lam = (2.0 / h * math.sin(k * h / 2.0)) ** 2
    den = 1.0 - (h ** 2 / 6.0) * lam + tau ** 2 * cm.sigma * lam
    den_simplified = 1.0 + (tau ** 2 - h ** 2) * lam / 12.0
    if abs(den - den_simplified) > 1e-12 * abs(den):
        raise InvariantError("dispersion denominator simplification mismatch")
    phi = math.sqrt(lam / den_simplified)
    arg = tau * phi / 2.0
    if not (0.0 < arg < 1.0):
        raise InvariantError(
            f"arcsin argument {arg!r} outside (0, 1); stability should preclude this")
    mu = 2.0 / tau * math.asin(arg)
    nu = (h ** 4 - tau ** 4) / 480.0
    return DispersionRecord(k=k, lambda_k=lam, phi_k=phi, mu_k=mu, nu_h=nu)


def variant_amplitude(variant: str, k: int, mesh: MeshSpec) -> float:
    """Sine-basis multiplier a_1k of build_u1h for u1 = sin(kx) (canonical frame)."""
    if variant not in U1_VARIANTS:
        raise ContractViolation(f"unknown u1 variant {variant!r}")
    cm = canonical_mesh(mesh)
    h, tau = cm.h, cm.tau
    lam = dispersion(k, mesh).lambda_k
    if variant == "v0":
        return 1.0 - (h ** 2 + tau ** 2) / 12.0 * lam
    if variant == "v1":
        return lam / k ** 2 * (1.0 - tau ** 2 * k ** 2 / 12.0)
    return lam / k ** 2 * (1.0 - tau ** 2 * lam / 12.0)


def harmonic_coefficients(k: int, mesh: MeshSpec, variant: str = "v2") -> HarmonicCoefficients:
    """Amplitudes of the discrete solution formulas for mode k."""
    rec = dispersion(k, mesh)
    cm = canonical_mesh(mesh)
    tau = cm.tau
    half = rec.mu_k * tau / 2.0
    if not half < math.pi / 2.0:
        raise InvariantError("mu_k tau / 2 reached the tangent pole")
    t = math.tan(half)
    a1k = variant_amplitude(variant, k, mesh)
    return HarmonicCoefficients(
        gamma_hat_1k=a1k * (2.0 * k / (rec.lambda_k * tau)) * t,
        gamma_1k=2.0 / (k * tau) * t,
    )


# --------------------------------------------------------------------------
# exact solution

def forced_mode_response(k: int, kappa: float, t) -> np.ndarray:
    """int_0^t sin((k-1) th) sin(kappa (t - th)) dth in closed form (|kappa| != k-1)."""
    b = k - 1.0
    if abs(abs(kappa) - b) < 1e-14 * max(1.0, b):
        raise ContractViolation("resonant denominator: |kappa| = k - 1")
    t = np.asarray(t, dtype=float)
    return (-0.5 * (np.sin(b * t) - np.sin(kappa * t)) / (b - kappa)
            + 0.5 * (np.sin(b * t) + np.sin(kappa * t)) / (b + kappa))


def exact_time_coefficients(kind: HarmonicData, t) -> np.ndarray:
    """Time factor of the exact solution at canonical times t."""
    t = np.asarray(t, dtype=float)
    k = kind.k
    if kind.j == 0:
        return np.cos(k * t)
    if kind.j == 1:
        return np.sin(k * t) / k
    return forced_mode_response(k, float(k), t) / k


def exact_harmonic_solution(kind: HarmonicData, mesh: MeshSpec, x, t):
    """Exact solution u(x, t) for the harmonic data family (canonical coordinates)."""
    x = np.asarray(x, dtype=float)
    return exact_time_coefficients(kind, t) * np.sin(kind.k * x)


# --------------------------------------------------------------------------
# discrete solution

def _interpolated_convolution(b: float, mu: float, times: np.ndarray, tau: float) -> np.ndarray:
    """y(t_m) = int_0^{t_m} sin(b th) PL[sin(mu (t_m - th))] dth for all m.

    Angle addition turns the interpolant of sin(mu (t_m - th)) into
    sin(mu t_m) PL[cos(mu th)] - cos(mu t_m) PL[sin(mu th)], whose cell
    integrals no longer depend on m; prefix sums finish the job in O(M).
    """
    t0, t1 = times[:-1], times[1:]

    def cell_integrals(vals: np.ndarray) -> np.ndarray:
        c1 = (vals[1:] - vals[:-1]) / tau
        c0 = vals[:-1] - c1 * t0
        i0 = (np.cos(b * t0) - np.cos(b * t1)) / b
        i1 = ((np.sin(b * t1) / b ** 2 - t1 * np.cos(b * t1) / b)
              - (np.sin(b * t0) / b ** 2 - t0 * np.cos(b * t0) / b))
        return c0 * i0 + c1 * i1

    pref_cos = np.concatenate([[0.0], np.cumsum(cell_integrals(np.cos(mu * times)))])
    pref_sin = np.concatenate([[0.0], np.cumsum(cell_integrals(np.sin(mu * times)))])
    return np.sin(mu * times) * pref_cos - np.cos(mu * times) * pref_sin


def discrete_time_coefficients(kind: HarmonicData, mesh: MeshSpec,
                               variant: str = "v2") -> np.ndarray:
    """Time factor of the closed-form scheme solution at all levels 0..M."""
    check_stable(mesh)
    cm = canonical_mesh(mesh)
    rec = dispersion(kind.k, mesh)
    times = cm.times()
    if kind.j == 0:
        return np.cos(rec.mu_k * times)
    coeff = harmonic_coefficients(kind.k, mesh, variant)
    if kind.j == 1:
        return coeff.gamma_hat_1k / kind.k * np.sin(rec.mu_k * times)
    y = _interpolated_convolution(kind.k - 1.0, rec.mu_k, times, cm.tau)
    return coeff.gamma_1k / kind.k * y


def discrete_harmonic_trajectory(kind: HarmonicData, mesh: MeshSpec,
                                 variant: str = "v2") -> np.ndarray:
    """Full (M+1, N+1) closed-form scheme solution."""
    coeffs = discrete_time_coefficients(kind, mesh, variant)
    cm = canonical_mesh(mesh)
    shape = np.sin(kind.k * cm.nodes())
    shape[0] = shape[-1] = 0.0
    return np.outer(coeffs, shape)


def harmonic_dataspec(kind: HarmonicData, mesh: MeshSpec) -> DataSpec:
    """DataSpec in user coordinates whose canonical image is the d^(j)_k family.

    Amplitudes carry the rescaling x' = pi x / X, t' = a pi t / X: the initial
    velocity picks up a factor a pi / X and the forcing (a pi / X)^2, so that
    node values of solutions agree with the canonical formulas.
    """
    X = mesh.X
    scale_t = mesh.a * math.pi / X  # dt'/dt
    zero = Profile.zero(X)
    single = np.zeros(kind.k)

    def mode_profile(amplitude: float) -> Profile:
        c = single.copy()
        c[kind.k - 1] = amplitude * math.sqrt(X / 2.0)
        return Profile.sine_series(c, X)

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

    Raises MeshTooCoarseError (naming a sufficient N) when k_h would exceed
    the largest resolvable mode N - 1.
    """
    if alpha <= 0:
        raise ContractViolation("alpha must be positive")
    check_stable(mesh)

    def candidate(m: MeshSpec) -> int:
        cm = canonical_mesh(m)
        nu = (cm.h ** 4 - cm.tau ** 4) / 480.0
        return int(math.floor((alpha / nu) ** 0.2)) + 1

    k = candidate(mesh)
    if k <= mesh.N - 1:
        return k
    finer = mesh
    for _ in range(64):
        finer = MeshSpec(X=mesh.X, T=mesh.T, N=2 * finer.N, M=2 * finer.M,
                         a=mesh.a, eps0=mesh.eps0)
        if candidate(finer) <= finer.N - 1:
            break
    raise MeshTooCoarseError(
        f"mode k_h = {k} exceeds N - 1 = {mesh.N - 1}; N >= {finer.N} suffices "
        f"for alpha = {alpha}", minimal_n=finer.N)


def asymptotic_constant(j: int, T: float) -> float:
    """Leading error-norm constant c_j(T) of the harmonic families.

    c_0 = c_1 = 2 (2 K + 1 - cos(T - K pi)) with K = floor(T / pi), which is
    twice the integral of |sin| over (0, T); c_2 = T - sin T.
    """
    if j not in (0, 1, 2):
        raise ContractViolation(f"j must be 0, 1 or 2, got {j}")
    if T <= 0:
        raise ContractViolation("T must be positive")
    if j == 2:
        return T - math.sin(T)
    big_k = math.floor(T / math.pi)
    return 2.0 * (2.0 * big_k + 1.0 - math.cos(T - big_k * math.pi))


def sharpness_prediction(j: int, l: int, k: int, T: float) -> float:
    """Leading space-time L1 error norm k^(l - p_j) (4/pi) c_j(T) at mode k.

    p_0 = 0 and p_1 = p_2 = 1; the O(h^(1/5)) correction is excluded and
    must be handled as an empirical band by the caller.
    """
    if l not in (0, 1):
        raise ContractViolation("l must be 0 or 1")
    if j == 2 and k < 2:
        raise ContractViolation("forcing data needs k >= 2")
    p = (0, 1, 1)[j]
    return float(k) ** (-p + l) * 4.0 / math.pi * asymptotic_constant(j, T)
