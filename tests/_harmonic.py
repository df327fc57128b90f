"""Closed forms of the harmonic data families, a reference independent of data.py.

exact_harmonic_solution is the PDE's solution of a harmonic family, and
discrete_harmonic_trajectory the scheme's: it writes the family's grid data
in closed form (variant_amplitude, a closed-form q_tau and the hat factor),
without the assembly of wavecompact.data, and solves the scheme on them by
wavecompact.oracle.discrete_trajectory.  Comparing the stepper run on the
assembled data with it therefore checks data assembly as well as stepping.
All three work in the canonical frame X = pi, a = 1 (see wavecompact.oracle).
"""

import math

import numpy as np

from wavecompact.data import U1_VARIANTS, ForcingLevels, hat_average_factor
from wavecompact.errors import ContractViolation
from wavecompact.grid import MeshSpec
from wavecompact.oracle import (HarmonicData, canonical_mesh, discrete_trajectory,
                                dispersion, forced_mode_response)


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


def exact_harmonic_solution(kind: HarmonicData, x, t):
    """Exact solution u(x, t) for the harmonic data family (canonical coordinates)."""
    k, t = kind.k, np.asarray(t, dtype=float)
    if kind.j == 0:
        coeff = np.cos(k * t)
    elif kind.j == 1:
        coeff = np.sin(k * t) / k
    else:
        coeff = forced_mode_response(k - 1.0, float(k), t) / k
    return coeff * np.sin(k * np.asarray(x, dtype=float))


def discrete_harmonic_trajectory(kind: HarmonicData, mesh: MeshSpec,
                                 variant: str = "v2") -> np.ndarray:
    """Full (M+1, N+1) closed-form scheme solution of harmonic_dataspec(kind, mesh).

    Its grid data are written in closed form, without the assembly of
    data.py: v0 = sin kx, u1h = a_1k (a pi / X) sin kx, and
    fh = q_tau sin((k-1)t) times the hat factor lambda_k / k^2 times
    (a pi / X)^2 sin kx, each in the canonical frame.
    """
    k, cm = kind.k, canonical_mesh(mesh)
    a1k = variant_amplitude(variant, k, mesh)  # refuses an unresolved k
    scale = mesh.a * math.pi / mesh.X
    shape = np.sin(k * cm.nodes())
    shape[0] = shape[-1] = 0.0
    zero = np.zeros_like(shape)
    if kind.j == 0:
        return discrete_trajectory(mesh, shape, zero)
    if kind.j == 1:
        return discrete_trajectory(mesh, zero, a1k * scale * shape)
    y = (k - 1.0) * cm.tau
    q_tau = hat_average_factor(y) * np.sin((k - 1.0) * cm.times()[:-1])
    q_tau[0] = 2.0 / y * (1.0 - math.sin(y) / y)
    hat = dispersion(k, mesh).lambda_k / k ** 2
    return discrete_trajectory(mesh, zero, zero, ForcingLevels(q_tau, scale ** 2 * hat * shape))
