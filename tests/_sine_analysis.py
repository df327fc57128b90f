"""Sine analysis of profiles, an oracle independent of the package's quadrature.

Coefficients are in the orthonormal basis sqrt(2/X) sin(pi k x / X): a
sine_series profile stores exactly the nonzero coefficients that
sine_coefficients returns, as its modes and their coeffs, and a single mode
sin(pi k x / X) is the one-mode series with c_k = sqrt(X/2).  Piecewise
profiles are integrated in closed form, by parts, not by the hat-average
arithmetic of wavecompact.data.
"""

import numpy as np
from numpy.polynomial import polynomial as npoly

from wavecompact.data import Profile
from wavecompact.errors import ContractViolation


def poly_sin_integral(coeffs, omegas, lo: float, hi: float) -> np.ndarray:
    """Exact integral of p(x) sin(omega x) over [lo, hi], vectorized in omega.

    Uses the repeated-integration-by-parts antiderivative
    sum_j p^(j)(x) g_j(omega x) / omega^(j+1) with g cycling through
    -cos, +sin, +cos, -sin.
    """
    omegas = np.atleast_1d(np.asarray(omegas, dtype=float))
    safe = np.where(omegas == 0.0, 1.0, omegas)
    derivs = [np.asarray(coeffs, dtype=float)]
    while len(derivs[-1]) > 1:
        derivs.append(npoly.polyder(derivs[-1]))

    def antiderivative(x: float) -> np.ndarray:
        total = np.zeros_like(omegas)
        s, c = np.sin(omegas * x), np.cos(omegas * x)
        invw = 1.0 / safe
        power = invw.copy()
        for j, d in enumerate(derivs):
            pj = npoly.polyval(x, d)
            r = j % 4
            if r == 0:
                term = -pj * c
            elif r == 1:
                term = pj * s
            elif r == 2:
                term = pj * c
            else:
                term = -pj * s
            total += term * power
            power = power * invw
        return total

    out = antiderivative(hi) - antiderivative(lo)
    out[omegas == 0.0] = 0.0
    return out


def sine_coefficients(w: Profile, K: int) -> np.ndarray:
    """First K coefficients of w in the orthonormal sine basis.

    Exact for every profile form.
    """
    if K < 1:
        raise ContractViolation("K must be at least 1")
    out = np.zeros(K)
    if w.form == "sine_series":
        for k, c in zip(w.modes, w.coeffs):
            if k <= K:
                out[k - 1] = c
        return out
    root = np.sqrt(2.0 / w.X)
    ks = np.arange(1, K + 1)
    omegas = np.pi * ks / w.X
    b = w.breakpoints
    for p, coeffs in enumerate(w.pieces):
        out += root * poly_sin_integral(coeffs, omegas, b[p], b[p + 1])
    return out
