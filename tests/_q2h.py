"""The q_2h average of hat averages, written out: an oracle for the exact
reference's q_2h view, independent of the package's three-point kernel.

    (q_2h w)_i = (-q_h w_{i-1} + 14 q_h w_i - q_h w_{i+1}) / 12
"""

import numpy as np


def q2h_filter(qh):
    """q_2h at every point of the rows qh (one level or a stack) with a
    neighbour on each side: two values fewer per row."""
    return (-qh[..., :-2] + 14.0 * qh[..., 1:-1] - qh[..., 2:]) / 12.0


def q2h_periodic(qh):
    """q_2h of the hat averages qh on one period, the rows' ends neighbours."""
    return q2h_filter(np.concatenate((qh[..., -1:], qh, qh[..., :1]), axis=-1))


def q2h_from_qh(qh):
    """q_2h of the hat averages qh at the nodes, zero at both ends."""
    out = np.zeros_like(qh)
    out[..., 1:-1] = q2h_filter(qh)
    return out


def q2h_factor(omega, h):
    """q_2h's eigenfactor on sin(omega x): the hat average's
    (sin(omega h / 2) / (omega h / 2))^2 times the filter's (14 - 2 cos(omega h)) / 12."""
    half = np.asarray(omega, dtype=float) * h / 2
    return (np.sin(half) / half) ** 2 * (14.0 - 2.0 * np.cos(2 * half)) / 12.0

