"""Fractional convergence orders for rough data.

With a triangular bump for u0 and a step for u1, the solution never has the
six derivatives the fourth-order theory wants; the error norm decays like
h^0.4 instead.  One derivative more in the data (a quadratic spline bump and
a hat velocity) raises the observed order to 1.2.  The error is measured in
the mixed form that matches the rough-data regime: the time difference is
compared after a Numerov-corrected hat filter of the exact solution, the
space difference on raw node values.  The exact reference is d'Alembert's
formula, evaluated exactly for the piecewise-polynomial data: the odd
extension of u0 and the antiderivative of the odd extension of u1, and
their hat averages, on one period of the lattice that x_i +- t_m share.
"""

import math
import time

from wavecompact import config_from_dict, run_convergence
from wavecompact.data import PRESETS

for preset in ("hat_step", "quad_spline_hat"):
    expected = PRESETS[preset].expected_order
    print(f"preset {preset!r}: expected order {expected:.1f}")
    cfg = config_from_dict({
        "kind": "converge",
        "mesh": {"X": math.pi, "T": math.pi, "N": 64, "M": 128, "refinements": 3},
        "data": {"preset": preset},
        "mode": "q2h_filtered",
        "fit_drop_coarsest": 1,
    })
    started = time.perf_counter()
    result = run_convergence(cfg, emit=False)
    print(f"  {'N':>5} {'error':>12} {'pairwise order':>15}")
    for row in result.rows:
        print(f"  {row.N:5d} {row.err_energy:12.6f} {row.order_energy:15.3f}")
    print(f"  fitted order {result.fitted_order:.3f} "
          f"[{time.perf_counter() - started:.1f}s]\n")
