"""Fourth-order convergence on a smooth solution.

The manufactured solution u = sin t sin x comes from releasing u1 = sin x
from rest.  Refining with tau = h/2 the two-level energy norm of the error
drops by a factor 16 per halving: the scheme really is fourth order when the
data allows it.
"""

import math

from wavecompact import (HarmonicData, HarmonicReference, build_mesh, evolve,
                         fit_order, harmonic_dataspec, measure_error)

kind = HarmonicData(j=1, k=1)  # u = sin t sin x exactly
points = []
print(f"  {'N':>5} {'h':>10} {'energy error':>14} {'ratio':>8} {'order':>7}")
prev = None
for n in (16, 32, 64, 128):
    mesh = build_mesh(math.pi, math.pi, n, 2 * n)
    run = evolve(mesh, harmonic_dataspec(kind, mesh))
    rep = measure_error(mesh, run.slices, HarmonicReference(mesh, kind))
    err = rep.max_energy_error
    ratio = prev / err if prev else float("nan")
    order = math.log2(ratio) if prev else float("nan")
    print(f"  {n:5d} {mesh.h:10.6f} {err:14.4e} {ratio:8.2f} {order:7.3f}")
    points.append((mesh.h, err))
    prev = err

fit = fit_order(points)
print(f"\nleast-squares order over the ladder: {fit.slope:.4f} "
      f"(residual {fit.residual:.1e})")
