"""Running the three-level integrator, smooth and rough data alike.

Two runs: a single harmonic mode, checked against the closed-form discrete
solution, and a genuinely rough pair (triangular bump released with a
discontinuous velocity) where the data enters only through hat-function
averages, so nothing needs to be differentiated.  A run is its slices:
run.slices[m] is the level v^m, and run.residual_max the residual of each step.
"""

import math

import numpy as np

from wavecompact import (DataSpec, HarmonicData, build_mesh, discrete_trajectory, evolve,
                         harmonic_dataspec)
from wavecompact.data import hat_profile, step_profile
from wavecompact.scheme import prepare_inputs

mesh = build_mesh(X=math.pi, T=math.pi, N=32, M=64)

# --- harmonic data: the stepper reproduces the closed form to roundoff
data = harmonic_dataspec(HarmonicData(j=1, k=3), mesh)
run = evolve(mesh, data, variant="v2")
closed = discrete_trajectory(mesh, *prepare_inputs(mesh, data, "v2"))
dev = np.max(np.abs(run.slices - closed))
print(f"harmonic data d_k^(j) with j=1, k=3 on a {mesh.N}x{mesh.M} mesh")
print(f"  max |stepper - closed form| = {dev:.2e}")
print(f"  worst defining-equation residual = {np.max(run.residual_max):.2e}")
print()

# --- rough data: triangular bump + centered velocity step
rough = DataSpec(u0=hat_profile(mesh.X), u1=step_profile(mesh.X))
run = evolve(mesh, rough, variant="v2")
print("rough data (hat bump, step velocity), v2 velocity treatment:")
print("  t        profile at x = pi/4, pi/2, 3pi/4")
quarter = mesh.N // 4
for m in range(0, mesh.M + 1, mesh.M // 8):
    v = run.slices[m]
    print(f"  {mesh.times()[m]:6.3f}   {v[quarter]:8.4f} {v[2 * quarter]:8.4f} "
          f"{v[3 * quarter]:8.4f}")
print()
print("energy-ish diagnostics: the solution stays bounded by the data norms")
from wavecompact.experiments import stability_bound_sides
[(_, (lhs, rhs))] = stability_bound_sides(mesh, [rough])
print(f"  scaled solution maximum {lhs:.4f} <= data bound {rhs:.4f}")
