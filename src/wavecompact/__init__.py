"""Compact fourth-order finite-difference solver for the 1D wave equation.

The package solves u_tt - a^2 u_xx = f on (0, X) x (0, T) with homogeneous
Dirichlet boundary conditions by an implicit three-level compact scheme, and
ships the machinery needed to study its accuracy on rough data: hat-function
mollification of the inputs, a closed-form spectral oracle for any grid data,
discrete dispersion analysis, and batch experiment drivers for convergence
orders, stability inequalities, and error-constant sharpness.
"""

__version__ = "0.1.0"

from .data import (PRESETS, DataSpec, Forcing, Profile, TimeProfile, average_qh,
                   average_qtau, build_fh, build_u1h)
from .errors import (ConfigurationError, ContractViolation, InvariantError,
                     MeshTooCoarseError, UnstableMeshError)
from .grid import (GridFn, MeshSpec, build_mesh, energy_norm_pair, space_norm,
                   time_aggregate)
from .operators import apply_spatial, solve_implicit
from .oracle import (DispersionRecord, HarmonicData, asymptotic_constant, choose_k_h,
                     discrete_trajectory, dispersion, harmonic_dataspec, sharpness_prediction)
from .reference import Reference, dalembert_reference, reference_refusal
from .scheme import ErrorReport, SchemeRun, evolve, evolve_grid, evolve_measured, measure_error
from .experiments import (OrderFit, fit_order, random_dataspec, run_convergence,
                          run_oracle_check, run_sharpness, run_solve,
                          run_stability_probe)
from .config import ExperimentConfig, config_from_dict, load_config

__all__ = [name for name in dir() if not name.startswith("_")]
