"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (visible with pytest -s or in failure
output).  Tolerances are pinned here, not configurable.
"""

import math

import numpy as np
import pytest

from wavecompact.config import config_from_dict
from wavecompact.data import DataSpec, Profile
from wavecompact.experiments import (energy_lower_bound_margins, fit_order,
                                     random_dataspec, run_convergence,
                                     stability_bound_sides)
from wavecompact.grid import build_mesh, space_norm
from wavecompact.operators import apply_implicit, apply_spatial, solve_implicit
from wavecompact.oracle import HarmonicData, dispersion, harmonic_dataspec
from wavecompact.reference import dalembert_reference
from wavecompact.scheme import evolve, measure_error

from _harmonic import discrete_harmonic_trajectory


def _report(name: str, ok: bool, detail: str):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({detail})", flush=True)
    assert ok, f"{name}: {detail}"


# --------------------------------------------------------------------------
# 1. oracle equivalence

def test_acceptance_1_oracle_equivalence():
    worst = 0.0
    worst_case = ""
    for n, m in ((16, 64), (64, 256)):
        mesh = build_mesh(math.pi, math.pi, n, m)
        for j in (0, 1, 2):
            for k in range(1, 6):
                if j == 2 and k < 2:
                    continue
                kind = HarmonicData(j=j, k=k)
                data = harmonic_dataspec(kind, mesh)
                for variant in ("v0", "v1", "v2"):
                    run = evolve(mesh, data, variant=variant)
                    closed = discrete_harmonic_trajectory(kind, mesh, variant)
                    scale = max(1.0, float(np.max(np.abs(closed))))
                    dev = float(np.max(np.abs(run.slices - closed))) / scale
                    if dev > worst:
                        worst = dev
                        worst_case = f"j={j} k={k} {variant} N={n}"
    _report("1 oracle equivalence", worst <= 1e-9,
            f"max relative deviation {worst:.2e} at {worst_case}; tolerance 1e-9")


# --------------------------------------------------------------------------
# 2. fourth-order smooth convergence

def test_acceptance_2_smooth_fourth_order():
    kind = HarmonicData(j=1, k=1)  # u = sin t sin x
    points = []
    for n in (16, 32, 64, 128):
        mesh = build_mesh(math.pi, math.pi, n, 2 * n)
        data = harmonic_dataspec(kind, mesh)
        run = evolve(mesh, data)
        rep = measure_error(mesh, run.slices, dalembert_reference(mesh, data),
                            mode="node_sampled")
        points.append((mesh.h, rep.max_energy_error))
    fit = fit_order(points)
    _report("2 smooth fourth order", 3.7 <= fit.slope <= 4.3,
            f"fitted energy-norm order {fit.slope:.3f} over N=16..128; window [3.7, 4.3]")


# --------------------------------------------------------------------------
# 3. fractional-order rates on nonsmooth presets

@pytest.mark.parametrize("preset,target,tol", [
    ("hat_step", 0.4, 0.1),
    ("quad_spline_hat", 1.2, 0.15),
])
def test_acceptance_3_fractional_rates(preset, target, tol):
    cfg = config_from_dict({
        "kind": "converge",
        "mesh": {"X": math.pi, "T": math.pi, "N": 128, "M": 256, "refinements": 3},
        "data": {"preset": preset},
        "mode": "q2h_filtered",
        "fit_drop_coarsest": 0,
    })
    result = run_convergence(cfg, emit=False)
    ok = abs(result.fitted_order - target) <= tol
    _report(f"3 fractional rate ({preset})", ok,
            f"fitted order {result.fitted_order:.3f}, target {target} +- {tol}, "
            f"N up to 1024, tau = h/2, exact d'Alembert reference")


@pytest.mark.parametrize("preset,datum,target,tol", [
    ("hat_step", "u0", 0.4, 0.1),
    ("hat_step", "u1", 0.4, 0.1),
    ("quad_spline_hat", "u0", 1.2, 0.15),
    ("quad_spline_hat", "u1", 1.2, 0.15),
])
def test_acceptance_3_fractional_rates_per_datum(preset, datum, target, tol):
    # the rates hold with respect to each initial function: one datum of the
    # preset, the other zero, at the tolerances of the pair
    cfg = config_from_dict({
        "kind": "converge",
        "mesh": {"X": math.pi, "T": math.pi, "N": 128, "M": 256, "refinements": 3},
        "data": {"preset": preset},
        "mode": "q2h_filtered",
        "fit_drop_coarsest": 0,
    })
    zero = Profile.zero(math.pi)
    cfg.data = DataSpec(u0=cfg.data.u0 if datum == "u0" else zero,
                        u1=cfg.data.u1 if datum == "u1" else zero)
    result = run_convergence(cfg, emit=False)
    ok = abs(result.fitted_order - target) <= tol
    _report(f"3 fractional rate ({preset} {datum} alone)", ok,
            f"fitted order {result.fitted_order:.3f}, target {target} +- {tol}, "
            f"N up to 1024, tau = h/2, exact d'Alembert reference")


# --------------------------------------------------------------------------
# 4. sharpness constants

@pytest.mark.parametrize("j", [0, 1, 2])
def test_acceptance_4_sharpness_constants(j):
    from wavecompact.experiments import run_sharpness
    cfg = config_from_dict({
        "kind": "sharpness",
        "mesh": {"X": math.pi, "T": math.pi, "N": 512, "M": 1024, "refinements": 2},
        "data": {"harmonic": {"j": j}},
        "alpha": 2.0,
    })
    result = run_sharpness(cfg, emit=False)
    ratios = [r.ratio for r in result.rows]
    monotone = all(abs(1 - b) <= abs(1 - a) + 1e-12 for a, b in zip(ratios, ratios[1:]))
    in_band = 0.75 <= ratios[-1] <= 1.25
    _report(f"4 sharpness constants (j={j})", monotone and in_band,
            f"ratios {[f'{r:.4f}' for r in ratios]} approach 1 monotonically, "
            f"final in [0.75, 1.25]")


# --------------------------------------------------------------------------
# 5. stability bounds as numerical inequalities

def test_acceptance_5_stability_bounds():
    rng = np.random.default_rng(2024)
    slack = 1e-11
    violations = []
    for n in (16, 32, 64):
        mesh = build_mesh(math.pi, math.pi, n, 2 * n)
        datas = [random_dataspec(rng, math.pi) for _ in range(20)]
        for trial, ((lhs, rhs), (lhs2, rhs2)) in enumerate(stability_bound_sides(mesh, datas)):
            if lhs > rhs * (1 + slack):
                violations.append(f"energy bound N={n} trial={trial}")
            if lhs2 > rhs2 * (1 + slack):
                violations.append(f"data-norm bound N={n} trial={trial}")
        for trial in range(100):
            vp, vc = mesh.zeros(), mesh.zeros()
            vp[1:-1] = rng.standard_normal(mesh.N - 1)
            vc[1:-1] = rng.standard_normal(mesh.N - 1)
            m1, m2 = energy_lower_bound_margins(mesh, vp, vc)
            ref = max(1.0, abs(m1), abs(m2))
            if m1 < -slack * ref or m2 < -slack * ref:
                violations.append(f"lower bound N={n} trial={trial}")
    _report("5 stability bounds", not violations,
            f"20 random data sets and 100 random pairs per mesh, N in (16, 32, 64); "
            f"violations: {violations or 'none'}")


# --------------------------------------------------------------------------
# 6. dispersion expansion

def test_acceptance_6_dispersion_expansion():
    per_mesh_c = {}
    nu_band_ok = True
    for n in (64, 128, 256):
        mesh = build_mesh(math.pi, math.pi, n, 2 * n)
        worst = 0.0
        for k in range(1, int(math.isqrt(n)) + 1):
            rec = dispersion(k, mesh)
            remainder = abs(rec.mu_k - k + k ** 5 * rec.nu_h)
            worst = max(worst, remainder / (k ** 7 * mesh.h ** 6))
        per_mesh_c[n] = worst
        rec = dispersion(1, mesh)
        if not (mesh.eps0 ** 2 * mesh.h ** 4 / 2.0 <= 480.0 * rec.nu_h <= mesh.h ** 4):
            nu_band_ok = False
    fitted_c = max(per_mesh_c.values())
    mesh_independent = fitted_c / min(per_mesh_c.values()) < 2.0
    _report("6 dispersion expansion", mesh_independent and nu_band_ok,
            f"|mu_k - k + k^5 nu| <= C k^7 h^6 with fitted C = {fitted_c:.3e} "
            f"valid across N in (64, 128, 256), k <= sqrt(N); nu band holds")


# --------------------------------------------------------------------------
# 7. operator and property suite

def test_acceptance_7_operator_properties():
    rng = np.random.default_rng(7)
    tol = 1e-11
    failures = []
    for n in (8, 64, 256):
        mesh = build_mesh(math.pi, math.pi, n, 4 * n)
        x = mesh.nodes()
        # eigen-relation
        for k in (1, n // 2, n - 1):
            w = np.sin(k * x)
            w[0] = w[-1] = 0.0
            lam = (2.0 / mesh.h * math.sin(k * mesh.h / 2.0)) ** 2
            got = apply_spatial("laplacian", w, mesh)
            if np.max(np.abs(got[1:-1] + lam * w[1:-1])) > tol * max(1.0, lam):
                failures.append(f"eigen-relation N={n} k={k}")
        for trial in range(10):
            w = mesh.zeros()
            w[1:-1] = rng.standard_normal(mesh.N - 1)
            l2_sq = space_norm(w, "l2", mesh) ** 2
            # operator inequalities
            num_form = float(np.sum(apply_spatial("numerov", w, mesh)[1:-1]
                                    * w[1:-1]) * mesh.h)
            mass_sq = space_norm(w, "mass", mesh) ** 2
            stiff_sq = space_norm(w, "stiffness", mesh) ** 2
            if not (2 / 3 * l2_sq * (1 - tol) <= num_form <= l2_sq * (1 + tol)):
                failures.append(f"numerov bounds N={n}")
            if not (1 / 3 * l2_sq * (1 - tol) <= mass_sq <= l2_sq * (1 + tol)):
                failures.append(f"mass bounds N={n}")
            if not (0.0 < stiff_sq <= 4.0 / mesh.h ** 2 * l2_sq * (1 + tol)):
                failures.append(f"stiffness bounds N={n}")
            # numerov = mass - (h^2/12) laplacian
            lhs = apply_spatial("numerov", w, mesh)
            rhs = (apply_spatial("mass", w, mesh)
                   - mesh.h ** 2 / 12.0 * apply_spatial("laplacian", w, mesh))
            scale = max(1.0, float(np.max(np.abs(lhs))))
            if np.max(np.abs(lhs - rhs)) > tol * scale:
                failures.append(f"operator identity N={n}")
            # summation by parts
            if abs(space_norm(w, "stiffness", mesh) - space_norm(w, "diff_l2", mesh)) \
                    > tol * max(1.0, space_norm(w, "diff_l2", mesh)):
                failures.append(f"summation by parts N={n}")
            # solve round trips, both orders
            r1 = solve_implicit(apply_implicit(w, mesh), mesh)
            r2 = apply_implicit(solve_implicit(w, mesh), mesh)
            wmax = max(1.0, float(np.max(np.abs(w))))
            if np.max(np.abs(r1 - w)) > tol * wmax or np.max(np.abs(r2 - w)) > tol * wmax:
                failures.append(f"solve round trip N={n}")
    _report("7 operator properties", not failures,
            f"eigen-relation, operator bounds, identities, round trips at "
            f"N in (8, 64, 256), tol 1e-11; failures: {failures or 'none'}")
