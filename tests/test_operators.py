"""Spatial operators and the implicit solver against dense linear algebra."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from wavecompact import operators
from wavecompact.data import DataSpec, Forcing, Profile, TimeProfile
from wavecompact.errors import ContractViolation, InvariantError
from wavecompact.experiments import stability_bound_sides
from wavecompact.grid import build_mesh, space_norm
from wavecompact.operators import (apply_implicit, apply_spatial, mass_inv_half_norm,
                                   solve_implicit, solve_mass, stencil)
from wavecompact.scheme import evolve

MESH = build_mesh(math.pi, math.pi, 8, 32)


def _dirichlet(values):
    w = np.asarray(values, dtype=float)
    w[0] = w[-1] = 0.0
    return w


def _dense_matrix(kind, mesh):
    n = mesh.N - 1
    out = np.zeros((n, n))
    for i in range(n):
        e = mesh.zeros()
        e[i + 1] = 1.0
        out[:, i] = apply_spatial(kind, e, mesh)[1:-1]
    return out


@pytest.mark.parametrize("k", range(1, 8))
def test_laplacian_eigen_relation(k):
    # -Lap sin(kx) = lambda_k sin(kx) with lambda_k = (2/h sin(kh/2))^2
    w = _dirichlet(np.sin(k * MESH.nodes()))
    lam = (2.0 / MESH.h * math.sin(k * MESH.h / 2.0)) ** 2
    got = apply_spatial("laplacian", w, MESH)
    np.testing.assert_allclose(got[1:-1], -lam * w[1:-1], rtol=1e-12, atol=1e-13)


def test_numerov_identity_on_random_input():
    # numerov = I + (h^2/12) laplacian
    rng = np.random.default_rng(0)
    w = _dirichlet(rng.standard_normal(MESH.N + 1))
    lhs = apply_spatial("numerov", w, MESH)
    rhs = w + MESH.h ** 2 / 12.0 * apply_spatial("laplacian", w, MESH)
    rhs[0] = rhs[-1] = 0.0
    np.testing.assert_allclose(lhs, rhs, rtol=1e-14, atol=1e-14)


def test_numerov_mass_laplacian_identity():
    # numerov = mass - (h^2/12) laplacian, exactly on random inputs
    rng = np.random.default_rng(1)
    for mesh in (MESH, build_mesh(1.0, 1.0, 64, 128)):
        w = _dirichlet(rng.standard_normal(mesh.N + 1))
        lhs = apply_spatial("numerov", w, mesh)
        rhs = (apply_spatial("mass", w, mesh)
               - mesh.h ** 2 / 12.0 * apply_spatial("laplacian", w, mesh))
        np.testing.assert_allclose(lhs, rhs, rtol=1e-14, atol=1e-14)


def test_mass_stencil_near_boundary():
    # w = (0,1,1,...,1,0): rows adjacent to the boundary give 5/6, deep interior 1
    w = np.ones(MESH.N + 1)
    w[0] = w[-1] = 0.0
    got = apply_spatial("mass", w, MESH)
    assert got[1] == pytest.approx(5.0 / 6.0)
    assert got[-2] == pytest.approx(5.0 / 6.0)
    np.testing.assert_allclose(got[2:-2], 1.0)


def test_operators_are_symmetric():
    rng = np.random.default_rng(2)
    for kind in ("numerov", "mass", "laplacian"):
        v = _dirichlet(rng.standard_normal(MESH.N + 1))
        w = _dirichlet(rng.standard_normal(MESH.N + 1))
        av = apply_spatial(kind, v, MESH)
        aw = apply_spatial(kind, w, MESH)
        left = np.sum(av[1:-1] * w[1:-1]) * MESH.h
        right = np.sum(v[1:-1] * aw[1:-1]) * MESH.h
        assert left == pytest.approx(right, rel=1e-12)


def test_apply_spatial_rejects_non_dirichlet():
    with pytest.raises(ContractViolation):
        apply_spatial("mass", np.ones(MESH.N + 1), MESH)
    # the raw stencil accepts it (needed for pointwise data assembly)
    stencil("mass", np.ones(MESH.N + 1), MESH)


def test_solve_implicit_zero_and_round_trip():
    assert np.all(solve_implicit(MESH.zeros(), MESH) == 0.0)
    rng = np.random.default_rng(3)
    for mesh in (MESH, build_mesh(2.0, 1.5, 64, 256, a=0.7, eps0=0.8)):
        w = _dirichlet(rng.standard_normal(mesh.N + 1))
        round1 = solve_implicit(apply_implicit(w, mesh), mesh)
        np.testing.assert_allclose(round1, w, rtol=1e-12, atol=1e-12)
        round2 = apply_implicit(solve_implicit(w, mesh), mesh)
        np.testing.assert_allclose(round2, w, rtol=1e-12, atol=1e-12)


@settings(max_examples=100, deadline=None)
@given(st.integers(3, 64), st.floats(0.5, 4.0), st.floats(0.2, 3.0), st.floats(0.1, 1.0),
       st.integers(0, 64), st.integers(0, 2 ** 32 - 1))
def test_implicit_stencil_is_mass_minus_c_laplacian(N, X, a, eps0, extra_levels, seed):
    # A's stencil and its LDL^T factor read one pair of interior entries; the
    # definition mass - sigma tau^2 a^2 laplacian pins those entries, and the
    # round trip pins the factor to the stencil
    h = X / N
    M = math.ceil(X * a / (h * math.sqrt(1.0 - eps0 ** 2 / 2.0))) + 1 + extra_levels
    mesh = build_mesh(X, X, N, M, a=a, eps0=eps0)
    assume(mesh.stable)
    rng = np.random.default_rng(seed)
    w = _dirichlet(rng.standard_normal(N + 1) * 10.0 ** rng.integers(-3, 4))
    c = mesh.sigma * mesh.tau ** 2 * mesh.a ** 2
    definition = stencil("mass", w, mesh) - c * stencil("laplacian", w, mesh)
    assert np.max(np.abs(apply_implicit(w, mesh) - definition)) <= (
        4 * np.finfo(float).eps * np.max(np.abs(w)))
    r = _dirichlet(rng.standard_normal(N + 1))
    assert np.max(np.abs(apply_implicit(solve_implicit(r, mesh), mesh) - r)) <= (
        1e-13 * np.max(np.abs(r)))


def test_solve_implicit_eigen_identity_and_dense_cross_check():
    # rhs = sin(kx) -> w = sin(kx) / (1 + (tau^2 - h^2) lambda_k / 12) at a = 1
    mesh = build_mesh(math.pi, math.pi, 8, 32)
    k = 3
    rhs = _dirichlet(np.sin(k * mesh.nodes()))
    lam = (2.0 / mesh.h * math.sin(k * mesh.h / 2.0)) ** 2
    symbol = 1.0 + (mesh.tau ** 2 - mesh.h ** 2) * lam / 12.0
    got = solve_implicit(rhs, mesh)
    np.testing.assert_allclose(got[1:-1], rhs[1:-1] / symbol, rtol=1e-12)

    dense = (_dense_matrix("mass", mesh)
             - mesh.sigma * mesh.tau ** 2 * mesh.a ** 2 * _dense_matrix("laplacian", mesh))
    ref = np.linalg.solve(dense, rhs[1:-1])
    np.testing.assert_allclose(got[1:-1], ref, rtol=1e-12)


def test_solve_implicit_residual_contract():
    rng = np.random.default_rng(4)
    mesh = build_mesh(math.pi, math.pi, 256, 1024)
    rhs = _dirichlet(rng.standard_normal(mesh.N + 1))
    w = solve_implicit(rhs, mesh)
    res = apply_implicit(w, mesh) - rhs
    assert np.max(np.abs(res[1:-1])) <= 1e-12 * max(1.0, np.max(np.abs(rhs)))


def test_operators_act_on_each_level_of_a_stack():
    rng = np.random.default_rng(6)
    stack = rng.standard_normal((5, MESH.N + 1))
    stack[:, 0] = stack[:, -1] = 0.0
    for op in (lambda w: stencil("numerov", w, MESH), lambda w: apply_implicit(w, MESH),
               lambda w: solve_implicit(w, MESH), lambda w: solve_mass(w, MESH)):
        assert np.array_equal(op(stack), np.array([op(w) for w in stack]))
    assert mass_inv_half_norm(stack, MESH).tolist() == [
        mass_inv_half_norm(w, MESH) for w in stack]


def test_implicit_matrix_row_dominance():
    # |diag| - 2|off| = min(1/3 + 4s, 1) >= 1/3 for every s > 0
    for mesh in (MESH, build_mesh(1.0, 1.0, 16, 64, a=3.0, eps0=0.5)):
        s = mesh.sigma * mesh.tau ** 2 * mesh.a ** 2 / mesh.h ** 2
        diag = 2.0 / 3.0 + 2.0 * s
        off = abs(1.0 / 6.0 - s)
        assert diag - 2.0 * off >= min(1.0 / 3.0, 1.0) - 1e-15


def test_solve_mass_and_inverse_norm():
    rng = np.random.default_rng(5)
    w = _dirichlet(rng.standard_normal(MESH.N + 1))
    z = solve_mass(w, MESH)
    back = apply_spatial("mass", z, MESH)
    np.testing.assert_allclose(back[1:-1], w[1:-1], rtol=1e-12, atol=1e-13)
    # ||B^-1/2 w|| via dense eigendecomposition
    dense = _dense_matrix("mass", MESH)
    ref = math.sqrt(w[1:-1] @ np.linalg.solve(dense, w[1:-1]) * MESH.h)
    assert mass_inv_half_norm(w, MESH) == pytest.approx(ref, rel=1e-12)
    # sits between |w| and sqrt(3)|w| since 1/3 <= B <= 1
    l2 = space_norm(w, "l2", MESH)
    assert l2 * (1 - 1e-12) <= mass_inv_half_norm(w, MESH) <= math.sqrt(3) * l2 * (1 + 1e-12)


def test_factors_are_cached_per_mesh():
    # the per-mesh factor cache: a mesh no other test builds starts cold
    mesh = build_mesh(math.pi, 1.0471975, 12, 29)
    X = mesh.X
    data = DataSpec(u0=Profile.harmonic_mode(1, X), u1=Profile.harmonic_mode(2, X),
                    f=Forcing(Profile.harmonic_mode(3, X), TimeProfile.polynomial((1.0, -0.5))))

    def misses():
        return (operators._implicit_factor.cache_info().misses,
                operators._mass_factor.cache_info().misses)

    before = misses()
    evolve(mesh, data)
    assert misses() == (before[0] + 1, before[1])
    evolve(mesh, data)
    assert misses() == (before[0] + 1, before[1])
    stability_bound_sides(mesh, [data])  # u1h and fh both go through the mass factor
    assert misses() == (before[0] + 1, before[1] + 1)


@pytest.mark.parametrize("factor, what", [(operators._implicit_factor, "implicit"),
                                          (operators._mass_factor, "mass")])
def test_a_failed_factorization_is_named(monkeypatch, factor, what):
    # the matrices are strictly diagonally dominant, so dpttrf cannot fail on
    # a valid mesh; a failure it reports anyway names the matrix and N
    def failing(d, e, **kwargs):
        return d, e, 2

    monkeypatch.setattr(operators, "dpttrf", failing)
    mesh = build_mesh(math.pi, 1.2345, 11, 37)  # a mesh no other test builds: not cached
    with pytest.raises(InvariantError, match=rf"^the LDL\^T factorization of the {what} "
                                             rf"matrix on the N=11 mesh failed"):
        factor(mesh)


def test_the_lapack_routines_are_scipys_own():
    # the by-path load of _flapack gives the very functions of the public
    # module, so every solve keeps its bits
    from scipy.linalg import lapack

    assert operators.dpttrf is lapack.dpttrf
    assert operators.dpttrs is lapack.dpttrs


def test_the_lapack_loader_falls_back_to_the_public_import(tmp_path):
    from scipy.linalg import lapack

    dpttrf, dpttrs = operators._tridiagonal_lapack(tmp_path)  # no _flapack here
    assert dpttrf is lapack.dpttrf and dpttrs is lapack.dpttrs


def test_stencil_refuses_an_unknown_kind():
    mesh = build_mesh(math.pi, math.pi, 8, 16)
    with pytest.raises(ContractViolation) as refused:
        stencil("gradient", mesh.zeros(), mesh)
    assert str(refused.value) == ("unknown spatial operator 'gradient'; expected one of "
                                  "('numerov', 'mass', 'laplacian')")
