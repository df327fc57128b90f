"""Descriptors and hat averages against independent quadrature oracles."""

import math
from fractions import Fraction

import numpy as np
import numpy.polynomial.polynomial as npoly
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from wavecompact.data import (DataSpec, Forcing, Profile, TimeProfile, average_qh,
                              average_qtau, build_fh, build_u1h, extension_sampler,
                              hat_average_factor, hat_profile, profile_h01_norm,
                              profile_l2_norm, quad_spline_profile, sample_nodes,
                              step_profile, time_l1_norm)
from wavecompact.errors import ConfigurationError, ContractViolation
from wavecompact.grid import build_mesh, space_norm
from wavecompact.operators import stencil
from wavecompact.reference import dalembert_reference
from wavecompact.scheme import prepare_inputs, stack_inputs

from _sine_analysis import sine_coefficients

MESH = build_mesh(math.pi, math.pi, 8, 32)


def _qh_oracle(func, mesh):
    """(q_h w)_i by adaptive quadrature of w against the hats."""
    out = mesh.zeros()
    x = mesh.nodes()
    for i in range(1, mesh.N):
        hat = lambda s: max(1.0 - abs(s / mesh.h - i), 0.0)
        val, _ = quad(lambda s: func(s) * hat(s), x[i - 1], x[i + 1],
                      points=[x[i]], limit=200)
        out[i] = val / mesh.h
    return out


# --------------------------------------------------------------------------
# profiles

def test_profile_validation():
    with pytest.raises(ConfigurationError):
        Profile.harmonic_mode(0, math.pi)
    with pytest.raises(ConfigurationError):
        Profile.piecewise_poly((0.0, 0.5), ((1.0,), (2.0,)))  # count mismatch
    with pytest.raises(ConfigurationError):
        Profile.piecewise_poly((0.1, 0.5, 1.0), ((1.0,), (2.0,)))  # must start at 0
    with pytest.raises(ConfigurationError, match="breakpoints"):
        Profile.piecewise_poly((), ((1.0,),))
    with pytest.raises(ConfigurationError, match="breakpoints"):
        Profile.piecewise_poly((1.0,), ())
    with pytest.raises(ConfigurationError, match="pieces"):
        Profile.piecewise_poly((0.0, 0.5, 1.0), ((1.0,), ()))
    # non-finite entries are refused where they enter, naming the entry;
    # finite but huge ones stay accepted
    nan, inf = math.nan, math.inf
    for make, what in [
            (lambda: Profile.sine_series((1.0,), nan), "domain length"),
            (lambda: Profile.harmonic_mode(1, inf), "domain length"),
            (lambda: Profile.sine_series((1.0, -inf), 1.0), "profile coefficients"),
            (lambda: Profile.piecewise_poly((0.0, nan), ((1.0,),)), "profile breakpoints"),
            (lambda: Profile.piecewise_poly((0.0, nan, 1.0), ((1.0,), (2.0,))),
             "profile breakpoints"),
            (lambda: Profile.piecewise_poly((0.0, 1.0), ((1.0, nan),)), "profile pieces"),
            (lambda: TimeProfile.harmonic_sin(nan), "time profile omega"),
            (lambda: TimeProfile.polynomial((0.0, inf)), "time profile coefficients")]:
        with pytest.raises(ConfigurationError, match=f"^{what} must be"):
            make()
    assert Profile.sine_series((1e308,), 1e308).coeffs == (1e308,)
    assert Profile.piecewise_poly((0.0, 1.0), ((1e308, -1e308),)).pieces == ((1e308, -1e308),)


def test_piecewise_node_convention():
    step = Profile.piecewise_poly((0.0, 0.5, 1.0), ((1.0,), (-1.0,)))
    assert step(np.array([0.25]))[0] == 1.0
    assert step(np.array([0.75]))[0] == -1.0
    assert step(np.array([0.5]))[0] == 0.0  # a jump is the mean of its sides


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(0.01, 2.0), min_size=1, max_size=5), st.data())
def test_piecewise_eval_has_the_bits_of_polyval_per_piece(widths, data):
    # one Horner loop over a zero-padded coefficient table: the leading zeros
    # of a shorter piece leave npoly.polyval's bits
    breakpoints = np.concatenate(([0.0], np.cumsum(widths)))
    coeff = st.floats(-1e3, 1e3)
    pieces = [tuple(data.draw(st.lists(coeff, min_size=1, max_size=6))) for _ in widths]
    profile = Profile.piecewise_poly(breakpoints, pieces)
    b = profile.breakpoints
    x = np.array(data.draw(st.lists(st.floats(0.0, b[-1]), min_size=1, max_size=40)))
    x = x[[all(abs(xi - bj) > 1e-13 * profile.X for bj in b[1:-1]) for xi in x]]
    expected = [npoly.polyval(xi, pieces[max(p for p in range(len(pieces)) if b[p] <= xi)])
                for xi in x]
    assert np.array_equal(profile(x), np.array(expected, dtype=float))


def test_harmonic_mode_is_a_one_coefficient_sine_series():
    # at X = pi, sqrt(X/2) sqrt(2/X) is exactly 1: the series reproduces the
    # direct sin(pi k x / X) arithmetic of a single mode bit for bit
    X = math.pi
    mesh = build_mesh(X, X, 16, 64)
    x = mesh.nodes()
    for k in range(1, 8):
        w = Profile.harmonic_mode(k, X)
        assert w.form == "sine_series"
        assert w == Profile.sine_series([0.0] * (k - 1) + [math.sqrt(X / 2)], X)
        assert sample_nodes(w, mesh).tobytes() == np.sin(np.pi * k * x / X).tobytes()
        omega = np.pi * k / X
        qh = hat_average_factor(omega * mesh.h) * np.sin(omega * x)
        qh[0] = qh[-1] = 0.0
        assert average_qh(w, mesh).tobytes() == qh.tobytes()
        one_hot = np.zeros(9)
        one_hot[k - 1] = np.sqrt(X / 2.0)
        assert sine_coefficients(w, 9).tobytes() == one_hot.tobytes()


def test_dataspec_requires_shared_domain():
    with pytest.raises(ConfigurationError):
        DataSpec(u0=Profile.zero(1.0), u1=Profile.zero(2.0))


# --------------------------------------------------------------------------
# q_h

def test_qh_of_constant_is_one():
    one = Profile.piecewise_poly((0.0, MESH.X), ((1.0,),))
    got = average_qh(one, MESH)
    np.testing.assert_allclose(got[1:-1], 1.0, rtol=1e-14)
    assert got[0] == got[-1] == 0.0


def test_qh_sine_eigenfactor_example():
    # X = pi, N = 4, k = 1: factor (sin(h/2)/(h/2))^2 with h = pi/4 is ~0.94965
    mesh = build_mesh(math.pi, math.pi, 4, 16)
    got = average_qh(Profile.harmonic_mode(1, math.pi), mesh)
    factor = (math.sin(mesh.h / 2) / (mesh.h / 2)) ** 2
    assert factor == pytest.approx(0.9496412, abs=5e-8)
    np.testing.assert_allclose(got, factor * np.sin(mesh.nodes()), atol=1e-14)
    # cross-check by quadrature
    oracle = _qh_oracle(math.sin, mesh)
    np.testing.assert_allclose(got[1:-1], oracle[1:-1], rtol=1e-10)


def test_qh_piecewise_step_exact_integration():
    # unit step at X/2: nodes with full one-sided support give 0 or 1
    mesh = build_mesh(math.pi, math.pi, 8, 32)
    step = Profile.piecewise_poly((0.0, math.pi / 2, math.pi), ((0.0,), (1.0,)))
    got = average_qh(step, mesh)
    oracle = _qh_oracle(lambda s: 0.0 if s < math.pi / 2 else 1.0, mesh)
    np.testing.assert_allclose(got[1:-1], oracle[1:-1], atol=1e-12)
    assert np.all(got[1:4] == 0.0)      # fully left of the jump
    np.testing.assert_allclose(got[5:-1], 1.0)  # fully right


def _antiderivative(w):
    """The polyint pieces of extension_sampler's V1, as a profile."""
    pieces, value = [], 0.0
    for lo, hi, piece in zip(w.breakpoints, w.breakpoints[1:], w.pieces):
        pieces.append(npoly.polyint(piece, k=value, lbnd=lo))
        value = npoly.polyval(hi, pieces[-1])
    return Profile.piecewise_poly(w.breakpoints, pieces)


def _hat_averages_by_gauss_loop(w, antiderivative, start, count, h):
    """extension_sampler's hat averages by 8-node Gauss-Legendre panels, cell
    by cell: the cells [y - h, y] and [y, y + h] split at the breaks of W."""
    W, X = (_antiderivative(w) if antiderivative else w), w.X
    sign = 1.0 if antiderivative else -1.0
    gn, gw = np.polynomial.legendre.leggauss(8)
    periods = 2.0 * X * np.arange(math.floor((start - h) / (2.0 * X)) - 1,
                                  math.ceil((start + h * count) / (2.0 * X)) + 2)
    breaks = np.concatenate([np.add.outer(periods, W.breakpoints),
                             np.add.outer(periods, -np.array(W.breakpoints))]).ravel()

    def extension(x):  # W(-x) = sign W(x), 2X-periodic
        r = np.mod(x, 2.0 * X)
        return np.where(r > X, sign, 1.0) * W(np.where(r > X, 2.0 * X - r, r))

    out = np.empty(count)
    for j in range(count):
        y, total = start + h * j, 0.0
        for lo, hi in ((y - h, y), (y, y + h)):
            inside = np.sort(breaks[(breaks > lo) & (breaks < hi)])
            for a, b in zip(np.concatenate([[lo], inside]), np.concatenate([inside, [hi]])):
                x = 0.5 * (a + b) + 0.5 * (b - a) * gn
                total += 0.5 * (b - a) * np.sum(extension(x) * (h - np.abs(x - y)) * gw)
        out[j] = total / (h * h)
    return out


def _polymul(p, q):
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def _exact_hat_average(w, sign, y, h):
    """(1/h^2) int W(x) (h - |x - y|) dx in rational arithmetic of the floats
    w, y and h, for W the 2X-periodic extension of w with W(-x) = sign W(x)."""
    X, y, h = Fraction(w.X), Fraction(y), Fraction(h)
    bps = [Fraction(b) for b in w.breakpoints]
    cuts = {y - h, y, y + h}
    for k in range(math.floor((y - h) / (2 * X)) - 1, math.ceil((y + h) / (2 * X)) + 2):
        cuts.update(e for b in bps for e in (2 * X * k + b, 2 * X * k - b) if y - h < e < y + h)
    cuts, total = sorted(cuts), Fraction(0)
    for lo, hi in zip(cuts, cuts[1:]):
        k = math.floor((lo + hi) / (4 * X))  # W(x) = s p(r), r = s x + c on [lo, hi]
        s, c = (1, -2 * X * k) if (lo + hi) / 2 - 2 * X * k <= X else (-1, 2 * X * (k + 1))
        r = s * (lo + hi) / 2 + c
        piece, power, p = w.pieces[max(i for i, b in enumerate(bps[:-1]) if b <= r)], [1], [0]
        for a in piece:  # p(s x + c)
            p = [u + Fraction(a) * v for u, v in zip(p + [0] * (len(power) - len(p)), power)]
            power = _polymul(power, [c, s])
        weight = [h - y, 1] if lo < y else [h + y, -1]  # h - |x - y|
        total += (1 if s == 1 else sign) * sum(
            a * (hi ** (n + 1) - lo ** (n + 1)) / (n + 1)
            for n, a in enumerate(_polymul(p, weight)))
    return total / (h * h)


def _extensions(X):
    """(w, antiderivative) of U0 and V1 of both presets, and of one cubic piece."""
    cubic = Profile.piecewise_poly((0.0, X), ((0.5, -1.25, 0.75, -0.125),))
    return [(hat_profile(X), False), (step_profile(X), True), (quad_spline_profile(X), False),
            (hat_profile(X), True), (cubic, False), (cubic, True)]


def test_hat_averages_equal_their_rational_value():
    # X = 3, h = 1/16: every break, node and h is a binary fraction, so the
    # hat averages of U0 and V1 at the nodes around each break, between them
    # and two periods on are exact rationals of the float coefficients
    X, n = 3.0, 48
    h = X / n
    for w, antiderivative in _extensions(X):
        W = _antiderivative(w) if antiderivative else w
        for start, count in ((-2.0 * h, 5), (X / 2.0 - 2.0 * h, 5), (X - 2.0 * h, 5), (0.75, 4),
                             (4.0 * X - 2.0 * h, 5)):
            got = extension_sampler(w, antiderivative, h)[1](start, count)
            want = np.array([float(_exact_hat_average(W, 1 if antiderivative else -1,
                                                      start + h * j, h))
                             for j in range(count)])
            assert np.all(np.abs(got - want) <= 1e-15 * np.maximum(1.0, np.abs(want)))


def test_hat_averages_equal_the_gauss_loop_at_n_2048():
    # windows of 16 averages around each break of W on [0, X], and one far away
    X, n = math.pi, 2048
    h = X / n
    for w, antiderivative in _extensions(X):
        for start in (-8 * h, X / 2 - 8 * h, X - 8 * h, 17.5):
            got = extension_sampler(w, antiderivative, h)[1](start, 16)
            want = _hat_averages_by_gauss_loop(w, antiderivative, start, 16, h)
            assert np.all(np.abs(got - want) <= 1e-11 * np.maximum(1.0, np.abs(want)))


def test_qh_of_a_degree_20_piece_is_exact():
    # x^20 on (0, 2) against its q_h in rational arithmetic: the hat moments
    # are exact at any degree (8 fixed Gauss nodes miss by 4e-9 relative)
    from fractions import Fraction
    n, mesh = 20, build_mesh(2.0, 1.0, 16, 32)
    h = Fraction(1, 8)

    def moment(a, b, c):  # int_a^b x^n (x - c) dx
        return ((b ** (n + 2) - a ** (n + 2)) / (n + 2)
                - c * (b ** (n + 1) - a ** (n + 1)) / (n + 1))

    exact = [0.0] + [float((moment((i - 1) * h, i * h, (i - 1) * h)
                            - moment(i * h, (i + 1) * h, (i + 1) * h)) / h ** 2)
                     for i in range(1, mesh.N)] + [0.0]
    got = average_qh(Profile.piecewise_poly((0.0, 2.0), ((0.0,) * n + (1.0,),)), mesh)
    np.testing.assert_allclose(got, exact, rtol=1e-13, atol=0)


def test_qh_overflow_names_the_datum_and_mesh():
    mesh = build_mesh(1.0, 1.0, 4, 16)
    # 1e308 (1 + x) overflows for x > 0.8, inside the last cell only
    bad = Profile.piecewise_poly((0.0, 1.0), ((1e308, 1e308),))
    assert not np.all(np.isfinite(average_qh(bad, mesh)))
    with pytest.raises(ConfigurationError, match=r"^the grid data of u1 are not finite or "
                                                 r"exceed .* on the N=4, M=16 mesh$"):
        prepare_inputs(mesh, DataSpec(u0=Profile.zero(1.0), u1=bad), "v2")


def _drawn_profile(data, n):
    """A piecewise profile on (0, 1) of 1-4 pieces of degree 0-5, its interior
    breakpoints anywhere, on a node of the N = n mesh or within 3 ulps of one,
    which is within 1e-14 h."""
    def breakpoint():
        kind = data.draw(st.sampled_from(["anywhere", "node", "near"]))
        if kind == "anywhere":
            return data.draw(st.floats(0.01, 0.99))
        node = data.draw(st.integers(1, n - 1)) / n
        ulps = data.draw(st.sampled_from([-3, -1, 1, 3])) if kind == "near" else 0
        return node + ulps * np.spacing(node)
    inner = sorted({breakpoint() for _ in range(data.draw(st.integers(0, 3)))})
    coeffs = st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=6)
    return Profile.piecewise_poly((0.0, *inner, 1.0),
                                  [data.draw(coeffs) for _ in range(len(inner) + 1)])


@settings(max_examples=25, deadline=None)
@given(st.sampled_from([4, 8, 16]), st.data())
def test_each_row_of_a_stack_has_the_bits_of_its_call_alone(n, data):
    # rows of different piece counts, breakpoints on and next to nodes, and a
    # degree-20 piece that widens the coefficient table: one call per stack,
    # and each row equals the call on its descriptor alone
    mesh = build_mesh(1.0, 1.0, n, 2 * n)
    profiles = [_drawn_profile(data, n) for _ in range(data.draw(st.integers(1, 4)))]
    times = [TimeProfile.polynomial(data.draw(st.lists(st.floats(-10.0, 10.0), min_size=1,
                                                       max_size=6))) for _ in profiles]
    if data.draw(st.booleans()):
        at = data.draw(st.integers(0, len(profiles)))
        profiles.insert(at, Profile.piecewise_poly((0.0, 0.5, 1.0),
                                                   ((0.0,) * 20 + (1.0,), (2.0,))))
        times.insert(at, TimeProfile.polynomial((0.0,) * 20 + (1.0,)))
    calls = [(average_qh, profiles, mesh), (sample_nodes, profiles, mesh),
             (profile_l2_norm, profiles), (profile_h01_norm, profiles),
             (average_qtau, times, mesh), (time_l1_norm, times, 1.0)]
    for call, stack, *args in calls:
        rows = call(stack, *args)
        for row, descriptor in zip(rows, stack):
            assert np.array_equal(row, call(descriptor, *args))
    # a node on a jump, with no other breakpoint next to it, samples the mean of its sides
    for p, row in zip(profiles, sample_nodes(profiles, mesh)):
        for j, b in enumerate(p.breakpoints[1:-1]):
            alone = np.sum(np.abs(np.subtract(p.breakpoints, b)) < 1e-13) == 1
            if b * n == round(b * n) and alone:
                assert row[round(b * n)] == 0.5 * (npoly.polyval(b, p.pieces[j])
                                                   + npoly.polyval(b, p.pieces[j + 1]))
    # a non-finite row is refused naming the datum and mesh, as its call alone is
    bad = Profile.piecewise_poly((0.0, 1.0), ((1e308, 1e308),))  # overflows for x > 0.8
    at = data.draw(st.integers(0, len(profiles)))
    profiles.insert(at, bad)
    columns = [(DataSpec(u0=Profile.zero(1.0), u1=p), "v2") for p in profiles]
    with pytest.raises(ConfigurationError, match=r"^the grid data of u1 are not finite") as alone:
        prepare_inputs(mesh, columns[at][0], "v2")
    with pytest.raises(ConfigurationError) as stacked:
        stack_inputs(mesh, columns)
    assert str(stacked.value) == str(alone.value)


# --------------------------------------------------------------------------
# node values: W's pieces on its period against the fold onto [0, X]

def _table_values(ws, x):
    """Row b of the piecewise profiles ws at x (broadcast against the rows):
    one Horner loop over their zero-padded coefficient table, gathered by
    piece, and within 1e-13 X of an interior breakpoint the mean of its two
    sides there, the rightmost such breakpoint's."""
    X, P = ws[0].X, max(len(w.pieces) for w in ws)
    width = max(len(c) for w in ws for c in w.pieces)
    table = np.zeros((width, len(ws), P))
    inner = np.full((P - 1, len(ws)), np.nan)  # NaN compares false
    for b, w in enumerate(ws):
        inner[:len(w.pieces) - 1, b] = w.breakpoints[1:-1]
        for j, c in enumerate(w.pieces):
            table[:len(c), b, j] = c
    table = table.reshape(width, -1)  # piece j of row b at [:, b P + j]
    rows = np.arange(len(ws))[:, None]

    def horner(piece, x):
        out = np.zeros(np.broadcast(piece, x).shape)
        for k in reversed(range(width)):
            out *= x
            out += table[k].take(piece)
        return out
    cuts = [col[rows] for col in inner]
    out = horner(rows * P + sum(x >= cut for cut in cuts), x)
    for j, cut in enumerate(cuts):
        near = np.abs(x - cut) <= 1e-13 * X
        if near.any():
            left = rows * P + j
            np.copyto(out, 0.5 * (horner(left, cut) + horner(left + 1, cut)), where=near)
    return out


def _folded(w, antiderivative, y):
    """W at y by the fold: y reduced mod 2X and reflected onto [0, X], where w
    (V1's pieces with antiderivative set) is _table_values; an odd W is
    negated on the reflected half and zero within 1e-13 X of 0 and X."""
    X = w.X
    r = np.mod(y, 2.0 * X)
    flip = r > X
    r = np.where(flip, 2.0 * X - r, r)
    out = _table_values([_antiderivative(w) if antiderivative else w], r[None])[0]
    if not antiderivative:
        out = np.where(flip, -out, out)
        out[np.minimum(r, X - r) <= 1e-13 * X] = 0.0
    return out


def _same_bits(got, want):
    """Bit for bit, where -0.0 and 0.0 count as one: W's pieces give x + (-x)
    = +0 where the fold negated a +0."""
    return got.shape == want.shape and (got + 0.0).tobytes() == (want + 0.0).tobytes()


def _anchored(w, h):
    """Each edge of W and its mirror, 0, +-X and 2X, points within 1e-13 X of
    each and just outside, and a spread over three periods, as the starts of
    rows of three points, step h."""
    X = w.X
    anchors = np.array(sorted({0.0, -X, X, 2.0 * X, *w.breakpoints,
                               *(-b for b in w.breakpoints)}))
    offsets = X * np.array([0.0, 1e-14, -1e-14, 9e-14, -9e-14, 1.1e-13, -1.1e-13, 1e-12])
    return np.concatenate([np.add.outer(anchors, offsets).ravel(),
                           np.nextafter(anchors, np.inf), np.nextafter(anchors, -np.inf),
                           np.linspace(-3.0 * X, 3.0 * X, 61) - 2.0 * h])


def test_node_values_keep_the_bits_of_the_fold():
    # U0 and V1 of both presets and of a step, from W's pieces on its period,
    # equal the fold onto [0, X] at and around every edge, 0, +-X and 2X
    X = math.pi
    h = X / 64
    for w in (hat_profile(X), step_profile(X), quad_spline_profile(X)):
        for antiderivative in (False, True):
            starts = _anchored(w, h)
            got = extension_sampler(w, antiderivative, h)[0](starts, 3)
            want = _folded(w, antiderivative, np.add.outer(starts, h * np.arange(3)))
            assert _same_bits(got, want)
            assert _same_bits(extension_sampler(w, antiderivative, h)[0](starts[7], 3), want[7])


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([4, 8, 16]), st.data())
def test_node_values_of_drawn_data_keep_the_bits_of_the_fold(n, data):
    # drawn pieces with breakpoints on, next to and between nodes: U0, V1 and
    # the node samples of a stack equal the fold, and _table_values, bit for
    # bit.  Pieces narrower than the 2e-13 X of two edges' windows are left
    # out: there the fold takes its rightmost breakpoint's mean, W's pieces
    # the mean of the edge nearest on the point's own side
    profiles = [_drawn_profile(data, n) for _ in range(data.draw(st.integers(1, 3)))]
    assume(all(np.min(np.diff(p.breakpoints)) > 2e-13 for p in profiles))
    mesh = build_mesh(1.0, 1.0, n, 2 * n)
    assert mesh.N * mesh.h <= mesh.X
    for w in profiles:
        for antiderivative in (False, True):
            starts = _anchored(w, mesh.h)
            got = extension_sampler(w, antiderivative, mesh.h)[0](starts, 3)
            want = _folded(w, antiderivative, np.add.outer(starts, mesh.h * np.arange(3)))
            assert _same_bits(got, want)
    assert _same_bits(sample_nodes(profiles, mesh), _table_values(profiles, mesh.nodes()))


def test_a_stack_of_profiles_ending_near_x_reads_each_row():
    # rows of one stack may end within 1e-12 X of each other, as a DataSpec's
    # data may: each row's node samples are within 1e-12 of its call alone
    X = math.pi
    mesh = build_mesh(X, X, 16, 32)
    profiles = [hat_profile(X)] + [Profile.piecewise_poly((0.0, 2.0, X * (1.0 + d)),
                                                          ((1.0,), (-1.0, 0.25)))
                                   for d in (-1e-13, 1e-13)]
    for row, p in zip(sample_nodes(profiles, mesh), profiles):
        np.testing.assert_allclose(row, sample_nodes(p, mesh), rtol=1e-12, atol=0)


def test_qh_laplacian_identity_for_smooth_data():
    # Lap(node samples of w) = q_h(w'') for w vanishing at the ends
    mesh = build_mesh(math.pi, math.pi, 16, 64)
    w = Profile.harmonic_mode(2, math.pi)
    lap = stencil("laplacian", sample_nodes(w, mesh), mesh)
    qh_dd = _qh_oracle(lambda s: -4.0 * math.sin(2 * s), mesh)
    np.testing.assert_allclose(lap[1:-1], qh_dd[1:-1], rtol=1e-9, atol=1e-12)


def test_qh_l2_contraction():
    # |q_h w|_h <= |w|_L2 for assorted profiles
    mesh = build_mesh(math.pi, math.pi, 16, 64)
    profiles = [
        Profile.harmonic_mode(3, math.pi),
        Profile.piecewise_poly((0.0, 1.0, math.pi), ((0.3, 1.0), (-2.0, 0.5))),
    ]
    for p in profiles:
        lhs = space_norm(average_qh(p, mesh), "l2", mesh)
        rhs = math.sqrt(quad(lambda s: p(np.array([s]))[0] ** 2, 0, math.pi,
                             points=[1.0], limit=200)[0])
        assert lhs <= rhs * (1 + 1e-10)


# --------------------------------------------------------------------------
# q_tau

def test_qtau_constant_is_one_including_level_zero():
    g = TimeProfile.polynomial((1.0,))
    np.testing.assert_allclose(average_qtau(g, MESH), 1.0, rtol=1e-14)


def test_qtau_linear_level_zero_closed_form():
    # g(t) = t, m = 0, tau = 0.1: (2/tau) int t (1 - t/tau) dt = tau/3
    mesh = build_mesh(1.0, 1.0, 40, 10, eps0=0.5)
    assert mesh.tau == pytest.approx(0.1)
    g = TimeProfile.polynomial((0.0, 1.0))
    level0 = average_qtau(g, mesh)[0]
    assert level0 == pytest.approx(mesh.tau / 3.0, rel=1e-13)
    assert level0 == pytest.approx(0.03333, abs=5e-6)


def test_qtau_harmonic_interior_eigenfactor_and_quadrature():
    omega = 3.0
    g = TimeProfile.harmonic_sin(omega)
    t = MESH.times()
    levels = average_qtau(g, MESH)
    for m in (1, 5, MESH.M - 1):
        got = levels[m]
        factor = (math.sin(omega * MESH.tau / 2) / (omega * MESH.tau / 2)) ** 2
        assert got == pytest.approx(factor * math.sin(omega * t[m]), rel=1e-12)
        hat = lambda s: max(1.0 - abs(s / MESH.tau - m), 0.0)
        ref, _ = quad(lambda s: math.sin(omega * s) * hat(s),
                      t[m - 1], t[m + 1], points=[t[m]], limit=200)
        assert got == pytest.approx(ref / MESH.tau, rel=1e-10)


def test_qtau_harmonic_level_zero_quadrature():
    omega = 2.5
    g = TimeProfile.harmonic_sin(omega)
    ref, _ = quad(lambda s: math.sin(omega * s) * (1.0 - s / MESH.tau),
                  0.0, MESH.tau, limit=200)
    assert average_qtau(g, MESH)[0] == pytest.approx(2.0 * ref / MESH.tau, rel=1e-12)


@pytest.mark.parametrize("y", [1e-12, 1e-9, 1e-6, 1e-3, 0.1, 0.49, 0.51, 1.0])
def test_qtau_harmonic_level_zero_keeps_its_digits(y):
    # 2/y (1 - sin(y)/y), y = omega tau, against its series in rationals
    omega = y / MESH.tau
    got = average_qtau(TimeProfile.harmonic_sin(omega), MESH)[0]
    y = Fraction(omega * MESH.tau)
    want = float(sum(2 * (-1) ** (k + 1) * y ** (2 * k - 1) / math.factorial(2 * k + 1)
                     for k in range(1, 30)))
    assert abs(got - want) <= 1e-14 * abs(want)


@pytest.mark.parametrize("omega", [1e-6, 1e-3, 0.1, 1.0, 3.0])
def test_time_l1_norm_of_a_slow_sine_keeps_its_digits(omega):
    # (1 - cos(omega T)) / omega for omega T < pi, against its series in rationals
    x = Fraction(omega * 1.0)
    want = float(sum((-1) ** (k + 1) * x ** (2 * k) / math.factorial(2 * k)
                     for k in range(1, 30)) / Fraction(omega))
    assert abs(time_l1_norm(TimeProfile.harmonic_sin(omega), 1.0) - want) <= 1e-14 * want


# --------------------------------------------------------------------------
# q_2h

def _q2h_of_u0(w, mesh):
    """q_2h w at the nodes: the exact reference's q_2h view at t = 0 of u0 = w."""
    return dalembert_reference(mesh, DataSpec(u0=w, u1=Profile.zero(w.X))).q2h_values(0)


def test_q2h_zero_and_sine_diagonal():
    assert np.all(_q2h_of_u0(Profile.zero(math.pi), MESH) == 0.0)
    # q_2h is diagonal on the sine basis: (lam_k/k^2)(1 + h^2 lam_k / 12)
    k = 2
    got = _q2h_of_u0(Profile.harmonic_mode(k, math.pi), MESH)
    lam = (2.0 / MESH.h * math.sin(k * MESH.h / 2.0)) ** 2
    factor = lam / k ** 2 * (1.0 + MESH.h ** 2 * lam / 12.0)
    np.testing.assert_allclose(got[1:-1], factor * np.sin(k * MESH.nodes())[1:-1],
                               rtol=1e-12, atol=1e-15)


def test_q2h_fourth_order_on_smooth_profile():
    # |w - q_2h w|_h = O(h^4): ratios across N in {8,16,32} near 16
    errs = []
    for n in (8, 16, 32):
        mesh = build_mesh(math.pi, math.pi, n, 4 * n)
        w = Profile.harmonic_mode(1, math.pi)
        diff = sample_nodes(w, mesh) - _q2h_of_u0(w, mesh)
        diff[0] = diff[-1] = 0.0
        errs.append(space_norm(diff, "l2", mesh))
    assert errs[0] / errs[1] == pytest.approx(16.0, rel=0.1)
    assert errs[1] / errs[2] == pytest.approx(16.0, rel=0.05)


# --------------------------------------------------------------------------
# u1h variants

@pytest.mark.parametrize("variant,a1k_formula", [
    ("v0", lambda lam, k, h, tau: 1.0 - (h ** 2 + tau ** 2) / 12.0 * lam),
    ("v1", lambda lam, k, h, tau: lam / k ** 2 * (1.0 - tau ** 2 * k ** 2 / 12.0)),
    ("v2", lambda lam, k, h, tau: lam / k ** 2 * (1.0 - tau ** 2 * lam / 12.0)),
])
def test_build_u1h_sine_multipliers(variant, a1k_formula):
    mesh = build_mesh(math.pi, math.pi, 8, 32)
    k = 3
    got = build_u1h(variant, Profile.harmonic_mode(k, math.pi), mesh)
    lam = (2.0 / mesh.h * math.sin(k * mesh.h / 2.0)) ** 2
    expected = a1k_formula(lam, k, mesh.h, mesh.tau) * np.sin(k * mesh.nodes())
    np.testing.assert_allclose(got[1:-1], expected[1:-1], rtol=1e-12)


def test_build_u1h_zero_everywhere():
    for variant in ("v0", "v1", "v2"):
        assert np.all(build_u1h(variant, Profile.zero(math.pi), MESH) == 0.0)


def test_build_u1h_v2_operator_vs_formula():
    # numeric multiplier extracted from the grid function vs the closed form
    mesh = build_mesh(math.pi, math.pi, 8, 32)
    k = 3
    got = build_u1h("v2", Profile.harmonic_mode(k, math.pi), mesh)
    shape = np.sin(k * mesh.nodes())
    extracted = got[1] / shape[1]
    lam = (2.0 / mesh.h * math.sin(k * mesh.h / 2.0)) ** 2
    formula = lam / k ** 2 * (1.0 - mesh.tau ** 2 * lam / 12.0)
    assert extracted == pytest.approx(formula, rel=1e-12)
    np.testing.assert_allclose(got[1:-1], extracted * shape[1:-1], rtol=1e-12)


def test_build_u1h_rejects_unknown_variant():
    with pytest.raises(ContractViolation):
        build_u1h("v3", Profile.zero(math.pi), MESH)


# --------------------------------------------------------------------------
# forcing slices

def test_build_fh_zero_and_separable_product():
    # f = sin(kx) * 1: every slice is (lam_k / k^2) sin(k x)
    k = 2
    f = Forcing(space=Profile.harmonic_mode(k, math.pi),
                time=TimeProfile.polynomial((1.0,)))
    levels = build_fh(f, MESH)
    fh = np.multiply.outer(levels.time, levels.space)
    lam = (2.0 / MESH.h * math.sin(k * MESH.h / 2.0)) ** 2
    expected = lam / k ** 2 * np.sin(k * MESH.nodes())
    for m in range(MESH.M):
        np.testing.assert_allclose(fh[m][1:-1], expected[1:-1], rtol=1e-12)


def test_build_fh_harmonic_product_against_2d_quadrature():
    # f = sin(kx) sin((k-1)t), k = 2: spot-check three (i, m) cells by 2d quadrature
    mesh = build_mesh(math.pi, math.pi, 16, 16, eps0=0.5)
    k = 2
    f = Forcing(space=Profile.harmonic_mode(k, math.pi),
                time=TimeProfile.harmonic_sin(k - 1.0))
    levels = build_fh(f, mesh)
    fh = np.multiply.outer(levels.time, levels.space)
    x, t = mesh.nodes(), mesh.times()
    rng = np.random.default_rng(9)
    for i, m in zip(rng.integers(1, mesh.N, 3), rng.integers(1, mesh.M - 1, 3)):
        hat_x = lambda s: max(1.0 - abs(s / mesh.h - i), 0.0)
        hat_t = lambda s: max(1.0 - abs(s / mesh.tau - m), 0.0)
        sx, _ = quad(lambda s: math.sin(k * s) * hat_x(s), x[i - 1], x[i + 1],
                     points=[x[i]], limit=200)
        st, _ = quad(lambda s: math.sin((k - 1) * s) * hat_t(s), t[m - 1], t[m + 1],
                     points=[t[m]], limit=200)
        assert fh[m][i] == pytest.approx(sx / mesh.h * st / mesh.tau, rel=1e-10)


# --------------------------------------------------------------------------
# sine analysis

def test_sine_coefficients_orthogonality():
    w = Profile.harmonic_mode(1, math.pi)
    c = sine_coefficients(w, 5)
    assert c[0] == pytest.approx(math.sqrt(math.pi / 2.0), rel=1e-14)
    np.testing.assert_allclose(c[1:], 0.0, atol=1e-15)


def test_sine_coefficients_of_indicator():
    # w = 1 on (0, pi): sqrt(2/pi) (1 - cos(k pi)) / k
    one = Profile.piecewise_poly((0.0, math.pi), ((1.0,),))
    c = sine_coefficients(one, 8)
    for k in range(1, 9):
        expected = math.sqrt(2.0 / math.pi) * (1.0 - math.cos(k * math.pi)) / k
        assert c[k - 1] == pytest.approx(expected, abs=1e-13)


def test_sine_coefficients_hat_decay_and_quadrature():
    hat = Profile.piecewise_poly((0.0, math.pi / 2, math.pi),
                                 ((0.0, 2.0 / math.pi), (2.0, -2.0 / math.pi)))
    c = sine_coefficients(hat, 32)
    for k in (1, 3, 7, 15, 31):
        ref, _ = quad(lambda s: hat(np.array([s]))[0] * math.sin(k * s),
                      0, math.pi, points=[math.pi / 2], limit=200)
        assert c[k - 1] == pytest.approx(math.sqrt(2.0 / math.pi) * ref, abs=1e-12)
    np.testing.assert_allclose(c[1::2], 0.0, atol=1e-14)  # even modes vanish
    odd = np.abs(c[::2])
    ks = np.arange(1, 33, 2)
    np.testing.assert_allclose(odd * ks ** 2, odd[0], rtol=1e-10)  # ~ k^-2


def test_sine_series_round_trip():
    coeffs = (0.3, -1.2, 0.0, 0.7)
    w = Profile.sine_series(coeffs, math.pi)
    np.testing.assert_allclose(sine_coefficients(w, 4), coeffs, atol=1e-15)
    np.testing.assert_allclose(sine_coefficients(w, 6)[4:], 0.0)


# --------------------------------------------------------------------------
# a sine series is its nonzero modes

def test_sine_series_keeps_exactly_its_nonzero_modes():
    dense = (0.0, 0.3, 0.0, 0.0, -1.2, -0.0, 0.7)
    w = Profile.sine_series(dense, math.pi)
    assert (w.modes, w.coeffs) == ((2, 5, 7), (0.3, -1.2, 0.7))
    assert w == Profile.sine_series((0.3, -1.2, 0.7), math.pi, (2, 5, 7))
    assert w == Profile.sine_series((0.0, 0.3, -1.2, 0.7), math.pi, np.array([1, 2, 5, 7]))
    assert Profile.sine_series((0.0, -0.0), math.pi) == Profile.zero(math.pi)
    assert Profile.zero(math.pi).modes == ()
    # the stored form is the canonical one: sorted modes >= 1, integers, nonzero amplitudes
    for modes, coeffs in [((2, 1), (1.0, 1.0)), ((0,), (1.0,)), ((3, 3), (1.0, 1.0)),
                          ((1,), (0.0,)), ((1, 2), (1.0,)), ((1.5,), (1.0,)), (None, (1.0,))]:
        with pytest.raises(ConfigurationError, match="strictly increasing integer modes"):
            Profile(X=math.pi, form="sine_series", modes=modes, coeffs=coeffs)


def test_sparse_sine_series_evaluate_with_the_bits_of_the_dense_loop():
    rng = np.random.default_rng(11)
    x = np.concatenate([np.linspace(0.0, 2.5, 41), rng.uniform(-3.0, 6.0, 40)])
    for _ in range(20):
        X = rng.uniform(0.5, 4.0)
        modes = np.sort(rng.choice(np.arange(1, 300), size=rng.integers(1, 8), replace=False))
        dense = np.zeros(modes[-1])
        dense[modes - 1] = rng.standard_normal(len(modes))
        w = Profile.sine_series(dense, X)
        assert w.modes == tuple(modes.tolist())
        # the former dense loop, which skipped the zero coefficients
        expected = np.zeros_like(x)
        root = np.sqrt(2.0 / X)
        for k, c in enumerate(dense.tolist(), start=1):
            if c != 0.0:
                expected += c * root * np.sin(np.pi * k * x / X)
        assert w(x).tobytes() == expected.tobytes()


def test_a_high_mode_holds_nothing_of_the_size_of_its_index():
    import tracemalloc

    from wavecompact.oracle import HarmonicData, harmonic_dataspec
    mesh = build_mesh(math.pi, math.pi, 16, 32)
    harmonic_dataspec(HarmonicData(j=2, k=3), mesh)  # first calls fill lazy caches
    tracemalloc.start()
    try:
        w = Profile.harmonic_mode(2 ** 40, math.pi)
        data = harmonic_dataspec(HarmonicData(j=2, k=2 ** 40), mesh)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024, peak
    assert w.modes == data.f.space.modes == (2 ** 40,)
