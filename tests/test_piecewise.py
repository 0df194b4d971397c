"""Numeric piecewise machinery: Chebyshev cells, array evaluation, and
the oracles the cells are checked against."""

import math
import random

import numpy as np
import pytest
from numpy.polynomial import chebyshev as cheb
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from secretary_lab.piecewise import (
    ANTI, CHEB_D, CHEB_S, NODES, TO_COEF, PiecewiseFunction, _antiderivative,
)

from oracles import (
    QuadratureError,
    chebyshev_function,
    quadrature,
    restrict,
    scalar_tail,
    scalar_value,
    tail_integral_by_segment,
    values_by_segment,
)


def _two_piece() -> PiecewiseFunction:
    # x on [1/3, 2/3], 4x - 2 on [2/3, 1]: each segment its own cell
    return chebyshev_function(lambda y: y if y < 2 / 3 else 4 * y - 2, [1 / 3, 2 / 3, 1.0])


def over_power(f: PiecewiseFunction, m: int) -> PiecewiseFunction:
    """f(y)/y^m on f's breakpoints."""
    return chebyshev_function(lambda y: f.value(y) / y**m, f.breakpoints)


def _cells(bps, coefs, widths=None) -> PiecewiseFunction:
    """Segment i on [bps[i], bps[i+1]] is the upper 1/widths[i] of its cell
    in t, with the given Chebyshev coefficients."""
    logs = [math.log(b) for b in bps]
    widths = widths or [1.0] * (len(bps) - 1)
    halves = [0.5 * w * (b - a) for w, a, b in zip(widths, logs, logs[1:])]
    return PiecewiseFunction(bps, logs[1:], halves, np.array(coefs).reshape(-1, NODES))


def test_chebyshev_toolkit_matches_numpy():
    """On node values v of a random series a at CHEB_S, TO_COEF @ v is a,
    ANTI @ v is int_s^1 of it and CHEB_D @ v its derivative, by numpy's
    chebyshev module; `_antiderivative` is numpy's chebint but for the
    constant term, which it sets to 0."""
    a = np.random.default_rng(36).standard_normal((NODES, 3))
    v = cheb.chebval(CHEB_S, a).T
    assert np.abs(TO_COEF @ v - a).max() <= 1e-13
    anti = cheb.chebint(a)
    from_s = cheb.chebval(1.0, anti) - cheb.chebval(CHEB_S, anti).T
    assert np.abs(ANTI @ v - from_s).max() <= 1e-13
    d = cheb.chebval(CHEB_S, cheb.chebder(a)).T
    assert np.abs(CHEB_D @ v - d).max() <= 1e-12 * np.abs(d).max()
    mine = _antiderivative(a)
    assert mine.shape == anti.shape and not mine[0].any()
    assert np.abs(mine[1:] - anti[1:]).max() <= 1e-15 * np.abs(anti).max()


def test_piecewise_value_and_outside_zero():
    f = _two_piece()
    assert f.value(0.2) == 0.0
    assert f.value(1.2) == 0.0
    assert f.value(0.5) == pytest.approx(0.5)
    assert f.value(0.9) == pytest.approx(1.6)
    assert f.value(1.0) == pytest.approx(2.0)


def test_piecewise_integral_splits_segments():
    f = _two_piece()
    # int_{1/3}^{2/3} x dx + int_{2/3}^{1} (4x-2) dx
    want = (2 / 3) ** 2 / 2 - (1 / 3) ** 2 / 2 + (2.0 - 2.0) - (2 * (2 / 3) ** 2 - 2 * 2 / 3)
    assert f.integral(0.0, 1.0) == pytest.approx(want, rel=1e-14)
    assert f.integral(0.5, 0.8) == pytest.approx(
        quadrature(f.value, 0.5, 0.8, tol=1e-13), abs=1e-11
    )
    assert f.integral(0.8, 0.5) == 0.0


def test_piecewise_weighted_integral():
    f = _two_piece()
    got = over_power(f, 2).integral(0.4, 0.9)
    want = quadrature(lambda y: f.value(y) / y**2, 0.4, 0.9, tol=1e-13)
    assert got == pytest.approx(want, abs=1e-11)


def test_tail_integral_consistency():
    """tail_integral against the point-by-point oracle, which integrates
    each segment with numpy's chebint."""
    f = _two_piece()
    # unsorted on purpose: each point is placed on its own
    xs = np.array([0.8, 0.1, 1.0, 2 / 3, 0.41, 1.2, 1 / 3, 0.999])
    for m in (0, 1, 2):
        fm = over_power(f, m)
        got = fm.tail_integral(xs)
        assert got.shape == xs.shape
        tail = scalar_tail(fm)
        for x, g in zip(xs, got):
            assert g == pytest.approx(tail(x), abs=1e-14)
    assert f.tail_integral(np.array([1.0, 1.5])).tolist() == [0.0, 0.0]
    assert PiecewiseFunction.zero().tail_integral(xs).tolist() == [0.0] * len(xs)


def test_values_match_scalar_value():
    """The same segment as the point-by-point oracle on breakpoints and
    outside the support, and values close to it."""
    rng = random.Random(17)
    coefs = [[rng.uniform(-1, 1) / (k + 1) ** 2 for k in range(NODES)] for _ in range(3)]
    f = _cells([0.1, 0.3, 0.55, 1.0], coefs, [1.0, 1.5, 3.0])
    xs = np.array(
        [0.05, 0.1, 0.3, 0.55, 1.0, 1.01, 0.999999]
        + [rng.uniform(0.01, 1.05) for _ in range(300)]
    )
    got = f.values(xs)
    oracle = scalar_value(f)
    for x, g in zip(xs, got):
        assert g == pytest.approx(oracle(float(x)), rel=1e-13, abs=1e-14)
    # an interior breakpoint takes the segment that starts there
    lower, upper = (
        PiecewiseFunction(f.breakpoints[i : i + 2], [seg.top], seg.half, seg.coef[None])
        for i, seg in ((1, f.segments[1]), (2, f.segments[2]))
    )
    assert f.value(0.55) == upper.value(0.55)
    assert upper.value(0.55) != pytest.approx(lower.value(0.55), rel=1e-6)
    assert PiecewiseFunction.zero().values(xs).tolist() == [0.0] * len(xs)


def assert_same_bits(got: np.ndarray, want: np.ndarray):
    assert got.dtype == want.dtype == np.float64
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def test_array_input_is_coerced_to_float():
    """Ints, lists, float32 and empty input all give float64 results."""
    f = chebyshev_function(lambda y: 0.25 + y, [0.5, 1.0])
    assert f.tail_integral(np.array([0])).tolist() == [pytest.approx(0.5, rel=1e-14)]
    assert f.tail_integral([0, 0.75]).tolist() == pytest.approx([0.5, 0.28125], rel=1e-14)
    assert f.values(np.array([1])).tolist() == [pytest.approx(1.25, rel=1e-14)]
    assert f.values([0.5, 2]).tolist() == [pytest.approx(0.75, rel=1e-14), 0.0]
    xs32 = np.array([0.3, 0.6, 0.9], dtype=np.float32)
    xs64 = xs32.astype(np.float64)
    assert_same_bits(f.values(xs32), f.values(xs64))
    assert_same_bits(f.tail_integral(xs32), f.tail_integral(xs64))
    for method in (f.values, f.tail_integral, PiecewiseFunction.zero().values):
        out = method(np.array([], dtype=np.int64))
        assert out.dtype == np.float64 and out.shape == (0,)
    with pytest.raises(ValueError):
        f.values(np.ones((2, 2)))


@st.composite
def piecewise_functions(draw) -> PiecewiseFunction:
    """1-20 segments, each the upper part (1/1 to 1/2 in t) of its own
    cell, with NODES seeded coefficients in [-10, 10]; or zero."""
    n = draw(st.integers(0, 20))
    if n == 0:
        return PiecewiseFunction.zero()
    bps = sorted(
        draw(st.lists(st.floats(1e-3, 1.0), min_size=n + 1, max_size=n + 1, unique=True))
    )
    assume(all(math.log(a) < math.log(b) for a, b in zip(bps, bps[1:])))
    rng = random.Random(draw(st.integers(0, 2**32)))
    coefs = [rng.uniform(-10.0, 10.0) for _ in range(n * NODES)]
    return _cells(bps, coefs, [rng.uniform(1.0, 2.0) for _ in range(n)])


@given(data=st.data(), f=piecewise_functions())
@settings(max_examples=200, deadline=None)
def test_kernel_matches_per_segment_oracle(data, f):
    """Bit-identical to evaluating one segment at a time, on unsorted points
    with duplicates, breakpoints and points outside the support."""
    pool = f.breakpoints + [-0.5, 0.0, 5e-4, 1.5]
    pool += data.draw(st.lists(st.floats(1e-3, 1.0), max_size=20))
    xs = np.array(data.draw(st.lists(st.sampled_from(pool), max_size=60)))
    xs = xs.astype(np.float64)  # the empty list too
    assert_same_bits(f.values(xs), values_by_segment(f, xs))
    assert_same_bits(f.tail_integral(xs), tail_integral_by_segment(f, xs))


@given(data=st.data(), f=piecewise_functions())
@settings(max_examples=200, deadline=None)
def test_value_is_values_at_one_point(data, f):
    """value(x) is values([x])[0] bit for bit, a Python float, and 0.0
    outside the support: at breakpoints, both ends, points outside and for
    zero."""
    pool = f.breakpoints + [-0.5, 0.0, 5e-4, 1.5, math.nextafter(1.0, 2.0)]
    pool += [math.nextafter(f.lo, 0.0), math.nextafter(f.hi, 2.0)]
    pool += data.draw(st.lists(st.floats(1e-3, 1.0), max_size=20))
    for x in data.draw(st.lists(st.sampled_from(pool), max_size=40)):
        got = f.value(x)
        assert type(got) is float
        assert got.hex() == f.values([x])[0].hex(), x
        if not f.lo <= x <= f.hi or f.is_zero():
            assert got == 0.0


def test_kernel_matches_oracle_across_chunks_and_blocks():
    """Many points (24 593) over 30 segments."""
    rng = random.Random(23)
    bps = sorted(rng.uniform(0.01, 1.0) for _ in range(31))
    coefs = [[rng.uniform(-5, 5) for _ in range(NODES)] for _ in range(30)]
    f = _cells(bps, coefs, [rng.uniform(1.0, 2.0) for _ in range(30)])
    xs = np.random.default_rng(23).uniform(0.0, 1.1, 3 * 8192 + 17)
    xs[::97] = rng.choice(bps)
    assert_same_bits(f.values(xs), values_by_segment(f, xs))
    assert_same_bits(f.tail_integral(xs), tail_integral_by_segment(f, xs))


def test_integral_cache_agrees_with_requadrature():
    """Segment antiderivative data vs quadrature at tolerance/10."""
    f = _two_piece()
    tol = 1e-10
    for a, b, m in ((0.35, 0.97, 0), (0.4, 0.9, 1), (0.34, 0.66, 2)):
        again = quadrature(lambda y: f.value(y) / y**m, a, b, tol=tol / 10)
        assert abs(over_power(f, m).integral(a, b) - again) < tol


def test_restrict_and_combine():
    f = _two_piece()
    mid = restrict(f, 0.5, 0.8)
    assert mid.lo == pytest.approx(0.5) and mid.hi == pytest.approx(0.8)
    assert mid.value(0.45) == 0.0
    assert mid.value(0.6) == f.value(0.6)
    # one on [0.5, 1], on f's cells
    g = restrict(chebyshev_function(lambda y: 1.0, f.breakpoints), 0.5, 1.0)
    s = f.combine(g, 1.0, -2.0)
    assert s.value(0.6) == pytest.approx(f.value(0.6) - 2.0)
    assert s.value(0.4) == pytest.approx(f.value(0.4))
    assert s.integral(0.0, 1.0) == pytest.approx(
        f.integral(0.0, 1.0) - 2.0 * g.integral(0.0, 1.0), rel=1e-14
    )
    with pytest.raises(ValueError, match="same cells"):
        f.combine(chebyshev_function(lambda y: 1.0, [0.5, 1.0]))
    # supports [0.1, 0.2] and [0.5, 1] leave (0.2, 0.5) uncovered
    low = chebyshev_function(lambda y: 1.0, [0.1, 0.2])
    high = chebyshev_function(lambda y: 1.0, [0.5, 1.0])
    for a, b in ((low, high), (high, low)):
        with pytest.raises(ValueError, match="no gap"):
            a.combine(b)


def test_zero_function_behaviour():
    z = PiecewiseFunction.zero()
    assert z.is_zero()
    assert z.value(0.5) == 0.0
    assert z.integral(0.0, 1.0) == 0.0
    f = _two_piece()
    assert z.combine(f).value(0.9) == pytest.approx(f.value(0.9))
    both = z.combine(PiecewiseFunction.zero(), 2.0, -1.0)
    assert both.is_zero() and both.breakpoints == [] and both.value(0.5) == 0.0


def test_segment_terms_are_its_chebyshev_coefficients():
    """Segment.terms maps each Chebyshev degree to its coefficient, a float."""
    f = PiecewiseFunction([0.25, 0.5, 1.0], [-0.5, 0.0], 0.5, [[1, -2], [0.5, 3]])
    assert [seg.terms for seg in f.segments] == [{0: 1.0, 1: -2.0}, {0: 0.5, 1: 3.0}]
    assert all(type(c) is float for seg in f.segments for c in seg.terms.values())


def test_quadrature_known_values():
    assert quadrature(lambda x: 1.0 / x, 0.1, 1.0, tol=1e-13) == pytest.approx(
        math.log(10.0), abs=1e-12
    )
    assert quadrature(math.sin, 0.0, math.pi, tol=1e-12) == pytest.approx(
        2.0, abs=1e-11
    )
    assert quadrature(lambda x: x, 1.0, 0.0) == pytest.approx(-0.5)


def test_quadrature_reports_bad_subinterval():
    def nasty(x):
        return abs(x - 0.3) ** -0.9 if x != 0.3 else 1e18

    with pytest.raises(QuadratureError) as err:
        quadrature(nasty, 0.0, 1.0, tol=1e-6, max_depth=16)
    lo, hi = err.value.interval
    assert abs(lo - 0.3) < 1e-2 and abs(hi - 0.3) < 1e-2


def test_breakpoint_validation():
    with pytest.raises(ValueError, match="strictly increasing"):
        PiecewiseFunction([0.5, 0.5], [0.0], 1.0, np.zeros((1, NODES)))
    with pytest.raises(ValueError, match="one segment per breakpoint gap"):
        PiecewiseFunction([0.1, 0.5], [], 1.0, np.zeros((0, NODES)))
    # one row of coefficients given flat, and two tops for one row
    for tops, coef in (([0.0], np.zeros(NODES)), ([0.0, -0.5], np.zeros((1, NODES)))):
        with pytest.raises(ValueError, match="one top and one row of coefficients per segment"):
            PiecewiseFunction([0.5, 1.0], tops, 1.0, coef)
