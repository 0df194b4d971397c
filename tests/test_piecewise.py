"""Numeric piecewise machinery: symbolic segments, array evaluation, root
finding, and the quadrature oracle the closed forms are checked against."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from secretary_lab.piecewise import (
    CHUNK_POINTS,
    LogLinComb,
    PiecewiseFunction,
    PowerRows,
    RootBracketError,
    bisect_root,
    find_largest_root,
)

from oracles import (
    QuadratureError,
    over_power,
    quadrature,
    tail_integral_by_segment,
    values_by_segment,
)


def test_loglincomb_eval():
    f = LogLinComb({(-2, 1): 2.0, (0, 0): 3.0})
    x = 0.5
    assert f(x) == pytest.approx(2.0 * x**-2 * math.log(x) + 3.0, rel=1e-15)


def test_loglincomb_eval_rejects_nonpositive():
    with pytest.raises(ValueError):
        LogLinComb.const(1.0)(0.0)


def test_arithmetic_and_shift():
    f = LogLinComb.from_x_poly([1.0, 2.0])
    g = f.shift_xpow(-1)
    assert g(0.25) == pytest.approx((1.0 + 2.0 * 0.25) / 0.25)
    assert (f - f)(0.7) == 0.0
    assert (f + f).scale(0.5)(0.3) == pytest.approx(f(0.3))


def test_derivative_by_finite_differences():
    rng = random.Random(5)
    f = LogLinComb({(-1, 2): 0.7, (2, 1): -1.3, (0, 3): 0.4})
    df = f.derivative()
    for _ in range(50):
        x = rng.uniform(0.1, 0.95)
        h = 1e-6
        numeric = (f(x + h) - f(x - h)) / (2 * h)
        assert df(x) == pytest.approx(numeric, rel=1e-7, abs=1e-7)


def test_antiderivative_matches_quadrature():
    rng = random.Random(11)
    for _ in range(25):
        terms = {
            (rng.randint(-3, 3), rng.randint(0, 3)): rng.uniform(-2, 2)
            for _ in range(4)
        }
        f = LogLinComb(terms)
        big_f = f.antiderivative()
        a = rng.uniform(0.05, 0.5)
        b = rng.uniform(a + 0.05, 1.0)
        assert big_f(b) - big_f(a) == pytest.approx(
            quadrature(f, a, b, tol=1e-13), abs=1e-10
        )


def _two_piece() -> PiecewiseFunction:
    # 4x - 2 on [2/3, 1], x on [1/3, 2/3]
    return PiecewiseFunction(
        [1 / 3, 2 / 3, 1.0],
        [LogLinComb.from_x_poly([0.0, 1.0]), LogLinComb.from_x_poly([-2.0, 4.0])],
    )


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


def test_piecewise_weighted_integral():
    f = _two_piece()
    got = over_power(f, 2).integral(0.4, 0.9)
    want = quadrature(lambda y: f.value(y) / y**2, 0.4, 0.9, tol=1e-13)
    assert got == pytest.approx(want, abs=1e-11)


def test_tail_integral_consistency():
    f = _two_piece()
    # unsorted on purpose: each point is placed on its own
    xs = np.array([0.8, 0.1, 1.0, 2 / 3, 0.41, 1.2, 1 / 3, 0.999])
    for m in (0, 1, 2):
        fm = over_power(f, m)
        got = fm.tail_integral(xs)
        assert got.shape == xs.shape
        for x, g in zip(xs, got):
            assert g == pytest.approx(fm.integral(x, 1.0), abs=1e-14)
    assert f.tail_integral(np.array([1.0, 1.5])).tolist() == [0.0, 0.0]
    assert PiecewiseFunction.zero().tail_integral(xs).tolist() == [0.0] * len(xs)


def test_values_match_scalar_value():
    """Same segment on breakpoints and outside the support, ULP-close values."""
    f = PiecewiseFunction(
        [0.1, 0.3, 0.55, 1.0],
        [
            LogLinComb({(-2, 1): 0.3, (1, 0): 2.0}),
            LogLinComb({(0, 2): -1.5, (3, 1): 0.7, (0, 0): 1.0}),
            LogLinComb.from_x_poly([-2.0, 4.0]),
        ],
    )
    rng = random.Random(17)
    xs = np.array(
        [0.05, 0.1, 0.3, 0.55, 1.0, 1.01, 0.999999]
        + [rng.uniform(0.01, 1.05) for _ in range(300)]
    )
    got = f.values(xs)
    for x, g in zip(xs, got):
        want = f.value(float(x))
        assert g == pytest.approx(want, rel=1e-14, abs=1e-15)
    # an interior breakpoint takes the segment that starts there
    assert f.values(np.array([0.55]))[0] == f.segments[2](0.55)
    assert PiecewiseFunction.zero().values(xs).tolist() == [0.0] * len(xs)


def assert_same_bits(got: np.ndarray, want: np.ndarray):
    assert got.dtype == want.dtype == np.float64
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def test_array_input_is_coerced_to_float():
    """Ints, lists, float32 and empty input all give float64 results."""
    f = PiecewiseFunction([0.5, 1.0], [LogLinComb.from_x_poly([0.25, 1.0])])
    assert f.tail_integral(np.array([0])).tolist() == [0.5]
    assert f.tail_integral([0, 0.75]).tolist() == [0.5, pytest.approx(0.28125)]
    assert f.values(np.array([1])).tolist() == [1.25]
    assert f.values([0.5, 2]).tolist() == [0.75, 0.0]
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
    """1-20 segments of up to 12 terms, m in [-3, 16], p <= 16, or zero."""
    n = draw(st.integers(0, 20))
    if n == 0:
        return PiecewiseFunction.zero()
    bps = draw(
        st.lists(
            st.floats(1e-3, 1.0), min_size=n + 1, max_size=n + 1, unique=True
        )
    )
    term = st.tuples(st.integers(-3, 16), st.integers(0, 16))
    coef = st.floats(-10.0, 10.0, allow_nan=False)
    segs = [
        LogLinComb(draw(st.dictionaries(term, coef, max_size=12))) for _ in range(n)
    ]
    return PiecewiseFunction(sorted(bps), segs)


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
def test_value_matches_segment_at(data, f):
    """value(x) is segment_at(x)(x) bit for bit, and 0.0 outside the
    support: at breakpoints, both ends, points outside and for zero."""
    pool = f.breakpoints + [-0.5, 0.0, 5e-4, 1.5, math.nextafter(1.0, 2.0)]
    pool += [math.nextafter(f.lo, 0.0), math.nextafter(f.hi, 2.0)]
    pool += data.draw(st.lists(st.floats(1e-3, 1.0), max_size=20))
    for x in data.draw(st.lists(st.sampled_from(pool), max_size=40)):
        seg = f.segment_at(x)
        want = 0.0 if seg is None else seg(x)
        assert f.value(x).hex() == want.hex(), x


def test_kernel_matches_oracle_across_chunks_and_blocks():
    """Many points and wide segments: several chunks and evaluation blocks."""
    rng = random.Random(23)
    bps = sorted(rng.uniform(0.01, 1.0) for _ in range(31))
    segs = [
        LogLinComb(
            {(rng.randint(-3, 16), rng.randint(0, 16)): rng.uniform(-5, 5)
             for _ in range(rng.randint(0, 40))}
        )
        for _ in range(30)
    ]
    f = PiecewiseFunction(bps, segs)
    xs = np.random.default_rng(23).uniform(0.0, 1.1, 3 * CHUNK_POINTS + 17)
    xs[::97] = rng.choice(bps)
    assert_same_bits(f.values(xs), values_by_segment(f, xs))
    assert_same_bits(f.tail_integral(xs), tail_integral_by_segment(f, xs))


def test_functions_share_power_rows():
    """Functions evaluated on one PowerRows give what each gives on its
    own points."""
    f = _two_piece()
    g = over_power(f, 2)
    xs = np.array([0.05, 0.2, 1 / 3, 0.5, 2 / 3, 0.8, 1.0, 1.2])
    rows = PowerRows(xs)
    for fn in (f, g):
        assert_same_bits(fn.values(rows), fn.values(xs))
        assert_same_bits(fn.tail_integral(rows), fn.tail_integral(xs))


def test_integral_cache_agrees_with_requadrature():
    """Segment antiderivative data vs quadrature at tolerance/10."""
    f = _two_piece()
    tol = 1e-10
    for a, b, m in ((0.35, 0.97, 0), (0.4, 0.9, 1), (0.34, 0.66, 2)):
        again = quadrature(lambda y: f.value(y) / y**m, a, b, tol=tol / 10)
        assert abs(over_power(f, m).integral(a, b) - again) < tol


def test_restrict_and_combine():
    f = _two_piece()
    mid = f.restrict(0.5, 0.8)
    assert mid.lo == pytest.approx(0.5) and mid.hi == pytest.approx(0.8)
    assert mid.value(0.45) == 0.0
    assert mid.value(0.6) == pytest.approx(f.value(0.6))
    g = PiecewiseFunction([0.5, 1.0], [LogLinComb.const(1.0)])
    s = f.combine(g, 1.0, -2.0)
    assert s.value(0.6) == pytest.approx(f.value(0.6) - 2.0)
    assert s.value(0.4) == pytest.approx(f.value(0.4))
    assert s.integral(0.0, 1.0) == pytest.approx(
        f.integral(0.0, 1.0) - 2.0 * g.integral(0.0, 1.0), rel=1e-14
    )


def test_join_of_adjacent_parts():
    f = _two_piece()
    low, high = f.restrict(f.lo, 0.6), f.restrict(0.6, f.hi)
    joined = PiecewiseFunction.join([low, PiecewiseFunction.zero(), high])
    assert joined.breakpoints == low.breakpoints + high.breakpoints[1:]
    assert joined.segments == low.segments + high.segments
    for x in (f.lo, 0.45, 0.6, 0.75, f.hi):
        assert joined.value(x) == f.value(x)
    assert PiecewiseFunction.join([]).is_zero()
    with pytest.raises(ValueError):
        PiecewiseFunction.join([high, low])  # not ascending
    with pytest.raises(ValueError):
        PiecewiseFunction.join([f.restrict(f.lo, 0.5), high])  # gap (0.5, 0.6)


def test_zero_function_behaviour():
    z = PiecewiseFunction.zero()
    assert z.is_zero()
    assert z.value(0.5) == 0.0
    assert z.integral(0.0, 1.0) == 0.0
    f = _two_piece()
    assert z.combine(f).value(0.9) == pytest.approx(f.value(0.9))


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


def test_bisect_root():
    root = bisect_root(lambda x: x * x - 0.25, 0.0, 1.0, tol=1e-14)
    assert root == pytest.approx(0.5, abs=1e-13)
    with pytest.raises(RootBracketError):
        bisect_root(lambda x: 1.0, 0.0, 1.0)


def test_find_largest_root_picks_topmost():
    f = lambda x: (x - 0.2) * (x - 0.6)  # noqa: E731  positive above 0.6
    root = find_largest_root(f, 1.0, tol=1e-13)
    assert root == pytest.approx(0.6, abs=1e-12)


def test_find_largest_root_requires_sign_change():
    with pytest.raises(RootBracketError):
        find_largest_root(lambda x: 1.0 + x, 1.0, lo=0.5)
    with pytest.raises(RootBracketError):
        find_largest_root(lambda x: -1.0, 1.0)


def test_breakpoint_validation():
    with pytest.raises(ValueError):
        PiecewiseFunction([0.5, 0.5], [LogLinComb.const(1.0)])
    with pytest.raises(ValueError):
        PiecewiseFunction([0.1, 0.5], [])
