"""Piecewise-smooth functions on (0, 1] built from x^m (ln x)^p terms.

The dual construction for general quota/rank counts repeatedly applies the
operator  f -> x^(N-1) [ A - int_x^b h(y)/y^N dy ]  to functions it built
earlier.  Linear combinations of x^m (ln x)^p with integer m and p >= 0 are
closed under that operator, so each segment of a piecewise function stores
its terms symbolically and integrals come from closed-form antiderivatives
(cached per segment) instead of nested numeric quadrature; a weight such as
1/y^N is applied to the terms (shift_xpow) before integrating.
Point values come one at a time (`value`, through `segment_at`) or over a
whole grid as numpy arrays (`values`, `tail_integral`, used by certificate
verification); all of them pick the same segment for a point.

Array evaluation runs a fixed number of numpy calls per block of points,
however many segments a function has.  On first array use a function
packs its segments into a table (`_Packed`): term column t holds each
segment's t-th exponent pair (m, p) and coefficient c, in the segment's
own dict order, with short segments padded by 0 * x^0 * (ln x)^0.  The
points come as a `PowerRows`, which computes each x^m and (ln x)^p row
once and lets every function evaluated on those points share it.  One
searchsorted finds each point's segment; then, column by column, the
kernel gathers c, x^m and (ln x)^p for every point and adds c * x^m *
(ln x)^p to the point's total, in `LogLinComb.__call__`'s order; values
are bit-identical to numpy evaluating one segment at a time.  numpy's
power and log round unlike ** and math.log, so `values` and `value` may
differ by up to (P + T + 4) ulp of sum |c x^m (ln x)^p| over a segment of
T terms with ln x powers up to P.  Tail integrals use antiderivative tables.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from fractions import Fraction
from itertools import chain
from typing import Callable, Mapping, Sequence, Union

import numpy as np

TermKey = tuple[int, int]  # (power of x, power of ln x)
Coef = Union[float, Fraction]


class RootBracketError(RuntimeError):
    """Downward scan found no sign change where a root was required."""


class LogLinComb:
    """Finite sum of c * x^m * (ln x)^p.

    m may be negative (the construction divides by powers of y); p >= 0.
    Coefficients keep the type they are given: floats for the general
    construction, Fractions for the exact K = 1 recursion, where every
    operation except evaluation at a float x stays exact.
    Immutable by convention: all operations return new objects.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[TermKey, Coef] | None = None):
        # prune exact zeros only; coefficients are never rounded
        self.terms: dict[TermKey, Coef] = {
            k: v for k, v in (terms or {}).items() if v != 0
        }

    @staticmethod
    def zero() -> "LogLinComb":
        return LogLinComb()

    @staticmethod
    def const(c: Coef) -> "LogLinComb":
        return LogLinComb({(0, 0): c})

    @staticmethod
    def from_x_poly(coeffs: Sequence[Coef]) -> "LogLinComb":
        """Polynomial in x: coeffs[m] multiplies x^m."""
        return LogLinComb({(m, 0): c for m, c in enumerate(coeffs)})

    @staticmethod
    def from_ln_poly(coeffs: Sequence[Coef]) -> "LogLinComb":
        """Polynomial in ln x: coeffs[p] multiplies (ln x)^p."""
        return LogLinComb({(0, p): c for p, c in enumerate(coeffs)})

    def __call__(self, x: float) -> float:
        if x <= 0.0:
            raise ValueError("log-linear combinations live on x > 0")
        ln = math.log(x)
        total = 0.0
        for (m, p), c in self.terms.items():
            total += c * x**m * ln**p
        return total

    def at_ln(self, ln_x: Coef) -> Coef:
        """Value of a pure polynomial in ln x (every m == 0) at ln x = ln_x.

        Horner's rule, so Fraction coefficients and a Fraction ln_x give
        an exact result; used at x = exp(-theta) with rational theta.
        """
        if any(m for m, _ in self.terms):
            raise ValueError("at_ln needs a polynomial in ln x alone")
        acc = 0
        for p in range(max((p for _, p in self.terms), default=-1), -1, -1):
            acc = acc * ln_x + self.terms.get((0, p), 0)
        return acc

    def __add__(self, other: "LogLinComb") -> "LogLinComb":
        out = dict(self.terms)
        for k, v in other.terms.items():
            out[k] = out.get(k, 0) + v
        return LogLinComb(out)

    def __sub__(self, other: "LogLinComb") -> "LogLinComb":
        out = dict(self.terms)
        for k, v in other.terms.items():
            out[k] = out.get(k, 0) - v
        return LogLinComb(out)

    def scale(self, f: Coef) -> "LogLinComb":
        return LogLinComb({k: v * f for k, v in self.terms.items()})

    def shift_xpow(self, s: int) -> "LogLinComb":
        """Multiply by x^s."""
        return LogLinComb({(m + s, p): c for (m, p), c in self.terms.items()})

    def derivative(self) -> "LogLinComb":
        out: dict[TermKey, Coef] = {}
        for (m, p), c in self.terms.items():
            if m:
                k = (m - 1, p)
                out[k] = out.get(k, 0) + c * m
            if p:
                k = (m - 1, p - 1)
                out[k] = out.get(k, 0) + c * p
        return LogLinComb(out)

    def antiderivative(self) -> "LogLinComb":
        """F with F' = self, up to a constant.  Closed form per term:

        m == -1:  (ln x)^(p+1) / (p+1)
        m != -1:  x^(m+1) * sum_t (-1)^t p!/(p-t)! / (m+1)^(t+1) (ln x)^(p-t)
        """
        out: dict[TermKey, Coef] = {}
        for (m, p), c in self.terms.items():
            if m == -1:
                k = (0, p + 1)
                out[k] = out.get(k, 0) + c / (p + 1)
                continue
            fall = 1  # p!/(p-t)!
            sign = 1
            denom = m + 1
            for t in range(p + 1):
                k = (m + 1, p - t)
                out[k] = out.get(k, 0) + c * sign * fall / denom ** (t + 1)
                fall *= p - t
                sign = -sign
        return LogLinComb(out)


# Points per PowerRows when values/tail_integral get a plain array, and per
# certificate-check chunk: the default certificate grid (2000 points plus
# breakpoints) fits in one, and a chunk's rows and gathered terms stay a
# few MB at any grid size.
CHUNK_POINTS = 8192
# Point-term products per evaluation block: bounds the gathered temporaries
# (64 kB each) whatever the number of points and the segment widths.
BLOCK_TERMS = 8192
# Grid points per coarse step of find_largest_root's scan (chosen by timing).
SCAN_STRIDE = 10


class PowerRows:
    """Points x with the rows x^m and (ln x)^p that packed tables ask for.

    Each row is computed once, by the call a segment-by-segment evaluation
    makes (xs ** m and ln ** p with int exponents), so functions evaluated
    on one PowerRows share its rows and still get the values they would
    get alone.  Rows are stacked for gathering: x^m is row m - mlo of the
    x rows, (ln x)^p row p of the log rows.
    """

    __slots__ = ("xs", "_ln", "_mlo", "_xpow", "_lnpow")

    def __init__(self, xs: np.ndarray):
        self.xs = xs
        self._ln: np.ndarray | None = None
        self._mlo = 0
        self._xpow = np.empty((0, len(xs)))
        self._lnpow = np.empty((0, len(xs)))

    def rows(
        self, mlo: int, mhi: int, pmax: int
    ) -> tuple[np.ndarray, np.ndarray, int]:
        """x rows covering mlo..mhi, log rows covering 0..pmax, first x row's m."""
        top = self._mlo + len(self._xpow) - 1
        # a point outside every support may be <= 0; its rows are never read
        with np.errstate(divide="ignore", invalid="ignore"):
            if mlo < self._mlo or mhi > top:
                lo, hi = min(mlo, self._mlo), max(mhi, top)
                xpow = np.empty((hi - lo + 1, len(self.xs)))
                for m in range(lo, hi + 1):
                    have = self._mlo <= m <= top
                    xpow[m - lo] = self._xpow[m - self._mlo] if have else self.xs**m
                self._xpow, self._mlo = xpow, lo
            if pmax >= len(self._lnpow):
                if self._ln is None:
                    self._ln = np.log(self.xs)
                lnpow = np.empty((pmax + 1, len(self.xs)))
                lnpow[: len(self._lnpow)] = self._lnpow
                for p in range(len(self._lnpow), pmax + 1):
                    lnpow[p] = self._ln**p
                self._lnpow = lnpow
        return self._xpow, self._lnpow, self._mlo


def _by_chunk(
    method: Callable[[PowerRows], np.ndarray], points: Sequence[float]
) -> np.ndarray:
    """method over PowerRows of at most CHUNK_POINTS points of a 1-D array."""
    xs = np.ascontiguousarray(points, dtype=np.float64)
    if xs.ndim != 1:
        raise ValueError(f"points must form a 1-D array, not shape {xs.shape}")
    out = np.empty(len(xs))
    for a in range(0, len(xs), CHUNK_POINTS):
        out[a : a + CHUNK_POINTS] = method(PowerRows(xs[a : a + CHUNK_POINTS]))
    return out


class _Packed:
    """The terms of every segment in one table, for array evaluation.

    Column t of m, p and c (shape terms x segments) holds each segment's
    t-th term in the segment's own dict order.  A segment with fewer terms
    ends in 0 * x^0 * (ln x)^0, which adds +0.0 and so changes no sum.
    """

    __slots__ = ("bps", "last", "m", "p", "c", "mlo", "mhi", "pmax")

    def __init__(self, breakpoints: Sequence[float], segments: Sequence[LogLinComb]):
        counts = [len(s.terms) for s in segments]
        width = max(1, *counts)
        total = sum(counts)
        keys = chain.from_iterable(chain.from_iterable(s.terms for s in segments))
        mp = np.fromiter(keys, np.intp, 2 * total)
        coefs = chain.from_iterable(s.terms.values() for s in segments)
        # filled[i, t]: segment i has a t-th term; the .T views below take
        # the terms segment by segment, each in its dict order
        filled = np.arange(width) < np.array(counts)[:, None]
        self.m = np.zeros((width, len(segments)), np.intp)
        self.p = np.zeros((width, len(segments)), np.intp)
        self.c = np.zeros((width, len(segments)))
        self.m.T[filled] = mp[0::2]
        self.p.T[filled] = mp[1::2]
        self.c.T[filled] = np.fromiter(coefs, np.float64, total)
        self.bps = np.array(breakpoints)
        self.last = len(segments) - 1
        self.mlo = min(0, int(self.m.min()))
        self.mhi = max(0, int(self.m.max()))
        self.pmax = int(self.p.max())

    def segment_of(self, xs: np.ndarray) -> np.ndarray:
        """Segment of each point, the one PiecewiseFunction._segment_index picks."""
        seg = np.searchsorted(self.bps, xs, side="right") - 1
        return np.minimum(seg, self.last, out=seg)

    def evaluate(
        self, points: PowerRows, at: np.ndarray, seg: np.ndarray
    ) -> np.ndarray:
        """Segment seg[i] at points.xs[at[i]] for every i.

        Each point sums c * x^m * (ln x)^p over its segment's terms in dict
        order, starting from 0.0, as LogLinComb.__call__ does.
        """
        xpow, lnpow, mlo = points.rows(self.mlo, self.mhi, self.pmax)
        n = xpow.shape[1]
        total = np.zeros(len(at))
        step = max(1, BLOCK_TERMS // len(self.m))
        for a in range(0, len(at), step):
            pos, sg = at[a : a + step], seg[a : a + step]
            # flat position of x^m, then of (ln x)^p, at each point per term
            idx = self.m.take(sg, axis=1)
            if mlo:
                idx -= mlo
            idx *= n
            idx += pos
            terms = xpow.take(idx)
            terms *= self.c.take(sg, axis=1)  # c * x^m, as LogLinComb forms it
            self.p.take(sg, axis=1, out=idx)
            idx *= n
            idx += pos
            terms *= lnpow.take(idx)
            part = total[a : a + step]
            for term in terms:
                part += term
        return total


class PiecewiseFunction:
    """Function on [breakpoints[0], breakpoints[-1]], zero outside.

    segments[i] is the symbolic form on [breakpoints[i], breakpoints[i+1]];
    segments must agree at interior breakpoints (continuity is a property of
    the constructions that produce these, not enforced here).  Integral
    queries use per-segment antiderivatives, built on first use.
    """

    def __init__(
        self, breakpoints: Sequence[float], segments: Sequence[LogLinComb]
    ):
        bps = [float(b) for b in breakpoints]
        if bps and len(segments) != len(bps) - 1:
            raise ValueError("need exactly one segment per breakpoint gap")
        if any(b2 <= b1 for b1, b2 in zip(bps, bps[1:])):
            raise ValueError("breakpoints must be strictly increasing")
        self.breakpoints = bps
        self.segments = list(segments)
        self._antis: list[LogLinComb] | None = None
        # packed tables for array evaluation, built on first use
        self._values_table: _Packed | None = None
        self._tail_table: tuple | None = None

    @staticmethod
    def zero() -> "PiecewiseFunction":
        return PiecewiseFunction([], [])

    @staticmethod
    def join(parts: Sequence["PiecewiseFunction"]) -> "PiecewiseFunction":
        """One function from parts on adjacent supports, ascending in x.

        Each nonzero part must start where the previous one ends; zero
        parts are skipped.  Segments are kept as they are.
        """
        bps: list[float] = []
        segs: list[LogLinComb] = []
        for part in parts:
            if part.is_zero():
                continue
            if bps and part.lo != bps[-1]:
                raise ValueError(f"part starts at {part.lo}, not at {bps[-1]}")
            bps.extend(part.breakpoints[1:] if bps else part.breakpoints)
            segs.extend(part.segments)
        return PiecewiseFunction(bps, segs)

    @property
    def lo(self) -> float:
        return self.breakpoints[0] if self.breakpoints else 1.0

    @property
    def hi(self) -> float:
        return self.breakpoints[-1] if self.breakpoints else 1.0

    def is_zero(self) -> bool:
        return not self.segments

    def _segment_index(self, x: float) -> int:
        i = bisect_right(self.breakpoints, x) - 1
        return min(i, len(self.segments) - 1)

    def value(self, x: float) -> float:
        seg = self.segment_at(x)
        return 0.0 if seg is None else seg(x)

    __call__ = value

    def values(self, points: Sequence[float] | PowerRows) -> np.ndarray:
        """value at every point: a 1-D array of floats, or a PowerRows whose
        power rows other functions evaluated on the same points share."""
        if not isinstance(points, PowerRows):
            return _by_chunk(self.values, points)
        xs = points.xs
        out = np.zeros(len(xs))
        if self.is_zero():
            return out
        if self._values_table is None:
            self._values_table = _Packed(self.breakpoints, self.segments)
        table = self._values_table
        at = np.flatnonzero((xs >= self.lo) & (xs <= self.hi))
        out[at] = table.evaluate(points, at, table.segment_of(xs[at]))
        return out

    def segment_at(self, x: float) -> LogLinComb | None:
        """Symbolic form covering x, or None outside the support."""
        bps = self.breakpoints
        if not self.segments or x < bps[0] or x > bps[-1]:
            return None
        return self.segments[self._segment_index(x)]

    def _antiderivatives(self) -> list[LogLinComb]:
        """One antiderivative per segment, built on first use."""
        if self._antis is None:
            self._antis = [s.antiderivative() for s in self.segments]
        return self._antis

    def _segment_integral(self, i: int, a: float, b: float) -> float:
        anti = self._antiderivatives()[i]
        return anti(b) - anti(a)

    def integral(self, a: float, b: float) -> float:
        """int_a^b f(y) dy, treating f as zero outside its support."""
        if self.is_zero():
            return 0.0
        a = max(a, self.lo)
        b = min(b, self.hi)
        if a >= b:
            return 0.0
        ia = self._segment_index(a)
        ib = self._segment_index(b)
        if ia == ib:
            return self._segment_integral(ia, a, b)
        total = self._segment_integral(ia, a, self.breakpoints[ia + 1])
        for i in range(ia + 1, ib):
            total += self._segment_integral(
                i, self.breakpoints[i], self.breakpoints[i + 1]
            )
        total += self._segment_integral(ib, self.breakpoints[ib], b)
        return total

    def tail_integral(self, points: Sequence[float] | PowerRows) -> np.ndarray:
        """int_x^hi f(y) dy at every point x, given as for `values`.

        Whole segments above x come from suffix sums built on first use.
        """
        if not isinstance(points, PowerRows):
            return _by_chunk(self.tail_integral, points)
        xs = points.xs
        out = np.zeros(len(xs))
        if self.is_zero():
            return out
        if self._tail_table is None:
            antis = self._antiderivatives()
            bps = self.breakpoints
            tops = [anti(b) for anti, b in zip(antis, bps[1:])]
            suffix = [0.0] * (len(antis) + 1)
            for i in range(len(antis) - 1, -1, -1):
                # the segment integral, as _segment_integral forms it
                suffix[i] = suffix[i + 1] + (tops[i] - antis[i](bps[i]))
            self._tail_table = (
                _Packed(self.breakpoints, antis),
                suffix[0],
                np.array(suffix[1:]),
                np.array(tops),
            )
        table, total, above, tops = self._tail_table
        out[xs <= self.lo] = total
        at = np.flatnonzero((xs > self.lo) & (xs < self.hi))
        seg = table.segment_of(xs[at])
        # suffix[i+1] + (F_i(hi_i) - F_i(x)), grouped as the scalar form is
        out[at] = above[seg] + (tops[seg] - table.evaluate(points, at, seg))
        return out

    def combine(
        self, other: "PiecewiseFunction", c_self: float = 1.0, c_other: float = 1.0
    ) -> "PiecewiseFunction":
        """c_self * self + c_other * other over the union of supports."""
        cuts = sorted(set(self.breakpoints) | set(other.breakpoints))
        segs = []
        for a, b in zip(cuts, cuts[1:]):
            mid = 0.5 * (a + b)
            s = LogLinComb.zero()
            mine = self.segment_at(mid)
            theirs = other.segment_at(mid)
            if mine is not None:
                s = s + mine.scale(c_self)
            if theirs is not None:
                s = s + theirs.scale(c_other)
            segs.append(s)
        return PiecewiseFunction(cuts, segs)

    def grid(self, points_per_segment: int) -> list[float]:
        """Uniform sample points per segment, including all breakpoints."""
        if self.is_zero():
            return []
        out = []
        for a, b in zip(self.breakpoints, self.breakpoints[1:]):
            step = (b - a) / (points_per_segment + 1)
            out.extend(a + i * step for i in range(points_per_segment + 1))
        out.append(self.hi)
        return out


def bisect_root(
    fn: Callable[[float], float], a: float, b: float, fa: float, fb: float, tol: float
) -> float:
    """Midpoint estimate of a root in [a, b], given fa = fn(a) and fb = fn(b)."""
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if (fa > 0.0) == (fb > 0.0):
        raise RootBracketError(f"no sign change on [{a}, {b}]")
    while b - a > tol:
        m = 0.5 * (a + b)
        fm = fn(m)
        if fm == 0.0:
            return m
        if (fm > 0.0) == (fa > 0.0):
            a = m
        else:
            b = m
    return 0.5 * (a + b)


# No runtime code searches for roots: find_largest_root and its helpers
# serve the benchmark's traced passes, which wrap dual.find_largest_root.
def find_largest_root(
    fn: Callable[[float], float],
    hi: float,
    lo: float = 0.0,
    scan_step: float = 1e-3,
    tol: float = 1e-13,
) -> float:
    """Largest zero of fn below hi, for fn known positive just below hi.

    Bisects from the first point with fn <= 0 of the grid hi - scan_step,
    hi - 2 scan_step, ... above lo to the point above it.  fn is read at
    every SCAN_STRIDE-th point, then point by point in the first coarse
    step ending at fn <= 0, and no point twice; so a dip below zero between
    two positive coarse points is missed (a scan of every point misses only
    dips narrower than scan_step).  A missing root raises RootBracketError.
    """
    f_hi = fn(hi)
    if f_hi == 0.0:
        return hi
    if f_hi < 0.0:
        raise RootBracketError(f"function already negative at scan start {hi}")
    x_hi = x = hi
    while True:
        block = []  # the next SCAN_STRIDE grid points above lo
        while len(block) < SCAN_STRIDE and x - scan_step > lo:
            x -= scan_step
            block.append(x)
        if not block:
            raise RootBracketError(f"no sign change found in ({lo}, {hi})")
        f_end = fn(block[-1])
        if f_end <= 0.0:
            for x_lo in block[:-1]:
                f_lo = fn(x_lo)
                if f_lo <= 0.0:
                    return bisect_root(fn, x_lo, x_hi, f_lo, f_hi, tol)
                x_hi, f_hi = x_lo, f_lo
            return bisect_root(fn, block[-1], x_hi, f_end, f_hi, tol)
        x_hi, f_hi = block[-1], f_end
