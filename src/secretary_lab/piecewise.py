"""Piecewise-smooth functions on (0, 1] built from x^m (ln x)^p terms.

The dual construction for general quota/rank counts repeatedly applies the
operator  f -> x^(N-1) [ A - int_x^b h(y)/y^N dy ]  to functions it built
earlier.  Linear combinations of x^m (ln x)^p with integer m and p >= 0 are
closed under that operator, so each segment of a piecewise function stores
its terms symbolically and integrals come from closed-form antiderivatives
(cached per segment) instead of nested numeric quadrature; a weight such as
1/y^N is applied to the terms (shift_xpow) before integrating.
Point values come one at a time (`value`, used by the construction and its
root scans) or over a whole grid as numpy arrays (`values`, `tail_integral`,
used by certificate verification); both pick the same segment for a point.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from fractions import Fraction
from typing import Callable, Iterator, Mapping, Sequence, Union

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

    def values(self, xs: np.ndarray) -> np.ndarray:
        """Value at every point of xs (all > 0), float coefficients only.

        Sums the terms in the order __call__ does, one array at a time.
        """
        ln = np.log(xs)
        total = np.zeros_like(xs)
        for (m, p), c in self.terms.items():
            total += c * xs**m * ln**p
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
        self._suffix: list[float] | None = None

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

    def _by_segment(
        self, xs: np.ndarray, inside: np.ndarray
    ) -> Iterator[tuple[int, np.ndarray]]:
        """(segment, positions in xs) for the points of xs[inside].

        Each point gets the segment _segment_index picks for it.
        """
        idx = np.searchsorted(self.breakpoints, xs, side="right") - 1
        np.minimum(idx, len(self.segments) - 1, out=idx)
        idx[~inside] = -1
        order = np.argsort(idx, kind="stable")
        cuts = np.searchsorted(idx[order], np.arange(len(self.segments) + 1))
        for i in range(len(self.segments)):
            if cuts[i] < cuts[i + 1]:
                yield i, order[cuts[i] : cuts[i + 1]]

    def value(self, x: float) -> float:
        if self.is_zero() or x < self.lo or x > self.hi:
            return 0.0
        return self.segments[self._segment_index(x)](x)

    __call__ = value

    def values(self, xs: np.ndarray) -> np.ndarray:
        """value at every point of the float array xs."""
        out = np.zeros_like(xs)
        if self.is_zero():
            return out
        inside = (xs >= self.lo) & (xs <= self.hi)
        for i, at in self._by_segment(xs, inside):
            out[at] = self.segments[i].values(xs[at])
        return out

    def segment_at(self, x: float) -> LogLinComb | None:
        """Symbolic form covering x, or None outside the support."""
        if self.is_zero() or x < self.lo or x > self.hi:
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

    def tail_integral(self, xs: np.ndarray) -> np.ndarray:
        """int_x^hi f(y) dy at every point x of the float array xs.

        Whole segments above x come from suffix sums built on first use.
        """
        out = np.zeros_like(xs)
        if self.is_zero():
            return out
        suffix = self._suffix
        if suffix is None:
            n = len(self.segments)
            suffix = [0.0] * (n + 1)
            for i in range(n - 1, -1, -1):
                suffix[i] = suffix[i + 1] + self._segment_integral(
                    i, self.breakpoints[i], self.breakpoints[i + 1]
                )
            self._suffix = suffix
        antis = self._antiderivatives()
        out[xs <= self.lo] = suffix[0]
        inside = (xs > self.lo) & (xs < self.hi)
        for i, at in self._by_segment(xs, inside):
            anti = antis[i]
            out[at] = suffix[i + 1] + (
                anti(self.breakpoints[i + 1]) - anti.values(xs[at])
            )
        return out

    def map_segments(
        self, fn: Callable[[LogLinComb], LogLinComb]
    ) -> "PiecewiseFunction":
        return PiecewiseFunction(self.breakpoints, [fn(s) for s in self.segments])

    def restrict(self, lo: float, hi: float) -> "PiecewiseFunction":
        """Clip the support to [lo, hi] (segments keep their symbolic form)."""
        if self.is_zero():
            return self
        lo = max(lo, self.lo)
        hi = min(hi, self.hi)
        if lo >= hi:
            return PiecewiseFunction.zero()
        ia = self._segment_index(lo)
        ib = self._segment_index(hi)
        if hi <= self.breakpoints[ib] and ib > ia:
            ib -= 1  # hi falls exactly on a breakpoint
        bps = [lo] + [
            b for b in self.breakpoints[ia + 1 : ib + 1] if lo < b < hi
        ] + [hi]
        return PiecewiseFunction(bps, self.segments[ia : ib + 1])

    def combine(
        self, other: "PiecewiseFunction", c_self: float = 1.0, c_other: float = 1.0
    ) -> "PiecewiseFunction":
        """c_self * self + c_other * other over the union of supports."""
        if self.is_zero():
            return other.map_segments(lambda s: s.scale(c_other))
        if other.is_zero():
            return self.map_segments(lambda s: s.scale(c_self))
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
    fn: Callable[[float], float], a: float, b: float, tol: float = 1e-13
) -> float:
    """Bisection on a sign-changing bracket; returns the midpoint estimate."""
    fa = fn(a)
    fb = fn(b)
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


def find_largest_root(
    fn: Callable[[float], float],
    hi: float,
    lo: float = 0.0,
    scan_step: float = 1e-3,
    tol: float = 1e-13,
) -> float:
    """Largest zero of fn below hi, for fn known positive just below hi.

    Scans downward from hi with the given step until the sign flips, then
    bisects the bracket.  Existence of the root is the caller's guarantee;
    running out of scan range raises RootBracketError.
    """
    x_hi = hi
    f_hi = fn(x_hi)
    if f_hi == 0.0:
        return x_hi
    if f_hi < 0.0:
        raise RootBracketError(f"function already negative at scan start {hi}")
    x = x_hi - scan_step
    while x > lo:
        fx = fn(x)
        if fx == 0.0:
            return x
        if fx < 0.0:
            return bisect_root(fn, x, x_hi, tol)
        x_hi = x
        x -= scan_step
    raise RootBracketError(f"no sign change found in ({lo}, {hi})")
