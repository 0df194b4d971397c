"""Piecewise functions on Chebyshev cells in t = ln x.

A `PiecewiseFunction` is zero outside [breakpoints[0], breakpoints[-1]].
Each segment (a `Segment`) holds the density y f(y) as a Chebyshev series
sum_k c_k T_k(s) in s = 1 + (ln y - top)/half, a polynomial in t = ln y on
[top - 2 half, top] of which the segment may cover only the upper part.
With dy = y dt, int f dy = half int (sum_k c_k T_k) ds, an exact Chebyshev
antiderivative.  `_locate` is the one cell locator: it finds each point's
cell and its s there, for a `PiecewiseFunction` and for `dual`'s
certificate alike.  `dual` builds its q and r rows in this form only when
they are read; its certificate check and dump run the same evaluator,
`_series`, and `_cell_integrals` on its per-cell arrays.  `_series` takes
points in any order, one `np.einsum` per run of points in one cell (one for
all, their coefficients gathered, where runs hold two or fewer on average),
which adds the degrees in order, so a point gets the same bits alone or in
any batch; BLAS (`@`) would not, as it blocks its sums by the operands' sizes.

The Chebyshev toolkit that `value` solves with lives here too: the NODES
points s_i = cos(i pi / (NODES - 1)), their differentiation matrix and
barycentric weights, the map from node values to coefficients, and the
antiderivative matrices (Trefethen, Spectral Methods in MATLAB, ch. 6 and
12).  This module imports nothing from the package.
"""

from __future__ import annotations

from collections import namedtuple
from typing import Sequence

import numpy as np


# -- Chebyshev toolkit -------------------------------------------------------

NODES = 28  # Chebyshev points per cell


def _cheb(m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Points s_i = cos(i pi / m), i = 0..m (descending from 1), the
    differentiation matrix at them and their barycentric weights."""
    s = np.sin(np.pi * np.arange(m, -m - 1, -2) / (2 * m))
    c = np.where(np.arange(m + 1) % 2, -1.0, 1.0)
    c[[0, -1]] *= 2.0
    ds = s[:, None] - s[None, :]
    d = np.outer(c, 1.0 / c) / (ds + np.eye(m + 1))
    d -= np.diag(d.sum(axis=1))
    return s, d, 1.0 / c


def _antiderivative(coef: np.ndarray) -> np.ndarray:
    """Coefficients b of an antiderivative in s of the series a = coef,
    degree-major (any axes after the first are rows): b_0 = 0 and
    b_k = (c a_{k-1} - a_{k+1}) / (2k), c = 2 for k = 1, else 1.
    Element-wise, so a row gets the same bits alone or among others."""
    k = np.arange(1, len(coef) + 1).reshape(-1, *[1] * (coef.ndim - 1))
    anti = np.zeros((len(coef) + 1, *coef.shape[1:]))
    anti[1:] = np.where(k == 1, 2.0, 1.0) * coef
    anti[1:-2] -= coef[2:]
    anti[1:] /= 2 * k
    return anti


def _coefficients(m: int) -> tuple[np.ndarray, np.ndarray]:
    """The matrix taking node values v to the Chebyshev coefficients a of
    their interpolant p = sum_k a_k T_k (a cosine sum over the nodes), and
    the one taking v to the node values of int_s^1 p = sum_k b_k (1 - T_k(s)),
    b = `_antiderivative`(a)."""
    cos = np.cos(np.outer(np.arange(m + 2), np.pi * np.arange(m + 1) / m))
    to_coef = cos[: m + 1] * (2.0 / m)  # a = to_coef @ v
    to_coef[:, [0, -1]] /= 2.0
    to_coef[[0, -1]] /= 2.0
    return to_coef, (1.0 - cos.T) @ _antiderivative(np.eye(m + 1)) @ to_coef


CHEB_S, CHEB_D, CHEB_WEIGHTS = _cheb(NODES - 1)
TO_COEF, ANTI = _coefficients(NODES - 1)


def _series(coef: np.ndarray, seg: np.ndarray, s: np.ndarray) -> np.ndarray:
    """sum_k coef[k, ..., seg[i]] T_k(s[i]) at every point i, in any order: a run of
    points in one cell at a time or, if runs hold two points or fewer on average, all
    at once; coef is degree-major with segments last, the result has its middle axes."""
    n = len(s)
    # a spare column keeps a lone point's T_k strided; contiguous, einsum sums them unrolled
    basis = np.empty((len(coef), n + 1))[:, :n]
    basis[0], basis[1:2], two_s = 1.0, s, s + s
    for k in range(2, len(coef)):
        basis[k] = two_s * basis[k - 1] - basis[k - 2]
    out = np.empty(coef.shape[1:-1] + (n,))
    starts = np.flatnonzero(seg != np.concatenate(([-1], seg[:-1])))  # each run's first point
    # coefficients gathered point by point; past two points a run, per-run einsums
    # give the same bits faster (gathering only: certify's 24 checks 35 -> 55 ms)
    if n <= 2 * len(starts):
        np.einsum("k...p,kp->...p", coef[..., seg], basis, out=out)
    else:
        for c, a, b in zip(seg[starts].tolist(), starts.tolist(), [*starts[1:].tolist(), n]):
            np.einsum("k...,kp->...p", coef[..., c], basis[:, a:b], out=out[..., a:b])
    return out


def _locate(bps: np.ndarray, tops: np.ndarray, half, x: np.ndarray) -> tuple:
    """Each point's cell among [bps[i], bps[i+1]], the last that starts at
    or below it (cell 0 below bps[0], the top cell at or above bps[-1]),
    and its s = 1 + (ln x - top)/half there; half is one number for all
    cells or one per cell."""
    cell = np.searchsorted(bps, x, side="right") - 1
    np.clip(cell, 0, len(tops) - 1, out=cell)
    return cell, 1.0 + (np.log(x) - tops[cell]) / (half[cell] if np.ndim(half) else half)


def _cell_integrals(anti: np.ndarray, bps: np.ndarray, tops: np.ndarray, half) -> tuple:
    """For antiderivative series (degree-major, segments last) on segments
    [bps[i], bps[i+1]]: each at its segment's top, and the integrals over
    segments i.. summed from the top (suffix[..., i], suffix[..., n] = 0)."""
    s = 1.0 + (np.log([bps[1:], bps[:-1]]) - tops) / half  # each segment's top and bottom
    ends = _series(anti, np.arange(len(tops)).repeat(2), s.T.ravel())
    top = ends[..., 0::2]
    whole = half * (top - ends[..., 1::2])
    suffix = np.zeros(whole.shape[:-1] + (len(tops) + 1,))
    suffix[..., :-1] = np.cumsum(whole[..., ::-1], axis=-1)[..., ::-1]
    return top, suffix


def _as_points(points: Sequence[float]) -> np.ndarray:
    xs = np.ascontiguousarray(points, dtype=np.float64)
    if xs.ndim != 1:
        raise ValueError(f"points must form a 1-D array, not shape {xs.shape}")
    return xs


# -- piecewise functions -----------------------------------------------------


class Segment(namedtuple("Segment", [
    "top", "half",  # float
    "coef",  # np.ndarray
])):
    """One segment: f(y) = sum_k coef[k] T_k(s) / y, s = 1 + (ln y - top)/half."""

    __slots__ = ()

    @property
    def terms(self) -> dict[int, float]:
        """Chebyshev degree -> coefficient."""
        return dict(enumerate(self.coef.tolist()))


class PiecewiseFunction:
    """Function on [breakpoints[0], breakpoints[-1]], zero outside.

    Segment i, on [breakpoints[i], breakpoints[i+1]], is
    Segment(tops[i], halves[i], coef[i]): coef has one row of Chebyshev
    coefficients per segment, and halves may be one number for all.
    Continuity across breakpoints is a property of the constructions, not
    enforced here.  Whole-segment integrals are built on first use.
    """

    def __init__(
        self,
        breakpoints: Sequence[float],
        tops: Sequence[float],
        halves: float | Sequence[float],
        coef: np.ndarray,
    ):
        bps = [float(b) for b in breakpoints]
        coef = np.asarray(coef, dtype=np.float64)
        if coef.ndim != 2 or len(tops) != len(coef):
            raise ValueError("need one top and one row of coefficients per segment")
        if len(bps) != len(coef) + 1 and (bps or len(coef)):
            raise ValueError("need exactly one segment per breakpoint gap")
        if any(b2 <= b1 for b1, b2 in zip(bps, bps[1:])):
            raise ValueError("breakpoints must be strictly increasing")
        self.breakpoints = bps
        self._bps = np.array(bps)
        self._top = np.array(tops, dtype=np.float64)
        self._half = np.zeros(len(self._top)) + halves
        self._coef = coef
        self._sums: tuple | None = None

    @staticmethod
    def zero() -> "PiecewiseFunction":
        return PiecewiseFunction([], [], 1.0, np.empty((0, NODES)))

    @property
    def segments(self) -> list[Segment]:
        return [
            Segment(t, h, c)
            for t, h, c in zip(self._top.tolist(), self._half.tolist(), self._coef)
        ]

    @property
    def lo(self) -> float:
        return self.breakpoints[0] if self.breakpoints else 1.0

    @property
    def hi(self) -> float:
        return self.breakpoints[-1] if self.breakpoints else 1.0

    def is_zero(self) -> bool:
        return not len(self._coef)

    def value(self, x: float) -> float:
        """`values` at the one point x."""
        return float(self.values([x])[0])

    def values(self, points: Sequence[float]) -> np.ndarray:
        """value at every point of a 1-D array."""
        xs = _as_points(points)
        out = np.zeros(len(xs))
        if self.is_zero():
            return out
        at = np.flatnonzero((xs >= self.lo) & (xs <= self.hi))
        x = xs[at]
        seg, s = _locate(self._bps, self._top, self._half, x)
        out[at] = _series(self._coef.T, seg, s) / x
        return out

    def _integrals(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Antiderivative coefficients and `_cell_integrals`, built once."""
        if self._sums is None:
            anti = _antiderivative(self._coef.T)
            self._sums = (anti, *_cell_integrals(anti, self._bps, self._top, self._half))
        return self._sums

    def integral(self, a: float, b: float) -> float:
        """int_a^b f(y) dy for a <= b, treating f as zero outside its support."""
        from_a, from_b = self.tail_integral([a, b]).tolist()
        return from_a - from_b if a < b else 0.0

    def tail_integral(self, points: Sequence[float]) -> np.ndarray:
        """int_x^hi f(y) dy at every point x of a 1-D array."""
        xs = _as_points(points)
        out = np.zeros(len(xs))
        if self.is_zero():
            return out
        anti, top, suffix = self._integrals()
        out[xs <= self.lo] = suffix[0]
        at = np.flatnonzero((xs > self.lo) & (xs < self.hi))
        seg, s = _locate(self._bps, self._top, self._half, xs[at])
        part = self._half[seg] * (top[seg] - _series(anti, seg, s))
        out[at] = suffix[seg + 1] + part
        return out

    def combine(
        self, other: "PiecewiseFunction", c_self: float = 1.0, c_other: float = 1.0
    ) -> "PiecewiseFunction":
        """c_self * self + c_other * other over the union of supports, which
        must leave no gap; where both are nonzero their segments must be the
        same cells."""
        parts = [(f, c) for f, c in ((self, c_self), (other, c_other)) if not f.is_zero()]
        if not parts:
            return PiecewiseFunction.zero()
        cuts = np.array(sorted(set(self.breakpoints) | set(other.breakpoints)))
        mid = 0.5 * (cuts[:-1] + cuts[1:])
        cell = np.full((len(mid), 2), np.nan)  # (top, half) of each gap's cell
        coef = np.zeros((len(mid), max(f._coef.shape[1] for f, _ in parts)))
        for f, c in parts:
            at = np.flatnonzero((mid >= f.lo) & (mid <= f.hi))
            seg = _locate(f._bps, f._top, f._half, mid[at])[0]
            here = np.stack([f._top[seg], f._half[seg]], axis=1)
            if not (np.isnan(cell[at]) | (cell[at] == here)).all():
                raise ValueError("combine needs both functions on the same cells")
            cell[at] = here
            coef[at, : f._coef.shape[1]] += c * f._coef[seg]
        if np.isnan(cell).any():
            raise ValueError("combine needs supports that leave no gap")
        return PiecewiseFunction(cuts, cell[:, 0], cell[:, 1], coef)
