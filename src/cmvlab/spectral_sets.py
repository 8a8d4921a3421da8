"""Finite unions of closed arcs on the unit circle.

Arc sets are the common currency for every computed spectrum and vanishing
set: measures, Hausdorff distances in the chordal metric |z - w|, set
differences and the preimage under the double cover z -> z^2.  Degenerate
(width zero) arcs are allowed so that finite eigenvalue clouds can be compared
with band sets.

A set is one sorted (n, 2) array of arcs; every operation is a sort or an
``np.searchsorted`` pass over it, O((n + m) log(n + m)) for sets of n and m
arcs.  Gaps narrower than ``_MERGE_TOL`` are fused.

All values are immutable; operations return new sets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

__all__ = ["CircleArcSet", "spectral_variation_check", "TWO_PI"]

TWO_PI = 2.0 * math.pi
_MERGE_TOL = 1e-12  # endpoint tolerance below which arcs fuse


def _canonical(arcs: np.ndarray) -> np.ndarray:
    """Sorted, merged arcs of the (n, 2) array ``arcs``; see CircleArcSet."""
    nan = np.flatnonzero(np.isnan(arcs).any(axis=1))
    if nan.size:
        raise ValueError(f"arc endpoints must not be NaN, got {arcs[nan[0]].tolist()}")
    lo, hi = arcs.T
    width = hi - lo
    # the first arc, in input order, that is reversed or as wide as the circle
    # decides between the refusal and the full circle
    stop = np.flatnonzero((hi < lo) | (width >= TWO_PI - _MERGE_TOL))
    if stop.size:
        i = stop[0]
        if hi[i] < lo[i]:
            raise ValueError(f"arc endpoints out of order: [{float(lo[i])}, {float(hi[i])}]")
        return np.array([[0.0, TWO_PI]])
    lo = lo % TWO_PI
    hi = lo + width
    wrap = hi > TWO_PI  # split past 2*pi: [lo, 2*pi] and [0, hi - 2*pi]
    lo = np.concatenate([lo, np.zeros(np.count_nonzero(wrap))])
    hi = np.concatenate([np.minimum(hi, TWO_PI), hi[wrap] - TWO_PI])
    if lo.size == 0:
        return np.zeros((0, 2))
    order = np.lexsort((hi, lo))
    lo, hi = lo[order], hi[order]
    # a group starts at an arc beginning past the reach of every earlier arc
    reach = np.maximum.accumulate(hi)
    start = np.flatnonzero(lo > np.append(-np.inf, reach[:-1] + _MERGE_TOL))
    lo, hi = lo[start], reach[np.append(start[1:], lo.size) - 1]
    # rejoin across the 0 / 2*pi cut
    if lo.size >= 2 and hi[-1] >= TWO_PI - _MERGE_TOL and lo[0] <= _MERGE_TOL:
        hi[-1] = TWO_PI + hi[0]
        lo, hi = lo[1:], hi[1:]
    if np.sum(hi - lo) >= TWO_PI - _MERGE_TOL:  # the sum of measure()
        return np.array([[0.0, TWO_PI]])
    return np.column_stack([lo, hi])


def _covers(arcs: np.ndarray, angles, tol: float) -> np.ndarray:
    """Whether each angle lies within tol of the canonical ``arcs``: lo and hi
    both ascend, so the one candidate arc for x is the last with lo - tol <= x,
    at x = angle mod 2*pi and one turn further (the wrap arc)."""
    t = np.mod(angles, TWO_PI)
    lo = arcs[:, 0] - tol
    hi = np.append(arcs[:, 1] + tol, -np.inf)  # index -1: no candidate arc
    return np.any([x <= hi[np.searchsorted(lo, x, side="right") - 1]
                   for x in (t, t + TWO_PI)], axis=0)


def _ang_distance(arcs: np.ndarray, angles: np.ndarray) -> np.ndarray:
    """Angular distance, in [0, pi], from each angle t to the nonempty canonical
    ``arcs``: 0 inside an arc, else to the nearest endpoint e.  On each side of
    t, d = |t - e| is monotone in e even after rounding, and min(d, 2*pi - d) is
    least at the least or the greatest d: at a neighbour of t or an extreme e."""
    t = np.mod(angles, TWO_PI)
    ends = np.sort(np.concatenate([arcs[:, 0], arcs[:, 1] % TWO_PI]))
    j = np.searchsorted(ends, t, side="right")
    near = np.clip([j - 1, j, 0 * j, 0 * j + ends.size], 0, ends.size - 1)
    d = np.abs(t - ends[near]) % TWO_PI
    return np.where(_covers(arcs, t, 0.0), 0.0, np.minimum(d, TWO_PI - d).min(axis=0))


@dataclass(frozen=True)
class CircleArcSet:
    """Canonical finite union of closed arcs [lo, hi] on the circle.

    Arcs are sorted by lo in [0, 2*pi), pairwise disjoint, with the last arc
    allowed to wrap past 2*pi.  The full circle is the single arc [0, 2*pi].
    """

    arcs: np.ndarray

    def __post_init__(self):
        arr = _canonical(np.asarray(self.arcs, dtype=float).reshape(-1, 2))
        arr.flags.writeable = False
        object.__setattr__(self, "arcs", arr)

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_arcs(cls, arcs: Iterable[tuple[float, float]]) -> "CircleArcSet":
        return cls(arcs)

    @classmethod
    def from_points(cls, angles: Sequence[float]) -> "CircleArcSet":
        return cls(np.stack([angles, angles], axis=-1))

    @classmethod
    def full_circle(cls) -> "CircleArcSet":
        return cls.from_arcs([(0.0, TWO_PI)])

    @classmethod
    def empty(cls) -> "CircleArcSet":
        return cls(np.zeros((0, 2)))

    # -- basic predicates ----------------------------------------------------

    def is_empty(self) -> bool:
        return self.arcs.shape[0] == 0

    def is_full(self) -> bool:
        return self.arcs.shape[0] == 1 and self.arcs[0, 1] - self.arcs[0, 0] >= TWO_PI - _MERGE_TOL

    def contains(self, angle: float, tol: float = _MERGE_TOL) -> bool:
        return bool(_covers(self.arcs, float(angle), tol))

    # -- measure and set algebra ---------------------------------------------

    def measure(self) -> float:
        """Total arc length (Lebesgue measure on the circle)."""
        return float(np.sum(self.arcs[:, 1] - self.arcs[:, 0]))

    def _linear(self) -> tuple[np.ndarray, np.ndarray]:
        """Sorted disjoint segments (lo, hi) on [0, 2*pi], the wrap arc split."""
        lo, hi = self.arcs.T
        if hi.size and hi[-1] > TWO_PI:
            return np.append(0.0, lo), np.concatenate([[hi[-1] - TWO_PI], hi[:-1], [TWO_PI]])
        return lo, hi

    def complement(self) -> "CircleArcSet":
        if self.is_empty():
            return CircleArcSet.full_circle()
        if self.is_full():
            return CircleArcSet.empty()
        lo, hi = self._linear()
        gaps = np.column_stack([np.append(0.0, hi), np.append(lo, TWO_PI)])
        return CircleArcSet(gaps[gaps[:, 0] < gaps[:, 1]])

    def union(self, other: "CircleArcSet") -> "CircleArcSet":
        if self.is_empty():
            return other
        if other.is_empty():
            return self
        return CircleArcSet(np.concatenate([self.arcs, other.arcs]))

    def intersection(self, other: "CircleArcSet") -> "CircleArcSet":
        if self.is_empty() or other.is_empty():
            return CircleArcSet.empty()
        if self.is_full():
            return other
        if other.is_full():
            return self
        (alo, ahi), (blo, bhi) = self._linear(), other._linear()
        # segment i meets only other's segments first[i], ..., first[i] + count[i] - 1:
        # those that end after it starts and start before it ends
        first = np.searchsorted(bhi, alo, side="right")
        count = np.maximum(np.searchsorted(blo, ahi, side="left") - first, 0)
        ia = np.repeat(np.arange(alo.size), count)
        ib = first[ia] + np.arange(ia.size) - np.repeat(np.cumsum(count) - count, count)
        seg = np.column_stack([np.maximum(alo[ia], blo[ib]), np.minimum(ahi[ia], bhi[ib])])
        # slivers below the endpoint tolerance are roundoff artifacts
        return CircleArcSet(seg[seg[:, 1] - seg[:, 0] > _MERGE_TOL])

    def difference(self, other: "CircleArcSet") -> "CircleArcSet":
        return self.intersection(other.complement())

    def diff_measure(self, other: "CircleArcSet") -> float:
        """Lebesgue measure of self minus other."""
        return self.difference(other).measure()

    # -- metric operations -----------------------------------------------------

    def hausdorff(self, other: "CircleArcSet") -> float:
        """Hausdorff distance in the chordal metric; inf if either set is empty."""
        if self.is_empty() or other.is_empty():
            return math.inf
        d = max(self._directed_ang(other), other._directed_ang(self))
        return 2.0 * math.sin(d / 2.0)

    def _directed_ang(self, other: "CircleArcSet") -> float:
        """sup over points of self of the angular distance to other."""
        if other.is_full():
            return 0.0
        # deepest points of self inside the gaps of other; strict containment,
        # since a gap narrower than the merge tolerance is still a gap
        mids = other.complement().arcs.mean(axis=1)
        mids = mids[_covers(self.arcs, mids, 0.0)]
        pts = np.concatenate([self.arcs[:, 0], self.arcs[:, 1] % TWO_PI, mids])
        return float(_ang_distance(other.arcs, pts).max(initial=0.0))

    def preimage_double(self) -> "CircleArcSet":
        """Preimage under z -> z^2: two half-scale copies, measure preserved."""
        half = self.arcs / 2.0
        return CircleArcSet(np.concatenate([half, half + math.pi]))

    def sample(self, n: int) -> list[float]:
        """n angles spread over the arcs proportionally to arc length."""
        if n < 1:
            raise ValueError(f"n must be positive, got {n}")
        if self.is_empty():
            raise ValueError("cannot sample an empty set")
        lo, hi = self.arcs.T
        total = self.measure()
        if total == 0.0:  # pure point set: cycle through the points
            return lo[np.arange(n) % lo.size].tolist()
        targets = (np.arange(n) + 0.5) / n * total
        reach = np.cumsum(hi - lo)
        acc = np.append(0.0, reach[:-1])
        k = np.searchsorted(reach, targets)  # first arc reaching each target
        kk = np.minimum(k, lo.size - 1)
        out = lo[kk] + (targets - acc[kk])
        out[k == lo.size] = hi[-1]  # roundoff can leave targets past the end
        return out.tolist()

    # -- export -------------------------------------------------------------

    def to_json(self) -> dict:
        return {"arcs": self.arcs.tolist()}


def spectral_variation_check(U: np.ndarray, V: np.ndarray) -> dict:
    """Hausdorff distance of the eigenvalue sets of two square windows of one
    shape against ||U - V||; refuses a window whose unitarity residual
    max |W W* - I| is above 1e-10 (NaN too)."""
    U, V = np.asarray(U), np.asarray(V)
    if U.ndim != 2 or U.shape[0] != U.shape[1] or U.shape != V.shape:
        raise ValueError(f"windows must be square of one shape, got {U.shape} and {V.shape}")
    for W in (U, V):
        if not np.max(np.abs(W @ W.conj().T - np.eye(len(W)))) <= 1e-10:
            raise ValueError("input window is not numerically unitary")
    eig_u = np.angle(np.linalg.eigvals(U)) % TWO_PI
    eig_v = np.angle(np.linalg.eigvals(V)) % TWO_PI
    dh = CircleArcSet.from_points(eig_u).hausdorff(CircleArcSet.from_points(eig_v))
    norm = float(np.linalg.norm(U - V, 2))
    return {"dH": dh, "norm": norm, "holds": dh <= norm * (1.0 + 1e-10)}
