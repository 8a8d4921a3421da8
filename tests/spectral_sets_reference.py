"""Reference copy of the per-arc loop implementation of cmvlab.spectral_sets.

The array implementation in the package must equal it bit for bit; see
test_spectral_sets.py.  Only this docstring paragraph and the full-circle
test of ``_canonical``, which sums the merged arcs with ``np.sum`` as
``measure()`` does, differ from the loop version, which also held
``spectral_variation_check``; no test compares that one, so it is left out.

Finite unions of closed arcs on the unit circle.

Arc sets are the common currency for every computed spectrum and vanishing
set: measures, Hausdorff distances in the chordal metric |z - w|, set
differences and the preimage under the double cover z -> z^2.  Degenerate
(width zero) arcs are allowed so that finite eigenvalue clouds can be compared
with band sets.

All values are immutable; operations return new sets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "CircleArcSet",
    "TWO_PI",
]

TWO_PI = 2.0 * math.pi
_MERGE_TOL = 1e-12  # endpoint tolerance below which arcs fuse


def _canonical(raw: Iterable[tuple[float, float]]) -> np.ndarray:
    segs = []
    for lo, hi in raw:
        lo = float(lo)
        hi = float(hi)
        if hi < lo:
            raise ValueError(f"arc endpoints out of order: [{lo}, {hi}]")
        width = hi - lo
        if width >= TWO_PI - _MERGE_TOL:
            return np.array([[0.0, TWO_PI]])
        lo = lo % TWO_PI
        hi = lo + width
        if hi > TWO_PI:
            segs.append([lo, TWO_PI])
            segs.append([0.0, hi - TWO_PI])
        else:
            segs.append([lo, hi])
    if not segs:
        return np.zeros((0, 2))
    segs.sort()
    merged = [segs[0][:]]
    for lo, hi in segs[1:]:
        if lo <= merged[-1][1] + _MERGE_TOL:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    # rejoin across the 0 / 2*pi cut
    if len(merged) >= 2 and merged[-1][1] >= TWO_PI - _MERGE_TOL \
            and merged[0][0] <= _MERGE_TOL:
        first = merged.pop(0)
        merged[-1][1] = TWO_PI + first[1]
    total = np.sum([h - l for l, h in merged])
    if total >= TWO_PI - _MERGE_TOL:
        return np.array([[0.0, TWO_PI]])
    return np.array(merged)


def _ang_gap(a: float, b: float) -> float:
    """Angular distance between two angles, in [0, pi]."""
    d = abs(a - b) % TWO_PI
    return min(d, TWO_PI - d)


def _chord(ang: float) -> float:
    """Chordal distance corresponding to an angular separation."""
    return 2.0 * math.sin(min(ang, math.pi) / 2.0)


@dataclass(frozen=True)
class CircleArcSet:
    """Canonical finite union of closed arcs [lo, hi] on the circle.

    Arcs are sorted by lo in [0, 2*pi), pairwise disjoint, with the last arc
    allowed to wrap past 2*pi.  The full circle is the single arc [0, 2*pi].
    """

    arcs: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.arcs, dtype=float).reshape(-1, 2)
        arr = _canonical(arr)
        arr.flags.writeable = False
        object.__setattr__(self, "arcs", arr)

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_arcs(cls, arcs: Iterable[tuple[float, float]]) -> "CircleArcSet":
        return cls(np.asarray(list(arcs), dtype=float).reshape(-1, 2))

    @classmethod
    def from_points(cls, angles: Sequence[float]) -> "CircleArcSet":
        return cls.from_arcs([(float(a), float(a)) for a in angles])

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
        t = float(angle) % TWO_PI
        for lo, hi in self.arcs:
            if lo - tol <= t <= hi + tol or lo - tol <= t + TWO_PI <= hi + tol:
                return True
        return False

    # -- measure and set algebra ---------------------------------------------

    def measure(self) -> float:
        """Total arc length (Lebesgue measure on the circle)."""
        if self.is_empty():
            return 0.0
        return float(np.sum(self.arcs[:, 1] - self.arcs[:, 0]))

    def _linear(self) -> list[tuple[float, float]]:
        """Segments on [0, 2*pi], the wrap arc split in two."""
        out = []
        for lo, hi in self.arcs:
            if hi > TWO_PI:
                out.append((lo, TWO_PI))
                out.append((0.0, hi - TWO_PI))
            else:
                out.append((lo, hi))
        out.sort()
        return out

    def complement(self) -> "CircleArcSet":
        if self.is_empty():
            return CircleArcSet.full_circle()
        if self.is_full():
            return CircleArcSet.empty()
        gaps = []
        prev = 0.0
        for lo, hi in self._linear():
            if lo > prev:
                gaps.append((prev, lo))
            prev = max(prev, hi)
        if prev < TWO_PI:
            gaps.append((prev, TWO_PI))
        return CircleArcSet.from_arcs(gaps)

    def union(self, other: "CircleArcSet") -> "CircleArcSet":
        if self.is_empty():
            return other
        if other.is_empty():
            return self
        return CircleArcSet.from_arcs(
            [tuple(a) for a in self.arcs] + [tuple(a) for a in other.arcs]
        )

    def intersection(self, other: "CircleArcSet") -> "CircleArcSet":
        if self.is_empty() or other.is_empty():
            return CircleArcSet.empty()
        if self.is_full():
            return other
        if other.is_full():
            return self
        a = self._linear()
        b = other._linear()
        out = []
        for lo1, hi1 in a:
            for lo2, hi2 in b:
                lo = max(lo1, lo2)
                hi = min(hi1, hi2)
                # slivers below the endpoint tolerance are roundoff artifacts
                if hi - lo > _MERGE_TOL:
                    out.append((lo, hi))
        if not out:
            return CircleArcSet.empty()
        return CircleArcSet.from_arcs(out)

    def difference(self, other: "CircleArcSet") -> "CircleArcSet":
        return self.intersection(other.complement())

    def diff_measure(self, other: "CircleArcSet") -> float:
        """Lebesgue measure of self minus other."""
        return self.difference(other).measure()

    # -- metric operations -----------------------------------------------------

    def _point_ang_distance(self, angle: float) -> float:
        if self.is_empty():
            return math.pi
        t = float(angle) % TWO_PI
        best = math.pi
        for lo, hi in self.arcs:
            for tt in (t, t + TWO_PI):
                if lo <= tt <= hi:
                    return 0.0
            best = min(best, _ang_gap(t, lo), _ang_gap(t, hi % TWO_PI))
        return best

    def hausdorff(self, other: "CircleArcSet") -> float:
        """Hausdorff distance in the chordal metric; inf if either set is empty."""
        if self.is_empty() or other.is_empty():
            return math.inf
        d = max(self._directed_ang(other), other._directed_ang(self))
        return _chord(d)

    def _directed_ang(self, other: "CircleArcSet") -> float:
        """sup over points of self of the angular distance to other."""
        if other.is_full():
            return 0.0
        best = 0.0
        for lo, hi in self.arcs:
            best = max(best, other._point_ang_distance(lo))
            best = max(best, other._point_ang_distance(hi % TWO_PI))
        # deepest points of self inside the gaps of other; strict containment,
        # since a gap narrower than the merge tolerance is still a gap
        for glo, ghi in other.complement().arcs:
            mid = 0.5 * (glo + ghi)
            if self.contains(mid, tol=0.0):
                best = max(best, other._point_ang_distance(mid))
        return best

    def preimage_double(self) -> "CircleArcSet":
        """Preimage under z -> z^2: two half-scale copies, measure preserved."""
        if self.is_empty():
            return CircleArcSet.empty()
        out = []
        for lo, hi in self.arcs:
            out.append((lo / 2.0, hi / 2.0))
            out.append((lo / 2.0 + math.pi, hi / 2.0 + math.pi))
        return CircleArcSet.from_arcs(out)

    def sample(self, n: int) -> list[float]:
        """n angles spread over the arcs proportionally to arc length."""
        if n < 1:
            raise ValueError(f"n must be positive, got {n}")
        if self.is_empty():
            raise ValueError("cannot sample an empty set")
        total = self.measure()
        if total == 0.0:  # pure point set: cycle through the points
            pts = [float(lo) for lo, _ in self.arcs]
            return [pts[i % len(pts)] for i in range(n)]
        targets = [(i + 0.5) / n * total for i in range(n)]
        out = []
        acc = 0.0
        ti = 0
        for lo, hi in self.arcs:
            width = hi - lo
            while ti < n and targets[ti] <= acc + width:
                out.append(float(lo + (targets[ti] - acc)))
                ti += 1
            acc += width
        while ti < n:  # guard against roundoff at the last endpoint
            out.append(float(self.arcs[-1][1]))
            ti += 1
        return out

    # -- export -------------------------------------------------------------

    def to_json(self) -> dict:
        return {"arcs": [[float(lo), float(hi)] for lo, hi in self.arcs]}
