"""Lower convex hulls of miss curves.

Talus traces the *convex hull* of the underlying policy's miss curve
(Theorem 6 of the paper).  The hull of a miss curve is the smallest convex
curve lying on or below it — "the curve produced by stretching a taut rubber
band across the curve from below."

The paper computes hulls with the three-coins algorithm; here we use the
equivalent monotone-chain (Andrew) lower-hull scan, which is also a single
linear pass over the size-sorted points.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from .misscurve import MissCurve

__all__ = [
    "lower_convex_hull_points",
    "convex_hull",
    "hull_neighbors",
    "is_convex",
    "HullSegment",
    "hull_segments",
]


def lower_convex_hull_points(points: Sequence[Tuple[float, float]],
                             tolerance: float = 0.0,
                             ) -> List[Tuple[float, float]]:
    """Return the lower convex hull of ``(x, y)`` points sorted by ``x``.

    The input must be sorted by strictly increasing ``x``.  The output is the
    subset of input points that lie on the lower hull, in increasing ``x``
    order, always including the first and last point.

    Parameters
    ----------
    points:
        ``(x, y)`` pairs with strictly increasing ``x``.
    tolerance:
        Points within ``tolerance`` of a hull edge (by cross-product measure)
        are dropped from the hull, which removes collinear points.  With the
        default ``0.0``, exactly-collinear interior points are removed but
        any point strictly below the chord is kept.
    """
    pts = list(points)
    if len(pts) < 2:
        return list(pts)
    xs = [p[0] for p in pts]
    if any(x2 <= x1 for x1, x2 in zip(xs, xs[1:])):
        raise ValueError("points must have strictly increasing x")
    hull: List[Tuple[float, float]] = []
    for p in pts:
        px, py = p[0], p[1]
        # Keep turning clockwise: a cross product OA x OP <= 0 (O, A the
        # last two hull points) means A is on or above the chord OP.
        while len(hull) >= 2:
            o, a = hull[-2], hull[-1]
            if not ((a[0] - o[0]) * (py - o[1])
                    - (a[1] - o[1]) * (px - o[0]) <= tolerance):
                break
            hull.pop()
        hull.append(p)
    return hull


def convex_hull(curve: MissCurve, tolerance: float = 0.0) -> MissCurve:
    """Return the lower convex hull of a miss curve as a new :class:`MissCurve`.

    The hull is sampled only at its vertex points (the sizes where the
    original curve and the hull coincide); since :class:`MissCurve`
    interpolates linearly, evaluating the returned curve at any size yields
    the hull value there.

    The exact hull (``tolerance == 0``) is computed once per curve and
    memoised on it, so every planner step that needs the hull of the same
    curve shares one object.
    """
    if tolerance != 0.0:
        return MissCurve.from_points(
            lower_convex_hull_points(curve.points(), tolerance=tolerance))
    hull = curve.__dict__.get("_hull")
    if hull is None:
        hull = MissCurve.from_points(lower_convex_hull_points(curve.points()))
        object.__setattr__(curve, "_hull", hull)
    return hull


def hull_neighbors(curve: MissCurve, size: float) -> Tuple[float, float]:
    """Return hull vertices ``(alpha, beta)`` bracketing ``size``.

    ``alpha`` is the largest hull-vertex size that is ``<= size`` and ``beta``
    is the smallest hull-vertex size that is ``> size`` (Theorem 6).  If
    ``size`` is at or beyond the last hull vertex, both are that last vertex
    — the degenerate case where no interpolation is needed.

    Raises
    ------
    ValueError
        If ``size`` is below the curve's smallest sampled size.
    """
    if size < curve.min_size:
        raise ValueError(
            f"size {size} below curve's smallest sample {curve.min_size}")
    vertices = convex_hull(curve).sizes
    if size >= vertices[-1]:
        return float(vertices[-1]), float(vertices[-1])
    index = int(np.searchsorted(vertices, size, side="right"))
    return float(vertices[index - 1]), float(vertices[index])


def is_convex(curve: MissCurve, tolerance: float = 1e-9) -> bool:
    """Whether a miss curve is convex (slopes non-decreasing), within tolerance.

    Tolerance is relative to the curve's miss-value range, so it is unit
    independent.
    """
    if len(curve) < 3:
        return True
    scale = max(float(curve.misses.max() - curve.misses.min()), 1.0)
    dx = np.diff(curve.sizes)
    dy = np.diff(curve.misses)
    slopes = dy / dx
    return bool(np.all(np.diff(slopes) >= -tolerance * scale))


@dataclass(frozen=True)
class HullSegment:
    """One linear segment of a convex hull.

    Attributes
    ----------
    start_size, end_size:
        Sizes of the two hull vertices the segment connects.
    start_misses, end_misses:
        Miss values at those vertices.
    """

    start_size: float
    end_size: float
    start_misses: float
    end_misses: float

    @property
    def slope(self) -> float:
        """Miss reduction per unit of size along this segment (usually <= 0)."""
        return (self.end_misses - self.start_misses) / (self.end_size - self.start_size)

    @property
    def span(self) -> float:
        """Length of the segment along the size axis."""
        return self.end_size - self.start_size

    def contains(self, size: float) -> bool:
        """Whether ``size`` falls within this segment (inclusive)."""
        return self.start_size <= size <= self.end_size

    def interpolate(self, size: float) -> float:
        """Hull miss value at ``size`` (must lie within the segment)."""
        if not self.contains(size):
            raise ValueError(f"size {size} outside segment "
                             f"[{self.start_size}, {self.end_size}]")
        return self.start_misses + self.slope * (size - self.start_size)


def hull_segments(curve: MissCurve) -> List[HullSegment]:
    """Return the convex hull of ``curve`` as a list of linear segments."""
    hull = convex_hull(curve)
    segments = []
    for i in range(len(hull) - 1):
        segments.append(HullSegment(
            start_size=float(hull.sizes[i]),
            end_size=float(hull.sizes[i + 1]),
            start_misses=float(hull.misses[i]),
            end_misses=float(hull.misses[i + 1]),
        ))
    return segments
