"""Unit and property tests for convex hulls and cliff diagnostics."""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (Cliff, MissCurve, convex_hull, convexity_gap,
                        find_cliffs, hull_neighbors, hull_segments, is_convex,
                        lower_convex_hull_points, total_convexity_gap)

from .conftest import miss_curves


class TestLowerHullPoints:
    def test_trivial_cases(self):
        assert lower_convex_hull_points([(0, 1)]) == [(0, 1)]
        assert lower_convex_hull_points([(0, 1), (1, 0)]) == [(0, 1), (1, 0)]

    def test_removes_points_above_chord(self):
        pts = [(0, 10), (1, 10), (2, 0)]
        hull = lower_convex_hull_points(pts)
        assert hull == [(0, 10), (2, 0)]

    def test_keeps_points_below_chord(self):
        pts = [(0, 10), (1, 2), (2, 0)]
        hull = lower_convex_hull_points(pts)
        assert hull == [(0, 10), (1, 2), (2, 0)]

    def test_removes_collinear_interior_points(self):
        pts = [(0, 10), (1, 5), (2, 0)]
        assert lower_convex_hull_points(pts) == [(0, 10), (2, 0)]

    def test_rejects_unsorted_x(self):
        with pytest.raises(ValueError):
            lower_convex_hull_points([(1, 0), (0, 1)])


class TestConvexHull:
    def test_example_hull_vertices(self, example_curve):
        hull = convex_hull(example_curve)
        # The plateau (3, 4 MB) and the redundant tail points disappear.
        assert 2.0 in hull.sizes
        assert 5.0 in hull.sizes
        assert 3.0 not in hull.sizes
        assert 4.0 not in hull.sizes

    def test_hull_of_convex_curve_matches_curve(self, convex_curve):
        hull = convex_hull(convex_curve)
        for size in convex_curve.sizes:
            assert hull(size) == pytest.approx(convex_curve(size), abs=1e-9)

    def test_hull_is_convex_and_below(self, example_curve):
        hull = convex_hull(example_curve)
        assert is_convex(hull)
        for size in np.linspace(0, 10, 101):
            assert hull(size) <= example_curve(size) + 1e-9

    @settings(max_examples=60, deadline=None)
    @given(curve=miss_curves())
    def test_hull_properties_hold_generally(self, curve):
        hull = convex_hull(curve)
        assert is_convex(hull, tolerance=1e-7)
        for size in curve.sizes:
            assert hull(size) <= curve(size) + 1e-7
        # Hull and curve agree at both ends.
        assert hull(curve.min_size) == pytest.approx(curve(curve.min_size))
        assert hull(curve.max_size) == pytest.approx(curve(curve.max_size))


class TestHullMemo:
    """The exact hull is computed once per curve and memoised on it."""

    def test_same_object_and_equal_to_a_fresh_hull(self, example_curve):
        hull = convex_hull(example_curve)
        assert convex_hull(example_curve) is hull
        fresh = MissCurve.from_points(
            lower_convex_hull_points(example_curve.points()))
        assert np.array_equal(hull.sizes, fresh.sizes)
        assert np.array_equal(hull.misses, fresh.misses)

    def test_tolerance_hulls_are_not_memoised(self, example_curve):
        exact = convex_hull(example_curve)
        loose = convex_hull(example_curve, tolerance=1e-9)
        assert loose is not exact
        assert convex_hull(example_curve, tolerance=1e-9) is not loose
        assert convex_hull(example_curve) is exact

    def test_equality_hash_and_pickle_ignore_the_memo(self, example_curve):
        twin = MissCurve(example_curve.sizes.copy(),
                         example_curve.misses.copy())
        before = hash(example_curve)
        convex_hull(example_curve)
        assert hash(example_curve) == before == hash(twin)
        assert example_curve == twin
        assert pickle.dumps(example_curve) == pickle.dumps(twin)
        restored = pickle.loads(pickle.dumps(example_curve))
        assert restored == example_curve
        assert "_hull" not in vars(restored)
        assert np.array_equal(convex_hull(restored).sizes,
                              convex_hull(example_curve).sizes)


class TestHullNeighbors:
    def test_bracketing_inside_cliff(self, example_curve):
        alpha, beta = hull_neighbors(example_curve, 4.0)
        assert alpha == 2.0
        assert beta == 5.0

    def test_at_vertex(self, example_curve):
        alpha, beta = hull_neighbors(example_curve, 2.0)
        assert alpha == 2.0
        assert beta == 5.0

    def test_beyond_curve(self, example_curve):
        alpha, beta = hull_neighbors(example_curve, 100.0)
        assert alpha == beta == example_curve.max_size

    def test_below_curve_raises(self):
        curve = MissCurve([1, 2], [5, 1])
        with pytest.raises(ValueError):
            hull_neighbors(curve, 0.5)

    @settings(max_examples=60, deadline=None)
    @given(curve=miss_curves(), where=st.floats(0.0, 1.25))
    def test_matches_a_vertex_mask_scan(self, curve, where):
        size = curve.min_size + where * (curve.max_size - curve.min_size)
        vertices = convex_hull(curve).sizes
        if size >= vertices[-1]:
            expected = (float(vertices[-1]), float(vertices[-1]))
        else:
            expected = (float(vertices[vertices <= size][-1]),
                        float(vertices[vertices > size][0]))
        assert hull_neighbors(curve, size) == expected


class TestIsConvex:
    def test_convex_curve(self, convex_curve):
        assert is_convex(convex_curve)

    def test_cliffy_curve(self, example_curve):
        assert not is_convex(example_curve)

    def test_short_curves_are_convex(self):
        assert is_convex(MissCurve([0, 1], [5, 2]))
        assert is_convex(MissCurve([0], [5]))


class TestHullSegments:
    def test_segments_cover_range(self, example_curve):
        segments = hull_segments(example_curve)
        assert segments[0].start_size == example_curve.min_size
        assert segments[-1].end_size == example_curve.max_size
        for a, b in zip(segments, segments[1:]):
            assert a.end_size == b.start_size

    def test_segment_interpolation(self, example_curve):
        segments = hull_segments(example_curve)
        seg = next(s for s in segments if s.contains(4.0))
        assert seg.interpolate(4.0) == pytest.approx(6.0)
        with pytest.raises(ValueError):
            seg.interpolate(100.0)

    def test_slopes_non_decreasing(self, example_curve):
        segments = hull_segments(example_curve)
        slopes = [s.slope for s in segments]
        assert all(b >= a - 1e-12 for a, b in zip(slopes, slopes[1:]))


class TestCliffDetection:
    def test_example_cliff_found(self, example_curve):
        cliffs = find_cliffs(example_curve)
        assert len(cliffs) == 1
        cliff = cliffs[0]
        assert isinstance(cliff, Cliff)
        assert cliff.start_size == 2.0
        assert cliff.end_size == 5.0
        assert cliff.max_gap == pytest.approx(6.0)   # at 4 MB: 12 vs 6
        assert cliff.drop == pytest.approx(9.0)

    def test_convex_curve_has_no_cliffs(self, convex_curve):
        assert find_cliffs(convex_curve) == []

    def test_convexity_gap(self, example_curve, convex_curve):
        assert convexity_gap(example_curve, 4.0) == pytest.approx(6.0)
        assert convexity_gap(example_curve, 2.0) == pytest.approx(0.0)
        assert convexity_gap(convex_curve, 5.0) == pytest.approx(0.0, abs=1e-9)

    def test_total_gap_zero_iff_convex(self, example_curve, convex_curve):
        assert total_convexity_gap(convex_curve) == pytest.approx(0.0, abs=1e-6)
        assert total_convexity_gap(example_curve) > 1.0

    @settings(max_examples=40, deadline=None)
    @given(curve=miss_curves())
    def test_gap_nonnegative(self, curve):
        for size in curve.sizes:
            assert convexity_gap(curve, float(size)) >= -1e-9
