"""Tests for geometry primitives."""

import pytest

from repro.render.box import Box, Viewport


class TestBox:
    def test_derived_edges(self):
        box = Box(10, 20, 30, 40)
        assert box.right == 40
        assert box.bottom == 60
        assert box.area == 1200

    def test_negative_dimensions_rejected(self):
        with pytest.raises(ValueError):
            Box(0, 0, -1, 5)

    def test_intersect_overlapping(self):
        a = Box(0, 0, 10, 10)
        b = Box(5, 5, 10, 10)
        overlap = a.intersect(b)
        assert (overlap.x, overlap.y, overlap.width, overlap.height) == (5, 5, 5, 5)

    def test_intersect_disjoint_is_zero_area(self):
        a = Box(0, 0, 10, 10)
        b = Box(20, 20, 5, 5)
        assert a.intersect(b).area == 0

    def test_touching_edges_do_not_intersect(self):
        a = Box(0, 0, 10, 10)
        b = Box(10, 0, 10, 10)
        assert a.intersect(b).area == 0

    def test_containment(self):
        outer = Box(0, 0, 100, 100)
        inner = Box(10, 10, 5, 5)
        assert outer.intersect(inner).area == inner.area

    def test_intersect_commutative(self):
        a = Box(0, 0, 7, 9)
        b = Box(3, 4, 10, 2)
        assert a.intersect(b) == b.intersect(a)


class TestViewport:
    def test_default_dimensions(self):
        viewport = Viewport()
        assert viewport.width == 1366
        assert viewport.height == 768

    def test_invalid_rejected(self):
        with pytest.raises(ValueError):
            Viewport(width=0)

    def test_above_the_fold_area_full(self):
        viewport = Viewport(100, 100)
        assert viewport.above_the_fold_area(Box(0, 0, 50, 50)) == 2500

    def test_above_the_fold_area_partial(self):
        viewport = Viewport(100, 100)
        # Half the box hangs below the fold.
        assert viewport.above_the_fold_area(Box(0, 50, 10, 100)) == 500

    def test_below_the_fold_is_zero(self):
        viewport = Viewport(100, 100)
        assert viewport.above_the_fold_area(Box(0, 200, 10, 10)) == 0


def _overlap_1d(a0, a1, b0, b1):
    return max(0.0, min(a1, b1) - max(a0, b0))


class TestIntersectTable:
    @pytest.mark.parametrize(
        "a, b",
        [
            (Box(0, 0, 10, 10), Box(-5, -5, 10, 10)),
            (Box(0, 0, 10, 10), Box(2, -3, 3, 30)),
            (Box(1.5, 2.5, 4, 4), Box(3, 3, 0.5, 0.25)),
            (Box(0, 0, 10, 10), Box(0, 10, 10, 10)),
            (Box(0, 0, 0, 0), Box(0, 0, 5, 5)),
            (Box(-10, -10, 5, 5), Box(0, 0, 5, 5)),
        ],
    )
    def test_area_is_product_of_axis_overlaps(self, a, b):
        expected = _overlap_1d(a.x, a.right, b.x, b.right) * _overlap_1d(
            a.y, a.bottom, b.y, b.bottom
        )
        assert a.intersect(b).area == pytest.approx(expected)
        assert b.intersect(a).area == pytest.approx(expected)

    def test_intersection_lies_inside_both(self):
        a, b = Box(0, 0, 8, 6), Box(3, 2, 10, 10)
        overlap = a.intersect(b)
        for outer in (a, b):
            assert outer.x <= overlap.x and overlap.right <= outer.right
            assert outer.y <= overlap.y and overlap.bottom <= outer.bottom

    def test_zero_size_box_allowed(self):
        assert Box(3, 4, 0, 0).area == 0

    @pytest.mark.parametrize("dims", [(0, -0.1), (-2, 3)])
    def test_any_negative_dimension_rejected(self, dims):
        with pytest.raises(ValueError):
            Box(0, 0, *dims)


class TestViewportEdges:
    def test_box_spans_viewport(self):
        assert Viewport(320, 480).box == Box(0, 0, 320, 480)

    def test_box_left_of_viewport_is_zero(self):
        assert Viewport(100, 100).above_the_fold_area(Box(-50, 0, 40, 40)) == 0

    @pytest.mark.parametrize("dims", [(100, 0), (-1, 100)])
    def test_non_positive_dimensions_rejected(self, dims):
        with pytest.raises(ValueError):
            Viewport(*dims)
