import numpy as np
import pytest
from hypothesis import given, strategies as st

from flaremon.core import BBox, Detection, DetClass, Frame, Mask, box_center, iou
from flaremon.errors import DecodeError


def boxes():
    coord = st.floats(min_value=-100, max_value=100, allow_nan=False)
    size = st.floats(min_value=0.1, max_value=50)
    return st.builds(
        lambda x, y, w, h: BBox(x, y, x + w, y + h), coord, coord, size, size)


class TestBBox:
    def test_invalid_boxes_rejected(self):
        with pytest.raises(ValueError):
            BBox(5, 0, 5, 10)
        with pytest.raises(ValueError):
            BBox(0, 10, 10, 5)
        with pytest.raises(ValueError):
            BBox(0, 0, float("nan"), 1)

    def test_center_symmetric(self):
        assert box_center(BBox(0, 0, 10, 10)) == (5, 5)

    def test_center_arithmetic(self):
        assert box_center(BBox(2, 4, 6, 12)) == (4, 8)
        assert box_center(BBox(0, 0, 1, 3)) == (0.5, 1.5)


class TestIou:
    def test_identical(self):
        b = BBox(1, 2, 5, 9)
        assert iou(b, b) == 1.0

    def test_disjoint(self):
        assert iou(BBox(0, 0, 1, 1), BBox(5, 5, 6, 6)) == 0.0

    def test_partial_overlap(self):
        # intersection 1, union 7
        assert iou(BBox(0, 0, 2, 2), BBox(1, 1, 3, 3)) == pytest.approx(1 / 7)

    @given(boxes(), boxes())
    def test_symmetric(self, a, b):
        assert iou(a, b) == pytest.approx(iou(b, a))

    @given(boxes(), boxes())
    def test_range(self, a, b):
        assert 0.0 <= iou(a, b) <= 1.0 + 1e-12


class TestMask:
    def test_all_background(self):
        m = Mask(4, 4, (16,))
        assert m.area() == 0

    def test_all_foreground(self):
        m = Mask(4, 4, (0, 16))
        assert m.area() == 16

    def test_hand_decoded(self):
        m = Mask(4, 4, (3, 2, 11))
        assert m.area() == 2
        arr = m.to_array()
        assert arr.ravel()[3:5].all() and arr.sum() == 2

    def test_malformed_runs(self):
        with pytest.raises(DecodeError):
            Mask(4, 4, (3, 2, 10))
        with pytest.raises(DecodeError):
            Mask(4, 4, (-1, 17))

    def test_area_complement(self):
        m = Mask(5, 3, (4, 6, 5))
        assert m.area() + (sum(m.runs) - m.area()) == 15

    @given(st.integers(1, 12), st.integers(1, 12), st.integers(0, 2 ** 32 - 1))
    def test_roundtrip_random(self, w, h, seed):
        rng = np.random.default_rng(seed)
        arr = rng.random((h, w)) < 0.5
        m = Mask.from_array(arr)
        assert np.array_equal(m.to_array(), arr)
        assert m.area() == int(arr.sum())

    def test_first_run_counts_background(self):
        arr = np.ones((2, 2), dtype=bool)
        assert Mask.from_array(arr).runs == (0, 4)


class TestDetectionAndFrame:
    def test_confidence_range(self):
        b = BBox(0, 0, 1, 1)
        Detection(b, DetClass.FLAME, 0.5)
        with pytest.raises(ValueError):
            Detection(b, DetClass.SMOKE, 1.5)

    def test_frame_shape_checked(self):
        with pytest.raises(ValueError):
            Frame(0, 0.0, 4, 4, np.zeros((4, 3, 3), dtype=np.uint8))
