import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from flaremon.core import (BBox, Detection, DetClass, Frame, Mask, box_center,
                           foreground_indices)
from flaremon.errors import DecodeError
from tests.fullframe_oracle import decode_runs, encode_runs, mask_arrays
from tests.sort_oracle import iou

# A leading foreground run, and a run that wraps from row 0 into row 1.
LEADING_AND_WRAPPING = np.array([[True, True, False, True],
                                 [True, False, False, False],
                                 [False, False, True, True]])


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
        arr = decode_runs(m)
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
        assert np.array_equal(decode_runs(m), arr)
        assert m.area() == int(arr.sum())

    def test_first_run_counts_background(self):
        arr = np.ones((2, 2), dtype=bool)
        assert Mask.from_array(arr).runs == (0, 4)

    def test_runs_become_ints(self):
        m = Mask(2, 2, np.array([1, 3]))
        assert m.runs == (1, 3) and all(type(r) is int for r in m.runs)

    @given(mask_arrays())
    @example(LEADING_AND_WRAPPING)
    def test_encode_matches_full_frame_runs(self, arr):
        assert Mask.from_array(arr).runs == encode_runs(arr)

    @given(mask_arrays())
    @example(LEADING_AND_WRAPPING)
    def test_indices_are_flat_foreground(self, arr):
        m = Mask.from_array(arr)
        idx, _ = foreground_indices([m])
        assert np.array_equal(idx, np.flatnonzero(decode_runs(m)))
        assert np.array_equal(idx, np.flatnonzero(arr))

    @given(st.lists(mask_arrays(), max_size=6))
    def test_many_masks_decode_as_each_alone(self, arrays):
        masks = [Mask.from_array(arr) for arr in arrays]
        idx, counts = foreground_indices(masks)
        assert idx.dtype == counts.dtype == np.int64
        assert counts.tolist() == [int(arr.sum()) for arr in arrays]
        assert np.array_equal(idx, np.concatenate(
            [np.flatnonzero(arr) for arr in arrays] + [np.zeros(0, int)]))

    @given(mask_arrays(), st.integers(0, 5), st.integers(0, 5),
           st.integers(0, 5), st.integers(0, 5))
    @example(LEADING_AND_WRAPPING, 0, 2, 0, 1)
    @example(LEADING_AND_WRAPPING, 3, 0, 2, 0)
    def test_window_encodes_as_pasted(self, win, left, top, right, bottom):
        h, w = win.shape
        size = (left + w + right, top + h + bottom)
        pasted = np.zeros((size[1], size[0]), dtype=bool)
        pasted[top:top + h, left:left + w] = win
        assert (Mask.from_array(win, origin=(left, top), size=size)
                == Mask.from_array(pasted))

    @pytest.mark.parametrize("width, height, runs", [
        (2, 2, (1.9, 3.9)), (2.0, 2, (1, 3)), (2, 2.5, (1, 4)),
        (2, 2, ("1", "3")), (2, 2, (1, None, 3))])
    def test_non_integer_fields_rejected(self, width, height, runs):
        with pytest.raises(DecodeError):
            Mask(width, height, runs)

    def test_window_outside_frame_rejected(self):
        win = np.ones((2, 3), dtype=bool)
        with pytest.raises(ValueError):
            Mask.from_array(win, origin=(2, 0), size=(4, 4))
        with pytest.raises(ValueError):
            Mask.from_array(win, origin=(0, -1), size=(4, 4))


class TestDetectionAndFrame:
    def test_confidence_range(self):
        b = BBox(0, 0, 1, 1)
        Detection(b, DetClass.FLAME, 0.5)
        with pytest.raises(ValueError):
            Detection(b, DetClass.SMOKE, 1.5)

    def test_frame_shape_checked(self):
        with pytest.raises(ValueError):
            Frame(0, 0.0, 4, 4, np.zeros((4, 3, 3), dtype=np.uint8))
