import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from flaremon.core import BBox, Frame, Mask
from flaremon.errors import (DegenerateOrientation, EmptyRegion,
                             InsufficientSignal)
from flaremon.features import (angle_from_moments, associate_smoke,
                               channel_means, flame_moments, rgb_index,
                               smoke_flame_ratio)
from flaremon.simulator import PRESETS, preset, render
from tests import fullframe_oracle as oracle


def frame_with(pixels):
    h, w, _ = pixels.shape
    return Frame(0, 0.0, w, h, pixels.astype(np.uint8))


def mask_from(arr):
    return Mask.from_array(np.asarray(arr, dtype=bool))


class TestChannelMeans:
    def test_uniform_region(self):
        pix = np.zeros((4, 4, 3))
        pix[:, :] = (10, 20, 30)
        m = mask_from(np.ones((4, 4)))
        assert channel_means(frame_with(pix), m) == (10, 20, 30)

    def test_two_pixel_average(self):
        pix = np.zeros((1, 2, 3))
        pix[0, 1] = (2, 4, 6)
        m = mask_from([[True, True]])
        assert channel_means(frame_with(pix), m) == (1, 2, 3)

    def test_empty_mask(self):
        pix = np.zeros((2, 2, 3))
        with pytest.raises(EmptyRegion):
            channel_means(frame_with(pix), mask_from(np.zeros((2, 2))))


class TestRgbIndex:
    def test_white_gives_mean_of_weights(self):
        assert rgb_index((255, 255, 255)) == pytest.approx(0.5)

    def test_pure_blue(self):
        assert rgb_index((0, 0, 255)) == pytest.approx(0.7)

    def test_pure_red(self):
        # V_yellow = 127.5, S = 382.5, r = (0, 1/3, 2/3)
        assert rgb_index((255, 0, 0)) == pytest.approx(0.5 / 3 + 0.6 / 3)

    def test_black_raises(self):
        with pytest.raises(InsufficientSignal):
            rgb_index((0, 0, 0))

    def test_proportions_sum_to_one(self):
        rng = np.random.default_rng(0)
        for _ in range(2000):
            r, g, b = rng.uniform(0, 255, 3)
            v_yellow = (g + r) / 2
            s = b + v_yellow + r
            assert abs(b / s + v_yellow / s + r / s - 1.0) < 1e-12

    def test_bounded_by_weights(self):
        rng = np.random.default_rng(1)
        for _ in range(2000):
            e = rgb_index(tuple(rng.uniform(1, 255, 3)))
            assert 0.3 - 1e-12 <= e <= 0.7 + 1e-12

    def test_monotone_in_blue(self):
        prev = rgb_index((100, 100, 1))
        for b in (50, 100, 150, 255):
            cur = rgb_index((100, 100, b))
            assert cur >= prev
            prev = cur


class TestSmokeFlameRatio:
    def test_equal_areas(self):
        assert smoke_flame_ratio(100, 100) == 1.0

    def test_smokeless(self):
        assert smoke_flame_ratio(0, 50) == 0.0

    def test_zero_flame(self):
        with pytest.raises(EmptyRegion):
            smoke_flame_ratio(10, 0)

    def test_linear_in_smoke_area(self):
        base = smoke_flame_ratio(10, 40)
        assert smoke_flame_ratio(30, 40) == pytest.approx(3 * base)


class TestAssociateSmoke:
    def test_single_flame_takes_all(self):
        flames = {7: BBox(100, 100, 120, 140)}
        smoke = [(BBox(95, 40, 125, 80), 12)]
        areas, dropped = associate_smoke(flames, smoke)
        assert areas == {7: 12} and dropped == 0

    def test_nearest_center_wins(self):
        flames = {1: BBox(90, 100, 110, 140), 2: BBox(290, 100, 310, 140)}
        smoke = [(BBox(95, 40, 125, 80), 9)]
        areas, _ = associate_smoke(flames, smoke)
        assert areas == {1: 9, 2: 0}

    def test_smoke_below_all_flames_dropped(self):
        flames = {1: BBox(90, 100, 110, 140)}
        smoke = [(BBox(80, 200, 120, 240), 5)]
        areas, dropped = associate_smoke(flames, smoke)
        assert areas == {1: 0} and dropped == 1

    def test_multiple_regions_sum(self):
        flames = {1: BBox(90, 100, 110, 140)}
        smoke = [(BBox(80, 40, 120, 70), 5),
                 (BBox(85, 10, 115, 35), 7)]
        areas, _ = associate_smoke(flames, smoke)
        assert areas[1] == 12


def solid_ellipse(tilt_from_vertical_deg, a=40, b=15, size=160):
    """Rasterize a solid rotated ellipse for the moments oracle."""
    t = math.radians(tilt_from_vertical_deg)
    ax, ay = math.sin(t), -math.cos(t)
    c = size / 2
    ys, xs = np.mgrid[0:size, 0:size]
    dx, dy = xs - c, ys - c
    u = dx * ax + dy * ay
    v = -dx * ay + dy * ax
    return mask_from((u / a) ** 2 + (v / b) ** 2 <= 1.0)


def angle_of(mask):
    """One mask's angle through flame_moments and angle_from_moments, on a
    blank frame of the mask's size: colour plays no part in it."""
    blank = np.zeros((mask.height, mask.width, 3), dtype=np.uint8)
    counts, _, moments = flame_moments(
        Frame(0, 0.0, mask.width, mask.height, blank),
        [np.flatnonzero(oracle.decode_runs(mask))])
    return angle_from_moments(int(counts[0]), *moments[0].tolist())


class TestFlameAngle:
    def test_vertical_ellipse_is_zero(self):
        assert angle_of(solid_ellipse(0.0)) == pytest.approx(0.0, abs=0.3)

    def test_circle_degenerate(self):
        with pytest.raises(DegenerateOrientation):
            angle_of(solid_ellipse(0.0, a=20, b=20))

    def test_tilt_recovery(self):
        for tilt in (10, 20, 30, 45, 60):
            assert angle_of(solid_ellipse(tilt)) == pytest.approx(
                tilt, abs=1.0)

    def test_translation_invariant(self):
        base = solid_ellipse(25.0)
        arr = oracle.decode_runs(base)
        shifted = np.zeros((200, 200), dtype=bool)
        shifted[30:30 + arr.shape[0], 17:17 + arr.shape[1]] = arr
        assert angle_of(mask_from(shifted)) == pytest.approx(
            angle_of(base), abs=1e-9)

    def test_mirror_invariant(self):
        base = solid_ellipse(25.0)
        mirrored = mask_from(oracle.decode_runs(base)[:, ::-1])
        assert angle_of(mirrored) == pytest.approx(angle_of(base),
                                                      abs=1e-9)

    def test_too_few_pixels(self):
        arr = np.zeros((5, 5), dtype=bool)
        arr[0, 0] = arr[1, 1] = True
        with pytest.raises(EmptyRegion):
            angle_of(mask_from(arr))

    def test_angle_in_range(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            tilt = rng.uniform(0, 89)
            angle = angle_of(solid_ellipse(tilt))
            assert 0.0 <= angle <= 90.0


def mask_shape(kind, w, h, rng):
    """A w x h boolean array: empty, 1-4 pixels, a square or disc (no
    orientation), a block in a corner (touching two frame edges), the
    full frame, or random."""
    arr = np.zeros((h, w), dtype=bool)
    if kind == "few":
        arr.ravel()[rng.choice(w * h, min(w * h, rng.integers(1, 5)),
                               replace=False)] = True
    elif kind == "round":
        side = int(rng.integers(1, min(w, h) + 1))
        y0, x0 = rng.integers(0, h - side + 1), rng.integers(0, w - side + 1)
        ys, xs = np.mgrid[0:side, 0:side] - (side - 1) / 2.0
        disc = xs * xs + ys * ys <= (side / 2.0) ** 2
        arr[y0:y0 + side, x0:x0 + side] = disc if rng.random() < 0.5 else True
    elif kind == "corner":
        a, b = rng.integers(1, h + 1), rng.integers(1, w + 1)
        arr[:a, :b] = rng.random((a, b)) < 0.8
        arr[:] = arr[::rng.choice([1, -1]), ::rng.choice([1, -1])]
        arr[0 if rng.random() < 0.5 else -1, :] |= rng.random(w) < 0.5
    elif kind == "full":
        arr[:] = True
    elif kind == "random":
        arr[:] = rng.random((h, w)) < rng.choice([0.1, 0.5, 0.9])
    return arr


@st.composite
def frames_with_masks(draw):
    """A frame up to 16 x 16 with 0-8 masks.  Its pixels are random,
    black, or black on the left half, so that some masks see no colour."""
    w, h = draw(st.integers(1, 16)), draw(st.integers(1, 16))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    pixels = rng.integers(0, 256, (h, w, 3))
    pixels[:, :draw(st.sampled_from([0, w // 2, w]))] = 0
    kinds = draw(st.lists(st.sampled_from(
        ["empty", "few", "round", "corner", "full", "random"]), max_size=8))
    return frame_with(pixels), [Mask.from_array(mask_shape(k, w, h, rng))
                                for k in kinds]


def batched_rows(frame, masks):
    """Per mask: count, means, E and angle (or the error each raises) from
    one flame_moments call on the masks' decoded pixel indices; an empty
    mask's means are NaN."""
    counts, means, moments = flame_moments(
        frame, [np.flatnonzero(oracle.decode_runs(m)) for m in masks])
    rows = []
    for n, rgb, mu in zip(counts.tolist(), means.tolist(), moments.tolist()):
        if n:
            rgb, index = tuple(rgb), oracle.outcome(rgb_index, rgb)
        else:
            assert all(math.isnan(v) for v in rgb)
            rgb = index = (EmptyRegion, "mask has no foreground pixels")
        rows.append((n, rgb, index,
                     oracle.outcome(angle_from_moments, n, *mu)))
    return rows


def oracle_row(frame, mask):
    """The same from the full-frame oracle, one mask at a time."""
    rgb = oracle.outcome(oracle.channel_means, frame, mask)
    index = rgb if len(rgb) == 2 else oracle.outcome(rgb_index, rgb)
    return (mask.area(), rgb, index,
            oracle.outcome(oracle.flame_angle, mask))


class TestBatchedAgainstPerMaskOracle:
    """flame_moments over a frame's masks, and channel_means over each
    mask, equal the full-frame oracle taken one mask at a time exactly:
    count, means, E, angle and every raised error."""

    def assert_same(self, frame, masks):
        assert batched_rows(frame, masks) == [oracle_row(frame, m)
                                              for m in masks]
        for m in masks:
            assert (oracle.outcome(channel_means, frame, m)
                    == oracle.outcome(oracle.channel_means, frame, m))
            assert (oracle.outcome(angle_of, m)
                    == oracle.outcome(oracle.flame_angle, m))

    @given(frames_with_masks())
    def test_random_frames(self, case):
        self.assert_same(*case)

    def test_no_masks(self):
        counts, means, moments = flame_moments(
            frame_with(np.zeros((2, 3, 3))), [])
        assert (counts.shape, means.shape, moments.shape) == (
            (0,), (0, 3), (0, 3))

    def test_every_preset_frame(self):
        seen = 0
        for name in PRESETS:
            for rf in render(preset(name)):
                masks = [m for _, m in rf.annotation.masks or ()]
                self.assert_same(rf.frame, masks)
                seen += len(masks)
        assert seen == 3200
