import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from flaremon import segment
from flaremon.core import BBox, DetClass, Frame
from flaremon.segment import segment_frame
from flaremon.simulator import PRESETS, preset, render
from perfbench.scenes import MONITOR, scene
from tests.bfs_oracle import (segment_box_bfs, segment_frame_bfs,
                               serpentine, spiral)
from tests.fullframe_oracle import decode_runs


def make_frame(w=60, h=40, bg=(10, 10, 10)):
    pix = np.empty((h, w, 3), dtype=np.uint8)
    pix[:, :] = bg
    return pix


def frame_of(pix):
    h, w, _ = pix.shape
    return Frame(0, 0.0, w, h, pix)


def grow_all(frame, boxes, tolerance=segment.COLOR_TOLERANCE):
    """segment_frame with its colour tolerance set to this."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(segment, "COLOR_TOLERANCE", tolerance)
        return segment_frame(frame, boxes)


def grow(frame, box, tolerance=segment.COLOR_TOLERANCE):
    """The pixel indices of one box, grown by one segment_frame call, or
    None for an off-frame seed."""
    return grow_all(frame, [box], tolerance)[0]


def same(got, expect):
    """Whether two grown regions are equal: the same pixel indices, element
    for element and of the same dtype, or both None."""
    if expect is None:
        return got is None
    return (isinstance(got, np.ndarray) and got.dtype == expect.dtype
            and np.array_equal(got, expect))


def same_regions(got, expect):
    """Whether two lists of grown regions are equal, region by region."""
    return len(got) == len(expect) and all(map(same, got, expect))


def region_array(frame, pixels):
    """The frame-sized boolean array that is True at the pixel indices."""
    arr = np.zeros(frame.height * frame.width, dtype=bool)
    arr[pixels] = True
    return arr.reshape(frame.height, frame.width)


def test_uniform_region_on_contrasting_background():
    pix = make_frame()
    pix[10:30, 20:40] = (200, 50, 50)
    frame = frame_of(pix)
    pixels = grow(frame, BBox(20, 10, 40, 30), 30)
    expect = np.zeros((40, 60), dtype=bool)
    expect[10:30, 20:40] = True
    assert np.array_equal(pixels, np.flatnonzero(expect))


def test_tolerance_255_fills_clipped_box():
    pix = make_frame()
    frame = frame_of(pix)
    box = BBox(20, 10, 40, 30)
    arr = region_array(frame, grow(frame, box, 255))
    # everything inside the 10%-dilated box is admitted
    assert arr[12, 25] and arr[10, 20]
    assert arr[8, 25]  # inside dilation margin
    assert not arr[0, 0]


def test_seed_always_in_mask():
    pix = make_frame()
    pix[19:22, 29:32] = (200, 200, 200)
    frame = frame_of(pix)
    assert region_array(frame, grow(frame, BBox(25, 15, 35, 25), 5))[20, 30]


def test_degenerate_seed_gives_single_pixel():
    # checkerboard around the seed: the 3x3 mean matches nothing
    pix = make_frame()
    patch = np.indices((40, 60)).sum(axis=0) % 2
    pix[patch == 0] = (255, 255, 255)
    pix[patch == 1] = (0, 0, 0)
    frame = frame_of(pix)
    box = BBox(20, 10, 40, 30)
    assert segment_box_bfs(frame, box, 10)[1]  # the oracle's flag
    assert same(grow(frame, box, 10), np.array([20 * 60 + 30]))


def test_out_of_bounds_seed():
    frame = frame_of(make_frame())
    assert segment_frame(frame, [BBox(100, 100, 120, 120)] * 2) == \
        [None, None]


def test_output_connected():
    pix = make_frame()
    pix[10:30, 20:40] = (200, 50, 50)
    pix[5:8, 50:55] = (200, 50, 50)  # same color, not 4-connected to seed
    frame = frame_of(pix)
    arr = region_array(frame, grow(frame, BBox(18, 8, 56, 32), 30))
    assert not arr[6, 52]
    # flood-fill recount from any foreground pixel covers the whole mask
    from collections import deque
    seen = np.zeros_like(arr)
    sy, sx = np.argwhere(arr)[0]
    q = deque([(sy, sx)])
    seen[sy, sx] = True
    while q:
        y, x = q.popleft()
        for ny, nx in ((y - 1, x), (y + 1, x), (y, x - 1), (y, x + 1)):
            if 0 <= ny < arr.shape[0] and 0 <= nx < arr.shape[1] \
                    and arr[ny, nx] and not seen[ny, nx]:
                seen[ny, nx] = True
                q.append((ny, nx))
    assert np.array_equal(seen, arr)


def test_deterministic():
    pix = make_frame()
    rng = np.random.default_rng(0)
    pix += rng.integers(0, 40, pix.shape).astype(np.uint8)
    frame = frame_of(pix)
    box = BBox(15, 8, 45, 32)
    assert same(grow(frame, box, 25), grow(frame, box, 25))


def window_indices(frame, x_lo, y_lo, x_hi, y_hi):
    """The sorted flat indices of the window [x_lo, x_hi] x [y_lo, y_hi]."""
    arr = np.zeros((frame.height, frame.width), dtype=bool)
    arr[y_lo:y_hi + 1, x_lo:x_hi + 1] = True
    return np.flatnonzero(arr)


def test_leaked_window_grows_whole_window():
    # A 40x40 box on a uniform frame: its window, the box dilated by 4 px
    # and rounded outwards, is 49x49, and the region fills it, 1.5 times
    # the box area and more.
    frame = frame_of(make_frame(w=200, h=200, bg=(128, 128, 128)))
    box = BBox(80, 80, 120, 120)
    expect = window_indices(frame, 76, 76, 124, 124)
    assert len(expect) == 2401
    assert same_regions(segment_frame(frame, [box]), [expect])
    assert same_regions(segment_frame_bfs(frame, [box]), [expect])


def test_large_leaked_window_matches_pixel_bfs():
    # A uniform 300x300 box: the region is its whole 361x361 window, far
    # above 1.5 times the box area, grown from the labelled runs alone.
    frame = frame_of(make_frame(w=400, h=400, bg=(128, 128, 128)))
    box = BBox(50, 50, 350, 350)
    expect = window_indices(frame, 20, 20, 380, 380)
    assert len(expect) == 361 * 361
    got = segment_frame(frame, [box])
    assert same_regions(got, [expect])
    assert same_regions(got, segment_frame_bfs(frame, [box]))


def test_sky_box_grows_its_whole_window():
    # The 10x10 flame box in the plain sky of the benchmark monitor scene
    # that tests/compare_outputs.py adds: every frame grows its whole 13x13
    # window.
    box = BBox(20, 20, 30, 30)
    for rendered in render(scene(41, MONITOR)):
        frame = rendered.frame
        expect = window_indices(frame, 19, 19, 31, 31)
        assert len(expect) == 169
        assert same_regions(segment_frame(frame, [box]), [expect])


@st.composite
def frame_box_config(draw):
    """A blocky frame of four colours, two of them close, a box around a
    seed that may lie off the frame, and a tolerance that reaches its
    extremes."""
    block = draw(st.integers(1, 4))
    cells = draw(arrays(np.uint8, (draw(st.integers(1, 16)),
                                   draw(st.integers(1, 16))),
                        elements=st.integers(0, 3)))
    palette = np.array([[200, 60, 40], [220, 80, 30], [30, 40, 200],
                        [0, 0, 0]], dtype=np.uint8)
    pix = palette[cells].repeat(block, axis=0).repeat(block, axis=1)
    h, w, _ = pix.shape
    cx = draw(st.integers(-2, w + 1)) + draw(st.floats(-0.45, 0.45))
    cy = draw(st.integers(-2, h + 1)) + draw(st.floats(-0.45, 0.45))
    # from under 3 px wide up to well past the frame edges
    hw = draw(st.floats(0.05, w + 2))
    hh = draw(st.floats(0.05, h + 2))
    box = BBox(cx - hw, cy - hh, cx + hw, cy + hh)
    tolerance = draw(st.sampled_from([0.0, 255.0]) | st.floats(0.0, 255.0))
    return Frame(0, 0.0, w, h, pix), box, tolerance


@settings(max_examples=500, deadline=None)
@given(frame_box_config())
def test_matches_pixel_bfs(case):
    frame, box, tolerance = case
    expect = segment_box_bfs(frame, box, tolerance)
    assert same(grow(frame, box, tolerance),
                None if expect is None else expect[0])


def count_calls(monkeypatch, name):
    """Wrap flaremon.segment.<name> so that its calls are counted."""
    calls = []
    real = getattr(segment, name)

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(segment, name, spy)
    return calls


@st.composite
def uncapped_case(draw):
    """A frame from frame_box_config and a box at least 16 px on a side
    around an on-frame seed."""
    frame, _, tolerance = draw(frame_box_config())
    cx = draw(st.integers(0, frame.width - 1)) + draw(st.floats(-0.45, 0.45))
    cy = draw(st.integers(0, frame.height - 1)) + draw(st.floats(-0.45, 0.45))
    hw = draw(st.floats(8.0, max(8.0, frame.width + 2.0)))
    hh = draw(st.floats(8.0, max(8.0, frame.height + 2.0)))
    box = BBox(cx - hw, cy - hh, cx + hw, cy + hh)
    return frame, box, tolerance


@settings(max_examples=300, deadline=None)
@given(uncapped_case())
def test_uncapped_labelling_matches_pixel_bfs(case):
    frame, box, tolerance = case
    expect, _ = segment_box_bfs(frame, box, tolerance)
    assert same(grow(frame, box, tolerance), expect)


@st.composite
def leaked_case(draw):
    """A uniform or two-tone frame of blocks, its tones 0, 30 or 100 apart
    (the tolerance is 40), and 1 to 4 boxes 1 to 30 px on a side, whose
    seeds may lie off the frame: windows that the region fills, or
    nearly."""
    w, h = draw(st.integers(1, 48)), draw(st.integers(1, 48))
    block = draw(st.integers(1, 8))
    cells = draw(arrays(bool, (h // block + 1, w // block + 1)))
    on = cells.repeat(block, axis=0).repeat(block, axis=1)[:h, :w]
    tone = draw(st.sampled_from([100, 130, 200]))
    pix = np.where(on[..., None], 100, tone).astype(np.uint8).repeat(3, axis=2)
    boxes = []
    for _ in range(draw(st.integers(1, 4))):
        x = draw(st.floats(-5.0, w + 1.0))
        y = draw(st.floats(-5.0, h + 1.0))
        boxes.append(BBox(x, y, x + draw(st.floats(1.0, 30.0)),
                          y + draw(st.floats(1.0, 30.0))))
    return frame_of(pix), boxes


@settings(max_examples=300, deadline=None)
@given(leaked_case())
def test_leaked_windows_match_pixel_bfs(case):
    frame, boxes = case
    assert same_regions(segment_frame(frame, boxes),
                        segment_frame_bfs(frame, boxes))


def noisy_frame(amplitude, seed):
    """Base colour 128 plus uniform per-channel noise of +/- amplitude,
    the 3x3 patch around (30, 30) left at 128."""
    rng = np.random.default_rng(seed)
    pix = (128 + rng.integers(-amplitude, amplitude + 1, size=(60, 60, 3))) \
        .astype(np.uint8)
    pix[29:32, 29:32] = 128
    return frame_of(pix)


def two_tone(on):
    """Colour 100 where `on`, 200 elsewhere, and the 3x3 patch around
    (30, 30) on."""
    on = on.copy()
    on[29:32, 29:32] = True
    return frame_of(np.where(on[..., None], 100, 200).astype(np.uint8)
                    .repeat(3, axis=2))


def percolation_frame(p, seed):
    return two_tone(np.random.default_rng(seed).random((60, 60)) < p)


@pytest.mark.parametrize("frame", [
    *(noisy_frame(amp, seed) for amp in (44, 45, 48, 52, 60)
      for seed in range(3)),
    *(percolation_frame(p, seed) for p in (0.55, 0.62, 0.7)
      for seed in range(3)),
    two_tone(spiral(60)), two_tone(serpentine(60)),
])
def test_fragmented_windows_match_pixel_bfs(frame):
    # Windows of short runs, down to one pixel, and corridors that take
    # thousands of breadth-first levels.
    box = BBox(5, 5, 55, 55)
    got = grow(frame, box)
    expect, degenerate = segment_box_bfs(frame, box)
    assert not degenerate and same(got, expect)
    assert len(got) > 1


def test_diagonal_runs_do_not_touch():
    # The seed's 8 px wide block meets a block at each corner only
    # diagonally, so their runs overlap in no column.
    pix = make_frame(w=24, h=9)
    for rows, cols in ((slice(0, 3), slice(0, 8)), (slice(0, 3), slice(16, 24)),
                       (slice(3, 6), slice(8, 16)), (slice(6, 9), slice(0, 8)),
                       (slice(6, 9), slice(16, 24))):
        pix[rows, cols] = (200, 50, 50)
    frame = frame_of(pix)
    box = BBox(0, 0, 24, 9)
    got = grow(frame, box, 30)
    assert len(got) == 24
    assert same(got, segment_box_bfs(frame, box, 30)[0])


@pytest.mark.parametrize("distance", [20, 40])
def test_tolerance_boundary_in_float64(distance):
    # A seed patch whose mean, 1198/9, is not a float32 value, and a
    # tolerance equal to a probe pixel's float64 distance from it: the
    # probe is admitted, as in the oracle, only when the mean stays float64.
    pix = make_frame(w=20, h=20, bg=(133, 133, 133))
    pix[9, 9] = 134  # in the seed patch around (10, 10)
    mean = pix[9:12, 9:12].reshape(-1, 3).mean(axis=0)[0]
    rounded = float(np.float32(mean))
    # The probe lies on the side of the mean away from its float32 value.
    value = 133 + (distance if rounded < mean else -distance)
    tol = abs(value - mean)
    assert abs(value - rounded) > tol
    pix[10, 12:16] = value
    frame = frame_of(pix)
    box = BBox(5, 5, 15, 15)
    got = grow(frame, box, tol)
    assert region_array(frame, got)[10, 12:16].all()
    assert same(got, segment_box_bfs(frame, box, tol)[0])


@st.composite
def frame_boxes_config(draw):
    """A frame of two blocky halves side by side, each from the four-colour
    palette of frame_box_config with its own block size, so that one frame
    can hold short-run and long-run windows; 0 to 8 boxes, each new or a
    shifted copy of an earlier one (overlapping flame and smoke boxes), with
    seeds that may lie off the frame, sides from under 3 px to past every
    edge, and whole-frame boxes that fill a batch; and a tolerance."""
    palette = np.array([[200, 60, 40], [220, 80, 30], [30, 40, 200],
                        [0, 0, 0]], dtype=np.uint8)
    h = draw(st.integers(1, 12))
    halves = []
    for _ in range(2):
        block = draw(st.integers(1, 4))
        cells = draw(arrays(np.uint8, (h, draw(st.integers(1, 8))),
                            elements=st.integers(0, 3)))
        halves.append(palette[cells].repeat(block, axis=0)
                      .repeat(block, axis=1)[:h])
    cut = min(half.shape[0] for half in halves)
    pix = np.ascontiguousarray(np.concatenate([half[:cut] for half in halves],
                                              axis=1))
    h, w, _ = pix.shape
    boxes = []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(["new", "copy", "whole"]))
        if kind == "whole":
            boxes.append(BBox(-1.0, -1.0, w + 1.0, h + 1.0))
            continue
        if kind == "copy" and boxes:
            b = draw(st.sampled_from(boxes))
            sx, sy = draw(st.floats(-3, 3)), draw(st.floats(-3, 3))
            boxes.append(BBox(b.x_min + sx, b.y_min + sy, b.x_max + sx,
                              b.y_max + sy))
            continue
        cx = draw(st.integers(-2, w + 1)) + draw(st.floats(-0.45, 0.45))
        cy = draw(st.integers(-2, h + 1)) + draw(st.floats(-0.45, 0.45))
        hw = draw(st.floats(0.05, w + 2))
        hh = draw(st.floats(0.05, h + 2))
        boxes.append(BBox(cx - hw, cy - hh, cx + hw, cy + hh))
    tolerance = draw(st.sampled_from([0.0, 255.0]) | st.floats(0.0, 255.0))
    return Frame(0, 0.0, w, h, pix), boxes, tolerance


@settings(max_examples=300, deadline=None)
@given(frame_boxes_config())
def test_frame_matches_pixel_bfs_per_box(case):
    frame, boxes, tolerance = case
    assert same_regions(grow_all(frame, boxes, tolerance),
                        segment_frame_bfs(frame, boxes, tolerance))


def test_mixed_frame_matches_pixel_bfs():
    # One frame holding: a flame box and an overlapping smoke box, boxes
    # clipped by each edge, a seed off the frame, a degenerate seed, a
    # leaked window on the uniform left half and a fragmented window on
    # the percolation right half.
    pix = make_frame(w=80, h=40, bg=(128, 128, 128))
    on = np.random.default_rng(0).random((40, 40)) < 0.62
    on[19:22, 59:62] = True  # the fragmented box's seed patch
    pix[:, 40:] = np.where(on[..., None], 100, 200)
    pix[5:8, 20:23] = (0, 0, 0)
    pix[6, 22] = (255, 255, 255)  # a seed unlike its 3x3 mean
    frame = frame_of(pix)
    boxes = [BBox(10, 10, 20, 20),   # flame, leaked: its 13x13 window
             BBox(45, 5, 75, 35),    # flame, fragmented
             BBox(15, 15, 30, 30),   # smoke overlapping the first flame
             BBox(-5, 2, 6, 12), BBox(70, -3, 90, 8),  # left, top, right
             BBox(30, 30, 50, 45),   # bottom
             BBox(81, 10, 95, 20),   # seed off the frame
             BBox(19, 4, 24, 9)]     # degenerate seed
    got = segment_frame(frame, boxes)
    assert same_regions(got, segment_frame_bfs(frame, boxes))
    assert got[6] is None and same(got[7], np.array([6 * 80 + 22]))
    # The smoke over the first flame fills its 20x20 window too.
    assert len(got[0]) == 13 * 13 and len(got[2]) == 20 * 20


def test_full_frame_boxes_flush_the_batch(monkeypatch):
    # Each whole-frame window alone exceeds the frame's pixel count, so
    # each is grown in a batch of its own; the small boxes after them share
    # the last batch.
    pix = make_frame()
    pix[10:30, 20:40] = (200, 50, 50)
    frame = frame_of(pix)
    whole = BBox(0, 0, 60, 40)
    boxes = [whole, BBox(20, 10, 40, 30), whole, BBox(22, 12, 38, 28),
             BBox(25, 15, 35, 25)]
    batches = count_calls(monkeypatch, "_grow_batch")
    got = segment_frame(frame, boxes)
    assert [len(args[1]) for args in batches] == [1, 2, 2]
    assert same_regions(got, segment_frame_bfs(frame, boxes))


def test_no_boxes_no_work(monkeypatch):
    batches = count_calls(monkeypatch, "_grow_batch")
    assert segment_frame(frame_of(make_frame()), []) == []
    assert not batches


# The floors of the median and the least IoU of the grown flame regions
# with the rendered flames over the first 40 frames of each preset.  Every
# grown smoke region is its rendered smoke.
FLAME_IOU_FLOORS = {
    "clean_high": (0.92, 0.83),
    "smoky_low": (0.50, 0.42),
    "windy": (0.92, 0.84),
    "three_stacks": (0.93, 0.46),
    "crossing_near_miss": (0.96, 0.88),
}


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_regions_against_rendered_truth(name):
    ious = {DetClass.FLAME: [], DetClass.SMOKE: []}
    for rendered in render(preset(name)._replace(frame_count=40)):
        dets = rendered.annotation.detections
        got = segment_frame(rendered.frame, [d.bbox for d in dets])
        truth = dict(rendered.annotation.masks)
        for i, det in enumerate(dets):
            grown = region_array(rendered.frame, got[i])
            drawn = decode_runs(truth[i])
            ious[det.cls].append((grown & drawn).sum() / (grown | drawn).sum())
    flame = np.array(ious[DetClass.FLAME])
    median, least = FLAME_IOU_FLOORS[name]
    assert flame.size >= 40
    assert np.median(flame) >= median and flame.min() >= least
    assert ious[DetClass.SMOKE] and min(ious[DetClass.SMOKE]) == 1.0
