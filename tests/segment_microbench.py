"""Region-grow microbenchmark: best-of-7 wall time of `segment_frame` per case.

Run from the repository root:

    PYTHONPATH=src python tests/segment_microbench.py

Single-box cases, one `segment_frame` call each: one flame (its pixel
indices) and one smoke region (a pixel count) of the benchmark monitor
scene (640x360, six stacks, seed 41), a solid 300x300 box, a 300x300 box
on a 400x400 frame of base colour 128 plus uniform integer noise of +/-40
to +/-60 per channel at tolerance 40 (a pixel is admissible with
probability (81 / (2 * noise + 1)) ** 3: 1.0, 0.70, 0.56, 0.46 and 0.30),
and a site-percolation frame where 62% of the pixels are admissible, and a
one-pixel spiral corridor that fills the box and ends at its seed (45,608
pixels, one breadth-first level each), all read as flames; and a 40x40 box
on a uniform 200x200 frame, whose region leaks to fill its whole 49x49
window, read as a flame ("leaked flame", its 2,401 pixel indices) and as
a smoke ("leaked smoke", its count).  Per-frame cases: all 12 boxes of the
first monitor frame (6 flames, 6 smokes), grown by one `segment_frame`
call per box and by one call for the whole frame, and that call followed
by the `features.flame_moments` call that `monitor` makes on the grown
flames; "pixels" there is the admitted total.  Before a case is timed,
its regions must equal those of the pixel-by-pixel oracle in
`tests/bfs_oracle.py`.  Each figure is the best of 7 timings of a batch
of calls, divided by the batch size; the batch grows until it takes about
20 ms.  pytest does not collect this file.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from flaremon.core import BBox, DetClass, Frame  # noqa: E402
from flaremon.features import flame_moments  # noqa: E402
from flaremon.segment import segment_frame  # noqa: E402
from flaremon.simulator import render  # noqa: E402
from perfbench.scenes import MONITOR, scene  # noqa: E402
from tests.bfs_oracle import segment_frame_bfs, spiral  # noqa: E402


def best_of_7(call):
    batch = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(batch):
            call()
        if time.perf_counter() - t0 >= 0.02 or batch >= 1024:
            break
        batch *= 2
    times = []
    for _ in range(7):
        t0 = time.perf_counter()
        for _ in range(batch):
            call()
        times.append((time.perf_counter() - t0) / batch)
    return min(times)


def area(region):
    """A smoke region's pixel count, or the number of a flame's pixels."""
    return region if isinstance(region, int) else len(region)


def one_call(frame, boxes, n_masks):
    return segment_frame(frame, boxes, n_masks)


def call_per_box(frame, boxes, n_masks):
    return [segment_frame(frame, [box], int(k < n_masks))[0]
            for k, box in enumerate(boxes)]


def grow_then_moments(frame, boxes, n_masks):
    regions = segment_frame(frame, boxes, n_masks)
    flame_moments(frame, regions[:n_masks])
    return regions


def assert_oracle_regions(name, regions, expect):
    """Every region equal to the oracle's: the same pixel indices, of the
    same dtype, or the same pixel count, or both None."""
    for got, want in zip(regions, expect, strict=True):
        if isinstance(want, np.ndarray):
            assert isinstance(got, np.ndarray) and got.dtype == want.dtype \
                and np.array_equal(got, want), name
        else:
            assert type(got) is type(want) and got == want, name


def scene_cases():
    """(name, frame, boxes, number of flame boxes, grow function)."""
    rendered = next(render(scene(41, MONITOR)))
    frame, dets = rendered.frame, rendered.annotation.detections
    flames = [d.bbox for d in dets if d.cls is DetClass.FLAME]
    smokes = [d.bbox for d in dets if d.cls is DetClass.SMOKE]
    yield "scene flame", frame, flames[:1], 1, one_call
    # The largest smoke box: the smoke of a low stack.
    yield ("scene smoke", frame, [max(smokes, key=lambda b: b.area)], 0,
           one_call)
    boxes = flames + smokes
    yield (f"frame, {len(boxes)} calls", frame, boxes, len(flames),
           call_per_box)
    yield "frame, 1 call", frame, boxes, len(flames), one_call
    yield "frame, grow + moments", frame, boxes, len(flames), grow_then_moments


def square_frame(pixels):
    h, w = pixels.shape[:2]
    return Frame(0, 0.0, w, h, np.ascontiguousarray(pixels))


BOX = BBox(50.0, 50.0, 350.0, 350.0)


def synthetic_cases():
    """The same for the synthetic frames, each box grown as a flame but in
    the leaked smoke case."""
    rng = np.random.default_rng(0)
    yield ("solid 300x300", square_frame(np.full((400, 400, 3), 128,
                                                 np.uint8)), [BOX], 1, one_call)
    for amp in (40, 45, 48, 52, 60):
        pix = (128 + rng.integers(-amp, amp + 1, size=(400, 400, 3))) \
            .astype(np.uint8)
        pix[199:202, 199:202] = 128  # the seed patch: its mean is exactly 128
        yield f"noise +/-{amp}", square_frame(pix), [BOX], 1, one_call
    # Its own draw, in which the seed lies in the spanning cluster.
    on = np.random.default_rng(0).random((400, 400)) < 0.62
    on[199:202, 199:202] = True  # the seed patch, so its mean is the on colour
    pix = np.where(on[..., None], 100, 200).astype(np.uint8).repeat(3, axis=2)
    yield "percolation 62%", square_frame(pix), [BOX], 1, one_call
    on = np.zeros((400, 400), dtype=bool)
    on[50:351, 50:351] = spiral(301)  # its corridor ends at (200, 200)
    on[199:202, 199:202] = True
    pix = np.where(on[..., None], 100, 200).astype(np.uint8).repeat(3, axis=2)
    yield "spiral corridor", square_frame(pix), [BOX], 1, one_call
    # The region fills the dilated window's 49 x 49 pixels, 1.5 times the
    # box area and more.
    uniform = square_frame(np.full((200, 200, 3), 128, np.uint8))
    small = BBox(80.0, 80.0, 120.0, 120.0)
    yield "leaked flame", uniform, [small], 1, one_call
    yield "leaked smoke", uniform, [small], 0, one_call


def main():
    print(f"{'case':<22}{'pixels':>9}{'ms':>10}")
    for name, frame, boxes, n_masks, grow in (*scene_cases(),
                                              *synthetic_cases()):
        regions = grow(frame, boxes, n_masks)
        assert_oracle_regions(name, regions,
                              segment_frame_bfs(frame, boxes, n_masks))
        pixels = sum(map(area, regions))
        ms = 1e3 * best_of_7(lambda: grow(frame, boxes, n_masks))
        print(f"{name:<22}{pixels:>9}{ms:>10.3f}")


if __name__ == "__main__":
    main()
