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
pixels, one breadth-first level each); the synthetic boxes are read as
flames.  Per-frame cases: all 12 boxes of the first monitor frame (6
flames, 6 smokes), grown by one `segment_frame` call per box and by one
call for the whole frame, and that call followed by the
`features.flame_moments` call that `monitor` makes on the grown flames;
"pixels" there is the admitted total.  Each figure is the best of 7
timings of a batch of calls, divided by the batch size; the batch grows
until it takes about 20 ms.
pytest does not collect this file.
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
from tests.bfs_oracle import spiral  # noqa: E402


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


def grow_one(frame, box, as_mask):
    return lambda: area(segment_frame(frame, [box], int(as_mask))[0])


def scene_cases():
    rendered = next(render(scene(41, MONITOR)))
    frame, dets = rendered.frame, rendered.annotation.detections
    flames = [d.bbox for d in dets if d.cls is DetClass.FLAME]
    smokes = [d.bbox for d in dets if d.cls is DetClass.SMOKE]
    yield "scene flame", grow_one(frame, flames[0], True)
    # The largest smoke box: the smoke of a low stack.
    yield "scene smoke", grow_one(frame, max(smokes, key=lambda b: b.area),
                                  False)
    boxes = flames + smokes
    yield (f"frame, {len(boxes)} calls",
           lambda: sum(area(segment_frame(frame, [b], int(k < len(flames)))[0])
                       for k, b in enumerate(boxes)))
    yield ("frame, 1 call",
           lambda: sum(map(area, segment_frame(frame, boxes, len(flames)))))

    def grow_and_moments():
        regions = segment_frame(frame, boxes, len(flames))
        counts, _, _ = flame_moments(frame, regions[:len(flames)])
        return int(counts.sum()) + sum(regions[len(flames):])
    yield "frame, grow + moments", grow_and_moments


def square_frame(pixels):
    h, w = pixels.shape[:2]
    return Frame(0, 0.0, w, h, np.ascontiguousarray(pixels))


BOX = BBox(50.0, 50.0, 350.0, 350.0)


def synthetic_cases():
    rng = np.random.default_rng(0)
    yield ("solid 300x300", grow_one(square_frame(
        np.full((400, 400, 3), 128, np.uint8)), BOX, True))
    for amp in (40, 45, 48, 52, 60):
        pix = (128 + rng.integers(-amp, amp + 1, size=(400, 400, 3))) \
            .astype(np.uint8)
        pix[199:202, 199:202] = 128  # the seed patch: its mean is exactly 128
        yield f"noise +/-{amp}", grow_one(square_frame(pix), BOX, True)
    # Its own draw, in which the seed lies in the spanning cluster.
    on = np.random.default_rng(0).random((400, 400)) < 0.62
    on[199:202, 199:202] = True  # the seed patch, so its mean is the on colour
    pix = np.where(on[..., None], 100, 200).astype(np.uint8).repeat(3, axis=2)
    yield "percolation 62%", grow_one(square_frame(pix), BOX, True)
    on = np.zeros((400, 400), dtype=bool)
    on[50:351, 50:351] = spiral(301)  # its corridor ends at (200, 200)
    on[199:202, 199:202] = True
    pix = np.where(on[..., None], 100, 200).astype(np.uint8).repeat(3, axis=2)
    yield "spiral corridor", grow_one(square_frame(pix), BOX, True)


def main():
    print(f"{'case':<20}{'pixels':>9}{'ms':>10}")
    for name, call in (*scene_cases(), *synthetic_cases()):
        ms = 1e3 * best_of_7(call)
        print(f"{name:<20}{call():>9}{ms:>10.3f}")


if __name__ == "__main__":
    main()
