"""Region-grow microbenchmark: best-of-7 wall time of `segment_box` per case.

Run from the repository root:

    PYTHONPATH=src python tests/segment_microbench.py

Cases: one flame and one smoke region of the benchmark monitor scene
(640x360, six stacks, seed 41), a solid 300x300 box, a 300x300 box on a
400x400 frame of base colour 128 plus uniform integer noise of +/-40 to
+/-60 per channel at tolerance 40 (a pixel is admissible with probability
(81 / (2 * noise + 1)) ** 3: 1.0, 0.70, 0.56, 0.46 and 0.30), and a
site-percolation frame where 62% of the pixels are admissible.  Each figure is the best of 7 timings of a batch of calls,
divided by the batch size; the batch grows until it takes about 20 ms.
pytest does not collect this file.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from flaremon.core import BBox, DetClass, Frame  # noqa: E402
from flaremon.segment import segment_box  # noqa: E402
from flaremon.simulator import render  # noqa: E402
from perfbench.scenes import MONITOR, scene  # noqa: E402


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


def scene_cases():
    rendered = next(render(scene(41, MONITOR)))
    dets = rendered.annotation.detections
    flame = next(d for d in dets if d.cls is DetClass.FLAME)
    # The largest smoke box: the smoke of a low stack.
    smoke = max((d for d in dets if d.cls is DetClass.SMOKE),
                key=lambda d: d.bbox.area)
    yield "scene flame", rendered.frame, flame.bbox
    yield "scene smoke", rendered.frame, smoke.bbox


def square_frame(pixels):
    h, w = pixels.shape[:2]
    return Frame(0, 0.0, w, h, np.ascontiguousarray(pixels))


BOX = BBox(50.0, 50.0, 350.0, 350.0)


def synthetic_cases():
    rng = np.random.default_rng(0)
    yield ("solid 300x300", square_frame(np.full((400, 400, 3), 128, np.uint8)),
           BOX)
    for amp in (40, 45, 48, 52, 60):
        pix = (128 + rng.integers(-amp, amp + 1, size=(400, 400, 3))) \
            .astype(np.uint8)
        pix[199:202, 199:202] = 128  # the seed patch: its mean is exactly 128
        yield f"noise +/-{amp}", square_frame(pix), BOX
    # Its own draw, in which the seed lies in the spanning cluster.
    on = np.random.default_rng(0).random((400, 400)) < 0.62
    on[199:202, 199:202] = True  # the seed patch, so its mean is the on colour
    pix = np.where(on[..., None], 100, 200).astype(np.uint8).repeat(3, axis=2)
    yield "percolation 62%", square_frame(pix), BOX


def main():
    print(f"{'case':<18}{'pixels':>9}{'ms':>10}")
    for name, frame, box in (*scene_cases(), *synthetic_cases()):
        area = segment_box(frame, box).mask.area()
        ms = 1e3 * best_of_7(lambda: segment_box(frame, box))
        print(f"{name:<18}{area:>9}{ms:>10.3f}")


if __name__ == "__main__":
    main()
