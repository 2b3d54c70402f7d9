"""Tracker microbenchmark: best-of-7 `SortTracker.step` time per frame.

Run from the repository root:

    PYTHONPATH=src python tests/tracker_microbench.py

Streams: the flame detections of the benchmark monitor scene (640x360,
six stacks, 32 frames, seed 41), and synthetic streams of 6, 20 and 50
tracks: boxes of 20-40 px on a grid 60 px apart, drifting up to 1.5 px a
frame with 0.5 px of jitter, each missing from a frame with probability
0.1, for 32 frames.  Each stream must first give the same reports,
matches, births, deaths and states as the per-track tracker of
`tests/sort_oracle.py`.  Each figure is the best of 7 passes over the
whole stream, each with a new tracker, divided by the number of frames.
The Hungarian assignment is part of every step and grows as n^3: it is
most of the 50-track figure.  pytest does not collect this file.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from flaremon.core import BBox, DetClass, Detection  # noqa: E402
from flaremon.simulator import render  # noqa: E402
from flaremon import tracker  # noqa: E402
from perfbench.scenes import MONITOR, scene  # noqa: E402
from tests import sort_oracle  # noqa: E402

FRAMES = 32


def best_of_7(frames):
    times = []
    for _ in range(7):
        sort = tracker.SortTracker()
        t0 = time.perf_counter()
        for dets in frames:
            sort.step(dets)
        times.append((time.perf_counter() - t0) / len(frames))
    return min(times)


def scene_stream():
    return [[d for d in rf.annotation.detections if d.cls is DetClass.FLAME]
            for rf in render(scene(41, MONITOR))]


def synthetic_stream(n_tracks, seed=0):
    rng = np.random.default_rng(seed)
    cols = int(np.ceil(np.sqrt(n_tracks)))
    corner = np.array([(60.0 * (i % cols), 60.0 * (i // cols))
                       for i in range(n_tracks)])
    size = rng.uniform(20.0, 40.0, (n_tracks, 2))
    drift = rng.uniform(-1.5, 1.5, (n_tracks, 2))
    frames = []
    for k in range(FRAMES):
        lo = corner + k * drift + rng.normal(0.0, 0.5, (n_tracks, 2))
        seen = rng.random(n_tracks) >= 0.1
        frames.append([Detection(BBox(x0, y0, x0 + w, y0 + h),
                                 DetClass.FLAME, 0.9)
                       for (x0, y0), (w, h), s in zip(lo, size, seen) if s])
    return frames


def main():
    print(f"{'stream':<22}{'detections':>11}{'ms/frame':>10}")
    cases = [("scene seed 41 flames", scene_stream())]
    cases += [(f"synthetic {n} tracks", synthetic_stream(n))
              for n in (6, 20, 50)]
    for name, frames in cases:
        sort_oracle.assert_steps_alike(
            tracker.SortTracker(), sort_oracle.SortTracker(
                tracker.IOU_THRESHOLD, tracker.MAX_AGE, tracker.MIN_HITS,
                sort_oracle.kalman_params(tracker.PROCESS_VAR,
                                          tracker.MEASUREMENT_VAR)), frames)
        n_dets = sum(map(len, frames))
        print(f"{name:<22}{n_dets:>11}{1e3 * best_of_7(frames):>10.3f}")


if __name__ == "__main__":
    main()
