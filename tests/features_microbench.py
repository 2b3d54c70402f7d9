"""Feature microbenchmark: best-of-7 colour and angle time per frame, the
per-mask oracle against the batched `flame_moments`.

Run from the repository root:

    PYTHONPATH=src python tests/features_microbench.py

Frames: the flame masks of the benchmark monitor scene (640x360, six
stacks, 32 frames, seed 41), and synthetic 640x360 frames of random
pixels with 1, 6 and 20 tilted elliptical flames of 30x12 px half-axes,
on a grid 85 px apart, 32 frames each.  Both sides compute what
`pipeline.extract_track_features` needs of each flame: pixel count, E
and angle, errors included.  The oracle decodes and reduces one mask per
call, as the pipeline did before; the batched side decodes a frame's masks
with one `foreground_indices` call and hands their pixel indices to one
`flame_moments` call.  Each figure is the best of 7 passes
over the frames, divided by the number of frames.  pytest does not
collect this file.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from flaremon.core import (DetClass, Frame, Mask,  # noqa: E402
                           foreground_indices)
from flaremon.errors import EmptyRegion, FlaremonError  # noqa: E402
from flaremon.features import (angle_from_moments, flame_moments,  # noqa: E402
                               rgb_index)
from flaremon.simulator import render  # noqa: E402
from perfbench.scenes import MONITOR, scene  # noqa: E402
from tests import features_oracle  # noqa: E402

FRAMES = 32
WIDTH, HEIGHT = 640, 360


def outcome(fn, *args):
    try:
        return fn(*args)
    except FlaremonError as exc:
        return type(exc)


def oracle_features(frame, masks):
    out = []
    for mask in masks:
        means = outcome(features_oracle.channel_means, frame, mask)
        out.append((mask.area(),
                    means if isinstance(means, type)
                    else outcome(rgb_index, means),
                    outcome(features_oracle.flame_angle, mask)))
    return out


def batched_features(frame, masks):
    # The masks' pixels from one decode, as pipeline.extract_track_features
    # hands them on.
    idx, counts = foreground_indices(masks)
    ends = np.cumsum(counts).tolist()
    counts, means, moments = flame_moments(
        frame, [idx[end - n:end] for end, n in zip(ends, counts.tolist())])
    return [(n, outcome(rgb_index, rgb) if n else EmptyRegion,
             outcome(angle_from_moments, n, *mu))
            for n, rgb, mu in zip(counts.tolist(), means.tolist(),
                                  moments.tolist())]


def best_of_7(features, frames):
    times = []
    for _ in range(7):
        t0 = time.perf_counter()
        for frame, masks in frames:
            features(frame, masks)
        times.append((time.perf_counter() - t0) / len(frames))
    return min(times)


def scene_frames():
    frames = []
    for rf in render(scene(41, MONITOR)):
        ann = rf.annotation
        masks = [m for i, m in ann.masks or ()
                 if ann.detections[i].cls is DetClass.FLAME]
        frames.append((rf.frame, masks))
    return frames


def ellipse(cx, cy, tilt_deg, a=30.0, b=12.0):
    """A filled ellipse with its major axis `tilt_deg` from vertical."""
    t = np.radians(tilt_deg)
    x0, y0 = int(cx - a), int(cy - a)
    ys, xs = np.mgrid[0:int(2 * a) + 1, 0:int(2 * a) + 1]
    dx, dy = xs + x0 - cx, ys + y0 - cy
    u = dx * np.sin(t) - dy * np.cos(t)
    v = dx * np.cos(t) + dy * np.sin(t)
    return Mask.from_array((u / a) ** 2 + (v / b) ** 2 <= 1.0,
                           origin=(x0, y0), size=(WIDTH, HEIGHT))


def synthetic_frames(n_flames, seed=0):
    rng = np.random.default_rng(seed)
    cols = 7
    frames = []
    for k in range(FRAMES):
        pixels = rng.integers(0, 256, (HEIGHT, WIDTH, 3), dtype=np.uint8)
        masks = [ellipse(45 + 85 * (i % cols) + rng.uniform(-3, 3),
                         45 + 85 * (i // cols) + rng.uniform(-3, 3),
                         rng.uniform(0, 60))
                 for i in range(n_flames)]
        frames.append((Frame(k, k / 25.0, WIDTH, HEIGHT, pixels), masks))
    return frames


def main():
    print(f"{'frames':<22}{'flames':>8}{'oracle ms':>11}{'batched ms':>12}")
    cases = [("scene seed 41", scene_frames())]
    cases += [(f"synthetic {n} flames", synthetic_frames(n))
              for n in (1, 6, 20)]
    for name, frames in cases:
        for frame, masks in frames:
            assert (batched_features(frame, masks)
                    == oracle_features(frame, masks))
        n_flames = sum(len(m) for _, m in frames)
        print(f"{name:<22}{n_flames:>8}"
              f"{1e3 * best_of_7(oracle_features, frames):>11.3f}"
              f"{1e3 * best_of_7(batched_features, frames):>12.3f}")


if __name__ == "__main__":
    main()
