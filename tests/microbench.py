"""Layer microbenchmarks: one row of timings per case, each case checked
against its oracle before it is timed.

Run from the repository root, optionally naming another checkout's root:

    PYTHONPATH=src python tests/microbench.py [../flaremon-before]

Each row gives a case's layer, name and inputs, the unit its figures are
per, and the best and the median of 7 timings in ms per unit.  Each timing
is of a batch of calls, the batch doubled until it takes 20 ms; every call
builds its own state (a new tracker, a new monitor).  Before a case's row
is printed, its outputs must equal its oracle's, so a failing check stops
the run before any figure for that case.  The cases:

- classify: the logistic, SVM and MLP trainers on the (PC1, PC2) split
  that `run_training` hands `train_all_classifiers` on the benchmark
  training scene (400x240, four stacks, 40 frames, seed 41, rule labels),
  each equal bit for bit to `tests/classify_oracle.py`'s, per fit.
- features: what `pipeline.extract_track_features` needs of each flame
  (pixel count, E and angle, errors included), from one decode and one
  `flame_moments` call per frame, equal to the full-frame oracle of
  `tests/fullframe_oracle.py` (values, error types and messages), per
  frame.  Frames: the flame masks of the benchmark monitor scene (640x360,
  six stacks, 32 frames, seed 41), and 32 synthetic 640x360 frames of
  random pixels with 1, 6 and 20 tilted elliptical flames of 30x12 px
  half-axes, on a grid 85 px apart.
- render: the seed-777 monitor scene (640x360, six stacks, 32 frames) and
  training scene (400x240, four stacks, 40 frames), alone and written with
  `formats.save_scene` to a temporary directory, per frame, after the
  frames, truths and annotations equal `tests/render_oracle.py`'s.  The
  renderer draws noise on a worker thread, which overlaps only when a
  second CPU is free; the header prints how many there are.
- tracker: `SortTracker.step` over the flame detections of the seed-41
  monitor scene, and over synthetic streams of 6, 20 and 50 tracks (boxes
  of 20-40 px on a grid 60 px apart, drifting up to 1.5 px a frame with
  0.5 px of jitter, each missing with probability 0.1, 32 frames), per
  frame, after the reports, matches, births, deaths and states equal those
  of `tests/sort_oracle.py`.
- segment: `segment_frame` on each case's boxes, its regions equal to
  `tests/bfs_oracle.py`'s (the same indices and dtype):
  one flame and the largest smoke of the first seed-41 monitor frame; all
  its 12 boxes by one call per box, by one call, and by one call and the
  `flame_moments` call `monitor` makes; a 300x300 box on a 400x400 frame,
  solid, or of base colour 128 plus uniform noise of +/-40 to +/-60 per
  channel at tolerance 40, or a site percolation with 62% admissible, or
  a one-pixel spiral corridor ending at the seed; and a 40x40 box on a
  uniform 200x200 frame whose region leaks to fill its 49x49 window.  "px"
  is the admitted total.
- scale: `pipeline.run_monitor` (alert window 5, cooldown 50) on the
  seed-777 monitor layout with n = 6 to 96 stacks on a frame 107n px wide,
  n // 3 of them low, 16 frames, masked and box-only, with a model trained
  on the seed-777 training scene, per record, after the tracker equals
  the oracle on the scene's flames.
- start-up: `import flaremon.cli` after `import numpy` in a fresh
  interpreter with BLAS on one thread, timed by the child, from source
  (`PYTHONDONTWRITEBYTECODE=1`) and from bytecode cached by an untimed run,
  on a copy of `src` without bytecode.  Each of the 7 rounds runs the
  checkouts in turn, so host drift falls on both alike.  pytest does not
  collect this file.
"""

from __future__ import annotations

import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from functools import partial
from pathlib import Path
from unittest import mock

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))

from flaremon import classify, formats, pipeline, tracker  # noqa: E402
from flaremon.core import (BBox, DetClass, Detection, Frame,  # noqa: E402
                           Mask, foreground_indices)
from flaremon.errors import EmptyRegion  # noqa: E402
from flaremon.features import (angle_from_moments, flame_moments,  # noqa: E402
                               rgb_index)
from flaremon.ingest import FrameAnnotation  # noqa: E402
from flaremon.segment import segment_frame  # noqa: E402
from flaremon.simulator import render, rendered_stream  # noqa: E402
from perfbench.scenes import LAYOUTS, MONITOR, TRAIN, scene  # noqa: E402
from tests import (classify_oracle, fullframe_oracle,  # noqa: E402
                   render_oracle, sort_oracle)
from tests.bfs_oracle import segment_frame_bfs, spiral  # noqa: E402
from tests.fullframe_oracle import outcome  # noqa: E402


def timed(call):
    """Seven timings of `call` in seconds per call, each of a batch of
    calls, the batch doubled until it takes 20 ms."""
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
    return times


def row(layer, case, inputs, unit, seconds, units=1):
    """Print one case: the best and the median of `seconds` in ms per unit,
    a call being `units` units."""
    ms = [1e3 * s / units for s in seconds]
    print(f"{layer:<9}{case:<23}{inputs:<38}{unit:>7}"
          f"{min(ms):>10.3f}{statistics.median(ms):>10.3f}", flush=True)


def flames(rf):
    return [d for d in rf.annotation.detections if d.cls is DetClass.FLAME]


def classify_cases():
    calls, fit = [], pipeline.train_all_classifiers

    def record(pcs, labels, **kwargs):
        calls.append((pcs, labels))
        return fit(pcs, labels, **kwargs)

    with mock.patch.object(pipeline, "train_all_classifiers", record):
        pipeline.run_training(rendered_stream(render(scene(41, TRAIN))))
    pcs, labels = calls[0]
    inputs = (f"seed 41 split, {len(labels)} samples, "
              f"{labels.count(classify.HIGH)} high")
    for name in ("train_logistic", "train_svm", "train_mlp"):
        train = getattr(classify, name)
        assert train(pcs, labels) == getattr(classify_oracle, name)(
            pcs, labels), name
        row("classify", name, inputs, "fit", timed(lambda: train(pcs, labels)))


def oracle_features(frame, masks):
    out = []
    for mask in masks:
        means = outcome(fullframe_oracle.channel_means, frame, mask)
        out.append((mask.area(),
                    means if len(means) == 2 else outcome(rgb_index, means),
                    outcome(fullframe_oracle.flame_angle, mask)))
    return out


def batched_features(frame, masks):
    # The masks' pixels from one decode, as pipeline.extract_track_features
    # hands them on.
    counts, means, moments = flame_moments(frame, foreground_indices(masks))
    empty = (EmptyRegion, "mask has no foreground pixels")
    return [(n, outcome(rgb_index, rgb) if n else empty,
             outcome(angle_from_moments, n, *mu))
            for n, rgb, mu in zip(counts.tolist(), means.tolist(),
                                  moments.tolist())]


WIDTH, HEIGHT = 640, 360


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


def synthetic_frames(n_flames, rng):
    frames = []
    for k in range(32):
        pixels = rng.integers(0, 256, (HEIGHT, WIDTH, 3), dtype=np.uint8)
        masks = [ellipse(45 + 85 * (i % 7) + rng.uniform(-3, 3),
                         45 + 85 * (i // 7) + rng.uniform(-3, 3),
                         rng.uniform(0, 60))
                 for i in range(n_flames)]
        frames.append((Frame(k, k / 25.0, WIDTH, HEIGHT, pixels), masks))
    return frames


def features_cases():
    cases = [("scene seed 41", [
        (rf.frame, [m for i, m in rf.annotation.masks or ()
                    if rf.annotation.detections[i].cls is DetClass.FLAME])
        for rf in render(scene(41, MONITOR))])]
    cases += [(f"synthetic {n} flames",
               synthetic_frames(n, np.random.default_rng(0)))
              for n in (1, 6, 20)]
    for name, frames in cases:
        for frame, masks in frames:
            assert (batched_features(frame, masks)
                    == oracle_features(frame, masks)), name
        n_flames = sum(len(m) for _, m in frames)
        row("features", name, f"{len(frames)} frames, {n_flames} flames",
            "frame", timed(lambda: [batched_features(*fm) for fm in frames]),
            len(frames))


def render_cases():
    def render_only(spec):
        for _ in render(spec):
            pass

    def render_and_save(spec):
        with tempfile.TemporaryDirectory() as out:
            formats.save_scene(render(spec), out)

    for name, role in (("monitor", MONITOR), ("training", TRAIN)):
        spec = scene(777, role)
        render_oracle.assert_renders_alike(spec)
        inputs = (f"seed 777, {spec.width}x{spec.height}, "
                  f"{spec.frame_count} frames")
        for case, run in (("render", render_only),
                          ("render + save", render_and_save)):
            row("render", f"{name} {case}", inputs, "frame",
                timed(lambda: run(spec)), spec.frame_count)


def assert_tracker_alike(frames):
    sort_oracle.assert_steps_alike(
        tracker.SortTracker(), sort_oracle.SortTracker(
            tracker.IOU_THRESHOLD, tracker.MAX_AGE, tracker.MIN_HITS,
            sort_oracle.kalman_params(tracker.PROCESS_VAR,
                                      tracker.MEASUREMENT_VAR)), frames)


def synthetic_stream(n_tracks):
    rng = np.random.default_rng(0)
    cols = int(np.ceil(np.sqrt(n_tracks)))
    corner = np.array([(60.0 * (i % cols), 60.0 * (i // cols))
                       for i in range(n_tracks)])
    size = rng.uniform(20.0, 40.0, (n_tracks, 2))
    drift = rng.uniform(-1.5, 1.5, (n_tracks, 2))
    frames = []
    for k in range(32):
        lo = corner + k * drift + rng.normal(0.0, 0.5, (n_tracks, 2))
        seen = rng.random(n_tracks) >= 0.1
        frames.append([Detection(BBox(x0, y0, x0 + w, y0 + h),
                                 DetClass.FLAME, 0.9)
                       for (x0, y0), (w, h), s in zip(lo, size, seen) if s])
    return frames


def tracker_cases():
    cases = [("scene seed 41 flames",
              [flames(rf) for rf in render(scene(41, MONITOR))])]
    cases += [(f"synthetic {n} tracks", synthetic_stream(n))
              for n in (6, 20, 50)]
    for name, frames in cases:
        assert_tracker_alike(frames)

        def run():
            sort = tracker.SortTracker()
            for dets in frames:
                sort.step(dets)

        row("tracker", name, f"{len(frames)} frames, "
            f"{sum(map(len, frames))} detections", "frame", timed(run),
            len(frames))


def square_frame(pixels):
    h, w = pixels.shape[:2]
    return Frame(0, 0.0, w, h, np.ascontiguousarray(pixels))


def call_per_box(frame, boxes):
    return [segment_frame(frame, [box])[0] for box in boxes]


def grow_then_moments(frame, boxes, n_flames):
    """segment_frame, then flame_moments on the first n_flames regions."""
    regions = segment_frame(frame, boxes)
    flame_moments(frame, regions[:n_flames])
    return regions


def segment_inputs():
    """(name, frame, boxes, grow function of the frame and boxes)."""
    first = next(render(scene(41, MONITOR)))
    frame, dets = first.frame, first.annotation.detections
    flame_boxes = [d.bbox for d in flames(first)]
    smokes = [d.bbox for d in dets if d.cls is DetClass.SMOKE]
    boxes = flame_boxes + smokes
    yield "scene flame", frame, flame_boxes[:1], segment_frame
    # The largest smoke box: the smoke of a low stack.
    yield ("scene smoke", frame, [max(smokes, key=lambda b: b.area)],
           segment_frame)
    yield f"frame, {len(boxes)} calls", frame, boxes, call_per_box
    yield "frame, 1 call", frame, boxes, segment_frame
    yield ("frame, grow + moments", frame, boxes,
           partial(grow_then_moments, n_flames=len(flame_boxes)))
    squares = [("solid 300x300", np.full((400, 400, 3), 128, np.uint8))]
    rng = np.random.default_rng(0)
    for amp in (40, 45, 48, 52, 60):
        pix = (128 + rng.integers(-amp, amp + 1, size=(400, 400, 3))) \
            .astype(np.uint8)
        pix[199:202, 199:202] = 128  # the seed patch: its mean is exactly 128
        squares.append((f"noise +/-{amp}", pix))
    # Its own draw, in which the seed lies in the spanning cluster.
    percolation = np.random.default_rng(0).random((400, 400)) < 0.62
    corridor = np.zeros((400, 400), dtype=bool)
    corridor[50:351, 50:351] = spiral(301)  # it ends at (200, 200)
    for name, on in (("percolation 62%", percolation),
                     ("spiral corridor", corridor)):
        on[199:202, 199:202] = True  # the seed patch, of the on colour
        squares.append((name, np.where(on[..., None], 100, 200)
                        .astype(np.uint8).repeat(3, axis=2)))
    for name, pix in squares:
        yield (name, square_frame(pix), [BBox(50.0, 50.0, 350.0, 350.0)],
               segment_frame)
    uniform = square_frame(np.full((200, 200, 3), 128, np.uint8))
    yield "leaked window", uniform, [BBox(80.0, 80.0, 120.0, 120.0)], \
        segment_frame


def segment_cases():
    for name, frame, boxes, grow in segment_inputs():
        regions = grow(frame, boxes)
        for got, want in zip(regions, segment_frame_bfs(frame, boxes),
                             strict=True):
            assert isinstance(got, np.ndarray) and got.dtype == want.dtype \
                and np.array_equal(got, want), name
        row("segment", name, f"{frame.width}x{frame.height}, boxes "
            f"{len(boxes)}, {sum(map(len, regions))} px", "call",
            timed(lambda: grow(frame, boxes)))


def scale_cases():
    model = pipeline.run_training(rendered_stream(
        render(scene(777, TRAIN))))[0]
    for n in (6, 12, 24, 48, 96):
        # 16 frames: the layout's 32 would hold 350 MB of 96-stack frames.
        layout = (107 * n, 360, 16, n, n // 3)
        with mock.patch.dict(LAYOUTS, {MONITOR: layout}):
            spec = scene(777, MONITOR)
        rendered = list(render(spec))
        assert_tracker_alike([flames(rf) for rf in rendered])
        masked = list(rendered_stream(rendered))
        del rendered
        box_only = [(frame, FrameAnnotation(ann.frame_index, ann.detections,
                                            None))
                    for frame, ann in masked]
        for name, pairs in (("masks", masked), ("box-only", box_only)):
            def run():
                return sum(1 for _ in pipeline.run_monitor(
                    model, iter(pairs), 5, 50))

            records = run()
            row("scale", f"{n} stacks, {name}", f"{spec.width}x360, "
                f"{len(pairs)} frames, {records} records", "record",
                timed(run), records)


CHILD = ("import time, numpy\n"
         "t = time.perf_counter()\n"
         "import flaremon.cli\n"
         "print(time.perf_counter() - t)\n")


def import_seconds(src, cache):
    """One fresh interpreter's `import flaremon.cli` time from `src`, in
    seconds.  `cache` is a bytecode directory to read and fill, or None to
    compile flaremon from source."""
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("PYTHONPYCACHEPREFIX", None)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    if cache is None:
        env["PYTHONDONTWRITEBYTECODE"] = "1"
    else:
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        env["PYTHONPYCACHEPREFIX"] = cache
    out = subprocess.run([sys.executable, "-c", CHILD], env=env, check=True,
                         capture_output=True, text=True).stdout
    return float(out.split()[-1])


def startup_cases(other):
    roots = {"this": ROOT}
    if other is not None:
        roots["other"] = Path(other).resolve()
    times = {(name, mode): [] for name in roots
             for mode in ("from source", "cached bytecode")}
    with tempfile.TemporaryDirectory(prefix="startup-") as tmp:
        dirs = {name: (os.path.join(tmp, name, "src"),
                       os.path.join(tmp, name, "cache")) for name in roots}
        for name, (src, cache) in dirs.items():
            shutil.copytree(roots[name] / "src", src,
                            ignore=shutil.ignore_patterns("__pycache__"))
            import_seconds(src, cache)  # fill the cache, untimed
        for _ in range(7):
            for name, (src, cache) in dirs.items():
                times[name, "from source"].append(import_seconds(src, None))
                times[name, "cached bytecode"].append(
                    import_seconds(src, cache))
    for (name, mode), seconds in times.items():
        row("start-up", mode, f"{name}: {roots[name]}", "import", seconds)


def main(argv):
    if len(argv) > 1:
        print(__doc__, file=sys.stderr)
        return 1
    print(f"CPUs available: {len(os.sched_getaffinity(0))}")
    print(f"{'layer':<9}{'case':<23}{'inputs':<38}{'per':>7}"
          f"{'best ms':>10}{'median ms':>10}")
    for cases in (classify_cases, features_cases, render_cases,
                  tracker_cases, segment_cases, scale_cases):
        cases()
    startup_cases(argv[0] if argv else None)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
