"""Stack-count microbenchmark: best-of-7 `pipeline.run_monitor` time per
frame and per record, at 6, 12, 24, 48 and 96 stacks.

Run from the repository root:

    PYTHONPATH=src python tests/scale_microbench.py

Scenes: the benchmark's seed-777 monitor layout (`perfbench.scenes`) with
n stacks on a frame 107n px wide and 360 px high, n // 3 of them low, for
16 frames (the layout's 32 would hold 350 MB of 96-stack frames).  The
model is trained, with the rule labeller, on the seed-777 training scene.
Each scene is monitored masked (the rendered RLE masks) and box-only (no
masks, so the region grow finds every region), with the command's
defaults: alert window 5, cooldown 50.  Before a scene is timed, the
tracker must give the same reports, matches, births, deaths and states on
its flame detections as the per-track tracker of `tests/sort_oracle.py`.
Each figure is the best of 7 passes over the whole stream, divided by the
number of frames or of records.  pytest does not collect this file.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path
from unittest import mock

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from flaremon import pipeline, tracker  # noqa: E402
from flaremon.core import DetClass  # noqa: E402
from flaremon.ingest import FrameAnnotation  # noqa: E402
from flaremon.simulator import render, rendered_stream  # noqa: E402
from perfbench import scenes  # noqa: E402
from tests import sort_oracle  # noqa: E402

SEED = 777
STACKS = (6, 12, 24, 48, 96)
FRAMES = 16
ALERT_WINDOW, COOLDOWN = 5, 50


def monitor_scene(n):
    layout = (107 * n, 360, FRAMES, n, n // 3)
    with mock.patch.dict(scenes.LAYOUTS, {scenes.MONITOR: layout}):
        return scenes.scene(SEED, scenes.MONITOR)


def assert_tracker_alike(rendered):
    frames = [[d for d in rf.annotation.detections if d.cls is DetClass.FLAME]
              for rf in rendered]
    sort_oracle.assert_steps_alike(
        tracker.SortTracker(), sort_oracle.SortTracker(
            tracker.IOU_THRESHOLD, tracker.MAX_AGE, tracker.MIN_HITS,
            sort_oracle.kalman_params(tracker.PROCESS_VAR,
                                      tracker.MEASUREMENT_VAR)), frames)


def best_of_7(model, pairs):
    """(seconds per pass, records per pass) of monitoring `pairs`."""
    times = []
    for _ in range(7):
        t0 = time.perf_counter()
        records = sum(1 for _ in pipeline.run_monitor(
            model, iter(pairs), ALERT_WINDOW, COOLDOWN))
        times.append(time.perf_counter() - t0)
    return min(times), records


def main():
    train = render(scenes.scene(SEED, scenes.TRAIN))
    model = pipeline.run_training(rendered_stream(train))[0]
    print(f"{'stacks':>6}{'width':>7}{'input':>10}{'records':>9}"
          f"{'ms/frame':>10}{'ms/record':>11}")
    for n in STACKS:
        spec = monitor_scene(n)
        rendered = list(render(spec))
        assert_tracker_alike(rendered)
        masked = list(rendered_stream(rendered))
        del rendered
        box_only = [(frame, FrameAnnotation(ann.frame_index, ann.detections,
                                            None))
                    for frame, ann in masked]
        for name, pairs in (("masks", masked), ("box-only", box_only)):
            seconds, records = best_of_7(model, pairs)
            print(f"{n:>6}{spec.width:>7}{name:>10}{records:>9}"
                  f"{1e3 * seconds / len(pairs):>10.3f}"
                  f"{1e3 * seconds / max(records, 1):>11.4f}")


if __name__ == "__main__":
    main()
