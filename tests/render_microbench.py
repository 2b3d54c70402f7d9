"""Render microbenchmark: best-of-7 time per frame of the renderer in
`tests/render_oracle.py` against `flaremon.simulator.render`.

Run from the repository root:

    PYTHONPATH=src python tests/render_microbench.py

Scenes: the seed-777 benchmark monitor scene (640x360, six stacks, 32
frames) and training scene (400x240, four stacks, 40 frames).  Both
renderers must give the same frames, truths and annotations, which is
checked first.  Each figure is the best of 7 passes over the whole scene,
divided by its frame count: `render` alone, then `render` written to a
temporary directory with `formats.save_scene`.  The current renderer draws
each frame's noise on a worker thread while the frame before it is
consumed, so its timings show that overlap only when a second CPU is free;
the script first prints how many CPUs this process may run on.  pytest
does not collect this file.
"""

from __future__ import annotations

import os
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from flaremon import formats, simulator  # noqa: E402
from perfbench.scenes import MONITOR, TRAIN, scene  # noqa: E402
from tests import render_oracle  # noqa: E402


def render_only(render, spec):
    for _ in render(spec):
        pass


def render_and_save(render, spec):
    with tempfile.TemporaryDirectory() as out:
        formats.save_scene(render(spec), out)


def best_of_7(run, render, spec):
    times = []
    for _ in range(7):
        t0 = time.perf_counter()
        run(render, spec)
        times.append(time.perf_counter() - t0)
    return min(times) / spec.frame_count


def main():
    print(f"CPUs available: {len(os.sched_getaffinity(0))}")
    print(f"{'scene':<10}{'case':<16}{'oracle ms':>11}{'current ms':>12}")
    for name, role in (("monitor", MONITOR), ("training", TRAIN)):
        spec = scene(777, role)
        render_oracle.assert_renders_alike(spec)
        for case, run in (("render", render_only),
                          ("render + save", render_and_save)):
            print(f"{name:<10}{case:<16}"
                  f"{1e3 * best_of_7(run, render_oracle.render, spec):>11.2f}"
                  f"{1e3 * best_of_7(run, simulator.render, spec):>12.2f}")


if __name__ == "__main__":
    main()
