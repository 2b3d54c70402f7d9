"""Classifier microbenchmark: best-of-7 fit time per classifier kind, the
trainers of `tests/classify_oracle.py` against those of `flaremon.classify`.

Run from the repository root:

    PYTHONPATH=src python tests/classify_microbench.py

Data: the (PC1, PC2) training split that `pipeline.train_all_classifiers`
gets when `run_training` fits the benchmark training scene (400x240, four
stacks, 40 frames, seed 41) with rule labels.  Both sides fit the same
model bit for bit, which is checked first; each figure is the best of 7
fits.  The KNN has no fit loop (it keeps its samples) and no oracle, so it
is left out.  pytest does not collect this file.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from flaremon import classify, pipeline  # noqa: E402
from flaremon.simulator import render, rendered_stream  # noqa: E402
from perfbench.scenes import TRAIN, scene  # noqa: E402
from tests import classify_oracle  # noqa: E402

TRAINERS = ("train_logistic", "train_svm", "train_mlp")


def training_split(seed=41):
    """The (pcs, labels) that `run_training` hands to
    `train_all_classifiers` on the seed's training scene."""
    calls, fit = [], pipeline.train_all_classifiers

    def record(pcs, labels, **kwargs):
        calls.append((pcs, labels))
        return fit(pcs, labels, **kwargs)

    pipeline.train_all_classifiers = record
    try:
        pipeline.run_training(rendered_stream(render(scene(seed, TRAIN))))
    finally:
        pipeline.train_all_classifiers = fit
    return calls[0]


def best_of_7(train, pcs, labels):
    times = []
    for _ in range(7):
        t0 = time.perf_counter()
        train(pcs, labels)
        times.append(time.perf_counter() - t0)
    return min(times)


def main():
    pcs, labels = training_split()
    print(f"seed-41 training split: {pcs.shape[0]} samples, "
          f"{labels.count(classify.HIGH)} high")
    print(f"{'kind':<10}{'oracle ms':>11}{'current ms':>12}")
    for name in TRAINERS:
        old, new = getattr(classify_oracle, name), getattr(classify, name)
        assert old(pcs, labels) == new(pcs, labels)
        print(f"{new(pcs, labels).kind:<10}"
              f"{1e3 * best_of_7(old, pcs, labels):>11.1f}"
              f"{1e3 * best_of_7(new, pcs, labels):>12.1f}")


if __name__ == "__main__":
    main()
