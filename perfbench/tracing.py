"""Timing spans around the public functions of each flaremon module.

The tracer patches functions from outside the package, so no code under
``src/`` knows about it.  Spans are kept in memory as (name, start, end,
parent, work) and written out when the traced process ends; a layer's self
time is the length of its spans minus the length of their child spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict
from typing import Dict, List, Sequence

# (module, attribute, span name).  Generator functions get one span per
# resumption, so a span covers the work done to produce each item, and its
# work is 1 when the resumption produced an item.
WRAPPED = (
    ("flaremon.cli", "main", "cli"),
    ("flaremon.simulator", "render", "simulator.render"),
    ("flaremon.core", "Mask.from_array", "core.mask_encode"),
    ("flaremon.core", "Mask.to_array", "core.mask_decode"),
    ("flaremon.ingest", "parse_annotation_line", "ingest.parse"),
    ("flaremon.ingest", "write_annotation_stream", "ingest.write"),
    ("flaremon.pipeline", "load_frames", "pipeline.frame_read"),
    ("flaremon.pipeline", "save_frames", "pipeline.frame_write"),
    ("flaremon.pipeline", "format_feature_log", "pipeline.log_write"),
    ("flaremon.pipeline", "format_ground_truth", "pipeline.truth_write"),
    ("flaremon.pipeline", "AlertState.observe", "pipeline.alert"),
    ("flaremon.pipeline", "extract_track_features", "pipeline.stream"),
    ("flaremon.pipeline", "run_monitor", "pipeline.stream"),
    ("flaremon.pipeline", "run_training", "pipeline.stream"),
    ("flaremon.pipeline", "fit_efficiency_model", "pipeline.stream"),
    ("flaremon.tracker", "SortTracker.step", "tracker.step"),
    ("flaremon.tracker", "hungarian", "tracker.hungarian"),
    ("flaremon.tracker", "kalman_predict", "tracker.kalman"),
    ("flaremon.tracker", "kalman_update", "tracker.kalman"),
    ("flaremon.segment", "segment_box", "segment.grow"),
    ("flaremon.features", "channel_means", "features.color"),
    ("flaremon.features", "flame_angle", "features.angle"),
    ("flaremon.features", "associate_smoke", "features.smoke"),
    ("flaremon.stats", "standardize_apply", "stats.project"),
    ("flaremon.stats", "pca_project", "stats.project"),
    ("flaremon.stats", "standardize_fit", "stats.fit"),
    ("flaremon.stats", "pca_fit", "stats.fit"),
    ("flaremon.classify", "predict", "classify.predict"),
    ("flaremon.classify", "train_logistic", "classify.train"),
    ("flaremon.classify", "train_svm", "classify.train"),
    ("flaremon.classify", "train_knn", "classify.train"),
    ("flaremon.classify", "train_mlp", "classify.train"),
    ("flaremon.labeling", "rule_label", "labeling.rule"),
)


def _admitted_pixels(result) -> int:
    return sum(result.mask.runs[1::2])


# Work a span did, read from its return value after the span has closed.
WORK = {"segment.grow": _admitted_pixels}


class Tracer:
    """Single-threaded span recorder."""

    def __init__(self):
        self.spans: List[list] = []  # [name, start_ns, end_ns, parent, work]
        self._open: List[int] = []
        self._patched: List[tuple] = []
        self.wrapped: List[str] = []
        self.missing: List[str] = []

    def begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent, 0])
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter_ns()
        self._open.pop()

    def _call_wrapper(self, name, fn):
        work = WORK.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(idx)
            if work is not None:
                self.spans[idx][4] = work(result)
            return result
        return wrapper

    def _gen_wrapper(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self._steps(name, fn(*args, **kwargs))
        return wrapper

    def _steps(self, name, gen):
        while True:
            idx = self.begin(name)
            try:
                item = next(gen)
            except StopIteration:
                return
            finally:
                self.end(idx)
            self.spans[idx][4] = 1  # one item produced
            yield item

    def install(self, table: Sequence[tuple] = WRAPPED) -> None:
        """Wrap every listed function that exists; record the others."""
        for module_name, attr, name in table:
            label = f"{module_name}.{attr}"
            try:
                owner = importlib.import_module(module_name)
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                raw = inspect.getattr_static(owner, leaf)
            except (ImportError, AttributeError):
                self.missing.append(label)
                continue
            is_classmethod = isinstance(raw, classmethod)
            fn = raw.__func__ if is_classmethod else raw
            if inspect.isgeneratorfunction(fn):
                new = self._gen_wrapper(name, fn)
            else:
                new = self._call_wrapper(name, fn)
            self._patch(owner, leaf, raw,
                        classmethod(new) if is_classmethod else new)
            if not path:
                # `from .x import f` copies f into other modules: patch those
                # references too.
                for mod_name, mod in list(sys.modules.items()):
                    if (mod_name.startswith("flaremon") and mod is not owner
                            and getattr(mod, leaf, None) is raw):
                        self._patch(mod, leaf, raw, new)
            self.wrapped.append(label)

    def _patch(self, owner, attr, old, new) -> None:
        setattr(owner, attr, new)
        self._patched.append((owner, attr, old))

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._patched):
            setattr(owner, attr, old)
        self._patched.clear()

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"wrapped": self.wrapped, "missing": self.missing,
                       "spans": self.spans}, fh)


def layer_totals(spans: Sequence[list]) -> Dict[str, Dict[str, float]]:
    """Per span name: self seconds, span count and summed work."""
    child_ns = [0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    out: Dict[str, Dict[str, float]] = defaultdict(
        lambda: {"self_s": 0.0, "calls": 0, "work": 0})
    for i, (name, start, end, _, work) in enumerate(spans):
        agg = out[name]
        agg["self_s"] += (end - start - child_ns[i]) / 1e9
        agg["calls"] += 1
        agg["work"] += work
    return dict(out)
