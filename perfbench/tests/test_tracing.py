"""Spans, self time, and tolerance of functions that no longer exist."""

import os
import sys

import pytest

from perfbench import tracing

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "..", "src"))

from flaremon import core, simulator  # noqa: E402
from flaremon.simulator import (FlameSpec, SceneSpec, SmokeSpec,  # noqa: E402
                                StackSpec)


def test_self_time_subtracts_child_spans():
    spans = [["a", 0, 100, -1, 0], ["b", 10, 40, 0, 0], ["c", 50, 60, 0, 0],
             ["b", 15, 20, 1, 3]]
    totals = tracing.layer_totals(spans)
    assert totals["a"]["self_s"] == pytest.approx(60e-9)
    assert totals["b"]["self_s"] == pytest.approx((25 + 5) * 1e-9)
    assert totals["b"]["calls"] == 2 and totals["b"]["work"] == 3


def test_missing_function_is_listed_not_fatal():
    tracer = tracing.Tracer()
    tracer.install([("flaremon.features", "no_such_function", "x"),
                    ("flaremon.no_such_module", "f", "y"),
                    ("flaremon.stats", "pca_project", "stats.project")])
    try:
        assert tracer.missing == ["flaremon.features.no_such_function",
                                  "flaremon.no_such_module.f"]
        assert tracer.wrapped == ["flaremon.stats.pca_project"]
    finally:
        tracer.uninstall()


def test_generator_and_classmethod_spans_nest_and_unwind():
    original_render = simulator.render
    original_encode = core.Mask.__dict__["from_array"]
    spec = SceneSpec(width=64, height=48, frame_count=2, stacks=(
        StackSpec(FlameSpec(32, 34, major=8, minor=3, tilt_deg=5.0),
                  SmokeSpec(area_multiplier=0.2), "high"),))
    tracer = tracing.Tracer()
    tracer.install([("flaremon.simulator", "render", "simulator.render"),
                    ("flaremon.core", "Mask.from_array", "core.mask_encode")])
    try:
        frames = list(simulator.render(spec))
    finally:
        tracer.uninstall()
    assert len(frames) == 2
    totals = tracing.layer_totals(tracer.spans)
    # one span per resumption; the last one only ends the generator
    assert totals["simulator.render"]["work"] == 2
    assert totals["simulator.render"]["calls"] == 3
    assert totals["core.mask_encode"]["calls"] == 4  # flame + smoke, 2 frames
    names = [s[0] for s in tracer.spans]
    assert all(names[s[3]] == "simulator.render"
               for s in tracer.spans if s[0] == "core.mask_encode")
    assert simulator.render is original_render
    assert core.Mask.__dict__["from_array"] is original_encode
