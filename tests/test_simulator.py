import dataclasses
import io
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from flaremon.core import DetClass
from flaremon.errors import InvalidPreset
from flaremon.features import channel_means, rgb_index
from flaremon.ingest import read_annotation_stream, write_annotation_stream
from flaremon.labeling import rule_label
from flaremon.simulator import (FlameSpec, SceneSpec, SmokeSpec, StackSpec,
                                _ellipse_mask, preset, render)
from tests import fullframe_oracle as oracle
from tests.features_oracle import flame_angle


def single_flame_spec(**kw):
    flame = FlameSpec(base_x=160, base_y=120, major=45, minor=18,
                      tilt_deg=kw.pop("tilt_deg", 0.0),
                      drift=kw.pop("drift", (0.0, 0.0)))
    return SceneSpec(frame_count=kw.pop("frame_count", 3),
                     noise_amplitude=kw.pop("noise_amplitude", 0),
                     stacks=(StackSpec(flame, None, "high"),), **kw)


class TestEllipseWindow:
    @settings(max_examples=300)
    @given(cx=st.floats(-50, 90), cy=st.floats(-50, 80),
           a=st.floats(0.5, 30), aspect=st.floats(0.2, 1.0),
           tilt=st.floats(0, 180))
    def test_matches_full_frame_raster(self, cx, cy, a, aspect, tilt):
        """Centres reach past every edge, so ellipses get cut off or miss
        the 40x30 frame entirely."""
        t = math.radians(tilt)
        axis = (math.sin(t), -math.cos(t))
        mask, rho, truncated = oracle.ellipse_mask(40, 30, cx, cy, a,
                                                   a * aspect, axis)
        win, inside, rho_fg, win_truncated = _ellipse_mask(
            40, 30, cx, cy, a, a * aspect, axis)
        pasted = np.zeros((30, 40), dtype=bool)
        pasted[win] = inside
        assert np.array_equal(pasted, mask)
        assert np.array_equal(rho_fg, rho[mask])
        assert win_truncated == truncated


class TestRenderBasics:
    def test_static_upright_flame_constant_mask(self):
        frames = list(render(single_flame_spec(frame_count=4)))
        masks = [rf.truths[0].flame_mask for rf in frames]
        assert all(m == masks[0] for m in masks)
        assert frames[0].truths[0].tilt_deg == 0.0
        assert not frames[0].truths[0].truncated

    def test_deterministic_per_seed(self):
        a = list(render(preset("clean_high")))[:5]
        b = list(render(preset("clean_high")))[:5]
        for ra, rb in zip(a, b):
            assert np.array_equal(ra.frame.pixels, rb.frame.pixels)
            assert ra.annotation == rb.annotation
            assert ra.truths == rb.truths

    def test_mask_matches_annotation_mask(self):
        rf = next(render(preset("clean_high")))
        flame_det = [i for i, d in enumerate(rf.annotation.detections)
                     if d.cls is DetClass.FLAME][0]
        assert dict(rf.annotation.masks)[flame_det] == rf.truths[0].flame_mask

    def test_box_is_tight_bound_of_mask(self):
        rf = next(render(preset("smoky_low")))
        t = rf.truths[0]
        arr = oracle.decode_runs(t.flame_mask)
        ys, xs = np.nonzero(arr)
        assert t.flame_box.x_min == xs.min()
        assert t.flame_box.y_max == ys.max() + 1

    def test_annotations_roundtrip_through_ingest(self):
        spec = dataclasses.replace(preset("crossing_near_miss"),
                                   frame_count=10)
        anns = [rf.annotation for rf in render(spec)]
        buf = io.StringIO()
        write_annotation_stream(anns, buf)
        reread = list(read_annotation_stream(io.StringIO(buf.getvalue())))
        assert reread == anns
        buf2 = io.StringIO()
        write_annotation_stream(reread, buf2)
        assert buf2.getvalue() == buf.getvalue()

    def test_jittered_boxes_stay_close(self):
        for rf in list(render(preset("clean_high")))[:10]:
            det = rf.annotation.detections[0]
            truth = rf.truths[0].flame_box
            assert abs(det.bbox.x_min - truth.x_min) <= 2.0 + 1e-9
            assert abs(det.bbox.y_max - truth.y_max) <= 2.0 + 1e-9


class TestAngleGroundTruth:
    @pytest.mark.parametrize("tilt", [10.0, 20.0, 30.0, 45.0])
    def test_flame_angle_recovers_tilt(self, tilt):
        rf = next(render(single_flame_spec(tilt_deg=tilt, frame_count=1)))
        assert flame_angle(rf.truths[0].flame_mask) == pytest.approx(
            tilt, abs=1.0)


class TestColorGroundTruth:
    def test_blue_core_index_range(self):
        flame = FlameSpec(base_x=160, base_y=120, major=40, minor=16,
                          tilt_deg=0.0, core_color=(0, 0, 255),
                          edge_color=(0, 0, 255))
        spec = SceneSpec(frame_count=1, noise_amplitude=0,
                         stacks=(StackSpec(flame, None, "high"),))
        rf = next(render(spec))
        e = rgb_index(channel_means(rf.frame, rf.truths[0].flame_mask))
        assert 0.5 < e <= 0.7


class TestPresets:
    def test_unknown_name(self):
        with pytest.raises(InvalidPreset):
            preset("nope")

    def test_three_stacks_has_three_ids(self):
        for rf in list(render(preset("three_stacks")))[:5]:
            assert sorted(t.stack_id for t in rf.truths) == [0, 1, 2]

    def test_clean_high_rule_labels(self):
        from flaremon.features import FeatureVector, smoke_flame_ratio
        spec = dataclasses.replace(preset("clean_high"), frame_count=20)
        for rf in render(spec):
            t = rf.truths[0]
            ratio = smoke_flame_ratio(t.smoke_mask.area(),
                                      t.flame_mask.area())
            e = rgb_index(channel_means(rf.frame, t.flame_mask))
            angle = flame_angle(t.flame_mask)
            assert rule_label(FeatureVector(ratio, e, angle)) == "high"

    def test_smoky_low_rule_labels(self):
        from flaremon.features import FeatureVector, smoke_flame_ratio
        spec = dataclasses.replace(preset("smoky_low"), frame_count=20)
        for rf in render(spec):
            t = rf.truths[0]
            ratio = smoke_flame_ratio(t.smoke_mask.area(),
                                      t.flame_mask.area())
            e = rgb_index(channel_means(rf.frame, t.flame_mask))
            angle = flame_angle(t.flame_mask)
            assert rule_label(FeatureVector(ratio, e, angle)) == "low"

    def test_smoke_strictly_above_flame(self):
        for rf in list(render(preset("three_stacks")))[:5]:
            for t in rf.truths:
                assert t.smoke_box.y_max <= t.flame_box.y_min

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            FlameSpec(0, 0, major=-1, minor=5, tilt_deg=0)
        with pytest.raises(ValueError):
            FlameSpec(0, 0, major=5, minor=5, tilt_deg=95)
        with pytest.raises(ValueError):
            SceneSpec(frame_count=0)
