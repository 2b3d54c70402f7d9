import io
import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from flaremon.core import DetClass
from flaremon.errors import ParseError
from flaremon.features import channel_means, rgb_index
from flaremon.ingest import read_annotation_stream, write_annotation_stream
from flaremon.labeling import rule_label
from flaremon.simulator import (PRESETS, FlameSpec, SceneSpec, SmokeSpec,
                                StackSpec, _ellipse_mask, preset, render)
from perfbench.scenes import MONITOR, TRAIN, scene
from tests import fullframe_oracle as oracle
from tests import render_oracle
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


channels = st.integers(0, 255) | st.sampled_from((0, 255))
colors = st.tuples(channels, channels, channels)


@st.composite
def scene_specs(draw):
    """Scenes up to 96x96 whose stacks are centred up to 40 px past every
    edge, so that flames and smoke get cut off or fall off the frame."""
    width, height = draw(st.integers(1, 96)), draw(st.integers(1, 96))
    stacks = []
    for _ in range(draw(st.integers(0, 3))):
        major = draw(st.floats(0.5, 40))
        flame = FlameSpec(
            draw(st.floats(-40, width + 40)), draw(st.floats(-40, height + 40)),
            major, major * draw(st.floats(0.2, 1.0)),
            draw(st.floats(0.0, 89.9)),
            drift=(draw(st.floats(-3, 3)), draw(st.floats(-3, 3))),
            core_color=draw(colors), edge_color=draw(colors))
        smoke = draw(st.none() | st.builds(
            SmokeSpec, st.floats(0.05, 3.0), channels,
            st.floats(0.0, 12.0)))
        stacks.append(StackSpec(flame, smoke, draw(st.sampled_from(
            ("high", "low")))))
    return SceneSpec(width, height, draw(st.integers(1, 3)),
                     draw(st.integers(0, 2 ** 32 - 1)), tuple(stacks),
                     draw(st.sampled_from((0, 1, 255)) | st.integers(0, 255)))


class TestMatchesRenderOracle:
    @settings(max_examples=200, deadline=None)
    @given(spec=scene_specs())
    @example(spec=preset("three_stacks")._replace(
        width=96, height=96, frame_count=2, noise_amplitude=0))
    @example(spec=preset("windy")._replace(frame_count=2, noise_amplitude=1))
    @example(spec=preset("smoky_low")._replace(frame_count=2,
                                               noise_amplitude=255))
    def test_random_scenes(self, spec):
        render_oracle.assert_renders_alike(spec)

    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_presets_first_frames(self, name):
        render_oracle.assert_renders_alike(preset(name), frames=10)

    @pytest.mark.parametrize("role", [MONITOR, TRAIN])
    def test_benchmark_scenes(self, role):
        render_oracle.assert_renders_alike(scene(777, role))


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
        spec = preset("crossing_near_miss")._replace(frame_count=10)
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


def assert_same_frames(got, expected):
    assert got.frame[:4] == expected.frame[:4]
    assert got.frame.pixels.tobytes() == expected.frame.pixels.tobytes()
    assert got.truths == expected.truths
    assert got.annotation == expected.annotation


class TestNoiseWorker:
    """The thread that draws each frame's noise lives only as long as its
    render, however the render ends."""

    SPEC = preset("three_stacks")._replace(frame_count=6)

    def test_ends_with_a_consumed_render(self):
        before = threading.active_count()
        for rf in render(self.SPEC):
            if rf.frame.index == 2:
                assert threading.active_count() == before + 1
        assert threading.active_count() == before

    def test_ends_when_closed_early(self):
        before = threading.active_count()
        frames = render(self.SPEC)
        for rf in frames:
            if rf.frame.index == 2:
                break
        assert threading.active_count() == before + 1
        frames.close()
        assert threading.active_count() == before

    def test_ends_when_the_consumer_raises(self):
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="^consumer failed$"):
            for rf in render(self.SPEC):
                if rf.frame.index == 2:
                    assert threading.active_count() == before + 1
                    raise RuntimeError("consumer failed")
        assert threading.active_count() == before

    def test_no_worker_without_noise(self):
        before = threading.active_count()
        for _ in render(self.SPEC._replace(noise_amplitude=0)):
            assert threading.active_count() == before
        assert threading.active_count() == before

    def test_interleaved_renders_match_renders_in_turn(self):
        a = self.SPEC
        b = preset("windy")._replace(frame_count=6, rng_seed=3)
        in_turn = list(render(a)), list(render(b))
        for ga, gb, ea, eb in zip(render(a), render(b), *in_turn,
                                  strict=True):
            assert_same_frames(ga, ea)
            assert_same_frames(gb, eb)

    def test_concurrent_renders_match_renders_in_turn(self):
        """Six renders consumed at once by six threads, each with its own
        noise worker, with thread switches forced often: any read of a
        scene's random stream before its pending draw returned would
        shift that scene's jitter, confidences or noise."""
        specs = [preset(name)._replace(frame_count=4, rng_seed=seed)
                 for seed, name in enumerate(sorted(PRESETS) + ["windy"])]
        expected = [list(render(spec)) for spec in specs]
        got = [None] * len(specs)

        def consume(i):
            got[i] = list(render(specs[i]))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=consume, args=(i,))
                       for i in range(len(specs))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for frames, expected_frames in zip(got, expected, strict=True):
            for g, e in zip(frames, expected_frames, strict=True):
                assert_same_frames(g, e)


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
        with pytest.raises(ParseError, match="^unknown preset 'nope'$"):
            preset("nope")

    def test_three_stacks_has_three_ids(self):
        for rf in list(render(preset("three_stacks")))[:5]:
            assert sorted(t.stack_id for t in rf.truths) == [0, 1, 2]

    def test_clean_high_rule_labels(self):
        from flaremon.features import FeatureVector, smoke_flame_ratio
        spec = preset("clean_high")._replace(frame_count=20)
        for rf in render(spec):
            t = rf.truths[0]
            ratio = smoke_flame_ratio(t.smoke_mask.area(),
                                      t.flame_mask.area())
            e = rgb_index(channel_means(rf.frame, t.flame_mask))
            angle = flame_angle(t.flame_mask)
            assert rule_label(FeatureVector(ratio, e, angle)) == "high"

    def test_smoky_low_rule_labels(self):
        from flaremon.features import FeatureVector, smoke_flame_ratio
        spec = preset("smoky_low")._replace(frame_count=20)
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

    @pytest.mark.parametrize("field, value", [
        ("width", 0), ("width", -5), ("height", 240.0), ("height", True),
        ("frame_count", 2.5), ("frame_count", True), ("frame_count", 0),
        ("noise_amplitude", -3), ("noise_amplitude", 2.5),
        ("noise_amplitude", 256), ("noise_amplitude", 40000)])
    def test_scene_spec_rejects_what_it_cannot_render(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be an int"):
            SceneSpec(**{field: value})

    @pytest.mark.parametrize("field, value", [
        ("core_color", (90, 40000, 245)), ("core_color", (-1, 110, 245)),
        ("edge_color", (130, 150, 256)), ("edge_color", (130, 150)),
        ("core_color", (90.0, float("nan"), 245)),
        ("edge_color", ("130", 150, 250)), ("gray", 40000), ("gray", -1),
        ("gray", 110.0)])
    def test_colors_outside_8_bits_rejected(self, field, value):
        """Every pixel is a colour in [0, 255] before the noise."""
        with pytest.raises(ValueError, match=f"^{field} must be "):
            if field == "gray":
                SmokeSpec(1.0, gray=value)
            else:
                FlameSpec(0, 0, 5, 5, 0, **{field: value})

    def test_colors_at_the_8_bit_limits_accepted(self):
        flame = FlameSpec(0, 0, 5, 5, 0, core_color=(0, 0.5, 255),
                          edge_color=(255, 255, 255))
        assert flame.core_color == (0, 0.5, 255)
        assert SmokeSpec(1.0, gray=0).gray == 0
