import gc
import io
import itertools
import json
import logging
import sys
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flaremon import pipeline
from flaremon.classify import HIGH, LOW
from flaremon.core import BBox, DetClass, Detection, Frame, Mask
from flaremon.errors import (DecodeError, FlaremonError, ParseError,
                             TrainingDataError)
from flaremon.features import FeatureVector
from flaremon.ingest import FrameAnnotation
from flaremon.formats import (StatusRecord, emit_scatter_plot, load_frames,
                              load_model, model_from_json, model_to_json,
                              parse_feature_csv, save_frames, save_model,
                              save_scatter_plot)
from flaremon.pipeline import (Alert, AlertState, derive_alerts_from_log,
                               extract_track_features, fit_efficiency_model,
                               run_monitor, run_training, stratified_split)
from flaremon.simulator import PRESETS, preset, render, rendered_stream
from flaremon.tracker import MAX_AGE, SortTracker
from tests import classify_oracle
from tests.file_fuzz import (feature_csvs, frame_dirs, model_texts,
                             write_frame_dir)
from tests.conftest import TRAINING_LABELS, TRAINING_ROWS, feature_log_text


def shifted(stream, offset):
    for f, a in stream:
        yield (f._replace(index=f.index + offset),
               FrameAnnotation(a.frame_index + offset, a.detections, a.masks))


@st.composite
def class_labels(draw):
    """A label list of 2-3 classes with 1-50 members each, in any order."""
    counts = draw(st.lists(st.integers(1, 50), min_size=2, max_size=3))
    return draw(st.permutations([f"class{k}" for k, n in enumerate(counts)
                                 for _ in range(n)]))


def two_regime_stream(frames=60):
    a = preset("clean_high")._replace(frame_count=frames)
    b = preset("smoky_low")._replace(frame_count=frames)
    yield from rendered_stream(render(a))
    yield from shifted(rendered_stream(render(b)), frames)


@pytest.fixture(scope="module")
def trained():
    model, report, rows = run_training(two_regime_stream())
    return model, report, rows


@pytest.fixture(scope="module")
def kind_models(trained):
    """The trained model with each of the four classifier kinds."""
    model, _, rows = trained
    fitted = pipeline.train_all_classifiers(np.array([r.pcs for r in rows]),
                                            [r.label for r in rows])
    return {kind: model._replace(classifier=clf)
            for kind, clf in fitted.items()}


def warnings_of(caplog):
    return [r.getMessage() for r in caplog.records
            if r.levelno == logging.WARNING]


class TestSmokeAttributionLogging:
    def box_region(self, x0, y0, x1, y1, cls):
        arr = np.zeros((40, 40), dtype=bool)
        arr[y0:y1, x0:x1] = True
        return (Detection(BBox(x0, y0, x1, y1), cls, 0.9),
                Mask.from_array(arr))

    def test_track_warm_up_is_not_a_warning(self, caplog):
        spec = preset("clean_high")._replace(frame_count=5)
        with caplog.at_level(logging.DEBUG, logger="flaremon.pipeline"):
            list(extract_track_features(rendered_stream(render(spec))))
        assert warnings_of(caplog) == []
        assert any("unreported flames" in r.getMessage()
                   for r in caplog.records)

    def test_smoke_with_no_flame_below_warns_once(self, caplog):
        regions = [
            self.box_region(10, 20, 16, 34, DetClass.FLAME),
            self.box_region(8, 4, 18, 16, DetClass.SMOKE),  # above the flame
            self.box_region(24, 30, 34, 38, DetClass.SMOKE),  # nothing below
        ]
        ann = FrameAnnotation(0, tuple(d for d, _ in regions),
                              tuple((i, m) for i, (_, m) in
                                    enumerate(regions)))
        frame = Frame(0, 0.0, 40, 40, np.zeros((40, 40, 3), dtype=np.uint8))
        with caplog.at_level(logging.DEBUG, logger="flaremon.pipeline"):
            list(extract_track_features([(frame, ann)]))
        assert warnings_of(caplog) == [
            "frame 0: 1 unassignable smoke region(s)"]


def held_back(stream, det, until):
    """The stream without detection `det` (and its mask) before frame
    `until`, as if the detector had missed that flame."""
    for frame, ann in stream:
        if ann.frame_index < until:
            kept = ann.detections[:det] + ann.detections[det + 1:]
            ann = FrameAnnotation(ann.frame_index, kept, tuple(
                (i - (i > det), m) for i, m in ann.masks if i != det))
        yield frame, ann


class TestSmokeOwnership:
    def test_warming_up_flame_keeps_its_smoke(self, caplog):
        """three_stacks with the right flame (detection 2) first detected at
        frame 10: its track is born then and first reported at frame 12.
        Its smoke lies over the middle flame too, yet in frames 10 and 11
        it counts for no flame, so the middle track's ratio is the one it
        has once its neighbour is reported."""
        spec = preset("three_stacks")._replace(frame_count=14)
        ratios = {}
        with caplog.at_level(logging.DEBUG, logger="flaremon.pipeline"):
            for recs, _ in extract_track_features(
                    held_back(rendered_stream(render(spec)), 2, 10)):
                ratios.update(((r.frame, r.track_id),
                               r.features.smoke_flame_ratio) for r in recs)
        assert (11, 3) not in ratios and (12, 3) in ratios
        assert ratios[10, 2] == ratios[11, 2] == ratios[12, 2]
        # Before frame 10 no flame lies below that smoke but the middle one.
        assert ratios[9, 2] > ratios[12, 2]
        assert [r.getMessage().split(":")[0] for r in caplog.records
                if "unreported flames" in r.getMessage()] == [
            "frame 0", "frame 1", "frame 10", "frame 11"]


class TestMaskSize:
    @staticmethod
    def stream(masks):
        """Two 60x40 frames with two flames, detections 0 and 1, and these
        (detection, mask) records; no track reports in two frames."""
        dets = (Detection(BBox(10, 10, 20, 20), DetClass.FLAME, 0.9),
                Detection(BBox(40, 10, 50, 20), DetClass.FLAME, 0.9))
        pixels = np.zeros((40, 60, 3), dtype=np.uint8)
        return iter([(Frame(f, f / 30, 60, 40, pixels),
                      FrameAnnotation(f, dets, masks)) for f in range(2)])

    @staticmethod
    def mask(width):
        arr = np.zeros((40, width), dtype=bool)
        arr[10:20, 10:20] = True
        return Mask.from_array(arr)

    def test_mask_of_unreported_flame_is_checked(self):
        # The flame's track is still warming up, so no record reads its
        # mask; the mask is checked against its frame all the same.
        with pytest.raises(DecodeError, match="^frame 0 detection 0: mask is "
                           "70x40, frame is 60x40$"):
            list(extract_track_features(self.stream(((0, self.mask(70)),))))

    def test_first_wrong_mask_in_record_order_is_named(self):
        masks = ((1, self.mask(50)), (0, self.mask(70)))
        with pytest.raises(DecodeError, match="^frame 0 detection 1: mask is "
                           "50x40, frame is 60x40$"):
            list(extract_track_features(self.stream(masks)))

    def test_masks_of_the_frame_size_pass(self):
        masks = ((0, self.mask(60)), (1, self.mask(60)))
        assert [recs for recs, _ in extract_track_features(
            self.stream(masks))] == [[], []]


class TestTraining:
    def test_table_rows_all_classifiers_perfect(self):
        model, report = fit_efficiency_model(TRAINING_ROWS, TRAINING_LABELS)
        # evaluate on the full nine rows through the fitted transform
        pcs, _ = pipeline.classify_features(model, TRAINING_ROWS)
        from flaremon import classify
        models = pipeline.train_all_classifiers(pcs, TRAINING_LABELS)
        for kind, m in models.items():
            acc, _ = classify.score(TRAINING_LABELS, classify.predict(m, pcs))
            assert acc == 1.0, kind

    def test_two_regime_training_separates(self, trained):
        model, report, rows = trained
        assert report["accuracies"][report["selected"]] == 1.0
        assert {r.label for r in rows} == {HIGH, LOW}

    def test_single_regime_fails(self):
        spec = preset("clean_high")._replace(frame_count=30)
        with pytest.raises(TrainingDataError):
            run_training(rendered_stream(render(spec)))

    def test_empty_stream_fails(self):
        with pytest.raises(TrainingDataError):
            run_training(iter([]))

    @settings(max_examples=200, deadline=None)
    @given(class_labels(), st.integers(min_value=0))
    def test_stratified_split_properties(self, labels, seed):
        train, test = stratified_split(labels, seed=seed)
        assert sorted(train + test) == list(range(len(labels)))
        # every class keeps a training sample, so fit_efficiency_model's
        # two classes reach the classifiers
        assert {labels[i] for i in train} == set(labels)
        assert stratified_split(labels, seed=seed) == (train, test)


class TestClassifyFeatures:
    """One call on a (k, 3) array against the per-record oracle."""

    def assert_matches_oracle(self, models, vectors):
        X = pipeline.feature_matrix(vectors)
        for kind, model in models.items():
            pcs, labels = pipeline.classify_features(model, X)
            expect = [classify_oracle.classify_features(model, v)
                      for v in vectors]
            assert pcs.shape == (len(vectors), 2)
            assert [tuple(pc) for pc in pcs.tolist()] == \
                [pc for pc, _ in expect], kind
            assert labels == [label for _, label in expect], kind

    def test_every_frame_of_each_preset(self, kind_models):
        frames = 0
        for name in PRESETS:
            head = itertools.islice(render(preset(name)), 40)
            for per_frame, _ in extract_track_features(rendered_stream(head)):
                self.assert_matches_oracle(
                    kind_models, [tf.features for tf in per_frame])
                frames += 1
        assert frames == 40 * len(PRESETS)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.floats(-5, 20), st.floats(0, 1),
                              st.floats(0, 90)), max_size=12))
    def test_drawn_feature_arrays(self, kind_models, rows):
        self.assert_matches_oracle(kind_models,
                                   [FeatureVector(*row) for row in rows])


class TestModelPersistence:
    def test_roundtrip_byte_identical(self, trained, tmp_path):
        model = trained[0]
        path = tmp_path / "model.json"
        save_model(model, path)
        text = path.read_text()
        reloaded = load_model(path)
        assert model_to_json(reloaded) == text

    def test_roundtrip_predictions_identical(self, trained):
        model = trained[0]
        reloaded = model_from_json(model_to_json(model))
        X = np.random.default_rng(0).uniform([0, 0.1, 0], [3, 0.7, 90],
                                              size=(100, 3))
        pcs, labels = pipeline.classify_features(model, X)
        pcs_reloaded, labels_reloaded = pipeline.classify_features(reloaded,
                                                                   X)
        assert (pcs == pcs_reloaded).all() and labels == labels_reloaded

    def test_truncated_file(self, trained):
        text = model_to_json(trained[0])
        with pytest.raises(ParseError):
            model_from_json(text[:len(text) // 2])

    def test_version_mismatch(self, trained):
        text = model_to_json(trained[0]).replace(
            '"schema_version":1', '"schema_version":2')
        with pytest.raises(ParseError,
                           match="^schema version 2, reader supports 1$"):
            model_from_json(text)

    @pytest.mark.parametrize("section,key,value,field", [
        ("pca", "components", [[1.0, 2.0]], "pca.components"),
        ("pca", "eigenvalues", [1.0, 2.0, 3.0], "pca.eigenvalues"),
        ("pca", "explained_variance_fraction", 0.5,
         "pca.explained_variance_fraction"),
        ("standardization", "means", [0.0, 0.0], "standardization.means"),
        ("standardization", "stds", [[1.0, 1.0, 1.0]],
         "standardization.stds"),
        ("standardization", "means", [0.0, float("nan"), 0.0],
         "standardization.means"),
        ("pca", "eigenvalues", [float("inf"), 1.0], "pca.eigenvalues"),
        ("standardization", "stds", [1.0, 0.0, 1.0], "standardization.stds"),
        ("classifier", "kind", "forest", "classifier.kind"),
    ])
    def test_invalid_fields_name_themselves(self, trained, section, key,
                                            value, field):
        obj = json.loads(model_to_json(trained[0]))
        obj[section][key] = value
        with pytest.raises(ParseError, match=field.replace(".", r"\.")):
            model_from_json(json.dumps(obj))

    def test_every_classifier_kind_roundtrips(self, kind_models):
        for model in kind_models.values():
            text = model_to_json(model)
            assert model_to_json(model_from_json(text)) == text

    @pytest.mark.parametrize("kind,spoil,field", [
        ("logistic", lambda p: p.update(weights=[1.0, 2.0, 3.0]), "weights"),
        ("logistic", lambda p: p.pop("weights"), "weights"),
        ("svm", lambda p: p.update(bias=float("nan")), "bias"),
        ("svm", lambda p: p.update(bias="0.5"), "bias"),
        ("knn", lambda p: p.update(samples=[[0.0, 1.0, 2.0]]), "samples"),
        ("knn", lambda p: p["labels"].pop(), "labels"),
        ("knn", lambda p: p["labels"].__setitem__(0, "medium"), "labels"),
        ("knn", lambda p: p.update(k=2), "k"),
        ("knn", lambda p: p.update(k=3.0), "k"),
        ("knn", lambda p: p.update(k=-1), "k"),
        ("knn", lambda p: p.update(k=len(p["samples"]) + 2), "k"),
        ("mlp", lambda p: p.update(W1=p["W1"][:1]), "W1"),
        ("mlp", lambda p: p.update(W2=[[v[0] for v in p["W2"]]]), "W2"),
        ("mlp", lambda p: p.update(b1=p["b1"][:-1]), "W1"),
        ("mlp", lambda p: p.update(b2=[0.0, 0.0]), "b2"),
        ("mlp", lambda p: p["b1"].__setitem__(0, float("inf")), "b1"),
    ])
    def test_invalid_classifier_parameters_name_themselves(
            self, kind_models, kind, spoil, field):
        obj = json.loads(model_to_json(kind_models[kind]))
        spoil(obj["classifier"]["parameters"])
        with pytest.raises(ParseError,
                           match=rf"classifier\.parameters\.{field}\b"):
            model_from_json(json.dumps(obj))


    @settings(max_examples=400, deadline=None)
    @given(model_texts())
    def test_fuzzed_model_files_load_or_raise_flaremon_error(self, text):
        try:
            model = model_from_json(text)
        except FlaremonError:
            return
        obj = json.loads(text)
        assert type(obj["classifier"]["parameter_count"]) is int
        pcs, labels = pipeline.classify_features(model, TRAINING_ROWS)
        assert pcs.shape == (9, 2) and set(labels) <= {HIGH, LOW}


class TestFeatureLog:
    def rows(self):
        return [
            StatusRecord(0, 1, FeatureVector(0.5, 0.45, 12.25),
                         (0.125, -1.5), HIGH),
            StatusRecord(1, 1, FeatureVector(1 / 3, 0.62, 52.0),
                         (-1.89, 0.21), LOW),
        ]

    def test_roundtrip(self, tmp_path):
        text = feature_log_text(self.rows(), tmp_path / "a.csv")
        assert parse_feature_csv(text) == self.rows()
        assert feature_log_text(parse_feature_csv(text),
                                tmp_path / "b.csv") == text

    def test_header_required(self, tmp_path):
        # Bare CSV rows carry no pcs, so only a feature log can be plotted.
        rows = parse_feature_csv("ratio,E,angle,label\n0.5,0.45,12.25,high\n")
        with pytest.raises(ParseError, match="^missing feature-log header$"):
            save_scatter_plot(rows, tmp_path / "fig.svg")
        assert not (tmp_path / "fig.svg").exists()

    def test_bad_column_count(self, tmp_path):
        text = feature_log_text(self.rows(), tmp_path / "a.csv") + "1,2,3\n"
        with pytest.raises(ParseError):
            parse_feature_csv(text)


    @settings(max_examples=300, deadline=None)
    @given(feature_csvs())
    def test_fuzzed_logs_parse_or_raise_flaremon_error(self, text):
        try:
            rows = parse_feature_csv(text)
        except FlaremonError:
            return
        for r in rows:
            assert np.isfinite(r.features).all()
            if r.pcs is None:  # a bare ratio,E,angle[,label] row
                assert (r.frame, r.track_id) == (None, None)
                assert r.label in (HIGH, LOW, None)
            else:
                assert np.isfinite(r.pcs).all() and r.label in (HIGH, LOW)


class TestAlerts:
    def rec(self, frame, label, tid=1):
        return StatusRecord(frame, tid, FeatureVector(1, 0.4, 10),
                            (0.0, 0.0), label)

    def test_streak_shorter_than_window_no_alert(self):
        state = AlertState(3, 50)
        assert state.observe(self.rec(0, LOW)) is None
        assert state.observe(self.rec(1, LOW)) is None
        assert state.observe(self.rec(2, HIGH)) is None
        assert state.observe(self.rec(3, LOW)) is None

    def test_alert_after_window(self):
        state = AlertState(3, 50)
        assert state.observe(self.rec(0, LOW)) is None
        assert state.observe(self.rec(1, LOW)) is None
        alert = state.observe(self.rec(2, LOW))
        assert alert == Alert(1, 0, 2, self.rec(2, LOW).features, (0.0, 0.0))

    def test_cooldown_suppresses(self):
        state = AlertState(2, 10)
        state.observe(self.rec(0, LOW))
        assert state.observe(self.rec(1, LOW)) is not None
        for fr in range(2, 11):
            assert state.observe(self.rec(fr, LOW)) is None
        assert state.observe(self.rec(12, LOW)) is not None

    @pytest.mark.parametrize("settings, message", [
        ((0, 50), "alert_window must be >= 1"),
        ((5, -1), "cooldown must be >= 0")])
    def test_bad_settings_rejected(self, settings, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            AlertState(*settings)

    def test_zero_cooldown_alerts_every_window(self):
        state = AlertState(2, 0)
        alerts = [state.observe(self.rec(fr, LOW)) for fr in range(6)]
        assert [a is not None for a in alerts] == [False, True] * 3

    def test_forget_drops_only_named_tracks(self):
        state = AlertState(2, 50)
        state.observe(self.rec(0, LOW, tid=1))
        state.observe(self.rec(0, LOW, tid=2))
        state.forget([1, 99])
        assert state.observe(self.rec(1, LOW, tid=2)) is not None
        assert state.observe(self.rec(1, LOW, tid=1)) is None

    def test_per_track_independent(self):
        state = AlertState(2, 50)
        state.observe(self.rec(0, LOW, tid=1))
        state.observe(self.rec(0, LOW, tid=2))
        a1 = state.observe(self.rec(1, LOW, tid=1))
        a2 = state.observe(self.rec(1, LOW, tid=2))
        assert a1.track_id == 1 and a2.track_id == 2


class TestMonitor:
    def test_clean_high_no_alerts(self, trained):
        model = trained[0]
        spec = preset("clean_high")._replace(frame_count=80)
        alerts = [a for _, a in run_monitor(model, rendered_stream(
            render(spec)), 5, 50) if a is not None]
        assert alerts == []

    def test_smoky_low_alerts_after_window(self, trained):
        model = trained[0]
        spec = preset("smoky_low")._replace(frame_count=80)
        k = 5
        alerts = [a for _, a in run_monitor(
            model, rendered_stream(render(spec)), k, 50) if a is not None]
        assert alerts
        assert alerts[0].last_frame >= k
        assert alerts[0].last_frame - alerts[0].first_frame == k - 1

    def test_three_stacks_alerts_name_smoky_track(self, trained):
        model = trained[0]
        spec = preset("three_stacks")._replace(frame_count=80)
        recs = []
        alerts = []
        for rec, alert in run_monitor(model, rendered_stream(render(spec)),
                                      5, 50):
            recs.append(rec)
            if alert is not None:
                alerts.append(alert)
        assert alerts
        # the middle stack (smoky) was born second -> track id 2
        assert {a.track_id for a in alerts} == {2}
        assert derive_alerts_from_log(recs, 5, 50) == alerts

    def test_dead_tracks_leave_no_alert_state(self, monkeypatch):
        """10,000 tracks, each reported in 3 frames and dead in the next:
        alert state holds only live tracks, and the alerts are the ones a
        replay of the log (which never forgets) derives."""
        n = 10_000
        states, alive = [], set()

        class SpyState(AlertState):
            def __init__(self, alert_window, cooldown):
                super().__init__(alert_window, cooldown)
                states.append(self)

        def short_lived(stream):
            for f in range(n + 2):
                if states:  # state after frame f-1 against its live tracks
                    assert states[0]._tracks.keys() <= alive
                # frame f reports tracks f-1..f+1; track f-2 dies
                live = range(max(1, f - 1), min(n, f + 1) + 1)
                alive.difference_update([f - 2])
                alive.update(live)
                yield ([StatusRecord(f, t, FeatureVector(1, 0.4, 9), None, None)
                        for t in live],
                       [f - 2] if 1 <= f - 2 <= n else [])

        monkeypatch.setattr(pipeline, "AlertState", SpyState)
        monkeypatch.setattr(pipeline, "extract_track_features", short_lived)
        monkeypatch.setattr(pipeline, "classify_features",
                            lambda model, X: (np.zeros((len(X), 2)),
                                              [LOW] * len(X)))
        recs, alerts = [], []
        for rec, alert in run_monitor(None, iter([]), 2, 50):
            recs.append(rec)
            if alert is not None:
                alerts.append(alert)
        assert len(recs) == 3 * n and len(alerts) == n
        assert len(states[0]._tracks) <= len(alive) == 1
        assert derive_alerts_from_log(recs, 2, 50) == alerts

    # Flames in SLOTS columns of a small frame, each shown for LIFE frames
    # and then hidden for GAP > MAX_AGE frames, so that its track dies; the
    # columns are out of phase, so that tracks are born and die throughout.
    SLOTS, LIFE, GAP = 6, 4, 6
    WIDTH, HEIGHT = 12 * SLOTS, 20

    @staticmethod
    def settle():
        """Empty what CPython keeps between calls that tracemalloc counts.
        The method cache holds a reference to the name each attribute was
        looked up by; numpy looks some up by a fresh string on every call,
        so copies of one name fill its 4,096 slots over a long run.  A
        full collection empties the free lists, whose slowly filling
        tuples would count too."""
        sys._clear_type_cache()
        gc.collect()

    def turnover_stream(self, frames, settle_every=None):
        """`frames` (Frame, FrameAnnotation) pairs of masked flames, which
        never skip a record; with `settle_every`, `settle` runs every that
        many frames."""
        assert self.GAP > MAX_AGE
        w, h = self.WIDTH, self.HEIGHT
        pixels = np.full((h, w, 3), (200, 120, 40), dtype=np.uint8)
        flames = [(Detection(BBox(x, 10, x + 3, 18), DetClass.FLAME, 0.9),
                   Mask.from_array(np.ones((8, 3)), (x, 10), (w, h)))
                  for x in range(2, w, 12)]
        for f in range(frames):
            if settle_every and f % settle_every == 0:
                self.settle()
            shown = [flame for k, flame in enumerate(flames)
                     if (f + 3 * k) % (self.LIFE + self.GAP) < self.LIFE]
            yield (Frame(f, f / 30, w, h, pixels),
                   FrameAnnotation(f, tuple(d for d, _ in shown),
                                   tuple(enumerate(m for _, m in shown))))

    def test_tracker_and_alert_state_hold_only_live_tracks(self,
                                                           monkeypatch):
        """After every frame of a real monitor run, the tracker's arrays
        hold exactly the tracks born and not yet dead, and the alert state
        holds none but those."""
        trackers, states, live, slots = [], [], set(), self.SLOTS
        counts = {"died": 0, "alert states": 0}

        class SpyTracker(SortTracker):
            def __init__(self):
                super().__init__()
                trackers.append(self)

            def step(self, detections):
                out = super().step(detections)
                _, _, births, deaths = out
                live.update(births)
                live.difference_update(deaths)
                counts["died"] += len(deaths)
                assert sorted(self.id.tolist()) == sorted(live)
                assert {len(a) for a in (self.x, self.var, self.cov,
                                         self.hits,
                                         self.time_since_update)} == {
                    len(live)}
                assert len(live) <= slots
                return out

        class SpyState(AlertState):
            def __init__(self, alert_window, cooldown):
                super().__init__(alert_window, cooldown)
                states.append(self)

        def checked(stream):
            for pair in stream:
                if states:  # the state after the last frame, deaths gone
                    assert states[0]._tracks.keys() <= live
                    counts["alert states"] += len(states[0]._tracks)
                yield pair

        monkeypatch.setattr(pipeline, "SortTracker", SpyTracker)
        monkeypatch.setattr(pipeline, "AlertState", SpyState)
        model = fit_efficiency_model(TRAINING_ROWS, TRAINING_LABELS)[0]
        frames = 1_500
        recs = list(run_monitor(model, checked(self.turnover_stream(frames)),
                                5, 50))
        assert len(trackers) == len(states) == 1
        assert recs and counts["alert states"] > 0
        assert counts["died"] >= frames * self.SLOTS // (
            self.LIFE + self.GAP) - self.SLOTS

    def test_memory_is_bounded(self):
        """The tracemalloc peak of a monitor run over 10 * N frames is at
        most 1.2 times its peak over N frames; it read 1.00-1.03 times.
        Had the alert state kept dead tracks, the ratio read 2.7; had the
        tracker kept a list of dead track ids, 1.41.  Without `settle` it
        read 1.06-1.21, as the method cache filled with name copies."""
        model = fit_efficiency_model(TRAINING_ROWS, TRAINING_LABELS)[0]
        n = 150
        for _ in run_monitor(model, self.turnover_stream(n), 5, 50):
            pass  # warm-up: first-call allocations are not the stream's
        peaks = []
        gc.freeze()  # so that each collection walks only the run's objects
        try:
            for frames in (n, 10 * n):
                self.settle()  # both runs start from the same state
                tracemalloc.start()
                try:
                    for _ in run_monitor(
                            model, self.turnover_stream(frames, 50), 5, 50):
                        pass
                    peaks.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
        finally:
            gc.unfreeze()
        assert peaks[1] <= 1.2 * peaks[0], peaks

    def test_alerts_rederivable_from_log_text(self, trained, tmp_path):
        model = trained[0]
        spec = preset("smoky_low")._replace(frame_count=60)
        recs, alerts = [], []
        for rec, alert in run_monitor(model, rendered_stream(render(spec)),
                                      5, 50):
            recs.append(rec)
            if alert is not None:
                alerts.append(alert)
        text = feature_log_text(recs, tmp_path / "monitor.csv")
        assert derive_alerts_from_log(parse_feature_csv(text),
                                      5, 50) == alerts


class TestScatterPlot:
    def samples(self):
        return [(-1.89, 0.21, HIGH), (-1.43, -0.22, HIGH), (-0.11, -0.85, HIGH),
                (-0.07, -0.45, LOW), (-2.10, 1.04, HIGH), (0.10, -0.23, LOW),
                (0.74, -0.48, LOW), (1.89, 0.30, LOW), (2.88, 0.68, LOW)]

    def test_nine_markers(self):
        svg = emit_scatter_plot(self.samples())
        assert svg.count('class="marker') == 9

    def test_single_sample(self):
        svg = emit_scatter_plot([(0.0, 0.0, HIGH)])
        assert svg.count('class="marker') == 1
        assert svg.startswith("<svg")

    def test_deterministic(self):
        assert emit_scatter_plot(self.samples()) == emit_scatter_plot(
            self.samples())

    def test_legend_and_axes(self):
        svg = emit_scatter_plot(self.samples())
        assert ">PC1<" in svg and ">PC2<" in svg
        assert ">high<" in svg and ">low<" in svg


class TestFrameFiles:
    def test_roundtrip(self, tmp_path):
        spec = preset("clean_high")._replace(frame_count=3)
        frames = [rf.frame for rf in render(spec)]
        save_frames(frames, tmp_path / "frames")
        loaded = list(load_frames(tmp_path / "frames"))
        assert len(loaded) == 3
        for a, b in zip(frames, loaded):
            assert np.array_equal(a.pixels, b.pixels)
            assert a.index == b.index

    @settings(max_examples=300, deadline=None)
    @given(frame_dirs())
    def test_fuzzed_frame_dirs_load_or_raise(self, case):
        meta_text, sizes = case
        with tempfile.TemporaryDirectory() as tmp:
            write_frame_dir(tmp, meta_text, sizes, bytes(range(144)))
            try:
                frames = list(load_frames(tmp))
            except (FlaremonError, OSError):
                return
        meta = json.loads(meta_text)
        assert [f.index for f in frames] == list(range(meta["frame_count"]))
        assert all(f.pixels.shape == (meta["height"], meta["width"], 3)
                   for f in frames)
        size = meta["width"] * meta["height"] * 3
        assert sizes[:len(frames)] == [size] * len(frames)
