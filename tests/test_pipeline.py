import dataclasses
import io
import itertools
import json
import logging
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flaremon import pipeline
from flaremon.classify import HIGH, LOW
from flaremon.core import BBox, DetClass, Detection, Frame, Mask
from flaremon.errors import (FlaremonError, ModelVersionError, ParseError,
                             TrainingDataError)
from flaremon.features import FeatureVector
from flaremon.ingest import FrameAnnotation
from flaremon.formats import (StatusRecord, emit_scatter_plot, load_frames,
                              load_model, model_from_json, model_to_json,
                              parse_feature_csv, save_frames, save_model,
                              save_scatter_plot)
from flaremon.pipeline import (Alert, AlertState, MonitorConfig,
                               derive_alerts_from_log,
                               extract_track_features, fit_efficiency_model,
                               run_monitor, run_training, stratified_split)
from flaremon.simulator import PRESETS, preset, render, rendered_stream
from tests import classify_oracle
from tests.file_fuzz import (feature_csvs, frame_dirs, model_texts,
                             write_frame_dir)
from tests.conftest import TRAINING_LABELS, TRAINING_ROWS, feature_log_text


def shifted(stream, offset):
    for f, a in stream:
        yield (dataclasses.replace(f, index=f.index + offset),
               FrameAnnotation(a.frame_index + offset, a.detections, a.masks))


def two_regime_stream(frames=60):
    a = dataclasses.replace(preset("clean_high"), frame_count=frames)
    b = dataclasses.replace(preset("smoky_low"), frame_count=frames)
    yield from rendered_stream(render(a))
    yield from shifted(rendered_stream(render(b)), frames)


@pytest.fixture(scope="module")
def trained():
    model, report, rows = run_training(two_regime_stream(),
                                       labeling_mode="rule")
    return model, report, rows


@pytest.fixture(scope="module")
def kind_models(trained):
    """The trained model with each of the four classifier kinds."""
    model, _, rows = trained
    fitted = pipeline.train_all_classifiers(np.array([r.pcs for r in rows]),
                                            [r.label for r in rows])
    return {kind: dataclasses.replace(model, classifier=clf)
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
        spec = dataclasses.replace(preset("clean_high"), frame_count=5)
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
        spec = dataclasses.replace(preset("clean_high"), frame_count=30)
        with pytest.raises(TrainingDataError):
            run_training(rendered_stream(render(spec)), labeling_mode="rule")

    def test_empty_stream_fails(self):
        with pytest.raises(TrainingDataError):
            run_training(iter([]), labeling_mode="rule")

    def test_stratified_split_properties(self):
        labels = [HIGH] * 7 + [LOW] * 3
        train, test = stratified_split(labels, seed=1)
        assert sorted(train + test) == list(range(10))
        assert any(labels[i] == LOW for i in train)
        assert any(labels[i] == HIGH for i in train)
        # deterministic
        assert stratified_split(labels, seed=1) == (train, test)


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
        with pytest.raises(ModelVersionError):
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
            assert np.isfinite(r.features.as_array()).all()
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
        state = AlertState(MonitorConfig(alert_window=3))
        assert state.observe(self.rec(0, LOW)) is None
        assert state.observe(self.rec(1, LOW)) is None
        assert state.observe(self.rec(2, HIGH)) is None
        assert state.observe(self.rec(3, LOW)) is None

    def test_alert_after_window(self):
        state = AlertState(MonitorConfig(alert_window=3))
        assert state.observe(self.rec(0, LOW)) is None
        assert state.observe(self.rec(1, LOW)) is None
        alert = state.observe(self.rec(2, LOW))
        assert alert == Alert(1, 0, 2, self.rec(2, LOW).features, (0.0, 0.0))

    def test_cooldown_suppresses(self):
        state = AlertState(MonitorConfig(alert_window=2, cooldown=10))
        state.observe(self.rec(0, LOW))
        assert state.observe(self.rec(1, LOW)) is not None
        for fr in range(2, 11):
            assert state.observe(self.rec(fr, LOW)) is None
        assert state.observe(self.rec(12, LOW)) is not None

    @pytest.mark.parametrize("kwargs, message", [
        ({"alert_window": 0}, "alert_window must be >= 1"),
        ({"cooldown": -1}, "cooldown must be >= 0")])
    def test_bad_config_rejected(self, kwargs, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            MonitorConfig(**kwargs)

    def test_zero_cooldown_alerts_every_window(self):
        state = AlertState(MonitorConfig(alert_window=2, cooldown=0))
        alerts = [state.observe(self.rec(fr, LOW)) for fr in range(6)]
        assert [a is not None for a in alerts] == [False, True] * 3

    def test_forget_drops_only_named_tracks(self):
        state = AlertState(MonitorConfig(alert_window=2))
        state.observe(self.rec(0, LOW, tid=1))
        state.observe(self.rec(0, LOW, tid=2))
        state.forget([1, 99])
        assert state.observe(self.rec(1, LOW, tid=2)) is not None
        assert state.observe(self.rec(1, LOW, tid=1)) is None

    def test_per_track_independent(self):
        state = AlertState(MonitorConfig(alert_window=2))
        state.observe(self.rec(0, LOW, tid=1))
        state.observe(self.rec(0, LOW, tid=2))
        a1 = state.observe(self.rec(1, LOW, tid=1))
        a2 = state.observe(self.rec(1, LOW, tid=2))
        assert a1.track_id == 1 and a2.track_id == 2


class TestMonitor:
    def test_clean_high_no_alerts(self, trained):
        model = trained[0]
        spec = dataclasses.replace(preset("clean_high"), frame_count=80)
        alerts = [a for _, a in run_monitor(model, rendered_stream(
            render(spec))) if a is not None]
        assert alerts == []

    def test_smoky_low_alerts_after_window(self, trained):
        model = trained[0]
        spec = dataclasses.replace(preset("smoky_low"), frame_count=80)
        k = 5
        alerts = [a for _, a in run_monitor(
            model, rendered_stream(render(spec)),
            MonitorConfig(alert_window=k)) if a is not None]
        assert alerts
        assert alerts[0].last_frame >= k
        assert alerts[0].last_frame - alerts[0].first_frame == k - 1

    def test_three_stacks_alerts_name_smoky_track(self, trained):
        model = trained[0]
        spec = dataclasses.replace(preset("three_stacks"), frame_count=80)
        recs = []
        alerts = []
        for rec, alert in run_monitor(model, rendered_stream(render(spec))):
            recs.append(rec)
            if alert is not None:
                alerts.append(alert)
        assert alerts
        # the middle stack (smoky) was born second -> track id 2
        assert {a.track_id for a in alerts} == {2}
        assert derive_alerts_from_log(recs) == alerts

    def test_dead_tracks_leave_no_alert_state(self, monkeypatch):
        """10,000 tracks, each reported in 3 frames and dead in the next:
        alert state holds only live tracks, and the alerts are the ones a
        replay of the log (which never forgets) derives."""
        n = 10_000
        states, alive = [], set()

        class SpyState(AlertState):
            def __init__(self, cfg):
                super().__init__(cfg)
                states.append(self)

        def short_lived(stream):
            for f in range(n + 2):
                if states:  # state after frame f-1 against its live tracks
                    held = states[0]._streak.keys() | \
                        states[0]._streak_start.keys() | \
                        states[0]._cooldown_until.keys()
                    assert held <= alive
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
        for rec, alert in run_monitor(None, iter([]),
                                      MonitorConfig(alert_window=2)):
            recs.append(rec)
            if alert is not None:
                alerts.append(alert)
        assert len(recs) == 3 * n and len(alerts) == n
        assert len(states[0]._streak) <= len(alive) == 1
        assert derive_alerts_from_log(recs,
                                      MonitorConfig(alert_window=2)) == alerts

    def test_alerts_rederivable_from_log_text(self, trained, tmp_path):
        model = trained[0]
        spec = dataclasses.replace(preset("smoky_low"), frame_count=60)
        recs, alerts = [], []
        for rec, alert in run_monitor(model, rendered_stream(render(spec))):
            recs.append(rec)
            if alert is not None:
                alerts.append(alert)
        text = feature_log_text(recs, tmp_path / "monitor.csv")
        assert derive_alerts_from_log(parse_feature_csv(text)) == alerts


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
        spec = dataclasses.replace(preset("clean_high"), frame_count=3)
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
