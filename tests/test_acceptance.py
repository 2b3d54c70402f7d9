"""Acceptance gate: one test per criterion, printed pass/fail lines.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
summary lines.
"""

import io
import time

import numpy as np
import pytest

from flaremon import classify, labeling, pipeline
from flaremon.classify import HIGH, LOW
from flaremon.core import DetClass
from flaremon.errors import DegenerateOrientation, UnparseableReply
from flaremon.features import (FeatureVector, channel_means, rgb_index,
                               smoke_flame_ratio)
from flaremon.ingest import read_annotation_stream, write_annotation_stream
from flaremon.labeling import LlmClientConfig, llm_label, rule_label
from flaremon.formats import (model_from_json, model_to_json,
                              parse_feature_csv)
from flaremon.pipeline import (derive_alerts_from_log, fit_efficiency_model,
                               run_monitor, run_training)
from flaremon.simulator import (FlameSpec, SceneSpec, StackSpec, preset,
                                render, rendered_stream)
from flaremon.stats import (eigen_symmetric, pca_fit, pca_project,
                            standardize_apply, standardize_fit)
from flaremon.tracker import (SortTracker, hungarian, kalman_predict,
                              kalman_update)
from tests import classify_oracle
from tests.assignment_oracle import brute_force_assignment
from tests.features_oracle import flame_angle
from tests.sort_oracle import covariance, iou, measurement_to_bbox
from tests.conftest import TRAINING_LABELS, TRAINING_ROWS, feature_log_text


def report(criterion, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


def test_criterion_1_hungarian_oracle():
    rng = np.random.default_rng(1001)
    t0 = time.time()
    for _ in range(1000):
        n, m = rng.integers(1, 7, 2)
        cost = rng.normal(scale=rng.choice([0.5, 1.0, 10.0]), size=(n, m))
        total = sum(cost[i, j] for i, j in hungarian(cost))
        oracle = brute_force_assignment(cost)
        assert abs(total - oracle) < 1e-9, (cost, total, oracle)
    elapsed = time.time() - t0
    report(1, elapsed < 5.0,
           f"1000 matrices match brute force, {elapsed:.2f}s < 5s")


def test_criterion_2_kalman_limits(monkeypatch):
    # R = 0 update reproduces the measurement
    monkeypatch.setattr("flaremon.tracker.MEASUREMENT_VAR", np.zeros(4))
    x, var, cov = np.zeros(7), np.full(7, 5.0), np.zeros(3)
    z = np.array([3.0, -1.0, 7.0, 2.0])
    x, _, _ = kalman_update(x, var, cov, z)
    assert np.allclose(x[:4], z, atol=1e-9)

    # zero-noise constant-velocity target within 1e-6 after 3 updates
    monkeypatch.setattr("flaremon.tracker.PROCESS_VAR", np.zeros(7))
    monkeypatch.setattr("flaremon.tracker.MIN_HITS", 1)
    tracker = SortTracker()
    errs = []
    from flaremon.core import BBox, Detection
    for k in range(6):
        x0 = 5.0 + 2.0 * k
        y0 = 40.0 - 1.5 * k
        det = Detection(BBox(x0, y0, x0 + 12, y0 + 20), DetClass.FLAME, 0.9)
        reported, _, _, _ = tracker.step([det])
        if k >= 3:
            m = tracker.x[tracker.id == reported[0]][0]
            errs.append(abs(m[0] - (x0 + 6)) + abs(m[1] - (y0 + 10)))
    assert max(errs) < 1e-6
    monkeypatch.undo()

    # P symmetric PSD over a 1000-step randomized run with the shipped noise
    rng = np.random.default_rng(2002)
    x = np.array([0, 0, 150.0, 1.2, 0, 0, 0])
    var, cov = np.full(7, 10.0), np.zeros(3)
    min_eig = np.inf
    for _ in range(1000):
        x, var, cov = kalman_predict(x, var, cov)
        z = x[:4] + rng.normal(scale=[2.0, 2.0, 8.0, 0.05])
        z[2] = max(z[2], 1.0)
        z[3] = max(z[3], 0.05)
        x, var, cov = kalman_update(x, var, cov, z)
        P = covariance(var, cov)
        assert np.array_equal(P, P.T)
        min_eig = min(min_eig, np.linalg.eigvalsh(P).min())
    assert min_eig >= -1e-9
    report(2, True, f"R=0 exact, CV error {max(errs):.2e}, "
           f"min eigenvalue {min_eig:.2e} >= -1e-9")


def test_criterion_3_tracking_identity():
    tracker = SortTracker()
    stack_to_track = {}
    switches = 0
    frames = 0
    for rf in render(preset("three_stacks")):
        frames += 1
        flame_dets = [d for d in rf.annotation.detections
                      if d.cls is DetClass.FLAME]
        reported, _, _, _ = tracker.step(flame_dets)
        for tid in reported:
            box = measurement_to_bbox(tracker.x[tracker.id == tid][0, :4])
            overlaps = [(iou(box, t.flame_box), t.stack_id)
                        for t in rf.truths]
            sid = max(overlaps)[1]
            if sid in stack_to_track and stack_to_track[sid] != tid:
                switches += 1
            stack_to_track.setdefault(sid, tid)
    ok = (switches == 0 and len(stack_to_track) == 3
          and len(set(stack_to_track.values())) == 3 and frames == 200)
    report(3, ok, f"200 frames, 0 switches, mapping {stack_to_track}")


def test_criterion_4_rgb_index():
    rng = np.random.default_rng(3003)
    worst = 0.0
    for _ in range(100_000):
        r, g, b = rng.uniform(0.0, 255.0, 3)
        v_yellow = (g + r) / 2.0
        s = b + v_yellow + r
        if s == 0.0:
            continue
        worst = max(worst, abs(b / s + v_yellow / s + r / s - 1.0))
        e = rgb_index((r, g, b))
        assert 0.3 - 1e-12 <= e <= 0.7 + 1e-12
    assert worst < 1e-12
    assert rgb_index((255, 255, 255)) == pytest.approx(0.5, abs=1e-15)
    assert rgb_index((0, 0, 255)) == pytest.approx(0.7, abs=1e-15)
    report(4, True, f"1e5 triples: proportions sum to 1 within {worst:.1e}, "
           "E in [0.3, 0.7], anchors exact")


def test_criterion_5_angle_recovery():
    errors = {}
    for tilt in (10.0, 20.0, 30.0, 45.0):
        spec = SceneSpec(frame_count=1, noise_amplitude=0, stacks=(
            StackSpec(FlameSpec(160, 120, major=44, minor=18,
                                tilt_deg=tilt), None, "high"),))
        rf = next(render(spec))
        got = flame_angle(rf.truths[0].flame_mask)
        errors[tilt] = abs(got - tilt)
        assert errors[tilt] <= 1.0
    circle = SceneSpec(frame_count=1, noise_amplitude=0, stacks=(
        StackSpec(FlameSpec(160, 120, major=25, minor=25, tilt_deg=0.0),
                  None, "high"),))
    with pytest.raises(DegenerateOrientation):
        flame_angle(next(render(circle)).truths[0].flame_mask)
    report(5, True, "tilt errors " + ", ".join(
        f"{t:g}deg:{e:.2f}" for t, e in errors.items())
        + "; circle degenerate")


def test_criterion_6_pca_properties():
    rng = np.random.default_rng(4004)
    worst_res = worst_trace = 0.0
    for _ in range(1000):
        A = rng.normal(size=(3, 3))
        M = (A + A.T) / 2
        vals, vecs = eigen_symmetric(M)
        for lam, vec in zip(vals, vecs):
            worst_res = max(worst_res,
                            float(np.max(np.abs(M @ vec - lam * vec))))
        worst_trace = max(worst_trace, abs(vals.sum() - np.trace(M)))
        assert np.allclose(vecs @ vecs.T, np.eye(3), atol=1e-9)
    assert worst_res < 1e-9 and worst_trace < 1e-9

    t = np.linspace(-2, 2, 25)
    line = np.outer(t, [0.5, -1.0, 2.0])
    m = pca_fit(line)
    assert m.explained_variance_fraction[0] == pytest.approx(1.0, abs=1e-9)
    report(6, True, f"residual {worst_res:.1e}, trace gap {worst_trace:.1e}, "
           "rank-1 PC1 fraction = 1")


def test_criterion_7_classifiers():
    # gradient oracles
    rng = np.random.default_rng(5005)
    X = rng.normal(size=(15, 2))
    y01 = (rng.random(15) < 0.5).astype(float)
    w, b = rng.normal(size=2), 0.2
    _, gw, gb = classify_oracle.logistic_loss_grad(w, b, X, y01)
    h = 1e-5
    worst_log = 0.0
    for i in range(2):
        wp, wm = w.copy(), w.copy()
        wp[i] += h
        wm[i] -= h
        fd = (classify_oracle.logistic_loss_grad(wp, b, X, y01)[0]
              - classify_oracle.logistic_loss_grad(wm, b, X, y01)[0]) / (2 * h)
        worst_log = max(worst_log, abs(gw[i] - fd) / max(abs(fd), 1e-12))
    assert worst_log < 1e-5

    params = classify._mlp_init(2, 6, seed=7)
    _, grads = classify_oracle.mlp_loss_grad(params, X, y01)
    worst_mlp = 0.0
    for key in params:
        flat = params[key].ravel()
        gflat = np.asarray(grads[key]).ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            lp, _ = classify_oracle.mlp_loss_grad(params, X, y01)
            flat[i] = orig - h
            lm, _ = classify_oracle.mlp_loss_grad(params, X, y01)
            flat[i] = orig
            fd = (lp - lm) / (2 * h)
            worst_mlp = max(worst_mlp,
                            abs(gflat[i] - fd) / max(abs(fd), abs(gflat[i]),
                                                     1e-12))
    assert worst_mlp < 1e-4

    # separability oracle: a single threshold on the raw ratio column
    ratios = TRAINING_ROWS[:, 0]
    separable = any(
        all((r <= thr) == (lbl == HIGH)
            for r, lbl in zip(ratios, TRAINING_LABELS))
        for thr in ratios)
    assert separable

    # all four classifiers perfect on the nine rows through standardize+PCA
    std = standardize_fit(TRAINING_ROWS)
    zs = np.array([standardize_apply(x, std) for x in TRAINING_ROWS])
    pca = pca_fit(zs)
    pcs = np.array([pca_project(z, pca) for z in zs])
    models = pipeline.train_all_classifiers(pcs, TRAINING_LABELS)
    accs = {}
    for kind, m in models.items():
        accs[kind], _ = classify.score(TRAINING_LABELS,
                                       classify.predict(m, pcs))
    assert all(a == 1.0 for a in accs.values()), accs
    report(7, True, f"grad err logistic {worst_log:.1e} mlp {worst_mlp:.1e}; "
           f"training acc {accs}")


def test_criterion_8_labeling(stub_llm, monkeypatch):
    for row, label in zip(TRAINING_ROWS, TRAINING_LABELS):
        assert rule_label(FeatureVector(*row)) == label

    monkeypatch.setattr(labeling, "TIMEOUT", 5.0)
    monkeypatch.setattr(labeling, "MAX_RETRIES", 1)
    monkeypatch.setattr(labeling, "BACKOFF_BASE", 0.0)
    cfg = LlmClientConfig(stub_llm.endpoint, "gpt-4")
    f = FeatureVector(0.22, 0.62, 52)
    stub_llm.set_script([(200, "high")])
    assert llm_label(cfg, f)[0] == HIGH
    stub_llm.set_script([(200, "It looks LOW to me.")])
    assert llm_label(cfg, f)[0] == LOW
    stub_llm.set_script([(200, "cannot tell")])
    with pytest.raises(UnparseableReply):
        llm_label(cfg, f)
    t0 = time.time()
    stub_llm.set_script([(200, "high")])
    llm_label(cfg, f)
    latency = time.time() - t0
    assert latency < labeling.TIMEOUT * (labeling.MAX_RETRIES + 1)
    report(8, True, f"9/9 published labels, stub parse ok, "
           f"latency {latency:.3f}s bounded")


def _two_regime_stream(frames=60):
    a = preset("clean_high")._replace(frame_count=frames)
    b = preset("smoky_low")._replace(frame_count=frames)
    yield from rendered_stream(render(a))
    from flaremon.ingest import FrameAnnotation
    for f, ann in rendered_stream(render(b)):
        yield (f._replace(index=f.index + frames),
               FrameAnnotation(ann.frame_index + frames, ann.detections,
                               ann.masks))


def test_criterion_9_end_to_end(tmp_path):
    model, _, _ = run_training(_two_regime_stream())
    k = 5

    clean_alerts = [a for _, a in run_monitor(
        model, rendered_stream(render(preset("clean_high"))), k, 50)
        if a is not None]
    assert clean_alerts == []

    smoky_alerts = [a for _, a in run_monitor(
        model, rendered_stream(render(preset("smoky_low"))), k, 50)
        if a is not None]
    assert smoky_alerts and smoky_alerts[0].last_frame >= k

    def full_run(log_path):
        recs, alerts = [], []
        for rec, alert in run_monitor(
                model, rendered_stream(render(preset("three_stacks"))), k,
                50):
            recs.append(rec)
            if alert is not None:
                alerts.append(alert)
        return feature_log_text(recs, log_path), alerts

    t0 = time.time()
    log_a, alerts_a = full_run(tmp_path / "a.csv")
    elapsed = time.time() - t0
    log_b, alerts_b = full_run(tmp_path / "b.csv")
    assert log_a == log_b and alerts_a == alerts_b
    assert elapsed < 10.0
    report(9, True, f"clean: 0 alerts; smoky: first at frame "
           f"{smoky_alerts[0].last_frame} >= {k}; 3-stack 200-frame run "
           f"{elapsed:.1f}s < 10s, byte-identical repeat")


def test_criterion_10_persistence(tmp_path):
    # annotation JSONL round-trip
    spec = preset("three_stacks")._replace(frame_count=10)
    anns = [rf.annotation for rf in render(spec)]
    buf = io.StringIO()
    write_annotation_stream(anns, buf)
    text = buf.getvalue()
    reread = list(read_annotation_stream(io.StringIO(text)))
    buf2 = io.StringIO()
    write_annotation_stream(reread, buf2)
    assert buf2.getvalue() == text

    # model file round-trip
    model, _ = fit_efficiency_model(TRAINING_ROWS, TRAINING_LABELS)
    blob = model_to_json(model)
    assert model_to_json(model_from_json(blob)) == blob

    # feature log suffices to re-derive alerts
    train_model, _, _ = run_training(_two_regime_stream())
    recs, alerts = [], []
    for rec, alert in run_monitor(
            train_model, rendered_stream(render(preset("smoky_low"))), 5,
            50):
        recs.append(rec)
        if alert is not None:
            alerts.append(alert)
    rederived = derive_alerts_from_log(
        parse_feature_csv(feature_log_text(recs, tmp_path / "log.csv")),
        5, 50)
    assert rederived == alerts and alerts
    report(10, True, f"annotation+model byte round-trips; "
           f"{len(alerts)} alert(s) re-derived from the log alone")
