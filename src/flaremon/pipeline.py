"""End-to-end orchestration: ingest -> track -> segment -> features ->
train/monitor -> alerts.  Every file format lives in `flaremon.formats`."""

from __future__ import annotations

import datetime
import logging
from typing import (Dict, Iterable, Iterator, List, NamedTuple, Optional,
                    Sequence, Tuple)

import numpy as np

from . import classify, formats
from .classify import LOW, ClassifierModel
from .core import DetClass, Frame, foreground_indices
from .errors import (DecodeError, DegenerateOrientation, EmptyRegion,
                     InsufficientSignal, TrainingDataError)
from .features import (N_FEATURES, FeatureVector, angle_from_moments,
                       associate_smoke, flame_moments, rgb_index,
                       smoke_flame_ratio)
from .formats import EfficiencyModel, StatusRecord
from .ingest import FrameAnnotation
from .stats import pca_fit, pca_project, standardize_apply, standardize_fit
from .tracker import SortTracker

log = logging.getLogger(__name__)

FEATURE_SCHEMA_VERSION = 1
TEST_FRACTION = 0.3  # share of each class held out to pick the classifier

# perfbench calls and traces these five as pipeline.*; formats holds them.
load_frames, save_frames = formats.load_frames, formats.save_frames
format_ground_truth = formats.format_ground_truth
load_model, model_to_json = formats.load_model, formats.model_to_json


class Alert(NamedTuple):
    track_id: int
    first_frame: int
    last_frame: int
    features: FeatureVector
    pcs: Tuple[float, float]


# ---------------------------------------------------------------------------
# feature extraction


def extract_track_features(
    stream: Iterable[Tuple[Frame, FrameAnnotation]],
) -> Iterator[Tuple[List[StatusRecord], List[int]]]:
    """Per frame, the records, without pcs or label, of every reported
    flame track, and the ids of the tracks that died in that frame.

    External masks are preferred; box-only detections fall back to the
    region-grow segmenter.  Tracks whose features cannot be computed this
    frame (degenerate orientation, empty region, box-only detection centred
    off the frame) are skipped with a log line, not fatal; an off-frame
    box-only smoke detection is left out of smoke attribution the same way.
    Any mask whose size differs from its frame raises DecodeError.  Smoke
    counts for the nearest flame detection at or below it, reported or not
    (features.associate_smoke), so smoke over a warming-up flame counts for
    no flame.
    """
    tracker = SortTracker()
    for frame, ann in stream:
        for i, mask in ann.masks or ():  # in record order
            if (mask.width, mask.height) != (frame.width, frame.height):
                raise DecodeError(f"frame {ann.frame_index} detection {i}: "
                                  f"mask is {mask.width}x{mask.height}, "
                                  f"frame is {frame.width}x{frame.height}")
        flame_idx = [i for i, d in enumerate(ann.detections)
                     if d.cls is DetClass.FLAME]
        reported, matches, _, deaths = tracker.step(
            [ann.detections[i] for i in flame_idx])
        det_of_track = {t: flame_idx[j] for t, j in matches}
        matched = [(t, det_of_track[t]) for t in reported if t in det_of_track]
        # Flames in reported order, then smokes (track None) in detection
        # order: the order of the off-frame seed warnings.
        regions = matched + [(None, i) for i, d in enumerate(ann.detections)
                             if d.cls is DetClass.SMOKE]
        external = dict(ann.masks or ())
        # The box-only regions, flames first so that they get pixels: one
        # segment_frame call per frame, and none when every mask came in.
        grow = [(t, i) for t, i in regions if i not in external]
        grown = {}
        if grow:  # so that a masked stream never loads the segmenter
            from .segment import seed_pixel, segment_frame
            grown = dict(zip([i for _, i in grow], segment_frame(
                frame, [ann.detections[i].bbox for _, i in grow],
                sum(t is not None for t, _ in grow))))
        flames = []  # (track id, detection index)
        smoke_regions = []
        for track_id, i in regions:
            box = ann.detections[i].bbox
            if i in grown and grown[i] is None:
                what = (f"smoke detection {i}" if track_id is None
                        else f"track {track_id}")
                log.warning("frame %d %s skipped: seed %s outside %dx%d",
                            ann.frame_index, what, seed_pixel(box),
                            frame.width, frame.height)
                continue
            if track_id is None:
                smoke_regions.append(
                    (box, grown[i] if i in grown else external[i].area()))
            else:
                flames.append((track_id, i))
        masked = [i for _, i in flames if i not in grown]
        if masked:  # their pixels, decoded in one call, join the grown
            idx, counts = foreground_indices([external[i] for i in masked])
            grown.update((i, idx[end - n:end]) for i, end, n in zip(
                masked, np.cumsum(counts).tolist(), counts.tolist()))

        smoke, orphans = associate_smoke(  # pixels per flame detection
            {i: ann.detections[i].bbox for i in flame_idx}, smoke_regions)
        if orphans:
            log.warning("frame %d: %d unassignable smoke region(s)",
                        ann.frame_index, orphans)
        unreported = set(flame_idx).difference(i for _, i in matched)
        warming_up = sum(smoke[i] for i in unreported)
        if warming_up:
            log.debug("frame %d: %d smoke pixel(s) over unreported flames",
                      ann.frame_index, warming_up)

        counts, means, moments = flame_moments(
            frame, [grown[i] for _, i in flames])
        out: List[StatusRecord] = []
        for (track_id, i), n, rgb, mu in zip(flames, counts.tolist(),
                                             means.tolist(), moments.tolist()):
            try:
                # An empty mask fails here, so its NaN means go unread.
                ratio = smoke_flame_ratio(smoke[i], n)
                index = rgb_index(rgb)
                angle = angle_from_moments(n, *mu)
            except (DegenerateOrientation, EmptyRegion,
                    InsufficientSignal) as exc:
                log.warning("frame %d track %d skipped: %s",
                            ann.frame_index, track_id, exc)
                continue
            out.append(StatusRecord(ann.frame_index, track_id,
                                    FeatureVector(ratio, index, angle),
                                    None, None))
        yield out, deaths


# ---------------------------------------------------------------------------
# training


def stratified_split(labels: Sequence[str], seed: int = 0):
    """Seeded stratified index split; every class keeps at least one
    training sample, and the test set is non-empty when n allows."""
    rng = np.random.default_rng(seed)
    train_idx: List[int] = []
    test_idx: List[int] = []
    for cls in sorted(set(labels)):
        members = [i for i, lbl in enumerate(labels) if lbl == cls]
        perm = rng.permutation(len(members))
        n_test = int(round(TEST_FRACTION * len(members)))
        n_test = min(n_test, len(members) - 1)
        chosen = {members[perm[i]] for i in range(n_test)}
        for i in members:
            (test_idx if i in chosen else train_idx).append(i)
    return sorted(train_idx), sorted(test_idx)


def train_all_classifiers(pcs, labels, seed: int = 0):
    """Fit the four classifiers on (PC1, PC2) data."""
    return {
        "logistic": classify.train_logistic(pcs, labels),
        "svm": classify.train_svm(pcs, labels),
        "knn": classify.train_knn(pcs, labels),
        "mlp": classify.train_mlp(pcs, labels, seed=seed),
    }


def select_classifier(models: Dict[str, ClassifierModel], accuracies):
    """Highest accuracy wins; ties go to the fewest parameters, then to a
    fixed kind order."""
    ranked = sorted(
        models.values(),
        key=lambda m: (-accuracies[m.kind], m.parameter_count,
                       classify.KINDS.index(m.kind)),
    )
    return ranked[0]


def fit_efficiency_model(features, labels, seed: int = 0):
    """Standardize -> PCA -> train all four classifiers -> pick the best.

    Returns (model, report) where report maps classifier kind to held-out
    accuracy and lists the split sizes.
    """
    features = np.asarray(features, dtype=float)
    labels = list(labels)
    if features.shape[0] < 3:
        raise TrainingDataError("need at least 3 labeled samples")
    if len(set(labels)) < 2:
        raise TrainingDataError("labels must contain both classes")

    std = standardize_fit(features)
    zs = standardize_apply(features, std)
    pca = pca_fit(zs)
    pcs = pca_project(zs, pca)

    train_idx, test_idx = stratified_split(labels, seed=seed)
    train_labels = [labels[i] for i in train_idx]
    models = train_all_classifiers(pcs[train_idx], train_labels, seed=seed)
    test_labels = [labels[i] for i in test_idx]
    accuracies = {kind: classify.score(test_labels,
                                       classify.predict(m, pcs[test_idx]))[0]
                  for kind, m in models.items()}
    best = select_classifier(models, accuracies)

    meta = {
        "created": datetime.datetime.now(datetime.timezone.utc)
        .strftime("%Y-%m-%dT%H:%M:%SZ"),
        "training_size": int(features.shape[0]),
        "feature_schema_version": FEATURE_SCHEMA_VERSION,
    }
    model = EfficiencyModel(standardization=std, pca=pca, classifier=best,
                            metadata=meta)
    report = {
        "accuracies": accuracies,
        "selected": best.kind,
        "train_size": len(train_idx),
        "test_size": len(test_idx),
    }
    return model, report


def run_training(stream: Iterable[Tuple[Frame, FrameAnnotation]],
                 llm_cfg=None, do_review: bool = False, seed: int = 0):
    """Full training pass over a frame/annotation stream.

    Returns (model, report, feature_log_rows).
    """
    from .labeling import label_samples  # so that monitoring never loads it
    samples: List[StatusRecord] = []
    for per_frame, _ in extract_track_features(stream):
        samples.extend(per_frame)
    if len(samples) < 3:
        raise TrainingDataError(
            f"only {len(samples)} feature samples extracted")
    labeled = label_samples([s.features for s in samples], llm_cfg, do_review)
    features = feature_matrix(s.features for s in samples)
    model, report = fit_efficiency_model(
        features, [s.label for s in labeled], seed)
    pcs = pca_project(standardize_apply(features, model.standardization),
                      model.pca)
    rows = [StatusRecord(s.frame, s.track_id, s.features, tuple(pc),
                         lab.label)
            for s, pc, lab in zip(samples, pcs.tolist(), labeled)]
    return model, report, rows


# ---------------------------------------------------------------------------
# monitoring


class AlertState:
    """Debounced per-track alerting; the exact fold the feature log replays.

    A track alerts after `alert_window` consecutive low frames, and then not
    again for `cooldown` frames.  Track ids are never reused, so forgetting a
    dead track changes no alert.
    """

    def __init__(self, alert_window: int, cooldown: int):
        if alert_window < 1:
            raise ValueError("alert_window must be >= 1")
        if cooldown < 0:
            raise ValueError("cooldown must be >= 0")
        self.alert_window = alert_window
        self.cooldown = cooldown
        # track id -> (low streak length, the streak's first frame, the
        # first frame the track may alert again)
        self._tracks: Dict[int, Tuple[int, int, int]] = {}

    def observe(self, rec: StatusRecord) -> Optional[Alert]:
        tid = rec.track_id
        streak, start, until = self._tracks.get(tid, (0, rec.frame, -1))
        if rec.label != LOW:
            self._tracks[tid] = (0, start, until)
            return None
        if streak == 0:
            start = rec.frame
        streak += 1
        if streak < self.alert_window or rec.frame < until:
            self._tracks[tid] = (streak, start, until)
            return None
        self._tracks[tid] = (0, start, rec.frame + self.cooldown)
        return Alert(track_id=tid, first_frame=start, last_frame=rec.frame,
                     features=rec.features, pcs=rec.pcs)

    def forget(self, track_ids: Iterable[int]) -> None:
        for tid in track_ids:
            self._tracks.pop(tid, None)


def feature_matrix(vectors: Iterable[FeatureVector]) -> np.ndarray:
    """(k, 3) array of feature vectors, k = 0 included."""
    return np.array(list(vectors), dtype=float).reshape(-1, N_FEATURES)


def classify_features(model: EfficiencyModel, X):
    """Standardize -> project -> classify each row of a (k, 3) feature
    array.  Returns ((k, 2) pcs, k labels)."""
    pcs = pca_project(standardize_apply(X, model.standardization), model.pca)
    return pcs, classify.predict(model.classifier, pcs)


def run_monitor(model: EfficiencyModel,
                stream: Iterable[Tuple[Frame, FrameAnnotation]],
                alert_window: int, cooldown: int):
    """Stream (StatusRecord, Optional[Alert]) pairs; memory is bounded
    regardless of stream length, since dead tracks' alert state is dropped."""
    alerts = AlertState(alert_window, cooldown)
    for per_frame, deaths in extract_track_features(stream):
        if per_frame:
            pcs, labels = classify_features(
                model, feature_matrix(tf.features for tf in per_frame))
            for tf, pc, label in zip(per_frame, pcs.tolist(), labels):
                rec = StatusRecord(tf.frame, tf.track_id, tf.features,
                                   tuple(pc), label)
                yield rec, alerts.observe(rec)
        alerts.forget(deaths)


def derive_alerts_from_log(rows: Iterable[StatusRecord], alert_window: int,
                           cooldown: int) -> List[Alert]:
    """Replay the alert fold over feature-log rows; the log is the audit
    trail, so this reproduces run_monitor's alerts exactly."""
    state = AlertState(alert_window, cooldown)
    return [a for a in map(state.observe, rows) if a is not None]
