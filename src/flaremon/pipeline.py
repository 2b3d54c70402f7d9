"""End-to-end orchestration: ingest -> track -> segment -> features ->
train/monitor -> alerts.  Every file format lives in `flaremon.formats`."""

from __future__ import annotations

import datetime
import logging
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from . import classify, formats
from .classify import LOW, ClassifierModel
from .core import DetClass, Frame, Mask
from .errors import (DecodeError, DegenerateOrientation, EmptyRegion,
                     InsufficientSignal, OutOfBounds, TrainingDataError)
from .features import (N_FEATURES, FeatureVector, angle_from_moments,
                       associate_smoke, flame_moments, rgb_index,
                       smoke_flame_ratio)
from .formats import EfficiencyModel, StatusRecord
from .ingest import FrameAnnotation
from .segment import segment_box
from .stats import pca_fit, pca_project, standardize_apply, standardize_fit
from .tracker import SortTracker

log = logging.getLogger(__name__)

FEATURE_SCHEMA_VERSION = 1
TEST_FRACTION = 0.3  # share of each class held out to pick the classifier

# perfbench calls and traces these five as pipeline.*; formats holds them.
load_frames, save_frames = formats.load_frames, formats.save_frames
format_ground_truth = formats.format_ground_truth
load_model, model_to_json = formats.load_model, formats.model_to_json


@dataclass(frozen=True)
class MonitorConfig:
    alert_window: int = 5  # consecutive low frames before an alert
    cooldown: int = 50  # frames before the same track may alert again

    def __post_init__(self):
        if self.alert_window < 1:
            raise ValueError("alert_window must be >= 1")
        if self.cooldown < 0:
            raise ValueError("cooldown must be >= 0")


@dataclass(frozen=True)
class Alert:
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
    A mask whose size differs from its frame raises DecodeError.
    """
    tracker = SortTracker()
    for frame, ann in stream:
        flame_idx = [i for i, d in enumerate(ann.detections)
                     if d.cls is DetClass.FLAME]
        flame_dets = [ann.detections[i] for i in flame_idx]
        reported, matches, _, deaths = tracker.step(flame_dets)
        det_of_track = dict(matches)

        matched = [(t, flame_idx[det_of_track[t]]) for t in reported
                   if t in det_of_track]
        # A flame keeps its box even if its region is skipped below, so
        # that smoke above it is not given to another flame.
        flame_boxes = {t: ann.detections[i].bbox for t, i in matched}
        # Flames in reported order, then smokes (track None) in detection
        # order: the order of warnings and errors.
        regions = matched + [(None, i) for i, d in enumerate(ann.detections)
                             if d.cls is DetClass.SMOKE]
        external = dict(ann.masks or ())
        flames: List[Tuple[int, Mask]] = []
        smoke_regions = []
        for track_id, i in regions:
            box = ann.detections[i].bbox
            mask = external.get(i)
            if mask is None:
                try:
                    mask = segment_box(frame, box).mask
                except OutOfBounds as exc:
                    what = (f"smoke detection {i}" if track_id is None
                            else f"track {track_id}")
                    log.warning("frame %d %s skipped: %s", ann.frame_index,
                                what, exc)
                    continue
            elif (mask.width, mask.height) != (frame.width, frame.height):
                raise DecodeError(
                    f"frame {ann.frame_index} detection {i}: mask is "
                    f"{mask.width}x{mask.height}, frame is "
                    f"{frame.width}x{frame.height}")
            if track_id is None:
                smoke_regions.append((box, mask))
            else:
                flames.append((track_id, mask))

        smoke_areas, dropped = associate_smoke(flame_boxes, smoke_regions)
        # Smoke over a flame the tracker does not report yet (warm-up) is
        # expected; only smoke with no flame detection below is not.
        orphans = sum(not any(d.bbox.y_min >= box.y_max for d in flame_dets)
                      for box, _ in smoke_regions)
        if orphans:
            log.warning("frame %d: %d unassignable smoke region(s)",
                        ann.frame_index, orphans)
        if dropped > orphans:
            log.debug("frame %d: %d smoke region(s) over unreported "
                      "flames", ann.frame_index, dropped - orphans)

        counts, means, moments = flame_moments(frame,
                                               [m for _, m in flames])
        out: List[StatusRecord] = []
        for (track_id, _), n, rgb, mu in zip(flames, counts.tolist(),
                                             means.tolist(), moments.tolist()):
            try:
                # An empty mask fails here, so its NaN means go unread.
                ratio = smoke_flame_ratio(smoke_areas[track_id], n)
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
    n = len(labels)
    # tiny datasets: k=1, otherwise a 3-neighborhood can out-vote an
    # isolated but correct sample
    k = 3 if n >= 12 else 1
    return {
        "logistic": classify.train_logistic(pcs, labels),
        "svm": classify.train_svm(pcs, labels),
        "knn": classify.train_knn(pcs, labels, k=k),
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
    eval_idx = test_idx if test_idx else train_idx
    train_labels = [labels[i] for i in train_idx]
    if len(set(train_labels)) < 2:
        raise TrainingDataError("training split lost a class")

    models = train_all_classifiers(pcs[train_idx], train_labels, seed=seed)
    eval_labels = [labels[i] for i in eval_idx]
    accuracies = {kind: classify.score(eval_labels,
                                       classify.predict(m, pcs[eval_idx]))[0]
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
                 labeling_mode: str = "rule", llm_cfg=None,
                 do_review: bool = False, seed: int = 0):
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
    labeled = label_samples([s.features for s in samples], labeling_mode,
                            llm_cfg, do_review)
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

    Track ids are never reused, so forgetting a dead track changes no alert.
    """

    def __init__(self, config: MonitorConfig):
        self.config = config
        self._streak: Dict[int, int] = {}
        self._streak_start: Dict[int, int] = {}
        self._cooldown_until: Dict[int, int] = {}

    def observe(self, rec: StatusRecord) -> Optional[Alert]:
        tid = rec.track_id
        if rec.label != LOW:
            self._streak[tid] = 0
            return None
        if self._streak.get(tid, 0) == 0:
            self._streak_start[tid] = rec.frame
        self._streak[tid] = self._streak.get(tid, 0) + 1
        if self._streak[tid] < self.config.alert_window:
            return None
        if rec.frame < self._cooldown_until.get(tid, -1):
            return None
        self._cooldown_until[tid] = rec.frame + self.config.cooldown
        self._streak[tid] = 0
        return Alert(track_id=tid, first_frame=self._streak_start[tid],
                     last_frame=rec.frame, features=rec.features,
                     pcs=rec.pcs)

    def forget(self, track_ids: Iterable[int]) -> None:
        for tid in track_ids:
            self._streak.pop(tid, None)
            self._streak_start.pop(tid, None)
            self._cooldown_until.pop(tid, None)


def feature_matrix(vectors: Iterable[FeatureVector]) -> np.ndarray:
    """(k, 3) array of feature vectors, k = 0 included."""
    return np.array([v.as_array() for v in vectors],
                    dtype=float).reshape(-1, N_FEATURES)


def classify_features(model: EfficiencyModel, X):
    """Standardize -> project -> classify each row of a (k, 3) feature
    array.  Returns ((k, 2) pcs, k labels)."""
    pcs = pca_project(standardize_apply(X, model.standardization), model.pca)
    return pcs, classify.predict(model.classifier, pcs)


def run_monitor(model: EfficiencyModel,
                stream: Iterable[Tuple[Frame, FrameAnnotation]],
                config: MonitorConfig = None):
    """Stream (StatusRecord, Optional[Alert]) pairs; memory is bounded
    regardless of stream length, since dead tracks' alert state is dropped."""
    alerts = AlertState(config or MonitorConfig())
    for per_frame, deaths in extract_track_features(stream):
        if per_frame:
            pcs, labels = classify_features(
                model, feature_matrix(tf.features for tf in per_frame))
            for tf, pc, label in zip(per_frame, pcs.tolist(), labels):
                rec = StatusRecord(tf.frame, tf.track_id, tf.features,
                                   tuple(pc), label)
                yield rec, alerts.observe(rec)
        alerts.forget(deaths)


def derive_alerts_from_log(rows: Iterable[StatusRecord],
                           config: MonitorConfig = None) -> List[Alert]:
    """Replay the alert fold over feature-log rows; the log is the audit
    trail, so this reproduces run_monitor's alerts exactly."""
    state = AlertState(config or MonitorConfig())
    return [a for a in map(state.observe, rows) if a is not None]
