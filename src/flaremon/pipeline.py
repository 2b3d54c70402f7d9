"""End-to-end orchestration: ingest -> track -> segment -> features ->
train/monitor, plus model persistence, feature logs, alerts, and plots."""

from __future__ import annotations

import datetime
import json
import logging
import math
import os
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from . import classify
from .classify import HIGH, LOW, ClassifierModel
from .core import BBox, DetClass, Frame, Mask
from .errors import (DecodeError, DegenerateOrientation, EmptyRegion,
                     InsufficientSignal, ModelVersionError, OutOfBounds,
                     ParseError, TrainingDataError)
from .features import (FeatureVector, angle_from_moments, associate_smoke,
                       flame_moments, rgb_index, smoke_flame_ratio)
from .ingest import FrameAnnotation
from .labeling import LabeledSample, llm_label, review, rule_label
from .segment import segment_box
from .simulator import RenderedFrame
from .stats import (PcaModel, StandardizationParams, pca_fit, pca_project,
                    standardize_apply, standardize_fit)
from .tracker import SortTracker

log = logging.getLogger(__name__)

MODEL_SCHEMA_VERSION = 1
FEATURE_SCHEMA_VERSION = 1
FEATURE_LOG_HEADER = "frame,track_id,ratio,E,angle,pc1,pc2,label"
N_FEATURES = 3  # ratio, E, angle


@dataclass(frozen=True)
class EfficiencyModel:
    standardization: StandardizationParams
    pca: PcaModel
    classifier: ClassifierModel
    metadata: dict


@dataclass(frozen=True)
class MonitorConfig:
    alert_window: int = 5  # consecutive low frames before an alert
    cooldown: int = 50  # frames before the same track may alert again

    def __post_init__(self):
        if self.alert_window < 1:
            raise ValueError("alert_window must be >= 1")


@dataclass(frozen=True)
class Alert:
    track_id: int
    first_frame: int
    last_frame: int
    features: FeatureVector
    pcs: Tuple[float, float]


@dataclass(frozen=True)
class TrackFeatures:
    frame: int
    track_id: int
    features: FeatureVector


@dataclass(frozen=True)
class StatusRecord:
    frame: int
    track_id: int
    features: FeatureVector
    pcs: Tuple[float, float]
    label: str


# ---------------------------------------------------------------------------
# feature extraction


def extract_track_features(
    stream: Iterable[Tuple[Frame, FrameAnnotation]],
) -> Iterator[Tuple[List[TrackFeatures], List[int]]]:
    """Per frame, feature vectors for every reported flame track, and the
    ids of the tracks that died in that frame.

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
        smoke_idx = [i for i, d in enumerate(ann.detections)
                     if d.cls is DetClass.SMOKE]
        flame_dets = [ann.detections[i] for i in flame_idx]

        def mask_of(orig_idx):
            mask = ann.mask_for(orig_idx)
            if mask is None:
                return segment_box(frame, ann.detections[orig_idx].bbox).mask
            if (mask.width, mask.height) != (frame.width, frame.height):
                raise DecodeError(
                    f"frame {ann.frame_index} detection {orig_idx}: mask is "
                    f"{mask.width}x{mask.height}, frame is "
                    f"{frame.width}x{frame.height}")
            return mask

        reported, matches, _, deaths = tracker.step(flame_dets)
        det_of_track = dict(matches)

        flame_boxes: Dict[int, BBox] = {}
        flame_masks: Dict[int, Mask] = {}
        for track_id in reported:
            col = det_of_track.get(track_id)
            if col is None:
                continue
            orig = flame_idx[col]
            flame_boxes[track_id] = ann.detections[orig].bbox
            try:
                flame_masks[track_id] = mask_of(orig)
            except OutOfBounds as exc:
                # Its box stays, so smoke above it is not given to another.
                log.warning("frame %d track %d skipped: %s",
                            ann.frame_index, track_id, exc)

        smoke_regions = []
        for i in smoke_idx:
            try:
                smoke_regions.append((ann.detections[i].bbox, mask_of(i)))
            except OutOfBounds as exc:
                log.warning("frame %d smoke detection %d skipped: %s",
                            ann.frame_index, i, exc)
        smoke_areas, dropped = associate_smoke(flame_boxes, smoke_regions)
        if dropped:
            # Smoke over a flame the tracker does not report yet (warm-up)
            # is expected; only smoke with no flame detection below is not.
            _, orphans = associate_smoke(
                {i: d.bbox for i, d in enumerate(flame_dets)}, smoke_regions)
            if orphans:
                log.warning("frame %d: %d unassignable smoke region(s)",
                            ann.frame_index, orphans)
            if dropped > orphans:
                log.debug("frame %d: %d smoke region(s) over unreported "
                          "flames", ann.frame_index, dropped - orphans)

        tracks = [t for t in reported if t in flame_masks]
        counts, means, moments = flame_moments(
            frame, [flame_masks[t] for t in tracks])
        out: List[TrackFeatures] = []
        for track_id, n, rgb, mu in zip(tracks, counts.tolist(),
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
            out.append(TrackFeatures(
                frame=ann.frame_index, track_id=track_id,
                features=FeatureVector(ratio, index, angle)))
        yield out, deaths


def rendered_stream(rendered: Iterable[RenderedFrame]):
    for rf in rendered:
        yield rf.frame, rf.annotation


# ---------------------------------------------------------------------------
# training


def stratified_split(labels: Sequence[str], test_fraction: float = 0.3,
                     seed: int = 0):
    """Seeded stratified index split; every class keeps at least one
    training sample, and the test set is non-empty when n allows."""
    rng = np.random.default_rng(seed)
    train_idx: List[int] = []
    test_idx: List[int] = []
    for cls in sorted(set(labels)):
        members = [i for i, lbl in enumerate(labels) if lbl == cls]
        perm = rng.permutation(len(members))
        n_test = int(round(test_fraction * len(members)))
        n_test = min(n_test, len(members) - 1)
        chosen = {members[perm[i]] for i in range(n_test)}
        for i in members:
            (test_idx if i in chosen else train_idx).append(i)
    return sorted(train_idx), sorted(test_idx)


_KIND_ORDER = ("logistic", "svm", "knn", "mlp")


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
                       _KIND_ORDER.index(m.kind)),
    )
    return ranked[0]


def fit_efficiency_model(features, labels, seed: int = 0):
    """Standardize -> PCA -> train all four classifiers -> pick the best.

    Returns (model, report) where report maps classifier kind to held-out
    accuracy and lists the split sizes.
    """
    model, report, _ = _fit_efficiency_model(features, labels, seed)
    return model, report


def _fit_efficiency_model(features, labels, seed):
    """fit_efficiency_model, also returning the (n, 2) pcs of `features`."""
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
    accuracies = {kind: classify.evaluate(m, pcs[eval_idx], eval_labels)[0]
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
    return model, report, pcs


def label_samples(features: Sequence[FeatureVector], mode: str = "rule",
                  llm_cfg=None, do_review: bool = False) -> List[LabeledSample]:
    labeled: List[LabeledSample] = []
    for f in features:
        if mode == "llm":
            lbl, transcript = llm_label(llm_cfg, f)
            labeled.append(LabeledSample(f, lbl, "llm", transcript))
        elif mode == "rule":
            labeled.append(LabeledSample(f, rule_label(f), "rule"))
        else:
            raise ValueError(f"unknown labeling mode {mode!r}")
    if do_review:
        labeled = review(labeled)
    return labeled


def run_training(stream: Iterable[Tuple[Frame, FrameAnnotation]],
                 labeling_mode: str = "rule", llm_cfg=None,
                 do_review: bool = False, seed: int = 0):
    """Full training pass over a frame/annotation stream.

    Returns (model, report, feature_log_rows).
    """
    samples: List[TrackFeatures] = []
    for per_frame, _ in extract_track_features(stream):
        samples.extend(per_frame)
    if len(samples) < 3:
        raise TrainingDataError(
            f"only {len(samples)} feature samples extracted")
    labeled = label_samples([s.features for s in samples], labeling_mode,
                            llm_cfg, do_review)
    features = feature_matrix(s.features for s in samples)
    model, report, pcs = _fit_efficiency_model(
        features, [s.label for s in labeled], seed)
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

    def __init__(self, cfg: MonitorConfig):
        self.cfg = cfg
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
        if self._streak[tid] < self.cfg.alert_window:
            return None
        if rec.frame < self._cooldown_until.get(tid, -1):
            return None
        self._cooldown_until[tid] = rec.frame + self.cfg.cooldown
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
                cfg: MonitorConfig = None):
    """Stream (StatusRecord, Optional[Alert]) pairs; memory is bounded
    regardless of stream length, since dead tracks' alert state is dropped."""
    alerts = AlertState(cfg or MonitorConfig())
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
                           cfg: MonitorConfig = None) -> List[Alert]:
    """Replay the alert fold over feature-log rows; the log is the audit
    trail, so this reproduces run_monitor's alerts exactly."""
    state = AlertState(cfg or MonitorConfig())
    return [a for a in map(state.observe, rows) if a is not None]


# ---------------------------------------------------------------------------
# feature log CSV


def format_feature_row(r: StatusRecord) -> str:
    """One feature-log line, without its newline."""
    f = r.features
    return (f"{r.frame},{r.track_id},{f.smoke_flame_ratio!r},"
            f"{f.rgb_index!r},{f.flame_angle!r},{r.pcs[0]!r},{r.pcs[1]!r},"
            f"{r.label}")


def format_feature_log(rows: Iterable[StatusRecord]) -> str:
    lines = [FEATURE_LOG_HEADER, *map(format_feature_row, rows)]
    return "\n".join(lines) + "\n"


def parse_features(fields: Sequence[str], label: Optional[str],
                   line_number: int):
    """Finite floats from text fields, and a label that is None, HIGH or
    LOW; anything else is a ParseError naming the line."""
    try:
        values = [float(f) for f in fields]
    except ValueError as exc:
        raise ParseError(str(exc), line_number) from exc
    if not all(map(math.isfinite, values)):
        raise ParseError(f"non-finite value in {','.join(fields)}",
                         line_number)
    if label not in (None, HIGH, LOW):
        raise ParseError(f"label {label!r} is neither {HIGH!r} nor {LOW!r}",
                         line_number)
    return values, label


def parse_feature_log(text: str) -> List[StatusRecord]:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != FEATURE_LOG_HEADER:
        raise ParseError("missing feature-log header")
    rows = []
    for i, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != 8:
            raise ParseError(f"expected 8 columns, got {len(parts)}", i)
        try:
            frame, track_id = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise ParseError(str(exc), i) from exc
        (ratio, index, angle, pc1, pc2), label = parse_features(
            parts[2:7], parts[7], i)
        rows.append(StatusRecord(
            frame=frame, track_id=track_id,
            features=FeatureVector(ratio, index, angle), pcs=(pc1, pc2),
            label=label))
    return rows


# ---------------------------------------------------------------------------
# model persistence


def model_to_json(model: EfficiencyModel) -> str:
    obj = {
        "schema_version": MODEL_SCHEMA_VERSION,
        "metadata": model.metadata,
        "standardization": {
            "means": model.standardization.means.tolist(),
            "stds": model.standardization.stds.tolist(),
        },
        "pca": {
            "components": model.pca.components.tolist(),
            "eigenvalues": model.pca.eigenvalues.tolist(),
            "explained_variance_fraction":
                model.pca.explained_variance_fraction.tolist(),
        },
        "classifier": {
            "kind": model.classifier.kind,
            "parameters": model.classifier.parameters,
            "parameter_count": model.classifier.parameter_count,
        },
    }
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def _field(obj, name: str, shape) -> np.ndarray:
    """The array of finite numbers at the dotted path `name` of a model
    object, checked against `shape`, in which -1 matches any size."""
    try:
        for key in name.split("."):
            obj = obj[key]
        arr = np.array(obj)
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise ParseError(f"model field {name}: missing or malformed "
                         f"({exc!r})") from exc
    # numpy reads a bool among numbers as 0 or 1, so look at the elements.
    if (arr.dtype.kind not in "iuf" or not np.isfinite(arr).all()  # int/float
            or any(type(v) is bool for v in np.array(obj, dtype=object).flat)):
        raise ParseError(f"model field {name}: not all finite numbers")
    if arr.ndim != len(shape) or any(
            want not in (-1, got) for want, got in zip(shape, arr.shape)):
        raise ParseError(f"model field {name}: shape {arr.shape}, "
                         f"expected {shape}")
    return arr.astype(float)


def _check_classifier(obj, clf: ClassifierModel) -> None:
    """The parameters `classify.predict` relies on."""
    p = "classifier.parameters."
    if clf.kind == "knn":
        n = len(_field(obj, p + "samples", (-1, 2)))
        labels, k = clf.parameters.get("labels"), clf.parameters.get("k")
        if not (type(labels) is list and len(labels) == n
                and all(lbl in (HIGH, LOW) for lbl in labels)):
            raise ParseError(f"model field {p}labels: expected {n} labels, "
                             f"each {HIGH!r} or {LOW!r}")
        if not (type(k) is int and k % 2 == 1 and 1 <= k <= n):
            raise ParseError(f"model field {p}k: {k!r} is not an odd "
                             f"integer in [1, {n}]")
        return
    shapes = {"weights": (2,), "bias": ()}
    if clf.kind == "mlp":
        h = _field(obj, p + "b1", (-1,)).size
        shapes = {"W1": (2, h), "W2": (h, 1), "b2": (1,)}
    for key, shape in shapes.items():
        _field(obj, p + key, shape)


def model_from_json(text: str) -> EfficiencyModel:
    try:
        obj = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ParseError(f"invalid model file: {exc}") from exc
    if not isinstance(obj, dict):
        raise ParseError("model file must hold a JSON object")
    version = obj.get("schema_version")
    if version != MODEL_SCHEMA_VERSION:
        raise ModelVersionError(
            f"schema version {version}, reader supports {MODEL_SCHEMA_VERSION}")
    std = StandardizationParams(
        means=_field(obj, "standardization.means", (N_FEATURES,)),
        stds=_field(obj, "standardization.stds", (N_FEATURES,)))
    if not (std.stds > 0).all():
        raise ParseError("model field standardization.stds: not positive")
    pca = PcaModel(
        components=_field(obj, "pca.components", (2, N_FEATURES)),
        eigenvalues=_field(obj, "pca.eigenvalues", (2,)),
        explained_variance_fraction=_field(
            obj, "pca.explained_variance_fraction", (2,)))
    try:
        clf = ClassifierModel(
            kind=obj["classifier"]["kind"],
            parameters=obj["classifier"]["parameters"],
            parameter_count=obj["classifier"]["parameter_count"])
        meta = obj["metadata"]
    except (KeyError, TypeError) as exc:
        raise ParseError(f"malformed model file: {exc}") from exc
    if type(clf.parameter_count) is not int:
        raise ParseError(f"model field classifier.parameter_count: "
                         f"{clf.parameter_count!r} is not an integer")
    if clf.kind not in _KIND_ORDER:
        raise ParseError(f"model field classifier.kind: unknown kind "
                         f"{clf.kind!r}")
    _check_classifier(obj, clf)
    return EfficiencyModel(standardization=std, pca=pca, classifier=clf,
                           metadata=meta)


def save_model(model: EfficiencyModel, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(model_to_json(model))


def load_model(path) -> EfficiencyModel:
    with open(path, "r", encoding="utf-8") as fh:
        return model_from_json(fh.read())


# ---------------------------------------------------------------------------
# scatter plot (SVG)


def emit_scatter_plot(samples: Sequence[Tuple[float, float, str]]) -> str:
    """Deterministic standalone SVG scatter of labeled (PC1, PC2) points."""
    if not samples:
        raise ValueError("need at least one sample")
    width, height, margin = 640, 480, 60
    xs = [s[0] for s in samples]
    ys = [s[1] for s in samples]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if x_hi == x_lo:
        x_lo, x_hi = x_lo - 1.0, x_hi + 1.0
    if y_hi == y_lo:
        y_lo, y_hi = y_lo - 1.0, y_hi + 1.0
    pad_x = 0.05 * (x_hi - x_lo)
    pad_y = 0.05 * (y_hi - y_lo)
    x_lo, x_hi = x_lo - pad_x, x_hi + pad_x
    y_lo, y_hi = y_lo - pad_y, y_hi + pad_y

    def sx(v):
        return margin + (v - x_lo) / (x_hi - x_lo) * (width - 2 * margin)

    def sy(v):
        return height - margin - (v - y_lo) / (y_hi - y_lo) * (height - 2 * margin)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<text x="{width // 2}" y="{height - 20}" text-anchor="middle" '
        f'font-size="14">PC1</text>',
        f'<text x="20" y="{height // 2}" text-anchor="middle" font-size="14" '
        f'transform="rotate(-90 20 {height // 2})">PC2</text>',
    ]
    for pc1, pc2, label in samples:
        cx, cy = sx(pc1), sy(pc2)
        if label == HIGH:
            parts.append(
                f'<circle class="marker high" cx="{cx:.2f}" cy="{cy:.2f}" '
                f'r="5" fill="#1f77b4"/>')
        else:
            parts.append(
                f'<rect class="marker low" x="{cx - 4.5:.2f}" '
                f'y="{cy - 4.5:.2f}" width="9" height="9" fill="#d62728"/>')
    lx, ly = width - margin - 110, margin + 10
    parts += [
        f'<circle cx="{lx}" cy="{ly}" r="5" fill="#1f77b4"/>',
        f'<text x="{lx + 12}" y="{ly + 4}" font-size="12">high</text>',
        f'<rect x="{lx - 4.5}" y="{ly + 15.5}" width="9" height="9" '
        f'fill="#d62728"/>',
        f'<text x="{lx + 12}" y="{ly + 24}" font-size="12">low</text>',
        "</svg>",
    ]
    return "\n".join(parts) + "\n"


# ---------------------------------------------------------------------------
# frame and ground-truth files


def save_frames(frames: Iterable[Frame], out_dir) -> int:
    """Raw RGB frame files plus a meta.json describing their geometry."""
    os.makedirs(out_dir, exist_ok=True)
    meta = None
    count = 0
    for frame in frames:
        if meta is None:
            meta = {"width": frame.width, "height": frame.height, "fps": 25.0}
        path = os.path.join(out_dir, f"frame_{frame.index:06d}.rgb")
        with open(path, "wb") as fh:
            fh.write(frame.pixels.tobytes())
        count += 1
    meta = meta or {"width": 0, "height": 0, "fps": 25.0}
    meta["frame_count"] = count
    with open(os.path.join(out_dir, "meta.json"), "w", encoding="utf-8") as fh:
        json.dump(meta, fh, sort_keys=True)
        fh.write("\n")
    return count


def load_frames(in_dir) -> Iterator[Frame]:
    with open(os.path.join(in_dir, "meta.json"), encoding="utf-8") as fh:
        meta = json.load(fh)
    w, h = meta["width"], meta["height"]
    fps = meta.get("fps", 25.0)
    for i in range(meta["frame_count"]):
        path = os.path.join(in_dir, f"frame_{i:06d}.rgb")
        with open(path, "rb") as fh:
            buf = np.frombuffer(fh.read(), dtype=np.uint8)
        yield Frame(index=i, timestamp=i / fps, width=w, height=h,
                    pixels=buf.reshape(h, w, 3))


def _bbox_json(b: Optional[BBox]):
    return None if b is None else [b.x_min, b.y_min, b.x_max, b.y_max]


def _mask_json(m: Optional[Mask]):
    if m is None:
        return None
    return {"width": m.width, "height": m.height, "runs": list(m.runs)}


def format_ground_truth(frame_index, truths) -> str:
    obj = {
        "frame_index": frame_index,
        "stacks": [
            {
                "id": t.stack_id,
                "regime": t.regime,
                "tilt_deg": t.tilt_deg,
                "truncated": t.truncated,
                "flame_bbox": _bbox_json(t.flame_box),
                "flame_mask": _mask_json(t.flame_mask),
                "smoke_bbox": _bbox_json(t.smoke_box),
                "smoke_mask": _mask_json(t.smoke_mask),
            }
            for t in truths
        ],
    }
    return json.dumps(obj, separators=(",", ":"))
