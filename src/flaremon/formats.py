"""Every file flaremon reads or writes, but annotations (`flaremon.ingest`):
model JSON, the feature log and the bare feature CSV, label JSONL, frame
directories, ground truth, simulated scene directories and the SVG plot."""

from __future__ import annotations

import contextlib
import json
import math
import os
from typing import (TYPE_CHECKING, Iterable, Iterator, List, NamedTuple,
                    Optional, Sequence, Tuple)

import numpy as np

from .classify import HIGH, KINDS, LOW, ClassifierModel
from .core import FPS, Frame
from .errors import ParseError
from .features import N_FEATURES, FeatureVector
from .ingest import (FrameAnnotation, bbox_json, mask_json,
                     read_annotation_stream, write_annotation_stream)
from .stats import PcaModel, StandardizationParams

if TYPE_CHECKING:  # annotations only: monitoring loads neither module
    from .labeling import LabeledSample
    from .simulator import RenderedFrame

MODEL_SCHEMA_VERSION = 1
FEATURE_LOG_HEADER = "frame,track_id,ratio,E,angle,pc1,pc2,label"


class EfficiencyModel(NamedTuple):
    standardization: StandardizationParams
    pca: PcaModel
    classifier: ClassifierModel
    metadata: dict


class StatusRecord(NamedTuple):
    """One feature-log row.  A bare feature CSV row has no frame, track or
    pcs (None), and its label may be None; a row as features are extracted
    has neither pcs nor label yet."""
    frame: Optional[int]
    track_id: Optional[int]
    features: FeatureVector
    pcs: Optional[Tuple[float, float]]
    label: Optional[str]


# ---------------------------------------------------------------------------
# model JSON


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
        raise ParseError(
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
    if clf.kind not in KINDS:
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
# feature log and feature CSV


def format_feature_row(r: StatusRecord) -> str:
    """One feature-log line, without its newline."""
    f = r.features
    return (f"{r.frame},{r.track_id},{f.smoke_flame_ratio!r},"
            f"{f.rgb_index!r},{f.flame_angle!r},{r.pcs[0]!r},{r.pcs[1]!r},"
            f"{r.label}")


@contextlib.contextmanager
def feature_log_writer(path):
    """A function that appends one StatusRecord to a new feature log at
    `path`, so a stream of rows is written one at a time; with no path
    the function does nothing."""
    if not path:
        yield lambda rec: None
        return
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(FEATURE_LOG_HEADER + "\n")
        yield lambda rec: fh.write(format_feature_row(rec) + "\n")


def _number(field: str) -> Optional[float]:
    """float(field), or None when the field is not a number."""
    try:
        return float(field)
    except ValueError:
        return None


def parse_feature_csv(text: str) -> List[StatusRecord]:
    """The rows of a feature log or of a bare ratio,E,angle[,label] CSV,
    whose first line is a header when none of its feature fields is a
    number.  Every number must be finite and every label HIGH or LOW;
    anything else is a ParseError naming its line.  Lines end at LF, CRLF
    or CR, as in a file read in text mode; blank ones count but hold no row."""
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    numbered = [(i, ln) for i, ln in enumerate(lines, start=1) if ln.strip()]
    first = numbered[0][1] if numbered else ""
    is_log = first == FEATURE_LOG_HEADER
    if is_log:
        widths, start = (8,), 1
    else:
        widths = (3, 4)
        start = int(all(_number(f) is None for f in first.split(",")[:3]))
    rows = []
    for i, line in numbered[start:]:
        parts = line.split(",")
        if len(parts) not in widths:
            raise ParseError(f"expected {' or '.join(map(str, widths))} "
                             f"columns, got {len(parts)}", i)
        if is_log:
            try:
                frame, track_id = int(parts[0]), int(parts[1])
            except ValueError as exc:
                raise ParseError(str(exc), i) from exc
            numbers, label = parts[2:7], parts[7]
        else:
            parts = [p.strip() for p in parts]
            frame = track_id = None
            numbers, label = parts[:3], (parts[3] if len(parts) == 4 else None)
        values = [_number(f) for f in numbers]
        if None in values:
            raise ParseError("could not convert string to float: "
                             f"{numbers[values.index(None)]!r}", i)
        if not all(map(math.isfinite, values)):
            raise ParseError(f"non-finite value in {','.join(numbers)}", i)
        if label not in (None, HIGH, LOW):
            raise ParseError(f"label {label!r} is neither {HIGH!r} nor "
                             f"{LOW!r}", i)
        rows.append(StatusRecord(frame, track_id, FeatureVector(*values[:3]),
                                 tuple(values[3:]) if is_log else None, label))
    return rows


def load_feature_csv(path) -> List[StatusRecord]:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_feature_csv(fh.read())


def save_labels(samples: Iterable[LabeledSample], path) -> None:
    """One JSON line per sample: its features, label, source and transcript."""
    with open(path, "w", encoding="utf-8") as fh:
        for s in samples:
            f = s.features
            fh.write(json.dumps({
                "ratio": f.smoke_flame_ratio, "E": f.rgb_index,
                "angle": f.flame_angle, "label": s.label,
                "source": s.source, "transcript": s.transcript,
            }, separators=(",", ":")))
            fh.write("\n")


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


def save_scatter_plot(rows: Sequence[StatusRecord], path) -> None:
    """The scatter plot of feature-log rows, written to `path`; rows of a
    bare feature CSV carry no pcs and are a ParseError."""
    if any(r.pcs is None for r in rows):
        raise ParseError("missing feature-log header")
    svg = emit_scatter_plot([(r.pcs[0], r.pcs[1], r.label) for r in rows])
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(svg)


# ---------------------------------------------------------------------------
# frame directories, ground truth and scenes


def save_frames(frames: Iterable[Frame], out_dir) -> int:
    """Raw RGB frame files plus a meta.json describing their geometry."""
    os.makedirs(out_dir, exist_ok=True)
    meta = None
    count = 0
    for frame in frames:
        if meta is None:
            meta = {"width": frame.width, "height": frame.height,
                    "fps": FPS}
        path = os.path.join(out_dir, f"frame_{frame.index:06d}.rgb")
        with open(path, "wb") as fh:
            fh.write(frame.pixels.tobytes())
        count += 1
    meta = meta or {"width": 0, "height": 0, "fps": FPS}
    meta["frame_count"] = count
    with open(os.path.join(out_dir, "meta.json"), "w", encoding="utf-8") as fh:
        json.dump(meta, fh, sort_keys=True)
        fh.write("\n")
    return count


def load_frames(in_dir) -> Iterator[Frame]:
    """The frames of a directory, one at a time.  meta.json must give
    `frame_count` as an integer >= 0 and `width` and `height` as integers
    >= 1 (0 in a directory of no frames), and `fps`, if present, as a
    finite positive number; each frame file must hold width * height * 3
    bytes.  Anything else is a ParseError naming the field or the file."""
    meta_path = os.path.join(in_dir, "meta.json")
    with open(meta_path, encoding="utf-8") as fh:
        try:
            meta = json.load(fh)
        except (ValueError, RecursionError) as exc:
            raise ParseError(f"{meta_path}: invalid JSON: {exc}") from exc
    if not isinstance(meta, dict):
        raise ParseError(f"{meta_path}: must hold a JSON object")
    count = meta.get("frame_count")
    for key, least in (("frame_count", 0), ("width", 1 if count else 0),
                       ("height", 1 if count else 0)):
        if type(meta.get(key)) is not int or meta[key] < least:
            raise ParseError(f"{meta_path}: {key} {meta.get(key)!r} is not "
                             f"an integer >= {least}")
    w, h, fps = meta["width"], meta["height"], meta.get("fps", FPS)
    if type(fps) not in (int, float) or not 0 < fps < math.inf:
        raise ParseError(f"{meta_path}: fps {fps!r} is not a finite "
                         "positive number")
    for i in range(count):
        path = os.path.join(in_dir, f"frame_{i:06d}.rgb")
        with open(path, "rb") as fh:
            if os.fstat(fh.fileno()).st_size != w * h * 3:
                raise ParseError(f"{path}: expected {w * h * 3} bytes of "
                                 f"{w}x{h} RGB")
            buf = np.frombuffer(fh.read(), dtype=np.uint8)
        yield Frame(index=i, timestamp=i / fps, width=w, height=h,
                    pixels=buf.reshape(h, w, 3))


def load_annotated_frames(annotations_path, frames_dir
                          ) -> Iterator[Tuple[Frame, FrameAnnotation]]:
    """Pair each annotation with its frame, holding one frame at a time.

    Annotation indices strictly increase and frames come in index order,
    so a merge-join of the two streams suffices; a frame that no line
    names is read and skipped.
    """
    frames = load_frames(frames_dir)
    frame = next(frames, None)
    with open(annotations_path, "r", encoding="utf-8") as fh:
        for ann in read_annotation_stream(fh):
            while frame is not None and frame.index < ann.frame_index:
                frame = next(frames, None)
            if frame is None or frame.index != ann.frame_index:
                raise ParseError(f"no frame {ann.frame_index} in {frames_dir}")
            yield frame, ann


def format_ground_truth(frame_index, truths) -> str:
    """One ground_truth.jsonl line; boxes and masks are encoded as in
    annotations, or null when a stack has none."""
    def enc(encode, value):
        return None if value is None else encode(value)

    obj = {
        "frame_index": frame_index,
        "stacks": [
            {
                "id": t.stack_id,
                "regime": t.regime,
                "tilt_deg": t.tilt_deg,
                "truncated": t.truncated,
                "flame_bbox": enc(bbox_json, t.flame_box),
                "flame_mask": enc(mask_json, t.flame_mask),
                "smoke_bbox": enc(bbox_json, t.smoke_box),
                "smoke_mask": enc(mask_json, t.smoke_mask),
            }
            for t in truths
        ],
    }
    return json.dumps(obj, separators=(",", ":"))


def save_scene(rendered: Iterable[RenderedFrame], out_dir) -> int:
    """A rendered scene as annotations.jsonl, ground_truth.jsonl and a
    frames/ directory under `out_dir`; returns the frame count."""
    os.makedirs(out_dir, exist_ok=True)

    def frames(ann_fh, gt_fh):
        for rf in rendered:
            write_annotation_stream([rf.annotation], ann_fh)
            gt_fh.write(format_ground_truth(rf.frame.index, rf.truths))
            gt_fh.write("\n")
            yield rf.frame

    with open(os.path.join(out_dir, "annotations.jsonl"), "w",
              encoding="utf-8") as ann_fh, \
            open(os.path.join(out_dir, "ground_truth.jsonl"), "w",
                 encoding="utf-8") as gt_fh:
        return save_frames(frames(ann_fh, gt_fh),
                           os.path.join(out_dir, "frames"))
