"""Line-delimited annotation interchange: the seam where real detectors plug in.

One JSON object per line, one frame per line, UTF-8:

    {"frame_index": 0,
     "detections": [{"class": "flame", "bbox": [x0, y0, x1, y1],
                     "confidence": 0.98}, ...],
     "masks": [{"detection": 0, "width": W, "height": H,
                "runs": [b0, f0, b1, ...]}, ...]}

"masks" is optional; each entry references a detection by index and carries
the row-major RLE (first run = background count).  Frames with zero
detections are legal.  Frame indices must be non-decreasing.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Tuple

from .core import BBox, DetClass, Detection, Mask
from .errors import DecodeError, OrderError, ParseError


@dataclass(frozen=True)
class FrameAnnotation:
    frame_index: int
    detections: Tuple[Detection, ...]
    masks: Optional[Tuple[Tuple[int, Mask], ...]] = None

    def mask_for(self, detection_index: int) -> Optional[Mask]:
        if self.masks is None:
            return None
        for idx, mask in self.masks:
            if idx == detection_index:
                return mask
        return None


def _parse_detection(obj, line_no) -> Detection:
    try:
        cls = DetClass(obj["class"])
        x0, y0, x1, y1 = obj["bbox"]
        conf = obj["confidence"]
        # Exact types, so that bools and numeric strings are not numbers.
        if not {type(x0), type(y0), type(x1), type(y1), type(conf)} \
                <= {int, float}:
            raise TypeError("bbox and confidence must be numbers")
        return Detection(BBox(float(x0), float(y0), float(x1), float(y1)),
                         cls, float(conf))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"bad detection record: {exc}", line_no) from exc


def parse_annotation_line(line: str, line_no: int = None) -> FrameAnnotation:
    try:
        obj = json.loads(line)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ParseError(f"invalid JSON: {exc}", line_no) from exc
    if not isinstance(obj, dict) or "frame_index" not in obj:
        raise ParseError("record must be an object with frame_index", line_no)
    frame_index = obj["frame_index"]
    if type(frame_index) is not int:  # bool is a subclass of int
        raise ParseError(f"bad frame_index: {frame_index!r} is not an integer",
                         line_no)

    records = obj.get("detections", [])
    mask_records = obj.get("masks")
    if type(records) is not list or mask_records is not None \
            and type(mask_records) is not list:
        raise ParseError("detections and masks must be lists", line_no)
    detections = tuple(_parse_detection(d, line_no) for d in records)

    masks = None
    if mask_records is not None:
        entries = []
        for m in mask_records:
            try:
                det_idx, width, height, runs = (m["detection"], m["width"],
                                                m["height"], m["runs"])
            except (KeyError, TypeError) as exc:
                raise ParseError(f"bad mask record: {exc}", line_no) from exc
            # Exact types, so that floats and bools are not truncated.
            if not (type(det_idx) is type(width) is type(height) is int
                    and type(runs) is list and set(map(type, runs)) <= {int}):
                raise ParseError("bad mask record: detection, width, height "
                                 "and runs must be integers", line_no)
            try:
                mask = Mask(width, height, runs)
            except DecodeError as exc:
                raise ParseError(f"bad mask: {exc}", line_no) from exc
            if not (0 <= det_idx < len(detections)):
                raise ParseError(
                    f"mask references detection {det_idx} of {len(detections)}",
                    line_no,
                )
            entries.append((det_idx, mask))
        masks = tuple(entries)

    return FrameAnnotation(frame_index, detections, masks)


def read_annotation_stream(source) -> Iterator[FrameAnnotation]:
    """Yield annotations from a text-line iterable, validating as it goes.

    Raises ParseError (with line number) on schema violations and
    OrderError if frame_index ever decreases.
    """
    last_index = None
    for line_no, line in enumerate(source, start=1):
        if isinstance(line, bytes):
            line = line.decode("utf-8")
        line = line.strip()
        if not line:
            continue
        ann = parse_annotation_line(line, line_no)
        if last_index is not None and ann.frame_index < last_index:
            raise OrderError(
                f"line {line_no}: frame_index {ann.frame_index} after {last_index}"
            )
        last_index = ann.frame_index
        yield ann


def format_annotation(ann: FrameAnnotation) -> str:
    """Canonical single-line JSON form of one annotation."""
    obj = {"frame_index": ann.frame_index}
    obj["detections"] = [
        {
            "class": d.cls.value,
            "bbox": [float(d.bbox.x_min), float(d.bbox.y_min),
                     float(d.bbox.x_max), float(d.bbox.y_max)],
            "confidence": float(d.confidence),
        }
        for d in ann.detections
    ]
    if ann.masks is not None:
        obj["masks"] = [
            {
                "detection": idx,
                "width": m.width,
                "height": m.height,
                "runs": list(m.runs),
            }
            for idx, m in ann.masks
        ]
    return json.dumps(obj, separators=(",", ":"))


def write_annotation_stream(annotations: Iterable[FrameAnnotation], sink) -> None:
    """Write annotations in canonical form, one per line."""
    for ann in annotations:
        sink.write(format_annotation(ann))
        sink.write("\n")
