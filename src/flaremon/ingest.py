"""Line-delimited annotation interchange: the seam where real detectors plug in.

One JSON object per line, one frame per line, UTF-8:

    {"frame_index": 0,
     "detections": [{"class": "flame", "bbox": [x0, y0, x1, y1],
                     "confidence": 0.98}, ...],
     "masks": [{"detection": 0, "width": W, "height": H,
                "runs": [b0, f0, b1, ...]}, ...]}

"masks" is optional; each entry references a detection by index and carries
the row-major RLE (first run = background count).  A detection has at most
one mask: a second entry for the same index is a ParseError.  Frames with
zero detections are legal.  Frame indices must be strictly increasing.  A
gap (frames 0, 10, 20) is three consecutive steps of the tracker and of
the alert window, which count lines, not indices.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Tuple

from .core import BBox, DetClass, Detection, Mask
from .errors import DecodeError, OrderError, ParseError


@dataclass(frozen=True)
class FrameAnnotation:
    frame_index: int
    detections: Tuple[Detection, ...]
    masks: Optional[Tuple[Tuple[int, Mask], ...]] = None


def _parse_detection(obj, line_no) -> Detection:
    try:
        cls = DetClass(obj["class"])
        x0, y0, x1, y1 = obj["bbox"]
        conf = obj["confidence"]
        # Exact types, so that bools and numeric strings are not numbers.
        if not {type(x0), type(y0), type(x1), type(y1), type(conf)} \
                <= {int, float}:
            raise TypeError("bbox and confidence must be numbers")
        box = BBox(float(x0), float(y0), float(x1), float(y1))
        # The tracker holds a box as area s and aspect r and takes its width
        # back as sqrt(s * r), which is finite only if s and r are too.
        if not math.isfinite(box.area * (box.width / box.height)):
            raise ValueError(f"box {obj['bbox']} has a non-finite area or "
                             "aspect ratio")
        return Detection(box, cls, float(conf))
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

    masks = {}
    for m in mask_records or ():
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
            raise ParseError(f"mask references detection {det_idx} of "
                             f"{len(detections)}", line_no)
        if det_idx in masks:
            raise ParseError(f"second mask for detection {det_idx}", line_no)
        masks[det_idx] = mask

    if mask_records is None:
        return FrameAnnotation(frame_index, detections)
    return FrameAnnotation(frame_index, detections, tuple(masks.items()))


def read_annotation_stream(source) -> Iterator[FrameAnnotation]:
    """Yield annotations from an iterable of text lines (an open text file,
    say), validating as it goes.

    Raises ParseError (with line number) on schema violations and
    OrderError (with line number) if a frame_index repeats or decreases.
    """
    last_index = None
    for line_no, line in enumerate(source, start=1):
        line = line.strip()
        if not line:
            continue
        ann = parse_annotation_line(line, line_no)
        if last_index is not None and ann.frame_index <= last_index:
            raise OrderError(
                f"line {line_no}: frame_index {ann.frame_index} after {last_index}"
            )
        last_index = ann.frame_index
        yield ann


def bbox_json(b: BBox) -> list:
    """A box as annotations encode it: [x_min, y_min, x_max, y_max]."""
    return [float(b.x_min), float(b.y_min), float(b.x_max), float(b.y_max)]


def mask_json(m: Mask) -> dict:
    """A mask as annotations encode it: its size and row-major runs."""
    return {"width": m.width, "height": m.height, "runs": list(m.runs)}


def format_annotation(ann: FrameAnnotation) -> str:
    """Canonical single-line JSON form of one annotation."""
    obj = {"frame_index": ann.frame_index}
    obj["detections"] = [
        {
            "class": d.cls.value,
            "bbox": bbox_json(d.bbox),
            "confidence": float(d.confidence),
        }
        for d in ann.detections
    ]
    if ann.masks is not None:
        obj["masks"] = [{"detection": idx, **mask_json(m)}
                        for idx, m in ann.masks]
    return json.dumps(obj, separators=(",", ":"))


def write_annotation_stream(annotations: Iterable[FrameAnnotation], sink) -> None:
    """Write annotations in canonical form, one per line."""
    for ann in annotations:
        sink.write(format_annotation(ann))
        sink.write("\n")
