"""The annotation parser as it was, kept as a reference for the current one.

It checks each mask record's field types, and then checks the mask as the
frozen dataclass `Mask` did when built, walking the runs again: it maps
`operator.index` over them and takes their `min` and `sum`.
`flaremon.ingest.parse_annotation_line` checks each record once and builds
the mask unchecked.  For every line both must give an equal
`FrameAnnotation`, or a `ParseError` with the same text.  pytest does not
collect this file.
"""

from __future__ import annotations

import json
import math
import operator

from flaremon.core import BBox, DetClass, Detection, Mask
from flaremon.errors import DecodeError, ParseError
from flaremon.ingest import FrameAnnotation


def checked_mask(width, height, runs) -> Mask:
    """The mask, checked as `Mask.__post_init__` checked it."""
    try:
        size = operator.index(width), operator.index(height)
        runs = tuple(map(operator.index, runs))
    except TypeError as exc:  # a float or a string, say
        raise DecodeError(f"mask sizes and runs must be integers: {exc}") \
            from exc
    if size[0] <= 0 or size[1] <= 0:
        raise DecodeError(f"bad mask size {size[0]}x{size[1]}")
    if runs and min(runs) < 0:
        raise DecodeError("negative run length")
    total = sum(runs)
    if total != size[0] * size[1]:
        raise DecodeError(
            f"runs sum to {total}, expected {size[0] * size[1]}"
        )
    return Mask(*size, runs)


def parse_detection(obj, line_no) -> Detection:
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
    detections = tuple(parse_detection(d, line_no) for d in records)

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
            mask = checked_mask(width, height, runs)
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
