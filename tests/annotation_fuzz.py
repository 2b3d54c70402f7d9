"""Hypothesis strategies for annotation lines near the schema of
`flaremon.ingest`: records with a field left out, of the wrong JSON type,
an integer given as a float or a bool, including every mask field, or a
box coordinate or confidence given as a bool, a numeric string, an
integer too large for a float or a float of 1e200, which overflows the
box's area.  Streams of such lines take frame indices that skip frames
and now and then repeat one."""

from __future__ import annotations

import itertools
import json

from hypothesis import strategies as st

from flaremon.core import DetClass
from flaremon.errors import FlaremonError
from flaremon.ingest import parse_annotation_line

JUNK = (st.none() | st.booleans() | st.integers(-3, 40)
        | st.floats(allow_nan=True, allow_infinity=True) | st.text(max_size=3))
JSON = st.recursive(JUNK, lambda kids: st.lists(kids, max_size=3)
                    | st.dictionaries(st.text(max_size=3), kids, max_size=3),
                    max_leaves=6)


def near_miss(n):
    if type(n) is int:
        return st.sampled_from([float(n), n + 0.5, bool(n)])
    return st.sampled_from([bool(n), str(n), 10 ** 400, -10 ** 400,
                            1e200, -1e200])


@st.composite
def spoiled(draw, record):
    """The record as it is half the time, else with one defect: a field
    left out or swapped for junk, an integer field (or one run) given as a
    float, as n + 0.5 or as a bool, or a float field (or one coordinate)
    given as a bool, a string, a huge integer or +-1e200."""
    key = draw(st.sampled_from(sorted(record)))
    action = draw(st.integers(0, 5))
    if action == 3:
        del record[key]
    elif action == 4:
        record[key] = draw(JSON)
    elif action == 5:
        value = record[key]
        if type(value) in (int, float):
            record[key] = draw(near_miss(value))
        elif type(value) is list and value and type(value[0]) in (int, float):
            i = draw(st.integers(0, len(value) - 1))  # a run or coordinate
            value[i] = draw(near_miss(value[i]))
    return record


@st.composite
def mask_record(draw, width, height, detections):
    """Mostly a mask of the frame's size whose runs sum right."""
    if draw(st.integers(0, 3)) == 0:
        width, height = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    cuts = sorted(draw(st.lists(st.integers(0, width * height), max_size=4)))
    runs = [b - a for a, b in zip([0, *cuts], [*cuts, width * height])]
    return draw(spoiled({"detection": draw(st.integers(-1, detections)),
                         "width": width, "height": height, "runs": runs}))


@st.composite
def detection_record(draw, width, height):
    """Mostly a box around a point of the frame."""
    x, y = draw(st.floats(-2, width + 2)), draw(st.floats(-2, height + 2))
    w, h = draw(st.floats(0.5, width)), draw(st.floats(0.5, height))
    return draw(spoiled({
        "class": draw(st.sampled_from(["flame"] * 3 + ["smoke"] * 2
                                      + ["steam"])),
        "bbox": [x - w / 2, y - h / 2, x + w / 2, y + h / 2],
        "confidence": draw(st.floats(0, 1))}))


@st.composite
def annotation_object(draw, width, height):
    detections = draw(st.lists(detection_record(width, height), max_size=3))
    masks = draw(st.none() | st.lists(
        mask_record(width, height, len(detections)), max_size=3))
    return draw(spoiled({"frame_index": draw(st.integers(0, 2)),
                         "detections": detections, "masks": masks}))


def annotation_records(width=8, height=6):
    """Mostly an annotation object for a width x height frame, now and then
    any JSON value."""
    return (annotation_object(width, height) | annotation_object(width, height)
            | annotation_object(width, height) | JSON)


def annotation_lines(width=8, height=6):
    """One JSON line of `annotation_records`."""
    return annotation_records(width, height).map(json.dumps)


def frame_indices(count):
    """`count` frame indices, each the sum of the steps so far: a step is
    mostly 1, sometimes 2 or 5 (a gap) and now and then 0 (a repeat)."""
    steps = st.sampled_from([1] * 6 + [2, 5, 0])
    return st.lists(steps, min_size=count, max_size=count).map(
        lambda s: list(itertools.accumulate(s)))


def _rank(record):
    """0 for a record that parses and holds a flame, 1 for one that parses,
    2 for one that does not."""
    try:
        ann = parse_annotation_line(json.dumps(record))
    except FlaremonError:
        return 2
    return 0 if any(d.cls is DetClass.FLAME for d in ann.detections) else 1


@st.composite
def annotation_streams(draw, width=8, height=6):
    """The lines of one to three `annotation_records`, each written three
    times so that the tracker gets to report a flame.  Records that parse
    and hold a flame come first and records that do not parse last, so
    that a defect ends the stream after the tracker has reported, not
    before.  A line whose frame_index is an integer takes the next of
    `frame_indices` instead, repeats last."""
    records = sorted(draw(st.lists(annotation_records(width, height),
                                   min_size=1, max_size=3)), key=_rank)
    records = [r for r in records for _ in range(3)]
    indices = draw(frame_indices(len(records)))
    steps = sorted((b - a for a, b in zip([0, *indices], indices)),
                   key=lambda step: step == 0)
    lines = []
    for record, index in zip(records, itertools.accumulate(steps)):
        if isinstance(record, dict) and type(record.get("frame_index")) is int:
            record = {**record, "frame_index": index}
        lines.append(json.dumps(record))
    return lines
