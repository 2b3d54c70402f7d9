"""Hypothesis strategies for annotation lines near the schema of
`flaremon.ingest`: records with a field left out, of the wrong JSON type,
an integer given as a float or a bool, including every mask field, or a
box coordinate or confidence given as a bool, a numeric string or an
integer too large for a float."""

from __future__ import annotations

import json

from hypothesis import strategies as st

JUNK = (st.none() | st.booleans() | st.integers(-3, 40)
        | st.floats(allow_nan=True, allow_infinity=True) | st.text(max_size=3))
JSON = st.recursive(JUNK, lambda kids: st.lists(kids, max_size=3)
                    | st.dictionaries(st.text(max_size=3), kids, max_size=3),
                    max_leaves=6)


def near_miss(n):
    if type(n) is int:
        return st.sampled_from([float(n), n + 0.5, bool(n)])
    return st.sampled_from([bool(n), str(n), 10 ** 400, -10 ** 400])


@st.composite
def spoiled(draw, record):
    """The record as it is half the time, else with one defect: a field
    left out or swapped for junk, an integer field (or one run) given as a
    float, as n + 0.5 or as a bool, or a float field (or one coordinate)
    given as a bool, a string or a huge integer."""
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


def annotation_lines(width=8, height=6):
    """One JSON line: mostly an annotation for a width x height frame,
    now and then any JSON value."""
    return (annotation_object(width, height) | annotation_object(width, height)
            | annotation_object(width, height) | JSON).map(json.dumps)
