"""Hypothesis strategies for annotation lines near the schema of
`flaremon.ingest`.  Two annotation objects in three are sound; the others
have one defect, in the record itself, in one detection or in one mask: a
field left out or of the wrong JSON type, an integer given as a float or
a bool, including every mask field, a box coordinate or confidence given
as a bool, a numeric string, an integer too large for a float or a float
of 1e200, a box whose area overflows, an unknown class, a mask record
given twice, or a mask of another size than the frame's, whose runs do
not sum to its size or that names a detection out of range.  Now and then
a record is any JSON value instead.  Streams of such lines take frame
indices that skip frames and now and then repeat one."""

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
def spoil(draw, part, swaps=()):
    """Give `part` (a dict) one defect in place: a field left out or
    swapped for junk, an integer field (or one run) given as a float, as
    n + 0.5 or as a bool, a float field (or one coordinate) given as a
    bool, a string, a huge integer or +-1e200, or else the fields of one
    of `swaps`, strategies of dicts of bad fields for this kind of part."""
    key = draw(st.sampled_from(sorted(part)))
    action = draw(st.integers(0, 5 if swaps else 2))
    if action == 0:
        del part[key]
    elif action == 1:
        part[key] = draw(JSON)
    elif action == 2:
        value = part[key]
        if type(value) in (int, float):
            part[key] = draw(near_miss(value))
        elif type(value) is list and value and type(value[0]) in (int, float):
            i = draw(st.integers(0, len(value) - 1))  # a run or coordinate
            value[i] = draw(near_miss(value[i]))
    else:
        part.update(draw(st.one_of(swaps)))


@st.composite
def mask_fields(draw, width, height):
    """The size and runs of a mask of width x height whose runs sum
    right."""
    cuts = sorted(draw(st.lists(st.integers(0, width * height), max_size=4)))
    runs = [b - a for a, b in zip([0, *cuts], [*cuts, width * height])]
    return {"width": width, "height": height, "runs": runs}


@st.composite
def detection_record(draw, width, height):
    """A box around a point of the frame, some of it off the frame."""
    x, y = draw(st.floats(-1, width + 1)), draw(st.floats(-1, height + 1))
    w, h = draw(st.floats(0.5, width)), draw(st.floats(0.5, height))
    return {"class": draw(st.sampled_from(["flame"] * 3 + ["smoke"] * 2)),
            "bbox": [x - w / 2, y - h / 2, x + w / 2, y + h / 2],
            "confidence": draw(st.floats(0, 1))}


@st.composite
def annotation_object(draw, width, height):
    """An annotation object for a width x height frame with one to three
    detections, and with or without masks, each of the frame's size and
    for a detection of its own.  A third of the time one part of it, the
    record, a detection or a mask, is spoiled; leaving out the record's
    detections gives a frame with none."""
    detections = draw(st.lists(detection_record(width, height), min_size=1,
                               max_size=3))
    owners = draw(st.lists(st.integers(0, len(detections) - 1),
                           unique=True, max_size=3) | st.none())
    masks = None if owners is None else [
        {"detection": i, **draw(mask_fields(width, height))} for i in owners]
    record = {"frame_index": draw(st.integers(0, 2)),
              "detections": detections, "masks": masks}
    # The parts of each kind, each part with the defects of its own kind.
    record_swaps = [st.just({"masks": [*masks, masks[-1]]})] if masks else []
    detection_swaps = [st.just({"class": "steam"}),
                       st.just({"bbox": [0.0, 0.0, 1e200, 1.0]})]
    other_size = st.tuples(st.integers(1, 4), st.integers(1, 4)).flatmap(
        lambda size: mask_fields(*size))
    out_of_range = st.sampled_from([-1, len(detections)]).map(
        lambda i: {"detection": i})
    mask_parts = [(m, [other_size, out_of_range,
                       st.just({"runs": [*m["runs"], 1]})])
                  for m in masks or []]
    kinds = [[(record, record_swaps)],
             [(d, detection_swaps) for d in detections], mask_parts]
    if draw(st.integers(0, 2)) == 2:
        kind = draw(st.sampled_from([k for k in kinds if k]))
        draw(spoil(*draw(st.sampled_from(kind))))
    return record


def annotation_records(width=8, height=6):
    """Mostly an annotation object for a width x height frame, now and then
    any JSON value."""
    return st.one_of(*[annotation_object(width, height) for _ in range(7)],
                     JSON)


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
    """The lines of two or three `annotation_records`, each written three
    times so that the tracker gets to report a flame.  Records that parse
    and hold a flame come first and records that do not parse last, so
    that a defect ends the stream after the tracker has reported, not
    before.  A line whose frame_index is an integer takes the next of
    `frame_indices` instead, repeats last."""
    records = sorted(draw(st.lists(annotation_records(width, height),
                                   min_size=2, max_size=3)), key=_rank)
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
