"""Hypothesis strategies for annotation lines near the schema of
`flaremon.ingest`.  Two annotation objects in three are sound; the others
have one defect, of a kind that is given or else drawn first from
`DEFECT_KINDS`: a field of the record, of a detection or of a
mask left out or of the wrong JSON type, or a number given as a near
miss: an integer as a float, as n + 0.5 or as a bool, including every
mask field and run, a box coordinate or confidence as a bool, a numeric
string, an integer too large for a float or a float of 1e200.  The other
kinds are a detection without its box, an unknown class, a box whose area
overflows, and, in one mask (added if the object has none), another size
than the frame's, a run one too long or too short or one run more, a
negative run though its runs sum right, the mask record given twice or a
second mask for its detection, or a detection out of range.  Now and then
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
def spoil(draw, part, how, key=None):
    """Give `part` (a dict) one defect in place: a field (`key`, if
    given) "left out", a field made "junk", or a "near miss": an integer
    field (or one run) given as a float, as n + 0.5 or as a bool, a float
    field (or one coordinate) given as a bool, a string, a huge integer or
    +-1e200."""
    if how == "left out":
        del part[key or draw(st.sampled_from(sorted(part)))]
    elif how == "junk":
        part[draw(st.sampled_from(sorted(part)))] = draw(JSON)
    else:
        key = draw(st.sampled_from(sorted(
            k for k, v in part.items()
            if type(v) in (int, float) or type(v) is list and v
            and type(v[0]) in (int, float))))
        value = part[key]
        if type(value) is list:
            i = draw(st.integers(0, len(value) - 1))  # a run or coordinate
            value[i] = draw(near_miss(value[i]))
        else:
            part[key] = draw(near_miss(value))


@st.composite
def mask_fields(draw, width, height):
    """The size and runs of a mask of width x height whose runs sum
    right."""
    cuts = sorted(draw(st.lists(st.integers(0, width * height), max_size=4)))
    runs = [b - a for a, b in zip([0, *cuts], [*cuts, width * height])]
    return {"width": width, "height": height, "runs": runs}


# (part, defect, field): a field of the record, of a detection or of a mask
# left out, made junk or given as a near miss, the box of a detection left
# out, and the defects of one kind of part.
DEFECT_KINDS = (
    *((part, how, None) for part in ("record", "detection", "mask")
      for how in ("left out", "junk", "near miss")),
    ("detection", "left out", "bbox"),
    ("detection", "unknown class", None),
    ("detection", "overflowing box", None),
    *(("mask", how, None) for how in (
        "of another size", "runs one off", "negative run", "second mask",
        "detection out of range")))


@st.composite
def defect(draw, record, width, height, kind=None):
    """Give `record` one defect of `kind`, one of DEFECT_KINDS, or of a kind
    drawn from them.  A mask defect goes to one of its masks, added for
    detection 0 if it has none."""
    part, how, key = kind or draw(st.sampled_from(DEFECT_KINDS))
    target = detection = draw(st.sampled_from(record["detections"]))
    if part == "record":
        target = record
    elif part == "mask":
        masks = record["masks"] = record["masks"] or [
            {"detection": 0, **draw(mask_fields(width, height))}]
        target = mask = draw(st.sampled_from(masks))
        runs = mask["runs"]
    if how in ("left out", "junk", "near miss"):
        draw(spoil(target, how, key))
    elif how == "unknown class":
        detection["class"] = "steam"
    elif how == "overflowing box":
        detection["bbox"] = [0.0, 0.0, 1e200, 1.0]
    elif how == "of another size":
        mask.update(draw(mask_fields(draw(st.integers(1, 4)),
                                     draw(st.integers(1, 4)))))
    elif how == "runs one off":  # one run off by one, or a run of 1 more
        i = draw(st.integers(0, len(runs)))
        if i == len(runs):
            runs.append(1)
        else:
            runs[i] += draw(st.sampled_from([-1, 1])) if runs[i] else 1
    elif how == "negative run":
        mask["runs"] = [-1, runs[0] + 1, *runs[1:]]
    elif how == "second mask":  # the same record again, or another
        other = {"detection": mask["detection"],
                 **draw(mask_fields(width, height))}
        masks.append(draw(st.sampled_from([dict(mask), other])))
    else:
        mask["detection"] = draw(st.sampled_from(
            [-1, len(record["detections"])]))


@st.composite
def detection_record(draw, width, height):
    """A box around a point of the frame, some of it off the frame."""
    x, y = draw(st.floats(-1, width + 1)), draw(st.floats(-1, height + 1))
    w, h = draw(st.floats(0.5, width)), draw(st.floats(0.5, height))
    return {"class": draw(st.sampled_from(["flame"] * 3 + ["smoke"] * 2)),
            "bbox": [x - w / 2, y - h / 2, x + w / 2, y + h / 2],
            "confidence": draw(st.floats(0, 1))}


@st.composite
def annotation_object(draw, width, height, kind=None):
    """An annotation object for a width x height frame with one to three
    detections, and with or without masks, each of the frame's size and
    for a detection of its own.  A third of the time it has one `defect`,
    and always one of `kind` if that is given; leaving out the record's
    detections gives a frame with none."""
    detections = draw(st.lists(detection_record(width, height), min_size=1,
                               max_size=3))
    owners = draw(st.lists(st.integers(0, len(detections) - 1),
                           unique=True, max_size=3) | st.none())
    masks = None if owners is None else [
        {"detection": i, **draw(mask_fields(width, height))} for i in owners]
    record = {"frame_index": draw(st.integers(0, 2)),
              "detections": detections, "masks": masks}
    if kind or draw(st.integers(0, 2)) == 2:
        draw(defect(record, width, height, kind))
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
