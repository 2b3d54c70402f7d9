"""Hypothesis strategies for the files `flaremon.formats` reads and for
LLM replies: a model of each classifier kind with a few values left out,
swapped for other JSON or given as a bool, a string, a float for an
integer or a number outside the float range; feature CSVs, bare or in
feature-log form, whose fields are now and then not finite, not numbers,
or labels other than high and low, or a field short; frame directories
whose meta.json is spoiled the same way and whose frame files are now
and then cut short, extended or absent; and chat-completion reply bodies
spoiled the same way.
pytest does not collect this file."""

from __future__ import annotations

import copy
import io
import json
import os

from hypothesis import strategies as st

from tests.annotation_fuzz import JSON

STANDARDIZATION = {"means": [0.6, 0.4, 30.0], "stds": [0.7, 0.16, 19.0]}
PCA = {"components": [[0.6, -0.6, -0.5], [0.1, 0.5, -0.8]],
       "eigenvalues": [2.0, 0.7], "explained_variance_fraction": [0.66, 0.24]}
LINEAR = {"weights": [1.5, -2.0], "bias": 0.25}
CLASSIFIERS = [
    {"kind": "logistic", "parameters": LINEAR, "parameter_count": 3},
    {"kind": "svm", "parameters": LINEAR, "parameter_count": 3},
    {"kind": "knn", "parameter_count": 9, "parameters": {
        "samples": [[0.0, 0.0], [1.0, 1.0], [-2.0, 0.5]],
        "labels": ["high", "low", "low"], "k": 3}},
    {"kind": "mlp", "parameter_count": 9, "parameters": {
        "W1": [[0.5, -0.25], [0.1, 0.3]], "b1": [0.0, 0.2],
        "W2": [[1.0], [-1.0]], "b2": [0.1]}},
]

# Values that stand in for a number: a bool, a string, a float where an
# integer goes, and numbers outside the float range (1e400 reads as inf).
NEAR_MISS = st.sampled_from([True, False, "1", 3.0, 2.5, 10 ** 400,
                             float("inf"), float("-inf"), float("nan")])


def _paths(obj, prefix=()):
    """Every path to a value inside a JSON object."""
    yield prefix
    items = (obj.items() if isinstance(obj, dict)
             else enumerate(obj) if isinstance(obj, list) else ())
    for key, value in items:
        yield from _paths(value, prefix + (key,))


def _spoil(draw, obj, max_edits=3):
    """0..max_edits edits at any depth of a JSON object: a value left out
    or replaced by junk or a near miss."""
    for _ in range(draw(st.integers(0, max_edits))):
        paths = [p for p in _paths(obj) if p]
        if not paths:
            break
        *parent, key = draw(st.sampled_from(paths))
        holder = obj
        for k in parent:
            holder = holder[k]
        if draw(st.booleans()) and isinstance(holder, dict):
            del holder[key]
        else:
            holder[key] = draw(NEAR_MISS | JSON)
    return obj


@st.composite
def model_object(draw):
    """A valid model of one kind, then 0-3 edits at any depth: a value
    left out or replaced by junk or a near miss."""
    obj = {"schema_version": 1, "metadata": {"created": "2024-01-01T00:00:00Z"},
           "standardization": STANDARDIZATION, "pca": PCA,
           "classifier": draw(st.sampled_from(CLASSIFIERS))}
    return _spoil(draw, copy.deepcopy(obj))


def model_texts():
    """One model file: mostly a near-valid model, now and then any JSON
    value or a line that is not JSON."""
    return st.one_of(
        model_object().map(lambda o: json.dumps(o).replace("Infinity",
                                                           "1e400")),
        model_object().map(json.dumps),
        JSON.map(json.dumps),
        st.text(max_size=8))


GOOD = st.sampled_from(["0.22", "0.62", "52", "1e-1", "2.42", "0.15", "12",
                        "-3", " 0.4 "])
BAD = st.sampled_from(["nan", "inf", "-inf", "1e400", "-1e400", "", "x",
                       "True", "0x10", "1,5"])
LABEL = st.sampled_from(["high", "low"])


@st.composite
def feature_row(draw, n_numbers, ints=0):
    """Numbers then a label; one row in ten has a bad field, and one in
    thirty a field too few."""
    fields = [draw(st.sampled_from(["0", "3", "12"])) for _ in range(ints)]
    fields += [draw(GOOD) for _ in range(n_numbers)]
    fields.append(draw(LABEL))
    if draw(st.integers(0, 9)) == 0:
        fields[draw(st.integers(0, len(fields) - 1))] = draw(
            BAD | st.sampled_from(["high", "bogus", "1.5"]))
    if draw(st.integers(0, 29)) == 0:
        del fields[draw(st.integers(0, len(fields) - 1))]
    return ",".join(fields)


def rows(row):
    """Mostly enough rows to train on, now and then fewer."""
    return st.lists(row, min_size=3, max_size=10) | st.lists(row, max_size=2)


def feature_csvs():
    """A feature CSV: a feature log (header, then frame, track, ratio, E,
    angle, pc1, pc2, label), or bare ratio,E,angle[,label] rows with an
    optional header."""
    log = rows(feature_row(5, ints=2)).map(
        lambda rows: "frame,track_id,ratio,E,angle,pc1,pc2,label\n"
        + "".join(r + "\n" for r in rows))
    bare = st.tuples(st.sampled_from(["", "ratio,E,angle,label\n"]),
                     rows(feature_row(3))).map(
        lambda t: t[0] + "".join(r + "\n" for r in t[1]))
    return log | bare | bare


# Not JSON, JSON nested too deep to decode, and JSON of the wrong shape.
BROKEN_JSON = st.sampled_from(["", "{", "[" * 100_000 + "]" * 100_000,
                               "[]", "null", '"x"', "3"])


@st.composite
def frame_dirs(draw, width=8, height=6, count=3):
    """(meta.json text, frame file sizes): a meta.json for `count` frames
    of width x height with 0-2 edits, or now and then text that is not a
    JSON object; each frame file holds width * height * 3 bytes, and now
    and then fewer, more or none (size None)."""
    meta = _spoil(draw, {"width": width, "height": height, "fps": 25.0,
                         "frame_count": count}, max_edits=2)
    text = draw(st.just(json.dumps(meta)) | st.just(json.dumps(meta))
                | BROKEN_JSON)
    size = width * height * 3
    sizes = [draw(st.sampled_from([size] * 6 + [0, size - 1, size + 1,
                                                2 * size, None]))
             for _ in range(count)]
    return text.replace("Infinity", "1e400"), sizes


@st.composite
def llm_replies(draw):
    """A chat-completion reply body: one whose content names high or low,
    with 0-2 edits at any depth, or now and then any JSON, bytes that are
    not JSON or not UTF-8, or JSON nested too deep to decode."""
    content = draw(st.sampled_from(["high", "LOW", "It is low.", "unsure",
                                    "", "high? no, low"]))
    body = _spoil(draw, {"choices": [{"message": {"content": content}}]},
                  max_edits=2)
    text = draw(st.just(json.dumps(body)) | st.just(json.dumps(body))
                | JSON.map(json.dumps) | BROKEN_JSON)
    return draw(st.just(text.encode()) | st.just(b"\xff\xfe" + text.encode()))


def write_frame_dir(out_dir, meta_text, sizes, pixels):
    """A frame directory with this meta.json text, and frame i holding the
    first sizes[i] bytes of `pixels` repeated (no file when None)."""
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "meta.json"), "w", encoding="utf-8") as fh:
        fh.write(meta_text)
    for i, size in enumerate(sizes):
        if size is not None:
            with open(os.path.join(out_dir, f"frame_{i:06d}.rgb"), "wb") as fh:
                fh.write((pixels * 3)[:size])


class Reply(io.BytesIO):
    """What urlopen returns: a status and a body to read."""
    status = 200


def urlopen_replying(body):
    """A stand-in for urllib.request.urlopen answering `body` to every
    request."""
    return lambda request, timeout=None: Reply(body)
