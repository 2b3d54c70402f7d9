"""Hypothesis strategies for model files and feature CSVs near the formats
`flaremon.pipeline` and `flaremon.cli` read: a model of each classifier
kind with a few values left out, swapped for other JSON or given as a
bool, a string, a float for an integer or a number outside the float
range; and feature CSVs, bare or in feature-log form, whose fields are
now and then not finite, not numbers, or labels other than high and low,
or a field short.
pytest does not collect this file."""

from __future__ import annotations

import copy
import json

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


@st.composite
def model_object(draw):
    """A valid model of one kind, then 0-3 edits at any depth: a value
    left out or replaced by junk or a near miss."""
    obj = {"schema_version": 1, "metadata": {"created": "2024-01-01T00:00:00Z"},
           "standardization": STANDARDIZATION, "pca": PCA,
           "classifier": draw(st.sampled_from(CLASSIFIERS))}
    obj = copy.deepcopy(obj)
    for _ in range(draw(st.integers(0, 3))):
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
