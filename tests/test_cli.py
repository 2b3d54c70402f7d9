import contextlib
import functools
import hashlib
import io
import itertools
import json
import logging
import os
import subprocess
import sys
import tempfile
import urllib.request

import numpy as np
import pytest
from hypothesis import example, given, settings

from flaremon import formats, labeling, pipeline, segment
from flaremon.cli import main
from flaremon.core import BBox, DetClass, Detection, Frame, Mask
from flaremon.errors import ParseError
from flaremon.ingest import write_annotation_stream
from flaremon.simulator import preset, render
from tests.annotation_fuzz import annotation_streams, frame_indices
from tests.bfs_oracle import segment_frame_bfs
from tests.fullframe_oracle import decode_runs
from tests.file_fuzz import (feature_csvs, frame_dirs, model_texts,
                             urlopen_replying, write_frame_dir)
from tests.conftest import TRAINING_LABELS, TRAINING_ROWS, feature_log_text


def run(*argv):
    return main(list(argv))


@pytest.fixture(scope="module")
def sim_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("sim")
    # small scene: patch the preset frame count via env-free CLI defaults is
    # not possible, so run the full clean_high preset once for the module
    assert run("simulate", "--preset", "clean_high",
               "--out", str(out / "clean")) == 0
    assert run("simulate", "--preset", "smoky_low",
               "--out", str(out / "smoky")) == 0
    return out


def test_simulate_outputs(sim_dir):
    clean = sim_dir / "clean"
    assert (clean / "annotations.jsonl").exists()
    assert (clean / "ground_truth.jsonl").exists()
    meta = json.loads((clean / "frames" / "meta.json").read_text())
    assert meta["frame_count"] == 200
    assert (clean / "frames" / "frame_000000.rgb").stat().st_size \
        == meta["width"] * meta["height"] * 3


def test_simulate_unknown_preset(tmp_path, capsys):
    assert run("simulate", "--preset", "bogus", "--out", str(tmp_path)) == 1


def test_feature_csv_train_eval_plot(tmp_path):
    rows = "\n".join(
        f"{r[0]},{r[1]},{r[2]},{lbl}" for r, lbl in zip(
            [[0.22, 0.62, 52], [0.14, 0.56, 43], [0.32, 0.42, 23],
             [0.40, 0.36, 31], [0.24, 0.51, 72], [0.51, 0.31, 34],
             [0.62, 0.24, 25], [1.72, 0.21, 19], [2.42, 0.15, 12]],
            ["high", "high", "high", "low", "high", "low", "low", "low",
             "low"]))
    csv = tmp_path / "features.csv"
    csv.write_text(rows + "\n")
    model_path = tmp_path / "model.json"
    assert run("train", "--features", str(csv),
               "--out", str(model_path)) == 0
    assert model_path.exists()
    assert run("eval", "--model", str(model_path), "--test", str(csv)) == 0


def test_train_monitor_flow(sim_dir, tmp_path, capsys):
    model_path = tmp_path / "model.json"
    # train on concatenated clean+smoky feature CSVs extracted via the
    # rule labeling path over the smoky annotations alone would be single
    # class, so train from both scenes' features
    log_clean = tmp_path / "clean.csv"
    clean = sim_dir / "clean"
    smoky = sim_dir / "smoky"
    assert run("train",
               "--annotations", str(smoky / "annotations.jsonl"),
               "--frames", str(smoky / "frames"),
               "--out", str(model_path)) == 2  # single-class data error

    # build a combined feature CSV from rule labels on both scenes
    import numpy as np
    from flaremon.pipeline import run_training
    from tests.test_pipeline import two_regime_stream
    model, _, _ = run_training(two_regime_stream(60))
    formats.save_model(model, model_path)

    log_path = tmp_path / "monitor.csv"
    assert run("monitor", "--model", str(model_path),
               "--input", str(smoky / "annotations.jsonl"),
               "--frames", str(smoky / "frames"),
               "--alert-window", "5", "--log", str(log_path)) == 0
    out = capsys.readouterr().out
    assert "ALERT" in out
    recs = formats.load_feature_csv(log_path)
    assert recs and all(r.label == "low" for r in recs[5:])

    svg_path = tmp_path / "fig.svg"
    assert run("plot", "--samples", str(log_path),
               "--out", str(svg_path)) == 0
    assert svg_path.read_text().count('class="marker') == len(recs)


def test_monitor_preset_input(tmp_path):
    from flaremon.pipeline import run_training
    from tests.test_pipeline import two_regime_stream
    model, _, _ = run_training(two_regime_stream(60))
    model_path = tmp_path / "model.json"
    formats.save_model(model, model_path)
    assert run("monitor", "--model", str(model_path),
               "--input", "preset:crossing_near_miss") == 0


def test_label_rule_mode(tmp_path):
    csv = tmp_path / "f.csv"
    csv.write_text("0.22,0.62,52\n2.42,0.15,12\n")
    out = tmp_path / "labels.jsonl"
    assert run("label", "--features", str(csv), "--mode", "rule",
               "--out", str(out)) == 0
    lines = [json.loads(l) for l in out.read_text().splitlines()]
    assert [l["label"] for l in lines] == ["high", "low"]
    assert all(l["source"] == "rule" for l in lines)


def test_train_log_without_annotations_is_usage_error(tmp_path, capsys):
    """Rows read from a feature CSV have no frame or track, so there is no
    training log to write."""
    csv = tmp_path / "features.csv"
    csv.write_text("".join(f"{r[0]},{r[1]},{r[2]},{lbl}\n" for r, lbl in
                           zip(TRAINING_ROWS.tolist(), TRAINING_LABELS)))
    log, model = tmp_path / "train.csv", tmp_path / "model.json"
    assert run("train", "--features", str(csv), "--log", str(log),
               "--out", str(model)) == 1
    assert "train --log needs --annotations and --frames" in \
        capsys.readouterr().err
    assert not log.exists() and not model.exists()


@pytest.mark.parametrize("extra", [("--review",), ("--labeling", "llm"),
                                   ("--labeling", "llm", "--review")])
def test_train_features_with_labeling_options_is_usage_error(tmp_path, capsys,
                                                             extra):
    """A feature CSV brings its own labels, which neither a review nor an
    LLM would see."""
    csv = tmp_path / "features.csv"
    csv.write_text("".join(f"{r[0]},{r[1]},{r[2]},{lbl}\n" for r, lbl in
                           zip(TRAINING_ROWS.tolist(), TRAINING_LABELS)))
    model = tmp_path / "model.json"
    assert run("train", "--features", str(csv), *extra,
               "--out", str(model)) == 1
    assert "train --features takes the CSV's labels: no --review or " \
        "--labeling llm" in capsys.readouterr().err
    assert not model.exists()


@pytest.mark.parametrize("args, what", [
    (("label", "--mode", "rule", "--endpoint", "http://nowhere.invalid/"),
     "label --mode rule"),
    (("label", "--model", "none"), "label --mode rule"),
    (("train", "--annotations", "missing.jsonl", "--frames", "missing",
      "--model", "none"), "train --labeling rule"),
    (("train", "--features", "CSV", "--endpoint", "http://nowhere.invalid/",
      "--model", "none"), "train --features")])
def test_llm_options_without_llm_labeling_are_usage_errors(tmp_path, capsys,
                                                          args, what):
    """Rule labels and a feature CSV's labels ask no LLM, so an endpoint or
    model given to them would go unused."""
    csv = tmp_path / "features.csv"
    csv.write_text("".join(f"{r[0]},{r[1]},{r[2]},{lbl}\n" for r, lbl in
                           zip(TRAINING_ROWS.tolist(), TRAINING_LABELS)))
    out = tmp_path / "out"
    args = [str(csv) if a == "CSV" else a for a in args]
    if args[0] == "label":
        args[1:1] = ["--features", str(csv)]
    assert run(*args, "--out", str(out)) == 1
    assert capsys.readouterr().err == \
        f"{what} takes no --endpoint or --model\n"
    assert not out.exists()


@pytest.mark.parametrize("extra", [
    ("--annotations", "missing.jsonl", "--frames", "missing"),
    ("--annotations", "missing.jsonl"), ("--frames", "missing")])
def test_train_features_with_annotations_is_usage_error(tmp_path, capsys,
                                                        extra):
    """A feature CSV is the whole training input: annotations or frames
    given beside it would be ignored."""
    csv = tmp_path / "features.csv"
    csv.write_text("".join(f"{r[0]},{r[1]},{r[2]},{lbl}\n" for r, lbl in
                           zip(TRAINING_ROWS.tolist(), TRAINING_LABELS)))
    model = tmp_path / "model.json"
    assert run("train", "--features", str(csv), *extra,
               "--out", str(model)) == 1
    assert "train takes --features or --annotations and --frames, not both" \
        in capsys.readouterr().err
    assert not model.exists()


@pytest.mark.parametrize("argv, message", [
    (("--input", "preset:bogus"),
     "argument --input: invalid choice: 'bogus' (choose from 'clean_high', "),
    (("--input", "preset:clean_high", "--alert-window", "0"),
     "argument --alert-window: invalid positive int value: '0'"),
    (("--input", "preset:clean_high", "--alert-window", "x"),
     "argument --alert-window: invalid positive int value: 'x'"),
    (("--input", "preset:clean_high", "--cooldown", "-1000"),
     "argument --cooldown: invalid non-negative int value: '-1000'"),
    (("--input", "preset:clean_high", "--cooldown", "1.5"),
     "argument --cooldown: invalid non-negative int value: '1.5'")])
def test_monitor_bad_option_is_usage_error(tmp_path, capsys, argv, message):
    assert run("monitor", "--model", str(tmp_path / "nope.json"),
               *argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: flaremon monitor") and message in err


def test_monitor_preset_with_frames_is_usage_error(tmp_path, capsys):
    # A preset renders its own frames, so --frames would go unread.
    assert run("monitor", "--model", str(tmp_path / "nope.json"), "--input",
               "preset:windy", "--frames", str(tmp_path / "no-such-dir")) == 1
    assert capsys.readouterr() == (
        "", "monitor --input preset:NAME takes no --frames\n")


def test_monitor_file_without_frames_is_usage_error(tmp_path, capsys):
    # Checked before the model is read and before --log is opened.
    log = tmp_path / "run.csv"
    log.write_bytes(b"an earlier run's log\n")
    assert run("monitor", "--model", str(tmp_path / "nope.json"), "--input",
               str(tmp_path / "annotations.jsonl"), "--log", str(log)) == 1
    assert capsys.readouterr() == (
        "", "monitor with a file --input needs --frames\n")
    assert log.read_bytes() == b"an earlier run's log\n"


@pytest.mark.parametrize("defect, message", [
    ("no annotations", "No such file or directory"),
    ("meta.json not JSON", "meta.json: invalid JSON: "),
    ("line 1 not JSON", "line 1: invalid JSON: ")])
def test_monitor_that_cannot_start_leaves_log_untouched(tmp_path, capsys,
                                                        defect, message):
    # The input's first pair is read before --log is opened.
    model, _ = pipeline.fit_efficiency_model(TRAINING_ROWS, TRAINING_LABELS)
    formats.save_model(model, tmp_path / "model.json")
    frames = tmp_path / "frames"
    write_frame_dir(frames, "{" if defect == "meta.json not JSON" else
                    '{"frame_count": 1, "width": 2, "height": 2}',
                    [12], bytes(12))
    annotations = tmp_path / "annotations.jsonl"
    if defect != "no annotations":
        annotations.write_text("{\n" if defect == "line 1 not JSON" else
                               '{"frame_index": 0, "detections": []}\n')
    log = tmp_path / "run.csv"
    log.write_bytes(b"an earlier run's log\n")
    assert run("monitor", "--model", str(tmp_path / "model.json"),
               "--input", str(annotations), "--frames", str(frames),
               "--log", str(log)) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and message in err
    assert log.read_bytes() == b"an earlier run's log\n"


@pytest.mark.parametrize("source", [
    ("--features", "features.csv"),
    ("--annotations", "annotations.jsonl", "--frames", "frames")])
def test_train_negative_seed_is_usage_error(tmp_path, monkeypatch, capsys,
                                            source):
    # Checked as the options are parsed, before any input is read: none of
    # these files exists.
    monkeypatch.chdir(tmp_path)
    assert run("train", *source, "--seed", "-1", "--out", "model.json") == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: flaremon train")
    assert "argument --seed: invalid non-negative int value: '-1'" in err


def test_usage_error_exit_code():
    assert run("train") in (1, 2)  # missing required --out
    assert run() == 1
    assert run("no-such-command") == 1


def test_missing_model_file_is_data_error(tmp_path):
    assert run("monitor", "--model", str(tmp_path / "nope.json"),
               "--input", "preset:clean_high") == 2


def test_model_of_wrong_shape_is_data_error(tmp_path, capsys):
    model, _ = pipeline.fit_efficiency_model(TRAINING_ROWS, TRAINING_LABELS)
    obj = json.loads(formats.model_to_json(model))
    obj["pca"]["components"] = [[1.0, 2.0]]
    model_path = tmp_path / "model.json"
    model_path.write_text(json.dumps(obj))
    assert run("monitor", "--model", str(model_path),
               "--input", "preset:clean_high") == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "pca.components" in err


def test_knn_model_of_even_k_is_data_error(tmp_path, capsys):
    model, _ = pipeline.fit_efficiency_model(TRAINING_ROWS, TRAINING_LABELS)
    obj = json.loads(formats.model_to_json(model))
    obj["classifier"] = {
        "kind": "knn", "parameter_count": 6,
        "parameters": {"samples": [[0.0, 0.0], [1.0, 1.0]],
                       "labels": ["high", "low"], "k": 2}}
    model_path = tmp_path / "model.json"
    model_path.write_text(json.dumps(obj))
    assert run("monitor", "--model", str(model_path),
               "--input", "preset:clean_high") == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "classifier.parameters.k" in err


def test_box_of_non_finite_area_is_data_error(tmp_path, table_model,
                                              capsys):
    ann_path, frames_dir = blank_frames_dir(tmp_path, 2, [])
    with open(ann_path, "w", encoding="utf-8") as fh:
        for i, bbox in enumerate([[0, 0, 2, 2], [0, 0, 1e200, 3]]):
            fh.write(json.dumps({"frame_index": i, "detections": [
                {"class": "flame", "bbox": bbox, "confidence": 0.9}]}) + "\n")
    assert run("monitor", "--model", table_model, "--input", ann_path,
               "--frames", frames_dir) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: line 2: bad detection record: box ")
    assert "non-finite area" in err and "Warning" not in err


@pytest.mark.parametrize("field, value", [
    ("parameter_count", float("inf")), ("parameter_count", 3.0),
    ("parameter_count", True), ("parameters.weights", [True, 1.0]),
    ("parameters.weights", [1.0, False]), ("parameters.bias", True),
], ids=str)
def test_model_field_of_wrong_type_is_data_error(tmp_path, capsys, field,
                                                 value):
    model, _ = pipeline.fit_efficiency_model(TRAINING_ROWS, TRAINING_LABELS)
    obj = json.loads(formats.model_to_json(model))
    assert obj["classifier"]["kind"] == "logistic"
    *path, key = ["classifier", *field.split(".")]
    functools.reduce(dict.__getitem__, path, obj)[key] = value
    model_path = tmp_path / "model.json"
    # json.dumps writes inf as Infinity; the file holds 1e400 instead.
    model_path.write_text(json.dumps(obj).replace("Infinity", "1e400"))
    assert run("monitor", "--model", str(model_path),
               "--input", "preset:clean_high") == 2
    out, err = capsys.readouterr()
    assert out == "" and f"model field classifier.{field}" in err[:60]
    assert err.startswith("error: ")


def test_deeply_nested_model_is_data_error(tmp_path, capsys):
    model_path = tmp_path / "model.json"
    model_path.write_text("[" * 100_000 + "]" * 100_000)
    assert run("monitor", "--model", str(model_path),
               "--input", "preset:clean_high") == 2
    assert capsys.readouterr().err.startswith("error: invalid model file: ")


@pytest.mark.parametrize("row, message", [
    ("0.3,0.4,20,bogus", "line 3: label 'bogus' is neither 'high' nor 'low'"),
    ("0.3,0.4,20,", "line 3: label '' is neither 'high' nor 'low'"),
    ("nan,0.4,20,low", "line 3: non-finite value in nan,0.4,20"),
    ("0.3,1e400,20,low", "line 3: non-finite value in 0.3,1e400,20"),
    ("0.3,0.4,-inf,low", "line 3: non-finite value in 0.3,0.4,-inf"),
    ("0.3,0.4,x,low", "line 3: could not convert string to float: 'x'"),
])
def test_bad_feature_csv_row_is_data_error(tmp_path, table_model, capsys,
                                           row, message):
    csv = tmp_path / "f.csv"
    csv.write_text("0.22,0.62,52,high\n2.42,0.15,12,low\n" + row + "\n"
                   "0.14,0.56,43,high\n1.72,0.21,19,low\n")
    assert run("eval", "--model", table_model, "--test", str(csv)) == 2
    assert run("train", "--features", str(csv),
               "--out", str(tmp_path / "model.json")) == 2
    assert capsys.readouterr().err == f"error: {message}\n" * 2
    assert not (tmp_path / "model.json").exists()


@pytest.mark.parametrize("field, value, message", [
    (7, "bogus", "line 3: label 'bogus' is neither 'high' nor 'low'"),
    (2, "nan", "line 3: non-finite value in nan,"),
    (5, "1e400", "line 3: non-finite value in "),
    (1, "1.5", "line 3: invalid literal for int() with base 10: '1.5'"),
])
def test_bad_feature_log_row_is_data_error(tmp_path, table_model, capsys,
                                           field, value, message):
    rows = [formats.StatusRecord(i, 1, pipeline.FeatureVector(*r), (0.0, 1.0),
                                  lbl)
            for i, (r, lbl) in enumerate(zip(TRAINING_ROWS.tolist(),
                                             TRAINING_LABELS))]
    lines = feature_log_text(rows, tmp_path / "rows.csv").splitlines()
    parts = lines[2].split(",")
    parts[field] = value
    lines[2] = ",".join(parts)
    log = tmp_path / "log.csv"
    log.write_text("\n".join(lines) + "\n")
    for argv in (["eval", "--model", table_model, "--test", str(log)],
                 ["train", "--features", str(log),
                  "--out", str(tmp_path / "model.json")],
                 ["plot", "--samples", str(log),
                  "--out", str(tmp_path / "fig.svg")]):
        assert run(*argv) == 2
        assert capsys.readouterr().err.startswith(f"error: {message}")


def write_stream(stream, out_dir):
    """Write (frame, annotation) pairs as an annotation file plus frames."""
    os.makedirs(out_dir, exist_ok=True)
    ann_path = os.path.join(out_dir, "annotations.jsonl")
    with open(ann_path, "w", encoding="utf-8") as fh:
        def frames():
            for frame, ann in stream:
                write_annotation_stream([ann], fh)
                yield frame
        formats.save_frames(frames(), os.path.join(out_dir, "frames"))
    return ann_path, os.path.join(out_dir, "frames")


def blank_frames_dir(tmp_path, count, indices):
    """`count` tiny frames and an annotation file naming `indices`."""
    frames_dir = tmp_path / "frames"
    formats.save_frames(
        [Frame(i, i / 25.0, 4, 3, np.full((3, 4, 3), i, dtype=np.uint8))
         for i in range(count)], frames_dir)
    ann_path = tmp_path / "annotations.jsonl"
    ann_path.write_text("".join(
        json.dumps({"frame_index": i, "detections": []}) + "\n"
        for i in indices))
    return str(ann_path), str(frames_dir)


def test_frame_stream_holds_one_frame(tmp_path, monkeypatch):
    ann_path, frames_dir = blank_frames_dir(tmp_path, 4, [0, 2])
    pulled = []
    load_frames = formats.load_frames

    def counting_load_frames(in_dir):
        for frame in load_frames(in_dir):
            pulled.append(frame.index)
            yield frame

    monkeypatch.setattr(formats, "load_frames", counting_load_frames)
    stream = formats.load_annotated_frames(ann_path, frames_dir)
    first = next(stream)
    assert pulled == [0]
    pairs = [first] + list(stream)
    assert [(f.index, a.frame_index) for f, a in pairs] == [(0, 0), (2, 2)]
    assert int(pairs[1][0].pixels[0, 0, 0]) == 2
    assert pulled == [0, 1, 2]


@pytest.mark.parametrize("indices", [[-1], [0, 4]])
def test_frame_stream_index_without_frame(tmp_path, indices):
    ann_path, frames_dir = blank_frames_dir(tmp_path, 4, indices)
    with pytest.raises(ParseError, match=f"no frame {indices[-1]} in"):
        list(formats.load_annotated_frames(ann_path, frames_dir))
    model, _ = pipeline.fit_efficiency_model(TRAINING_ROWS, TRAINING_LABELS)
    model_path = tmp_path / "model.json"
    formats.save_model(model, model_path)
    assert run("monitor", "--model", str(model_path), "--input", ann_path,
               "--frames", frames_dir) == 2


def tree_digest(root):
    """sha256 of every file under root, keyed by relative path."""
    out = {}
    for dirpath, _, names in os.walk(root):
        for name in names:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, root)] = hashlib.sha256(
                    fh.read()).hexdigest()
    return out


def test_simulate_matches_program_writers(sim_dir, tmp_path):
    expected = tmp_path / "expected"
    expected.mkdir()

    def frames(ann_fh, gt_fh):
        for rf in render(preset("clean_high")):
            write_annotation_stream([rf.annotation], ann_fh)
            gt_fh.write(formats.format_ground_truth(rf.frame.index, rf.truths)
                        + "\n")
            yield rf.frame

    with open(expected / "annotations.jsonl", "w", encoding="utf-8") as a, \
            open(expected / "ground_truth.jsonl", "w", encoding="utf-8") as g:
        formats.save_frames(frames(a, g), expected / "frames")
    actual = tree_digest(sim_dir / "clean")
    assert len(actual) == 203  # two JSONL files, meta.json, 200 frames
    assert actual == tree_digest(expected)


@pytest.fixture(scope="module")
def two_regime_dir(tmp_path_factory):
    from tests.test_pipeline import two_regime_stream
    return write_stream(two_regime_stream(10),
                        tmp_path_factory.mktemp("two_regime"))


@pytest.mark.parametrize("flags, reviews", [([], 0), (["--review"], 1)])
def test_train_review_flag_reaches_review(two_regime_dir, tmp_path,
                                          monkeypatch, flags, reviews):
    calls = []

    def spy_review(samples):
        calls.append(len(samples))
        return list(samples)

    monkeypatch.setattr(labeling, "review", spy_review)
    ann_path, frames_dir = two_regime_dir
    assert run("train", "--annotations", ann_path, "--frames", frames_dir,
               "--out", str(tmp_path / "model.json"), *flags) == 0
    assert len(calls) == reviews


def test_feature_csv_first_row_in_exponent_form(tmp_path):
    csv = tmp_path / "f.csv"
    csv.write_text("1e-1,0.5,10,high\n0.3,0.4,20,low\n2.0,0.2,5,low\n")
    rows = formats.load_feature_csv(csv)
    assert [r.features.smoke_flame_ratio for r in rows] == [0.1, 0.3, 2.0]
    assert [r.label for r in rows] == ["high", "low", "low"]
    csv.write_text("ratio,E,angle,label\n0.5,0.5,10,high\n")
    rows = formats.load_feature_csv(csv)
    assert len(rows) == 1 and rows[0].label == "high"


def test_train_review_end_of_input_is_data_error(two_regime_dir, tmp_path,
                                                 monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO(""))
    ann_path, frames_dir = two_regime_dir
    assert run("train", "--annotations", ann_path, "--frames", frames_dir,
               "--out", str(tmp_path / "model.json"), "--review") == 2
    assert "error: input ended at sample [0] of " in capsys.readouterr().err
    assert not (tmp_path / "model.json").exists()


@pytest.fixture(scope="module")
def three_stacks_head():
    """The first 40 frames of the three_stacks preset (320x240), with masks."""
    return [(rf.frame, rf.annotation)
            for rf in itertools.islice(render(preset("three_stacks")), 40)]


@pytest.fixture(scope="module")
def table_model(tmp_path_factory):
    model, _ = pipeline.fit_efficiency_model(TRAINING_ROWS, TRAINING_LABELS)
    path = tmp_path_factory.mktemp("model") / "model.json"
    formats.save_model(model, path)
    return str(path)


def box_only(pairs):
    return [(f, a._replace(masks=None)) for f, a in pairs]


def half_masked(pairs):
    """The frames with the masks of the odd detection indices dropped, so
    that some flames and smokes of each frame bring masks and the others
    are grown."""
    return [(f, a._replace(masks=[(i, m) for i, m in a.masks if i % 2 == 0]))
            for f, a in pairs]


def monitor_outputs(model, pairs, out_dir, capsys):
    """Exit code, feature log bytes and stdout of `monitor --log`."""
    ann_path, frames_dir = write_stream(pairs, out_dir)
    log_path = os.path.join(out_dir, "monitor.csv")
    code = run("monitor", "--model", model, "--input", ann_path,
               "--frames", frames_dir, "--log", log_path)
    with open(log_path, "rb") as fh:
        return code, fh.read(), capsys.readouterr().out


@pytest.mark.parametrize("strip", [box_only, half_masked])
def test_box_only_monitor_matches_pixel_bfs(strip, three_stacks_head,
                                            table_model, tmp_path,
                                            monkeypatch, capsys):
    outputs = []
    for grow in (segment_frame_bfs, segment.segment_frame):
        monkeypatch.setattr(segment, "segment_frame", grow)
        outputs.append(monitor_outputs(
            table_model, strip(three_stacks_head),
            str(tmp_path / grow.__name__), capsys))
    assert outputs[0] == outputs[1]
    code, log_bytes, _ = outputs[1]
    assert code == 0 and log_bytes.count(b"\n") > 90


def segmenter_loaded_by(*argv):
    """Whether `flaremon` on argv, run to its end in a fresh interpreter,
    loaded the region-grow segmenter."""
    code = ("import sys\nfrom flaremon.cli import main\n"
            f"assert main({list(argv)!r}) == 0\n"
            "print('flaremon.segment' in sys.modules)")
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(segment.__file__)))
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True).stdout.split()[-1]


def test_segmenter_loads_only_for_box_only_regions(three_stacks_head,
                                                  table_model, tmp_path):
    assert segmenter_loaded_by("monitor", "--model", table_model, "--input",
                               "preset:clean_high") == "False"
    ann_path, frames_dir = write_stream(box_only(three_stacks_head[:3]),
                                        str(tmp_path))
    assert segmenter_loaded_by("monitor", "--model", table_model, "--input",
                               ann_path, "--frames", frames_dir) == "True"


@pytest.mark.parametrize("strip", [box_only, half_masked])
def test_off_frame_box_only_detections_skip_their_records(
        strip, three_stacks_head, table_model, tmp_path, capsys, caplog):
    # Flame and smoke boxes centred at (345, 20), right of the 320 px frame.
    extra = (Detection(BBox(330, 10, 360, 30), DetClass.FLAME, 0.9),
             Detection(BBox(330, 10, 360, 30), DetClass.SMOKE, 0.9))
    plain = strip(three_stacks_head)
    stray = [(f, a._replace(detections=a.detections + extra))
             if f.index >= 5 else (f, a) for f, a in plain]
    expect = monitor_outputs(table_model, plain, str(tmp_path / "plain"),
                             capsys)
    with caplog.at_level(logging.WARNING, logger="flaremon.pipeline"):
        got = monitor_outputs(table_model, stray, str(tmp_path / "stray"),
                              capsys)
    assert got == expect
    oob = "seed (345, 20) outside 320x240"
    warnings = [r.getMessage() for r in caplog.records]
    # Per frame, the reported flame's region comes before the smoke's.
    expect = []
    for i in range(5, 40):
        if i >= 7:
            expect.append(f"frame {i} track 4 skipped: {oob}")
        expect.append(f"frame {i} smoke detection 7 skipped: {oob}")
    assert warnings == expect


def test_second_mask_for_a_detection_is_data_error(three_stacks_head,
                                                   table_model, tmp_path,
                                                   capsys):
    def doubled(ann):
        return ann._replace(masks=ann.masks + ann.masks[:1])

    pairs = [(f, doubled(a) if f.index == 3 else a)
             for f, a in three_stacks_head[:6]]
    ann_path, frames_dir = write_stream(pairs, str(tmp_path))
    assert run("monitor", "--model", table_model, "--input", ann_path,
               "--frames", frames_dir) == 2
    assert capsys.readouterr().err == \
        "error: line 4: second mask for detection 0\n"


def test_plot_of_bare_feature_csv_is_data_error(tmp_path, capsys):
    csv = tmp_path / "features.csv"
    csv.write_text("ratio,E,angle,label\n0.22,0.62,52.0,high\n")
    assert run("plot", "--samples", str(csv),
               "--out", str(tmp_path / "fig.svg")) == 2
    assert capsys.readouterr().err == "error: missing feature-log header\n"
    assert not (tmp_path / "fig.svg").exists()


def test_mask_of_wrong_size_is_data_error(three_stacks_head, table_model,
                                          tmp_path, capsys):
    def widened(ann):
        return ann._replace(masks=tuple(
            (i, Mask.from_array(np.pad(decode_runs(m), ((0, 0), (0, 40)))))
            for i, m in ann.masks))

    pairs = [(f, widened(a) if f.index == 8 else a)
             for f, a in three_stacks_head[:10]]
    ann_path, frames_dir = write_stream(pairs, str(tmp_path))
    assert run("monitor", "--model", table_model, "--input", ann_path,
               "--frames", frames_dir) == 2
    err = capsys.readouterr().err
    assert "error: frame 8 detection " in err
    assert ": mask is 360x240, frame is 320x240" in err


@pytest.fixture(scope="module")
def fuzz_frames(tmp_path_factory):
    """48 equal 8x6 frames, enough for every index of `frame_indices(9)`:
    smoke over a flame with an edge on a dark background."""
    out = str(tmp_path_factory.mktemp("fuzz") / "frames")
    pix = np.full((6, 8, 3), (20, 22, 28), dtype=np.uint8)
    pix[0:2, 1:7] = (90, 90, 90)
    pix[3:6, 1:7] = (250, 90, 40)
    pix[3:6, 1] = (255, 150, 70)
    formats.save_frames((Frame(i, i / 25.0, 8, 6, pix) for i in range(48)),
                         out)
    return out


@settings(max_examples=80, deadline=None)
@given(annotation_streams(8, 6))
def test_monitor_on_fuzzed_lines_exits_0_or_2(fuzz_frames, table_model, lines):
    with tempfile.TemporaryDirectory() as tmp:
        ann_path = os.path.join(tmp, "annotations.jsonl")
        with open(ann_path, "w", encoding="utf-8") as fh:
            fh.write("".join(line + "\n" for line in lines))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            code = run("monitor", "--model", table_model, "--input", ann_path,
                       "--frames", fuzz_frames,
                       "--log", os.path.join(tmp, "monitor.csv"))
    assert code in (0, 2), err.getvalue()
    assert "Traceback" not in err.getvalue()
    if code == 0:  # every line loaded: one line per frame, in order
        indices = [json.loads(line)["frame_index"] for line in lines]
        assert all(a < b for a, b in zip(indices, indices[1:])), indices


def run_quietly(*argv):
    """Exit code and stderr of one CLI call, stdout dropped."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        code = run(*argv)
    return code, err.getvalue()


def fuzz_lines(indices):
    """Annotation lines for `fuzz_frames` at these frame indices: a 6x3
    flame with its mask under a smoke box."""
    mask = np.zeros((6, 8), dtype=bool)
    mask[3:6, 1:7] = True
    runs = list(Mask.from_array(mask).runs)
    return "".join(json.dumps({
        "frame_index": i,
        "detections": [
            {"class": "flame", "bbox": [1, 3, 7, 6], "confidence": 0.9},
            {"class": "smoke", "bbox": [1, 0, 7, 2], "confidence": 0.8}],
        "masks": [{"detection": 0, "width": 8, "height": 6,
                   "runs": runs}]}) + "\n" for i in indices)


def test_mask_of_unreported_flame_of_wrong_size_is_data_error(
        fuzz_frames, table_model, tmp_path, capsys):
    # Two frames, so the flame's track never reports; its 10x6 mask is
    # still checked against the 8x6 frame.
    wide = np.zeros((6, 10), dtype=bool)
    wide[3:6, 1:7] = True
    mask = {"detection": 0, "width": 10, "height": 6,
            "runs": list(Mask.from_array(wide).runs)}
    ann_path = tmp_path / "annotations.jsonl"
    ann_path.write_text("".join(
        json.dumps({**json.loads(line), "masks": [mask]}) + "\n"
        for line in fuzz_lines(range(2)).splitlines()))
    assert run("monitor", "--model", table_model, "--input", str(ann_path),
               "--frames", fuzz_frames) == 2
    assert capsys.readouterr().err == \
        "error: frame 0 detection 0: mask is 10x6, frame is 8x6\n"


@pytest.fixture(scope="module")
def fuzz_stream(fuzz_frames):
    """`fuzz_lines` for the first three frames; the tracker reports the
    flame in the last."""
    ann_path = os.path.join(os.path.dirname(fuzz_frames), "annotations.jsonl")
    with open(ann_path, "w", encoding="utf-8") as fh:
        fh.write(fuzz_lines(range(3)))
    return ann_path


def test_fuzz_stream_reports_records(fuzz_stream, fuzz_frames, table_model,
                                     tmp_path):
    log = tmp_path / "monitor.csv"
    assert run("monitor", "--model", table_model, "--input", fuzz_stream,
               "--frames", fuzz_frames, "--log", str(log)) == 0
    assert len(formats.load_feature_csv(log)) == 1


def monitor_log(lines, frames_dir, model):
    """Exit code, stderr and feature-log rows (None on an error) of
    `monitor` on these annotation lines."""
    with tempfile.TemporaryDirectory() as tmp:
        ann_path, log = (os.path.join(tmp, name)
                         for name in ("annotations.jsonl", "monitor.csv"))
        with open(ann_path, "w", encoding="utf-8") as fh:
            fh.write(lines)
        code, err = run_quietly("monitor", "--model", model, "--input",
                                ann_path, "--frames", frames_dir,
                                "--log", log)
        rows = formats.load_feature_csv(log) if code == 0 else None
    return code, err, rows


@settings(max_examples=40, deadline=None)
@given(frame_indices(6))
@example([0, 0, 1, 2, 3, 4])
@example([0, 2, 7, 8, 13, 14])
def test_monitor_steps_once_per_line(fuzz_frames, table_model, indices):
    """Tracker and alert window count lines, so a gap in frame_index adds
    no step: the lines at frames 0-5 log the same rows, bar the frame.  A
    repeated frame_index is a ParseError naming its line."""
    code, err, rows = monitor_log(fuzz_lines(indices), fuzz_frames,
                                  table_model)
    repeat = next((n for n in range(1, 6) if indices[n] == indices[n - 1]),
                  None)
    if repeat is not None:
        assert (code, err) == (2, f"error: line {repeat + 1}: frame_index "
                                  f"{indices[repeat]} after {indices[repeat]}\n")
        return
    code0, err0, dense = monitor_log(fuzz_lines(range(6)), fuzz_frames,
                                     table_model)
    assert (code, err) == (code0, err0) == (0, "")
    assert len(dense) == 4
    assert rows == [r._replace(frame=indices[r.frame]) for r in dense]


@settings(max_examples=150, deadline=None)
@given(model_texts())
def test_monitor_and_eval_on_fuzzed_models_exit_0_or_2(
        fuzz_stream, fuzz_frames, lines_csv, text):
    with tempfile.TemporaryDirectory() as tmp:
        model_path = os.path.join(tmp, "model.json")
        with open(model_path, "w", encoding="utf-8") as fh:
            fh.write(text)
        results = [
            run_quietly("monitor", "--model", model_path, "--input",
                        fuzz_stream, "--frames", fuzz_frames),
            run_quietly("eval", "--model", model_path, "--test", lines_csv)]
    codes = {code for code, _ in results}
    assert len(codes) == 1 and codes <= {0, 2}, results
    assert not any("Traceback" in err for _, err in results)


@pytest.fixture(scope="module")
def lines_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("csv") / "table.csv"
    path.write_text("".join(f"{r[0]},{r[1]},{r[2]},{lbl}\n" for r, lbl in
                            zip(TRAINING_ROWS.tolist(), TRAINING_LABELS)))
    return str(path)


@settings(max_examples=60, deadline=None)
@given(feature_csvs())
def test_eval_and_train_on_fuzzed_csvs_exit_0_or_2(table_model, text):
    with tempfile.TemporaryDirectory() as tmp:
        csv = os.path.join(tmp, "features.csv")
        with open(csv, "w", encoding="utf-8") as fh:
            fh.write(text)
        try:
            rows = formats.load_feature_csv(csv)
        except ParseError:
            rows = None
        results = [
            run_quietly("eval", "--model", table_model, "--test", csv),
            run_quietly("train", "--features", csv,
                        "--out", os.path.join(tmp, "model.json"))]
    for code, err in results:
        assert code in (0, 2) and "Traceback" not in err, results
    if rows is None:
        assert [code for code, _ in results] == [2, 2]
    else:
        assert all(np.isfinite(r.features).all() for r in rows)
        assert {r.label for r in rows} <= {"high", "low", None}


META = '{"frame_count": 3, "fps": 25.0, "height": 6, "width": 8}'
FRAME = 8 * 6 * 3


@pytest.mark.parametrize("meta, sizes, message", [
    (META.replace(', "width": 8', ""), [FRAME] * 3, "width None is not"),
    (META.replace('"width": 8', '"width": 8.0'), [FRAME] * 3, "width 8.0"),
    (META.replace('"width": 8', '"width": "8"'), [FRAME] * 3, "width '8'"),
    (META.replace('"height": 6', '"height": true'), [FRAME] * 3,
     "height True"),
    (META.replace('"frame_count": 3', '"frame_count": 3.0'), [FRAME] * 3,
     "frame_count 3.0"),
    (META.replace('"frame_count": 3', '"frame_count": 1e400'), [FRAME] * 3,
     "frame_count inf"),
    (META.replace('"fps": 25.0', '"fps": 0'), [FRAME] * 3, "fps 0 is not"),
    (META.replace('"fps": 25.0', '"fps": "x"'), [FRAME] * 3, "fps 'x'"),
    ("[8, 6]", [FRAME] * 3, "meta.json: must hold a JSON object"),
    ("[" * 100_000 + "]" * 100_000, [FRAME] * 3, "meta.json: invalid JSON"),
    (META, [FRAME, FRAME - 1, FRAME], "frame_000001.rgb: expected 144 bytes"),
    (META, [FRAME, 2 * FRAME, FRAME], "frame_000001.rgb: expected 144 bytes"),
], ids=["no-width", "float-width", "string-width", "bool-height",
        "float-count", "huge-count", "zero-fps", "string-fps", "list",
        "nested", "short-frame", "doubled-frame"])
def test_bad_frame_dir_is_data_error(fuzz_stream, fuzz_frames, table_model,
                                     tmp_path, meta, sizes, message):
    with open(os.path.join(fuzz_frames, "frame_000000.rgb"), "rb") as fh:
        pixels = fh.read()
    write_frame_dir(tmp_path / "frames", meta, sizes, pixels)
    code, err = run_quietly("monitor", "--model", table_model, "--input",
                            fuzz_stream, "--frames", str(tmp_path / "frames"))
    assert code == 2 and err.startswith("error: "), err
    assert message in err and "Traceback" not in err


@settings(max_examples=150, deadline=None)
@given(frame_dirs())
def test_monitor_on_fuzzed_frame_dirs_exits_0_or_2(fuzz_stream, fuzz_frames,
                                                   table_model, case):
    with open(os.path.join(fuzz_frames, "frame_000000.rgb"), "rb") as fh:
        pixels = fh.read()
    with tempfile.TemporaryDirectory() as tmp:
        write_frame_dir(tmp, *case, pixels)
        code, err = run_quietly("monitor", "--model", table_model, "--input",
                                fuzz_stream, "--frames", tmp)
    assert code in (0, 2) and "Traceback" not in err, err


@pytest.mark.parametrize("body", [
    b'{"choices": [{"message": {"content": 5}}]}',
    b'{"choices": [{"message": {"content": null}}]}',
    b"[" * 100_000 + b"]" * 100_000,
], ids=["number", "null", "nested"])
def test_malformed_llm_reply_is_data_error(lines_csv, tmp_path, monkeypatch,
                                           body):
    monkeypatch.setattr(urllib.request, "urlopen", urlopen_replying(body))
    code, err = run_quietly("label", "--features", lines_csv, "--mode", "llm",
                            "--endpoint", "http://127.0.0.1:9/",
                            "--out", str(tmp_path / "labels.jsonl"))
    assert code == 2 and err.startswith("error: "), err
