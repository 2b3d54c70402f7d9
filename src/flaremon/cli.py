"""Command-line entry point.

Subcommands: simulate, label, train, monitor, plot, eval.
Exit codes: 0 ok, 1 usage error, 2 data error, 3 external-service error.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys

from . import classify, pipeline
from .errors import AuthError, FlaremonError, ParseError, Unavailable
from .features import FeatureVector
from .ingest import read_annotation_stream, write_annotation_stream
from .labeling import LlmClientConfig
from .pipeline import MonitorConfig
from .simulator import PRESET_NAMES, preset, render

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_SERVICE = 3


def _frame_stream(annotations_path, frames_dir):
    """Pair each annotation with its frame, holding one frame at a time.

    Annotation indices never decrease and frames come in index order, so
    a merge-join of the two streams suffices.
    """
    frames = pipeline.load_frames(frames_dir)
    frame = next(frames, None)
    with open(annotations_path, "r", encoding="utf-8") as fh:
        for ann in read_annotation_stream(fh):
            while frame is not None and frame.index < ann.frame_index:
                frame = next(frames, None)
            if frame is None or frame.index != ann.frame_index:
                raise ParseError(f"no frame {ann.frame_index} in {frames_dir}")
            yield frame, ann


def _input_stream(args):
    if args.input.startswith("preset:"):
        name = args.input.split(":", 1)[1]
        return pipeline.rendered_stream(render(preset(name)))
    if not args.frames:
        raise ParseError("--frames is required with a file input")
    return _frame_stream(args.input, args.frames)


def _is_float(text):
    try:
        float(text)
    except ValueError:
        return False
    return True


def _read_feature_csv(path):
    """Features + optional labels from either a feature-log CSV or a bare
    ratio,E,angle[,label] CSV."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if lines and lines[0] == pipeline.FEATURE_LOG_HEADER:
        rows = pipeline.parse_feature_log(text)
        return [r.features for r in rows], [r.label for r in rows]
    feats, labels = [], []
    # The first line is a header when none of its feature fields is a number.
    start = 1 if lines and not any(
        _is_float(p) for p in lines[0].split(",")[:3]) else 0
    for i, line in enumerate(lines[start:], start=start + 1):
        parts = [p.strip() for p in line.split(",")]
        if len(parts) not in (3, 4):
            raise ParseError(f"expected 3 or 4 columns, got {len(parts)}", i)
        values, label = pipeline.parse_features(
            parts[:3], parts[3] if len(parts) == 4 else None, i)
        feats.append(FeatureVector(*values))
        labels.append(label)
    return feats, labels


def cmd_simulate(args):
    spec = preset(args.preset)
    os.makedirs(args.out, exist_ok=True)

    def frames(ann_fh, gt_fh):
        for rf in render(spec):
            write_annotation_stream([rf.annotation], ann_fh)
            gt_fh.write(pipeline.format_ground_truth(rf.frame.index, rf.truths))
            gt_fh.write("\n")
            yield rf.frame

    with open(os.path.join(args.out, "annotations.jsonl"), "w",
              encoding="utf-8") as ann_fh, \
            open(os.path.join(args.out, "ground_truth.jsonl"), "w",
                 encoding="utf-8") as gt_fh:
        count = pipeline.save_frames(frames(ann_fh, gt_fh),
                                     os.path.join(args.out, "frames"))
    print(f"wrote {count} frames to {args.out}")
    return EXIT_OK


def cmd_label(args):
    feats, _ = _read_feature_csv(args.features)
    labeled = pipeline.label_samples(
        feats, mode=args.mode, do_review=args.review,
        llm_cfg=LlmClientConfig(endpoint=args.endpoint, model=args.model))
    with open(args.out, "w", encoding="utf-8") as fh:
        for s in labeled:
            f = s.features
            fh.write(json.dumps({
                "ratio": f.smoke_flame_ratio, "E": f.rgb_index,
                "angle": f.flame_angle, "label": s.label,
                "source": s.source, "transcript": s.transcript,
            }, separators=(",", ":")))
            fh.write("\n")
    print(f"labeled {len(labeled)} samples -> {args.out}")
    return EXIT_OK


def cmd_train(args):
    if args.features:
        feats, labels = _read_feature_csv(args.features)
        if any(lbl is None for lbl in labels):
            raise ParseError("feature CSV must carry a label column")
        model, report = pipeline.fit_efficiency_model(
            pipeline.feature_matrix(feats), labels, seed=args.seed)
        rows = []
    else:
        if not (args.annotations and args.frames):
            print("train needs --features or both --annotations and --frames",
                  file=sys.stderr)
            return EXIT_USAGE
        model, report, rows = pipeline.run_training(
            _frame_stream(args.annotations, args.frames),
            labeling_mode=args.labeling,
            llm_cfg=LlmClientConfig(endpoint=args.endpoint, model=args.model),
            do_review=args.review, seed=args.seed)
    pipeline.save_model(model, args.out)
    if args.log and rows:
        with open(args.log, "w", encoding="utf-8") as fh:
            fh.write(pipeline.format_feature_log(rows))
    print("held-out accuracy per classifier:")
    for kind in ("logistic", "svm", "knn", "mlp"):
        print(f"  {kind:<10} {report['accuracies'][kind]:.3f}")
    print(f"selected: {report['selected']} -> {args.out}")
    return EXIT_OK


def cmd_monitor(args):
    model = pipeline.load_model(args.model)
    cfg = MonitorConfig(alert_window=args.alert_window,
                        cooldown=args.cooldown)
    n_alerts = 0
    with (open(args.log, "w", encoding="utf-8") if args.log
          else contextlib.nullcontext()) as log_fh:
        if log_fh:
            log_fh.write(pipeline.FEATURE_LOG_HEADER + "\n")
        for rec, alert in pipeline.run_monitor(model, _input_stream(args),
                                               cfg):
            f = rec.features
            print(f"frame {rec.frame} track {rec.track_id} "
                  f"ratio={f.smoke_flame_ratio:.3f} E={f.rgb_index:.3f} "
                  f"angle={f.flame_angle:.1f} -> {rec.label}")
            if log_fh:
                log_fh.write(pipeline.format_feature_row(rec) + "\n")
            if alert is not None:
                n_alerts += 1
                print(f"ALERT track {alert.track_id}: low efficiency frames "
                      f"{alert.first_frame}-{alert.last_frame}")
    print(f"{n_alerts} alert(s)")
    return EXIT_OK


def cmd_plot(args):
    with open(args.samples, "r", encoding="utf-8") as fh:
        rows = pipeline.parse_feature_log(fh.read())
    svg = pipeline.emit_scatter_plot(
        [(r.pcs[0], r.pcs[1], r.label) for r in rows])
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(svg)
    print(f"wrote {args.out}")
    return EXIT_OK


def cmd_eval(args):
    model = pipeline.load_model(args.model)
    feats, labels = _read_feature_csv(args.test)
    if any(lbl is None for lbl in labels):
        raise ParseError("test CSV must carry a label column")
    _, predicted = pipeline.classify_features(model,
                                              pipeline.feature_matrix(feats))
    acc, confusion = classify.score(labels, predicted)
    print(f"accuracy: {acc:.3f} on {len(labels)} samples")
    print("confusion (true, predicted):")
    for (t, p), n in sorted(confusion.items()):
        print(f"  {t:<5} {p:<5} {n}")
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(prog="flaremon")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="render a synthetic scene to disk")
    p.add_argument("--preset", required=True, choices=PRESET_NAMES)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("label", help="label a feature CSV")
    p.add_argument("--features", required=True)
    p.add_argument("--mode", choices=("llm", "rule"), default="rule")
    p.add_argument("--review", action="store_true")
    p.add_argument("--endpoint", default="https://api.openai.com/v1/chat/completions")
    p.add_argument("--model", default="gpt-4")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_label)

    p = sub.add_parser("train", help="train an efficiency model")
    p.add_argument("--annotations")
    p.add_argument("--frames")
    p.add_argument("--features", help="pre-extracted labeled feature CSV")
    p.add_argument("--labeling", choices=("llm", "rule"), default="rule")
    p.add_argument("--review", action="store_true")
    p.add_argument("--endpoint", default="https://api.openai.com/v1/chat/completions")
    p.add_argument("--model", default="gpt-4")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--log", help="write the training feature log CSV here")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("monitor", help="stream efficiency status and alerts")
    p.add_argument("--model", required=True)
    p.add_argument("--input", required=True,
                   help="annotation JSONL path or preset:NAME")
    p.add_argument("--frames", help="frame directory for file inputs")
    p.add_argument("--alert-window", type=int, default=5)
    p.add_argument("--cooldown", type=int, default=50)
    p.add_argument("--log", help="write the feature log CSV here")
    p.set_defaults(func=cmd_monitor)

    p = sub.add_parser("plot", help="scatter plot of labeled PC samples")
    p.add_argument("--samples", required=True, help="feature log CSV")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_plot)

    p = sub.add_parser("eval", help="evaluate a model on labeled features")
    p.add_argument("--model", required=True)
    p.add_argument("--test", required=True)
    p.set_defaults(func=cmd_eval)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    try:
        return args.func(args)
    except (AuthError, Unavailable) as exc:
        print(f"external service error: {exc}", file=sys.stderr)
        return EXIT_SERVICE
    except (FlaremonError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
