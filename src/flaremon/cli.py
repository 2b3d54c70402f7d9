"""Command-line entry point.

Subcommands: simulate, label, train, monitor, plot, eval.
Exit codes: 0 ok, 1 usage error, 2 data error, 3 external-service error.
"""

from __future__ import annotations

import argparse
import itertools
import sys

from . import classify, formats, pipeline
from .errors import AuthError, FlaremonError, ParseError, Unavailable

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_SERVICE = 3

# --endpoint and --model when labeling by LLM; rule labeling takes neither.
LLM_ENDPOINT = "https://api.openai.com/v1/chat/completions"
LLM_MODEL = "gpt-4"


def _preset_name(name):
    """--preset, checked as argparse's `choices` would; the simulator loads
    only when a command names a preset, not at start-up."""
    from .simulator import PRESETS
    if name not in PRESETS:
        raise argparse.ArgumentTypeError(
            f"invalid choice: {name!r} (choose from "
            f"{', '.join(map(repr, PRESETS))})")
    return name


def _input(value):
    """--input: a path, or preset:NAME with NAME checked as --preset is."""
    if value.startswith("preset:"):
        _preset_name(value.split(":", 1)[1])
    return value


def _int_at_least(least, what):
    """An int option of at least `least`, read as argparse reads `int`."""
    def convert(text):
        try:
            if int(text) >= least:
                return int(text)
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"invalid {what} int value: {text!r}")
    return convert


def _input_stream(args):
    if args.input.startswith("preset:"):
        from .simulator import preset, render, rendered_stream
        return rendered_stream(render(preset(args.input.split(":", 1)[1])))
    return formats.load_annotated_frames(args.input, args.frames)


def _labeled(rows, what):
    """The (k, 3) features and k labels of feature-CSV rows, all of which
    must carry a label."""
    labels = [r.label for r in rows]
    if None in labels:
        raise ParseError(f"{what} must carry a label column")
    return pipeline.feature_matrix(r.features for r in rows), labels


def _llm_cfg(args, labeling):
    """The LLM client of --endpoint and --model, or None to label by rule."""
    if labeling == "rule":
        return None
    from .labeling import LlmClientConfig
    return LlmClientConfig(
        LLM_ENDPOINT if args.endpoint is None else args.endpoint,
        LLM_MODEL if args.model is None else args.model)


def _unused_llm_options(args, what):
    """Print a usage error and return True if --endpoint or --model is
    given to `what`, which labels without the LLM."""
    if args.endpoint is None and args.model is None:
        return False
    print(f"{what} takes no --endpoint or --model", file=sys.stderr)
    return True


def cmd_simulate(args):
    from .simulator import preset, render
    count = formats.save_scene(render(preset(args.preset)), args.out)
    print(f"wrote {count} frames to {args.out}")
    return EXIT_OK


def cmd_label(args):
    if args.mode == "rule" and _unused_llm_options(args, "label --mode rule"):
        return EXIT_USAGE
    from .labeling import label_samples
    labeled = label_samples(
        [r.features for r in formats.load_feature_csv(args.features)],
        llm_cfg=_llm_cfg(args, args.mode), do_review=args.review)
    formats.save_labels(labeled, args.out)
    print(f"labeled {len(labeled)} samples -> {args.out}")
    return EXIT_OK


def cmd_train(args):
    if args.features:
        if args.annotations or args.frames:
            print("train takes --features or --annotations and --frames, "
                  "not both", file=sys.stderr)
            return EXIT_USAGE
        if args.log:
            print("train --log needs --annotations and --frames: a feature "
                  "CSV has no frames or tracks to log", file=sys.stderr)
            return EXIT_USAGE
        if args.review or args.labeling == "llm":
            print("train --features takes the CSV's labels: no --review or "
                  "--labeling llm", file=sys.stderr)
            return EXIT_USAGE
        if _unused_llm_options(args, "train --features"):
            return EXIT_USAGE
        X, labels = _labeled(formats.load_feature_csv(args.features),
                             "feature CSV")
        model, accuracies = pipeline.fit_efficiency_model(X, labels,
                                                          seed=args.seed)
    else:
        if not (args.annotations and args.frames):
            print("train needs --features or both --annotations and --frames",
                  file=sys.stderr)
            return EXIT_USAGE
        if args.labeling == "rule" and _unused_llm_options(
                args, "train --labeling rule"):
            return EXIT_USAGE
        model, accuracies, rows = pipeline.run_training(
            formats.load_annotated_frames(args.annotations, args.frames),
            llm_cfg=_llm_cfg(args, args.labeling),
            do_review=args.review, seed=args.seed)
    formats.save_model(model, args.out)
    if args.log:
        with formats.feature_log_writer(args.log) as write_row:
            for row in rows:
                write_row(row)
    print("held-out accuracy per classifier:")
    for kind in classify.KINDS:
        print(f"  {kind:<10} {accuracies[kind]:.3f}")
    print(f"selected: {model.classifier.kind} -> {args.out}")
    return EXIT_OK


def cmd_monitor(args):
    from_preset = args.input.startswith("preset:")
    if from_preset and args.frames is not None:
        print("monitor --input preset:NAME takes no --frames",
              file=sys.stderr)
        return EXIT_USAGE
    if not from_preset and not args.frames:
        print("monitor with a file --input needs --frames", file=sys.stderr)
        return EXIT_USAGE
    model = formats.load_model(args.model)
    # The input's first pair is read before --log is opened, so an input
    # that cannot start leaves an earlier log as it was.
    stream = _input_stream(args)
    head = list(itertools.islice(stream, 1))
    n_alerts = 0
    with formats.feature_log_writer(args.log) as write_row:
        for rec, alert in pipeline.run_monitor(
                model, itertools.chain(head, stream), args.alert_window,
                args.cooldown):
            f = rec.features
            print(f"frame {rec.frame} track {rec.track_id} "
                  f"ratio={f.smoke_flame_ratio:.3f} E={f.rgb_index:.3f} "
                  f"angle={f.flame_angle:.1f} -> {rec.label}")
            write_row(rec)
            if alert is not None:
                n_alerts += 1
                print(f"ALERT track {alert.track_id}: low efficiency frames "
                      f"{alert.first_frame}-{alert.last_frame}")
    print(f"{n_alerts} alert(s)")
    return EXIT_OK


def cmd_plot(args):
    formats.save_scatter_plot(formats.load_feature_csv(args.samples),
                              args.out)
    print(f"wrote {args.out}")
    return EXIT_OK


def cmd_eval(args):
    model = formats.load_model(args.model)
    X, labels = _labeled(formats.load_feature_csv(args.test), "test CSV")
    _, predicted = pipeline.classify_features(model, X)
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
    p.add_argument("--preset", required=True, type=_preset_name)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_simulate)

    llm = argparse.ArgumentParser(add_help=False)  # label's and train's
    llm.add_argument("--review", action="store_true")
    llm.add_argument("--endpoint", help="LLM labeling only; default "
                     + LLM_ENDPOINT)
    llm.add_argument("--model", help=f"LLM labeling only; default {LLM_MODEL}")

    p = sub.add_parser("label", parents=[llm], help="label a feature CSV")
    p.add_argument("--features", required=True)
    p.add_argument("--mode", choices=("llm", "rule"), default="rule")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_label)

    p = sub.add_parser("train", parents=[llm], help="train an efficiency model")
    p.add_argument("--annotations")
    p.add_argument("--frames")
    p.add_argument("--features", help="pre-extracted labeled feature CSV")
    p.add_argument("--labeling", choices=("llm", "rule"), default="rule")
    p.add_argument("--seed", type=_int_at_least(0, "non-negative"),
                   default=0)
    p.add_argument("--log", help="write the training feature log CSV here")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("monitor", help="stream efficiency status and alerts")
    p.add_argument("--model", required=True)
    p.add_argument("--input", required=True, type=_input,
                   help="annotation JSONL path or preset:NAME")
    p.add_argument("--frames", help="frame directory for file inputs")
    p.add_argument("--alert-window", type=_int_at_least(1, "positive"),
                   default=5)
    p.add_argument("--cooldown", type=_int_at_least(0, "non-negative"),
                   default=50)
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
