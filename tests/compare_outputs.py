"""Byte-compare the CLI outputs of this checkout with another checkout's.

Run from the repository root, naming the other checkout's root:

    python tests/compare_outputs.py ../flaremon-before

Each checkout runs its own ``flaremon.cli`` (``python -m flaremon.cli``
with its own ``src`` and ``perfbench`` on the path, nothing on stdin) on
the same inputs.  Every command's exit code is compared too:

- ``simulate`` of every preset: every file it writes;
- ``train`` on the seed-41 benchmark training scene: the model file (all
  but ``metadata.created``), the ``--log`` CSV, stdout and stderr;
- the same training run with ``pipeline.train_all_classifiers`` recorded:
  each of the four classifiers it fits, as JSON, whose floats round-trip
  exactly.  The model file keeps only the selected one;
- ``monitor --log`` with that model on every preset and on the seed-41
  benchmark monitor scene, with its masks, half-masked (the masks of the
  odd detection indices dropped, so that each frame has grown and masked
  flames and smokes), box-only, and box-only with stray boxes: from frame
  5 on a flame and a smoke box right of the frame, and on every frame a
  smoke box with no flame below it, and half-masked with those stray boxes.
  The stray boxes make ``monitor`` warn on stderr, so that the text and the
  order of its warnings are compared too.  Also box-only with overlapping
  boxes: on every frame a smoke box over the top half of the first flame
  box, and a 10x10 flame box in the plain sky, whose region leaks to fill
  its whole 13x13 window.  For each: the CSV, stdout and stderr.
- the same ``monitor --log`` outputs on ``three_stacks`` with a staggered
  birth, with masks and box-only: the right flame's detection is left out
  before frame 10, so its track warms up in frames 10 and 11 while its
  smoke also lies over the middle flame.  This compares which flame owns
  a smoke region.
- ``label --mode rule`` on the ``train --log`` CSV, and ``label --mode
  llm`` on its first six rows against a local stub chat endpoint, whose
  first reply is a 500, so that one retry is compared too: the labels
  file, stdout and stderr;
- ``train --features`` on the labeled ``train --log`` rows: the model file
  (all but ``metadata.created``), stdout and stderr;
- ``eval`` of the trained model on the ``train --log`` CSV and of the
  ``--features`` model on the monitor scene's log: stdout and stderr;
- ``plot`` of the ``train --log`` CSV and of that monitor log: the SVG,
  stdout and stderr;
- six commands that fail, for their exit code, stdout and stderr:
  ``monitor`` on monitor-scene lines whose third line repeats the second's
  ``frame_index`` (exit 2, ``line 3: frame_index 1 after 1``) and on lines
  whose second line has a mask one run longer than its size (exit 2,
  ``line 2: bad mask: runs sum to ...``); ``eval`` of the model file with
  ``schema_version`` 2 (exit 2); ``train --features`` on the ``train
  --log`` rows with a constant ``E`` column (exit 2, ``feature column 1 is
  constant``); ``label --mode rule --review`` on the six-row log with an
  empty stdin (exit 2, ``input ended at sample [0] of 6``); and ``label
  --mode llm`` against a stub whose reply names neither label (exit 2).

Prints one line per output and exits 1 if any differs.  Under each
differing output that both checkouts wrote as UTF-8 text, up to 10 lines
of its unified diff follow, this checkout's side as ``+``.  pytest does
not collect this file.
"""

from __future__ import annotations

import difflib
import itertools
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

PRESETS = ("clean_high", "smoky_low", "windy", "three_stacks",
           "crossing_near_miss")
WRITE_SCENE = ("import sys\n"
               "from flaremon import formats\n"
               "from flaremon.simulator import render\n"
               "from perfbench.scenes import scene\n"
               "formats.save_scene(render(scene(41, int(sys.argv[2]))), "
               "sys.argv[1])\n")
FIT_CLASSIFIERS = ("import json, sys\n"
                   "from flaremon import cli, pipeline\n"
                   "fitted, fit = [], pipeline.train_all_classifiers\n"
                   "def record(*args, **kwargs):\n"
                   "    fitted.append(fit(*args, **kwargs))\n"
                   "    return fitted[-1]\n"
                   "pipeline.train_all_classifiers = record\n"
                   "cli.main(sys.argv[2:])\n"
                   "with open(sys.argv[1], 'w') as out:\n"
                   "    json.dump({kind: [m.parameter_count, m.parameters]\n"
                   "               for kind, m in fitted[0].items()}, out)\n")
# The stub endpoint's replies to `label --mode llm`, the last repeating.
LLM_SCRIPT = [(500, None), (200, "high"), (200, "It looks LOW to me."),
              (200, "not low: high")]


def run(tree, work, *argv):
    """(stdout, stderr, exit code) of one command in `tree`'s code, run in
    `work` with an empty stdin."""
    env = dict(os.environ, PYTHONPATH=f"{tree / 'src'}{os.pathsep}{tree}")
    done = subprocess.run([sys.executable, *argv], cwd=work, env=env,
                          stdin=subprocess.DEVNULL, capture_output=True)
    return done.stdout, done.stderr, done.returncode


def cli(tree, work, *argv):
    out, err, code = run(tree, work, "-m", "flaremon.cli", *argv)
    return {"stdout": out, "stderr": err, "exit": str(code).encode()}


def read(path):
    return path.read_bytes() if path.exists() else b""


def model_doc(path):
    """A model file without its `metadata.created` time."""
    doc = json.loads(path.read_text())
    doc["metadata"].pop("created")
    return json.dumps(doc).encode()


def files(root):
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(Path(root).rglob("*")) if p.is_file()}


def outputs(tree, work, llm):
    """{name: bytes} of every compared output of one checkout, labeling by
    LLM through the stub server `llm`.  Paths are relative to `work`, so
    that no output names the directory."""
    got = {}
    for name in PRESETS:
        cli(tree, work, "simulate", "--preset", name, "--out", f"sim/{name}")
        got.update({f"simulate {name} {k}": v
                    for k, v in files(work / "sim" / name).items()})

    for role, name in ((1, "train_scene"), (0, "monitor_scene")):
        run(tree, work, "-c", WRITE_SCENE, name, str(role))
    scene_dir = work / "monitor_scene"
    meta = json.loads((scene_dir / "frames" / "meta.json").read_text())
    w, h = meta["width"], meta["height"]
    off_frame = [{"class": cls, "bbox": [w + 10, 10, w + 40, 30],
                  "confidence": 0.9} for cls in ("flame", "smoke")]
    orphan = {"class": "smoke", "bbox": [0, h - 10, 10, h], "confidence": 0.9}
    sky = {"class": "flame", "bbox": [20, 20, 30, 30], "confidence": 0.9}
    with open(scene_dir / "annotations.jsonl") as src, \
            open(scene_dir / "half_masked.jsonl", "w") as half, \
            open(scene_dir / "box_only.jsonl", "w") as plain, \
            open(scene_dir / "box_only_overlap.jsonl", "w") as overlap, \
            open(scene_dir / "box_only_stray.jsonl", "w") as stray, \
            open(scene_dir / "half_masked_stray.jsonl", "w") as half_stray:
        for line in src:
            record = json.loads(line)
            halved = dict(record, masks=[
                m for m in record["masks"] if m["detection"] % 2 == 0])
            half.write(json.dumps(halved) + "\n")
            record.pop("masks", None)
            plain.write(json.dumps(record) + "\n")
            x0, y0, x1, y1 = next(d["bbox"] for d in record["detections"]
                                  if d["class"] == "flame")
            over = {"class": "smoke", "confidence": 0.9,
                    "bbox": [x0, y0 - (y1 - y0) / 2, x1, (y0 + y1) / 2]}
            overlap.write(json.dumps(dict(
                record, detections=record["detections"] + [over, sky]))
                + "\n")
            strays = (off_frame if record["frame_index"] >= 5 else []) + [
                orphan]
            for out, rec in ((stray, record), (half_stray, halved)):
                out.write(json.dumps(dict(
                    rec, detections=rec["detections"] + strays)) + "\n")

    os.mkdir(work / "staggered")
    with open(work / "sim" / "three_stacks" / "annotations.jsonl") as src, \
            open(work / "staggered" / "masks.jsonl", "w") as masked, \
            open(work / "staggered" / "box_only.jsonl", "w") as plain:
        for line in src:
            record = json.loads(line)
            if record["frame_index"] < 10:  # right flame: detection 2
                del record["detections"][2]
                record["masks"] = [
                    dict(m, detection=m["detection"] - (m["detection"] > 2))
                    for m in record["masks"] if m["detection"] != 2]
            masked.write(json.dumps(record) + "\n")
            record.pop("masks")
            plain.write(json.dumps(record) + "\n")

    train = cli(tree, work, "train", "--annotations",
                "train_scene/annotations.jsonl", "--frames",
                "train_scene/frames", "--out", "model.json",
                "--log", "train.csv")
    got.update({f"train {k}": v for k, v in train.items()})
    got["train --log"] = (work / "train.csv").read_bytes()
    got["train model (no metadata.created)"] = model_doc(work / "model.json")
    run(tree, work, "-c", FIT_CLASSIFIERS, "classifiers.json", "train",
        "--annotations", "train_scene/annotations.jsonl", "--frames",
        "train_scene/frames", "--out", "model_all.json")
    fitted = json.loads((work / "classifiers.json").read_text())
    got.update({f"train_all_classifiers {kind}": json.dumps(m).encode()
                for kind, m in fitted.items()})

    frames = ["--frames", "monitor_scene/frames"]
    inputs = [(f"preset:{p}", []) for p in PRESETS] + [
        ("monitor_scene/annotations.jsonl", frames),
        ("monitor_scene/half_masked.jsonl", frames),
        ("monitor_scene/box_only.jsonl", frames),
        ("monitor_scene/box_only_overlap.jsonl", frames),
        ("monitor_scene/box_only_stray.jsonl", frames),
        ("monitor_scene/half_masked_stray.jsonl", frames)] + [
        (f"staggered/{name}.jsonl", ["--frames", "sim/three_stacks/frames"])
        for name in ("masks", "box_only")]
    for i, (source, extra) in enumerate(inputs):
        csv = f"monitor{i}.csv"
        result = cli(tree, work, "monitor", "--model", "model.json",
                     "--input", source, *extra, "--log", csv)
        label = f"monitor {source}"
        got.update({f"{label} {k}": v for k, v in result.items()})
        got[f"{label} --log"] = read(work / csv)

    with open(work / "train.csv") as log, \
            open(work / "train_head.csv", "w") as head:
        head.writelines(log.readlines()[:7])  # the header and six rows
    llm.set_script(LLM_SCRIPT)
    for mode, source, extra in (
            ("rule", "train.csv", []),
            ("llm", "train_head.csv", ["--endpoint", llm.endpoint])):
        out = f"labels_{mode}.jsonl"
        result = cli(tree, work, "label", "--features", source, "--mode",
                     mode, *extra, "--out", out)
        got.update({f"label --mode {mode} {k}": v for k, v in result.items()})
        got[f"label --mode {mode} --out"] = read(work / out)

    result = cli(tree, work, "train", "--features", "train.csv", "--out",
                 "model_features.json")
    got.update({f"train --features {k}": v for k, v in result.items()})
    got["train --features model (no metadata.created)"] = model_doc(
        work / "model_features.json")

    monitor_log = f"monitor{len(PRESETS)}.csv"  # the monitor scene's masks
    for model, test in (("model.json", "train.csv"),
                        ("model_features.json", monitor_log)):
        result = cli(tree, work, "eval", "--model", model, "--test", test)
        got.update({f"eval {model} {test} {k}": v for k, v in result.items()})
    for samples in ("train.csv", monitor_log):
        out = f"plot_{samples}.svg"
        result = cli(tree, work, "plot", "--samples", samples, "--out", out)
        got.update({f"plot {samples} {k}": v for k, v in result.items()})
        got[f"plot {samples} --out"] = read(work / out)

    os.mkdir(work / "bad")
    with open(scene_dir / "annotations.jsonl") as src:
        first, second, third = map(json.loads, src.readlines()[:3])
    mask = second["masks"][0]
    long_mask = dict(second, masks=[dict(mask, runs=mask["runs"] + [1]),
                                    *second["masks"][1:]])
    for name, records in (
            ("repeat", [first, second,
                        dict(third, frame_index=second["frame_index"])]),
            ("mask_sum", [first, long_mask])):
        with open(work / "bad" / f"{name}.jsonl", "w") as out:
            out.writelines(json.dumps(r) + "\n" for r in records)
    model = json.loads((work / "model.json").read_text())
    (work / "bad" / "model_v2.json").write_text(
        json.dumps(dict(model, schema_version=2)))
    with open(work / "train.csv") as log, \
            open(work / "bad" / "constant.csv", "w") as constant:
        for row in log.readlines()[1:]:  # ratio, E 0.5, angle, label
            f = row.rstrip("\n").split(",")
            constant.write(f"{f[2]},0.5,{f[4]},{f[7]}\n")
    llm.set_script([(200, "I cannot tell.")])
    for name, argv in (
            ("monitor repeated frame_index",
             ["monitor", "--model", "model.json", "--input",
              "bad/repeat.jsonl", *frames]),
            ("monitor mask runs off its size",
             ["monitor", "--model", "model.json", "--input",
              "bad/mask_sum.jsonl", *frames]),
            ("eval schema_version 2",
             ["eval", "--model", "bad/model_v2.json", "--test",
              "train.csv"]),
            ("train --features constant E",
             ["train", "--features", "bad/constant.csv", "--out",
              "bad/model.json"]),
            ("label --review empty stdin",
             ["label", "--features", "train_head.csv", "--mode", "rule",
              "--review", "--out", "bad/review.jsonl"]),
            ("label --mode llm reply names no label",
             ["label", "--features", "train_head.csv", "--mode", "llm",
              "--endpoint", llm.endpoint, "--out", "bad/llm.jsonl"])):
        got.update({f"fails: {name} {k}": v
                    for k, v in cli(tree, work, *argv).items()})
    return got


def text_diff(before, after, limit=10):
    """Up to `limit` lines of the unified diff from `before` to `after`,
    or none unless both are bytes that decode as UTF-8."""
    try:
        old, new = before.decode(), after.decode()
    except (AttributeError, UnicodeDecodeError):
        return []
    return list(itertools.islice(difflib.unified_diff(
        old.splitlines(), new.splitlines(), "before", "after", lineterm=""),
        limit))


def main(argv):
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    trees = [Path(__file__).resolve().parents[1], Path(argv[0]).resolve()]
    sys.path[:0] = [str(trees[0]), str(trees[0] / "src")]
    from tests.conftest import StubLlmServer
    llm = StubLlmServer()
    try:
        with tempfile.TemporaryDirectory() as tmp:
            results = []
            for i, tree in enumerate(trees):
                work = Path(tmp) / str(i)
                work.mkdir()
                results.append(outputs(tree, work, llm))
    finally:
        llm.close()
    this, other = results
    differ = 0
    for name in sorted(set(this) | set(other)):
        same = this.get(name) == other.get(name)
        differ += not same
        print(f"{'same  ' if same else 'DIFFER'} {name} "
              f"({len(this.get(name, b''))} bytes)")
        if not same:
            for line in text_diff(other.get(name), this.get(name)):
                print(f"    {line}")
    print(f"{len(this)} outputs, {differ} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
