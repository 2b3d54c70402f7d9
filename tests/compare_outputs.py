"""Byte-compare the CLI outputs of this checkout with another checkout's.

Run from the repository root, naming the other checkout's root:

    python tests/compare_outputs.py ../flaremon-before

Each checkout runs its own ``flaremon.cli`` (``python -m flaremon.cli``
with its own ``src`` and ``perfbench`` on the path) on the same inputs:

- ``simulate`` of every preset: every file it writes;
- ``train`` on the seed-41 benchmark training scene: the model file (all
  but ``metadata.created``), the ``--log`` CSV, stdout and stderr;
- ``monitor --log`` with that model on every preset and on the seed-41
  benchmark monitor scene, with its masks, box-only, and box-only with
  stray boxes: from frame 5 on a flame and a smoke box right of the frame,
  and on every frame a smoke box with no flame below it.  The stray boxes
  make ``monitor`` warn on stderr, so that the text and the order of its
  warnings are compared too.  For each: the CSV, stdout and stderr.

Prints one line per output and exits 1 if any differs.  pytest does not
collect this file.
"""

from __future__ import annotations

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


def run(tree, work, *argv):
    """(stdout, stderr) of one command in `tree`'s code, run in `work`."""
    env = dict(os.environ, PYTHONPATH=f"{tree / 'src'}{os.pathsep}{tree}")
    done = subprocess.run([sys.executable, *argv], cwd=work, env=env,
                          capture_output=True)
    return done.stdout, done.stderr


def cli(tree, work, *argv):
    out, err = run(tree, work, "-m", "flaremon.cli", *argv)
    return {"stdout": out, "stderr": err}


def files(root):
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(Path(root).rglob("*")) if p.is_file()}


def outputs(tree, work):
    """{name: bytes} of every compared output of one checkout.  Paths are
    relative to `work`, so that no output names the directory."""
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
    with open(scene_dir / "annotations.jsonl") as src, \
            open(scene_dir / "box_only.jsonl", "w") as plain, \
            open(scene_dir / "box_only_stray.jsonl", "w") as stray:
        for line in src:
            record = json.loads(line)
            record.pop("masks", None)
            plain.write(json.dumps(record) + "\n")
            if record["frame_index"] >= 5:
                record["detections"] += off_frame
            record["detections"].append(orphan)
            stray.write(json.dumps(record) + "\n")

    train = cli(tree, work, "train", "--annotations",
                "train_scene/annotations.jsonl", "--frames",
                "train_scene/frames", "--out", "model.json",
                "--log", "train.csv")
    got.update({f"train {k}": v for k, v in train.items()})
    got["train --log"] = (work / "train.csv").read_bytes()
    doc = json.loads((work / "model.json").read_text())
    doc["metadata"].pop("created")
    got["train model (no metadata.created)"] = json.dumps(doc).encode()

    frames = ["--frames", "monitor_scene/frames"]
    inputs = [(f"preset:{p}", []) for p in PRESETS] + [
        ("monitor_scene/annotations.jsonl", frames),
        ("monitor_scene/box_only.jsonl", frames),
        ("monitor_scene/box_only_stray.jsonl", frames)]
    for i, (source, extra) in enumerate(inputs):
        csv = f"monitor{i}.csv"
        result = cli(tree, work, "monitor", "--model", "model.json",
                     "--input", source, *extra, "--log", csv)
        label = f"monitor {source}"
        got.update({f"{label} {k}": v for k, v in result.items()})
        got[f"{label} --log"] = (work / csv).read_bytes() \
            if (work / csv).exists() else b""
    return got


def main(argv):
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    trees = [Path(__file__).resolve().parents[1], Path(argv[0]).resolve()]
    with tempfile.TemporaryDirectory() as tmp:
        results = []
        for i, tree in enumerate(trees):
            work = Path(tmp) / str(i)
            work.mkdir()
            results.append(outputs(tree, work))
    this, other = results
    differ = 0
    for name in sorted(set(this) | set(other)):
        same = this.get(name) == other.get(name)
        differ += not same
        print(f"{'same  ' if same else 'DIFFER'} {name} "
              f"({len(this.get(name, b''))} bytes)")
    print(f"{len(this)} outputs, {differ} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
