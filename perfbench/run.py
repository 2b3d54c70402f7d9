"""The flaremon benchmark.

    python3 -m perfbench.run --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (see WORKLOADS and README.md) for S seconds, checks every
output against the reference computation in perfbench.reference, and
prints as its last line one JSON object with `correct`, `attempted`,
`failed` and `metrics`: the end-to-end metrics with --trace 0, the
per-layer metrics with --trace 1.
"""

from __future__ import annotations

import os

# All load comes from one process at a time, with no extra threads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

from perfbench import reference, scenes, tracing  # noqa: E402
from perfbench.child import digest  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK_ROOT = os.path.join(ROOT, ".perfbench-work")
# A run ends within this many seconds, whatever --seconds says.
RUN_LIMIT_S = 170.0
# Set-ups per untraced run; setup_s is their median, and render_fps comes
# from their renders.
SETUP_REPEATS = 4
# Training calls per set-up block (the set-up's own included); train_s is
# the fastest of them.
TRAIN_REPEATS = 3
# A run keeps at least this many frame gaps, so each frame of the gap
# profile is the smallest over at least four calls of the 32-frame scene.
MIN_GAPS = 100
ALERT_WINDOW = 5
COOLDOWN = 20
# Region grow sees only part of a smoky flame, so box-only features differ
# from the ground truth.  Largest gaps seen over seeds 0-29: ratio x2.28,
# E 0.0048, angle 2.24 degrees; the bounds add half again.
BOXONLY_TOLERANCE = reference.Tolerance(ratio=math.log(3.4), E=0.0075,
                                        angle=3.4)

UNITS = {"setup_s": "s", "monitor_fps": "frames/s", "first_status_s": "s",
         "frame_p50_ms": "ms", "peak_rss_mb": "MiB",
         "render_fps": "frames/s", "train_s": "s"}

# per-layer metric: (span name, field of tracing.layer_totals)
PER_LAYER = {
    "simulator.render_s": ("simulator.render", "self_s"),
    "simulator.frames": ("simulator.render", "work"),
    "core.mask_encode_s": ("core.mask_encode", "self_s"),
    "core.mask_encodes": ("core.mask_encode", "calls"),
    "core.mask_decode_s": ("core.mask_decode", "self_s"),
    "core.mask_decodes": ("core.mask_decode", "calls"),
    "ingest.parse_s": ("ingest.parse", "self_s"),
    "ingest.lines": ("ingest.parse", "calls"),
    "ingest.write_s": ("ingest.write", "self_s"),
    "pipeline.frame_read_s": ("pipeline.frame_read", "self_s"),
    "pipeline.frames_read": ("pipeline.frame_read", "work"),
    "pipeline.frame_write_s": ("pipeline.frame_write", "self_s"),
    "pipeline.truth_write_s": ("pipeline.truth_write", "self_s"),
    "pipeline.log_write_s": ("pipeline.log_write", "self_s"),
    "pipeline.log_rows": ("log", "work"),
    "pipeline.alert_s": ("pipeline.alert", "self_s"),
    "pipeline.stream_s": ("pipeline.stream", "self_s"),
    "tracker.step_s": ("tracker.step", "self_s"),
    "tracker.steps": ("tracker.step", "calls"),
    "tracker.hungarian_s": ("tracker.hungarian", "self_s"),
    "tracker.kalman_s": ("tracker.kalman", "self_s"),
    "segment.grow_s": ("segment.grow", "self_s"),
    "segment.calls": ("segment.grow", "calls"),
    "segment.pixels": ("segment.grow", "work"),
    "features.color_s": ("features.color", "self_s"),
    "features.angle_s": ("features.angle", "self_s"),
    "features.smoke_s": ("features.smoke", "self_s"),
    "features.records": ("features.color", "calls"),
    "stats.project_s": ("stats.project", "self_s"),
    "stats.project_calls": ("stats.project", "calls"),
    "stats.fit_s": ("stats.fit", "self_s"),
    "classify.predict_s": ("classify.predict", "self_s"),
    "classify.predict_calls": ("classify.predict", "calls"),
    "classify.train_s": ("classify.train", "self_s"),
    "labeling.rule_s": ("labeling.rule", "self_s"),
    "cli.self_s": ("cli", "self_s"),
}


class SetupError(Exception):
    """A set-up step failed, so the run cannot measure anything."""


class Run:
    """Runs the operations of one benchmark run and keeps their results."""

    def __init__(self, work_dir: str, deadline: float):
        self.work_dir = work_dir
        self.deadline = deadline
        self._n = 0
        self.wrapped = None

    def child(self, argv, traced=False):
        """Run one operation in a fresh process.  Returns its result dict,
        with "spans" (layer totals) when traced, or None if it failed."""
        self._n += 1
        base = os.path.join(self.work_dir, f"op{self._n}")
        cmd = [sys.executable, "-m", "perfbench.child", base + ".json"]
        if traced:
            cmd += ["--trace", base + ".spans.json"]
        timeout = max(5.0, self.deadline - time.perf_counter())
        with open(base + ".err", "w", encoding="utf-8") as err:
            try:
                proc = subprocess.run(cmd + list(argv), cwd=ROOT,
                                      stdout=subprocess.DEVNULL, stderr=err,
                                      timeout=timeout, check=False)
                code = proc.returncode
            except subprocess.TimeoutExpired:
                code = "timeout"
        result = None
        if code == 0:
            with open(base + ".json", encoding="utf-8") as fh:
                result = json.load(fh)
            if result["rc"] != 0:
                result = None
        if result is None:
            with open(base + ".err", encoding="utf-8") as fh:
                tail = fh.read()[-2000:]
            print(f"operation {argv[:2]} failed ({code}):\n{tail}",
                  file=sys.stderr)
            return None
        if traced:
            with open(base + ".spans.json", encoding="utf-8") as fh:
                dumped = json.load(fh)
            result["spans"] = tracing.layer_totals(dumped["spans"])
            if self.wrapped is None:
                self.wrapped = (dumped["wrapped"], dumped["missing"])
        return result

    def render(self, seed, role, masks, out_dir, traced=False):
        return self.child(["render", str(seed), str(role),
                           "1" if masks else "0", out_dir], traced)

    def train(self, scene_dir, model_path, traced=False):
        return self.child(
            ["cli", "train",
             "--annotations", os.path.join(scene_dir, "annotations.jsonl"),
             "--frames", os.path.join(scene_dir, "frames"),
             "--out", model_path], traced)

    def monitor(self, model_path, scene_dir, log_path, traced=False):
        result = self.child(
            ["cli", "monitor", "--model", model_path,
             "--input", os.path.join(scene_dir, "annotations.jsonl"),
             "--frames", os.path.join(scene_dir, "frames"),
             "--alert-window", str(ALERT_WINDOW),
             "--cooldown", str(COOLDOWN), "--log", log_path], traced)
        if result is not None:
            with open(log_path, encoding="utf-8") as fh:
                result["log"] = fh.read()
            if traced:
                # pipeline.log_rows counts the rows of the written log, so
                # it holds whichever function writes them.
                rows = result["log"].count("\n") - 1
                result["spans"]["log"] = {"self_s": 0.0, "calls": 0,
                                          "work": rows}
        return result


# ---------------------------------------------------------------------------
# checks that call the program's own readers and writers


def _flaremon():
    from flaremon import ingest, pipeline
    return ingest, pipeline


def check_readback(scene_dir, digests):
    """Annotations and frames read back with the program's readers must
    equal what was rendered."""
    ingest, pipeline = _flaremon()
    frames = pipeline.load_frames(os.path.join(scene_dir, "frames"))
    with open(os.path.join(scene_dir, "annotations.jsonl"),
              encoding="utf-8") as fh:
        got = [digest(frame, ann) for frame, ann in
               zip(frames, ingest.read_annotation_stream(fh))]
    if got != digests:
        return [f"{scene_dir}: read back differs from the rendered scene"]
    return []


def check_model(model_path):
    """The model file must load and save byte-identically."""
    _, pipeline = _flaremon()
    with open(model_path, encoding="utf-8") as fh:
        text = fh.read()
    if pipeline.model_to_json(pipeline.load_model(model_path)) != text:
        return [f"{model_path}: load and save changes the file"]
    return []


# ---------------------------------------------------------------------------
# metrics


def frame_gaps(result):
    """{frame: seconds from its first status line to the next frame's}."""
    at = dict(result["status_at"])
    return {f: at[f + 1] - at[f] for f in sorted(at) if f + 1 in at}


def gap_profile(calls):
    """Each frame's least-disturbed gap: its smallest over the calls.

    Every call of a run does the same work on each frame, so the smallest
    of a frame's gaps is the one the machine's other tenants disturbed
    least.  The profile keeps what differs from frame to frame (the work a
    frame's content asks for) and drops what differs from call to call."""
    per_frame = {}
    for c in calls:
        for f, gap in frame_gaps(c).items():
            per_frame.setdefault(f, []).append(gap)
    return [min(per_frame[f]) for f in sorted(per_frame)]


def render_fps(*scene_renders):
    """Frames rendered and written per second, over the renders of each
    scene.  Every render of a scene does the same work on each frame, so
    each frame's time is its smallest over the renders, as in
    gap_profile."""
    frames = sum(renders[0]["frames"] for renders in scene_renders)
    seconds = sum(sum(map(min, zip(*(r["pieces"] for r in renders))))
                  for renders in scene_renders)
    return frames / seconds


def monitor_metrics(calls, frames_per_call):
    """End-to-end metrics of the monitor calls of one run.

    Call-level figures come from the fastest call: other tenants of the
    machine slow whole stretches of a run, and the fastest of many
    identical calls is the one they disturbed least.  The frame-level
    figure comes from the gap profile, for the same reason."""
    return {
        "monitor_fps": frames_per_call / min(c["elapsed"] for c in calls),
        "first_status_s": min(c["status_at"][0][1] for c in calls),
        "frame_p50_ms": 1e3 * statistics.median(gap_profile(calls)),
    }


def layer_metrics(setup_totals, op_totals):
    """Set-up spans plus the median over traced operations, per metric."""
    def value(totals, span, field):
        return sum(t.get(span, {}).get(field, 0) for t in totals)

    out = {}
    for name, (span, field) in PER_LAYER.items():
        v = value(setup_totals, span, field)
        if op_totals:
            v += statistics.median(value(op, span, field) for op in op_totals)
        out[name] = v
    return out


# ---------------------------------------------------------------------------
# workloads


class Tally:
    """Operations attempted and failed, and check errors, of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.first_log = None

    def check_monitor_call(self, result, refs, tol):
        """Check one monitor call against the reference."""
        try:
            rows = reference.parse_log(result["log"])
        except (ValueError, IndexError) as exc:
            self.errors.append(f"unreadable feature log: {exc}")
            return
        self.errors += reference.check_monitor(
            rows, reference.parse_alerts(result["stdout"]), refs, tol,
            ALERT_WINDOW, COOLDOWN)
        status = [ln for ln in result["stdout"] if ln.startswith("frame ")]
        if len(status) != len(rows):
            self.errors.append(
                f"{len(status)} status lines for {len(rows)} log rows")
        if self.first_log is None:
            self.first_log = result["log"]
        elif result["log"] != self.first_log:
            self.errors.append("feature log differs from the run's first log")


def trace_overhead_pct(plain_calls, traced_calls):
    """Share of the frame rate lost to tracing, in percent: the gap
    profile of the traced calls against that of the untraced calls of the
    same run.  Host noise larger than the overhead can make it negative."""
    return 100.0 * (1.0 - sum(gap_profile(plain_calls))
                    / sum(gap_profile(traced_calls)))


def monitor_workload(run, seed, seconds, trace, masks):
    """flaremon monitor on a wide scene, with or without masks.

    An untraced run is SETUP_REPEATS blocks of equal operation time.  Each
    block sets up once (timed as setup_s), then calls the monitor, with
    TRAIN_REPEATS - 1 more training calls spread over the block, so
    set-up, training and monitoring all sample every stretch of a machine
    whose speed drifts.  A traced run sets up once, traced, and alternates
    untraced and traced monitor calls.  Every run calls the monitor at
    least twice and keeps MIN_GAPS frame gaps."""
    work = run.work_dir
    train_dir = os.path.join(work, "train_scene")
    scene_dir = os.path.join(work, "monitor_scene")
    model = os.path.join(work, "model.json")
    log = os.path.join(work, "monitor.csv")
    frames = scenes.LAYOUTS[scenes.MONITOR][2]
    tol = reference.EXACT if masks else BOXONLY_TOLERANCE
    tally = Tally()
    refs = []

    def train(traced=False):
        result = run.train(train_dir, model, traced)
        if result is None:
            raise SetupError("training the monitor model failed")
        return result

    def setup(traced):
        t0 = time.perf_counter()
        steps = [run.render(seed, scenes.TRAIN, True, train_dir, traced)]
        if steps[0] is not None:
            steps += [train(traced),
                      run.render(seed, scenes.MONITOR, masks, scene_dir,
                                 traced)]
        seconds_taken = time.perf_counter() - t0
        if any(s is None for s in steps):
            raise SetupError("rendering a scene failed")
        if not refs:
            tally.errors += check_readback(train_dir, steps[0]["digests"])
            tally.errors += check_readback(scene_dir, steps[2]["digests"])
            tally.errors += check_model(model)
            refs.extend(reference.reference_records(
                os.path.join(scene_dir, "ground_truth.jsonl"),
                os.path.join(scene_dir, "frames")))
        return seconds_taken, steps

    def op(traced):
        tally.attempted += frames
        result = run.monitor(model, scene_dir, log, traced)
        if result is None:
            tally.failed += frames
        else:
            tally.check_monitor_call(result, refs, tol)
        return result

    repeats = 1 if trace else SETUP_REPEATS
    setups, trains, calls, traced_calls = [], [], [], []
    spent = 0.0
    i = 0
    for k in range(repeats):
        setups.append(setup(trace))
        trains.append(setups[-1][1][1])
        block = seconds / repeats
        extra_trains = [] if trace else [
            block * (k + j / TRAIN_REPEATS) for j in range(1, TRAIN_REPEATS)]
        last = k == repeats - 1
        while (spent < block * (k + 1) or last and (
                i < 2 or sum(len(frame_gaps(c)) for c in calls) < MIN_GAPS)):
            if time.perf_counter() > run.deadline - 20:
                break
            if extra_trains and spent >= extra_trains[0]:
                extra_trains.pop(0)
                trains.append(train())
            traced = trace and i % 2 == 1
            i += 1
            t0 = time.perf_counter()
            result = op(traced)
            spent += time.perf_counter() - t0
            if result is not None:
                (traced_calls if traced else calls).append(result)
        # A block whose calls ran long still trains TRAIN_REPEATS times.
        trains += [train() for _ in extra_trains]
    if not calls:
        raise SetupError("no monitor call succeeded")

    if trace:
        metrics = layer_metrics(
            [s["spans"] for s in setups[0][1]],
            [[c["spans"]] for c in traced_calls])
        metrics["trace.overhead_pct"] = trace_overhead_pct(calls,
                                                           traced_calls)
    else:
        metrics = monitor_metrics(calls, frames)
        metrics.update(
            setup_s=statistics.median(s for s, _ in setups),
            render_fps=render_fps([st[0] for _, st in setups],
                                  [st[2] for _, st in setups]),
            train_s=min(t["elapsed"] for t in trains),
            peak_rss_mb=statistics.median(c["peak_rss_mb"] for c in calls))
    return tally, metrics


WORKLOADS = {
    "monitor_masks": lambda *a: monitor_workload(*a, masks=True),
    "monitor_boxonly": lambda *a: monitor_workload(*a, masks=False),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python3 -m perfbench.run")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "flaremon")):
        print("no flaremon sources under src/flaremon", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))

    deadline = time.perf_counter() + RUN_LIMIT_S
    work_dir = os.path.join(WORK_ROOT, f"run-{os.getpid()}")
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    run = Run(work_dir, deadline)
    try:
        tally, metrics = WORKLOADS[args.workload](
            run, args.seed, args.seconds, bool(args.trace))
    except SetupError as exc:
        print(f"set-up failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        if os.path.isdir(WORK_ROOT) and not os.listdir(WORK_ROOT):
            os.rmdir(WORK_ROOT)

    for line in tally.errors[:20]:
        print(f"check failed: {line}", file=sys.stderr)
    if run.wrapped is not None:
        wrapped, missing = run.wrapped
        print(f"traced {len(wrapped)} functions: {', '.join(wrapped)}")
        print(f"not found, so not traced: {', '.join(missing) or 'none'}")
    units = {**UNITS, **{name: "s" if name.endswith("_s") else "count"
                         for name in PER_LAYER}, "trace.overhead_pct": "%"}
    print(json.dumps({
        "correct": not tally.errors,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in sorted(metrics.items())},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
