"""One timed operation in a process of its own.

    python3 -m perfbench.child RESULT.json [--trace SPANS.json] OP ARGS...

OP is ``render SEED ROLE MASKS DIR`` (render a scene with the simulator
and write it with the program's writers), or ``cli ARGS...`` (call
``flaremon.cli.main(ARGS)``).  The clock starts before flaremon is
imported, standard output is kept in memory with the time each line ended,
and the result, with the process's peak resident memory, goes to
RESULT.json.  Nothing else runs in the process, so its memory is its own.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_STATUS = re.compile(r"^frame (\d+) track ")


class StdoutClock:
    """Stands in for sys.stdout; notes when each line was completed."""

    encoding = "utf-8"

    def __init__(self):
        self.lines = []  # (seconds, text)
        self._partial = ""

    def write(self, text):
        now = time.perf_counter()
        text = self._partial + text
        *done, self._partial = text.split("\n")
        for line in done:
            self.lines.append((now, line))
        return len(text)

    def flush(self):
        pass

    def isatty(self):
        return False


def digest(frame, annotation) -> str:
    """Fingerprint of one frame's pixels and annotation."""
    h = hashlib.sha256(frame.pixels.tobytes())
    h.update(repr((annotation.frame_index, [
        (d.cls.value, *map(float, (d.bbox.x_min, d.bbox.y_min, d.bbox.x_max,
                                   d.bbox.y_max, d.confidence)))
        for d in annotation.detections],
        None if annotation.masks is None else [
            (i, m.width, m.height, m.runs) for i, m in annotation.masks],
    )).encode())
    return h.hexdigest()


def render_to_disk(seed, role, masks, out_dir, tracer=None):
    """Render a scene and write annotations, ground truth and frames.

    Returns (frames, pieces, digests).  pieces[i] is the time spent from
    the end of frame i-1 to the end of frame i: writing frame i-1's pixels,
    then rendering frame i and writing its annotation and ground truth.
    The last piece also holds writing the last frame's pixels.  The time
    spent on digests is left out, so the pieces add up to the whole
    render-and-write loop."""
    from flaremon import ingest, pipeline, simulator
    from flaremon.ingest import FrameAnnotation

    from perfbench import scenes

    spec = scenes.scene(seed, role)
    os.makedirs(out_dir, exist_ok=True)
    digests = []
    pieces = []
    since = [0.0]  # when the current piece started

    def frames(ann_fh, gt_fh):
        for rf in simulator.render(spec):
            ann = rf.annotation
            if not masks:
                ann = FrameAnnotation(ann.frame_index, ann.detections, None)
            ingest.write_annotation_stream([ann], ann_fh)
            gt_fh.write(pipeline.format_ground_truth(rf.frame.index,
                                                     rf.truths) + "\n")
            t = time.perf_counter()
            pieces.append(t - since[0])
            span = tracer.begin("bench.digest") if tracer else None
            digests.append(digest(rf.frame, ann))
            if tracer:
                tracer.end(span)
            since[0] = time.perf_counter()
            yield rf.frame

    since[0] = time.perf_counter()
    with open(os.path.join(out_dir, "annotations.jsonl"), "w",
              encoding="utf-8") as ann_fh, \
            open(os.path.join(out_dir, "ground_truth.jsonl"), "w",
                 encoding="utf-8") as gt_fh:
        count = pipeline.save_frames(frames(ann_fh, gt_fh),
                                     os.path.join(out_dir, "frames"))
    pieces[-1] += time.perf_counter() - since[0]
    return count, pieces, digests


def main(argv):
    result_path, argv = argv[0], argv[1:]
    trace_path = None
    if argv[0] == "--trace":
        trace_path, argv = argv[1], argv[2:]
    op, args = argv[0], argv[1:]
    clock = StdoutClock()
    sys.stdout = clock
    t0 = time.perf_counter()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import flaremon.cli  # noqa: F401  (start-up is part of the timed call)
    tracer = None
    if trace_path:
        from perfbench.tracing import Tracer
        tracer = Tracer()
        tracer.install()
    result = {}
    if op == "render":
        seed, role, masks, out_dir = args
        frames, pieces, digests = render_to_disk(
            int(seed), int(role), masks == "1", out_dir, tracer)
        result.update(frames=frames, pieces=pieces, digests=digests, rc=0)
    else:
        result["rc"] = flaremon.cli.main(args)
    t1 = time.perf_counter()
    sys.stdout = sys.__stdout__
    if tracer:
        tracer.uninstall()
        tracer.dump(trace_path)

    status_at = {}
    for t, line in clock.lines:
        m = _STATUS.match(line)
        if m:
            status_at.setdefault(int(m.group(1)), t - t0)
    result.update(
        elapsed=t1 - t0,
        status_at=sorted(status_at.items()),
        stdout=[line for _, line in clock.lines],
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
