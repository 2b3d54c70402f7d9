"""The benchmark's own reference computation and output checks.

Nothing here calls flaremon: the ground truth and the frames are read from
the files the simulator wrote, with readers written from the documented
formats, and every feature is computed again from its definition.  The
checks compare the program's feature log and alert lines with these
references and with properties the method must have.
"""

from __future__ import annotations

import json
import math
import os
import re
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

# Weights of the blue, yellow and red proportions in the paper's index E.
W_BLUE, W_YELLOW, W_RED = 0.7, 0.5, 0.3
# A track is reported once it has this many hits (SORT min_hits), so rows
# start on this frame index.
WARMUP_FRAMES = 2
# Largest gap between a flame's measured and specified tilt (acceptance
# criterion 5 of the package).
TILT_TOLERANCE_DEG = 1.0


@dataclass(frozen=True)
class RefRecord:
    frame: int
    stack: int
    regime: str
    ratio: float
    E: float
    angle: float


@dataclass(frozen=True)
class LogRow:
    frame: int
    track: int
    ratio: float
    E: float
    angle: float
    label: str


def decode_runs(width: int, height: int, runs: Sequence[int]) -> np.ndarray:
    """Row-major RLE (first run is background) to a boolean (h, w) array."""
    bounds = np.concatenate(([0], np.cumsum(np.asarray(runs, dtype=np.int64))))
    if bounds[-1] != width * height:
        raise ValueError(f"runs cover {bounds[-1]} of {width * height} pixels")
    edges = np.zeros(width * height + 1, dtype=np.int64)
    np.add.at(edges, bounds[1:-1:2], 1)
    np.add.at(edges, bounds[2::2], -1)
    return (np.cumsum(edges[:-1]) > 0).reshape(height, width)


def read_frame(frames_dir: str, index: int, width: int, height: int):
    path = os.path.join(frames_dir, f"frame_{index:06d}.rgb")
    return np.fromfile(path, dtype=np.uint8).reshape(height, width, 3)


def rgb_index_of(mean_rgb) -> float:
    """E = w1 B/(B+Y+R) + w2 Y/(B+Y+R) + w3 R/(B+Y+R), with Y = (R+G)/2."""
    red, green, blue = mean_rgb
    yellow = (red + green) / 2.0
    return (W_BLUE * blue + W_YELLOW * yellow + W_RED * red) / (
        blue + yellow + red)


def mean_rgb(pixels: np.ndarray, mask: np.ndarray):
    sel = pixels[mask].astype(np.float64)
    return tuple(float(v) for v in sel.sum(axis=0) / sel.shape[0])


def tilt_from_vertical(mask: np.ndarray) -> float:
    """Degrees between the vertical and the major axis of the mask's
    second-moment ellipse."""
    ys, xs = np.nonzero(mask)
    cov = np.cov(np.stack([xs, ys]).astype(np.float64), bias=True)
    _, vecs = np.linalg.eigh(cov)
    vx, vy = vecs[:, -1]
    return math.degrees(math.atan2(abs(vx), abs(vy)))


def reference_records(gt_path: str, frames_dir: str) -> List[RefRecord]:
    """Expected features of every (frame, stack) with a visible flame.

    Raises ValueError when a flame that the frame does not cut off lies more
    than TILT_TOLERANCE_DEG from its specified tilt.
    """
    with open(os.path.join(frames_dir, "meta.json"), encoding="utf-8") as fh:
        meta = json.load(fh)
    width, height = meta["width"], meta["height"]
    out = []
    with open(gt_path, encoding="utf-8") as fh:
        for line in fh:
            gt = json.loads(line)
            frame = gt["frame_index"]
            pixels = read_frame(frames_dir, frame, width, height)
            for st in gt["stacks"]:
                fm = st["flame_mask"]
                if fm is None:
                    continue
                flame = decode_runs(fm["width"], fm["height"], fm["runs"])
                sm = st["smoke_mask"]
                smoke_area = 0 if sm is None else int(
                    decode_runs(sm["width"], sm["height"], sm["runs"]).sum())
                angle = tilt_from_vertical(flame)
                if (not st["truncated"]
                        and abs(angle - st["tilt_deg"]) > TILT_TOLERANCE_DEG):
                    raise ValueError(
                        f"frame {frame} stack {st['id']}: angle {angle:.3f} "
                        f"vs tilt {st['tilt_deg']:.3f}")
                out.append(RefRecord(
                    frame=frame, stack=st["id"], regime=st["regime"],
                    ratio=smoke_area / int(flame.sum()),
                    E=rgb_index_of(mean_rgb(pixels, flame)), angle=angle))
    return out


# ---------------------------------------------------------------------------
# program outputs

LOG_HEADER = "frame,track_id,ratio,E,angle,pc1,pc2,label"
_ALERT = re.compile(r"^ALERT track (\d+): low efficiency frames (\d+)-(\d+)$")


def parse_log(text: str) -> List[LogRow]:
    lines = text.splitlines()
    if not lines or lines[0] != LOG_HEADER:
        raise ValueError("feature log lacks its header")
    rows = []
    for line in lines[1:]:
        f = line.split(",")
        rows.append(LogRow(int(f[0]), int(f[1]), float(f[2]), float(f[3]),
                           float(f[4]), f[7]))
    return rows


def parse_alerts(stdout_lines: Sequence[str]) -> List[Tuple[int, int, int]]:
    """(track, first frame, last frame) of every ALERT line."""
    out = []
    for line in stdout_lines:
        m = _ALERT.match(line)
        if m:
            out.append(tuple(int(g) for g in m.groups()))
    return out


def replay_alerts(rows: Sequence[LogRow], window: int,
                  cooldown: int) -> List[Tuple[int, int, int]]:
    """Debounced alerts from the log alone: a track alerts when `window`
    consecutive rows are low, then not again for `cooldown` frames; the
    low streak restarts after every alert."""
    streak: Dict[int, List[int]] = {}  # track -> [length, first frame]
    quiet_until: Dict[int, int] = {}
    out = []
    for r in rows:
        if r.label != "low":
            streak[r.track] = [0, -1]
            continue
        s = streak.setdefault(r.track, [0, -1])
        if s[0] == 0:
            s[1] = r.frame
        s[0] += 1
        if s[0] >= window and r.frame >= quiet_until.get(r.track, -1):
            out.append((r.track, s[1], r.frame))
            quiet_until[r.track] = r.frame + cooldown
            s[0] = 0
    return out


# ---------------------------------------------------------------------------
# checks


@dataclass(frozen=True)
class Tolerance:
    """Largest accepted gap between program and reference per feature:
    |program - reference| for E and the angle, and |ln(program /
    reference)| for the ratio, a quotient of areas whose errors scale with
    it (for small gaps this is the relative error)."""

    ratio: float
    E: float
    angle: float


EXACT = Tolerance(1e-9, 1e-9, 1e-9)


def _distance(row: LogRow, ref: RefRecord, tol: Tolerance) -> float:
    """Largest feature gap in units of its tolerance; <= 1 is a match."""
    if row.ratio > 0.0 and ref.ratio > 0.0:
        ratio_gap = abs(math.log(row.ratio / ref.ratio))
    else:
        ratio_gap = 0.0 if row.ratio == ref.ratio else math.inf
    return max(ratio_gap / tol.ratio, abs(row.E - ref.E) / tol.E,
               abs(row.angle - ref.angle) / tol.angle)


def check_monitor(rows: Sequence[LogRow], alerts: Sequence[Tuple[int, int, int]],
                  refs: Sequence[RefRecord], tol: Tolerance, window: int,
                  cooldown: int) -> List[str]:
    """Every failed property of one monitor run, as readable lines."""
    errors: List[str] = []
    by_frame: Dict[int, List[RefRecord]] = {}
    for ref in refs:
        by_frame.setdefault(ref.frame, []).append(ref)
    regime = {ref.stack: ref.regime for ref in refs}

    stack_of_track: Dict[int, set] = {}
    reported = set()
    for r in rows:
        near = sorted((_distance(r, ref, tol), ref.stack, ref)
                      for ref in by_frame.get(r.frame, []))
        if not near or near[0][0] > 1.0:
            errors.append(f"frame {r.frame} track {r.track}: no reference "
                          f"stack within tolerance")
            continue
        # A loose tolerance may admit two stacks of one regime; the row
        # belongs to the nearer one.
        ref = near[0][2]
        if (r.frame, ref.stack) in reported:
            errors.append(f"frame {r.frame}: stack {ref.stack} reported twice")
        reported.add((r.frame, ref.stack))
        stack_of_track.setdefault(r.track, set()).add(ref.stack)
        if r.label != ref.regime:
            errors.append(f"frame {r.frame} track {r.track}: label {r.label}, "
                          f"stack {ref.stack} is {ref.regime}")

    track_of_stack: Dict[int, set] = {}
    for track, stacks in stack_of_track.items():
        if len(stacks) != 1:
            errors.append(f"track {track} covers stacks {sorted(stacks)}")
        for s in stacks:
            track_of_stack.setdefault(s, set()).add(track)
    for s, tracks in sorted(track_of_stack.items()):
        if len(tracks) != 1:
            errors.append(f"stack {s} changes track id: {sorted(tracks)}")
    missing = [(ref.frame, ref.stack) for ref in refs
               if ref.frame >= WARMUP_FRAMES
               and (ref.frame, ref.stack) not in reported]
    if missing:
        errors.append(f"{len(missing)} (frame, stack) pairs never reported, "
                      f"first {missing[0]}")

    replayed = replay_alerts(rows, window, cooldown)
    if list(alerts) != replayed:
        errors.append(f"alerts {list(alerts)[:4]} differ from the log's "
                      f"replay {replayed[:4]}")
    first_alert: Dict[int, Tuple[int, int]] = {}
    for track, first, last in alerts:
        first_alert.setdefault(track, (first, last))
    for s, tracks in sorted(track_of_stack.items()):
        track = min(tracks)
        if regime[s] == "low":
            want = (WARMUP_FRAMES, WARMUP_FRAMES + window - 1)
            if first_alert.get(track) != want:
                errors.append(f"low stack {s} (track {track}): first alert "
                              f"{first_alert.get(track)}, expected {want}")
        elif track in first_alert:
            errors.append(f"high stack {s} (track {track}) alerted")
    return errors
