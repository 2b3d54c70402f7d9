"""Seeded region-grow segmentation fallback for box-only annotation streams.

Grows a 4-connected region from the box midpoint, admitting pixels whose
per-channel (Chebyshev) distance from the 3x3 seed-neighborhood mean stays
within COLOR_TOLERANCE, inside the box dilated by 10% (the window).  The
window alone bounds the region: it is the seed's whole component there.

`segment_frame` grows every box-only region of a frame in one call, and
gives each back as its sorted flat pixel indices.  Each box keeps its own
seed mean and lookup table, and its admissible pixels fill a window padded
with an inadmissible border.  The padded windows lie end to end in one
flat array, each with its own stride, so that runs never join across
windows and one set of numpy calls labels the runs of every window.

The seed's component is found over row runs, as in He, Chao and Suzuki's
run-based labelling (IEEE TIP, 2008): the admissible pixels split into
maximal runs per row, and two runs touch when they overlap in adjacent
rows.  Every run of a batch is labelled at once, in rounds: each hooks
every root to the least root beside it, then jumps pointers until each
run points at its root (Shiloach and Vishkin, 1982).  The rounds end when
no two touching runs differ in label.  A window's component is the label
of its seed's run, and the pixels of every window of the batch are
expanded from their labels' runs at once.  External masks, when present,
always take precedence over this fallback.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence

import numpy as np

from .core import BBox, Frame, box_center

# Largest per-channel distance from the seed mean that a pixel may have.
COLOR_TOLERANCE = 40.0

# Offsets (dx, dy) of the 3x3 seed neighbourhood.
_PATCH_DX = np.tile([-1, 0, 1], 3)
_PATCH_DY = np.repeat([-1, 0, 1], 3)


def seed_pixel(box: BBox):
    """The pixel (x, y) a box's region grows from: its midpoint, rounded."""
    cx, cy = box_center(box)
    return int(round(cx)), int(round(cy))


def segment_frame(frame: Frame,
                  boxes: Sequence[BBox]) -> List[Optional[np.ndarray]]:
    """The region grown in each box, in box order: its sorted flat pixel
    indices, or None for a box whose seed lies off the frame.

    The windows are stacked in batches; a batch is grown once its stacked
    windows reach the frame's pixel count, so that memory stays within
    about twice the frame's pixels.
    """
    width, height = frame.width, frame.height
    out: List[Optional[np.ndarray]] = [None] * len(boxes)
    seeds = [seed_pixel(box) for box in boxes]
    on = [k for k, (sx, sy) in enumerate(seeds)
          if 0 <= sx < width and 0 <= sy < height]
    if not on:
        return out
    sx, sy = np.array([seeds[k] for k in on]).T

    # Seed means: the 3x3 patch around each seed, less what lies off the
    # frame.  The sum is exact, so sum / count is the float mean itself.
    px = sx[:, None] + _PATCH_DX
    py = sy[:, None] + _PATCH_DY
    inside = (px >= 0) & (px < width) & (py >= 0) & (py < height)
    flat = frame.pixels.reshape(-1, 3)
    patch = flat[np.where(inside, py * width + px, 0)] * inside[..., None]
    means = patch.sum(axis=1, dtype=np.int64) / inside.sum(axis=1)[:, None]
    # Whether each 8-bit value of each channel lies within the tolerance of
    # each seed mean, in the same float arithmetic as comparing the pixels
    # themselves: (boxes, 3, 256).
    fits = np.abs(np.arange(256) - means[:, :, None]) <= COLOR_TOLERANCE
    seed_ok = (np.abs(flat[sy * width + sx] - means) <= COLOR_TOLERANCE) \
        .all(axis=1).tolist()

    batch, stacked = [], 0
    for j, k in enumerate(on):
        x, y = seeds[k]
        if not seed_ok[j]:  # degenerate: the seed alone
            out[k] = np.array([y * width + x])
            continue
        box = boxes[k]
        dx, dy = 0.1 * box.width, 0.1 * box.height
        x_lo = max(0, math.floor(box.x_min - dx))
        y_lo = max(0, math.floor(box.y_min - dy))
        w = min(width - 1, math.ceil(box.x_max + dx)) - x_lo + 1
        h = min(height - 1, math.ceil(box.y_max + dy)) - y_lo + 1
        batch.append((k, fits[j], x, y, x_lo, y_lo, w, h))
        stacked += (w + 2) * (h + 2)
        if stacked >= width * height:
            _grow_batch(frame, batch, out)
            batch, stacked = [], 0
    if batch:
        _grow_batch(frame, batch, out)
    return out


def _grow_batch(frame, batch, out):
    """Grow into `out` the region of each window of `batch`: (box number,
    lookup table, seed x and y, window x, y, width and height)."""
    ks, tables, xs, ys, x_los, y_los, ws, hs = zip(*batch)
    x_lo, y_lo = np.array(x_los), np.array(y_los)
    strides = np.array(ws) + 2
    lengths = strides * (np.array(hs) + 2)
    offsets = np.cumsum(lengths) - lengths
    ok = np.zeros(int(lengths.sum()), dtype=bool)
    for fits, x0, y0, w, h, off in zip(tables, x_los, y_los, ws, hs,
                                       offsets.tolist()):
        pix = frame.pixels[y0:y0 + h, x0:x0 + w]
        ok[off:off + (w + 2) * (h + 2)].reshape(h + 2, w + 2)[1:-1, 1:-1] = (
            fits[0].take(pix[..., 0]) & fits[1].take(pix[..., 1])
            & fits[2].take(pix[..., 2]))
    seeds = offsets + (np.array(ys) - y_lo + 1) * strides \
        + np.array(xs) - x_lo + 1

    # Runs [starts[i], ends[i]) of flat indices, window by window, each in
    # row-major order.
    edges = np.flatnonzero(ok[1:] != ok[:-1]) + 1
    starts, ends = edges[0::2], edges[1::2]
    # Every window holds a run, its seed's, so window j holds the runs
    # lo[j] to lo[j + 1].
    lo = np.searchsorted(starts, offsets)
    per_run = np.diff(np.append(lo, len(starts)))
    stride = np.repeat(strides, per_run)
    run_length = ends - starts
    label = _label_runs(starts, ends, stride)
    roots = label[np.searchsorted(starts, seeds, side="right") - 1]
    areas = np.bincount(label, weights=run_length)[roots].astype(int).tolist()
    # The runs of each window's component, their first pixels as flat
    # indices of the frame, expanded by one arange.
    row, col = np.divmod(starts - np.repeat(offsets, per_run), stride)
    at = (row + np.repeat(y_lo - 1, per_run)) * frame.width \
        + col + np.repeat(x_lo - 1, per_run)
    keep = label == np.repeat(roots, per_run)
    length = run_length[keep]
    pixels = np.repeat(at[keep] - np.cumsum(length) + length, length)
    pixels += np.arange(len(pixels))

    end = 0
    for k, area in zip(ks, areas):  # its pixels follow the previous window's
        end += area
        out[k] = pixels[end - area:end]


def _label_runs(starts, ends, stride):
    """Each run's label: the least index among the runs 4-connected to it.
    Run i touches the runs of the row below that overlap it, the index
    range [below[i], below[i] + count[i])."""
    below = np.searchsorted(ends, starts + stride, side="right")
    count = np.searchsorted(starts, ends + stride) - below
    # Each pair of touching runs (a, b) once, b in the row below a.
    a = np.repeat(np.arange(len(starts)), count)
    b = np.arange(len(a)) + np.repeat(below - np.cumsum(count) + count, count)
    label = np.arange(len(starts))
    while True:
        la, lb = label[a], label[b]
        apart = la != lb
        if not apart.any():
            return label
        a, b = a[apart], b[apart]
        la, lb = la[apart], lb[apart]
        # Hook each root to the least root beside it, then jump pointers
        # until every run points at its root.
        np.minimum.at(label, np.maximum(la, lb), np.minimum(la, lb))
        while True:
            up = label[label]
            if np.array_equal(up, label):
                break
            label = up
