"""Seeded region-grow segmentation fallback for box-only annotation streams.

Grows a 4-connected region from the box midpoint, admitting pixels whose
per-channel (Chebyshev) distance from the 3x3 seed-neighborhood mean stays
within COLOR_TOLERANCE, inside the box dilated by 10% (the window).  The cap
keeps the first max(1, int(MAX_REGION_FRACTION * box area)) pixels in
breadth-first order: level by level from the seed, within a level by
parent, and each parent's neighbours in the order up, down, left, right.

`segment_frame` grows every box-only region of a frame in one call.  A
flame region comes back as a mask, for its moments; a smoke region as its
pixel count, the only thing smoke attribution reads.  Each box keeps its
own seed mean and lookup table, and its admissible pixels fill a window
padded with an inadmissible border.  The padded windows lie end to end in
one flat array, each with its own stride, so that runs never join across
windows and one set of numpy calls finds the runs of every window and the
runs that touch each run.

The seed's component is found over row runs, as in Heckbert's scanline
seed fill: the window's admissible pixels split into maximal runs per row,
two runs touch when they overlap in adjacent rows, and a walk of that run
graph from the seed's run yields the component's runs.  When the component
fits under the cap, no order matters and that is the result.  Only when it
does not, or when the window's runs average under six pixels so that a
walk per run would cost more than a numpy step per pixel, the region is
grown by a breadth-first search that expands a whole level per numpy step.
External masks, when present, always take precedence over this fallback.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Union

import numpy as np

from .core import BBox, Frame, Mask, box_center

# Largest per-channel distance from the seed mean that a pixel may have.
COLOR_TOLERANCE = 40.0
# The cap on the region, as a multiple of the box area.
MAX_REGION_FRACTION = 1.5
# The walk costs about as much per run as the level search per six pixels.
MIN_MEAN_RUN = 6

# Offsets (dx, dy) of the 3x3 seed neighbourhood.
_PATCH_DX = np.tile([-1, 0, 1], 3)
_PATCH_DY = np.repeat([-1, 0, 1], 3)


def seed_pixel(box: BBox):
    """The pixel (x, y) a box's region grows from: its midpoint, rounded."""
    cx, cy = box_center(box)
    return int(round(cx)), int(round(cy))


def segment_frame(frame: Frame, boxes: Sequence[BBox],
                  n_masks: int) -> List[Optional[Union[Mask, int]]]:
    """The region grown in each box, in box order: a Mask for each of the
    first n_masks boxes, the pixel count for each later one, and None for
    a box whose seed lies off the frame.

    The windows are stacked in batches; a batch is grown once its stacked
    windows reach the frame's pixel count, so that memory stays within
    about twice the frame's pixels.
    """
    width, height = frame.width, frame.height
    out: List[Optional[Union[Mask, int]]] = [None] * len(boxes)
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
            at = y * width + x
            out[k] = Mask.from_runs([at], [at + 1], size=(width, height)) \
                if k < n_masks else 1
            continue
        box = boxes[k]
        dx, dy = 0.1 * box.width, 0.1 * box.height
        x_lo = max(0, math.floor(box.x_min - dx))
        y_lo = max(0, math.floor(box.y_min - dy))
        w = min(width - 1, math.ceil(box.x_max + dx)) - x_lo + 1
        h = min(height - 1, math.ceil(box.y_max + dy)) - y_lo + 1
        batch.append((k, fits[j], x, y, x_lo, y_lo, w, h,
                      max(1, int(MAX_REGION_FRACTION * box.area))))
        stacked += (w + 2) * (h + 2)
        if stacked >= width * height:
            _grow_batch(frame, batch, n_masks, out)
            batch, stacked = [], 0
    if batch:
        _grow_batch(frame, batch, n_masks, out)
    return out


def _grow_batch(frame, batch, n_masks, out):
    """Grow into `out` the region of each window of `batch`: (box number,
    lookup table, seed x and y, window x, y, width and height, cap)."""
    size = (frame.width, frame.height)
    ks, tables, xs, ys, x_los, y_los, ws, hs, caps = zip(*batch)
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
    # Every window holds a run, its seed's, so the windows' first runs lo
    # rise strictly and split the runs for reduceat.
    lo = np.searchsorted(starts, offsets)
    per_run = np.diff(np.append(lo, len(starts)))
    walk = per_run * MIN_MEAN_RUN <= (np.add.reduceat(ends, lo)
                                      - np.add.reduceat(starts, lo))
    if not walk.all():
        # Only the windows that take the walk need their runs linked; a
        # short-run window can hold many times more runs than the others.
        keep = np.repeat(walk, per_run)
        starts, ends = starts[keep], ends[keep]
        per_run = per_run * walk
        lo = np.cumsum(per_run) - per_run
    hi = lo + per_run  # window j holds runs lo[j] to hi[j]
    stride = np.repeat(strides, per_run)
    run_length = ends - starts
    # The runs of the row below run i that overlap it are the index range
    # [below[i], below_end[i]); likewise for the row above.
    links = (np.searchsorted(ends, starts + stride, side="right").tolist(),
             np.searchsorted(starts, ends + stride).tolist(),
             np.searchsorted(ends, starts - stride, side="right").tolist(),
             np.searchsorted(starts, ends - stride).tolist(),
             run_length.tolist())
    first = (np.searchsorted(starts, seeds, side="right") - 1).tolist()
    # Each run's first pixel as a flat index of the frame.
    row, col = np.divmod(starts - np.repeat(offsets, per_run), stride)
    at = (row + np.repeat(y_lo - 1, per_run)) * frame.width \
        + col + np.repeat(x_lo - 1, per_run)
    walk = walk.tolist()
    seen = bytearray(len(starts))

    for j, (k, x0, y0, w, h, cap) in enumerate(zip(ks, x_los, y_los, ws, hs,
                                                   caps)):
        if walk[j]:
            area = _component_runs(links, seen, first[j], cap)
            if area is not None:
                if k < n_masks:
                    comp = lo[j] + np.flatnonzero(
                        np.frombuffer(seen, dtype=np.uint8)[lo[j]:hi[j]])
                    out[k] = Mask.from_runs(at[comp],
                                            at[comp] + run_length[comp],
                                            size=size)
                else:
                    out[k] = area
                continue
        off = int(offsets[j])
        admitted = _level_bfs(ok[off:off + (w + 2) * (h + 2)],
                              int(seeds[j]) - off, w + 2, cap)
        if k < n_masks:
            out[k] = Mask.from_array(
                admitted.reshape(h + 2, w + 2)[1:-1, 1:-1],
                origin=(x0, y0), size=size)
        else:
            out[k] = int(np.count_nonzero(admitted))


def _component_runs(links, seen, first, max_pixels):
    """Mark in `seen` the runs 4-connected to run `first`, and return their
    pixel count, or None as soon as it exceeds max_pixels."""
    below, below_end, above, above_end, length = links
    seen[first] = 1
    todo = [first]
    total = length[first]
    while todo:
        i = todo.pop()
        for j in range(below[i], below_end[i]):
            if not seen[j]:
                seen[j] = 1
                todo.append(j)
                total += length[j]
        for j in range(above[i], above_end[i]):
            if not seen[j]:
                seen[j] = 1
                todo.append(j)
                total += length[j]
        if total > max_pixels:
            return None
    return total


def _level_bfs(ok, seed, stride, max_pixels):
    """Breadth-first grow over the flat padded window, a whole level per
    step: the first max_pixels admissible pixels in breadth-first order."""
    steps = np.array([-stride, stride, -1, 1])  # up, down, left, right
    admitted = np.zeros_like(ok)
    admitted[seed] = True
    count = 1
    frontier = np.array([seed])
    while frontier.size and count < max_pixels:
        # Candidates in discovery order: by parent, then by step.
        cand = (frontier[:, None] + steps).ravel()
        cand = cand[ok[cand] & ~admitted[cand]]
        _, first = np.unique(cand, return_index=True)
        frontier = cand[np.sort(first)][:max_pixels - count]
        admitted[frontier] = True
        count += frontier.size
    return admitted
