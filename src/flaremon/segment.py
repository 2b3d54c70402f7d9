"""Seeded region-grow segmentation fallback for box-only annotation streams.

Grows a 4-connected region from the box midpoint, admitting pixels whose
per-channel (Chebyshev) distance from the 3x3 seed-neighborhood mean stays
within COLOR_TOLERANCE, inside the box dilated by 10% (the window).  The cap
keeps the first max(1, int(MAX_REGION_FRACTION * box area)) pixels in
breadth-first order: level by level from the seed, within a level by
parent, and each parent's neighbours in the order up, down, left, right.

The seed's component is found over row runs, as in Heckbert's scanline
seed fill: the window's admissible pixels split into maximal runs per row,
two runs touch when they overlap in adjacent rows, and a walk of that run
graph from the seed's run yields the component's sorted runs, which encode
straight into the mask.  When the component fits under the cap, no order
matters and that is the result.  Only when it does not, or when the window's
runs average under six pixels so that a walk per run would cost more than
a numpy step per pixel, the region is grown by a breadth-first search that
expands a whole level per numpy step.  External masks, when present, always
take precedence over this fallback.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import BBox, Frame, Mask, box_center
from .errors import OutOfBounds

# Largest per-channel distance from the seed mean that a pixel may have.
COLOR_TOLERANCE = 40.0
# The cap on the region, as a multiple of the box area.
MAX_REGION_FRACTION = 1.5
# The walk costs about as much per run as the level search per six pixels.
MIN_MEAN_RUN = 6


@dataclass(frozen=True)
class SegmentResult:
    mask: Mask
    degenerate: bool = False


def segment_box(frame: Frame, box: BBox) -> SegmentResult:
    """Flood fill from the box midpoint, clipped to the box dilated by 10%."""
    cx, cy = box_center(box)
    sx, sy = int(round(cx)), int(round(cy))
    if not (0 <= sx < frame.width and 0 <= sy < frame.height):
        raise OutOfBounds(f"seed ({sx}, {sy}) outside {frame.width}x{frame.height}")

    dx, dy = 0.1 * box.width, 0.1 * box.height
    x_lo = max(0, int(np.floor(box.x_min - dx)))
    y_lo = max(0, int(np.floor(box.y_min - dy)))
    x_hi = min(frame.width - 1, int(np.ceil(box.x_max + dx)))
    y_hi = min(frame.height - 1, int(np.ceil(box.y_max + dy)))

    # From the frame: for a small box the seed patch can overhang the window.
    seed_mean = frame.pixels[max(0, sy - 1):sy + 2, max(0, sx - 1):sx + 2] \
        .reshape(-1, 3).mean(axis=0)
    # Whether each 8-bit value of each channel lies within the tolerance,
    # in the same float arithmetic as comparing the pixels themselves.
    fits = np.abs(np.arange(256) - seed_mean[:, None]) <= COLOR_TOLERANCE
    # Admissible pixels of the window, padded with an inadmissible border,
    # so that runs never wrap a row and neighbours never leave the array.
    window = frame.pixels[y_lo:y_hi + 1, x_lo:x_hi + 1]
    h, w = window.shape[:2]
    ok = np.zeros((h + 2, w + 2), dtype=bool)
    ok[1:-1, 1:-1] = (fits[0].take(window[..., 0]) & fits[1].take(window[..., 1])
                      & fits[2].take(window[..., 2]))
    ok = ok.ravel()
    stride = w + 2

    max_pixels = max(1, int(MAX_REGION_FRACTION * box.area))
    seed = (sy - y_lo + 1) * stride + (sx - x_lo + 1)
    size = (frame.width, frame.height)
    if not ok[seed]:
        at = sy * frame.width + sx
        return SegmentResult(Mask.from_runs([at], [at + 1], size=size),
                             degenerate=True)

    # Runs [starts[i], ends[i]) of padded flat indices, in row-major order.
    edges = np.flatnonzero(ok[1:] != ok[:-1]) + 1
    starts, ends = edges[0::2], edges[1::2]
    if ends.size * MIN_MEAN_RUN <= ends.sum() - starts.sum():
        first = int(np.searchsorted(starts, seed, side="right")) - 1
        comp = _component_runs(starts, ends, stride, first, max_pixels)
        if comp is not None:
            row, col = np.divmod(starts[comp], stride)
            at = (row + y_lo - 1) * frame.width + (col + x_lo - 1)
            return SegmentResult(Mask.from_runs(at, at + (ends - starts)[comp],
                                                size=size))

    admitted = _level_bfs(ok, seed, stride, max_pixels)
    region = admitted.reshape(h + 2, w + 2)[1:-1, 1:-1]
    return SegmentResult(Mask.from_array(region, origin=(x_lo, y_lo),
                                         size=size))


def _component_runs(starts, ends, stride, first, max_pixels):
    """Sorted indices of the runs 4-connected to run `first`, or None as
    soon as they hold more than max_pixels pixels."""
    # The runs of the row below run i that overlap it are the index range
    # [below[i], below_end[i]); likewise for the row above.
    below = np.searchsorted(ends, starts + stride, side="right").tolist()
    below_end = np.searchsorted(starts, ends + stride).tolist()
    above = np.searchsorted(ends, starts - stride, side="right").tolist()
    above_end = np.searchsorted(starts, ends - stride).tolist()
    length = (ends - starts).tolist()
    seen = bytearray(len(length))
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
    return np.flatnonzero(np.frombuffer(seen, dtype=np.uint8))


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
