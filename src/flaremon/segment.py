"""Seeded region-grow segmentation fallback for box-only annotation streams.

Grows a 4-connected region from the box midpoint, admitting pixels whose
per-channel (Chebyshev) distance from the 3x3 seed-neighborhood mean stays
within a tolerance.  The region is admitted in breadth-first order: level by
level from the seed, within a level by parent, and each parent's neighbours
in the order up, down, left, right.  The cap keeps the first
max(1, int(max_region_fraction * box area)) pixels of that order.  Each step
of the search expands a whole level at once.  External masks, when present,
always take precedence over this fallback.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import BBox, Frame, Mask, box_center
from .errors import OutOfBounds


@dataclass(frozen=True)
class SegmenterConfig:
    color_tolerance: float = 40.0
    max_region_fraction: float = 1.5

    def __post_init__(self):
        if self.color_tolerance < 0:
            raise ValueError("color_tolerance must be >= 0")
        if not (0.0 < self.max_region_fraction <= 2.0):
            raise ValueError("max_region_fraction must lie in (0, 2]")


@dataclass(frozen=True)
class SegmentResult:
    mask: Mask
    degenerate: bool = False


def segment_box(frame: Frame, box: BBox, cfg: SegmenterConfig = None) -> SegmentResult:
    """Flood fill from the box midpoint, clipped to the box dilated by 10%."""
    cfg = cfg or SegmenterConfig()
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
    # Admissible pixels of the window, padded with an inadmissible border
    # so that neighbour indices never leave the array.
    window = frame.pixels[y_lo:y_hi + 1, x_lo:x_hi + 1]
    h, w = window.shape[:2]
    ok = np.zeros((h + 2, w + 2), dtype=bool)
    ok[1:-1, 1:-1] = (np.abs(window - seed_mean).max(axis=2)
                      <= cfg.color_tolerance)
    ok = ok.ravel()
    stride = w + 2
    steps = np.array([-stride, stride, -1, 1])  # up, down, left, right

    max_pixels = max(1, int(cfg.max_region_fraction * box.area))
    seed = (sy - y_lo + 1) * stride + (sx - x_lo + 1)
    admitted = np.zeros_like(ok)
    admitted[seed] = True
    degenerate = not ok[seed]
    if not degenerate:
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

    region = admitted.reshape(h + 2, w + 2)[1:-1, 1:-1]
    mask = Mask.from_array(region, origin=(x_lo, y_lo),
                           size=(frame.width, frame.height))
    return SegmentResult(mask=mask, degenerate=degenerate)
