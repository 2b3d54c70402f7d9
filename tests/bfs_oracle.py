"""Reference region grow: the per-pixel deque BFS that `segment_frame` must match.

`flaremon.segment.segment_frame` stacks a frame's windows and labels
their row runs.  This module keeps the plain pixel-at-a-time breadth-first
search, one box at a time, so the tests can require identical flame
pixels and smoke areas, degenerate seeds and leaked windows included.  It
also draws the corridors, a spiral and a serpentine, that take a
breadth-first search thousands of levels.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from flaremon.core import BBox, Frame, box_center


def segment_box_bfs(frame: Frame, box: BBox, color_tolerance=40.0):
    """Flood fill from the box midpoint, clipped to the box dilated by 10%:
    (the sorted flat row-major indices of the filled pixels, whether the
    seed itself is inadmissible), or None when the seed lies off the
    frame.  The default is `segment.COLOR_TOLERANCE`."""
    cx, cy = box_center(box)
    sx, sy = int(round(cx)), int(round(cy))
    if not (0 <= sx < frame.width and 0 <= sy < frame.height):
        return None

    dx, dy = 0.1 * box.width, 0.1 * box.height
    x_lo = max(0, int(np.floor(box.x_min - dx)))
    y_lo = max(0, int(np.floor(box.y_min - dy)))
    x_hi = min(frame.width - 1, int(np.ceil(box.x_max + dx)))
    y_hi = min(frame.height - 1, int(np.ceil(box.y_max + dy)))

    pix = frame.pixels.astype(np.int16)
    seed_patch = pix[max(0, sy - 1):sy + 2, max(0, sx - 1):sx + 2]
    seed_mean = seed_patch.reshape(-1, 3).mean(axis=0)

    admitted = np.zeros((frame.height, frame.width), dtype=bool)

    def fits(x, y):
        return np.max(np.abs(pix[y, x] - seed_mean)) <= color_tolerance

    degenerate = not fits(sx, sy)
    admitted[sy, sx] = True
    if not degenerate:
        queue = deque([(sx, sy)])
        while queue:
            x, y = queue.popleft()
            for nx, ny in ((x, y - 1), (x, y + 1), (x - 1, y), (x + 1, y)):
                if not (x_lo <= nx <= x_hi and y_lo <= ny <= y_hi):
                    continue
                if admitted[ny, nx] or not fits(nx, ny):
                    continue
                admitted[ny, nx] = True
                queue.append((nx, ny))

    return np.flatnonzero(admitted), degenerate


def segment_frame_bfs(frame: Frame, boxes, n_masks, color_tolerance=40.0):
    """`segment_frame` one box at a time through `segment_box_bfs`: the
    pixel indices for each of the first n_masks boxes, the pixel count for
    each later one, None for a box seeded off the frame."""
    out = []
    for k, box in enumerate(boxes):
        res = segment_box_bfs(frame, box, color_tolerance)
        out.append(None if res is None
                   else res[0] if k < n_masks else len(res[0]))
    return out


def spiral(n):
    """An n x n square spiral: a one-pixel corridor from the top left
    corner inwards, clockwise, one pixel of wall between its turns."""
    on = np.zeros((n, n), dtype=bool)
    y, x, dy, dx = 0, 0, 0, 1
    on[y, x] = True
    turns = 0
    while turns < 2:
        ny, nx, ay, ax = y + dy, x + dx, y + 2 * dy, x + 2 * dx
        if 0 <= ny < n and 0 <= nx < n and not on[ny, nx] and not (
                0 <= ay < n and 0 <= ax < n and on[ay, ax]):
            y, x, turns = ny, nx, 0
            on[y, x] = True
        else:  # turn right
            dy, dx, turns = dx, -dy, turns + 1
    return on


def serpentine(n):
    """One-pixel columns joined alternately at the bottom and the top: a
    single corridor whose rows, but the first and the last, hold only
    one-pixel runs."""
    on = np.zeros((n, n), dtype=bool)
    on[:, ::2] = True
    on[n - 1, 1::4] = True
    on[0, 3::4] = True
    return on
