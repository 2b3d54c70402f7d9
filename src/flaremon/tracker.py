"""SORT multi-object tracking: Kalman estimation plus Hungarian association.

State is the 7-vector (u, v, s, r, du, dv, ds): box center, scale (area),
aspect ratio, and velocities for all but the aspect ratio.  Constant
velocity with unit timestep; only (u, v, s, r) is observed.  Q, R and the
birth covariance are diagonal, so the covariance P stays block-diagonal
over (u, du), (v, dv), (s, ds) and r.  The filter runs elementwise, in the
full-matrix filter's operation order, on ``var`` (..., 7), the diagonal of
P, and ``cov`` (..., 3), the entries P[i, i + 4] for u, v and s.

`SortTracker` keeps its tracks as stacked arrays, one row per track in
birth order: ``x``, ``var``, ``cov``, ``hits``, ``time_since_update`` and
``id``.  Each step is one batched predict, one broadcast IoU matrix, one
Hungarian assignment, one batched update of the matched rows, and births
and deaths by concatenation and a boolean mask.  The Kalman functions take
any leading batch axes.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from .core import BBox, Detection
from .errors import NumericalError

_SCALE_EPS = 1e-9

PROCESS_VAR = np.array([1.0, 1.0, 1.0, 1.0, 0.01, 0.01, 1e-4])  # diag Q
MEASUREMENT_VAR = np.array([1.0, 1.0, 10.0, 10.0])  # diag R
IOU_THRESHOLD = 0.3  # least IoU of a track and the detection it matches
MAX_AGE = 5  # frames a track lives on without a match
MIN_HITS = 3  # matches before a track is reported


def kalman_predict(x, var, cov):
    x = x.copy()
    x[..., :3] += x[..., 4:]
    x[..., 2] = np.where(x[..., 2] <= 0.0, _SCALE_EPS, x[..., 2])
    pos, vel = var[..., :3], var[..., 4:]
    var = var + PROCESS_VAR
    var[..., :3] = ((pos + cov) + (cov + vel)) + PROCESS_VAR[:3]
    return x, var, cov + vel


def kalman_update(x, var, cov, z):
    z = np.asarray(z, dtype=float)
    pos = var[..., :4]
    S = pos + MEASUREMENT_VAR
    innovation = z - x[..., :4]

    # Exact-zero innovation variances arise in the perfect-measurement limit
    # (R = 0 collapses already-measured variances to zero).  A zero axis
    # carries no correction, and a non-zero innovation on one leaves the
    # gain undefined.  The threshold keeps the axes' spread below 1e12.
    zero = S <= np.maximum(S.max(axis=-1, keepdims=True) * 1e-12, 1e-300)
    if zero.any():
        scale = 1.0 + np.sqrt((z * z).sum(axis=-1, keepdims=True))
        if np.any(zero & (np.abs(innovation) > 1e-9 * scale)):
            raise NumericalError("innovation covariance is singular")
    inv = 1.0 / np.where(zero, np.inf, S)  # zero axes invert to 0

    k_pos, k_vel = pos * inv, cov * inv[..., :3]
    x = x + np.concatenate([k_pos * innovation,
                            k_vel * innovation[..., :3]], axis=-1)
    keep = 1.0 - k_pos
    var = np.concatenate([keep * pos, -k_vel * cov + var[..., 4:]], axis=-1)
    cov = (keep[..., :3] * cov + (-k_vel * pos[..., :3] + cov)) / 2.0
    return x, var, cov


def _measurements(b):
    """(m, 4) boxes (x0, y0, x1, y1) -> (u, v, s, r): center, area, aspect."""
    w, h = (b[:, 2:] - b[:, :2]).T
    return np.concatenate([(b[:, :2] + b[:, 2:]) / 2.0,
                           np.array([w * h, w / h]).T], axis=1)


def _boxes(m):
    """(n, 4) measurements (u, v, s, r) -> (n, 4) boxes (x0, y0, x1, y1)."""
    s, r = np.maximum(m[:, 2:4], _SCALE_EPS).T
    w = np.sqrt(s * r)
    half = np.array([w, s / w]).T / 2.0
    return np.concatenate([m[:, :2] - half, m[:, :2] + half], axis=1)


def _iou_matrix(a, b):
    """IoU of each of the (n, 4) boxes a with each of the (m, 4) boxes b,
    in the operation order of `tests/sort_oracle.iou`."""
    overlap = np.maximum(np.minimum(a[:, None, 2:], b[:, 2:])
                         - np.maximum(a[:, None, :2], b[:, :2]), 0.0)
    inter = overlap[..., 0] * overlap[..., 1]
    (wa, ha), (wb, hb) = (a[:, 2:] - a[:, :2]).T, (b[:, 2:] - b[:, :2]).T
    return inter / ((wa * ha)[:, None] + wb * hb - inter)


def hungarian(cost) -> List[Tuple[int, int]]:
    """Minimum-cost assignment of min(n, m) pairs on an n x m matrix.

    The matrix is padded square with zeros, held as Python floats, which
    the loop indexes faster than numpy's; padded pairs are not output.
    Deterministic: equal-cost optima resolve alike for identical input.
    """
    cost = np.asarray(cost, dtype=float)
    if cost.size == 0:
        return []
    if np.isnan(cost).any():
        raise NumericalError("cost matrix contains NaN")
    n_rows, n_cols = cost.shape
    n = max(n_rows, n_cols)
    a = [row + [0.0] * (n - n_cols) for row in cost.tolist()]
    a += [[0.0] * n] * (n - n_rows)

    # Jonker-style shortest augmenting paths with potentials, 1-indexed.
    INF = float("inf")
    u = [0.0] * (n + 1)
    v = [0.0] * (n + 1)
    p = [0] * (n + 1)  # p[j] = row assigned to column j
    way = [0] * (n + 1)
    for i in range(1, n + 1):
        p[0] = i
        j0 = 0
        minv = [INF] * (n + 1)
        used = [False] * (n + 1)
        while True:
            used[j0] = True
            i0 = p[j0]
            delta = INF
            j1 = 0
            for j in range(1, n + 1):
                if used[j]:
                    continue
                cur = a[i0 - 1][j - 1] - u[i0] - v[j]
                if cur < minv[j]:
                    minv[j] = cur
                    way[j] = j0
                if minv[j] < delta:
                    delta = minv[j]
                    j1 = j
            for j in range(n + 1):
                if used[j]:
                    u[p[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
            if p[j0] == 0:
                break
        while j0:
            j1 = way[j0]
            p[j0] = p[j1]
            j0 = j1

    pairs = []
    for j in range(1, n + 1):
        i = p[j]
        if 1 <= i <= n_rows and j <= n_cols:
            pairs.append((i - 1, j - 1))
    pairs.sort()
    return pairs


class SortTracker:
    """Per-class SORT instance.  Single writer, frames strictly in order."""

    def __init__(self):
        self.x = np.zeros((0, 7))
        self.var = np.zeros((0, 7))
        self.cov = np.zeros((0, 3))
        self.hits = np.zeros(0, dtype=np.int64)
        self.time_since_update = np.zeros(0, dtype=np.int64)
        self.id = np.zeros(0, dtype=np.int64)
        self._next_id = 1
        # A newborn's covariance: measurement-noise variances (floored so the
        # first update stays well-posed even with R = 0), velocities x1000.
        meas_var = np.maximum(MEASUREMENT_VAR, 1.0)
        self._birth_var = np.concatenate([meas_var, meas_var[:3] * 1000.0])

    def step(self, detections: Sequence[Detection]):
        """Advance one frame.

        Returns (reported, matches, births, deaths): the ids of the tracks
        with hits >= MIN_HITS matched or born this frame, (track_id,
        detection_index) pairs, and the ids born and died this frame.
        """
        x, var, cov = kalman_predict(self.x, self.var, self.cov)
        det_boxes = np.array([d.bbox for d in detections],
                             dtype=float).reshape(-1, 4)
        # Huge boxes overflow here silently, as they do in Python floats.
        with np.errstate(all="ignore"):
            z = _measurements(det_boxes)
            boxes = _boxes(x)
            iou_mat = _iou_matrix(boxes, det_boxes)
        if len(z) and not (np.isfinite(boxes).all()
                           and (boxes[:, :2] < boxes[:, 2:]).all()):
            for box in boxes.tolist():
                BBox(*box)  # raises the ValueError of the first bad box

        pairs = hungarian(-iou_mat)
        rows, cols = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
        keep = iou_mat[rows, cols] >= IOU_THRESHOLD
        rows, cols = rows[keep], cols[keep]
        if rows.size:
            x[rows], var[rows], cov[rows] = kalman_update(
                x[rows], var[rows], cov[rows], z[cols])

        self.hits[rows] += 1
        self.time_since_update += 1
        self.time_since_update[rows] = 0
        alive = self.time_since_update <= MAX_AGE
        unmatched = np.ones(len(z), dtype=bool)
        unmatched[cols] = False
        born = self._next_id + np.arange(np.count_nonzero(unmatched))
        self._next_id += len(born)
        match_ids = list(zip(self.id[rows].tolist(), cols.tolist()))
        deaths = self.id[~alive].tolist()

        if len(born) or deaths:
            def grow(a, new):
                return np.concatenate([a[alive], new])

            x_born = np.zeros((len(born), 7))
            x_born[:, :4] = z[unmatched]
            x, cov = grow(x, x_born), grow(cov, np.zeros((len(born), 3)))
            var = grow(var, np.broadcast_to(self._birth_var, (len(born), 7)))
            self.hits = grow(self.hits, np.ones_like(born))
            self.time_since_update = grow(self.time_since_update,
                                          np.zeros_like(born))
            self.id = grow(self.id, born)
        self.x, self.var, self.cov = x, var, cov
        reported = self.id[(self.hits >= MIN_HITS)
                           & (self.time_since_update == 0)]
        return reported.tolist(), match_ids, born.tolist(), deaths
