"""SORT multi-object tracking: Kalman estimation plus Hungarian association.

State is the 7-vector (u, v, s, r, du, dv, ds): box center, scale (area),
aspect ratio, and velocities for all but the aspect ratio.  Constant
velocity transition with unit timestep.

`SortTracker` keeps its tracks as stacked arrays, one row per track in
birth order: ``x`` (n, 7), ``P`` (n, 7, 7), ``hits``, ``time_since_update``
and ``id``.  Each step is one batched predict, one broadcast IoU matrix, one
Hungarian assignment, one batched update of the matched rows, and births
and deaths by concatenation and a boolean mask.  The Kalman functions take
any leading batch axes, a single (7,)/(7, 7) state included.
"""

from __future__ import annotations

from typing import List, NamedTuple, Sequence, Tuple

import numpy as np

from .core import BBox, Detection
from .errors import NumericalError

_SCALE_EPS = 1e-9


class KalmanParams(NamedTuple):
    """Transition F, process noise Q, observation H, measurement noise R."""
    F: np.ndarray
    Q: np.ndarray
    H: np.ndarray
    R: np.ndarray


# Constant velocity; only the box (u, v, s, r) is observed.
KALMAN = KalmanParams(F=np.eye(7) + np.eye(7, k=4),
                      Q=np.diag([1.0, 1.0, 1.0, 1.0, 0.01, 0.01, 1e-4]),
                      H=np.eye(4, 7), R=np.diag([1.0, 1.0, 10.0, 10.0]))
IOU_THRESHOLD = 0.3  # least IoU of a track and the detection it matches
MAX_AGE = 5  # frames a track lives on without a match
MIN_HITS = 3  # matches before a track is reported


def _symmetrize(P):
    return (P + P.swapaxes(-1, -2)) / 2.0


def _apply(A, v):
    """A @ v for every vector v on the last axis."""
    return (A @ v[..., None])[..., 0]


def kalman_predict(x, P, p: KalmanParams):
    x = _apply(p.F, x)
    P = _symmetrize(p.F @ P @ p.F.T + p.Q)
    x[..., 2] = np.where(x[..., 2] <= 0.0, _SCALE_EPS, x[..., 2])
    return x, P


def kalman_update(x, P, z, p: KalmanParams):
    z = np.asarray(z, dtype=float)
    S = _symmetrize(p.H @ P @ p.H.T + p.R)
    innovation = z - _apply(p.H, x)

    # Exact-zero innovation modes arise in the perfect-measurement limit
    # (R = 0 collapses already-measured variances to zero).  A zero mode
    # whose innovation is also zero carries no correction; a zero mode with
    # a non-zero innovation means the gain is numerically undefined.  The
    # zero-mode threshold also bounds the spread of the modes kept below
    # 1e12, so no positive spectrum is too ill-conditioned to invert.
    vals, vecs = np.linalg.eigh(S)
    lam_max = vals.max(axis=-1, keepdims=True)
    zero = vals <= np.maximum(lam_max * 1e-12, 1e-300)
    if zero.any():
        innov_rot = _apply(vecs.swapaxes(-1, -2), innovation)
        scale = 1.0 + np.sqrt((z * z).sum(axis=-1, keepdims=True))
        if np.any(zero & (np.abs(innov_rot) > 1e-9 * scale)):
            raise NumericalError("innovation covariance is singular")
    positive = np.where(zero, np.inf, vals)  # zero modes invert to 0
    S_pinv = (vecs * (1.0 / positive)[..., None, :]) @ vecs.swapaxes(-1, -2)

    K = P @ p.H.T @ S_pinv
    x = x + _apply(K, innovation)
    P = _symmetrize((np.eye(P.shape[-1]) - K @ p.H) @ P)
    return x, P


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

    Rectangular matrices are padded square internally; padded pairs are
    excluded from the output.  Deterministic: equal-cost optima resolve to
    the same assignment for identical input.
    """
    cost = np.asarray(cost, dtype=float)
    if cost.size == 0:
        return []
    if np.isnan(cost).any():
        raise NumericalError("cost matrix contains NaN")
    n_rows, n_cols = cost.shape
    n = max(n_rows, n_cols)
    a = np.zeros((n, n))
    a[:n_rows, :n_cols] = cost

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
        self.P = np.zeros((0, 7, 7))
        self.hits = np.zeros(0, dtype=np.int64)
        self.time_since_update = np.zeros(0, dtype=np.int64)
        self.id = np.zeros(0, dtype=np.int64)
        self._next_id = 1
        # A newborn's covariance: measurement-noise variances (floored so the
        # first update stays well-posed even with R = 0), velocities x1000.
        meas_var = np.maximum(np.diag(KALMAN.R), 1.0)
        self._birth_P = np.diag(np.concatenate(
            [meas_var, meas_var[:3] * 1000.0]))[None]

    def step(self, detections: Sequence[Detection]):
        """Advance one frame.

        Returns (reported, matches, births, deaths): the ids of the tracks
        with hits >= MIN_HITS matched or born this frame, (track_id,
        detection_index) pairs, and the ids born and died this frame.
        """
        x, P = kalman_predict(self.x, self.P, KALMAN)
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
            x[rows], P[rows] = kalman_update(x[rows], P[rows], z[cols],
                                             KALMAN)

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
            x, P = grow(x, x_born), grow(P, np.repeat(self._birth_P,
                                                      len(born), axis=0))
            self.hits = grow(self.hits, np.ones_like(born))
            self.time_since_update = grow(self.time_since_update,
                                          np.zeros_like(born))
            self.id = grow(self.id, born)
        self.x, self.P = x, P
        reported = self.id[(self.hits >= MIN_HITS)
                           & (self.time_since_update == 0)]
        return reported.tolist(), match_ids, born.tolist(), deaths
