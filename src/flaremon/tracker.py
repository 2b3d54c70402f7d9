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

from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

import numpy as np

from .core import BBox, Detection
from .errors import InvalidCost, NumericalError

_SCALE_EPS = 1e-9


def _constant_velocity_F():
    F = np.eye(7)
    F[0, 4] = F[1, 5] = F[2, 6] = 1.0
    return F


def _observation_H():
    H = np.zeros((4, 7))
    H[0, 0] = H[1, 1] = H[2, 2] = H[3, 3] = 1.0
    return H


@dataclass(frozen=True)
class KalmanParams:
    F: np.ndarray = field(default_factory=_constant_velocity_F)
    Q: np.ndarray = field(
        default_factory=lambda: np.diag([1.0, 1.0, 1.0, 1.0, 0.01, 0.01, 1e-4])
    )
    H: np.ndarray = field(default_factory=_observation_H)
    R: np.ndarray = field(default_factory=lambda: np.diag([1.0, 1.0, 10.0, 10.0]))


@dataclass(frozen=True)
class KalmanState:
    x: np.ndarray  # shape (..., 7)
    P: np.ndarray  # shape (..., 7, 7)
    degenerate_scale: bool = False  # per row: the scale was clamped


@dataclass(frozen=True)
class SortParams:
    iou_threshold: float = 0.3
    max_age: int = 5
    min_hits: int = 3

    def __post_init__(self):
        if not (0.0 < self.iou_threshold < 1.0):
            raise ValueError("iou_threshold must lie in (0, 1)")
        if self.max_age < 1 or self.min_hits < 1:
            raise ValueError("max_age and min_hits must be >= 1")


def _symmetrize(P):
    return (P + P.swapaxes(-1, -2)) / 2.0


def _apply(A, v):
    """A @ v for every vector v on the last axis."""
    return (A @ v[..., None])[..., 0]


def kalman_predict(state: KalmanState, p: KalmanParams) -> KalmanState:
    x = _apply(p.F, state.x)
    P = _symmetrize(p.F @ state.P @ p.F.T + p.Q)
    degenerate = x[..., 2] <= 0.0
    x[..., 2] = np.where(degenerate, _SCALE_EPS, x[..., 2])
    return KalmanState(x=x, P=P, degenerate_scale=degenerate)


def kalman_update(state: KalmanState, z, p: KalmanParams) -> KalmanState:
    z = np.asarray(z, dtype=float)
    S = _symmetrize(p.H @ state.P @ p.H.T + p.R)
    innovation = z - _apply(p.H, state.x)

    # Exact-zero innovation modes arise in the perfect-measurement limit
    # (R = 0 collapses already-measured variances to zero).  A zero mode
    # whose innovation is also zero carries no correction; a zero mode with
    # a non-zero innovation, or a badly spread positive spectrum, means the
    # gain is numerically undefined.  The first such row raises.
    vals, vecs = np.linalg.eigh(S)
    lam_max = vals.max(axis=-1, keepdims=True)
    zero = vals <= np.maximum(lam_max * 1e-12, 1e-300)
    singular = zero.any(axis=-1)  # narrowed below to inconsistent rows
    if singular.any():
        innov_rot = _apply(vecs.swapaxes(-1, -2), innovation)
        scale = 1.0 + np.sqrt((z * z).sum(axis=-1, keepdims=True))
        singular = np.any(zero & (np.abs(innov_rot) > 1e-9 * scale), axis=-1)
    positive = np.where(zero, np.inf, vals)  # zero modes invert to 0
    spread = lam_max[..., 0] / positive.min(axis=-1)
    bad = np.flatnonzero(singular | (spread > 1e12))
    if bad.size:
        raise NumericalError("innovation covariance is singular"
                             if np.ravel(singular)[bad[0]] else
                             "innovation covariance is ill-conditioned")
    S_pinv = (vecs * (1.0 / positive)[..., None, :]) @ vecs.swapaxes(-1, -2)

    K = state.P @ p.H.T @ S_pinv
    x = state.x + _apply(K, innovation)
    P = _symmetrize((np.eye(state.P.shape[-1]) - K @ p.H) @ state.P)
    return KalmanState(x=x, P=P)


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
    in the operation order of `core.iou`."""
    overlap = np.maximum(np.minimum(a[:, None, 2:], b[:, 2:])
                         - np.maximum(a[:, None, :2], b[:, :2]), 0.0)
    inter = overlap[..., 0] * overlap[..., 1]
    (wa, ha), (wb, hb) = (a[:, 2:] - a[:, :2]).T, (b[:, 2:] - b[:, :2]).T
    return inter / ((wa * ha)[:, None] + wb * hb - inter)


def hungarian(cost) -> Tuple[List[Tuple[int, int]], float]:
    """Minimum-cost assignment of min(n, m) pairs on an n x m matrix.

    Rectangular matrices are padded square internally; padded pairs are
    excluded from the output.  Deterministic: equal-cost optima resolve to
    the same assignment for identical input.
    """
    cost = np.asarray(cost, dtype=float)
    if cost.size == 0:
        return [], 0.0
    if np.isnan(cost).any():
        raise InvalidCost("cost matrix contains NaN")
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
    total = float(sum(cost[i, j] for i, j in pairs))
    return pairs, total


class SortTracker:
    """Per-class SORT instance.  Single writer, frames strictly in order."""

    def __init__(self, params: SortParams = None, kalman: KalmanParams = None):
        self.params = params or SortParams()
        self.kalman = kalman or KalmanParams()
        self.x = np.zeros((0, 7))
        self.P = np.zeros((0, 7, 7))
        self.hits = np.zeros(0, dtype=np.int64)
        self.time_since_update = np.zeros(0, dtype=np.int64)
        self.id = np.zeros(0, dtype=np.int64)
        self._next_id = 1
        # A newborn's covariance: measurement-noise variances (floored so the
        # first update stays well-posed even with R = 0), velocities x1000.
        meas_var = np.maximum(np.diag(self.kalman.R), 1.0)
        self._birth_P = np.diag(np.concatenate(
            [meas_var, meas_var[:3] * 1000.0]))[None]

    def step(self, detections: Sequence[Detection]):
        """Advance one frame.

        Returns (reported, matches, births, deaths): the ids of the tracks
        with hits >= min_hits matched or born this frame, (track_id,
        detection_index) pairs, and the ids born and died this frame.
        """
        p = self.params
        predicted = kalman_predict(KalmanState(self.x, self.P), self.kalman)
        x, P = predicted.x, predicted.P
        det_boxes = np.array(
            [(d.bbox.x_min, d.bbox.y_min, d.bbox.x_max, d.bbox.y_max)
             for d in detections], dtype=float).reshape(-1, 4)
        # Huge boxes overflow here silently, as they do in Python floats.
        with np.errstate(all="ignore"):
            z = _measurements(det_boxes)
            boxes = _boxes(x)
            iou_mat = _iou_matrix(boxes, det_boxes)
        if len(z) and not (np.isfinite(boxes).all()
                           and (boxes[:, :2] < boxes[:, 2:]).all()):
            for box in boxes.tolist():
                BBox(*box)  # raises the ValueError of the first bad box

        pairs, _ = hungarian(-iou_mat)
        rows, cols = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
        keep = iou_mat[rows, cols] >= p.iou_threshold
        rows, cols = rows[keep], cols[keep]
        if rows.size:
            updated = kalman_update(KalmanState(x[rows], P[rows]), z[cols],
                                    self.kalman)
            x[rows], P[rows] = updated.x, updated.P

        self.hits[rows] += 1
        self.time_since_update += 1
        self.time_since_update[rows] = 0
        alive = self.time_since_update <= p.max_age
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
        reported = self.id[(self.hits >= p.min_hits)
                           & (self.time_since_update == 0)]
        return reported.tolist(), match_ids, born.tolist(), deaths
