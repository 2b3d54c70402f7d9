"""Reference SORT tracker: the per-track code `tracker.SortTracker` must match.

`flaremon.tracker.SortTracker` keeps its tracks as stacked arrays and runs
one batched predict, one broadcast IoU matrix and one batched update per
frame.  This module keeps the plain form: a list of frozen `Track`s, one
Kalman predict and update per track on a single (7,)/(7, 7) state, and one
`BBox` and `core.iou` call per (track, detection) pair, so the tests can
require the same reported ids, matches, births, deaths and states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import List, Sequence, Tuple

import numpy as np

from flaremon.core import BBox, DetClass, Detection, iou
from flaremon.errors import NumericalError
from flaremon.tracker import (KalmanParams, KalmanState, SortParams,
                              hungarian)

_SCALE_EPS = 1e-9


@dataclass(frozen=True)
class Track:
    id: int
    state: KalmanState
    hits: int
    age: int
    time_since_update: int
    cls: DetClass


def _symmetrize(P):
    return (P + P.T) / 2.0


def kalman_predict(state: KalmanState, p: KalmanParams) -> KalmanState:
    x = p.F @ state.x
    P = _symmetrize(p.F @ state.P @ p.F.T + p.Q)
    degenerate = False
    if x[2] <= 0.0:
        x = x.copy()
        x[2] = _SCALE_EPS
        degenerate = True
    return KalmanState(x=x, P=P, degenerate_scale=degenerate)


def kalman_update(state: KalmanState, z, p: KalmanParams) -> KalmanState:
    z = np.asarray(z, dtype=float)
    S = _symmetrize(p.H @ state.P @ p.H.T + p.R)
    innovation = z - p.H @ state.x

    vals, vecs = np.linalg.eigh(S)
    lam_max = max(float(vals.max()), 0.0)
    zero = vals <= max(lam_max * 1e-12, 1e-300)
    innov_rot = vecs.T @ innovation
    scale = 1.0 + float(np.linalg.norm(z))
    if np.any(zero & (np.abs(innov_rot) > 1e-9 * scale)):
        raise NumericalError("innovation covariance is singular")
    positive = vals[~zero]
    if positive.size and positive.max() / positive.min() > 1e12:
        raise NumericalError("innovation covariance is ill-conditioned")
    inv_vals = np.where(zero, 0.0, 1.0 / np.where(zero, 1.0, vals))
    S_pinv = vecs @ np.diag(inv_vals) @ vecs.T

    K = state.P @ p.H.T @ S_pinv
    x = state.x + K @ innovation
    P = _symmetrize((np.eye(state.P.shape[0]) - K @ p.H) @ state.P)
    return KalmanState(x=x, P=P)


def bbox_to_measurement(b: BBox):
    """Box -> (u, v, s, r): center, area, aspect ratio."""
    u, v = (b.x_min + b.x_max) / 2.0, (b.y_min + b.y_max) / 2.0
    w, h = b.width, b.height
    return np.array([u, v, w * h, w / h])


def measurement_to_bbox(m) -> BBox:
    u, v, s, r = float(m[0]), float(m[1]), float(m[2]), float(m[3])
    s = max(s, _SCALE_EPS)
    r = max(r, _SCALE_EPS)
    w = math.sqrt(s * r)
    h = s / w
    return BBox(u - w / 2.0, v - h / 2.0, u + w / 2.0, v + h / 2.0)


def initial_state(measurement, p: KalmanParams) -> KalmanState:
    """Fresh track state: zero velocities, inflated velocity covariance."""
    x = np.zeros(7)
    x[:4] = measurement
    meas_var = np.maximum(np.diag(p.R), 1.0)
    P = np.zeros((7, 7))
    P[:4, :4] = np.diag(meas_var)
    P[4:, 4:] = np.diag(meas_var[:3]) * 1000.0
    return KalmanState(x=x, P=P)


def predicted_bbox(track: Track) -> BBox:
    return measurement_to_bbox(track.state.x[:4])


class SortTracker:
    """Per-track SORT: one frozen `Track` per live track, rebuilt per step."""

    def __init__(self, params: SortParams = None, kalman: KalmanParams = None,
                 cls: DetClass = DetClass.FLAME):
        self.params = params or SortParams()
        self.kalman = kalman or KalmanParams()
        self.cls = cls
        self.tracks: List[Track] = []
        self._next_id = 1

    def step(self, detections: Sequence[Detection]):
        """Advance one frame.

        Returns (reported_tracks, matches, births, deaths) where matches is
        a list of (track_id, detection_index), births/deaths are track ids,
        and reported_tracks have hits >= min_hits.
        """
        p = self.params
        predicted = [
            replace(t, state=kalman_predict(t.state, self.kalman),
                    age=t.age + 1)
            for t in self.tracks
        ]

        matches: List[Tuple[int, int]] = []
        matched_rows, matched_cols = set(), set()
        if predicted and detections:
            iou_mat = np.array(
                [[iou(predicted_bbox(t), d.bbox) for d in detections]
                 for t in predicted]
            )
            pairs, _ = hungarian(-iou_mat)
            for row, col in pairs:
                if iou_mat[row, col] >= p.iou_threshold:
                    matches.append((row, col))
                    matched_rows.add(row)
                    matched_cols.add(col)

        next_tracks: List[Track] = []
        deaths: List[int] = []
        match_ids: List[Tuple[int, int]] = []
        for row, track in enumerate(predicted):
            if row in matched_rows:
                col = next(c for r, c in matches if r == row)
                z = bbox_to_measurement(detections[col].bbox)
                state = kalman_update(track.state, z, self.kalman)
                track = replace(track, state=state, hits=track.hits + 1,
                                time_since_update=0)
                match_ids.append((track.id, col))
                next_tracks.append(track)
            else:
                track = replace(track,
                                time_since_update=track.time_since_update + 1)
                if track.time_since_update > p.max_age:
                    deaths.append(track.id)
                else:
                    next_tracks.append(track)

        births: List[int] = []
        for col, det in enumerate(detections):
            if col in matched_cols:
                continue
            z = bbox_to_measurement(det.bbox)
            track = Track(
                id=self._next_id,
                state=initial_state(z, self.kalman),
                hits=1,
                age=0,
                time_since_update=0,
                cls=self.cls,
            )
            self._next_id += 1
            births.append(track.id)
            next_tracks.append(track)

        self.tracks = next_tracks
        reported = [t for t in next_tracks
                    if t.hits >= p.min_hits and t.time_since_update == 0]
        return reported, match_ids, births, deaths
