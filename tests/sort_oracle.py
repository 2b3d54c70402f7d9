"""Reference SORT tracker: the per-track code `tracker.SortTracker` must match.

`flaremon.tracker.SortTracker` keeps its tracks as stacked arrays and runs
one batched predict, one broadcast IoU matrix and one batched update per
frame, and runs the filter per axis on the diagonal of the covariance.
This module keeps the plain form: a list of frozen `Track`s, one Kalman
predict and update per track on a full (7,)/(7, 7) state with matrices F,
Q, H and R and an `eigh` pseudo-inverse, and one `BBox` and `iou` call per
(track, detection) pair, so the tests can require the same reported ids,
matches, births, deaths and states (SORT: Bewley et al., arXiv 1602.00763).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from typing import List, NamedTuple, Sequence, Tuple

import numpy as np

from flaremon.core import BBox, DetClass, Detection
from flaremon.errors import NumericalError
from flaremon import tracker
from flaremon.tracker import hungarian

_SCALE_EPS = 1e-9


class KalmanParams(NamedTuple):
    """Transition F, process noise Q, observation H, measurement noise R."""
    F: np.ndarray
    Q: np.ndarray
    H: np.ndarray
    R: np.ndarray


def kalman_params(process_var, measurement_var) -> KalmanParams:
    """The constant-velocity filter with Q = diag(process_var) and R =
    diag(measurement_var), as `flaremon.tracker` runs it per axis."""
    return KalmanParams(F=np.eye(7) + np.eye(7, k=4),
                        Q=np.diag(process_var), H=np.eye(4, 7),
                        R=np.diag(measurement_var))


class KalmanState(NamedTuple):
    """One track's state x (7,) and covariance P (7, 7)."""
    x: np.ndarray
    P: np.ndarray


def covariance(var, cov):
    """The (..., 7, 7) covariance of `flaremon.tracker`'s (var, cov) arrays:
    diagonal `var`, and `cov` at [i, i + 4] and [i + 4, i] for i < 3."""
    P = var[..., None] * np.eye(7)
    i = np.arange(3)
    P[..., i, i + 4] = P[..., i + 4, i] = cov
    return P


def iou(a: BBox, b: BBox) -> float:
    """Intersection over union; disjoint boxes give 0."""
    ix = min(a.x_max, b.x_max) - max(a.x_min, b.x_min)
    iy = min(a.y_max, b.y_max) - max(a.y_min, b.y_min)
    if ix <= 0.0 or iy <= 0.0:
        return 0.0
    inter = ix * iy
    return inter / (a.area + b.area - inter)


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
    # The mean moves by F without its 0 * x terms, so an overflowed entry
    # stays in its own component instead of making the others NaN.
    x = state.x.copy()
    x[:3] += x[4:]
    P = _symmetrize(p.F @ state.P @ p.F.T + p.Q)
    if x[2] <= 0.0:
        x[2] = _SCALE_EPS
    return KalmanState(x=x, P=P)


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

    def __init__(self, iou_threshold: float, max_age: int, min_hits: int,
                 kalman: KalmanParams, cls: DetClass = DetClass.FLAME):
        self.iou_threshold = iou_threshold
        self.max_age = max_age
        self.min_hits = min_hits
        self.kalman = kalman
        self.cls = cls
        self.tracks: List[Track] = []
        self._next_id = 1

    def step(self, detections: Sequence[Detection]):
        """Advance one frame.

        Returns (reported_tracks, matches, births, deaths) where matches is
        a list of (track_id, detection_index), births/deaths are track ids,
        and reported_tracks have hits >= min_hits.
        """
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
            pairs = hungarian(-iou_mat)
            for row, col in pairs:
                if iou_mat[row, col] >= self.iou_threshold:
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
                if track.time_since_update > self.max_age:
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
                    if t.hits >= self.min_hits and t.time_since_update == 0]
        return reported, match_ids, births, deaths


def assert_steps_alike(new: tracker.SortTracker, ref: SortTracker, frames):
    """Step `flaremon.tracker.SortTracker` `new` and the oracle `ref`, set
    up alike, through the same frames: both must report, match, give
    birth, die, raise and warn alike, and hold the same states to the bit
    (NaN included)."""
    for dets in frames:
        outcome = []
        for t in (new, ref):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                try:
                    outcome.append(("ok", t.step(dets)))
                except (ValueError, NumericalError) as exc:
                    outcome.append((type(exc), str(exc)))
            outcome.append([str(w.message) for w in caught])
        (kind, got), new_warnings, (ref_kind, want), ref_warnings = outcome
        assert new_warnings == ref_warnings
        if kind != "ok" or ref_kind != "ok":
            assert (kind, got) == (ref_kind, want)
            return
        reported, matches, births, deaths = want
        assert got == ([t.id for t in reported], matches, births, deaths)
        tracks = ref.tracks
        assert new.id.tolist() == [t.id for t in tracks]
        assert new.hits.tolist() == [t.hits for t in tracks]
        assert new.time_since_update.tolist() == [t.time_since_update
                                                  for t in tracks]
        if tracks:
            assert np.array_equal(new.x, [t.state.x for t in tracks],
                                  equal_nan=True)
            assert np.array_equal(covariance(new.var, new.cov),
                                  [t.state.P for t in tracks])
