import itertools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flaremon.core import BBox, DetClass, Detection, iou
from flaremon.errors import InvalidCost, NumericalError
from flaremon.tracker import (KalmanParams, KalmanState, SortParams,
                              SortTracker, _boxes, _iou_matrix, _measurements,
                              hungarian, kalman_predict, kalman_update)
from tests import sort_oracle as oracle
from tests.assignment_oracle import brute_force_assignment


def identity_params(q=0.0, r=1.0):
    return KalmanParams(F=np.eye(7), Q=np.eye(7) * q,
                        R=np.eye(4) * r)


def state_with(x, p=1.0):
    return KalmanState(x=np.asarray(x, dtype=float), P=np.eye(7) * p)


class TestKalmanPredict:
    def test_identity_no_noise(self):
        s = state_with([1, 2, 3, 4, 5, 6, 7])
        out = kalman_predict(s, identity_params(q=0.0))
        assert np.allclose(out.x, s.x)
        assert np.allclose(out.P, s.P)

    def test_identity_unit_noise(self):
        s = state_with([1, 2, 3, 4, 5, 6, 7])
        out = kalman_predict(s, identity_params(q=1.0))
        assert np.allclose(out.x, s.x)
        assert np.allclose(out.P, s.P + np.eye(7))

    def test_constant_velocity_center(self):
        s = state_with([0, 0, 1, 1, 2, 3, 0])
        out = kalman_predict(s, KalmanParams())
        assert out.x[0] == pytest.approx(2)
        assert out.x[1] == pytest.approx(3)

    def test_degenerate_scale_clamped(self):
        s = state_with([0, 0, 1, 1, 0, 0, -5])
        out = kalman_predict(s, KalmanParams())
        assert out.degenerate_scale
        assert out.x[2] > 0


class TestKalmanUpdate:
    def test_perfect_measurement(self):
        p = identity_params(r=0.0)
        s = state_with([0, 0, 1, 1, 0, 0, 0], p=4.0)
        z = np.array([3.0, 4.0, 5.0, 2.0])
        out = kalman_update(s, z, p)
        assert np.allclose(out.x[:4], z, atol=1e-9)
        assert np.allclose(out.P[:4, :4], 0.0, atol=1e-9)

    def test_zero_innovation(self):
        p = identity_params(r=1.0)
        s = state_with([1, 2, 3, 4, 0, 0, 0])
        out = kalman_update(s, s.x[:4], p)
        assert np.allclose(out.x, s.x)

    def test_scalar_gain_half(self):
        # P=1, R=1, H selects component -> K=0.5, posterior variance 0.5
        p = identity_params(r=1.0)
        s = state_with([0, 0, 0, 0, 0, 0, 0], p=1.0)
        out = kalman_update(s, np.array([1.0, 0, 0, 0]), p)
        assert out.x[0] == pytest.approx(0.5)
        assert out.P[0, 0] == pytest.approx(0.5)

    def test_singular_inconsistent_innovation_raises(self):
        # zero innovation covariance cannot explain a non-zero innovation
        p = KalmanParams(R=np.zeros((4, 4)))
        s = KalmanState(x=np.zeros(7), P=np.zeros((7, 7)))
        with pytest.raises(NumericalError):
            kalman_update(s, np.ones(4), p)

    def test_ill_conditioned_innovation_raises(self):
        p = KalmanParams(R=np.diag([1.0, 1.0, 1.0, 1e-14]))
        s = KalmanState(x=np.zeros(7), P=np.zeros((7, 7)))
        with pytest.raises(NumericalError):
            kalman_update(s, np.ones(4), p)

    def test_covariance_psd_randomized(self):
        rng = np.random.default_rng(0)
        p = KalmanParams()
        s = state_with([0, 0, 100, 1, 0, 0, 0], p=10.0)
        for _ in range(200):
            s = kalman_predict(s, p)
            z = s.x[:4] + rng.normal(scale=[2, 2, 5, 0.05])
            s = kalman_update(s, z, p)
            assert np.allclose(s.P, s.P.T)
            assert np.linalg.eigvalsh(s.P).min() >= -1e-9


class TestMeasurementConversion:
    def test_square_box(self):
        assert np.allclose(_measurements(np.array([[0.0, 0, 2, 2]])),
                           [[1, 1, 4, 1]])

    def test_wide_box(self):
        assert np.allclose(_measurements(np.array([[0.0, 0, 4, 1]])),
                           [[2, 0.5, 4, 4]])

    def test_roundtrip_random(self):
        rng = np.random.default_rng(1)
        x0, y0 = rng.uniform(-50, 50, (2, 100))
        w, h = rng.uniform(0.5, 40, (2, 100))
        b = np.column_stack([x0, y0, x0 + w, y0 + h])
        assert np.allclose(_boxes(_measurements(b)), b, atol=1e-9)

    def test_bit_identical_to_per_box_conversion(self):
        rng = np.random.default_rng(2)
        x0, y0 = rng.uniform(-500, 500, (2, 200))
        w, h = rng.uniform(0.01, 400, (2, 200))
        b = np.column_stack([x0, y0, x0 + w, y0 + h])
        z = _measurements(b)
        assert z.tolist() == [oracle.bbox_to_measurement(BBox(*r)).tolist()
                              for r in b.tolist()]
        # Negative scale and aspect rows are clamped as in the per-box code.
        z[::3, 2:] *= -1.0
        assert _boxes(z).tolist() == [
            [c.x_min, c.y_min, c.x_max, c.y_max]
            for c in map(oracle.measurement_to_bbox, z)]

    def test_iou_matrix_bit_identical_to_core_iou(self):
        rng = np.random.default_rng(3)
        lo = rng.integers(0, 40, (30, 2)) + rng.choice([0.0, 0.25], (30, 2))
        b = np.hstack([lo, lo + rng.integers(1, 30, (30, 2))])  # some touch
        got = _iou_matrix(b[:12], b[12:])
        boxes = [BBox(*r) for r in b.tolist()]
        assert got.tolist() == [[iou(p, q) for q in boxes[12:]]
                                for p in boxes[:12]]
        assert (got == 0).any() and (got > 0).any()


class TestHungarian:
    def test_one_by_one(self):
        assert hungarian([[5.0]]) == ([(0, 0)], 5.0)

    def test_two_by_two(self):
        pairs, cost = hungarian([[1.0, 2.0], [2.0, 1.0]])
        assert pairs == [(0, 0), (1, 1)] and cost == 2.0

    def test_off_diagonal_optimum(self):
        pairs, cost = hungarian([[4.0, 1.0], [2.0, 0.0]])
        assert pairs == [(0, 1), (1, 0)] and cost == 3.0

    def test_nan_rejected(self):
        with pytest.raises(InvalidCost):
            hungarian([[float("nan")]])

    def test_rectangular(self):
        pairs, cost = hungarian([[10.0, 1.0, 8.0]])
        assert pairs == [(0, 1)] and cost == 1.0
        pairs, cost = hungarian([[10.0], [1.0], [8.0]])
        assert pairs == [(1, 0)] and cost == 1.0

    def test_matches_brute_force(self):
        rng = np.random.default_rng(42)
        for _ in range(300):
            n, m = rng.integers(1, 7, 2)
            c = rng.normal(size=(n, m)) * rng.choice([0.1, 1, 10])
            _, total = hungarian(c)
            assert total == pytest.approx(brute_force_assignment(c))


def det(x0, y0, x1, y1, conf=0.9):
    return Detection(BBox(x0, y0, x1, y1), DetClass.FLAME, conf)


class TestSortStep:
    def test_births_get_distinct_ids(self):
        t = SortTracker()
        _, _, births, _ = t.step([det(0, 0, 10, 10), det(50, 50, 60, 60)])
        assert len(births) == 2 and len(set(births)) == 2

    def test_no_match_below_threshold(self):
        t = SortTracker()
        t.step([det(0, 0, 10, 10)])
        _, matches, births, _ = t.step([det(100, 100, 110, 110)])
        assert matches == [] and len(births) == 1
        assert t.time_since_update[t.id == 1].tolist() == [1]

    def test_track_dies_after_max_age(self):
        t = SortTracker(params=SortParams(max_age=2))
        t.step([det(0, 0, 10, 10)])
        deaths = []
        for _ in range(4):
            _, _, _, d = t.step([])
            deaths.extend(d)
        assert deaths == [1]
        assert t.id.size == 0 and t.x.shape == (0, 7)

    def test_ids_never_reused(self):
        t = SortTracker(params=SortParams(max_age=1))
        seen = set()
        rng = np.random.default_rng(3)
        for i in range(30):
            dets = [det(x, x, x + 10, x + 10)
                    for x in rng.uniform(0, 300, rng.integers(0, 3))]
            _, _, births, _ = t.step(dets)
            for b in births:
                assert b not in seen
                seen.add(b)

    def test_reported_requires_min_hits(self):
        t = SortTracker(params=SortParams(min_hits=3))
        reported, _, _, _ = t.step([det(0, 0, 10, 10)])
        assert reported == []
        reported, _, _, _ = t.step([det(0.5, 0, 10.5, 10)])
        assert reported == []
        reported, _, _, _ = t.step([det(1, 0, 11, 10)])
        assert len(reported) == 1

    def test_noiseless_constant_velocity_tracked(self):
        # Q=0, R=0: tracked center equals ground truth within 1e-6 after 3 updates
        kp = KalmanParams(Q=np.zeros((7, 7)), R=np.zeros((4, 4)))
        t = SortTracker(params=SortParams(min_hits=1), kalman=kp)
        for k in range(5):
            x = 10.0 + 3.0 * k
            reported, _, _, _ = t.step([det(x, 20, x + 10, 30)])
        x0, y0, x1, y1 = _boxes(t.x[t.id == reported[0]])[0]
        cx, cy = x0 + (x1 - x0) / 2, y0 + (y1 - y0) / 2
        assert cx == pytest.approx(10.0 + 3.0 * 4 + 5.0, abs=1e-6)
        assert cy == pytest.approx(25.0, abs=1e-6)

    def test_deterministic(self):
        def run():
            t = SortTracker()
            out = []
            rng = np.random.default_rng(9)
            for _ in range(20):
                dets = [det(x, x, x + 10, x + 10)
                        for x in rng.uniform(0, 200, 3)]
                reported, matches, births, deaths = t.step(dets)
                out.append((reported, matches, births, deaths))
            return out

        assert run() == run()


def assert_states_close(got, want):
    np.testing.assert_allclose(got.x, want.x, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(got.P, want.P, rtol=1e-12, atol=1e-12)


class TestStackedKalman:
    def random_stack(self, rng, n):
        A = rng.normal(size=(n, 7, 7))
        P = A @ A.swapaxes(-1, -2) + np.eye(7) * rng.uniform(0.1, 10.0)
        x = rng.normal(size=(n, 7)) * 50.0
        return KalmanState(x=x, P=P), x[:, :4] + rng.normal(size=(n, 4))

    def test_stacked_equals_single_row_by_row(self):
        rng = np.random.default_rng(5)
        for p in (KalmanParams(),
                  KalmanParams(R=np.diag([0.0, 1e-3, 0.0, 2.0]))):
            for n in (1, 2, 6, 20):
                s, z = self.random_stack(rng, n)
                pred, post = kalman_predict(s, p), kalman_update(s, z, p)
                for i in range(n):
                    one = KalmanState(x=s.x[i], P=s.P[i])
                    for stacked, single, ref in (
                            (pred, kalman_predict(one, p),
                             oracle.kalman_predict(one, p)),
                            (post, kalman_update(one, z[i], p),
                             oracle.kalman_update(one, z[i], p))):
                        assert_states_close(
                            KalmanState(x=stacked.x[i], P=stacked.P[i]),
                            single)
                        assert_states_close(single, ref)

    def test_degenerate_scale_clamped_per_row(self):
        x = np.array([[0, 0, 1, 1, 0, 0, -5], [0, 0, 9, 1, 0, 0, -5]], float)
        out = kalman_predict(KalmanState(x=x, P=np.stack([np.eye(7)] * 2)),
                             KalmanParams())
        assert out.degenerate_scale.tolist() == [True, False]
        assert out.x[:, 2].tolist() == [1e-9, 4.0]

    @staticmethod
    def stack_with_bad_row(bad_row, n=4):
        # R = 0 and zero covariance: only a zero innovation is consistent.
        p = KalmanParams(R=np.zeros((4, 4)))
        s = KalmanState(x=np.zeros((n, 7)), P=np.zeros((n, 7, 7)))
        z = np.zeros((n, 4))
        z[bad_row] = 1.0
        return s, z, p

    @pytest.mark.parametrize("bad_row", [0, 2, 3])
    def test_one_singular_row_raises(self, bad_row):
        s, z, p = self.stack_with_bad_row(bad_row)
        with pytest.raises(NumericalError, match="singular"):
            kalman_update(s, z, p)
        z[bad_row] = 0.0
        out = kalman_update(s, z, p)
        assert np.array_equal(out.x, s.x)


def run_both(frames, params=None, kalman=None):
    """Step the stacked tracker and the per-track oracle through the same
    frames; both must report, match, give birth, die and raise alike."""
    new, ref = SortTracker(params, kalman), oracle.SortTracker(params, kalman)
    for dets in frames:
        outcome = []
        for t in (new, ref):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                try:
                    outcome.append(("ok", t.step(dets)))
                except (ValueError, NumericalError, InvalidCost) as exc:
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
            assert_states_close(new, KalmanState(
                x=np.array([t.state.x for t in tracks]),
                P=np.array([t.state.P for t in tracks])))


NOISELESS = KalmanParams(Q=np.zeros((7, 7)), R=np.zeros((4, 4)))


@st.composite
def detection_streams(draw):
    """Up to 8 boxes per frame that drift, overlap, vanish and come back,
    jittered by 0, 0.5 or 3 px, in a shuffled order."""
    n_frames = draw(st.integers(1, 12))
    coord, size, drift = st.floats(0, 120), st.floats(4, 40), st.floats(-6, 6)
    objects = draw(st.lists(
        st.tuples(coord, coord, size, size, drift, drift,
                  st.lists(st.booleans(), min_size=n_frames,
                           max_size=n_frames)),
        max_size=8))
    jitter = draw(st.sampled_from([0.0, 0.5, 3.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    frames = []
    for k in range(n_frames):
        dets = []
        for x, y, w, h, dx, dy, seen in objects:
            ex, ey, ew, eh = rng.normal(0.0, jitter, 4)
            if seen[k]:
                x0, y0 = x + k * dx + ex, y + k * dy + ey
                dets.append(det(x0, y0, x0 + max(w + ew, 1.0),
                                y0 + max(h + eh, 1.0)))
        rng.shuffle(dets)
        frames.append(dets)
    return frames


class TestAgainstPerTrackOracle:
    @settings(max_examples=300, deadline=None)
    @given(detection_streams(), st.integers(1, 4), st.integers(1, 4),
           st.sampled_from([0.1, 0.3, 0.6]),
           st.sampled_from([None, NOISELESS]))
    def test_streams_match(self, frames, min_hits, max_age, threshold,
                           kalman):
        run_both(frames, SortParams(threshold, max_age, min_hits), kalman)

    def test_three_stacks_scene_matches(self):
        from flaremon.simulator import preset, render
        run_both([[d for d in rf.annotation.detections
                   if d.cls is DetClass.FLAME]
                  for rf in itertools.islice(render(preset("three_stacks")),
                                             60)])

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_non_finite_state_ends_as_before(self):
        # A 1e200 px box overflows the area to inf: the next frame's
        # predicted box is not finite, and BBox rejects it.
        frames = [[det(0.0, 0.0, 1e200, 1e200)], [det(0, 0, 10, 10)]]
        run_both(frames)
        t = SortTracker()
        t.step(frames[0])
        with pytest.raises(ValueError, match="non-finite box"):
            t.step(frames[1])

    def test_non_finite_state_without_detections_lives_on(self):
        run_both([[det(0.0, 0.0, 1e200, 1e200)], [], [], []],
                 SortParams(max_age=2))
