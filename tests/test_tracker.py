import numpy as np
import pytest

from flaremon.core import BBox, DetClass, Detection
from flaremon.errors import InvalidCost, NumericalError
from flaremon.tracker import (KalmanParams, KalmanState, SortParams,
                              SortTracker, bbox_to_measurement, hungarian,
                              kalman_predict, kalman_update,
                              measurement_to_bbox, predicted_bbox)
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
        assert np.allclose(bbox_to_measurement(BBox(0, 0, 2, 2)), [1, 1, 4, 1])

    def test_wide_box(self):
        assert np.allclose(bbox_to_measurement(BBox(0, 0, 4, 1)),
                           [2, 0.5, 4, 4])

    def test_roundtrip_random(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            x0, y0 = rng.uniform(-50, 50, 2)
            w, h = rng.uniform(0.5, 40, 2)
            b = BBox(x0, y0, x0 + w, y0 + h)
            rb = measurement_to_bbox(bbox_to_measurement(b))
            assert np.allclose(
                [rb.x_min, rb.y_min, rb.x_max, rb.y_max],
                [b.x_min, b.y_min, b.x_max, b.y_max], atol=1e-9)


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
        old = [tr for tr in t.tracks if tr.id == 1][0]
        assert old.time_since_update == 1

    def test_track_dies_after_max_age(self):
        t = SortTracker(params=SortParams(max_age=2))
        t.step([det(0, 0, 10, 10)])
        deaths = []
        for _ in range(4):
            _, _, _, d = t.step([])
            deaths.extend(d)
        assert deaths == [1]
        assert t.tracks == []

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
        cx, cy = (predicted_bbox(reported[0]).x_min
                  + predicted_bbox(reported[0]).width / 2,
                  predicted_bbox(reported[0]).y_min
                  + predicted_bbox(reported[0]).height / 2)
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
                out.append(([r.id for r in reported], matches, births, deaths))
            return out

        assert run() == run()
