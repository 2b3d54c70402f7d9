import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flaremon import tracker
from flaremon.core import BBox, DetClass, Detection
from flaremon.errors import NumericalError
from flaremon.simulator import PRESETS, preset, render
from flaremon.tracker import (MEASUREMENT_VAR, PROCESS_VAR, SortTracker,
                              _boxes, _iou_matrix, _measurements, hungarian,
                              kalman_predict, kalman_update)
from tests import sort_oracle as oracle
from tests.sort_oracle import KalmanState, covariance, iou
from tests.assignment_oracle import brute_force_assignment
from perfbench.scenes import MONITOR, scene


# (PROCESS_VAR, MEASUREMENT_VAR) pairs: the shipped noise, none at all, and
# perfect measurements.
SHIPPED = (PROCESS_VAR, MEASUREMENT_VAR)
NOISELESS = (np.zeros(7), np.zeros(4))
ZERO_R = (PROCESS_VAR, np.zeros(4))


def set_noise(mp, noise):
    mp.setattr(tracker, "PROCESS_VAR", noise[0])
    mp.setattr(tracker, "MEASUREMENT_VAR", noise[1])


def split(P):
    """A block-diagonal (..., 7, 7) covariance as its (var, cov) arrays."""
    var = np.diagonal(P, axis1=-2, axis2=-1).copy()
    return var, P[..., [0, 1, 2], [4, 5, 6]]


def state_with(x, p=1.0):
    return KalmanState(x=np.asarray(x, dtype=float), P=np.eye(7) * p)


def predict(s):
    """kalman_predict on an oracle state, as an oracle state."""
    x, var, cov = kalman_predict(s.x, *split(s.P))
    return KalmanState(x, covariance(var, cov))


def update(s, z):
    """kalman_update on an oracle state, as an oracle state."""
    x, var, cov = kalman_update(s.x, *split(s.P), z)
    return KalmanState(x, covariance(var, cov))


class TestKalmanPredict:
    def test_hand_case(self):
        # F P F^T + Q for P = I: position 1 + 1 + q, position-velocity 1,
        # velocity 1 + q; the aspect ratio has no velocity.
        x, var, cov = kalman_predict(np.arange(1.0, 8.0), np.ones(7),
                                     np.zeros(3))
        assert x.tolist() == [6, 8, 10, 4, 5, 6, 7]
        assert var.tolist() == (np.array([2, 2, 2, 1, 1, 1, 1.0])
                                + PROCESS_VAR).tolist()
        assert cov.tolist() == [1, 1, 1]

    def test_process_noise_only(self, monkeypatch):
        s = state_with([1, 2, 3, 4, 0, 0, 0], p=0.0)
        out = predict(s)
        assert np.array_equal(out.x, s.x)
        assert np.array_equal(out.P, np.diag(PROCESS_VAR))
        monkeypatch.setattr(tracker, "PROCESS_VAR", np.zeros(7))
        assert np.array_equal(predict(s).P, s.P)

    def test_inputs_unchanged(self):
        x, var, cov = np.arange(7.0), np.ones(7), np.full(3, 0.5)
        kalman_predict(x, var, cov)
        kalman_update(x, var, cov, np.ones(4))
        assert x.tolist() == list(range(7)) and var.tolist() == [1] * 7
        assert cov.tolist() == [0.5] * 3

    def test_constant_velocity_center(self):
        s = state_with([0, 0, 1, 1, 2, 3, 0])
        out = predict(s)
        assert out.x[0] == pytest.approx(2)
        assert out.x[1] == pytest.approx(3)

    def test_degenerate_scale_clamped(self):
        s = state_with([0, 0, 1, 1, 0, 0, -5])
        out = predict(s)
        assert out.x[2] == 1e-9


class TestKalmanUpdate:
    def test_perfect_measurement(self, monkeypatch):
        monkeypatch.setattr(tracker, "MEASUREMENT_VAR", np.zeros(4))
        s = state_with([0, 0, 1, 1, 0, 0, 0], p=4.0)
        z = np.array([3.0, 4.0, 5.0, 2.0])
        out = update(s, z)
        assert np.allclose(out.x[:4], z, atol=1e-9)
        assert np.allclose(out.P[:4, :4], 0.0, atol=1e-9)

    def test_zero_innovation(self):
        s = state_with([1, 2, 3, 4, 0, 0, 0])
        out = update(s, s.x[:4])
        assert np.allclose(out.x, s.x)

    def test_scalar_gain_half(self, monkeypatch):
        # P=1, R=1, H selects component -> K=0.5, posterior variance 0.5
        monkeypatch.setattr(tracker, "MEASUREMENT_VAR", np.ones(4))
        s = state_with([0, 0, 0, 0, 0, 0, 0], p=1.0)
        out = update(s, np.array([1.0, 0, 0, 0]))
        assert out.x[0] == pytest.approx(0.5)
        assert out.P[0, 0] == pytest.approx(0.5)

    def test_singular_inconsistent_innovation_raises(self, monkeypatch):
        # zero innovation covariance cannot explain a non-zero innovation
        monkeypatch.setattr(tracker, "MEASUREMENT_VAR", np.zeros(4))
        s = KalmanState(x=np.zeros(7), P=np.zeros((7, 7)))
        with pytest.raises(NumericalError):
            update(s, np.ones(4))

    def test_ill_conditioned_innovation_raises(self, monkeypatch):
        monkeypatch.setattr(tracker, "MEASUREMENT_VAR",
                            np.array([1.0, 1.0, 1.0, 1e-14]))
        s = KalmanState(x=np.zeros(7), P=np.zeros((7, 7)))
        with pytest.raises(NumericalError):
            update(s, np.ones(4))

    def test_covariance_psd_randomized(self):
        rng = np.random.default_rng(0)
        s = state_with([0, 0, 100, 1, 0, 0, 0], p=10.0)
        for _ in range(200):
            s = predict(s)
            z = s.x[:4] + rng.normal(scale=[2, 2, 5, 0.05])
            s = update(s, z)
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
        assert hungarian([[5.0]]) == [(0, 0)]

    def test_two_by_two(self):
        assert hungarian([[1.0, 2.0], [2.0, 1.0]]) == [(0, 0), (1, 1)]

    def test_off_diagonal_optimum(self):
        assert hungarian([[4.0, 1.0], [2.0, 0.0]]) == [(0, 1), (1, 0)]

    def test_nan_rejected(self):
        with pytest.raises(NumericalError,
                           match="^cost matrix contains NaN$"):
            hungarian([[float("nan")]])

    def test_rectangular(self):
        assert hungarian([[10.0, 1.0, 8.0]]) == [(0, 1)]
        assert hungarian([[10.0], [1.0], [8.0]]) == [(1, 0)]

    def test_matches_brute_force(self):
        rng = np.random.default_rng(42)
        for _ in range(300):
            n, m = rng.integers(1, 7, 2)
            c = rng.normal(size=(n, m)) * rng.choice([0.1, 1, 10])
            pairs = hungarian(c)
            assert len(pairs) == min(n, m)
            total = sum(c[i, j] for i, j in pairs)
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

    def test_track_dies_after_max_age(self, monkeypatch):
        monkeypatch.setattr(tracker, "MAX_AGE", 2)
        t = SortTracker()
        t.step([det(0, 0, 10, 10)])
        deaths = []
        for _ in range(4):
            _, _, _, d = t.step([])
            deaths.extend(d)
        assert deaths == [1]
        assert t.id.size == 0 and t.x.shape == (0, 7)

    def test_ids_never_reused(self, monkeypatch):
        monkeypatch.setattr(tracker, "MAX_AGE", 1)
        t = SortTracker()
        seen = set()
        rng = np.random.default_rng(3)
        for i in range(30):
            dets = [det(x, x, x + 10, x + 10)
                    for x in rng.uniform(0, 300, rng.integers(0, 3))]
            _, _, births, _ = t.step(dets)
            for b in births:
                assert b not in seen
                seen.add(b)

    def test_reported_requires_min_hits(self, monkeypatch):
        monkeypatch.setattr(tracker, "MIN_HITS", 3)
        t = SortTracker()
        reported, _, _, _ = t.step([det(0, 0, 10, 10)])
        assert reported == []
        reported, _, _, _ = t.step([det(0.5, 0, 10.5, 10)])
        assert reported == []
        reported, _, _, _ = t.step([det(1, 0, 11, 10)])
        assert len(reported) == 1

    def test_noiseless_constant_velocity_tracked(self, monkeypatch):
        # Q=0, R=0: tracked center equals ground truth within 1e-6 after 3 updates
        set_noise(monkeypatch, NOISELESS)
        monkeypatch.setattr(tracker, "MIN_HITS", 1)
        t = SortTracker()
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


def assert_states_equal(got, want):
    assert np.array_equal(got.x, want.x)
    assert np.array_equal(got.P, want.P)


def random_stack(rng, n):
    """n block-diagonal covariances, positive definite, and their boxes."""
    var = rng.uniform(0.1, 100.0, (n, 7))
    corr = rng.uniform(-0.99, 0.99, (n, 3))
    cov = corr * np.sqrt(var[:, :3] * var[:, 4:])
    x = rng.normal(size=(n, 7)) * 50.0
    return (KalmanState(x=x, P=covariance(var, cov)),
            x[:, :4] + rng.normal(size=(n, 4)))


class TestStackedKalman:
    @pytest.mark.parametrize("noise", [
        SHIPPED, ZERO_R, (PROCESS_VAR, np.array([0.0, 1e-3, 0.0, 2.0]))])
    def test_stacked_equals_single_row_by_row(self, noise, monkeypatch):
        set_noise(monkeypatch, noise)
        ref_params = oracle.kalman_params(*noise)
        rng = np.random.default_rng(5)
        for n in (1, 2, 6, 20):
            s, z = random_stack(rng, n)
            pred, post = predict(s), update(s, z)
            for i in range(n):
                one = KalmanState(x=s.x[i], P=s.P[i])
                for stacked, single, ref in (
                        (pred, predict(one),
                         oracle.kalman_predict(one, ref_params)),
                        (post, update(one, z[i]),
                         oracle.kalman_update(one, z[i], ref_params))):
                    assert_states_equal(
                        KalmanState(x=stacked.x[i], P=stacked.P[i]), single)
                    assert_states_equal(single, ref)

    def test_degenerate_scale_clamped_per_row(self):
        x = np.array([[0, 0, 1, 1, 0, 0, -5], [0, 0, 9, 1, 0, 0, -5]], float)
        out_x, _, _ = kalman_predict(x, np.ones((2, 7)), np.zeros((2, 3)))
        assert out_x[:, 2].tolist() == [1e-9, 4.0]

    @pytest.mark.parametrize("bad_row", [0, 2, 3])
    def test_one_singular_row_raises(self, bad_row, monkeypatch):
        # R = 0 and zero covariance: only a zero innovation is consistent.
        monkeypatch.setattr(tracker, "MEASUREMENT_VAR", np.zeros(4))
        x, var, cov = np.zeros((4, 7)), np.zeros((4, 7)), np.zeros((4, 3))
        z = np.zeros((4, 4))
        z[bad_row] = 1.0
        with pytest.raises(NumericalError, match="singular"):
            kalman_update(x, var, cov, z)
        z[bad_row] = 0.0
        out_x, _, _ = kalman_update(x, var, cov, z)
        assert np.array_equal(out_x, x)


def run_both(frames, iou_threshold=tracker.IOU_THRESHOLD,
             max_age=tracker.MAX_AGE, min_hits=tracker.MIN_HITS,
             noise=SHIPPED):
    """Step the stacked tracker, its constants set to these values, and the
    per-track oracle through the same frames; both must report, match,
    give birth, die and raise alike, and hold the same states to the bit."""
    with pytest.MonkeyPatch.context() as mp:
        for name, value in (("IOU_THRESHOLD", iou_threshold),
                            ("MAX_AGE", max_age), ("MIN_HITS", min_hits)):
            mp.setattr(tracker, name, value)
        set_noise(mp, noise)
        oracle.assert_steps_alike(
            SortTracker(), oracle.SortTracker(iou_threshold, max_age,
                                              min_hits,
                                              oracle.kalman_params(*noise)),
            frames)


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
           st.sampled_from([SHIPPED, NOISELESS, ZERO_R]))
    def test_streams_match(self, frames, min_hits, max_age, threshold,
                           noise):
        run_both(frames, threshold, max_age, min_hits, noise)

    @pytest.mark.parametrize("spec", [
        *(pytest.param(preset(name), id=name) for name in PRESETS),
        *(pytest.param(scene(seed, MONITOR), id=f"monitor-{seed}")
          for seed in (777, 41))])
    def test_scene_states_bit_identical(self, spec):
        """The flames of each preset and of two benchmark monitor scenes:
        every frame's states equal the oracle's to the bit."""
        run_both([[d for d in rf.annotation.detections
                   if d.cls is DetClass.FLAME] for rf in render(spec)])

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
        run_both([[det(0.0, 0.0, 1e200, 1e200)], [], [], []], max_age=2)
