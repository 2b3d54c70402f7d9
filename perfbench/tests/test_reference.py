"""The benchmark's checks must pass on right outputs and bite on wrong ones."""

import dataclasses
import os
import sys

import numpy as np
import pytest

from perfbench import reference
from perfbench.reference import LogRow, RefRecord

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "..", "src"))

from flaremon.core import Frame, Mask  # noqa: E402
from flaremon.features import channel_means, rgb_index  # noqa: E402

WINDOW, COOLDOWN = 5, 50
REGIMES = ("high", "low", "high")
FRAMES = 30


def _refs():
    return [RefRecord(frame=f, stack=s, regime=REGIMES[s],
                      ratio=0.2 + 1.6 * (REGIMES[s] == "low") + 0.001 * f,
                      E=0.55 - 0.1 * (REGIMES[s] == "low"),
                      angle=5.0 + 6.0 * s)
            for f in range(FRAMES) for s in range(len(REGIMES))]


def _rows(refs):
    """The log a correct monitor writes: track s+1 follows stack s from the
    end of warm-up on."""
    return [LogRow(r.frame, r.stack + 1, r.ratio, r.E, r.angle, r.regime)
            for r in refs if r.frame >= reference.WARMUP_FRAMES]


def _check(rows, refs, tol=reference.EXACT):
    alerts = reference.replay_alerts(rows, WINDOW, COOLDOWN)
    return reference.check_monitor(rows, alerts, refs, tol, WINDOW, COOLDOWN)


def test_correct_log_passes():
    refs = _refs()
    rows = _rows(refs)
    assert reference.replay_alerts(rows, WINDOW, COOLDOWN) == [(2, 2, 6)]
    assert _check(rows, refs) == []


def test_flipped_label_fails():
    refs = _refs()
    rows = _rows(refs)
    i = next(i for i, r in enumerate(rows) if r.frame == 20 and r.track == 1)
    rows[i] = dataclasses.replace(rows[i], label="low")
    assert any("label low" in e for e in _check(rows, refs))


def test_track_id_change_fails():
    refs = _refs()
    rows = [dataclasses.replace(r, track=9) if r.track == 1 and r.frame >= 15
            else r for r in _rows(refs)]
    assert any("changes track id" in e for e in _check(rows, refs))


@pytest.mark.parametrize("shift", [1e-6, 3.0])
def test_shifted_angle_fails(shift):
    refs = _refs()
    rows = _rows(refs)
    rows[7] = dataclasses.replace(rows[7], angle=rows[7].angle + shift)
    tol = reference.EXACT if shift < 1 else reference.Tolerance(0.1, 0.01, 2.0)
    assert _check(rows, refs, tol) != []
    rows[7] = dataclasses.replace(rows[7], angle=rows[7].angle - shift)
    assert _check(rows, refs, tol) == []


def test_alerts_must_match_the_log():
    refs = _refs()
    rows = _rows(refs)
    errors = reference.check_monitor(rows, [(2, 2, 7)], refs, reference.EXACT,
                                     WINDOW, COOLDOWN)
    assert any("replay" in e for e in errors)


def _pixel_sets():
    rng = np.random.default_rng(5)
    yield np.full((4, 4, 3), (0, 0, 255), dtype=np.uint8), None
    yield np.full((4, 4, 3), (255, 0, 0), dtype=np.uint8), None
    yield np.full((4, 4, 3), (255, 255, 255), dtype=np.uint8), None
    yield np.full((3, 5, 3), (250, 90, 40), dtype=np.uint8), None
    for _ in range(20):
        h, w = rng.integers(2, 40, size=2)
        pixels = rng.integers(0, 256, size=(h, w, 3), dtype=np.uint8)
        mask = rng.random((h, w)) < 0.4
        mask[0, 0] = True
        yield pixels, mask


@pytest.mark.parametrize("pixels,mask", list(_pixel_sets()))
def test_reference_E_matches_rgb_index(pixels, mask):
    h, w, _ = pixels.shape
    mask = np.ones((h, w), dtype=bool) if mask is None else mask
    frame = Frame(index=0, timestamp=0.0, width=w, height=h, pixels=pixels)
    program = rgb_index(channel_means(frame, Mask.from_array(mask)))
    assert reference.rgb_index_of(reference.mean_rgb(pixels, mask)) == \
        pytest.approx(program, abs=1e-12)


def test_reference_E_anchors():
    assert reference.rgb_index_of((0.0, 0.0, 255.0)) == pytest.approx(0.7)
    assert reference.rgb_index_of((255.0, 0.0, 0.0)) == pytest.approx(
        (0.5 * 127.5 + 0.3 * 255) / (127.5 + 255))


def test_decode_runs_matches_mask_encoding():
    rng = np.random.default_rng(8)
    for _ in range(20):
        arr = rng.random((int(rng.integers(1, 30)), int(rng.integers(1, 30))))
        arr = arr < rng.random()
        m = Mask.from_array(arr)
        assert np.array_equal(
            reference.decode_runs(m.width, m.height, m.runs), arr)
