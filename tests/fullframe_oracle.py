"""Full-frame reference versions of the mask codec, the features and the
simulator's ellipse raster.

`flaremon` encodes masks from a window, decodes them to flat foreground
indices and rasterizes ellipses inside their bounding window.  This module
keeps the implementations that built and scanned a whole frame instead, so
the tests can require identical runs, feature values and rasters.  It also
holds the random masks the property tests draw.
"""

from __future__ import annotations

import math

import numpy as np
from hypothesis import strategies as st

from flaremon.errors import (DegenerateOrientation, EmptyRegion,
                             FlaremonError)
from flaremon.features import MIN_AXIS_RATIO


def mask_arrays(max_side: int = 12):
    """Boolean arrays up to max_side on a side: empty (density 0), full
    (density 1) and random.  Dense ones start with a foreground run and
    carry runs across row ends."""
    return st.builds(
        lambda w, h, density, seed:
            np.random.default_rng(seed).random((h, w)) < density,
        st.integers(1, max_side), st.integers(1, max_side),
        st.sampled_from([0.0, 0.1, 0.5, 0.9, 1.0]),
        st.integers(0, 2 ** 32 - 1))


def encode_runs(arr):
    """RLE runs of a full-frame boolean array, first run background."""
    flat = np.asarray(arr, dtype=bool).ravel()
    change = np.flatnonzero(flat[1:] != flat[:-1]) + 1
    runs = np.diff(np.concatenate(([0], change, [flat.size]))).tolist()
    if flat[0]:
        runs = [0] + runs
    return tuple(runs)


def decode_runs(mask):
    """Full-frame boolean array of a mask, by repeating run values."""
    values = np.zeros(len(mask.runs), dtype=bool)
    values[1::2] = True
    flat = np.repeat(values, np.asarray(mask.runs, dtype=np.int64))
    return flat.reshape(mask.height, mask.width)


def channel_means(frame, mask):
    sel = decode_runs(mask)
    if not sel.any():
        raise EmptyRegion("mask has no foreground pixels")
    means = frame.pixels[sel].astype(float).mean(axis=0)
    return float(means[0]), float(means[1]), float(means[2])


def flame_angle(mask) -> float:
    ys, xs = np.nonzero(decode_runs(mask))
    if xs.size < 5:
        raise EmptyRegion(f"only {xs.size} foreground pixels, need >= 5")
    x = xs - xs.mean()
    y = ys - ys.mean()
    mu20 = float(np.dot(x, x))
    mu02 = float(np.dot(y, y))
    mu11 = float(np.dot(x, y))

    common = math.hypot(mu20 - mu02, 2.0 * mu11)
    lam_major = (mu20 + mu02 + common) / 2.0
    lam_minor = (mu20 + mu02 - common) / 2.0
    if lam_minor <= 0.0:
        axis_ratio = math.inf
    else:
        axis_ratio = math.sqrt(lam_major / lam_minor)
    if axis_ratio < MIN_AXIS_RATIO:
        raise DegenerateOrientation(
            f"axis ratio {axis_ratio:.4f} below {MIN_AXIS_RATIO}")

    theta = 0.5 * math.atan2(2.0 * mu11, mu20 - mu02)
    angle = abs(90.0 - abs(math.degrees(theta)))
    return min(angle, 90.0)


def ellipse_mask(width, height, cx, cy, a, b, axis_dir):
    """(mask, rho, truncated) over the whole frame; rho is zero off the
    foreground."""
    ax, ay = axis_dir
    x_lo = max(0, int(math.floor(cx - a - 2)))
    x_hi = min(width - 1, int(math.ceil(cx + a + 2)))
    y_lo = max(0, int(math.floor(cy - a - 2)))
    y_hi = min(height - 1, int(math.ceil(cy + a + 2)))
    mask = np.zeros((height, width), dtype=bool)
    rho = np.zeros((height, width))
    if x_hi < x_lo or y_hi < y_lo:
        return mask, rho, True
    ys, xs = np.mgrid[y_lo:y_hi + 1, x_lo:x_hi + 1]
    dx = xs - cx
    dy = ys - cy
    u = dx * ax + dy * ay
    v = -dx * ay + dy * ax
    r2 = (u / a) ** 2 + (v / b) ** 2
    inside = r2 <= 1.0
    mask[y_lo:y_hi + 1, x_lo:x_hi + 1] = inside
    rho_win = np.sqrt(np.clip(r2, 0.0, 1.0))
    rho[y_lo:y_hi + 1, x_lo:x_hi + 1][inside] = rho_win[inside]
    truncated = (cx - a < 0 or cx + a > width - 1
                 or cy - a < 0 or cy + a > height - 1)
    return mask, rho, truncated


def outcome(fn, *args):
    """A call's value, or its data error's type and message."""
    try:
        return fn(*args)
    except FlaremonError as exc:
        return type(exc), str(exc)
