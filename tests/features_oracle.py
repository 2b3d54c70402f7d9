"""Per-mask colour and angle features, one mask and one decode per call.

This is how `flaremon.features` computed a flame's mean colour and angle
before `flame_moments` took the pixels of every flame of a frame at once:
each call decoded its mask's runs to flat indices, gathered its pixels and
reduced them with numpy's float mean.  The batched path, given the same
indices (`indices` here), must match it bit for bit, values and raised
errors alike.  pytest does not collect this file.
"""

from __future__ import annotations

import math

import numpy as np

from flaremon.errors import DegenerateOrientation, EmptyRegion
from flaremon.features import MIN_AXIS_RATIO


def indices(mask):
    """Sorted flat row-major foreground indices of one mask."""
    runs = np.asarray(mask.runs, dtype=np.int64)
    starts = (np.cumsum(runs) - runs)[1::2]
    lengths = runs[1::2]
    before = np.cumsum(lengths) - lengths  # foreground ahead of each run
    return np.arange(int(lengths.sum())) + np.repeat(starts - before,
                                                     lengths)


def channel_means(frame, mask):
    """Mean (R, G, B) over the mask's foreground pixels."""
    vals = frame.pixels.reshape(-1, 3)[indices(mask)]
    if not vals.size:
        raise EmptyRegion("mask has no foreground pixels")
    means = vals.astype(float).mean(axis=0)
    return float(means[0]), float(means[1]), float(means[2])


def flame_angle(mask) -> float:
    """Tilt of the region's equivalent-ellipse major axis from vertical."""
    ys, xs = np.divmod(indices(mask), mask.width)
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
            f"axis ratio {axis_ratio:.4f} below {MIN_AXIS_RATIO}"
        )

    theta = 0.5 * math.atan2(2.0 * mu11, mu20 - mu02)
    deg = math.degrees(theta)
    angle = abs(90.0 - abs(deg))
    return min(angle, 90.0)
