"""Flame features from pixel indices: area ratio, weighted RGB index, angle."""

from __future__ import annotations

import math
from typing import Dict, NamedTuple, Sequence, Tuple

import numpy as np

from .core import BBox, Frame, Mask, box_center, foreground_indices
from .errors import DegenerateOrientation, EmptyRegion, InsufficientSignal


# The paper's weights for the blue, yellow and red channel proportions.
W_BLUE, W_YELLOW, W_RED = 0.7, 0.5, 0.3

# Regions with a major/minor axis ratio below this have no orientation.
MIN_AXIS_RATIO = 1.05


N_FEATURES = 3  # ratio, E, angle


class FeatureVector(NamedTuple):
    smoke_flame_ratio: float
    rgb_index: float
    flame_angle: float  # degrees from vertical, in [0, 90]


def flame_moments(frame: Frame, pixels: Sequence[np.ndarray]):
    """Pixel count, mean (R, G, B) and central second moments (mu20, mu02,
    mu11) over `frame` of each flame, given as its sorted flat row-major
    pixel indices, as (k,), (k, 3) and (k, 3) arrays.  A flame with no
    pixels has NaN means and zero moments.

    The flames share one pixel gather, and the channel and coordinate sums
    are one int64 reduceat each, so they are exact.  Each flame's moments
    are dot products over its own contiguous slice.  Every value thus
    equals, bit for bit, a float mean and a dot product over that flame's
    pixels alone.
    """
    counts = np.array([len(p) for p in pixels], dtype=np.int64)
    idx = np.concatenate(pixels) if len(pixels) else counts  # empty
    ys, xs = np.divmod(idx, frame.width)
    ends = np.cumsum(counts)
    starts = ends - counts
    full = counts > 0
    sums = np.zeros((len(counts), 5), dtype=np.int64)  # R, G, B, x, y
    if idx.size:
        at = starts[full]
        # take() gathers rows several times faster than fancy indexing.
        sums[full, :3] = np.add.reduceat(
            np.take(frame.pixels.reshape(-1, 3), idx, axis=0), at, axis=0,
            dtype=np.int64)
        sums[full, 3:] = np.add.reduceat(np.stack((xs, ys)), at, axis=1).T
    means = np.full(sums.shape, np.nan)
    np.divide(sums, counts[:, None], out=means, where=full[:, None])
    x = xs - np.repeat(means[:, 3], counts)
    y = ys - np.repeat(means[:, 4], counts)
    moments = np.array([(np.dot(x[a:b], x[a:b]), np.dot(y[a:b], y[a:b]),
                         np.dot(x[a:b], y[a:b]))
                        for a, b in zip(starts.tolist(), ends.tolist())])
    return counts, means[:, :3], moments.reshape(-1, 3)


def channel_means(frame: Frame, mask: Mask):
    """Mean (R, G, B) over the mask's foreground pixels."""
    counts, means, _ = flame_moments(frame, foreground_indices([mask]))
    if not counts[0]:
        raise EmptyRegion("mask has no foreground pixels")
    return tuple(means[0].tolist())


def rgb_index(means) -> float:
    """Weighted sum of blue/yellow/red channel proportions.

    Yellow has no RGB channel of its own; its value is the mean of the
    green and red channels, and the same value enters the denominator.
    """
    v_red, v_green, v_blue = means
    v_yellow = (v_green + v_red) / 2.0
    total = v_blue + v_yellow + v_red
    if total == 0.0:
        raise InsufficientSignal("all channels zero")
    r1 = v_blue / total
    r2 = v_yellow / total
    r3 = v_red / total
    return W_BLUE * r1 + W_YELLOW * r2 + W_RED * r3


def smoke_flame_ratio(smoke_area: float, flame_area: float) -> float:
    if flame_area <= 0:
        raise EmptyRegion("flame area must be positive")
    return smoke_area / flame_area


def associate_smoke(flame_boxes: Dict[int, BBox],
                    smoke_regions: Sequence[Tuple[BBox, int]]):
    """Attribute smoke regions, (box, pixel count) pairs, to flames; smoke
    rises, so a region goes to the nearest flame (horizontal center
    distance, ties to the smaller key) among the flames lying entirely at
    or below the region's bottom edge.

    Returns (areas, dropped) where areas maps each key of `flame_boxes`
    (the pipeline's keys are detection indices) -> total smoke pixel area,
    every key present, possibly 0, and dropped counts unassignable regions.
    """
    areas = {fid: 0 for fid in flame_boxes}
    dropped = 0
    for smoke_box, smoke_area in smoke_regions:
        sx = box_center(smoke_box)[0]
        candidates = [
            (abs(box_center(fb)[0] - sx), fid)
            for fid, fb in flame_boxes.items()
            if fb.y_min >= smoke_box.y_max
        ]
        if not candidates:
            dropped += 1
            continue
        _, fid = min(candidates)
        areas[fid] += smoke_area
    return areas, dropped


def angle_from_moments(count: int, mu20: float, mu02: float,
                       mu11: float) -> float:
    """Tilt from vertical of the equivalent-ellipse major axis of a region
    of `count` pixels with these central second moments.

    An upright flame reports 0 degrees.  Fewer than 5 pixels raise
    EmptyRegion; a major/minor axis ratio below MIN_AXIS_RATIO raises
    DegenerateOrientation.
    """
    if count < 5:
        raise EmptyRegion(f"only {count} foreground pixels, need >= 5")
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
