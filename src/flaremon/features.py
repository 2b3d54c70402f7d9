"""Per-flame combustion features: area ratio, weighted RGB index, flame angle."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

import numpy as np

from .core import BBox, Frame, Mask, box_center
from .errors import DegenerateOrientation, EmptyRegion, InsufficientSignal


# The paper's weights for the blue, yellow and red channel proportions.
W_BLUE, W_YELLOW, W_RED = 0.7, 0.5, 0.3

# Regions with a major/minor axis ratio below this have no orientation.
MIN_AXIS_RATIO = 1.05


@dataclass(frozen=True)
class FeatureVector:
    smoke_flame_ratio: float
    rgb_index: float
    flame_angle: float  # degrees from vertical, in [0, 90]

    def as_array(self):
        return np.array([self.smoke_flame_ratio, self.rgb_index, self.flame_angle])


def channel_means(frame: Frame, mask: Mask):
    """Mean (R, G, B) over the mask's foreground pixels."""
    vals = frame.pixels.reshape(-1, 3)[mask.indices()]
    if not vals.size:
        raise EmptyRegion("mask has no foreground pixels")
    means = vals.astype(float).mean(axis=0)
    return float(means[0]), float(means[1]), float(means[2])


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
                    smoke_regions: Sequence[Tuple[BBox, Mask]]):
    """Attribute smoke regions to flames; smoke rises, so a region goes to
    the nearest flame (horizontal center distance) among flames lying
    entirely at or below the region's bottom edge.

    Returns (areas, dropped) where areas maps flame id -> total smoke pixel
    area (every id present, possibly 0) and dropped counts unassignable
    regions.
    """
    areas = {fid: 0 for fid in flame_boxes}
    dropped = 0
    for smoke_box, smoke_mask in smoke_regions:
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
        areas[fid] += smoke_mask.area()
    return areas, dropped


def flame_angle(mask: Mask) -> float:
    """Tilt of the region's equivalent-ellipse major axis from vertical.

    Uses second-order central moments of the foreground pixel set; an
    upright flame reports 0 degrees.  Regions with major/minor axis ratio
    below MIN_AXIS_RATIO raise DegenerateOrientation.
    """
    ys, xs = np.divmod(mask.indices(), mask.width)
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
