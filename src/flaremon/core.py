"""Geometric and image primitives: boxes, detections, RLE masks, frames."""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DecodeError


class DetClass(enum.Enum):
    FLAME = "flame"
    SMOKE = "smoke"


@dataclass(frozen=True)
class BBox:
    """Axis-aligned box in continuous pixel coordinates, origin top-left, y down."""

    x_min: float
    y_min: float
    x_max: float
    y_max: float

    def __post_init__(self):
        vals = (self.x_min, self.y_min, self.x_max, self.y_max)
        if not all(math.isfinite(v) for v in vals):
            raise ValueError(f"non-finite box {vals}")
        if not (self.x_min < self.x_max and self.y_min < self.y_max):
            raise ValueError(f"degenerate box {vals}")

    @property
    def width(self):
        return self.x_max - self.x_min

    @property
    def height(self):
        return self.y_max - self.y_min

    @property
    def area(self):
        return self.width * self.height


@dataclass(frozen=True)
class Detection:
    bbox: BBox
    cls: DetClass
    confidence: float

    def __post_init__(self):
        if not (0.0 <= self.confidence <= 1.0):
            raise ValueError(f"confidence {self.confidence} outside [0, 1]")


@dataclass(frozen=True)
class Mask:
    """Binary mask as row-major run-length encoding.

    Runs alternate background/foreground, first run counting background
    pixels (possibly zero).  Runs must sum to width * height.
    """

    width: int
    height: int
    runs: tuple = field(default=())

    def __post_init__(self):
        object.__setattr__(self, "runs", tuple(int(r) for r in self.runs))
        if self.width <= 0 or self.height <= 0:
            raise DecodeError(f"bad mask size {self.width}x{self.height}")
        if any(r < 0 for r in self.runs):
            raise DecodeError("negative run length")
        total = sum(self.runs)
        if total != self.width * self.height:
            raise DecodeError(
                f"runs sum to {total}, expected {self.width * self.height}"
            )

    @classmethod
    def from_array(cls, arr) -> "Mask":
        arr = np.asarray(arr, dtype=bool)
        h, w = arr.shape
        flat = arr.ravel()
        # boundaries between runs of equal value
        change = np.flatnonzero(flat[1:] != flat[:-1]) + 1
        bounds = np.concatenate(([0], change, [flat.size]))
        runs = np.diff(bounds).tolist()
        if flat.size and flat[0]:
            runs = [0] + runs
        if not flat.size:
            runs = [0]
        return cls(width=w, height=h, runs=tuple(runs))

    def to_array(self):
        values = np.zeros(len(self.runs), dtype=bool)
        values[1::2] = True
        flat = np.repeat(values, np.asarray(self.runs, dtype=np.int64))
        return flat.reshape(self.height, self.width)

    def area(self) -> int:
        """Foreground pixel count."""
        return int(sum(self.runs[1::2]))


@dataclass(frozen=True)
class Frame:
    """Raw RGB frame; pixels is a (height, width, 3) uint8 array."""

    index: int
    timestamp: float
    width: int
    height: int
    pixels: np.ndarray

    def __post_init__(self):
        if self.pixels.shape != (self.height, self.width, 3):
            raise ValueError(
                f"pixel buffer shape {self.pixels.shape} does not match "
                f"{self.height}x{self.width}x3"
            )


def box_center(b: BBox):
    """Midpoint of a box."""
    return ((b.x_min + b.x_max) / 2.0, (b.y_min + b.y_max) / 2.0)


def iou(a: BBox, b: BBox) -> float:
    """Intersection over union; disjoint boxes give 0."""
    ix = min(a.x_max, b.x_max) - max(a.x_min, b.x_min)
    iy = min(a.y_max, b.y_max) - max(a.y_min, b.y_min)
    if ix <= 0.0 or iy <= 0.0:
        return 0.0
    inter = ix * iy
    return inter / (a.area + b.area - inter)
