"""Geometric and image primitives: boxes, detections, RLE masks, frames."""

from __future__ import annotations

import enum
import math
import operator
from typing import NamedTuple

import numpy as np

from .errors import ParseError

FPS = 25.0  # of rendered scenes, and of frame directories that give none


class DetClass(enum.Enum):
    FLAME = "flame"
    SMOKE = "smoke"


class _Checked:
    """Mixin of a record whose ``__new__`` checks its fields: ``_make``, and
    so ``_replace``, build through ``__new__`` too."""

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class _BBox(NamedTuple):
    x_min: float
    y_min: float
    x_max: float
    y_max: float


class BBox(_Checked, _BBox):
    """Axis-aligned box in continuous pixel coordinates, origin top-left, y down."""

    __slots__ = ()

    def __new__(_cls, x_min, y_min, x_max, y_max):
        vals = (x_min, y_min, x_max, y_max)
        if not all(map(math.isfinite, vals)):
            raise ValueError(f"non-finite box {vals}")
        if not (x_min < x_max and y_min < y_max):
            raise ValueError(f"degenerate box {vals}")
        return tuple.__new__(_cls, vals)

    @property
    def width(self):
        return self.x_max - self.x_min

    @property
    def height(self):
        return self.y_max - self.y_min

    @property
    def area(self):
        return self.width * self.height


class _Detection(NamedTuple):
    bbox: BBox
    cls: DetClass
    confidence: float


class Detection(_Checked, _Detection):
    __slots__ = ()

    def __new__(_cls, bbox, cls, confidence):
        if not (0.0 <= confidence <= 1.0):
            raise ValueError(f"confidence {confidence} outside [0, 1]")
        return tuple.__new__(_cls, (bbox, cls, confidence))


def check_runs(width, height, runs):
    """Raise ParseError unless the int sizes are positive and the int runs
    are non-negative and sum to width * height."""
    if width <= 0 or height <= 0:
        raise ParseError(f"bad mask size {width}x{height}")
    if runs and min(runs) < 0:
        raise ParseError("negative run length")
    total = sum(runs)
    if total != width * height:
        raise ParseError(f"runs sum to {total}, expected {width * height}")


class _Mask(NamedTuple):
    width: int
    height: int
    runs: tuple


class Mask(_Checked, _Mask):
    """Binary mask as row-major run-length encoding.

    Runs alternate background/foreground, first run counting background
    pixels (possibly zero).  Runs must sum to width * height.

    Work on a mask costs O(runs + foreground pixels), not O(frame):
    ``from_array`` can encode a window placed at ``origin`` in a frame of
    ``size`` without building the frame, and ``foreground_indices`` decodes
    masks to their flat foreground indices without building the frame.
    """

    __slots__ = ()

    def __new__(_cls, width, height, runs):
        try:
            width, height = operator.index(width), operator.index(height)
            runs = tuple(map(operator.index, runs))
        except TypeError as exc:  # a float or a string, say
            raise ParseError(f"mask sizes and runs must be integers: {exc}") \
                from exc
        check_runs(width, height, runs)
        return tuple.__new__(_cls, (width, height, runs))

    @classmethod
    def _unchecked(cls, width, height, runs):
        """The mask of int sizes and a tuple of int runs that are known to
        pass `check_runs`, built without checking them again."""
        return tuple.__new__(cls, (width, height, runs))

    @classmethod
    def from_array(cls, arr, origin=(0, 0), size=None) -> "Mask":
        """Encode a boolean array; with origin (x0, y0) and size (width,
        height) it is a window of that frame, the rest background."""
        arr = np.asarray(arr, dtype=bool)
        h, w = arr.shape
        x0, y0 = origin
        width, height = (w, h) if size is None else size
        if x0 < 0 or y0 < 0 or x0 + w > width or y0 + h > height:
            raise ValueError(f"{w}x{h} window at ({x0}, {y0}) outside "
                             f"{width}x{height}")
        ys, xs = np.nonzero(arr)
        idx = (ys + y0) * width + (xs + x0)
        # A foreground run ends where the next index is not one more.
        cut = np.flatnonzero(idx[1:] != idx[:-1] + 1)
        bounds = np.column_stack((np.concatenate((idx[:1], idx[cut + 1])),
                                  np.concatenate((idx[cut], idx[-1:])) + 1))
        runs = np.diff(np.concatenate(([0], bounds.ravel(), [width * height])))
        if runs.size > 1 and runs[-1] == 0:
            runs = runs[:-1]
        return cls._unchecked(int(width), int(height), tuple(runs.tolist()))

    def area(self) -> int:
        """Foreground pixel count."""
        return int(sum(self.runs[1::2]))


def foreground_indices(masks):
    """Each mask's sorted flat row-major foreground indices, an int64 array
    per mask, in mask order.

    One decode serves any number of masks, and no frame is built.
    """
    runs, fg_runs, sizes = [], [], []
    for m in masks:
        runs += m.runs
        if len(m.runs) % 2:
            runs.append(0)  # the next mask's first, background run is even
        fg_runs.append((len(m.runs) + 1) // 2)
        sizes.append(m.width * m.height)
    runs = np.array(runs, dtype=np.int64)
    fg_runs = np.array(fg_runs, dtype=np.int64)
    sizes = np.array(sizes, dtype=np.int64)
    lengths = runs[1::2]
    # A mask's runs sum to its size, so the runs of mask k start at the sum
    # of the sizes before it.
    starts = ((np.cumsum(runs) - runs)[1::2]
              - np.repeat(np.cumsum(sizes) - sizes, fg_runs))
    before = np.cumsum(lengths) - lengths  # foreground ahead of each run
    idx = np.arange(int(lengths.sum())) + np.repeat(starts - before, lengths)
    cuts = [*before[np.cumsum(fg_runs) - fg_runs].tolist(), len(idx)]
    return [idx[a:b] for a, b in zip(cuts, cuts[1:])]  # from each first run


class _Frame(NamedTuple):
    index: int
    timestamp: float
    width: int
    height: int
    pixels: np.ndarray


class Frame(_Checked, _Frame):
    """Raw RGB frame; pixels is a (height, width, 3) uint8 array."""

    __slots__ = ()

    def __new__(_cls, index, timestamp, width, height, pixels):
        if pixels.shape != (height, width, 3):
            raise ValueError(
                f"pixel buffer shape {pixels.shape} does not match "
                f"{height}x{width}x3"
            )
        return tuple.__new__(_cls, (index, timestamp, width, height, pixels))


def box_center(b: BBox):
    """Midpoint of a box."""
    return ((b.x_min + b.x_max) / 2.0, (b.y_min + b.y_max) / 2.0)
