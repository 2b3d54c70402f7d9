"""Synthetic flare scenes with exact ground truth.

Each stack is a rotated-ellipse flame (radial color interpolation core ->
edge) with an optional gray smoke blob strictly above the flame's top
edge.  Positions drift linearly; seeded pixel noise and box jitter make
the annotations realistic while masks stay exact.  Rendering is
deterministic per (spec, seed).
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from numbers import Real
from typing import Iterable, Iterator, List, NamedTuple, Optional, Tuple

import numpy as np

from .core import FPS, BBox, DetClass, Detection, Frame, Mask, _Checked
from .errors import ParseError
from .ingest import FrameAnnotation

BACKGROUND = (20, 22, 28)


class _FlameSpec(NamedTuple):
    base_x: float
    base_y: float
    major: float  # semi-axis, pixels
    minor: float
    tilt_deg: float  # from vertical, [0, 90)
    drift: Tuple[float, float]  # px / frame
    core_color: Tuple[int, int, int]
    edge_color: Tuple[int, int, int]


class FlameSpec(_Checked, _FlameSpec):
    __slots__ = ()

    def __new__(_cls, base_x, base_y, major, minor, tilt_deg,
                drift=(0.0, 0.0), core_color=(90, 110, 245),
                edge_color=(130, 150, 250)):
        if major <= 0 or minor <= 0:
            raise ValueError("axes must be positive")
        if not (0.0 <= tilt_deg < 90.0):
            raise ValueError("tilt must lie in [0, 90)")
        for name, color in (("core_color", core_color),
                            ("edge_color", edge_color)):
            if len(color) != 3 or not all(isinstance(c, Real)
                                          and 0 <= c <= 255 for c in color):
                raise ValueError(f"{name} must be 3 numbers in [0, 255]")
        return tuple.__new__(_cls, (base_x, base_y, major, minor, tilt_deg,
                                    drift, core_color, edge_color))


class _SmokeSpec(NamedTuple):
    area_multiplier: float  # smoke area relative to flame area
    gray: int
    gap: float  # px between flame top and smoke bottom; must exceed the
    # +/-2 px annotation box jitter so smoke stays attributable


class SmokeSpec(_Checked, _SmokeSpec):
    __slots__ = ()

    def __new__(_cls, area_multiplier, gray=110, gap=8.0):
        if type(gray) is not int or not 0 <= gray <= 255:
            raise ValueError("gray must be an int in [0, 255]")
        return tuple.__new__(_cls, (area_multiplier, gray, gap))


class StackSpec(NamedTuple):
    flame: FlameSpec
    smoke: Optional[SmokeSpec]
    regime: str  # high | low, by construction


class _SceneSpec(NamedTuple):
    width: int
    height: int
    frame_count: int
    rng_seed: int
    stacks: Tuple[StackSpec, ...]
    noise_amplitude: int


class SceneSpec(_Checked, _SceneSpec):
    __slots__ = ()

    def __new__(_cls, width=320, height=240, frame_count=200, rng_seed=7,
                stacks=(), noise_amplitude=6):
        for name, size in (("width", width), ("height", height),
                           ("frame_count", frame_count)):
            if type(size) is not int or size < 1:
                raise ValueError(f"{name} must be an int >= 1")
        if type(noise_amplitude) is not int or not 0 <= noise_amplitude <= 255:
            raise ValueError("noise_amplitude must be an int in [0, 255]")
        return tuple.__new__(_cls, (width, height, frame_count, rng_seed,
                                    stacks, noise_amplitude))


class StackTruth(NamedTuple):
    stack_id: int
    regime: str
    tilt_deg: float
    truncated: bool
    flame_box: Optional[BBox]
    flame_mask: Optional[Mask]
    smoke_box: Optional[BBox]
    smoke_mask: Optional[Mask]


class RenderedFrame(NamedTuple):
    frame: Frame
    truths: Tuple[StackTruth, ...]
    annotation: FrameAnnotation


def _ellipse_mask(width, height, cx, cy, a, b, axis_dir):
    """Foreground and normalized radius of a rotated ellipse, in a window.

    axis_dir is the unit direction of the major axis; returns
    (win, inside, rho, truncated) where win is the (rows, columns) slice
    pair of the ellipse's bounding window clipped to the frame (empty when
    the ellipse lies off the frame), inside the window's boolean
    foreground, and rho the normalized elliptic radius of the foreground
    pixels in row-major order (0 at center, 1 at the rim).
    """
    ax, ay = axis_dir
    x_lo = max(0, int(math.floor(cx - a - 2)))
    x_hi = min(width - 1, int(math.ceil(cx + a + 2)))
    y_lo = max(0, int(math.floor(cy - a - 2)))
    y_hi = min(height - 1, int(math.ceil(cy + a + 2)))
    win = (slice(y_lo, max(y_lo, y_hi + 1)), slice(x_lo, max(x_lo, x_hi + 1)))
    dx = np.arange(win[1].start, win[1].stop)[None, :] - cx
    dy = np.arange(win[0].start, win[0].stop)[:, None] - cy
    u = dx * ax + dy * ay
    v = -dx * ay + dy * ax
    r2 = (u / a) ** 2 + (v / b) ** 2
    inside = r2 <= 1.0
    rho = np.sqrt(np.clip(r2[inside], 0.0, 1.0))
    truncated = (cx - a < 0 or cx + a > width - 1
                 or cy - a < 0 or cy + a > height - 1)
    return win, inside, rho, truncated


def _tight_bbox(win, inside) -> Optional[BBox]:
    ys = np.flatnonzero(inside.any(axis=1))
    if ys.size == 0:
        return None
    xs = np.flatnonzero(inside.any(axis=0))
    x0, y0 = win[1].start, win[0].start
    return BBox(float(x0 + xs[0]), float(y0 + ys[0]),
                float(x0 + xs[-1] + 1), float(y0 + ys[-1] + 1))


def _jitter_box(box: BBox, rng, width, height) -> BBox:
    j = rng.uniform(-2.0, 2.0, size=4)
    x0 = min(max(box.x_min + j[0], 0.0), width - 2.0)
    y0 = min(max(box.y_min + j[1], 0.0), height - 2.0)
    x1 = max(min(box.x_max + j[2], float(width)), x0 + 1.0)
    y1 = max(min(box.y_max + j[3], float(height)), y0 + 1.0)
    return BBox(x0, y0, x1, y1)


def render(spec: SceneSpec) -> Iterator[RenderedFrame]:
    """Yield (frame, ground truth, annotation) for every frame of the scene.

    The scene's random stream is drawn in this order: frame 0's noise, then
    frame 0's box jitter and confidences, then frame 1's noise, and so on.
    One worker thread draws each frame's noise while the frame before it is
    consumed and the frame itself is painted.  The render touches the
    stream only after that draw has returned, so the order never depends
    on timing.  The worker stops when the render ends, is closed or raises.
    """
    with ThreadPoolExecutor(1) as worker:
        yield from _render(spec, worker)


def _render(spec: SceneSpec, worker) -> Iterator[RenderedFrame]:
    rng = np.random.default_rng(spec.rng_seed)
    w, h = spec.width, spec.height
    background = np.full((h, w, 3), BACKGROUND, dtype=np.int16)
    looks = []  # per stack: major-axis direction, core and edge colors
    for stack in spec.stacks:
        t = math.radians(stack.flame.tilt_deg)
        looks.append(((math.sin(t), -math.cos(t)),  # y is down; tilted up
                      np.array(stack.flame.core_color, dtype=float),
                      np.array(stack.flame.edge_color, dtype=float)))
    # An int32 draw gives the values and the generator state of numpy's
    # default int64 draw, in half the memory.
    draw_noise = partial(rng.integers, -spec.noise_amplitude,
                         spec.noise_amplitude + 1, size=background.shape,
                         dtype=np.int32)
    noise = worker.submit(draw_noise) if spec.noise_amplitude > 0 else None
    for fi in range(spec.frame_count):
        img = background.copy()
        truths: List[StackTruth] = []

        for si, (stack, (axis_dir, core, edge)) in enumerate(
                zip(spec.stacks, looks)):
            fl = stack.flame
            cx = fl.base_x + fl.drift[0] * fi
            cy = fl.base_y + fl.drift[1] * fi
            fwin, ffg, rho, truncated = _ellipse_mask(w, h, cx, cy, fl.major,
                                                      fl.minor, axis_dir)
            mix = rho[:, None]
            img[fwin][ffg] = np.round(core * (1.0 - mix) + edge * mix)
            fbox = _tight_bbox(fwin, ffg)

            sbox = smask = None
            if stack.smoke is not None and fbox is not None:
                sm = stack.smoke
                area = sm.area_multiplier * math.pi * fl.major * fl.minor
                a_s = math.sqrt(area / math.pi * 1.5)
                b_s = area / (math.pi * a_s)
                scy = fbox.y_min - sm.gap - b_s
                swin, sfg, _, _ = _ellipse_mask(w, h, cx, scy, a_s, b_s,
                                                (1.0, 0.0))
                if sfg.any():
                    img[swin][sfg] = sm.gray
                    sbox = _tight_bbox(swin, sfg)
                    smask = Mask.from_array(
                        sfg, (swin[1].start, swin[0].start), (w, h))
            fmask = None if fbox is None else Mask.from_array(
                ffg, (fwin[1].start, fwin[0].start), (w, h))

            truths.append(StackTruth(
                stack_id=si,
                regime=stack.regime,
                tilt_deg=fl.tilt_deg,
                truncated=truncated,
                flame_box=fbox,
                flame_mask=fmask,
                smoke_box=sbox,
                smoke_mask=smask,
            ))

        if noise is not None:
            img += noise.result()
        pixels = np.clip(img, 0, 255, out=img).astype(np.uint8)
        frame = Frame(index=fi, timestamp=fi / FPS, width=w, height=h,
                      pixels=pixels)

        detections: List[Detection] = []
        masks: List[Tuple[int, Mask]] = []
        # every flame, then every smoke: a confidence, then a box jitter
        for cls, least, regions in (
                (DetClass.FLAME, 0.85,
                 [(t.flame_box, t.flame_mask) for t in truths]),
                (DetClass.SMOKE, 0.80,
                 [(t.smoke_box, t.smoke_mask) for t in truths])):
            for box, mask in regions:
                if box is not None:
                    conf = float(rng.uniform(least, 0.99))
                    detections.append(Detection(_jitter_box(box, rng, w, h),
                                                cls, round(conf, 4)))
                    masks.append((len(detections) - 1, mask))
        if noise is not None and fi + 1 < spec.frame_count:
            noise = worker.submit(draw_noise)

        annotation = FrameAnnotation(frame_index=fi,
                                     detections=tuple(detections),
                                     masks=tuple(masks))
        yield RenderedFrame(frame=frame, truths=tuple(truths),
                            annotation=annotation)


def rendered_stream(rendered: Iterable[RenderedFrame]):
    """The (frame, annotation) stream that monitoring and training take."""
    for rf in rendered:
        yield rf.frame, rf.annotation


# regime -> (core color, edge color, smoke gray)
_REGIME_LOOK = {"high": ((90, 110, 245), (130, 150, 250), 120),
                "low": ((250, 90, 40), (255, 150, 70), 90)}


def _stack(x, tilt, regime, smoke, drift=0.0, axes=(45.0, 18.0)):
    """A stack based at (x, 150) that drifts `drift` px per frame along x;
    `regime` sets its colors and smoke gray, and its smoke covers `smoke`
    times the flame's area."""
    core, edge, gray = _REGIME_LOOK[regime]
    return StackSpec(FlameSpec(x, 150, *axes, tilt_deg=tilt,
                               drift=(drift, 0.0), core_color=core,
                               edge_color=edge),
                     SmokeSpec(area_multiplier=smoke, gray=gray), regime)


# Canned scenarios with known regimes and geometry: name -> stacks.
PRESETS = {
    "clean_high": (_stack(160, 8.0, "high", 0.2, drift=0.05),),
    "smoky_low": (_stack(160, 8.0, "low", 2.0, drift=0.05),),
    "windy": (_stack(160, 30.0, "high", 0.2),),
    "three_stacks": (_stack(60, 5.0, "high", 0.25, 0.08, (40.0, 16.0)),
                     _stack(160, 12.0, "low", 1.8, 0.0, (40.0, 16.0)),
                     _stack(260, 20.0, "high", 0.25, -0.08, (40.0, 16.0))),
    "crossing_near_miss": (
        _stack(90, 6.0, "high", 0.2, 0.25, (35.0, 14.0)),
        _stack(230, 10.0, "high", 0.2, -0.25, (35.0, 14.0))),
}


def preset(name: str) -> SceneSpec:
    """The scene of a canned scenario in PRESETS."""
    if name not in PRESETS:
        raise ParseError(f"unknown preset {name!r}")
    return SceneSpec(stacks=PRESETS[name])
