"""Synthetic flare scenes with exact ground truth.

Each stack is a rotated-ellipse flame (radial color interpolation core ->
edge) with an optional gray smoke blob strictly above the flame's top
edge.  Positions drift linearly; seeded pixel noise and box jitter make
the annotations realistic while masks stay exact.  Rendering is
deterministic per (spec, seed).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Tuple

import numpy as np

from .core import BBox, DetClass, Detection, Frame, Mask
from .errors import InvalidPreset
from .ingest import FrameAnnotation

BACKGROUND = (20, 22, 28)
FPS = 25.0


@dataclass(frozen=True)
class FlameSpec:
    base_x: float
    base_y: float
    major: float  # semi-axis, pixels
    minor: float
    tilt_deg: float  # from vertical, [0, 90)
    drift: Tuple[float, float] = (0.0, 0.0)  # px / frame
    core_color: Tuple[int, int, int] = (90, 110, 245)
    edge_color: Tuple[int, int, int] = (130, 150, 250)

    def __post_init__(self):
        if self.major <= 0 or self.minor <= 0:
            raise ValueError("axes must be positive")
        if not (0.0 <= self.tilt_deg < 90.0):
            raise ValueError("tilt must lie in [0, 90)")


@dataclass(frozen=True)
class SmokeSpec:
    area_multiplier: float  # smoke area relative to flame area
    gray: int = 110
    gap: float = 8.0  # px between flame top and smoke bottom; must exceed
    # the +/-2 px annotation box jitter so smoke stays attributable


@dataclass(frozen=True)
class StackSpec:
    flame: FlameSpec
    smoke: Optional[SmokeSpec]
    regime: str  # high | low, by construction


@dataclass(frozen=True)
class SceneSpec:
    width: int = 320
    height: int = 240
    frame_count: int = 200
    rng_seed: int = 7
    stacks: Tuple[StackSpec, ...] = ()
    noise_amplitude: int = 6

    def __post_init__(self):
        if self.frame_count < 1:
            raise ValueError("frame_count must be >= 1")


@dataclass(frozen=True)
class StackTruth:
    stack_id: int
    regime: str
    tilt_deg: float
    truncated: bool
    flame_box: Optional[BBox]
    flame_mask: Optional[Mask]
    smoke_box: Optional[BBox]
    smoke_mask: Optional[Mask]


@dataclass(frozen=True)
class RenderedFrame:
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
    ys, xs = np.mgrid[win]
    dx = xs - cx
    dy = ys - cy
    u = dx * ax + dy * ay
    v = -dx * ay + dy * ax
    r2 = (u / a) ** 2 + (v / b) ** 2
    inside = r2 <= 1.0
    rho = np.sqrt(np.clip(r2[inside], 0.0, 1.0))
    truncated = (cx - a < 0 or cx + a > width - 1
                 or cy - a < 0 or cy + a > height - 1)
    return win, inside, rho, truncated


def _tight_bbox(win, inside) -> Optional[BBox]:
    ys, xs = np.nonzero(inside)
    if xs.size == 0:
        return None
    x0, y0 = win[1].start, win[0].start
    return BBox(float(x0 + xs.min()), float(y0 + ys.min()),
                float(x0 + xs.max() + 1), float(y0 + ys.max() + 1))


def _encode(win, inside, width, height) -> Mask:
    return Mask.from_array(inside, origin=(win[1].start, win[0].start),
                           size=(width, height))


def _jitter_box(box: BBox, rng, width, height) -> BBox:
    j = rng.uniform(-2.0, 2.0, size=4)
    x0 = min(max(box.x_min + j[0], 0.0), width - 2.0)
    y0 = min(max(box.y_min + j[1], 0.0), height - 2.0)
    x1 = max(min(box.x_max + j[2], float(width)), x0 + 1.0)
    y1 = max(min(box.y_max + j[3], float(height)), y0 + 1.0)
    return BBox(x0, y0, x1, y1)


def render(spec: SceneSpec) -> Iterator[RenderedFrame]:
    """Yield (frame, ground truth, annotation) for every frame of the scene."""
    rng = np.random.default_rng(spec.rng_seed)
    w, h = spec.width, spec.height
    for fi in range(spec.frame_count):
        img = np.empty((h, w, 3), dtype=np.int16)
        img[:, :] = BACKGROUND
        truths: List[StackTruth] = []

        for si, stack in enumerate(spec.stacks):
            fl = stack.flame
            cx = fl.base_x + fl.drift[0] * fi
            cy = fl.base_y + fl.drift[1] * fi
            t = math.radians(fl.tilt_deg)
            axis_dir = (math.sin(t), -math.cos(t))  # y is down; up-tilted major axis
            fwin, ffg, rho, truncated = _ellipse_mask(w, h, cx, cy, fl.major,
                                                      fl.minor, axis_dir)
            core = np.array(fl.core_color, dtype=float)
            edge = np.array(fl.edge_color, dtype=float)
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
                    smask = _encode(swin, sfg, w, h)
            fmask = None if fbox is None else _encode(fwin, ffg, w, h)

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

        if spec.noise_amplitude > 0:
            noise = rng.integers(-spec.noise_amplitude,
                                 spec.noise_amplitude + 1, size=img.shape)
            img = img + noise
        pixels = np.clip(img, 0, 255).astype(np.uint8)
        frame = Frame(index=fi, timestamp=fi / FPS, width=w, height=h,
                      pixels=pixels)

        detections: List[Detection] = []
        masks: List[Tuple[int, Mask]] = []
        for truth in truths:
            if truth.flame_box is not None:
                conf = float(rng.uniform(0.85, 0.99))
                detections.append(Detection(
                    _jitter_box(truth.flame_box, rng, w, h),
                    DetClass.FLAME, round(conf, 4)))
                masks.append((len(detections) - 1, truth.flame_mask))
        for truth in truths:
            if truth.smoke_box is not None:
                conf = float(rng.uniform(0.80, 0.99))
                detections.append(Detection(
                    _jitter_box(truth.smoke_box, rng, w, h),
                    DetClass.SMOKE, round(conf, 4)))
                masks.append((len(detections) - 1, truth.smoke_mask))

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
        raise InvalidPreset(f"unknown preset {name!r}")
    return SceneSpec(stacks=PRESETS[name])
