"""The simulator's frame renderer as it was, kept as a reference for the
current one.

`flaremon.simulator.render` fills each frame's background from a frame it
fills once per scene, adds the noise in place in int16, rasterizes an
ellipse from broadcast 1-D offsets inside its window, takes a region's
tight box from row and column projections and encodes the window's mask.
This module does each of these the long way: a background broadcast per
frame, the noise sum and the clip in int64, each ellipse rasterized over
the whole frame by `fullframe_oracle.ellipse_mask`, a `nonzero` over that
frame for the tight box, and the whole frame's runs from
`fullframe_oracle.encode_runs`, so no encoder of `flaremon` is used.  The
current one must render the same pixels (bytes and dtype), truths and
annotations, which `assert_renders_alike` checks.  pytest does not collect
this file.
"""

from __future__ import annotations

import math
from itertools import islice
from typing import Iterator, List, Optional, Tuple

import numpy as np

from flaremon.core import FPS, BBox, DetClass, Detection, Frame, Mask
from flaremon.ingest import FrameAnnotation
from flaremon.simulator import (BACKGROUND, RenderedFrame, SceneSpec,
                                StackTruth, _jitter_box)
from flaremon.simulator import render as current_render
from tests.fullframe_oracle import ellipse_mask, encode_runs


def _tight_bbox(mask) -> Optional[BBox]:
    ys, xs = np.nonzero(mask)
    if xs.size == 0:
        return None
    return BBox(float(xs.min()), float(ys.min()),
                float(xs.max() + 1), float(ys.max() + 1))


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
            ffg, rho, truncated = ellipse_mask(w, h, cx, cy, fl.major,
                                               fl.minor, axis_dir)
            core = np.array(fl.core_color, dtype=float)
            edge = np.array(fl.edge_color, dtype=float)
            mix = rho[ffg][:, None]
            img[ffg] = np.round(core * (1.0 - mix) + edge * mix)
            fbox = _tight_bbox(ffg)

            sbox = smask = None
            if stack.smoke is not None and fbox is not None:
                sm = stack.smoke
                area = sm.area_multiplier * math.pi * fl.major * fl.minor
                a_s = math.sqrt(area / math.pi * 1.5)
                b_s = area / (math.pi * a_s)
                scy = fbox.y_min - sm.gap - b_s
                sfg, _, _ = ellipse_mask(w, h, cx, scy, a_s, b_s, (1.0, 0.0))
                if sfg.any():
                    img[sfg] = sm.gray
                    sbox = _tight_bbox(sfg)
                    smask = Mask(w, h, encode_runs(sfg))
            fmask = None if fbox is None else Mask(w, h, encode_runs(ffg))

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


def assert_renders_alike(spec, frames=None):
    """The first `frames` frames (all when None) of `flaremon.simulator`'s
    render and of this one are equal: pixel bytes and dtype, truths and
    annotations."""
    for new, old in zip(islice(current_render(spec), frames),
                        islice(render(spec), frames), strict=True):
        assert new.frame[:4] == old.frame[:4]
        assert new.frame.pixels.dtype == old.frame.pixels.dtype
        assert new.frame.pixels.shape == old.frame.pixels.shape
        assert new.frame.pixels.tobytes() == old.frame.pixels.tobytes()
        assert new.truths == old.truths
        assert new.annotation == old.annotation
