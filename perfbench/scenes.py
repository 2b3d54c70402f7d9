"""Seeded scene specs for the benchmark workloads.

Every scene is drawn from ``numpy.random.default_rng([seed, role])`` so the
same seed gives the same scene, and the monitor and training scenes of one
seed never share a generator.  The make-up of a scene (frame
size, stack count, number of low stacks, size ranges) is fixed; the seed
moves positions, tilts, drift, smoke size and pixel noise.  Keeping the
make-up fixed keeps the cost of a scene nearly the same for every seed.
"""

from __future__ import annotations

import numpy as np

CLEAN_COLORS = dict(core_color=(90, 110, 245), edge_color=(130, 150, 250))
SMOKY_COLORS = dict(core_color=(250, 90, 40), edge_color=(255, 150, 70))

# Scene roles; each role draws from its own generator.
MONITOR, TRAIN = 0, 1

# role: (width, height, frames, stacks, low stacks)
LAYOUTS = {
    MONITOR: (640, 360, 32, 6, 2),
    TRAIN: (400, 240, 40, 4, 2),
}


def _stack(rng, slot_x, base_y, tilt, low):
    from flaremon.simulator import FlameSpec, SmokeSpec, StackSpec

    drift = 0.0
    if rng.random() < 0.5:
        drift = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.04, 0.08))
    flame = FlameSpec(
        base_x=slot_x + rng.uniform(-5.0, 5.0),
        base_y=base_y + rng.uniform(-5.0, 5.0),
        major=30.0, minor=12.0, tilt_deg=tilt, drift=(drift, 0.0),
        **(SMOKY_COLORS if low else CLEAN_COLORS))
    if low:
        smoke = SmokeSpec(area_multiplier=rng.uniform(1.7, 1.9), gray=90)
    else:
        smoke = SmokeSpec(area_multiplier=rng.uniform(0.20, 0.26), gray=120)
    return StackSpec(flame, smoke, "low" if low else "high")


def scene(seed: int, role: int) -> SceneSpec:
    """The scene of one role for one seed."""
    from flaremon.simulator import SceneSpec

    width, height, frames, n_stacks, n_low = LAYOUTS[role]
    rng = np.random.default_rng([seed, role])
    # Tilts at least 5 degrees apart over 3..33 degrees, so every stack of a
    # scene keeps a distinct angle and a log row can be matched to its stack
    # by its features alone.
    steps = np.linspace(0.0, 5.0, n_stacks).round() * 6.0
    order = rng.permutation(n_stacks)
    tilts = steps[order] + 3.0 + rng.uniform(-0.5, 0.5, n_stacks)
    if role == TRAIN:
        # Low stacks take the smallest and the largest tilts, so the angle
        # cannot separate the regimes linearly and the classifier learns
        # them from the smoke ratio and the colour index.
        low_slots = {int(order.argmin()), int(order.argmax())}
    else:
        low_slots = set(rng.choice(n_stacks, size=n_low,
                                   replace=False).tolist())
    spacing = width / n_stacks
    stacks = tuple(
        _stack(rng, spacing * (i + 0.5), height - 80.0, float(tilts[i]),
               i in low_slots)
        for i in range(n_stacks))
    return SceneSpec(width=width, height=height, frame_count=frames,
                     rng_seed=int(rng.integers(2**31)), stacks=stacks)
