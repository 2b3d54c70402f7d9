"""Reference assignment: the exhaustive search `tracker.hungarian` must match."""

from __future__ import annotations

import itertools

import numpy as np


def brute_force_assignment(cost) -> float:
    """Exhaustive-permutation minimum; oracle for the Hungarian solver."""
    cost = np.asarray(cost, dtype=float)
    n_rows, n_cols = cost.shape
    rows = range(n_rows)
    best = float("inf")
    if n_rows <= n_cols:
        for perm in itertools.permutations(range(n_cols), n_rows):
            best = min(best, float(cost[list(rows), list(perm)].sum()))
    else:
        for perm in itertools.permutations(range(n_rows), n_cols):
            best = min(best, float(cost[list(perm), list(range(n_cols))].sum()))
    return best
