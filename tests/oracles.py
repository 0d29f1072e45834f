"""Test-only oracles for the discrete-channel bounds: a simplex grid and I_inf by minimax."""

import math

import numpy as np

from relay_bounds.dmc_relay import DiscreteChannel


def simplex_grid(k: int, steps: int) -> np.ndarray:
    """All probability vectors with denominators `steps` on the k-simplex."""
    if k < 1 or steps < 1:
        raise ValueError("simplex_grid needs k >= 1 and steps >= 1")
    if k == 1:
        return np.ones((1, 1))
    if k == 2:
        i = np.arange(steps + 1)
        return np.stack([i, steps - i], axis=1) / steps
    if k == 3:
        i, j = np.meshgrid(np.arange(steps + 1), np.arange(steps + 1), indexing="ij")
        mask = i + j <= steps
        i, j = i[mask], j[mask]
        return np.stack([i, j, steps - i - j], axis=1) / steps
    if k == 4:
        rng_ = np.arange(steps + 1, dtype=np.int32)
        i, j, l = np.meshgrid(rng_, rng_, rng_, indexing="ij")
        mask = (i.astype(np.int64) + j + l) <= steps
        i, j, l = i[mask], j[mask], l[mask]
        return np.stack([i, j, l, steps - i - j - l], axis=1).astype(float) / steps
    raise ValueError("simplex_grid supports up to 4 symbols")


def i_infinity_minimax_oracle(w: DiscreteChannel, grid_steps: int | None = None) -> float:
    """Independent minimax evaluation of I_inf.

    Minimizes over reference output laws Q the essential-sup ratio
    max_{x,y: W(y|x)>0} W(y|x)/Q(y), scanning a dense simplex grid plus the
    analytic optimum Q*(y) proportional to max_x W(y|x).  A law that puts no
    mass on an output some input reaches has an infinite ratio and is skipped.
    """
    m = w.matrix
    peak = m.max(axis=0)
    ny = w.n_outputs
    if grid_steps is None:
        grid_steps = {2: 4000, 3: 400, 4: 100}.get(ny, 40)
    qs = np.vstack([peak / peak.sum(), simplex_grid(ny, grid_steps)])
    reached = peak > 0.0
    qs = qs[np.all(qs[:, reached] > 0.0, axis=1)][:, reached]
    # max over x of W(y|x)/Q(y) is peak(y)/Q(y), rounded the same way
    return math.log(float((peak[reached] / qs).max(axis=1).min()))
