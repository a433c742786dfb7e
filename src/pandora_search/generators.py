"""Seeded random instance generation with exact rational data.

Instances are reproducible from (parameters, seed): values are distinct
integers on a grid, probabilities come from a random integer composition,
and costs are a random rational multiple of the box mean.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .core import Box, DiscreteDist, Instance

COST_GRID = 8


def random_instance(
    n: int,
    max_support: int = 4,
    value_max: int = 10,
    seed: int = 0,
    cost_scale_max: Fraction = Fraction(1),
) -> Instance:
    """Random n-box instance.  Costs are uniform on a grid of COST_GRID steps
    over [0, cost_scale_max * E[v]] per box, so c > E[v] (negative sigma) only
    occurs when cost_scale_max > 1.  A box draws up to max_support distinct
    values from 0..value_max, so 1 <= max_support <= value_max + 1."""
    if cost_scale_max < 0:
        raise ValueError(f"cost_scale_max must be >= 0, got {cost_scale_max}")
    if value_max < 0:
        raise ValueError(f"value_max must be >= 0, got {value_max}")
    if not 1 <= max_support <= value_max + 1:
        raise ValueError(f"max_support must be in [1, value_max + 1 = {value_max + 1}], got {max_support}")
    rng = random.Random(seed)
    boxes = []
    for _ in range(n):
        s = rng.randint(1, max_support)
        values = sorted(rng.sample(range(value_max + 1), s))
        weights = [rng.randint(1, 6) for _ in range(s)]
        total = sum(weights)
        dist = DiscreteDist((v, Fraction(w, total)) for v, w in zip(values, weights))
        ev = dist.expectation()
        cost = ev * cost_scale_max * Fraction(rng.randint(0, COST_GRID), COST_GRID)
        boxes.append(Box(dist, cost))
    return Instance(boxes)
