"""Seeded random inputs and plan helpers shared by the test modules."""

import random

import numpy as np

from multisubset import Family, SetFunction


def random_family(ring, n, seed):
    rng = random.Random(seed)
    members = [
        SetFunction(ring, n, [ring.sample(rng) for _ in range(1 << n)])
        for _ in range(n)
    ]
    return Family(ring, n, members)


def random_setfn(ring, n, seed):
    rng = random.Random(seed)
    return SetFunction(ring, n, [ring.sample(rng) for _ in range(1 << n)])


def masks(values):
    """Masks (nested lists of ints) as an int64 array, the form plan steps hold."""
    return np.array(values, dtype=np.int64)


def one_wider_select(planner, split, s1, s2):
    """A `MeasuredCostPlanner.select` picking blocks one element wider than
    their columns, capped at the half: products of several columns."""
    return min(s1 + 1, split.h1), min(s2 + 1, split.h2)
