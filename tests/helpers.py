"""Seeded random inputs shared by the test modules."""

import random

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
