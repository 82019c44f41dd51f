"""Seeded random inputs and mask arrays shared by the test modules."""

import random

import numpy as np

from multisubset import Family, SetFunction, zeta_transform
from multisubset.bitops import bits_of


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


def tian_he_reference(wsys):
    """The Tian-He table a[.] T-major: for each T, every nonempty sink set
    S of T in turn, its product taken afresh (|S| muls per pair)."""
    ring, n = wsys.ring, wsys.n
    zetas = [zeta_transform(w).values for w in wsys.weights]
    a = [ring.one] + [None] * ((1 << n) - 1)
    for t_mask in range(1, 1 << n):
        acc = ring.zero
        s_mask = t_mask
        while s_mask:
            rest = t_mask ^ s_mask
            prod = a[rest]
            for i in bits_of(s_mask):
                prod = ring.mul(prod, zetas[i][rest])
            acc = ring.add(acc, prod) if s_mask.bit_count() % 2 else ring.sub(acc, prod)
            s_mask = (s_mask - 1) & t_mask
        a[t_mask] = acc
    return a
