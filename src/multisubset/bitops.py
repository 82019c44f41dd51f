"""Bitmask helpers for subset enumeration.

Convention everywhere in this package: bit i of a mask corresponds to
ground-set element i, so masks run over range(2**n).
"""

from __future__ import annotations

from itertools import combinations


def bits_of(mask: int) -> list[int]:
    """Indices of the set bits, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def submasks(mask: int):
    """All submasks of mask, descending (mask first, 0 last)."""
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


def subsets_of_size(mask: int, k: int):
    """Masks of the k-element subsets of the set bits of mask.

    Order follows itertools.combinations over the ascending bit list,
    which is deterministic.
    """
    bits = bits_of(mask)
    for combo in combinations(bits, k):
        m = 0
        for b in combo:
            m |= 1 << b
        yield m


def size_buckets(n: int) -> list[list[int]]:
    """buckets[k] lists the masks of popcount k over n bits, ascending."""
    buckets: list[list[int]] = [[] for _ in range(n + 1)]
    for mask in range(1 << n):
        buckets[mask.bit_count()].append(mask)
    return buckets


def superset_terms(mul, root, mask: int, free: list[int], factors: list) -> tuple[list, list]:
    """(terms, targets) for every superset T of mask within mask | free.

    free lists the bits T may add, ascending, and factors[j] is the factor
    of bit free[j].  T's term is root times the factors of T's bits outside
    mask.  Both lists double once per free bit, so the targets come out
    ascending and each term after the first costs one mul:
    2^len(free) - 1 in all.
    """
    terms, targets = [root], [mask]
    for b, factor in zip(free, factors):
        bit = 1 << b
        terms += [mul(x, factor) for x in terms]
        targets += [t | bit for t in targets]
    return terms, targets
