"""Weighted counting of acyclic digraphs.

A weight system assigns each node i a weight w_i(D) to every candidate
in-neighbor set D, and the quantity of interest is the sum over all
acyclic digraphs of the product of the nodes' weights.  Four routes are
provided: explicit enumeration of all digraphs (small n oracle), the
unweighted Robinson recurrence, the sink-based inclusion-exclusion
recurrence over node subsets, and a reduction that evaluates the same
recurrence through multi-subset transforms on a ground set extended by
one auxiliary element.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bitops import bits_of, size_buckets
from .mst import PipelineStats, check_algorithm, naive_at, run_transform
from .ring import Ring
from .setfn import MAX_GROUND_SET, Family, SetFunction, zeta_transform

MAX_BRUTE_FORCE_N = 5
MAX_ROBINSON_N = 25


@dataclass
class WeightSystem:
    """Per-node in-neighbor weights; w[i] must vanish when i is in D."""

    ring: Ring
    n: int
    weights: list[SetFunction]

    def __post_init__(self):
        if not 0 <= self.n <= MAX_GROUND_SET:
            raise ValueError(f"node count must lie in [0, {MAX_GROUND_SET}]")
        if len(self.weights) != self.n:
            raise ValueError(f"expected {self.n} weight functions, got {len(self.weights)}")
        zero = self.ring.zero
        for i, w in enumerate(self.weights):
            if w.n != self.n:
                raise ValueError(f"weight {i} is over a {w.n}-element ground set")
            for mask in range(1 << self.n):
                if (mask >> i) & 1 and not self.ring.eq(w.values[mask], zero):
                    raise ValueError(
                        f"w[{i}] must be zero when node {i} is its own in-neighbor"
                    )

    @classmethod
    def unweighted(cls, ring: Ring, n: int) -> "WeightSystem":
        """All-ones weights: the result counts labeled acyclic digraphs."""
        weights = []
        for i in range(n):
            vals = [
                ring.zero if (mask >> i) & 1 else ring.one
                for mask in range(1 << n)
            ]
            weights.append(SetFunction(ring, n, vals))
        return cls(ring, n, weights)


@dataclass
class DagSumResult:
    """a[S] = weighted acyclic-digraph sum restricted to node set S."""

    ring: Ring
    n: int
    a: list

    @property
    def total(self):
        return self.a[-1]


def robinson_count(n: int) -> int:
    """Number of labeled acyclic digraphs on n nodes, by sink counting."""
    if not 0 <= n <= MAX_ROBINSON_N:
        raise ValueError(f"n must lie in [0, {MAX_ROBINSON_N}]")
    import math

    a = [1]
    for m in range(1, n + 1):
        total = 0
        for s in range(1, m + 1):
            term = math.comb(m, s) * (1 << (s * (m - s))) * a[m - s]
            total += term if s % 2 == 1 else -term
        a.append(total)
    return a[n]


def brute_force_dag_sum(wsys: WeightSystem):
    """Weight sum by enumerating all 2^(n(n-1)) digraphs.

    Acyclicity is decided for every digraph at once by a vectorized
    peeling sieve (repeatedly delete nodes with no surviving in-
    neighbors); ring arithmetic then runs only over the acyclic ones.
    """
    n = wsys.n
    ring = wsys.ring
    if n > MAX_BRUTE_FORCE_N:
        raise ValueError(f"brute force supports n <= {MAX_BRUTE_FORCE_N}")
    if n == 0:
        return ring.one
    candidates = [
        np.array([m for m in range(1 << n) if not (m >> i) & 1], dtype=np.int16)
        for i in range(n)
    ]
    radix = 1 << (n - 1)
    total = radix ** n
    idx = np.arange(total, dtype=np.int64)
    parents = [candidates[i][(idx // radix ** i) % radix] for i in range(n)]
    alive = np.full(total, (1 << n) - 1, dtype=np.int16)
    for _ in range(n):
        for i in range(n):
            sink = ((alive >> i) & 1 == 1) & ((parents[i] & alive) == 0)
            alive[sink] &= ~(1 << i)
    acc = ring.zero
    weight_values = [w.values for w in wsys.weights]
    for digraph in np.flatnonzero(alive == 0):
        prod = ring.one
        for i in range(n):
            prod = ring.mul(prod, weight_values[i][int(parents[i][digraph])])
        acc = ring.add(acc, prod)
    return acc


def _zeta_weights(wsys: WeightSystem) -> list[list]:
    return [zeta_transform(w).values for w in wsys.weights]


def tian_he_sum(wsys: WeightSystem) -> DagSumResult:
    """Inclusion-exclusion over sink sets, O(3^n * n) ring operations.

    a[T] = sum over nonempty S subseteq T of (-1)^(|S|-1)
           * prod_{i in S} (zeta w_i)(T \\ S) * a[T \\ S],
    where the zeta factor sums w_i over in-neighbor sets inside T \\ S.
    """
    ring = wsys.ring
    n = wsys.n
    zetas = _zeta_weights(wsys)
    add, sub, mul = ring.add, ring.sub, ring.mul
    a: list = [None] * (1 << n)
    a[0] = ring.one
    for t_mask in range(1, 1 << n):
        acc = ring.zero
        s_mask = t_mask
        while s_mask:
            rest = t_mask ^ s_mask
            prod = a[rest]
            for i in bits_of(s_mask):
                prod = mul(prod, zetas[i][rest])
            if s_mask.bit_count() % 2 == 1:
                acc = add(acc, prod)
            else:
                acc = sub(acc, prod)
            s_mask = (s_mask - 1) & t_mask
        a[t_mask] = acc
    return DagSumResult(ring, n, a)


def _signed_by_parity(ring: Ring, size: int, value):
    return value if size % 2 == 0 else ring.neg(value)


def _static_members(wsys: WeightSystem) -> list[SetFunction]:
    """Transform inputs for the node elements, fixed across rounds.

    Member i vanishes off the auxiliary half; on it, the value is 1 when
    i belongs to the column's node part, else the zeta-transformed
    weight (total weight of in-neighbor sets inside the column).
    """
    ring = wsys.ring
    n = wsys.n
    aux_bit = 1 << n
    zetas = _zeta_weights(wsys)
    members = []
    for i in range(n):
        vals = [ring.zero] * (1 << (n + 1))
        for s_mask in range(1 << n):
            if (s_mask >> i) & 1:
                vals[s_mask | aux_bit] = ring.one
            else:
                vals[s_mask | aux_bit] = zetas[i][s_mask]
        members.append(SetFunction(ring, n + 1, vals))
    return members


def round_families(wsys: WeightSystem, a: list):
    """Yield (t, family) for rounds t = 1..n of the transform-based recurrence.

    The node members are built once per call.  The auxiliary member
    carries (-1)^|S| * a[S] for |S| < t and zero for larger S, which cuts
    off the recurrence exactly at round t; its table is extended in place
    from `a` before each yield, so a[S] for |S| = t - 1 must be known when
    round t is requested.
    """
    ring = wsys.ring
    n = wsys.n
    aux_bit = 1 << n
    members = _static_members(wsys)
    aux_vals = [ring.zero] * (1 << (n + 1))
    buckets = size_buckets(n)
    for t in range(1, n + 1):
        for s_mask in buckets[t - 1]:
            aux_vals[s_mask | aux_bit] = _signed_by_parity(ring, t - 1, a[s_mask])
        yield t, Family(ring, n + 1, members + [SetFunction(ring, n + 1, aux_vals)])


def sum_acyclic_digraphs(
    wsys: WeightSystem,
    algo: str = "naive",
    sigma: float | None = None,
    tau: float | None = None,
    backend=None,
    stats: PipelineStats | None = None,
) -> DagSumResult:
    """The subset-sum table a[.] via n rounds of multi-subset transforms.

    Round t recovers a[T] for all |T| = t as (-1)^(t+1) times the
    transform value at T plus the auxiliary element.  The naive route
    evaluates only those targets; the fast routes compute the full table.
    """
    check_algorithm(algo, sigma, tau)
    ring = wsys.ring
    n = wsys.n
    aux_bit = 1 << n
    a: list = [None] * (1 << n)
    a[0] = ring.one
    buckets = size_buckets(n)
    for t, fam in round_families(wsys, a):
        if algo == "naive":
            values = naive_at(fam, [m | aux_bit for m in buckets[t]], stats)
        else:
            g = run_transform(
                algo, fam, sigma=sigma, tau=tau, backend=backend, stats=stats
            ).values
            values = [g[m | aux_bit] for m in buckets[t]]
        for t_mask, value in zip(buckets[t], values):
            a[t_mask] = value if t % 2 == 1 else ring.neg(value)
    return DagSumResult(ring, n, a)
