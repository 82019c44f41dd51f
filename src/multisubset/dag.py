"""Weighted counting of acyclic digraphs.

A weight system assigns each node i a weight w_i(D) to every candidate
in-neighbor set D, and the quantity of interest is the sum over all
acyclic digraphs of the product of the nodes' weights.  Four routes are
provided: explicit enumeration of all digraphs (small n oracle), the
unweighted Robinson recurrence, the sink-based inclusion-exclusion
recurrence over node subsets, and a reduction that evaluates the same
recurrence through multi-subset transforms on a ground set extended by
one auxiliary element.

The oracle chain: the brute force (n <= 5) checks `tian_he_sum`, which
checks the transform routes.  `tian_he_sum` runs on lists, rest-major,
one ring multiplication per (T, S) pair, and shares no code with the
array executor.

The transform route stays on arrays of the ring's element form (uint64
over exactly `PrimeField(2^61 - 1)`, object arrays over every other
ring) from the weights to the last round: the weights' zeta transforms
run as array butterflies, and all n rounds run on one
`arrays.ArrayFamily` whose auxiliary row each round fills in place
(`round_family`); the naive route reads its targets from a list copy of
it.  perfbench wraps `zeta_transform` and `run_transform` to time the
rounds and count the targets read, so they are called through this
module's namespace and each target is read by indexing the returned list.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bitops import bits_of, size_buckets, superset_terms
from .mst import PipelineStats, check_algorithm, naive_at, run_transform
from .ring import Ring
from .setfn import MAX_GROUND_SET, SetFunction, zeta_transform

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
    """Inclusion-exclusion over sink sets, 3^n - 2^n ring muls.

    a[T] = sum over nonempty S subseteq T of (-1)^(|S|-1)
           * prod_{i in S} (zeta w_i)(T \\ S) * a[T \\ S],
    where the zeta factor sums w_i over in-neighbor sets inside T \\ S.

    Rest-major: the rests R = T \\ S run in ascending popcount, so a[R] is
    final when R comes up.  Its root -a[R], doubled over R's free bits b
    by the factors -(zeta w_b)(R) (`bitops.superset_terms`), gives the term
    of every S at once, and each term but S's empty one is added into
    a[R | S].
    """
    ring = wsys.ring
    n = wsys.n
    zetas = _zeta_weights(wsys)
    add, neg, mul = ring.add, ring.neg, ring.mul
    full = (1 << n) - 1
    a: list = [ring.zero] * (1 << n)
    a[0] = ring.one
    for bucket in size_buckets(n):
        for rest in bucket:
            free = bits_of(full ^ rest)
            factors = [neg(zetas[b][rest]) for b in free]
            terms, targets = superset_terms(mul, neg(a[rest]), rest, free, factors)
            for t_mask, term in zip(targets[1:], terms[1:]):
                a[t_mask] = add(a[t_mask], term)
    return DagSumResult(ring, n, a)


def round_family(wsys: WeightSystem):
    """(family, aux): the one family of all n rounds of the transform-based
    recurrence, an `arrays.ArrayFamily` over the nodes and one auxiliary
    element, and a view of its auxiliary member on the auxiliary half.

    Member i < n vanishes off the auxiliary half; on it, the value is 1
    when i belongs to the column's node part, else the zeta-transformed
    weight (total weight of in-neighbor sets inside the column).  Before
    round t the auxiliary member must carry (-1)^|S| * a[S] for |S| < t and
    zero for larger S, which cuts off the recurrence exactly at round t: it
    starts as a[empty set] = 1, and the caller fills in layer t - 1.
    """
    from .arrays import ArrayFamily, element_form

    ring, n = wsys.ring, wsys.n
    form = element_form(ring)
    aux_bit = 1 << n
    block = np.full((n + 1, 2 * aux_bit), form.zero, dtype=form.dtype)
    nodes = block[:n, aux_bit:]
    nodes[...] = form.from_rows(_zeta_weights(wsys)).reshape(n, aux_bit)
    nodes[(np.arange(aux_bit) >> np.arange(n)[:, None]) & 1 == 1] = form.one
    aux = block[n, aux_bit:]
    aux[0] = form.one
    return ArrayFamily(ring, n + 1, block, form), aux


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
    n = wsys.n
    fam, aux = round_family(wsys)
    form = fam.form
    aux_bit = 1 << n
    a = np.full(aux_bit, form.zero, dtype=form.dtype)
    a[0] = form.one
    for t, targets in enumerate(size_buckets(n)[1:], 1):
        if algo == "naive":
            values = naive_at(fam.to_family(), [m | aux_bit for m in targets], stats)
        else:
            g = run_transform(
                algo, fam, sigma=sigma, tau=tau, backend=backend, stats=stats
            ).values
            values = [g[m | aux_bit] for m in targets]
        layer = form.from_rows([values])[0]  # (-1)^(t+1) a[T] for |T| = t
        if t % 2:
            a[targets] = layer
            if t < n:
                aux[targets] = form.neg(layer)  # (-1)^t a[T]
        else:
            a[targets] = aux[targets] = form.neg(layer)
    return DagSumResult(wsys.ring, n, a.tolist())
