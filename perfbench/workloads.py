"""The benchmark's workloads: seeded inputs, the timed call and its exactness check.

Every workload runs on the M61 prime field (p = 2^61 - 1) with the classical
backend and the default sigma/tau.  Each names two algorithms by role:
`rmm_algo` routes its work through rectangular products, `scan_algo` through
the direct superset scan (or, for naive, the definition itself).
"""

from __future__ import annotations

import inspect
import itertools
import random

from multisubset.dag import sum_acyclic_digraphs, tian_he_sum
from multisubset.jsonio import generate_family, generate_weight_system
from multisubset.mst import run_transform
from multisubset.rmm import ClassicalBackend

MST_SAMPLE_TARGETS = 40
DAG_SAMPLE_SIZES = (1, 2, 3, 4, 4, 4)


class Checker:
    """Exactness check of one output table, run off the timed path.

    A table passes when it matches the sampled definition values and equals
    the reference table.  Without a reference table (the transform
    workloads), the first table that matches the sample becomes the
    reference, so every algorithm must then return that same table.
    """

    def __init__(self, size: int, sample: dict, reference: list | None = None):
        self.size = size
        self.sample = sample
        self.reference = reference

    def check(self, table) -> bool:
        table = list(table)
        if len(table) != self.size:
            return False
        if any(table[t] != v for t, v in self.sample.items()):
            return False
        if self.reference is None:
            self.reference = table
            return True
        return table == self.reference


def accepts(fn, param: str) -> bool:
    try:
        return param in inspect.signature(fn).parameters
    except (TypeError, ValueError):
        return False


def _call_kwargs(fn, backend, stats) -> dict:
    """Classical backend unless another is given; either is dropped if fn has no such parameter."""
    kwargs = {}
    if accepts(fn, "backend"):
        kwargs["backend"] = backend or ClassicalBackend()
    if stats is not None:
        kwargs["stats"] = stats
    return kwargs


def _bits(mask: int) -> list[int]:
    return [i for i in range(mask.bit_length()) if (mask >> i) & 1]


def definition_value(members: list, t_mask: int, p: int) -> int:
    """g(T) = sum over S subseteq T of prod over i in T of f_i(S), mod p."""
    bits = _bits(t_mask)
    acc = 0
    s_mask = t_mask
    while True:
        prod = 1
        for i in bits:
            prod = prod * members[i][s_mask] % p
        acc += prod
        if s_mask == 0:
            return acc % p
        s_mask = (s_mask - 1) & t_mask


def _acyclic(nodes: list[int], parents: tuple) -> bool:
    removed = 0
    left = list(zip(nodes, parents))
    while left:
        sinks = [i for i, d in left if d & ~removed == 0]
        if not sinks:
            return False
        for i in sinks:
            removed |= 1 << i
        left = [(i, d) for i, d in left if not (removed >> i) & 1]
    return True


def dag_definition_value(weights: list, t_mask: int, p: int) -> int:
    """Sum over acyclic digraphs on node set T of prod_i w_i(parents of i), mod p."""
    nodes = _bits(t_mask)
    choices = []
    for i in nodes:
        others = t_mask & ~(1 << i)
        choices.append([d for d in range(others + 1) if d & others == d])
    total = 0
    for parents in itertools.product(*choices):
        if _acyclic(nodes, parents):
            prod = 1
            for i, d in zip(nodes, parents):
                prod = prod * weights[i][d] % p
            total += prod
    return total % p


class Workload:
    """A named input size and its two algorithms, as (rmm_algo, scan_algo)."""

    is_dag = False

    def __init__(self, name: str, n: int, algos: tuple[str, str], why: str):
        self.name, self.n, self.algos, self.why = name, n, algos, why


class MstWorkload(Workload):
    """`run_transform` on one seeded family."""

    entry = staticmethod(run_transform)

    def make_inputs(self, ring, seed: int):
        return generate_family(self.n, ring, seed)

    def call(self, algo, inputs, backend=None, stats=None):
        return run_transform(algo, inputs, **_call_kwargs(run_transform, backend, stats))

    @staticmethod
    def table(output):
        return output.values

    def checker(self, inputs, seed: int) -> Checker:
        p = inputs.ring.p
        members = [f.values for f in inputs.members]
        rng = random.Random(f"perfbench-targets-{seed}")
        full = (1 << self.n) - 1
        targets = {0, full} | {rng.randrange(full + 1) for _ in range(MST_SAMPLE_TARGETS)}
        sample = {t: definition_value(members, t, p) for t in sorted(targets)}
        return Checker(1 << self.n, sample)


class DagWorkload(Workload):
    """`sum_acyclic_digraphs` on one seeded weight system."""

    is_dag = True
    entry = staticmethod(sum_acyclic_digraphs)

    def make_inputs(self, ring, seed: int):
        return generate_weight_system(self.n, ring, seed)

    def call(self, algo, inputs, backend=None, stats=None):
        return sum_acyclic_digraphs(
            inputs, algo=algo, **_call_kwargs(sum_acyclic_digraphs, backend, stats)
        )

    @staticmethod
    def table(output):
        return output.a

    def checker(self, inputs, seed: int) -> Checker:
        """Reference table from tian_he_sum, itself checked on a seeded sample.

        Raises ValueError when tian_he_sum disagrees with the definition.
        """
        p = inputs.ring.p
        weights = [w.values for w in inputs.weights]
        rng = random.Random(f"perfbench-nodesets-{seed}")
        sets = {0}
        for size in DAG_SAMPLE_SIZES:
            sets.add(sum(1 << i for i in rng.sample(range(self.n), min(size, self.n))))
        sample = {t: dag_definition_value(weights, t, p) for t in sorted(sets)}
        reference = list(tian_he_sum(inputs).a)
        bad = [t for t, v in sample.items() if reference[t] != v]
        if bad:
            raise ValueError(f"tian_he_sum disagrees with the definition at {bad}")
        return Checker(1 << self.n, sample, reference)


WORKLOADS = {
    w.name: w
    for w in (
        MstWorkload(
            "mst-bulk", 13, ("columns", "rows-columns"),
            "few large products: the kernel does most of columns, the direct scan most of rows-columns",
        ),
        MstWorkload(
            "mst-fine", 12, ("cover", "naive"),
            "cover issues 4096 one-column products (overhead, build, scatter); naive bypasses rmm as the control",
        ),
        DagWorkload(
            "dag-rounds", 10, ("columns", "rows-columns"),
            "n transforms over n+1 elements plus per-round rebuilds; each round reads ~5% of what it computes",
        ),
    )
}

