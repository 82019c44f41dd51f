import random
from math import comb

import numpy as np
import pytest

from multisubset import (
    CountingRing,
    DagSumResult,
    OpCounter,
    PipelineStats,
    PrimeField,
    SetFunction,
    WeightSystem,
    brute_force_dag_sum,
    robinson_count,
    run_transform,
    sum_acyclic_digraphs,
    tian_he_sum,
)
from multisubset.arrays import ArrayFamily
from multisubset.dag import round_families

from helpers import tian_he_reference

# labeled acyclic digraph counts, cross-checked by digraph enumeration
ACYCLIC_COUNTS = [1, 1, 3, 25, 543, 29281, 3781503]


def random_weights(ring, n, seed):
    rng = random.Random(seed)
    weights = []
    for i in range(n):
        vals = [
            ring.zero if (mask >> i) & 1 else ring.sample(rng)
            for mask in range(1 << n)
        ]
        weights.append(SetFunction(ring, n, vals))
    return WeightSystem(ring, n, weights)


def test_robinson_sequence():
    assert [robinson_count(n) for n in range(7)] == ACYCLIC_COUNTS
    assert robinson_count(7) == 1138779265
    assert robinson_count(8) == 783702329343
    with pytest.raises(ValueError):
        robinson_count(-1)
    with pytest.raises(ValueError):
        robinson_count(26)


def test_weight_system_validation(modp):
    with pytest.raises(ValueError):
        WeightSystem(modp, 2, [SetFunction.zeros(modp, 2)])  # wrong count
    with pytest.raises(ValueError):
        WeightSystem(modp, 2, [SetFunction.zeros(modp, 3)] * 2)  # wrong ground set
    bad = [SetFunction.constant(modp, 2, modp.one) for _ in range(2)]
    with pytest.raises(ValueError):  # w[0] nonzero where node 0 is its own parent
        WeightSystem(modp, 2, bad)


@pytest.mark.parametrize("n", [-1, 25])
def test_weight_system_node_count_range(modp, n):
    with pytest.raises(ValueError, match="node count"):
        WeightSystem(modp, n, [])


def test_unweighted_counts_dags(modp):
    for n in range(0, 5):
        wsys = WeightSystem.unweighted(modp, n)
        assert brute_force_dag_sum(wsys) == modp.from_int(ACYCLIC_COUNTS[n])


def test_brute_force_limits(modp):
    with pytest.raises(ValueError):
        brute_force_dag_sum(WeightSystem.unweighted(modp, 6))
    assert brute_force_dag_sum(WeightSystem.unweighted(modp, 0)) == modp.one


def test_brute_force_empty_digraph_only(modp):
    # weights that only allow an empty in-neighborhood: one digraph survives
    n = 3
    weights = [SetFunction.indicator(modp, n, 0) for _ in range(n)]
    wsys = WeightSystem(modp, n, weights)
    assert brute_force_dag_sum(wsys) == modp.one
    assert tian_he_sum(wsys).total == modp.one


def test_tian_he_against_brute_force(modp):
    for n in range(1, 5):
        for seed in (0, 1, 2):
            wsys = random_weights(modp, n, seed)
            result = tian_he_sum(wsys)
            assert isinstance(result, DagSumResult)
            assert result.a[0] == modp.one
            assert result.total == brute_force_dag_sum(wsys)


@pytest.mark.parametrize("ring", [PrimeField(), PrimeField(101)], ids=["m61", "p101"])
def test_tian_he_matches_t_major_reference(ring):
    for n in range(9):
        wsys = random_weights(ring, n, seed=50 + n)
        assert tian_he_sum(wsys).a == tian_he_reference(wsys)


@pytest.mark.parametrize("n", range(9))
def test_tian_he_ring_operation_counts(n):
    # one mul per (rest, nonempty sink set) pair; a neg per rest's root and
    # per free factor, an add per pair, and n zeta transforms of n 2^(n-1) adds
    counter = OpCounter()
    wsys = random_weights(CountingRing(PrimeField(), counter), n, seed=n)
    counter.reset()
    tian_he_sum(wsys)
    half = 2**n // 2
    assert (counter.muls, counter.adds) == (3**n - 2**n, 3**n + n * half + n * n * half)
    if n == 8:
        assert (counter.muls, counter.adds) == (6305, 15777)


def test_tian_he_single_node(modp):
    vals = [modp.from_int(17), modp.zero]
    wsys = WeightSystem(modp, 1, [SetFunction(modp, 1, vals)])
    assert tian_he_sum(wsys).total == modp.from_int(17)


def test_tian_he_unweighted_table(modp):
    # every restriction a[S] counts DAGs on |S| nodes
    wsys = WeightSystem.unweighted(modp, 4)
    result = tian_he_sum(wsys)
    for s_mask in range(1 << 4):
        assert result.a[s_mask] == modp.from_int(ACYCLIC_COUNTS[s_mask.bit_count()])


@pytest.mark.parametrize("collect", [iter, list], ids=["lazy", "list"])
def test_build_dag_family_shape(modp, collect):
    # each round's family keeps its own values, also after later rounds
    n = 3
    wsys = random_weights(modp, n, seed=5)
    a_table = tian_he_sum(wsys).a
    aux_bit = 1 << n
    rounds = 0
    for t, fam in collect(round_families(wsys, a_table)):
        rounds += 1
        assert t == rounds
        assert fam.n == n + 1
        members = fam.to_family().members
        # no member carries mass on sets missing the auxiliary element
        for f in members:
            for s_mask in range(1 << n):
                assert f.values[s_mask] == modp.zero
        # a node inside S contributes a factor one
        for i in range(n):
            for s_mask in range(1 << n):
                if (s_mask >> i) & 1:
                    assert members[i].values[s_mask | aux_bit] == modp.one
        # the auxiliary member is cut off from size t on
        aux = members[n]
        for s_mask in range(1 << n):
            size = s_mask.bit_count()
            value = aux.values[s_mask | aux_bit]
            if size >= t:
                assert value == modp.zero
            else:
                expected = a_table[s_mask]
                if size % 2 == 1:
                    expected = modp.neg(expected)
                assert value == expected
    assert rounds == n


def test_array_rounds_equal_the_list_rounds(modp):
    # the uint64 rounds of PrimeField equal the object rounds of the same
    # weights over CountingRing, each block keeping its own values also
    # after later rounds
    n = 4
    wsys = random_weights(modp, n, seed=5)
    counted = random_weights(CountingRing(modp), n, seed=5)
    a_table = tian_he_sum(wsys).a
    uint64 = list(round_families(wsys, a_table))
    objects = list(round_families(counted, a_table))
    assert [t for t, _ in uint64] == [t for t, _ in objects] == list(range(1, n + 1))
    for (_, arr), (_, obj) in zip(uint64, objects):
        assert isinstance(arr, ArrayFamily) and isinstance(obj, ArrayFamily)
        assert (arr.ring, arr.n, obj.n) == (wsys.ring, n + 1, n + 1)
        assert (arr.values.dtype, obj.values.dtype) == (np.uint64, object)
        assert arr.values.tolist() == obj.values.tolist()


def test_round_extraction_matches_recurrence(modp):
    # one transform round really produces the next diagonal of a[.]
    n = 4
    wsys = random_weights(modp, n, seed=8)
    a_table = tian_he_sum(wsys).a
    aux_bit = 1 << n
    for t, fam in round_families(wsys, a_table):
        g = run_transform("naive", fam.to_family())
        for t_mask in range(1 << n):
            if t_mask.bit_count() != t:
                continue
            value = g.values[t_mask | aux_bit]
            if t % 2 == 0:
                value = modp.neg(value)
            assert value == a_table[t_mask]


@pytest.mark.parametrize("algo", ["naive", "columns", "rows-columns", "cover"])
def test_sum_acyclic_digraphs_all_algorithms(modp, algo):
    for n in range(1, 6):
        wsys = random_weights(modp, n, seed=21 + n)
        expected = tian_he_sum(wsys).a
        got = sum_acyclic_digraphs(wsys, algo=algo)
        assert got.a == expected


@pytest.mark.parametrize("ring", [
    CountingRing(PrimeField()), PrimeField(101), PrimeField((1 << 521) - 1),
], ids=["counting", "p101", "p521"])
def test_object_form_dag_tables_equal_tian_he(ring):
    for n in range(0, 7):
        wsys = random_weights(ring, n, seed=40 + n)
        expected = tian_he_sum(wsys).a
        for algo in ("naive", "columns", "rows-columns", "cover"):
            assert sum_acyclic_digraphs(wsys, algo=algo).a == expected


def test_targets_only_matches_full(modp):
    # naive rounds evaluate only the targets |T| = t; columns computes full tables
    wsys = random_weights(modp, 5, seed=3)
    full = sum_acyclic_digraphs(wsys, algo="columns")
    trimmed = sum_acyclic_digraphs(wsys, algo="naive")
    assert trimmed.a == full.a
    assert trimmed.total == brute_force_dag_sum(wsys)


@pytest.mark.parametrize("n", range(0, 7))
def test_naive_rounds_pair_count(modp, n):
    # round t visits every subset of T plus the auxiliary element, |T| = t
    stats = PipelineStats()
    sum_acyclic_digraphs(random_weights(modp, n, seed=n), algo="naive", stats=stats)
    assert stats.pair_iterations == sum(comb(n, t) << (t + 1) for t in range(1, n + 1))


# Largest relative error of an f64 DAG table against exact integer weights
# for n <= 8; measured at most 1.09e-15 (naive), see the README.
F64_DAG_RTOL = 1e-14


@pytest.mark.parametrize("algo", ["tian-he", "naive", "columns", "rows-columns", "cover"])
def test_f64_dag_relative_error(f64, algo):
    # exact: a[S] < 2^40 digraphs times (2^53)^8 < 2^521 - 1, so the prime
    # field holds every value as the integer itself
    exact_ring = PrimeField((1 << 521) - 1)

    def weights(ring, ints):
        n = len(ints)
        return WeightSystem(ring, n, [SetFunction(ring, n, [ring.from_int(v) for v in row])
                                      for row in ints])

    for n in range(1, 9):
        rng = random.Random(n)
        ints = [[0 if (m >> i) & 1 else rng.randrange(1 << 53) for m in range(1 << n)]
                for i in range(n)]
        exact = tian_he_sum(weights(exact_ring, ints)).a
        wsys = weights(f64, ints)
        got = tian_he_sum(wsys).a if algo == "tian-he" else sum_acyclic_digraphs(wsys, algo).a
        assert max(abs(g - e) / e for g, e in zip(got, exact)) <= F64_DAG_RTOL
