"""Acceptance suite: one test per shipping criterion.

1. Differential equivalence of every strategy cell against the brute-force
   evaluator over a randomized corpus, under a runtime budget.
2. Pinned golden plans for the three reference plan shapes.
3. Asymptotic separation of binary vs worst-case optimal plans on the
   adversarial triangle family, measured by counters.
4. Data-structure observational equivalence and lookup cost bounds.
5. Factorized aggregation is exact and strictly cheaper where it applies.
6. Hybrid structure policy never sorts materialized intermediates.
7. Vector leaves build measurably faster than the hash-of-hash baseline on
   a bulk synthetic instance.
"""

import math
import random
import time
from pathlib import Path

import pytest

from conftest import CORPUS, parsed
from unijoin.executor import (
    OptConfig,
    StructurePolicy,
    execute,
    execute_bushy,
)
from unijoin.oracle import nested_loop
from unijoin.query import (
    MODE_FREEJOIN,
    MODE_GENERIC_JOIN,
    convert_left_deep,
    optimize_plan,
    parse_bushy,
    parse_plan,
    parse_query,
)
from unijoin.storage import Relation, gen_adversarial_triangle
from unijoin.trie import HASH, SORTED, LEAF_VEC, LEAF_HASHMAP, LEAF_RANGE, LeafSpec, SortedDict, build_trie

GOLDEN = Path(__file__).parent / "golden"

POLICIES = (
    StructurePolicy("hash"),
    StructurePolicy("sorted"),
    StructurePolicy("hybrid"),
)

OPT_CELLS = (
    OptConfig(),
    OptConfig.none(),
    OptConfig(o1=False),
    OptConfig(o2=False),
    OptConfig(o3=False),
    OptConfig(o4=False),
    OptConfig(o5=False),
)


def plans_for(q):
    base = convert_left_deep(q, [a.relation for a in q.atoms])
    return {
        "binary": base,
        "gj": optimize_plan(q, base, MODE_GENERIC_JOIN),
        "fj": optimize_plan(q, base, MODE_FREEJOIN),
    }


def test_criterion_1_differential_equivalence():
    """Every (plan, policy, toggle) cell matches the brute-force evaluator
    on >= 200 randomized instances across the whole corpus, in < 5 min."""
    rng = random.Random(20240501)
    started = time.perf_counter()
    instances_per_query = 16
    total_instances = 0
    for entry in CORPUS:
        q, agg = parsed(entry)
        plans = plans_for(q)
        for i in range(instances_per_query):
            if i % 8 == 7:
                rels = entry.instance(rng, max_rows=80, domain=9)
            else:
                rels = entry.instance(rng, max_rows=12, domain=4)
            total_instances += 1
            reference = nested_loop(q, rels, agg)
            for plan_name, plan in plans.items():
                for policy in POLICIES:
                    for opts in OPT_CELLS:
                        result, _ = execute(q, plan, rels, agg, policy, opts)
                        assert result.matches_reference(reference), (
                            entry.name,
                            plan_name,
                            policy.mode,
                            opts.label(),
                            i,
                        )
    assert total_instances >= 200
    elapsed = time.perf_counter() - started
    assert elapsed < 300, f"differential suite took {elapsed:.1f}s"


def test_criterion_2_golden_plans():
    """The three-leaf query's reference plans match their pinned files."""
    q, _ = parse_query("Q(x,a,b) :- R(x,a), S(x,b), T(x)")
    naive = convert_left_deep(q, ("R", "S", "T"))
    assert naive == parse_plan((GOLDEN / "clover_naive.plan").read_text())
    gj = optimize_plan(q, naive, MODE_GENERIC_JOIN)
    assert gj == parse_plan((GOLDEN / "clover_gj.plan").read_text())
    fj = optimize_plan(q, naive, MODE_FREEJOIN)
    assert fj == parse_plan((GOLDEN / "clover_fj.plan").read_text())


def test_criterion_3_asymptotic_separation():
    """On the adversarial triangle family, the binary plan's intermediate
    grows quadratically (log-log slope >= 1.8) while the per-variable plan's
    probe+output cost grows near-linearly (slope <= 1.6)."""
    q, agg = parse_query("Q(a,b,c) :- R(a,b), S(b,c), T(c,a)")
    sizes = (20, 40, 80, 160)
    binary_cost, gj_cost = [], []
    for n in sizes:
        r, s, t = gen_adversarial_triangle(n)
        rels = {"R": r, "S": s, "T": t}
        plans = plans_for(q)
        ref = nested_loop(q, rels, agg)
        res_b, stats_b = execute(q, plans["binary"], rels, agg, StructurePolicy("hash"))
        res_g, stats_g = execute(q, plans["gj"], rels, agg, StructurePolicy("hash"))
        assert res_b.matches_reference(ref) and res_g.matches_reference(ref)
        binary_cost.append(stats_b.intermediate_tuples)
        gj_cost.append(stats_g.probes + stats_g.output_tuples)
    for prev, cur in zip(binary_cost, binary_cost[1:]):
        slope = math.log2(cur / prev)
        assert slope >= 1.8, (binary_cost, slope)
    for prev, cur in zip(gj_cost, gj_cost[1:]):
        slope = math.log2(cur / prev)
        assert slope <= 1.6, (gj_cost, slope)


def test_criterion_4_data_structure_differential():
    """Leaf shapes are observationally equivalent across the singleton
    boundary; sorted and hash lookups agree; ranges reconstruct the
    relation; sorted lookups respect the binary-search comparison bound."""
    rng = random.Random(7)

    # Bare-int singletons and promoted lists vs plain vector across the
    # singleton boundary.
    for cap in (1, 2, 4, 8):
        for n in (cap - 1, cap, cap + 1):
            rows = sorted((0, rng.randrange(50)) for _ in range(max(n, 1)))
            rel = Relation.from_rows("R", ("a", "b"), rows, sorted_by=("a", "b"))
            from unijoin.trie import LEAF_SMALLVEC, leaf_offsets

            sv = build_trie(rel, ("a",), HASH, LeafSpec(LEAF_SMALLVEC))
            vec = build_trie(rel, ("a",), HASH, LeafSpec(LEAF_VEC))
            for path, leaf in vec.paths().items():
                other = sv.paths()[path]
                assert list(leaf_offsets(other, sv.leaf)) == list(leaf)

    # Sorted vs hash dictionaries: identical hit/miss behavior on 10^3
    # random probes over 10^4 keys.
    keys = sorted(rng.sample(range(10**6), 10**4))
    sd = SortedDict()
    hd = {}
    for k in keys:
        sd.append(k, k * 2)
        hd[k] = k * 2
    from unijoin.trie import _MISSING

    for _ in range(10**3):
        k = rng.randrange(10**6)
        sv, _comps = sd.find(k)
        hv = hd.get(k, _MISSING)
        assert (sv is _MISSING) == (hv is _MISSING)
        if hv is not _MISSING:
            assert sv == hv

    # Range leaves of a sorted relation reconstruct offsets 0..size-1.
    rows = sorted((rng.randrange(40), rng.randrange(40)) for _ in range(500))
    rel = Relation.from_rows("R", ("a", "b"), rows, sorted_by=("a", "b"))
    trie = build_trie(rel, ("a", "b"), SORTED, LeafSpec(LEAF_RANGE))
    seen = []
    for leaf in trie.paths().values():
        seen.extend(leaf)
    assert sorted(seen) == list(range(rel.size))

    # Comparison bound: at most ceil(log2 k) + 1 per lookup.
    k = len(sd)
    bound = math.ceil(math.log2(k)) + 1
    for _ in range(10**3):
        _, comps = sd.find(rng.randrange(10**6))
        assert comps <= bound


def test_criterion_5_factorized_aggregation():
    """Factorized evaluation is bit-identical for min/count on the corpus
    and strictly cheaper (min-operation counter) on a two-branch instance."""
    rng = random.Random(99)
    for entry in CORPUS:
        q, agg = parsed(entry)
        if agg.kind not in ("count", "min"):
            continue
        plans = plans_for(q)
        for _ in range(10):
            rels = entry.instance(rng, max_rows=15, domain=4)
            for plan in plans.values():
                on, _ = execute(q, plan, rels, agg, opts=OptConfig())
                off, _ = execute(q, plan, rels, agg, opts=OptConfig(o5=False))
                if agg.kind == "count":
                    assert on.count == off.count
                else:
                    assert on.minima == off.minima

    # Two independent branches under a shared key: combining per-branch
    # minima needs k_S + k_T + 2 operations instead of 2 * k_S * k_T.
    q, agg = parse_query("Q(MIN(y,z)) :- R(x), S(x,y), T(x,z)")
    k = 8
    rels = {
        "R": Relation.from_rows("R", ("x",), [(0,)], sorted_by=("x",)),
        "S": Relation.from_rows(
            "S", ("x", "y"), [(0, 100 + j) for j in range(k)], sorted_by=("x", "y")
        ),
        "T": Relation.from_rows(
            "T", ("x", "z"), [(0, 200 + j) for j in range(k)], sorted_by=("x", "z")
        ),
    }
    plan = parse_plan("R(x), S(x), T(x)\nS(y)\nT(z)")
    reference = nested_loop(q, rels, agg)
    on, stats_on = execute(q, plan, rels, agg, opts=OptConfig())
    off, stats_off = execute(q, plan, rels, agg, opts=OptConfig(o5=False))
    assert on.minima == off.minima == reference == (100, 200)
    assert stats_on.min_ops < stats_off.min_ops, (
        stats_on.min_ops,
        stats_off.min_ops,
    )
    assert stats_on.output_tuples == stats_off.output_tuples


def test_criterion_6_hybrid_skips_sorting_intermediates():
    """A staged bushy execution over sorted base relations runs under the
    hybrid policy with zero sort operations and matches the reference."""
    rng = random.Random(31)
    q, agg = parse_query("Q(a,b,c,d) :- R(a,b), S(b,c), T(c,d), U(d,a)")
    tree = parse_bushy("((R(a,b) S(b,c)) (T(c,d) U(d,a)))")
    checked = 0
    for _ in range(20):
        rels = {
            name: Relation.from_rows(
                name,
                ("u", "v"),
                sorted(
                    (rng.randrange(4), rng.randrange(4))
                    for _ in range(rng.randrange(1, 12))
                ),
                sorted_by=("u", "v"),
            )
            for name in ("R", "S", "T", "U")
        }
        reference = nested_loop(q, rels, agg)
        result, stats = execute_bushy(q, tree, rels, agg, StructurePolicy("hybrid"))
        assert result.matches_reference(reference)
        assert stats.sort_ops == 0
        if stats.deep_intermediate_tries >= 1:
            checked += 1
    assert checked > 0  # the intermediate really was trie-indexed sometimes


def test_criterion_7_vector_leaves_build_faster():
    """On a bulk synthetic instance (10^5-row near-unique-key relation),
    building tries with vector/small-vector leaves is at least 10% faster
    than the hash-of-hash baseline, by mean of 5 timed runs."""
    rng = random.Random(424242)
    n_big = 100_000
    # near-unique join keys with a sprinkle of duplicates
    keys = list(range(n_big))
    for _ in range(n_big // 20):
        keys[rng.randrange(n_big)] = keys[rng.randrange(n_big)]
    b_rows = sorted((k, rng.randrange(1000)) for k in keys)
    a_rows = sorted((i, rng.randrange(n_big)) for i in range(1000))
    rels = {
        "A": Relation.from_rows("A", ("x", "y"), a_rows, sorted_by=("x", "y")),
        "B": Relation.from_rows("B", ("y", "z"), b_rows, sorted_by=("y", "z")),
    }
    q, agg = parse_query("Q(x,y,z) :- A(x,y), B(y,z)")
    plan = convert_left_deep(q, ("A", "B"))
    fast_opts = OptConfig(o1=True, o2=True, o3=False, o4=False, o5=False)
    slow_opts = OptConfig.none()
    policy = StructurePolicy("hash")

    def mean_build(opts):
        times = []
        execute(q, plan, rels, agg, policy, opts)  # warm-up
        for _ in range(5):
            _, stats = execute(q, plan, rels, agg, policy, opts)
            times.append(stats.build_ms)
        return sum(times) / len(times)

    fast = mean_build(fast_opts)
    slow = mean_build(slow_opts)
    assert fast <= 0.9 * slow, f"vector build {fast:.1f}ms vs baseline {slow:.1f}ms"
