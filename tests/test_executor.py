"""Interpreter behavior: differential checks against the brute-force
evaluator, counter semantics, optimization toggles, policies, and the
staged evaluation of bushy trees."""

import bisect
import os
import random
import subprocess
import sys
from dataclasses import replace
from unittest import mock

import pytest

from conftest import CORPUS, parsed
from unijoin import executor
from unijoin.errors import ExecutionError, PlanError
from unijoin.executor import (
    ExecStats,
    OptConfig,
    ResultBag,
    StructurePolicy,
    _choose_structures,
    execute,
    execute_bushy,
)
from unijoin.oracle import nested_loop
from unijoin.query import (
    AGG_COUNT,
    AGG_FULL,
    AGG_MIN,
    MODE_FREEJOIN,
    MODE_GENERIC_JOIN,
    AggregationSpec,
    Atom,
    ConjunctiveQuery,
    convert_left_deep,
    optimize_plan,
    parse_bushy,
    parse_plan,
    parse_query,
)
from unijoin.storage import Relation, gen_adversarial_triangle
from unijoin.trie import (
    HASH,
    LEAF_COUNT,
    LEAF_RANGE,
    LEAF_SMALLVEC,
    SORTED,
    LeafSpec,
    SortedDict,
    build_trie,
)
from unijoin.trie import _MISSING

POLICIES = (
    StructurePolicy("hash"),
    StructurePolicy("sorted"),
    StructurePolicy("hybrid"),
)


def rel(name, attrs, rows, sort=True):
    rows = sorted(rows) if sort else rows
    return Relation.from_rows(
        name, attrs, rows, sorted_by=tuple(attrs) if sort else None
    )


def plans_for(q):
    base = convert_left_deep(q, [a.relation for a in q.atoms])
    return (
        base,
        optimize_plan(q, base, MODE_GENERIC_JOIN),
        optimize_plan(q, base, MODE_FREEJOIN),
    )


class TestDifferential:
    @pytest.mark.parametrize("entry", CORPUS, ids=lambda e: e.name)
    def test_matches_reference(self, entry, rng):
        q, agg = parsed(entry)
        for _ in range(4):
            rels = entry.instance(rng, max_rows=20, domain=5)
            reference = nested_loop(q, rels, agg)
            for plan in plans_for(q):
                for policy in POLICIES:
                    for opts in (OptConfig(), OptConfig.none()):
                        result, _ = execute(q, plan, rels, agg, policy, opts)
                        assert result.matches_reference(reference), (
                            entry.name,
                            policy.mode,
                            opts.label(),
                            str(plan),
                        )


class TestCounters:
    def setup_method(self):
        self.q, self.agg = parse_query("Q(x,y,z) :- R(x,y), S(y,z)")
        self.rels = {
            "R": rel("R", ("a", "b"), [(1, 10), (2, 10), (3, 30)]),
            "S": rel("S", ("a", "b"), [(10, 7), (10, 8), (20, 9)]),
        }
        self.plan = convert_left_deep(self.q, ("R", "S"))

    def test_intermediate_equals_pairwise_join_size(self):
        _, stats = execute(self.q, self.plan, self.rels, self.agg)
        # |R join S| = rows 1 and 2 of R each match 2 S rows
        assert stats.intermediate_tuples == 4
        assert stats.output_tuples == 4

    def test_probe_hits_bounded_by_probes(self):
        _, stats = execute(self.q, self.plan, self.rels, self.agg)
        assert 0 < stats.probe_hits <= stats.probes

    def test_build_insertions(self):
        _, stats = execute(self.q, self.plan, self.rels, self.agg)
        # only S is trie-indexed; R is scanned
        assert stats.trie_build_insertions == 3

    def test_sorted_policy_counts_comparisons_and_sorts(self):
        unsorted = {
            "R": rel("R", ("a", "b"), [(3, 30), (1, 10), (2, 10)], sort=False),
            "S": rel("S", ("a", "b"), [(20, 9), (10, 7), (10, 8)], sort=False),
        }
        _, stats = execute(
            self.q, self.plan, unsorted, self.agg, StructurePolicy("sorted")
        )
        assert stats.sort_ops == 1  # S needed a sorted copy; R is scanned
        assert stats.comparisons > 0

    def test_stats_serialization(self):
        _, stats = execute(self.q, self.plan, self.rels, self.agg)
        d = stats.to_dict()
        for key in (
            "probes",
            "probe_hits",
            "intermediate_tuples",
            "output_tuples",
            "comparisons",
            "trie_build_insertions",
            "build_ms",
            "exec_ms",
            "min_ops",
            "sort_ops",
            "deep_intermediate_tries",
        ):
            assert key in d
        assert stats.to_json().startswith("{")
        assert "probes" in stats.to_text()


class TestLoopShapes:
    """Hand-written plans that reach every source of the interpreter loop: a
    first subatom walking two trie levels (``keys2``), a three-variable scan
    (``scan3``), a two-variable leaf walk inside the plan (``leaf2``) and at
    its tail (``V(e,f)``, combined by O5), and final probe-only group sizes
    (``U(a)``, ``T(c,d)``).  ``d`` is a str column; ``U`` holds an ``a``
    above every stored one and ``S`` a ``d`` above every one in ``T``, so
    sorted lookups also miss past the last key."""

    QUERY = "Q(a,b,c,d,e,f) :- R(a,b,c), S(a,b,d), T(c,d), U(a), V(a,e,f)"
    PLANS = {
        "keys2": "R(a,b), S(a,b), U(a), V(a)\nR(c)\nS(d), T(c,d)\nV(e,f)",
        "scan3": "R(a,b,c), S(a,b), U(a), V(a)\nS(d), T(c,d)\nV(e,f)",
        "leaf2": "U(a), R(a), S(a), V(a)\nR(b,c), S(b)\nS(d), T(c,d)\nV(e,f)",
    }

    @staticmethod
    def instance(rng):
        def rows(fixed, *domains):
            n = rng.randrange(1, 7)
            return fixed + [tuple(rng.choice(d) for d in domains) for _ in range(n)]

        small, strs = range(3), ("p", "q", "r")
        return {
            "R": rel("R", ("a", "b", "c"), rows([(0, 0, 0), (1, 1, 9)], small, small, small)),
            "S": rel("S", ("a", "b", "d"), rows([(0, 0, "p"), (1, 1, "zz")], small, small, strs)),
            "T": rel("T", ("c", "d"), rows([(0, "p")], small, strs)),
            "U": rel("U", ("a",), rows([(0,), (7,)], small)),
            "V": rel("V", ("a", "e", "f"), rows([(0, 5, 6)], small, small, small)),
        }

    @pytest.mark.parametrize("name", sorted(PLANS))
    def test_matches_reference(self, name, rng):
        q, _ = parse_query(self.QUERY)
        plan = parse_plan(self.PLANS[name])
        aggs = (
            AggregationSpec(AGG_FULL, q.head),
            AggregationSpec(AGG_COUNT, ()),
            AggregationSpec(AGG_MIN, ("b", "d", "f")),
        )
        all_opts = (OptConfig(), OptConfig(o5=False), OptConfig(o3=False), OptConfig.none())
        for _ in range(3):
            rels = self.instance(rng)
            for agg in aggs:
                reference = nested_loop(q, rels, agg)
                assert reference  # the fixed rows always join
                for policy in POLICIES:
                    for opts in all_opts:
                        result, _ = execute(q, plan, rels, agg, policy, opts)
                        assert result.matches_reference(reference), (
                            name, agg.kind, policy.mode, opts
                        )


class TestPinnedCounters:
    """Every non-timing counter on small fixed instances.  They follow from
    the plan, the policy and the data alone, so a rewrite of the interpreter
    loop or of the access decisions must reproduce them exactly.  Each cell
    runs at the engine's batch size and at batches of 1 and 3 rows, where
    the n=40 triangle's 20-row hub fan spans several batches: no counter may
    depend on where a batch splits.  A probe is one lookup per row per probe
    subatom, so the binary plan's probe of T(c,a) counts once per row."""

    BATCHES = (executor.BATCH, 1, 3)

    COUNTERS = (
        "probes",
        "probe_hits",
        "intermediate_tuples",
        "output_tuples",
        "comparisons",
        "trie_build_insertions",
        "sort_ops",
        "min_ops",
    )

    # (plan, policy) -> COUNTERS on the adversarial triangle at n=40
    EXPECTED = {
        ("binary", "hash"): (460, 60, 420, 20, 0, 80, 0, 0),
        ("binary", "sorted"): (460, 60, 420, 20, 2720, 80, 0, 0),
        ("binary", "hybrid"): (460, 60, 420, 20, 200, 80, 0, 0),
        ("gj", "hash"): (80, 60, 40, 20, 0, 100, 0, 0),
        ("gj", "sorted"): (80, 60, 40, 20, 320, 100, 1, 0),
        ("gj", "hybrid"): (80, 60, 40, 20, 100, 100, 0, 0),
    }

    def got(self, s):
        return tuple(getattr(s, name) for name in self.COUNTERS)

    @pytest.mark.parametrize("plan_name,policy", sorted(EXPECTED))
    def test_counters(self, plan_name, policy, monkeypatch):
        q, agg = parse_query("Q(a,b,c) :- R(a,b), S(b,c), T(c,a)")
        rels = {r.name: r for r in gen_adversarial_triangle(40)}
        plan = convert_left_deep(q, ("R", "S", "T"))
        if plan_name == "gj":
            plan = optimize_plan(q, plan, MODE_GENERIC_JOIN)
        results = []
        for batch in self.BATCHES:
            monkeypatch.setattr(executor, "BATCH", batch)
            result, s = execute(q, plan, rels, agg, StructurePolicy(policy))
            assert self.got(s) == self.EXPECTED[(plan_name, policy)], batch
            results.append(result.tuples)
        assert results[0] == nested_loop(q, rels, agg)
        assert all(list(r.items()) == list(results[0].items()) for r in results)

    def test_sorted_root_probes_seek_each_distinct_key_once(self, monkeypatch):
        """Under ``sorted``, the binary plan's root probes (S on b, T on
        (c, a)) bisect each batch's distinct keys once, ascending, each
        search starting where the batch's last one ended.  Once T's last
        batch died, a batch whose ``c`` or ``a`` values all fall outside
        T's is dropped before any search.  The comparisons are still
        charged per row, as ``EXPECTED`` pins them."""
        q, agg = parse_query("Q(a,b,c) :- R(a,b), S(b,c), T(c,a)")
        rels = {r.name: r for r in gen_adversarial_triangle(40)}
        plan = convert_left_deep(q, ("R", "S", "T"))
        fan = {}
        for b, c in rels["S"].rows():
            fan.setdefault(b, []).append(c)
        t_keys = set(rels["T"].rows())
        t_values = tuple(map(set, zip(*t_keys)))  # T's c values, then its a values

        def distinct_keys(size):
            """Each searched batch's distinct keys, summed: R's rows cut
            into batches for S's probe (every b meets S), then each batch's
            rows that S expands, cut again for T's, skipping a batch that
            the column test drops after a dead one."""
            r_rows, total, dead = rels["R"].rows(), 0, False
            for lo in range(0, len(r_rows), size):
                batch = r_rows[lo:lo + size]
                total += len({b for _, b in batch})
                keys = [(c, a) for a, b in batch for c in fan.get(b, ())]
                for i in range(0, len(keys), size):
                    part = keys[i:i + size]
                    if dead and any(map(set.isdisjoint, t_values, zip(*part))):
                        continue
                    total += len(set(part))
                    dead = t_keys.isdisjoint(part)
            return total

        searches = []

        def spy(keys, key, lo):
            found = bisect.bisect_left(keys, key, lo)
            searches.append((key, lo, found))
            return found

        monkeypatch.setattr(executor, "bisect_left", spy)
        want = self.EXPECTED[("binary", "sorted")]
        for batch in self.BATCHES:
            monkeypatch.setattr(executor, "BATCH", batch)
            searches.clear()
            _, s = execute(q, plan, rels, agg, StructurePolicy("sorted"))
            assert self.got(s) == want, batch
            assert len(searches) == distinct_keys(batch), batch
            for (key, _, found), (next_key, lo, _) in zip(searches, searches[1:]):
                assert lo == 0 or (lo == found and next_key > key), batch
        assert distinct_keys(self.BATCHES[0]) == 61 < want[0] == 460  # 61 of 460 lookups

    # policy -> (count, COUNTERS); the same with O5 on and off
    BUSHY_CYCLE4 = {
        "hash": (279, (24, 23, 32, 324, 0, 20, 0, 0)),
        "sorted": (279, (24, 23, 32, 324, 72, 20, 1, 0)),
        "hybrid": (279, (24, 23, 32, 324, 24, 20, 0, 0)),
    }

    @pytest.mark.parametrize("o5", (True, False))
    @pytest.mark.parametrize("policy", sorted(BUSHY_CYCLE4))
    def test_weighted_bushy_cycle4_count(self, policy, o5, monkeypatch):
        q, agg = parse_query("Q(COUNT) :- R(a,b), S(b,c), T(c,d), U(d,a)")
        tree = parse_bushy("((R(a,b) S(b,c)) (T(c,d) U(d,a)))")
        rows = [(0, 0), (0, 1), (1, 0), (1, 2), (2, 0), (2, 1)]
        rels = {
            name: Relation.from_rows(
                name, ("u", "v"), rows, sorted_by=("u", "v"),
                weights=[1 + (i + k) % 3 for i in range(len(rows))],
            )
            for k, name in enumerate("RSTU")
        }
        for batch in self.BATCHES:
            monkeypatch.setattr(executor, "BATCH", batch)
            result, s = execute_bushy(
                q, tree, rels, agg, StructurePolicy(policy), OptConfig(o5=o5)
            )
            assert (result.count, self.got(s)) == self.BUSHY_CYCLE4[policy], batch
            assert s.deep_intermediate_tries == 1
        assert result.count == nested_loop(q, rels, agg)

    # policy -> COUNTERS; sorted re-sorts R, which declares no order
    KEY_WALK = {
        "hash": (9, 3, 6, 8, 0, 22, 0, 0),
        "sorted": (9, 3, 6, 8, 18, 22, 1, 0),
        "hybrid": (9, 3, 6, 8, 0, 22, 0, 0),
    }

    @pytest.mark.parametrize("policy", sorted(KEY_WALK))
    def test_multi_variable_key_walk(self, policy, monkeypatch):
        # The root walks R's one level of (a, b) key tuples and probes S's
        # (a, b) level once per tuple: 9 probes, not one per variable.
        q, agg = parse_query("Q(a,b,c) :- R(a,b,c), S(a,b)")
        rels = {
            "R": Relation.from_rows(
                "R", ("a", "b", "c"), sorted((i % 3, i % 5, i) for i in range(30))
            ),
            "S": rel("S", ("a", "b"), [(0, 0), (1, 1), (1, 1), (2, 3)]),
        }
        plan = parse_plan("R(a,b), S(a,b)\nR(c)")
        for batch in self.BATCHES:
            monkeypatch.setattr(executor, "BATCH", batch)
            result, s = execute(q, plan, rels, agg, StructurePolicy(policy))
            assert self.got(s) == self.KEY_WALK[policy], batch
            assert result.matches_reference(nested_loop(q, rels, agg)), batch

    def test_sorted_probes_from_trie_nodes(self, monkeypatch):
        """Under ``sorted``, S is probed from its root and then from the
        trie nodes its earlier parts reached, nodes of different sizes, and
        some rows miss at every level.  The comparisons equal what a
        row-at-a-time loop over the built tries charges with
        ``SortedDict.find``, at every batch size."""
        rng = random.Random(27)
        rels = {
            name: Relation.from_rows(name, ("a", "b", "c"), [
                tuple(rng.randrange(d) for d in (9, 5, 6)) for _ in range(40)
            ])
            for name in "RS"
        }
        q, agg = parse_query("Q(a,b,c) :- R(a,b,c), S(a,b,c)")
        plan = parse_plan("R(a), S(a)\nR(b), S(b)\nR(c), S(c)")
        built = {}

        def spy(rel_, attrs, dict_kind, spec):
            trie = build_trie(rel_, attrs, dict_kind, spec)
            built[rel_.name] = (rel_, trie)
            return trie

        monkeypatch.setattr(executor, "build_trie", spy)
        results = []
        for batch in self.BATCHES:
            monkeypatch.setattr(executor, "BATCH", batch)
            result, s = execute(q, plan, rels, agg, StructurePolicy("sorted"))
            results.append((list(result.tuples.items()), self.got(s)))
        assert dict(results[0][0]) == nested_loop(q, rels, agg)
        assert all(r == results[0] for r in results)

        # R walks its a and b levels, then the c of each row in a leaf; S is
        # looked up once per row at each level, as a nested loop would.
        (r_rel, r_trie), (_, s_trie) = built["R"], built["S"]
        comparisons, misses, sizes = 0, [0, 0, 0], set()
        for a, r_a in r_trie.root.items():
            s_a, charged = s_trie.root.find(a)
            comparisons += charged
            if s_a is _MISSING:
                misses[0] += 1
                continue
            for b, leaf in r_a.items():
                sizes.add(len(s_a))
                s_ab, charged = s_a.find(b)
                comparisons += charged
                if s_ab is _MISSING:
                    misses[1] += 1
                    continue
                for off in leaf:
                    sizes.add(len(s_ab))
                    found, charged = s_ab.find(r_rel.columns["c"][off])
                    comparisons += charged
                    misses[2] += found is _MISSING
        assert all(misses) and len(sizes) > 2, (misses, sizes)
        assert results[0][1][self.COUNTERS.index("comparisons")] == comparisons


class TestDeadBatchColumns:
    """A root probe whose last batch died first tests each key column of
    the next batch against the level's values at that key position, and
    drops the batch at the first disjoint column, before any search or
    per-row lookup.  R is scanned in blocks of ``BATCH`` rows, one batch
    each, and probes T on the tuple (a, b).  The first block dies in the
    lookup, every column meeting T's values, so each block after it is
    tested.  A spy records every key looked up: a sorted root's keys as
    ``_seek`` reads them, a hash root's as its ``get`` does."""

    COUNTERS = TestPinnedCounters.COUNTERS
    got = TestPinnedCounters.got

    T_ROWS = [(1, 5), (2, 6), (3, 7), (9, 9)]  # a in {1, 2, 3, 9}, b in {5, 6, 7, 9}
    DEAD = [(1, 6)]  # each value occurs in T, the pair does not
    LIVE = [(9, 9), (9, 10)]  # a hit, and a miss that the lookup drops

    # name -> (blocks of R's rows, which of them the column test drops)
    CASES = {
        "a disjoint": ([DEAD, [(4, 5)], LIVE], {1}),
        "b disjoint": ([DEAD, [(2, 8), (3, 8)], LIVE], {1}),
        "every column meets, no tuple hits": ([DEAD, [(2, 5), (3, 6)], LIVE], set()),
        "dead, then live": ([DEAD, LIVE], set()),
    }

    @pytest.mark.parametrize("policy", ("hash", "hybrid", "sorted"))
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_matches_nested_loop(self, case, policy, monkeypatch):
        q, agg = parse_query("Q(a,b) :- R(a,b), T(a,b)")
        plan = convert_left_deep(q, ("R", "T"))
        patterns, dropped = self.CASES[case]
        looked_up = []

        class Spy(dict):
            def get(self, key, default=None):
                looked_up.append(key)
                return super().get(key, default)

        seek, build = executor._seek, executor.build_trie

        def seek_spy(level, keys):
            keys = list(keys)
            looked_up.extend(keys)
            return seek(level, keys)

        def build_spy(*args):
            trie = build(*args)
            return trie if trie.root.__class__ is SortedDict else replace(trie, root=Spy(trie.root))

        monkeypatch.setattr(executor, "_seek", seek_spy)
        monkeypatch.setattr(executor, "build_trie", build_spy)
        for batch in TestPinnedCounters.BATCHES:
            monkeypatch.setattr(executor, "BATCH", batch)
            blocks = [sorted(p[i % len(p)] for i in range(batch)) for p in patterns]
            rows = [row for block in blocks for row in block]
            rels = {
                "R": Relation.from_rows("R", ("a", "b"), rows, sorted_by=("a", "b")),
                "T": Relation.from_rows("T", ("a", "b"), self.T_ROWS, sorted_by=("a", "b")),
            }
            reference = nested_loop(q, rels, agg)
            looked_up.clear()
            result, s = execute(q, plan, rels, agg, StructurePolicy(policy))
            where = (batch, policy)
            assert list(result.tuples.items()) == list(reference.items()), where
            hits = sum(reference.values())
            comparisons = len(rows) * len(self.T_ROWS).bit_length() if policy == "sorted" else 0
            assert self.got(s) == (len(rows), hits, 0, hits, comparisons, 4, 0, 0), where
            assert looked_up == [row for i, block in enumerate(blocks) if i not in dropped
                                 for row in block], where


class TestDeadBatchOrder:
    """A run of dead batches, each dropped by the second column of T's key
    tuple (a, b): R is scanned in blocks of ``BATCH`` rows, one batch each.
    The first block dies in the lookup; each later dead block holds an a
    that T holds and a b that it lacks.  The column that drops a batch is
    tested first on the next, so after the first drop each dropped batch
    makes one ``isdisjoint`` call, and a dropped batch builds no key
    tuple.  The last block is live: it passes the test, b first."""

    T_ROWS = TestDeadBatchColumns.T_ROWS  # a in {1, 2, 3, 9}, b in {5, 6, 7, 9}
    BLOCKS = [(1, 6), (2, 8), (2, 10), (3, 8), (3, 11), (9, 9)]
    DROPPED = set(BLOCKS[1:-1])

    def run(self, policy, batch, monkeypatch):
        monkeypatch.setattr(executor, "BATCH", batch)
        q, agg = parse_query("Q(a,b) :- R(a,b), T(a,b)")
        rows = [row for row in self.BLOCKS for _ in range(batch)]
        rels = {
            "R": Relation.from_rows("R", ("a", "b"), rows, sorted_by=("a", "b")),
            "T": Relation.from_rows("T", ("a", "b"), self.T_ROWS, sorted_by=("a", "b")),
        }
        result, _ = execute(q, convert_left_deep(q, ("R", "T")), rels, agg,
                            StructurePolicy(policy))
        assert list(result.tuples.items()) == [((9, 9), batch)]

    @pytest.mark.parametrize("batch", (1, 3, 1024))
    @pytest.mark.parametrize("policy", ("hash", "hybrid", "sorted"))
    def test_dropping_column_is_tested_first(self, policy, batch, monkeypatch):
        tested = []  # the key position of each isdisjoint call, in order
        value_sets = executor._value_sets

        class Counted(set):
            def isdisjoint(self, other):
                tested.append(self.position)
                return super().isdisjoint(other)

        def counted(level, arity):
            sets = [Counted(s) for s in value_sets(level, arity)]
            for position, s in enumerate(sets):
                s.position = position
            return sets

        monkeypatch.setattr(executor, "_value_sets", counted)
        self.run(policy, batch, monkeypatch)
        # a then b for the first drop, b alone for each of the three after
        # it, and b then a for the live block
        assert tested == [0, 1, 1, 1, 1, 1, 0], (policy, batch)

    @pytest.mark.parametrize("batch", (1, 3, 1024))
    @pytest.mark.parametrize("policy", ("hash", "hybrid", "sorted"))
    def test_dropped_batch_builds_no_key_tuple(self, policy, batch, monkeypatch):
        keyed = set()  # the rows of every batch whose key tuples were built
        keys = executor._keys

        def spy(batch_, pvars, n):
            out = keys(batch_, pvars, n)
            keyed.update(zip(*map(batch_.__getitem__, pvars)))
            return out

        monkeypatch.setattr(executor, "_keys", spy)
        self.run(policy, batch, monkeypatch)
        assert keyed == {self.BLOCKS[0], self.BLOCKS[-1]}, (policy, batch)


class TestUnreadColumn:
    """A chain whose head keeps its first variable: every node carries
    that column, and none reads it until the result does.  Each R_i holds
    (0, 0), (1, 1) and (1, 0), so an x0 of 0 reaches the end one way and
    an x0 of 1 in k + 1 ways over k atoms."""

    @staticmethod
    def chain(k):
        q, agg = parse_query("Q(x0) :- " + ", ".join(f"R{i}(x{i},x{i + 1})" for i in range(k)))
        rows = [(0, 0), (1, 0), (1, 1)]
        rels = {f"R{i}": Relation.from_rows(f"R{i}", ("a", "b"), rows, sorted_by=("a", "b"))
                for i in range(k)}
        return q, agg, rels

    @pytest.mark.parametrize("k", (12, 300))
    def test_matches_closed_form_and_nested_loop(self, k, monkeypatch):
        q, agg, rels = self.chain(k)
        want = {(0,): 1, (1,): k + 1}
        if k <= 12:  # within the oracle's budget of 3**k row combinations
            assert nested_loop(q, rels, agg) == want
        binary = convert_left_deep(q, [a.relation for a in q.atoms])
        for plan in (binary, optimize_plan(q, binary, MODE_FREEJOIN)):
            for batch in (1, 3, 1024):
                monkeypatch.setattr(executor, "BATCH", batch)
                for policy in POLICIES:
                    result, _ = execute(q, plan, rels, agg, policy)
                    assert list(result.tuples.items()) == list(want.items()), (batch, policy)

class TestToggles:
    def test_o4_replaces_offsets_with_counts(self):
        q, agg = parse_query("Q(x,a) :- R(x,a), T(x)")
        rels = {
            "R": rel("R", ("a", "b"), [(1, 5), (1, 6), (2, 7)]),
            "T": rel("T", ("a",), [(1,), (1,), (2,)]),
        }
        plan = convert_left_deep(q, ("R", "T"))
        reference = nested_loop(q, rels, agg)
        for o4 in (False, True):
            opts = OptConfig(o4=o4)
            result, _ = execute(q, plan, rels, agg, StructurePolicy("hash"), opts)
            assert result.matches_reference(reference)
        # duplicate T rows must multiply multiplicities either way
        assert reference[(1, 5)] == 2

    def test_o3_prunes_dead_columns(self):
        q, agg = parse_query("Q(COUNT) :- R(x,a), S(x,b)")
        rels = {
            "R": rel("R", ("a", "b"), [(1, 5), (1, 6), (2, 7)]),
            "S": rel("S", ("a", "b"), [(1, 8), (2, 9), (3, 9)]),
        }
        plan = convert_left_deep(q, ("R", "S"))
        on, s_on = execute(q, plan, rels, agg, opts=OptConfig(o5=False))
        off, s_off = execute(q, plan, rels, agg, opts=OptConfig(o3=False, o5=False))
        assert on.count == off.count == nested_loop(q, rels, agg)

    def test_o5_count_identical(self, rng):
        for entry in CORPUS:
            if "count" not in entry.query_text.lower():
                continue
            q, agg = parsed(entry)
            rels = entry.instance(rng, max_rows=15, domain=4)
            plan = plans_for(q)[2]
            a, _ = execute(q, plan, rels, agg, opts=OptConfig())
            b, _ = execute(q, plan, rels, agg, opts=OptConfig(o5=False))
            assert a.count == b.count

    def test_o5_min_fewer_ops(self):
        """Independent tail branches: combined minima instead of nested loops."""
        q, agg = parse_query("Q(MIN(y,z)) :- R(x), S(x,y), T(x,z)")
        k = 6
        rels = {
            "R": rel("R", ("x",), [(0,)]),
            "S": rel("S", ("x", "y"), [(0, 10 + j) for j in range(k)]),
            "T": rel("T", ("x", "z"), [(0, 20 + j) for j in range(k)]),
        }
        plan = parse_plan("R(x), S(x), T(x)\nS(y)\nT(z)")
        on, s_on = execute(q, plan, rels, agg, opts=OptConfig())
        off, s_off = execute(q, plan, rels, agg, opts=OptConfig(o5=False))
        assert on.minima == off.minima == (10, 20)
        assert (s_on.min_ops, s_off.min_ops) == (14, 72)
        assert s_on.output_tuples == s_off.output_tuples == k * k

    @pytest.mark.parametrize("batch", [1024, 3])
    def test_o5_scan_tail_reads_its_one_group_once_per_batch(self, batch, monkeypatch):
        """A tail node that scans a relation sharing no variable with the
        rest of the plan has one group, which serves every row of a batch:
        no read of it gathers more offsets than the relation has rows, while
        ``min_ops`` still charges the group's size per row."""
        rng = random.Random(5)
        r_rows = [(rng.randrange(8),) for _ in range(20)]
        s_rows = [(rng.randrange(8),) for _ in range(20)]
        t_rows = [(rng.randrange(100),) for _ in range(40)]
        s_values = {x for x, in s_rows}
        k = sum(x in s_values for x, in r_rows)  # the R rows that reach the tail
        widths = []
        real = executor.gather

        def spy(offsets):
            widths.append(len(offsets))
            return real(offsets)

        monkeypatch.setattr(executor, "BATCH", batch)
        monkeypatch.setattr(executor, "gather", spy)
        plan = parse_plan("R(x), S(x)\nT(y)")
        for weights in (None, [rng.randint(1, 3) for _ in t_rows]):
            rels = {
                "R": Relation.from_rows("R", ("x",), r_rows),
                "S": Relation.from_rows("S", ("x",), s_rows),
                "T": Relation.from_rows("T", ("y",), t_rows, weights=weights),
            }
            for text, opts in (("Q(MIN(x,y)) :- R(x), S(x), T(y)", OptConfig()),
                               ("Q(COUNT) :- R(x), S(x), T(y)", OptConfig(o3=False))):
                q, agg = parse_query(text)
                widths.clear()
                result, stats = execute(q, plan, rels, agg, opts=opts)
                assert result.matches_reference(nested_loop(q, rels, agg))
                assert max(widths, default=0) <= len(t_rows), (text, weights)
                if agg.kind == AGG_MIN:
                    assert stats.min_ops == k * len(t_rows) + 2 * k

    def test_opt_config_parsing(self):
        assert OptConfig.from_text("all") == OptConfig()
        assert OptConfig.from_text("none") == OptConfig.none()
        o = OptConfig.from_text("O1,O3")
        assert (o.o1, o.o2, o.o3, o.o4, o.o5) == (True, False, True, False, False)
        with pytest.raises(ExecutionError):
            OptConfig.from_text("O9")


class TestPolicies:
    def test_unknown_policy(self):
        for mode in ("fancy", "explicit"):
            with pytest.raises(ExecutionError):
                StructurePolicy(mode)

    def test_hybrid_choice_per_access(self, monkeypatch):
        """Under hybrid a declared order that fits buys a sorted trie only
        for a relation that is iterated; a probe-only relation is hashed,
        as is an intermediate, which declares no order."""
        r = rel("R", ("a", "b"), [(1, 2), (1, 3), (2, 3)])
        hybrid = StructurePolicy("hybrid")

        def choice(probe_only, opts=OptConfig()):
            rel2, kind, spec, copied = _choose_structures(r, ("a",), probe_only, hybrid, opts)
            assert rel2 is r and not copied
            return kind, spec.kind

        assert choice(probe_only=True) == (HASH, LEAF_COUNT)
        assert choice(probe_only=True, opts=OptConfig(o4=False)) == (HASH, LEAF_SMALLVEC)
        assert choice(probe_only=False) == (SORTED, LEAF_RANGE)

        # The 4-cycle's bushy stage _I1(c,d,a) is iterated on d, keyed on
        # (c, a), in the root stage; the base relations S and U are iterated
        # under tries their declared order fits.
        built = []

        def spy(rel_, attrs, dict_kind, spec):
            built.append((rel_.name, dict_kind, spec.kind))
            return build_trie(rel_, attrs, dict_kind, spec)

        monkeypatch.setattr(executor, "build_trie", spy)
        q, agg = parse_query("Q(a,b,c,d) :- R(a,b), S(b,c), T(c,d), U(d,a)")
        tree = parse_bushy("((R(a,b) S(b,c)) (T(c,d) U(d,a)))")
        rels = {n: rel(n, ("u", "v"), [(0, 0), (0, 1), (1, 0)]) for n in ("R", "S", "T", "U")}
        _, stats = execute_bushy(q, tree, rels, agg, hybrid)
        assert sorted(built) == [
            ("S", SORTED, LEAF_RANGE),
            ("U", SORTED, LEAF_RANGE),
            ("_I1", HASH, LEAF_SMALLVEC),
        ]
        assert stats.deep_intermediate_tries == 1

    def test_hybrid_comparisons_are_the_iterated_relations_alone(self):
        """On the binary triangle plan, T is probe-only and hashed, so the
        sorted-lookup charge is S's alone: one lookup per R row into the 21
        distinct b keys of S, at ``(21).bit_length()`` comparisons each."""
        q, agg = parse_query("Q(a,b,c) :- R(a,b), S(b,c), T(c,a)")
        rels = {r.name: r for r in gen_adversarial_triangle(40)}
        assert len(set(rels["S"].columns["b"])) == 21
        plan = convert_left_deep(q, ("R", "S", "T"))
        _, s = execute(q, plan, rels, agg, StructurePolicy("hybrid"))
        assert s.comparisons == rels["R"].size * (21).bit_length() == 200

    def test_hybrid_never_sorts(self, rng):
        for entry in CORPUS[:4]:
            q, agg = parsed(entry)
            rels = entry.instance(rng, max_rows=15)
            for plan in plans_for(q):
                _, stats = execute(q, plan, rels, agg, StructurePolicy("hybrid"))
                assert stats.sort_ops == 0


class TestEdgeCases:
    def test_empty_relation_short_circuits(self):
        q, agg = parse_query("Q(x,y) :- R(x,y), S(y)")
        rels = {
            "R": rel("R", ("a", "b"), [(1, 2)]),
            "S": rel("S", ("a",), []),
        }
        plan = convert_left_deep(q, ("R", "S"))
        result, stats = execute(q, plan, rels, agg)
        assert result.tuples == {} and stats.probes == 0

    def test_min_over_empty_join(self):
        q, agg = parse_query("Q(MIN(x)) :- R(x), S(x)")
        rels = {"R": rel("R", ("a",), [(1,)]), "S": rel("S", ("a",), [(2,)])}
        plan = convert_left_deep(q, ("R", "S"))
        result, _ = execute(q, plan, rels, agg)
        assert result.kind == AGG_MIN and result.minima is None

    def test_relations_built_from_lists_of_names(self):
        """A relation built with lists of attribute names holds tuples, so
        it runs under every policy like the tuple-built one."""
        q, agg = parse_query("Q(x,y,z) :- R(x,y), S(y,z)")
        listed = {
            "R": Relation("R", ["a", "b"], {"a": [1, 1, 2], "b": [5, 6, 5]}, sorted_by=["a", "b"]),
            "S": Relation.from_rows("S", ["a", "b"], [(5, 7), (6, 8)], sorted_by=["a"]),
        }
        reference = nested_loop(q, listed, agg)
        assert reference == {(1, 5, 7): 1, (1, 6, 8): 1, (2, 5, 7): 1}
        for plan in plans_for(q):
            for policy in POLICIES:
                result, _ = execute(q, plan, listed, agg, policy)
                assert result.matches_reference(reference), (str(plan), policy)

    def test_missing_relation(self):
        q, agg = parse_query("Q(x) :- R(x)")
        plan = convert_left_deep(q, ("R",))
        with pytest.raises(ExecutionError):
            execute(q, plan, {}, agg)

    def test_arity_mismatch(self):
        q, agg = parse_query("Q(x) :- R(x)")
        plan = convert_left_deep(q, ("R",))
        with pytest.raises(ExecutionError):
            execute(q, plan, {"R": rel("R", ("a", "b"), [(1, 2)])}, agg)

    def test_mixed_kind_join_variable_matches_nothing(self):
        # b is an int column in R and a str column in S.
        q, _ = parse_query("Q(a,b,c) :- R(a,b), S(b,c)")
        rels = {
            "R": rel("R", ("a", "b"), [(1, 10), (2, 20)]),
            "S": rel("S", ("a", "b"), [("10", 7), ("20", 8)]),
        }
        aggs = (  # (aggregate, the field an empty join leaves, its value)
            (AggregationSpec(AGG_FULL, q.head), "tuples", {}),
            (AggregationSpec(AGG_COUNT, ()), "count", 0),
            (AggregationSpec(AGG_MIN, ("a",)), "minima", None),
        )
        for agg, field, empty in aggs:
            reference = nested_loop(q, rels, agg)
            for plan in plans_for(q):
                for policy in POLICIES:
                    result, _ = execute(q, plan, rels, agg, policy)
                    assert result.kind == agg.kind and getattr(result, field) == empty
                    assert result.matches_reference(reference)

    def test_mixed_kind_sorted_relation_matches_nothing(self):
        # S is large and sorted on x, so where x's columns share a kind the
        # generic-join root's reduction bisects S for R's x-values (a count
        # would let O3 drop the root's intersection).  With an int column in
        # R and a str one in S nothing joins, and no int is compared with a
        # str.
        q, _ = parse_query("Q(x,a,b) :- R(x,a), S(x,b)")
        plan = optimize_plan(q, convert_left_deep(q, ("R", "S")), MODE_GENERIC_JOIN)
        r = rel("R", ("x", "a"), [(1, 0), (2, 0)])
        assert executor._bisect_pays(2, 1000)
        aggs = (
            (AggregationSpec(AGG_FULL, q.head), "tuples", {}),
            (AggregationSpec(AGG_MIN, ("a",)), "minima", None),
        )
        for key in (int, "{:04}".format):
            rels = {"R": r, "S": rel("S", ("x", "b"), [(key(i), i) for i in range(1000)])}
            for agg, field, empty in aggs:
                for policy in POLICIES:
                    with mock.patch.object(
                        executor, "_kept_offsets", wraps=executor._kept_offsets
                    ) as kept:
                        result, _ = execute(q, plan, rels, agg, policy)
                    if key is int:
                        assert result.matches_reference(nested_loop(q, rels, agg))
                        assert kept.call_args.args[2]  # S was bisected
                    else:
                        assert getattr(result, field) == empty and not kept.called

    def test_duplicates_multiply(self):
        q, agg = parse_query("Q(x) :- R(x), S(x)")
        rels = {
            "R": rel("R", ("a",), [(1,), (1,)]),
            "S": rel("S", ("a",), [(1,), (1,), (1,)]),
        }
        plan = convert_left_deep(q, ("R", "S"))
        for opts in (OptConfig(), OptConfig.none()):
            result, _ = execute(q, plan, rels, agg, opts=opts)
            assert result.tuples == {(1,): 6}

    @pytest.mark.parametrize("closes", [True, False])
    def test_min_over_no_output_variables(self, closes):
        """MIN over no variable is ``()`` when the join holds a row and None
        when it is empty, as under ``nested_loop``."""
        body = parse_query("Q(a) :- R(a,b), S(b,c), T(c,d), U(d,a)")[0].atoms
        q, agg = ConjunctiveQuery((), body), AggregationSpec(AGG_MIN)
        edges = [(0, 1), (1, 2), (2, 3), (3, 0 if closes else 4)]
        rels = {n: rel(n, ("u", "v"), edges) for n in ("R", "S", "T", "U")}
        want = nested_loop(q, rels, agg)
        assert want == (() if closes else None)
        for plan in plans_for(q):
            for policy in POLICIES:
                for opts in (OptConfig(), OptConfig.none()):
                    result, _ = execute(q, plan, rels, agg, policy, opts)
                    assert result.minima == want, (str(plan), policy.mode, opts.label())
        tree = parse_bushy("((R(a,b) S(b,c)) (T(c,d) U(d,a)))")
        for policy in POLICIES:
            result, _ = execute_bushy(q, tree, rels, agg, policy)
            assert result.minima == want, policy.mode


class TestTupleLevels:
    """A subatom of several variables is one trie level keyed by the tuple
    of its variables' values."""

    @staticmethod
    def walk_order(policy):
        """The root walks R's (a, b) level over str keys and probes S's."""
        q, agg = parse_query("Q(a,b,c) :- R(a,b,c), S(a,b)")
        rows = ["xp1", "yp2", "xq3", "yp4", "xp5"]  # one character per value
        rels = {
            "R": Relation.from_rows("R", ("a", "b", "c"), map(tuple, rows)),
            "S": Relation.from_rows("S", ("a", "b"), [("y", "p"), ("x", "q"), ("x", "p")]),
        }
        plan = parse_plan("R(a,b), S(a,b)\nR(c)")
        result, _ = execute(q, plan, rels, agg, StructurePolicy(policy))
        assert result.matches_reference(nested_loop(q, rels, agg))
        return list(result.tuples.items())

    # A hash level holds its key tuples in first-seen order, not grouped by
    # a; a sorted level (over a sorted copy of R) in ascending order.  Each
    # string spells a result row, one character per value.
    ORDER = {
        "hash": ["xp1", "xp5", "yp2", "yp4", "xq3"],
        "hybrid": ["xp1", "xp5", "yp2", "yp4", "xq3"],
        "sorted": ["xp1", "xp5", "xq3", "yp2", "yp4"],
    }

    @pytest.mark.parametrize("policy", sorted(ORDER))
    def test_walk_order_at_every_batch_size(self, policy, monkeypatch):
        for batch in TestPinnedCounters.BATCHES:
            monkeypatch.setattr(executor, "BATCH", batch)
            assert self.walk_order(policy) == [(tuple(t), 1) for t in self.ORDER[policy]], batch

    def test_walk_order_under_any_string_hash_seed(self):
        # Run in fresh interpreters whose str hashes differ.
        src = os.path.dirname(os.path.dirname(executor.__file__))
        tests = os.path.dirname(os.path.abspath(__file__))
        code = (
            f"import sys; sys.path[:0] = [{src!r}, {tests!r}]; import test_executor; "
            "print(test_executor.TestTupleLevels.walk_order('hash'))"
        )
        outputs = {
            subprocess.run(
                [sys.executable, "-c", code], capture_output=True, text=True, check=True,
                env={**os.environ, "PYTHONHASHSEED": seed},
            ).stdout
            for seed in ("1", "2")
        }
        assert outputs == {f"{self.walk_order('hash')}\n"}

    @pytest.mark.parametrize("text", [
        "R(a), S(a)\nS(b), R()",  # a probe of no variable: the () key
        "R(a), S(a)\nS(), R()\nS(b)",
        "R()\nR(a), S(a)\nS(b)",  # a walk of no variable
    ])
    def test_subatom_without_variables(self, text):
        q, agg = parse_query("Q(a,b) :- R(a), S(b,a)")
        rels = {
            "R": rel("R", ("x",), [(1,), (2,), (2,)]),
            "S": rel("S", ("x", "y"), [(5, 1), (6, 2)], sort=False),
        }
        for policy in POLICIES:
            for opts in (OptConfig(), OptConfig.none()):
                result, _ = execute(q, parse_plan(text), rels, agg, policy, opts)
                assert result.tuples == nested_loop(q, rels, agg) == {(1, 5): 1, (2, 6): 2}


class TestWeightedRelations:
    """A row of weight w must count as w copies of it under every access
    path: scan, leaf walk, count leaf, O3's multiplier and O5's tail."""

    R_ROWS, R_WEIGHTS = [(1, 10), (1, 20), (2, 10), (3, 30)], [2, 1, 3, 1]
    S_ROWS, S_WEIGHTS = [(10,), (20,), (30,)], [3, 1, 2]
    T_ROWS = [(10, 1), (10, 2), (10, 3), (20, 4), (30, 5), (30, 6)]
    T_WEIGHTS = [1, 4, 2, 3, 5, 1]

    def relations(self):
        weighted = {
            "R": Relation.from_rows("R", ("a", "b"), self.R_ROWS, ("a", "b"), self.R_WEIGHTS),
            "S": Relation.from_rows("S", ("a",), self.S_ROWS, ("a",), self.S_WEIGHTS),
            "T": Relation.from_rows("T", ("a", "b"), self.T_ROWS, ("a", "b"), self.T_WEIGHTS),
        }
        expanded = {
            name: rel(name, r.attrs, [row for row, w in zip(r.rows(), r.weights)
                                      for _ in range(w)])
            for name, r in weighted.items()
        }
        return weighted, expanded

    @pytest.mark.parametrize("head", ["x,y", "x", "", "COUNT", "MIN(y)"])
    def test_weights_match_expanded_rows(self, head, monkeypatch):
        # At one row per batch every bind and weight is gathered at a single
        # offset, on every access path.
        q, agg = parse_query(f"Q({head}) :- R(x,y), S(y)")
        weighted, expanded = self.relations()
        reference = nested_loop(q, expanded, agg)
        assert nested_loop(q, weighted, agg) == reference
        for batch in TestPinnedCounters.BATCHES:
            monkeypatch.setattr(executor, "BATCH", batch)
            for plan in plans_for(q):
                for policy in POLICIES:
                    for opts in (OptConfig(), OptConfig.none(), OptConfig(o3=False)):
                        result, _ = execute(q, plan, weighted, agg, policy, opts)
                        assert result.matches_reference(reference), (
                            str(plan), policy, opts, batch)

    @pytest.mark.parametrize("head", ["COUNT", "MIN(x,z)"])
    def test_factorized_tail_sums_each_rows_weights(self, head, monkeypatch):
        """O5 sums each row's own leaf weights: a batch holds rows whose
        tail leaves differ in size and weight.  O3 would make T(z) a count
        leaf, so it is off in the cells that run the tail."""
        q, agg = parse_query(f"Q({head}) :- R(x,y), T(y,z)")
        weighted, expanded = self.relations()
        reference = nested_loop(q, expanded, agg)
        plan = parse_plan("R(x,y), T(y)\nT(z)")
        for batch in TestPinnedCounters.BATCHES:
            monkeypatch.setattr(executor, "BATCH", batch)
            for policy in POLICIES:
                for opts in (OptConfig(), OptConfig(o3=False), OptConfig(o3=False, o5=False)):
                    result, _ = execute(q, plan, weighted, agg, policy, opts)
                    assert result.matches_reference(reference), (policy, opts, batch)

    def test_dropped_atom_multiplies_by_total_weight(self):
        q, agg = parse_query("Q(COUNT) :- R(x,y), S(z)")
        weighted, expanded = self.relations()
        plan = parse_plan("R(x,y)\nS(z)")
        result, _ = execute(q, plan, weighted, agg)
        assert result.count == nested_loop(q, expanded, agg) == 7 * 6

    def test_probe_only_weighted_relation_gets_count_leaf(self):
        weighted, _ = self.relations()
        for mode in ("hash", "sorted", "hybrid"):
            _, _, spec, _ = _choose_structures(
                weighted["S"], ("a",), True, StructurePolicy(mode), OptConfig(o4=False)
            )
            assert spec.kind == LEAF_COUNT, mode


    @pytest.mark.parametrize("agg", [
        AggregationSpec(AGG_FULL, ("#", "", "mult")),
        AggregationSpec(AGG_COUNT),
        AggregationSpec(AGG_MIN, ("#", "", "mult")),
    ], ids=["full", "count", "min"])
    def test_variable_names_cannot_meet_the_multiplicity_column(self, agg, monkeypatch):
        """A batch keeps its multiplicities beside its variables' columns;
        hand-built atoms may name a variable anything, and none of these
        names may read or overwrite them."""
        q = ConjunctiveQuery(("#", "", "mult"), (Atom("R", ("#", "")), Atom("T", ("", "mult"))))
        weighted, _ = self.relations()
        reference = nested_loop(q, weighted, agg)
        assert reference not in ({}, 0, None)
        for batch in (executor.BATCH, 3, 1):
            monkeypatch.setattr(executor, "BATCH", batch)
            for plan in plans_for(q):
                for policy in POLICIES:
                    for opts in (OptConfig(), OptConfig.none()):
                        result, _ = execute(q, plan, weighted, agg, policy, opts)
                        assert result.matches_reference(reference), (
                            str(plan), policy.mode, opts.label(), batch)


class TestMultiplicityEntries:
    """A batch carries no multiplicity column while every row counts once;
    each way a row can come to count more than once must start one.  Every
    relation is sorted and declares it, so all three policies walk rows in
    the order a nested loop reads them, and a full result's tuples must
    come out in that order too."""

    ROWS = {
        "R": (("a", "b"), [(1, 10), (1, 20), (2, 10), (3, 30), (4, 40)], [2, 1, 3, 1, 1]),
        "S": (("a", "b"), [(10, 1), (10, 2), (20, 3), (30, 4), (30, 5)], [1, 4, 2, 3, 1]),
        "D": (("a",), [(10,), (10,), (20,), (30,)], None),  # a group of 2
        "U": (("a",), [(10,), (20,), (40,)], None),  # groups of 1 only
        "W": (("a",), [(7,), (8,)], [2, 3]),  # total weight 5
    }

    # (query, plan or None for the binary plan, weighted relations, opts)
    CASES = {
        "weighted scan": ("Q(x,y,z) :- R(x,y), S(y,z)", None, "R", (OptConfig(),)),
        "weighted leaf walk": ("Q(x,y,z) :- R(x,y), S(y,z)", None, "S", (OptConfig(),)),
        "count leaf of a group of 2": (
            "Q(x,y) :- R(x,y), D(y)", None, "",
            (OptConfig(), OptConfig(o4=False), OptConfig.none()),
        ),
        "count leaf of groups of 1": (
            "Q(x,y) :- R(x,y), U(y)", None, "",
            (OptConfig(), OptConfig(o4=False), OptConfig.none()),
        ),
        "O3 multiplier": (
            "Q(x,y) :- R(x,y), W(z)", "R(x,y)\nW(z)", "W", (OptConfig(), OptConfig(o3=False)),
        ),
        "O3 multiplier under COUNT": (
            "Q(COUNT) :- R(x,y), W(z)", "R(x,y)\nW(z)", "W", (OptConfig(), OptConfig(o5=False)),
        ),
        "O5 COUNT tail": (
            "Q(COUNT) :- R(x,y), S(y,z)", "R(x,y), S(y)\nS(z)", "",
            (OptConfig(o3=False), OptConfig(o3=False, o5=False)),
        ),
        "O5 weighted COUNT tail": (
            "Q(COUNT) :- R(x,y), S(y,z)", "R(x,y), S(y)\nS(z)", "S",
            (OptConfig(o3=False), OptConfig(o3=False, o5=False)),
        ),
        "O5 MIN tail": (
            "Q(MIN(x,z)) :- R(x,y), S(y,z)", "R(x,y), S(y)\nS(z)", "RS",
            (OptConfig(), OptConfig(o5=False)),
        ),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_matches_nested_loop(self, case, monkeypatch):
        text, plan_text, weighted, all_opts = self.CASES[case]
        q, agg = parse_query(text)
        rels = {
            name: Relation.from_rows(name, attrs, rows, sorted_by=attrs,
                                     weights=weights if name in weighted else None)
            for name, (attrs, rows, weights) in self.ROWS.items()
        }
        reference = nested_loop(q, rels, agg)
        assert reference not in ({}, 0, None)
        plan = convert_left_deep(q, [a.relation for a in q.atoms]) if plan_text is None \
            else parse_plan(plan_text)
        for batch in TestPinnedCounters.BATCHES:
            monkeypatch.setattr(executor, "BATCH", batch)
            for policy in POLICIES:
                for opts in all_opts:
                    result, _ = execute(q, plan, rels, agg, policy, opts)
                    where = (batch, policy.mode, opts.label())
                    assert result.matches_reference(reference), where
                    if result.kind == AGG_FULL:
                        assert list(result.tuples.items()) == list(reference.items()), where


class TestRiders:
    """A column is listed when first read, and a batch's cuts are advanced
    past its rows after it: every column a node carries enters a batch as a
    stream, each probe that drops rows cuts it, and only what reads it (a
    probe, the next node or the result) lists it.  In the plan below node 1
    walks S's leaf and probes T, then U, so ``b`` rides unread past both
    probes, and ``a`` rides unread past node 0's probe of S.  Every
    relation is sorted and declares it, so each policy walks rows in the
    order a nested loop reads them, and a full result's tuples must come out
    in that order.  A walk of range leaves slices its columns only under
    ``_slice_pays``; S's group of 30 rows makes both decisions happen."""

    QUERY = "Q({head}) :- R(a,b), S(b,c), T(c,a), U(c)"
    PLAN = "R(a,b), S(b)\nS(c), T(c,a), U(c)"
    ATTRS = {"R": ("a", "b"), "S": ("b", "c"), "T": ("c", "a"), "U": ("c",)}
    BIG = [(10, c) for c in range(30)] + [(20, 100), (20, 101), (20, 102)]

    # name -> {relation: (rows, weights or None)}
    CASES = {
        # At 3 rows a batch, node 1's first batch (a=1) misses T in every
        # row and the next keeps two rows of a=2, where b is 20, not 10.
        "dead batch, then survivors": {
            "R": ([(1, 10), (2, 20)], None),
            "S": ([(10, 1), (10, 2), (10, 3), (20, 4), (20, 5), (20, 6)], None),
            "T": ([(4, 2), (6, 2)], None),
            "U": ([(4,), (6,)], None),
        },
        "misses at the second probe only": {
            "R": ([(1, 10), (2, 20), (3, 10)], None),
            "S": ([(10, 1), (10, 2), (20, 3)], None),
            "T": ([(1, 1), (1, 3), (2, 1), (2, 3), (3, 2)], None),
            "U": ([(1,), (3,)], None),
        },
        "no misses": {
            "R": ([(1, 10), (2, 20), (3, 10)], None),
            "S": ([(10, 1), (10, 2), (20, 3)], None),
            "T": ([(1, 1), (1, 3), (2, 1), (2, 3), (3, 2)], None),
            "U": ([(1,), (2,), (3,)], None),
        },
        "weighted rows": {
            "R": ([(1, 10), (2, 10), (3, 20)], [2, 1, 3]),
            "S": ([(10, 1), (10, 2), (20, 3), (20, 4)], [1, 3, 2, 1]),
            "T": ([(1, 1), (2, 2), (3, 3), (4, 3)], None),
            "U": ([(1,), (3,), (4,)], None),
        },
        "big and small range leaves": {
            "R": ([(1, 10), (2, 10), (3, 20)], None),
            "S": (BIG, None),
            "T": ([(c, a) for c in (0, 7, 29, 101) for a in (1, 3)], None),
            "U": ([(0,), (29,), (101,)], None),
        },
        "big and small weighted range leaves": {
            "R": ([(1, 10), (2, 10), (3, 20)], [1, 2, 1]),
            "S": (BIG, [1 + c % 3 for _, c in BIG]),
            "T": ([(c, a) for c in (0, 7, 29, 101) for a in (1, 2, 3)], None),
            "U": ([(7,), (29,), (100,), (101,)], None),
        },
    }

    @pytest.mark.parametrize("head", ["a,b,c", "COUNT", "MIN(b,c)"])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_matches_nested_loop(self, case, head, monkeypatch):
        q, agg = parse_query(self.QUERY.format(head=head))
        rels = {
            name: Relation.from_rows(name, self.ATTRS[name], rows, sorted_by=self.ATTRS[name],
                                     weights=weights)
            for name, (rows, weights) in self.CASES[case].items()
        }
        reference = nested_loop(q, rels, agg)
        assert reference not in ({}, 0, None)
        plan = parse_plan(self.PLAN)
        sliced = []
        slice_pays = executor._slice_pays

        def pays(rows, groups, cols):
            sliced.append(slice_pays(rows, groups, cols))
            return sliced[-1]

        monkeypatch.setattr(executor, "_slice_pays", pays)
        for batch in TestPinnedCounters.BATCHES:
            monkeypatch.setattr(executor, "BATCH", batch)
            for policy in POLICIES:
                for opts in (OptConfig(), OptConfig.none()):
                    result, _ = execute(q, plan, rels, agg, policy, opts)
                    where = (batch, policy.mode, opts.label())
                    assert result.matches_reference(reference), where
                    if result.kind == AGG_FULL:
                        assert list(result.tuples.items()) == list(reference.items()), where
        if case.startswith("big"):
            assert set(sliced) == {False, True}


class TestBagFold:
    """A full result folds each batch into its bag: a batch whose
    multiplicities are all 1 by C-level counting, any other row by row.
    Both must give the per-row loop's bag, its tuples in the order a nested
    loop first emits them, which is the row order of a bushy stage."""

    R_ROWS = [(a, b) for a in range(5) for b in sorted({a % 3, (a + 1) % 3})]
    T_ROWS = [(b, c) for b in range(3) for c in range(4)]
    T_WEIGHTS = [3 if (b + c) % 5 == 0 else 1 for b, c in T_ROWS]

    @pytest.mark.parametrize("head", ["a,c", "c,a", ""])
    def test_matches_per_row_loop(self, head, monkeypatch):
        q, agg = parse_query(f"Q({head}) :- R(a,b), T(b,c)")
        rels = {
            "R": Relation.from_rows("R", ("a", "b"), self.R_ROWS, sorted_by=("a", "b")),
            "T": Relation.from_rows("T", ("b", "c"), self.T_ROWS, sorted_by=("b", "c"),
                                    weights=self.T_WEIGHTS),
        }
        want = {}
        for a, b in self.R_ROWS:
            for (tb, c), w in zip(self.T_ROWS, self.T_WEIGHTS):
                if tb == b:
                    row = tuple({"a": a, "c": c}[v] for v in agg.output(q))
                    want[row] = want.get(row, 0) + w
        plan = convert_left_deep(q, ("R", "T"))
        for batch in (1, 3, executor.BATCH):
            monkeypatch.setattr(executor, "BATCH", batch)
            for policy in POLICIES:
                for opts in (OptConfig(), OptConfig.none()):
                    with mock.patch.object(
                        executor, "_count_elements", wraps=executor._count_elements
                    ) as counted:
                        result, _ = execute(q, plan, rels, agg, policy, opts)
                    assert result.tuples == want
                    assert list(result.tuples) == list(want), (batch, policy.mode)
                    # Small batches mix all-ones and weighted ones; the one
                    # big batch holds a weight of 3.  (With no head variable
                    # O3 leaves T probe-only, and its count leaf sums weights.)
                    if head:
                        assert counted.called == (batch < len(self.R_ROWS) * 4)


class TestSemijoinReduction:
    """A generic-join root walks trie keys, so ``execute`` cuts its
    relations to the rows that can join before it builds a trie: S1 and S2
    (200 rows each) keep only the x-values of the 3-row S0.  S1 declares its
    order; S2 is shuffled and declares none."""

    QUERY = "Q({head}) :- S1(x,a), S0(x), S2(x,b)"

    @staticmethod
    def relations(weighted=False, s0=((5,), (25,), (99,))):
        shuffled = [(x, x * 10 + j) for x in range(20, 60) for j in range(5)]
        random.Random(7).shuffle(shuffled)
        rows = {
            "S0": list(s0),
            "S1": [(x, x * 10 + j) for x in range(40) for j in range(5)],
            "S2": shuffled,
        }
        order = {"S0": None, "S1": ("x", "a"), "S2": None}
        attrs = {"S0": ("x",), "S1": ("x", "a"), "S2": ("x", "b")}
        return {
            name: Relation.from_rows(
                name, attrs[name], rs, sorted_by=order[name],
                weights=[1 + i % 3 for i in range(len(rs))] if weighted else None,
            )
            for name, rs in rows.items()
        }

    def plan(self, q):
        return optimize_plan(q, convert_left_deep(q, ("S1", "S0", "S2")), MODE_GENERIC_JOIN)

    @pytest.mark.parametrize("head", ["x,a,b", "a", "COUNT", "MIN(a,b)"])
    @pytest.mark.parametrize("weighted", [False, True])
    def test_matches_reference(self, head, weighted):
        q, agg = parse_query(self.QUERY.format(head=head))
        rels = self.relations(weighted)
        given = dict(rels)
        reference = nested_loop(q, rels, agg)
        assert reference  # x = 25 joins
        for policy in POLICIES:
            for opts in (OptConfig(), OptConfig.none()):
                result, _ = execute(q, self.plan(q), rels, agg, policy, opts)
                assert result.matches_reference(reference), (policy.mode, opts.label())
        assert rels == given and all(rels[n] is given[n] for n in rels)

    @pytest.mark.parametrize("policy", POLICIES, ids=lambda p: p.mode)
    def test_counters(self, policy):
        # S1 keeps x in {5, 25} (10 rows), S2 keeps x = 25 (5 rows); the
        # root walks S1's two keys, probing S0 and then S2 for each.  Built
        # in full, the tries would take 403 insertions and the walk over all
        # 40 of S1's keys 42 probes.
        q, agg = parse_query(self.QUERY.format(head="x,a,b"))
        for weighted in (False, True):
            _, s = execute(q, self.plan(q), self.relations(weighted), agg, policy)
            got = (s.trie_build_insertions, s.probes, s.probe_hits, s.intermediate_tuples)
            assert got == (18, 4, 3, 30)

    def test_hybrid_keeps_sorted_ranges(self, monkeypatch):
        built = []

        def spy(rel, attrs, dict_kind, spec):
            built.append((rel.name, rel.size, dict_kind, spec.kind))
            return build_trie(rel, attrs, dict_kind, spec)

        monkeypatch.setattr(executor, "build_trie", spy)
        q, agg = parse_query(self.QUERY.format(head="x,a,b"))
        execute(q, self.plan(q), self.relations(), agg, StructurePolicy("hybrid"))
        assert sorted(built) == [
            ("S0", 3, HASH, LEAF_COUNT),
            ("S1", 10, SORTED, LEAF_RANGE),
            ("S2", 5, HASH, LEAF_SMALLVEC),
        ]

    def test_empty_subset_builds_no_trie(self, monkeypatch):
        monkeypatch.setattr(executor, "build_trie", None)  # any build fails
        rels = self.relations(s0=[(99,)])  # no x of S1 or S2
        for head, field, empty in (("x,a,b", "tuples", {}), ("MIN(a,b)", "minima", None)):
            q, agg = parse_query(self.QUERY.format(head=head))
            for policy in POLICIES:
                result, s = execute(q, self.plan(q), rels, agg, policy)
                assert getattr(result, field) == empty
                assert result.matches_reference(nested_loop(q, rels, agg))
                assert (s.trie_build_insertions, s.probes) == (0, 0)

    def test_scan_first_plan_builds_in_full(self):
        # The binary plan scans S1 at its root, so nothing is reduced: S0
        # and S2 are built over all their rows.
        q, agg = parse_query(self.QUERY.format(head="x,a,b"))
        plan = convert_left_deep(q, ("S1", "S0", "S2"))
        rels = self.relations()
        for policy in POLICIES:
            result, s = execute(q, plan, rels, agg, policy)
            assert result.matches_reference(nested_loop(q, rels, agg))
            assert s.trie_build_insertions == 3 + 200

    def test_o3_dropping_every_atom(self):
        # Under COUNT neither variable is live, so O3 prunes the whole
        # generic-join plan and the count is R's total weight.
        q, agg = parse_query("Q(COUNT) :- R(a,b)")
        rels = {"R": Relation.from_rows("R", ("a", "b"), [(1, 2), (3, 4)], weights=[2, 5])}
        plan = parse_plan("R(a)\nR(b)")
        for policy in POLICIES:
            result, s = execute(q, plan, rels, agg, policy)
            assert result.count == 7 and s.trie_build_insertions == 0


class TestBushyExecution:
    def test_matches_reference(self, rng):
        q, agg = parse_query("Q(a,b,c,d) :- R(a,b), S(b,c), T(c,d), U(d,a)")
        tree = parse_bushy("((R(a,b) S(b,c)) (T(c,d) U(d,a)))")
        for _ in range(5):
            rels = {
                n: rel(
                    n,
                    ("u", "v"),
                    [
                        (rng.randrange(4), rng.randrange(4))
                        for _ in range(rng.randrange(1, 12))
                    ],
                )
                for n in ("R", "S", "T", "U")
            }
            reference = nested_loop(q, rels, agg)
            for policy in POLICIES:
                result, stats = execute_bushy(q, tree, rels, agg, policy)
                assert result.matches_reference(reference)

    def test_intermediate_tries_counted(self):
        q, agg = parse_query("Q(a,b,c,d) :- R(a,b), S(b,c), T(c,d), U(d,a)")
        tree = parse_bushy("((R(a,b) S(b,c)) (T(c,d) U(d,a)))")
        rels = {
            n: rel(n, ("u", "v"), [(0, 0), (0, 1), (1, 0)])
            for n in ("R", "S", "T", "U")
        }
        _, stats = execute_bushy(q, tree, rels, agg, StructurePolicy("hash"))
        assert stats.deep_intermediate_tries >= 1

    def test_stage_without_live_variables_is_a_cartesian_product(self):
        # Under COUNT the stage S join T keeps no variable, since nothing
        # outside it mentions b or c; a relation without attributes has no
        # rows, so the stage is refused before any of it runs.
        q, agg = parse_query("Q(COUNT) :- R(a), S(b,c), T(c)")
        tree = parse_bushy("(R(a) (S(b,c) T(c)))")
        rels = {
            "R": rel("R", ("x",), [(1,), (2,)]),
            "S": rel("S", ("x", "y"), [(1, 1), (2, 1)]),
            "T": rel("T", ("x",), [(1,)]),
        }
        with pytest.raises(PlanError, match="cartesian product: _I1"):
            execute_bushy(q, tree, rels, agg)

    def test_stage_materializes_distinct_tuples(self, monkeypatch):
        """The stage T join U holds 22 rows over 7 distinct (c, a) pairs; it
        is handed on as 7 weighted rows.  Expanding it into 22 rows, as the
        engine once did, cost 15 more trie insertions and 15 more counted
        intermediates, for the same probes and outputs."""
        q, agg = parse_query("Q(COUNT) :- R(a,b), S(b,c), T(c,d), U(d,a)")
        tree = parse_bushy("((R(a,b) S(b,c)) (T(c,d) U(d,a)))")
        edges = [(0, 1), (0, 1), (1, 2), (2, 0), (2, 0), (2, 0), (1, 0), (0, 2)]
        rels = {n: Relation.from_rows(n, ("u", "v"), edges) for n in ("R", "S", "T", "U")}
        made = []
        from_rows = Relation.__dict__["from_rows"].__func__

        def spy(cls, *args, **kwargs):
            made.append(from_rows(cls, *args, **kwargs))
            return made[-1]

        monkeypatch.setattr(Relation, "from_rows", classmethod(spy))
        for policy in POLICIES:
            made.clear()
            result, stats = execute_bushy(q, tree, rels, agg, policy)
            assert result.count == nested_loop(q, rels, agg) == 50
            stage = next(r for r in made if r.name == "_I1")  # sorted copies follow
            assert stage.size == len(set(stage.rows())) == 7
            assert stage.total_weight == 22
            assert (stats.trie_build_insertions, stats.intermediate_tuples) == (23, 51)
            assert (stats.probes, stats.output_tuples) == (38, 72)

    def test_stage_bag_is_probed_not_rebuilt(self, monkeypatch):
        """The 4-cycle's root stage probes _I1(c, a) on its whole tuple.
        Under hash dictionaries with count leaves that level is the stage's
        bag itself, so the bag is probed and _I1 is never built; its rows
        still count as insertions.  Sorted dictionaries, and a root that
        walks _I1 (head ``a,b,c,d``), build it as before."""
        tree = parse_bushy("((R(a,b) S(b,c)) (T(c,d) U(d,a)))")
        edges = [(0, 1), (0, 1), (1, 2), (2, 0), (2, 0), (2, 0), (1, 0), (0, 2)]
        rels = {n: Relation.from_rows(n, ("u", "v"), edges) for n in ("R", "S", "T", "U")}
        built, made = [], []
        from_rows = Relation.__dict__["from_rows"].__func__

        def spy(rel_, attrs, dict_kind, spec):
            built.append(rel_.name)
            return build_trie(rel_, attrs, dict_kind, spec)

        def spy_rows(cls, *args, **kwargs):
            made.append(from_rows(cls, *args, **kwargs))
            return made[-1]

        monkeypatch.setattr(executor, "build_trie", spy)
        monkeypatch.setattr(Relation, "from_rows", classmethod(spy_rows))
        for head, policy, handed in (
            ("COUNT", "hash", True), ("COUNT", "hybrid", True), ("COUNT", "sorted", False),
            ("a,b,c,d", "hash", False), ("a,b,c,d", "hybrid", False),
        ):
            q, agg = parse_query(f"Q({head}) :- R(a,b), S(b,c), T(c,d), U(d,a)")
            for opts in (OptConfig(), OptConfig.none()):
                built.clear()
                made.clear()
                result, stats = execute_bushy(q, tree, rels, agg, StructurePolicy(policy), opts)
                assert result.matches_reference(nested_loop(q, rels, agg))
                assert sorted(built) == (["S", "U"] if handed else ["S", "U", "_I1"]), (
                    head, policy, opts.label())
                assert stats.deep_intermediate_tries == 1
        # The level the build would make is the bag: same keys in the same
        # order, each mapped to its weight.
        stage = next(r for r in made if r.name == "_I1")
        trie = build_trie(stage, [stage.attrs], HASH, LeafSpec(LEAF_COUNT))
        assert list(trie.root.items()) == list(zip(stage.rows(), stage.weights))

    def test_one_attribute_stage_is_built(self, monkeypatch):
        # _I1 = S join T keeps b alone, whose level holds bare values where
        # the bag holds 1-tuples.
        q, agg = parse_query("Q(COUNT) :- R(a,b), S(b,c), T(c)")
        tree = parse_bushy("(R(a,b) (S(b,c) T(c)))")
        rels = {
            "R": rel("R", ("x", "y"), [(1, 1), (2, 1), (3, 2)]),
            "S": rel("S", ("x", "y"), [(1, 5), (1, 6), (2, 5), (3, 7)]),
            "T": rel("T", ("x",), [(5,), (6,), (6,)]),
        }
        built = []

        def spy(rel_, attrs, dict_kind, spec):
            built.append((rel_.name, tuple(attrs)))
            return build_trie(rel_, attrs, dict_kind, spec)

        monkeypatch.setattr(executor, "build_trie", spy)
        for policy in POLICIES:
            built.clear()
            result, stats = execute_bushy(q, tree, rels, agg, policy)
            assert result.count == nested_loop(q, rels, agg) == 7
            assert ("_I1", ("b",)) in built and stats.deep_intermediate_tries == 1
