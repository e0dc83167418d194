"""Trie building, the five leaf shapes, and the two dictionary kinds.

The core guarantee is observational equivalence: whatever leaf shape or
dictionary kind a trie uses, the multiset of (key path, offset group) it
represents is the same.
"""

import math
import random

import pytest

from unijoin.errors import ExecutionError, SortednessError
from unijoin.storage import Relation
from unijoin.trie import (
    HASH,
    LEAF_COUNT,
    LEAF_HASHMAP,
    LEAF_RANGE,
    LEAF_SMALLVEC,
    LEAF_VEC,
    SORTED,
    LeafSpec,
    SortedDict,
    build_trie,
    leaf_offsets,
    leaf_size,
    leaves_offsets,
    leaves_sizes,
)


def rand_sorted_relation(rng, n, domain, arity=2):
    attrs = tuple("abcd"[:arity])
    rows = sorted(tuple(rng.randrange(domain) for _ in attrs) for _ in range(n))
    return Relation.from_rows("R", attrs, rows, sorted_by=attrs)


def trie_contents(trie):
    """Canonical view: {key path: sorted offsets} (counts for count leaves)."""
    out = {}
    for path, leaf in trie.paths().items():
        if trie.leaf.kind == LEAF_COUNT:
            out[path] = leaf
        else:
            out[path] = sorted(leaf_offsets(leaf, trie.leaf))
    return out


ALL_OFFSET_LEAVES = (LEAF_HASHMAP, LEAF_VEC, LEAF_SMALLVEC)


class TestRange:
    def test_reconstructs_whole_relation(self):
        """Union of range leaves over a sorted relation is exactly 0..size-1."""
        rng = random.Random(11)
        for _ in range(50):
            rel = rand_sorted_relation(rng, rng.randrange(1, 40), 5)
            trie = build_trie(rel, ("a",), SORTED, LeafSpec(LEAF_RANGE))
            seen = []
            for leaf in trie.paths().values():
                seen.extend(leaf)
            assert sorted(seen) == list(range(rel.size))


class TestSortedDict:
    def test_append_monotone(self):
        d = SortedDict()
        d.append(1, "a")
        d.append(1, "b")  # equal keys allowed (revisit last)
        with pytest.raises(SortednessError):
            d.append(0, "c")

    def test_find_hit_and_miss(self):
        d = SortedDict()
        for k in range(0, 100, 2):
            d.append(k, k * 10)
        val, _ = d.find(42)
        assert val == 420
        from unijoin.trie import _MISSING

        val, _ = d.find(43)
        assert val is _MISSING

    def test_comparison_bound(self):
        """Every lookup spends at most ceil(log2 k) + 1 comparisons."""
        rng = random.Random(5)
        for k in (1, 2, 3, 10, 1000):
            d = SortedDict()
            keys = sorted(rng.sample(range(10 * k), k))
            for key in keys:
                d.append(key, key)
            bound = math.ceil(math.log2(k)) + 1 if k > 1 else 1
            for _ in range(200):
                _, comps = d.find(rng.randrange(10 * k))
                assert comps <= bound

    def test_find_charges_bisect_probe_count(self):
        """A lookup is charged len(keys).bit_length(), hit or miss, including
        keys below the first and above the last."""
        for k in (0, 1, 2, 3, 1000):
            d = SortedDict()
            for key in range(0, 2 * k, 2):
                d.append(key, key)
            for probe in (-1, 0, 1, k, 2 * k - 2, 2 * k + 5):
                _, comps = d.find(probe)
                assert comps == k.bit_length()

    @pytest.mark.parametrize("keys", (
        [],
        [0],
        [0, 2, 4, 6, 8],
        [1, 1, 3],
        ["a", "b", "d"],
        [()],
        [(0, 1), (0, 3), (2, 0)],
    ), ids=repr)
    def test_get_agrees_with_dict_get(self, keys):
        """``get`` answers as ``dict.get`` does -- hits, misses, an explicit
        default and the ``None`` default -- and ``find`` is ``get`` paired
        with the charge for k keys, ``k.bit_length()``."""
        from unijoin.trie import _MISSING

        d = SortedDict(list(keys), [f"v{i}" for i in range(len(keys))])
        ref = {}
        for k, v in zip(d.keys, d.values):
            ref.setdefault(k, v)  # bisect_left finds a repeated key's first value
        probes = list(keys) + (
            [-1, 1, 5, 9] if all(k.__class__ is int for k in keys) else
            ["", "c", "e"] if all(k.__class__ is str for k in keys) else
            [(0,), (0, 2), (1, 0), (3, 0)]
        )
        for k in probes:
            assert d.get(k) == ref.get(k), k
            assert d.get(k, "dflt") == ref.get(k, "dflt"), k
            assert d.get(k, _MISSING) is ref.get(k, _MISSING), k
            assert d.find(k) == (d.get(k, _MISSING), len(d.keys).bit_length()), k


class TestBuildTrie:
    def test_offset_leaves_equivalent(self):
        rng = random.Random(1)
        for _ in range(100):
            rel = rand_sorted_relation(rng, rng.randrange(0, 50), 6)
            views = []
            for kind in ALL_OFFSET_LEAVES:
                views.append(trie_contents(build_trie(rel, ("a",), HASH, LeafSpec(kind))))
            assert views[0] == views[1] == views[2]

    def test_sorted_matches_hash(self):
        rng = random.Random(2)
        for _ in range(100):
            rel = rand_sorted_relation(rng, rng.randrange(0, 50), 6)
            h = trie_contents(build_trie(rel, ("a", "b"), HASH, LeafSpec(LEAF_VEC)))
            s = trie_contents(build_trie(rel, ("a", "b"), SORTED, LeafSpec(LEAF_RANGE)))
            assert h == s

    def test_count_leaves_match_group_sizes(self):
        rng = random.Random(3)
        for _ in range(50):
            rel = rand_sorted_relation(rng, rng.randrange(0, 50), 4)
            vec = build_trie(rel, ("a",), HASH, LeafSpec(LEAF_VEC))
            cnt = build_trie(rel, ("a",), HASH, LeafSpec(LEAF_COUNT))
            sizes = {p: len(offs) for p, offs in trie_contents(vec).items()}
            assert trie_contents(cnt) == sizes

    def test_insertions_counted(self):
        rel = rand_sorted_relation(random.Random(4), 25, 5)
        trie = build_trie(rel, ("a",), HASH, LeafSpec(LEAF_VEC))
        assert trie.insertions == 25

    def test_multi_level(self):
        rel = Relation.from_rows(
            "R", ("a", "b"), [(1, 1), (1, 2), (2, 1)], sorted_by=("a", "b")
        )
        trie = build_trie(rel, ("a", "b"), HASH, LeafSpec(LEAF_VEC))
        assert trie_contents(trie) == {(1, 1): [0], (1, 2): [1], (2, 1): [2]}

    def test_zero_levels(self):
        rel = rand_sorted_relation(random.Random(6), 7, 5)
        trie = build_trie(rel, (), HASH, LeafSpec(LEAF_COUNT))
        assert trie.root == 7
        weighted = Relation.from_rows("W", rel.attrs, rel.rows(), weights=[1, 2, 3, 1, 1, 4, 2])
        trie = build_trie(weighted, (), HASH, LeafSpec(LEAF_COUNT))
        assert trie.root == weighted.total_weight == 14

    def test_sorted_requires_declared_prefix(self):
        rel = Relation.from_rows("R", ("a", "b"), [(1, 2)], sorted_by=("b", "a"))
        with pytest.raises(SortednessError):
            build_trie(rel, ("a",), SORTED, LeafSpec(LEAF_RANGE))

    def test_range_requires_sorted_dicts(self):
        rel = Relation.from_rows("R", ("a",), [(1,)], sorted_by=("a",))
        with pytest.raises(ExecutionError):
            build_trie(rel, ("a",), HASH, LeafSpec(LEAF_RANGE))

    def test_unknown_attr(self):
        rel = Relation.from_rows("R", ("a",), [(1,)])
        with pytest.raises(ExecutionError):
            build_trie(rel, ("z",), HASH, LeafSpec(LEAF_VEC))

    # (grouped levels, the same attributes one level each)
    GROUPINGS = (
        ((("a", "b"),), ("a", "b")),
        ((("a", "b", "c"),), ("a", "b", "c")),
        ((("a", "b"), "c"), ("a", "b", "c")),
        (("a", ("b", "c")), ("a", "b", "c")),
        (((), "a"), ("a",)),
        (((),), ()),
    )

    @pytest.mark.parametrize("grouped, flat", GROUPINGS)
    @pytest.mark.parametrize("dict_kind, leaves", [
        (HASH, (LEAF_HASHMAP, LEAF_VEC, LEAF_SMALLVEC, LEAF_COUNT)),
        (SORTED, (LEAF_HASHMAP, LEAF_VEC, LEAF_SMALLVEC, LEAF_COUNT, LEAF_RANGE)),
    ])
    def test_grouped_levels_hold_the_same_paths(self, grouped, flat, dict_kind, leaves):
        """A level keyed by a tuple of attributes holds, flattened, the same
        key paths and leaves as one level per attribute; a sorted trie also
        lists them in the same order.  Some relations are weighted, which
        count leaves sum."""
        rng = random.Random(12)
        for _ in range(30):
            rel = rand_sorted_relation(rng, rng.randrange(1, 40), 3, arity=3)
            if rng.random() < 0.5:
                rel = Relation.from_rows(
                    "R", rel.attrs, rel.rows(), sorted_by=rel.sorted_by,
                    weights=[rng.randrange(1, 4) for _ in range(rel.size)],
                )
            for kind in leaves:
                g = build_trie(rel, grouped, dict_kind, LeafSpec(kind))
                f = build_trie(rel, flat, dict_kind, LeafSpec(kind))
                assert g.paths() == f.paths()
                if dict_kind == SORTED:
                    assert list(g.paths()) == list(f.paths())
                assert g.insertions == f.insertions == rel.size

    def test_grouped_level_keys_are_tuples(self):
        """One lookup per row finds a tuple-keyed level's child; a hash level
        keeps its tuples in first-seen order, a sorted one in ascending."""
        rows = [(1, "x", 0), (2, "x", 1), (1, "y", 2), (1, "x", 3)]
        rel = Relation.from_rows("R", ("a", "b", "c"), rows)
        trie = build_trie(rel, (("a", "b"),), HASH, LeafSpec(LEAF_VEC))
        assert list(trie.root.items()) == [((1, "x"), [0, 3]), ((2, "x"), [1]), ((1, "y"), [2])]
        srt = build_trie(rel.sorted_copy(("a", "b")), (("a", "b"),), SORTED, LeafSpec(LEAF_RANGE))
        assert srt.root.keys == [(1, "x"), (1, "y"), (2, "x")]
        assert srt.root.find((1, "y")) == (range(2, 3), 2)

    @pytest.mark.parametrize("dict_kind", (HASH, SORTED))
    def test_grouped_level_with_an_unknown_attribute(self, dict_kind):
        rel = Relation.from_rows("R", ("a", "b"), [(1, 2)], sorted_by=("a", "b"))
        for levels in ((("a", "z"),), ("a", ("b", "z")), ((("a",), "b"),)):
            with pytest.raises(ExecutionError, match="has no attribute"):
                build_trie(rel, levels, dict_kind, LeafSpec(LEAF_VEC))

    @pytest.mark.parametrize("dict_kind", (HASH, SORTED))
    def test_key_attributes_as_a_list_or_a_bare_string(self, dict_kind):
        """A list of key attributes builds the tuple's trie; a bare string
        once built one level per character."""
        rel = Relation.from_rows("R", ("a", "b"), [(1, 2), (1, 3)], sorted_by=("a", "b"))
        listed = build_trie(rel, ["a", "b"], dict_kind, LeafSpec(LEAF_VEC))
        assert trie_contents(listed) == trie_contents(
            build_trie(rel, ("a", "b"), dict_kind, LeafSpec(LEAF_VEC)))
        with pytest.raises(ExecutionError, match="build_trie: .* not the string 'ab'"):
            build_trie(rel, "ab", dict_kind, LeafSpec(LEAF_VEC))

    @pytest.mark.parametrize(
        "rows, keys, dict_kind, leaf, message",
        [
            ([(1,)], ("a",), "btree", LEAF_VEC, "unknown dictionary kind 'btree'"),
            ([(1,)], ("a",), HASH, "bitmap", "unknown leaf kind 'bitmap'"),
            ([], (), SORTED, LEAF_RANGE, "range leaf cannot represent an empty group"),
        ],
    )
    def test_bad_build_rejected(self, rows, keys, dict_kind, leaf, message):
        rel = Relation.from_rows("R", ("a",), rows, sorted_by=("a",))
        with pytest.raises(ExecutionError, match=message):
            build_trie(rel, keys, dict_kind, LeafSpec(leaf))

    def test_leaf_size_helpers(self):
        assert leaf_size(5, LeafSpec(LEAF_COUNT)) == 5
        assert leaf_size(7, LeafSpec(LEAF_SMALLVEC)) == 1  # inline singleton
        assert list(leaf_offsets(7, LeafSpec(LEAF_SMALLVEC))) == [7]
        assert leaf_size([7, 9], LeafSpec(LEAF_SMALLVEC)) == 2  # promoted group
        assert list(leaf_offsets([7, 9], LeafSpec(LEAF_SMALLVEC))) == [7, 9]
        assert leaf_size({3: 1, 4: 1}, LeafSpec(LEAF_HASHMAP)) == 2

    @pytest.mark.parametrize("dict_kind, leaves", [
        (HASH, (LEAF_HASHMAP, LEAF_VEC, LEAF_SMALLVEC, LEAF_COUNT)),
        (SORTED, (LEAF_HASHMAP, LEAF_VEC, LEAF_SMALLVEC, LEAF_COUNT, LEAF_RANGE)),
    ])
    def test_batch_leaf_helpers_match_per_leaf(self, dict_kind, leaves):
        """``leaves_offsets`` and ``leaves_sizes`` give, leaf by leaf, the
        offsets of the rows holding the leaf's key, in ascending order, and
        their number (a count leaf: their weight sum), read from the
        relation's rows, not from the leaves.  The tries mix smallvec
        singletons with groups of more than five rows, weighted ones
        included."""
        rng = random.Random(13)
        largest = 0
        for _ in range(30):
            rel = rand_sorted_relation(rng, rng.randrange(1, 40), 8)
            if rng.random() < 0.5:
                rel = Relation.from_rows(
                    "R", rel.attrs, rel.rows(), sorted_by=rel.sorted_by,
                    weights=[rng.randrange(1, 4) for _ in range(rel.size)],
                )
            weights = rel.weights or [1] * rel.size
            for kind in leaves:
                spec = LeafSpec(kind)
                paths = build_trie(rel, ("a",), dict_kind, spec).paths()
                rows = {(key,): [i for i, v in enumerate(rel.columns["a"]) if v == key]
                        for key in set(rel.columns["a"])}
                assert paths.keys() == rows.keys()
                largest = max(largest, *map(len, rows.values()))
                keys = list(paths) + list(paths)[::-1]  # a batch revisits leaves
                batch = [paths[k] for k in keys]
                if kind == LEAF_COUNT:
                    want = [sum(weights[i] for i in rows[k]) for k in keys]
                else:
                    want = [len(rows[k]) for k in keys]
                    got = leaves_offsets(batch, spec)
                    assert len(got) == len(batch)
                    assert [list(g) for g in got] == [rows[k] for k in keys]
                assert list(leaves_sizes(batch, spec)) == want
        assert largest > 5
