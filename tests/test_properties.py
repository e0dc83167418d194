"""Property-based checks over randomly generated inputs."""

from hypothesis import given, settings
from hypothesis import strategies as st

from unijoin.executor import OptConfig, StructurePolicy, execute
from unijoin.oracle import nested_loop
from unijoin.query import convert_left_deep, parse_query
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
    _MISSING,
    build_trie,
    leaf_offsets,
)

@given(st.lists(st.integers(0, 500), max_size=60), st.integers(0, 600))
def test_sorted_dict_agrees_with_dict(keys, probe):
    keys = sorted(keys)
    sd = SortedDict()
    ref = {}
    for k in keys:
        sd.append(k, k)
        ref[k] = k
    found, _ = sd.find(probe)
    if probe in ref:
        assert found == ref[probe]
    else:
        assert found is _MISSING


rows2 = st.lists(
    st.tuples(st.integers(0, 5), st.integers(0, 5)), max_size=30
).map(sorted)


@given(rows2, st.sampled_from(((), ("a",), ("a", "b"))))
def test_leaf_shapes_equivalent(rows, keys):
    # No key is the zero-level leaf, one key the single-level hash build,
    # two keys the generic build; each promotes singletons to lists.
    rel = Relation.from_rows("R", ("a", "b"), rows, sorted_by=("a", "b"))
    vec = build_trie(rel, keys, HASH, LeafSpec(LEAF_VEC))
    sv = build_trie(rel, keys, HASH, LeafSpec(LEAF_SMALLVEC))
    got = {p: list(leaf_offsets(leaf, sv.leaf)) for p, leaf in sv.paths().items()}
    want = {p: list(leaf) for p, leaf in vec.paths().items()}
    assert got == want


# Three-column rows with int or str keys, sizes 0-60 and small domains, so
# groups repeat at every depth and whole rows repeat too.
rows3 = st.sampled_from((st.integers(0, 3), st.sampled_from(("", "a", "ab", "b")))).flatmap(
    lambda cell: st.lists(
        st.tuples(cell, st.integers(0, 2), cell), max_size=60
    ).map(sorted)
)


def _contents(trie):
    """{key path: sorted offsets}, or the count for count leaves."""
    if trie.leaf.kind == LEAF_COUNT:
        return trie.paths()
    return {p: sorted(leaf_offsets(leaf, trie.leaf)) for p, leaf in trie.paths().items()}


@settings(max_examples=60, deadline=None)
@given(rows3, st.sampled_from((("a",), ("a", "b"), ("a", "b", "c"))))
def test_sorted_build_matches_hash_build(rows, keys):
    # The run-boundary sorted build against the row-at-a-time hash build,
    # for every leaf kind legal under sorted dictionaries; a range leaf is
    # compared with a vec leaf, the nearest hash shape.
    rel = Relation.from_rows("R", ("a", "b", "c"), rows, sorted_by=("a", "b", "c"))
    for kind in (LEAF_RANGE, LEAF_VEC, LEAF_SMALLVEC, LEAF_COUNT, LEAF_HASHMAP):
        srt = build_trie(rel, keys, SORTED, LeafSpec(kind))
        ref = build_trie(rel, keys, HASH, LeafSpec(LEAF_VEC if kind == LEAF_RANGE else kind))
        assert _contents(srt) == _contents(ref)
        assert list(srt.paths()) == sorted(ref.paths())  # keys ascend at every level
        assert srt.insertions == ref.insertions == len(rows)


@settings(max_examples=40, deadline=None)
@given(rows2, rows2, rows2)
def test_triangle_join_matches_reference(r_rows, s_rows, t_rows):
    q, agg = parse_query("Q(a,b,c) :- R(a,b), S(b,c), T(c,a)")
    rels = {
        "R": Relation.from_rows("R", ("a", "b"), r_rows, sorted_by=("a", "b")),
        "S": Relation.from_rows("S", ("b", "c"), s_rows, sorted_by=("b", "c")),
        "T": Relation.from_rows("T", ("c", "a"), t_rows, sorted_by=("c", "a")),
    }
    reference = nested_loop(q, rels, agg)
    plan = convert_left_deep(q, ("R", "S", "T"))
    for policy in ("hash", "sorted", "hybrid"):
        for opts in (OptConfig(), OptConfig.none()):
            result, _ = execute(q, plan, rels, agg, StructurePolicy(policy), opts)
            assert result.tuples == reference
