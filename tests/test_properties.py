"""Property-based checks over randomly generated inputs."""

import re
from dataclasses import fields
from itertools import compress, islice
from unittest import mock

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from conftest import CORPUS
from unijoin import executor
from unijoin.cli import main
from unijoin.executor import ExecStats, OptConfig, StructurePolicy, execute, execute_bushy
from unijoin.errors import PlanError
from unijoin.oracle import nested_loop
from unijoin.query import (
    AGG_COUNT,
    AGG_FULL,
    AGG_MIN,
    MODE_FREEJOIN,
    MODE_GENERIC_JOIN,
    AggregationSpec,
    Atom,
    BushyPlan,
    ConjunctiveQuery,
    FreeJoinPlan,
    Subatom,
    convert_left_deep,
    decompose_bushy,
    optimize_plan,
    parse_bushy,
    parse_plan,
    parse_query,
    plan_violation,
)
from unijoin.storage import Relation, select
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
    # No key is the zero-level leaf (one run of every row), one key the
    # single-level hash build, two keys the hash build over key-path tuples
    # nested level by level; each promotes singletons to lists, and a count
    # leaf holds the group size.
    rel = Relation.from_rows("R", ("a", "b"), rows, sorted_by=("a", "b"))
    vec = build_trie(rel, keys, HASH, LeafSpec(LEAF_VEC))
    sv = build_trie(rel, keys, HASH, LeafSpec(LEAF_SMALLVEC))
    cnt = build_trie(rel, keys, HASH, LeafSpec(LEAF_COUNT))
    got = {p: list(leaf_offsets(leaf, sv.leaf)) for p, leaf in sv.paths().items()}
    want = {p: list(leaf) for p, leaf in vec.paths().items()}
    assert got == want
    assert cnt.paths() == {p: len(leaf) for p, leaf in vec.paths().items()}


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


def _draw_sorted_relation(data, rows, keys, weights):
    """A relation over ``rows`` (sorted) declared sorted by (a, b, c), made
    by one of the producers the engine builds sorted tries over: directly,
    or through ``take`` at ascending offsets (a semijoin cut), ``select``,
    or ``sorted_copy`` of the same rows shuffled."""
    attrs = ("a", "b", "c")
    producer = data.draw(st.sampled_from(("from_rows", "take", "select", "sorted_copy")))
    if producer == "sorted_copy":
        perm = data.draw(st.permutations(range(len(rows))))
        shuffled = Relation.from_rows(
            "R", attrs, [rows[i] for i in perm],
            weights=None if weights is None else [weights[i] for i in perm],
        )
        return shuffled.sorted_copy(keys)
    rel = Relation.from_rows("R", attrs, rows, sorted_by=attrs, weights=weights)
    if producer == "take":
        keep = data.draw(st.lists(st.booleans(), min_size=len(rows), max_size=len(rows)))
        return rel.take(list(compress(range(len(rows)), keep)))
    if producer == "select":
        op = data.draw(st.sampled_from(("==", "!=", "<", "<=", ">", ">=")))
        return select(rel, "b", op, data.draw(st.integers(0, 2)))
    return rel


@settings(max_examples=60, deadline=None)
@given(rows3, st.sampled_from((("a",), ("a", "b"), ("a", "b", "c"))), st.data())
def test_sorted_build_matches_hash_build(rows, keys, data):
    # The run-boundary sorted build against the hash build, for every leaf
    # kind legal under sorted dictionaries; a range leaf is compared with a
    # vec leaf, the nearest hash shape.  Some relations carry a weight
    # per row, which only count leaves read: prefix-sum differences in the
    # sorted build, per-row sums in the hash build.  The build trusts the
    # order verified at construction, so every producer is drawn.
    weights = data.draw(
        st.none() | st.lists(st.integers(1, 4), min_size=len(rows), max_size=len(rows))
    )
    rel = _draw_sorted_relation(data, rows, keys, weights)
    assert all(col.__class__ is tuple for col in rel.columns.values())
    assert (rel.weights is None) == (weights is None)
    assert weights is None or rel.weights.__class__ is tuple
    for kind in (LEAF_RANGE, LEAF_VEC, LEAF_SMALLVEC, LEAF_COUNT, LEAF_HASHMAP):
        srt = build_trie(rel, keys, SORTED, LeafSpec(kind))
        ref = build_trie(rel, keys, HASH, LeafSpec(LEAF_VEC if kind == LEAF_RANGE else kind))
        assert _contents(srt) == _contents(ref)
        assert list(srt.paths()) == sorted(ref.paths())  # keys ascend at every level
        assert srt.insertions == ref.insertions == rel.size


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


# -- plan-space fuzzing ------------------------------------------------------
#
# Random valid plans over the corpus query shapes, on random inputs, checked
# against the brute-force evaluator under every policy with all toggles on
# and with none.  Flat plans also run a query with an atom that shares no
# variable, which O3 drops as a pure multiplier, and O5 without O3, whose
# factorized tail then counts a leaf no dead-column pruning removed.

SCHEMAS = tuple(dict.fromkeys(entry.schemas for entry in CORPUS))
FLAT_SCHEMAS = SCHEMAS + ((("R", ("a", "b")), ("S", ("b",)), ("T", ("c",))),)
# A corpus atom is binary, so none walks a level of two variables and then
# descends further; flat plans draw these ternary atoms half the time.
TERNARY_SCHEMAS = (
    (("R", ("a", "b", "c")), ("S", ("a", "b")), ("T", ("b", "c"))),
    (("R", ("a", "b", "c")), ("S", ("a", "b", "c"))),
)
INT_CELLS = st.integers(0, 2)
STR_CELLS = st.sampled_from(("", "a", "ab"))


def _variables(schema):
    return list(dict.fromkeys(v for _, vars_ in schema for v in vars_))


@st.composite
def fuzz_query(draw, schema, kinds=("full", "proj", "count", "min")):
    """Query text with a random head -- full, a projection, ``COUNT`` or
    ``MIN`` -- over the schema's atoms."""
    variables = _variables(schema)
    some = st.lists(st.sampled_from(variables), min_size=1, unique=True)
    kind = draw(st.sampled_from(kinds))
    if kind == "full":
        head = ",".join(variables)
    elif kind == "proj":
        head = ",".join(draw(some))
    elif kind == "count":
        head = "COUNT"
    else:
        head = f"MIN({','.join(draw(some))})"
    body = ", ".join(f"{name}({','.join(vars_)})" for name, vars_ in schema)
    return f"Q({head}) :- {body}"


@st.composite
def fuzz_relations(draw, schema, min_repeats=0, small=None):
    """One relation per atom: up to 8 drawn rows plus ``min_repeats`` to 4
    repeats of them, int or str per variable, and either no declared order
    or the rows sorted by a random permutation of the attributes, declared.
    A quarter of the time the kind is drawn per atom and variable instead,
    so a join variable may hold ints in one relation and strs in another.
    Only a quarter of the time may a relation be empty, which empties the
    whole join.  The relation named ``small``, if any, gets 0 to 3 rows and
    no repeats.  Half the time every relation gets a weight from 1 to 3 per
    row."""
    kind = st.sampled_from((INT_CELLS, STR_CELLS))
    cells = {v: draw(kind) for v in _variables(schema)}
    mixed = draw(st.integers(0, 3)) == 0
    least = 0 if draw(st.integers(0, 3)) == 0 else 1
    weighted = draw(st.booleans())
    rels = {}
    for name, vars_ in schema:
        attrs = tuple(f"c{i}" for i in range(len(vars_)))
        cap = 3 if name == small else 8
        own = [draw(kind) if mixed else cells[v] for v in vars_]
        rows = draw(st.lists(st.tuples(*own), min_size=0 if name == small else least,
                             max_size=cap))
        if rows and name != small:
            rows += draw(st.lists(st.sampled_from(rows), min_size=min_repeats, max_size=4))
        order = draw(st.none() | st.permutations(attrs))
        if order is not None:
            idx = [attrs.index(a) for a in order]
            rows.sort(key=lambda r: [r[i] for i in idx])
        weights = None
        if weighted:
            n = len(rows)
            weights = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
        rels[name] = Relation.from_rows(name, attrs, rows, sorted_by=order, weights=weights)
    return rels


def _expanded(rels):
    """Each relation with its weighted rows repeated instead: the same bag.
    Repeats stay next to each other, so a declared order still holds."""
    out = {}
    for name, rel in rels.items():
        rows = rel.rows()
        if rel.weights is not None:
            rows = [row for row, w in zip(rows, rel.weights) for _ in range(w)]
        out[name] = Relation.from_rows(name, rel.attrs, rows, sorted_by=rel.sorted_by)
    return out


@st.composite
def fuzz_plan(draw, q):
    """A random plan that ``plan_violation`` accepts.

    Each node iterates a subatom of variables no earlier node bound, then
    probes subatoms of other atoms whose variables are bound by then.  An
    atom's variables that no node took are bound by the end; they go to the
    first node that binds them all and does not iterate that atom, as a new
    probe or added to the atom's probe there.  That node exists: the last of
    those variables was bound by another atom's iterated subatom.
    """
    remaining = {a.relation: list(a.vars) for a in q.atoms}
    nodes, bound_after = [], []
    bound: set[str] = set()

    def take(rel, vars_):
        # A size drawn first, so that subatoms of several variables, each
        # one tuple-keyed trie level, are drawn as often as single ones.
        vars_ = draw(st.permutations(vars_))[: draw(st.integers(1, len(vars_)))]
        for v in vars_:
            remaining[rel].remove(v)
        return Subatom(rel, tuple(vars_))

    while True:
        fresh = {r: [v for v in vs if v not in bound] for r, vs in remaining.items()}
        firsts = [r for r, vs in fresh.items() if vs]
        if not firsts:
            break
        rel = draw(st.sampled_from(firsts))
        node = [take(rel, fresh[rel])]
        bound |= set(node[0].vars)
        for other in draw(st.permutations(list(remaining))):
            ready = [v for v in remaining[other] if v in bound]
            if other != rel and ready and draw(st.booleans()):
                node.append(take(other, ready))
        nodes.append(node)
        bound_after.append(set(bound))

    for rel, rest in remaining.items():
        if not rest:
            continue
        rest = tuple(draw(st.permutations(rest)))
        for node, avail in zip(nodes, bound_after):
            if node[0].relation == rel or not set(rest) <= avail:
                continue
            for i, sub in enumerate(node):
                if sub.relation == rel:
                    node[i] = Subatom(rel, sub.vars + rest)
                    break
            else:
                node.append(Subatom(rel, rest))
            break
    return FreeJoinPlan(tuple(tuple(node) for node in nodes))


@st.composite
def fuzz_left_deep(draw, q):
    """The plan of a random left-deep order whose every prefix is
    connected, so no step is a cartesian product."""
    order = [draw(st.sampled_from(q.atoms))]
    while len(order) < len(q.atoms):
        bound = {v for a in order for v in a.vars}
        joinable = [a for a in q.atoms if a not in order and bound & set(a.vars)]
        order.append(draw(st.sampled_from(joinable)))
    return convert_left_deep(q, [a.relation for a in order])


@st.composite
def fuzz_gj_plan(draw, q):
    """The generic-join rewrite of a random ``fuzz_left_deep`` plan."""
    return optimize_plan(q, draw(fuzz_left_deep(q)), MODE_GENERIC_JOIN)


def _connected(atoms) -> bool:
    seen, rest = set(atoms[0].vars), atoms[1:]
    while joined := [a for a in rest if seen & set(a.vars)]:
        rest = [a for a in rest if a not in joined]
        seen.update(*(a.vars for a in joined))
    return not rest


@st.composite
def fuzz_tree(draw, atoms):
    """A random bushy tree whose every subtree is connected, so no stage is
    a cartesian product."""
    if len(atoms) == 1:
        return atoms[0]
    splits = []
    for mask in range(1, 2 ** len(atoms) - 1):
        left = [a for i, a in enumerate(atoms) if mask >> i & 1]
        right = [a for i, a in enumerate(atoms) if not mask >> i & 1]
        if _connected(left) and _connected(right):
            splits.append((left, right))
    left, right = draw(st.sampled_from(splits))
    return BushyPlan(draw(fuzz_tree(left)), draw(fuzz_tree(right)))


@st.composite
def _spaced(draw, text):
    """``text`` with 0-2 blanks drawn after each parenthesis, comma and
    ``:-``, and after each run of text between them."""
    pieces = re.split(r"(:-|[(),])", text)
    return "".join(piece + draw(st.sampled_from(("", " ", "  ", "\t"))) for piece in pieces)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_plan_language_round_trip(data):
    # Query texts, plan files and bushy trees share one grammar, so blanks
    # around any token change none of them.
    schema = data.draw(st.sampled_from(SCHEMAS))
    text = data.draw(fuzz_query(schema))
    q, agg = parse_query(text)
    plan = data.draw(fuzz_plan(q))
    tree = data.draw(fuzz_tree(list(q.atoms)))
    assert parse_query(data.draw(_spaced(text))) == (q, agg)
    assert parse_plan(data.draw(_spaced(str(plan)))) == plan
    assert parse_bushy(data.draw(_spaced(str(tree)))) == tree


def _swap_leaf(tree, leaf, new):
    """``tree`` with ``leaf`` replaced by ``new``; a ``new`` of None drops
    the leaf, and its sibling takes its parent's place."""
    if tree == leaf:
        return new
    if not isinstance(tree, BushyPlan):
        return tree
    left, right = _swap_leaf(tree.left, leaf, new), _swap_leaf(tree.right, leaf, new)
    if left is None or right is None:
        return left or right
    return BushyPlan(left, right)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_tree_with_a_mutated_leaf_is_refused(data):
    # A tree that is not the query once ran as another query, silently.
    schema = data.draw(st.sampled_from(SCHEMAS))
    q, agg = parse_query(data.draw(fuzz_query(schema)))
    tree = data.draw(fuzz_tree(list(q.atoms)))
    leaf = data.draw(st.sampled_from(q.atoms))
    other = data.draw(st.sampled_from([a for a in q.atoms if a != leaf]))
    mutations = (
        None,  # left out
        BushyPlan(leaf, other),  # other twice
        Atom(leaf.relation, leaf.vars[:-1] + ("zz",)),  # a variable renamed
        Atom(leaf.relation, leaf.vars[1:] + leaf.vars[:1]),  # variables rotated
        Atom("Z", leaf.vars),  # another relation
    )
    new = data.draw(st.sampled_from([m for m in mutations if m != leaf]))
    with pytest.raises(PlanError, match="are not the query's atoms"):
        decompose_bushy(q, _swap_leaf(tree, leaf, new), agg)


STRATEGIES = tuple(
    (StructurePolicy(policy), opts)
    for policy in ("hash", "sorted", "hybrid")
    for opts in (OptConfig(), OptConfig.none())
)
FLAT_STRATEGIES = STRATEGIES + tuple(
    (StructurePolicy(policy), OptConfig(o3=False)) for policy in ("hash", "sorted", "hybrid")
)
# The engine's own batch size, then batches of one and three rows, so a plan
# runs with every batch boundary crossed.  Patched inside each test body: a
# function-scoped fixture would be shared by every Hypothesis example.
BATCHES = (executor.BATCH, 1, 3)


@st.composite
def fuzz_case(draw, schemas=SCHEMAS):
    """(query text, relations, plan)."""
    schema = draw(st.sampled_from(schemas))
    text = draw(fuzz_query(schema))
    q, _ = parse_query(text)
    return text, draw(fuzz_relations(schema)), draw(fuzz_plan(q))


def test_random_plans_match_reference():
    # A subatom of several variables is one trie level keyed by tuples.
    # Some example must probe such a level and walk one, under each
    # dictionary kind and at every batch size, where rows reach it: the plan
    # returns rows, or the walk is the root's, which runs once whatever
    # follows.  With O3 off the plan runs as drawn, so its subatoms name the
    # built levels.  In ten seeded rounds of 150 examples, 9 to 23 drew such
    # a walk; up to three rounds run, each drawing anew.  A column that no
    # probe of a node reads rides along lazily; some example must have a
    # probe drop rows from such a rider, at every batch size above one (a
    # one-row batch that misses is dropped whole); each of 15 seeded rounds
    # did.
    reached = set()
    want = {
        (kind, role, batch)
        for kind in (HASH, SORTED) for role in ("probe", "walk") for batch in BATCHES
    }
    cut = set()

    def cut_spy(data, selectors):
        if data.__class__ is islice:  # a rider, not yet cut
            cut.add(executor.BATCH)
        return compress(data, selectors)

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(fuzz_case(FLAT_SCHEMAS), fuzz_case(TERNARY_SCHEMAS)))
    def check(case):
        text, rels, plan = case
        q, agg = parse_query(text)
        assert plan_violation(q, plan) is None, str(plan)
        reference = nested_loop(q, _expanded(rels), agg)
        assert nested_loop(q, rels, agg) == reference
        # The plan as drawn, and its hoisted-probe rewrite.
        for run_plan in (plan, optimize_plan(q, plan, MODE_FREEJOIN)):
            for batch in BATCHES:
                for policy, opts in FLAT_STRATEGIES:
                    built = {}

                    def spy(rel, levels, dict_kind, spec):
                        built[rel.name] = (levels, dict_kind)
                        return build_trie(rel, levels, dict_kind, spec)

                    with mock.patch.object(executor, "BATCH", batch), \
                            mock.patch.object(executor, "build_trie", spy), \
                            mock.patch.object(executor, "compress", cut_spy):
                        result, _ = execute(q, run_plan, rels, agg, policy, opts)
                    assert result.matches_reference(reference), (
                        policy.mode, opts.label(), batch, str(run_plan)
                    )
                    if opts.o3:
                        continue
                    rows = reference not in ({}, 0, None)
                    for name, (levels, dict_kind) in built.items():
                        for (ni, pos, _), level in zip(run_plan.subatoms_of(name), levels):
                            if level.__class__ is tuple and len(level) > 1:
                                if rows or (ni, pos) == (0, 0):
                                    reached.add((dict_kind, "probe" if pos else "walk", batch))

    for _ in range(3):
        check()
        if reached == want and cut == set(BATCHES) - {1}:
            break
    assert reached == want
    assert cut == set(BATCHES) - {1}


def test_generic_join_plans_match_reference():
    # A generic-join root walks trie keys, so execute semijoin-reduces its
    # relations first; one relation with 0-3 rows makes it drop rows.  At
    # these sizes the reduction's size rule would almost never bisect, so
    # each plan runs with the rule forced both ways: a relation sorted on
    # the reduced attribute then takes its rows from key ranges or from a
    # scan, and the first must happen in some example.
    bisected = []

    def rule(bisect):
        def pays(keys, rows):
            bisected.append(bisect)
            return bisect
        return pays

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def check(data):
        schema = data.draw(st.sampled_from(SCHEMAS))
        q, agg = parse_query(data.draw(fuzz_query(schema)))
        small = data.draw(st.sampled_from([name for name, _ in schema]))
        rels = data.draw(fuzz_relations(schema, small=small))
        plan = data.draw(fuzz_gj_plan(q))
        reference = nested_loop(q, _expanded(rels), agg)
        for batch in BATCHES:
            for bisect in (False, True):
                with mock.patch.object(executor, "BATCH", batch), \
                        mock.patch.object(executor, "_bisect_pays", rule(bisect)):
                    for policy, opts in STRATEGIES:
                        result, _ = execute(q, plan, rels, agg, policy, opts)
                        assert result.matches_reference(reference), (
                            policy.mode, opts.label(), batch, bisect, str(plan)
                        )

    check()
    assert True in bisected


@st.composite
def hand_built_query(draw, schema):
    """(ConjunctiveQuery, AggregationSpec) built directly, not parsed, so
    the head and the aggregate's variables are drawn apart: either may be
    empty, and the aggregate's may repeat.  Query text cannot ask for
    ``MIN`` or a full result over no variables."""
    variables = _variables(schema)
    some = st.lists(st.sampled_from(variables), min_size=1, max_size=3)
    kind = draw(st.sampled_from((AGG_FULL, AGG_COUNT, AGG_MIN)))
    head = () if draw(st.booleans()) else tuple(dict.fromkeys(draw(some)))
    agg_vars = () if draw(st.booleans()) else tuple(draw(some))
    atoms = tuple(Atom(name, vars_) for name, vars_ in schema)
    return ConjunctiveQuery(head, atoms), AggregationSpec(kind, agg_vars)


def test_hand_built_queries_match_reference():
    # Library callers build queries and aggregates that the parser never
    # returns.  Each runs on its binary, generic-join and Free Join plans
    # and on a bushy tree, under every policy.  Some example must ask for a
    # full result, MIN and COUNT over no variables, and full and MIN over
    # some; up to three rounds run, each drawing anew.
    reached = set()

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def check(data):
        schema = data.draw(st.sampled_from(SCHEMAS))
        q, agg = data.draw(hand_built_query(schema))
        rels = data.draw(fuzz_relations(schema))
        binary = data.draw(fuzz_left_deep(q))
        tree = data.draw(fuzz_tree(list(q.atoms)))
        reached.add((agg.kind, agg.output(q) == ()))
        reference = nested_loop(q, _expanded(rels), agg)
        plans = (binary, optimize_plan(q, binary, MODE_GENERIC_JOIN),
                 optimize_plan(q, binary, MODE_FREEJOIN))
        for batch in BATCHES:
            with mock.patch.object(executor, "BATCH", batch):
                for policy, opts in FLAT_STRATEGIES:
                    for plan in plans:
                        result, _ = execute(q, plan, rels, agg, policy, opts)
                        assert result.matches_reference(reference), (
                            policy.mode, opts.label(), batch, str(plan)
                        )
                for policy, opts in STRATEGIES:
                    result, _ = execute_bushy(q, tree, rels, agg, policy, opts)
                    assert result.matches_reference(reference), (
                        policy.mode, opts.label(), batch, str(tree)
                    )

    want = {(AGG_FULL, True), (AGG_MIN, True), (AGG_COUNT, True),
            (AGG_FULL, False), (AGG_MIN, False)}
    for _ in range(3):
        check()
        if reached == want:
            break
    assert reached == want


# A sorted column with runs of repeated values, and keys around and between
# them: absent ones, ones below the first value and above the last.
INT_KEYS = st.integers(-2, 12)
STR_KEYS = st.sampled_from(("", "a", "ab", "b", "ba", "c", "cc", "d"))
INT_COLUMN = st.lists(st.integers(0, 10), max_size=40).map(sorted)
STR_COLUMN = st.lists(st.sampled_from(("a", "ab", "b", "c", "cc")), max_size=40).map(sorted)


@settings(max_examples=150, deadline=None)
@given(
    st.one_of(st.tuples(INT_COLUMN, st.sets(INT_KEYS, max_size=8)),
              st.tuples(STR_COLUMN, st.sets(STR_KEYS, max_size=8))),
)
@example(([0, 0, 3, 3, 3, 7], {-1, 0, 5, 7, 12}))  # runs, absent, below, above
@example(([1, 1, 2], {-1, 0, 5}))  # nothing joins
@example((["a", "ab", "ab", "cc"], {"", "ab", "b", "d"}))
def test_bisect_reduction_matches_scan(case):
    # The semijoin cut of a column sorted on the reduced attribute: the
    # offsets kept by bisecting each key's run equal the scan's, and an
    # empty cut ends the reduction.  K gives the keys, so it is the smaller
    # relation.
    col, keys = case
    assert executor._kept_offsets(tuple(col), keys, True) == executor._kept_offsets(
        tuple(col), keys, False
    ) == [i for i, v in enumerate(col) if v in keys]
    keys = sorted(keys)[: len(col)]
    rels = {
        "K": Relation.from_rows("K", ("x",), [(k,) for k in keys]),
        "R": Relation.from_rows("R", ("x", "y"), [(v, i) for i, v in enumerate(col)],
                                sorted_by=("x", "y")),
    }
    node = (Subatom("K", ("x",)), Subatom("R", ("x",)))
    var_attr = {("K", "x"): "x", ("R", "x"): "x", ("R", "y"): "y"}
    want = [i for i, v in enumerate(col) if v in keys]
    for bisect in (False, True):
        with mock.patch.object(executor, "_bisect_pays", lambda keys, rows: bisect):
            out = executor._semijoin_reduce(node, rels, var_attr)
        if not want:
            assert out is None
        else:
            assert list(out["R"].columns["y"]) == want
            assert out["K"] is rels["K"]


def test_random_bushy_trees_match_reference():
    # Every relation that has rows repeats some of them, so the
    # materialized stages carry multiplicities, whether or not the base
    # relations are weighted too; COUNT is always checked.  A stage that a
    # later stage probes on its whole tuple, under hash dictionaries with
    # count leaves, is probed through its bag and never built; some example
    # must reach that hand-off.  In 17 rounds of 60 examples, one round
    # never reached it; up to three rounds run, each drawing anew.
    handed = set()

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def check(data):
        schema = data.draw(st.sampled_from(SCHEMAS))
        rels = data.draw(fuzz_relations(schema, min_repeats=1))
        kinds = ("count", data.draw(st.sampled_from(("full", "proj", "min"))))
        queries = [parse_query(data.draw(fuzz_query(schema, (kind,)))) for kind in kinds]
        tree = data.draw(fuzz_tree(list(queries[0][0].atoms)))
        for q, agg in queries:
            reference = nested_loop(q, _expanded(rels), agg)
            for batch in BATCHES:
                for policy, opts in STRATEGIES:
                    built = []

                    def spy(rel, levels, dict_kind, spec):
                        built.append(rel.name)
                        return build_trie(rel, levels, dict_kind, spec)

                    with mock.patch.object(executor, "BATCH", batch), \
                            mock.patch.object(executor, "build_trie", spy):
                        result, stats = execute_bushy(q, tree, rels, agg, policy, opts)
                    assert result.matches_reference(reference), (
                        policy.mode, opts.label(), batch, agg
                    )
                    if stats.deep_intermediate_tries > sum(n.startswith("_I") for n in built):
                        handed.add(policy.mode)

    for _ in range(3):
        check()
        if handed:
            break
    assert handed and "sorted" not in handed


TRIANGLE = (("R", ("a", "b")), ("S", ("b", "c")), ("T", ("c", "a")))


@st.composite
def repeating_keys(draw):
    """Triangle relations whose probes meet the same key on many rows, in
    runs of batches no row survives before one that some row does, as in
    the adversarial triangle.  R holds a fan of rows whose b S lacks, then
    a hub fan of rows on one b, then a matching of genuine triangles, in
    that order of a.  S repeats its hub row, so the hub fan expands into
    (c, a) keys that each repeat and that T lacks.  Values are ints, or
    strs that sort as the ints do; the relations are sorted and declare it,
    or neither.  A few drawn rows are added."""
    cell = draw(st.sampled_from((int, "{:03d}".format)))
    lost, hub, copies, matched = (draw(st.integers(lo, hi))
                                  for lo, hi in ((0, 4), (1, 6), (1, 4), (1, 3)))
    a = iter(range(100))
    r = ([(next(a), 90) for _ in range(lost)] + [(next(a), 0) for _ in range(hub)]
         + [(next(a), 40 + j) for j in range(matched)])
    s = [(0, 1)] * copies + [(40 + j, 60 + j) for j in range(matched)]
    t = [(1, 99)] + [(60 + j, r[lost + hub + j][0]) for j in range(matched)]
    noise = st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)), max_size=3)
    order = draw(st.booleans())
    rels = {}
    for (name, vars_), rows in zip(TRIANGLE, (r, s, t)):
        rows = [tuple(map(cell, row)) for row in rows + draw(noise)]
        attrs = tuple(f"c{i}" for i in range(len(vars_)))
        rels[name] = Relation.from_rows(name, attrs, sorted(rows) if order else rows,
                                        sorted_by=attrs if order else None)
    return rels


def test_repeated_probe_keys_match_reference():
    # A probe from a trie root first finds which of a batch's keys can hit:
    # a sorted root seeks the distinct ones, a hash root whose last batch
    # died tests the batch as a whole.  Each of the binary, generic-join and
    # Free Join plans of a random join order runs under every policy at
    # every batch size; results, their order and every counter must not
    # depend on the batch size.  Some example must seek a sorted root for a
    # batch whose keys repeat, and, at batches of one and three rows, find
    # nothing for a batch before finding something for a later one.
    reached = set()
    counters = [f.name for f in fields(ExecStats) if not f.name.endswith("_ms")]
    seek, seeks = executor._seek, []  # (level, keys repeat, found any) per seek

    def seek_spy(level, keys):
        keys = list(keys)
        found = seek(level, keys)
        seeks.append((id(level), len(set(keys)) < len(keys), bool(found)))
        return found

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def check(data):
        q, agg = parse_query(data.draw(fuzz_query(TRIANGLE)))
        rels = data.draw(repeating_keys())
        reference = nested_loop(q, rels, agg)
        binary = data.draw(fuzz_left_deep(q))
        plans = (binary, optimize_plan(q, binary, MODE_GENERIC_JOIN),
                 optimize_plan(q, binary, MODE_FREEJOIN))
        for plan in plans:
            for policy, opts in STRATEGIES:
                runs = []
                for batch in BATCHES:
                    seeks.clear()
                    with mock.patch.object(executor, "BATCH", batch), \
                            mock.patch.object(executor, "_seek", seek_spy):
                        result, stats = execute(q, plan, rels, agg, policy, opts)
                    assert result.matches_reference(reference), (
                        policy.mode, opts.label(), batch, str(plan)
                    )
                    rows = None if result.tuples is None else list(result.tuples.items())
                    runs.append((rows, result.count, result.minima,
                                 [getattr(stats, c) for c in counters]))
                    if any(repeats for _, repeats, _ in seeks):
                        reached.add(("repeats", batch))
                    dead = set()
                    for level, _, found in seeks:
                        if found and level in dead:
                            reached.add(("dead, then live", batch))
                        elif not found:
                            dead.add(level)
                assert all(run == runs[0] for run in runs), (policy.mode, opts.label(), str(plan))

    want = {("repeats", executor.BATCH), ("repeats", 3),
            ("dead, then live", 1), ("dead, then live", 3)}
    for _ in range(3):
        check()
        if want <= reached:
            break
    assert want <= reached


@settings(
    max_examples=6, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(case=fuzz_case())
def test_fuzzed_instances_run_through_cli(tmp_path_factory, capsys, case):
    """The same instances, written as a CSV catalog and run by ``unijoin run
    --check`` under every ``--dicts``: exit 0 and no traceback.  A CSV has
    no weights, so weighted rows are written repeated."""
    text, rels, plan = case
    rels = _expanded(rels)
    out = tmp_path_factory.mktemp("fuzz")
    catalog = []
    for name, rel in rels.items():
        with open(out / f"{name}.csv", "w", encoding="utf-8") as fh:
            fh.writelines(",".join(map(str, row)) + "\n" for row in rel.rows())
        schema = ",".join(f"{a}:{rel.kind(a) or 'int'}" for a in rel.attrs)
        order = f" sorted_by={','.join(rel.sorted_by)}" if rel.sorted_by else ""
        catalog.append(f"{name} {name}.csv {schema}{order}\n")
    (out / "catalog.txt").write_text("".join(catalog), encoding="utf-8")
    (out / "query.txt").write_text(text + "\n", encoding="utf-8")
    (out / "plan.txt").write_text(str(plan), encoding="utf-8")
    for dicts in ("hash", "sorted", "hybrid"):
        code = main([
            "run", "--catalog", str(out / "catalog.txt"), "--query", str(out / "query.txt"),
            "--plan", f"file:{out / 'plan.txt'}", "--dicts", dicts, "--check",
        ])
        captured = capsys.readouterr()
        assert code == 0, (dicts, captured.out, captured.err)
        assert "Traceback" not in captured.err
        assert "check: PASS" in captured.out
