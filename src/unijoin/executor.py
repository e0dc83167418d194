"""Unified plan interpreter.

One recursive evaluator runs every plan in the spectrum: each plan node
iterates its first subatom (a relation scan, a walk over trie keys, or a
walk over a leaf's row offsets) and probes the remaining subatoms into
their tries.  Bindings accumulate down the node list; reaching the end of
the plan emits one satisfying assignment with a multiplicity.

Optimization toggles:

* O1 -- offset-vector leaves instead of the hash-map baseline
* O2 -- singleton groups stored as a bare offset, larger groups as a list
  (the ``smallvec`` leaf; implies vectors)
* O3 -- drop columns that never reach the output or join anything
* O4 -- count leaves for relations that are only probed, never iterated
* O5 -- factorized evaluation of a plan's independent tail nodes for
  count/min aggregates (loop-invariant aggregation)
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field, fields

from .errors import ExecutionError
from .oracle import nested_loop
from .query import (
    AGG_COUNT,
    AGG_FULL,
    AGG_MIN,
    AggregationSpec,
    ConjunctiveQuery,
    FreeJoinPlan,
    convert_left_deep,
    decompose_bushy,
    liveness,
    validate_plan,
)
from .storage import Relation
from .trie import (
    HASH,
    LEAF_COUNT,
    LEAF_HASHMAP,
    LEAF_RANGE,
    LEAF_SMALLVEC,
    LEAF_VEC,
    SORTED,
    LeafSpec,
    build_trie,
    leaf_offsets,
    leaf_size,
)
from .trie import _MISSING

POLICY_HASH = "hash"
POLICY_SORTED = "sorted"
POLICY_HYBRID = "hybrid"
POLICY_EXPLICIT = "explicit"


@dataclass(frozen=True)
class OptConfig:
    """Which optimizations are enabled; all on by default."""

    o1: bool = True
    o2: bool = True
    o3: bool = True
    o4: bool = True
    o5: bool = True

    @classmethod
    def none(cls) -> "OptConfig":
        return cls(False, False, False, False, False)

    @classmethod
    def from_text(cls, text: str) -> "OptConfig":
        """Parse a comma-separated toggle list like ``O1,O3,O5`` (or ``none``)."""
        text = text.strip().lower()
        if text in ("", "none"):
            return cls.none()
        if text == "all":
            return cls()
        on = {"o1": False, "o2": False, "o3": False, "o4": False, "o5": False}
        for tok in text.split(","):
            tok = tok.strip()
            if tok not in on:
                raise ExecutionError(f"unknown optimization toggle {tok!r}")
            on[tok] = True
        return cls(on["o1"], on["o2"], on["o3"], on["o4"], on["o5"])

    def label(self) -> str:
        names = [n for n, v in zip(("O1", "O2", "O3", "O4", "O5"),
                                   (self.o1, self.o2, self.o3, self.o4, self.o5)) if v]
        return ",".join(names) if names else "none"


@dataclass(frozen=True)
class StructurePolicy:
    """How to pick the dictionary kind and leaf shape per relation.

    ``hash`` uses hash dictionaries everywhere.  ``sorted`` uses sorted
    dictionaries everywhere, sorting a copy of any relation whose declared
    order does not cover the trie's key attributes (each copy bumps the
    ``sort_ops`` counter).  ``hybrid`` uses sorted dictionaries with range
    leaves only where a relation's declared order already matches, and hash
    structures everywhere else -- in particular for intermediates, which are
    never worth sorting.  ``explicit`` takes a per-relation mapping from
    relation name to ``(dict_kind, LeafSpec)``.
    """

    mode: str = POLICY_HYBRID
    choices: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.mode not in (POLICY_HASH, POLICY_SORTED, POLICY_HYBRID, POLICY_EXPLICIT):
            raise ExecutionError(f"unknown structure policy {self.mode!r}")


@dataclass
class ExecStats:
    """Counters for one execution (accumulates across stages of a bushy run)."""

    probes: int = 0
    probe_hits: int = 0
    intermediate_tuples: int = 0
    output_tuples: int = 0
    comparisons: int = 0
    trie_build_insertions: int = 0
    build_ms: float = 0.0
    exec_ms: float = 0.0
    min_ops: int = 0
    sort_ops: int = 0
    deep_intermediate_tries: int = 0

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def to_json(self) -> str:
        d = self.to_dict()
        d["build_ms"] = round(d["build_ms"], 3)
        d["exec_ms"] = round(d["exec_ms"], 3)
        return json.dumps(d)

    def to_text(self) -> str:
        lines = []
        for name, value in self.to_dict().items():
            if isinstance(value, float):
                value = f"{value:.3f}"
            lines.append(f"{name:24} {value}")
        return "\n".join(lines)


@dataclass
class ResultBag:
    """Execution result: a bag of tuples, a count, or per-column minima.

    For ``min`` over an empty join, ``minima`` is None -- distinct from any
    actual minima tuple.
    """

    kind: str
    vars: tuple[str, ...] = ()
    tuples: dict = None
    count: int = None
    minima: tuple = None

    @property
    def empty(self) -> bool:
        if self.kind == AGG_COUNT:
            return self.count == 0
        if self.kind == AGG_MIN:
            return self.minima is None
        return not self.tuples

    def sorted_rows(self):
        """(tuple, multiplicity) pairs in lexicographic tuple order."""
        return sorted(self.tuples.items())

    def matches_reference(self, reference) -> bool:
        """Compare against the brute-force evaluator's result shape."""
        if self.kind == AGG_COUNT:
            return self.count == reference
        if self.kind == AGG_MIN:
            return self.minima == reference
        return self.tuples == reference


def _empty_result(agg: AggregationSpec, out_vars) -> ResultBag:
    if agg.kind == AGG_COUNT:
        return ResultBag(AGG_COUNT, count=0)
    if agg.kind == AGG_MIN:
        return ResultBag(AGG_MIN, vars=tuple(agg.vars), minima=None)
    return ResultBag(AGG_FULL, vars=tuple(out_vars), tuples={})


# Access modes for one atom under one plan.
_SCAN = 0
_ITER_KEYS = 1
_ITER_LEAF = 2
_PROBE = 3


class _AtomAccess:
    """How one atom's relation is touched by a plan: scan or trie."""

    __slots__ = ("rel", "trie", "spec", "slots", "probe_only")

    def __init__(self, rel, trie, spec, nparts, probe_only):
        self.rel = rel
        self.trie = trie
        self.spec = spec
        self.slots = [None] * (nparts + 1)
        self.probe_only = probe_only


class _Step:
    """One subatom, compiled: who to touch, which mode, which trie levels."""

    __slots__ = ("mode", "acc", "vars", "cols", "part_idx", "kinds", "is_final")

    def __init__(self, mode, acc, vars_, cols=None, part_idx=0, kinds=(), is_final=False):
        self.mode = mode
        self.acc = acc
        self.vars = vars_
        self.cols = cols
        self.part_idx = part_idx
        self.kinds = kinds
        self.is_final = is_final


def _choose_structures(rel, levels, probe_only, policy, opts, is_intermediate):
    """(possibly re-sorted relation, dict_kind, LeafSpec, sorted_copy_made)."""

    def hash_leaf():
        if probe_only and opts.o4:
            return LeafSpec(LEAF_COUNT)
        if opts.o2:
            return LeafSpec(LEAF_SMALLVEC)
        if opts.o1:
            return LeafSpec(LEAF_VEC)
        return LeafSpec(LEAF_HASHMAP)

    def sorted_leaf():
        if probe_only and opts.o4:
            return LeafSpec(LEAF_COUNT)
        return LeafSpec(LEAF_RANGE)

    prefix_ok = (rel.sorted_by or ())[: len(levels)] == levels
    if policy.mode == POLICY_HASH:
        return rel, HASH, hash_leaf(), False
    if policy.mode == POLICY_SORTED:
        if prefix_ok:
            return rel, SORTED, sorted_leaf(), False
        return rel.sorted_copy(levels), SORTED, sorted_leaf(), True
    if policy.mode == POLICY_HYBRID:
        if prefix_ok and not is_intermediate:
            return rel, SORTED, sorted_leaf(), False
        return rel, HASH, hash_leaf(), False
    # explicit
    try:
        dict_kind, spec = policy.choices[rel.name]
    except KeyError:
        raise ExecutionError(
            f"explicit policy: no structure choice for relation {rel.name!r}"
        ) from None
    return rel, dict_kind, spec, False


def execute(
    q: ConjunctiveQuery,
    plan: FreeJoinPlan,
    relations: dict[str, Relation],
    agg: AggregationSpec | None = None,
    policy: StructurePolicy | None = None,
    opts: OptConfig | None = None,
    stats: ExecStats | None = None,
    intermediate_names: frozenset = frozenset(),
):
    """Run one plan over the given relations.

    Returns ``(ResultBag, ExecStats)``.  ``stats`` may be passed in to
    accumulate counters across several executions.
    """
    if agg is None:
        agg = AggregationSpec(AGG_FULL, q.head)
    if policy is None:
        policy = StructurePolicy()
    if opts is None:
        opts = OptConfig()
    if stats is None:
        stats = ExecStats()
    validate_plan(q, plan)
    for atom in q.atoms:
        if atom.relation not in relations:
            raise ExecutionError(f"relation {atom.relation!r} not provided")
        if len(atom.vars) != len(relations[atom.relation].attrs):
            raise ExecutionError(
                f"atom {atom}: arity {len(atom.vars)} does not match relation "
                f"{atom.relation} arity {len(relations[atom.relation].attrs)}"
            )

    out_vars = tuple(agg.vars) if agg.vars else tuple(q.head)

    # An empty relation anywhere empties a conjunctive join.
    if any(relations[a.relation].size == 0 for a in q.atoms):
        return _empty_result(agg, out_vars), stats

    var_attr = {}  # (relation, var) -> attribute, from the original atoms
    for a in q.atoms:
        for v, attr in zip(a.vars, relations[a.relation].attrs):
            var_attr[(a.relation, v)] = attr

    # An int never equals a str, so a join variable bound to columns of both
    # kinds matches nothing; sorted lookups could not even compare the keys.
    var_kind: dict[str, str] = {}
    for (name, v), attr in var_attr.items():
        kind = relations[name].kind(attr)
        if var_kind.setdefault(v, kind) != kind:
            return _empty_result(agg, out_vars), stats

    multiplier = 1
    working = plan
    if opts.o3:
        info = liveness(q, plan, agg)
        working = info.pruned_plan
        for name in info.dropped_atoms:
            multiplier *= relations[name].size

    t0 = time.perf_counter()
    accesses: dict[str, _AtomAccess] = {}
    part_geom: dict[str, list] = {}  # relation -> per-part (kind, level slice)
    rels_in_plan = {s.relation for node in working.nodes for s in node}
    for name in sorted(rels_in_plan):
        parts = working.subatoms_of(name)
        rel = relations[name]
        if len(parts) == 1 and parts[0][1] == 0:
            accesses[name] = _AtomAccess(rel, None, None, 1, False)
            part_geom[name] = [("scan", 0, 0)]
            continue
        final_iterated = parts[-1][1] == 0
        key_parts = parts[:-1] if final_iterated else parts
        levels = tuple(v for _, _, sub in key_parts for v in sub.vars)
        level_attrs = tuple(var_attr[(name, v)] for v in levels)
        probe_only = not final_iterated
        rel2, dict_kind, spec, sorted_copy = _choose_structures(
            rel, level_attrs, probe_only, policy, opts, name in intermediate_names
        )
        if sorted_copy:
            stats.sort_ops += 1
        trie = build_trie(rel2, level_attrs, dict_kind, spec)
        stats.trie_build_insertions += trie.insertions
        if name in intermediate_names:
            stats.deep_intermediate_tries += 1
        kinds = tuple(k for _, k in trie.levels)
        geom = []
        pos = 0
        for _, _, sub in key_parts:
            geom.append(("keys", pos, kinds[pos : pos + len(sub.vars)]))
            pos += len(sub.vars)
        if final_iterated:
            geom.append(("leaf", pos, ()))
        part_geom[name] = geom
        accesses[name] = _AtomAccess(rel2, trie, spec, len(parts), probe_only)
    stats.build_ms += (time.perf_counter() - t0) * 1000.0

    # Compile each node into an iterator step plus probe steps.
    part_counter: dict[str, int] = {}
    nodes_steps: list[list[_Step]] = []
    for node in working.nodes:
        steps: list[_Step] = []
        for pi, sub in enumerate(node):
            acc = accesses[sub.relation]
            idx = part_counter.get(sub.relation, 0)
            part_counter[sub.relation] = idx + 1
            if acc.trie is None:
                cols = tuple(
                    acc.rel.columns[var_attr[(sub.relation, v)]] for v in sub.vars
                )
                steps.append(_Step(_SCAN, acc, sub.vars, cols))
                continue
            geom_kind, _, kinds = part_geom[sub.relation][idx]
            is_final = idx == len(part_geom[sub.relation]) - 1
            if pi == 0:
                if geom_kind == "leaf":
                    cols = tuple(
                        acc.rel.columns[var_attr[(sub.relation, v)]] for v in sub.vars
                    )
                    steps.append(_Step(_ITER_LEAF, acc, sub.vars, cols, idx))
                else:
                    steps.append(_Step(_ITER_KEYS, acc, sub.vars, None, idx, kinds))
            else:
                steps.append(_Step(_PROBE, acc, sub.vars, None, idx, kinds, is_final))
        nodes_steps.append(steps)

    # A trailing run of single-subatom nodes whose iterator is terminal
    # (leaf offsets or a full scan) touches nothing downstream, so count and
    # min aggregates can combine those loops instead of nesting them.
    n_nodes = len(nodes_steps)
    suffix_start = n_nodes
    if opts.o5 and agg.kind in (AGG_COUNT, AGG_MIN):
        while suffix_start > 0:
            node = nodes_steps[suffix_start - 1]
            if len(node) != 1 or node[0].mode not in (_SCAN, _ITER_LEAF):
                break
            suffix_start -= 1
    suffix_steps = [nodes_steps[i][0] for i in range(suffix_start, n_nodes)]

    binding: dict[str, object] = {}
    bag: dict[tuple, int] = {}
    count = 0
    minima: list | None = None
    agg_vars = tuple(agg.vars)

    def emit(mult: int):
        nonlocal count, minima
        stats.output_tuples += mult
        if agg.kind == AGG_COUNT:
            count += mult
        elif agg.kind == AGG_MIN:
            vals = [binding[v] for v in agg_vars]
            if minima is None:
                minima = vals
            else:
                minima = [m if m <= x else x for m, x in zip(minima, vals)]
            stats.min_ops += len(agg_vars)
        else:
            key = tuple(binding[v] for v in out_vars)
            bag[key] = bag.get(key, 0) + mult

    def finish_factorized(mult: int):
        nonlocal count, minima
        total = mult
        sizes = []
        for step in suffix_steps:
            if step.mode == _SCAN:
                size = step.acc.rel.size
            else:
                leaf = step.acc.slots[step.part_idx - 1]
                size = leaf_size(leaf, step.acc.spec)
            if size == 0:
                return
            sizes.append(size)
            total *= size
        stats.output_tuples += total
        if agg.kind == AGG_COUNT:
            count += total
            return
        branch_min: dict[str, object] = {}
        for step, size in zip(suffix_steps, sizes):
            watched = [(v, c) for v, c in zip(step.vars, step.cols or ()) if v in agg_vars]
            if not watched:
                continue
            if step.mode == _SCAN:
                offsets = range(step.acc.rel.size)
            else:
                offsets = leaf_offsets(step.acc.slots[step.part_idx - 1], step.acc.spec)
            for v, col in watched:
                branch_min[v] = min(col[off] for off in offsets)
                stats.min_ops += size
        vals = [branch_min[v] if v in branch_min else binding[v] for v in agg_vars]
        if minima is None:
            minima = vals
        else:
            minima = [m if m <= x else x for m, x in zip(minima, vals)]
        stats.min_ops += len(agg_vars)

    if suffix_start < n_nodes:
        finish = finish_factorized
    else:
        finish = emit

    def probe(step: _Step) -> int | None:
        """Descend one subatom's trie levels; None on miss, else a
        multiplicity factor (the leaf group size for a final probe)."""
        acc = step.acc
        node = acc.trie.root if step.part_idx == 0 else acc.slots[step.part_idx - 1]
        for v, kind in zip(step.vars, step.kinds):
            key = binding[v]
            stats.probes += 1
            if kind == SORTED:
                child, comps = node.find(key)
                stats.comparisons += comps
                if child is _MISSING:
                    return None
            else:
                child = node.get(key, _MISSING)
                if child is _MISSING:
                    return None
            stats.probe_hits += 1
            node = child
        acc.slots[step.part_idx] = node
        if step.is_final and acc.probe_only:
            return leaf_size(node, acc.spec)
        return 1

    def iter_keys(node, vars_, depth):
        if depth == len(vars_):
            yield node
            return
        v = vars_[depth]
        for key, child in node.items():
            binding[v] = key
            yield from iter_keys(child, vars_, depth + 1)

    def run(ni: int, mult: int):
        if ni == suffix_start:
            finish(mult)
            return
        steps = nodes_steps[ni]
        first = steps[0]
        probes_ = steps[1:]
        counting = ni >= 1
        acc = first.acc
        if first.mode == _SCAN:
            vars_, cols = first.vars, first.cols
            for off in range(acc.rel.size):
                if counting:
                    stats.intermediate_tuples += 1
                for v, c in zip(vars_, cols):
                    binding[v] = c[off]
                m = mult
                for p in probes_:
                    f = probe(p)
                    if f is None:
                        m = 0
                        break
                    m *= f
                if m:
                    run(ni + 1, m)
        elif first.mode == _ITER_LEAF:
            leaf = acc.slots[first.part_idx - 1]
            vars_, cols = first.vars, first.cols
            for off in leaf_offsets(leaf, acc.spec):
                if counting:
                    stats.intermediate_tuples += 1
                for v, c in zip(vars_, cols):
                    binding[v] = c[off]
                m = mult
                for p in probes_:
                    f = probe(p)
                    if f is None:
                        m = 0
                        break
                    m *= f
                if m:
                    run(ni + 1, m)
        else:  # _ITER_KEYS
            start = acc.trie.root if first.part_idx == 0 else acc.slots[first.part_idx - 1]
            for child in iter_keys(start, first.vars, 0):
                if counting:
                    stats.intermediate_tuples += 1
                acc.slots[first.part_idx] = child
                m = mult
                for p in probes_:
                    f = probe(p)
                    if f is None:
                        m = 0
                        break
                    m *= f
                if m:
                    run(ni + 1, m)

    t1 = time.perf_counter()
    run(0, multiplier)
    stats.exec_ms += (time.perf_counter() - t1) * 1000.0

    if agg.kind == AGG_COUNT:
        return ResultBag(AGG_COUNT, count=count), stats
    if agg.kind == AGG_MIN:
        return (
            ResultBag(AGG_MIN, vars=agg_vars, minima=tuple(minima) if minima else None),
            stats,
        )
    return ResultBag(AGG_FULL, vars=out_vars, tuples=bag), stats


def execute_bushy(
    q: ConjunctiveQuery,
    tree,
    relations: dict[str, Relation],
    agg: AggregationSpec | None = None,
    policy: StructurePolicy | None = None,
    opts: OptConfig | None = None,
):
    """Run a bushy join tree as a sequence of left-deep stages.

    Each non-root stage materializes its sub-join as a fresh in-memory
    relation that later stages treat like any base relation.
    """
    if agg is None:
        agg = AggregationSpec(AGG_FULL, q.head)
    stats = ExecStats()
    agg_vars = agg.vars if agg.kind == AGG_MIN else ()
    stages = decompose_bushy(q, tree, agg_vars)
    rels = dict(relations)
    made: set[str] = set()
    for stage in stages:
        sub_q = ConjunctiveQuery(stage.out_vars, stage.order)
        plan = convert_left_deep(sub_q, [a.relation for a in stage.order])
        if stage.target is None:
            sub_agg = agg
            if agg.kind == AGG_FULL:
                sub_agg = AggregationSpec(AGG_FULL, tuple(q.head))
            result, _ = execute(
                sub_q, plan, rels, sub_agg, policy, opts, stats,
                intermediate_names=frozenset(made),
            )
            return result, stats
        sub_agg = AggregationSpec(AGG_FULL, stage.out_vars)
        result, _ = execute(
            sub_q, plan, rels, sub_agg, policy, opts, stats,
            intermediate_names=frozenset(made),
        )
        rows = []
        for key, mult in result.sorted_rows():
            rows.extend([key] * mult)
        stats.intermediate_tuples += len(rows)
        rels[stage.target] = Relation.from_rows(stage.target, stage.out_vars, rows)
        made.add(stage.target)
    raise ExecutionError("bushy decomposition produced no root stage")


def check_against_oracle(
    q: ConjunctiveQuery,
    relations: dict[str, Relation],
    agg: AggregationSpec,
    result: ResultBag,
    budget: int = 100_000_000,
) -> tuple[bool, object]:
    """Re-evaluate by brute force and compare.  Returns (ok, reference)."""
    reference = nested_loop(q, relations, agg, budget=budget)
    return result.matches_reference(reference), reference
