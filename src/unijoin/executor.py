"""Unified plan interpreter.

One evaluator runs every plan in the spectrum.  One pass decides each
atom's access once, as a record: the relation (a sorted copy when sorted
dictionaries need one), the trie node each of its subatoms starts from, the
leaf spec, the dictionary kind and how many subatoms descend trie levels.
Each plan node is compiled straight from these records into what its first
subatom iterates -- the row offsets of a leaf (a scan walks a range leaf
over every row), or the key paths of one or more trie levels -- and a flat
tuple of probes.  At run time every node runs the same iterate-then-probe
loop: per item it binds the first subatom's variables, then descends each
probe's trie levels (a dict lookup, or ``bisect`` on a sorted dictionary)
and recurses into the next node when all hit.  Bindings accumulate down the
node list; reaching the end of the plan emits one satisfying assignment
with a multiplicity.  Every counter of the run loop (probes, hits,
comparisons, intermediates, outputs and min operations) is a local int added
to ``ExecStats`` once per execution, and the build counters are added once
per trie; a sorted lookup over k keys counts ``k.bit_length()`` comparisons.

Optimization toggles:

* O1 -- offset-vector leaves instead of the hash-map baseline
* O2 -- singleton groups stored as a bare offset, larger groups as a list
  (the ``smallvec`` leaf; implies vectors)
* O3 -- drop columns that never reach the output or join anything
* O4 -- count leaves for relations that are only probed, never iterated
* O5 -- factorized evaluation of a plan's independent tail nodes for
  count/min aggregates (loop-invariant aggregation)

A weighted relation (see ``storage``) counts each row as many times as its
weight: a leaf walk, a scan's included, multiplies the multiplicity by the
row's weight, a count leaf sums the weights, and a weighted relation that is
only probed always gets a count leaf, since a list of offsets would lose the
weights.  ``execute_bushy`` hands each materialized stage on as a weighted
relation of its distinct tuples.

A plan whose root node walks trie keys (a generic-join intersection) is
semijoin-reduced before any trie is built (Yannakakis, VLDB 1981): for each
variable two or more of the root's relations contain, every one of them but
the one with the fewest rows keeps only the rows whose value that one holds.
A relation that comes out empty ends the execution with no trie built.  A
plan whose root scans a relation (every binary plan and bushy stage) builds
over all rows.  The build, probe and intermediate counters count the reduced
relations, and the reduction's time counts as build time.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, fields
from itertools import compress
from operator import itemgetter

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
    key_paths,
    leaf_offsets,
    leaf_size,
)
from .trie import _MISSING

POLICY_HASH = "hash"
POLICY_SORTED = "sorted"
POLICY_HYBRID = "hybrid"


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
    leaves only where a relation is iterated and its declared order already
    matches the trie's key attributes, and hash structures everywhere else:
    for intermediates, which are never worth sorting and so declare no
    order, and for probe-only relations, where a hash lookup beats a bisect
    per level.
    """

    mode: str = POLICY_HYBRID

    def __post_init__(self):
        if self.mode not in (POLICY_HASH, POLICY_SORTED, POLICY_HYBRID):
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


def _result(agg: AggregationSpec, out_vars, tuples=None, count=0, minima=None) -> ResultBag:
    """The ``ResultBag`` of ``agg``'s kind over ``out_vars``; the defaults
    are the result of an empty join."""
    if agg.kind == AGG_COUNT:
        return ResultBag(AGG_COUNT, count=count)
    if agg.kind == AGG_MIN:
        return ResultBag(AGG_MIN, out_vars, minima=minima)
    return ResultBag(AGG_FULL, out_vars, {} if tuples is None else tuples)


def _semijoin_reduce(node, relations, var_attr):
    """``relations`` with those of ``node`` cut to the rows that can join:
    for each variable two or more of them contain, the one with the fewest
    rows (the first in node order on a tie) gives its values, and every other
    keeps only the rows whose value is among them.  None when a relation
    comes out empty."""
    holders: dict[str, list] = {}  # variable -> (relation, attribute) pairs
    for sub in node:
        for (name, v), attr in var_attr.items():
            if name == sub.relation:
                holders.setdefault(v, []).append((name, attr))
    out = dict(relations)
    for pairs in holders.values():
        if len(pairs) < 2:
            continue
        smallest, attr = min(pairs, key=lambda p: out[p[0]].size)
        keys = set(out[smallest].columns[attr])
        for name, attr in pairs:
            if name == smallest:
                continue
            col = out[name].columns[attr]
            keep = list(compress(range(len(col)), map(keys.__contains__, col)))
            if not keep:
                return None
            if len(keep) < len(col):
                out[name] = out[name].take(keep)
    return out


def _choose_structures(rel, levels, probe_only, policy, opts):
    """(possibly re-sorted relation, dict_kind, LeafSpec, sorted_copy_made).

    Under ``hybrid`` a probe-only relation is never walked in key order, so
    a bisect per level would buy nothing over one dict lookup.  Offsets
    cannot carry weights, so a weighted probe-only relation needs the count
    leaf whatever O4 says.
    """
    prefix_ok = rel.sorted_on(levels)
    is_sorted = policy.mode == POLICY_SORTED or (
        policy.mode == POLICY_HYBRID and prefix_ok and not probe_only
    )
    if probe_only and (opts.o4 or rel.weights is not None):
        leaf = LEAF_COUNT
    elif is_sorted:
        leaf = LEAF_RANGE
    else:
        leaf = LEAF_SMALLVEC if opts.o2 else LEAF_VEC if opts.o1 else LEAF_HASHMAP
    if is_sorted and not prefix_ok:
        return rel.sorted_copy(levels), SORTED, LeafSpec(leaf), True
    return rel, SORTED if is_sorted else HASH, LeafSpec(leaf), False


def execute(
    q: ConjunctiveQuery,
    plan: FreeJoinPlan,
    relations: dict[str, Relation],
    agg: AggregationSpec = AggregationSpec(),
    policy: StructurePolicy | None = None,
    opts: OptConfig | None = None,
    stats: ExecStats | None = None,
    intermediate_names: frozenset = frozenset(),
):
    """Run one plan over the given relations.

    Returns ``(ResultBag, ExecStats)``.  ``stats`` may be passed in to
    accumulate counters across several executions.
    """
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

    out_vars = agg.output(q.head)

    # An empty relation anywhere empties a conjunctive join.
    if any(relations[a.relation].size == 0 for a in q.atoms):
        return _result(agg, out_vars), stats

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
            return _result(agg, out_vars), stats

    multiplier = 1
    working = plan
    if opts.o3:
        info = liveness(q, plan, agg)
        working = info.pruned_plan
        for name in info.dropped_atoms:
            multiplier *= relations[name].total_weight

    t0 = time.perf_counter()
    # A generic-join root walks trie keys: semijoin-reduce its relations
    # first, so no trie indexes rows the intersection cannot reach.
    if working.nodes and len(working.subatoms_of(working.nodes[0][0].relation)) > 1:
        relations = _semijoin_reduce(working.nodes[0], relations, var_attr)
        if relations is None:
            stats.build_ms += (time.perf_counter() - t0) * 1000.0
            return _result(agg, out_vars), stats
    # One access record per atom: (relation, slots, leaf spec, is_sorted,
    # keyed parts).  The first ``keyed`` parts descend trie levels; a last
    # part that a node iterates first walks the leaf offsets (a scan walks a
    # range leaf over every row).  ``slots[i]`` is the trie node part ``i``
    # starts from: the root for ``i == 0``, else the node part ``i - 1``
    # reached.
    access = {}
    for name in sorted({s.relation for node in working.nodes for s in node}):
        subs = working.subatoms_of(name)
        rel = relations[name]
        keyed = len(subs) - 1 if subs[-1][1] == 0 else len(subs)
        if keyed:
            level_attrs = tuple(
                var_attr[(name, v)] for _, _, sub in subs[:keyed] for v in sub.vars
            )
            rel, dict_kind, spec, sorted_copy = _choose_structures(
                rel, level_attrs, keyed == len(subs), policy, opts
            )
            stats.sort_ops += sorted_copy
            trie = build_trie(rel, level_attrs, dict_kind, spec)
            stats.trie_build_insertions += trie.insertions
            stats.deep_intermediate_tries += name in intermediate_names
            root, is_sorted = trie.root, dict_kind == SORTED
        else:
            root, spec, is_sorted = range(rel.size), LeafSpec(LEAF_RANGE), False
        access[name] = (rel, [root] + [None] * len(subs), spec, is_sorted, keyed)
    stats.build_ms += (time.perf_counter() - t0) * 1000.0

    # Compile each node into (leaf spec, slots, part index, bind, weights,
    # probes).  The spec is set when the first subatom walks leaf offsets,
    # and bind is then (var, column) pairs; else it walks trie keys and bind
    # is its variable, or its variables when it spans several levels.  A
    # probe is (slots, part index, levels, leaf spec or None): it descends
    # ``levels`` from ``slots[idx]`` into ``slots[idx + 1]``, where a single
    # hash level is just its variable and any other is (var, is_sorted)
    # pairs; the spec is set for an atom's final, probe-only part, whose
    # group size multiplies.
    part = dict.fromkeys(access, 0)  # atom -> index of its next part
    nodes = []
    for node in working.nodes:
        probes = []
        for pos, sub in enumerate(node):
            rel, slots, spec, is_sorted, keyed = access[sub.relation]
            idx = part[sub.relation]
            part[sub.relation] += 1
            if pos:
                if is_sorted or len(sub.vars) != 1:
                    levels = tuple((v, is_sorted) for v in sub.vars)
                else:
                    levels = sub.vars[0]
                final = idx + 2 == len(slots)  # the atom's last part
                probes.append((slots, idx, levels, spec if final else None))
            elif idx == keyed:  # bind from the rows at each offset
                cols = rel.columns
                bind = tuple((v, cols[var_attr[(sub.relation, v)]]) for v in sub.vars)
                first = (spec, slots, idx, bind, rel.weights)
            else:
                bind = sub.vars[0] if len(sub.vars) == 1 else sub.vars
                first = (None, slots, idx, bind, None)
        nodes.append(first + (tuple(probes),))

    # A trailing run of single-subatom nodes whose iterator is terminal
    # (leaf offsets, a scan's among them) touches nothing downstream, so
    # count and min aggregates can combine those loops instead of nesting them.
    suffix_start = len(nodes)
    if opts.o5 and agg.kind in (AGG_COUNT, AGG_MIN):
        while suffix_start > 0:
            spec, _, _, _, _, probes = nodes[suffix_start - 1]
            if probes or spec is None:
                break
            suffix_start -= 1

    n_probes = n_hits = n_comps = n_inter = n_out = n_min = 0
    binding: dict[str, object] = {}
    bag: dict[tuple, int] = {}
    count = 0
    minima: list | None = None
    if len(out_vars) > 1:
        out_key = itemgetter(*out_vars)
    else:  # itemgetter of one name returns the bare value, of none fails
        out_key = lambda b: tuple(b[v] for v in out_vars)

    def fold_min(vals):
        nonlocal minima, n_min
        if minima is None:
            minima = vals
        else:
            minima = [m if m <= x else x for m, x in zip(minima, vals)]
        n_min += len(out_vars)

    def emit(mult: int):
        nonlocal count, n_out
        n_out += mult
        if agg.kind == AGG_COUNT:
            count += mult
        elif agg.kind == AGG_MIN:
            fold_min([binding[v] for v in out_vars])
        else:
            key = out_key(binding)
            bag[key] = bag.get(key, 0) + mult

    def finish_factorized(mult: int):
        nonlocal count, n_out, n_min
        total = mult
        branches = []
        for spec, slots, idx, bind, weights, _ in nodes[suffix_start:]:
            offsets = leaf_offsets(slots[idx], spec)
            if not offsets:
                return
            branches.append((offsets, bind))
            total *= len(offsets) if weights is None else sum(map(weights.__getitem__, offsets))
        n_out += total
        if agg.kind == AGG_COUNT:
            count += total
            return
        branch_min: dict[str, object] = {}
        for offsets, bind in branches:
            for v, col in bind:
                if v in out_vars:
                    branch_min[v] = min(col[off] for off in offsets)
                    n_min += len(offsets)
        fold_min([branch_min[v] if v in branch_min else binding[v] for v in out_vars])

    finish = finish_factorized if suffix_start < len(nodes) else emit

    def run(ni: int, mult: int):
        """Iterate node ``ni``'s first subatom: a leaf's row offsets, or the
        (key, child) pairs of one trie level or the (key path, child) pairs
        of several.  Per item, bind its variables, probe the other subatoms
        in order and, if all hit, recurse with the product of the row's
        weight and the probe-only group sizes."""
        nonlocal n_probes, n_hits, n_comps, n_inter
        if ni == suffix_start:
            finish(mult)
            return
        leaf, slots, idx, bind, weights, probes = nodes[ni]
        node = slots[idx]
        if leaf is not None:
            items = leaf_offsets(node, leaf)
            size = len(items)
        elif bind.__class__ is str:
            items, size = node.items(), len(node)
        else:
            items = key_paths(node, len(bind))
            size = len(items)
        if ni:
            n_inter += size
        out = idx + 1
        for item in items:
            m = mult
            if leaf is None:
                key, slots[out] = item
                if bind.__class__ is str:
                    binding[bind] = key
                else:
                    for v, k in zip(bind, key):
                        binding[v] = k
            else:
                for v, col in bind:
                    binding[v] = col[item]
                if weights is not None:
                    m *= weights[item]
            for pslots, pidx, levels, spec in probes:
                node = pslots[pidx]
                if levels.__class__ is str:  # one hash level, the common case
                    n_probes += 1
                    node = node.get(binding[levels], _MISSING)
                    if node is _MISSING:
                        break
                    n_hits += 1
                else:
                    for v, is_sorted in levels:
                        key = binding[v]
                        n_probes += 1
                        if is_sorted:
                            node, comps = node.find(key)
                            n_comps += comps
                        else:
                            node = node.get(key, _MISSING)
                        if node is _MISSING:
                            break
                        n_hits += 1
                    if node is _MISSING:
                        break
                pslots[pidx + 1] = node
                if spec is not None:
                    m *= leaf_size(node, spec)
            else:
                run(ni + 1, m)

    t1 = time.perf_counter()
    run(0, multiplier)
    stats.exec_ms += (time.perf_counter() - t1) * 1000.0
    stats.probes += n_probes
    stats.probe_hits += n_hits
    stats.comparisons += n_comps
    stats.intermediate_tuples += n_inter
    stats.output_tuples += n_out
    stats.min_ops += n_min

    return _result(agg, out_vars, bag, count, tuple(minima) if minima else None), stats


def execute_bushy(
    q: ConjunctiveQuery,
    tree,
    relations: dict[str, Relation],
    agg: AggregationSpec = AggregationSpec(),
    policy: StructurePolicy | None = None,
    opts: OptConfig | None = None,
):
    """Run a bushy join tree as a sequence of left-deep stages.

    Each non-root stage materializes its sub-join as a fresh in-memory
    relation that later stages treat like any base relation: one row per
    distinct tuple, weighted by its multiplicity.
    """
    stats = ExecStats()
    stages = decompose_bushy(q, tree, agg)
    # Plan every stage before running any: a stage that keeps no variable
    # can only be joined as a cartesian product, which planning refuses.
    sub_qs = [ConjunctiveQuery(stage.out_vars, stage.order) for stage in stages]
    plans = [
        convert_left_deep(sub_q, [a.relation for a in stage.order])
        for sub_q, stage in zip(sub_qs, stages)
    ]
    rels = dict(relations)
    made: set[str] = set()
    for stage, sub_q, plan in zip(stages, sub_qs, plans):
        result, _ = execute(
            sub_q, plan, rels, agg if stage.target is None else AggregationSpec(),
            policy, opts, stats,
            intermediate_names=frozenset(made),
        )
        if stage.target is None:
            return result, stats
        bag = result.tuples
        stats.intermediate_tuples += len(bag)
        rels[stage.target] = Relation.from_rows(
            stage.target, stage.out_vars, bag, weights=bag.values()
        )
        made.add(stage.target)
    raise ExecutionError("bushy decomposition produced no root stage")


def check_against_oracle(
    q: ConjunctiveQuery,
    relations: dict[str, Relation],
    agg: AggregationSpec,
    result: ResultBag,
) -> tuple[bool, object]:
    """Re-evaluate by brute force and compare.  Returns (ok, reference)."""
    reference = nested_loop(q, relations, agg)
    return result.matches_reference(reference), reference
