"""Unified plan interpreter.

One evaluator runs every plan in the spectrum.  One pass per atom builds
its trie -- over a sorted copy when sorted dictionaries need one, one level
per subatom that descends it, keyed by the subatom's variable or by the
tuple of its variables (Free Join's generalized hash trie) -- and, where the
trie is made, compiles each of its subatoms into a part record of one shape.
An atom's last part reads leaves; each other part descends one level to a
trie node.  A plan node is the part it iterates first -- the row offsets of
a leaf (a scan walks a range leaf over every row), or the keys of one trie
level -- and the tuple of the parts it probes.

Every node runs the same iterate-then-probe step over a batch of rows, in
C-level passes over columns (``map``, ``compress``, ``chain``, and
``itemgetter`` gathers, ``storage.gather``), as in vectorized execution
(MonetDB/X100).  A batch is one dict of columns: one per bound variable,
one per trie node a later subatom starts from and, once some row can count
more than once (a weighted leaf walk, a probe-only group larger than one,
O3's multiplier or O5's tail), a multiplicity column under a reserved key
that no variable can equal.  Every column, that one too, is repeated,
compressed and sliced alike.  The first subatom expands each row by what
it iterates; a leaf walk reads its bound columns and weights at a batch's
offsets with one gather each, or, over range leaves (runs of a sorted
relation's rows) that hold enough rows on average (``_slice_pays``), as one
slice per leaf; each probe is one lookup per row, the same ``get`` on
either dictionary kind (a sorted one bisects its keys), and rows that miss
are dropped before the next.  A probe from a trie root whose last batch
died, of either dictionary kind, first tests key columns of the batch
against the root's values at their key positions with one C-level
``isdisjoint`` each, the column that dropped the last batch first, and
drops the batch at the first column that meets none, before any key tuple
is built or any row looked up: a run of dead batches costs a column test
each and a live run none (the step and its order are chosen from the last
batch's outcome, as in Vectorwise's micro-adaptivity).  A sorted root is
searched once per distinct key, in ascending order, each bisect starting
where the last one ended (Leapfrog Triejoin's seek, Veldhuizen, ICDT
2014), and the rows look up the hits; one that finds none of the keys
drops the batch.  A probe from a column of trie nodes looks each row up in
its own node.  A column is listed when first read, and a batch's cuts are
advanced past its rows after it (late materialization, Abadi et al., ICDE
2007): each column an expansion carries, a sliced bound column too, enters a
batch as a stream, its ``islice`` cut of the column's repeated values.  A
probe lists each column it reads (key columns, trie nodes, the
multiplicities), as do the next node for the trie nodes it starts from and
the result for its multiplicities and its tail's trie nodes; the next node's
repeat chain and the result's rows read a column once, straight from its
stream.  A probe that drops rows wraps every column in ``compress``, listed
or not, and a column nobody reads is never copied.  After each batch, dead
or alive, every cut is advanced past the batch's rows in C, which costs
nothing for a cut already read.  An expansion is cut into batches of at most
``BATCH`` rows, each run through the rest of the plan before the next: the
rows held per node stay bounded however far a join fans out, and results
arrive in the order a row-at-a-time nested loop emits them, walking a hash
level's keys (key tuples too) in first-seen order and a sorted level's in
ascending order.  Each batch adds its run counters (probes, hits,
comparisons, intermediates, outputs and min operations) to ``ExecStats``
and folds its rows into the ``ResultBag``: ``count`` sums the
multiplicities, ``min`` takes a per-column minimum, and a full result adds
the rows to its bag in first-seen order, by C-level counting when every row
counts once.  The counters count what a row-at-a-time loop would, whatever
the batch size; a probe counts one lookup per row per probe subatom, also
where its batch's keys were searched once each.  The build counters are
added once per trie; a sorted lookup over k keys counts ``k.bit_length()``
comparisons, hit or miss, charged per row and batch from the looked-up
levels' sizes rather than by calling ``SortedDict.find``.

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
relation of its distinct tuples, together with the bag it was made from.  A
later stage that probes it on its whole tuple of two or more attributes,
under hash dictionaries with count leaves, probes that bag as the trie's one
level instead of building it: the build would make the same dict, the same
keys in the same first-seen order, each mapped to its weight.  A sorted
trie, a stage that a node walks, a level keyed by only some attributes and
a one-attribute stage (whose level holds bare values, not 1-tuples) are
built as before.

A plan whose root node walks trie keys (a generic-join intersection) is
semijoin-reduced before any trie is built (Yannakakis, VLDB 1981): for each
variable two or more of the root's relations contain, every one of them but
the one with the fewest rows keeps only the rows whose value that one holds.
A relation whose declared order starts with the variable's attribute finds
those rows as key ranges, two bisects per value (Leapfrog Triejoin's row
ranges), when that is cheaper than testing every row: for k values over
n rows, when 3 * k * log2(n) <= n.  Any other relation tests every row;
both give the same ascending offsets.
A relation that comes out empty ends the execution with no trie built, as
does a variable whose columns differ in kind (an int never equals a str),
before any reduction.  A plan whose root scans a relation (every binary
plan and bushy stage) builds over all rows.  The build, probe and
intermediate counters count the reduced relations, and the reduction's
time counts as build time.
"""

from __future__ import annotations

import json
import time
from bisect import bisect_left, bisect_right
# The C helper behind ``Counter.update``: it counts an iterable into any
# mapping, a plain dict included, adding keys in first-seen order.  The full
# result's fold relies on it for speed and for that order.
from collections import _count_elements
from dataclasses import dataclass, fields
from itertools import accumulate, chain, compress, islice, repeat
from operator import attrgetter, is_not, methodcaller, mul, sub

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
from .storage import Relation, gather
from .trie import (
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
    leaves_offsets,
    leaves_sizes,
)
from .trie import _MISSING

POLICY_HASH = "hash"
POLICY_SORTED = "sorted"
POLICY_HYBRID = "hybrid"

# Rows per batch: each plan node runs over at most this many rows at once,
# so the rows held per node stay bounded however far a join fans out.
BATCH = 1024

# A batch's key for its multiplicity column: no variable and no trie-node
# column ``(atom, part)`` can equal it.
_MULT = object()


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


def _result(agg: AggregationSpec, out_vars) -> ResultBag:
    """The ``ResultBag`` of ``agg``'s kind over ``out_vars`` for an empty
    join, which a run folds its batches into."""
    if agg.kind == AGG_COUNT:
        return ResultBag(AGG_COUNT, count=0)
    if agg.kind == AGG_MIN:
        return ResultBag(AGG_MIN, out_vars)
    return ResultBag(AGG_FULL, out_vars, {})


def _semijoin_reduce(node, relations, var_attr):
    """``relations`` with those of ``node`` cut to the rows that can join:
    for each variable two or more of them contain, the one with the fewest
    rows (the first in node order on a tie) gives its values, and every other
    keeps only the rows whose value is among them.  None when a relation
    comes out empty.  Every column of a variable holds one kind (``execute``
    returns before this when they differ), so a sorted column can be
    bisected for the values."""
    holders: dict[str, list] = {}  # variable -> (relation, attribute) pairs
    for subatom in node:
        for (name, v), attr in var_attr.items():
            if name == subatom.relation:
                holders.setdefault(v, []).append((name, attr))
    out = dict(relations)
    for pairs in holders.values():
        if len(pairs) < 2:
            continue
        smallest, key_attr = min(pairs, key=lambda p: out[p[0]].size)
        keys = set(out[smallest].columns[key_attr])
        for name, attr in pairs:
            if name == smallest:
                continue
            rel = out[name]
            col = rel.columns[attr]
            ranges = rel.sorted_on((attr,)) and _bisect_pays(len(keys), len(col))
            keep = _kept_offsets(col, keys, ranges)
            if not keep:
                return None
            if len(keep) < len(col):
                out[name] = rel.take(keep)
    return out


def _bisect_pays(keys: int, rows: int) -> bool:
    """Whether bisecting a sorted column of ``rows`` rows for ``keys``
    values beats scanning it: each of the about keys * log2(rows) bisect
    steps must save at least three scanned rows.  Measured in CPython 3.11
    on int and str columns of 200 to 200,000 rows, bisecting cost as much
    as the scan at 0.5-0.7 steps per row for ints and 0.4-0.5 for strs."""
    return 3 * keys * rows.bit_length() <= rows


def _slice_pays(rows: int, groups: int, cols: int) -> bool:
    """Whether a walk of ``groups`` range leaves over ``rows`` rows in all
    should read each of its ``cols`` bound columns (and weights) as one
    slice per leaf rather than gather them at the listed offsets: a slice
    costs per leaf, a gather per row.  Measured in CPython 3.11 on tuple
    columns of 40,000 rows, leaves visited in random order: a slice cost
    about 200 ns per leaf and column plus 100 ns per leaf, and 11 ns per
    row and column; a gather 25 ns per row plus 14 ns per row and column.
    Slicing broke even at a mean leaf of 10, 16 and 20 rows for one, two
    and three columns, and this rule asks for 12, 18 and 24."""
    return 6 * (cols + 1) * groups <= rows


def _kept_offsets(col, keys: set, ranges: bool) -> list:
    """The ascending offsets of the rows of ``col`` whose value is in
    ``keys``.  With ``ranges`` (``col`` ascending) each value's run of rows
    is found by ``bisect``; else every row is tested."""
    if ranges:
        values = sorted(keys)
        return list(chain.from_iterable(map(
            range, map(bisect_left, repeat(col), values), map(bisect_right, repeat(col), values)
        )))
    return list(compress(range(len(col)), map(keys.__contains__, col)))


def _listed(batch: dict, key):
    """Column ``key`` of ``batch``, listed in place the first time it is
    read while it is still a stream (an ``islice`` cut, or a ``compress``)."""
    col = batch[key]
    if iter(col) is col:
        col = batch[key] = list(col)
    return col


def _keys(batch: dict, pvars: tuple, n: int):
    """A probe's keys over a batch of ``n`` rows: its one variable's
    column, else a tuple per row (the empty one for no variable)."""
    if len(pvars) == 1:
        return _listed(batch, pvars[0])
    return zip(*[_listed(batch, v) for v in pvars]) if pvars else repeat((), n)


def _value_sets(level, arity: int) -> list:
    """The values at each key position of a root level keyed by ``arity``
    variables, as sets: a hash level's own key view for one variable, else
    a set per position of its key tuples."""
    keys = level.keys if level.__class__ is SortedDict else level.keys()
    if arity == 1:
        return [set(keys) if level.__class__ is SortedDict else keys]
    return list(map(set, zip(*keys)))


def _seek(level: SortedDict, keys) -> dict:
    """The entries of ``level`` under ``keys``, as a dict from each key
    found to its value.  Each distinct key is bisected once, in ascending
    order, each search starting where the last one ended, as Leapfrog
    Triejoin's seek does."""
    found = {}
    level_keys, values = level.keys, level.values
    end = len(level_keys)
    i = 0
    for key in sorted(dict.fromkeys(keys)):
        i = bisect_left(level_keys, key, i)
        if i < end and level_keys[i] == key:
            found[key] = values[i]
    return found


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
    intermediates: dict | None = None,
):
    """Run one plan over the given relations.

    Returns ``(ResultBag, ExecStats)``.  ``stats`` may be passed in to
    accumulate counters across several executions.  ``intermediates`` maps
    each relation a bushy stage materialized to the bag it was made from.
    """
    if intermediates is None:
        intermediates = {}
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

    out_vars = agg.output(q)
    result = _result(agg, out_vars)

    # An empty relation anywhere empties a conjunctive join.
    if any(relations[a.relation].size == 0 for a in q.atoms):
        return result, stats

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
            return result, stats

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
            return result, stats
    # Each atom's trie is built and its parts compiled in one pass, one part
    # per subatom, into the record ``compiled[ni][pos]`` = (start, root,
    # bind, spec, child, weights) of the node that reads it.  Part 0 starts
    # from ``root``; part ``i`` from the column ``start`` = ``(atom, i)`` of
    # trie nodes that part ``i - 1`` reached.  An atom's last part reads
    # leaves: ``spec`` and ``weights`` are set, and ``bind`` is (var,
    # column) pairs when its node iterates it first -- it walks the leaf
    # offsets (a scan walks a range leaf over every row) -- and else its
    # variables, a probe whose group sizes multiply.  Every other part
    # descends the trie level keyed by its variables ``bind``, and the
    # nodes it reaches form the column ``child`` = ``(atom, i + 1)``.
    compiled = [[None] * len(node) for node in working.nodes]
    for name in sorted({s.relation for node in working.nodes for s in node}):
        subs = working.subatoms_of(name)
        rel = relations[name]
        walked = subs[-1][1] == 0  # a node iterates the last part first
        keyed = subs[:-1] if walked else subs  # the parts that descend a level each
        if keyed:
            levels = [tuple(var_attr[(name, v)] for v in subatom.vars) for _, _, subatom in keyed]
            rel, dict_kind, spec, sorted_copy = _choose_structures(
                rel, tuple(chain.from_iterable(levels)), not walked, policy, opts
            )
            stats.sort_ops += sorted_copy
            bag = intermediates.get(name)
            # A stage's bag is the hash level of its whole tuples with count
            # leaves: distinct keys in first-seen order, each mapped to its
            # weight.  A one-attribute stage's level holds bare values, and a
            # semijoin reduction would have cut rows from the relation.
            if (bag is not None and dict_kind == HASH and spec.kind == LEAF_COUNT
                    and levels == [rel.attrs] and len(rel.attrs) > 1 and len(bag) == rel.size):
                root = bag
            else:
                key_attrs = [a[0] if len(a) == 1 else a for a in levels]
                root = build_trie(rel, key_attrs, dict_kind, spec).root
            stats.trie_build_insertions += rel.size
            stats.deep_intermediate_tries += bag is not None
        else:
            root, spec = range(rel.size), LeafSpec(LEAF_RANGE)
        for idx, (ni, pos, subatom) in enumerate(subs):
            last = idx == len(subs) - 1
            bind = subatom.vars
            if last and not pos:  # bind from the rows at each offset
                bind = tuple((v, rel.columns[var_attr[(name, v)]]) for v in bind)
            compiled[ni][pos] = ((name, idx) if idx else None, root, bind, spec if last else None,
                                 (name, idx + 1), rel.weights if last else None)
    stats.build_ms += (time.perf_counter() - t0) * 1000.0
    nodes = [(first, tuple(probes)) for first, *probes in compiled]

    # A trailing run of single-subatom nodes whose iterator is terminal
    # (leaf offsets, a scan's among them) touches nothing downstream, so
    # count and min aggregates can combine those loops instead of nesting them.
    suffix_start = len(nodes)
    if opts.o5 and agg.kind in (AGG_COUNT, AGG_MIN):
        while suffix_start > 0:
            (_, _, _, spec, _, _), probes = nodes[suffix_start - 1]
            if probes or spec is None:
                break
            suffix_start -= 1
    tail = nodes[suffix_start:]

    # The columns that node ``ni``'s probes, a later node or the result read
    # (``needed``): an expansion carries only those.
    live = {_MULT, *out_vars}.union(start for (start, _, _, _, _, _), _ in tail)
    needed = [None] * suffix_start
    for ni in range(suffix_start - 1, -1, -1):
        (start, _, _, _, _, _), probes = nodes[ni]
        needed[ni] = live = live.union(*((pstart, *pvars) for pstart, _, pvars, _, _, _ in probes))
        live = live | {start}

    dead = set()  # the probes (by ``child``) whose last batch no row survived
    # A dead root probe's (value set, key variable) pairs, by ``child``, the
    # pair whose column dropped the last batch first.
    values = {}

    def probe(batch, n, probes):
        """Run ``probes`` in order over a batch of ``n`` rows, one lookup per
        row each, dropping a row that misses from every column, and return
        the rows left.  A lookup is ``get`` on a dictionary, whichever its
        kind: a probe from a column of trie nodes maps the level class's
        ``get`` over it, and a probe from the root maps a plain dict's:
        the root's hits among the batch's distinct keys (``_seek``) for a
        sorted root, a hash root itself.  When this probe's last batch
        died, a root probe of either kind first tests key columns against
        the root's values at their positions (``_value_sets``, made on the
        probe's first dead batch and kept for this call only), the column
        that dropped the last batch first, and drops the batch at the first
        disjoint one, before its keys are built.  A sorted root whose seek
        finds none of the keys drops the batch too, before any per-row
        lookup.  A sorted level's comparisons are charged in bulk, before
        any row is dropped: ``k.bit_length()`` for each row whose lookup
        met k keys, hit or miss, as a row-at-a-time loop counts them.  A
        column is listed when first read (``_listed``), and a drop wraps
        every column, listed or not, in ``compress``.  A probe adds the trie
        nodes it reaches to the batch as a column, or, for an atom's last
        part, multiplies the multiplicity column by the group sizes.
        Lookups, hits and comparisons go to ``ExecStats`` per probe."""
        for start, root, pvars, spec, child, _ in probes:
            stats.probes += n
            if root.__class__ is SortedDict:
                stats.comparisons += (len(root).bit_length() * n if start is None else sum(
                    map(int.bit_length, map(len, map(attrgetter("keys"), _listed(batch, start))))))
            if start is None:
                if child in dead:
                    if child not in values:
                        values[child] = list(zip(_value_sets(root, len(pvars)), pvars))
                    for i, (v, var) in enumerate(values[child]):
                        if v.isdisjoint(_listed(batch, var)):
                            values[child].insert(0, values[child].pop(i))
                            return 0
                if root.__class__ is SortedDict:
                    root = _seek(root, _keys(batch, pvars, n))
                    if not root:
                        dead.add(child)
                        return 0
                node = list(map(root.get, _keys(batch, pvars, n), repeat(_MISSING)))
            else:
                node = list(map(root.__class__.get, _listed(batch, start), _keys(batch, pvars, n),
                                repeat(_MISSING)))
            miss = node.count(_MISSING)
            stats.probe_hits += n - miss
            if miss == n:
                dead.add(child)
                return 0
            dead.discard(child)
            if miss:
                keep = list(map(is_not, node, repeat(_MISSING)))
                for key, col in batch.items():
                    batch[key] = compress(col, keep)
                node = list(compress(node, keep))
                n -= miss
            if spec is None:
                batch[child] = node
            else:
                sizes = leaves_sizes(node, spec)
                if _MULT in batch:
                    batch[_MULT] = list(map(mul, batch[_MULT], sizes))
                elif sizes.count(1) != n:
                    batch[_MULT] = sizes
        return n

    def finish(batch, n):
        """Fold a batch of ``n`` satisfying rows into the ``ResultBag`` and
        its outputs into ``ExecStats``.  The factorized tail multiplies each
        row by its leaves' sizes (or weights) and, for ``min``, folds in each
        leaf's least value instead of walking it.  A tail part that scans a
        relation has one group, which serves every row: it is read once per
        batch, and its size is charged per row."""
        mults = _listed(batch, _MULT) if _MULT in batch else None
        least = {}
        for (start, root, bind, spec, _, weights), _ in tail:
            groups = leaves_offsets([root] if start is None else _listed(batch, start), spec)
            sizes = list(map(len, groups))
            if weights is not None or agg.kind == AGG_MIN:
                get = gather(list(chain.from_iterable(groups)))
            counts = sizes
            if weights is not None:  # each group's weight sum, from the prefix sums at its ends
                upto = list(accumulate(get(weights), initial=0))
                ends = gather(list(accumulate(sizes, initial=0)))(upto)
                counts = list(map(sub, islice(ends, 1, None), ends))
            if start is None:  # a scan: its one group serves every row
                sizes, counts = sizes * n, counts * n
            mults = counts if mults is None else list(map(mul, mults, counts))
            if agg.kind == AGG_MIN:
                for v, col in bind:
                    if v in out_vars:
                        least[v] = min(get(col))
                        stats.min_ops += sum(sizes)
        total = n if mults is None else sum(mults)
        stats.output_tuples += total
        if agg.kind == AGG_COUNT:
            result.count += total
        elif agg.kind == AGG_MIN:
            vals = [least[v] if v in least else min(batch[v]) for v in out_vars]
            minima = result.minima
            result.minima = tuple(vals) if minima is None else tuple(map(min, minima, vals))
            stats.min_ops += len(out_vars) * n
        else:
            bag = result.tuples
            rows = zip(*map(batch.__getitem__, out_vars)) if out_vars else repeat((), n)
            if mults is None or mults.count(1) == n:
                _count_elements(bag, rows)
            else:
                get = bag.get
                for row, mult in zip(rows, mults):
                    bag[row] = get(row, 0) + mult

    def run(ni: int, batch: dict, n: int):
        """Expand a batch of ``n`` rows by node ``ni``'s first part -- each
        row by its leaf's row offsets, when the part is its atom's last, or
        by the (key, child) pairs of one trie level, a key tuple unzipped
        into a column per variable -- then probe the node's other parts and
        recurse, at most ``BATCH`` rows at a time and in row order.
        ``batch`` is one dict of columns, the multiplicities under ``_MULT``
        once some row counts more than once; each expansion adds its
        intermediates to ``ExecStats``.

        Each column the node carries is an iterator over the expanded rows:
        a column of ``batch``, listed or still a stream, repeated per row,
        or, when ``_slice_pays``, a range walk's bound column read one
        slice per leaf.  It enters each batch as its ``islice`` cut; a
        column is listed when first read, and a batch's cuts are advanced
        past its rows after it, so every carried iterator stays aligned."""
        if ni == suffix_start:
            finish(batch, n)
            return
        (start, root, bind, spec, child, weights), probes = nodes[ni]
        starts = [root] * n if start is None else _listed(batch, start)
        if spec is not None:
            groups = leaves_offsets(starts, spec)
            items = chain.from_iterable(groups)
        else:
            groups = starts
            items = chain.from_iterable(map(methodcaller("items"), starts))
        sizes = list(map(len, groups))
        total = sum(sizes)
        if ni:
            stats.intermediate_tuples += total
        carried = {key: chain.from_iterable(map(repeat, col, sizes))
                   for key, col in batch.items() if key in needed[ni]}
        sliced = (spec is not None and spec.kind == LEAF_RANGE
                  and _slice_pays(total, len(groups), len(bind) + (weights is not None)))
        if sliced:  # each range leaf is one run of rows: one slice per column
            spans = list(map(slice, map(attrgetter("start"), groups), map(attrgetter("stop"), groups)))
            carried.update((v, chain.from_iterable(map(col.__getitem__, spans))) for v, col in bind)
            if weights is not None:
                weighs = chain.from_iterable(map(weights.__getitem__, spans))
        size = BATCH
        for done in range(0, total, size):
            cnt = min(size, total - done)
            cuts = {key: islice(col, cnt) for key, col in carried.items()}
            out = dict(cuts)
            if spec is None:
                keys, out[child] = zip(*islice(items, cnt))
                out.update(zip(bind, (keys,) if len(bind) == 1 else zip(*keys)))
            elif not sliced:
                get = gather(list(islice(items, cnt)))
                for v, col in bind:
                    out[v] = get(col)
            if weights is not None:
                w = list(islice(weighs, cnt)) if sliced else get(weights)
                out[_MULT] = list(map(mul, out[_MULT], w)) if _MULT in out else w
            m = probe(out, cnt, probes)
            if m:
                run(ni + 1, out, m)
            # Only this node's probes read a dead batch, and each lists or
            # replaces what it reads, so a cut still in one is unread: its
            # rows are skipped on the column itself, one C-level layer fewer.
            for key, cut in cuts.items():
                next(islice(carried[key] if not m and out[key] is cut else cut, cnt, cnt), None)

    t1 = time.perf_counter()
    run(0, {} if multiplier == 1 else {_MULT: [multiplier]}, 1)
    stats.exec_ms += (time.perf_counter() - t1) * 1000.0
    return result, stats


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
    distinct tuple, weighted by its multiplicity.  Its bag goes along, so a
    later stage that probes it on its whole tuple reads the bag instead of
    building a trie over it.
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
    bags: dict[str, dict] = {}
    # ``decompose_bushy`` appends the root stage last; every stage before it
    # materializes.
    full = AggregationSpec(AGG_FULL)
    for stage, sub_q, plan in zip(stages[:-1], sub_qs, plans):
        result, _ = execute(sub_q, plan, rels, full, policy, opts, stats, bags)
        bag = bags[stage.target] = result.tuples
        stats.intermediate_tuples += len(bag)
        rels[stage.target] = Relation.from_rows(
            stage.target, stage.out_vars, bag, weights=bag.values()
        )
    # The root stage's head is the output, so its aggregate names no
    # variable: one that a COUNT names may not occur in the root's body.
    return execute(sub_qs[-1], plans[-1], rels, AggregationSpec(agg.kind),
                   policy, opts, stats, bags)


def check_against_oracle(
    q: ConjunctiveQuery,
    relations: dict[str, Relation],
    agg: AggregationSpec,
    result: ResultBag,
) -> tuple[bool, object]:
    """Re-evaluate by brute force and compare.  Returns (ok, reference)."""
    reference = nested_loop(q, relations, agg)
    return result.matches_reference(reference), reference
