"""Trie levels and leaves: hash and sorted dictionaries, five leaf shapes.

A trie indexes a relation by an ordered list of levels, each keyed by one
attribute's values or by the tuples of several attributes' values (Free
Join's generalized hash trie).  Internal levels are dictionaries from key to
child; the leaf under a full key path holds the row offsets sharing that
path, in one of several representations:

* ``hashmap`` -- dict offset -> 1, the naive baseline (optimizations off)
* ``vec``     -- plain list of offsets
* ``smallvec``-- a singleton group is the bare offset in the parent slot,
  promoted to a plain list on the second insertion (group-of-one keys are
  the common case for key joins)
* ``range``   -- a builtin ``range`` of offsets, legal only when equal keys
  occupy a contiguous ascending run, i.e. the relation is sorted by the keys
* ``count``   -- just the group multiplicity, for join-only relations: the
  number of rows, or the sum of their weights in a weighted relation

Dictionaries come in two kinds: ``hash`` (a plain dict) and ``sorted``
(association lists in key order, looked up with ``bisect``).  Both answer
``get(key, default)`` alike, so a lookup reads the same whatever the kind.
A sorted lookup over k keys is charged ``k.bit_length()`` comparisons, the
most that ``bisect_left`` makes, whether the key is found or not; ``find``
pairs a lookup with that charge, and a caller that looks up many keys may
charge it in bulk instead.

A hash trie groups the rows on their whole key path in one pass over the
rows, then nests the paths into one dictionary per level, keys (key tuples
too) in first-seen order.  A sorted trie is built from run boundaries: in a
relation sorted by the key attributes every key prefix occupies a
contiguous run of rows, so the build finds where runs start with C-level
passes over the key columns (a tuple level's column holds its tuples, which
compare lexicographically), makes one leaf per deepest run and folds the
runs upward into sorted dictionaries; Python code runs once per group, not
once per row.  A trie without levels is one run of every row.  Built tries
are immutable; builders are single-writer.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate, chain, compress, count, islice, repeat
from operator import ne, or_, sub

from .errors import ExecutionError, SortednessError, names_tuple
from .storage import Relation, gather

HASH = "hash"
SORTED = "sorted"

LEAF_HASHMAP = "hashmap"
LEAF_VEC = "vec"
LEAF_SMALLVEC = "smallvec"
LEAF_RANGE = "range"
LEAF_COUNT = "count"


@dataclass(frozen=True)
class LeafSpec:
    kind: str


_MISSING = object()


class SortedDict:
    """Association list with keys in non-decreasing order.

    ``keys`` and ``values`` are parallel lists, handed over whole by the
    sorted build; ``append`` may only add a key no smaller than the last.
    ``get`` looks a key up as ``dict.get`` does, with one ``bisect_left``
    over the key list.  ``find`` returns the value together with the
    comparisons charged for it: ``len(keys).bit_length()``, bisect's probe
    bound (at most ``ceil(log2 k) + 1``), the same for a hit and a miss.
    """

    __slots__ = ("keys", "values")

    def __init__(self, keys=None, values=None):
        self.keys = [] if keys is None else keys
        self.values = [] if values is None else values

    def __len__(self) -> int:
        return len(self.keys)

    def append(self, key, value) -> None:
        keys = self.keys
        if keys and key < keys[-1]:
            raise SortednessError(
                f"sorted dictionary: key {key!r} inserted after {keys[-1]!r}"
            )
        keys.append(key)
        self.values.append(value)

    def get(self, key, default=None):
        """The value under ``key``, else ``default``."""
        keys = self.keys
        i = bisect_left(keys, key)
        if i < len(keys) and keys[i] == key:
            return self.values[i]
        return default

    def find(self, key):
        """Return (value_or_MISSING, comparisons)."""
        return self.get(key, _MISSING), len(self.keys).bit_length()

    def items(self):
        return zip(self.keys, self.values)


@dataclass
class Trie:
    """Built index over a relation.

    ``levels`` pairs each level's attribute, or tuple of attributes, with
    its dictionary kind.  ``root`` is the top-level dictionary, or directly
    a leaf when there are no levels.  ``insertions`` counts the rows indexed.
    """

    levels: tuple[tuple[str | tuple[str, ...], str], ...]
    leaf: LeafSpec
    root: object
    insertions: int

    def paths(self) -> dict[tuple, object]:
        """Map each root-to-leaf key path, flattened, to its leaf."""
        pairs = [((), self.root)]
        for key_attr, _ in self.levels:
            tupled = key_attr.__class__ is tuple
            pairs = [(path + (key if tupled else (key,)), child)
                     for path, node in pairs for key, child in node.items()]
        return dict(pairs)


def leaf_offsets(leaf, spec: LeafSpec):
    """A non-count leaf's offsets in insertion order, as a sized iterable (a
    ``hashmap`` leaf iterates its keys, which are its offsets)."""
    return leaves_offsets((leaf,), spec)[0]


def leaf_size(leaf, spec: LeafSpec) -> int:
    """Group multiplicity of any leaf; for a non-count leaf, its number of
    offsets, which is the multiplicity only when the rows are unweighted."""
    return leaves_sizes((leaf,), spec)[0]


def leaves_offsets(leaves, spec: LeafSpec):
    """``leaf_offsets`` of each of a sequence of non-count leaves, as a
    sequence: only a ``smallvec`` leaf's bare offset needs wrapping, so
    every other kind returns ``leaves`` itself."""
    if spec.kind == LEAF_SMALLVEC:
        return [(leaf,) if leaf.__class__ is int else leaf for leaf in leaves]
    return leaves


def leaves_sizes(leaves, spec: LeafSpec):
    """``leaf_size`` of each of a sequence of leaves, as a sequence: a count
    leaf's size is the leaf itself, a ``smallvec`` leaf's bare offset is a
    group of one, and any other leaf's size is its length."""
    kind = spec.kind
    if kind == LEAF_COUNT:
        return leaves
    if kind == LEAF_SMALLVEC:
        return [1 if leaf.__class__ is int else len(leaf) for leaf in leaves]
    return list(map(len, leaves))


def build_trie(rel: Relation, key_attrs, dict_kind: str, leaf: LeafSpec) -> Trie:
    """Build a trie with one level per ``key_attrs`` entry, one insertion per
    row: an attribute keys its level by its values, a tuple of attributes
    by the tuples of theirs (the empty tuple by ``()``).

    Sorted dictionaries require the entries' attributes to start the
    relation's declared order, verified when it was built; a range leaf
    requires sorted dictionaries (contiguity comes from the sort).
    """
    key_attrs = names_tuple(key_attrs, ExecutionError, "build_trie")
    flat = tuple(chain.from_iterable(a if a.__class__ is tuple else (a,) for a in key_attrs))
    for a in flat:
        if a not in rel.attrs:
            raise ExecutionError(f"build_trie: {rel.name} has no attribute {a!r}")
    if dict_kind == SORTED:
        if not rel.sorted_on(flat):
            raise SortednessError(
                f"build_trie: sorted dictionaries over {flat} require "
                f"{rel.name} sorted by that prefix (declared: {rel.sorted_by or ()})"
            )
    elif dict_kind != HASH:
        raise ExecutionError(f"unknown dictionary kind {dict_kind!r}")
    if leaf.kind == LEAF_RANGE and dict_kind != SORTED:
        raise ExecutionError("range leaves require sorted dictionaries")
    if leaf.kind not in (LEAF_HASHMAP, LEAF_VEC, LEAF_SMALLVEC, LEAF_RANGE, LEAF_COUNT):
        raise ExecutionError(f"unknown leaf kind {leaf.kind!r}")

    size = rel.size
    weights = rel.weights
    if not key_attrs:
        if size == 0 and leaf.kind == LEAF_RANGE:
            raise ExecutionError("range leaf cannot represent an empty group")
        return Trie((), leaf, _run_leaves(leaf.kind, [0], [size], weights)[0], size)
    # A tuple entry's column holds its tuples, the empty one () per row.
    cols = [rel.columns[a] if a.__class__ is not tuple
            else list(zip(*map(rel.columns.__getitem__, a))) or [()] * size for a in key_attrs]
    if dict_kind == SORTED:
        root = _build_sorted(cols, leaf, weights)
    elif len(cols) == 1:
        root = _build_hash1(cols[0], leaf, weights)
    else:
        root = _nest(_build_hash1(zip(*cols), leaf, weights))
    return Trie(tuple((a, dict_kind) for a in key_attrs), leaf, root, size)


def _build_hash1(col, leaf: LeafSpec, weights=None):
    """Hash dictionary from each row's key in ``col`` (a level's key, or a
    path of them) to the leaf of the rows holding it; the hot path for trie
    creation.  ``weights`` (None: all 1) only matter to count leaves."""
    root: dict = {}
    get = root.get
    kind = leaf.kind
    if kind == LEAF_VEC:
        for off, k in enumerate(col):
            group = get(k)
            if group is None:
                root[k] = [off]
            else:
                group.append(off)
    elif kind == LEAF_SMALLVEC:
        for off, k in enumerate(col):
            group = get(k, _MISSING)
            if group is _MISSING:
                root[k] = off  # singleton stored inline
            elif group.__class__ is int:
                root[k] = [group, off]
            else:
                group.append(off)
    elif kind == LEAF_COUNT:
        for k, w in zip(col, repeat(1) if weights is None else weights):
            root[k] = get(k, 0) + w
    else:  # hashmap; build_trie has refused every other kind
        for off, k in enumerate(col):
            group = get(k)
            if group is None:
                root[k] = {off: 1}
            else:
                group[off] = group.get(off, 0) + 1
    return root


def _nest(flat):
    """Nested dictionaries from one keyed by whole key paths (one key per
    level), each level's keys in first-seen order."""
    root: dict = {}
    for path, leaf in flat.items():
        node = root
        for key in path[:-1]:
            child = node.get(key)
            if child is None:
                child = node[key] = {}
            node = child
        node[path[-1]] = leaf
    return root


def _build_sorted(cols, leaf: LeafSpec, weights=None):
    """Sorted trie over key columns the rows are sorted by, from run starts.

    Row i starts a run at depth d when any of ``cols[:d + 1]`` differs
    between rows i - 1 and i; each deepest run becomes one leaf, and the
    runs of depth d + 1 inside one run of depth d become one dictionary.
    """
    n = len(cols[0])
    if n == 0:
        return SortedDict()
    starts = []  # per depth: the rows where its runs start
    flags = []  # per depth: for rows 1..n-1, whether a run starts there
    changed = None
    for col in cols:
        step = map(ne, islice(col, 1, None), col)
        changed = list(step if changed is None else map(or_, changed, step))
        flags.append(changed)
        runs = [0]
        runs.extend(compress(range(1, n), changed))
        starts.append(runs)

    lo = starts[-1]
    hi = lo[1:]
    hi.append(n)
    nodes = _run_leaves(leaf.kind, lo, hi, weights)

    for depth in range(len(cols) - 1, 0, -1):
        keys = list(gather(starts[depth])(cols[depth]))
        # Index, among this depth's runs, of each run that starts a parent run.
        bounds = [0]
        bounds.extend(compress(count(1), compress(flags[depth - 1], flags[depth])))
        ends = bounds[1:]
        ends.append(len(nodes))
        nodes = [SortedDict(keys[a:b], nodes[a:b]) for a, b in zip(bounds, ends)]
    return SortedDict(list(gather(starts[0])(cols[0])), nodes)


def _run_leaves(kind: str, lo, hi, weights=None):
    """One leaf per run of rows ``lo[i]`` to ``hi[i] - 1``.  A weighted
    count leaf is a difference of the weights' prefix sums."""
    if kind == LEAF_RANGE:
        return list(map(range, lo, hi))
    if kind == LEAF_COUNT:
        if weights is None:
            return list(map(sub, hi, lo))
        upto = list(accumulate(weights, initial=0))
        return list(map(sub, map(upto.__getitem__, hi), map(upto.__getitem__, lo)))
    if kind == LEAF_VEC:
        return list(map(list, map(range, lo, hi)))
    if kind == LEAF_SMALLVEC:
        return [a if b - a == 1 else list(range(a, b)) for a, b in zip(lo, hi)]
    return list(map(dict.fromkeys, map(range, lo, hi), repeat(1)))
