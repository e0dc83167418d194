"""Trie levels and leaves: hash and sorted dictionaries, five leaf shapes.

A trie indexes a relation by an ordered list of key attributes.  Internal
levels are dictionaries from attribute value to child; the leaf under a full
key path holds the row offsets sharing that path, in one of several
representations:

* ``hashmap`` -- dict offset -> 1, the naive baseline (optimizations off)
* ``vec``     -- plain list of offsets
* ``smallvec``-- a singleton group is the bare offset in the parent slot,
  promoted to a plain list on the second insertion (group-of-one keys are
  the common case for key joins)
* ``range``   -- (left, right) inclusive bounds, legal only when equal keys
  occupy a contiguous ascending run, i.e. the relation is sorted by the keys
* ``count``   -- just the group multiplicity, for join-only relations

Dictionaries come in two kinds: ``hash`` (a plain dict) and ``sorted``
(append-only association lists looked up with ``bisect``).  A sorted lookup
over k keys is charged ``k.bit_length()`` comparisons, the most that
``bisect_left`` makes, whether the key is found or not.  Built tries are
immutable; builders are single-writer.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

from .errors import ExecutionError, SortednessError
from .storage import Relation

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


class Range:
    """Inclusive offset bounds for a contiguous ascending run."""

    __slots__ = ("left", "right")

    def __init__(self, offset: int):
        self.left = offset
        self.right = offset

    def extend(self, offset: int) -> None:
        if offset != self.right + 1:
            raise SortednessError(
                f"range leaf: offset {offset} does not extend run ..{self.right}"
            )
        self.right = offset

    def __len__(self) -> int:
        return self.right - self.left + 1

    def __iter__(self):
        return iter(range(self.left, self.right + 1))


_MISSING = object()


class SortedDict:
    """Association list with keys in non-decreasing insertion order.

    Insertions may only touch the largest key (append a new one or revisit
    the last); lookups run ``bisect_left`` over the key list.  ``find``
    returns the value together with the comparisons charged for it:
    ``len(keys).bit_length()``, bisect's probe bound (at most
    ``ceil(log2 k) + 1``), the same for a hit and a miss.
    """

    __slots__ = ("keys", "values")

    def __init__(self):
        self.keys = []
        self.values = []

    def __len__(self) -> int:
        return len(self.keys)

    def last_key(self, default=_MISSING):
        return self.keys[-1] if self.keys else default

    def append(self, key, value) -> None:
        keys = self.keys
        if keys and key < keys[-1]:
            raise SortednessError(
                f"sorted dictionary: key {key!r} inserted after {keys[-1]!r}"
            )
        keys.append(key)
        self.values.append(value)

    def set_last(self, value) -> None:
        self.values[-1] = value

    def find(self, key):
        """Return (value_or_MISSING, comparisons)."""
        keys = self.keys
        i = bisect_left(keys, key)
        if i < len(keys) and keys[i] == key:
            return self.values[i], len(keys).bit_length()
        return _MISSING, len(keys).bit_length()

    def items(self):
        return zip(self.keys, self.values)


@dataclass
class Trie:
    """Built index over a relation.

    ``levels`` pairs each key attribute with its dictionary kind.  ``root``
    is the top-level dictionary, or directly a leaf when there are no key
    attributes.  ``insertions`` counts the per-row leaf insertions performed
    during the build.
    """

    relation: Relation
    levels: tuple[tuple[str, str], ...]
    leaf: LeafSpec
    root: object
    insertions: int

    def paths(self) -> dict[tuple, object]:
        """Map each root-to-leaf key path to its leaf."""
        out = {}

        def walk(node, depth, prefix):
            if depth == len(self.levels):
                out[prefix] = node
                return
            for key, child in node.items():
                walk(child, depth + 1, prefix + (key,))

        walk(self.root, 0, ())
        return out

    def lookup_path(self, keys):
        """Descend the full key path; returns the leaf or None."""
        node = self.root
        for (attr, kind), key in zip(self.levels, keys):
            if kind == SORTED:
                node, _ = node.find(key)
                if node is _MISSING:
                    return None
            else:
                node = node.get(key, _MISSING)
                if node is _MISSING:
                    return None
        return node


def leaf_offsets(leaf, spec: LeafSpec):
    """Iterate a non-count leaf's offsets in insertion order."""
    if spec.kind == LEAF_SMALLVEC and leaf.__class__ is int:
        return (leaf,)
    if spec.kind == LEAF_HASHMAP:
        return leaf.keys()
    return leaf


def leaf_size(leaf, spec: LeafSpec) -> int:
    """Group multiplicity of any leaf."""
    kind = spec.kind
    if kind == LEAF_COUNT:
        return leaf
    if kind == LEAF_SMALLVEC and leaf.__class__ is int:
        return 1
    return len(leaf)


def _new_dict(kind: str):
    return SortedDict() if kind == SORTED else {}


def build_trie(rel: Relation, key_attrs, dict_kind: str, leaf: LeafSpec) -> Trie:
    """Build a trie with one level per key attribute, one insertion per row.

    A sorted dictionary requires the relation to be sorted with the key
    attributes as a prefix of its declared order; a range leaf additionally
    requires sorted dictionaries (contiguity comes from the sort).
    """
    key_attrs = tuple(key_attrs)
    for a in key_attrs:
        if a not in rel.attrs:
            raise ExecutionError(f"build_trie: {rel.name} has no attribute {a!r}")
    if dict_kind == SORTED:
        declared = rel.sorted_by or ()
        if declared[: len(key_attrs)] != key_attrs:
            raise SortednessError(
                f"build_trie: sorted dictionaries over {key_attrs} require "
                f"{rel.name} sorted by that prefix (declared: {declared})"
            )
    elif dict_kind != HASH:
        raise ExecutionError(f"unknown dictionary kind {dict_kind!r}")
    if leaf.kind == LEAF_RANGE and dict_kind != SORTED:
        raise ExecutionError("range leaves require sorted dictionaries")
    if leaf.kind not in (LEAF_HASHMAP, LEAF_VEC, LEAF_SMALLVEC, LEAF_RANGE, LEAF_COUNT):
        raise ExecutionError(f"unknown leaf kind {leaf.kind!r}")

    size = rel.size
    nlevels = len(key_attrs)
    if nlevels == 0:
        return Trie(rel, (), leaf, _zero_level_leaf(leaf, size), size)
    if dict_kind == HASH and nlevels == 1:
        root = _build_hash1(rel.columns[key_attrs[0]], leaf)
    else:
        root = _build_generic(rel, key_attrs, dict_kind, leaf)
    return Trie(rel, tuple((a, dict_kind) for a in key_attrs), leaf, root, size)


def _zero_level_leaf(leaf: LeafSpec, size: int):
    kind = leaf.kind
    if kind == LEAF_COUNT:
        return size
    if kind == LEAF_HASHMAP:
        return {i: 1 for i in range(size)}
    if kind == LEAF_RANGE:
        if size == 0:
            raise ExecutionError("range leaf cannot represent an empty group")
        r = Range(0)
        for i in range(1, size):
            r.extend(i)
        return r
    if kind == LEAF_SMALLVEC and size == 1:
        return 0
    return list(range(size))


def _build_hash1(col, leaf: LeafSpec):
    """Specialized single-level hash build; the hot path for trie creation."""
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
        for k in col:
            root[k] = get(k, 0) + 1
    elif kind == LEAF_HASHMAP:
        for off, k in enumerate(col):
            group = get(k)
            if group is None:
                root[k] = {off: 1}
            else:
                group[off] = group.get(off, 0) + 1
    else:
        raise ExecutionError(f"leaf kind {kind!r} illegal for hash dictionaries")
    return root


def _build_generic(rel: Relation, key_attrs, dict_kind: str, leaf: LeafSpec):
    root = _new_dict(dict_kind)
    cols = [rel.columns[a] for a in key_attrs]
    last = len(cols) - 1
    kind = leaf.kind
    for off in range(rel.size):
        node = root
        for depth, col in enumerate(cols):
            key = col[off]
            is_last = depth == last
            if dict_kind == SORTED:
                if node.last_key() == key:
                    child = node.values[-1]
                else:
                    child = _MISSING
                if child is _MISSING:
                    child = _fresh_leaf(kind, off) if is_last else _new_dict(dict_kind)
                    node.append(key, child)
                    if is_last:
                        break
                elif is_last:
                    node.set_last(_leaf_insert(child, kind, off))
                    break
                node = child
            else:
                child = node.get(key, _MISSING)
                if child is _MISSING:
                    child = _fresh_leaf(kind, off) if is_last else _new_dict(dict_kind)
                    node[key] = child
                    if is_last:
                        break
                elif is_last:
                    node[key] = _leaf_insert(child, kind, off)
                    break
                node = child
    return root


def _fresh_leaf(kind: str, off: int):
    if kind == LEAF_COUNT:
        return 1
    if kind == LEAF_VEC:
        return [off]
    if kind == LEAF_SMALLVEC:
        return off  # singleton inline
    if kind == LEAF_RANGE:
        return Range(off)
    return {off: 1}


def _leaf_insert(leaf, kind: str, off: int):
    """Insert into an existing leaf; returns the (possibly replaced) leaf."""
    if kind == LEAF_COUNT:
        return leaf + 1
    if kind == LEAF_SMALLVEC and leaf.__class__ is int:
        return [leaf, off]
    if kind == LEAF_VEC or kind == LEAF_SMALLVEC:
        leaf.append(off)
        return leaf
    if kind == LEAF_RANGE:
        leaf.extend(off)
        return leaf
    leaf[off] = leaf.get(off, 0) + 1
    return leaf
