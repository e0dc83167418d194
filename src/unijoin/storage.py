"""Columnar in-memory relations and data ingestion.

A relation stores one Python tuple per attribute.  Cell values are either
Python ints, of any size, or strings; a column never mixes the two.  A CSV
``int`` field reads as Python's ``int`` reads it, so ``99999999999999999999999``
loads as itself, ``1_000`` as 1000 and `` 3 `` as 3.  ``load_csv`` reads a
file in blocks that end at a line end, checks each block's field counts in
one pass over its bytes, and reads a block of plain decimal ints under an
all-``int`` schema with one ``json.loads``; any other block goes through
``str.split`` and ``int``.  Relations are
immutable: a frozen dataclass whose columns (behind a read-only mapping),
weights and ``sorted_by`` are tuples.  A relation may carry a ``sorted_by``
declaration asserting that rows are lexicographically non-decreasing over
the named attributes.  It is verified once, at construction, and so holds
for the relation's lifetime.

A relation may also carry a weight column: one positive int per row, the
row's multiplicity.  A row of weight w means the same as w copies of it, so
a materialized intermediate stores each distinct tuple once.

Rows are read by offset through ``gather``: one ``itemgetter`` call returns
a column's items at a whole list of offsets.
"""

from __future__ import annotations

import json
from collections.abc import Mapping
from dataclasses import dataclass, field
from itertools import compress, count, islice, repeat
from operator import eq, ge, gt, itemgetter, le, lt, ne
from types import MappingProxyType

from .errors import LoadError, SchemaError, SortednessError, names_tuple

INT = "int"
STR = "str"
KINDS = (INT, STR)


def gather(offsets):
    """A function from a sequence to the tuple of its items at ``offsets``
    (a list, tuple or range), in that order.

    Many offsets make one ``itemgetter``, which gathers them in one C call:
    in CPython 3.11 and 3.13 on a 2-vCPU x86-64 VM, 14-22 ns per item,
    where mapping a tuple column's ``__getitem__`` over them cost 46-67 ns
    (one method-wrapper call per item).  Build it once and apply it to
    every column read at the same offsets.  ``itemgetter`` of one index
    returns the bare item and of none raises, so those two cases are
    handled here.
    """
    if len(offsets) > 1:
        return itemgetter(*offsets)
    if offsets:
        i = offsets[0]
        return lambda seq: (seq[i],)
    return lambda seq: ()


def kind_of(value) -> str:
    """Classify a cell value, rejecting anything but int and str."""
    # bool is an int subclass; it is not a legal cell value.
    if value.__class__ is int:
        return INT
    if value.__class__ is str:
        return STR
    raise SchemaError(f"unsupported value {value!r} of type {type(value).__name__}")


@dataclass(frozen=True)
class Relation:
    """Named columnar table, immutable once built.

    ``columns`` maps each attribute in ``attrs`` to a tuple of equal length,
    through a read-only mapping.  Duplicate rows are meaningful: the engine
    uses bag semantics throughout.  ``weights`` is None (every row counts
    once) or a tuple of positive ints, one per row, each the number of times
    its row counts.  The constructor also accepts lists and plain dicts, and
    stores tuple copies of them; a bare string of attribute names, in
    ``attrs`` or ``sorted_by``, is refused.
    """

    name: str
    attrs: tuple[str, ...]
    columns: Mapping[str, tuple] = field(repr=False)
    sorted_by: tuple[str, ...] | None = None
    weights: tuple[int, ...] | None = field(default=None, repr=False)

    def __post_init__(self):
        owner = f"relation {self.name}"
        object.__setattr__(self, "attrs", names_tuple(self.attrs, SchemaError, owner))
        if len(set(self.attrs)) != len(self.attrs):
            raise SchemaError(f"relation {self.name}: duplicate attribute names {self.attrs}")
        if set(self.columns) != set(self.attrs):
            raise SchemaError(f"relation {self.name}: columns do not match attrs")
        # ``tuple`` of a tuple is the tuple itself, so producers that build
        # tuples pay no copy here.
        columns = {a: tuple(self.columns[a]) for a in self.attrs}
        object.__setattr__(self, "columns", MappingProxyType(columns))
        sizes = set(map(len, columns.values()))
        if len(sizes) > 1:
            raise SchemaError(f"relation {self.name}: ragged columns {sizes}")
        for attr, col in columns.items():
            # One C-level pass accepts a clean column; the loop below runs
            # only to name the first bad row.  A bool's type is bool, not int.
            if col and set(map(type, col)) not in ({int}, {str}):
                k = kind_of(col[0])
                for i, v in enumerate(col):
                    if kind_of(v) != k:
                        raise SchemaError(
                            f"relation {self.name}: column {attr} mixes kinds at row {i}"
                        )
        if self.weights is not None:
            object.__setattr__(self, "weights", tuple(self.weights))
            self._check_weights()
        if self.sorted_by is not None:
            object.__setattr__(self, "sorted_by", names_tuple(self.sorted_by, SchemaError, owner))
            unknown = set(self.sorted_by) - set(self.attrs)
            if unknown:
                raise SchemaError(f"relation {self.name}: sorted_by names unknown attrs {unknown}")
            if len(set(self.sorted_by)) != len(self.sorted_by):
                raise SchemaError(
                    f"relation {self.name}: sorted_by names an attribute twice {self.sorted_by}"
                )
            self._check_sorted()

    def _check_sorted(self) -> None:
        """Raise unless the rows are lexicographically non-decreasing over
        ``sorted_by``.  Streams the comparison in C: no per-row tuple list is
        built."""
        cols = [self.columns[a] for a in self.sorted_by]
        if len(cols) == 1:
            col = cols[0]
            descents = map(gt, col, islice(col, 1, None))
        else:
            descents = map(gt, zip(*cols), islice(zip(*cols), 1, None))
        row = next(compress(count(1), descents), None)
        if row is not None:
            raise SortednessError(
                f"relation {self.name}: sortedness over {self.sorted_by} violated at row {row}"
            )

    def _check_weights(self) -> None:
        weights = self.weights
        if len(weights) != self.size:
            raise SchemaError(
                f"relation {self.name}: {len(weights)} weights for {self.size} rows"
            )
        # One C-level pass each accepts a clean column; the loop names the
        # first bad row.  A bool's type is bool, not int.
        if weights and (set(map(type, weights)) != {int} or min(weights) < 1):
            for i, w in enumerate(weights):
                if w.__class__ is not int or w < 1:
                    raise SchemaError(
                        f"relation {self.name}: weight {w!r} at row {i} is not a positive int"
                    )

    @property
    def size(self) -> int:
        """Number of stored rows (a weighted row counts once)."""
        if not self.attrs:
            return 0
        return len(self.columns[self.attrs[0]])

    @property
    def total_weight(self) -> int:
        """Number of rows counted with their weights: the bag's size."""
        return self.size if self.weights is None else sum(self.weights)

    def sorted_on(self, keys) -> bool:
        """Whether the rows are sorted by ``keys``: the declared order
        starts with them."""
        return (self.sorted_by or ())[: len(keys)] == tuple(keys)

    def kind(self, attr: str) -> str | None:
        """Kind of a column, or None when the relation is empty."""
        col = self.columns[attr]
        return kind_of(col[0]) if col else None

    def rows(self):
        """The stored rows, each once whatever its weight."""
        cols = [self.columns[a] for a in self.attrs]
        return list(zip(*cols)) if cols else []

    @classmethod
    def from_rows(cls, name, attrs, rows, sorted_by=None, weights=None) -> "Relation":
        """Relation over ``rows`` (tuples in ``attrs`` order), with an
        optional weight per row."""
        attrs = names_tuple(attrs, SchemaError, f"relation {name}")
        rows = list(rows)
        if set(map(len, rows)) - {len(attrs)}:
            bad = next(r for r in rows if len(r) != len(attrs))
            raise SchemaError(
                f"relation {name}: row {bad!r} has arity {len(bad)}, expected {len(attrs)}"
            )
        if rows and not attrs:
            raise SchemaError(f"relation {name}: a relation without attributes holds no rows")
        cols = zip(*rows) if rows else repeat((), len(attrs))
        return cls(name, attrs, dict(zip(attrs, cols)), sorted_by, weights)

    def take(self, offsets, name: str | None = None, sorted_by=None) -> "Relation":
        """The rows at ``offsets`` in that order, each with its weight, under
        ``sorted_by`` or else this relation's declared order (re-verified)."""
        get = gather(offsets)
        weights = self.weights
        return Relation(
            name or self.name, self.attrs,
            {a: get(col) for a, col in self.columns.items()},
            sorted_by or self.sorted_by,
            None if weights is None else get(weights),
        )

    def sorted_copy(self, order: tuple[str, ...]) -> "Relation":
        """Rows re-sorted lexicographically by ``order`` then the remaining
        attrs; each row keeps its weight."""
        order = names_tuple(order, SchemaError, f"relation {self.name}")
        for a in order:
            if a not in self.attrs:
                raise SchemaError(f"relation {self.name}: unknown attribute {a!r}")
        full_order = order + tuple(a for a in self.attrs if a not in order)
        keys = list(zip(*(self.columns[a] for a in full_order)))
        return self.take(sorted(range(self.size), key=keys.__getitem__), sorted_by=full_order)


# Characters read per block by ``load_csv`` (then up to the next line end):
# large enough that its C-level passes dominate, small enough that the
# block's text and split fields add little to peak memory.
BLOCK = 4096

# ``bytes.translate(None, _NOT_SEPARATOR)`` keeps only a block's field and
# line separators; ``bytes.translate(None, _INT_BYTES)`` leaves nothing of a
# block of plain decimal ints.
_NOT_SEPARATOR = bytes(b for b in range(256) if b not in b",\n")
_INT_BYTES = b"0123456789-,\n"


def load_csv(path, name, schema, sorted_by=None) -> Relation:
    """Load a comma-separated file with a declared schema.

    ``schema`` is a list of (attr, kind) pairs with kind in {"int", "str"}.
    No header row, no quoting, UTF-8; a byte-order mark at the file's start
    is skipped, and one anywhere else is data.  Parse failures report row
    and column.
    A blank line is a row of one empty field: ``""`` under a one-column
    ``str`` schema, an error under any other.

    Columns are built from blocks in C-level passes, with no per-line work.
    A block is ``BLOCK`` characters read in text mode (so ``\r\n`` and a
    lone ``\r`` end a line) and then the rest of its last line.  Its arity
    is checked over its UTF-8 bytes: deleting every byte but ``,`` and
    ``\n`` must leave ``width - 1`` commas and a newline per line.  When
    every column is ``int`` and the block holds only digits, ``-``, ``,``
    and ``\n``, one ``json.loads`` of the fields as a list reads them all:
    over those characters a JSON value is an int, read as ``int`` reads it.
    Any other block, and one json refuses (``007``, ``-``, an empty field),
    is split once and each ``int`` column mapped through ``int``, which
    accepts ``1_000``, `` 3 ``, ``+5`` and any other text it documents.
    Either way a column is one slice of the block's fields.  On any
    failure, ``_load_error`` walks the file row by row to name the first
    bad line.
    """
    attrs = tuple(a for a, _ in schema)
    kinds = [k for _, k in schema]
    for k in kinds:
        if k not in KINDS:
            raise SchemaError(f"unknown kind {k!r} in schema for {name}")
    width = len(attrs)
    # The separators of one line; under an empty schema no line matches.
    row = b"," * (width - 1) + b"\n" if width else b""
    all_int = STR not in kinds
    cols = [[] for _ in attrs]
    try:
        with open(path, encoding="utf-8-sig") as fh:
            while text := fh.read(BLOCK) + fh.readline():
                if text[-1] != "\n":  # the last line of a file without a final newline
                    text += "\n"
                data = text.encode("utf-8")
                separators = data.translate(None, _NOT_SEPARATOR)
                lines = separators.count(b"\n")
                if separators != row * lines:
                    raise _load_error(path, attrs, kinds)
                joined = text[:-1].replace("\n", ",")
                ints = None
                if all_int and not data.translate(None, _INT_BYTES):
                    try:
                        ints = json.loads(f"[{joined}]")
                    except ValueError:  # a field json refuses, which int may still read
                        pass
                # A block of one blank line reads as no fields at all.
                if ints is not None and len(ints) == width * lines:
                    for i, col in enumerate(cols):
                        col.extend(ints[i::width])
                    continue
                flat = joined.split(",")
                for i, (col, k) in enumerate(zip(cols, kinds)):
                    col.extend(map(int, flat[i::width]) if k == INT else flat[i::width])
    except ValueError:  # a bad int, or a UnicodeDecodeError
        raise _load_error(path, attrs, kinds) from None
    cols.reverse()  # each list is freed as its tuple is made, to bound peak memory
    return Relation(name, attrs, {a: tuple(cols.pop()) for a in attrs},
                    sorted_by=sorted_by or None)


def _load_error(path, attrs, kinds) -> LoadError:
    """The error for the first bad line of a CSV file that ``load_csv``
    could not convert: bytes that are not UTF-8, a wrong field count, or a
    field that is not an int, checked in that order on each line."""

    def check(line):
        fields = line.rstrip("\n").split(",")
        if len(fields) != len(attrs):
            return f"expected {len(attrs)} fields, got {len(fields)}"
        for ci, (text, k) in enumerate(zip(fields, kinds)):
            if k == INT:
                try:
                    int(text)
                except ValueError:
                    return f"column {ci + 1} ({attrs[ci]}): {text!r} is not an integer"
        return None

    # The fallback is reached only if the file changed after ``load_csv``
    # read it.
    return _first_bad_line(path, check) or LoadError(f"{path}: cannot be loaded")


def non_utf8_error(path) -> LoadError:
    """The error for a text file that is not valid UTF-8, naming its first
    bad line (text files are decoded in blocks, so the decode error itself
    does not say which line)."""
    return _first_bad_line(path) or LoadError(f"{path}: not valid UTF-8")


def _first_bad_line(path, check=None) -> LoadError | None:
    """The error for the first line of a text file that is not valid UTF-8
    or for which ``check`` returns a message; None if every line passes.
    Lines are read as every other reader reads them: in text mode, so a
    lone carriage return ends one too, and past a leading byte-order mark.
    Each bad byte decodes to a lone surrogate, which cannot be encoded
    back."""
    with open(path, encoding="utf-8-sig", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            try:
                line.encode("utf-8")
            except UnicodeEncodeError:
                return LoadError(f"{path}:{lineno}: not valid UTF-8")
            message = check and check(line)
            if message:
                return LoadError(f"{path}:{lineno}: {message}")
    return None


_OPS = {"==": eq, "!=": ne, "<": lt, "<=": le, ">": gt, ">=": ge}


def select(rel: Relation, attr: str, op: str, value) -> Relation:
    """Filter rows by a comparison against a constant, preserving row order.

    Filtering keeps any declared sort order valid, so ``sorted_by`` carries
    over to the result, and each kept row keeps its weight.
    """
    if attr not in rel.attrs:
        raise SchemaError(f"relation {rel.name}: unknown attribute {attr!r}")
    if op not in _OPS:
        raise SchemaError(f"unknown comparison operator {op!r}")
    col_kind = rel.kind(attr)
    if col_kind is not None and kind_of(value) != col_kind:
        raise SchemaError(
            f"relation {rel.name}.{attr}: cannot compare {col_kind} column with {value!r}"
        )
    keep = compress(range(rel.size), map(_OPS[op], rel.columns[attr], repeat(value)))
    return rel.take(list(keep))


def gen_adversarial_triangle(n: int):
    """Triangle-query instance family separating binary joins from Generic Join.

    Returns relations R(a,b), S(b,c), T(c,a), each with exactly ``n`` rows,
    sorted and declared ``sorted_by`` so every dictionary policy is legal.
    Half of each relation is a hub fan that makes the first binary join
    R join S on b produce a quadratic intermediate; the intersection step of
    a worst-case optimal plan discards the fan early because its a-values
    never appear in T.  The other half is a matching of genuine triangles,
    so the output stays linear in n.
    """
    if n < 2 or n % 2:
        raise SchemaError(f"gen_adversarial_triangle: n must be even and >= 2, got {n}")
    m = n // 2
    hub_b, hub_c = 0, 1
    dead = [2 * n + i for i in range(1, m + 1)]  # a-values absent from T
    u = [3 * n + j for j in range(1, m + 1)]
    v = [4 * n + j for j in range(1, m + 1)]
    w = [5 * n + j for j in range(1, m + 1)]
    filler = [6 * n + i for i in range(1, m + 1)]  # a-values absent from R

    r_rows = [(dead[i], hub_b) for i in range(m)] + [(u[j], v[j]) for j in range(m)]
    s_rows = [(hub_b, hub_c)] * m + [(v[j], w[j]) for j in range(m)]
    t_rows = [(hub_c, filler[i]) for i in range(m)] + [(w[j], u[j]) for j in range(m)]

    def build(name, attrs, rows):
        rows = sorted(rows)
        return Relation.from_rows(name, attrs, rows, sorted_by=attrs)

    return (
        build("R", ("a", "b"), r_rows),
        build("S", ("b", "c"), s_rows),
        build("T", ("c", "a"), t_rows),
    )
