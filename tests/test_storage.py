"""Columnar relation construction, CSV loading, selection, and the
adversarial triangle generator."""

import codecs
import json
import sys
from dataclasses import FrozenInstanceError
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unijoin import storage
from unijoin.errors import LoadError, SchemaError, SortednessError
from unijoin.storage import (
    BLOCK,
    Relation,
    gather,
    gen_adversarial_triangle,
    kind_of,
    load_csv,
    select,
)


class TestGather:
    """``gather(offsets)`` reads a sequence at many offsets in one call;
    ``itemgetter`` alone would return a bare item for one offset and raise
    for none."""

    @pytest.mark.parametrize("offsets, want", [
        ([], ()),
        ([2], ("c",)),
        ([3, 0], ("d", "a")),
        ([1, 1, 4, 0, 2, 1], ("b", "b", "e", "a", "c", "b")),
    ])
    @pytest.mark.parametrize("seq_type", [tuple, list])
    def test_str_values(self, offsets, want, seq_type):
        seq = seq_type("abcde")
        assert gather(offsets)(seq) == want
        assert gather(tuple(offsets))(seq) == want

    @pytest.mark.parametrize("offsets", [range(0), range(3, 4), range(1, 3), range(5, 0, -2)])
    @pytest.mark.parametrize("seq_type", [tuple, list])
    def test_range_offsets_and_int_values(self, offsets, seq_type):
        seq = seq_type(range(10, 16))
        got = gather(offsets)(seq)
        assert got.__class__ is tuple
        assert got == tuple(seq[i] for i in offsets)

    def test_one_getter_serves_many_sequences(self):
        get = gather([1])
        assert (get((5, 6)), get(["x", "y"])) == ((6,), ("y",))
        get = gather([1, 0])
        assert (get((5, 6)), get(["x", "y"])) == ((6, 5), ("y", "x"))
        with pytest.raises(IndexError):
            gather([2])((5, 6))

    @given(
        st.one_of(st.lists(st.integers(), min_size=1), st.lists(st.text(), min_size=1)),
        st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_item_by_item(self, values, data):
        offsets = data.draw(st.lists(st.integers(0, len(values) - 1), max_size=40))
        for seq in (values, tuple(values)):
            assert gather(offsets)(seq) == tuple(seq[i] for i in offsets)


class TestKinds:
    def test_int_and_str(self):
        assert kind_of(3) == "int"
        assert kind_of("x") == "str"

    def test_bool_rejected(self):
        with pytest.raises(SchemaError):
            kind_of(True)

    def test_float_rejected(self):
        with pytest.raises(SchemaError):
            kind_of(1.5)


class TestRelation:
    def test_round_trip(self):
        rel = Relation.from_rows("R", ("a", "b"), [(1, "x"), (2, "y")])
        assert rel.size == 2
        assert rel.rows() == [(1, "x"), (2, "y")]
        assert rel.rows()[1] == (2, "y")
        assert rel.kind("a") == "int"
        assert rel.kind("b") == "str"

    def test_duplicate_rows_kept(self):
        rel = Relation.from_rows("R", ("a",), [(1,), (1,), (1,)])
        assert rel.size == 3

    def test_duplicate_attrs_rejected(self):
        with pytest.raises(SchemaError):
            Relation.from_rows("R", ("a", "a"), [])

    def test_ragged_columns_rejected(self):
        with pytest.raises(SchemaError):
            Relation("R", ("a", "b"), {"a": [1], "b": []})

    def test_columns_must_match_attrs(self):
        with pytest.raises(SchemaError, match="columns do not match attrs"):
            Relation("R", ("a", "b"), {"a": [1], "c": [2]})

    def test_mixed_kind_column_rejected(self):
        with pytest.raises(SchemaError):
            Relation.from_rows("R", ("a",), [(1,), ("x",)])

    def test_arity_mismatch_rejected(self):
        with pytest.raises(SchemaError):
            Relation.from_rows("R", ("a", "b"), [(1,)])

    def test_sorted_by_verified(self):
        with pytest.raises(SortednessError):
            Relation.from_rows("R", ("a",), [(2,), (1,)], sorted_by=("a",))

    def test_sorted_by_unknown_attr(self):
        with pytest.raises(SchemaError):
            Relation.from_rows("R", ("a",), [(1,)], sorted_by=("z",))

    def test_sorted_by_repeated_attr(self):
        # The rows are sorted by a, so only the repeat itself is refused.
        with pytest.raises(SchemaError, match="sorted_by names an attribute twice"):
            Relation.from_rows("R", ("a", "b"), [(1, 2), (3, 4)], sorted_by=("a", "a"))

    def test_sorted_copy(self):
        rel = Relation.from_rows("R", ("a", "b"), [(2, 1), (1, 3), (1, 2)])
        out = rel.sorted_copy(("a",))
        assert out.rows() == [(1, 2), (1, 3), (2, 1)]
        assert out.sorted_by == ("a", "b")

    def test_empty_relation(self):
        rel = Relation.from_rows("R", ("a", "b"), [])
        assert rel.size == 0
        assert rel.kind("a") is None

    def test_rows_without_attributes_rejected(self):
        # Columns are the only row storage, so three () rows would silently
        # become a relation of size 0 and lose their multiplicity.
        with pytest.raises(SchemaError, match="without attributes"):
            Relation.from_rows("Z", (), [(), (), ()])
        with pytest.raises(SchemaError, match="without attributes"):
            Relation.from_rows("Z", (), [()], weights=[3])
        empty = Relation.from_rows("Z", (), [])
        assert empty.size == 0 and empty.rows() == []

    def test_take(self):
        rel = Relation.from_rows(
            "R", ("a", "b"), [(1, "x"), (2, "y"), (2, "z"), (3, "w")],
            sorted_by=("a",), weights=[4, 5, 6, 7],
        )
        out = rel.take([1, 3])
        assert (out.name, out.attrs, out.sorted_by) == ("R", ("a", "b"), ("a",))
        assert out.rows() == [(2, "y"), (3, "w")]
        assert out.weights == (5, 7)
        assert out.columns["a"] is not rel.columns["a"]
        assert rel.take([]).size == 0
        renamed = rel.take([3, 0], "R2", ("b",))
        assert (renamed.name, renamed.sorted_by) == ("R2", ("b",))
        assert (renamed.rows(), renamed.weights) == ([(3, "w"), (1, "x")], (7, 4))
        with pytest.raises(SortednessError):
            rel.take([3, 0])  # a permutation must name the order it sorts by
        # One offset: ``itemgetter`` of one index returns the bare item.
        one = rel.take([2])
        assert (one.rows(), one.weights, one.sorted_by) == ([(2, "z")], (6,), ("a",))
        assert one.columns["b"] == ("z",)

    def test_built_relation_is_immutable(self):
        # The declared order is verified once, at construction, so no
        # change to a built relation may slip past that check.
        col, weights = [1, 2, 3], [4, 5, 6]
        rel = Relation("R", ("a",), {"a": col}, sorted_by=["a"], weights=weights)
        col[0], weights[0] = 9, 9  # the caller's lists are copied, not kept
        with pytest.raises(TypeError):
            rel.columns["a"][0] = 9
        with pytest.raises(TypeError):
            rel.columns["a"] = (3, 2, 1)
        with pytest.raises(FrozenInstanceError):
            rel.columns = {"a": (3, 2, 1)}
        with pytest.raises(FrozenInstanceError):
            rel.sorted_by = ()
        with pytest.raises(FrozenInstanceError):
            rel.weights = (1, 1, 1)
        with pytest.raises(TypeError):
            rel.weights[0] = 9
        assert (rel.rows(), rel.weights, rel.sorted_by) == ([(1,), (2,), (3,)], (4, 5, 6), ("a",))


class TestNameSequences:
    """Every sequence of attribute names is stored as a tuple, and a bare
    string, which would read as one name per character, is refused."""

    COLUMNS = {"a": (1, 2), "b": (3, 4)}

    def test_lists_are_stored_as_tuples(self, tmp_path):
        want = Relation("R", ("a", "b"), self.COLUMNS, sorted_by=("a", "b"))
        built = Relation("R", ["a", "b"], self.COLUMNS, sorted_by=["a", "b"])
        assert (built.attrs, built.sorted_by) == (("a", "b"), ("a", "b"))
        assert built == want
        rows = Relation.from_rows("R", ["a", "b"], [(1, 3), (2, 4)], sorted_by=["a", "b"])
        assert rows.attrs == ("a", "b") and rows == want
        p = tmp_path / "r.csv"
        p.write_text("1,3\n2,4\n")
        loaded = load_csv(p, "R", [("a", "int"), ("b", "int")], sorted_by=["a", "b"])
        assert loaded.sorted_by == ("a", "b") and loaded == want
        resorted = want.sorted_copy(["b"])
        assert resorted.sorted_by == ("b", "a")

    def test_bare_strings_are_refused(self, tmp_path):
        refused = pytest.raises(SchemaError, match="relation R: .* not the string 'ab'")
        with refused:
            Relation("R", "ab", self.COLUMNS)
        with refused:
            Relation("R", ("a", "b"), self.COLUMNS, sorted_by="ab")
        with refused:
            Relation.from_rows("R", "ab", [(1, 3)])
        with refused:
            Relation.from_rows("R", ("a", "b"), [(1, 3)], sorted_by="ab")
        p = tmp_path / "r.csv"
        p.write_text("1,3\n2,4\n")
        with refused:
            load_csv(p, "R", [("a", "int"), ("b", "int")], sorted_by="ab")
        with pytest.raises(SchemaError, match="relation R: .* not the string 'ba'"):
            Relation("R", ("a", "b"), self.COLUMNS).sorted_copy("ba")


class TestWeights:
    def test_weights_kept(self):
        rel = Relation.from_rows("R", ("a",), [(1,), (2,)], weights=[3, 1])
        assert rel.weights == (3, 1)
        assert rel.size == 2
        assert rel.total_weight == 4
        assert Relation.from_rows("R", ("a",), [(1,)]).total_weight == 1

    @pytest.mark.parametrize(
        "weights, message",
        [
            ([1], "1 weights for 2 rows"),
            ([1, 2, 3], "3 weights for 2 rows"),
            ([1, 0], "weight 0 at row 1"),
            ([-2, 1], "weight -2 at row 0"),
            ([1, True], "weight True at row 1"),
            ([1.0, 1], "weight 1.0 at row 0"),
            ([1, "2"], "weight '2' at row 1"),
        ],
    )
    def test_bad_weights_rejected(self, weights, message):
        with pytest.raises(SchemaError, match=message):
            Relation.from_rows("R", ("a",), [(1,), (2,)], weights=weights)

    def test_sorted_copy_keeps_weights(self):
        rel = Relation.from_rows("R", ("a", "b"), [(2, 1), (1, 3), (1, 2)], weights=[5, 6, 7])
        out = rel.sorted_copy(("a",))
        assert out.rows() == [(1, 2), (1, 3), (2, 1)]
        assert out.weights == (7, 6, 5)
        assert Relation.from_rows("R", ("a",), [(2,), (1,)]).sorted_copy(("a",)).weights is None

    def test_sorted_copy_of_an_unknown_attribute(self):
        """Once raised ``KeyError: 'z'``; ``select`` already named it."""
        rel = Relation.from_rows("R", ("a", "b"), [(2, 1), (1, 3)])
        for order in (("z",), ("a", "z")):
            with pytest.raises(SchemaError, match="relation R: unknown attribute 'z'"):
                rel.sorted_copy(order)

    def test_select_keeps_weights(self):
        rel = Relation.from_rows("R", ("a",), [(1,), (2,), (3,)], weights=[4, 5, 6])
        out = select(rel, "a", "!=", 2)
        assert out.rows() == [(1,), (3,)]
        assert out.weights == (4, 6)
        assert select(Relation.from_rows("R", ("a",), [(1,)]), "a", "==", 1).weights is None


class TestLoadCsv:
    def test_basic(self, tmp_path):
        p = tmp_path / "r.csv"
        p.write_text("1,foo\n2,bar\n")
        rel = load_csv(p, "R", [("a", "int"), ("b", "str")])
        assert rel.rows() == [(1, "foo"), (2, "bar")]

    def test_bad_int_reports_position(self, tmp_path):
        p = tmp_path / "r.csv"
        p.write_text("1\nxyz\n")
        with pytest.raises(LoadError, match=r":2:"):
            load_csv(p, "R", [("a", "int")])

    def test_field_count_mismatch(self, tmp_path):
        p = tmp_path / "r.csv"
        p.write_text("1,2\n3\n")
        with pytest.raises(LoadError, match=r":2:"):
            load_csv(p, "R", [("a", "int"), ("b", "int")])

    def test_blank_line_is_empty_string_row(self, tmp_path):
        p = tmp_path / "r.csv"
        p.write_text("a\n\nb\n")
        rel = load_csv(p, "R", [("x", "str")])
        assert rel.rows() == [("a",), ("",), ("b",)]

    def test_blank_line_under_int_schema(self, tmp_path):
        p = tmp_path / "r.csv"
        p.write_text("1\n\n2\n")
        with pytest.raises(LoadError, match=r":2: column 1 \(x\): '' is not an integer"):
            load_csv(p, "R", [("x", "int")])

    def test_blank_line_under_two_columns(self, tmp_path):
        p = tmp_path / "r.csv"
        p.write_text("a,b\n\n")
        with pytest.raises(LoadError, match=r":2: expected 2 fields, got 1"):
            load_csv(p, "R", [("x", "str"), ("y", "str")])

    def test_sorted_by_applied(self, tmp_path):
        p = tmp_path / "r.csv"
        p.write_text("1,2\n1,3\n2,0\n")
        rel = load_csv(p, "R", [("a", "int"), ("b", "int")], sorted_by=("a", "b"))
        assert rel.sorted_by == ("a", "b")

    def test_int_fields_read_by_python_int(self, tmp_path):
        p = tmp_path / "r.csv"
        p.write_text("99999999999999999999999,1_000, 3 ,-4,+5\n")
        rel = load_csv(p, "R", [(a, "int") for a in "abcde"])
        assert rel.rows() == [(99999999999999999999999, 1000, 3, -4, 5)]
        # Only digits, "-" and separators, but not JSON: ``int`` reads it.
        p.write_text("007,-0,-5\n")
        assert load_csv(p, "R", [(a, "int") for a in "abc"]).rows() == [(7, 0, -5)]

    def test_int_digit_limit(self, tmp_path):
        # A field as long as ``int`` reads loads; one digit more is the
        # error ``int`` gives, whichever reader saw it first.
        limit = sys.get_int_max_str_digits()
        if not limit:
            pytest.skip("int reads any number of digits")
        p = tmp_path / "r.csv"
        p.write_text(f"1,{'9' * limit}\n")
        assert load_csv(p, "R", [("a", "int"), ("b", "int")]).rows() == [(1, int("9" * limit))]
        p.write_text(f"1,2\n{'9' * (limit + 1)},3\n")
        with pytest.raises(LoadError) as exc:
            load_csv(p, "R", [("a", "int"), ("b", "int")])
        assert str(exc.value) == f"{p}:2: column 1 (a): {'9' * (limit + 1)!r} is not an integer"

    def test_line_longer_than_four_blocks(self, tmp_path):
        long = "x" * (4 * BLOCK + 7)
        rows = [(i, "s") for i in range(300)] + [(300, long)] + [(i, "t") for i in range(301, 600)]
        p = tmp_path / "r.csv"
        p.write_text("".join(f"{a},{b}\n" for a, b in rows))
        assert load_csv(p, "R", [("a", "int"), ("b", "str")]).rows() == rows

    @pytest.mark.parametrize("at, kind", [(BLOCK, "int"), (BLOCK, "str"), (2 * BLOCK, "str")])
    def test_crlf_split_at_a_block_end(self, tmp_path, at, kind):
        # The "\r" of a "\r\n" is the ``at``-th character, the last of a
        # block read (at 2 * BLOCK also the last of the decoder's chunk).
        # An int column that long has fewer digits than ``int`` refuses.
        pad = ("7" if kind == "int" else "a") * (at - 3)
        p = tmp_path / "r.csv"
        p.write_bytes(f"1,{pad}\r\n2,3\r\n".encode())
        rel = load_csv(p, "R", [("a", "int"), ("b", kind)])
        want = [(1, pad), (2, "3")] if kind == "str" else [(1, int(pad)), (2, 3)]
        assert rel.rows() == want

    def test_leading_byte_order_mark_is_skipped(self, tmp_path):
        p = tmp_path / "r.csv"
        p.write_bytes(codecs.BOM_UTF8 + b"x,1\ny,2\n")
        assert load_csv(p, "R", [("a", "str"), ("b", "int")]).rows() == [("x", 1), ("y", 2)]
        p.write_bytes(codecs.BOM_UTF8 + b"1,2\n3,4\n")
        assert load_csv(p, "R", [("a", "int"), ("b", "int")]).rows() == [(1, 2), (3, 4)]
        # An error past it still names its line.
        p.write_bytes(codecs.BOM_UTF8 + b"1,2\n3,x\n")
        with pytest.raises(LoadError) as exc:
            load_csv(p, "R", [("a", "int"), ("b", "int")])
        assert str(exc.value) == f"{p}:2: column 2 (b): 'x' is not an integer"

    def test_byte_order_mark_past_the_start_is_data(self, tmp_path):
        p = tmp_path / "r.csv"
        p.write_bytes(b"x\n" + codecs.BOM_UTF8 + b"y\n")
        assert load_csv(p, "R", [("a", "str")]).rows() == [("x",), ("\ufeffy",)]
        p.write_bytes(codecs.BOM_UTF8 + b"1\n" + codecs.BOM_UTF8 + b"2\n")
        with pytest.raises(LoadError) as exc:
            load_csv(p, "R", [("a", "int")])
        assert str(exc.value) == f"{p}:2: column 1 (a): '\\ufeff2' is not an integer"

    def test_empty_schema(self, tmp_path):
        p = tmp_path / "r.csv"
        p.write_text("")
        assert load_csv(p, "R", []).size == 0
        p.write_text("1\n")
        with pytest.raises(LoadError) as exc:
            load_csv(p, "R", [])
        assert str(exc.value) == f"{p}:1: expected 0 fields, got 1"


def _many_rows(tmp_path, bad_line: bytes) -> tuple:
    """A 10,000-row two-int-column file whose line 7001 is ``bad_line``,
    far past the first block of ``BLOCK`` characters."""
    lines = [b"%d,%d" % (i, i * 7) for i in range(1, 10_001)]
    lines[7000] = bad_line
    p = tmp_path / "big.csv"
    p.write_bytes(b"\n".join(lines) + b"\n")
    assert sum(map(len, lines[:7000])) > 10 * BLOCK
    return p, [("a", "int"), ("b", "int")]


class TestLoadCsvErrorsPastFirstBlock:
    def test_bad_int(self, tmp_path):
        p, schema = _many_rows(tmp_path, b"7001,x7")
        with pytest.raises(LoadError) as exc:
            load_csv(p, "R", schema)
        assert str(exc.value) == f"{p}:7001: column 2 (b): 'x7' is not an integer"

    def test_wrong_arity(self, tmp_path):
        p, schema = _many_rows(tmp_path, b"7001,1,2")
        with pytest.raises(LoadError) as exc:
            load_csv(p, "R", schema)
        assert str(exc.value) == f"{p}:7001: expected 2 fields, got 3"

    def test_non_utf8(self, tmp_path):
        p, schema = _many_rows(tmp_path, b"7001,\xff")
        with pytest.raises(LoadError) as exc:
            load_csv(p, "R", schema)
        assert str(exc.value) == f"{p}:7001: not valid UTF-8"


def test_first_bad_line_wins_over_a_later_bad_byte(tmp_path):
    # Once reported ":5: not valid UTF-8": the strict decode of the block
    # failed before line 2 was checked.
    p = tmp_path / "r.csv"
    p.write_bytes(b"1,2\nx,3\n4,5\n6,7\n8,\xff\n")
    with pytest.raises(LoadError) as exc:
        load_csv(p, "R", [("a", "int"), ("b", "int")])
    assert str(exc.value) == f"{p}:2: column 1 (a): 'x' is not an integer"


class _BadLine(Exception):
    pass


def _load_per_row(path, kinds):
    """Reference loader: one line, one split and one conversion at a time,
    returning one tuple per column.  Raises ``_BadLine(lineno, message)``
    at the first line it cannot convert."""
    cols = [[] for _ in kinds]
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            fields = (line[:-1] if line.endswith("\n") else line).split(",")
            if len(fields) != len(kinds):
                raise _BadLine(lineno, f"expected {len(kinds)} fields, got {len(fields)}")
            for i, (col, kind, text) in enumerate(zip(cols, kinds, fields)):
                try:
                    col.append(int(text) if kind == "int" else text)
                except ValueError:
                    message = f"column {i + 1} (c{i}): {text!r} is not an integer"
                    raise _BadLine(lineno, message) from None
    return [tuple(col) for col in cols]


# Ints as Python's ``int`` reads them, and text it refuses; some of each
# (``-0``, ``007``, ``-``, ``1-2``) hold only the characters of a block that
# json reads, others (``1e3``, ``true``, ``NaN``, ``[1]``) are JSON but not
# ints.  ``１`` is a full-width one.
_GOOD_INT = st.integers(-10**25, 10**25).map(str) | st.sampled_from(
    [" 3 ", "1_000", "+7", "-0", "007", "\uff11", "\t4"]
)
_INT_TEXT = _GOOD_INT | _GOOD_INT | st.sampled_from(
    ["", "x", "1.5", "1__0", "-", "--1", "1-2", "1e3", "1.0", "true", "null", "NaN", "[1]"]
)
# Any text but the field and line separators (a lone "\r" ends a line in
# text mode) and lone surrogates, which UTF-8 cannot encode.
_STR_TEXT = st.text(
    st.characters(blacklist_characters=",\n\r", blacklist_categories=("Cs",)), max_size=5
)


@st.composite
def _csv_files(draw):
    """(kinds, text): lines of fields under a drawn schema, blank lines
    among them, "\n" or "\r\n" endings, with or without a final newline;
    a head of lines repeated up to 800 times spans many blocks."""
    kinds = draw(st.lists(st.sampled_from(["int", "str"]), min_size=1, max_size=3))
    cells = [_INT_TEXT if k == "int" else _STR_TEXT for k in kinds]
    line = st.tuples(*cells).map(",".join) | st.just("")
    lines = draw(st.lists(line, max_size=8)) * draw(st.sampled_from([1, 2, 800]))
    lines += draw(st.lists(line, max_size=3))
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n"]), min_size=1, max_size=3))
    text = "".join(ln + ends[i % len(ends)] for i, ln in enumerate(lines))
    if lines and draw(st.booleans()):
        text = text.rstrip("\r\n")
    return kinds, text


def test_load_csv_matches_per_row_reference(tmp_path_factory):
    # Every column equals the reference's, and every error is its message
    # byte for byte.  Some loaded file must have ints that json read, and
    # some ints that ``int`` read; up to three rounds run, each drawing anew.
    reached = set()

    @settings(max_examples=200, deadline=None)
    @given(_csv_files())
    def check(csv_file):
        kinds, text = csv_file
        p = tmp_path_factory.mktemp("csv") / "r.csv"
        p.write_bytes(text.encode("utf-8"))
        schema = [(f"c{i}", k) for i, k in enumerate(kinds)]
        json_fields = []

        def loads(s):
            try:
                out = json.loads(s)
            except ValueError:
                json_fields.append(None)
                raise
            json_fields.append(len(out))
            return out

        try:
            expected = _load_per_row(p, kinds)
        except _BadLine as bad:
            lineno, message = bad.args
            with pytest.raises(LoadError) as exc:
                load_csv(p, "R", schema)
            assert str(exc.value) == f"{p}:{lineno}: {message}"
        else:
            with mock.patch.object(storage, "json", SimpleNamespace(loads=loads)):
                rel = load_csv(p, "R", schema)
            assert [rel.columns[a] for a, _ in schema] == expected
            # Every int field that json did not read, ``int`` read.
            by_json = sum(filter(None, json_fields))
            if by_json:
                reached.add("json")
            if rel.size * kinds.count("int") > by_json:
                reached.add("int")

    for _ in range(3):
        check()
        if reached == {"json", "int"}:
            break
    assert reached == {"json", "int"}


class TestSelect:
    def test_ops(self):
        rel = Relation.from_rows("R", ("a",), [(1,), (2,), (3,)], sorted_by=("a",))
        assert select(rel, "a", ">=", 2).rows() == [(2,), (3,)]
        assert select(rel, "a", "==", 2).rows() == [(2,)]
        assert select(rel, "a", "!=", 2).rows() == [(1,), (3,)]

    def test_sortedness_preserved(self):
        rel = Relation.from_rows("R", ("a",), [(1,), (2,), (3,)], sorted_by=("a",))
        assert select(rel, "a", "<", 3).sorted_by == ("a",)

    def test_kind_mismatch(self):
        rel = Relation.from_rows("R", ("a",), [(1,)])
        with pytest.raises(SchemaError):
            select(rel, "a", "==", "one")

    @pytest.mark.parametrize(
        "attr, op, message",
        [("z", "==", "unknown attribute 'z'"), ("a", "=~", "unknown comparison operator '=~'")],
    )
    def test_bad_comparison(self, attr, op, message):
        rel = Relation.from_rows("R", ("a",), [(1,)])
        with pytest.raises(SchemaError, match=message):
            select(rel, attr, op, 1)


class TestAdversarialTriangle:
    def test_shape(self):
        r, s, t = gen_adversarial_triangle(8)
        assert (r.size, s.size, t.size) == (8, 8, 8)
        assert r.attrs == ("a", "b") and s.attrs == ("b", "c") and t.attrs == ("c", "a")
        for rel in (r, s, t):
            assert rel.sorted_by == rel.attrs

    def test_odd_or_small_rejected(self):
        with pytest.raises(SchemaError):
            gen_adversarial_triangle(7)
        with pytest.raises(SchemaError):
            gen_adversarial_triangle(0)

    def test_smallest_instance_joins(self):
        from unijoin.oracle import nested_loop
        from unijoin.query import parse_query

        q, agg = parse_query("Q(a,b,c) :- R(a,b), S(b,c), T(c,a)")
        r, s, t = gen_adversarial_triangle(2)
        bag = nested_loop(q, {"R": r, "S": s, "T": t}, agg)
        assert bag  # non-empty output even at the smallest size

    def test_output_grows_linearly(self):
        from unijoin.oracle import nested_loop
        from unijoin.query import parse_query

        q, agg = parse_query("Q(COUNT) :- R(a,b), S(b,c), T(c,a)")
        for n in (20, 40, 80, 160):
            r, s, t = gen_adversarial_triangle(n)
            assert nested_loop(q, {"R": r, "S": s, "T": t}, agg) == n // 2
