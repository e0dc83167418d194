"""Command-line driver: catalog parsing, run/gen-triangle, exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import unijoin
from unijoin import cli
from unijoin.cli import load_catalog, main
from unijoin.errors import SchemaError
from unijoin.executor import ExecStats, ResultBag
from unijoin.storage import load_csv


@pytest.fixture
def workspace(tmp_path):
    """A small two-relation catalog plus a query file."""
    (tmp_path / "r.csv").write_text("1,10\n2,10\n3,30\n")
    (tmp_path / "s.csv").write_text("10,7\n10,8\n20,9\n")
    (tmp_path / "catalog.txt").write_text(
        "R r.csv a:int,b:int sorted_by=a,b\n"
        "S s.csv a:int,b:int sorted_by=a,b\n"
    )
    (tmp_path / "query.txt").write_text("Q(x,y,z) :- R(x,y), S(y,z)\n")
    return tmp_path


class TestCatalog:
    def test_load(self, workspace):
        rels = load_catalog(workspace / "catalog.txt")
        assert set(rels) == {"R", "S"}
        assert rels["R"].sorted_by == ("a", "b")

    def test_duplicate_name(self, tmp_path):
        (tmp_path / "r.csv").write_text("1\n")
        (tmp_path / "cat.txt").write_text("R r.csv a:int\nR r.csv a:int\n")
        with pytest.raises(SchemaError):
            load_catalog(tmp_path / "cat.txt")

    def test_bad_column_spec(self, tmp_path):
        (tmp_path / "cat.txt").write_text("R r.csv a\n")
        with pytest.raises(SchemaError):
            load_catalog(tmp_path / "cat.txt")


class TestRun:
    def run(self, workspace, *extra):
        return main(
            [
                "run",
                "--catalog",
                str(workspace / "catalog.txt"),
                "--query",
                str(workspace / "query.txt"),
                *extra,
            ]
        )

    def test_basic(self, workspace, capsys):
        assert self.run(workspace, "--stats", "none") == 0
        out = capsys.readouterr().out
        assert "cardinality=4" in out
        assert "(1, 10, 7)" in out

    def test_check_passes_all_plans(self, workspace, capsys):
        for plan in ("binary", "gj", "fj"):
            for dicts in ("hash", "sorted", "hybrid"):
                code = self.run(
                    workspace, "--plan", plan, "--dicts", dicts, "--check",
                    "--stats", "none",
                )
                assert code == 0
                assert "check: PASS" in capsys.readouterr().out

    def test_stats_json(self, workspace, capsys):
        assert self.run(workspace, "--stats", "json") == 0
        out = capsys.readouterr().out
        payload = json.loads(out.splitlines()[-1])
        assert "probes" in payload

    def test_agg_override(self, workspace, capsys):
        # The aggregate comes from the query head; there is no flag for it.
        query = workspace / "query.txt"
        query.write_text("Q(COUNT) :- R(x,y), S(y,z)\n")
        assert self.run(workspace, "--check", "--stats", "none") == 0
        out = capsys.readouterr().out
        assert "kind=count value=4" in out and "check: PASS" in out
        query.write_text("Q(MIN(z)) :- R(x,y), S(y,z)\n")
        assert self.run(workspace, "--check", "--stats", "none") == 0
        out = capsys.readouterr().out
        assert "z=7" in out and "check: PASS" in out
        with pytest.raises(SystemExit) as exc:
            self.run(workspace, "--agg", "count")
        assert exc.value.code == 2
        assert "unrecognized arguments: --agg" in capsys.readouterr().err

    def test_min_over_an_empty_join(self, workspace, capsys):
        (workspace / "s.csv").write_text("99,1\n")
        (workspace / "query.txt").write_text("Q(MIN(z)) :- R(x,y), S(y,z)\n")
        assert self.run(workspace, "--check", "--stats", "none") == 0
        assert capsys.readouterr().out == (
            "result kind=min empty=true (no satisfying assignment)\ncheck: PASS\n"
        )

    def test_check_failure_exit_3(self, workspace, capsys, monkeypatch):
        monkeypatch.setattr(
            cli, "execute",
            lambda q, *rest: (ResultBag("full", q.head, {(1, 10, 7): 2}), ExecStats()),
        )
        assert self.run(workspace, "--check", "--stats", "none") == 3
        out = capsys.readouterr().out
        assert "check: FAIL" in out
        assert "first difference at (1, 10, 7): got multiplicity 2, expected 1" in out

        (workspace / "query.txt").write_text("Q(COUNT) :- R(x,y), S(y,z)\n")
        monkeypatch.setattr(
            cli, "execute", lambda *args: (ResultBag("count", count=5), ExecStats())
        )
        assert self.run(workspace, "--check", "--stats", "none") == 3
        out = capsys.readouterr().out
        assert "check: FAIL" in out and "got 5, expected 4" in out

    def test_plan_file(self, workspace, capsys):
        plan = workspace / "my.plan"
        plan.write_text("R(x,y), S(y)\nS(z)\n")
        assert self.run(
            workspace, "--plan", f"file:{plan}", "--check", "--stats", "none"
        ) == 0

    def test_invalid_plan_exit_2(self, workspace, capsys):
        plan = workspace / "bad.plan"
        plan.write_text("R(x), S(y)\nS(z)\n")
        assert self.run(workspace, "--plan", f"file:{plan}") == 2

    def test_plan_of_only_a_comment_exit_2(self, workspace, capsys):
        plan = workspace / "empty.plan"
        plan.write_text("# nothing to run\n")
        assert self.run(workspace, "--plan", f"file:{plan}") == 2
        assert capsys.readouterr().err == "error: plan has no nodes\n"

    def test_limit_reports_the_rest(self, workspace, capsys):
        (workspace / "r.csv").write_text("1,10\n2,10\n3,10\n4,10\n5,10\n")
        (workspace / "query.txt").write_text("Q(x) :- R(x,y)\n")
        assert self.run(workspace, "--limit", "1", "--stats", "none") == 0
        out = capsys.readouterr().out.splitlines()
        assert out == [
            "result kind=full cardinality=5 total_multiplicity=5", "  (1)", "  ... 4 more"
        ]

    def test_repeated_plan_variable_exit_2(self, workspace, capsys):
        plan = workspace / "bad.plan"
        plan.write_text("R(x,y), S(y)\nS(z,z)\n")
        assert self.run(workspace, "--plan", f"file:{plan}") == 2
        err = capsys.readouterr().err
        assert err == "error: subatom S(z,z): repeated variable\n"

    def test_missing_catalog_exit_1(self, workspace):
        code = main(
            ["run", "--catalog", str(workspace / "nope.txt"),
             "--query", str(workspace / "query.txt")]
        )
        assert code == 1

    @pytest.mark.parametrize(
        "name,data",
        [
            ("s.csv", b"10,7\n1\xff,8\n20,9\n"),
            ("catalog.txt", b"R r.csv a:int,b:int\nS s\xff.csv a:int,b:int\n"),
            ("query.txt", b"Q(x,y,z) :-\nR(x,y), S(y,\xffz)\n"),
            ("my.plan", b"R(x,y), S(y)\nS(\xffz)\n"),
        ],
        ids=["csv", "catalog", "query", "plan"],
    )
    def test_non_utf8_input_exit_1(self, workspace, capsys, name, data):
        (workspace / "my.plan").write_text("R(x,y), S(y)\nS(z)\n")
        (workspace / name).write_bytes(data)
        assert self.run(workspace, "--plan", f"file:{workspace / 'my.plan'}") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert f"{name}:2: not valid UTF-8" in err

    def test_malformed_min_head_exit_2(self, workspace, capsys):
        (workspace / "query.txt").write_text("Q(MIN(x) :- R(x,y), S(y,z)\n")
        assert self.run(workspace, "--check") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    def test_empty_body_atom_exit_2(self, workspace, capsys):
        (workspace / "query.txt").write_text("Q(x,y,z) :- R(x,y), S(y,z),\n")
        assert self.run(workspace, "--check") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert "empty atom" in err

    def test_non_utf8_after_lone_cr_names_its_line(self, workspace, capsys):
        # A lone \r ends a line for the loader, so it does for the error too.
        (workspace / "s.csv").write_bytes(b"10,7\r10,8\r20,9\r1\xff,8\r5,5\r")
        assert self.run(workspace) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert "s.csv:4: not valid UTF-8" in err

    @pytest.mark.parametrize(
        "line,csv,message",
        [
            ("S s.csv a:float", "10,7\n", "unknown kind 'float' in schema for S"),
            ("S s.csv :int,b:int", "10,7\n", "bad column spec ':int'"),
            ("S s.csv a:int,b:int sorted_by=", "10,7\n",
             "relation S: sorted_by names unknown attrs {''}"),
            ("S s.csv a:int,b:int sorted_by=a", "10,7\n2,9\n",
             "relation S: sortedness over ('a',) violated at row 1"),
            ("S s.csv a:int,b:int sorted_by=a,a", "10,7\n",
             "relation S: sorted_by names an attribute twice ('a', 'a')"),
            ("S s.csv", "10,7\n", "expected 3 or 4 fields, got 2"),
            ("S s.csv a:int,b:int order=a", "10,7\n", "expected sorted_by=..., got 'order=a'"),
            ("S s.csv a:int,a:int", "10,7\n",
             "relation S: duplicate attribute names ('a', 'a')"),
        ],
        ids=["kind", "empty_attr", "sorted_by", "sortedness", "dup_sorted_by", "fields",
             "fourth_field", "dup_attr"],
    )
    def test_catalog_error_names_catalog_line(self, workspace, capsys, line, csv, message):
        (workspace / "s.csv").write_text(csv)
        (workspace / "catalog.txt").write_text("R r.csv a:int,b:int\n" + line + "\n")
        assert self.run(workspace) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err == f"error: {workspace / 'catalog.txt'}:2: {message}\n"

    def test_blank_csv_line_exit_1(self, workspace, capsys):
        (workspace / "s.csv").write_text("10,7\n\n20,9\n")
        assert self.run(workspace) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert "s.csv:2: expected 2 fields, got 1" in err

    def test_negative_limit_exit_2(self, workspace, capsys):
        assert self.run(workspace, "--limit", "-1") == 2
        assert "--limit" in capsys.readouterr().err
        # Rejected before the catalog is read: a missing one would exit 1.
        code = main(
            ["run", "--catalog", str(workspace / "nope.txt"),
             "--query", str(workspace / "query.txt"), "--limit", "-1"]
        )
        assert code == 2

    def test_malformed_query_exit_2_before_catalog(self, workspace, capsys):
        # Rejected before the catalog is read: a missing one would exit 1.
        (workspace / "query.txt").write_text("Q(x,y) :- R(x,y) S(y)\n")
        code = main(
            ["run", "--catalog", str(workspace / "nope.txt"),
             "--query", str(workspace / "query.txt")]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "nope.txt" not in err

    def test_empty_csv_is_zero_rows(self, workspace, capsys):
        (workspace / "s.csv").write_text("")
        rel = load_csv(workspace / "s.csv", "S", [("a", "int"), ("b", "int")], ("a", "b"))
        assert rel.size == 0 and rel.rows() == []
        assert self.run(workspace, "--check", "--stats", "none") == 0
        out = capsys.readouterr().out
        assert "cardinality=0" in out and "check: PASS" in out

    def test_leaf_flag(self, workspace, capsys):
        # One toggle set per leaf family: smallvec or vec offset leaves with
        # count leaves for probe-only relations (O4), then hashmap leaves
        # with and without the other toggles.
        for opts in ("all", "O1,O3,O4,O5", "O3,O5", "none"):
            assert self.run(
                workspace, "--opts", opts, "--check", "--stats", "none"
            ) == 0
            assert "check: PASS" in capsys.readouterr().out


BAD_FLAGS = (
    ("--opts", "O9"),
    ("--dicts", "bogus"),
    ("--dicts", "explicit"),
    ("--plan", "foo"),
)


@pytest.mark.parametrize("command", ("run",))
@pytest.mark.parametrize("flag,value", BAD_FLAGS)
def test_bad_flag_exit_2(workspace, capsys, command, flag, value):
    code = main(
        [
            command,
            "--catalog", str(workspace / "catalog.txt"),
            "--query", str(workspace / "query.txt"),
            flag, value,
        ]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_python_dash_m_runs_the_cli():
    src = str(Path(unijoin.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    done = subprocess.run(
        [sys.executable, "-m", "unijoin", "--help"], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage: ") and "gen-triangle" in done.stdout


class TestGenTriangle:
    def test_writes_instance(self, tmp_path, capsys):
        out = tmp_path / "tri"
        assert main(["gen-triangle", "--n", "8", "--out", str(out)]) == 0
        rels = load_catalog(out / "catalog.txt")
        assert {r.size for r in rels.values()} == {8}

    def test_seeded_instance_still_joins(self, tmp_path, capsys):
        out = tmp_path / "tri"
        assert main(["gen-triangle", "--n", "8", "--out", str(out), "--seed", "5"]) == 0
        code = main(
            [
                "run",
                "--catalog", str(out / "catalog.txt"),
                "--query", str(out / "query.txt"),
                "--plan", "gj",
                "--check",
                "--stats", "none",
            ]
        )
        assert code == 0
        assert "cardinality=4" in capsys.readouterr().out

    def test_odd_n_rejected(self, tmp_path):
        assert main(["gen-triangle", "--n", "7", "--out", str(tmp_path / "x")]) == 2
