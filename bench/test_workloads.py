"""Checks of the benchmark's own generators, expected results and tracer.

    python3 -m pytest bench

Each generator's expected-result function is compared with the engine's
brute-force ``nested_loop`` on scaled-down instances from the same code.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer, query_layers  # noqa: E402
from unijoin import Relation, cli, executor, nested_loop, parse_query  # noqa: E402

SEEDS = (1, 2, 3)


def _relations(rows, attrs):
    return {name: Relation.from_rows(name, attrs[name], rs) for name, rs in rows.items()}


def _oracle(workload_name, rels):
    q, agg = parse_query(workloads.WORKLOADS[workload_name].query)
    return nested_loop(q, rels, agg)


def test_tri_skew_files_match_gen_triangle(tmp_path):
    cli.main(["gen-triangle", "--n", "20", "--seed", "7", "--out", str(tmp_path / "cli")])
    (tmp_path / "bench").mkdir()
    workloads.gen_tri_skew(tmp_path / "bench", 7, n=20)
    for name in ("R.csv", "S.csv", "T.csv", "catalog.txt"):
        assert (tmp_path / "bench" / name).read_bytes() == (tmp_path / "cli" / name).read_bytes()


@pytest.mark.parametrize("seed", SEEDS)
def test_tri_skew_expected(seed):
    rows, expected = workloads.tri_skew_relations(20, seed)
    rels = _relations(rows, {"R": ("a", "b"), "S": ("b", "c"), "T": ("c", "a")})
    assert len(expected) == 10
    assert _oracle("tri-skew", rels) == expected


@pytest.mark.parametrize("seed", SEEDS)
def test_star_expected(seed):
    rows = workloads.star_relations(seed, keys=20, probe_keys=5)
    attrs = {"S0": ("x",), "S1": ("x", "a"), "S2": ("x", "b"), "S3": ("x", "c")}
    expected = workloads.star_expected(rows)
    assert expected
    assert _oracle("star-build", _relations(rows, attrs)) == expected


@pytest.mark.parametrize("seed", SEEDS)
def test_cycle_expected(seed):
    rows = workloads.cycle_relations(seed, vertices=6, edges=12)
    attrs = {"R": ("a", "b"), "S": ("b", "c"), "T": ("c", "d"), "U": ("d", "a")}
    expected = workloads.cycle_expected(rows)
    assert expected > 0
    assert _oracle("cycle4-bushy", _relations(rows, attrs)) == expected


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generated_catalog_runs_correctly(name, tmp_path):
    expected = run.generate(name, 5, tmp_path / name)
    relations = cli.load_catalog(str(tmp_path / name / "catalog.txt"))
    result, _ = run.make_query(workloads.WORKLOADS[name])(relations)
    assert run.matches(result, expected)


def test_tracer_spans_and_restores(tmp_path):
    rows = workloads.cycle_relations(4, vertices=10, edges=40)
    rels = _relations(rows, {"R": ("a", "b"), "S": ("b", "c"), "T": ("c", "d"), "U": ("d", "a")})
    originals = (executor.execute, Relation.__dict__["from_rows"])
    tracer = Tracer()
    tracer.install()
    tracer.qid = 0
    try:
        result, _ = run.make_query(workloads.WORKLOADS["cycle4-bushy"])(rels)
    finally:
        tracer.uninstall()
    assert (executor.execute, Relation.__dict__["from_rows"]) == originals
    assert result.count == workloads.cycle_expected(rows)
    names = {s[0] for s in tracer.spans}
    assert {"executor.execute_bushy", "executor.execute", "trie.build_trie",
            "storage.from_rows", "query.parse_query", "query.liveness"} <= names
    layers = query_layers(tracer.spans, tracer.by_qid()[0])
    assert layers["executor.materialize_s"] > 0
    assert layers["executor.materialize_dup_ratio"] >= 1
    assert layers["storage.from_rows_rows"] > 0
    total = max(s[2] for s in tracer.spans) - min(s[1] for s in tracer.spans)
    assert 0 < layers["executor.self_s"] < total
