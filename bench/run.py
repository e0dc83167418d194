"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload tri-skew --seed 1 --seconds 30 --trace 0

Load model: one process, one thread, one client in a closed loop.  One
operation is one query, from query text to ``ResultBag``: parse, build the
plan, then ``execute`` or ``execute_bushy`` on already-loaded relations,
with the engine's default ``StructurePolicy()`` and ``OptConfig()``.

Steps: a child process writes the workload's CSV catalog and expected
result from ``--seed`` (so generator memory stays out of this process's
peak RSS).  The catalog is loaded through ``unijoin.cli.load_catalog``, a
few warm-up queries run, then queries run back to back for ``--seconds``
(and at least ``MIN_QUERIES``), with timed set-up rounds (catalog loads)
interleaved.  Each query's result is checked against the expected one, and
garbage is collected between queries; neither is timed.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
traced and untraced queries, times each layer with the wrappers in
``spans.py``, prints the per-layer metrics (medians per query) and writes
every span to ``.bench_data/trace-<workload>-s<seed>.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DATA = ROOT / ".bench_data"

WARMUP = 2
QUERY_SPAN = "bench.query"
MIN_QUERIES = 100  # a 90th percentile needs ten samples beyond it
MAX_LOOP_S = 120.0
SETUP_MIN_ROUNDS = 5
SETUP_SHARE = 0.1  # of the loop's wall time spent on set-up rounds


def parse_args(argv):
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def generate(name: str, seed: int, out_dir: Path):
    """Write the inputs in a child process; return the expected result."""
    shutil.rmtree(out_dir, ignore_errors=True)
    subprocess.run([sys.executable, str(HERE / "workloads.py"), name, str(seed), str(out_dir)],
                   check=True, timeout=150)
    expected = json.loads((out_dir / "expected.json").read_text(encoding="utf-8"))
    if isinstance(expected, list):
        expected = {tuple(row[:-1]): row[-1] for row in expected}
    return expected


def make_query(workload):
    """One operation: query text -> (ResultBag, ExecStats).

    Engine functions are looked up on their modules at call time, so the
    tracer's wrappers are used while installed.
    """
    from unijoin import executor, query

    text = workload.query

    if workload.plan in ("binary", "gj"):
        def run(relations):
            q, agg = query.parse_query(text)
            plan = query.convert_left_deep(q, [a.relation for a in q.atoms])
            if workload.plan == "gj":
                plan = query.optimize_plan(q, plan, query.MODE_GENERIC_JOIN)
            return executor.execute(q, plan, relations, agg)
    else:
        def run(relations):
            q, agg = query.parse_query(text)
            return executor.execute_bushy(q, query.parse_bushy(workload.plan), relations, agg)
    return run


def matches(result, expected) -> bool:
    if isinstance(expected, int):
        return result.count == expected
    return result.tuples == expected


class Loop:
    """Closed-loop runner: set-up rounds and checked queries, interleaved.

    Set-up rounds are spread over the whole run (whenever they have used
    less than ``SETUP_SHARE`` of the elapsed time) rather than done in one
    burst, so both set-up and query times sample the same stretch of a
    machine whose speed drifts.  Each round replaces the relations the
    queries run on, so only one loaded catalog is alive at a time.
    """

    def __init__(self, catalog: Path, run, expected, tracer=None):
        self.catalog = catalog
        self.run = run
        self.expected = expected
        self.tracer = tracer
        self.relations = None
        self.setup_times: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.records = []  # (latency_s, ExecStats, traced, qid) per timed query

    def setup_round(self) -> None:
        """Load the catalog once; traced whenever a tracer is given."""
        from unijoin import cli

        tracer = self.tracer
        self.relations = None
        gc.collect()
        if tracer:
            tracer.install()
            tracer.qid = f"setup-{len(self.setup_times)}"
        try:
            t0 = time.perf_counter()
            self.relations = cli.load_catalog(str(self.catalog))
            self.setup_times.append(time.perf_counter() - t0)
        finally:
            if tracer:
                tracer.qid = None
                tracer.uninstall()
        gc.collect()

    def query(self, traced: bool, timed: bool = True) -> None:
        qid = self.attempted
        self.attempted += 1
        tracer = self.tracer if traced else None
        run = self.run
        if tracer:
            tracer.install()
            tracer.qid = qid
            run = tracer.wrap(QUERY_SPAN, run)
        ok, stats = False, None
        t0 = time.perf_counter()
        try:
            result, stats = run(self.relations)
            t1 = time.perf_counter()
            ok = matches(result, self.expected)
        except Exception:  # a failed query is counted, and the run goes on
            t1 = time.perf_counter()
            traceback.print_exc(file=sys.stderr)
        finally:
            if tracer:
                tracer.qid = None
                tracer.uninstall()
        result = None  # freed before the collection below
        if not ok:
            self.failed += 1
        elif timed:
            self.records.append((t1 - t0, stats, traced, qid))
        gc.collect()

    def measure(self, seconds: float, alternate: bool) -> float:
        """Warm up, then run timed queries; return the loop's wall time.

        With ``alternate``, every second query is traced.
        """
        self.setup_round()
        for _ in range(WARMUP):
            self.query(traced=False, timed=False)
        start = time.perf_counter()
        i = 0
        while True:
            elapsed = time.perf_counter() - start
            if (elapsed >= seconds and len(self.records) >= MIN_QUERIES) or elapsed >= MAX_LOOP_S:
                break
            if sum(self.setup_times) <= SETUP_SHARE * elapsed:
                self.setup_round()
            self.query(traced=alternate and i % 2 == 1)
            i += 1
        while len(self.setup_times) < SETUP_MIN_ROUNDS:
            self.setup_round()
        return elapsed


def end_to_end(loop: Loop) -> dict:
    lat = [r[0] for r in loop.records]
    return {
        "query_s_p50": (statistics.median(lat), "s"),
        "query_s_p90": (statistics.quantiles(lat, n=10)[8], "s"),
        "queries_per_s": (len(lat) / sum(lat), "1/s"),
        "setup_s": (statistics.median(loop.setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }


_LAYER_UNITS = {
    "executor.run_phase_s": "s", "executor.build_phase_s": "s",
    "executor.ns_per_intermediate": "ns", "executor.intermediate_tuples": "count",
    "executor.probes": "count", "executor.probe_hit_ratio": "ratio",
    "executor.output_tuples": "count", "trie.comparisons": "count",
    "trie.comparisons_per_probe": "ratio", "trie.insertions": "count",
    "trie.intermediate_tries": "count",
    "executor.self_s": "s", "executor.materialize_s": "s",
    "executor.materialize_dup_ratio": "ratio", "trie.build_s": "s",
    "trie.build_ns_per_insertion": "ns", "query.plan_s": "s", "query.liveness_s": "s",
    "storage.from_rows_s": "s", "storage.from_rows_rows": "count",
    "runtime.gc_s": "s", "runtime.gc_collections": "count",
}


def _ratio(num, den):
    return num / den if den else 0.0


def stats_layers(s) -> dict:
    """Per-layer counts and phase times the engine reports in ``ExecStats``."""
    return {
        "executor.run_phase_s": s.exec_ms / 1e3,
        "executor.build_phase_s": s.build_ms / 1e3,
        "executor.ns_per_intermediate": _ratio(s.exec_ms * 1e6, s.intermediate_tuples),
        "executor.intermediate_tuples": s.intermediate_tuples,
        "executor.probes": s.probes,
        "executor.probe_hit_ratio": _ratio(s.probe_hits, s.probes),
        "executor.output_tuples": s.output_tuples,
        "trie.comparisons": s.comparisons,
        "trie.comparisons_per_probe": _ratio(s.comparisons, s.probes),
        "trie.insertions": s.trie_build_insertions,
        "trie.intermediate_tries": s.deep_intermediate_tries,
    }


def per_layer(loop: Loop, tracer, setup_rows: int) -> dict:
    from spans import LOAD_CSV, query_layers

    groups = tracer.by_qid()
    rows = []
    for _, stats, traced, qid in loop.records:
        if not traced:
            continue
        row = stats_layers(stats)
        row.update(query_layers(tracer.spans, groups[qid]))
        row["trie.build_ns_per_insertion"] = _ratio(row["trie.build_s"] * 1e9,
                                                    row["trie.insertions"])
        rows.append(row)
    out = {k: (statistics.median(r[k] for r in rows), _LAYER_UNITS[k]) for k in sorted(rows[0])}

    load_s = statistics.median(
        sum(tracer.spans[i][2] - tracer.spans[i][1]
            for i in idxs if tracer.spans[i][0] == LOAD_CSV)
        for qid, idxs in groups.items() if isinstance(qid, str) and qid.startswith("setup-"))
    out["storage.load_s"] = (load_s, "s")
    out["storage.load_rows_per_s"] = (setup_rows / load_s, "1/s")

    traced = statistics.median(r[0] for r in loop.records if r[2])
    untraced = statistics.median(r[0] for r in loop.records if not r[2])
    out["trace.traced_query_s_p50"] = (traced, "s")
    out["trace.untraced_query_s_p50"] = (untraced, "s")
    out["trace.overhead_ratio"] = (traced / untraced - 1.0, "ratio")
    return out


def write_trace(path: Path, tracer, provenance: dict) -> None:
    doc = {
        "provenance": provenance,
        "fields": ["name", "start", "end", "parent", "qid", "note"],
        "spans": tracer.spans,
    }
    path.write_text(json.dumps(doc) + "\n", encoding="utf-8")


def main(argv=None) -> int:
    sys.path.insert(0, str(HERE))
    args = parse_args(argv)
    if not (SRC / "unijoin" / "__init__.py").is_file():
        print(f"error: no engine sources at {SRC.relative_to(ROOT)}/unijoin; "
              "run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from spans import Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    run_dir = DATA / f"{args.workload}-s{args.seed}"
    try:
        expected = generate(args.workload, args.seed, run_dir)
        tracer = Tracer() if args.trace else None
        loop = Loop(run_dir / "catalog.txt", make_query(workload), expected, tracer)
        wall = loop.measure(args.seconds, alternate=bool(args.trace))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    if not loop.records:
        print(f"error: all {loop.attempted} queries failed", file=sys.stderr)
        return 1
    if len(loop.records) < MIN_QUERIES:
        print(f"error: only {len(loop.records)} correct queries in {wall:.0f} s, "
              f"fewer than the {MIN_QUERIES} a 90th percentile needs", file=sys.stderr)
        return 1

    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "rows_per_relation": {name: rel.size for name, rel in sorted(loop.relations.items())},
        "queries_timed": len(loop.records),
        "queries_traced": sum(1 for r in loop.records if r[2]),
        "loop_wall_s": wall,
        "warmup_queries": WARMUP,
        "gc_collect_between_queries": True,
        "setup_rounds": len(loop.setup_times),
        "trace": args.trace,
    }
    if args.trace:
        metrics = per_layer(loop, tracer, sum(r.size for r in loop.relations.values()))
        trace_path = DATA / f"trace-{args.workload}-s{args.seed}.json"
        provenance["trace_file"] = str(trace_path.relative_to(ROOT))
        write_trace(trace_path, tracer, provenance)
    else:
        metrics = end_to_end(loop)

    print("provenance: " + json.dumps(provenance))
    error_rate = loop.failed / loop.attempted
    for name, (value, unit) in metrics.items():
        print(f"{name:32} {value:.6g} {unit}")
    print(f"{'error_rate':32} {error_rate:.6g} ratio ({loop.failed}/{loop.attempted})")
    print(json.dumps({
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
