"""Span tracing of the engine's layers, installed from outside the engine.

``Tracer`` replaces the public functions of each layer with timing wrappers
under the names their callers look them up by (the names ``executor.py``
and ``cli.py`` import, and the module globals that ``query.py`` calls
internally), and registers a ``gc.callbacks`` hook for collector pauses.
No engine file changes; ``uninstall`` puts every original back.

A span is ``[name, start, end, parent, qid, note]``: times from
``time.perf_counter``, ``parent`` the index of the enclosing span (-1 for
none), ``qid`` the query or setup round it belongs to, and ``note`` a count
taken from the call (distinct result tuples of ``execute``, rows of
``Relation.from_rows``, the generation of a collection).  Spans stay in
memory until the run writes them out.
"""

from __future__ import annotations

import gc
import time

from unijoin import cli, executor, query, storage

# Functions to wrap, by the module whose globals their callers use.
_QUERY_FUNCS = ("parse_query", "convert_left_deep", "optimize_plan", "parse_bushy",
                "decompose_bushy", "liveness", "validate_plan")
_EXECUTOR_FUNCS = ("convert_left_deep", "decompose_bushy", "liveness", "validate_plan",
                   "build_trie", "execute", "execute_bushy")

EXECUTE = "executor.execute"
EXECUTE_BUSHY = "executor.execute_bushy"
BUILD_TRIE = "trie.build_trie"
LIVENESS = "query.liveness"
FROM_ROWS = "storage.from_rows"
LOAD_CSV = "storage.load_csv"
GC = "runtime.gc"


def _span_name(func) -> str:
    """``<layer>.<function>``, the layer being the defining module."""
    return f"{func.__module__.rsplit('.', 1)[-1]}.{func.__name__}"


def _execute_note(ret):
    bag = ret[0]
    return len(bag.tuples) if bag.tuples is not None else 0


class Tracer:
    """In-memory span recorder for one run."""

    def __init__(self):
        self.spans: list[list] = []
        self.qid = None
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        self._gc_start = None

    def wrap(self, name, func, note=None):
        """Return ``func`` recording one span per call."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            ret = None
            try:
                ret = func(*args, **kwargs)
                return ret
            finally:
                end = clock()
                stack.pop()
                spans[idx] = [name, start, end, parent, self.qid,
                              note(ret) if note and ret is not None else None]

        return traced

    def install(self) -> None:
        wrapped = {}

        def patch(module, attr, note=None):
            func = getattr(module, attr)
            if func not in wrapped:
                wrapped[func] = self.wrap(_span_name(func), func, note)
            self._saved.append((module, attr, func))
            setattr(module, attr, wrapped[func])

        for attr in _QUERY_FUNCS:
            patch(query, attr)
        for attr in _EXECUTOR_FUNCS:
            patch(executor, attr, _execute_note if attr == "execute" else None)
        patch(cli, "load_csv")
        from_rows = storage.Relation.__dict__["from_rows"]
        self._saved.append((storage.Relation, "from_rows", from_rows))
        storage.Relation.from_rows = classmethod(
            self.wrap(FROM_ROWS, from_rows.__func__, lambda rel: rel.size)
        )
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        gc.callbacks.remove(self._on_gc)
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _on_gc(self, phase, info):
        if phase == "start":
            self._gc_start = time.perf_counter()
        elif self._gc_start is not None and self.qid is not None:
            parent = self._stack[-1] if self._stack else -1
            self.spans.append([GC, self._gc_start, time.perf_counter(), parent, self.qid,
                               info["generation"]])
            self._gc_start = None

    def by_qid(self) -> dict:
        """Span indexes grouped by query id, in recording order."""
        out: dict = {}
        for i, span in enumerate(self.spans):
            out.setdefault(span[4], []).append(i)
        return out


def query_layers(spans, idxs) -> dict:
    """Per-layer times of one query from its spans (indexes ``idxs``).

    A span's self time is its duration minus its direct wrapped children;
    collector spans are reported on their own and not subtracted, so a
    pause counts in the layer it interrupted as well as in ``runtime``.
    """
    child = {i: 0.0 for i in idxs}
    kids: dict[int, list[int]] = {i: [] for i in idxs}
    for i in idxs:
        name, start, end, parent = spans[i][:4]
        if name != GC and parent in child:
            child[parent] += end - start
            kids[parent].append(i)

    def dur(i):
        return spans[i][2] - spans[i][1]

    out = dict.fromkeys(
        ("executor.self_s", "executor.materialize_s", "trie.build_s", "query.plan_s",
         "query.liveness_s", "storage.from_rows_s", "runtime.gc_s"), 0.0)
    out["runtime.gc_collections"] = 0
    out["storage.from_rows_rows"] = 0
    distinct = 0
    for i in idxs:
        name, note = spans[i][0], spans[i][5]
        if name == GC:
            out["runtime.gc_s"] += dur(i)
            out["runtime.gc_collections"] += 1
        elif name in (EXECUTE, EXECUTE_BUSHY):
            out["executor.self_s"] += dur(i) - child[i]
        elif name == BUILD_TRIE:
            out["trie.build_s"] += dur(i)
        elif name == LIVENESS:
            out["query.liveness_s"] += dur(i)
        elif name == FROM_ROWS:
            out["storage.from_rows_s"] += dur(i)
            out["storage.from_rows_rows"] += note
        elif name.startswith("query."):
            out["query.plan_s"] += dur(i) - child[i]
        if name == EXECUTE_BUSHY:
            # Everything but the stage executions and planning: sorting,
            # expanding and re-checking the materialised intermediates.
            stages = [k for k in kids[i] if spans[k][0] == EXECUTE]
            planning = sum(dur(k) for k in kids[i] if spans[k][0].startswith("query."))
            out["executor.materialize_s"] += (dur(i) - planning
                                              - sum(dur(k) for k in stages))
            distinct += sum(spans[k][5] for k in stages[:-1])  # all but the root stage
    out["executor.materialize_dup_ratio"] = (
        out["storage.from_rows_rows"] / distinct if distinct else 0.0)
    return out

