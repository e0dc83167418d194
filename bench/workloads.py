"""Seeded input generators and engine-independent expected results.

Each workload writes a CSV catalog that the engine loads through
``unijoin.cli.load_catalog``; the engine sees only those files.  The
generators are plain Python and import nothing from the engine, and so are
the expected-result functions: every timed query is checked against a
result computed without the code under test.

Sizes are chosen so that one query takes roughly 0.1-0.2 s on a 2-core box,
which leaves well over 100 queries per run for a 90th percentile.  A seed
changes values and pairings but not the shape of the work (fan sizes, group
size mix, edge multiplicities), so the run-to-run spread stays small.
"""

from __future__ import annotations

import json
import random
import sys
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

TRI_N = 440  # rows per relation; the hub fan gives (TRI_N/2)^2 intermediates

STAR_KEYS = 8_000  # distinct x values in S1, S2, S3
STAR_GROUP_SIZES = (1, 2, 3, 4, 5, 6, 7, 8, 9)  # cycled: mean 5, some singletons
STAR_PROBE_KEYS = 50  # rows of S0

CYCLE_VERTICES = 400
CYCLE_EDGES = 1_500  # distinct edges per relation before multiplicities
CYCLE_MULTS = (1, 2, 3)  # cycled duplicate counts: 3,000 rows per relation


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: query text, plan recipe and generator."""

    name: str
    query: str
    plan: str  # "binary", "gj" or a bushy tree for execute_bushy
    generate: object  # (out_dir: Path, seed: int) -> expected result


def _write(out_dir: Path, name: str, rows) -> None:
    with open(out_dir / f"{name}.csv", "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(",".join(str(v) for v in row) + "\n")


def _write_catalog(out_dir: Path, lines) -> None:
    (out_dir / "catalog.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")


# -- tri-skew ---------------------------------------------------------------


def tri_skew_relations(n: int, seed: int):
    """The adversarial triangle family, relabeled by ``seed``.

    Same instance as ``unijoin gen-triangle --n N --seed S``: half of each
    relation is a hub fan (R's dead a-values all point at one b, S repeats
    one (b, c) edge) so the binary plan's R join S makes (n/2)^2
    intermediates that T then rejects; the other half is a matching of n/2
    genuine triangles.  Values get one order-preserving random relabeling,
    so every relation stays sorted.  Returns ({name: sorted rows},
    expected {(a, b, c): multiplicity}).
    """
    m = n // 2
    hub_b, hub_c = 0, 1
    dead = [2 * n + i for i in range(1, m + 1)]
    u = [3 * n + j for j in range(1, m + 1)]
    v = [4 * n + j for j in range(1, m + 1)]
    w = [5 * n + j for j in range(1, m + 1)]
    filler = [6 * n + i for i in range(1, m + 1)]
    rows = {
        "R": [(dead[i], hub_b) for i in range(m)] + [(u[j], v[j]) for j in range(m)],
        "S": [(hub_b, hub_c)] * m + [(v[j], w[j]) for j in range(m)],
        "T": [(hub_c, filler[i]) for i in range(m)] + [(w[j], u[j]) for j in range(m)],
    }
    values = sorted({x for rs in rows.values() for r in rs for x in r})
    rng = random.Random(seed)
    label = {}
    nxt = 0
    for x in values:
        nxt += rng.randrange(1, 4)
        label[x] = nxt
    rows = {k: sorted((label[a], label[b]) for a, b in rs) for k, rs in rows.items()}
    expected = {(label[u[j]], label[v[j]], label[w[j]]): 1 for j in range(m)}
    return rows, expected


def gen_tri_skew(out_dir: Path, seed: int, n: int = TRI_N):
    rows, expected = tri_skew_relations(n, seed)
    attrs = {"R": "a,b", "S": "b,c", "T": "c,a"}
    for name, rs in rows.items():
        _write(out_dir, name, rs)
    _write_catalog(out_dir, [
        f"{name} {name}.csv {','.join(f'{x}:int' for x in a.split(','))} sorted_by={a}"
        for name, a in attrs.items()
    ])
    return expected


# -- star-build -------------------------------------------------------------


def star_relations(seed: int, keys: int = STAR_KEYS, probe_keys: int = STAR_PROBE_KEYS):
    """Three big x-grouped relations and one small probe relation.

    S1(x,a) and S2(x,b) are sorted by (x, payload); S3(x,c) has a string
    payload and is shuffled.  Each x gets a group size from a fixed cycle,
    shuffled per relation, so the row count does not depend on the seed.
    """
    rng = random.Random(seed)
    xs = sorted(rng.sample(range(1, 10 * keys), keys))

    def grouped(make_value):
        sizes = [STAR_GROUP_SIZES[i % len(STAR_GROUP_SIZES)] for i in range(keys)]
        rng.shuffle(sizes)
        return [(x, val) for x, size in zip(xs, sizes)
                for val in sorted(make_value() for _ in range(size))]

    s1 = grouped(lambda: rng.randrange(1_000_000))
    s2 = grouped(lambda: rng.randrange(1_000_000))
    s3 = grouped(lambda: f"p{rng.randrange(1_000_000)}")
    rng.shuffle(s3)
    s0 = [(x,) for x in rng.sample(xs, probe_keys)]
    return {"S0": s0, "S1": s1, "S2": s2, "S3": s3}


def star_expected(rows) -> Counter:
    """Bag of (x, a, b, c): per x in S0, the product of its three groups."""
    groups = {name: {} for name in ("S1", "S2", "S3")}
    for name, g in groups.items():
        for x, val in rows[name]:
            g.setdefault(x, []).append(val)
    out = Counter()
    for (x,) in rows["S0"]:
        for a in groups["S1"].get(x, ()):
            for b in groups["S2"].get(x, ()):
                for c in groups["S3"].get(x, ()):
                    out[(x, a, b, c)] += 1
    return out


def gen_star_build(out_dir: Path, seed: int):
    rows = star_relations(seed)
    for name, rs in rows.items():
        _write(out_dir, name, rs)
    _write_catalog(out_dir, [
        "S0 S0.csv x:int",
        "S1 S1.csv x:int,a:int sorted_by=x,a",
        "S2 S2.csv x:int,b:int sorted_by=x,b",
        "S3 S3.csv x:int,c:str",
    ])
    return dict(star_expected(rows))


# -- cycle4-bushy -----------------------------------------------------------


def cycle_relations(seed: int, vertices: int = CYCLE_VERTICES, edges: int = CYCLE_EDGES):
    """Four random multigraphs over one vertex set, rows shuffled.

    Every relation has ``edges`` distinct edges, each repeated 1, 2 or 3
    times (a fixed cycle), so duplicate rows carry multiplicities that a
    bushy plan's materialised intermediate expands.
    """
    rng = random.Random(seed)
    out = {}
    for name in ("R", "S", "T", "U"):
        pairs = set()
        while len(pairs) < edges:
            pairs.add((rng.randrange(vertices), rng.randrange(vertices)))
        rows = [p for i, p in enumerate(sorted(pairs))
                for _ in range(CYCLE_MULTS[i % len(CYCLE_MULTS)])]
        rng.shuffle(rows)
        out[name] = rows
    return out


def cycle_expected(rows) -> int:
    """Sum over (a, c) of paths(a->c via R,S) x paths(c->a via T,U)."""

    def paths(first, second):
        by_src = {}
        for mid, dst in second:
            by_src.setdefault(mid, Counter())[dst] += 1
        out = Counter()
        for src, mid in first:
            for dst, k in by_src.get(mid, {}).items():
                out[(src, dst)] += k
        return out

    forward = paths(rows["R"], rows["S"])
    back = paths(rows["T"], rows["U"])
    return sum(k * back.get((c, a), 0) for (a, c), k in forward.items())


def gen_cycle4_bushy(out_dir: Path, seed: int):
    rows = cycle_relations(seed)
    attrs = {"R": "a,b", "S": "b,c", "T": "c,d", "U": "d,a"}
    for name, rs in rows.items():
        _write(out_dir, name, rs)
    _write_catalog(out_dir, [
        f"{name} {name}.csv {','.join(f'{x}:int' for x in a.split(','))}"
        for name, a in attrs.items()
    ])
    return cycle_expected(rows)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("tri-skew", "Q(a,b,c) :- R(a,b), S(b,c), T(c,a)", "binary", gen_tri_skew),
        Workload("star-build", "Q(x,a,b,c) :- S1(x,a), S0(x), S2(x,b), S3(x,c)", "gj",
                 gen_star_build),
        Workload("cycle4-bushy", "Q(COUNT) :- R(a,b), S(b,c), T(c,d), U(d,a)",
                 "((R(a,b) S(b,c)) (T(c,d) U(d,a)))", gen_cycle4_bushy),
    )
}


def write_workload(name: str, seed: int, out_dir: Path) -> None:
    """Write one workload's CSV catalog and ``expected.json`` to ``out_dir``.

    A full result is stored as a list of ``[*tuple, multiplicity]`` rows, a
    count as a bare integer.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    expected = WORKLOADS[name].generate(out_dir, seed)
    if isinstance(expected, dict):
        expected = [[*key, mult] for key, mult in expected.items()]
    (out_dir / "expected.json").write_text(json.dumps(expected), encoding="utf-8")


if __name__ == "__main__":
    # Run as its own process, so generator memory never shows in the
    # measuring process's peak RSS:  workloads.py NAME SEED OUT_DIR
    write_workload(sys.argv[1], int(sys.argv[2]), Path(sys.argv[3]))
