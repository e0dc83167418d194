"""Command-line driver.

Subcommands:

* ``run``   -- parse a query (and plan), load a catalog, execute the query
  under one strategy, print the result summary and counters, optionally
  verify against the brute-force evaluator.
* ``gen-triangle`` -- write the adversarial triangle instance family to
  CSV files plus a ready-made catalog.

Exit codes: 0 success, 1 load/execution error (a plan too deep for the
interpreter's per-node recursion among them), 2 parse/validation error,
3 verification failure.  A text file's leading byte-order mark is ignored.

Catalog file format, one relation per line (``#`` comments allowed)::

    name path attr:kind,attr:kind [sorted_by=a,b]

with kind ``int`` or ``str``; paths are resolved relative to the catalog
file.  Query files hold one query, e.g. ``Q(x,a) :- R(x,a), S(x)``, whose
head also gives the aggregate: ``Q(COUNT)`` or ``Q(MIN(x))``; plan files
hold one plan node per line, subatoms comma-separated.
"""

from __future__ import annotations

import argparse
import random
import sys
from pathlib import Path

from .errors import (
    EngineError,
    ExecutionError,
    PlanError,
    QueryError,
    SchemaError,
    SortednessError,
)
from .executor import (
    OptConfig,
    StructurePolicy,
    check_against_oracle,
    execute,
)
from .query import (
    AGG_COUNT,
    AGG_FULL,
    AGG_MIN,
    convert_left_deep,
    MODE_FREEJOIN,
    MODE_GENERIC_JOIN,
    optimize_plan,
    parse_plan,
    parse_query,
)
from .storage import gen_adversarial_triangle, load_csv, non_utf8_error

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_VALIDATION = 2
EXIT_CHECK_FAIL = 3

_VALIDATION_ERRORS = (QueryError, PlanError, SchemaError, SortednessError)


def load_catalog(path: str):
    """Parse a catalog file into {name: Relation}."""
    base = Path(path).parent
    relations = {}
    for lineno, line in enumerate(_read_text(path).split("\n"), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if len(fields) not in (3, 4):
            raise SchemaError(f"{path}:{lineno}: expected 3 or 4 fields, got {len(fields)}")
        name, rel_path, schema_text = fields[:3]
        if name in relations:
            raise SchemaError(f"{path}:{lineno}: duplicate relation name {name!r}")
        schema = []
        for col in schema_text.split(","):
            attr, colon, kind = col.partition(":")
            if not attr or not colon:
                raise SchemaError(f"{path}:{lineno}: bad column spec {col!r}")
            schema.append((attr, kind))
        sorted_by = None
        if len(fields) == 4:
            if not fields[3].startswith("sorted_by="):
                raise SchemaError(f"{path}:{lineno}: expected sorted_by=..., got {fields[3]!r}")
            sorted_by = tuple(fields[3][len("sorted_by="):].split(","))
        try:
            relations[name] = load_csv(base / rel_path, name, schema, sorted_by)
        except (SchemaError, SortednessError) as exc:
            raise type(exc)(f"{path}:{lineno}: {exc}") from None
    return relations


def _read_text(path) -> str:
    """A query, plan or catalog file's text, past a leading byte-order mark."""
    try:
        return Path(path).read_text(encoding="utf-8-sig")
    except UnicodeDecodeError:
        raise non_utf8_error(path) from None


def _resolve_plan(q, plan_flag: str):
    base = convert_left_deep(q, [a.relation for a in q.atoms])
    if plan_flag == "binary":
        return base
    if plan_flag == "gj":
        return optimize_plan(q, base, MODE_GENERIC_JOIN)
    if plan_flag == "fj":
        return optimize_plan(q, base, MODE_FREEJOIN)
    if plan_flag.startswith("file:"):
        return parse_plan(_read_text(plan_flag[len("file:"):]))
    raise PlanError(f"unknown plan source {plan_flag!r}")


def _strategy(opts_text: str, dicts_flag: str):
    """(OptConfig, StructurePolicy) from the flags; a bad value is a
    validation error, reported before any catalog is loaded."""
    try:
        return OptConfig.from_text(opts_text), StructurePolicy(dicts_flag)
    except ExecutionError as exc:
        raise PlanError(str(exc)) from None


def _result_summary(result, limit: int) -> list[str]:
    lines = []
    if result.kind == AGG_COUNT:
        lines.append(f"result kind=count value={result.count}")
    elif result.kind == AGG_MIN:
        if result.minima is None:
            lines.append("result kind=min empty=true (no satisfying assignment)")
        else:
            pairs = ", ".join(f"{v}={m}" for v, m in zip(result.vars, result.minima))
            lines.append(f"result kind=min {pairs}")
    else:
        rows = result.sorted_rows()
        total = sum(m for _, m in rows)
        lines.append(
            f"result kind=full cardinality={len(rows)} total_multiplicity={total}"
        )
        for key, mult in rows[:limit]:
            suffix = f" x{mult}" if mult != 1 else ""
            lines.append("  (" + ", ".join(repr(v) for v in key) + ")" + suffix)
        if len(rows) > limit:
            lines.append(f"  ... {len(rows) - limit} more")
    return lines


def _first_difference(result, reference):
    """First differing tuple between a full ResultBag and the reference bag,
    which ``matches_reference`` has found to differ."""
    keys = sorted(set(result.tuples) | set(reference))
    for k in keys:
        a = result.tuples.get(k, 0)
        b = reference.get(k, 0)
        if a != b:
            return k, a, b


def cmd_run(args) -> int:
    opts, policy = _strategy(args.opts, args.dicts)
    if args.limit < 0:
        raise PlanError(f"--limit must be non-negative, got {args.limit}")
    # The query and plan are checked before the catalog's CSVs are loaded.
    q, agg = parse_query(_read_text(args.query).strip())
    plan = _resolve_plan(q, args.plan)
    relations = load_catalog(args.catalog)
    result, stats = execute(q, plan, relations, agg, policy, opts)
    for line in _result_summary(result, args.limit):
        print(line)
    if args.stats != "none":
        print("stats:")
        print(stats.to_json() if args.stats == "json" else stats.to_text())
    if args.check:
        ok, reference = check_against_oracle(q, relations, agg, result)
        if ok:
            print("check: PASS")
        else:
            print("check: FAIL")
            if result.kind == AGG_FULL:
                k, a, b = _first_difference(result, reference)
                print(f"  first difference at {k}: got multiplicity {a}, expected {b}")
            else:
                print(f"  got {result.count if result.kind == AGG_COUNT else result.minima},"
                      f" expected {reference}")
            return EXIT_CHECK_FAIL
    return EXIT_OK


def cmd_gen_triangle(args) -> int:
    rels = gen_adversarial_triangle(args.n)
    if args.seed is not None:
        rels = _relabel(rels, args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    catalog_lines = []
    for rel in rels:
        csv_path = out / f"{rel.name}.csv"
        with open(csv_path, "w", encoding="utf-8") as fh:
            for row in rel.rows():
                fh.write(",".join(str(v) for v in row) + "\n")
        schema = ",".join(f"{a}:int" for a in rel.attrs)
        catalog_lines.append(
            f"{rel.name} {rel.name}.csv {schema} sorted_by={','.join(rel.sorted_by)}"
        )
    (out / "catalog.txt").write_text("\n".join(catalog_lines) + "\n", encoding="utf-8")
    (out / "query.txt").write_text("Q(a,b,c) :- R(a,b), S(b,c), T(c,a)\n", encoding="utf-8")
    print(f"wrote {args.n}-row triangle instance to {out}")
    return EXIT_OK


def _relabel(rels, seed: int):
    """Apply one order-preserving random relabeling of the values shared by
    all relations, so the instance varies with the seed while the join
    structure and every sortedness declaration hold."""
    from .storage import Relation

    values = sorted({v for rel in rels for a in rel.attrs for v in rel.columns[a]})
    rng = random.Random(seed)
    mapping = {}
    nxt = 0
    for v in values:
        nxt += rng.randrange(1, 4)
        mapping[v] = nxt
    out = []
    for rel in rels:
        columns = {a: tuple(map(mapping.__getitem__, col)) for a, col in rel.columns.items()}
        out.append(Relation(rel.name, rel.attrs, columns, sorted_by=rel.sorted_by))
    return tuple(out)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="unijoin",
        description="In-memory conjunctive-query join engine spanning binary "
        "and worst-case optimal plans.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute one query under one strategy")
    p_run.add_argument("--catalog", required=True, help="catalog file")
    p_run.add_argument("--query", required=True, help="query file")
    p_run.add_argument("--plan", default="binary", help="binary | gj | fj | file:PATH")
    p_run.add_argument("--dicts", default="hybrid", help="hash | sorted | hybrid")
    p_run.add_argument("--opts", default="all", help="comma list of O1..O5, all, or none")
    p_run.add_argument("--check", action="store_true",
                       help="verify against the brute-force evaluator")
    p_run.add_argument("--stats", default="text", choices=("text", "json", "none"))
    p_run.add_argument("--limit", type=int, default=20, help="max tuples to print")
    p_run.set_defaults(func=cmd_run)

    p_gen = sub.add_parser("gen-triangle",
                           help="write the adversarial triangle family to CSV")
    p_gen.add_argument("--n", type=int, required=True, help="rows per relation (even)")
    p_gen.add_argument("--out", required=True, help="output directory")
    p_gen.add_argument("--seed", type=int, default=None,
                       help="order-preserving value relabeling seed")
    p_gen.set_defaults(func=cmd_gen_triangle)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _VALIDATION_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (EngineError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except RecursionError:  # the interpreter recurses once per plan node
        print("error: the plan has too many nodes to run", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
