"""Brute-force reference evaluator.

Enumerates the full cross product of the body atoms with early pruning on
variable equality, producing a multiset of satisfying assignments.  A
weighted row counts as many times as its weight.  Slow by
design; it exists so every other evaluation path has something independent
to be checked against.
"""

from __future__ import annotations

from .errors import BudgetExceededError, ExecutionError
from .query import AGG_COUNT, AGG_MIN, AggregationSpec, ConjunctiveQuery
from .storage import Relation

DEFAULT_BUDGET = 100_000_000


def nested_loop(
    q: ConjunctiveQuery,
    relations: dict[str, Relation],
    agg: AggregationSpec = AggregationSpec(),
    budget: int = DEFAULT_BUDGET,
):
    """Evaluate a query by nested loops over its atoms.

    Returns a result matching the aggregate kind:
      * full  -> dict mapping projected tuples (over ``agg.output``) to
        multiplicities,
      * count -> the total number of satisfying assignments (an int),
      * min   -> tuple of per-variable minima over ``agg.output``, or None
        when no assignment satisfies the body.

    Raises BudgetExceededError when the cross-product size exceeds
    ``budget``; the bound is on potential work, checked up front, so the
    oracle never silently runs for hours.
    """
    for atom in q.atoms:
        if atom.relation not in relations:
            raise ExecutionError(f"oracle: relation {atom.relation!r} not provided")
        rel = relations[atom.relation]
        if len(atom.vars) != len(rel.attrs):
            raise ExecutionError(
                f"oracle: atom {atom} arity {len(atom.vars)} != relation arity {len(rel.attrs)}"
            )

    product = 1
    for atom in q.atoms:
        product *= max(relations[atom.relation].size, 1)
        if product > budget:
            raise BudgetExceededError(
                f"oracle: cross product exceeds budget of {budget} rows"
            )

    proj = agg.output(q)

    bag: dict[tuple, int] = {}
    count = 0
    minima: list | None = None

    atoms = list(q.atoms)
    n_atoms = len(atoms)
    rels = [relations[a.relation] for a in atoms]
    atom_cols = [[r.columns[attr] for attr in r.attrs] for r in rels]
    atom_weights = [r.weights or [1] * r.size for r in rels]

    def recur(i: int, binding: dict, mult: int):
        nonlocal count, minima
        if i == n_atoms:
            if agg.kind == AGG_COUNT:
                count += mult
            elif agg.kind == AGG_MIN:
                vals = [binding[v] for v in proj]
                if minima is None:
                    minima = vals
                else:
                    minima = [min(m, x) for m, x in zip(minima, vals)]
            else:
                key = tuple(binding[v] for v in proj)
                bag[key] = bag.get(key, 0) + mult
            return
        cols = atom_cols[i]
        weights = atom_weights[i]
        vars_ = atoms[i].vars
        for off in range(rels[i].size):
            local = dict(binding)
            ok = True
            for vi, v in enumerate(vars_):
                val = cols[vi][off]
                if v in local:
                    if local[v] != val:
                        ok = False
                        break
                else:
                    local[v] = val
            if ok:
                recur(i + 1, local, mult * weights[off])

    recur(0, {}, 1)
    if agg.kind == AGG_COUNT:
        return count
    if agg.kind == AGG_MIN:
        return tuple(minima) if minima is not None else None
    return bag
