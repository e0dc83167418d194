"""Conjunctive queries, join plans, and plan transformations.

A query is a head plus a list of atoms binding relation columns to shared
variables.  A join plan is an ordered list of nodes, each node an ordered
list of subatoms; per relation, the subatoms across all nodes must partition
that relation's variables.  The first subatom of a node is iterated, the
rest are probed, which is why a single plan shape covers left-deep binary
joins, per-variable worst-case optimal joins, and everything in between.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import PlanError, QueryError, names_tuple

AGG_FULL = "full"
AGG_COUNT = "count"
AGG_MIN = "min"


def _names_tuple(obj, field: str, owner: str) -> None:
    """Store ``obj``'s variables under ``field`` as a tuple, refusing a bare
    string (``names_tuple``), as ``Relation`` stores its attributes."""
    object.__setattr__(obj, field, names_tuple(getattr(obj, field), QueryError, owner))


@dataclass(frozen=True)
class Atom:
    relation: str
    vars: tuple[str, ...]

    def __post_init__(self):
        _names_tuple(self, "vars", f"atom {self.relation}")
        if len(set(self.vars)) != len(self.vars):
            raise QueryError(f"atom {self.relation}: repeated variable in {self.vars}")

    def __str__(self):
        return f"{self.relation}({','.join(self.vars)})"


@dataclass(frozen=True)
class Subatom:
    relation: str
    vars: tuple[str, ...]

    def __post_init__(self):
        _names_tuple(self, "vars", f"subatom {self.relation}")

    def __str__(self):
        return f"{self.relation}({','.join(self.vars)})"


@dataclass(frozen=True)
class AggregationSpec:
    """What to do with satisfying assignments: keep them, count them, or
    track per-column minima.

    ``vars`` are the variables kept under ``full`` (a bag projection, where
    an empty projection means the query head), the variables minimized
    under ``min``, and unused under ``count``.  A list of them is stored as
    a tuple, and a bare string is refused, as for ``ConjunctiveQuery``'s
    head.
    """

    kind: str = AGG_FULL
    vars: tuple[str, ...] = ()

    def __post_init__(self):
        if self.kind not in (AGG_FULL, AGG_COUNT, AGG_MIN):
            raise QueryError(f"unknown aggregate kind {self.kind!r}")
        _names_tuple(self, "vars", f"{self.kind} aggregate")

    def output(self, q: "ConjunctiveQuery") -> tuple[str, ...]:
        """The variables a result over ``q`` reports, each once: none under
        ``count``, else ``vars`` or, if empty, the head.  Every variable in
        ``vars`` must occur in ``q``'s body."""
        body = q.variables()
        for v in self.vars:
            if v not in body:
                raise QueryError(f"aggregate variable {v!r} does not appear in the body")
        if self.kind == AGG_COUNT:
            return ()
        return tuple(dict.fromkeys(self.vars or q.head))


@dataclass(frozen=True)
class ConjunctiveQuery:
    head: tuple[str, ...]
    atoms: tuple[Atom, ...]

    def __post_init__(self):
        _names_tuple(self, "head", "query head")
        object.__setattr__(self, "atoms", tuple(self.atoms))
        names = [a.relation for a in self.atoms]
        if len(set(names)) != len(names):
            raise QueryError(
                "duplicate relation name in query body; register the relation "
                "under a second catalog name for self-joins"
            )
        body = self.variables()
        for v in self.head:
            if v not in body:
                raise QueryError(f"head variable {v!r} does not appear in the body")
        if len(set(self.head)) != len(self.head):
            raise QueryError("repeated variable in query head")

    def variables(self) -> set[str]:
        return {v for a in self.atoms for v in a.vars}

    def atom(self, relation: str) -> Atom:
        for a in self.atoms:
            if a.relation == relation:
                return a
        raise QueryError(f"no atom over relation {relation!r}")

    def __str__(self):
        return f"Q({','.join(self.head)}) :- " + ", ".join(str(a) for a in self.atoms)


@dataclass(frozen=True)
class FreeJoinPlan:
    nodes: tuple[tuple[Subatom, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "nodes", tuple(map(tuple, self.nodes)))

    def __str__(self):
        return "\n".join(", ".join(str(s) for s in node) for node in self.nodes)

    def subatoms_of(self, relation: str):
        """(node_index, position, subatom) for one relation, in plan order."""
        out = []
        for ni, node in enumerate(self.nodes):
            for pi, sub in enumerate(node):
                if sub.relation == relation:
                    out.append((ni, pi, sub))
        return out


@dataclass(frozen=True)
class BushyPlan:
    """Binary join tree: leaves are atoms, internal nodes join two subtrees."""

    left: "BushyPlan | Atom"
    right: "BushyPlan | Atom"

    def leaves(self) -> list[Atom]:
        out = []
        for side in (self.left, self.right):
            if isinstance(side, BushyPlan):
                out.extend(side.leaves())
            else:
                out.append(side)
        return out

    def __str__(self):
        return f"({self.left} {self.right})"


# One token of the plan language, with the blanks around it: an atom
# ``name(v1,...)``, a parenthesis or a comma.  Any other text is junk, read
# up to the next blank.
_TOKEN_RE = re.compile(
    r"\s*(?:([A-Za-z_][A-Za-z0-9_]*)\s*\(([^()]*)\)|([(),])|(\S+))\s*"
)


def _tokens(text: str, what: str, error):
    """``text`` as tokens: a (name, argument text) pair per atom, which
    ``_read_atom`` reads, else the character itself.  Junk raises ``error``."""
    tokens = []
    for name, args, punct, junk in _TOKEN_RE.findall(text):
        if junk:
            raise error(f"unexpected text {junk!r} in {what}")
        tokens.append(punct or (name, args))
    return tokens


def _read_atom(name: str, args: str):
    """(relation, variables) of an atom token, each variable a name."""
    vars_ = tuple(v.strip() for v in args.split(",")) if args.strip() else ()
    for v in vars_:
        if not (v.isascii() and v.isidentifier()):
            raise QueryError(f"bad variable name {v!r} in atom {name}({args})")
    return name, vars_


def _atom_list(text: str, what: str):
    """The (relation, variables) pairs of ``atom, atom, ...``: a query body
    or a plan line."""
    tokens = _tokens(text, what, QueryError)
    for i, tok in enumerate(tokens):
        if tok == "," and (i % 2 == 0 or i == len(tokens) - 1):
            raise QueryError(f"empty atom in {text.strip()!r}")
        if tok in ("(", ")"):
            raise QueryError(f"unexpected {tok!r} in {what}")
        if i % 2 and tok != ",":
            raise QueryError(f"missing ',' between atoms in {text.strip()!r}")
    return [_read_atom(*tok) for tok in tokens[::2]]


def parse_query(text: str):
    """Parse ``Head(v1,...) :- R(u,...), S(u,...)`` into a query + aggregate.

    The head argument list may instead be ``COUNT`` or ``MIN(v1,...,vk)``.
    A plain head that omits some body variables is treated as a bag
    projection (full-tuple aggregation over the listed variables).
    """
    if ":-" not in text:
        raise QueryError(f"query must contain ':-' at position {len(text)}: {text!r}")
    head_text, body_text = text.split(":-", 1)
    head_text = head_text.strip()
    # DOTALL: a newline between the head's parentheses is a blank, as
    # anywhere else in a query.
    m = re.fullmatch(r"([A-Za-z_][A-Za-z0-9_]*)\s*\((.*)\)", head_text, re.DOTALL)
    if m is None:
        raise QueryError(f"cannot parse query head: {head_text!r}")
    head_args = m.group(2).strip()

    if not body_text.strip():
        raise QueryError("query body is empty")
    atoms = tuple(Atom(name, vars_) for name, vars_ in _atom_list(body_text, "query body"))
    body = tuple(dict.fromkeys(v for a in atoms for v in a.vars))

    if head_args.upper() == "COUNT":
        return ConjunctiveQuery(body, atoms), AggregationSpec(AGG_COUNT)
    func, paren, _ = head_args.partition("(")
    if paren and func.rstrip().upper() == "MIN":
        tokens = _tokens(head_args, "MIN head", QueryError)
        if len(tokens) != 1 or isinstance(tokens[0], str) or not tokens[0][1].strip():
            raise QueryError(f"cannot parse MIN head: {head_args!r}")
        q = ConjunctiveQuery(body, atoms)
        agg = AggregationSpec(AGG_MIN, _read_atom(*tokens[0])[1])
        agg.output(q)  # refuses a variable outside the body
        return q, agg
    head = tuple(v.strip() for v in head_args.split(",")) if head_args else ()
    # A non-full plain head is a bag projection onto the listed variables.
    return ConjunctiveQuery(head, atoms), AggregationSpec(AGG_FULL, head)


def parse_plan(text: str) -> FreeJoinPlan:
    """One node per line, subatoms comma-separated: ``R(x,a), S(x)``."""
    nodes = []
    for line in text.splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            nodes.append(tuple(Subatom(*sub) for sub in _atom_list(line, "plan line")))
    return FreeJoinPlan(nodes)


def plan_violation(q: ConjunctiveQuery, plan: FreeJoinPlan) -> str | None:
    """First violated plan invariant as a message, or None when valid."""
    atom_vars = {a.relation: a.vars for a in q.atoms}
    if not plan.nodes:
        return "plan has no nodes"
    for node in plan.nodes:
        if not node:
            return "plan contains an empty node"
        for sub in node:
            if sub.relation not in atom_vars:
                return f"subatom {sub}: relation not in query"
            if len(set(sub.vars)) != len(sub.vars):
                return f"subatom {sub}: repeated variable"
            extra = set(sub.vars) - set(atom_vars[sub.relation])
            if extra:
                return f"subatom {sub}: variables {sorted(extra)} not bound by the atom"

    # Partition property per atom, and at most one subatom per atom per node.
    for rel, vars_ in atom_vars.items():
        parts = plan.subatoms_of(rel)
        if not parts:
            return f"atom {rel}: no subatoms in plan"
        seen_nodes = [ni for ni, _, _ in parts]
        if len(set(seen_nodes)) != len(seen_nodes):
            return f"atom {rel}: two subatoms share a node"
        covered: set[str] = set()
        for _, _, sub in parts:
            overlap = covered & set(sub.vars)
            if overlap:
                return f"atom {rel}: subatom variables {sorted(overlap)} not disjoint"
            covered |= set(sub.vars)
        if covered != set(vars_):
            missing = set(vars_) - covered
            return f"atom {rel}: variables {sorted(missing)} not covered by any subatom"

    # Binding order: a node's first subatom introduces its variables, none of
    # them bound before (iterating it would overwrite those bindings rather
    # than join on them); every other subatom must be fully bound when probed.
    bound: set[str] = set()
    for ni, node in enumerate(plan.nodes):
        first = node[0]
        rebound = set(first.vars) & bound
        if rebound:
            return f"node {ni}: first subatom {first} rebinds bound variables {sorted(rebound)}"
        bound |= set(first.vars)
        for sub in node[1:]:
            unbound = set(sub.vars) - bound
            if unbound:
                return f"node {ni}: probe {sub} uses unbound variables {sorted(unbound)}"
    return None


def validate_plan(q: ConjunctiveQuery, plan: FreeJoinPlan) -> None:
    msg = plan_violation(q, plan)
    if msg is not None:
        raise PlanError(msg)


def convert_left_deep(q: ConjunctiveQuery, order) -> FreeJoinPlan:
    """Straightforward conversion of a left-deep binary order, given as
    relation names, into a plan.

    Node k iterates the variables of relation k not already bound by the
    prefix and probes relation k+1 on its variables shared with the prefix.
    A relation fully covered by the prefix contributes no iteration node;
    its probe simply stays in the previous node.
    """
    atoms = [q.atom(a) for a in names_tuple(order, PlanError, "left-deep order")]
    if {a.relation for a in atoms} != {a.relation for a in q.atoms}:
        raise PlanError("left-deep order must cover exactly the query's atoms")
    nodes: list[list[Subatom]] = []
    bound: set[str] = set()
    for k, atom in enumerate(atoms):
        carry = tuple(v for v in atom.vars if v not in bound)
        if k == 0:
            nodes.append([Subatom(atom.relation, atom.vars)])
        elif carry:
            nodes.append([Subatom(atom.relation, carry)])
        bound |= set(atom.vars)
        if k + 1 < len(atoms):
            nxt = atoms[k + 1]
            shared = tuple(v for v in nxt.vars if v in bound)
            if not shared:
                raise PlanError(
                    f"cartesian product: {nxt.relation} shares no variable with the prefix"
                )
            nodes[-1].append(Subatom(nxt.relation, shared))
    plan = FreeJoinPlan(nodes)
    validate_plan(q, plan)
    return plan


def _introduction_order(plan: FreeJoinPlan) -> list[str]:
    order = []
    for node in plan.nodes:
        for sub in node:
            for v in sub.vars:
                if v not in order:
                    order.append(v)
    return order


def _first_touch_order(plan: FreeJoinPlan) -> list[str]:
    order = []
    for node in plan.nodes:
        for sub in node:
            if sub.relation not in order:
                order.append(sub.relation)
    return order


MODE_GENERIC_JOIN = "generic-join"
MODE_FREEJOIN = "freejoin"


def optimize_plan(q: ConjunctiveQuery, plan: FreeJoinPlan, mode: str) -> FreeJoinPlan:
    """Rewrite a valid plan toward one end of the plan spectrum.

    ``generic-join`` splits the plan into one node per variable, each node
    listing every atom containing that variable (relations in first-touch
    order), which turns every join into an intersection step.  ``freejoin``
    hoists each probe into the earliest node where all its variables are
    already available, shrinking the number of nodes.
    """
    validate_plan(q, plan)
    if mode == MODE_GENERIC_JOIN:
        rel_order = _first_touch_order(plan)
        atom_by_rel = {a.relation: a for a in q.atoms}
        nodes = []
        for v in _introduction_order(plan):
            node = tuple(
                Subatom(rel, (v,))
                for rel in rel_order
                if v in atom_by_rel[rel].vars
            )
            nodes.append(node)
        out = FreeJoinPlan(nodes)
    elif mode == MODE_FREEJOIN:
        out = _hoist_probes(plan)
    else:
        raise PlanError(f"unknown optimization mode {mode!r}")
    validate_plan(q, out)
    return out


def _hoist_probes(plan: FreeJoinPlan) -> FreeJoinPlan:
    # Variables available after each node's first subatom has run.
    available: list[set[str]] = []
    bound: set[str] = set()
    for node in plan.nodes:
        bound |= set(node[0].vars)
        available.append(set(bound))

    # A later part of an atom goes no earlier than the node after its
    # preceding part, to keep the per-atom descent order intact.
    new_nodes: list[list[Subatom]] = [[node[0]] for node in plan.nodes]
    part_index: dict[str, int] = {}
    placed_at: dict[tuple[str, int], int] = {}
    for ni, node in enumerate(plan.nodes):
        for pi, sub in enumerate(node):
            idx = part_index.get(sub.relation, 0)
            part_index[sub.relation] = idx + 1
            if pi == 0:
                placed_at[(sub.relation, idx)] = ni
                continue
            lo = 0
            if idx > 0:
                lo = placed_at[(sub.relation, idx - 1)] + 1
            target = ni
            for cand in range(lo, ni + 1):
                if set(sub.vars) <= available[cand]:
                    target = cand
                    break
            new_nodes[target].append(sub)
            placed_at[(sub.relation, idx)] = target
    return FreeJoinPlan(new_nodes)


@dataclass(frozen=True)
class PlanStage:
    """One left-deep plan of a decomposed bushy tree.

    ``target`` is None for the root stage; otherwise the stage materializes
    an intermediate relation with attributes ``out_vars``.
    """

    target: str | None
    order: tuple[Atom, ...]
    out_vars: tuple[str, ...]


def decompose_bushy(
    q: ConjunctiveQuery, tree: "BushyPlan | Atom", agg: AggregationSpec = AggregationSpec()
) -> list[PlanStage]:
    """Post-order decomposition of a bushy tree into left-deep stages.

    Every non-leaf right subtree becomes its own stage materializing an
    intermediate whose attributes are exactly its variables still needed
    above it: those joined outside the subtree, and those in the output
    (``agg.output``, so the every-variable head ``parse_query`` gives
    ``COUNT`` and ``MIN`` keeps nothing alive).  The root stage's head is
    the output.  Intermediates carry no sort order.  The tree's leaves
    must be the query's atoms, each once.
    """
    leaves = tree.leaves() if isinstance(tree, BushyPlan) else [tree]
    if len(leaves) != len(q.atoms) or set(leaves) != set(q.atoms):
        raise PlanError(
            f"bushy tree leaves {', '.join(map(str, leaves))} are not the query's "
            f"atoms {', '.join(map(str, q.atoms))}"
        )
    out_vars = agg.output(q)
    stages: list[PlanStage] = []
    counter = [0]

    def linearize(node) -> list[Atom]:
        if isinstance(node, Atom):
            return [node]
        seq = linearize(node.left)
        if isinstance(node.right, Atom):
            seq.append(node.right)
            return seq
        sub_seq = linearize(node.right)
        sub_vars = {v for a in sub_seq for v in a.vars}
        outside = {
            v
            for a in q.atoms
            if a.relation not in {s.relation for s in sub_seq}
            for v in a.vars
        }
        live = sub_vars & (outside | set(out_vars))
        order = []
        for a in sub_seq:
            for v in a.vars:
                if v in live and v not in order:
                    order.append(v)
        counter[0] += 1
        name = f"_I{counter[0]}"
        stages.append(PlanStage(name, tuple(sub_seq), tuple(order)))
        seq.append(Atom(name, tuple(order)))
        return seq

    if isinstance(tree, Atom):
        root_seq = [tree]
    else:
        root_seq = linearize(tree)
    stages.append(PlanStage(None, tuple(root_seq), out_vars))
    return stages


def parse_bushy(text: str) -> "BushyPlan | Atom":
    """Parse a join tree, an atom or ``(tree tree)``:
    ``((R(a,b) S(b,c)) (T(c,d) U(d,a)))``."""
    tokens = _tokens(text, "bushy plan", PlanError)
    if "," in tokens:
        raise PlanError("unexpected text ',' in bushy plan")
    tokens = iter(tokens)

    def tree() -> "BushyPlan | Atom":
        tok = next(tokens, None)
        if tok is None:
            raise PlanError("unexpected end of bushy plan")
        if tok == "(":
            node = BushyPlan(tree(), tree())
            if next(tokens, None) != ")":
                raise PlanError("expected ')' in bushy plan")
            return node
        if isinstance(tok, str):
            raise PlanError(f"unexpected {tok!r} in bushy plan")
        return Atom(*_read_atom(*tok))

    out = tree()
    if next(tokens, None) is not None:
        raise PlanError("trailing tokens in bushy plan")
    return out


@dataclass
class LivenessInfo:
    """A plan with its dead columns pruned, and the atoms pruned entirely."""

    pruned_plan: FreeJoinPlan
    dropped_atoms: tuple[str, ...] = ()


def liveness(q: ConjunctiveQuery, plan: FreeJoinPlan, agg: AggregationSpec) -> LivenessInfo:
    """Classify variables as live or dead and prune dead ones from the plan.

    A variable is live when it reaches the output (head or aggregate) or
    joins two atoms.  Dead variables are dropped from their subatoms; a
    subatom left empty disappears, and if it was a node's iteration source
    the node's probes move back to the previous node -- unless that node
    already holds a subatom of one of their atoms, in which case the source
    is kept, dead variables and all.
    """
    out_vars = set(agg.output(q))
    var_atoms: dict[str, int] = {}
    for a in q.atoms:
        for v in a.vars:
            var_atoms[v] = var_atoms.get(v, 0) + 1
    live = {v for v, n in var_atoms.items() if n > 1} | out_vars

    new_nodes: list[list[Subatom]] = []
    for node in plan.nodes:
        cur: list[Subatom] = []
        source_pruned = False
        for pi, sub in enumerate(node):
            kept = tuple(v for v in sub.vars if v in live)
            if kept or not sub.vars:
                cur.append(Subatom(sub.relation, kept))
            elif pi == 0:
                source_pruned = True
        if not cur:
            continue
        if source_pruned and new_nodes:
            prev = new_nodes[-1]
            if {s.relation for s in cur}.isdisjoint(s.relation for s in prev):
                # Iteration source vanished: the node's probes attach to the
                # previous node.
                prev.extend(cur)
                continue
            # The previous node already holds a subatom of one of these
            # atoms, and an atom gets one subatom per node: the source stays.
            cur.insert(0, node[0])
        new_nodes.append(cur)
    pruned = FreeJoinPlan(new_nodes)

    # Atoms whose every subatom was pruned act as pure multiplicity factors;
    # record them so the executor can account for their cardinality.
    remaining = {s.relation for node in pruned.nodes for s in node}
    fully_dropped = tuple(a.relation for a in q.atoms if a.relation not in remaining)

    return LivenessInfo(pruned, fully_dropped)
