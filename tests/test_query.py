"""Query parsing, plan validation, and plan transformations."""

import random
import re
from pathlib import Path

import pytest

from conftest import CORPUS, parsed
from unijoin.errors import PlanError, QueryError
from unijoin.executor import OptConfig, StructurePolicy, execute, execute_bushy
from unijoin.oracle import nested_loop
from unijoin.query import (
    AGG_COUNT,
    AGG_FULL,
    AGG_MIN,
    MODE_FREEJOIN,
    MODE_GENERIC_JOIN,
    AggregationSpec,
    Atom,
    BushyPlan,
    ConjunctiveQuery,
    FreeJoinPlan,
    Subatom,
    convert_left_deep,
    decompose_bushy,
    liveness,
    optimize_plan,
    parse_bushy,
    parse_plan,
    parse_query,
    plan_violation,
    validate_plan,
)
from unijoin.storage import Relation, gen_adversarial_triangle

GOLDEN = Path(__file__).parent / "golden"


class TestParseQuery:
    def test_basic(self):
        q, agg = parse_query("Q(x,y) :- R(x,y), S(y)")
        assert q.head == ("x", "y")
        assert [str(a) for a in q.atoms] == ["R(x,y)", "S(y)"]
        assert agg.kind == "full"
        assert str(q) == "Q(x,y) :- R(x,y), S(y)"
        assert str(parse_query("Q(x) :- R(x,y), S(y)")[0]) == "Q(x) :- R(x,y), S(y)"

    def test_count_head(self):
        q, agg = parse_query("Q(COUNT) :- R(x,y)")
        assert agg.kind == "count"

    def test_min_head(self):
        q, agg = parse_query("Q(MIN(x,y)) :- R(x,y)")
        assert agg.kind == "min" and agg.vars == ("x", "y")
        q, agg = parse_query("Q(MIN (x, y)) :- R(x,y)")
        assert agg.kind == "min" and agg.vars == ("x", "y")
        q, agg = parse_query("Q( min ( x ) ) :- R(x,y)")
        assert agg.kind == "min" and agg.vars == ("x",)

    @pytest.mark.parametrize("head", ["MIN(x", "MIN(x),y", "MIN(x) junk", "MIN()", "MIN(x),"])
    def test_malformed_min_head(self, head):
        # Each once crashed or ran silently as MIN(x).
        with pytest.raises(QueryError, match="MIN head"):
            parse_query(f"Q({head}) :- R(x,y)")

    @pytest.mark.parametrize(
        "text", ["Q(a,b) :- R(a,b),,", "Q(a,b) :- ,R(a,b)", "Q(a,b):-R(a,b),"]
    )
    def test_empty_body_atom(self, text):
        # Each once ran as Q(a,b) :- R(a,b), the empty atom dropped.
        with pytest.raises(QueryError, match="empty atom"):
            parse_query(text)

    def test_min_unknown_var(self):
        with pytest.raises(QueryError):
            parse_query("Q(MIN(z)) :- R(x,y)")

    def test_projection_head(self):
        q, agg = parse_query("Q(x) :- R(x,y), S(y)")
        assert agg.kind == "full" and agg.vars == ("x",)

    def test_head_var_must_occur(self):
        with pytest.raises(QueryError):
            parse_query("Q(z) :- R(x,y)")

    def test_duplicate_relation_rejected(self):
        with pytest.raises(QueryError):
            parse_query("Q(x,y) :- R(x,y), R(y,x)")

    def test_missing_turnstile(self):
        with pytest.raises(QueryError):
            parse_query("Q(x) R(x)")

    def test_repeated_var_in_atom(self):
        with pytest.raises(QueryError):
            parse_query("Q(x) :- R(x,x)")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("Q(a) :- R(a) S(a)", "missing ','"),
            ("Q(a) :- R(a), (S(a))", "unexpected '('"),
            ("Q(a) :- R(a), S(1)", "bad variable name '1'"),
            ("Q(a,a) :- R(a)", "repeated variable in query head"),
            ("Q a :- R(a)", "cannot parse query head"),
            ("Q(a,b) x :- R(a,b)", "cannot parse query head"),
            ("Q(a,\nb)\nx :- R(a,b)", "cannot parse query head"),
            ("Q(a) :-  ", "query body is empty"),
        ],
    )
    def test_refused(self, text, message):
        with pytest.raises(QueryError, match=re.escape(message)):
            parse_query(text)

    @pytest.mark.parametrize("head", ["Q(a,\nb)", "Q(\na, b\n)", "Q\n(a,b)"])
    def test_newline_in_head_is_a_blank(self, head):
        assert parse_query(f"{head} :- R(a,b)") == parse_query("Q(a,b) :- R(a,b)")


class TestPlanText:
    def test_round_trip(self):
        text = "R(x,a), S(x), T(x)\nS(b)\n"
        plan = parse_plan(text)
        assert str(plan) + "\n" == text

    def test_comments_and_blanks_ignored(self):
        plan = parse_plan("# plan\n\nR(x)\n")
        assert plan.nodes == ((Subatom("R", ("x",)),),)

    @pytest.mark.parametrize("text", ["R(x,a), S(x),\nS(b)", "R(x,a)\n,\n"])
    def test_empty_subatom_rejected(self, text):
        # A node line shares the body's splitter; both lines once dropped
        # the empty part silently.
        with pytest.raises(QueryError, match="empty atom"):
            parse_plan(text)

    def test_missing_comma_rejected(self):
        with pytest.raises(QueryError, match="missing ','"):
            parse_plan("R(x,a) S(x)")


class TestValidatePlan:
    def setup_method(self):
        self.q, _ = parse_query("Q(x,a,b) :- R(x,a), S(x,b), T(x)")

    def test_good(self):
        validate_plan(self.q, parse_plan("R(x,a), S(x), T(x)\nS(b)"))

    def test_partition_missing_var(self):
        assert "not covered" in plan_violation(
            self.q, parse_plan("R(x), S(x), T(x)\nS(b)")
        )

    def test_partition_overlap(self):
        assert "disjoint" in plan_violation(
            self.q, parse_plan("R(x,a), S(x), T(x)\nS(x,b)")
        )

    def test_unbound_probe(self):
        assert "unbound" in plan_violation(self.q, parse_plan("R(x,a), S(b)\nS(x), T(x)"))

    def test_first_subatom_rebinding_bound_var(self):
        """Iterating T(c,d) then R(a,b,c) would overwrite c rather than join
        on it: execute would return all four (R, T) pairs, not {(1,2,3,5)}."""
        q, agg = parse_query("Q(a,b,c,d) :- R(a,b,c), T(c,d)")
        plan = parse_plan("T(c,d)\nR(a,b,c)")
        assert "rebinds bound variables ['c']" in plan_violation(q, plan)
        rels = {
            "R": Relation.from_rows("R", ("a", "b", "c"), [(1, 2, 3), (1, 2, 4)]),
            "T": Relation.from_rows("T", ("c", "d"), [(3, 5), (9, 6)]),
        }
        for policy in ("hash", "sorted", "hybrid"):
            with pytest.raises(PlanError):
                execute(q, plan, rels, agg, StructurePolicy(policy))

    def test_unknown_relation(self):
        with pytest.raises(PlanError):
            validate_plan(self.q, parse_plan("R(x,a), S(x), T(x), Z(x)\nS(b)"))

    def test_repeated_variable_in_subatom(self):
        # T(c,a,a) covers exactly T's variables, so only a per-subatom check
        # sees the repeat.
        q, agg = parse_query("Q(a,b,c) :- R(a,b), S(b,c), T(c,a)")
        plan = parse_plan("R(a,b), S(b)\nS(c), T(c,a,a)")
        assert "subatom T(c,a,a): repeated variable" in plan_violation(q, plan)
        rels = {r.name: r for r in gen_adversarial_triangle(4)}
        with pytest.raises(PlanError):
            execute(q, plan, rels, agg)

    def test_two_subatoms_in_one_node(self):
        assert "share a node" in plan_violation(
            self.q, parse_plan("R(x), S(x), T(x), R(a)\nS(b)")
        )

    @pytest.mark.parametrize(
        "plan, message",
        [
            (parse_plan("# a comment and nothing else\n"), "plan has no nodes"),
            (FreeJoinPlan(((),)), "plan contains an empty node"),
            (
                parse_plan("R(x,a,z), S(x), T(x)\nS(b)"),
                "subatom R(x,a,z): variables ['z'] not bound by the atom",
            ),
            (parse_plan("R(x,a), S(x)\nS(b)"), "atom T: no subatoms in plan"),
        ],
    )
    def test_violation(self, plan, message):
        assert plan_violation(self.q, plan) == message
        with pytest.raises(PlanError, match=re.escape(message)):
            validate_plan(self.q, plan)


class TestGoldenPlans:
    """Pinned shapes for the three reference plans of the three-leaf query."""

    def setup_method(self):
        self.q, _ = parse_query("Q(x,a,b) :- R(x,a), S(x,b), T(x)")
        self.naive = convert_left_deep(self.q, ("R", "S", "T"))

    def test_binary_conversion(self):
        assert self.naive == parse_plan((GOLDEN / "clover_naive.plan").read_text())

    def test_generic_join(self):
        gj = optimize_plan(self.q, self.naive, MODE_GENERIC_JOIN)
        assert gj == parse_plan((GOLDEN / "clover_gj.plan").read_text())

    def test_freejoin(self):
        fj = optimize_plan(self.q, self.naive, MODE_FREEJOIN)
        assert fj == parse_plan((GOLDEN / "clover_fj.plan").read_text())


class TestConvertLeftDeep:
    def test_cartesian_rejected(self):
        q, _ = parse_query("Q(a,b) :- R(a), S(b)")
        with pytest.raises(PlanError):
            convert_left_deep(q, ("R", "S"))

    def test_order_must_cover_atoms(self):
        q, _ = parse_query("Q(a,b) :- R(a,b), S(b)")
        with pytest.raises(PlanError):
            convert_left_deep(q, ("R",))
        with pytest.raises(QueryError, match="no atom over relation 'Z'"):
            convert_left_deep(q, ("R", "Z"))

    def test_unknown_optimize_mode(self):
        q, _ = parse_query("Q(a,b) :- R(a,b), S(b)")
        with pytest.raises(PlanError, match="unknown optimization mode 'bogus'"):
            optimize_plan(q, convert_left_deep(q, ("R", "S")), "bogus")

    def test_all_orders_valid_on_corpus(self):
        """Every rotation of every corpus query converts to a valid plan or
        is rejected as cartesian -- never an invalid plan."""
        for entry in CORPUS:
            q, _ = parsed(entry)
            names = [a.relation for a in q.atoms]
            for shift in range(len(names)):
                order = names[shift:] + names[:shift]
                try:
                    plan = convert_left_deep(q, order)
                except PlanError:
                    continue
                assert plan_violation(q, plan) is None

    def test_optimized_plans_valid_on_corpus(self):
        for entry in CORPUS:
            q, _ = parsed(entry)
            plan = convert_left_deep(q, [a.relation for a in q.atoms])
            for mode in (MODE_GENERIC_JOIN, MODE_FREEJOIN):
                assert plan_violation(q, optimize_plan(q, plan, mode)) is None


class TestLiveness:
    def test_dead_columns_pruned(self):
        q, agg = parse_query("Q(COUNT) :- R(x,a), S(x,b), T(x)")
        plan = convert_left_deep(q, ("R", "S", "T"))
        info = liveness(q, plan, agg)
        assert str(info.pruned_plan) == "R(x), S(x), T(x)"
        # The pruned plan no longer covers a and b, so plan_violation does
        # not apply; what must hold is that pruning keeps the count.
        rels = {
            "R": Relation.from_rows("R", ("x", "a"), [(1, 1), (1, 2), (2, 1), (3, 3)]),
            "S": Relation.from_rows("S", ("x", "b"), [(1, 5), (1, 5), (2, 6), (4, 4)]),
            "T": Relation.from_rows("T", ("x",), [(1,), (2,), (2,), (3,)]),
        }
        reference = nested_loop(q, rels, agg)
        assert reference == 6
        for mode in ("hash", "hybrid"):
            pruned, _ = execute(q, plan, rels, agg, StructurePolicy(mode), OptConfig())
            full, _ = execute(q, plan, rels, agg, StructurePolicy(mode), OptConfig(o3=False))
            assert pruned.count == full.count == reference, mode

    def test_pruned_source_kept_when_its_probe_cannot_move_back(self):
        """Under COUNT, e is dead, so node 4's source R4(e) is pruned; its
        probe R3(c) cannot join node 3, which already iterates R3.  Moving
        it there gave a plan with two R3 subatoms in one node, and execute
        failed with AttributeError."""
        q, agg = parse_query("Q(COUNT) :- R1(a,b), R2(b,c), R3(c,d), R4(d,e)")
        plan = parse_plan("R1(a)\nR1(b), R2(b)\nR2(c)\nR3(d), R4(d)\nR4(e), R3(c)")
        pruned = liveness(q, plan, agg).pruned_plan
        assert str(pruned) == "R1(b), R2(b)\nR2(c)\nR3(d), R4(d)\nR4(e), R3(c)"
        rels = {
            name: Relation.from_rows(name, ("u", "v"), [(0, 0), (0, 1), (1, 0)])
            for name in ("R1", "R2", "R3", "R4")
        }
        result, _ = execute(q, plan, rels, agg)
        assert result.count == nested_loop(q, rels, agg)

    def test_head_vars_live(self):
        q, agg = parse_query("Q(x,a,b) :- R(x,a), S(x,b), T(x)")
        plan = convert_left_deep(q, ("R", "S", "T"))
        info = liveness(q, plan, agg)
        assert info.pruned_plan == plan


class TestBushy:
    def test_parse_and_leaves(self):
        tree = parse_bushy("((R(a,b) S(b,c)) (T(c,d) U(d,a)))")
        assert isinstance(tree, BushyPlan)
        assert [a.relation for a in tree.leaves()] == ["R", "S", "T", "U"]

    def test_unbalanced_rejected(self):
        with pytest.raises(PlanError):
            parse_bushy("((R(a,b) S(b,c))")

    def test_blank_before_an_atoms_parenthesis(self):
        # Once "unexpected text 'R'": the tree's atoms differed from the
        # body's and the plan line's, which allow the blank.
        assert parse_bushy("(R (a,b) S(b,c))") == parse_bushy("(R(a,b) S(b,c))")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("(R(a,b))", "unexpected ')'"),  # once a QueryError
            ("(R(a) S(a) T(a))", "expected ')'"),
            ("R(a) S(a)", "trailing tokens"),
            ("((R(a) S(a))", "unexpected end"),
        ],
    )
    def test_malformed_tree(self, text, message):
        with pytest.raises(PlanError, match=re.escape(message)):
            parse_bushy(text)

    @pytest.mark.parametrize(
        "text, junk",
        [
            ("((R(a,b) junk S(b,c)) (T(c,d) U(d,a)))", "junk"),
            ("((R(a,b) S(b,c)) (T(c,d) U(d,a)));drop", ";drop"),
            ("(R(a,b), S(b,c))", ","),
        ],
    )
    def test_text_between_tokens_rejected(self, text, junk):
        # Both once parsed as the cycle4 tree, the extra text ignored.
        with pytest.raises(PlanError, match=f"unexpected text '{junk}'"):
            parse_bushy(text)

    def test_decompose_materializes_right_subtree(self):
        q, _ = parse_query("Q(a,b,c,d) :- R(a,b), S(b,c), T(c,d), U(d,a)")
        tree = parse_bushy("((R(a,b) S(b,c)) (T(c,d) U(d,a)))")
        stages = decompose_bushy(q, tree)
        assert len(stages) == 2
        inner, root = stages
        assert inner.target == "_I1"
        assert [a.relation for a in inner.order] == ["T", "U"]
        assert root.target is None
        assert [a.relation for a in root.order] == ["R", "S", "_I1"]

    def test_bare_atom_is_one_stage(self):
        q, _ = parse_query("Q(a,b) :- R(a,b)")
        (stage,) = decompose_bushy(q, parse_bushy("R(a,b)"))
        assert (stage.target, stage.order, stage.out_vars) == (None, q.atoms, ("a", "b"))
        with pytest.raises(PlanError, match="are not the query's atoms"):
            decompose_bushy(q, Atom("R", ("b", "a")))

    @pytest.mark.parametrize(
        "text",
        [
            "((R(a,b) S(b,c)) (T(c,d) U(d,x)))",  # a variable renamed
            "((R(a,b) S(b,c)) T(c,d))",  # U left out
            "((R(a,b) S(b,c)) (T(c,d) (U(d,a) R(a,b))))",  # R twice
            "((R(a,b) S(b,c)) (T(c,d) U(a,d)))",  # U's variables swapped
        ],
    )
    def test_tree_must_be_the_query(self, text):
        """Each tree once ran without an error, as a different query: the
        counts were 104, 49, 130 and 42 where the query has 43."""
        q, agg = parse_query("Q(COUNT) :- R(a,b), S(b,c), T(c,d), U(d,a)")
        rng = random.Random(1)
        rels = {
            name: Relation.from_rows(
                name, ("u", "v"), [(rng.randint(0, 2), rng.randint(0, 2)) for _ in range(8)]
            )
            for name in "RSTU"
        }
        assert nested_loop(q, rels, agg) == 43
        tree = parse_bushy(text)
        with pytest.raises(PlanError, match="are not the query's atoms"):
            decompose_bushy(q, tree, agg)
        with pytest.raises(PlanError, match="are not the query's atoms"):
            execute_bushy(q, tree, rels, agg)

    def test_left_deep_tree_single_stage(self):
        q, _ = parse_query("Q(a,b,c) :- R(a,b), S(b,c), T(c,a)")
        tree = BushyPlan(BushyPlan(q.atoms[0], q.atoms[1]), q.atoms[2])
        stages = decompose_bushy(q, tree)
        assert len(stages) == 1 and stages[0].target is None

    def test_count_stage_keeps_only_join_variables(self):
        """A COUNT head lists every body variable, yet only the output and
        the joins outside a subtree keep a variable alive: T join U is
        materialized as _I1(c,a), without d, and the root stage's head is
        the output set.  Bag, count and min results still match."""
        tree = parse_bushy("((R(a,b) S(b,c)) (T(c,d) U(d,a)))")
        body = "R(a,b), S(b,c), T(c,d), U(d,a)"
        q, agg = parse_query(f"Q(COUNT) :- {body}")
        inner, root = decompose_bushy(q, tree, agg)
        assert (inner.target, inner.out_vars) == ("_I1", ("c", "a"))
        assert str(root.order[-1]) == "_I1(c,a)" and root.out_vars == ()
        q_min, agg_min = parse_query(f"Q(MIN(d,b)) :- {body}")
        assert decompose_bushy(q_min, tree, agg_min)[-1].out_vars == ("d", "b")

        rng = random.Random(7)
        for _ in range(10):
            rels = {
                name: Relation.from_rows(
                    name,
                    ("u", "v"),
                    [(rng.randrange(4), rng.randrange(4)) for _ in range(rng.randrange(1, 14))],
                )
                for name in ("R", "S", "T", "U")
            }
            for head in ("COUNT", "MIN(d,b)", "a,b,c,d", "b"):
                q, agg = parse_query(f"Q({head}) :- {body}")
                reference = nested_loop(q, rels, agg)
                for policy in ("hash", "sorted", "hybrid"):
                    result, _ = execute_bushy(q, tree, rels, agg, StructurePolicy(policy))
                    assert result.matches_reference(reference)


class TestHandBuiltAtoms:
    """Atoms and subatoms built without the parsers: a list of variables is
    stored as a tuple, and a bare string is refused rather than read as one
    variable per character."""

    RELS = {
        "R": Relation.from_rows("R", ("u", "v"), [(1, 2), (3, 2), (0, 5)]),
        "S": Relation.from_rows("S", ("u", "v"), [(2, 7), (2, 8), (5, 9)]),
        "T": Relation.from_rows("T", ("u", "v"), [(7, 1), (9, 4), (9, 6)]),
    }

    @pytest.mark.parametrize("cls", (Atom, Subatom))
    def test_list_variables_are_a_tuple(self, cls):
        sub = cls("R", ["a", "b"])
        assert sub.vars == ("a", "b") and sub == cls("R", ("a", "b"))
        assert hash(sub) == hash(cls("R", ("a", "b")))

    @pytest.mark.parametrize("cls", (Atom, Subatom))
    def test_bare_string_refused(self, cls):
        with pytest.raises(QueryError, match=f"{cls.__name__.lower()} R: .* not the string 'xy'"):
            cls("R", "xy")

    @pytest.mark.parametrize("policy", ("hash", "sorted", "hybrid"))
    def test_list_variables_run(self, policy):
        """``execute_bushy`` once raised ``TypeError: unhashable type:
        'list'`` from ``decompose_bushy``'s set of leaves."""
        atoms = [Atom("R", ["a", "b"]), Atom("S", ["b", "c"]), Atom("T", ["c", "d"])]
        q = ConjunctiveQuery(("a", "d"), tuple(atoms))
        agg = AggregationSpec()
        reference = nested_loop(q, self.RELS, agg)
        assert reference
        plan = FreeJoinPlan((
            (Subatom("R", ["a", "b"]), Subatom("S", ["b"])),
            (Subatom("S", ["c"]), Subatom("T", ["c"])),
            (Subatom("T", ["d"]),),
        ))
        validate_plan(q, plan)
        tree = BushyPlan(atoms[0], BushyPlan(atoms[1], atoms[2]))
        for result, _ in (
            execute(q, plan, self.RELS, agg, StructurePolicy(policy)),
            execute_bushy(q, tree, self.RELS, agg, StructurePolicy(policy)),
        ):
            assert result.matches_reference(reference)


class TestHandBuiltHeads:
    """A query head and an aggregate's variables built without the parser:
    a list is stored as a tuple, and a bare string is refused.  Each string
    once ran as one variable per character: head ``"ac"`` as ``(a, c)`` and
    ``MIN`` over ``"ab"`` as over ``a`` and ``b``."""

    ATOMS = (Atom("R", ("a", "b")), Atom("S", ("b", "c")))
    RELS = TestHandBuiltAtoms.RELS

    def test_bare_string_head_refused(self):
        with pytest.raises(QueryError, match="query head: .* not the string 'ac'"):
            ConjunctiveQuery("ac", self.ATOMS)

    @pytest.mark.parametrize("kind", (AGG_FULL, AGG_MIN, AGG_COUNT))
    def test_bare_string_aggregate_refused(self, kind):
        with pytest.raises(QueryError, match=f"{kind} aggregate: .* not the string 'ab'"):
            AggregationSpec(kind, "ab")

    @pytest.mark.parametrize("policy", ("hash", "sorted", "hybrid"))
    @pytest.mark.parametrize("kind", (AGG_FULL, AGG_MIN))
    def test_list_variables_run(self, kind, policy):
        q = ConjunctiveQuery(["a", "c"], self.ATOMS)
        agg = AggregationSpec(kind, ["c", "a"])
        assert q.head == ("a", "c") and agg.vars == ("c", "a")
        assert q == ConjunctiveQuery(("a", "c"), self.ATOMS) and hash(agg)
        reference = nested_loop(q, self.RELS, agg)
        assert reference
        plan = convert_left_deep(q, ("R", "S"))
        tree = BushyPlan(*self.ATOMS)
        for result, _ in (
            execute(q, plan, self.RELS, agg, StructurePolicy(policy)),
            execute_bushy(q, tree, self.RELS, agg, StructurePolicy(policy)),
        ):
            assert result.matches_reference(reference)


class TestHandBuiltBodies:
    """A query body, a plan and a left-deep order built without the parsers:
    a list of atoms or of nodes is stored as a tuple, so the query or plan
    equals and hashes like the tuple-built one, and a bare string as an
    order is refused rather than read as one relation per character."""

    ATOMS = TestHandBuiltHeads.ATOMS
    NODES = ((Subatom("R", ("a", "b")), Subatom("S", ("b",))), (Subatom("S", ("c",)),))

    def test_list_atoms_are_a_tuple(self):
        q = ConjunctiveQuery(("a", "c"), list(self.ATOMS))
        assert q.atoms == self.ATOMS and q == ConjunctiveQuery(("a", "c"), self.ATOMS)
        assert hash(q) == hash(ConjunctiveQuery(("a", "c"), self.ATOMS))

    def test_list_nodes_are_tuples(self):
        plan = FreeJoinPlan([list(node) for node in self.NODES])
        assert plan.nodes == self.NODES and plan == FreeJoinPlan(self.NODES)
        assert hash(plan) == hash(FreeJoinPlan(self.NODES))
        assert plan == convert_left_deep(ConjunctiveQuery(("a", "c"), self.ATOMS), ["R", "S"])

    def test_bare_string_order_refused(self):
        q = ConjunctiveQuery(("a", "c"), self.ATOMS)
        with pytest.raises(PlanError, match="left-deep order: .* not the string 'RS'"):
            convert_left_deep(q, "RS")


class TestAggregationSpec:
    def test_unknown_kind(self):
        # Once ran as a full result.
        with pytest.raises(QueryError, match="unknown aggregate kind 'bogus'"):
            AggregationSpec("bogus")

    @pytest.mark.parametrize("kind", ["min", "full"])
    def test_variable_outside_the_body(self, kind):
        """Each once raised KeyError: 'zz' from ``execute`` and from
        ``nested_loop``."""
        q, _ = parse_query("Q(a) :- R(a,b), S(b)")
        rels = {
            "R": Relation.from_rows("R", ("u", "v"), [(1, 2), (3, 2)]),
            "S": Relation.from_rows("S", ("u",), [(2,)]),
        }
        plan = convert_left_deep(q, ("R", "S"))
        agg = AggregationSpec(kind, ("zz",))
        for run in (
            lambda: execute(q, plan, rels, agg),
            lambda: nested_loop(q, rels, agg),
            lambda: execute_bushy(q, parse_bushy("(R(a,b) S(b))"), rels, agg),
        ):
            with pytest.raises(QueryError, match="aggregate variable 'zz'"):
                run()

    def test_min_over_a_body_variable_outside_the_head(self):
        q, _ = parse_query("Q(a) :- R(a,b), S(b)")
        rels = {
            "R": Relation.from_rows("R", ("u", "v"), [(1, 2), (3, 2), (0, 5)]),
            "S": Relation.from_rows("S", ("u",), [(2,)]),
        }
        agg = AggregationSpec("min", ("b",))
        result, _ = execute(q, convert_left_deep(q, ("R", "S")), rels, agg)
        assert result.minima == nested_loop(q, rels, agg) == (2,)
