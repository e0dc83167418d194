"""In-memory conjunctive-query join engine.

One plan representation and one interpreter cover the whole spectrum from
left-deep binary hash joins to per-variable worst-case optimal joins, with
pluggable trie dictionaries (hash or sorted) and leaf shapes (offset
vectors, bare-offset singletons, contiguous ranges, bare counts).
"""

from .errors import (
    BudgetExceededError,
    EngineError,
    ExecutionError,
    LoadError,
    PlanError,
    QueryError,
    SchemaError,
    SortednessError,
)
from .executor import (
    ExecStats,
    OptConfig,
    ResultBag,
    StructurePolicy,
    check_against_oracle,
    execute,
    execute_bushy,
)
from .oracle import nested_loop
from .query import (
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
    validate_plan,
)
from .storage import Relation, gen_adversarial_triangle, load_csv, select
from .trie import LeafSpec, SortedDict, Trie, build_trie

__version__ = "0.1.0"

__all__ = [
    "AggregationSpec",
    "Atom",
    "BudgetExceededError",
    "BushyPlan",
    "ConjunctiveQuery",
    "EngineError",
    "ExecStats",
    "ExecutionError",
    "FreeJoinPlan",
    "LeafSpec",
    "LoadError",
    "OptConfig",
    "PlanError",
    "QueryError",
    "Relation",
    "ResultBag",
    "SchemaError",
    "SortedDict",
    "SortednessError",
    "StructurePolicy",
    "Subatom",
    "Trie",
    "build_trie",
    "check_against_oracle",
    "convert_left_deep",
    "decompose_bushy",
    "execute",
    "execute_bushy",
    "gen_adversarial_triangle",
    "liveness",
    "load_csv",
    "nested_loop",
    "optimize_plan",
    "parse_bushy",
    "parse_plan",
    "parse_query",
    "select",
    "validate_plan",
]
