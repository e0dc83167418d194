"""Exception hierarchy for the join engine, and the check that turns a
sequence of names into a tuple, refusing a bare string."""


class EngineError(Exception):
    """Base class for all engine errors."""


class SchemaError(EngineError):
    """Relation or catalog schema is malformed."""


class LoadError(EngineError):
    """CSV ingestion failed; message carries row/column position."""


class SortednessError(EngineError):
    """A declared or required sort order does not hold."""


class QueryError(EngineError):
    """Query text or structure is invalid."""


class PlanError(EngineError):
    """A join plan is structurally invalid (partition or binding order)."""


class ExecutionError(EngineError):
    """Plan execution failed (illegal policy, kind mismatch, missing relation)."""


class BudgetExceededError(EngineError):
    """Brute-force enumeration would exceed the step budget."""


def names_tuple(names, error: type[EngineError], owner: str) -> tuple:
    """``names`` (attributes or variables) as a tuple, so a list of them
    hashes and compares like the tuple; a bare string would read as one name
    per character, so it raises ``error``, naming ``owner``."""
    if isinstance(names, str):
        raise error(f"{owner}: expected a sequence of names, not the string {names!r}")
    return tuple(names)
