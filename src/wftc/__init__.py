"""Model checking of workflow nets with tables and guard constraints."""

from .model import (
    ModelError,
    Predicate,
    TableSchema,
    WftcNet,
    constraint_consistent,
    validate_workflow_structure,
)
from .srg import (
    CONSTRAINED,
    UNCONSTRAINED,
    ResourceLimitError,
    Srg,
    StateC,
    build_srg,
    enabled,
    fire,
    initial_state,
    refine,
)
from .textio import (
    ParseError,
    export_dot,
    export_json,
    import_json,
    parse_dctl,
    parse_model,
    serialize_model,
)

__all__ = [
    "CONSTRAINED",
    "UNCONSTRAINED",
    "ModelError",
    "ParseError",
    "Predicate",
    "ResourceLimitError",
    "Srg",
    "StateC",
    "TableSchema",
    "Verdict",
    "WftcNet",
    "build_srg",
    "builtin_metrics",
    "constraint_consistent",
    "enabled",
    "export_dot",
    "export_json",
    "fire",
    "import_json",
    "initial_state",
    "parse_dctl",
    "parse_model",
    "refine",
    "sat",
    "sat_au",
    "sat_eg",
    "sat_eu",
    "sat_ex",
    "serialize_model",
    "validate_workflow_structure",
    "verify",
]

__version__ = "0.1.0"

# imported from ``dctl`` on first access, so that a build never compiles the evaluator
_DCTL_NAMES = {"Verdict", "builtin_metrics", "sat", "sat_au", "sat_eg", "sat_eu", "sat_ex", "verify"}


def __getattr__(name):
    if name not in _DCTL_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import dctl

    return getattr(dctl, name)
