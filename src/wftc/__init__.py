"""Model checking of workflow nets with tables and guard constraints."""

from .model import (
    ModelError,
    Predicate,
    TableSchema,
    WftcNet,
    constraint_consistent,
    deferred,
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
from .textio import ParseError, parse_model

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

# imported from their modules on first access, so that a build compiles
# neither the evaluator nor the formula parser, nor the writers unless it
# exports
__getattr__ = deferred(
    __name__,
    dict.fromkeys(("Verdict", "builtin_metrics", "sat", "sat_au", "sat_eg", "sat_eu", "sat_ex", "verify"), "dctl")
    | {"parse_dctl": "dctlparse", "serialize_model": "modeltext"}
    | dict.fromkeys(("export_dot", "export_json"), "export"),
)
