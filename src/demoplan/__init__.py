"""Learn STRIPS-style planning operators from demonstration traces.

The pipeline: traces of timed symbolic frames are debounced, segmented into
labeled activities by priority rules, and each segment is read off as a
grounded operator (preconditions at the anchor frame, post-state at the final
one, restricted to the objects that changed). Operators are lifted to typed
variables, deduplicated up to renaming, and counted; counts turn into action
costs so that planning prefers the ways people actually demonstrated.
Libraries round-trip through a PDDL subset, and a monitor executes plans with
replanning when the world misbehaves.
"""

from .errors import (
    EmptyDomain,
    InputError,
    InvalidEffect,
    NoActorError,
    NoEffectSegment,
    ParseError,
    PddlSyntaxError,
    SchemaError,
    SearchLimitExceeded,
    UnsupportedFeature,
    ValidationError,
)
from .model import (
    ActionSchema,
    GroundAtom,
    Literal,
    ObjectInstance,
    PredicateSignature,
    State,
    TypeTable,
    Vocabulary,
    apply,
    holds,
    satisfies,
)
from .traces import DebounceConfig, Frame, Trace, debounce, load_trace, save_trace
from .segmentation import (
    DEFAULT_RULES,
    ClassifierRule,
    LiteralPattern,
    Segment,
    load_rules,
    segment,
)
from .learning import (
    GroundedOperator,
    OperatorLibrary,
    TraceReport,
    build_library,
    canonical_key,
    extract,
    learn_from_trace,
    lift,
    load_library,
    merge,
    save_library,
)
from .pddl import (
    DomainDoc,
    NameMap,
    ProblemDoc,
    emit_domain,
    emit_problem,
    parse_domain,
    parse_problem,
    render_domain,
    render_problem,
)
from .planner import (
    CostModel,
    GroundedAction,
    Plan,
    PlanValidation,
    derive_costs,
    ground,
    plan,
    validate,
)
from .monitor import (
    ExecutionLog,
    Fault,
    MonitorConfig,
    WorldSim,
    execute,
    load_faults,
)

__version__ = "0.1.0"

__all__ = [
    "ActionSchema",
    "ClassifierRule",
    "CostModel",
    "DEFAULT_RULES",
    "DebounceConfig",
    "DomainDoc",
    "EmptyDomain",
    "ExecutionLog",
    "Fault",
    "Frame",
    "GroundAtom",
    "GroundedAction",
    "GroundedOperator",
    "InputError",
    "InvalidEffect",
    "Literal",
    "LiteralPattern",
    "MonitorConfig",
    "NameMap",
    "NoActorError",
    "NoEffectSegment",
    "ObjectInstance",
    "OperatorLibrary",
    "ParseError",
    "PddlSyntaxError",
    "Plan",
    "PlanValidation",
    "PredicateSignature",
    "ProblemDoc",
    "SchemaError",
    "SearchLimitExceeded",
    "Segment",
    "State",
    "Trace",
    "TraceReport",
    "TypeTable",
    "UnsupportedFeature",
    "ValidationError",
    "Vocabulary",
    "WorldSim",
    "apply",
    "build_library",
    "canonical_key",
    "debounce",
    "derive_costs",
    "emit_domain",
    "emit_problem",
    "execute",
    "extract",
    "ground",
    "holds",
    "learn_from_trace",
    "lift",
    "load_faults",
    "load_library",
    "load_rules",
    "load_trace",
    "merge",
    "parse_domain",
    "parse_problem",
    "plan",
    "render_domain",
    "render_problem",
    "satisfies",
    "save_library",
    "save_trace",
    "segment",
    "validate",
]
