"""Zone-based model checking (the UPPAAL engine of the paper)."""

from .queries import (
    AF,
    AG,
    And,
    BoolFormula,
    ClockPred,
    DataPred,
    Deadlock,
    EF,
    EG,
    FALSE_FORMULA,
    LeadsTo,
    LocationIs,
    Not,
    Or,
    StateFormula,
    TRUE_FORMULA,
    exists,
    forall,
)
from .diagnostics import format_state, format_trace, trace_stats
from .explorecore import (
    Frontier,
    LRUCache,
    PassedWaitingList,
    SearchLimitError,
    SearchNode,
    TraceNode,
    ZoneStore,
    reconstruct_trace,
)
from .parser import parse_query
from .reachability import Reachability, build_graph, explore
from .liveness import materialise
from .deadlock import deadlocked_part, has_deadlock
from .engine import VerificationResult, Verifier

__all__ = [
    "AF", "AG", "And", "BoolFormula", "ClockPred", "DataPred", "Deadlock",
    "EF", "EG", "FALSE_FORMULA", "LeadsTo", "LocationIs", "Not", "Or",
    "StateFormula", "TRUE_FORMULA", "exists", "forall",
    "format_state", "format_trace", "trace_stats",
    "Frontier", "LRUCache", "PassedWaitingList", "SearchLimitError",
    "SearchNode", "TraceNode", "ZoneStore", "reconstruct_trace",
    "parse_query",
    "Reachability", "build_graph", "explore", "materialise",
    "deadlocked_part", "has_deadlock",
    "VerificationResult", "Verifier",
]
