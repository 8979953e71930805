"""Core analysis API: ZenFunction, state sets, test generation,
compilation."""

from .budget import (
    Budget,
    BudgetMeter,
    QueryResult,
    RungFailure,
    metered,
    solve_with_fallback,
    start_meter,
)
from .compilation import compile_function
from .function import DEFAULT_MAX_LIST_LENGTH, ZenFunction, zen_function
from .modelcheck import (
    ReachabilityReport,
    backward_reachable,
    can_reach,
    check_invariant,
    forward_image,
    reachable_states,
)
from .testgen import InputSuite, generate_inputs
from .transformers import (
    StateSet,
    StateSetTransformer,
    TransformerContext,
    bit_width,
)

__all__ = [
    "ZenFunction",
    "zen_function",
    "DEFAULT_MAX_LIST_LENGTH",
    "Budget",
    "BudgetMeter",
    "QueryResult",
    "RungFailure",
    "solve_with_fallback",
    "start_meter",
    "metered",
    "InputSuite",
    "StateSet",
    "StateSetTransformer",
    "TransformerContext",
    "bit_width",
    "generate_inputs",
    "compile_function",
    "reachable_states",
    "forward_image",
    "check_invariant",
    "can_reach",
    "backward_reachable",
    "ReachabilityReport",
]
