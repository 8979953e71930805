"""repro (PyZen): a compositional network modeling and verification
framework.

A Python reproduction of "A General Framework for Compositional
Network Modeling" (Beckett & Mahajan, HotNets 2020).  Network
functionality is modeled as ordinary Python functions over ``Zen``
values; the same model then supports concrete simulation, bounded
model checking with SAT or BDD backends, state-set transformer
analyses (HSA-style), test input generation, and extraction of an
executable implementation.

Quickstart::

    from dataclasses import dataclass
    from repro import UInt, Zen, ZenFunction, register_object, if_

    @register_object
    @dataclass(frozen=True)
    class Header:
        dst_ip: UInt
        src_ip: UInt

    def blocked(h: Zen) -> Zen:
        return (h.dst_ip & 0xFFFFFF00) == 0x0A000100

    f = ZenFunction(blocked, [Header])
    example = f.find()          # a header hitting the filter
    assert f.evaluate(example)  # replays concretely
"""

from .core import (
    DEFAULT_MAX_LIST_LENGTH,
    Budget,
    BudgetMeter,
    InputSuite,
    QueryResult,
    RungFailure,
    StateSet,
    StateSetTransformer,
    TransformerContext,
    ZenFunction,
    compile_function,
    generate_inputs,
    solve_with_fallback,
    zen_function,
)
from .errors import (
    ZenArityError,
    ZenBackendDisagreement,
    ZenBudgetExceeded,
    ZenCircuitOpen,
    ZenDepthError,
    ZenError,
    ZenEvaluationError,
    ZenQueryFailed,
    ZenQueryTimeout,
    ZenServiceError,
    ZenSolverError,
    ZenTypeError,
    ZenUnsoundResultError,
    ZenUnsupportedError,
    ZenWorkerCrash,
)
from .service import (
    AttemptRecord,
    CircuitBreaker,
    QueryEngine,
    QuerySpec,
    ServiceResult,
)
from .telemetry import (
    METRICS,
    TRACER,
    MetricsRegistry,
    QueryProfile,
    Span,
    Tracer,
    disable_tracing,
    enable_tracing,
    span,
    tracing_enabled,
    write_chrome_trace,
)
from .lang import (
    BOOL,
    BYTE,
    INT,
    LONG,
    SBYTE,
    SHORT,
    UINT,
    ULONG,
    USHORT,
    Bool,
    Byte,
    Int,
    Long,
    SByte,
    Short,
    UInt,
    ULong,
    UShort,
    Zen,
    ZList,
    ZMap,
    ZOption,
    ZPair,
    cons,
    constant,
    create,
    empty_list,
    if_,
    lift,
    none,
    pair,
    register_object,
    some,
    symbolic,
    zen_list,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # core API
    "ZenFunction",
    "zen_function",
    "StateSet",
    "StateSetTransformer",
    "TransformerContext",
    "generate_inputs",
    "compile_function",
    "DEFAULT_MAX_LIST_LENGTH",
    # resource governance
    "Budget",
    "BudgetMeter",
    "QueryResult",
    "RungFailure",
    "solve_with_fallback",
    "InputSuite",
    # fault-isolated query service
    "QueryEngine",
    "QuerySpec",
    "ServiceResult",
    "AttemptRecord",
    "CircuitBreaker",
    # telemetry
    "TRACER",
    "METRICS",
    "Tracer",
    "Span",
    "span",
    "enable_tracing",
    "disable_tracing",
    "tracing_enabled",
    "write_chrome_trace",
    "MetricsRegistry",
    "QueryProfile",
    # language
    "Zen",
    "if_",
    "lift",
    "constant",
    "symbolic",
    "create",
    "pair",
    "some",
    "none",
    "empty_list",
    "cons",
    "zen_list",
    "register_object",
    # type markers
    "Bool",
    "Byte",
    "SByte",
    "Short",
    "UShort",
    "Int",
    "UInt",
    "Long",
    "ULong",
    "ZList",
    "ZOption",
    "ZPair",
    "ZMap",
    "BOOL",
    "BYTE",
    "SBYTE",
    "SHORT",
    "USHORT",
    "INT",
    "UINT",
    "LONG",
    "ULONG",
    # errors
    "ZenError",
    "ZenTypeError",
    "ZenArityError",
    "ZenSolverError",
    "ZenEvaluationError",
    "ZenUnsupportedError",
    "ZenDepthError",
    "ZenBudgetExceeded",
    "ZenUnsoundResultError",
    "ZenServiceError",
    "ZenWorkerCrash",
    "ZenQueryTimeout",
    "ZenCircuitOpen",
    "ZenQueryFailed",
    "ZenBackendDisagreement",
]
