"""Per-layer timing from outside the program.

The traced run repeats each query through the same public calls
`ZenFunction.find` makes and records a span at each layer boundary with
the benchmark's own recorder; a thin timing subclass of the Boolean
backend around the six Boolean ops says how the flatten stage divides.
For the header space analysis, whose layers are reached only through
`reachable_sets`, the listed public entry points are wrapped with
timing shims for the duration of the traced call and restored
afterwards.  Nothing under `src/` changes and the program gets no
switch.
"""

from __future__ import annotations

import gc
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro import ZenFunction
from repro.aig import encode
from repro.backends import (
    BddBackend,
    SatBackend,
    SatModel,
    SymbolicEvaluator,
    decode,
)
from repro.core import StateSet, StateSetTransformer

from .harness import Recorder

_clock = time.perf_counter
_BOOLEAN_OPS = ("and_", "or_", "not_", "xor", "iff", "ite")


def _timed_ops(base: type) -> type:
    """`base` with its six Boolean ops counted and timed."""

    def timed(name: str) -> Callable[..., Any]:
        inner = getattr(base, name)

        def op(self, *bits):
            started = _clock()
            result = inner(self, *bits)
            self.op_seconds += _clock() - started
            self.op_calls += 1
            return result

        op.__name__ = name
        return op

    def init(self) -> None:
        base.__init__(self)
        self.op_seconds = 0.0
        self.op_calls = 0

    members = {name: timed(name) for name in _BOOLEAN_OPS}
    members["__init__"] = init
    return type("Timed" + base.__name__, (base,), members)


TimedBddBackend = _timed_ops(BddBackend)
TimedSatBackend = _timed_ops(SatBackend)


class _NoOps:
    """A backend whose ops do nothing: timed, it reads the timer's own cost."""

    and_ = or_ = not_ = xor = iff = ite = lambda self, *bits: bits[0]


def timer_cost_inside() -> float:
    """Seconds the op timer adds to each op *within* its own window — the
    clock reads and the extra call — which is what `op_seconds` overstates
    an op by.  Short loops, timed many times, fastest kept: one long
    reading swings by a factor of four with the host.
    """
    rounds, repeats = 4_000, 30
    engine = _timed_ops(_NoOps)()

    def loop() -> float:
        engine.op_seconds = 0.0
        for _ in range(rounds):
            engine.not_(True)
        return engine.op_seconds

    return min(loop() for _ in range(repeats)) / rounds


def bdd_counts(manager) -> Dict[str, float]:
    """Kernel counters of one BDD manager, from its public `stats()`."""
    stats = manager.stats()
    misses = sum(stats.cache_misses.values())
    hits = sum(stats.cache_hits.values())
    return {
        "bdd.node_expansions": misses,
        "bdd.cache_hits": hits,
        "bdd.ite_expansions": stats.cache_misses.get("ite", 0),
        "bdd.peak_nodes": stats.peak_nodes,
    }


def _flatten(function: ZenFunction, engine: Any, max_list_length: int):
    """The symbolic-evaluation stage of `find`: (inputs, constraint bit)."""
    evaluator = SymbolicEvaluator(engine, max_list_length=max_list_length)
    inputs = [
        evaluator.fresh_input(f"arg{i}", zen_type)
        for i, zen_type in enumerate(function.arg_types)
    ]
    return inputs, evaluator.evaluate(function.body.expr).bit


def stepwise_find(
    recorder: Recorder,
    query_id: str,
    model: Callable[..., Any],
    arg_types: Sequence[Any],
    backend: str,
    max_list_length: int,
    timer_cost: float,
) -> Tuple[Any, Dict[str, float]]:
    """One `find()` taken apart at its layer boundaries.

    Returns (witness or None, exact counts).  The steps and their order
    are those of `ZenFunction.find` with `validate=True`; the caller
    asserts the verdict equals the untraced one.

    The layers are timed on the plain backend, with no timer inside
    them.  How the flatten stage divides into the engine's Boolean ops
    and the evaluator's own time comes from flattening once more
    afterwards on the timing subclass: tens of thousands of timed ops
    cost a fifth of `acl_bdd` in timer calls alone, and no calibration on
    a no-op matched that cost in place, so it is kept out of the spans
    altogether.  Only `timer_cost` (`timer_cost_inside`), the part of
    the timer that falls within its own window, is taken off the op time.
    """
    counts: Dict[str, float] = {}
    decoded, flatten = _steps(
        recorder, query_id, model, arg_types, backend, max_list_length, counts
    )
    gc.collect()  # the steps' engine is garbage the probe must not walk
    with recorder.span("bench.op_split", query_id + "#split"):
        probe = TimedBddBackend() if backend == "bdd" else TimedSatBackend()
        _flatten(ZenFunction(model, arg_types), probe, max_list_length)
    counts["backends.bool_ops"] = probe.op_calls
    _, started, ended, _, _ = recorder.spans[flatten]
    op_seconds = max(0.0, probe.op_seconds - probe.op_calls * timer_cost)
    recorder.add(
        "bdd.op" if backend == "bdd" else "aig.op",
        started,
        min(op_seconds, ended - started),  # never more than the stage itself
        parent=flatten,
    )
    if decoded is None:
        return None, counts
    return (decoded[0] if len(decoded) == 1 else decoded), counts


def _steps(
    recorder: Recorder,
    query_id: str,
    model: Callable[..., Any],
    arg_types: Sequence[Any],
    backend: str,
    max_list_length: int,
    counts: Dict[str, float],
) -> Tuple[Optional[Tuple[Any, ...]], int]:
    """The timed steps; (decoded witness or None, index of the flatten span)."""
    with recorder.span("find", query_id):
        with recorder.span("lang.build"):
            function = ZenFunction(model, arg_types)
        engine = BddBackend() if backend == "bdd" else SatBackend()
        with recorder.span("backends.flatten") as flatten:
            inputs, constraint = _flatten(function, engine, max_list_length)
        if backend == "bdd":
            with recorder.span("bdd.op"):
                solution = engine.solve(constraint)
            counts.update(bdd_counts(engine.manager))
        else:
            solution = None
            counts["aig.and_nodes"] = engine.aig.num_nodes
            if not engine.is_false(constraint):
                with recorder.span("aig.tseitin"):
                    mapping, _ = encode(engine.aig, [constraint])
                solver = mapping.solver
                counts["aig.cnf_clauses"] = solver.num_clauses
                counts["aig.cnf_vars"] = solver.num_vars
                with recorder.span("sat.solve"):
                    satisfiable = solver.solve()
                for key in ("conflicts", "decisions", "propagations", "learned"):
                    counts[f"sat.{key}"] = solver.statistics[key]
                if satisfiable:
                    with recorder.span("backends.decode_replay"):
                        solution = SatModel(
                            engine.aig,
                            {
                                lit: mapping.model_value(lit)
                                for lit in engine.aig.inputs
                            },
                        )
        if solution is None:
            return None, flatten
        with recorder.span("backends.decode_replay"):
            decoded = tuple(decode(solution, value) for value in inputs)
            if function.evaluate(*decoded) is not True:
                raise AssertionError(
                    f"{query_id}: stepwise witness fails concrete replay"
                )
    return decoded, flatten


# ----------------------------------------------------------------------
# Shims for layers reached only through a public analysis
# ----------------------------------------------------------------------


@contextmanager
def transformer_shims(recorder: Recorder) -> Iterator[Dict[str, int]]:
    """Time `StateSetTransformer` builds/images and `StateSet` algebra.

    Installed on the classes for the duration of the `with` block only;
    yields the call counts.
    """
    counts = {"core.transformer_builds": 0, "core.transformer_images": 0}
    saved: List[Tuple[type, str, Any]] = []

    def wrap(owner: type, name: str, span_name: str, counter: Optional[str]):
        original = owner.__dict__[name]
        inner = original.__func__ if isinstance(original, classmethod) else original

        def shim(*args, **kwargs):
            if counter is not None:
                counts[counter] += 1
            with recorder.span(span_name):
                return inner(*args, **kwargs)

        saved.append((owner, name, original))
        setattr(
            owner,
            name,
            classmethod(shim) if isinstance(original, classmethod) else shim,
        )

    wrap(
        StateSetTransformer,
        "build",
        "core.transformer_build",
        "core.transformer_builds",
    )
    for name in ("transform_forward", "transform_reverse"):
        wrap(
            StateSetTransformer,
            name,
            "core.transformer_image",
            "core.transformer_images",
        )
    for name in ("union", "intersect", "difference", "is_empty"):
        wrap(StateSet, name, "core.stateset_op", None)
    try:
        yield counts
    finally:
        for owner, name, original in reversed(saved):
            setattr(owner, name, original)
