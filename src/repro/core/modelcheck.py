"""Unbounded model checking over state set transformers (§1, §6).

The paper lists an *unbounded* model checker among Zen's backends: for
a transition function ``step : S -> S`` it computes the set of states
reachable from an initial set as a least fixed point of forward images
(standard symbolic reachability via pre/post image computation), then
answers invariant and reachability queries without a depth bound.
Every function works in the context of the state set it is given.

Because BDDs are canonical, fixpoint detection is pointer equality of
set nodes.

Observability
-------------
Each fixpoint runs under a ``modelcheck.fixpoint`` trace span whose
final attributes record the iteration count, convergence, and frontier
sizes, and bumps the ``modelcheck.*`` counters in the process-wide
:data:`~repro.telemetry.metrics.METRICS` registry — one per iteration,
one per budget checkpoint — so a long-running fixpoint is visible from
the outside instead of being a telemetry blind spot.

:func:`forward_image` exports the fixpoint's building block on its
own: one budget-threaded post-image of a step function.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from ..errors import ZenTypeError
from ..telemetry.metrics import METRICS
from ..telemetry.spans import span
from .budget import metered, start_meter
from .function import ZenFunction
from .transformers import StateSet


@dataclass(frozen=True)
class ReachabilityReport:
    """The result of a reachability fixpoint computation."""

    reachable: StateSet
    iterations: int
    converged: bool


def forward_image(step: ZenFunction, inputs: StateSet, budget=None) -> StateSet:
    """One forward image (post) of `inputs` under `step`.

    The single-application building block of :func:`reachable_states`.
    `step` may have distinct input/output types (e.g. a header
    rewrite); `budget` meters the transformer build and the image
    alike.
    """
    context = inputs.context
    meter = start_meter(budget)
    with span("modelcheck.image", counters=context.manager, step=step.name):
        transformer = step.transformer(context, budget=meter)
        with metered(context.manager, meter):
            image = transformer.transform_forward(inputs, budget=meter)
    METRICS.counter("modelcheck.images").inc()
    return image


def _fixpoint(
    step: ZenFunction,
    seed: StateSet,
    max_iterations: int,
    budget,
    direction: str,
) -> ReachabilityReport:
    """Shared forward/backward fixpoint loop with telemetry."""
    meter = start_meter(budget)
    context = seed.context
    transformer = step.transformer(context, budget=meter)
    if transformer.input_type != transformer.output_type:
        raise ZenTypeError(
            "unbounded model checking needs step : S -> S, got "
            f"{transformer.input_type} -> {transformer.output_type}"
        )
    manager = context.manager
    iterations_counter = METRICS.counter("modelcheck.iterations")
    checkpoints_counter = METRICS.counter("modelcheck.budget_checks")
    frontier_gauge = METRICS.gauge("modelcheck.frontier_nodes")
    METRICS.counter("modelcheck.fixpoints").inc()
    reached = seed
    with span(
        "modelcheck.fixpoint", direction=direction, step=step.name
    ) as live:
        converged = False
        iteration = 0
        with metered(manager, meter):
            for iteration in range(1, max_iterations + 1):
                if meter is not None:
                    meter.check_deadline()
                    checkpoints_counter.inc()
                iterations_counter.inc()
                if direction == "forward":
                    frontier = transformer.transform_forward(
                        reached, budget=meter
                    )
                else:
                    frontier = transformer.transform_reverse(
                        reached, budget=meter
                    )
                frontier_gauge.set(manager.node_count(frontier.node))
                grown = reached.union(frontier)
                if grown.equals(reached):
                    converged = True
                    break
                reached = grown
        live.set("iterations", iteration)
        live.set("converged", converged)
        live.set("reached_nodes", manager.node_count(reached.node))
    return ReachabilityReport(reached, iteration, converged)


def reachable_states(
    step: ZenFunction,
    initial: StateSet,
    max_iterations: int = 1000,
    budget=None,
) -> ReachabilityReport:
    """All states reachable from `initial` under repeated `step`.

    `step` must be a unary function whose input and output types
    match.  Iterates ``R := R ∪ post(R)`` until the set stops growing
    (guaranteed to terminate: the state space is finite).

    `budget` spans the whole fixpoint with one shared meter (building
    the transformer, every image, and the union steps), so a
    pathological step function raises
    :class:`~repro.errors.ZenBudgetExceeded` instead of grinding
    through iterations.
    """
    return _fixpoint(step, initial, max_iterations, budget, "forward")


def check_invariant(
    step: ZenFunction,
    initial: StateSet,
    invariant: ZenFunction,
    max_iterations: int = 1000,
    budget=None,
) -> Optional[Any]:
    """Check that `invariant` holds on every reachable state.

    Returns None when the invariant is inductive-reachable-safe, or a
    concrete reachable state violating it.
    """
    meter = start_meter(budget)
    report = reachable_states(
        step, initial, max_iterations=max_iterations, budget=meter
    )
    good = initial.context.from_predicate(invariant, budget=meter)
    bad = report.reachable.difference(good)
    return bad.element()


def can_reach(
    step: ZenFunction,
    initial: StateSet,
    target: StateSet,
    max_iterations: int = 1000,
    budget=None,
) -> Optional[Any]:
    """A reachable state inside `target`, or None if unreachable."""
    report = reachable_states(
        step, initial, max_iterations=max_iterations, budget=budget
    )
    hit = report.reachable.intersect(target)
    return hit.element()


def backward_reachable(
    step: ZenFunction,
    bad: StateSet,
    max_iterations: int = 1000,
    budget=None,
) -> ReachabilityReport:
    """All states that can eventually reach `bad` (pre-image fixpoint)."""
    return _fixpoint(step, bad, max_iterations, budget, "backward")
