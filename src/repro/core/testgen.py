"""Test input generation via symbolic execution (§8, "Testing
implementations").

``f.generate_inputs()`` produces concrete inputs with high branch
coverage: every ``if``/``case`` decision encountered during symbolic
evaluation is recorded, and a model is solved for each polarity of
each decision (in the spirit of DART-style directed testing).  The
resulting inputs exercise each reachable branch of the model at least
once, e.g. one test packet per ACL rule.
"""

from __future__ import annotations

from typing import Any, List, Optional, Tuple

from ..backends import SatBackend, SymbolicEvaluator, decode
from ..backends import values as sv
from ..backends.interface import bit_value
from ..telemetry.spans import span
from .budget import start_meter


class InputSuite(List[Any]):
    """Generated test inputs plus a no-silent-caps indicator.

    Behaves exactly like the list previously returned; additionally
    ``truncated`` is True when the ``max_inputs`` cap stopped
    generation before every branch-polarity goal had been explored
    (so raising the cap could produce more inputs), and
    ``goals_explored``/``goals_total`` quantify the coverage of the
    goal list itself.
    """

    def __init__(
        self,
        items=(),
        truncated: bool = False,
        goals_explored: int = 0,
        goals_total: int = 0,
    ):
        super().__init__(items)
        self.truncated = truncated
        self.goals_explored = goals_explored
        self.goals_total = goals_total

    def __reduce__(self):
        # Explicit reduction so suites survive a process boundary (the
        # query service ships them from worker to parent) with the
        # coverage metadata intact, independent of how list subclass
        # pickling treats instance dicts.
        return (
            type(self),
            (list(self), self.truncated, self.goals_explored, self.goals_total),
        )


class _TracingEvaluator(SymbolicEvaluator):
    """A symbolic evaluator that records branch-decision bits."""

    def __init__(self, backend, max_list_length: int):
        super().__init__(backend, max_list_length=max_list_length)
        self.decisions: List[Any] = []

    def _branch_if(self, node, stack) -> None:  # noqa: D401
        cond = self._memo[node.cond]
        if bit_value(self._backend, cond.bit) is None:
            self.decisions.append(cond.bit)
        super()._branch_if(node, stack)

    def _branch_case(self, node, stack) -> None:
        lst = self._memo[node.lst]
        if lst.cells:
            guard = lst.cells[0][0]
            if bit_value(self._backend, guard) is None:
                self.decisions.append(guard)
        super()._branch_case(node, stack)


def generate_inputs(
    function,
    max_inputs: int = 64,
    max_list_length: int = 4,
    budget: Any = None,
) -> InputSuite:
    """Generate test inputs covering each branch decision of `function`.

    Returns an :class:`InputSuite` of argument tuples (or single
    values for unary functions), deduplicated, at most `max_inputs`
    long; its ``truncated`` flag is True when the cap stopped goal
    exploration early (no-silent-caps).  `budget` bounds the solver
    work across all goals with one shared meter.
    """
    backend = SatBackend()
    meter = start_meter(budget)
    if meter is not None:
        backend.set_budget(meter)
    with span("query.generate_inputs", function=function.name) as sp:
        evaluator = _TracingEvaluator(backend, max_list_length=max_list_length)
        with span("compile.flatten", counters=backend):
            sym_args = [
                evaluator.fresh_input(f"arg{i}", t)
                for i, t in enumerate(function.arg_types)
            ]
            evaluator.evaluate(function.body.expr)

        goals: List[Any] = [backend.true()]
        for decision in evaluator.decisions:
            goals.append(decision)
            goals.append(backend.not_(decision))

        results: List[Tuple[Any, ...]] = []
        seen = set()
        explored = 0
        for goal in goals:
            if len(results) >= max_inputs:
                break
            explored += 1
            model = backend.solve(goal)
            if model is None:
                continue
            decoded = tuple(decode(model, arg) for arg in sym_args)
            key = repr(decoded)
            if key in seen:
                continue
            seen.add(key)
            results.append(decoded[0] if len(decoded) == 1 else decoded)
        sp.set("goals", len(goals)).set("inputs", len(results))
    return InputSuite(
        results,
        truncated=explored < len(goals),
        goals_explored=explored,
        goals_total=len(goals),
    )
