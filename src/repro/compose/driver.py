"""The compose driver: plan, fan out, recompose, escalate.

:func:`run_composed` is the public entry point of the compositional
sharding subsystem.  It decomposes one end-to-end reachability or
invariant query into per-layer shard summaries
(:mod:`~repro.compose.plan`), evaluates them either in-process or
fanned out across the :class:`~repro.service.QueryEngine` worker pool
as independent ``kind="call"`` specs, then chains the summaries back
together (:mod:`~repro.compose.recompose`).

The escalation ladder, cheapest first:

1. recompose with the planner's interface assumptions;
2. if a shard's assumption failed to discharge, or a rewriting shard's
   over-approximation taints a "reachable" verdict, re-dispatch just
   those shards with *exact* per-entry assumptions taken from the
   converged arriving sets — shipped to the worker as one node table
   per task — and recompose again (bounded rounds);
3. fall back to the joint monolithic fixpoint
   (:mod:`~repro.compose.monolith`) when rounds ran out, or a
   compositional witness fails concrete replay through the Zen hop
   (:func:`~repro.compose.topo.replay`).

A shard whose dispatch fails terminally raises
:class:`~repro.errors.ZenComposeError` — a missing interface image is
a structural failure, never silently skipped.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from ..core.budget import Budget
from ..errors import ZenComposeError, ZenServiceError
from ..network import Header
from ..service.spec import QuerySpec
from ..telemetry.metrics import METRICS
from ..telemetry.spans import span
from .cubes import assignment_header, header_table
from .monolith import monolithic_verdict
from .plan import Plan, plan_shards, point_key
from .recompose import CANARY_DROP_ASSUMPTION, RecomposeOutcome, recompose
from .shard import compute_shard_summary
from .topo import build_network, has_nat, replay

#: module:attr builder reference resolved inside service workers.
SHARD_BUILDER = "repro.compose.shard:compute_shard_summary"

DEFAULT_MAX_ESCALATIONS = 3


@dataclass
class ComposedResult:
    """The composed verdict plus its decomposition record."""

    mode: str
    reachable: bool
    witness: Optional[Dict[str, int]]
    shard_count: int
    escalations: int
    monolith_fallback: bool
    exact: bool
    recompose_ms: float
    total_ms: float
    dropped_devices: List[str] = field(default_factory=list)
    summaries: Dict[str, Dict[str, Any]] = field(default_factory=dict)

    @property
    def holds(self) -> bool:
        """Invariant reading: no injected header is delivered on target."""
        return not self.reachable


def _dispatch(
    tasks: List[Dict[str, Any]],
    engine,
    timeout_s: Optional[float],
) -> List[Dict[str, Any]]:
    """Evaluate shard tasks in-process or across the worker pool."""
    if engine is None:
        return [compute_shard_summary(task) for task in tasks]
    futures = []
    for task in tasks:
        spec = QuerySpec(
            builder=SHARD_BUILDER,
            kind="call",
            builder_args=(task,),
            label=f"compose:{task['shard_id']}",
            timeout_s=timeout_s,
        )
        futures.append(engine.submit(spec, wait=True))
    results = engine.gather(futures)
    METRICS.counter("compose.shards_dispatched").inc(len(tasks))
    summaries = []
    for task, result in zip(tasks, results):
        if isinstance(result, ZenServiceError):
            METRICS.counter("compose.shard_failures").inc()
            raise ZenComposeError(
                f"shard {task['shard_id']!r} failed terminally: {result}",
                shard_id=task["shard_id"],
                causes=[result],
            )
        summaries.append(result.answer)
    return summaries


def _witness_from_hit(outcome: RecomposeOutcome) -> Optional[Dict[str, int]]:
    assignment = outcome.context.manager.any_sat(outcome.hit_node)
    if assignment is None:
        return None
    return assignment_header(assignment, outcome.levels)


def _exact_entries(
    outcome: RecomposeOutcome, task: Dict[str, Any]
) -> Dict[str, Any]:
    """`task` with its entries' converged arriving sets as assumptions."""
    keys = [point_key((device, int(port))) for device, port in task["entries"]]
    arriving = [outcome.arriving.get(key, 0) for key in keys]
    manager = outcome.context.manager
    table, refs = header_table(manager, outcome.levels, arriving)
    return {**task, "table": table, "entry_assumptions": dict(zip(keys, refs))}


def _fallback(
    topo: Dict[str, Any],
    query: Dict[str, Any],
    budget,
    reason: str,
):
    METRICS.counter("compose.monolith_fallbacks").inc()
    METRICS.counter(f"compose.fallback.{reason}").inc()
    return monolithic_verdict(topo, query, budget=budget)


def run_composed(
    topo: Dict[str, Any],
    query: Dict[str, Any],
    engine=None,
    *,
    budget: Optional[Dict[str, Any]] = None,
    max_escalations: int = DEFAULT_MAX_ESCALATIONS,
    timeout_s: Optional[float] = None,
    bug: Optional[str] = None,
) -> ComposedResult:
    """Answer a topology query by assume-guarantee decomposition.

    `topo` and `query` are the plain-JSON payloads documented in
    :mod:`~repro.compose.topo`.  With an `engine`, shard summaries fan
    out across the worker pool; without one they run in-process.
    `budget` is a plain dict of :class:`~repro.core.Budget` fields
    threaded into every shard and the fallback.  `bug` injects a known
    recomposer bug (fuzz-farm canary) — never set it outside tests.
    """
    started = time.monotonic()
    Budget.from_dict(budget)  # a misspelt limit fails here, not in a shard
    canary = bug == CANARY_DROP_ASSUMPTION
    METRICS.counter("compose.queries").inc()
    with span("compose.query", mode=query.get("mode", "reach")) as live:
        plan = plan_shards(topo, query, budget=budget)
        live.set("shards", len(plan.shards))
        summaries = {
            s["shard_id"]: s
            for s in _dispatch(plan.shards, engine, timeout_s)
        }

        escalations = 0
        recompose_s = 0.0
        while True:
            recompose_started = time.monotonic()
            outcome = recompose(plan, summaries, bug=bug)
            recompose_s += time.monotonic() - recompose_started
            if canary or outcome.trusted:
                break
            if escalations >= max_escalations:
                break
            # Escalate: re-summarise the problem shards under exact
            # per-entry assumptions from the converged arriving sets.
            needs = set(outcome.assumption_failures)
            if outcome.hit_node != 0:
                needs |= outcome.tainted_shards
            if not needs:
                break
            escalations += 1
            METRICS.counter("compose.escalations").inc()
            retasks = [
                _exact_entries(outcome, plan.shard(sid)) for sid in sorted(needs)
            ]
            for summary in _dispatch(retasks, engine, timeout_s):
                summaries[summary["shard_id"]] = summary

        def finish(
            reachable: bool,
            witness: Optional[Dict[str, int]],
            monolith_fallback: bool,
            exact: bool,
        ) -> ComposedResult:
            live.set("reachable", reachable)
            live.set("escalations", escalations)
            live.set("monolith_fallback", monolith_fallback)
            return ComposedResult(
                mode=plan.mode,
                reachable=reachable,
                witness=witness,
                shard_count=len(plan.shards),
                escalations=escalations,
                monolith_fallback=monolith_fallback,
                exact=exact,
                recompose_ms=recompose_s * 1000.0,
                total_ms=(time.monotonic() - started) * 1000.0,
                dropped_devices=plan.dropped_devices,
                summaries=summaries,
            )

        if canary:
            # Buggy path under test: trust the fixpoint blindly.
            return finish(outcome.hit_node != 0, None, False, False)

        if not outcome.trusted:
            mono = _fallback(topo, query, budget, "escalation_exhausted")
            return finish(mono.reachable, mono.witness, True, True)

        if outcome.hit_node == 0:
            return finish(False, None, False, not outcome.tainted_shards)

        # Reachable and trusted.  For rewrite-free topologies the
        # delivered header *is* the injected header, so replay it
        # through the Zen hop as a final cross-check.
        if not has_nat(topo):
            witness = _witness_from_hit(outcome)
            network = build_network(topo, (plan.source, plan.sink))
            if replay(network, query, Header(**witness)) is not None:
                return finish(True, witness, False, True)
            METRICS.counter("compose.replay_mismatches").inc()
            mono = _fallback(topo, query, budget, "replay_mismatch")
            return finish(mono.reachable, mono.witness, True, True)
        # Rewriting topology: the verdict is exact (escalation proved
        # it) but the delivered header is post-NAT; no initial-header
        # witness without the joint machine.
        return finish(True, None, False, True)
