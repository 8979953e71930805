"""The compose driver: plan, fan out, recompose.

:func:`run_composed` is the public entry point of the compositional
sharding subsystem.  It decomposes one end-to-end reachability or
invariant query into per-layer shard summaries
(:mod:`~repro.compose.plan`), evaluates them either in-process or
fanned out across the :class:`~repro.service.QueryEngine` worker pool
as independent ``kind="call"`` specs, then chains the summaries back
together (:mod:`~repro.compose.recompose`).

Every summary is exact for every set inside its shard's assumption,
so one dispatch round and one recompose pass decide the verdict, and
the same summaries justify it:

* a reachable verdict carries a witness, NAT or not: an *initial*
  header walked back from the hit through the summaries
  (:func:`~repro.compose.recompose.walk_back`), then replayed
  concretely through the Zen hop (:func:`~repro.compose.topo.replay`),
  which must deliver a header inside the query's ``target`` cover.
  No walk-back header, or a replay that disagrees, raises
  :class:`~repro.errors.ZenComposeError` — a wrong "reachable" is
  never returned, and no second engine is asked;
* an arriving set that escapes its shard's assumption means the
  planner assumed what it cannot prove, and raises too.

A shard whose dispatch fails terminally raises
:class:`~repro.errors.ZenComposeError` as well — a missing interface
summary is a structural failure, never silently skipped.
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
from .cubes import in_cover
from .plan import Plan, plan_shards
from .recompose import (
    CANARY_DROP_ASSUMPTION,
    RecomposeOutcome,
    recompose,
    walk_back,
)
from .shard import compute_shard_summary
from .topo import build_network, replay

#: module:attr builder reference resolved inside service workers.
SHARD_BUILDER = "repro.compose.shard:compute_shard_summary"


@dataclass
class ComposedResult:
    """The composed verdict plus its decomposition record."""

    mode: str
    reachable: bool
    witness: Optional[Dict[str, int]]
    shard_count: int
    recompose_ms: float
    total_ms: float
    dropped_devices: List[str] = field(default_factory=list)
    summaries: Dict[str, Dict[str, Any]] = field(default_factory=dict)

    #: Re-dispatch rounds and second-engine answers; always 0 and
    #: False since summaries are exact for any input and every witness
    #: comes from them, kept because benchmark rows record them.
    escalations = 0
    monolith_fallback = False

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


def _witness(
    topo: Dict[str, Any],
    query: Dict[str, Any],
    plan: Plan,
    outcome: RecomposeOutcome,
) -> Dict[str, int]:
    """The hit's initial header, walked back and replayed concretely."""
    witness = walk_back(plan, outcome)
    if witness is None:
        raise ZenComposeError(
            "no initial header walks back from the delivered hit: the "
            "recomposed verdict is not backed by its summaries"
        )
    network = build_network(topo, (plan.source, plan.sink))
    delivered = replay(network, query, Header(**witness))
    if delivered is None or not in_cover(plan.target, delivered):
        raise ZenComposeError(
            f"witness {witness} walks back through the summaries, but "
            f"its concrete replay delivers {delivered}, not a header in "
            f"the target"
        )
    return witness


def run_composed(
    topo: Dict[str, Any],
    query: Dict[str, Any],
    engine=None,
    *,
    budget: Optional[Dict[str, Any]] = None,
    timeout_s: Optional[float] = None,
    bug: Optional[str] = None,
) -> ComposedResult:
    """Answer a topology query by assume-guarantee decomposition.

    `topo` and `query` are the plain-JSON payloads documented in
    :mod:`~repro.compose.topo`.  With an `engine`, shard summaries fan
    out across the worker pool; without one they run in-process.
    `budget` is a plain dict of :class:`~repro.core.Budget` fields
    threaded into every shard.  `bug` injects a known
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

        recompose_started = time.monotonic()
        outcome = recompose(plan, summaries, bug=bug)
        recompose_ms = (time.monotonic() - recompose_started) * 1000.0
        if not (canary or outcome.trusted):
            failed = sorted(outcome.assumption_failures)
            raise ZenComposeError(
                f"arriving headers escape the interface assumption of "
                f"{', '.join(failed)}: the planner assumed what it cannot prove",
                shard_id=failed[0],
            )

        reachable = outcome.hit_node != 0
        witness = _witness(topo, query, plan, outcome) if reachable else None
        live.set("reachable", reachable)
        return ComposedResult(
            mode=plan.mode,
            reachable=reachable,
            witness=witness,
            shard_count=len(plan.shards),
            recompose_ms=recompose_ms,
            total_ms=(time.monotonic() - started) * 1000.0,
            dropped_devices=plan.dropped_devices,
            summaries=summaries,
        )
