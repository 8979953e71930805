"""The monolithic joint query: one fixpoint over the whole network.

This is both the escalation fallback and the differential oracle for
the compositional path.  The network is modelled as a single Zen state
machine over :class:`NetState` — (device, port, alive, header) — whose
step function implements exactly the hop pipeline documented in
:mod:`repro.compose.topo`, and reachability is decided by the core
model checker's *backward* fixpoint from the delivered-set: a packet
can reach the sink iff the initial set meets the pre-image closure of
the target, and any element of that intersection is a concrete
*initial* witness header (forward reachability would only produce the
post-NAT header at delivery).

Delivery is an absorbing sentinel device index (one past the real
devices), which bounds monolithic topologies at
:data:`~repro.compose.topo.MAX_MONOLITH_DEVICES` devices.
"""

from __future__ import annotations

import dataclasses
import sys
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from ..core import ZenFunction, backward_reachable, start_meter
from ..core.budget import Budget, BudgetMeter
from ..core.transformers import TransformerContext
from ..lang import Byte, Zen, constant, create, if_, register_object
from ..network import Header, acl_allows, apply_nat, forward
from ..telemetry.spans import span
from .cubes import cover_predicate
from .topo import (
    MAX_MONOLITH_DEVICES,
    DeviceModel,
    device_models,
    link_map,
    validate_query,
    validate_topology,
)


@register_object
@dataclass(frozen=True)
class NetState:
    """A packet's position in the network product machine.

    Field order is load-bearing for the transformer's variable
    ordering: the header (which every hop *condition* reads) must sit
    above the device/port/alive control bits (which hop conditions
    *decide*), otherwise each control cofactor is dragged through a
    hundred header-identity levels and the transition relation blows
    up by three orders of magnitude.
    """

    hdr: Header
    device: Byte
    port: Byte
    alive: bool


@dataclass(frozen=True)
class MonolithResult:
    """Verdict of the joint backward fixpoint."""

    reachable: bool
    witness: Optional[Dict[str, int]]  # initial header at the source
    iterations: int
    converged: bool


def _device_hop(
    s: Zen,
    model: DeviceModel,
    links: Dict[Tuple[str, int], Tuple[str, int]],
    index_of: Dict[str, int],
    sink: Tuple[str, int],
) -> Zen:
    """Successor state for a live packet sitting at this device."""
    dead = s.with_field("alive", constant(False, bool))
    h = s.hdr
    admitted = constant(True, bool)
    for port, acl in sorted(model.acl_in.items()):
        admitted = if_(s.port == port, acl_allows(acl, h), admitted)
    h1 = apply_nat(model.nat, h) if model.nat else h
    q = forward(model.fib, h1)
    result = dead  # null port / port absent from the FIB: dropped
    out_ports = sorted(
        {rule.port for rule in model.fib.rules if rule.port != 0}
    )
    delivered_index = len(index_of)
    for out_port in out_ports:
        permitted = constant(True, bool)
        acl = model.acl_out.get(out_port)
        if acl is not None:
            permitted = acl_allows(acl, h1)
        neighbour = links.get((model.name, out_port))
        if neighbour is not None:
            landing = create(
                NetState,
                device=constant(index_of[neighbour[0]], Byte),
                port=constant(neighbour[1], Byte),
                alive=constant(True, bool),
                hdr=h1,
            )
        elif (model.name, out_port) == sink:
            landing = create(
                NetState,
                device=constant(delivered_index, Byte),
                port=constant(0, Byte),
                alive=constant(True, bool),
                hdr=h1,
            )
        else:
            landing = dead  # unlinked, non-sink port
        result = if_(q == out_port, if_(permitted, landing, dead), result)
    return if_(admitted, result, dead)


def _normalize_budget(budget: Any) -> Optional[BudgetMeter]:
    """Accept None, a plain dict of Budget fields, a Budget, or a
    running meter — compose callers thread budgets as plain JSON."""
    if isinstance(budget, dict):
        budget = Budget.from_dict(budget)
    return start_meter(budget)


def monolithic_verdict(
    topo: Dict[str, Any],
    query: Dict[str, Any],
    budget=None,
    max_iterations: int = 10_000,
) -> MonolithResult:
    """Decide the query with one joint fixpoint over the product machine."""
    budget = _normalize_budget(budget)
    validate_topology(topo)
    validate_query(topo, query)
    models = device_models(topo)
    names = sorted(models)
    if len(names) >= MAX_MONOLITH_DEVICES:
        raise ValueError(
            f"monolithic model supports at most {MAX_MONOLITH_DEVICES} "
            f"devices, got {len(names)}"
        )
    index_of = {name: i for i, name in enumerate(names)}
    delivered_index = len(names)
    links = link_map(topo)
    sink = (query["sink"][0], int(query["sink"][1]))
    source = (query["source"][0], int(query["source"][1]))

    def step_fn(s: Zen) -> Zen:
        result = s  # dead and delivered states absorb
        for name in names:
            hop = _device_hop(s, models[name], links, index_of, sink)
            result = if_((s.device == index_of[name]) & s.alive, hop, result)
        return result

    def initial_fn(s: Zen) -> Zen:
        return (
            (s.device == index_of[source[0]])
            & (s.port == source[1])
            & s.alive
            & cover_predicate(s.hdr, query.get("headers"))
        )

    def target_fn(s: Zen) -> Zen:
        return (
            (s.device == delivered_index)
            & s.alive
            & cover_predicate(s.hdr, query.get("target"))
        )

    # Deep if_ chains over 100+ devices stress the recursive symbolic
    # evaluator; give it headroom for this query only — a raised limit
    # left behind lets later deep recursion overrun the C stack.
    previous_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(previous_limit, 50_000 + 400 * len(names)))
    try:
        with span("compose.monolith", devices=len(names)) as live:
            context = TransformerContext()
            step = ZenFunction(step_fn, [NetState], name="net-step")
            initial = context.from_predicate(
                ZenFunction(initial_fn, [NetState], name="net-initial"),
                budget=budget,
            )
            bad = context.from_predicate(
                ZenFunction(target_fn, [NetState], name="net-delivered"),
                budget=budget,
            )
            report = backward_reachable(
                step,
                bad,
                context=context,
                max_iterations=max_iterations,
                budget=budget,
            )
            hit = report.reachable.intersect(initial)
            state = hit.element()
            live.set("iterations", report.iterations)
            live.set("reachable", state is not None)
    finally:
        sys.setrecursionlimit(previous_limit)

    witness = None
    if state is not None:
        hdr = state.hdr if dataclasses.is_dataclass(state) else state["hdr"]
        witness = {
            f.name: getattr(hdr, f.name)
            for f in dataclasses.fields(Header)
        } if dataclasses.is_dataclass(hdr) else dict(hdr)
    return MonolithResult(
        reachable=state is not None,
        witness=witness,
        iterations=report.iterations,
        converged=report.converged,
    )
