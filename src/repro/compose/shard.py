"""Shard summaries: per-shard interface summaries, exact for any input.

:func:`compute_shard_summary` takes one plain-JSON shard task (from
:func:`~repro.compose.plan.plan_shards`) and returns its summary:
plain picklable data whose guards are node handles in the compose
context it was computed in, which it names by an int token.

A device in this model only ever *pins* header bits: a NAT rule
replaces the network bits of an address with a prefix's, or sets a
port to a constant, for packets that matched its prefixes.  So a
header anywhere inside a shard is the header ``e`` that entered it
with some bits ``X`` overwritten by a cube of literals ``P``, and the
set of headers that leaves the shard from an input set ``S`` is a
union of *flows*

    ``∃X. (S ∧ G) ∧ P``

where the *guard* ``G`` is a set of entry headers and ``P`` the pins
(``X`` is the bits ``P`` pins).  For each (entry point, exit point)
pair the summary lists its flows; the recomposer applies them to
whatever set actually arrives, so a summary is exact for every input —
it describes the interface, not one query, and is computed once for
every header (the universe).  A device without NAT never pins, so a
filter shard has one flow per pair, with no pins, and its guard is the
set of headers that pass from the entry to the exit.

Internally this is a small worklist fixpoint over the shard's own
devices and links (shards may contain internal loops) that carries
``{pins → guard}`` per point, built from two families of per-device
sets over the header *entering* the device:

* ``IN[d, p]``  — headers admitted by ``acl_in`` at port ``p``;
* ``PRE[d, q]`` — headers whose *post-NAT* rewrite is forwarded to
  port ``q`` and admitted by ``acl_out`` there.

The first hop through a device builds all of them at once — they are
the roots of one evaluation of one device model
(:meth:`~repro.core.transformers.TransformerContext.from_predicates`),
so the NAT rewrite, the FIB chain and every match condition are
compiled once per device, not once per port.  A port without an
ingress ACL admits everything and has no ``IN`` set.

One compose context per thread.  Each thread holds one
:class:`_ShardModel`: one
:class:`~repro.core.transformers.TransformerContext`, a memo from a
device's *configuration* — its FIB, NAT and ACL rules as decoded from
the payload, never its name — to those sets and its NAT match cubes,
and the driver's summaries (by shard content) and fabrics (by
topology content).  A task without a budget runs in that context, so
a device the thread has built before, under any name and in any
shard, costs a lookup: no trace, no evaluator session.  Its summary's
guards are nodes there, and the recomposer reads them in place
(:func:`model_of` refuses a summary of any other context).  The
context is dropped whole when any exception leaves
:func:`compute_shard_summary` or the driver, so a half-finished build
is never reused, and between queries (:func:`settle`) once it holds
more than :data:`MAX_HELD_NODES` nodes or :data:`MAX_HELD_DEVICES`
device models.  A task with a budget runs in a fresh context of its
own: ``max_bdd_nodes`` caps a manager's cumulative allocation, which
on the held manager would charge the task for its predecessors'
nodes.  Nothing holds that context, so its summary cannot be
recomposed; a budgeted *query* runs every shard and its recompose in
one fresh context of its own (:func:`query_context`).

A hop of flow ``(P, G)`` entering ``p`` and leaving ``q`` restricts
``IN[p] ∧ PRE[q]`` by ``P`` (the device sees ``e`` with ``P`` written
over it) and ANDs it into ``G``.  A NAT device then splits the flow
first-match over its rules: each rule is one ``(match cube, pins)``
pair (:func:`nat_cubes`), adds its match (restricted by ``P``) to the
guard and writes its pins over ``P``; what no rule matches keeps ``P``.

A summary's guards are BDD nodes, exact; its pins are one cube of
the cover form.  :meth:`~repro.bdd.Bdd.export_table` renders the
guards as one node table, canonical in the BDD's structure: equal
guards in any two contexts give equal tables, which is how tests
compare summaries across contexts.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import OrderedDict
from contextlib import contextmanager
from typing import (
    Any,
    Dict,
    Hashable,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Tuple,
)

from ..core import start_meter
from ..core.transformers import StateSet, TransformerContext
from ..core.budget import Budget, metered
from ..errors import ZenComposeError
from ..lang import Zen
from ..network import NULL_PORT, Header, NatRule, acl_allows, forward
from ..network.device import Device, rewrite
from ..telemetry.spans import span
from .cubes import Cube, cube_literals
from .plan import pair_key
from .topo import Point, build_network

#: A cube as sorted ``(field, value, mask)`` triples: hashable, canonical.
Pins = Tuple[Tuple[str, int, int], ...]
#: The flows at one point: pins written so far → guard on entry headers.
Flows = Dict[Pins, int]


def _pins(cube: Cube) -> Pins:
    return tuple(sorted((f, value, mask) for f, (value, mask) in cube.items()))


def _cube(pins: Pins) -> Cube:
    return {field: [value, mask] for field, value, mask in pins}


def _override(pins: Pins, cube: Cube) -> Pins:
    """`pins` with `cube`'s literals written over them."""
    merged = _cube(pins)
    for field, (value, mask) in cube.items():
        old_value, old_mask = merged.get(field, (0, 0))
        merged[field] = [old_value & ~mask | value, old_mask | mask]
    return _pins(merged)


def _merge(manager, into: Flows, flows: Flows) -> bool:
    """Union `flows` into `into`; whether any guard grew."""
    grew = False
    for pins, guard in flows.items():
        prior = into.get(pins, 0)
        grown = manager.or_(prior, guard)
        if grown != prior:
            into[pins] = grown
            grew = True
    return grew


def nat_cubes(rule: NatRule) -> Tuple[Cube, Cube]:
    """One NAT rule as ``(match cube, pins)``: what it matches and what
    it writes.  A prefix translation pins the network bits and keeps
    the host bits; a port rewrite pins the whole port."""
    match = {
        "src_ip": [rule.match_src.address, rule.match_src.mask],
        "dst_ip": [rule.match_dst.address, rule.match_dst.mask],
    }
    pins: Cube = {}
    for field, prefix in (
        ("src_ip", rule.translate_src),
        ("dst_ip", rule.translate_dst),
    ):
        if prefix is not None:
            pins[field] = [prefix.address, prefix.mask]
    for field, port in (
        ("src_port", rule.set_src_port),
        ("dst_port", rule.set_dst_port),
    ):
        if port is not None:
            pins[field] = [port, 0xFFFF]
    return match, pins


class _DeviceSets(NamedTuple):
    """One device's hop sets; see the module docstring."""

    out_ports: List[int]  # ascending, null port excluded
    admitted: Dict[int, StateSet]  # IN[p], ports with an ingress ACL only
    pre: Dict[int, StateSet]  # PRE[q], every out port
    nat: List[Tuple[int, Cube]]  # (match node, pins) per NAT rule, in order


def _model_key(device: Device) -> Hashable:
    """What a device's hop sets are built from, and nothing else: its
    payload as decoded into frozen rules.  The name is not part of it,
    so two devices with one configuration share one entry."""
    return (
        device.fib,
        None if device.nat is None else device.nat.rules,
        *(
            tuple(
                (intf.id, getattr(intf, side).rules)
                for intf in device.interfaces
                if getattr(intf, side) is not None
            )
            for side in ("acl_in", "acl_out")
        ),
    )


_tokens = itertools.count(1)


class _ShardModel:
    """A compose context: per-device Zen sets, built on a device's
    first hop and kept by content (a device built before is looked up,
    not recompiled), and the driver's summaries and fabrics, whose
    guards are nodes of the same context."""

    def __init__(
        self, context: TransformerContext, header_type, levels, meter
    ) -> None:
        self.token = next(_tokens)  # what its summaries name it by
        self.context = context
        self.header_type = header_type
        self.levels = levels
        self.meter = meter
        self._sets: Dict[Hashable, _DeviceSets] = {}
        self.builds = 0  # devices built, so entries in the memo
        self.summaries: "OrderedDict[str, Dict[str, Any]]" = OrderedDict()
        self.fabrics: "OrderedDict[bytes, Any]" = OrderedDict()

    @classmethod
    def fresh(cls, meter=None) -> "_ShardModel":
        """A model over a context of its own."""
        context = TransformerContext()
        header_type = context.universe(Header).zen_type
        return cls(context, header_type, context.space(header_type).levels, meter)

    def sets(self, device: Device) -> _DeviceSets:
        """All of the device's ``IN`` and ``PRE`` sets, from one model.

        Every port asks its question of the same NAT rewrite and FIB
        lookup, so they are the roots of one evaluation: a match
        condition is built once per rule, not once per rule and port.
        """
        key = _model_key(device)
        built = self._sets.get(key)
        if built is not None:
            return built
        filtered = [i for i in device.interfaces if i.acl_in is not None]
        out_ports = sorted(
            {rule.port for rule in device.fib.rules if rule.port != NULL_PORT}
        )

        def roots(h: Zen) -> List[Zen]:
            rewritten = rewrite(device, h)
            port = forward(device.fib, rewritten)
            conds = [acl_allows(intf.acl_in, h) for intf in filtered]
            for q in out_ports:
                cond, out = port == q, device.interface(q)
                if out.acl_out is not None:  # a bare `& True` costs a node
                    cond = cond & acl_allows(out.acl_out, rewritten)
                conds.append(cond)
            return conds

        built_sets = self.context.from_predicates(
            roots,
            self.header_type,
            name=f"device:{device.name}",
            budget=self.meter,
        )
        manager = self.context.manager
        rules = device.nat.rules if device.nat is not None else ()
        nat = [
            (manager.cube(cube_literals(match, self.levels)), pins)
            for match, pins in map(nat_cubes, rules)
        ]
        self.builds += 1
        built = self._sets[key] = _DeviceSets(
            out_ports,
            {intf.id: s for intf, s in zip(filtered, built_sets)},
            dict(zip(out_ports, built_sets[len(filtered) :])),
            nat,
        )
        return built

    def hop(
        self, sets: _DeviceSets, in_port: int, out_port: int, pins: Pins, guard: int
    ) -> Flows:
        """The flows that flow ``(pins, guard)`` becomes across one hop
        of the device `sets` describes."""
        if self.meter is not None:
            self.meter.check_deadline()
        manager = self.context.manager
        literals = cube_literals(_cube(pins), self.levels)
        passing = guard
        # A port without an ingress ACL admits everything: nothing to compile.
        if in_port in sets.admitted:
            admitted = manager.restrict(sets.admitted[in_port].node, literals)
            passing = manager.and_(passing, admitted)
        pre = manager.restrict(sets.pre[out_port].node, literals)
        passing = manager.and_(passing, pre)
        if not sets.nat or passing == 0:
            return {pins: passing} if passing else {}
        flows: Flows = {}
        for match, written in sets.nat:
            match = manager.restrict(match, literals)
            hit = manager.and_(passing, match)
            passing = manager.diff(passing, match)
            if hit != 0:
                _merge(manager, flows, {_override(pins, written): hit})
            if passing == 0:
                break
        else:  # what no rule matches passes unchanged
            _merge(manager, flows, {pins: passing})
        return flows


#: A thread's compose context is dropped whole, between queries, once
#: it holds more than this many nodes or device models: about 7 MB and
#: 2.3 MB at most (~350 B a node, ~4.4 kB a device, caches included;
#: see DESIGN, *Shard summaries*).
MAX_HELD_NODES = 20_000
MAX_HELD_DEVICES = 512

_held = threading.local()


def held() -> _ShardModel:
    """This thread's compose context, made on first use."""
    model = getattr(_held, "model", None)
    if model is None:
        model = _held.model = _ShardModel.fresh()
    return model


def forget() -> None:
    """Drop this thread's compose context: its device models, summaries
    and fabrics."""
    _held.__dict__.pop("model", None)


def settle() -> None:
    """A query is over: drop this thread's compose context if it holds
    more than :data:`MAX_HELD_NODES` nodes or :data:`MAX_HELD_DEVICES`
    device models."""
    model = getattr(_held, "model", None)
    if model is not None and (
        model.context.manager.num_nodes > MAX_HELD_NODES
        or model.builds > MAX_HELD_DEVICES
    ):
        forget()


@contextmanager
def query_context(budget: Optional[Dict[str, Any]]) -> Iterator[_ShardModel]:
    """The compose context a query runs in: this thread's, or, for a
    budgeted query, a fresh one of its own, metered as a whole (its node
    cap counts every shard's nodes and the recompose's) and this
    thread's context until the query ends.  A misspelt limit raises
    here, before any shard runs."""
    meter = start_meter(Budget.from_dict(budget))
    if meter is None:
        yield held()
        return
    model = _ShardModel.fresh(meter)
    saved = getattr(_held, "model", None)
    _held.model = model
    try:
        with metered(model.context.manager, meter):
            yield model
    finally:
        _held.model = saved


def model_of(summaries: Iterable[Dict[str, Any]]) -> _ShardModel:
    """This thread's compose context, which every one of `summaries`
    must name: their guards are its nodes.  A summary of a dropped
    context, of another thread's or of a budgeted task's raises
    :class:`~repro.errors.ZenComposeError`, as a handle of one manager
    read in another would mean another set."""
    model = held()
    for summary in summaries:
        if summary.get("context") != model.token:
            raise ZenComposeError(
                f"the summary of {summary.get('shard_id')!r} names compose "
                f"context {summary.get('context')!r}, not this thread's "
                f"context {model.token}: its guards are not nodes here"
            )
    return model


def compute_shard_summary(task: Dict[str, Any]) -> Dict[str, Any]:
    """Compute one shard's interface summary.

    `task` is a shard dict from :func:`~repro.compose.plan.plan_shards`.
    Returns a plain dict: ``context``, the token of the compose context
    it was computed in, and ``images``, which maps each ``entry|exit``
    pair key to its flows ``[[guard, pins], ...]`` with each guard a
    node of that context; see the module docstring for what they mean.

    A task without a budget runs in this thread's compose context; one
    with a budget in a fresh context of its own, so its node cap counts
    only its own allocation.  Any exception drops this thread's context.
    """
    try:
        meter = start_meter(Budget.from_dict(task.get("budget")))
        model = held() if meter is None else _ShardModel.fresh(meter)
        return _summarise(task, model)
    except BaseException:
        forget()
        raise


def _summarise(task: Dict[str, Any], model: _ShardModel) -> Dict[str, Any]:
    started = time.monotonic()
    shard_id = task["shard_id"]
    entries: List[Point] = [(d, int(p)) for d, p in task.get("entries", [])]
    exits = {(d, int(p)) for d, p in task.get("exits", [])}
    network = build_network(task, [*entries, *exits])
    meter = model.meter
    builds = model.builds
    manager = model.context.manager
    devices = network.devices
    # Each device's sets, looked up by content once per task.
    visited: Dict[str, _DeviceSets] = {}

    images: Dict[str, Flows] = {}
    rounds = set_ops = 0

    with span(
        "compose.shard", shard=shard_id, devices=len(devices)
    ) as live:
        for entry in entries:
            arriving: Dict[Point, Flows] = {entry: {(): 1}}
            reached_exits: Dict[Point, Flows] = {}
            worklist: List[Point] = [entry]
            while worklist:
                if meter is not None:
                    meter.check_deadline()
                rounds += 1
                name, port = worklist.pop()
                current = list(arriving[(name, port)].items())
                if not current:
                    continue
                device = devices[name]
                sets = visited.get(name)
                if sets is None:
                    sets = visited[name] = model.sets(device)
                for q in sets.out_ports:
                    for pins, guard in current:
                        set_ops += 1
                        flows = model.hop(sets, port, q, pins, guard)
                        if not flows:
                            continue
                        if (name, q) in exits:
                            reached = reached_exits.setdefault((name, q), {})
                            _merge(manager, reached, flows)
                        linked = device.interface(q).neighbor
                        if linked is not None:
                            neighbour = (linked.device.name, linked.id)
                            into = arriving.setdefault(neighbour, {})
                            grew = _merge(manager, into, flows)
                            if grew and neighbour not in worklist:
                                worklist.append(neighbour)
            for exit_point, reached in reached_exits.items():
                images[pair_key(entry, exit_point)] = reached
        compiled = model.builds - builds
        live.set("entries", len(entries))
        live.set("images", len(images))
        live.set("devices_compiled", compiled)
        live.set("devices_reused", len(visited) - compiled)

    return {
        "shard_id": shard_id,
        "context": model.token,
        "images": {
            pair: [[guard, _cube(pins)] for pins, guard in sorted(flows.items())]
            for pair, flows in images.items()
        },
        "stats": {
            "devices": len(devices),
            "entries": len(entries),
            "exits": len(exits),
            "set_ops": set_ops,
            "fixpoint_pops": rounds,
            "elapsed_ms": (time.monotonic() - started) * 1000.0,
        },
    }
