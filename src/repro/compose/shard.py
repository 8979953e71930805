"""Shard workers: per-shard interface image summaries.

:func:`compute_shard_summary` is the compose fan-out's worker entry
point.  It is addressed by the service layer as the ``module:attr``
builder of a ``kind="call"`` :class:`~repro.service.QuerySpec`, takes
one plain-JSON shard task (from :func:`~repro.compose.plan.plan_shards`)
and returns a plain-JSON summary — nothing symbolic crosses the
process boundary.

For each (entry point, exit point) pair the worker computes the
*image*: the set of headers that can leave the shard at the exit given
that headers in the shard's interface assumption arrive at the entry.
Internally this is a small worklist fixpoint over the shard's own
devices and links (shards may contain internal loops), built from two
families of per-device sets:

* ``IN[d, p]``  — headers admitted by ``acl_in`` at port ``p``;
* ``PRE[d, q]`` — headers whose *post-NAT* rewrite is forwarded to
  port ``q`` and admitted by ``acl_out`` there.

The first hop through a device builds all of them at once — they are
the roots of one evaluation of one device model
(:meth:`~repro.core.transformers.TransformerContext.from_predicates`),
so the NAT rewrite, the FIB chain and every match condition are
compiled once per device, not once per port.  A port without an
ingress ACL admits everything and has no ``IN`` set.

A hop's image of a set ``S`` entering ``p`` and leaving ``q`` is then
``S ∩ IN[p] ∩ PRE[q]``, pushed through the device's NAT rewrite when
it has one.  Prefix NAT replaces network bits and keeps host bits, so
its exact image is existential quantification of the replaced bits
followed by pinning them — orders of magnitude cheaper than building
the rewrite's full transition relation
(:func:`~repro.core.forward_image` does that for arbitrary step
functions; the monolithic fallback still uses that general path).
Devices without NAT never rewrite, so their images are plain
intersections and the summary is marked ``filters_only`` — the
recomposer exploits that for exactness.

Image covers that exceed ``max_cubes`` are reported as ``None``
(unknown), never truncated: a partial cover would under-approximate
and could certify a bogus "unreachable".
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, NamedTuple, Optional

from ..core import start_meter
from ..core.transformers import StateSet, TransformerContext
from ..core.budget import Budget
from ..lang import Zen
from ..network import NULL_PORT, Header, NatRule, Prefix, forward
from ..network.device import Device, admits, permits, rewrite
from ..telemetry.metrics import METRICS
from ..telemetry.spans import span
from .cubes import _OFFSETS, Cover, cover_node, node_cover, validate_cover
from .plan import pair_key, point_key
from .topo import Point, build_network


class _DeviceSets(NamedTuple):
    """One device's hop sets; see the module docstring."""

    out_ports: List[int]  # ascending, null port excluded
    admitted: Dict[int, StateSet]  # IN[p], ports with an ingress ACL only
    pre: Dict[int, StateSet]  # PRE[q], every out port


class _ShardModel:
    """Per-device Zen sets for one shard, built on a device's first hop."""

    def __init__(
        self, context: TransformerContext, header_type, levels, meter
    ) -> None:
        self.context = context
        self.header_type = header_type
        self.levels = levels
        self.meter = meter
        self.universe = context.universe(header_type)
        self._sets: Dict[str, _DeviceSets] = {}
        self.set_ops = 0

    def sets(self, device: Device) -> _DeviceSets:
        """All of the device's ``IN`` and ``PRE`` sets, from one model.

        Every port asks its question of the same NAT rewrite and FIB
        lookup, so they are the roots of one evaluation: a match
        condition is built once per rule, not once per rule and port.
        """
        built = self._sets.get(device.name)
        if built is not None:
            return built
        filtered = [i for i in device.interfaces if i.acl_in is not None]
        out_ports = sorted(
            {rule.port for rule in device.fib.rules if rule.port != NULL_PORT}
        )

        def roots(h: Zen) -> List[Zen]:
            rewritten = rewrite(device, h)
            port = forward(device.fib, rewritten)
            conds = [admits(intf, h) for intf in filtered]
            for q in out_ports:
                cond, out = port == q, device.interface(q)
                if out.acl_out is not None:  # a bare `& True` costs a node
                    cond = cond & permits(out, rewritten)
                conds.append(cond)
            return conds

        built_sets = self.context.from_predicates(
            roots,
            self.header_type,
            name=f"device:{device.name}",
            budget=self.meter,
        )
        built = self._sets[device.name] = _DeviceSets(
            out_ports,
            {intf.id: s for intf, s in zip(filtered, built_sets)},
            dict(zip(out_ports, built_sets[len(filtered) :])),
        )
        return built

    def _prefix_literals(self, field: str, prefix: Prefix) -> Dict[int, bool]:
        offset = _OFFSETS[field]
        return {
            self.levels[offset + slot]: bool(
                prefix.address & (1 << (31 - slot))
            )
            for slot in range(prefix.length)
        }

    def _set_field(
        self, node: int, field: str, literals: Dict[int, bool]
    ) -> int:
        """Forget the given bits of a field, then pin them to `literals`."""
        manager = self.context.manager
        freed = manager.exists(node, literals.keys())
        return manager.and_(freed, manager.cube(literals))

    def _rule_image(self, node: int, rule: NatRule) -> int:
        """Exact image of one NAT rule's rewrite on a matched set.

        A prefix rewrite replaces the network bits and keeps host
        bits, so the image is existential quantification of the
        replaced bits followed by pinning them — no transition
        relation needed.
        """
        result = node
        if rule.translate_src is not None:
            result = self._set_field(
                result,
                "src_ip",
                self._prefix_literals("src_ip", rule.translate_src),
            )
        if rule.translate_dst is not None:
            result = self._set_field(
                result,
                "dst_ip",
                self._prefix_literals("dst_ip", rule.translate_dst),
            )
        for value, field, width in (
            (rule.set_src_port, "src_port", 16),
            (rule.set_dst_port, "dst_port", 16),
        ):
            if value is None:
                continue
            offset = _OFFSETS[field]
            literals = {
                self.levels[offset + slot]: bool(
                    value & (1 << (width - 1 - slot))
                )
                for slot in range(width)
            }
            result = self._set_field(result, field, literals)
        return result

    def nat_image(self, device: Device, node: int) -> int:
        """Exact image of a set under the device's NAT table."""
        manager = self.context.manager
        remaining = node
        image = 0
        for rule in device.nat.rules:
            match = manager.cube(
                {
                    **self._prefix_literals("src_ip", rule.match_src),
                    **self._prefix_literals("dst_ip", rule.match_dst),
                }
            )
            hit = manager.and_(remaining, match)
            remaining = manager.diff(remaining, match)
            if hit != 0:
                image = manager.or_(image, self._rule_image(hit, rule))
            if remaining == 0:
                break
        return manager.or_(image, remaining)  # unmatched pass unchanged

    def hop_image(
        self, device: Device, in_port: int, out_port: int, arriving: StateSet
    ) -> StateSet:
        """Image of `arriving` across one device hop (may rewrite)."""
        if self.meter is not None:
            self.meter.check_deadline()
        self.set_ops += 1
        sets = self.sets(device)
        # A port without an ingress ACL admits everything: nothing to compile.
        passing = arriving.intersect(
            sets.admitted.get(in_port, self.universe)
        ).intersect(sets.pre[out_port])
        if device.nat is None or passing.node == 0:
            return passing
        METRICS.counter("compose.nat_images").inc()
        return StateSet(
            self.context,
            self.header_type,
            self.nat_image(device, passing.node),
        )


def compute_shard_summary(task: Dict[str, Any]) -> Dict[str, Any]:
    """Compute one shard's interface image summary (worker entry).

    `task` is a shard dict from :func:`~repro.compose.plan.plan_shards`,
    optionally with per-entry exact assumptions under
    ``entry_assumptions`` (escalation re-dispatch).  Returns a plain
    dict; see the module docstring for semantics.
    """
    started = time.monotonic()
    shard_id = task["shard_id"]
    entries: List[Point] = [(d, int(p)) for d, p in task.get("entries", [])]
    exits = {(d, int(p)) for d, p in task.get("exits", [])}
    network = build_network(task, [*entries, *exits])
    assumption: Cover = validate_cover(task.get("assumption"), "assumption")
    entry_assumptions = task.get("entry_assumptions") or {}
    for key, cover in entry_assumptions.items():
        validate_cover(cover, f"entry_assumptions[{key}]")
    max_cubes = int(task.get("max_cubes", 4096))
    meter = start_meter(Budget.from_dict(task.get("budget")))

    context = TransformerContext()
    header_type = context.universe(Header).zen_type
    levels = context.space(header_type).levels
    manager = context.manager
    model = _ShardModel(context, header_type, levels, meter)
    devices = network.devices
    filters_only = all(d.nat is None for d in devices.values())

    images: Dict[str, Optional[Cover]] = {}
    exact = True
    rounds = 0

    with span(
        "compose.shard", shard=shard_id, devices=len(devices)
    ) as live:
        for entry in entries:
            seed_cover = entry_assumptions.get(point_key(entry), assumption)
            seed = StateSet(
                context, header_type, cover_node(manager, levels, seed_cover)
            )
            arriving: Dict[Point, StateSet] = {entry: seed}
            reached_exits: Dict[Point, StateSet] = {}
            worklist: List[Point] = [entry]
            while worklist:
                if meter is not None:
                    meter.check_deadline()
                rounds += 1
                name, port = worklist.pop()
                current = arriving[(name, port)]
                if current.node == 0:
                    continue
                device = devices[name]
                for q in model.sets(device).out_ports:
                    image = model.hop_image(device, port, q, current)
                    if image.node == 0:
                        continue
                    if (name, q) in exits:
                        prior = reached_exits.get((name, q))
                        reached_exits[(name, q)] = (
                            image if prior is None else prior.union(image)
                        )
                    linked = device.interface(q).neighbor
                    if linked is not None:
                        neighbour = (linked.device.name, linked.id)
                        prior = arriving.get(neighbour)
                        grown = (
                            image if prior is None else prior.union(image)
                        )
                        if prior is None or not grown.equals(prior):
                            arriving[neighbour] = grown
                            if neighbour not in worklist:
                                worklist.append(neighbour)
            for exit_point, reached in reached_exits.items():
                cover = node_cover(manager, levels, reached.node, max_cubes)
                if cover is None:
                    exact = False
                images[pair_key(entry, exit_point)] = cover
        live.set("entries", len(entries))
        live.set("images", len(images))
        live.set("exact", exact)

    summary: Dict[str, Any] = {
        "shard_id": shard_id,
        "filters_only": filters_only,
        "exact": exact,
        "assumption": assumption,
        "images": images,
        "stats": {
            "devices": len(devices),
            "entries": len(entries),
            "exits": len(exits),
            "set_ops": model.set_ops,
            "fixpoint_pops": rounds,
            "elapsed_ms": (time.monotonic() - started) * 1000.0,
        },
    }
    if entry_assumptions:
        summary["entry_assumptions"] = dict(entry_assumptions)
        summary["assumption_exact"] = True
    return summary
