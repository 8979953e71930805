"""Header space analysis (Figure 8): packet-set reachability.

HSA pushes *sets* of packets through the network, exploring all paths,
using the state set transformer abstraction.  Each interface
contributes an inbound and an outbound transformer built from the same
``fwd_in`` / ``fwd_out`` models used for simulation and model checking
— the compositionality payoff of §4.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from ..core import (
    StateSet,
    StateSetTransformer,
    TransformerContext,
    ZenFunction,
    start_meter,
)
from ..errors import ZenTypeError
from ..lang import ZOption
from ..network.device import Interface, fwd_in, fwd_out
from ..network.packet import Packet
from ..network.topology import Network


@dataclass(frozen=True)
class PathSet:
    """A set of packets, the path they took, and why they stopped.

    ``status`` is "stopped" when the set reached a device that
    forwards it nowhere (dropped by the FIB or an outbound ACL, or it
    left the network — the last path element tells which), and
    "dropped_in" when an inbound ACL consumed the whole set.
    """

    path: Tuple[str, ...]
    packets: StateSet
    status: str = "stopped"


class _TransformerCache:
    """Builds and caches in/out packet-set transformers per interface.

    One shared budget meter covers every transformer build and set
    push of an exploration, so the whole analysis — not each hop —
    lives under a single deadline/node cap.
    """

    _MODELS = {"in": fwd_in, "out": fwd_out}

    def __init__(self, context: TransformerContext, meter=None):
        self.context = context
        self.meter = meter
        self._hops: Dict[Tuple[str, int], StateSetTransformer] = {}
        self._some: Optional[StateSet] = None
        self._value: Optional[StateSetTransformer] = None

    def _transformer(self, fn: ZenFunction) -> StateSetTransformer:
        return fn.transformer(self.context, budget=self.meter)

    def push(self, hop: str, intf: Interface, packets: StateSet) -> StateSet:
        """The packets `intf`'s "in" or "out" model passes on."""
        key = (hop, id(intf))
        if key not in self._hops:
            model = self._MODELS[hop]
            self._hops[key] = self._transformer(
                ZenFunction(
                    lambda p: model(intf, p),
                    [Packet],
                    name=f"{hop}:{intf.name}",
                )
            )
        if self._value is None:
            options = [ZOption[Packet]]
            self._some = self.context.from_predicate(
                ZenFunction(lambda o: o.has_value(), options, name="has_value"),
                budget=self.meter,
            )
            self._value = self._transformer(
                ZenFunction(lambda o: o.value(), options, name="value")
            )
        options = self._hops[key].transform_forward(packets, budget=self.meter)
        return self._value.transform_forward(
            options.intersect(self._some), budget=self.meter
        )


def hsa_explore(
    entry: Interface,
    packets: StateSet,
    max_depth: int = 16,
    budget=None,
) -> Iterator[PathSet]:
    """Explore all paths a packet set can take from an entry interface.

    Yields a :class:`PathSet` whenever a (non-empty) set of packets
    stops moving: it is dropped at the current device, or it leaves the
    network through an unlinked interface.  This is the algorithm of
    Figure 8, with transformers computing the per-hop packet sets, in
    the context of `packets`.

    `budget` (a :class:`~repro.core.budget.Budget` or running meter)
    governs the *entire* exploration — every transformer build and
    per-hop set operation charges one shared meter — raising
    :class:`~repro.errors.ZenBudgetExceeded` on exhaustion.
    """
    cache = _TransformerCache(packets.context, meter=start_meter(budget))
    queue: List[Tuple[Tuple[str, ...], Interface, StateSet, int]] = [
        ((entry.name,), entry, packets, 0)
    ]
    while queue:
        path, intf, current, depth = queue.pop(0)
        in_set = cache.push("in", intf, current)
        if in_set.is_empty():
            yield PathSet(path, current, status="dropped_in")
            continue
        forwarded = False
        for out_intf in intf.device.interfaces:
            out_set = cache.push("out", out_intf, in_set)
            if out_set.is_empty():
                continue
            forwarded = True
            new_path = path + (out_intf.name,)
            if out_intf.neighbor is None or depth + 1 >= max_depth:
                yield PathSet(new_path, out_set)
            else:
                queue.append(
                    (
                        new_path + (out_intf.neighbor.name,),
                        out_intf.neighbor,
                        out_set,
                        depth + 1,
                    )
                )
        if not forwarded:
            yield PathSet(path, in_set)


def reachable_sets(
    network: Network,
    entry: Interface,
    context: Optional[TransformerContext] = None,
    max_depth: int = 16,
    packets: Optional[StateSet] = None,
    budget=None,
) -> List[PathSet]:
    """All terminal path sets from an entry interface.

    Defaults to the full packet universe.  For networks whose devices
    create cross-field correlations (e.g. tunnel encapsulation copying
    ports between headers), pass a constrained entry set — fully
    symbolic correlated fields are the classic worst case for BDD
    packet sets.  `budget` bounds the whole exploration.

    The sets live in `packets`' context when `packets` is given (a
    different `context` raises :class:`~repro.errors.ZenTypeError`),
    else in `context`, else in a fresh context the answer owns.
    """
    if packets is None:
        packets = (context or TransformerContext()).universe(Packet)
    elif context is not None and context is not packets.context:
        raise ZenTypeError("packets belong to a different context")
    return list(
        hsa_explore(entry, packets, max_depth=max_depth, budget=budget)
    )


def reachable_between(
    network: Network,
    entry: Interface,
    exit_intf: Interface,
    context: Optional[TransformerContext] = None,
    max_depth: int = 16,
    budget=None,
) -> StateSet:
    """The set of packets that can travel from `entry` out of
    `exit_intf` along some path.  `budget` bounds the exploration;
    without a `context` the answer gets a fresh one."""
    if context is None:
        context = TransformerContext()
    universe = context.universe(Packet)
    result = context.empty_set(Packet)
    for path_set in hsa_explore(entry, universe, max_depth, budget):
        if path_set.status == "stopped" and path_set.path[-1] == exit_intf.name:
            result = result.union(path_set.packets)
    return result