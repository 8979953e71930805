"""Network topology assembly and concrete simulation.

A :class:`Network` wires devices and links together, and
:func:`simulate` performs Batfish-style concrete packet simulation by
repeatedly executing the (Zen) device models on concrete values —
possible because Zen models are executable (§4 "Simulation").
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from ..core import ZenFunction
from ..errors import ZenTypeError
from ..lang import Zen
from .acl import Acl
from .device import Device, Interface, effective_header, egress, ingress
from .fib import NULL_PORT, FwdRule, FwdTable, forward
from .gre import GreTunnel
from .ip import Prefix
from .packet import Packet


class Network:
    """A collection of devices connected by point-to-point links."""

    def __init__(self) -> None:
        self._devices: Dict[str, Device] = {}

    @property
    def devices(self) -> Dict[str, Device]:
        """Devices by name."""
        return dict(self._devices)

    def add_device(
        self,
        name: str,
        fib_rules: Iterable[Tuple[str, int]] = (),
    ) -> Device:
        """Add a device with (prefix string, port) forwarding rules."""
        if name in self._devices:
            raise ZenTypeError(f"duplicate device {name!r}")
        table = FwdTable.of(
            [FwdRule(Prefix.parse(p), port) for p, port in fib_rules]
        )
        device = Device(name=name, fib=table)
        self._devices[name] = device
        return device

    def add_interface(
        self,
        device: Device,
        port: int,
        acl_in: Optional[Acl] = None,
        acl_out: Optional[Acl] = None,
        gre_start: Optional[GreTunnel] = None,
        gre_end: Optional[GreTunnel] = None,
    ) -> Interface:
        """Add an interface to a device."""
        intf = Interface(
            id=port,
            device=device,
            acl_in=acl_in,
            acl_out=acl_out,
            gre_start=gre_start,
            gre_end=gre_end,
        )
        device.interfaces.append(intf)
        return intf

    def link(self, a: Interface, b: Interface) -> None:
        """Connect two interfaces with a bidirectional link."""
        if a.neighbor is not None or b.neighbor is not None:
            raise ZenTypeError("interface already linked")
        a.neighbor = b
        b.neighbor = a

    def device(self, name: str) -> Device:
        """Look up a device by name."""
        return self._devices[name]

    def interfaces(self) -> List[Interface]:
        """All interfaces across all devices."""
        return [
            intf
            for device in self._devices.values()
            for intf in device.interfaces
        ]


@dataclass(frozen=True)
class Hop:
    """One step of a simulated packet trace."""

    interface_in: str
    interface_out: Optional[str]
    packet: Packet


@dataclass(frozen=True)
class Trace:
    """The result of simulating a packet through the network."""

    hops: Tuple[Hop, ...]
    outcome: str  # "dropped_in", "dropped_out", "no_route", "exited" or "loop"
    final_packet: Optional[Packet]

    def delivered_at(self, interface: str) -> Optional[Packet]:
        """The packet that left the network at `interface` (a name such
        as ``u3:2``), or None when the trace ended any other way."""
        if self.outcome == "exited" and self.hops[-1].interface_out == interface:
            return self.final_packet
        return None


#: A thread holds at most this many hop pieces, least recently used
#: dropped first: 0.9 MB of fat-tree FIBs and inbound ACLs, their
#: configuration included (see DESIGN, *Held fabrics*).
MAX_HELD_PIECES = 256


class _Pieces(threading.local):
    """This thread's hop pieces, keyed by the frozen configuration each
    one reads — never by an interface or a device, so the memo pins no
    :class:`Network` and serves every network that shares a table."""

    def __init__(self) -> None:
        self.memo: "OrderedDict[tuple, ZenFunction]" = OrderedDict()


_pieces = _Pieces()


def _fib_port(fib: FwdTable, pkt: Zen) -> Zen:
    return forward(fib, effective_header(pkt))


def _egress(acl: Optional[Acl], tunnel: Optional[GreTunnel], pkt: Zen) -> Zen:
    return egress(acl, tunnel, effective_header(pkt), pkt)


def _piece(model: Callable[..., Zen], *config: Any) -> ZenFunction:
    """`model` over `config` and a packet, built once per thread."""
    memo = _pieces.memo
    key = (model, *config)
    piece = memo.get(key)
    if piece is None:
        piece = memo[key] = ZenFunction(
            lambda p: model(*config, p), [Packet], name=model.__name__.strip("_")
        )
        while len(memo) > MAX_HELD_PIECES:
            memo.popitem(last=False)
    else:
        memo.move_to_end(key)
    return piece


def simulate(
    network: Network,
    entry: Interface,
    packet: Packet,
    max_hops: Optional[int] = None,
) -> Trace:
    """Concretely simulate a packet entering at an interface.

    At each device the packet passes inbound processing at the entry
    interface (:func:`~repro.network.device.ingress`), the device
    picks an output port via its FIB, outbound processing runs at that
    port (:func:`~repro.network.device.egress`), and the packet
    crosses the link; each piece is evaluated once a hop.  The trace
    ends when the packet is dropped (inbound ACL, no route, or
    outbound ACL) or leaves the network via an unlinked interface; it
    reads "loop" when the packet reaches an interface a second time
    with the same packet, or runs past `max_hops` (by default four a
    device, plus eight).
    """
    if max_hops is None:
        max_hops = 4 * len(network._devices) + 8
    hops: List[Hop] = []
    seen = set()
    current = packet
    intf = entry
    for _ in range(max_hops):
        name = intf.name
        if (name, current) in seen:
            break
        seen.add((name, current))
        device = intf.device
        inbound = _piece(ingress, intf.acl_in, intf.gre_end, device.nat)
        after_in = inbound.evaluate(current)
        if after_in is None:
            hops.append(Hop(name, None, current))
            return Trace(tuple(hops), "dropped_in", None)
        current = after_in
        port = _piece(_fib_port, device.fib).evaluate(current)
        if port == NULL_PORT:
            hops.append(Hop(name, None, current))
            return Trace(tuple(hops), "no_route", None)
        try:
            out_intf = device.interface(port)
        except KeyError:
            hops.append(Hop(name, None, current))
            return Trace(tuple(hops), "no_route", None)
        outbound = _piece(_egress, out_intf.acl_out, out_intf.gre_start)
        after_out = outbound.evaluate(current)
        if after_out is None:
            hops.append(Hop(name, out_intf.name, current))
            return Trace(tuple(hops), "dropped_out", None)
        hops.append(Hop(name, out_intf.name, after_out))
        current = after_out
        if out_intf.neighbor is None:
            return Trace(tuple(hops), "exited", current)
        intf = out_intf.neighbor
    return Trace(tuple(hops), "loop", current)
