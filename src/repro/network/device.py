"""Device-level composition: inbound/outbound packet processing.

This is Figure 6 of the paper: composing the ACL, forwarding and
tunneling models is just writing new functions that call the earlier
models.  ``fwd_in`` applies inbound policy (ACL + decapsulation +
the device's NAT rewrite); ``fwd_out`` applies outbound policy
(forwarding decision + ACL + encapsulation).  ``forward_along_path``
chains them along a path (Figure 7).

The header-level hop pieces — :func:`admits`, :func:`rewrite`,
:func:`~repro.network.fib.forward` and :func:`permits` — are stated
once here; the packet models above and the compose subsystem's shard
summaries and witness replay all call them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from ..lang import Zen, constant, if_, none, some
from .acl import Acl, acl_allows
from .fib import FwdTable, forward
from .gre import GreTunnel, decap, encap
from .nat import NatTable, apply_nat
from .packet import Header, Packet


@dataclass
class Device:
    """A forwarding device with a FIB, a set of interfaces and an
    optional NAT table applied to every admitted packet."""

    name: str
    fib: FwdTable
    interfaces: List["Interface"] = field(default_factory=list)
    nat: Optional[NatTable] = None

    def interface(self, port: int) -> "Interface":
        """Look up an interface by port number."""
        for intf in self.interfaces:
            if intf.id == port:
                return intf
        raise KeyError(f"{self.name} has no interface {port}")


@dataclass
class Interface:
    """A device interface with inbound/outbound policy."""

    id: int
    device: Device
    acl_in: Optional[Acl] = None
    acl_out: Optional[Acl] = None
    gre_start: Optional[GreTunnel] = None
    gre_end: Optional[GreTunnel] = None
    neighbor: Optional["Interface"] = None

    @property
    def name(self) -> str:
        """A readable identifier, e.g. ``u1:2``."""
        return f"{self.device.name}:{self.id}"


# --- the Zen models (Figure 6) -----------------------------------------


def effective_header(pkt: Zen) -> Zen:
    """The header devices act on: the underlay one when present."""
    underlay = pkt.underlay_header
    return if_(underlay.has_value(), underlay.value(), pkt.overlay_header)


def admits(intf: Interface, h: Zen) -> Zen:
    """Whether the inbound ACL admits a header (no ACL admits all)."""
    if intf.acl_in is None:
        return constant(True, bool)
    return acl_allows(intf.acl_in, h)


def rewrite(device: Device, h: Zen) -> Zen:
    """The header after the device's NAT table (identity without one)."""
    if device.nat is None:
        return h
    return apply_nat(device.nat, h)


def permits(intf: Interface, h: Zen) -> Zen:
    """Whether the outbound ACL permits a header (no ACL permits all)."""
    if intf.acl_out is None:
        return constant(True, bool)
    return acl_allows(intf.acl_out, h)


def fwd_in(intf: Interface, pkt: Zen) -> Zen:
    """Inbound processing: ACL check, decapsulation, then the device's
    NAT rewrite of the effective header (Fig. 6) — so ``acl_in`` sees
    the arriving header, forwarding and ``acl_out`` the rewritten one."""
    allow = admits(intf, effective_header(pkt))
    decapped = decap(intf.gre_end, pkt)
    if intf.device.nat is not None:
        underlay = decapped.underlay_header
        decapped = if_(
            underlay.has_value(),
            decapped.with_field(
                "underlay_header", some(rewrite(intf.device, underlay.value()))
            ),
            decapped.with_field(
                "overlay_header", rewrite(intf.device, decapped.overlay_header)
            ),
        )
    return if_(allow, some(decapped), none(Packet))


def fwd_out(intf: Interface, pkt: Zen) -> Zen:
    """Outbound processing: forwarding + ACL + encapsulation (Fig. 6)."""
    header = effective_header(pkt)
    port = forward(intf.device.fib, header)
    allow = permits(intf, header)
    encapped = encap(intf.gre_start, pkt)
    pkt_out = if_(allow, some(encapped), none(Packet))
    return if_(port == intf.id, pkt_out, none(Packet))


def forward_along_path(path: Sequence[Interface], pkt: Zen) -> Zen:
    """Forward a packet along alternating in/out interfaces (Fig. 7).

    `path` lists the traversed interfaces in order: the packet enters
    at ``path[0]``, leaves at ``path[1]``, enters at ``path[2]``, ...
    Returns ``Zen<Option<Packet>>`` — None if dropped anywhere.
    """
    x = some(pkt)
    for i in range(0, len(path) - 1, 2):
        intf_in = path[i]
        intf_out = path[i + 1]
        x = if_(x.has_value(), fwd_in(intf_in, x.value()), x)
        x = if_(x.has_value(), fwd_out(intf_out, x.value()), x)
    return x
