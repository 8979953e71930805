"""Device-level composition: inbound/outbound packet processing.

This is Figure 6 of the paper: composing the ACL, forwarding and
tunneling models is just writing new functions that call the earlier
models.  ``fwd_in`` applies inbound policy (ACL + decapsulation +
the device's NAT rewrite); ``fwd_out`` applies outbound policy
(forwarding decision + ACL + encapsulation).  ``forward_along_path``
chains them along a path (Figure 7).

The packet models are stated over the configuration they read —
:func:`ingress` is ``fwd_in``'s body, :func:`egress` ``fwd_out``'s once
the FIB picked the port — so the concrete walker
(:func:`~repro.network.topology.simulate`) memoises each by the frozen
ACL, tunnel and NAT table it reads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from ..lang import Zen, constant, if_, none, some
from .acl import Acl, acl_allows
from .fib import FwdTable, forward
from .gre import GreTunnel, decap, encap
from .nat import NatTable, apply_nat
from .packet import Packet


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


def _allows(acl: Optional[Acl], h: Zen) -> Zen:
    """Whether an ACL permits a header (no ACL permits all)."""
    if acl is None:
        return constant(True, bool)
    return acl_allows(acl, h)


def rewrite(device: Device, h: Zen) -> Zen:
    """The header after the device's NAT table (identity without one)."""
    if device.nat is None:
        return h
    return apply_nat(device.nat, h)


def ingress(
    acl: Optional[Acl], tunnel: Optional[GreTunnel], nat: Optional[NatTable], pkt: Zen
) -> Zen:
    """Inbound processing: the ACL on the arriving effective header,
    decapsulation, then the NAT rewrite of the effective header."""
    allow = _allows(acl, effective_header(pkt))
    decapped = decap(tunnel, pkt)
    if nat is not None:
        underlay = decapped.underlay_header
        decapped = if_(
            underlay.has_value(),
            decapped.with_field(
                "underlay_header", some(apply_nat(nat, underlay.value()))
            ),
            decapped.with_field(
                "overlay_header", apply_nat(nat, decapped.overlay_header)
            ),
        )
    return if_(allow, some(decapped), none(Packet))


def egress(
    acl: Optional[Acl], tunnel: Optional[GreTunnel], header: Zen, pkt: Zen
) -> Zen:
    """Outbound processing at the chosen port: the ACL on `header`
    (the packet's effective header), then encapsulation."""
    allow = _allows(acl, header)
    encapped = encap(tunnel, pkt)
    return if_(allow, some(encapped), none(Packet))


def fwd_in(intf: Interface, pkt: Zen) -> Zen:
    """Inbound processing: ACL check, decapsulation, then the device's
    NAT rewrite of the effective header (Fig. 6) — so ``acl_in`` sees
    the arriving header, forwarding and ``acl_out`` the rewritten one."""
    return ingress(intf.acl_in, intf.gre_end, intf.device.nat, pkt)


def fwd_out(intf: Interface, pkt: Zen) -> Zen:
    """Outbound processing: forwarding + ACL + encapsulation (Fig. 6)."""
    header = effective_header(pkt)
    port = forward(intf.device.fib, header)
    pkt_out = egress(intf.acl_out, intf.gre_start, header, pkt)
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
