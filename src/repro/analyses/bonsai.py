"""Bonsai-style network compression via behavioral equivalence.

Bonsai (SIGCOMM'18) shrinks a network before verification by merging
devices with equivalent behavior.  Equivalence here is decided in two
stages, both through the public Zen API:

1. **Cheap invariants** from the BDD backend: the relation's
   model count and node count within its own variable block.  Equal
   functions always agree on these, so distinct invariants separate
   classes immediately.
2. **Exact confirmation** with the SAT backend: candidates that share
   invariants are checked pairwise by asking ``find`` for a packet on
   which the two functions differ — UNSAT means semantically equal
   (up to the bounded packet space).

The two-stage design avoids converting relations between transformer
variable layouts (a BDD reordering, which can be exponential when the
layouts differ — e.g. an encapsulating interface vs. a plain one).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from ..core import TransformerContext, ZenFunction
from ..network.device import Device, Interface, fwd_in, fwd_out
from ..network.packet import Packet
from ..network.topology import Network


def _relation_invariant(transformer) -> Tuple[int, int]:
    """(model count, node count) of a relation in its own block."""
    manager = transformer.context.manager
    block = len(transformer.in_levels) + len(transformer.out_levels)
    count = manager.sat_count(transformer.relation) >> (
        manager.num_vars - block
    )
    return (count, manager.node_count(transformer.relation))


def interface_invariant(
    intf: Interface, context: Optional[TransformerContext] = None
) -> Tuple[Tuple[int, int], Tuple[int, int]]:
    """Cheap behavioral fingerprint of an interface (in, out)."""
    if context is None:
        context = TransformerContext()
    in_fn = ZenFunction(
        lambda p: fwd_in(intf, p), [Packet], name=f"sig-in:{intf.name}"
    )
    out_fn = ZenFunction(
        lambda p: fwd_out(intf, p), [Packet], name=f"sig-out:{intf.name}"
    )
    return (
        _relation_invariant(in_fn.transformer(context)),
        _relation_invariant(out_fn.transformer(context)),
    )


def interfaces_equivalent(a: Interface, b: Interface) -> bool:
    """Exact semantic equivalence of two interfaces' processing."""
    in_diff = ZenFunction(
        lambda p: fwd_in(a, p) != fwd_in(b, p), [Packet], name="diff-in"
    )
    if in_diff.find(backend="sat") is not None:
        return False
    out_diff = ZenFunction(
        lambda p: fwd_out(a, p) != fwd_out(b, p), [Packet], name="diff-out"
    )
    return out_diff.find(backend="sat") is None


def _partition(items: List, invariant: Callable, equivalent: Callable):
    """Group items: bucket by invariant, confirm pairwise exactly."""
    buckets: Dict[object, List] = {}
    for item in items:
        buckets.setdefault(invariant(item), []).append(item)
    classes: List[List] = []
    for bucket in buckets.values():
        representatives: List[List] = []
        for item in bucket:
            for group in representatives:
                if equivalent(group[0], item):
                    group.append(item)
                    break
            else:
                representatives.append([item])
        classes.extend(representatives)
    return classes


def compress_interfaces(
    network: Network, context: Optional[TransformerContext] = None
) -> List[List[Interface]]:
    """Group all interfaces into behavioral equivalence classes."""
    if context is None:
        context = TransformerContext()
    return _partition(
        network.interfaces(),
        lambda i: interface_invariant(i, context),
        interfaces_equivalent,
    )


def device_invariant(
    device: Device, context: Optional[TransformerContext] = None
) -> Tuple:
    """Order-independent fingerprint of a device's interfaces."""
    if context is None:
        context = TransformerContext()
    return tuple(
        sorted(interface_invariant(i, context) for i in device.interfaces)
    )


def devices_equivalent(a: Device, b: Device) -> bool:
    """Exact equivalence: same interface multiset up to behavior."""
    if len(a.interfaces) != len(b.interfaces):
        return False
    remaining = list(b.interfaces)
    for intf in a.interfaces:
        for candidate in remaining:
            if interfaces_equivalent(intf, candidate):
                remaining.remove(candidate)
                break
        else:
            return False
    return True


def compress_devices(
    network: Network, context: Optional[TransformerContext] = None
) -> List[List[Device]]:
    """Group devices into behavioral equivalence classes."""
    if context is None:
        context = TransformerContext()
    return _partition(
        list(network.devices.values()),
        lambda d: device_invariant(d, context),
        devices_equivalent,
    )


def compression_ratio(
    network: Network, context: Optional[TransformerContext] = None
) -> float:
    """Devices in the quotient network / devices in the original."""
    devices = list(network.devices.values())
    if not devices:
        return 1.0
    classes = compress_devices(network, context)
    return len(classes) / len(devices)

