"""Network address translation: stateless NAT rules as a Zen model.

The paper's introduction lists NAT among the "other types of packet
transformations" verification must cover.  This model implements
prefix-based source/destination NAT with port rewriting — a packet
*transformer* rather than a filter, composing with ACL and forwarding
models through plain function calls (§3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Sequence, Tuple

from ..lang import UInt, UShort, Zen, constant, if_
from .ip import Prefix
from .packet import Header


@dataclass(frozen=True)
class NatRule:
    """Rewrite addresses/ports for packets matching a prefix pair.

    ``translate_src``/``translate_dst`` give the new network address;
    the host bits of the original address are preserved (standard
    prefix-to-prefix NAT).  Optional port rewrites are absolute.
    """

    match_src: Prefix = Prefix(0, 0)
    match_dst: Prefix = Prefix(0, 0)
    translate_src: Optional[Prefix] = None
    translate_dst: Optional[Prefix] = None
    set_src_port: Optional[int] = None
    set_dst_port: Optional[int] = None


@dataclass(frozen=True)
class NatTable:
    """An ordered NAT rule list; first match is applied, others skipped."""

    name: str
    rules: Tuple[NatRule, ...]

    @classmethod
    def of(cls, name: str, rules: Sequence[NatRule]) -> "NatTable":
        return cls(name=name, rules=tuple(rules))


def nat_from_json(rules: Sequence[Dict[str, Any]], name: str) -> NatTable:
    """A NAT table from the JSON rule list fuzz scenarios and compose
    topologies share: ``{"match_src": [addr, len], "match_dst",
    "translate_src", "translate_dst", "set_src_port", "set_dst_port"}``.
    A missing or null match prefix matches every address; a missing or
    null rewrite leaves its field alone."""

    def prefix(data: Optional[Sequence[int]]) -> Optional[Prefix]:
        return None if data is None else Prefix(*data)

    return NatTable.of(
        name,
        [
            NatRule(
                match_src=Prefix(*rule.get("match_src") or (0, 0)),
                match_dst=Prefix(*rule.get("match_dst") or (0, 0)),
                translate_src=prefix(rule.get("translate_src")),
                translate_dst=prefix(rule.get("translate_dst")),
                set_src_port=rule.get("set_src_port"),
                set_dst_port=rule.get("set_dst_port"),
            )
            for rule in rules
        ],
    )


# --- the Zen model ----------------------------------------------------


def nat_rule_matches(rule: NatRule, h: Zen) -> Zen:
    """Whether a header matches a NAT rule's prefixes."""
    cond = (h.src_ip & rule.match_src.mask) == rule.match_src.address
    return cond & ((h.dst_ip & rule.match_dst.mask) == rule.match_dst.address)


def translate_address(prefix: Prefix, address: Zen) -> Zen:
    """Replace the network bits of `address` with `prefix`'s."""
    host_mask = prefix.mask ^ 0xFFFFFFFF
    return (address & host_mask) | prefix.address


def apply_nat_rule(rule: NatRule, h: Zen) -> Zen:
    """The rewritten header produced by one NAT rule."""
    result = h
    if rule.translate_src is not None:
        result = result.with_field(
            "src_ip", translate_address(rule.translate_src, result.src_ip)
        )
    if rule.translate_dst is not None:
        result = result.with_field(
            "dst_ip", translate_address(rule.translate_dst, result.dst_ip)
        )
    if rule.set_src_port is not None:
        result = result.with_field(
            "src_port", constant(rule.set_src_port, UShort)
        )
    if rule.set_dst_port is not None:
        result = result.with_field(
            "dst_port", constant(rule.set_dst_port, UShort)
        )
    return result


def apply_nat(table: NatTable, h: Zen, i: int = 0) -> Zen:
    """Process a header through the NAT table (first match applies)."""
    if i >= len(table.rules):
        return h  # no translation
    rule = table.rules[i]
    return if_(
        nat_rule_matches(rule, h),
        apply_nat_rule(rule, h),
        apply_nat(table, h, i + 1),
    )
