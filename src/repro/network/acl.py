"""Access control lists: the Zen model from Table 2 (~28 lines).

An ACL is a prioritized rule list; the model walks the rules through
host-language recursion exactly like the paper's ``Forward`` function
(first match wins, implicit deny at the end).  ``acl_match_line``
additionally reports *which* line matched — the line tracking used by
the Figure 10 benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from ..lang import USHORT, Zen, constant, if_
from .ip import Prefix

PERMIT = True
DENY = False


@dataclass(frozen=True)
class AclRule:
    """One ACL line: match on the five-tuple, permit or deny."""

    action: bool
    src: Prefix = Prefix(0, 0)
    dst: Prefix = Prefix(0, 0)
    src_ports: Optional[Tuple[int, int]] = None
    dst_ports: Optional[Tuple[int, int]] = None
    protocol: Optional[int] = None


@dataclass(frozen=True)
class Acl:
    """A named, prioritized list of ACL rules."""

    name: str
    rules: Tuple[AclRule, ...]

    @classmethod
    def of(cls, name: str, rules: Sequence[AclRule]) -> "Acl":
        return cls(name=name, rules=tuple(rules))


# --- the Zen model ----------------------------------------------------


def rule_matches(rule: AclRule, h: Zen) -> Zen:
    """Whether a header matches one ACL rule (Zen<bool>)."""
    cond = (h.src_ip & rule.src.mask) == rule.src.address
    cond = cond & ((h.dst_ip & rule.dst.mask) == rule.dst.address)
    if rule.src_ports is not None:
        lo, hi = rule.src_ports
        cond = cond & (h.src_port >= lo) & (h.src_port <= hi)
    if rule.dst_ports is not None:
        lo, hi = rule.dst_ports
        cond = cond & (h.dst_port >= lo) & (h.dst_port <= hi)
    if rule.protocol is not None:
        cond = cond & (h.protocol == rule.protocol)
    return cond


def acl_allows(acl: Acl, h: Zen, i: int = 0) -> Zen:
    """Whether the ACL permits a header (first match wins)."""
    if i >= len(acl.rules):
        return constant(False, bool)  # implicit deny
    rule = acl.rules[i]
    return if_(
        rule_matches(rule, h),
        constant(rule.action, bool),
        acl_allows(acl, h, i + 1),
    )


def acl_match_line(acl: Acl, h: Zen, i: int = 0) -> Zen:
    """The 1-based line number that matches, 0 if none (line tracking)."""
    if i >= len(acl.rules):
        return constant(0, USHORT)
    return if_(
        rule_matches(acl.rules[i], h),
        constant(i + 1, USHORT),
        acl_match_line(acl, h, i + 1),
    )
