"""Portable header-set summaries: cube covers over the five-tuple.

A shard worker computes interface images as BDDs over *its own*
manager; the recomposer combines them in the parent process over a
different manager.  The picklable interchange format is a **cube
cover**: a list of ternary cubes, each a dict mapping header field
names to ``[value, mask]`` pairs (bits where ``mask`` is 1 must equal
``value``).  ``None`` denotes the universe and ``[]`` the empty set.

Pass sets produced by prefix-based forwarding, ACLs, and prefix NAT
are unions of such cubes, so covers stay small in practice;
:func:`node_cover` enumerates the BDD's 1-paths under an explicit
bound and reports overflow (``None``) instead of silently truncating —
a truncated cover would be an under-approximation and unsound for
unreachability verdicts.

The slot layout mirrors the canonical transformer block for
:class:`~repro.network.packet.Header`: fields in declaration order,
bits most-significant first — so a cover converts to/from any
context's header space without renaming.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Sequence

from ..lang import Zen, constant

#: Header fields in canonical (declaration) order with bit widths.
FIELDS = (
    ("dst_ip", 32),
    ("src_ip", 32),
    ("dst_port", 16),
    ("src_port", 16),
    ("protocol", 8),
)

HEADER_BITS = sum(width for _, width in FIELDS)

_OFFSETS = {}
_cursor = 0
for _name, _width in FIELDS:
    _OFFSETS[_name] = _cursor
    _cursor += _width

Cube = Dict[str, List[int]]
Cover = Optional[List[Cube]]


def _field_width(field: str) -> int:
    for name, width in FIELDS:
        if name == field:
            return width
    raise ValueError(f"unknown header field {field!r}")


def validate_cover(cover: Any, where: str = "cover") -> Cover:
    """Shape-check a cover; returns it for chaining."""
    if cover is None:
        return None
    if not isinstance(cover, list):
        raise ValueError(f"{where} must be None or a list of cubes")
    for i, cube in enumerate(cover):
        if not isinstance(cube, dict):
            raise ValueError(f"{where}[{i}] must be a dict")
        for field, pair in cube.items():
            width = _field_width(field)
            if (
                not isinstance(pair, (list, tuple))
                or len(pair) != 2
                or not all(isinstance(v, int) for v in pair)
            ):
                raise ValueError(f"{where}[{i}].{field} must be [value, mask]")
            limit = 1 << width
            if not (0 <= pair[0] < limit and 0 <= pair[1] < limit):
                raise ValueError(f"{where}[{i}].{field} out of range")
    return cover


# ----------------------------------------------------------------------
# Cover <-> BDD (any manager, given the header block's levels)
# ----------------------------------------------------------------------


def _cube_literals(cube: Cube, levels: Sequence[int]) -> Dict[int, bool]:
    literals: Dict[int, bool] = {}
    for field, (value, mask) in cube.items():
        width = _field_width(field)
        offset = _OFFSETS[field]
        for slot in range(width):
            bit = width - 1 - slot  # slots run MSB-first
            if mask & (1 << bit):
                literals[levels[offset + slot]] = bool(value & (1 << bit))
    return literals


def cover_node(manager, levels: Sequence[int], cover: Cover) -> int:
    """Build the cover's BDD over a header block's variable levels."""
    if cover is None:
        return 1
    return manager.or_many(
        manager.cube(_cube_literals(cube, levels)) for cube in cover
    )


def node_cover(
    manager, levels: Sequence[int], node: int, max_cubes: int = 4096
) -> Cover:
    """Enumerate a header-set BDD as a cube cover.

    Walks the 1-paths of `node`; returns ``None`` on overflow (more
    than `max_cubes` paths) — the caller must then treat the summary
    as unknown rather than use a partial cover.
    """
    if node == 0:
        return []
    slot_of = {level: slot for slot, level in enumerate(levels)}
    cubes: List[Cube] = []
    stack: List[tuple] = [(node, ())]
    while stack:
        current, literals = stack.pop()
        if current == 0:
            continue
        if current == 1:
            if len(cubes) >= max_cubes:
                return None
            cube: Cube = {}
            for level, value in literals:
                slot = slot_of.get(level)
                if slot is None:
                    raise ValueError(
                        f"set depends on level {level} outside the header block"
                    )
                for field, width in FIELDS:
                    offset = _OFFSETS[field]
                    if offset <= slot < offset + width:
                        bit = width - 1 - (slot - offset)
                        pair = cube.setdefault(field, [0, 0])
                        pair[1] |= 1 << bit
                        if value:
                            pair[0] |= 1 << bit
                        break
            cubes.append(cube)
            continue
        level = manager.level_of(current)
        stack.append((manager.low(current), literals + ((level, False),)))
        stack.append((manager.high(current), literals + ((level, True),)))
    return cubes


def assignment_header(
    assignment: Dict[int, bool], levels: Sequence[int]
) -> Dict[str, int]:
    """Decode a satisfying assignment into a concrete header dict.

    Unconstrained bits default to 0.
    """
    header = {name: 0 for name, _ in FIELDS}
    slot_of = {level: slot for slot, level in enumerate(levels)}
    for level, value in assignment.items():
        slot = slot_of.get(level)
        if slot is None or not value:
            continue
        for field, width in FIELDS:
            offset = _OFFSETS[field]
            if offset <= slot < offset + width:
                header[field] |= 1 << (width - 1 - (slot - offset))
                break
    return header


# ----------------------------------------------------------------------
# Symbolic membership
# ----------------------------------------------------------------------


def cover_predicate(h: Zen, cover: Cover) -> Zen:
    """The cover as a Zen boolean over a symbolic header."""
    if cover is None:
        return constant(True, bool)
    result = constant(False, bool)
    for cube in cover:
        cond = constant(True, bool)
        for field, (value, mask) in cube.items():
            cond = cond & ((getattr(h, field) & mask) == (value & mask))
        result = result | cond
    return result
