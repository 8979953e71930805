"""Header sets over the five-tuple: cube covers and the header block.

A shard's summary guards are BDDs over the header block of its compose
context, and the recomposer reads them in that same context.  A **cube
cover** is the form a human writes and reads — the query's
``headers`` and ``target``: a list of cubes, each mapping header field
names to ``[value, mask]`` pairs (bits where ``mask`` is 1 must equal
``value``); ``None`` denotes the universe and ``[]`` the empty set.  A
flow's pins are one such cube.

A slot is a bit's position in the canonical transformer block for
:class:`~repro.network.packet.Header`: fields in declaration order,
bits most-significant first — so a cover converts to and from any
context's header space without renaming, and
:meth:`~repro.bdd.Bdd.export_table` over ``HEADER_BITS`` slots from the
block's first level renders header sets canonically.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

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
                or not all(
                    isinstance(v, int) and not isinstance(v, bool) for v in pair
                )
            ):
                raise ValueError(f"{where}[{i}].{field} must be [value, mask]")
            limit = 1 << width
            if not (0 <= pair[0] < limit and 0 <= pair[1] < limit):
                raise ValueError(f"{where}[{i}].{field} out of range")
    return cover


# ----------------------------------------------------------------------
# Covers <-> BDD (any manager, given the header levels)
# ----------------------------------------------------------------------


def cube_literals(cube: Cube, levels: Sequence[int]) -> Dict[int, bool]:
    """The cube as literals (level -> polarity) over a header block."""
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
        manager.cube(cube_literals(cube, levels)) for cube in cover
    )


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
# Membership
# ----------------------------------------------------------------------


def in_cover(cover: Cover, header: Any) -> bool:
    """Whether one concrete header (fields as attributes) is in `cover`."""
    if cover is None:
        return True
    return any(
        all(
            getattr(header, name) & mask == value & mask
            for name, (value, mask) in cube.items()
        )
        for cube in cover
    )


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
