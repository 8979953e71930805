"""Portable header sets over the five-tuple: node tables and cube covers.

A shard worker computes its summary's guards as BDDs over *its own*
manager; the recomposer combines them in the parent over another.
They cross as a **node table** (:meth:`~repro.bdd.Bdd.export_table`,
bound to the header block by :func:`header_table` / :func:`header_sets`):
the BDD itself, exact and linear in its size, one table shared by
every set of a summary.  A **cube cover** is the form a human writes
and reads — the query's ``headers`` and ``target``: a list of cubes,
each mapping header field names to ``[value, mask]`` pairs (bits
where ``mask`` is 1 must equal ``value``); ``None`` denotes the
universe and ``[]`` the empty set.  A flow's pins are one such cube.

A slot is a bit's position in the canonical transformer block for
:class:`~repro.network.packet.Header`: fields in declaration order,
bits most-significant first — so both forms convert to/from any
context's header space without renaming.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

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
# Covers and node tables <-> BDD (any manager, given the header levels)
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


def header_table(
    manager, levels: Sequence[int], nodes: Sequence[int]
) -> Tuple[List[int], List[int]]:
    """One shared node table for header sets, and a reference per set."""
    return manager.export_table(nodes, levels[0], HEADER_BITS)


def header_sets(
    manager, levels: Sequence[int], table: Sequence[int], refs: Sequence[int]
) -> List[int]:
    """The header sets a :func:`header_table` table references."""
    return manager.import_table(table, refs, levels[0], HEADER_BITS)


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
