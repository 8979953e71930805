"""State sets and state set transformers (§4 "Computing with sets").

This is the paper's novel abstraction: a ``StateSetTransformer<T, R>``
turns any unary Zen function ``T -> R`` into an operator on BDD state
sets, supporting

* ``transform_forward`` — the image of an input set (post-image), and
* ``transform_reverse`` — the pre-image of an output set.

Functional images
-----------------
A transformer keeps the function's output value: ``f`` evaluated once
over the input type's canonical variable block, one BDD per output
bit.  Each bit is a *copy* (exactly one input variable, each input
copied once), a *constant*, or *general*; a packet function copies
nearly all of its bits.  An image then needs no relation
``equal(out, f(in))``:

* it splits on the output type's guard slots (Option flags, list cell
  guards), since a payload is unconstrained where its guard is false:
  ``ite(y_g, image(S & g, payload + rest), image(S & ~g, rest))``;
* forwards, it quantifies the inputs that are not copies, renames the
  copied inputs onto the output block and pins the constants;
* only the general bits take the standard relational product of §6
  (``and_exists``), over a relation of those bits alone;
* a reverse image runs the same steps the other way.

A bounded Shannon split on the top input variable of the general bits
turns conditional copies into plain ones (``o.value()`` is ``has & x``).

Variable layout (the paper's ordering heuristics, §6)
-----------------------------------------------------
1. **Interleaving.**  A relation constrains output bits to equal
   functions of input bits; if the two variable sets are not
   interleaved, even the identity has an exponential-size relation.
   So a relation lives on a *private block* in which each output bit
   sits right after the input it copies most (:func:`_anchor`).  Such
   blocks now exist only for the relation of a transformer's general
   bits, and for the full relation that
   :attr:`StateSetTransformer.relation` derives on first read (for
   :meth:`~StateSetTransformer.compose` and fingerprints); no image of
   an exploration reads that one.

2. **Unique variables + runtime substitution.**  State sets live on
   one *canonical* block per type, and move between blocks at the
   edges of each operation by BDD substitution.  Inputs keep their
   order in a private block, so moving a set there is the cheap
   order-preserving ``rename``; other moves use ``rename`` when they
   keep the order and ``permute`` when not.

This mirrors the C# implementation's strategy described in §6: "it
allocates a new set of unique variables for the second transformer …
and converts between the sets of variables dynamically at runtime
using a BDD substitution operation."
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, NamedTuple, Optional, Tuple

from ..backends import BddBackend, BddModel, SymbolicEvaluator
from ..backends import values as sv
from ..bdd import FALSE, TRUE, Bdd
from ..errors import ZenArityError, ZenTypeError
from ..lang import expr as ex
from ..lang import types as ty
from ..lang import Zen
from ..telemetry.spans import span
from .budget import metered

DEFAULT_MAX_LIST_LENGTH = 4


def bit_width(zen_type: ty.ZenType, max_list_length: int) -> int:
    """Number of backend bits a symbolic value of this type uses."""
    if isinstance(zen_type, ty.BoolType):
        return 1
    if isinstance(zen_type, ty.IntType):
        return zen_type.width
    if isinstance(zen_type, ty.TupleType):
        return sum(bit_width(t, max_list_length) for t in zen_type.elements)
    if isinstance(zen_type, ty.ObjectType):
        return sum(
            bit_width(t, max_list_length) for t in zen_type.fields.values()
        )
    if isinstance(zen_type, ty.OptionType):
        return 1 + bit_width(zen_type.element, max_list_length)
    if isinstance(zen_type, ty.ListType):
        return max_list_length * (
            1 + bit_width(zen_type.element, max_list_length)
        )
    if isinstance(zen_type, ty.MapType):
        return bit_width(zen_type.adapted(), max_list_length)
    raise ZenTypeError(f"cannot size type {zen_type}")


#: Shannon splits a leaf may take before its relational product: enough
#: for ``o.value()`` (``has & x``) to become pure copies after one.
_MAX_SPLITS = 2


class BitKinds(NamedTuple):
    """How a transformer's output bits relate to its input.

    A *copy* is exactly an input variable (each input counts as a copy
    once), a *constant* is 0 or 1, a *guard* is an Option flag or list
    cell guard that depends on the input, and every other bit is
    *general*.
    """

    copies: int
    constants: int
    general: int
    guards: int


def _skip(levels: Iterator[int], count: int) -> None:
    """Advance `levels` past `count` slots."""
    for _ in range(count):
        next(levels)


def _slots(
    manager: Bdd,
    value: sv.SymValue,
    levels: Iterator[int],
    max_list_length: int,
) -> List[tuple]:
    """The output slots of `value`, in its type's allocation order.

    `levels` iterates the output type's canonical block.  A slot is
    ``("bit", level, f)``; ``("care", c)``, a condition on the input; or
    ``("guard", level, cond, present, absent)``: output bit `level`
    holds exactly where input condition `cond` does, the `present`
    slots apply only there and the `absent` slots only elsewhere.  A
    constant guard is a bit, and a false one drops its payload, which
    nothing may read.
    """
    if isinstance(value, sv.SymBool):
        return [("bit", next(levels), value.bit)]
    if isinstance(value, sv.SymInt):
        # fresh allocates the most significant bit first
        return [("bit", next(levels), bit) for bit in reversed(value.bits)]
    if isinstance(value, sv.SymTuple):
        return [
            slot
            for item in value.items
            for slot in _slots(manager, item, levels, max_list_length)
        ]
    if isinstance(value, sv.SymObject):
        fields = [value.fields[name] for name in value.type.fields]
        return [
            slot
            for field in fields
            for slot in _slots(manager, field, levels, max_list_length)
        ]
    if isinstance(value, sv.SymOption):
        level = next(levels)
        if value.has == FALSE:
            _skip(levels, bit_width(value.type.element, max_list_length))
            return [("bit", level, FALSE)]
        payload = _slots(manager, value.val, levels, max_list_length)
        if value.has == TRUE:
            return [("bit", level, TRUE)] + payload
        return [("guard", level, value.has, payload, [])]
    if isinstance(value, sv.SymList):
        # ``cons`` on a full list makes one cell too many; the relation
        # has no output cell for it, so it holds only where it is absent.
        extra = value.cells[max_list_length:]
        fits = manager.and_many(manager.not_(g) for g, _ in extra)
        return [("care", fits)] + _cell_slots(
            manager, value, 0, levels, max_list_length
        )
    if isinstance(value, sv.SymMap):
        return _slots(manager, value.backing, levels, max_list_length)
    raise ZenTypeError(f"cannot size type {value.type}")


def _cell_slots(
    manager: Bdd,
    value: sv.SymList,
    index: int,
    levels: Iterator[int],
    max_list_length: int,
) -> List[tuple]:
    """Slots of list cells `index` onwards; each cell's guard encloses
    the later cells, whose input guards must be false where it is."""
    if index == max_list_length:
        return []
    cells = value.cells
    level = next(levels)
    guard, element = cells[index] if index < len(cells) else (FALSE, None)
    later = manager.and_many(manager.not_(g) for g, _ in cells[index + 1 :])
    absent = [("care", later)] if later != TRUE else []
    if guard == FALSE:
        width = bit_width(value.type.element, max_list_length)
        _skip(levels, (max_list_length - index) * (1 + width) - 1)
        return [("bit", level, FALSE)] + absent
    present = _slots(manager, element, levels, max_list_length) + _cell_slots(
        manager, value, index + 1, levels, max_list_length
    )
    if guard == TRUE:
        return [("bit", level, TRUE)] + present
    return [("guard", level, guard, present, absent)]


def _anchor(manager: Bdd, f: int) -> int:
    """The input variable output bit `f` copies most: the support
    variable ``x`` with the most assignments of the other inputs on
    which ``f`` follows ``x`` (1 with ``x`` set, 0 with it clear).

    A rewritten field (``ite(match, c, x)``) anchors on its source
    ``x``, not on an input of the match, and a sum bit on its own
    operand bit.  Ties go to the later variable.
    """
    best, anchor = -1, -1
    for level in manager.support(f):
        follows = manager.diff(
            manager.restrict(f, {level: True}),
            manager.restrict(f, {level: False}),
        )
        score = manager.sat_count(follows)
        if score >= best:
            best, anchor = score, level
    return anchor


def _plan_layout(
    width: int, anchors: List[int]
) -> Tuple[List[int], List[int]]:
    """The ordering heuristic of §6 ("similar to alias analyses").

    Lays out a private block for `width` inputs and one output per
    entry of `anchors` (an input index, or -1 for none).  Inputs keep
    their order, and each output is placed right after its anchor, so
    a relation stays banded (near-linear) even when the function
    copies fields between structurally distant positions (e.g. tunnel
    encapsulation copying overlay ports into a new underlay header).
    Outputs without an anchor come first.

    Returns (input slots, output slots) within the block.
    """
    outputs_at: Dict[int, List[int]] = {}
    for j, anchor in enumerate(anchors):
        outputs_at.setdefault(anchor, []).append(j)
    in_slots = [0] * width
    out_slots = [0] * len(anchors)
    cursor = 0
    for j in outputs_at.get(-1, []):
        out_slots[j] = cursor
        cursor += 1
    for i in range(width):
        in_slots[i] = cursor
        cursor += 1
        for j in outputs_at.get(i, []):
            out_slots[j] = cursor
            cursor += 1
    return in_slots, out_slots


def _ordered(mapping: Dict[int, int]) -> bool:
    """Whether `mapping` keeps the relative order of the levels it moves."""
    targets = [mapping[level] for level in sorted(mapping)]
    return all(a < b for a, b in zip(targets, targets[1:]))


def _relabel(manager: Bdd, f: int, mapping: Dict[int, int], ordered: bool):
    """Move `f` by `mapping`: the cheap ``rename`` when it keeps the
    order, else ``permute``."""
    if f < 2 or not mapping:
        return f
    if ordered:
        return manager.rename(f, mapping)
    return manager.permute(f, mapping)


class _Guard:
    """Output bit `level` holds exactly where input condition `cond`
    does; `present` covers the outputs there, `absent` elsewhere."""

    __slots__ = ("care", "level", "cond", "present", "absent")

    def __init__(self, level: int, cond: int, present, absent):
        self.care = TRUE
        self.level = level
        self.cond = cond
        self.present = present
        self.absent = absent


class _Split:
    """A Shannon split on input variable `level`."""

    __slots__ = ("care", "level", "high", "low")

    def __init__(self, level: int, high: "_Leaf", low: "_Leaf"):
        self.care = TRUE
        self.level = level
        self.high = high
        self.low = low


class _Product(NamedTuple):
    """A leaf's general bits as a relation on the plan's private block."""

    relation: int
    quantified: List[int]  # private inputs that are not copies
    to_output: Dict[int, int]  # private copy or output -> canonical output
    from_output: Dict[int, int]
    ordered: bool
    outputs: List[int]  # private general outputs


class _Leaf:
    """Guard-free output bits: copies, constants and general bits."""

    __slots__ = (
        "care",
        "copies",
        "reverse",
        "ordered",
        "constants",
        "cube",
        "general",
        "quantified",
        "free",
        "product",
    )

    def __init__(self, plan: "_Plan", bits, decided) -> None:
        copies, constants, general = plan.classify(bits)
        self.care = TRUE
        self.copies = copies  # canonical input -> canonical output
        self.reverse = {out: source for source, out in copies.items()}
        self.ordered = _ordered(copies)
        self.constants = constants
        self.cube: Optional[int] = None  # of the constants, on first use
        self.general = general
        self.quantified = [v for v in plan.in_levels if v not in copies]
        bound = set(decided) | {level for level, _ in bits}
        self.free = [v for v in plan.out_levels if v not in bound]
        self.product: Optional[_Product] = None


class _Plan:
    """The image routine of one output value (see the module docstring).

    The value's slots become a tree of guard splits, input splits and
    leaves; images walk it, and a leaf with general bits builds its
    relation on first use.
    """

    def __init__(
        self,
        manager: Bdd,
        in_levels: List[int],
        out_levels: List[int],
        slots: List[tuple],
    ):
        self.manager = manager
        self.in_levels = in_levels
        self.out_levels = out_levels
        self._inputs = {manager.var(level): level for level in in_levels}
        #: Each output level's bit, or its guard's input condition.
        self._bits: Dict[int, int] = {}
        self.kinds = self._read(slots)
        self.root = self._node(slots, frozenset())
        self._anchors: Dict[int, int] = {}
        #: Canonical -> private inputs, the reverse, and general outputs
        #: -> private: the block all leaf relations share, made with the
        #: first of them.
        self._private: Optional[Tuple[dict, dict, dict]] = None

    # -- building ----------------------------------------------------------

    def classify(self, bits) -> Tuple[Dict[int, int], Dict[int, bool], list]:
        """(copies, constants, general bits) of guard-free output bits."""
        copies: Dict[int, int] = {}
        constants: Dict[int, bool] = {}
        general = []
        for level, f in bits:
            source = self._inputs.get(f)
            if f < 2:
                constants[level] = bool(f)
            elif source is not None and source not in copies:
                copies[source] = level
            else:
                general.append((level, f))
        return copies, constants, general

    def _read(self, slots: List[tuple]) -> BitKinds:
        """Count the kinds of output bits, and note each one's bit."""
        copies = constants = general = guards = 0
        sources = set()
        queue = list(slots)
        for slot in queue:  # grows as guards open
            if slot[0] == "care":
                continue
            f = self._bits[slot[1]] = slot[2]
            if slot[0] == "guard":
                guards += 1
                queue.extend(slot[3])
            elif f < 2:
                constants += 1
            elif f in self._inputs and f not in sources:
                sources.add(f)
                copies += 1
            else:
                general += 1
        return BitKinds(copies, constants, general, guards)

    def _node(self, slots: List[tuple], decided: frozenset):
        manager = self.manager
        care = TRUE
        bits = []
        guards = []
        for slot in slots:
            if slot[0] == "care":
                care = manager.and_(care, slot[1])
            elif slot[0] == "bit":
                bits.append(slot)
            else:
                guards.append(slot)
        if guards:
            _, level, cond, present, absent = guards[0]
            rest = bits + guards[1:]
            decided = decided | {level}
            node = _Guard(
                level,
                cond,
                self._node(rest + present, decided),
                self._node(rest + absent, decided),
            )
        else:
            bits = [(level, f) for _, level, f in bits]
            node = self._leaf(bits, decided, 0)
        node.care = care
        return node

    def _leaf(self, bits, decided: frozenset, depth: int):
        """A leaf, or a Shannon split on the top input of its general
        bits when that leaves fewer general bits on both sides."""
        manager = self.manager
        leaf = _Leaf(self, bits, decided)
        if not leaf.general or depth == _MAX_SPLITS:
            return leaf
        top = min(manager.level_of(f) for _, f in leaf.general)
        moved = {level for level, _ in leaf.general}
        moved.add(leaf.copies.get(top, -1))
        high, low = [
            [
                (level, manager.restrict(f, {top: value}))
                if level in moved
                else (level, f)
                for level, f in bits
            ]
            for value in (True, False)
        ]
        fewer = len(leaf.general)
        if any(len(self.classify(b)[2]) >= fewer for b in (high, low)):
            return leaf
        return _Split(
            top,
            self._leaf(high, decided, depth + 1),
            self._leaf(low, decided, depth + 1),
        )

    def _leaves(self, node):
        if isinstance(node, _Guard):
            yield from self._leaves(node.present)
            yield from self._leaves(node.absent)
        elif isinstance(node, _Split):
            yield from self._leaves(node.high)
            yield from self._leaves(node.low)
        else:
            yield node

    def _allocate(self, bits: List[int]) -> Tuple[List[int], List[int]]:
        """A private block for the inputs and one output per bit of
        `bits`, each placed after its :func:`_anchor`."""
        base = self.in_levels[0]
        for f in bits:
            if f not in self._anchors:
                anchor = _anchor(self.manager, f) if f >= 2 else base - 1
                self._anchors[f] = anchor - base
        anchors = [self._anchors[f] for f in bits]
        in_slots, out_slots = _plan_layout(len(self.in_levels), anchors)
        base = self.manager.num_vars
        self.manager.new_vars(len(in_slots) + len(out_slots))
        return [base + s for s in in_slots], [base + s for s in out_slots]

    def _product(self, leaf: _Leaf) -> _Product:
        """The relation of a leaf's general bits, built on first use.

        All leaves share one private block: the inputs, in their order,
        and each output that is general in some leaf.
        """
        manager = self.manager
        if self._private is None:
            leaves = self._leaves(self.root)
            general = sorted({o for leaf in leaves for o, _ in leaf.general})
            private_in, private_out = self._allocate(
                [self._bits[o] for o in general]
            )
            self._private = (
                dict(zip(self.in_levels, private_in)),
                dict(zip(private_in, self.in_levels)),
                dict(zip(general, private_out)),
            )
        if leaf.product is None:
            to_private, _, out_private = self._private
            outputs = [out_private[o] for o, _ in leaf.general]
            relation = manager.and_many(
                manager.iff(manager.var(p), manager.rename(f, to_private))
                for p, (_, f) in zip(outputs, leaf.general)
            )
            to_output = {to_private[i]: o for i, o in leaf.copies.items()}
            to_output.update(
                (p, o) for p, (o, _) in zip(outputs, leaf.general)
            )
            leaf.product = _Product(
                relation,
                [to_private[v] for v in leaf.quantified],
                to_output,
                {o: p for p, o in to_output.items()},
                _ordered(to_output),
                outputs,
            )
        return leaf.product

    # -- images ------------------------------------------------------------

    def forward(self, states: int, node=None) -> int:
        """The outputs of the inputs in `states` (canonical blocks)."""
        manager = self.manager
        node = self.root if node is None else node
        states = manager.and_(states, node.care)
        if states == FALSE:
            return FALSE
        if isinstance(node, _Guard):
            return manager.ite(
                manager.var(node.level),
                self.forward(manager.and_(states, node.cond), node.present),
                self.forward(manager.diff(states, node.cond), node.absent),
            )
        if isinstance(node, _Split):
            high = manager.restrict(states, {node.level: True})
            low = manager.restrict(states, {node.level: False})
            return manager.or_(
                self.forward(high, node.high), self.forward(low, node.low)
            )
        if node.general:
            product = self._product(node)
            image = manager.and_exists(
                manager.rename(states, self._private[0]),
                product.relation,
                product.quantified,
            )
            image = _relabel(
                manager, image, product.to_output, product.ordered
            )
        elif node.copies:
            image = manager.exists(states, node.quantified)
            image = _relabel(manager, image, node.copies, node.ordered)
        else:
            image = TRUE  # `states` is not empty
        if node.cube is None:
            node.cube = manager.cube(node.constants)
        return manager.and_(image, node.cube)

    def reverse(self, states: int, node=None) -> int:
        """The inputs whose outputs are in `states` (canonical blocks)."""
        manager = self.manager
        node = self.root if node is None else node
        if states == FALSE:
            return FALSE
        if isinstance(node, _Guard):
            high = manager.restrict(states, {node.level: True})
            low = manager.restrict(states, {node.level: False})
            pre = manager.ite(
                node.cond,
                self.reverse(high, node.present),
                self.reverse(low, node.absent),
            )
        elif isinstance(node, _Split):
            pre = manager.ite(
                manager.var(node.level),
                self.reverse(states, node.high),
                self.reverse(states, node.low),
            )
        else:
            if node.free:
                states = manager.exists(states, node.free)
            states = manager.restrict(states, node.constants)
            if node.general:
                product = self._product(node)
                moved = _relabel(
                    manager, states, product.from_output, product.ordered
                )
                pre = manager.and_exists(
                    moved, product.relation, product.outputs
                )
                pre = manager.rename(pre, self._private[1])
            else:
                pre = _relabel(manager, states, node.reverse, node.ordered)
        return manager.and_(pre, node.care)

    def domain(self, node=None) -> int:
        """The inputs that have an output: the cares on their way down
        (``reverse`` of the output universe, without an image)."""
        manager = self.manager
        node = self.root if node is None else node
        if isinstance(node, _Guard):
            inner = manager.ite(
                node.cond, self.domain(node.present), self.domain(node.absent)
            )
        elif isinstance(node, _Split):
            inner = manager.ite(
                manager.var(node.level),
                self.domain(node.high),
                self.domain(node.low),
            )
        else:
            inner = TRUE
        return manager.and_(inner, node.care)

    # -- the relation view -------------------------------------------------

    def relation(self) -> Tuple[int, List[int], List[int]]:
        """``equal(out, f(in))`` over a fresh private block, with the
        block's input and output levels in allocation order."""
        private_in, private_out = self._allocate(
            [self._bits.get(level, FALSE) for level in self.out_levels]
        )
        inputs = dict(zip(self.in_levels, private_in))
        outputs = dict(zip(self.out_levels, private_out))
        relation = self._relate(self.root, inputs, outputs)
        return relation, private_in, private_out

    def _relate(self, node, inputs: dict, outputs: dict) -> int:
        """The relation of `node`'s subtree, on the private levels."""
        manager = self.manager
        if isinstance(node, _Guard):
            cond = manager.rename(node.cond, inputs)
            present = self._relate(node.present, inputs, outputs)
            absent = self._relate(node.absent, inputs, outputs)
            relation = manager.ite(
                manager.var(outputs[node.level]),
                manager.and_(cond, present),
                manager.diff(absent, cond),
            )
        elif isinstance(node, _Split):
            relation = manager.ite(
                manager.var(inputs[node.level]),
                self._relate(node.high, inputs, outputs),
                self._relate(node.low, inputs, outputs),
            )
        else:
            pairs = [
                (manager.var(outputs[out]), manager.var(inputs[source]))
                for source, out in node.copies.items()
            ] + [
                (manager.var(outputs[out]), manager.rename(f, inputs))
                for out, f in node.general
            ]
            constants = {outputs[o]: v for o, v in node.constants.items()}
            relation = manager.and_many(
                [manager.iff(a, b) for a, b in pairs]
                + [manager.cube(constants)]
            )
        if node.care == TRUE:
            return relation
        return manager.and_(relation, manager.rename(node.care, inputs))


class TypeSpace:
    """The canonical variable block for one Zen type (for state sets)."""

    def __init__(
        self,
        zen_type: ty.ZenType,
        value: sv.SymValue,
        levels: List[int],
    ):
        self.zen_type = zen_type
        self.value = value
        self.levels = levels


class TransformerContext:
    """Shared BDD manager, canonical type spaces, and transformer blocks.

    Sets and transformers only compose within one context, and a set
    or transformer keeps its context alive: the context belongs to
    whatever holds its results, and is freed with them.  A caller that
    supplies no context gets a fresh one.

    Sets come from :meth:`empty_set`, :meth:`universe`,
    :meth:`singleton`, and from models: :meth:`from_predicates` turns
    several boolean models of one input into sets with one trace and
    one evaluation; :meth:`from_predicate` is its one-model case for a
    ready :class:`~repro.core.function.ZenFunction`.
    """

    def __init__(self, max_list_length: int = DEFAULT_MAX_LIST_LENGTH):
        self.backend = BddBackend()
        self.max_list_length = max_list_length
        self._spaces: Dict[ty.ZenType, TypeSpace] = {}

    @property
    def manager(self) -> Bdd:
        """The shared BDD manager."""
        return self.backend.manager

    def space(self, zen_type: ty.ZenType) -> TypeSpace:
        """Get or create the canonical variable block for a type."""
        existing = self._spaces.get(zen_type)
        if existing is not None:
            return existing
        # fresh() allocates the next variables in order: one block.
        base = self.manager.num_vars
        value = sv.fresh(self.backend, zen_type, "set", self.max_list_length)
        levels = list(range(base, self.manager.num_vars))
        space = TypeSpace(zen_type, value, levels)
        self._spaces[zen_type] = space
        return space

    # ------------------------------------------------------------------
    # Set constructors
    # ------------------------------------------------------------------

    def empty_set(self, annotation: Any) -> "StateSet":
        """The empty set of a type."""
        zen_type = ty.from_annotation(annotation)
        self.space(zen_type)
        return StateSet(self, zen_type, 0)

    def universe(self, annotation: Any) -> "StateSet":
        """The set of all values of a type."""
        zen_type = ty.from_annotation(annotation)
        self.space(zen_type)
        return StateSet(self, zen_type, 1)

    def singleton(self, annotation: Any, value: Any) -> "StateSet":
        """The set containing exactly one concrete value."""
        zen_type = ty.from_annotation(annotation)
        space = self.space(zen_type)
        encoded = sv.from_constant(self.backend, zen_type, value)
        node = sv.equal(self.backend, space.value, encoded)
        return StateSet(self, zen_type, node)

    def from_predicate(self, function, budget=None) -> "StateSet":
        """The set of inputs on which a boolean ZenFunction is true."""
        from .function import ZenFunction

        if not isinstance(function, ZenFunction):
            raise ZenTypeError("from_predicate expects a ZenFunction")
        if len(function.arg_types) != 1:
            raise ZenArityError("set predicates must be unary")
        # The body ranges over ``Var("arg0")``, the one name
        # from_predicates binds, so it is that method's one-root case.
        (only,) = self.from_predicates(
            lambda _arg: [function.body],
            function.arg_types[0],
            name=function.name,
            budget=budget,
        )
        return only

    def from_predicates(
        self, fn, annotation: Any, name: Optional[str] = None, budget=None
    ) -> List["StateSet"]:
        """The sets on which several boolean models of one input are true.

        ``fn`` takes one Zen value of the annotated type and returns a
        list of Zen bools (the *roots*); the result holds one set per
        root, in order.  ``fn`` is traced once and all roots are
        evaluated in one :class:`SymbolicEvaluator` session, so whatever
        the roots share — a rewritten input, a lookup chain, every
        condition under them — is built once, and each further root
        costs only what is its own.  `budget` bounds the whole build.
        """
        zen_type = ty.from_annotation(annotation)
        space = self.space(zen_type)
        name = name or getattr(fn, "__name__", "<predicates>")
        roots = fn(Zen(ex.Var("arg0", zen_type)))
        if not isinstance(roots, (list, tuple)):
            raise ZenTypeError(
                f"{name} must return a list of Zen bools, got {roots!r}"
            )
        for index, root in enumerate(roots):
            if not isinstance(root, Zen) or not isinstance(
                root.type, ty.BoolType
            ):
                raise ZenTypeError(
                    f"set predicates must return bool; root {index} of "
                    f"{name} is {root!r}"
                )
        with span(
            "stateset.from_predicate", function=name, roots=len(roots)
        ), metered(self.manager, budget):
            evaluator = SymbolicEvaluator(
                self.backend, max_list_length=self.max_list_length
            )
            evaluator.bind("arg0", space.value)
            bits = [evaluator.evaluate(root.expr).bit for root in roots]
        return [StateSet(self, zen_type, bit) for bit in bits]


class StateSet:
    """A set of Zen values of one type, represented as a BDD.

    The BDD ranges over the type's canonical variable block, so sets
    from different transformers combine freely.
    """

    def __init__(
        self, context: TransformerContext, zen_type: ty.ZenType, node: int
    ):
        self.context = context
        self.zen_type = zen_type
        self.node = node

    # -- algebra ---------------------------------------------------------

    def _check_same(self, other: "StateSet") -> None:
        if other.context is not self.context:
            raise ZenTypeError("state sets belong to different contexts")
        if other.zen_type != self.zen_type:
            raise ZenTypeError(
                f"state sets have different types: {self.zen_type} vs "
                f"{other.zen_type}"
            )

    def union(self, other: "StateSet") -> "StateSet":
        """Set union."""
        self._check_same(other)
        manager = self.context.manager
        return StateSet(
            self.context, self.zen_type, manager.or_(self.node, other.node)
        )

    def intersect(self, other: "StateSet") -> "StateSet":
        """Set intersection."""
        self._check_same(other)
        manager = self.context.manager
        return StateSet(
            self.context, self.zen_type, manager.and_(self.node, other.node)
        )

    def difference(self, other: "StateSet") -> "StateSet":
        """Set difference."""
        self._check_same(other)
        manager = self.context.manager
        return StateSet(
            self.context, self.zen_type, manager.diff(self.node, other.node)
        )

    def complement(self) -> "StateSet":
        """Complement within the type's universe."""
        manager = self.context.manager
        return StateSet(self.context, self.zen_type, manager.not_(self.node))

    __or__ = union
    __and__ = intersect
    __sub__ = difference

    # -- queries -----------------------------------------------------------

    def is_empty(self) -> bool:
        """Whether the set is empty."""
        return self.node == 0

    def is_universe(self) -> bool:
        """Whether the set contains every value of the type."""
        return self.node == 1

    def equals(self, other: "StateSet") -> bool:
        """Semantic set equality (canonical BDDs make this O(1))."""
        self._check_same(other)
        return self.node == other.node

    def contains(self, value: Any) -> bool:
        """Membership test for a concrete value."""
        space = self.context.space(self.zen_type)
        encoded = sv.from_constant(self.context.backend, self.zen_type, value)
        point = sv.equal(self.context.backend, space.value, encoded)
        return self.context.manager.and_(point, self.node) != 0

    def element(self) -> Optional[Any]:
        """Some element of the set, or None when empty."""
        manager = self.context.manager
        assignment = manager.any_sat(self.node)
        if assignment is None:
            return None
        space = self.context.space(self.zen_type)
        model = BddModel(manager, assignment)
        return sv.decode(model, space.value)

    def count(self) -> int:
        """Number of distinct variable assignments in the set.

        Counted over the type's canonical block.  Note that list and
        option padding bits mean several assignments can denote the
        same abstract value.
        """
        space = self.context.space(self.zen_type)
        manager = self.context.manager
        level_set = set(space.levels)
        foreign = [
            v for v in manager.support(self.node) if v not in level_set
        ]
        if foreign:
            raise ZenTypeError("state set depends on foreign variables")
        full = manager.sat_count(self.node)
        return full >> (manager.num_vars - len(space.levels))


def _evaluate(
    context: TransformerContext, value: sv.SymValue, expr: ex.Expr
) -> sv.SymValue:
    """`expr`, a function body over ``arg0``, evaluated on `value`."""
    evaluator = SymbolicEvaluator(
        context.backend, max_list_length=context.max_list_length
    )
    evaluator.bind("arg0", value)
    return evaluator.evaluate(expr)


def _plan_of(
    context: TransformerContext,
    input_type: ty.ZenType,
    value: sv.SymValue,
    domain: int,
) -> _Plan:
    """The image routine of output `value`, for inputs in `domain`."""
    manager = context.manager
    out_levels = context.space(value.type).levels
    slots = [("care", domain)] + _slots(
        manager, value, iter(out_levels), context.max_list_length
    )
    in_levels = context.space(input_type).levels
    return _Plan(manager, in_levels, out_levels, slots)


class StateSetTransformer:
    """A unary Zen function as an operator on state sets
    (``f.Transformer()``).

    Keeps the function's output value over the input type's canonical
    block, and computes images from it; see the module docstring.
    """

    def __init__(
        self,
        context: TransformerContext,
        input_type: ty.ZenType,
        output_type: ty.ZenType,
        stages: Tuple[ex.Expr, ...],
        output: sv.SymValue,
        plan: _Plan,
        relation: Optional[Tuple[int, List[int], List[int]]] = None,
    ):
        self.context = context
        self.input_type = input_type
        self.output_type = output_type
        self._stages = stages  # the function bodies, applied in order
        self._output = output
        self._plan = plan
        self._relation = relation

    @classmethod
    def build(
        cls,
        function,
        context: Optional[TransformerContext] = None,
        budget=None,
    ):
        """Compile a unary ZenFunction into a transformer.

        Without a `context` the transformer gets a fresh one of its
        own; sets to transform come from ``transformer.context``.
        `budget` bounds the BDD work of evaluating the function (the
        expensive step for adversarial models); exhaustion raises
        :class:`~repro.errors.ZenBudgetExceeded` and leaves the
        context's manager consistent (kernels publish only completed
        results).
        """
        from .function import ZenFunction

        if not isinstance(function, ZenFunction):
            raise ZenTypeError("transformer expects a ZenFunction")
        if len(function.arg_types) != 1:
            raise ZenArityError(
                "transformers require unary functions; tuple the arguments"
            )
        if context is None:
            context = TransformerContext()
        input_type = function.arg_types[0]
        output_type = function.return_type
        manager = context.manager
        expr = function.body.expr
        with span(
            "transformer.build", counters=manager, function=function.name
        ), metered(manager, budget):
            output = _evaluate(context, context.space(input_type).value, expr)
            plan = _plan_of(context, input_type, output, TRUE)
            return cls(
                context, input_type, output_type, (expr,), output, plan
            )

    # ------------------------------------------------------------------

    def bit_kinds(self) -> BitKinds:
        """How many output bits are copies, constants, general, guards."""
        return self._plan.kinds

    def _view(self) -> Tuple[int, List[int], List[int]]:
        if self._relation is None:
            self._relation = self._plan.relation()
        return self._relation

    @property
    def relation(self) -> int:
        """The relation ``equal(out, f(in))``, built on first read.

        It lives on a private interleaved block (:attr:`in_levels`,
        :attr:`out_levels`) and serves :meth:`compose` and fingerprints;
        no image reads it.
        """
        return self._view()[0]

    @property
    def in_levels(self) -> List[int]:
        """The relation's input levels, in allocation order."""
        return self._view()[1]

    @property
    def out_levels(self) -> List[int]:
        """The relation's output levels, in allocation order."""
        return self._view()[2]

    def _check_context(self, states: StateSet) -> None:
        if states.context is not self.context:
            raise ZenTypeError(
                "state set and transformer belong to different contexts"
            )

    def transform_forward(self, input_set: StateSet, budget=None) -> StateSet:
        """Post-image: the set of outputs for the given inputs."""
        self._check_context(input_set)
        if input_set.zen_type != self.input_type:
            raise ZenTypeError(
                f"transformer consumes {self.input_type}, got "
                f"{input_set.zen_type}"
            )
        manager = self.context.manager
        with span("transformer.forward", counters=manager), metered(
            manager, budget
        ):
            result = self._plan.forward(input_set.node)
        return StateSet(self.context, self.output_type, result)

    def transform_reverse(self, output_set: StateSet, budget=None) -> StateSet:
        """Pre-image: the set of inputs mapping into the output set."""
        self._check_context(output_set)
        if output_set.zen_type != self.output_type:
            raise ZenTypeError(
                f"transformer produces {self.output_type}, got "
                f"{output_set.zen_type}"
            )
        manager = self.context.manager
        with span("transformer.reverse", counters=manager), metered(
            manager, budget
        ):
            result = self._plan.reverse(output_set.node)
        return StateSet(self.context, self.input_type, result)

    def compose(
        self, other: "StateSetTransformer", budget=None
    ) -> "StateSetTransformer":
        """Composition: first self, then `other`.

        The result's output value is `other` evaluated on self's, and
        its relation the relational product of the two relations.
        """
        if other.context is not self.context:
            raise ZenTypeError("transformers belong to different contexts")
        if other.input_type != self.output_type:
            raise ZenTypeError(
                f"cannot compose {self.output_type} -> into "
                f"{other.input_type}"
            )
        manager = self.context.manager
        with span("transformer.compose", counters=manager), metered(
            manager, budget
        ):
            left, left_in, left_out = self._view()
            right, right_in, right_out = other._view()
            # Move the middle value onto a fresh auxiliary block so the
            # composition is correct even when self and other share
            # variables (e.g. composing a transformer with itself).
            base = manager.num_vars
            manager.new_vars(len(left_out))
            aux_levels = list(range(base, base + len(left_out)))
            composed = manager.and_exists(
                manager.permute(left, dict(zip(left_out, aux_levels))),
                manager.permute(right, dict(zip(right_in, aux_levels))),
                aux_levels,
            )
            # `other`'s bodies on self's output, one at a time; each
            # stage keeps to the inputs the ones before it can image.
            output, plan = self._output, self._plan
            for expr in other._stages:
                domain = plan.domain()
                output = _evaluate(self.context, output, expr)
                plan = _plan_of(self.context, self.input_type, output, domain)
            return StateSetTransformer(
                self.context,
                self.input_type,
                other.output_type,
                self._stages + other._stages,
                output,
                plan,
                relation=(composed, left_in, right_out),
            )
