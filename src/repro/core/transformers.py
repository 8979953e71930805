"""State sets and state set transformers (§4 "Computing with sets").

This is the paper's novel abstraction: a ``StateSetTransformer<T, R>``
turns any unary Zen function ``T -> R`` into a relation on BDDs,
supporting

* ``transform_forward`` — the image of an input set (post-image), and
* ``transform_reverse`` — the pre-image of an output set,

both implemented with standard existential quantification (§6).

Variable layout (the paper's ordering heuristics, §6)
-----------------------------------------------------
Two rules govern BDD variable allocation:

1. **Interleaving.**  A transformer's relation constrains output bits
   to equal functions of input bits; if the two variable sets are not
   interleaved, even the identity function has an exponential-size
   relation.  Therefore *every transformer allocates its own block* of
   variables in which input bit ``i`` and output bit ``i`` sit at
   adjacent levels.

2. **Unique variables + runtime substitution.**  Because each
   transformer has private variables, state sets need a home of their
   own: every type gets one *canonical* variable block, and sets are
   converted between canonical and per-transformer variables at the
   edges of each operation with BDD substitution.  All conversions map
   an ascending level sequence to another ascending level sequence, so
   they use the cheap order-preserving ``rename``; only transformer
   *composition* needs the general ``permute``.

This mirrors the C# implementation's strategy described in §6: "it
allocates a new set of unique variables for the second transformer …
and converts between the sets of variables dynamically at runtime
using a BDD substitution operation."
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from ..backends import BddBackend, BddModel, SatBackend, SymbolicEvaluator
from ..backends import values as sv
from ..bdd import Bdd
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


class _SequenceBackend:
    """A BddBackend whose fresh() hands out pre-planned variables.

    Used to build symbolic values over an explicit level sequence so
    that structurally identical traversals see corresponding bits.
    """

    def __init__(self, inner: BddBackend, levels: List[int]):
        self._inner = inner
        self._levels = levels
        self._next = 0

    def fresh(self, name: str):
        level = self._levels[self._next]
        self._next += 1
        return self._inner.manager.var(level)

    def __getattr__(self, attr):
        return getattr(self._inner, attr)


def _aligned_probe_bits(
    zen_type: ty.ZenType, value: Optional[sv.SymValue], max_list_length: int
) -> List:
    """Probe-value bits aligned to the canonical allocation slots.

    Walks the *type* structure (the shape ``fresh`` allocates) and the
    probe value in lockstep; slots the probe value does not populate
    (padded list cells) yield ``None``.  The result has exactly
    ``bit_width(zen_type, max_list_length)`` entries.
    """
    bits: List = []
    _walk_probe_bits(bits, zen_type, value, max_list_length)
    return bits


def _walk_probe_bits(
    bits: List,
    t: ty.ZenType,
    v: Optional[sv.SymValue],
    max_list_length: int,
) -> None:
    """Append the bits of `v`, shaped as type `t`, to `bits`."""
    if isinstance(t, ty.BoolType):
        bits.append(v.bit if v is not None else None)
    elif isinstance(t, ty.IntType):
        if v is None:
            bits.extend([None] * t.width)
        else:
            bits.extend(reversed(v.bits))  # fresh allocates MSB first
    elif isinstance(t, ty.TupleType):
        for i, sub in enumerate(t.elements):
            item = v.items[i] if v is not None else None
            _walk_probe_bits(bits, sub, item, max_list_length)
    elif isinstance(t, ty.ObjectType):
        for name, sub in t.fields.items():
            field = v.fields[name] if v is not None else None
            _walk_probe_bits(bits, sub, field, max_list_length)
    elif isinstance(t, ty.OptionType):
        bits.append(v.has if v is not None else None)
        inner = v.val if v is not None else None
        _walk_probe_bits(bits, t.element, inner, max_list_length)
    elif isinstance(t, ty.ListType):
        cells = v.cells if v is not None else []
        for i in range(max_list_length):
            guard, element = cells[i] if i < len(cells) else (None, None)
            bits.append(guard)
            _walk_probe_bits(bits, t.element, element, max_list_length)
    elif isinstance(t, ty.MapType):
        backing = v.backing if v is not None else None
        _walk_probe_bits(bits, t.adapted(), backing, max_list_length)
    else:
        raise ZenTypeError(f"cannot size type {t}")


def _set_bits(mask: int) -> List[int]:
    """Positions of the set bits of a mask, ascending."""
    positions = []
    while mask:
        low = mask & -mask
        positions.append(low.bit_length() - 1)
        mask ^= low
    return positions


def _positional_offset(
    input_type: ty.ZenType, output_type: ty.ZenType
) -> Optional[int]:
    """Slot offset aligning output bits with same-position input bits.

    Defined when the output type is the input type, optionally wrapped
    in (or unwrapped from) an Option — the common shapes of packet
    processing functions.  Output slot j then corresponds to input
    slot ``j - offset``.
    """
    if output_type == input_type:
        return 0
    if (
        isinstance(output_type, ty.OptionType)
        and output_type.element == input_type
    ):
        return 1
    if (
        isinstance(input_type, ty.OptionType)
        and input_type.element == output_type
    ):
        return -1
    return None


def plan_transformer_order(
    function, max_list_length: int
) -> Tuple[List[int], List[int]]:
    """The ordering analysis of §6 ("similar to alias analyses").

    Probes the function once over a throwaway SAT (AIG) backend to
    learn, for every output bit, which input variables it depends on.
    Each output bit is then placed immediately after its *anchor*: the
    most specific input in its support — the one appearing in the
    fewest other outputs.  Inputs feeding shared branch conditions
    appear in nearly every output's support, so they never win the
    anchor choice; the bit an output actually copies does.  This keeps
    relations banded (near-linear) even when the function copies
    fields between structurally distant positions (e.g. tunnel
    encapsulation copying overlay ports into a new underlay header),
    while shared conditions cost only a small constant factor.

    Returns (input slot offsets, output slot offsets) within the
    transformer's variable block, both in allocation order.
    """
    input_type = function.arg_types[0]
    output_type = function.return_type
    probe_engine = SatBackend()
    aig = probe_engine.aig
    in_probe = sv.fresh(probe_engine, input_type, "probe", max_list_length)
    # The AIG's first inputs are exactly these fresh() calls, in
    # allocation order, so bit k of a support mask is input slot k.
    w_in = aig.num_inputs
    evaluator = SymbolicEvaluator(
        probe_engine, max_list_length=max_list_length
    )
    evaluator.bind("arg0", in_probe)
    out_probe = evaluator.evaluate(function.body.expr)
    out_bits = _aligned_probe_bits(output_type, out_probe, max_list_length)

    in_mask = (1 << w_in) - 1
    supports = [
        _set_bits(mask & in_mask)
        for mask in aig.supports(
            [probe_engine.true() if bit is None else bit for bit in out_bits]
        )
    ]
    frequency = [0] * w_in
    for support in supports:
        for index in support:
            frequency[index] += 1

    # Inputs appearing in most outputs feed shared branch conditions;
    # they are poor anchors even when they are also copied data (a
    # bit can be both, e.g. a destination IP that is matched by the
    # FIB *and* copied through).  Anchor on the most specific
    # non-condition input; outputs with none fall back to structural
    # position (the type-driven pairwise interleaving), which pairs
    # pass-through fields correctly.
    populated = sum(1 for s in supports if s)
    threshold = max(2, populated // 2)
    common = {i for i, f in enumerate(frequency) if f >= threshold}
    offset = _positional_offset(input_type, output_type)

    anchors: List[int] = []
    for j, support in enumerate(supports):
        specific = [i for i in support if i not in common]
        if specific:
            anchors.append(max(specific))
        elif (
            support
            and offset is not None
            and 0 <= j - offset < w_in
            and (j - offset) in support
        ):
            anchors.append(j - offset)
        elif support:
            anchors.append(min(support, key=lambda i: (frequency[i], -i)))
        else:
            anchors.append(-1)

    # Lay out slots: condition-only/constant outputs first, then each
    # input followed by the output bits anchored to it.
    outputs_at: Dict[int, List[int]] = {}
    for j, anchor in enumerate(anchors):
        outputs_at.setdefault(anchor, []).append(j)
    in_slots = [0] * w_in
    out_slots = [0] * len(out_bits)
    cursor = 0
    for j in outputs_at.get(-1, []):
        out_slots[j] = cursor
        cursor += 1
    for i in range(w_in):
        in_slots[i] = cursor
        cursor += 1
        for j in outputs_at.get(i, []):
            out_slots[j] = cursor
            cursor += 1
    return in_slots, out_slots


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
        manager = self.manager
        width = bit_width(zen_type, self.max_list_length)
        base = manager.num_vars
        manager.new_vars(width)
        levels = list(range(base, base + width))
        value = sv.fresh(
            _SequenceBackend(self.backend, levels),
            zen_type,
            "set",
            self.max_list_length,
        )
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


class StateSetTransformer:
    """The relational view of a unary Zen function (``f.Transformer()``).

    Owns a private interleaved variable block; see the module
    docstring for the layout rationale.
    """

    def __init__(
        self,
        context: TransformerContext,
        input_type: ty.ZenType,
        output_type: ty.ZenType,
        relation: int,
        in_levels: List[int],
        out_levels: List[int],
    ):
        self.context = context
        self.input_type = input_type
        self.output_type = output_type
        self.relation = relation
        self.in_levels = in_levels
        self.out_levels = out_levels

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
        `budget` bounds the BDD work of building the relation (the
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
        # Canonical spaces exist for both endpoint types (sets live there).
        context.space(input_type)
        context.space(output_type)
        # Ordering analysis: place each output variable right after the
        # input variable it most deeply depends on.
        in_slots, out_slots = plan_transformer_order(
            function, context.max_list_length
        )
        manager = context.manager
        base = manager.num_vars
        manager.new_vars(len(in_slots) + len(out_slots))
        in_levels = [base + s for s in in_slots]
        out_levels = [base + s for s in out_slots]
        with span(
            "transformer.build", counters=manager, function=function.name
        ), metered(manager, budget):
            in_value = sv.fresh(
                _SequenceBackend(context.backend, in_levels),
                input_type,
                "t-in",
                context.max_list_length,
            )
            out_value = sv.fresh(
                _SequenceBackend(context.backend, out_levels),
                output_type,
                "t-out",
                context.max_list_length,
            )
            evaluator = SymbolicEvaluator(
                context.backend, max_list_length=context.max_list_length
            )
            evaluator.bind("arg0", in_value)
            result = evaluator.evaluate(function.body.expr)
            relation = sv.equal(context.backend, out_value, result)
        return cls(
            context, input_type, output_type, relation, in_levels, out_levels
        )

    # ------------------------------------------------------------------

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
        in_space = self.context.space(self.input_type)
        out_space = self.context.space(self.output_type)
        with span("transformer.forward", counters=manager), metered(
            manager, budget
        ):
            # Canonical -> private input variables (runtime substitution).
            shifted = manager.rename(
                input_set.node, dict(zip(in_space.levels, self.in_levels))
            )
            # Relational product: conjoin with the relation, quantify
            # the private input variables away.
            image = manager.and_exists(shifted, self.relation, self.in_levels)
            # Private output variables -> canonical.  Output levels are not
            # ascending in allocation order (the ordering analysis scatters
            # them), so this needs the general permute.
            result = manager.permute(
                image, dict(zip(self.out_levels, out_space.levels))
            )
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
        in_space = self.context.space(self.input_type)
        out_space = self.context.space(self.output_type)
        with span("transformer.reverse", counters=manager), metered(
            manager, budget
        ):
            shifted = manager.permute(
                output_set.node, dict(zip(out_space.levels, self.out_levels))
            )
            pre = manager.and_exists(shifted, self.relation, self.out_levels)
            result = manager.rename(
                pre, dict(zip(self.in_levels, in_space.levels))
            )
        return StateSet(self.context, self.input_type, result)

    def compose(
        self, other: "StateSetTransformer", budget=None
    ) -> "StateSetTransformer":
        """Relational composition: first self, then `other`."""
        if other.context is not self.context:
            raise ZenTypeError("transformers belong to different contexts")
        if other.input_type != self.output_type:
            raise ZenTypeError(
                f"cannot compose {self.output_type} -> into "
                f"{other.input_type}"
            )
        manager = self.context.manager
        # Move the middle value onto a fresh auxiliary block so the
        # composition is correct even when self and other share
        # variables (e.g. composing a transformer with itself).
        base = manager.num_vars
        manager.new_vars(len(self.out_levels))
        aux_levels = list(range(base, base + len(self.out_levels)))
        with span("transformer.compose", counters=manager), metered(
            manager, budget
        ):
            left = manager.permute(
                self.relation, dict(zip(self.out_levels, aux_levels))
            )
            right = manager.permute(
                other.relation, dict(zip(other.in_levels, aux_levels))
            )
            composed = manager.and_exists(left, right, aux_levels)
        return StateSetTransformer(
            self.context,
            self.input_type,
            other.output_type,
            composed,
            self.in_levels,
            other.out_levels,
        )

