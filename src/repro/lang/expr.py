"""Abstract syntax of the Zen expression language (Figure 9).

Expressions are immutable trees.  List ``case`` nodes carry Python
callables for their branches, mirroring the C# embedding where the
branch bodies are host-language lambdas: the recursion through the
host language is what makes bounded symbolic evaluation terminate
(each ``case`` peels one cell off the bounded list).

Expressions are deliberately dumb data; all semantics live in the
evaluators under :mod:`repro.backends`.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, Sequence, Tuple

from ..errors import ZenTypeError
from . import types as ty


class Expr:
    """Base class for expression nodes.

    Every node exposes ``type`` (its ZenType) and ``children``.
    Nodes hash and compare by identity (the defaults, deliberately not
    overridden: evaluators key their memos by node and a Python-level
    ``__hash__`` would run on every lookup), which keeps them usable as
    cache keys even though the Zen wrapper overloads ``==``.
    """

    __slots__ = ("type",)

    def __init__(self, zen_type: ty.ZenType):
        self.type = zen_type

    @property
    def children(self) -> Tuple["Expr", ...]:
        return ()


class Constant(Expr):
    """A literal value of any Zen type."""

    __slots__ = ("value",)

    def __init__(self, value: Any, zen_type: ty.ZenType):
        super().__init__(zen_type)
        self.value = ty.check_value(zen_type, value)

    def __str__(self) -> str:
        return repr(self.value)


class Var(Expr):
    """A symbolic input variable."""

    __slots__ = ("name",)

    def __init__(self, name: str, zen_type: ty.ZenType):
        super().__init__(zen_type)
        self.name = name

    def __str__(self) -> str:
        return self.name


class Lifted(Expr):
    """An evaluator-internal value re-entering the expression tree.

    When an evaluator invokes a host-language branch (list case, map
    fold) it wraps already-evaluated head/tail values in ``Lifted`` so
    the branch can build further expressions over them.  The payload's
    meaning depends on the evaluator that created it, identified by
    ``session`` so stale payloads are detected instead of misread.
    """

    __slots__ = ("payload", "session")

    def __init__(self, payload: Any, zen_type: ty.ZenType, session: object):
        super().__init__(zen_type)
        self.payload = payload
        self.session = session

    def __str__(self) -> str:
        return f"<lifted {self.type}>"


_ARITH_OPS = {"add", "sub", "mul"}
_BITWISE_OPS = {"band", "bor", "bxor"}
_SHIFT_OPS = {"shl", "shr"}
_CMP_OPS = {"eq", "ne", "lt", "le", "gt", "ge"}
_LOGIC_OPS = {"and", "or"}

BINARY_OPS = _ARITH_OPS | _BITWISE_OPS | _SHIFT_OPS | _CMP_OPS | _LOGIC_OPS


class Binary(Expr):
    """A binary operation.

    Arithmetic, bitwise and shift operators take two operands of the
    same integer type and return it; comparisons return bool (equality
    is defined on every type, ordering only on integers); logical
    and/or take booleans.
    """

    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left: Expr, right: Expr):
        if op not in BINARY_OPS:
            raise ZenTypeError(f"unknown binary operator {op!r}")
        lt, rt = left.type, right.type
        if op in _LOGIC_OPS:
            if not isinstance(lt, ty.BoolType) or not isinstance(rt, ty.BoolType):
                raise ZenTypeError(f"{op} requires bool operands")
            result = ty.BOOL
        elif op in _CMP_OPS:
            if lt != rt:
                raise ZenTypeError(f"cannot compare {lt} with {rt}")
            if op not in ("eq", "ne") and not isinstance(lt, ty.IntType):
                raise ZenTypeError(f"ordering {op} requires integer operands")
            result = ty.BOOL
        else:
            if not isinstance(lt, ty.IntType) or lt != rt:
                raise ZenTypeError(
                    f"{op} requires two integers of the same type, "
                    f"got {lt} and {rt}"
                )
            result = lt
        super().__init__(result)
        self.op = op
        self.left = left
        self.right = right

    @property
    def children(self) -> Tuple[Expr, ...]:
        return (self.left, self.right)

    def __str__(self) -> str:
        return f"({self.op} {self.left} {self.right})"


class Unary(Expr):
    """Unary operations: logical not, bitwise complement, negation."""

    __slots__ = ("op", "operand")

    def __init__(self, op: str, operand: Expr):
        if op == "not":
            if not isinstance(operand.type, ty.BoolType):
                raise ZenTypeError("not requires a bool operand")
            result = ty.BOOL
        elif op in ("bnot", "neg"):
            if not isinstance(operand.type, ty.IntType):
                raise ZenTypeError(f"{op} requires an integer operand")
            result = operand.type
        else:
            raise ZenTypeError(f"unknown unary operator {op!r}")
        super().__init__(result)
        self.op = op
        self.operand = operand

    @property
    def children(self) -> Tuple[Expr, ...]:
        return (self.operand,)

    def __str__(self) -> str:
        return f"({self.op} {self.operand})"


class If(Expr):
    """Conditional expression; both branches must share one type."""

    __slots__ = ("cond", "then", "orelse")

    def __init__(self, cond: Expr, then: Expr, orelse: Expr):
        if not isinstance(cond.type, ty.BoolType):
            raise ZenTypeError("if condition must be bool")
        if then.type != orelse.type:
            raise ZenTypeError(
                f"if branches disagree: {then.type} vs {orelse.type}"
            )
        super().__init__(then.type)
        self.cond = cond
        self.then = then
        self.orelse = orelse

    @property
    def children(self) -> Tuple[Expr, ...]:
        return (self.cond, self.then, self.orelse)

    def __str__(self) -> str:
        return f"(if {self.cond} {self.then} {self.orelse})"


class Create(Expr):
    """Object construction: ``create[τ](e, ..., e)``."""

    __slots__ = ("fields",)

    def __init__(self, obj_type: ty.ObjectType, fields: Dict[str, Expr]):
        if set(fields) != set(obj_type.fields):
            missing = set(obj_type.fields) - set(fields)
            extra = set(fields) - set(obj_type.fields)
            raise ZenTypeError(
                f"create[{obj_type}] field mismatch: missing {sorted(missing)}, "
                f"unexpected {sorted(extra)}"
            )
        for name, expr in fields.items():
            expected = obj_type.fields[name]
            if expr.type != expected:
                raise ZenTypeError(
                    f"field {name} of {obj_type} expects {expected}, "
                    f"got {expr.type}"
                )
        super().__init__(obj_type)
        self.fields = dict(fields)

    @property
    def children(self) -> Tuple[Expr, ...]:
        return tuple(self.fields[name] for name in sorted(self.fields))

    def __str__(self) -> str:
        inner = ", ".join(f"{k}={v}" for k, v in sorted(self.fields.items()))
        return f"{self.type}({inner})"


class GetField(Expr):
    """Field projection ``e.f``."""

    __slots__ = ("obj", "field")

    def __init__(self, obj: Expr, field: str):
        if not isinstance(obj.type, ty.ObjectType):
            raise ZenTypeError(f"cannot project field of {obj.type}")
        super().__init__(obj.type.field_type(field))
        self.obj = obj
        self.field = field

    @property
    def children(self) -> Tuple[Expr, ...]:
        return (self.obj,)

    def __str__(self) -> str:
        return f"{self.obj}.{self.field}"


class WithField(Expr):
    """Functional field update ``e1[f := e2]``."""

    __slots__ = ("obj", "field", "value")

    def __init__(self, obj: Expr, field: str, value: Expr):
        if not isinstance(obj.type, ty.ObjectType):
            raise ZenTypeError(f"cannot update field of {obj.type}")
        expected = obj.type.field_type(field)
        if value.type != expected:
            raise ZenTypeError(
                f"field {field} expects {expected}, got {value.type}"
            )
        super().__init__(obj.type)
        self.obj = obj
        self.field = field
        self.value = value

    @property
    def children(self) -> Tuple[Expr, ...]:
        return (self.obj, self.value)

    def __str__(self) -> str:
        return f"{self.obj}[{self.field} := {self.value}]"


class MakeTuple(Expr):
    """Tuple construction."""

    __slots__ = ("items",)

    def __init__(self, items: Sequence[Expr]):
        super().__init__(ty.TupleType([e.type for e in items]))
        self.items = tuple(items)

    @property
    def children(self) -> Tuple[Expr, ...]:
        return self.items

    def __str__(self) -> str:
        return "(" + ", ".join(str(e) for e in self.items) + ")"


class TupleGet(Expr):
    """Tuple projection by index."""

    __slots__ = ("tup", "index")

    def __init__(self, tup: Expr, index: int):
        if not isinstance(tup.type, ty.TupleType):
            raise ZenTypeError(f"cannot index into {tup.type}")
        if not 0 <= index < len(tup.type.elements):
            raise ZenTypeError(
                f"tuple index {index} out of range for {tup.type}"
            )
        super().__init__(tup.type.elements[index])
        self.tup = tup
        self.index = index

    @property
    def children(self) -> Tuple[Expr, ...]:
        return (self.tup,)

    def __str__(self) -> str:
        return f"{self.tup}[{self.index}]"


class ListEmpty(Expr):
    """The empty list literal ``[]`` at a given element type."""

    __slots__ = ()

    def __init__(self, element: ty.ZenType):
        super().__init__(ty.ListType(element))

    def __str__(self) -> str:
        return "[]"


class ListCons(Expr):
    """List construction ``e1 :: e2``."""

    __slots__ = ("head", "tail")

    def __init__(self, head: Expr, tail: Expr):
        if not isinstance(tail.type, ty.ListType):
            raise ZenTypeError(f"cons tail must be a list, got {tail.type}")
        if head.type != tail.type.element:
            raise ZenTypeError(
                f"cons head {head.type} does not match list of "
                f"{tail.type.element}"
            )
        super().__init__(tail.type)
        self.head = head
        self.tail = tail

    @property
    def children(self) -> Tuple[Expr, ...]:
        return (self.head, self.tail)

    def __str__(self) -> str:
        return f"({self.head} :: {self.tail})"


class ListCase(Expr):
    """List elimination ``case e1 of e2 | (hd, tl) -> e3``.

    ``empty`` is a thunk producing the nil-branch expression; ``cons``
    maps (head expr, tail expr) to the cons-branch expression.  The
    result type is determined by probing the empty branch once.
    """

    __slots__ = ("lst", "empty", "cons", "_empty_probe")

    def __init__(
        self,
        lst: Expr,
        empty: Callable[[], Expr],
        cons: Callable[[Expr, Expr], Expr],
    ):
        if not isinstance(lst.type, ty.ListType):
            raise ZenTypeError(f"case scrutinee must be a list, got {lst.type}")
        probe = empty()
        super().__init__(probe.type)
        self.lst = lst
        self.empty = empty
        self.cons = cons
        self._empty_probe = probe

    @property
    def children(self) -> Tuple[Expr, ...]:
        return (self.lst,)

    def __str__(self) -> str:
        return f"(case {self.lst} of [] | hd::tl)"


class OptionNone(Expr):
    """``None`` at a given element type."""

    __slots__ = ()

    def __init__(self, element: ty.ZenType):
        super().__init__(ty.OptionType(element))

    def __str__(self) -> str:
        return f"None[{self.type.element}]"  # type: ignore[attr-defined]


class OptionSome(Expr):
    """``Some(e)``."""

    __slots__ = ("value",)

    def __init__(self, value: Expr):
        super().__init__(ty.OptionType(value.type))
        self.value = value

    @property
    def children(self) -> Tuple[Expr, ...]:
        return (self.value,)

    def __str__(self) -> str:
        return f"Some({self.value})"


class OptionHasValue(Expr):
    """Flag projection of an option."""

    __slots__ = ("opt",)

    def __init__(self, opt: Expr):
        if not isinstance(opt.type, ty.OptionType):
            raise ZenTypeError(f"has_value requires an option, got {opt.type}")
        super().__init__(ty.BOOL)
        self.opt = opt

    @property
    def children(self) -> Tuple[Expr, ...]:
        return (self.opt,)

    def __str__(self) -> str:
        return f"{self.opt}.has_value"


class OptionValue(Expr):
    """Value projection of an option (default value when None)."""

    __slots__ = ("opt",)

    def __init__(self, opt: Expr):
        if not isinstance(opt.type, ty.OptionType):
            raise ZenTypeError(f"value requires an option, got {opt.type}")
        super().__init__(opt.type.element)
        self.opt = opt

    @property
    def children(self) -> Tuple[Expr, ...]:
        return (self.opt,)

    def __str__(self) -> str:
        return f"{self.opt}.value"


class Adapt(Expr):
    """``adapt[τ1, τ2](e)``: view a value of τ1 at type τ2.

    The only built-in adaptation is between maps and their backing
    list-of-pairs representation (both directions); evaluators reject
    other combinations.  This is the extensibility hook of §5.
    """

    __slots__ = ("operand",)

    def __init__(self, operand: Expr, target: ty.ZenType):
        source = operand.type
        ok = (
            isinstance(source, ty.MapType)
            and target == source.adapted()
        ) or (
            isinstance(target, ty.MapType)
            and source == target.adapted()
        )
        if not ok:
            raise ZenTypeError(f"no adaptation from {source} to {target}")
        super().__init__(target)
        self.operand = operand

    @property
    def children(self) -> Tuple[Expr, ...]:
        return (self.operand,)

    def __str__(self) -> str:
        return f"adapt[{self.operand.type}, {self.type}]({self.operand})"
