"""Symbolic evaluation of Zen expressions over a Boolean backend.

This is the compiler at the heart of both solver backends: it walks an
expression tree and produces a :class:`~repro.backends.values.SymValue`
whose leaves are backend bits (AIG literals for the SAT engine, BDD
nodes for the BDD engine).

Control flow is handled with type-driven merging: an ``if`` with a
symbolic condition evaluates both branches and merges them (§6), while
constant conditions — common when models mix concrete tables with
symbolic packets — short-circuit to the live branch only.

The evaluator is iterative (explicit work stack) so deep ``if`` chains
from large ACLs do not overflow the Python call stack.

Three things a hand-written encoder knows are done here once, for every
engine: an integer constant operand of a mask or comparison stays a
Python int (the ``*_const`` circuits of :mod:`.bitvector`); a tree of
``and`` (or ``or``) is conjoined in one ``backend.and_many``; and a
comparison of an ``if`` chain of constants with a constant is pushed
into the branches, so the chain merges one bit per ``if`` and the
integer it would have selected is never built.
"""

from __future__ import annotations

import operator
from typing import Any, Dict, List, Optional, Tuple

from ..errors import ZenEvaluationError
from ..lang import expr as ex
from ..lang import types as ty
from . import bitvector as bv
from . import values as sv
from .interface import BoolBackend, bit_value

_EXPAND = 0
_REDUCE = 1
_FORWARD = 2
_MERGE_IF = 3
_MERGE_CASE = 4
_CONJOIN = 5
_CONSTANT_OP = 6

# Ops with a constant path, keyed to the op that reads the same with the
# operands swapped (``k < x`` is ``x > k``).
_SWAPPED = {
    "band": "band",
    "eq": "eq",
    "ne": "ne",
    "lt": "gt",
    "le": "ge",
    "gt": "lt",
    "ge": "le",
}
_TRUE = ex.Constant(True, ty.BOOL)
_FALSE = ex.Constant(False, ty.BOOL)
_COMPARE = {
    "eq": operator.eq,
    "ne": operator.ne,
    "lt": operator.lt,
    "le": operator.le,
    "gt": operator.gt,
    "ge": operator.ge,
}


class SymbolicEvaluator:
    """One symbolic evaluation session over a Boolean backend."""

    def __init__(
        self,
        backend: BoolBackend,
        env: Optional[Dict[str, sv.SymValue]] = None,
        max_list_length: int = 4,
    ):
        self._backend = backend
        self._env = dict(env or {})
        self._memo: Dict[ex.Expr, sv.SymValue] = {}
        # (if node, comparison, constant) -> the if with the comparison
        # pushed into its branches; keeps a shared chain shared.
        self._pushed: Dict[Tuple[ex.If, str, Any], ex.If] = {}
        self._max_list_length = max_list_length

    def bind(self, name: str, value: sv.SymValue) -> None:
        """Bind a variable name to a symbolic value."""
        self._env[name] = value

    def fresh_input(self, name: str, zen_type: ty.ZenType) -> sv.SymValue:
        """Allocate and bind a fresh symbolic input."""
        value = sv.fresh(self._backend, zen_type, name, self._max_list_length)
        self._env[name] = value
        return value

    def evaluate(self, expr: ex.Expr) -> sv.SymValue:
        """Evaluate an expression to a symbolic value."""
        memo = self._memo
        backend = self._backend
        stack: List[Tuple[int, ex.Expr, Any]] = [(_EXPAND, expr, None)]
        while stack:
            phase, node, extra = stack.pop()
            if phase == _FORWARD:
                memo[node] = memo[extra]
                continue
            if phase == _MERGE_IF:
                cond_bit, then_node, else_node = extra
                memo[node] = sv.merge(
                    backend, cond_bit, memo[then_node], memo[else_node]
                )
                continue
            if phase == _MERGE_CASE:
                guard, cons_node, empty_node = extra
                memo[node] = sv.merge(
                    backend, guard, memo[cons_node], memo[empty_node]
                )
                continue
            if node in memo:
                continue
            if phase == _EXPAND:
                self._expand(node, stack)
            elif phase == _CONJOIN:
                memo[node] = self._conjoin(node.op, extra)
            elif phase == _CONSTANT_OP:
                memo[node] = self._constant_op(*extra)
            elif isinstance(node, ex.If):
                self._branch_if(node, stack)
            elif isinstance(node, ex.ListCase):
                self._branch_case(node, stack)
            else:
                memo[node] = self._reduce(node)
        return memo[expr]

    # ------------------------------------------------------------------

    def _expand(self, node: ex.Expr, stack: list) -> None:
        memo = self._memo
        if isinstance(node, ex.Binary):
            if node.op in ("and", "or"):
                leaves = self._leaves(node)
                stack.append((_CONJOIN, node, leaves))
                for leaf in leaves:
                    stack.append((_EXPAND, leaf, None))
                return
            if node.op in _SWAPPED and self._expand_constant_op(node, stack):
                return
        elif isinstance(node, ex.Constant):
            memo[node] = sv.from_constant(self._backend, node.type, node.value)
            return
        if isinstance(node, ex.Var):
            if node.name not in self._env:
                raise ZenEvaluationError(
                    f"unbound variable {node.name!r} in symbolic evaluation"
                )
            memo[node] = self._env[node.name]
            return
        if isinstance(node, ex.Lifted):
            if node.session is not self:
                raise ZenEvaluationError(
                    "lifted value used outside its evaluation session"
                )
            memo[node] = node.payload
            return
        if isinstance(node, (ex.If, ex.ListCase)):
            scrutinee = node.cond if isinstance(node, ex.If) else node.lst
            stack.append((_REDUCE, node, None))
            stack.append((_EXPAND, scrutinee, None))
            return
        stack.append((_REDUCE, node, None))
        for child in node.children:
            stack.append((_EXPAND, child, None))

    def _leaves(self, root: ex.Binary) -> List[ex.Expr]:
        """Operands of a tree of one logical op, left to right, each once.

        Inner nodes of the tree are not evaluated on their own (one
        already in the memo counts as a leaf).
        """
        memo = self._memo
        leaves: List[ex.Expr] = []
        seen = {root}
        todo = [root.right, root.left]
        while todo:
            node = todo.pop()
            if node in seen:
                continue
            seen.add(node)
            if (
                isinstance(node, ex.Binary)
                and node.op == root.op
                and node not in memo
            ):
                todo.append(node.right)
                todo.append(node.left)
            else:
                leaves.append(node)
        return leaves

    def _conjoin(self, op: str, leaves: List[ex.Expr]) -> sv.SymBool:
        backend = self._backend
        bits = [self._memo[leaf].bit for leaf in leaves]  # type: ignore[attr-defined]
        if op == "and":
            return sv.SymBool(backend.and_many(bits))
        # De Morgan: one conjunction rule serves both ops.
        negated = [backend.not_(bit) for bit in bits]
        return sv.SymBool(backend.not_(backend.and_many(negated)))

    def _expand_constant_op(self, node: ex.Binary, stack: list) -> bool:
        """Take the constant path if one operand is an integer constant.

        The op is normalised to constant-on-the-right.  A comparison
        whose other operand is an ``if`` with a constant branch is
        rewritten (see :meth:`_push_comparison`) instead of evaluated.
        """
        op, operand, constant = node.op, node.left, node.right
        if not isinstance(constant, ex.Constant):
            if not isinstance(operand, ex.Constant):
                return False
            op, operand, constant = _SWAPPED[op], constant, operand
        integer = isinstance(constant.type, ty.IntType)
        if (
            op != "band"
            and isinstance(operand, ex.If)
            and (integer or isinstance(constant.type, ty.BoolType))
            and (
                isinstance(operand.then, ex.Constant)
                or isinstance(operand.orelse, ex.Constant)
            )
        ):
            pushed = self._push_comparison(op, operand, constant)
            self._forward(node, pushed, stack)
            return True
        if not integer:
            return False
        stack.append((_CONSTANT_OP, node, (op, operand, constant)))
        stack.append((_EXPAND, operand, None))
        return True

    def _push_comparison(
        self, op: str, chain: ex.If, constant: ex.Constant
    ) -> ex.If:
        """``If(c, a, e) op k`` as ``If(c, a op k, e op k)``.

        One step only: the evaluator meets the pushed branch when (and
        if) it expands it, so a 150-deep chain unrolls on the work
        stack, and a branch under a constant condition is never built.
        """
        key = (chain, op, constant.value)
        pushed = self._pushed.get(key)
        if pushed is None:
            compare = _COMPARE[op]

            def push(branch: ex.Expr) -> ex.Expr:
                if isinstance(branch, ex.Constant):
                    verdict = compare(branch.value, constant.value)
                    return _TRUE if verdict else _FALSE
                return ex.Binary(op, branch, constant)

            pushed = ex.If(chain.cond, push(chain.then), push(chain.orelse))
            self._pushed[key] = pushed
        return pushed

    def _constant_op(
        self, op: str, operand: ex.Expr, constant: ex.Constant
    ) -> sv.SymValue:
        """A mask or comparison whose right operand is a Python int."""
        backend = self._backend
        value = self._memo[operand]
        assert isinstance(value, sv.SymInt)
        int_type = constant.type
        assert isinstance(int_type, ty.IntType)
        bits, k, signed = value.bits, constant.value, int_type.signed
        if op == "band":
            return sv.SymInt(int_type, bv.and_const(backend, bits, k))
        if op in ("eq", "ne"):
            bit = bv.equal_const(backend, bits, k)
        else:  # a < k is not a >= k, a <= k is not a > k
            or_equal = op in ("ge", "lt")
            bit = bv.greater_const(backend, bits, k, signed, or_equal)
        if op in ("ne", "lt", "le"):
            bit = backend.not_(bit)
        return sv.SymBool(bit)

    def _branch_if(self, node: ex.If, stack: list) -> None:
        cond = self._memo[node.cond]
        assert isinstance(cond, sv.SymBool)
        known = bit_value(self._backend, cond.bit)
        if known is not None:
            taken = node.then if known else node.orelse
            self._forward(node, taken, stack)
            return
        stack.append((_MERGE_IF, node, (cond.bit, node.then, node.orelse)))
        stack.append((_EXPAND, node.then, None))
        stack.append((_EXPAND, node.orelse, None))

    def _branch_case(self, node: ex.ListCase, stack: list) -> None:
        lst = self._memo[node.lst]
        assert isinstance(lst, sv.SymList)
        if not lst.cells:
            self._forward(node, node.empty(), stack)
            return
        guard, head_val = lst.cells[0]
        known = bit_value(self._backend, guard)
        list_type = node.lst.type
        elem_type = list_type.element  # type: ignore[attr-defined]
        if known is False:
            self._forward(node, node.empty(), stack)
            return
        tail_val = sv.SymList(list_type, lst.cells[1:])  # type: ignore[arg-type]
        head = ex.Lifted(head_val, elem_type, self)
        tail = ex.Lifted(tail_val, list_type, self)
        cons_branch = node.cons(head, tail)
        if cons_branch.type != node.type:
            raise ZenEvaluationError(
                f"case branches disagree: {cons_branch.type} vs {node.type}"
            )
        if known is True:
            self._forward(node, cons_branch, stack)
            return
        empty_branch = node.empty()
        stack.append((_MERGE_CASE, node, (guard, cons_branch, empty_branch)))
        stack.append((_EXPAND, cons_branch, None))
        stack.append((_EXPAND, empty_branch, None))

    def _forward(self, node: ex.Expr, target: ex.Expr, stack: list) -> None:
        if target in self._memo:
            self._memo[node] = self._memo[target]
            return
        stack.append((_FORWARD, node, target))
        stack.append((_EXPAND, target, None))

    # ------------------------------------------------------------------

    def _reduce(self, node: ex.Expr) -> sv.SymValue:
        memo = self._memo
        backend = self._backend
        if isinstance(node, ex.Binary):
            return self._binary(node)
        if isinstance(node, ex.Unary):
            return self._unary(node)
        if isinstance(node, ex.Create):
            return sv.SymObject(
                node.type,  # type: ignore[arg-type]
                {name: memo[child] for name, child in node.fields.items()},
            )
        if isinstance(node, ex.GetField):
            obj = memo[node.obj]
            assert isinstance(obj, sv.SymObject)
            return obj.fields[node.field]
        if isinstance(node, ex.WithField):
            obj = memo[node.obj]
            assert isinstance(obj, sv.SymObject)
            fields = dict(obj.fields)
            fields[node.field] = memo[node.value]
            return sv.SymObject(obj.type, fields)  # type: ignore[arg-type]
        if isinstance(node, ex.MakeTuple):
            return sv.SymTuple(
                node.type,  # type: ignore[arg-type]
                [memo[item] for item in node.items],
            )
        if isinstance(node, ex.TupleGet):
            tup = memo[node.tup]
            assert isinstance(tup, sv.SymTuple)
            return tup.items[node.index]
        if isinstance(node, ex.ListEmpty):
            return sv.SymList(node.type, [])  # type: ignore[arg-type]
        if isinstance(node, ex.ListCons):
            tail = memo[node.tail]
            assert isinstance(tail, sv.SymList)
            head = memo[node.head]
            # The new cell is always present; old cells keep guards.
            cells = [(backend.true(), head)] + list(tail.cells)
            return sv.SymList(tail.type, cells)  # type: ignore[arg-type]
        if isinstance(node, ex.OptionNone):
            return sv.SymOption(
                node.type,  # type: ignore[arg-type]
                backend.false(),
                sv.default(backend, node.type.element),  # type: ignore[attr-defined]
            )
        if isinstance(node, ex.OptionSome):
            return sv.SymOption(
                node.type,  # type: ignore[arg-type]
                backend.true(),
                memo[node.value],
            )
        if isinstance(node, ex.OptionHasValue):
            opt = memo[node.opt]
            assert isinstance(opt, sv.SymOption)
            return sv.SymBool(opt.has)
        if isinstance(node, ex.OptionValue):
            opt = memo[node.opt]
            assert isinstance(opt, sv.SymOption)
            # Load-bearing: the payload under a false flag is unspecified
            # (values.merge leaves it unmerged), so this guard alone makes
            # the value of None read as the default.
            return sv.merge(
                backend,
                opt.has,
                opt.val,
                sv.default(backend, opt.val.type),
            )
        if isinstance(node, ex.Adapt):
            operand = memo[node.operand]
            if isinstance(node.type, ty.MapType):
                assert isinstance(operand, sv.SymList)
                return sv.SymMap(node.type, operand)
            assert isinstance(operand, sv.SymMap)
            return operand.backing
        raise ZenEvaluationError(f"cannot evaluate node {node!r}")

    def _binary(self, node: ex.Binary) -> sv.SymValue:
        backend = self._backend
        left = self._memo[node.left]
        right = self._memo[node.right]
        op = node.op
        if op == "eq":
            return sv.SymBool(sv.equal(backend, left, right))
        if op == "ne":
            return sv.SymBool(backend.not_(sv.equal(backend, left, right)))
        assert isinstance(left, sv.SymInt) and isinstance(right, sv.SymInt)
        int_type = left.type
        assert isinstance(int_type, ty.IntType)
        signed = int_type.signed
        if op == "lt":
            return sv.SymBool(bv.less(backend, left.bits, right.bits, signed))
        if op == "gt":
            return sv.SymBool(bv.less(backend, right.bits, left.bits, signed))
        if op == "le":
            return sv.SymBool(
                bv.less_equal(backend, left.bits, right.bits, signed)
            )
        if op == "ge":
            return sv.SymBool(
                bv.less_equal(backend, right.bits, left.bits, signed)
            )
        if op == "add":
            return sv.SymInt(int_type, bv.add(backend, left.bits, right.bits))
        if op == "sub":
            return sv.SymInt(int_type, bv.sub(backend, left.bits, right.bits))
        if op == "mul":
            return sv.SymInt(int_type, bv.mul(backend, left.bits, right.bits))
        if op == "band":
            return sv.SymInt(
                int_type, bv.bitwise_and(backend, left.bits, right.bits)
            )
        if op == "bor":
            return sv.SymInt(
                int_type, bv.bitwise_or(backend, left.bits, right.bits)
            )
        if op == "bxor":
            return sv.SymInt(
                int_type, bv.bitwise_xor(backend, left.bits, right.bits)
            )
        if op in ("shl", "shr"):
            amount = self._constant_amount(right)
            arith = signed
            if amount is not None:
                if op == "shl":
                    bits = bv.shift_left_const(backend, left.bits, amount)
                else:
                    bits = bv.shift_right_const(
                        backend, left.bits, amount, arith
                    )
            elif op == "shl":
                bits = bv.shift_left(backend, left.bits, right.bits)
            else:
                bits = bv.shift_right(backend, left.bits, right.bits, arith)
            return sv.SymInt(int_type, bits)
        raise ZenEvaluationError(f"unknown binary op {op}")

    def _constant_amount(self, value: sv.SymInt) -> Optional[int]:
        """Decode a shift amount if all bits are constant (unsigned)."""
        bits = []
        for bit in value.bits:
            known = bit_value(self._backend, bit)
            if known is None:
                return None
            bits.append(known)
        return bv.to_int(bits, signed=False)

    def _unary(self, node: ex.Unary) -> sv.SymValue:
        backend = self._backend
        operand = self._memo[node.operand]
        if node.op == "not":
            assert isinstance(operand, sv.SymBool)
            return sv.SymBool(backend.not_(operand.bit))
        assert isinstance(operand, sv.SymInt)
        int_type = operand.type
        assert isinstance(int_type, ty.IntType)
        if node.op == "bnot":
            return sv.SymInt(int_type, bv.bitwise_not(backend, operand.bits))
        if node.op == "neg":
            return sv.SymInt(int_type, bv.negate(backend, operand.bits))
        raise ZenEvaluationError(f"unknown unary op {node.op}")
