"""A structurally-hashed and-inverter graph (AIG).

The SAT ("SMT") backend of the Zen language represents every Boolean
value produced by symbolic evaluation as an AIG literal.  The graph
applies the standard two-level simplification rules on construction
(constant folding, idempotence, contradiction) and shares structurally
identical nodes, so the formula handed to the SAT solver stays compact.

Literals are integers: node ``n`` yields literals ``2*n`` (positive)
and ``2*n + 1`` (negated).  Node 0 is the constant TRUE, so literal 0
is TRUE and literal 1 is FALSE.  Inputs (primary variables) and AND
gates are the only node kinds, as usual for AIGs; every other Boolean
connective is synthesized from them.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..errors import ZenSolverError

TRUE_LIT = 0
FALSE_LIT = 1


class Aig:
    """An and-inverter graph with structural hashing.

    >>> g = Aig()
    >>> x, y = g.new_input(), g.new_input()
    >>> out = g.or_(x, y)
    >>> g.simulate({x: True, y: False})[out]
    True
    """

    def __init__(self) -> None:
        # Node storage: _fanin[n] is None for inputs / constant, else a
        # pair of fanin literals (a, b) with a <= b.
        self._fanin: List[Optional[Tuple[int, int]]] = [None]  # node 0: TRUE
        self._inputs: List[int] = []
        self._strash: Dict[Tuple[int, int], int] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @property
    def num_nodes(self) -> int:
        """Total node count including the constant node."""
        return len(self._fanin)

    @property
    def num_inputs(self) -> int:
        """Number of primary inputs created so far."""
        return len(self._inputs)

    @property
    def inputs(self) -> Sequence[int]:
        """Positive literals of the primary inputs, in creation order."""
        return tuple(self._inputs)

    def new_input(self) -> int:
        """Create a primary input; returns its positive literal."""
        node = len(self._fanin)
        self._fanin.append(None)
        lit = 2 * node
        self._inputs.append(lit)
        return lit

    @staticmethod
    def negate(lit: int) -> int:
        """Return the negation of a literal."""
        return lit ^ 1

    def and_(self, a: int, b: int) -> int:
        """AND of two literals with simplification and sharing."""
        if a > b:
            a, b = b, a
        if a == FALSE_LIT or b == FALSE_LIT or a == (b ^ 1):
            return FALSE_LIT
        if a == TRUE_LIT:
            return b
        if a == b:
            return a
        key = (a, b)
        existing = self._strash.get(key)
        if existing is not None:
            return existing
        node = len(self._fanin)
        self._fanin.append(key)
        lit = 2 * node
        self._strash[key] = lit
        return lit

    def or_(self, a: int, b: int) -> int:
        """OR via De Morgan."""
        return self.and_(a ^ 1, b ^ 1) ^ 1

    def not_(self, a: int) -> int:
        """Negation (an inverter edge, no node is created)."""
        return a ^ 1

    def xor(self, a: int, b: int) -> int:
        """XOR built from two AND gates."""
        return self.or_(self.and_(a, b ^ 1), self.and_(a ^ 1, b))

    def iff(self, a: int, b: int) -> int:
        """Logical equivalence."""
        return self.xor(a, b) ^ 1

    def implies(self, a: int, b: int) -> int:
        """Logical implication a -> b."""
        return self.or_(a ^ 1, b)

    def ite(self, c: int, t: int, e: int) -> int:
        """If-then-else over literals."""
        if c == TRUE_LIT:
            return t
        if c == FALSE_LIT:
            return e
        if t == e:
            return t
        return self.or_(self.and_(c, t), self.and_(c ^ 1, e))

    def and_many(self, lits: Iterable[int]) -> int:
        """AND of arbitrarily many literals (balanced reduction)."""
        items = list(lits)
        if not items:
            return TRUE_LIT
        while len(items) > 1:
            nxt = []
            for i in range(0, len(items) - 1, 2):
                nxt.append(self.and_(items[i], items[i + 1]))
            if len(items) % 2:
                nxt.append(items[-1])
            items = nxt
        return items[0]

    def or_many(self, lits: Iterable[int]) -> int:
        """OR of arbitrarily many literals (balanced reduction)."""
        return self.and_many(lit ^ 1 for lit in lits) ^ 1

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------

    def is_input(self, lit: int) -> bool:
        """True if the literal refers to a primary input node."""
        node = lit >> 1
        return node != 0 and self._fanin[node] is None

    def is_const(self, lit: int) -> bool:
        """True if the literal is constant TRUE or FALSE."""
        return lit >> 1 == 0

    def fanin(self, lit: int) -> Tuple[int, int]:
        """Fanin literals of an AND node."""
        pair = self._fanin[lit >> 1]
        if pair is None:
            raise ZenSolverError(f"literal {lit} is not an AND gate")
        return pair

    def cone(self, roots: Iterable[int]) -> List[int]:
        """Nodes in the transitive fanin of `roots`, topologically sorted.

        The constant node is excluded; inputs and gates are included.
        """
        refs = self.cone_references(roots)
        return [node for node in range(1, len(refs)) if refs[node]]

    def cone_references(self, roots: Iterable[int]) -> List[int]:
        """How often each node is referenced from inside the cone of `roots`.

        Indexed by node up to the largest root; a root counts as one
        reference, so exactly the cone's nodes are non-zero (the
        constant is excluded).  Fanins always have smaller indices than
        the gates above them, so one descending sweep sees every
        reference to a node before the node itself, and ascending index
        order is a topological order of the cone.
        """
        fanin = self._fanin
        nodes = [lit >> 1 for lit in roots]
        refs = [0] * (max(nodes, default=0) + 1)
        for node in nodes:
            refs[node] += 1
        for node in range(len(refs) - 1, 0, -1):
            if refs[node]:
                pair = fanin[node]
                if pair is not None:
                    refs[pair[0] >> 1] += 1
                    refs[pair[1] >> 1] += 1
        refs[0] = 0
        return refs

    def absorb_muxes(self, refs: List[int]) -> Dict[int, Tuple[int, int, int]]:
        """Find the :meth:`ite` / :meth:`xor` triples of a cone.

        `refs` is :meth:`cone_references` of the cone.  A gate ``NOT g1
        AND NOT g2`` with ``g1 = c AND t`` and ``g2 = NOT c AND e`` is
        ``ite(c, NOT t, NOT e)``; when it is the only reference to g1
        and g2 (a root holds one more), they are absorbed: their
        entries in `refs` are zeroed and the result maps the gate's
        node to the literals ``(c, NOT t, NOT e)``.  Descending, so
        that a gate absorbed from above is no candidate itself.
        """
        fanin = self._fanin
        muxes: Dict[int, Tuple[int, int, int]] = {}
        for node in range(len(refs) - 1, 0, -1):
            pair = fanin[node]
            if not refs[node] or pair is None:
                continue
            a, b = pair
            if not a & b & 1 or refs[a >> 1] != 1 or refs[b >> 1] != 1:
                continue
            left, right = fanin[a >> 1], fanin[b >> 1]
            if left is None or right is None:
                continue
            for c, t in (left, left[::-1]):
                if c ^ 1 in right:
                    e = right[0] if right[1] == c ^ 1 else right[1]
                    muxes[node] = (c, t ^ 1, e ^ 1)
                    refs[a >> 1] = refs[b >> 1] = 0
                    break
        return muxes

    def support(self, roots: Iterable[int]) -> List[int]:
        """Primary-input literals that `roots` transitively depend on."""
        return [
            2 * node
            for node in self.cone(roots)
            if self._fanin[node] is None
        ]

    def supports(self, roots: Sequence[int]) -> List[int]:
        """The support of every root, from one pass over their shared cone.

        Each support is an int bitmask over :attr:`inputs` (bit ``k``
        set: the root depends on the ``k``-th input created).  A node's
        mask is the union of its fanins' masks, so many roots cost one
        bottom-up sweep instead of one cone walk each.
        """
        index = {lit >> 1: k for k, lit in enumerate(self._inputs)}
        masks = {0: 0}
        for node in self.cone(roots):
            pair = self._fanin[node]
            if pair is None:
                masks[node] = 1 << index[node]
            else:
                masks[node] = masks[pair[0] >> 1] | masks[pair[1] >> 1]
        return [masks[lit >> 1] for lit in roots]

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------

    def simulate(self, input_values: Dict[int, bool]) -> "_SimResult":
        """Concrete simulation; returns a literal-indexable result.

        `input_values` maps input literals (as returned by new_input)
        to Booleans.  Missing inputs default to False.
        """
        values: List[bool] = [True]
        for node in range(1, len(self._fanin)):
            pair = self._fanin[node]
            if pair is None:
                values.append(input_values.get(2 * node, False))
            else:
                a, b = pair
                va = values[a >> 1] ^ bool(a & 1)
                vb = values[b >> 1] ^ bool(b & 1)
                values.append(va and vb)
        return _SimResult(values)

    def eval_literal(self, lit: int, input_values: Dict[int, bool]) -> bool:
        """Evaluate one literal under concrete input values."""
        return self.simulate(input_values)[lit]


class _SimResult:
    """Simulation values indexable by AIG literal."""

    __slots__ = ("_values",)

    def __init__(self, values: List[bool]):
        self._values = values

    def __getitem__(self, lit: int) -> bool:
        return self._values[lit >> 1] ^ bool(lit & 1)
