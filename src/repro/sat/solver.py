"""A CDCL (conflict-driven clause learning) SAT solver.

This is the bottom-most substrate of the library: the paper's "SMT"
backend bitblasts bitvector formulas to SAT, and this module provides
the SAT engine.  The design follows MiniSat:

* two-watched-literal unit propagation,
* first-UIP conflict analysis with learned-clause minimization,
* VSIDS variable activities with phase saving,
* Luby-sequence restarts,
* activity-driven learned-clause database reduction, and
* incremental solving under assumptions.

Literals use the DIMACS convention externally (positive/negative
integers, variables numbered from 1).  Internally a literal ``l`` for
variable ``v`` is encoded as ``2*v`` (positive) or ``2*v + 1``
(negative), so negation is ``l ^ 1`` and both the watch lists and the
assignment are indexed by literal: ``_assigns[l]`` is 1 (true), 0
(false) or -1 (unassigned), written for ``l`` and ``l ^ 1`` together.
"""

from __future__ import annotations

import heapq
from typing import Iterable, Iterator, List, Optional, Sequence

from ..errors import ZenSolverError
from ..telemetry.spans import TRACER, span

_UNASSIGNED = -1
_FALSE = 0
_TRUE = 1

# Gates loaded between two looks at the deadline in :meth:`Solver.add_gates`.
_GATE_CHUNK = 2048


def luby(i: int) -> int:
    """Return the i-th element (1-based) of the Luby restart sequence.

    The sequence is 1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8, ...:
    if i == 2^k - 1 the value is 2^(k-1), otherwise recurse on the
    position within the trailing copy of a smaller prefix.
    """
    if i <= 0:
        raise ZenSolverError(f"luby index must be positive: {i}")
    while True:
        k = i.bit_length()
        if (1 << k) - 1 == i:
            return 1 << (k - 1)
        i = i - (1 << (k - 1)) + 1


def gate_clauses(gate: Sequence[int]) -> List[List[int]]:
    """The DIMACS clauses of one gate, in the order they are attached.

    ``(out, a, b)`` is ``out <-> a AND b``; ``(out, c, t, e)`` is
    ``out <-> (t if c else e)``.  This is the one place the shape of a
    gate's clauses is spelled in DIMACS; :meth:`Solver.add_gates` writes
    the same clauses in internal literals.
    """
    if len(gate) == 3:
        out, a, b = gate
        return [[-out, a], [-out, b], [out, -a, -b]]
    out, c, t, e = gate
    return [[-c, -t, out], [-c, t, -out], [c, -e, out], [c, e, -out]]


# A clause is the list of its internal literals, the two watched ones
# first.  Problem clauses are plain lists; a learned clause also carries
# the activity the database reduction sorts by.
_Clause = List[int]


class _Learned(list):
    """A learned clause."""

    __slots__ = ("activity",)

    def __init__(self, lits: List[int]):
        super().__init__(lits)
        self.activity = 0.0


class Solver:
    """An incremental CDCL SAT solver over DIMACS-style literals.

    Typical usage::

        s = Solver()
        a, b = s.new_var(), s.new_var()
        s.add_clause([a, b])
        s.add_clause([-a])
        assert s.solve()
        assert s.model_value(b)
    """

    def __init__(self) -> None:
        self._num_vars = 0
        self._clauses: List[_Clause] = []
        self._learned: List[_Learned] = []
        # Indexed by internal literal (two slots per variable; the two
        # slots of variable 0 are unused padding).
        self._watches: List[List[_Clause]] = [[], []]
        self._assigns: List[int] = [_UNASSIGNED, _UNASSIGNED]
        # Per-variable state; index 0 is unused padding.
        self._level: List[int] = [0]
        self._reason: List[Optional[_Clause]] = [None]
        self._activity: List[float] = [0.0]
        self._phase: List[bool] = [False]
        self._seen: List[bool] = [False]
        # Trail of assigned internal literals and decision boundaries.
        self._trail: List[int] = []
        self._trail_lim: List[int] = []
        self._qhead = 0
        # VSIDS bookkeeping.  The decision order is a lazy max-heap of
        # (-activity, var) entries; stale entries are skipped on pop.
        self._var_inc = 1.0
        self._var_decay = 1.0 / 0.95
        self._cla_inc = 1.0
        self._cla_decay = 1.0 / 0.999
        self._order: List[tuple[float, int]] = []
        self._ok = True
        self._model: List[int] = []
        self._conflicts = 0
        self._decisions = 0
        self._propagations = 0
        self._max_learned = 5000
        # Per-solve assumption state.
        self._num_assumed_levels = 0
        self._next_assumption = 0
        self._failed_assumptions: List[int] = []
        # Cooperative resource governance (duck-typed BudgetMeter; the
        # solver never imports repro.core.budget).
        self._meter = None
        # Set by iter_models: True when the limit cut enumeration off
        # while more models existed, False when enumeration was
        # exhaustive, None before any enumeration finished.
        self.last_enumeration_truncated: Optional[bool] = None

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    @property
    def num_vars(self) -> int:
        """Number of variables allocated so far."""
        return self._num_vars

    @property
    def num_clauses(self) -> int:
        """Number of problem (non-learned) clauses."""
        return len(self._clauses)

    @property
    def statistics(self) -> dict:
        """Counters for conflicts, decisions and propagations."""
        return {
            "conflicts": self._conflicts,
            "decisions": self._decisions,
            "propagations": self._propagations,
            "learned": len(self._learned),
        }

    def reset_statistics(self) -> None:
        """Zero the search counters (learned clauses are kept)."""
        self._conflicts = 0
        self._decisions = 0
        self._propagations = 0

    def snapshot(self) -> dict:
        """Flat numeric counter snapshot (shared counter protocol)."""
        return dict(self.statistics)

    def reset_counters(self) -> None:
        """Canonical reset spelling (alias of :meth:`reset_statistics`)."""
        self.reset_statistics()

    def new_var(self) -> int:
        """Allocate a fresh variable and return its (positive) index."""
        return self.new_vars(1)

    def new_vars(self, count: int) -> int:
        """Allocate `count` fresh variables; returns the first's index."""
        if count < 0:
            raise ZenSolverError(f"new_vars needs a count, got {count}")
        first = self._num_vars + 1
        self._num_vars += count
        self._assigns.extend([_UNASSIGNED] * (2 * count))
        self._watches.extend([] for _ in range(2 * count))
        self._level.extend([0] * count)
        self._reason.extend([None] * count)
        self._activity.extend([0.0] * count)
        self._phase.extend([False] * count)
        self._seen.extend([False] * count)
        # No entry of the order heap is larger than (0.0, a new
        # variable): activities are never negative.  Appending in
        # increasing order therefore keeps the heap a heap.
        self._order.extend((0.0, v) for v in range(first, first + count))
        return first

    def add_clause(self, lits: Iterable[int]) -> bool:
        """Add a clause of DIMACS literals.

        Returns False if the solver is already known to be unsatisfiable
        (either before the call or as a result of this clause).
        """
        if not self._ok:
            return False
        if self._trail_lim:
            raise ZenSolverError("add_clause called during solving")
        seen: set[int] = set()
        simplified: List[int] = []
        for lit in lits:
            v = abs(lit)
            if v == 0 or v > self._num_vars:
                raise ZenSolverError(f"unknown variable in literal {lit}")
            ilit = self._internal(lit)
            val = self._assigns[ilit]
            if val == _TRUE:
                return True  # satisfied at level 0
            if val == _FALSE:
                continue  # falsified at level 0; drop the literal
            if ilit in seen:
                continue
            if ilit ^ 1 in seen:
                return True  # tautology
            seen.add(ilit)
            simplified.append(ilit)
        if not simplified:
            self._ok = False
            return False
        if len(simplified) == 1:
            if not self._enqueue(simplified[0], None):
                self._ok = False
                return False
            if self._propagate() is not None:
                self._ok = False
                return False
            return True
        self._clauses.append(simplified)
        self._attach(simplified)
        return True

    def add_gates(self, gates: Sequence[Sequence[int]], meter=None) -> bool:
        """Add the clauses of many gates at once; see :func:`gate_clauses`.

        Same result as one :meth:`add_clause` per clause of each gate,
        for gates whose variables are pairwise distinct (``c``, ``t``
        and ``e`` of a mux only need to differ from ``c`` and ``out``);
        any other gate is rejected.  While nothing is assigned at level
        0 such clauses need none of ``add_clause``'s simplification and
        are attached directly; otherwise every clause goes through it.

        `meter` is an optional running budget meter whose deadline is
        looked at once per few thousand gates.
        """
        if self._trail_lim:
            raise ZenSolverError("add_gates called during solving")
        for start in range(0, len(gates), _GATE_CHUNK):
            if meter is not None:
                meter.check_deadline()
            chunk = gates[start : start + _GATE_CHUNK]
            if self._ok and not self._trail:
                self._attach_gates(chunk)
            else:
                for gate in chunk:
                    for clause in gate_clauses(gate):
                        self.add_clause(clause)
        return self._ok

    def _attach_gates(self, gates: Sequence[Sequence[int]]) -> None:
        """:meth:`add_gates` with nothing assigned: write and watch."""
        n = self._num_vars
        watches = self._watches
        clauses = self._clauses
        for gate in gates:
            if len(gate) == 3:
                out, a, b = gate
                va = a if a > 0 else -a
                vb = b if b > 0 else -b
                if not (
                    0 < out <= n and 0 < va <= n and 0 < vb <= n
                    and va != vb and va != out and vb != out
                ):
                    raise ZenSolverError(f"malformed AND gate {gate}")
                pos = 2 * out
                neg = pos + 1
                ia = 2 * a if a > 0 else 1 - 2 * a
                ib = 2 * b if b > 0 else 1 - 2 * b
                first = [neg, ia]
                second = [neg, ib]
                third = [pos, ia ^ 1, ib ^ 1]
                watchers = watches[neg]
                watchers.append(first)
                watchers.append(second)
                watches[ia].append(first)
                watches[ib].append(second)
                watches[pos].append(third)
                watches[ia ^ 1].append(third)
                clauses += (first, second, third)
            else:
                out, c, t, e = gate
                vc = c if c > 0 else -c
                vt = t if t > 0 else -t
                ve = e if e > 0 else -e
                if not (
                    0 < out <= n and 0 < vc <= n and 0 < vt <= n and 0 < ve <= n
                    and vc != vt and vc != ve
                    and vc != out and vt != out and ve != out
                ):
                    raise ZenSolverError(f"malformed mux gate {gate}")
                pos = 2 * out
                neg = pos + 1
                ic = 2 * c if c > 0 else 1 - 2 * c
                nc = ic ^ 1
                it = 2 * t if t > 0 else 1 - 2 * t
                ie = 2 * e if e > 0 else 1 - 2 * e
                first = [nc, it ^ 1, pos]
                second = [nc, it, neg]
                third = [ic, ie ^ 1, pos]
                fourth = [ic, ie, neg]
                watchers = watches[nc]
                watchers.append(first)
                watchers.append(second)
                watches[it ^ 1].append(first)
                watches[it].append(second)
                watchers = watches[ic]
                watchers.append(third)
                watchers.append(fourth)
                watches[ie ^ 1].append(third)
                watches[ie].append(fourth)
                clauses += (first, second, third, fourth)

    def solve(self, assumptions: Sequence[int] = (), budget=None) -> bool:
        """Search for a model, optionally under assumption literals.

        On success the model is queryable via :meth:`model_value`.  On
        failure under assumptions, :meth:`failed_assumptions` returns
        the subset of assumptions assigned when the conflict arose.

        `budget` is an optional :class:`repro.core.budget.Budget` (or
        a running meter): the search checkpoints on every conflict,
        every 256 decisions, and at each restart, and raises
        :class:`~repro.errors.ZenBudgetExceeded` on exhaustion.  The
        abort unwinds through the trail-restoring ``finally``, so the
        solver remains usable afterwards.
        """
        self._failed_assumptions = []
        self._model = []
        if not self._ok:
            # Unsat discovered at level 0 (during clause loading); no
            # search runs, but the instant answer still belongs on the
            # timeline.
            if TRACER.enabled:
                TRACER.record(
                    "sat.solve",
                    TRACER.now_wall(),
                    0.0,
                    {"result": "unsat", "level0": True},
                )
            return False
        meter = budget
        if meter is not None and not hasattr(meter, "on_conflict"):
            meter = meter.start()
        assume = [self._internal(lit) for lit in assumptions]
        restarts = 0
        self._meter = meter
        with span("sat.solve", counters=self) as live:
            try:
                while True:
                    if meter is not None:
                        meter.check_deadline()
                    self._num_assumed_levels = 0
                    self._next_assumption = 0
                    status = self._search(100 * luby(restarts + 1), assume)
                    if status is not None:
                        live.set("result", "sat" if status else "unsat")
                        return status
                    restarts += 1
                    self._cancel_until(0)
            finally:
                self._meter = None
                self._cancel_until(0)
                live.set("restarts", restarts)

    def model_value(self, var: int) -> bool:
        """Return the value of a variable in the most recent model."""
        if not self._model:
            raise ZenSolverError("no model available (last solve failed?)")
        if var <= 0 or var > self._num_vars:
            raise ZenSolverError(f"unknown variable {var}")
        return self._model[var] == _TRUE

    def model(self) -> List[int]:
        """Return the most recent model as a list of DIMACS literals."""
        if not self._model:
            raise ZenSolverError("no model available (last solve failed?)")
        return [
            v if self._model[v] == _TRUE else -v
            for v in range(1, self._num_vars + 1)
        ]

    def failed_assumptions(self) -> List[int]:
        """Assumptions (DIMACS) involved in the last failed solve."""
        return list(self._failed_assumptions)

    def iter_models(
        self,
        variables: Optional[Sequence[int]] = None,
        limit: int = 1 << 20,
        budget=None,
    ) -> Iterator[List[int]]:
        """Enumerate models by adding blocking clauses over `variables`.

        The solver is consumed by this process (blocking clauses are
        permanent).  `variables` defaults to all variables.

        Hitting `limit` must not look identical to exhaustive
        enumeration: when the limit cuts enumeration off, one extra
        (blocked) solve determines whether further models exist and
        :attr:`last_enumeration_truncated` is set to the exact answer
        (False = the enumeration was complete).  `budget` bounds the
        whole enumeration, including that final probe.
        """
        if variables is None:
            variables = list(range(1, self._num_vars + 1))
        meter = budget
        if meter is not None and not hasattr(meter, "on_conflict"):
            meter = meter.start()
        self.last_enumeration_truncated = None
        count = 0
        while count < limit:
            if not self.solve(budget=meter):
                self.last_enumeration_truncated = False
                return
            if meter is not None:
                meter.on_model()
            model = [v if self.model_value(v) else -v for v in variables]
            yield model
            count += 1
            if not self.add_clause([-lit for lit in model]):
                self.last_enumeration_truncated = False
                return
        # The limit stopped us with the last model already blocked; one
        # more solve tells exactly whether anything was left behind.
        self.last_enumeration_truncated = self.solve(budget=meter)

    # ------------------------------------------------------------------
    # Encoding helpers
    # ------------------------------------------------------------------

    @staticmethod
    def _internal(lit: int) -> int:
        v = abs(lit)
        return 2 * v + (1 if lit < 0 else 0)

    @staticmethod
    def _external(ilit: int) -> int:
        v = ilit >> 1
        return -v if ilit & 1 else v

    # ------------------------------------------------------------------
    # Watched literals and propagation
    # ------------------------------------------------------------------

    def _attach(self, clause: _Clause) -> None:
        self._watches[clause[0]].append(clause)
        self._watches[clause[1]].append(clause)

    def _detach(self, clause: _Clause) -> None:
        # By identity: two clauses with equal literals are two clauses.
        for ilit in clause[:2]:
            watchers = self._watches[ilit]
            for i, watched in enumerate(watchers):
                if watched is clause:
                    del watchers[i]
                    break

    def _enqueue(self, ilit: int, reason: Optional[_Clause]) -> bool:
        val = self._assigns[ilit]
        if val != _UNASSIGNED:
            return val == _TRUE
        self._assigns[ilit] = _TRUE
        self._assigns[ilit ^ 1] = _FALSE
        v = ilit >> 1
        self._level[v] = len(self._trail_lim)
        self._reason[v] = reason
        self._trail.append(ilit)
        return True

    def _propagate(self) -> Optional[_Clause]:
        """Unit propagation; returns a conflicting clause or None.

        The loop every query spends its solve in, so the assignment and
        the watch lists are read through locals and an implied literal
        is enqueued in place (1 / 0 / -1 are _TRUE / _FALSE /
        _UNASSIGNED).  The budget meter is not consulted here: the
        search loop charges it per conflict and per decision.
        """
        trail = self._trail
        assigns = self._assigns
        watches = self._watches
        level = self._level
        reason = self._reason
        depth = len(self._trail_lim)
        start = qhead = self._qhead
        while qhead < len(trail):
            false_lit = trail[qhead] ^ 1
            qhead += 1
            watchers = watches[false_lit]
            if not watchers:
                continue
            # Clauses that keep watching false_lit, in their old order.
            watches[false_lit] = kept = []
            pending = iter(watchers)
            for clause in pending:
                first = clause[0]
                if first == false_lit:
                    first = clause[0] = clause[1]
                    clause[1] = false_lit
                if assigns[first] == 1:
                    kept.append(clause)
                    continue
                for k in range(2, len(clause)):
                    other = clause[k]
                    if assigns[other] != 0:
                        clause[1] = other
                        clause[k] = false_lit
                        watches[other].append(clause)
                        break
                else:
                    kept.append(clause)
                    if assigns[first] == 0:
                        # Conflict: keep the remaining watchers and report.
                        kept.extend(pending)
                        self._propagations += qhead - start
                        self._qhead = len(trail)
                        return clause
                    assigns[first] = 1
                    assigns[first ^ 1] = 0
                    v = first >> 1
                    level[v] = depth
                    reason[v] = clause
                    trail.append(first)
        self._propagations += qhead - start
        self._qhead = qhead
        return None

    # ------------------------------------------------------------------
    # Conflict analysis
    # ------------------------------------------------------------------

    def _analyze(self, conflict: _Clause) -> tuple[List[int], int]:
        """First-UIP analysis; returns (learned clause, backtrack level).

        The asserting literal is placed at index 0 of the result and a
        literal from the backtrack level (if any) at index 1, so the
        clause can be attached with correct watches immediately.
        """
        learned: List[int] = []
        seen = self._seen
        counter = 0
        asserting = -1
        reason: Optional[_Clause] = conflict
        index = len(self._trail) - 1
        current_level = len(self._trail_lim)
        while True:
            assert reason is not None
            self._bump_clause(reason)
            for q in reason:
                if q == asserting:
                    continue
                v = q >> 1
                if not seen[v] and self._level[v] > 0:
                    seen[v] = True
                    self._bump_var(v)
                    if self._level[v] >= current_level:
                        counter += 1
                    else:
                        learned.append(q)
            while not seen[self._trail[index] >> 1]:
                index -= 1
            asserting = self._trail[index]
            index -= 1
            seen[asserting >> 1] = False
            counter -= 1
            if counter == 0:
                break
            reason = self._reason[asserting >> 1]
        # Learned-clause minimization: drop literals implied by the rest.
        abstract_levels = 0
        for q in learned:
            abstract_levels |= 1 << (self._level[q >> 1] & 31)
        kept = [
            q
            for q in learned
            if self._reason[q >> 1] is None
            or not self._redundant(q, abstract_levels)
        ]
        for q in learned:
            seen[q >> 1] = False
        result = [asserting ^ 1] + kept
        if len(result) == 1:
            return result, 0
        max_i = 1
        for i in range(2, len(result)):
            if self._level[result[i] >> 1] > self._level[result[max_i] >> 1]:
                max_i = i
        result[1], result[max_i] = result[max_i], result[1]
        return result, self._level[result[1] >> 1]

    def _redundant(self, ilit: int, abstract_levels: int) -> bool:
        """Check whether a learned literal is implied by the others.

        Literals already marked in ``self._seen`` are the other learned
        literals; a literal is redundant if its reason-graph ancestry
        bottoms out in such literals.
        """
        stack = [ilit]
        marked: List[int] = []
        seen = self._seen
        while stack:
            p = stack.pop()
            reason = self._reason[p >> 1]
            assert reason is not None
            for q in reason:
                v = q >> 1
                if q == p or seen[v] or self._level[v] == 0:
                    continue
                if (
                    self._reason[v] is None
                    or not (1 << (self._level[v] & 31)) & abstract_levels
                ):
                    for w in marked:
                        seen[w] = False
                    return False
                seen[v] = True
                marked.append(v)
                stack.append(q)
        for w in marked:
            seen[w] = False
        return True

    # ------------------------------------------------------------------
    # Activities
    # ------------------------------------------------------------------

    def _bump_var(self, v: int) -> None:
        self._activity[v] += self._var_inc
        heapq.heappush(self._order, (-self._activity[v], v))
        if self._activity[v] > 1e100:
            for i in range(1, self._num_vars + 1):
                self._activity[i] *= 1e-100
            self._var_inc *= 1e-100
            self._rebuild_order()

    def _rebuild_order(self) -> None:
        """One current entry per variable, nothing stale."""
        activity = self._activity
        self._order = [(-activity[v], v) for v in range(1, self._num_vars + 1)]
        heapq.heapify(self._order)

    def _bump_clause(self, clause: _Clause) -> None:
        if not isinstance(clause, _Learned):
            return
        clause.activity += self._cla_inc
        if clause.activity > 1e20:
            for c in self._learned:
                c.activity *= 1e-20
            self._cla_inc *= 1e-20

    def _decay(self) -> None:
        self._var_inc *= self._var_decay
        self._cla_inc *= self._cla_decay

    def _decide(self) -> int:
        """Pop the unassigned variable with the highest activity."""
        assigns = self._assigns
        while self._order:
            neg_act, v = heapq.heappop(self._order)
            if assigns[2 * v] == _UNASSIGNED and -neg_act == self._activity[v]:
                # Push back so the variable re-enters the queue after
                # backtracking (stale entries are filtered above).
                heapq.heappush(self._order, (neg_act, v))
                return v
            if assigns[2 * v] == _UNASSIGNED:
                heapq.heappush(self._order, (-self._activity[v], v))
        # Heap exhausted or only stale entries: linear fallback.
        for v in range(1, self._num_vars + 1):
            if assigns[2 * v] == _UNASSIGNED:
                return v
        return 0

    # ------------------------------------------------------------------
    # Search
    # ------------------------------------------------------------------

    def _cancel_until(self, level: int) -> None:
        if len(self._trail_lim) <= level:
            return
        bound = self._trail_lim[level]
        assigns = self._assigns
        phase = self._phase
        reason = self._reason
        undone = self._trail[bound:]
        for ilit in undone:
            assigns[ilit] = assigns[ilit ^ 1] = _UNASSIGNED
            v = ilit >> 1
            phase[v] = not ilit & 1
            reason[v] = None
        # Every unassigned variable needs an entry with its current
        # activity in the order heap.  _decide pops the smallest such
        # entry whatever else the heap holds, so how the entries get
        # there does not change the search: when most variables are
        # undone (a restart, the end of a solve that found a model) one
        # heapify replaces a push per variable and drops the stale
        # entries with it.
        if 2 * len(undone) > self._num_vars:
            self._rebuild_order()
        else:
            order = self._order
            activity = self._activity
            for ilit in undone:
                heapq.heappush(order, (-activity[ilit >> 1], ilit >> 1))
        del self._trail[bound:]
        del self._trail_lim[level:]
        self._qhead = min(self._qhead, len(self._trail))
        self._num_assumed_levels = min(self._num_assumed_levels, level)

    def _reduce_db(self) -> None:
        self._learned.sort(key=lambda c: c.activity)
        keep: List[_Learned] = []
        drop = len(self._learned) // 2
        for i, clause in enumerate(self._learned):
            if i < drop and len(clause) > 2 and not self._locked(clause):
                self._detach(clause)
            else:
                keep.append(clause)
        self._learned = keep

    def _locked(self, clause: _Clause) -> bool:
        return self._reason[clause[0] >> 1] is clause

    def _search(self, budget: int, assumptions: List[int]) -> Optional[bool]:
        """Run CDCL for up to `budget` conflicts.

        Returns True (sat), False (unsat / assumption conflict), or None
        when the conflict budget is exhausted (caller restarts).
        """
        conflicts_here = 0
        meter = self._meter
        while True:
            conflict = self._propagate()
            if conflict is not None:
                self._conflicts += 1
                conflicts_here += 1
                if meter is not None:
                    meter.on_conflict()
                if not self._trail_lim:
                    # Conflict with no decisions and no assumptions.
                    self._ok = False
                    return False
                if len(self._trail_lim) <= self._num_assumed_levels:
                    # The conflict only depends on assumptions.
                    self._extract_failed(assumptions)
                    return False
                learned, bt_level = self._analyze(conflict)
                bt_level = max(bt_level, self._num_assumed_levels)
                if len(learned) == 1:
                    self._cancel_until(0)
                    self._next_assumption = 0
                    if not self._enqueue(learned[0], None):
                        self._ok = False
                        return False
                else:
                    self._cancel_until(bt_level)
                    clause = _Learned(learned)
                    self._learned.append(clause)
                    self._attach(clause)
                    self._bump_clause(clause)
                    self._enqueue(learned[0], clause)
                self._decay()
                if len(self._learned) > self._max_learned:
                    self._reduce_db()
                    self._max_learned = int(self._max_learned * 1.3)
                if conflicts_here >= budget:
                    return None
                continue
            if self._next_assumption < len(assumptions):
                ilit = assumptions[self._next_assumption]
                self._next_assumption += 1
                val = self._assigns[ilit]
                if val == _TRUE:
                    continue
                if val == _FALSE:
                    self._extract_failed(assumptions)
                    return False
                self._trail_lim.append(len(self._trail))
                self._num_assumed_levels = len(self._trail_lim)
                self._enqueue(ilit, None)
                continue
            v = self._decide()
            if v == 0:
                # Indexed by variable: the values of the positive literals.
                self._model = self._assigns[::2]
                return True
            self._decisions += 1
            if meter is not None:
                meter.on_decision()
            self._trail_lim.append(len(self._trail))
            self._enqueue(2 * v + (0 if self._phase[v] else 1), None)

    def _extract_failed(self, assumptions: List[int]) -> None:
        self._failed_assumptions = [
            self._external(a)
            for a in assumptions
            if self._assigns[a] != _UNASSIGNED
        ]
