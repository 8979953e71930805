"""A reduced ordered binary decision diagram (ROBDD) manager.

This is the BDD backend of the paper: the high-performance decision
diagram library used both for bounded model checking and for the state
set transformer abstraction (pre/post image via existential
quantification, variable renaming between transformer variable sets).

Encoding (complement edges)
---------------------------
* A function is an integer *handle* ``2 * index + complement``.  Index
  0 is the only terminal, so ``FALSE == 0`` and ``TRUE == 1``, and
  ``not_(f)`` is ``f ^ 1``: no node, no cache, no kernel.
* Node ``index`` stores a *level* (its position in the variable
  order), a low child handle (level-variable = False) and a high child
  handle, in three parallel lists.  Canonical form: the stored high
  edge is never complemented (``_mk`` pushes a complemented high edge
  onto the result handle), so a function and its negation share every
  node and equal functions have equal handles.
* :meth:`Bdd.low`, :meth:`Bdd.high` and :meth:`Bdd.level_of` take a
  handle and return *semantic* cofactors; code outside this module
  never sees the stored edges.
* One unique table per level and every computed cache are keyed by a
  single int (``a * _KEY + b``).  Handle arithmetic mints a fresh int
  object per use, and a tuple key would keep two of them alive per
  entry; one packed int per entry keeps the heap below the
  two-terminal layout this replaced.

Kernel architecture
-------------------
All kernels are *iterative*, on one work stack of ints (three per
suspended node: cache key, level, the other child), so deep BDDs from
wide packet types can never hit the interpreter's recursion limit:

* ``and`` — the conjunction kernel (commutative key normalization);
  ``or_`` is De Morgan on the same kernel and cache, so disjunctions
  and conjunctions share work;
* ``xor`` — keyed on uncomplemented operands (``iff`` is ``xor ^ 1``);
* both resolve children that are terminal, identical, complementary or
  already cached inline, so the typical call — a single expansion —
  never pushes a frame;
* ``ite`` — the 3-operand kernel; triples with a constant or
  complementary branch reduce to the binary kernels;
* ``exists`` — quantification with early termination at quantified
  levels (``forall`` is ``¬exists¬``; ``and_exists``, the relational
  product of transformer pre/post images, is ``and`` then ``exists``
  under one public op);
* ``restrict/rename/permute`` — one substitution kernel; all three
  commute with negation, so its caches are keyed on uncomplemented
  handles;
* ``and_many/or_many`` — balanced-tree reduction (a linear fold builds
  lopsided intermediates whose sizes accumulate).

Public ops resolve terminal, identical and complementary operands
before any bookkeeping; only calls that reach a kernel are counted in
:class:`BddStats`.  The manager opens no trace spans: a phase span
(compile, one transformer image) reads these counters at its end.

The manager deliberately exposes levels == variable indices: variable
``i`` sits at level ``i`` in the order.  Callers that need a specific
interleaving (e.g. transformer input/output pairing) allocate their
variables in the desired order, mirroring how Zen's ordering heuristic
chooses an allocation before building any BDDs.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..errors import ZenSolverError

FALSE = 0
TRUE = 1

_TERMINAL_LEVEL = 1 << 30

# Packed keys are ``a * _KEY + b`` — ``a << 32 | b`` as one multiply-add
# — for handles a, b < 2**32; ``divmod(key, _KEY)`` unpacks.
_KEY = 1 << 32


class BddStats:
    """Op-level counters for a :class:`Bdd` manager.

    * ``calls``        — public-op invocations that reached a kernel;
    * ``cache_hits`` / ``cache_misses`` — per-kernel computed-cache
      behaviour (a miss is one node expansion of that kernel);
    * ``peak_nodes``   — high-water mark of the node store;
    * ``node_count``   — store size when :meth:`Bdd.stats` was called.
    """

    __slots__ = (
        "calls",
        "cache_hits",
        "cache_misses",
        "peak_nodes",
        "node_count",
    )

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        """Zero all counters (peak restarts from the current table)."""
        self.calls: Dict[str, int] = {}
        self.cache_hits: Dict[str, int] = {}
        self.cache_misses: Dict[str, int] = {}
        self.peak_nodes = 0
        self.node_count = 0

    def hit_rate(self, op: str) -> float:
        """Cache hit rate of one kernel (0.0 when it never ran)."""
        hits = self.cache_hits.get(op, 0)
        misses = self.cache_misses.get(op, 0)
        total = hits + misses
        return hits / total if total else 0.0

    def as_dict(self) -> dict:
        """Plain-dict snapshot (JSON-serializable)."""
        ops = sorted(set(self.cache_hits) | set(self.cache_misses))
        return {
            "calls": dict(self.calls),
            "cache_hits": dict(self.cache_hits),
            "cache_misses": dict(self.cache_misses),
            "cache_hit_rate": {op: round(self.hit_rate(op), 4) for op in ops},
            "peak_nodes": self.peak_nodes,
            "node_count": self.node_count,
        }

    def snapshot(self) -> dict:
        """Flat numeric snapshot (the shared counter protocol).

        Keys are ``calls.<op>`` / ``cache_hits.<op>`` /
        ``cache_misses.<op>`` plus ``peak_nodes`` and ``node_count``;
        every value is a plain number, so
        :func:`repro.telemetry.delta` can diff two snapshots.
        """
        out: dict = {}
        for op, count in self.calls.items():
            out[f"calls.{op}"] = count
        for op, hits in self.cache_hits.items():
            out[f"cache_hits.{op}"] = hits
        for op, misses in self.cache_misses.items():
            out[f"cache_misses.{op}"] = misses
        out["peak_nodes"] = self.peak_nodes
        out["node_count"] = self.node_count
        return out

    def reset_counters(self) -> None:
        """Canonical reset spelling (alias of :meth:`reset`)."""
        self.reset()

    def summary(self) -> str:
        """A human-readable table of the counters."""
        lines = [
            f"nodes: {self.node_count} (peak {self.peak_nodes})",
            f"{'op':>12} {'calls':>9} {'hits':>10} {'misses':>10} {'hit%':>6}",
        ]
        ops = sorted(
            set(self.calls) | set(self.cache_hits) | set(self.cache_misses)
        )
        for op in ops:
            hits = self.cache_hits.get(op, 0)
            misses = self.cache_misses.get(op, 0)
            rate = 100.0 * self.hit_rate(op)
            lines.append(
                f"{op:>12} {self.calls.get(op, 0):>9} {hits:>10} "
                f"{misses:>10} {rate:>6.1f}"
            )
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"BddStats({self.as_dict()!r})"


class Bdd:
    """A BDD manager with a fixed (append-only) variable order.

    >>> m = Bdd()
    >>> x, y = m.new_var(), m.new_var()
    >>> f = m.and_(x, y)
    >>> m.evaluate(f, {0: True, 1: True})
    True
    """

    def __init__(self) -> None:
        # Node storage by node index (handle >> 1); index 0 is the
        # terminal.  Stored high edges are never complemented.
        self._level: List[int] = [_TERMINAL_LEVEL]
        self._low: List[int] = [FALSE]
        self._high: List[int] = [FALSE]
        # One unique table per level: low * _KEY + high -> handle.
        self._unique: List[Dict[int, int]] = []
        # Computed caches, all keyed by one packed int.  The quantify
        # and substitution caches are two-level: the outer key is the
        # query (level set, mapping), the inner a handle.
        self._and_cache: Dict[int, int] = {}
        self._xor_cache: Dict[int, int] = {}
        self._ite_cache: Dict[int, int] = {}
        self._quantify_cache: Dict[frozenset, Dict[int, int]] = {}
        self._subst_cache: Dict[Tuple[str, frozenset], Dict[int, int]] = {}
        self._num_vars = 0
        self._stats = BddStats()
        # Cooperative resource governance (duck-typed BudgetMeter; the
        # manager never imports repro.core.budget).  Two checkpoints:
        # every allocation (_mk and its inlined copies in _and/_xor)
        # trips the node cap at the crossing node and looks at the
        # clock every 256th, and every kernel ticks each 1024
        # expansions for runs that allocate nothing.  Unmetered, each
        # costs one test.
        self._budget = None
        # Node cap; no node index reaches _KEY, so that means "none".
        self._node_cap = _KEY

    # ------------------------------------------------------------------
    # Resource governance
    # ------------------------------------------------------------------

    @property
    def budget(self):
        """The installed budget meter, or None."""
        return self._budget

    def set_budget(self, budget) -> None:
        """Install (or clear, with None) a budget meter on the manager.

        Accepts a :class:`repro.core.budget.Budget` or a running
        meter.  ``max_bdd_nodes`` caps the manager's *cumulative*
        allocation count (the node store is append-only, so that is
        the quantity that exhausts memory).  The install fails fast —
        before replacing any previous meter — when the manager is
        already over the node cap.
        """
        if budget is not None and not hasattr(budget, "tick"):
            budget = budget.start()
        if budget is not None:
            budget.tick(len(self._level))
        self._budget = budget
        # Cache the numeric node cap so an allocation can trip it
        # exactly at the crossing (the periodic ticks alone would let
        # small workloads finish entirely between checkpoints).
        cap = getattr(getattr(budget, "budget", None), "max_bdd_nodes", None)
        self._node_cap = _KEY if cap is None else cap

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------

    def stats(self) -> BddStats:
        """The live op-level statistics for this manager."""
        st = self._stats
        st.node_count = len(self._level)
        # The store is append-only, so the peak is its current size.
        if st.node_count > st.peak_nodes:
            st.peak_nodes = st.node_count
        return st

    def reset_stats(self) -> None:
        """Zero all statistics counters."""
        self._stats.reset()

    def snapshot(self) -> dict:
        """Flat numeric counter snapshot (shared counter protocol)."""
        return self.stats().snapshot()

    def reset_counters(self) -> None:
        """Canonical reset spelling (alias of :meth:`reset_stats`)."""
        self.reset_stats()

    def _run(self, op: str, kernel: Callable[..., int], *args) -> int:
        """Count one public op that reached its kernel, and run it."""
        calls = self._stats.calls
        calls[op] = calls.get(op, 0) + 1
        return kernel(*args)

    def _count_cache(self, op: str, hits: int, misses: int) -> None:
        st = self._stats
        if hits:
            st.cache_hits[op] = st.cache_hits.get(op, 0) + hits
        if misses:
            st.cache_misses[op] = st.cache_misses.get(op, 0) + misses

    # ------------------------------------------------------------------
    # Variables and raw nodes
    # ------------------------------------------------------------------

    @property
    def num_vars(self) -> int:
        """Number of variables in the order."""
        return self._num_vars

    @property
    def num_nodes(self) -> int:
        """Total allocated node count (including the terminal)."""
        return len(self._level)

    def new_var(self) -> int:
        """Append a fresh variable to the order; returns the var node.

        The returned node is the BDD for the variable itself.  The
        variable's index (== level) is ``num_vars - 1`` afterwards.
        """
        level = self._num_vars
        self._num_vars += 1
        self._unique.append({})
        return self._mk(level, FALSE, TRUE)

    def new_vars(self, count: int) -> List[int]:
        """Append `count` fresh variables; returns their var nodes."""
        return [self.new_var() for _ in range(count)]

    def var(self, index: int) -> int:
        """The BDD node for an existing variable index."""
        if not 0 <= index < self._num_vars:
            raise ZenSolverError(f"unknown BDD variable {index}")
        return self._mk(index, FALSE, TRUE)

    def nvar(self, index: int) -> int:
        """The BDD node for the negation of a variable."""
        return self.var(index) ^ 1

    def level_of(self, node: int) -> int:
        """Level (variable index) labeling an internal node."""
        return self._level[node >> 1]

    def low(self, node: int) -> int:
        """Low (False) cofactor of an internal node."""
        return self._low[node >> 1] ^ (node & 1)

    def high(self, node: int) -> int:
        """High (True) cofactor of an internal node."""
        return self._high[node >> 1] ^ (node & 1)

    def is_terminal(self, node: int) -> bool:
        """True for the FALSE/TRUE terminals."""
        return node < 2

    def _mk(self, level: int, low: int, high: int) -> int:
        if low == high:
            return low
        # Canonical form: a complemented high edge moves to the result.
        flip = high & 1
        if flip:
            low ^= 1
            high ^= 1
        table = self._unique[level]
        key = low * _KEY + high
        node = table.get(key)
        if node is None:
            index = len(self._level)
            node = index << 1
            self._level.append(level)
            self._low.append(low)
            self._high.append(high)
            table[key] = node
            # Allocation-time checkpoint: workloads made of many small
            # kernels never reach the per-kernel tick interval, so the
            # node cap is enforced here — exactly at the crossing
            # allocation, plus a periodic deadline check.
            if self._budget is not None and (
                index >= self._node_cap or not index & 255
            ):
                self._budget.tick(index + 1)
        return node ^ flip

    # ------------------------------------------------------------------
    # Core operations
    # ------------------------------------------------------------------

    def not_(self, f: int) -> int:
        """Negation: flips the handle's complement bit."""
        return f ^ 1

    def and_(self, f: int, g: int) -> int:
        """Conjunction."""
        if f < 2:
            return g if f else FALSE
        if g < 2:
            return f if g else FALSE
        if f == g:
            return f
        if f ^ g == 1:
            return FALSE
        calls = self._stats.calls
        calls["and"] = calls.get("and", 0) + 1
        return self._and(f, g)

    def or_(self, f: int, g: int) -> int:
        """Disjunction (De Morgan on the conjunction kernel)."""
        if f < 2:
            return TRUE if f else g
        if g < 2:
            return TRUE if g else f
        if f == g:
            return f
        if f ^ g == 1:
            return TRUE
        calls = self._stats.calls
        calls["or"] = calls.get("or", 0) + 1
        return self._and(f ^ 1, g ^ 1) ^ 1

    def xor(self, f: int, g: int) -> int:
        """Exclusive or."""
        flip = (f ^ g) & 1
        if f & 1:
            f ^= 1
        if g & 1:
            g ^= 1
        if f == g:
            return flip
        if not f:
            return g ^ flip
        if not g:
            return f ^ flip
        calls = self._stats.calls
        calls["xor"] = calls.get("xor", 0) + 1
        return self._xor(f, g) ^ flip

    def iff(self, f: int, g: int) -> int:
        """Equivalence."""
        return self.xor(f, g) ^ 1

    def implies(self, f: int, g: int) -> int:
        """Implication."""
        return self.and_(f, g ^ 1) ^ 1

    def diff(self, f: int, g: int) -> int:
        """Set difference f AND NOT g."""
        return self.and_(f, g ^ 1)

    def ite(self, f: int, g: int, h: int) -> int:
        """If-then-else: (f AND g) OR (NOT f AND h)."""
        if f < 2:
            return g if f else h
        if g == h:
            return g
        calls = self._stats.calls
        calls["ite"] = calls.get("ite", 0) + 1
        return self._ite(f, g, h)

    def _conj(self, f: int, g: int) -> int:
        """Conjunction for kernels: any operands, no bookkeeping."""
        if f < 2:
            return g if f else FALSE
        if g < 2:
            return f if g else FALSE
        if f == g:
            return f
        if f ^ g == 1:
            return FALSE
        return self._and(f, g)

    def _and(self, f: int, g: int) -> int:
        """Conjunction kernel.

        Operands are non-terminal, distinct and not complementary (the
        callers resolve those).  A frame on the work stack is a
        suspended node: its cache key, its level (complemented once the
        low result is in) and the other child — the low result, the
        high result, or the high child's key while it is still pending
        (keys are >= ``_KEY``, handles below it).
        """
        if f > g:
            f, g = g, f
        key = f * _KEY + g
        cache = self._and_cache
        r = cache.get(key)
        if r is not None:
            hit = self._stats.cache_hits
            hit["and"] = hit.get("and", 0) + 1
            return r
        levels = self._level
        lows = self._low
        highs = self._high
        uniques = self._unique
        meter = self._budget
        cap = self._node_cap
        stack: List[int] = []
        push = stack.append
        pop = stack.pop
        hits = 0
        misses = 0
        while True:
            # Expand (f, g): f < g, non-trivial, not in the cache.
            misses += 1
            if meter is not None and not misses & 1023:
                meter.tick(len(levels))
            i = f >> 1
            j = g >> 1
            lf = levels[i]
            lg = levels[j]
            if lf <= lg:
                lv = lf
                if f & 1:
                    f0 = lows[i] ^ 1
                    f1 = highs[i] ^ 1
                else:
                    f0 = lows[i]
                    f1 = highs[i]
            else:
                lv = lg
                f0 = f1 = f
            if lg == lv:
                if g & 1:
                    g0 = lows[j] ^ 1
                    g1 = highs[j] ^ 1
                else:
                    g0 = lows[j]
                    g1 = highs[j]
            else:
                g0 = g1 = g
            # Resolve each child inline; -1 marks one left pending.
            if f0 < 2:
                r0 = g0 if f0 else FALSE
            elif g0 < 2:
                r0 = f0 if g0 else FALSE
            elif f0 == g0:
                r0 = f0
            elif f0 ^ g0 == 1:
                r0 = FALSE
            else:
                if f0 > g0:
                    f0, g0 = g0, f0
                k0 = f0 * _KEY + g0
                r0 = cache.get(k0, -1)
                if r0 >= 0:
                    hits += 1
            if f1 < 2:
                r1 = g1 if f1 else FALSE
            elif g1 < 2:
                r1 = f1 if g1 else FALSE
            elif f1 == g1:
                r1 = f1
            elif f1 ^ g1 == 1:
                r1 = FALSE
            else:
                if f1 > g1:
                    f1, g1 = g1, f1
                k1 = f1 * _KEY + g1
                r1 = cache.get(k1, -1)
                if r1 >= 0:
                    hits += 1
            if r0 < 0:
                push(key)
                push(lv)
                push(r1 if r1 >= 0 else k1)
                f = f0
                g = g0
                key = k0
                continue
            if r1 < 0:
                push(key)
                push(~lv)
                push(r0)
                f = f1
                g = g1
                key = k1
                continue
            while True:
                # Combine: r = mk(lv, r0, r1), inlined — down to the
                # cache store the same text as in _xor; edit both.
                if r0 == r1:
                    r = r0
                else:
                    flip = r1 & 1
                    if flip:
                        r0 ^= 1
                        r1 ^= 1
                    table = uniques[lv]
                    ukey = r0 * _KEY + r1
                    r = table.get(ukey)
                    if r is None:
                        idx = len(levels)
                        r = idx << 1
                        levels.append(lv)
                        lows.append(r0)
                        highs.append(r1)
                        table[ukey] = r
                        # The allocation checkpoint of _mk.
                        if meter is not None and (
                            idx >= cap or not idx & 255
                        ):
                            meter.tick(idx + 1)
                    if flip:
                        r ^= 1
                cache[key] = r
                if not stack:
                    self._count_cache("and", hits, misses)
                    return r
                other = pop()
                lv = pop()
                key = pop()
                if lv < 0:
                    lv = ~lv
                    r0 = other
                    r1 = r
                elif other < _KEY:
                    r0 = r
                    r1 = other
                else:
                    # The pending high child may have been computed
                    # while the low one was.
                    r1 = cache.get(other, -1)
                    if r1 < 0:
                        push(key)
                        push(~lv)
                        push(r)
                        key = other
                        f, g = divmod(other, _KEY)
                        break
                    hits += 1
                    r0 = r

    def _parity(self, f: int, g: int) -> int:
        """Exclusive or for kernels: any operands, no bookkeeping."""
        flip = (f ^ g) & 1
        if f & 1:
            f ^= 1
        if g & 1:
            g ^= 1
        if f == g:
            return flip
        if not f:
            return g ^ flip
        if not g:
            return f ^ flip
        return self._xor(f, g) ^ flip

    def _xor(self, f: int, g: int) -> int:
        """Exclusive-or kernel; frames as in :meth:`_and`.

        Operands are uncomplemented, non-terminal and distinct:
        complement bits factor out of xor, so callers (and every
        expansion, for the low children — stored high edges are
        uncomplemented already) strip them and flip the result.  The
        stripped parity of a pending low child rides in the frame's
        level slot.
        """
        if f > g:
            f, g = g, f
        key = f * _KEY + g
        cache = self._xor_cache
        r = cache.get(key)
        if r is not None:
            hit = self._stats.cache_hits
            hit["xor"] = hit.get("xor", 0) + 1
            return r
        levels = self._level
        lows = self._low
        highs = self._high
        uniques = self._unique
        meter = self._budget
        cap = self._node_cap
        stack: List[int] = []
        push = stack.append
        pop = stack.pop
        hits = 0
        misses = 0
        while True:
            misses += 1
            if meter is not None and not misses & 1023:
                meter.tick(len(levels))
            i = f >> 1
            j = g >> 1
            lf = levels[i]
            lg = levels[j]
            if lf <= lg:
                lv = lf
                f0 = lows[i]
                f1 = highs[i]
            else:
                lv = lg
                f0 = f1 = f
            if lg == lv:
                g0 = lows[j]
                g1 = highs[j]
            else:
                g0 = g1 = g
            flip0 = (f0 ^ g0) & 1
            if f0 & 1:
                f0 ^= 1
            if g0 & 1:
                g0 ^= 1
            if f0 == g0:
                r0 = flip0
            elif not f0:
                r0 = g0 ^ flip0
            elif not g0:
                r0 = f0 ^ flip0
            else:
                if f0 > g0:
                    f0, g0 = g0, f0
                k0 = f0 * _KEY + g0
                r0 = cache.get(k0, -1)
                if r0 >= 0:
                    hits += 1
                    if flip0:
                        r0 ^= 1
            if f1 == g1:
                r1 = FALSE
            elif not f1:
                r1 = g1
            elif not g1:
                r1 = f1
            else:
                if f1 > g1:
                    f1, g1 = g1, f1
                k1 = f1 * _KEY + g1
                r1 = cache.get(k1, -1)
                if r1 >= 0:
                    hits += 1
            if r0 < 0:
                push(key)
                push(lv << 1 | flip0)
                push(r1 if r1 >= 0 else k1)
                f = f0
                g = g0
                key = k0
                continue
            if r1 < 0:
                push(key)
                push(~lv)
                push(r0)
                f = f1
                g = g1
                key = k1
                continue
            while True:
                # Combine, as in _and; edit both.
                if r0 == r1:
                    r = r0
                else:
                    flip = r1 & 1
                    if flip:
                        r0 ^= 1
                        r1 ^= 1
                    table = uniques[lv]
                    ukey = r0 * _KEY + r1
                    r = table.get(ukey)
                    if r is None:
                        idx = len(levels)
                        r = idx << 1
                        levels.append(lv)
                        lows.append(r0)
                        highs.append(r1)
                        table[ukey] = r
                        # The allocation checkpoint of _mk.
                        if meter is not None and (
                            idx >= cap or not idx & 255
                        ):
                            meter.tick(idx + 1)
                    if flip:
                        r ^= 1
                cache[key] = r
                if not stack:
                    self._count_cache("xor", hits, misses)
                    return r
                other = pop()
                lv = pop()
                key = pop()
                if lv < 0:
                    lv = ~lv
                    r0 = other
                    r1 = r
                    continue
                r0 = r ^ 1 if lv & 1 else r
                lv >>= 1
                if other < _KEY:
                    r1 = other
                    continue
                r1 = cache.get(other, -1)
                if r1 < 0:
                    push(key)
                    push(~lv)
                    push(r0)
                    key = other
                    f, g = divmod(other, _KEY)
                    break
                hits += 1

    def _ite(self, f: int, g: int, h: int) -> int:
        """The 3-operand kernel, for any operands.

        Each triple is first normalized: ``f`` and ``g`` uncomplemented
        (``ite(¬f, g, h) = ite(f, h, g)``, ``ite(f, ¬g, ¬h) =
        ¬ite(f, g, h)``), a branch equal to ``f`` or ``¬f`` replaced by
        the constant it then is.  Triples with a constant or
        complementary branch go to the binary kernels, sharing their
        caches with direct ``and_``/``xor`` calls.  Frames: packed
        triple with the result's complement bit, level (complemented
        once the low result is in), then the pending high triple or the
        low result.
        """
        levels = self._level
        lows = self._low
        highs = self._high
        cache = self._ite_cache
        meter = self._budget
        stack: List[int] = []
        push = stack.append
        pop = stack.pop
        hits = 0
        misses = 0
        while True:
            if f < 2:
                r = g if f else h
            elif g == h:
                r = g
            else:
                if f & 1:
                    f ^= 1
                    g, h = h, g
                if g >> 1 == f >> 1:
                    g = TRUE ^ (g & 1)
                if h >> 1 == f >> 1:
                    h = h & 1
                if g < 2:
                    if h < 2:
                        r = g if g == h else f ^ h
                    elif g:
                        r = self._conj(f ^ 1, h ^ 1) ^ 1
                    else:
                        r = self._conj(f ^ 1, h)
                elif h < 2:
                    r = self._conj(f, g ^ 1) ^ 1 if h else self._conj(f, g)
                elif g ^ h == 1:
                    r = self._parity(f, h)
                else:
                    flip = g & 1
                    if flip:
                        g ^= 1
                        h ^= 1
                    key = (f * _KEY + g) * _KEY + h
                    r = cache.get(key, -1)
                    if r < 0:
                        misses += 1
                        if meter is not None and not misses & 1023:
                            meter.tick(len(levels))
                        i = f >> 1
                        j = g >> 1
                        k = h >> 1
                        lf = levels[i]
                        lg = levels[j]
                        lh = levels[k]
                        lv = lf if lf < lg else lg
                        if lh < lv:
                            lv = lh
                        f0, f1 = (lows[i], highs[i]) if lf == lv else (f, f)
                        g0, g1 = (lows[j], highs[j]) if lg == lv else (g, g)
                        if lh != lv:
                            h0 = h1 = h
                        elif h & 1:
                            h0 = lows[k] ^ 1
                            h1 = highs[k] ^ 1
                        else:
                            h0 = lows[k]
                            h1 = highs[k]
                        push(key << 1 | flip)
                        push(lv)
                        push((f1 * _KEY + g1) * _KEY + h1)
                        f = f0
                        g = g0
                        h = h0
                        continue
                    hits += 1
                    if flip:
                        r ^= 1
            while True:
                if not stack:
                    self._count_cache("ite", hits, misses)
                    return r
                other = pop()
                lv = pop()
                key = pop()
                if lv >= 0:
                    push(key)
                    push(~lv)
                    push(r)
                    other, h = divmod(other, _KEY)
                    f, g = divmod(other, _KEY)
                    break
                r = self._mk(~lv, other, r)
                cache[key >> 1] = r
                if key & 1:
                    r ^= 1

    def and_many(self, nodes: Iterable[int]) -> int:
        """Conjunction of many nodes (balanced-tree reduction).

        A linear fold conjoins every operand into one ever-growing
        accumulator; the balanced tree keeps intermediate results
        small and independent, which also makes their cache entries
        reusable across calls.
        """
        return self._run("and_many", self._conj_many, list(nodes))

    def or_many(self, nodes: Iterable[int]) -> int:
        """Disjunction of many nodes (balanced-tree reduction)."""
        negated = [n ^ 1 for n in nodes]
        return self._run("or_many", self._conj_many, negated) ^ 1

    def _conj_many(self, pending: List[int]) -> int:
        pending = [n for n in pending if n != TRUE]
        if FALSE in pending:
            return FALSE
        if not pending:
            return TRUE
        while len(pending) > 1:
            merged: List[int] = []
            for i in range(0, len(pending) - 1, 2):
                node = self._conj(pending[i], pending[i + 1])
                if node == FALSE:
                    return FALSE
                merged.append(node)
            if len(pending) & 1:
                merged.append(pending[-1])
            pending = merged
        return pending[0]

    # ------------------------------------------------------------------
    # Quantification, substitution, restriction
    # ------------------------------------------------------------------

    def exists(self, f: int, variables: Iterable[int]) -> int:
        """Existential quantification over variable indices."""
        level_set = frozenset(variables)
        if not level_set or f < 2:
            return f
        top = max(level_set)
        return self._run("exists", self._quantify, f, level_set, top)

    def forall(self, f: int, variables: Iterable[int]) -> int:
        """Universal quantification over variable indices."""
        level_set = frozenset(variables)
        if not level_set or f < 2:
            return f
        top = max(level_set)
        return self._run("forall", self._quantify, f ^ 1, level_set, top) ^ 1

    def _quantify(self, f: int, level_set: frozenset, max_level: int) -> int:
        """Existential quantification kernel, for any operand.

        ``max_level`` is hoisted once per query: a node below it
        cannot contain a quantified variable and is returned as-is
        (and cached, like every other result).
        Frames: handle, level (complemented once the low result is
        in), then the high child or the low result.  At a quantified
        level a low result of TRUE ends the node: its high child is
        never visited.
        """
        levels = self._level
        lows = self._low
        highs = self._high
        cache = self._quantify_cache.get(level_set)
        if cache is None:
            cache = self._quantify_cache[level_set] = {}
        meter = self._budget
        stack: List[int] = []
        push = stack.append
        pop = stack.pop
        hits = 0
        misses = 0
        while True:
            if f < 2:
                r = f
            else:
                r = cache.get(f, -1)
                if r >= 0:
                    hits += 1
                elif levels[f >> 1] > max_level:
                    r = cache[f] = f
                else:
                    misses += 1
                    if meter is not None and not misses & 1023:
                        meter.tick(len(levels))
                    i = f >> 1
                    push(f)
                    push(levels[i])
                    if f & 1:
                        push(highs[i] ^ 1)
                        f = lows[i] ^ 1
                    else:
                        push(highs[i])
                        f = lows[i]
                    continue
            while True:
                if not stack:
                    self._count_cache("exists", hits, misses)
                    return r
                other = pop()
                lv = pop()
                key = pop()
                if lv >= 0:
                    if r == TRUE and lv in level_set:
                        cache[key] = TRUE
                        continue
                    push(key)
                    push(~lv)
                    push(r)
                    f = other
                    break
                lv = ~lv
                if lv not in level_set:
                    r = self._mk(lv, other, r)
                elif other != r:
                    r = self._conj(other ^ 1, r ^ 1) ^ 1
                cache[key] = r

    def and_exists(self, f: int, g: int, variables: Iterable[int]) -> int:
        """Relational product: ``exists(and_(f, g), variables)``.

        The defining operation of transformer image computation
        ("conjoin the relation, then existentially quantify"), as one
        public op: one call count per image.
        """
        level_set = frozenset(variables)
        return self._run("and_exists", self._relprod, f, g, level_set)

    def _relprod(self, f: int, g: int, level_set: frozenset) -> int:
        conj = self._conj(f, g)
        if not level_set:
            return conj
        return self._quantify(conj, level_set, max(level_set))

    def restrict(self, f: int, assignment: Dict[int, bool]) -> int:
        """Cofactor: fix some variables to constants."""
        if not assignment or f < 2:
            return f
        return self._run(
            "restrict", self._substitute, f, "restrict", assignment, {}
        )

    def _substitute(
        self,
        f: int,
        op: str,
        assignment: Dict[int, bool],
        mapping: Dict[int, int],
        ordered: bool = True,
    ) -> int:
        """The restrict/rename/permute kernel, for any operand.

        Fixes the levels in `assignment` to constants and relabels the
        levels in `mapping`; each public op passes one of the two.
        When the relabelling keeps the order (``ordered``) a node is
        made directly at its new level, otherwise it is rebuilt with
        ``ite`` on its new variable.  All three commute with negation,
        so the per-query cache is keyed on uncomplemented handles.
        Frames: handle with the result's complement bit, new level
        (complemented once the low result is in), then the high child
        or the low result.
        """
        query = (op, frozenset((assignment or mapping).items()))
        cache = self._subst_cache.get(query)
        if cache is None:
            cache = self._subst_cache[query] = {}
        levels = self._level
        lows = self._low
        highs = self._high
        meter = self._budget
        stack: List[int] = []
        push = stack.append
        pop = stack.pop
        hits = 0
        misses = 0
        while True:
            # Walk down assigned levels; the chain contributes nothing
            # to the result graph but the complement bits it crosses.
            flip = 0
            while f >= 2:
                i = f >> 1
                decided = assignment.get(levels[i])
                if decided is None:
                    break
                flip ^= f & 1
                f = highs[i] if decided else lows[i]
            if f < 2:
                r = f ^ flip
            else:
                if f & 1:
                    f ^= 1
                    flip ^= 1
                r = cache.get(f, -1)
                if r < 0:
                    misses += 1
                    if meter is not None and not misses & 1023:
                        meter.tick(len(levels))
                    i = f >> 1
                    lv = levels[i]
                    push(f | flip)
                    push(mapping.get(lv, lv))
                    push(highs[i])
                    f = lows[i]
                    continue
                hits += 1
                if flip:
                    r ^= 1
            while True:
                if not stack:
                    self._count_cache(op, hits, misses)
                    return r
                other = pop()
                lv = pop()
                key = pop()
                if lv >= 0:
                    push(key)
                    push(~lv)
                    push(r)
                    f = other
                    break
                if ordered:
                    r = self._mk(~lv, other, r)
                else:
                    r = self._ite(self._mk(~lv, FALSE, TRUE), r, other)
                if key & 1:
                    cache[key ^ 1] = r
                    r ^= 1
                else:
                    cache[key] = r

    def compose(self, f: int, var_index: int, g: int) -> int:
        """Substitute BDD `g` for variable `var_index` in `f`."""
        # f[x := g] = ite(g, f[x:=1], f[x:=0])
        f1 = self.restrict(f, {var_index: True})
        f0 = self.restrict(f, {var_index: False})
        return self.ite(g, f1, f0)

    def rename(self, f: int, mapping: Dict[int, int]) -> int:
        """Rename variables per `mapping` (old index -> new index).

        Requires the mapping to be strictly monotone on the support of
        `f` (preserving relative order), so the renamed graph remains
        ordered.  This matches how transformer image computation uses
        renaming: quantify one variable set away, then shift the other.
        Raises :class:`ZenSolverError` if order would be violated.
        """
        if not mapping:
            return f
        support = self.support(f)
        images = [mapping.get(v, v) for v in support]
        if any(b <= a for a, b in zip(images, images[1:])):
            raise ZenSolverError(
                "rename mapping does not preserve variable order; "
                "use compose for non-monotone substitutions"
            )
        for new_index in mapping.values():
            if not 0 <= new_index < self._num_vars:
                raise ZenSolverError(f"unknown BDD variable {new_index}")
        return self._run("rename", self._substitute, f, "rename", {}, mapping)

    def permute(self, f: int, mapping: Dict[int, int]) -> int:
        """Rename variables by an arbitrary (possibly non-monotone) map.

        Unlike :meth:`rename`, the result is rebuilt with ``ite`` so
        any injective mapping is allowed; cost can be super-linear when
        the mapping reorders levels.
        """
        if not mapping:
            return f
        targets = list(mapping.values())
        if len(set(targets)) != len(targets):
            raise ZenSolverError("permute mapping must be injective")
        for new_index in targets:
            if not 0 <= new_index < self._num_vars:
                raise ZenSolverError(f"unknown BDD variable {new_index}")
        return self._run(
            "permute", self._substitute, f, "permute", {}, mapping, False
        )

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def evaluate(self, f: int, assignment: Dict[int, bool]) -> bool:
        """Evaluate under a total (or sufficient) assignment.

        Missing variables default to False.
        """
        node = f
        while node >= 2:
            index = node >> 1
            if assignment.get(self._level[index], False):
                child = self._high[index]
            else:
                child = self._low[index]
            node = child ^ (node & 1)
        return node == TRUE

    def _reachable(self, f: int) -> List[int]:
        """Indices of the distinct internal nodes reachable from `f`."""
        visited: set[int] = set()
        stack = [f >> 1]
        while stack:
            index = stack.pop()
            if not index or index in visited:
                continue
            visited.add(index)
            stack.append(self._low[index] >> 1)
            stack.append(self._high[index] >> 1)
        return list(visited)

    def support(self, f: int) -> List[int]:
        """Sorted variable indices that `f` depends on."""
        return sorted({self._level[index] for index in self._reachable(f)})

    def node_count(self, f: int) -> int:
        """Number of distinct internal nodes reachable from `f`."""
        return len(self._reachable(f))

    def sat_count(self, f: int, num_vars: Optional[int] = None) -> int:
        """Number of satisfying assignments over `num_vars` variables.

        Defaults to the manager's full variable count.  Iterative
        post-order worklist, so counting over deep BDDs (wide packet
        types) cannot hit the recursion limit.
        """
        if num_vars is None:
            num_vars = self._num_vars
        levels = self._level
        lows = self._low
        highs = self._high

        def models(handle: int, above: int) -> int:
            # Models of `handle` over the variables from level `above`
            # down; a complemented handle counts the rest of its span.
            index = handle >> 1
            level = levels[index] if index else num_vars
            count = memo[index]
            if handle & 1:
                count = (1 << (num_vars - level)) - count
            return count << (level - above)

        # memo[index] = models of the uncomplemented node over the
        # variables from its own level down.
        memo: Dict[int, int] = {0: 0}
        stack = [f >> 1]
        meter = self._budget
        ticks = 0
        while stack:
            ticks += 1
            if meter is not None and not (ticks & 1023):
                meter.tick(len(levels))
            index = stack[-1]
            if index in memo:
                stack.pop()
                continue
            low, high = lows[index], highs[index]
            if low >> 1 not in memo or high >> 1 not in memo:
                stack.append(low >> 1)
                stack.append(high >> 1)
                continue
            below = levels[index] + 1
            memo[index] = models(low, below) + models(high, below)
            stack.pop()
        return models(f, 0)

    def any_sat(self, f: int) -> Optional[Dict[int, bool]]:
        """One satisfying assignment (partial: only decided levels)."""
        if f == FALSE:
            return None
        assignment: Dict[int, bool] = {}
        node = f
        while node >= 2:
            index = node >> 1
            flip = node & 1
            low = self._low[index] ^ flip
            if low != FALSE:
                assignment[self._level[index]] = False
                node = low
            else:
                assignment[self._level[index]] = True
                node = self._high[index] ^ flip
        return assignment

    def iter_sat(self, f: int) -> Iterator[Dict[int, bool]]:
        """Iterate over satisfying paths as partial assignments.

        Unmentioned variables are don't-cares on that path.
        """
        stack: List[Tuple[int, Dict[int, bool]]] = [(f, {})]
        while stack:
            node, path = stack.pop()
            if node == TRUE:
                yield path
                continue
            if node == FALSE:
                continue
            level = self.level_of(node)
            high_path = dict(path)
            high_path[level] = True
            stack.append((self.high(node), high_path))
            low_path = dict(path)
            low_path[level] = False
            stack.append((self.low(node), low_path))

    def pick_assignment(
        self, f: int, variables: Sequence[int]
    ) -> Optional[Dict[int, bool]]:
        """A total assignment over `variables` satisfying `f`."""
        partial = self.any_sat(f)
        if partial is None:
            return None
        return {v: partial.get(v, False) for v in variables}

    # ------------------------------------------------------------------
    # Bulk helpers
    # ------------------------------------------------------------------

    def cube(self, literals: Dict[int, bool]) -> int:
        """Conjunction of variable literals (index -> polarity).

        Built bottom-up directly with ``_mk`` — a cube is a single
        path, so no apply traversals are needed.
        """
        order = sorted(literals, reverse=True)
        if order and not 0 <= order[-1] <= order[0] < self._num_vars:
            bad = order[0] if order[0] >= self._num_vars else order[-1]
            raise ZenSolverError(f"unknown BDD variable {bad}")
        result = TRUE
        for index in order:
            if literals[index]:
                result = self._mk(index, FALSE, result)
            else:
                result = self._mk(index, result, FALSE)
        return result

    # ------------------------------------------------------------------
    # Node tables: sets over one block of levels, as flat ints
    # ------------------------------------------------------------------

    def export_table(
        self, roots: Sequence[int], base: int, width: int
    ) -> Tuple[List[int], List[int]]:
        """The nodes under `roots` as one table, and a reference per root.

        Flat ``slot, low, high`` rows, children first, ``slot = level -
        base``; a reference is ``2 * row + complement`` with row 0 the
        terminal, like a handle.  One post-order walk over all roots
        writes a shared node once; it follows structure, not indices,
        so equal sets give equal tables in any manager: it is the
        canonical structural form tests compare sets of two managers
        by.  A level outside ``[base, base + width)`` raises
        :class:`ValueError`.
        """
        row_of: Dict[int, int] = {0: 0}
        table: List[int] = []
        stack = [root >> 1 for root in reversed(roots)]
        while stack:
            index = stack.pop()
            if index in row_of:
                continue
            low, high = self._low[index], self._high[index]
            pending = [c for c in (high >> 1, low >> 1) if c not in row_of]
            if pending:
                stack += (index, *pending)
                continue
            slot = self._level[index] - base
            if not 0 <= slot < width:
                raise ValueError(f"level {slot + base} is outside the block")
            row_of[index] = len(table) // 3 + 1
            table += (
                slot,
                2 * row_of[low >> 1] | low & 1,
                2 * row_of[high >> 1] | high & 1,
            )
        return table, [2 * row_of[root >> 1] | root & 1 for root in roots]

    def clear_cache(self) -> None:
        """Drop the computed caches (unique tables are kept)."""
        self._and_cache.clear()
        self._xor_cache.clear()
        self._ite_cache.clear()
        self._quantify_cache.clear()
        self._subst_cache.clear()
