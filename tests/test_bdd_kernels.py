"""Tests for the dedicated BDD kernels and the op-level stats layer.

Property tests use a seeded random-formula generator over ~8 variables
and assert the kernels agree with their defining formulations:

* ``and_exists(f, g, V) == exists(and_(f, g), V)``;
* the binary kernels match their ``ite`` definitions;
* balanced ``and_many``/``or_many`` match linear folds.

Complement-edge properties are checked against a truth-table oracle
(all 2^8 assignments, no second manager): negation is free, equal
functions have equal handles after every op, and the public cofactor
accessors are semantic.

Regression tests pin the iterative kernels' immunity to Python's
recursion limit on deep (5000-level) chain BDDs, the one-op image path
in the transformer, and the compile/statistics caches.
"""

from __future__ import annotations

import random
import sys

import pytest

from repro import Byte, ZenFunction
from repro.backends import SatBackend
from repro.bdd import FALSE, TRUE, Bdd, BddStats
from repro.compose.cubes import (
    HEADER_BITS,
    _cube_literals,
    cover_node,
    node_cover,
)
from repro.core.compilation import compile_function
from repro.core.transformers import TransformerContext
from repro.sat import Solver

NUM_VARS = 8
NUM_CASES = 60


def random_formula(manager: Bdd, rng: random.Random, depth: int = 3) -> int:
    if depth == 0:
        index = rng.randrange(NUM_VARS)
        return manager.var(index) if rng.random() < 0.5 else manager.nvar(index)
    left = random_formula(manager, rng, depth - 1)
    right = random_formula(manager, rng, depth - 1)
    op = rng.randrange(4)
    if op == 0:
        return manager.and_(left, right)
    if op == 1:
        return manager.or_(left, right)
    if op == 2:
        return manager.xor(left, right)
    return manager.not_(left)


@pytest.fixture
def manager():
    m = Bdd()
    m.new_vars(NUM_VARS)
    return m


class TestApplyKernels:
    def test_apply_matches_ite_formulations(self, manager):
        rng = random.Random(11)
        for _ in range(NUM_CASES):
            f = random_formula(manager, rng)
            g = random_formula(manager, rng)
            assert manager.and_(f, g) == manager.ite(f, g, FALSE)
            assert manager.or_(f, g) == manager.ite(f, TRUE, g)
            assert manager.xor(f, g) == manager.ite(
                f, manager.not_(g), g
            )
            assert manager.iff(f, g) == manager.ite(
                f, g, manager.not_(g)
            )

    def test_not_is_involution(self, manager):
        rng = random.Random(12)
        for _ in range(NUM_CASES):
            f = random_formula(manager, rng)
            assert manager.not_(manager.not_(f)) == f

    def test_commutative_cache_normalization(self, manager):
        rng = random.Random(13)
        f = random_formula(manager, rng, depth=4)
        g = random_formula(manager, rng, depth=4)
        manager.clear_cache()
        manager.reset_stats()
        first = manager.and_(f, g)
        misses_after_first = manager.stats().cache_misses.get("and", 0)
        second = manager.and_(g, f)
        assert first == second
        # The reversed call found every expansion in the cache: no new
        # misses, at least one hit.
        stats = manager.stats()
        assert stats.cache_misses.get("and", 0) == misses_after_first
        assert stats.cache_hits.get("and", 0) >= 1

    def test_terminal_shortcuts(self, manager):
        x = manager.var(0)
        assert manager.and_(x, FALSE) == FALSE
        assert manager.and_(TRUE, x) == x
        assert manager.or_(x, TRUE) == TRUE
        assert manager.or_(FALSE, x) == x
        assert manager.xor(x, x) == FALSE
        assert manager.xor(x, FALSE) == x
        assert manager.xor(x, TRUE) == manager.not_(x)


ASSIGNMENTS = [
    {i: bool(bits >> i & 1) for i in range(NUM_VARS)}
    for bits in range(1 << NUM_VARS)
]


def truth_table(manager: Bdd, f: int) -> int:
    """The function as a 2^NUM_VARS-bit integer (the oracle)."""
    return sum(
        1 << row
        for row, assignment in enumerate(ASSIGNMENTS)
        if manager.evaluate(f, assignment)
    )


class TestComplementEdges:
    def test_negation_allocates_nothing(self, manager):
        rng = random.Random(51)
        for _ in range(NUM_CASES):
            f = random_formula(manager, rng)
            nodes = manager.num_nodes
            negated = manager.not_(f)
            assert manager.num_nodes == nodes
            assert negated == f ^ 1
            assert manager.node_count(negated) == manager.node_count(f)
            assert truth_table(manager, negated) == ~truth_table(
                manager, f
            ) & ((1 << len(ASSIGNMENTS)) - 1)

    def test_sat_count_of_negation(self, manager):
        rng = random.Random(52)
        for _ in range(NUM_CASES):
            f = random_formula(manager, rng)
            count = manager.sat_count(f)
            assert count == bin(truth_table(manager, f)).count("1")
            assert manager.sat_count(manager.not_(f)) == 2**NUM_VARS - count
            # An explicit width counts over that many variables.
            wide = NUM_VARS + 2
            assert manager.sat_count(f, wide) == 4 * count
            assert manager.sat_count(manager.not_(f), wide) == 2**wide - 4 * count

    def test_equal_functions_have_equal_handles(self, manager):
        # Canonicity through every op: whatever route built a function,
        # its handle is determined by its truth table (and vice versa).
        rng = random.Random(53)
        handle_of = {}
        table_of = {}

        def record(f: int) -> None:
            table = truth_table(manager, f)
            assert handle_of.setdefault(table, f) == f
            assert table_of.setdefault(f, table) == table

        def shift_up(f: int) -> int:
            support = manager.support(f)
            if not support or support[-1] == NUM_VARS - 1:
                return f
            return manager.rename(f, {v: v + 1 for v in support})

        for _ in range(NUM_CASES):
            f = random_formula(manager, rng)
            g = random_formula(manager, rng)
            h = random_formula(manager, rng)
            some = rng.sample(range(NUM_VARS), k=rng.randrange(1, 4))
            values = {v: rng.random() < 0.5 for v in some}
            targets = dict(zip(some, rng.sample(range(NUM_VARS), k=len(some))))
            for result in (
                f,
                manager.not_(f),
                manager.and_(f, g),
                manager.or_(f, g),
                manager.xor(f, g),
                manager.iff(f, g),
                manager.implies(f, g),
                manager.diff(f, g),
                manager.ite(f, g, h),
                manager.exists(f, some),
                manager.forall(f, some),
                manager.and_exists(f, g, some),
                manager.restrict(f, values),
                shift_up(f),
                manager.compose(f, some[0], g),
                manager.and_many([f, g, h]),
                manager.or_many([f, g, h]),
            ):
                record(result)
            # permute reads its map simultaneously, so it is checked
            # against the oracle directly.
            permuted = manager.permute(f, targets)
            record(permuted)
            for assignment in ASSIGNMENTS[::7]:
                pulled = {
                    v: assignment[targets.get(v, v)] for v in range(NUM_VARS)
                }
                assert manager.evaluate(
                    permuted, assignment
                ) == manager.evaluate(f, pulled)

    def test_ops_match_the_oracle(self, manager):
        rng = random.Random(54)
        full = (1 << len(ASSIGNMENTS)) - 1
        for _ in range(NUM_CASES):
            f = random_formula(manager, rng)
            g = random_formula(manager, rng)
            h = random_formula(manager, rng)
            tf, tg, th = (truth_table(manager, x) for x in (f, g, h))
            assert truth_table(manager, manager.and_(f, g)) == tf & tg
            assert truth_table(manager, manager.or_(f, g)) == tf | tg
            assert truth_table(manager, manager.xor(f, g)) == tf ^ tg
            assert truth_table(manager, manager.iff(f, g)) == ~(tf ^ tg) & full
            assert truth_table(manager, manager.ite(f, g, h)) == (
                tf & tg | ~tf & th & full
            )
            var = rng.randrange(NUM_VARS)
            low = truth_table(manager, manager.restrict(f, {var: False}))
            high = truth_table(manager, manager.restrict(f, {var: True}))
            assert truth_table(manager, manager.exists(f, [var])) == low | high
            assert truth_table(manager, manager.forall(f, [var])) == low & high
            assert truth_table(
                manager, manager.and_exists(f, g, [var])
            ) == truth_table(manager, manager.exists(manager.and_(f, g), [var]))
            assert truth_table(manager, manager.compose(f, var, g)) == (
                tg & high | ~tg & low & full
            )

    def test_accessors_return_semantic_cofactors(self, manager):
        rng = random.Random(55)
        for _ in range(NUM_CASES):
            f = random_formula(manager, rng)
            for node in (f, manager.not_(f)):
                if manager.is_terminal(node):
                    continue
                level = manager.level_of(node)
                assert level == manager.support(node)[0]
                assert manager.low(node) == manager.restrict(
                    node, {level: False}
                )
                assert manager.high(node) == manager.restrict(
                    node, {level: True}
                )
                paths = list(manager.iter_sat(node))
                assert len({frozenset(p.items()) for p in paths}) == len(paths)
                assert all(manager.evaluate(node, p) for p in paths)
                witness = manager.any_sat(node)
                assert manager.evaluate(node, witness)

    def test_cube_enumeration_equals_iter_sat(self):
        # compose.cubes walks low()/high()/level_of() itself; on a
        # complemented root it must see the same 1-paths as iter_sat.
        manager = Bdd()
        levels = list(range(HEADER_BITS))
        manager.new_vars(HEADER_BITS)
        rng = random.Random(56)
        for _ in range(20):
            f = random_formula(manager, rng)
            for node in (f, manager.not_(f)):
                cover = node_cover(manager, levels, node)
                assert {
                    frozenset(_cube_literals(cube, levels).items())
                    for cube in cover
                } == {
                    frozenset(path.items()) for path in manager.iter_sat(node)
                }
                assert cover_node(manager, levels, cover) == node


class TestBalancedReduction:
    def test_and_many_matches_linear_fold(self, manager):
        rng = random.Random(21)
        for _ in range(20):
            nodes = [
                random_formula(manager, rng, depth=2) for _ in range(7)
            ]
            expected = TRUE
            for node in nodes:
                expected = manager.ite(expected, node, FALSE)
            assert manager.and_many(nodes) == expected

    def test_or_many_matches_linear_fold(self, manager):
        rng = random.Random(22)
        for _ in range(20):
            nodes = [
                random_formula(manager, rng, depth=2) for _ in range(7)
            ]
            expected = FALSE
            for node in nodes:
                expected = manager.ite(expected, TRUE, node)
            assert manager.or_many(nodes) == expected

    def test_empty_and_singleton(self, manager):
        x = manager.var(3)
        assert manager.and_many([]) == TRUE
        assert manager.or_many([]) == FALSE
        assert manager.and_many([x]) == x
        assert manager.or_many([x]) == x
        assert manager.and_many(iter([x, FALSE, x])) == FALSE
        assert manager.or_many(iter([x, TRUE])) == TRUE


class TestAndExists:
    def test_matches_its_definition(self, manager):
        rng = random.Random(31)
        for _ in range(NUM_CASES):
            f = random_formula(manager, rng)
            g = random_formula(manager, rng)
            variables = rng.sample(range(NUM_VARS), k=rng.randrange(1, 5))
            product = manager.and_exists(f, g, variables)
            assert product == manager.exists(manager.and_(f, g), variables)

    def test_empty_quantifier_set_is_plain_and(self, manager):
        rng = random.Random(32)
        f = random_formula(manager, rng)
        g = random_formula(manager, rng)
        assert manager.and_exists(f, g, []) == manager.and_(f, g)

    def test_terminal_operands(self, manager):
        x, y = manager.var(0), manager.var(1)
        conj = manager.and_(x, y)
        assert manager.and_exists(FALSE, x, [0]) == FALSE
        assert manager.and_exists(TRUE, conj, [0]) == manager.exists(
            conj, [0]
        )
        assert manager.and_exists(conj, conj, [0]) == manager.exists(
            conj, [0]
        )

    def test_quantify_caches_both_exit_paths(self, manager):
        # Regression for the seed bug: _quantify returned without
        # caching on its early-exit paths and recomputed max(levels)
        # per call.  Quantifying twice must hit the cache.
        rng = random.Random(33)
        f = random_formula(manager, rng, depth=4)
        manager.clear_cache()
        manager.reset_stats()
        first = manager.exists(f, [0, 1])
        misses = manager.stats().cache_misses.get("exists", 0)
        second = manager.exists(f, [0, 1])
        assert first == second
        assert manager.stats().cache_misses.get("exists", 0) == misses
        assert manager.stats().cache_hits.get("exists", 0) >= 1

    def test_forall_matches_unfused(self, manager):
        rng = random.Random(34)
        for _ in range(20):
            f = random_formula(manager, rng)
            variables = rng.sample(range(NUM_VARS), k=2)
            negated = manager.not_(
                manager.exists(manager.not_(f), variables)
            )
            assert manager.forall(f, variables) == negated


class TestDeepBdds:
    """The iterative kernels must survive BDDs deeper than the
    recursion limit (e.g. 32-bit × several-field packet types)."""

    DEPTH = 5000

    @pytest.fixture
    def chain(self):
        m = Bdd()
        m.new_vars(self.DEPTH)
        # A conjunction of all variables: one node per level.
        root = m.cube({i: True for i in range(self.DEPTH)})
        return m, root

    def test_exists_on_deep_chain(self, chain):
        m, root = chain
        assert self.DEPTH > sys.getrecursionlimit()
        quantified = m.exists(root, range(0, self.DEPTH, 2))
        assert quantified == m.cube(
            {i: True for i in range(1, self.DEPTH, 2)}
        )

    def test_sat_count_on_deep_chain(self, chain):
        m, root = chain
        assert m.sat_count(root) == 1

    def test_apply_on_deep_chains(self, chain):
        m, root = chain
        other = m.cube({i: True for i in range(1, self.DEPTH)})
        assert m.and_(root, other) == root
        assert m.or_(root, other) == other
        assert m.not_(m.not_(root)) == root

    def test_restrict_and_rename_on_deep_chain(self, chain):
        m, root = chain
        restricted = m.restrict(
            root, {i: True for i in range(0, self.DEPTH, 2)}
        )
        assert restricted == m.cube(
            {i: True for i in range(1, self.DEPTH, 2)}
        )
        m.new_var()
        shifted = m.rename(root, {i: i + 1 for i in range(self.DEPTH)})
        assert shifted == m.cube(
            {i + 1: True for i in range(self.DEPTH)}
        )

    def test_and_exists_on_deep_chain(self, chain):
        m, root = chain
        result = m.and_exists(root, root, range(0, self.DEPTH, 2))
        assert result == m.cube(
            {i: True for i in range(1, self.DEPTH, 2)}
        )


class TestStats:
    def test_counters_and_peak(self, manager):
        manager.reset_stats()
        rng = random.Random(41)
        f = random_formula(manager, rng, depth=4)
        g = random_formula(manager, rng, depth=4)
        manager.and_(f, g)
        manager.exists(f, [0, 2])
        manager.and_exists(f, g, [1, 3])
        stats = manager.stats()
        assert isinstance(stats, BddStats)
        assert stats.calls["and"] >= 1
        assert stats.calls["exists"] == 1
        assert stats.calls["and_exists"] == 1
        assert stats.peak_nodes >= stats.node_count > 2
        payload = stats.as_dict()
        assert set(payload) == {
            "calls",
            "cache_hits",
            "cache_misses",
            "cache_hit_rate",
            "peak_nodes",
            "node_count",
        }
        assert "and" in stats.summary()

    def test_reset(self, manager):
        manager.and_(manager.var(0), manager.var(1))
        manager.reset_stats()
        assert manager.stats().calls == {}


class TestTransformerImageOps:
    def test_forward_image_uses_and_exists(self):
        context = TransformerContext()
        f = ZenFunction(lambda x: x + 1, [Byte], name="inc")
        transformer = f.transformer(context=context)
        some = context.from_predicate(
            ZenFunction(lambda x: x < 10, [Byte], name="small")
        )
        manager = context.manager
        manager.reset_stats()
        image = transformer.transform_forward(some)
        stats = manager.stats()
        # The image is one relational-product op: no separate public
        # and_/exists calls (each would be its own count and span).
        assert stats.calls.get("and_exists", 0) == 1
        assert stats.calls.get("exists", 0) == 0
        assert stats.calls.get("and", 0) == 0
        assert not image.is_empty()

        manager.reset_stats()
        pre = transformer.transform_reverse(image)
        stats = manager.stats()
        assert stats.calls.get("and_exists", 0) == 1
        assert stats.calls.get("exists", 0) == 0
        assert not pre.is_empty()

    def test_compose_uses_and_exists(self):
        context = TransformerContext()
        inc = ZenFunction(lambda x: x + 1, [Byte], name="inc")
        dbl = ZenFunction(lambda x: x * 2, [Byte], name="dbl")
        t_inc = inc.transformer(context=context)
        t_dbl = dbl.transformer(context=context)
        manager = context.manager
        manager.reset_stats()
        composed = t_inc.compose(t_dbl)
        assert manager.stats().calls.get("and_exists", 0) == 1
        assert manager.stats().calls.get("exists", 0) == 0
        singleton = context.singleton(Byte, 3)
        assert composed.transform_forward(singleton).element() == 8


class TestCompileCache:
    def test_compile_is_memoized(self):
        f = ZenFunction(lambda x: x + 1, [Byte], name="inc")
        assert f.compile() is f.compile()
        assert compile_function(f) is f.compile()

    def test_distinct_functions_not_shared(self):
        f = ZenFunction(lambda x: x + 1, [Byte], name="inc")
        g = ZenFunction(lambda x: x + 2, [Byte], name="inc2")
        assert f.compile() is not g.compile()
        assert f.compile()(1) == 2
        assert g.compile()(1) == 3


class TestSolverStatistics:
    def test_reset_statistics(self):
        s = Solver()
        a, b = s.new_var(), s.new_var()
        s.add_clause([a, b])
        s.add_clause([-a, b])
        assert s.solve()
        assert s.statistics["propagations"] >= 0
        s.reset_statistics()
        stats = s.statistics
        assert stats["conflicts"] == 0
        assert stats["decisions"] == 0
        assert stats["propagations"] == 0

    def test_backend_accumulates_across_solves(self):
        backend = SatBackend()
        f = ZenFunction(lambda x: x > 5, [Byte], name="gt5")
        assert f.find(backend=backend) is not None
        after_one = backend.statistics
        assert after_one["solves"] == 1
        assert f.find(backend=backend) is not None
        after_two = backend.statistics
        assert after_two["solves"] == 2
        assert after_two["decisions"] >= after_one["decisions"]
        backend.reset_statistics()
        assert backend.statistics["solves"] == 0
