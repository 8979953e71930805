"""Tests for resource governance: budgets, fallbacks, truncation.

The tentpole contract: every public query path accepts a
:class:`repro.Budget`, enforcement is cooperative (checkpoints inside
the CDCL loop and the BDD kernels), exhaustion raises a structured
:class:`repro.ZenBudgetExceeded` within a small factor of the
configured limit, and :func:`repro.solve_with_fallback` degrades
gracefully across backends and list-depth bounds instead of dying.
"""

from __future__ import annotations

import itertools
import time

import pytest

from repro import (
    Budget,
    BudgetMeter,
    QueryResult,
    TransformerContext,
    UInt,
    UShort,
    ZList,
    ZenBudgetExceeded,
    ZenFunction,
    constant,
    solve_with_fallback,
)
from repro.backends import BddBackend, SatBackend
from repro.baselines.batfish_acl import find_packet_matching_last_line
from repro.bdd import Bdd
from repro.core.budget import metered, start_meter
from repro.core.modelcheck import reachable_states
from repro.errors import ZenTypeError
from repro.lang import listops
from repro.lang import types as ty
from repro.network.acl import Acl, AclRule, acl_match_line
from repro.network.ip import Prefix
from repro.network.nat import NatRule, NatTable, apply_nat
from repro.network.packet import Header
from repro.network.routemap import Route
from repro.sat.solver import Solver
from repro.workloads import random_acl
from tests.test_dont_care import _e2e_models


def multiply_commutes() -> ZenFunction:
    """32-bit multiply commutativity: hard UNSAT for CDCL, node
    blowup for BDDs — the canonical budget-tripping instance."""
    return ZenFunction(lambda a, b: a * b == b * a, [UInt, UInt])


def _pigeonhole(solver, holes):
    at = [[solver.new_var() for _ in range(holes)] for _ in range(holes + 1)]
    for pigeon in at:
        solver.add_clause(pigeon)
    for hole in range(holes):
        for p, q in itertools.combinations(range(holes + 1), 2):
            solver.add_clause([-at[p][hole], -at[q][hole]])


class TestBudgetObject:
    def test_defaults_unlimited(self):
        assert Budget().is_unlimited()
        assert not Budget(deadline_s=1).is_unlimited()

    def test_rejects_negative_and_non_numeric(self):
        with pytest.raises(ZenTypeError):
            Budget(deadline_s=-1)
        with pytest.raises(ZenTypeError):
            Budget(max_conflicts="many")
        with pytest.raises(ZenTypeError):
            Budget(max_bdd_nodes=True)

    def test_dict_round_trip_on_every_field_subset(self):
        values = {
            "deadline_s": 0.5, "max_conflicts": 7, "max_bdd_nodes": 0, "max_models": 3,
        }
        for size in range(len(values) + 1):
            for keys in itertools.combinations(values, size):
                budget = Budget(**{key: values[key] for key in keys})
                assert set(budget.to_dict()) == set(keys)
                restored = Budget.from_dict(budget.to_dict())
                # No limit set is "no budget" on the wire, not Budget().
                assert restored == (budget if keys else None)
        assert Budget.from_dict(None) is None
        assert Budget.from_dict({"max_models": None}) == Budget()

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ZenTypeError, match="deadline"):
            Budget.from_dict({"deadline": 0.01})
        with pytest.raises(ZenTypeError):
            Budget.from_dict({"deadline_s": 1, "max_nodes": 5})

    def test_start_returns_fresh_meter(self):
        budget = Budget(max_conflicts=5)
        meter = budget.start()
        assert isinstance(meter, BudgetMeter)
        assert meter.budget is budget
        assert meter.stats()["conflicts"] == 0

    def test_meter_hooks_charge_and_trip(self):
        meter = Budget(max_conflicts=2, max_models=1).start()
        meter.on_conflict()
        meter.on_conflict()
        with pytest.raises(ZenBudgetExceeded) as info:
            meter.on_conflict()
        assert info.value.reason == "conflicts"
        assert info.value.stats["conflicts"] == 3
        meter.on_model()
        with pytest.raises(ZenBudgetExceeded) as info:
            meter.on_model()
        assert info.value.reason == "models"

    def test_deadline_uses_injected_clock(self):
        now = [0.0]
        meter = Budget(deadline_s=10.0).start(clock=lambda: now[0])
        meter.check_deadline()
        now[0] = 10.5
        with pytest.raises(ZenBudgetExceeded) as info:
            meter.check_deadline()
        assert info.value.reason == "deadline"

    def test_start_meter_normalizes(self):
        assert start_meter(None) is None
        meter = Budget().start()
        assert start_meter(meter) is meter
        assert isinstance(start_meter(Budget()), BudgetMeter)
        with pytest.raises(ZenTypeError):
            start_meter(42)


class TestSatBudget:
    def test_conflict_budget_trips(self):
        f = multiply_commutes()
        with pytest.raises(ZenBudgetExceeded) as info:
            f.verify(
                lambda a, b, out: out,
                backend="sat",
                budget=Budget(max_conflicts=50),
            )
        assert info.value.reason == "conflicts"
        assert info.value.stats["conflicts"] > 50

    def test_deadline_trips_within_double(self):
        f = multiply_commutes()
        deadline = 0.5
        started = time.monotonic()
        with pytest.raises(ZenBudgetExceeded) as info:
            f.verify(
                lambda a, b, out: out,
                backend="sat",
                budget=Budget(deadline_s=deadline),
            )
        elapsed = time.monotonic() - started
        assert info.value.reason == "deadline"
        assert elapsed < 2 * deadline

    def test_solver_stays_usable_after_abort(self):
        f = multiply_commutes()
        engine = SatBackend()
        with pytest.raises(ZenBudgetExceeded):
            f.verify(
                lambda a, b, out: out,
                backend=engine,
                budget=Budget(max_conflicts=10),
            )
        assert engine.budget is None  # meter uninstalled on unwind
        # The same instance still answers fresh (easy) queries.
        g = ZenFunction(lambda x: x + 1 == 5, [UInt])
        assert g.find(backend=engine) == 4

    def test_generous_budget_does_not_change_answer(self):
        g = ZenFunction(lambda x: x * 3 == 21, [UInt])
        assert g.find(budget=Budget(deadline_s=60)) == 7

    def test_deadline_trips_before_the_solver_is_entered(self):
        """A deadline that runs out while the query is being evaluated
        trips at the first look after evaluation: nothing is encoded — no
        CNF variable is allocated, no gate or clause loaded, `solve` never
        called (it used to be found out only inside `Solver.solve`, after
        the whole encoding had been written).  The meter runs on an
        injected clock, so the host's speed cannot decide the outcome."""
        models = _e2e_models()
        function = ZenFunction(
            models.structural_model(models.shaped_route_map(7, 0, 0, 120)), (Route,)
        )
        names = ("new_var", "new_vars", "add_gates", "add_clause", "solve")
        originals = {name: getattr(Solver, name) for name in names}
        entered = set()

        def recording(method):
            def call(self, *args, **kwargs):
                entered.add(method.__name__)
                return method(self, *args, **kwargs)

            return call

        now = [0.0]
        meter = Budget(deadline_s=0.01).start(clock=lambda: now[0])
        try:
            for name, method in originals.items():
                setattr(Solver, name, recording(method))
            assert function.find(backend="sat", max_list_length=4) is not None
            assert {"new_vars", "add_gates", "solve"} <= entered
            entered.clear()
            now[0] = 1.0  # the deadline passes once the query is under way
            with pytest.raises(ZenBudgetExceeded) as info:
                function.find(backend="sat", max_list_length=4, budget=meter)
        finally:
            for name, method in originals.items():
                setattr(Solver, name, method)
        assert info.value.reason == "deadline"
        assert entered == set()

    def test_conflict_budget_trips_where_it_always_did(self):
        """Counts from the solver before its propagation loop was inlined:
        same conflicts, decisions and propagations means the same search,
        checkpoint for checkpoint."""
        solver = Solver()
        _pigeonhole(solver, 6)
        assert not solver.solve()
        assert solver.statistics == {
            "conflicts": 713, "decisions": 912, "propagations": 8830, "learned": 707,
        }

        solver = Solver()
        _pigeonhole(solver, 7)
        with pytest.raises(ZenBudgetExceeded) as info:
            solver.solve(budget=Budget(max_conflicts=500))
        assert info.value.reason == "conflicts"
        assert info.value.stats["conflicts"] == 501
        assert solver.statistics == {
            "conflicts": 501, "decisions": 664, "propagations": 6842, "learned": 500,
        }
        # Usable afterwards, and the refutation ends where it did before.
        assert not solver.solve()
        assert solver.statistics == {
            "conflicts": 5423, "decisions": 6491, "propagations": 78094, "learned": 2917,
        }


class TestBddBudget:
    def test_node_budget_trips(self):
        f = multiply_commutes()
        with pytest.raises(ZenBudgetExceeded) as info:
            f.verify(
                lambda a, b, out: out,
                backend="bdd",
                budget=Budget(max_bdd_nodes=10_000),
            )
        assert info.value.reason == "bdd_nodes"
        assert info.value.stats["bdd_nodes"] >= 10_000

    def test_deadline_trips_within_double(self):
        f = multiply_commutes()
        deadline = 0.5
        started = time.monotonic()
        with pytest.raises(ZenBudgetExceeded) as info:
            f.verify(
                lambda a, b, out: out,
                backend="bdd",
                budget=Budget(deadline_s=deadline),
            )
        elapsed = time.monotonic() - started
        assert info.value.reason == "deadline"
        assert elapsed < 2 * deadline

    def test_meter_uninstalled_after_abort(self):
        f = multiply_commutes()
        engine = BddBackend()
        with pytest.raises(ZenBudgetExceeded):
            f.verify(
                lambda a, b, out: out,
                backend=engine,
                budget=Budget(max_bdd_nodes=5_000),
            )
        assert engine.budget is None

    def test_small_workload_node_cap_is_exact(self):
        # Many small kernels never reach the per-kernel tick interval;
        # the allocation-time checkpoint must still trip the cap.
        manager = Bdd()
        manager.set_budget(Budget(max_bdd_nodes=40).start())
        with pytest.raises(ZenBudgetExceeded) as info:
            for i in range(64):
                manager.new_var()
        assert info.value.reason == "bdd_nodes"
        # Exactly at the crossing allocation: the 41st store entry (the
        # terminal and 40 variable nodes) is the first over a cap of 40.
        assert manager.num_nodes == 41
        assert info.value.stats["bdd_nodes"] == 41

    @pytest.mark.parametrize("op", ["and_", "or_", "xor", "iff"])
    def test_small_kernels_trip_the_cap_at_the_crossing(self, op):
        # The and/xor kernels allocate inline, not through _mk: their
        # allocation branch carries the same checkpoint.
        manager = Bdd()
        acc, *rest = manager.new_vars(200)
        cap = manager.num_nodes + 30
        manager.set_budget(Budget(max_bdd_nodes=cap).start())
        with pytest.raises(ZenBudgetExceeded) as info:
            for var in rest:  # every allocation is a kernel's own
                acc = getattr(manager, op)(manager.not_(acc), var)
        assert info.value.reason == "bdd_nodes"
        assert manager.num_nodes == cap + 1
        assert info.value.stats["bdd_nodes"] == cap + 1

    def test_bitblasted_find_trips_the_cap(self):
        # An ACL find is a stream of tiny and/or/xor/not calls: no
        # kernel reaches its own 1024-expansion tick, so only the
        # allocation checkpoint stands between it and the heap.
        acl = random_acl(150, seed=2020)
        last = len(acl.rules)
        f = ZenFunction(lambda h: acl_match_line(acl, h) == last, [Header])
        engine = BddBackend()
        with pytest.raises(ZenBudgetExceeded) as info:
            f.find(
                lambda h, out: out,
                backend=engine,
                budget=Budget(max_bdd_nodes=2000),
            )
        assert info.value.reason == "bdd_nodes"
        assert info.value.stats["bdd_nodes"] == 2001
        assert engine.manager.num_nodes == 2001

    def test_bitblasted_find_honours_the_deadline(self):
        acl = random_acl(800, seed=2020)
        last = len(acl.rules)
        f = ZenFunction(lambda h: acl_match_line(acl, h) == last, [Header])
        deadline = 0.1
        started = time.monotonic()
        with pytest.raises(ZenBudgetExceeded) as info:
            f.find(
                lambda h, out: out,
                backend="bdd",
                budget=Budget(deadline_s=deadline),
            )
        assert info.value.reason == "deadline"
        assert time.monotonic() - started < 2 * deadline

    def test_cube_build_trips_the_cap_at_the_crossing(self):
        # An all-literal conjunction is one `cube`: no apply kernel
        # runs, so only the allocation checkpoint of `_mk` can trip.
        engine = BddBackend()
        literals = [engine.fresh(f"x{i}") for i in range(200)]
        cap = engine.manager.num_nodes + 30
        engine.set_budget(Budget(max_bdd_nodes=cap))
        with pytest.raises(ZenBudgetExceeded) as info:
            engine.and_many(literals)
        assert info.value.reason == "bdd_nodes"
        assert engine.manager.num_nodes == cap + 1

    def test_nary_conjunction_trips_the_cap_at_the_crossing(self):
        engine = BddBackend()
        xs = [engine.fresh(f"x{i}") for i in range(200)]
        pairs = [engine.xor(a, b) for a, b in zip(xs[::2], xs[1::2])]
        cap = engine.manager.num_nodes + 30
        engine.set_budget(Budget(max_bdd_nodes=cap))
        with pytest.raises(ZenBudgetExceeded) as info:
            engine.and_many(pairs)
        assert info.value.reason == "bdd_nodes"
        assert engine.manager.num_nodes == cap + 1

    @pytest.mark.parametrize("literal_operands", [True, False])
    def test_nary_conjunction_honours_the_deadline(self, literal_operands):
        # The injected clock runs out at its third reading; the manager
        # reads it at every 256th allocation, cube or kernel alike.
        engine = BddBackend()
        xs = [engine.fresh(f"x{i}") for i in range(1200)]
        if literal_operands:
            operands = xs
        else:
            operands = [engine.xor(a, b) for a, b in zip(xs[::2], xs[1::2])]
        readings = itertools.count()
        meter = Budget(deadline_s=2.5).start(clock=lambda: next(readings))
        engine.set_budget(meter)
        built = engine.manager.num_nodes
        with pytest.raises(ZenBudgetExceeded) as info:
            engine.and_many(operands)
        assert info.value.reason == "deadline"
        assert 256 <= engine.manager.num_nodes - built < 1024

    def test_pushed_comparison_trips_the_deadline_mid_chain(self):
        # `line == last` over an if-chain is 150 Boolean merges; a
        # deadline that runs out part of the way down must abort the
        # query, not return a verdict about the rules seen so far.
        acl = random_acl(150, seed=2020)
        last = len(acl.rules)
        f = ZenFunction(lambda h: acl_match_line(acl, h) == last, [Header])
        unbudgeted = BddBackend()
        assert f.find(backend=unbudgeted) is not None
        total = unbudgeted.manager.num_nodes
        engine = BddBackend()
        readings = itertools.count()
        meter = Budget(deadline_s=8.5).start(clock=lambda: next(readings))
        with pytest.raises(ZenBudgetExceeded) as info:
            f.find(backend=engine, budget=meter)
        assert info.value.reason == "deadline"
        assert 0 < engine.manager.num_nodes < total
        assert engine.budget is None

    def test_set_budget_fails_fast_when_already_over(self):
        manager = Bdd()
        manager.new_vars(16)
        with pytest.raises(ZenBudgetExceeded):
            manager.set_budget(Budget(max_bdd_nodes=4).start())
        assert manager.budget is None  # failed install leaves no meter

    def test_metered_restores_previous(self):
        manager = Bdd()
        outer = Budget().start()
        manager.set_budget(outer)
        with metered(manager, Budget(deadline_s=60)) as meter:
            assert manager.budget is meter
        assert manager.budget is outer
        with metered(manager, None):
            assert manager.budget is outer


class TestFallback:
    def test_answers_directly_when_cheap(self):
        g = ZenFunction(lambda x: x * 3 == 21, [UInt])
        result = solve_with_fallback(g, budget=Budget(deadline_s=30))
        assert isinstance(result, QueryResult)
        assert result.answer == 7
        assert result.backend == "sat"
        assert not result.degraded
        assert result.stats["elapsed_s"] >= 0

    def test_falls_back_to_other_backend(self):
        # BDD blows its node budget on the product circuit; SAT
        # factors the constant instantly.
        g = ZenFunction(lambda a, b: a * b == 1517, [UShort, UShort])
        result = solve_with_fallback(
            g,
            backends=("bdd", "sat"),
            budget=Budget(deadline_s=5.0, max_bdd_nodes=20_000),
        )
        assert result.backend == "sat"
        a, b = result.answer
        assert a * b == 1517
        assert result.degraded
        assert "bdd" in result.degradations[0]
        assert "bdd_nodes" in result.degradations[0]

    def test_degrades_list_depth(self):
        def prod_is(xs):
            return (
                listops.fold(
                    xs, constant(1, ty.UINT), lambda x, acc: x * acc
                )
                == 1517
            )

        f = ZenFunction(prod_is, [ZList[UInt]])
        result = solve_with_fallback(
            f,
            backends=("bdd",),
            budget=Budget(max_bdd_nodes=30_000),
            degrade_list_lengths=(1,),
        )
        assert result.max_list_length == 1
        assert result.answer == [1517]
        assert result.degraded

    def test_exhausted_ladder_reraises_with_degradations(self):
        f = multiply_commutes()
        with pytest.raises(ZenBudgetExceeded) as info:
            solve_with_fallback(
                f,
                lambda a, b, out: ~out,
                backends=("sat", "bdd"),
                budget=Budget(deadline_s=0.2),
            )
        assert len(info.value.degradations) == 2

    def test_validates_ladder_configuration(self):
        g = ZenFunction(lambda x: x == 1, [UInt])
        with pytest.raises(ZenTypeError):
            solve_with_fallback(g, backends=())
        with pytest.raises(ZenTypeError):
            solve_with_fallback(g, degrade_list_lengths=(9,))


class TestEnumerationTruncation:
    def _two_var_solver(self):
        solver = Solver()
        a, b = solver.new_var(), solver.new_var()
        solver.add_clause([a, b])
        return solver, [a, b]

    def test_iter_models_truncated_flag(self):
        solver, variables = self._two_var_solver()
        assert solver.last_enumeration_truncated is None
        models = list(solver.iter_models(variables, limit=2))
        assert len(models) == 2
        assert solver.last_enumeration_truncated is True

    def test_iter_models_exhaustive_is_not_truncated(self):
        solver, variables = self._two_var_solver()
        models = list(solver.iter_models(variables, limit=10))
        assert len(models) == 3  # a|b has 3 models over 2 vars
        assert solver.last_enumeration_truncated is False

    def test_iter_models_exact_limit_boundary(self):
        # limit == model count: the extra probe proves exhaustion.
        solver, variables = self._two_var_solver()
        models = list(solver.iter_models(variables, limit=3))
        assert len(models) == 3
        assert solver.last_enumeration_truncated is False

    def test_solve_all_truncated_flag(self):
        backend = SatBackend()
        x, y = backend.fresh("x"), backend.fresh("y")
        constraint = backend.or_(x, y)
        models = list(backend.solve_all(constraint, [x, y], limit=2))
        assert len(models) == 2
        assert backend.last_enumeration_truncated is True

        backend2 = SatBackend()
        x, y = backend2.fresh("x"), backend2.fresh("y")
        models = list(
            backend2.solve_all(backend2.or_(x, y), [x, y], limit=10)
        )
        assert len(models) == 3
        assert backend2.last_enumeration_truncated is False

    def test_model_budget_bounds_enumeration(self):
        backend = SatBackend()
        bits = [backend.fresh(f"b{i}") for i in range(6)]
        any_set = bits[0]
        for bit in bits[1:]:
            any_set = backend.or_(any_set, bit)  # 63 models
        backend.set_budget(Budget(max_models=4).start())
        with pytest.raises(ZenBudgetExceeded) as info:
            list(backend.solve_all(any_set, bits, limit=1000))
        assert info.value.reason == "models"

    def test_generate_inputs_truncation_surfaced(self):
        from repro import if_

        f = ZenFunction(
            lambda x: if_(x > 10, if_(x > 20, x + 1, x + 2), x + 3),
            [UInt],
        )
        suite = f.generate_inputs(max_inputs=64)
        assert not suite.truncated
        assert suite.goals_explored == suite.goals_total
        small = f.generate_inputs(max_inputs=1)
        assert len(small) == 1
        assert small.truncated
        assert small.goals_explored < small.goals_total


class TestTransformerAndModelcheckBudget:
    def test_transformer_build_respects_budget(self):
        hard = ZenFunction(lambda x: x * x + 1, [UInt])
        with pytest.raises(ZenBudgetExceeded) as info:
            hard.transformer(budget=Budget(max_bdd_nodes=5_000))
        assert info.value.reason == "bdd_nodes"

    def test_transformer_ops_work_under_generous_budget(self):
        ctx = TransformerContext()
        step = ZenFunction(lambda x: x + 1, [UInt])
        t = step.transformer(ctx, budget=Budget(deadline_s=60))
        start = ctx.from_predicate(
            ZenFunction(lambda x: x == 3, [UInt]),
            budget=Budget(deadline_s=60),
        )
        image = t.transform_forward(start, budget=Budget(deadline_s=60))
        assert image.element() == 4

    def test_reachability_budget_trips_on_hard_step(self):
        ctx = TransformerContext()
        hard_step = ZenFunction(lambda x: x * x + 7, [UInt])
        init = ctx.from_predicate(ZenFunction(lambda x: x == 2, [UInt]))
        with pytest.raises(ZenBudgetExceeded):
            reachable_states(
                hard_step, init, context=ctx,
                budget=Budget(max_bdd_nodes=5_000),
            )

    def test_reachability_works_under_generous_budget(self):
        ctx = TransformerContext()
        step = ZenFunction(lambda x: x + 1, [UInt])
        init = ctx.from_predicate(ZenFunction(lambda x: x < 3, [UInt]))
        report = reachable_states(
            step, init, context=ctx, max_iterations=5,
            budget=Budget(deadline_s=60),
        )
        assert report.iterations == 5


def _fat_device_spec(seed: int = 12) -> dict:
    """One device big enough that its set build crosses several of the
    manager's 256-allocation clock checkpoints: 40 routes over six
    ports, an ingress ACL and two egress ACLs of 12 random lines."""
    import random

    rng = random.Random(seed)

    def prefix(lo, hi):
        length = rng.randint(lo, hi)
        return [rng.getrandbits(32) & ~((1 << (32 - length)) - 1), length]

    def acl():
        lines = [
            {
                "action": rng.random() < 0.5,
                "src": prefix(4, 16),
                "dst": prefix(4, 16),
                "dst_ports": [rng.randint(0, 999), rng.randint(1000, 65535)],
                "protocol": rng.choice([None, 6, 17]),
            }
            for _ in range(12)
        ]
        return lines + [{"action": True, "src": [0, 0], "dst": [0, 0]}]

    fib = [[prefix(6, 24), rng.randint(1, 6)] for _ in range(40)]
    return {
        "fib": fib + [[[0, 0], 2]],
        "acl_in": {"1": acl()},
        "acl_out": {"2": acl(), "5": acl()},
    }


def _fat_device_roots(h):
    """The fat device's hop sets as `from_predicates` roots."""
    from repro.compose import build_network
    from repro.network import acl_allows, forward

    device = build_network({"devices": {"fat": _fat_device_spec()}}).device("fat")
    acl_out = {i.id: i.acl_out for i in device.interfaces if i.acl_out}
    port = forward(device.fib, h)
    roots = [acl_allows(device.interface(1).acl_in, h)]
    for q in range(1, 7):
        cond = port == q
        if q in acl_out:
            cond = cond & acl_allows(acl_out[q], h)
        roots.append(cond)
    return roots


def _raised_inside(info, function_name: str) -> bool:
    return any(entry.name == function_name for entry in info.traceback)


class TestBatchedSetBuildBudget:
    """`from_predicates` and the compose worker's per-device build stay
    under the budget they are given — caps and deadlines trip *inside*
    the one evaluation, not only between hops."""

    def _context(self):
        ctx = TransformerContext()
        ctx.universe(Header)  # allocate the canonical block up front
        return ctx

    def _unbudgeted_nodes(self):
        ctx = self._context()
        built = ctx.manager.num_nodes
        ctx.from_predicates(_fat_device_roots, Header)
        return ctx.manager.num_nodes - built

    def test_node_cap_trips_at_the_crossing(self):
        total = self._unbudgeted_nodes()
        ctx = self._context()
        cap = ctx.manager.num_nodes + total // 2
        with pytest.raises(ZenBudgetExceeded) as info:
            ctx.from_predicates(
                _fat_device_roots, Header, budget=Budget(max_bdd_nodes=cap)
            )
        assert info.value.reason == "bdd_nodes"
        assert ctx.manager.num_nodes == cap + 1
        assert info.value.stats["bdd_nodes"] == cap + 1
        assert ctx.manager.budget is None
        # The manager is consistent: the same build now completes, and
        # to the same sets a fresh context gives.
        again = ctx.from_predicates(_fat_device_roots, Header)
        fresh = self._context().from_predicates(_fat_device_roots, Header)
        assert [s.count() for s in again] == [s.count() for s in fresh]

    def test_deadline_trips_between_the_first_root_and_the_last(self):
        total = self._unbudgeted_nodes()
        first = self._context()
        base = first.manager.num_nodes
        first.from_predicates(lambda h: _fat_device_roots(h)[:1], Header)
        after_first_root = first.manager.num_nodes - base
        assert after_first_root + 512 < total  # room for a checkpoint
        ctx = self._context()
        manager = ctx.manager
        # The clock passes the deadline once the first root is built; the
        # manager reads it at its next 256th allocation.
        meter = Budget(deadline_s=1.0).start(
            clock=lambda: 2.0 * (manager.num_nodes - base > after_first_root)
        )
        with pytest.raises(ZenBudgetExceeded) as info:
            ctx.from_predicates(_fat_device_roots, Header, budget=meter)
        assert info.value.reason == "deadline"
        assert _raised_inside(info, "from_predicates")
        assert after_first_root < manager.num_nodes - base < total
        assert info.value.stats["bdd_nodes"] > base
        assert manager.budget is None
        assert len(ctx.from_predicates(_fat_device_roots, Header)) == 7

    def _shard_task(self, budget):
        return {
            "shard_id": "fat",
            "devices": {"fat": _fat_device_spec()},
            "links": [],
            "entries": [["fat", 1]],
            "exits": [["fat", q] for q in range(1, 7)],
            "assumption": None,
            "budget": budget,
        }

    def _recorded_contexts(self, monkeypatch):
        from repro.compose import shard

        contexts = []

        class Recorded(TransformerContext):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                contexts.append(self)

        monkeypatch.setattr(shard, "TransformerContext", Recorded)
        return contexts

    def test_shard_build_trips_the_node_cap_at_the_crossing(self, monkeypatch):
        from repro.compose import compute_shard_summary

        contexts = self._recorded_contexts(monkeypatch)
        summary = compute_shard_summary(self._shard_task(None))
        assert summary["stats"]["set_ops"] == 6
        total = contexts.pop().manager.num_nodes
        cap = total // 2
        with pytest.raises(ZenBudgetExceeded) as info:
            compute_shard_summary(self._shard_task({"max_bdd_nodes": cap}))
        assert info.value.reason == "bdd_nodes"
        assert _raised_inside(info, "from_predicates")
        (ctx,) = contexts
        assert ctx.manager.num_nodes == cap + 1
        assert info.value.stats["bdd_nodes"] == cap + 1
        assert ctx.manager.budget is None
        assert len(ctx.from_predicates(_fat_device_roots, Header)) == 7

    def test_shard_build_trips_an_injected_deadline_mid_device(
        self, monkeypatch
    ):
        from repro.compose import compute_shard_summary, shard

        contexts = self._recorded_contexts(monkeypatch)
        compute_shard_summary(self._shard_task(None))
        total = contexts.pop().manager.num_nodes

        def late_once_half_built():
            return 2.0 * bool(
                contexts and contexts[0].manager.num_nodes > total // 2
            )

        monkeypatch.setattr(
            shard,
            "start_meter",
            lambda budget: budget.start(clock=late_once_half_built),
        )
        with pytest.raises(ZenBudgetExceeded) as info:
            compute_shard_summary(self._shard_task({"deadline_s": 1.0}))
        assert info.value.reason == "deadline"
        assert _raised_inside(info, "from_predicates")
        (ctx,) = contexts
        assert total // 2 < ctx.manager.num_nodes < total
        assert info.value.stats["bdd_nodes"] > 0
        assert ctx.manager.budget is None
        assert len(ctx.from_predicates(_fat_device_roots, Header)) == 7


class TestBatfishBudget:
    def _acl(self):
        return Acl.of(
            "t",
            [
                AclRule(action=False, dst=Prefix(0x0A000000, 8)),
                AclRule(action=True),
            ],
        )

    def test_baseline_answers_under_budget(self):
        header = find_packet_matching_last_line(
            self._acl(), budget=Budget(deadline_s=30)
        )
        assert header is not None
        assert (header.dst_ip >> 24) != 0x0A

    def test_baseline_node_cap_trips(self):
        with pytest.raises(ZenBudgetExceeded) as info:
            find_packet_matching_last_line(
                # 104 header variables, then 7 nodes for the prefix
                # cube and its complement-edge combinations: 112 with
                # the terminal.
                self._acl(), budget=Budget(max_bdd_nodes=110)
            )
        assert info.value.reason == "bdd_nodes"


class TestHardQuerySmoke:
    """The acceptance smoke test: a wide symbolic NAT composition with
    a nonlinear port/address condition exceeds its deadline on both
    backends and raises within 2x the configured value."""

    def _hard_function(self):
        table = NatTable.of(
            "wide",
            [
                NatRule(
                    match_src=Prefix(i << 24, 8),
                    translate_src=Prefix(0x0A000000 | (i << 8), 24),
                )
                for i in range(12)
            ],
        )

        def hard(h):
            out = apply_nat(table, apply_nat(table, h))
            return out.src_ip * out.dst_ip != out.dst_ip * out.src_ip

        return ZenFunction(hard, [Header])

    @pytest.mark.parametrize("backend", ["sat", "bdd"])
    def test_raises_within_deadline(self, backend):
        f = self._hard_function()
        deadline = 0.75
        started = time.monotonic()
        with pytest.raises(ZenBudgetExceeded) as info:
            f.find(backend=backend, budget=Budget(deadline_s=deadline))
        elapsed = time.monotonic() - started
        assert info.value.reason == "deadline"
        assert elapsed < 2 * deadline
        assert info.value.stats["elapsed_s"] >= deadline
