"""Fault injection and exception-hierarchy coverage.

Counterexample self-validation is only trustworthy if a corrupted
model is actually rejected, so these tests wire deliberately lying
backends into ``find`` and assert the replay check catches them.  The
hierarchy tests pin down that every public entry point signals
malformed input with a :class:`repro.ZenError` subclass (so callers
can catch one base type) and that the new structured exceptions carry
their metadata.
"""

from __future__ import annotations

import pytest

from repro import (
    Budget,
    UInt,
    ZenBudgetExceeded,
    ZenError,
    ZenFunction,
    ZenUnsoundResultError,
)
from repro.backends import BddBackend, SatBackend
from repro.bdd import Bdd
from repro.errors import ZenArityError, ZenSolverError, ZenTypeError


class _LyingModel:
    """Proxies a real model but answers every bit inverted."""

    def __init__(self, inner):
        self._inner = inner

    def value(self, bit):
        return not self._inner.value(bit)


def _lying(backend_cls):
    class Lying(backend_cls):
        def solve(self, constraint):
            model = super().solve(constraint)
            return None if model is None else _LyingModel(model)

    Lying.__name__ = f"Lying{backend_cls.__name__}"
    return Lying


class TestFaultInjection:
    @pytest.mark.parametrize("backend_cls", [SatBackend, BddBackend])
    def test_corrupted_model_is_rejected(self, backend_cls):
        f = ZenFunction(lambda h: h == 5, [UInt])
        with pytest.raises(ZenUnsoundResultError) as info:
            f.find(backend=_lying(backend_cls)())
        assert info.value.model == (4294967290,)  # ~5 over 32 bits
        assert "Lying" in info.value.backend

    @pytest.mark.parametrize("backend_cls", [SatBackend, BddBackend])
    def test_corrupted_model_rejected_under_predicate(self, backend_cls):
        f = ZenFunction(lambda x: x + 1, [UInt])
        with pytest.raises(ZenUnsoundResultError):
            f.find(
                lambda x, out: out == 10,
                backend=_lying(backend_cls)(),
            )

    def test_validate_false_lets_corruption_through(self):
        # Opting out of replay is explicit; the corrupted value comes
        # back verbatim (documents what `validate` protects against).
        f = ZenFunction(lambda h: h == 5, [UInt])
        result = f.find(backend=_lying(SatBackend)(), validate=False)
        assert result == 4294967290

    @pytest.mark.parametrize("backend", ["sat", "bdd"])
    def test_honest_backends_pass_validation(self, backend):
        f = ZenFunction(lambda h: h == 5, [UInt])
        assert f.find(backend=backend) == 5
        g = ZenFunction(lambda x: x + 1, [UInt])
        assert g.find(lambda x, out: out == 10, backend=backend) == 9

    def test_unsat_needs_no_validation(self):
        f = ZenFunction(lambda h: (h == 5) & (h == 6), [UInt])
        assert f.find(backend=_lying(SatBackend)()) is None


class TestExceptionHierarchy:
    def test_budget_exceeded_is_zen_error_and_timeout(self):
        error = ZenBudgetExceeded(
            "m", reason="deadline", budget=Budget(deadline_s=1),
            stats={"elapsed_s": 1.5},
        )
        assert isinstance(error, ZenError)
        assert isinstance(error, TimeoutError)
        assert error.reason == "deadline"
        assert error.budget.deadline_s == 1
        assert error.stats["elapsed_s"] == 1.5
        assert error.degradations == ()

    def test_unsound_result_is_zen_error_and_runtime(self):
        error = ZenUnsoundResultError("m", model=(1, 2), backend="sat")
        assert isinstance(error, ZenError)
        assert isinstance(error, RuntimeError)
        assert error.model == (1, 2)
        assert error.backend == "sat"

    def test_unknown_backend_raises_zen_type_error(self):
        f = ZenFunction(lambda x: x == 1, [UInt])
        with pytest.raises(ZenTypeError):
            f.find(backend="z3")

    def test_non_bool_find_without_predicate(self):
        f = ZenFunction(lambda x: x + 1, [UInt])
        with pytest.raises(ZenTypeError):
            f.find()

    def test_predicate_must_return_zen_bool(self):
        f = ZenFunction(lambda x: x + 1, [UInt])
        with pytest.raises(ZenTypeError):
            f.find(lambda x, out: 7)

    def test_wrong_arity_raises(self):
        f = ZenFunction(lambda x: x == 1, [UInt])
        with pytest.raises(ZenArityError):
            f.evaluate(1, 2)
        with pytest.raises(ZenArityError):
            ZenFunction(lambda: 1, [])

    def test_bad_budget_type_raises(self):
        f = ZenFunction(lambda x: x == 1, [UInt])
        with pytest.raises(ZenTypeError):
            f.find(budget="five seconds")

    def test_bdd_unknown_variable(self):
        manager = Bdd()
        with pytest.raises(ZenSolverError):
            manager.var(3)

    def test_every_robustness_error_catchable_as_zen_error(self):
        f = ZenFunction(lambda a, b: a * b == b * a, [UInt, UInt])
        with pytest.raises(ZenError):
            f.verify(
                lambda a, b, out: out,
                budget=Budget(max_conflicts=10),
            )
        with pytest.raises(ZenError):
            f.find(backend="nope")
