"""`ZenFunction`: the executable-and-analyzable function wrapper (§4).

A `ZenFunction` wraps a Python function over Zen values.  The same
model then supports every analysis in the paper:

* :meth:`evaluate` — concrete simulation,
* :meth:`find` — counterexample / example input search (bounded model
  checking) with either the SAT or the BDD backend,
* :meth:`transformer` — the state set transformer abstraction
  (:mod:`repro.core.transformers`),
* :meth:`generate_inputs` — symbolic-execution test generation
  (:mod:`repro.core.testgen`),
* :meth:`compile` — extraction of a plain Python implementation
  (:mod:`repro.core.compile`).
"""

from __future__ import annotations

import importlib
import inspect
import typing
from typing import Any, Callable, List, Optional, Sequence, Tuple

from ..backends import (
    BddBackend,
    ConcreteEvaluator,
    SatBackend,
    SymbolicEvaluator,
    decode,
)
from ..backends import values as sv
from ..errors import ZenArityError, ZenTypeError, ZenUnsoundResultError
from ..lang import Zen, constant, types as ty
from ..lang import expr as ex
from ..telemetry.spans import span
from .budget import start_meter

DEFAULT_MAX_LIST_LENGTH = 4


def resolve_ref(ref: Any) -> Any:
    """Resolve a ``"module:attribute"`` string to the named object.

    Non-string references (already-resolved callables) pass through
    untouched.  Dotted attribute paths after the colon are followed.
    """
    if not isinstance(ref, str):
        return ref
    module_name, _, attr_path = ref.partition(":")
    if not module_name or not attr_path:
        raise ZenTypeError(
            f"expected a 'module:attribute' reference, got {ref!r}"
        )
    try:
        target = importlib.import_module(module_name)
    except ImportError as error:
        raise ZenTypeError(
            f"cannot import module {module_name!r} for {ref!r}: {error}"
        ) from error
    for part in attr_path.split("."):
        try:
            target = getattr(target, part)
        except AttributeError as error:
            raise ZenTypeError(f"cannot resolve {ref!r}: {error}") from error
    return target


def _make_backend(backend):
    """Resolve a backend name or pass an instance through.

    Accepting instances lets callers keep one backend across queries to
    read its accumulated statistics (``Bdd.stats()``,
    ``SatBackend.statistics``).
    """
    if backend == "sat":
        return SatBackend()
    if backend == "bdd":
        return BddBackend()
    if isinstance(backend, (SatBackend, BddBackend)):
        return backend
    raise ZenTypeError(
        f"unknown backend {backend!r}; use 'sat', 'bdd', or an instance"
    )


class ZenFunction:
    """A model function over Zen values, ready for analysis.

    Construct with explicit argument types::

        f = ZenFunction(lambda p: forward(table, p), [Packet])

    or from annotations with :func:`zen_function`.
    """

    def __init__(
        self,
        fn: Callable[..., Any],
        arg_annotations: Sequence[Any],
        name: Optional[str] = None,
    ):
        self._fn = fn
        self._arg_types: List[ty.ZenType] = [
            ty.from_annotation(a) for a in arg_annotations
        ]
        if not 1 <= len(self._arg_types) <= 4:
            raise ZenArityError(
                "Zen functions take between one and four arguments"
            )
        self.name = name or getattr(fn, "__name__", "<zen function>")
        self._arg_vars = [
            Zen(ex.Var(f"arg{i}", t)) for i, t in enumerate(self._arg_types)
        ]
        result = fn(*self._arg_vars)
        if not isinstance(result, Zen):
            raise ZenTypeError(
                f"{self.name} must return a Zen value, got {result!r}"
            )
        self._body = result

    # ------------------------------------------------------------------

    @classmethod
    def from_ref(cls, ref: Any, *args: Any, **kwargs: Any) -> "ZenFunction":
        """Resolve a picklable reference into a :class:`ZenFunction`.

        ``ref`` is either a ``"package.module:attribute"`` import path
        or a callable.  The resolved attribute may be a ZenFunction, a
        fully annotated plain function (wrapped via
        :func:`zen_function`), or a *builder* — a callable invoked with
        ``*args``/``**kwargs`` whose result is coerced the same way.

        This is the hook the fault-isolated query service uses: a
        ZenFunction itself closes over lambdas and a built expression
        DAG and cannot cross a process boundary, but a reference plus
        builder arguments can, and the worker reconstructs the model on
        its side.
        """
        target = resolve_ref(ref)
        if isinstance(target, cls):
            if args or kwargs:
                raise ZenTypeError(
                    f"{ref!r} is already a ZenFunction; builder arguments "
                    "are only valid for builder callables"
                )
            return target
        if callable(target) and (args or kwargs):
            built = target(*args, **kwargs)
            if isinstance(built, cls):
                return built
            if callable(built):
                return zen_function(built)
            raise ZenTypeError(
                f"builder {ref!r} must return a ZenFunction or an "
                f"annotated callable, got {built!r}"
            )
        if callable(target):
            # Prefer treating it as a builder (zero-arg factory); fall
            # back to annotation wrapping for plain model functions.
            try:
                built = target()
            except TypeError:
                return zen_function(target)
            if isinstance(built, cls):
                return built
            if callable(built):
                return zen_function(built)
            return zen_function(target)
        raise ZenTypeError(
            f"cannot build a ZenFunction from {ref!r} ({target!r})"
        )

    def __reduce__(self):
        raise ZenTypeError(
            f"ZenFunction {self.name!r} is not picklable (it closes over "
            "a built expression DAG); ship a QuerySpec with a "
            "'module:attribute' builder reference instead — the worker "
            "rebuilds the model via ZenFunction.from_ref"
        )

    @property
    def arg_types(self) -> List[ty.ZenType]:
        """Zen types of the function's arguments."""
        return list(self._arg_types)

    @property
    def return_type(self) -> ty.ZenType:
        """Zen type of the function's result."""
        return self._body.type

    @property
    def body(self) -> Zen:
        """The function body as a Zen expression over ``argN`` vars."""
        return self._body

    # ------------------------------------------------------------------
    # Simulation
    # ------------------------------------------------------------------

    def evaluate(self, *args: Any) -> Any:
        """Run the model on concrete inputs (simulation)."""
        self._check_arity(args)
        env = {f"arg{i}": value for i, value in enumerate(args)}
        return ConcreteEvaluator(env).evaluate(self._body.expr)

    def __call__(self, *args: Any) -> Any:
        return self.evaluate(*args)

    # ------------------------------------------------------------------
    # Bounded model checking
    # ------------------------------------------------------------------

    def find(
        self,
        predicate: Optional[Callable[..., Zen]] = None,
        backend: Any = "sat",
        max_list_length: int = DEFAULT_MAX_LIST_LENGTH,
        budget: Any = None,
        validate: bool = True,
    ) -> Optional[Tuple[Any, ...]]:
        """Search for inputs whose run satisfies `predicate`.

        `predicate` receives the argument Zen values followed by the
        result Zen value and returns ``Zen<bool>``.  Without a
        predicate the result itself must be a boolean and is required
        to hold.  Returns a tuple of concrete inputs, a single value
        for unary functions, or None when no input exists (up to the
        list-length bound).

        `backend` is ``"sat"``, ``"bdd"``, or a backend instance
        (reusable across queries, e.g. to accumulate statistics).

        `budget` is an optional :class:`~repro.core.budget.Budget` (or
        running meter); the query raises
        :class:`~repro.errors.ZenBudgetExceeded` on exhaustion.  With
        `validate` (the default), any model found is replayed through
        the concrete evaluator before being returned, so a latent
        encoding bug in a backend raises
        :class:`~repro.errors.ZenUnsoundResultError` instead of
        silently yielding a wrong input.
        """
        engine = _make_backend(backend)
        meter = start_meter(budget)
        if meter is not None:
            engine.set_budget(meter)
        with span(
            "query.find",
            function=self.name,
            backend=getattr(engine, "name", str(backend)),
            max_list_length=max_list_length,
        ):
            try:
                evaluator = SymbolicEvaluator(
                    engine, max_list_length=max_list_length
                )
                with span("compile.flatten"):
                    sym_args = [
                        evaluator.fresh_input(f"arg{i}", t)
                        for i, t in enumerate(self._arg_types)
                    ]
                    if predicate is None:
                        if not isinstance(self.return_type, ty.BoolType):
                            raise ZenTypeError(
                                "find without a predicate needs a "
                                "boolean-valued function"
                            )
                        prop = self._body
                    else:
                        # Over the body expression, not its evaluated
                        # value: the evaluator then compiles "body op
                        # constant" exactly as if the model had folded
                        # the property in (its memo shares the body).
                        prop = predicate(*self._arg_vars, self._body)
                        if not isinstance(prop, Zen) or not isinstance(
                            prop.type, ty.BoolType
                        ):
                            raise ZenTypeError(
                                "find predicate must return Zen<bool>"
                            )
                    constraint_value = evaluator.evaluate(prop.expr)
                assert isinstance(constraint_value, sv.SymBool)
                with span("solve"):
                    model = engine.solve(constraint_value.bit)
            finally:
                if meter is not None:
                    engine.set_budget(None)
            if model is None:
                return None
            decoded = tuple(decode(model, arg) for arg in sym_args)
            if validate:
                with span("validate.replay"):
                    self._validate_model(decoded, predicate, backend)
            return decoded[0] if len(decoded) == 1 else decoded

    def _validate_model(
        self,
        decoded: Tuple[Any, ...],
        predicate: Optional[Callable[..., Zen]],
        backend: Any,
    ) -> None:
        """Replay a solver model through the concrete backend.

        The concrete evaluator shares no code with the bitblaster or
        the BDD encoder, so agreement here is an end-to-end soundness
        check of the whole symbolic pipeline for this model.
        """
        name = backend if isinstance(backend, str) else type(backend).__name__
        result = self.evaluate(*decoded)
        if predicate is None:
            satisfied = result is True
        else:
            const_args = [
                constant(value, t)
                for value, t in zip(decoded, self._arg_types)
            ]
            prop = predicate(*const_args, constant(result, self.return_type))
            satisfied = ConcreteEvaluator({}).evaluate(prop.expr) is True
        if not satisfied:
            raise ZenUnsoundResultError(
                f"{name} backend returned a model of {self.name} that "
                f"fails concrete replay: {decoded!r} (the symbolic "
                "encoding and the concrete evaluator disagree)",
                model=decoded,
                backend=name,
            )

    def verify(
        self,
        invariant: Callable[..., Zen],
        backend: Any = "sat",
        max_list_length: int = DEFAULT_MAX_LIST_LENGTH,
        budget: Any = None,
        validate: bool = True,
    ) -> Optional[Tuple[Any, ...]]:
        """Check that `invariant` holds on all inputs.

        Returns None when verified, else a counterexample input (the
        negation handed to :meth:`find`, so counterexamples are
        concrete-replay-validated and budgets apply unchanged).
        """
        def negated(*zs: Zen) -> Zen:
            return ~invariant(*zs)

        return self.find(
            negated,
            backend=backend,
            max_list_length=max_list_length,
            budget=budget,
            validate=validate,
        )

    # ------------------------------------------------------------------
    # Other analyses (implemented in sibling modules)
    # ------------------------------------------------------------------

    def transformer(self, context=None, budget=None):
        """Build a :class:`StateSetTransformer` for this function."""
        from .transformers import StateSetTransformer

        return StateSetTransformer.build(self, context=context, budget=budget)

    def generate_inputs(
        self,
        max_inputs: int = 64,
        max_list_length: int = DEFAULT_MAX_LIST_LENGTH,
        budget: Any = None,
    ):
        """Generate high-coverage test inputs (symbolic execution).

        Returns an :class:`~repro.core.testgen.InputSuite` (a list
        whose ``truncated`` flag records whether `max_inputs` cut
        exploration short).
        """
        from .testgen import generate_inputs

        return generate_inputs(
            self,
            max_inputs=max_inputs,
            max_list_length=max_list_length,
            budget=budget,
        )

    def compile(self) -> Callable[..., Any]:
        """Extract a plain Python implementation of the model.

        Compilation is memoized: repeated calls return the same
        closure without regenerating source.
        """
        from .compilation import compile_function

        return compile_function(self)

    # ------------------------------------------------------------------

    def _check_arity(self, args: Sequence[Any]) -> None:
        if len(args) != len(self._arg_types):
            raise ZenArityError(
                f"{self.name} takes {len(self._arg_types)} argument(s), "
                f"got {len(args)}"
            )


def zen_function(fn: Callable[..., Any]) -> ZenFunction:
    """Build a ZenFunction from a fully annotated Python function::

        @zen_function
        def allowed(pkt: Packet) -> Bool:
            return acl_allows(MY_ACL, pkt)
    """
    hints = typing.get_type_hints(fn)
    signature = inspect.signature(fn)
    annotations = []
    for param in signature.parameters.values():
        annotation = param.annotation
        if annotation is inspect.Parameter.empty:
            raise ZenTypeError(
                f"parameter {param.name!r} of {fn.__name__} needs a Zen "
                "type annotation"
            )
        annotations.append(hints.get(param.name, annotation))
    return ZenFunction(fn, annotations, name=fn.__name__)
