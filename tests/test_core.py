"""Tests for the core analysis API: ZenFunction, find, verify,
transformers, test generation, compilation."""

from __future__ import annotations

from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    Bool,
    Byte,
    Int,
    UInt,
    UShort,
    Zen,
    ZenArityError,
    ZenFunction,
    ZenTypeError,
    ZList,
    ZOption,
    constant,
    if_,
    register_object,
    some,
    none,
    zen_function,
    TransformerContext,
)
from repro.errors import ZenUnsupportedError
from repro.lang.listops import contains, length


@register_object
@dataclass(frozen=True)
class Flow:
    src: UShort
    dst: UShort
    secure: Bool


def classify(flow: Zen) -> Zen:
    """A little model: classify flows into 0 (drop), 1, 2."""
    return if_(
        flow.secure,
        constant(2, Byte),
        if_(flow.dst < 1024, constant(0, Byte), constant(1, Byte)),
    )


@pytest.fixture
def classifier():
    return ZenFunction(classify, [Flow], name="classify")


class TestZenFunctionBasics:
    def test_evaluate(self, classifier):
        assert classifier.evaluate(Flow(1, 80, False)) == 0
        assert classifier.evaluate(Flow(1, 8080, False)) == 1
        assert classifier.evaluate(Flow(1, 80, True)) == 2

    def test_call_alias(self, classifier):
        assert classifier(Flow(1, 80, False)) == 0

    def test_arity_checks(self, classifier):
        with pytest.raises(ZenArityError):
            classifier.evaluate(Flow(1, 2, False), Flow(1, 2, False))
        with pytest.raises(ZenArityError):
            ZenFunction(lambda: constant(True, bool), [])

    def test_types_exposed(self, classifier):
        assert len(classifier.arg_types) == 1
        assert str(classifier.return_type) == "byte"

    def test_must_return_zen(self):
        with pytest.raises(ZenTypeError):
            ZenFunction(lambda f: 42, [Flow])

    def test_zen_function_decorator(self):
        @zen_function
        def wide_open(flow: Flow) -> Bool:
            return flow.dst >= 0

        assert wide_open.evaluate(Flow(0, 0, False)) is True

    def test_decorator_requires_annotations(self):
        with pytest.raises(ZenTypeError):
            @zen_function
            def nope(flow):
                return flow

    def test_multi_arg(self):
        add = ZenFunction(lambda a, b: a + b, [Byte, Byte])
        assert add.evaluate(200, 100) == 44  # wraps


class TestFind:
    @pytest.mark.parametrize("backend", ["sat", "bdd"])
    def test_find_example(self, classifier, backend):
        flow = classifier.find(
            lambda f, r: r == 2, backend=backend
        )
        assert flow is not None
        assert classifier.evaluate(flow) == 2

    @pytest.mark.parametrize("backend", ["sat", "bdd"])
    def test_find_unsat(self, classifier, backend):
        flow = classifier.find(lambda f, r: r == 9, backend=backend)
        assert flow is None

    @pytest.mark.parametrize("backend", ["sat", "bdd"])
    def test_find_with_input_constraint(self, classifier, backend):
        flow = classifier.find(
            lambda f, r: (r == 0) & (f.src == 7), backend=backend
        )
        assert flow is not None
        assert flow.src == 7
        assert flow.dst < 1024
        assert not flow.secure

    def test_find_boolean_function_no_predicate(self):
        f = ZenFunction(lambda x: x > 100, [Byte])
        example = f.find()
        assert example is not None and example > 100

    def test_find_no_predicate_non_bool_rejected(self, classifier):
        with pytest.raises(ZenTypeError):
            classifier.find()

    def test_find_multi_arg_returns_tuple(self):
        f = ZenFunction(lambda a, b: a + b == 10, [Byte, Byte])
        result = f.find()
        assert result is not None
        a, b = result
        assert (a + b) % 256 == 10

    def test_find_predicate_must_be_bool(self, classifier):
        with pytest.raises(ZenTypeError):
            classifier.find(lambda f, r: r)

    def test_verify_holds(self, classifier):
        # result is always <= 2
        assert classifier.verify(lambda f, r: r <= 2) is None

    def test_verify_counterexample(self, classifier):
        cex = classifier.verify(lambda f, r: r != 0)
        assert cex is not None
        assert classifier.evaluate(cex) == 0

    def test_predicate_form_compiles_like_the_folded_form(self):
        # The predicate is built over the body *expression*, so
        # "line == last" reaches the compiler as one comparison of an
        # if-chain with a constant, as it does when the model folds the
        # property in: same BDD work, to the expansion.
        from repro.backends import BddBackend
        from repro.network import Header, acl_match_line
        from repro.workloads import random_acl

        acl = random_acl(100, seed=11)
        last = len(acl.rules)

        def expansions(function, predicate):
            engine = BddBackend()
            witness = function.find(predicate, backend=engine)
            return witness, sum(engine.manager.stats().cache_misses.values())

        folded = ZenFunction(lambda h: acl_match_line(acl, h) == last, [Header])
        plain = ZenFunction(lambda h: acl_match_line(acl, h), [Header])
        by_fold, folded_count = expansions(folded, None)
        by_predicate, predicate_count = expansions(
            plain, lambda h, line: line == last
        )
        assert by_fold == by_predicate
        assert predicate_count == folded_count

    def test_predicate_ignoring_the_result_never_evaluates_the_body(self):
        from repro.lang import symbolic

        # The body reads a variable no evaluator binds: evaluating it raises.
        f = ZenFunction(lambda x: x + symbolic(Byte, "unbound"), [Byte])
        assert f.find(lambda x, out: x == 3, validate=False) == 3

    def test_unknown_backend(self, classifier):
        with pytest.raises(ZenTypeError):
            classifier.find(lambda f, r: r == 0, backend="quantum")

    @pytest.mark.parametrize("backend", ["sat", "bdd"])
    def test_find_over_lists(self, backend):
        f = ZenFunction(
            lambda lst: contains(lst, constant(7, Byte)), [ZList[Byte]]
        )
        example = f.find(backend=backend, max_list_length=3)
        assert example is not None
        assert 7 in example

    @pytest.mark.parametrize("backend", ["sat", "bdd"])
    def test_find_list_of_exact_length(self, backend):
        f = ZenFunction(
            lambda lst: length(lst) == 3, [ZList[Byte]]
        )
        example = f.find(backend=backend, max_list_length=4)
        assert example is not None and len(example) == 3

    def test_find_list_longer_than_bound_unsat(self):
        f = ZenFunction(lambda lst: length(lst) == 5, [ZList[Byte]])
        assert f.find(max_list_length=3) is None

    @pytest.mark.parametrize("backend", ["sat", "bdd"])
    def test_find_option_input(self, backend):
        f = ZenFunction(
            lambda o: o.has_value() & (o.value() > 10), [ZOption[Byte]]
        )
        example = f.find(backend=backend)
        assert example is not None and example > 10


class TestGenerateInputs:
    def test_covers_branches(self, classifier):
        inputs = classifier.generate_inputs()
        results = {classifier.evaluate(i) for i in inputs}
        assert results == {0, 1, 2}

    def test_respects_max(self, classifier):
        inputs = classifier.generate_inputs(max_inputs=1)
        assert len(inputs) == 1

    def test_inputs_are_concrete(self, classifier):
        for flow in classifier.generate_inputs():
            assert isinstance(flow, Flow)


class TestCompile:
    def test_compiled_matches_interpreter(self, classifier):
        compiled = classifier.compile()
        for flow in (
            Flow(0, 0, False),
            Flow(1, 1023, False),
            Flow(1, 1024, False),
            Flow(9, 99, True),
        ):
            assert compiled(flow) == classifier.evaluate(flow)

    def test_compiled_arith(self):
        f = ZenFunction(lambda a, b: (a + b) * 2 - (a ^ b), [Byte, Byte])
        compiled = f.compile()
        for a, b in [(0, 0), (255, 255), (7, 200)]:
            assert compiled(a, b) == f.evaluate(a, b)

    def test_compiled_signed(self):
        f = ZenFunction(lambda x: if_(x < 0, -x, x), [Int])
        compiled = f.compile()
        assert compiled(-5) == 5
        assert compiled(-(2 ** 31)) == -(2 ** 31)  # negation wraps

    def test_compiled_object_result(self):
        f = ZenFunction(lambda fl: fl.with_field("src", fl.dst), [Flow])
        compiled = f.compile()
        assert compiled(Flow(1, 2, True)) == Flow(2, 2, True)

    def test_compiled_option(self):
        f = ZenFunction(
            lambda x: if_(x > 0, some(x), none(Byte)), [Byte]
        )
        compiled = f.compile()
        assert compiled(0) is None
        assert compiled(5) == 5

    def test_compile_rejects_list_case(self):
        f = ZenFunction(lambda lst: length(lst), [ZList[Byte]])
        with pytest.raises(ZenUnsupportedError):
            f.compile()

    def test_compiled_source_attached(self, classifier):
        compiled = classifier.compile()
        assert "def _compiled" in compiled._zen_source

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 65535), st.integers(0, 65535), st.booleans())
    def test_compiled_equivalence_property(self, src, dst, secure):
        f = ZenFunction(classify, [Flow])
        compiled = f.compile()
        flow = Flow(src, dst, secure)
        assert compiled(flow) == f.evaluate(flow)


class TestTransformers:
    @pytest.fixture
    def ctx(self):
        return TransformerContext(max_list_length=2)

    def test_forward_image(self, ctx):
        f = ZenFunction(lambda x: x + 1, [Byte])
        t = f.transformer(ctx)
        s = ctx.singleton(Byte, 41)
        image = t.transform_forward(s)
        assert image.contains(42)
        assert not image.contains(41)
        assert image.element() == 42

    def test_reverse_image(self, ctx):
        f = ZenFunction(lambda x: x & 0xF0, [Byte])
        t = f.transformer(ctx)
        out = ctx.singleton(Byte, 0x30)
        pre = t.transform_reverse(out)
        assert pre.contains(0x3A)
        assert not pre.contains(0x4A)
        assert pre.count() == 16

    def test_forward_universe(self, ctx):
        f = ZenFunction(lambda x: x & 1, [Byte])
        t = f.transformer(ctx)
        image = t.transform_forward(ctx.universe(Byte))
        assert image.contains(0) and image.contains(1)
        assert not image.contains(2)

    def test_set_algebra(self, ctx):
        evens = ctx.from_predicate(
            ZenFunction(lambda x: (x & 1) == 0, [Byte])
        )
        small = ctx.from_predicate(ZenFunction(lambda x: x < 10, [Byte]))
        both = evens & small
        assert both.contains(4)
        assert not both.contains(5)
        assert not both.contains(12)
        neither = (evens | small).complement()
        assert neither.contains(11)
        assert not neither.contains(4)
        diff = small - evens
        assert diff.contains(3) and not diff.contains(4)

    def test_set_count(self, ctx):
        small = ctx.from_predicate(ZenFunction(lambda x: x < 10, [Byte]))
        assert small.count() == 10
        assert ctx.universe(Byte).count() == 256
        assert ctx.empty_set(Byte).count() == 0

    def test_set_equality_canonical(self, ctx):
        a = ctx.from_predicate(ZenFunction(lambda x: x < 10, [Byte]))
        b = ctx.from_predicate(ZenFunction(lambda x: ~(x >= 10), [Byte]))
        assert a.equals(b)

    def test_from_predicates_equals_one_set_per_predicate(self, ctx):
        # Roots sharing a sub-model (`masked`, an if-chain compared with
        # several constants) must come out node-identical to the sets
        # built one predicate at a time in the same context.
        def roots(x):
            masked = x & 0x3C
            none_of = constant(0, Byte)
            bucket = if_(x < 40, 1, if_(x < 90, 2, if_(masked == 4, 1, none_of)))
            return [
                masked == 4,
                bucket == 1,
                bucket == 2,
                (bucket == 0) & (x > 200),
                constant(True, bool),
            ]

        batched = ctx.from_predicates(roots, Byte, name="buckets")
        assert len(batched) == 5
        for index, one in enumerate(batched):
            alone = ctx.from_predicate(
                ZenFunction(lambda x, i=index: roots(x)[i], [Byte])
            )
            assert one.node == alone.node
            assert one.zen_type == alone.zen_type
        assert batched[4].is_universe()
        assert batched[1].count() == 40 + sum(
            1 for x in range(90, 256) if x & 0x3C == 4
        )

    def test_from_predicates_runs_one_evaluator_session(self, ctx, monkeypatch):
        from repro.core import transformers

        sessions = []

        class Spy(transformers.SymbolicEvaluator):
            def __init__(self, *args, **kwargs):
                sessions.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(transformers, "SymbolicEvaluator", Spy)
        ctx.from_predicates(lambda x: [x < 3, x < 5, x == 7], Byte)
        assert len(sessions) == 1
        ctx.from_predicate(ZenFunction(lambda x: x < 3, [Byte]))
        assert len(sessions) == 2

    def test_from_predicates_edges(self, ctx):
        assert ctx.from_predicates(lambda x: [], Byte) == []
        with pytest.raises(ZenTypeError, match="root 1"):
            ctx.from_predicates(lambda x: [x < 3, x + 1], Byte)
        with pytest.raises(ZenTypeError, match="root 0"):
            ctx.from_predicates(lambda x: [True], Byte)
        with pytest.raises(ZenTypeError, match="list of Zen bools"):
            ctx.from_predicates(lambda x: x < 3, Byte)
        with pytest.raises(ZenTypeError):
            ctx.from_predicate(ZenFunction(lambda x: x + 1, [Byte]))
        with pytest.raises(ZenArityError):
            ctx.from_predicate(ZenFunction(lambda a, b: a < b, [Byte, Byte]))

    def test_empty_and_universe(self, ctx):
        assert ctx.empty_set(Byte).is_empty()
        assert ctx.universe(Byte).is_universe()
        assert ctx.empty_set(Byte).element() is None

    def test_type_mismatch_rejected(self, ctx):
        a = ctx.universe(Byte)
        b = ctx.universe(UShort)
        with pytest.raises(ZenTypeError):
            a.union(b)

    def test_context_mismatch_rejected(self, ctx):
        other = TransformerContext()
        with pytest.raises(ZenTypeError):
            ctx.universe(Byte).union(other.universe(Byte))

    def test_transformer_requires_unary(self, ctx):
        f = ZenFunction(lambda a, b: a + b, [Byte, Byte])
        with pytest.raises(ZenArityError):
            f.transformer(ctx)

    def test_cross_type_transformer(self, ctx):
        f = ZenFunction(lambda x: x > 100, [Byte])
        t = f.transformer(ctx)
        image = t.transform_forward(ctx.singleton(Byte, 200))
        assert image.contains(True)
        assert not image.contains(False)
        pre = t.transform_reverse(ctx.singleton(bool, True))
        assert pre.count() == 155

    def test_option_output_transformer(self, ctx):
        f = ZenFunction(
            lambda x: if_(x > 0, some(x), none(Byte)), [Byte]
        )
        t = f.transformer(ctx)
        image = t.transform_forward(ctx.universe(Byte))
        assert image.contains(None)
        assert image.contains(5)
        pre = t.transform_reverse(ctx.singleton(ZOption[Byte], None))
        assert pre.contains(0)
        assert pre.count() == 1

    def test_compose(self, ctx):
        inc = ZenFunction(lambda x: x + 1, [Byte]).transformer(ctx)
        dbl = ZenFunction(lambda x: x * 2, [Byte]).transformer(ctx)
        both = inc.compose(dbl)
        image = both.transform_forward(ctx.singleton(Byte, 3))
        assert image.element() == 8

    def test_compose_same_type_chain(self, ctx):
        inc = ZenFunction(lambda x: x + 1, [Byte]).transformer(ctx)
        three = inc.compose(inc).compose(inc)
        image = three.transform_forward(ctx.singleton(Byte, 0))
        assert image.element() == 3

    def test_compose_type_mismatch(self, ctx):
        to_bool = ZenFunction(lambda x: x > 0, [Byte]).transformer(ctx)
        inc = ZenFunction(lambda x: x + 1, [Byte]).transformer(ctx)
        with pytest.raises(ZenTypeError):
            to_bool.compose(inc)

    def test_roundtrip_forward_reverse(self, ctx):
        f = ZenFunction(lambda x: x ^ 0xFF, [Byte])  # a bijection
        t = f.transformer(ctx)
        s = ctx.from_predicate(ZenFunction(lambda x: x < 16, [Byte]))
        back = t.transform_reverse(t.transform_forward(s))
        assert back.equals(s)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 255))
    def test_forward_matches_evaluate(self, value):
        # Fresh context per example: hypothesis forbids reusing
        # function-scoped fixtures across examples.
        context = TransformerContext(max_list_length=2)
        f = ZenFunction(lambda x: (x * 3) ^ (x >> 2), [Byte])
        t = f.transformer(context)
        image = t.transform_forward(context.singleton(Byte, value))
        assert image.element() == f.evaluate(value)
        assert image.count() == 1


class TestDeepModels:
    def test_a_too_deep_model_raises_a_depth_error(self):
        """A 985-line ACL built as nested ``if``s recurses past the
        interpreter's limit while tracing; the client gets a
        :class:`ZenDepthError` naming the function, not a bare
        ``RecursionError``, and the limit is left as it was."""
        import sys

        from repro import ZenDepthError
        from repro.network import Header, acl_allows
        from repro.workloads import random_acl

        limit = sys.getrecursionlimit()
        acl = random_acl(985, seed=1)
        with pytest.raises(ZenDepthError, match="deep_acl") as info:
            ZenFunction(
                lambda h: acl_allows(acl, h), [Header], name="deep_acl"
            )
        assert isinstance(info.value.__cause__, RecursionError)
        assert sys.getrecursionlimit() == limit
