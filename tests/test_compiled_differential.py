"""Compiled models against the interpreter.

A warm service ``evaluate`` runs the model's ``compile()`` closure
instead of the stack interpreter, so the two must agree everywhere:
on the fuzz farm's random Zen program grammar, on ACL and NAT models
over random headers, and on the error class an ill-typed argument
raises through ``run_spec`` whether the model is cold (interpreted)
or warm (compiled).
"""

from __future__ import annotations

import functools
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.function import ZenFunction
from repro.errors import ZenArityError, ZenTypeError, ZenUnsupportedError
from repro.fuzz import ScenarioGenerator, build_scenario_model
from repro.fuzz.reference import reference_inputs
from repro.fuzz.scenario import _BOOL_BINOPS, _CMP_OPS, _INT_BINOPS
from repro.network.nat import apply_nat
from repro.network.packet import Header
from repro.network.payload import nat_from_json
from repro.service import ModelCache, QuerySpec, run_spec

SCENARIO_REF = "repro.fuzz.scenario:build_scenario_model"

HEADER_FIELDS = {
    "dst_ip": 32,
    "src_ip": 32,
    "dst_port": 16,
    "src_port": 16,
    "protocol": 8,
}

headers = st.builds(
    Header,
    **{
        name: st.integers(0, (1 << width) - 1)
        for name, width in HEADER_FIELDS.items()
    },
)


def zen_scenario(width: int, ast: list) -> dict:
    """A fuzz-farm `zen` scenario around a drawn expression."""
    return {
        "version": 1,
        "seed": 0,
        "index": 0,
        "kind": "zen",
        "query": "find",
        "max_list_length": 4,
        "bug": None,
        "payload": {"width": width, "vars": 2, "ast": ast},
    }


def zen_asts(width: int, depth: int = 4):
    """The farm's program grammar (``scenario._gen_bool_ast``), at most
    `depth` operators deep like the farm's own programs."""
    edge = st.sampled_from(
        [0, 1, 2, (1 << width) - 1, 1 << (width - 1), width]
    )
    int_leaf = st.one_of(
        st.tuples(st.just("var"), st.integers(0, 1)).map(list),
        st.tuples(
            st.just("const"), st.one_of(edge, st.integers(0, (1 << width) - 1))
        ).map(list),
    )

    @functools.lru_cache(maxsize=None)
    def ints(depth):
        if depth == 0:
            return int_leaf
        sub, cond = ints(depth - 1), bools(depth - 1)
        return st.one_of(
            int_leaf,
            st.tuples(st.sampled_from(("bnot", "neg")), sub).map(list),
            st.tuples(st.sampled_from(_INT_BINOPS), sub, sub).map(list),
            st.tuples(st.just("ite"), cond, sub, sub).map(list),
        )

    @functools.lru_cache(maxsize=None)
    def bools(depth):
        operand = ints(max(depth - 1, 0))
        compare = st.tuples(st.sampled_from(_CMP_OPS), operand, operand).map(
            list
        )
        if depth == 0:
            return compare
        sub = bools(depth - 1)
        return st.one_of(
            compare,
            st.tuples(st.just("not"), sub).map(list),
            st.tuples(st.sampled_from(_BOOL_BINOPS), sub, sub).map(list),
            st.tuples(st.just("bif"), sub, sub, sub).map(list),
        )

    return bools(depth)


ZEN_ASTS = {width: zen_asts(width) for width in (8, 16)}


@st.composite
def zen_programs(draw):
    width = draw(st.sampled_from((8, 16)))
    ast = draw(ZEN_ASTS[width])
    pairs = draw(
        st.lists(
            st.tuples(
                st.integers(0, (1 << width) - 1),
                st.integers(0, (1 << width) - 1),
            ),
            min_size=1,
            max_size=8,
        )
    )
    return width, ast, pairs


class TestCompiledMatchesInterpreter:
    @settings(max_examples=150, deadline=None)
    @given(zen_programs())
    def test_zen_grammar(self, program):
        width, ast, pairs = program
        fn = build_scenario_model(zen_scenario(width, ast))
        compiled = fn.compile()
        for x, y in pairs:
            assert compiled(x, y) == fn.evaluate(x, y), (ast, x, y)

    @settings(max_examples=60, deadline=None)
    @given(
        kind=st.sampled_from(("acl", "nat")),
        index=st.integers(0, 10_000),
        drawn=st.lists(headers, min_size=1, max_size=6),
    )
    def test_acl_and_nat_models(self, kind, index, drawn):
        data = ScenarioGenerator(seed=0, kinds=(kind,)).scenario(index)
        fn = build_scenario_model(data)
        compiled = fn.compile()
        # Probes aimed at the rules reach the lines a uniform header
        # almost never matches.
        aimed = reference_inputs(data, random.Random(index), count=6)
        for header in [h for (h,) in aimed] + drawn:
            assert compiled(header) == fn.evaluate(header), header
        if kind == "nat":
            # The rewritten header itself, not only the verdict after it.
            table = nat_from_json(data["payload"]["rules"], "nat")
            rewrite = ZenFunction(lambda h: apply_nat(table, h), [Header])
            rewrite_compiled = rewrite.compile()
            for header in [h for (h,) in aimed] + drawn:
                assert rewrite_compiled(header) == rewrite.evaluate(header)


ACL_SCENARIO = ScenarioGenerator(seed=0, kinds=("acl",)).scenario(0)


def acl_spec(*args) -> QuerySpec:
    return QuerySpec(
        builder=SCENARIO_REF,
        builder_args=(ACL_SCENARIO,),
        kind="evaluate",
        args=args,
    )


class TestWarmEvaluateThroughRunSpec:
    @settings(max_examples=40, deadline=None)
    @given(
        header=headers,
        field=st.sampled_from(sorted(HEADER_FIELDS)),
        excess=st.integers(0, 1 << 8),
    )
    def test_ill_typed_argument_same_error_cold_and_warm(
        self, header, field, excess
    ):
        values = {name: getattr(header, name) for name in HEADER_FIELDS}
        values[field] = (1 << HEADER_FIELDS[field]) + excess
        bad = Header(**values)
        cache = ModelCache()
        with pytest.raises(ZenTypeError) as cold:
            run_spec(acl_spec(bad), cache)  # miss: interpreted
        warm = run_spec(acl_spec(header), cache)  # hit: compiles
        assert warm["cache_hit"] is True
        with pytest.raises(ZenTypeError) as hot:
            run_spec(acl_spec(bad), cache)  # hit: the compiled path checks
        assert type(hot.value) is type(cold.value)

    def test_warm_evaluate_runs_the_compiled_closure(self):
        cache = ModelCache()
        header = Header(1, 2, 3, 4, 6)
        first = run_spec(acl_spec(header), cache)
        _, _, entry = cache.get_function(acl_spec(header))
        assert "compiled" not in entry.artifacts  # a miss stays interpreted
        second = run_spec(acl_spec(header), cache)
        assert entry.artifacts["compiled"] is entry.function.compile()
        assert second["answer"] == first["answer"]
        assert second["answer"] == entry.function.evaluate(header)
        for args in ((), (header, header)):
            with pytest.raises(ZenArityError):
                run_spec(acl_spec(*args), cache)

    def test_an_argument_the_interpreter_never_reads_is_not_checked(self):
        # `y` sits in the branch x == 0 takes; for x = 5 the interpreter
        # never reads it, so an out-of-range `y` is no error, warm or cold.
        ast = [
            "bif",
            ["eq", ["var", 0], ["const", 0]],
            ["eq", ["var", 1], ["const", 1]],
            ["eq", ["var", 0], ["const", 2]],
        ]
        spec = QuerySpec(
            builder=SCENARIO_REF,
            builder_args=(zen_scenario(8, ast),),
            kind="evaluate",
            args=(5, 300),
        )
        cache = ModelCache()
        cold, warm = run_spec(spec, cache), run_spec(spec, cache)
        assert (cold["cache_hit"], warm["cache_hit"]) == (False, True)
        assert cold["answer"] is warm["answer"] is False
        with pytest.raises(ZenTypeError):
            run_spec(replace(spec, args=(0, 300)), cache)

    def test_a_refused_model_stays_interpreted(self):
        # Route maps over community lists use list `case`, which the
        # compiler refuses: the refusal is recorded once per entry.
        generator = ScenarioGenerator(seed=0, kinds=("routemap",))
        for index in range(40):
            data = generator.scenario(index)
            try:
                build_scenario_model(data).compile()
            except ZenUnsupportedError:
                break
        else:
            pytest.fail("no route map scenario used a list case")
        probe = reference_inputs(data, random.Random(0), count=1)[0]
        spec = QuerySpec(
            builder=SCENARIO_REF,
            builder_args=(data,),
            kind="evaluate",
            args=probe,
        )
        cache = ModelCache()
        answers = [run_spec(spec, cache)["answer"] for _ in range(3)]
        _, _, entry = cache.get_function(spec)
        assert entry.artifacts["compiled"] is None
        assert answers == [entry.function.evaluate(*probe)] * 3
