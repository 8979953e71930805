"""The payload of an absent Option / list cell is unspecified.

``values.merge`` takes the live side's payload unmerged when the other
side's flag (or cell guard) is the constant false, so the bits under a
false flag are whatever the live side happened to hold.  These tests
are the oracle for that invariant: *poisoning* replaces every such
payload with fresh unconstrained inputs, and no observable may notice.
"""

from __future__ import annotations

import importlib.util
import operator
from dataclasses import dataclass
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    Bool,
    ZenFunction,
    ZList,
    ZOption,
    cons,
    constant,
    empty_list,
    if_,
    none,
    register_object,
    some,
    symbolic,
)
from repro.aig import Aig
from repro.analyses import reachable_sets
from repro.backends import BddBackend, SatBackend, SymbolicEvaluator, decode
from repro.backends import values as sv
from repro.baselines.batfish_acl import BatfishAclEncoder
from repro.core import TransformerContext
from repro.core import transformers
from repro.errors import ZenUnsoundResultError
from repro.lang import expr as ex
from repro.lang import types as ty
from repro.lang.listops import contains, head_option, is_empty, length
from repro.network import (
    DENY,
    PERMIT,
    Acl,
    AclRule,
    Header,
    Network,
    Packet,
    Route,
    fwd_in,
    fwd_out,
    make_header,
    make_packet,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
MAX_LEN = 2
#: Three bits: equality across separately allocated BDD inputs is
#: exponential in their width, and width is not what is under test.
Tiny = ty.IntType(3, False)


# ---------------------------------------------------------------------------
# The poison (test-only)
# ---------------------------------------------------------------------------


def poison(backend, value: sv.SymValue) -> sv.SymValue:
    """`value` with every payload under a constant-false flag or cell
    guard replaced by fresh unconstrained inputs."""
    if isinstance(value, (sv.SymBool, sv.SymInt)):
        return value
    if isinstance(value, sv.SymTuple):
        return sv.SymTuple(value.type, [poison(backend, v) for v in value.items])
    if isinstance(value, sv.SymObject):
        return sv.SymObject(
            value.type, {k: poison(backend, v) for k, v in value.fields.items()}
        )
    if isinstance(value, sv.SymOption):
        return sv.SymOption(
            value.type, *_poison_guarded(backend, value.has, value.val)
        )
    if isinstance(value, sv.SymList):
        return sv.SymList(
            value.type,
            [_poison_guarded(backend, g, v) for g, v in value.cells],
        )
    assert isinstance(value, sv.SymMap)
    return sv.SymMap(value.type, poison(backend, value.backing))


def _poison_guarded(backend, guard, payload):
    if backend.is_false(guard):
        return guard, sv.fresh(backend, payload.type, "poison", MAX_LEN)
    return guard, poison(backend, payload)


class PoisoningEvaluator(SymbolicEvaluator):
    """Poisons every value as it is produced (constants, ``none()``, ...),
    so every merge and every reader sees poisoned operands."""

    def _expand(self, node, stack):
        super()._expand(node, stack)
        if isinstance(node, ex.Constant):
            self._memo[node] = poison(self._backend, self._memo[node])

    def _reduce(self, node):
        return poison(self._backend, super()._reduce(node))


def test_poison_replaces_only_unobservable_payloads():
    backend = BddBackend()
    option = ty.from_annotation(ZOption[Tiny])
    absent = sv.from_constant(backend, option, None)
    present = sv.from_constant(backend, option, 5)
    assert poison(backend, absent).val.bits != absent.val.bits
    assert poison(backend, present).val.bits == present.val.bits


# ---------------------------------------------------------------------------
# (1) Observables do not see the poison
# ---------------------------------------------------------------------------


@register_object
@dataclass(frozen=True)
class Rec:
    tag: Tiny
    opt: ZOption[Tiny]
    items: ZList[Tiny]


INPUTS = {
    "c": Bool,
    "d": Bool,
    "r": Rec,
    "o": ZOption[Rec],
    "l": ZList[Tiny],
}


def _programs():
    """Option- and List-valued programs, and observables over them.

    Observables are Bool- or integer-typed, so every bit of their
    symbolic value is observable.
    """
    c, d, r, o, l = (symbolic(t, name) for name, t in INPUTS.items())
    options = {
        "some-else-none": if_(c, some(r), none(Rec)),
        "none-else-merged": if_(c, none(Rec), if_(d, o, some(r))),
        "literal-none": none(Rec),
        "constant-none": constant(None, ZOption[Rec]),
        "payload-holds-none": if_(
            c, some(r.with_field("opt", none(Tiny))), if_(d, o, none(Rec))
        ),
    }
    lists = {
        "cons-else-empty": if_(c, cons(r.tag, l), empty_list(Tiny)),
        "short-else-long": if_(
            c, l, if_(d, cons(1, cons(2, l)), empty_list(Tiny))
        ),
        "record-items": if_(c, r.items, if_(d, empty_list(Tiny), l)),
        "constant-short": if_(c, constant([7], ZList[Tiny]), l),
    }
    observables = {}
    for name, v in options.items():
        payload = v.value()
        observables.update(
            {
                f"{name}.has": v.has_value(),
                f"{name}.value.tag": payload.tag,
                f"{name}.value.opt.has": payload.opt.has_value(),
                f"{name}.value.opt.value": payload.opt.value(),
                f"{name}.value.items.length": length(payload.items),
                f"{name}.value.items.contains": contains(payload.items, 3),
                f"{name}==o": v == o,
                f"{name}==some(r)": v == some(r),
                f"{name}==none": v == none(Rec),
            }
        )
    for name, v in lists.items():
        observables.update(
            {
                f"{name}.length": length(v),
                f"{name}.contains": contains(v, r.tag),
                f"{name}.is_empty": is_empty(v),
                f"{name}.head.has": head_option(v).has_value(),
                f"{name}.head.value": head_option(v).value(),
                f"{name}==l": v == l,
                f"{name}==empty": v == empty_list(Tiny),
            }
        )
    observables["options-equal"] = (
        options["some-else-none"] == options["none-else-merged"]
    )
    observables["lists-equal"] = (
        lists["cons-else-empty"] == lists["short-else-long"]
    )
    return {**options, **lists}, observables


def _evaluators(backend):
    """A plain and a poisoning evaluator over the same symbolic inputs."""
    plain = SymbolicEvaluator(backend, max_list_length=MAX_LEN)
    poisoned = PoisoningEvaluator(backend, max_list_length=MAX_LEN)
    for name, annotation in INPUTS.items():
        poisoned.bind(
            name, plain.fresh_input(name, ty.from_annotation(annotation))
        )
    return plain, poisoned


def _bits(value: sv.SymValue):
    return [value.bit] if isinstance(value, sv.SymBool) else value.bits


def test_observables_are_the_same_handles_on_bdd():
    backend = BddBackend()
    plain, poisoned = _evaluators(backend)
    _, observables = _programs()
    for name, z in observables.items():
        assert _bits(plain.evaluate(z.expr)) == _bits(
            poisoned.evaluate(z.expr)
        ), name


def test_observables_are_equivalent_on_sat():
    backend = SatBackend()
    plain, poisoned = _evaluators(backend)
    _, observables = _programs()
    differs = backend.false()
    for z in observables.values():
        for a, b in zip(
            _bits(plain.evaluate(z.expr)), _bits(poisoned.evaluate(z.expr))
        ):
            differs = backend.or_(differs, backend.xor(a, b))
    assert backend.solve(differs) is None


@pytest.mark.parametrize("make_backend", [BddBackend, SatBackend])
def test_decoded_values_are_the_same(make_backend):
    backend = make_backend()
    plain, poisoned = _evaluators(backend)
    values, observables = _programs()
    # Everything is evaluated before solving: a SAT model only covers
    # the circuit that existed when it was found.
    pairs = {
        name: (plain.evaluate(z.expr), poisoned.evaluate(z.expr))
        for name, z in values.items()
    }
    # One model per polarity of two observables, so that both present
    # and absent results are decoded.
    for pick in ("some-else-none.has", "cons-else-empty.is_empty"):
        wanted = plain.evaluate(observables[pick].expr).bit
        for constraint in (wanted, backend.not_(wanted)):
            model = backend.solve(constraint)
            assert model is not None
            for name, (expected, got) in pairs.items():
                assert decode(model, expected) == decode(model, got), name


# ---------------------------------------------------------------------------
# (2) The guard in OptionValue is load-bearing
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("backend", ["sat", "bdd"])
def test_value_of_none_reads_as_the_default(backend):
    """Fails when ``OptionValue`` stops masking the payload with the flag.

    The merged option below keeps the live side's route as its payload,
    so without the guard ``~has & value.local_pref == 7`` has a model
    (which concrete replay then refuses: ZenUnsoundResultError).
    """
    f = ZenFunction(
        lambda r: if_(r.med == 1, some(r), none(Route)), [Route]
    )
    try:
        leaked = f.find(
            lambda r, out: ~out.has_value() & (out.value().local_pref == 7),
            backend=backend,
            max_list_length=1,
        )
    except ZenUnsoundResultError as caught:  # pragma: no cover - the bug
        pytest.fail(f"the payload of None leaked: {caught}")
    assert leaked is None
    default = f.find(
        lambda r, out: ~out.has_value() & (out.value().local_pref == 0),
        backend=backend,
        max_list_length=1,
    )
    assert default is not None and default.med != 1


# ---------------------------------------------------------------------------
# (3) Random Option/List programs: witnesses replay concretely
# ---------------------------------------------------------------------------

_byte = st.deferred(
    lambda: st.one_of(
        st.just(("x",)),
        st.tuples(st.just("k"), st.integers(0, 3)),
        st.tuples(st.just("value"), _opt),
        st.tuples(st.just("if"), _bool, _byte, _byte),
        st.tuples(st.just("head-or"), _list, _byte),
        # if c1 then k1 elif c2 then k2 ... else tail: constant leaves
        st.tuples(
            st.just("chain"),
            st.lists(st.tuples(_bool, st.integers(0, 7)), min_size=1, max_size=3),
            _byte,
        ),
    )
)
_opt = st.deferred(
    lambda: st.one_of(
        st.just(("o",)),
        st.just(("none",)),
        st.tuples(st.just("some"), _byte),
        st.tuples(st.just("if"), _bool, _opt, _opt),
        st.tuples(st.just("head"), _list),
    )
)
_list = st.deferred(
    lambda: st.one_of(
        st.just(("l",)),
        st.just(("empty",)),
        st.tuples(st.just("cons"), _byte, _list),
        st.tuples(st.just("if"), _bool, _list, _list),
        st.tuples(st.just("tail"), _list),
    )
)
_bool = st.deferred(
    lambda: st.one_of(
        st.tuples(st.just("lt"), _byte, _byte),
        # a comparison with a constant, on either side: over a "chain"
        # it is pushed into the branches instead of reading the merge
        st.tuples(
            st.just("cmp-k"),
            st.sampled_from(["eq", "ne", "lt", "le", "gt", "ge"]),
            _byte,
            st.integers(0, 7),
            st.booleans(),
        ),
        st.tuples(st.just("eq"), st.one_of(
            st.tuples(_byte, _byte), st.tuples(_opt, _opt), st.tuples(_list, _list)
        )),
        st.tuples(st.just("has"), _opt),
        st.tuples(st.just("contains"), _list, _byte),
        st.tuples(st.just("not"), _bool),
        st.tuples(st.just("and"), _bool, _bool),
    )
)


def _build(term, env):
    """A Zen expression from a term; `env` maps the leaves x / o / l."""
    op, *args = term
    if op in env:
        return env[op]
    if op == "k":
        return constant(args[0], Tiny)
    if op == "none":
        return none(Tiny)
    if op == "empty":
        return empty_list(Tiny)
    if op == "eq":
        a, b = (_build(t, env) for t in args[0])
        return a == b
    if op == "chain":
        result = _build(args[1], env)
        for cond, k in reversed(args[0]):
            result = if_(_build(cond, env), constant(k, Tiny), result)
        return result
    if op == "cmp-k":
        compare = getattr(operator, args[0])
        operand, k = _build(args[1], env), constant(args[2], Tiny)
        return compare(k, operand) if args[3] else compare(operand, k)
    sub = [_build(t, env) for t in args]
    if op == "value":
        return sub[0].value()
    if op == "if":
        return if_(*sub)
    if op == "head-or":
        return sub[0].case(empty=lambda: sub[1], cons=lambda hd, tl: hd)
    if op == "some":
        return some(sub[0])
    if op == "head":
        return head_option(sub[0])
    if op == "cons":
        return cons(*sub)
    if op == "tail":
        return sub[0].case(
            empty=lambda: empty_list(Tiny), cons=lambda hd, tl: tl
        )
    if op == "lt":
        return sub[0] < sub[1]
    if op == "has":
        return sub[0].has_value()
    if op == "contains":
        return contains(*sub)
    if op == "not":
        return ~sub[0]
    assert op == "and"
    return sub[0] & sub[1]


@settings(max_examples=60, deadline=None)
@given(program=st.one_of(_opt, _list), wanted=_bool)
def test_random_program_witnesses_replay(program, wanted):
    """``find`` on both backends agrees, and its witness replays under
    ``ZenFunction.evaluate`` (the concrete evaluator shares no code with
    merge), for an Option- or List-valued program and a property that
    reads the program's output wherever it names ``o`` or ``l``."""
    args = [Tiny, ZOption[Tiny], ZList[Tiny]]

    def body(x, o, l):
        return _build(program, {"x": x, "o": o, "l": l})

    def holds(x, o, l, out):
        env = {"x": x, "o": o, "l": l}
        env["o" if isinstance(out.type, ty.OptionType) else "l"] = out
        return _build(wanted, env)

    f = ZenFunction(body, args)
    check = ZenFunction(lambda x, o, l: holds(x, o, l, body(x, o, l)), args)
    found = {
        backend: f.find(
            holds, backend=backend, max_list_length=MAX_LEN, validate=False
        )
        for backend in ("sat", "bdd")
    }
    assert (found["sat"] is None) == (found["bdd"] is None)
    for witness in found.values():
        if witness is not None:
            assert check.evaluate(*witness) is True


# ---------------------------------------------------------------------------
# (4) Transformers: the relation and its images ignore the poison
# ---------------------------------------------------------------------------


def _filtered_interface():
    net = Network()
    device = net.add_device("d", [("10.0.0.0/8", 2), ("0.0.0.0/0", 3)])
    acl = Acl.of("no-ssh", [AclRule(DENY, dst_ports=(22, 22)), AclRule(PERMIT)])
    return net.add_interface(device, 2, acl_out=acl)


def _fwd_out_transformer(context):
    intf = _filtered_interface()
    return ZenFunction(lambda p: fwd_out(intf, p), [Packet]).transformer(context)


def test_relation_without_output_has_no_payload_support():
    context = TransformerContext(max_list_length=1)
    t = _fwd_out_transformer(context)
    has_level, payload_levels = t.out_levels[0], set(t.out_levels[1:])
    manager = context.manager
    assert payload_levels & set(manager.support(t.relation))
    dropped = manager.restrict(t.relation, {has_level: False})
    assert not payload_levels & set(manager.support(dropped))


def test_images_are_the_same_handles_after_poisoning(monkeypatch):
    context = TransformerContext(max_list_length=1)
    seeded = context.from_predicate(
        ZenFunction(
            lambda p: (p.overlay_header.dst_ip >> 24) == 10, [Packet]
        )
    ) | context.singleton(
        Packet, make_packet(make_header(dst_ip=0x0B000001, dst_port=22))
    )
    plain = _fwd_out_transformer(context)
    monkeypatch.setattr(transformers, "SymbolicEvaluator", PoisoningEvaluator)
    poisoned = _fwd_out_transformer(context)
    monkeypatch.undo()
    # The poison never reaches the relation ...
    block = set(poisoned.in_levels) | set(poisoned.out_levels)
    assert set(context.manager.support(poisoned.relation)) <= block
    # ... so images agree, as canonical BDD handles.
    for packets in (seeded, context.universe(Packet)):
        image = plain.transform_forward(packets)
        assert not image.is_empty()
        assert poisoned.transform_forward(packets).node == image.node
    everything = context.universe(ty.from_annotation(ZOption[Packet]))
    assert (
        poisoned.transform_reverse(everything).node
        == plain.transform_reverse(everything).node
    )


# ---------------------------------------------------------------------------
# Counts that pin the gain without a clock
# ---------------------------------------------------------------------------


def _e2e_models():
    spec = importlib.util.spec_from_file_location(
        "e2e_models_under_test", REPO_ROOT / "benchmarks" / "e2e" / "models.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_fabric_query_stays_under_the_expansion_ceiling():
    """One `hsa_fabric` query: ~372 k node expansions when every `if`
    was pushed into the payload of ``none()``, ~82 k since."""
    models = _e2e_models()
    network, entry = models.build_fabric(models.fabric_description(7, 0))
    context = TransformerContext(max_list_length=1)
    paths = reachable_sets(network, entry, context=context, max_depth=6)
    assert len(paths) == 3
    expansions = sum(context.manager.stats().cache_misses.values())
    assert expansions < 120_000


def _last_line_query():
    models = _e2e_models()
    acl = models.figure10_acl(101, 0, 0, 150)
    return acl, ZenFunction(models.last_line_model(acl), [Header])


def test_acl_query_costs_no_more_than_the_hand_written_encoder():
    """Fig. 10 left as an inequality: one 150-line `acl_bdd` query was
    38,577 `and` expansions against the baseline's 18,165 while masks and
    comparisons were built bit by bit, `and` chains left-folded and the
    line register merged at every `if`."""
    acl, function = _last_line_query()
    engine = BddBackend()
    assert function.find(backend=engine) is not None
    zen = sum(engine.manager.stats().cache_misses.values())
    encoder = BatfishAclEncoder()
    assert encoder.manager.any_sat(encoder.match_line_bdds(acl)[-1]) is not None
    baseline = sum(encoder.manager.stats().cache_misses.values())
    assert zen <= 16_000
    assert zen <= baseline


@pytest.mark.parametrize("make_backend", [BddBackend, SatBackend])
def test_acl_query_builds_no_constant_vector(make_backend, monkeypatch):
    """Every mask, prefix, port bound and line number of the query is a
    constant operand: none of them becomes a bit vector."""
    from repro.backends import bitvector as bv

    calls = []
    monkeypatch.setattr(bv, "const_vector", lambda *args: calls.append(args))
    _, function = _last_line_query()
    evaluator = SymbolicEvaluator(make_backend())
    evaluator.fresh_input("arg0", function.arg_types[0])
    evaluator.evaluate(function.body.expr)
    assert calls == []


def _supports_one_walk_per_root(self, roots):
    """What the planner did before: one cone walk per output bit."""
    index = {lit: k for k, lit in enumerate(self.inputs)}
    return [
        sum(1 << index[lit] for lit in self.support([root])) for root in roots
    ]


@pytest.mark.parametrize("seed", [7, 41, 2020])
def test_one_pass_supports_plan_the_same_order(seed, monkeypatch):
    models = _e2e_models()
    _, entry = models.build_fabric(models.fabric_description(seed, 0))
    functions = [
        ZenFunction(lambda p: fwd_in(entry, p), [Packet]),
        ZenFunction(lambda p: fwd_out(entry, p), [Packet]),
        ZenFunction(lambda o: o.value(), [ZOption[Packet]]),
    ]
    planned = [transformers.plan_transformer_order(f, 1) for f in functions]
    monkeypatch.setattr(Aig, "supports", _supports_one_walk_per_root)
    assert planned == [
        transformers.plan_transformer_order(f, 1) for f in functions
    ]
