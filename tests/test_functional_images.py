"""Functional images against relational ones.

A transformer computes its images from its output value: it splits on
the output's guards, renames the copied bits, pins the constant ones
and takes a relational product over the general bits only.  The
reference here is the textbook relational image, ``and_exists`` over
``transformer.relation``, computed in the test itself.  Both must give
the same canonical BDD handle, forwards and backwards, on every shape
the analyses feed a transformer: fabric hops, NAT chains, a GRE
tunnel, ``o.value()``, a list-valued route map and the model
checker's byte steps, and compositions.  Each shape runs on the
universe (the tunnel: every packet with given overlay ports) and on a
hypothesis-drawn set.
"""

from __future__ import annotations

import functools
import importlib.util
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    Byte,
    ZenFunction,
    ZList,
    ZOption,
    cons,
    constant,
    empty_list,
    if_,
)
from repro.analyses import reachable_sets
from repro.compose.topo import build_network
from repro.core import TransformerContext
from repro.core.transformers import BitKinds, bit_width
from repro.lang import types as ty
from repro.lang.listops import contains
from repro.network import (
    Packet,
    PrefixRange,
    Route,
    RouteMap,
    RouteMapClause,
    apply_route_map,
    build_virtual_network,
    fwd_in,
    fwd_out,
)
from repro.network.ip import Prefix
from repro.workloads import chain_topology
from tests.test_modelcheck import counter_mod

REPO_ROOT = Path(__file__).resolve().parent.parent
FABRIC_SEEDS = (7, 41, 2020)
NAT_SEEDS = tuple(range(6))
EXAMPLES = settings(max_examples=8, deadline=None)


def _e2e_models():
    spec = importlib.util.spec_from_file_location(
        "e2e_models_for_images", REPO_ROOT / "benchmarks" / "e2e" / "models.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# ---------------------------------------------------------------------------
# The reference: the relational image
# ---------------------------------------------------------------------------


def relational_forward(t, states):
    manager = t.context.manager
    inputs = t.context.space(t.input_type).levels
    outputs = t.context.space(t.output_type).levels
    moved = manager.rename(states.node, dict(zip(inputs, t.in_levels)))
    image = manager.and_exists(moved, t.relation, t.in_levels)
    return manager.permute(image, dict(zip(t.out_levels, outputs)))


def relational_reverse(t, states):
    manager = t.context.manager
    inputs = t.context.space(t.input_type).levels
    outputs = t.context.space(t.output_type).levels
    moved = manager.permute(states.node, dict(zip(outputs, t.out_levels)))
    pre = manager.and_exists(moved, t.relation, t.out_levels)
    return manager.rename(pre, dict(zip(t.in_levels, inputs)))


def assert_images_agree(t, drawn, everything=None):
    """Forward images of `everything` (the universe by default) and
    `drawn`, and reverse images of the output universe and of each
    forward image, equal the relational ones as canonical handles."""
    context = t.context
    if everything is None:
        everything = context.universe(t.input_type)
    outputs = [context.universe(t.output_type)]
    for states in (everything, drawn):
        image = t.transform_forward(states)
        assert image.node == relational_forward(t, states), t.bit_kinds()
        outputs.append(image)
    for states in outputs:
        pre = t.transform_reverse(states)
        assert pre.node == relational_reverse(t, states), t.bit_kinds()


# ---------------------------------------------------------------------------
# Drawn sets
# ---------------------------------------------------------------------------

conditions = st.tuples(
    st.integers(0, 65535),  # a destination port bound
    st.sampled_from((1, 6, 17, 47)),  # a protocol
    st.integers(0, 24),  # a destination prefix length
    st.integers(0, (1 << 32) - 1),  # and its address
)


def header_condition(h, condition):
    port, protocol, length, address = condition
    mask = ((1 << length) - 1) << (32 - length)
    return ((h.dst_port >= port) | (h.protocol == protocol)) & (
        (h.dst_ip & mask) == (address & mask)
    )


def packet_set(context, condition, underlay):
    def predicate(p):
        inside = header_condition(p.overlay_header, condition)
        if underlay is None:
            return inside
        return inside & (p.underlay_header.has_value() == underlay)

    return context.from_predicate(ZenFunction(predicate, [Packet]))


underlays = st.sampled_from((None, True, False))


# ---------------------------------------------------------------------------
# Transformers, built once per shape
# ---------------------------------------------------------------------------


def _hops(network, context):
    return [
        ZenFunction(lambda p, i=intf, m=model: m(i, p), [Packet]).transformer(
            context
        )
        for intf in network.interfaces()
        for model in (fwd_in, fwd_out)
    ]


@functools.lru_cache(maxsize=None)
def fabric_hops(seed):
    models = _e2e_models()
    network, _ = models.build_fabric(models.fabric_description(seed, 0))
    context = TransformerContext(max_list_length=1)
    return context, _hops(network, context)


@functools.lru_cache(maxsize=None)
def nat_hops(seed):
    topo = chain_topology(4, seed, nat_probability=0.8, acl_probability=0.3)
    network = build_network(topo, [("d0", 1), ("d3", 2)])
    context = TransformerContext(max_list_length=1)
    return context, _hops(network, context)


@functools.lru_cache(maxsize=None)
def tunnel_hops():
    vn = build_virtual_network(buggy_underlay_acl=True)
    context = TransformerContext(max_list_length=1)
    return context, _hops(vn.network, context)


#: Every permitting clause prepends, so the AS path shifts by one cell
#: wherever the route is kept: the cells move as copies, the list can
#: overflow its bound, and the new head is a general bit.  (A shift
#: under a condition relates each cell to the one before it, which no
#: relation over inputs in their own order keeps small.)
ROUTE_MAP = RouteMap.of(
    "shapes",
    [
        RouteMapClause(action=False, match_community=200),
        RouteMapClause(
            action=True,
            match_prefixes=(PrefixRange(Prefix.parse("10.0.0.0/8"), 8, 24),),
            set_med=7,
            prepend_as=65001,
        ),
        RouteMapClause(action=True, prepend_as=65002, set_local_pref=50),
    ],
)


@functools.lru_cache(maxsize=None)
def route_map_transformer(max_list_length):
    context = TransformerContext(max_list_length=max_list_length)
    function = ZenFunction(lambda r: apply_route_map(ROUTE_MAP, r), [Route])
    return function.transformer(context)


# ---------------------------------------------------------------------------
# The differentials
# ---------------------------------------------------------------------------


@EXAMPLES
@given(
    seed=st.sampled_from(FABRIC_SEEDS),
    condition=conditions,
    underlay=underlays,
)
def test_fabric_hops(seed, condition, underlay):
    context, hops = fabric_hops(seed)
    drawn = packet_set(context, condition, underlay)
    for t in hops:
        assert_images_agree(t, drawn)


@EXAMPLES
@given(
    seed=st.sampled_from(NAT_SEEDS),
    condition=conditions,
    underlay=underlays,
)
def test_nat_chain_hops(seed, condition, underlay):
    context, hops = nat_hops(seed)
    drawn = packet_set(context, condition, underlay)
    for t in hops:
        assert_images_agree(t, drawn)


@EXAMPLES
@given(
    condition=conditions,
    underlay=underlays,
    ports=st.tuples(st.integers(0, 65535), st.integers(0, 65535)),
)
def test_gre_tunnel_hops(condition, underlay, ports):
    """Encapsulation copies the overlay ports into the underlay header.
    A set that leaves them free has an image exponential in the ports
    in any order that keeps the two headers apart (the classic worst
    case of BDD packet sets), so every set here fixes them."""
    context, hops = tunnel_hops()
    src_port, dst_port = ports
    fixed = context.from_predicate(
        ZenFunction(
            lambda p: (p.overlay_header.src_port == src_port)
            & (p.overlay_header.dst_port == dst_port),
            [Packet],
        )
    )
    drawn = packet_set(context, condition, underlay) & fixed
    for t in hops:
        assert_images_agree(t, drawn, everything=fixed)


@EXAMPLES
@given(condition=conditions, underlay=underlays, present=st.booleans())
def test_option_value(condition, underlay, present):
    context = TransformerContext(max_list_length=1)
    value = ZenFunction(lambda o: o.value(), [ZOption[Packet]]).transformer(
        context
    )

    def predicate(o):
        packet = o.value()
        inside = header_condition(packet.overlay_header, condition)
        if underlay is not None:
            inside = inside & (packet.underlay_header.has_value() == underlay)
        return inside & (o.has_value() == present)

    drawn = context.from_predicate(ZenFunction(predicate, [ZOption[Packet]]))
    assert_images_agree(value, drawn)


@EXAMPLES
@given(
    max_list_length=st.sampled_from((1, 3)),
    length=st.integers(0, 32),
    community=st.sampled_from((100, 200, 300)),
    med=st.integers(0, 20),
)
def test_list_valued_route_map(max_list_length, length, community, med):
    t = route_map_transformer(max_list_length)
    drawn = t.context.from_predicate(
        ZenFunction(
            lambda r: (r.prefix_len <= length)
            & (contains(r.communities, community) | (r.med < med)),
            [Route],
        )
    )
    assert_images_agree(t, drawn)


@EXAMPLES
@given(bound=st.integers(0, 255), mask=st.integers(0, 255))
def test_model_checker_byte_steps(bound, mask):
    context = TransformerContext(max_list_length=1)
    drawn = context.from_predicate(
        ZenFunction(lambda x: (x < bound) | ((x & mask) == mask), [Byte])
    )
    for step in (
        counter_mod(5),
        counter_mod(200),
        ZenFunction(lambda x: x + 1, [Byte]),
    ):
        assert_images_agree(step.transformer(context), drawn)


#: Three bits: equality across separately allocated BDD blocks is
#: exponential in their width, and width is not what is under test.
Tiny = ty.IntType(3, False)


@EXAMPLES
@given(items=st.lists(st.integers(0, 7), max_size=2), bound=st.integers(0, 7))
def test_composed_images_equal_the_composed_relation(items, bound):
    """A composition's images come from the second function evaluated
    on the first's output, its relation from the relational product of
    the two relations; they agree, also where ``cons`` overflows the
    list bound in the middle of a chain."""
    context = TransformerContext(max_list_length=2)
    lists = ZList[Tiny]
    push = ZenFunction(lambda l: cons(constant(bound, Tiny), l), [lists])
    keep = ZenFunction(
        lambda l: if_(contains(l, constant(bound, Tiny)), l, empty_list(Tiny)),
        [lists],
    )
    push_t, keep_t = push.transformer(context), keep.transformer(context)
    first = constant(items[0] if items else 0, Tiny)
    drawn = context.singleton(lists, items) | context.from_predicate(
        ZenFunction(lambda l: contains(l, first), [lists])
    )
    for composed in (
        push_t.compose(push_t),
        push_t.compose(keep_t.compose(push_t)),
        push_t.compose(keep_t).compose(push_t),
    ):
        assert_images_agree(composed, drawn)


# ---------------------------------------------------------------------------
# What the bits are, per shape
# ---------------------------------------------------------------------------


def test_a_fabric_hop_is_copies_and_guards():
    for seed in FABRIC_SEEDS:
        _, hops = fabric_hops(seed)
        for index, t in enumerate(hops):
            kinds = t.bit_kinds()
            if index % 2:  # fwd_out: the ACL may drop, the FIB may miss
                assert kinds == BitKinds(
                    copies=208, constants=0, general=0, guards=2
                )
            else:  # fwd_in: an interface without an inbound ACL keeps all
                assert kinds.copies == 208 and kinds.general == 0
                assert kinds.guards + kinds.constants == 2


def test_option_value_is_copies_after_one_split():
    context = TransformerContext(max_list_length=1)
    value = ZenFunction(lambda o: o.value(), [ZOption[Packet]]).transformer(
        context
    )
    # The overlay is `has & x` (general), the underlay payload a copy.
    assert value.bit_kinds() == BitKinds(
        copies=104, constants=0, general=104, guards=1
    )
    present = context.from_predicate(
        ZenFunction(lambda o: o.has_value(), [ZOption[Packet]])
    )
    manager = context.manager
    manager.reset_stats()
    value.transform_forward(present)
    value.transform_reverse(context.universe(Packet))
    assert manager.stats().calls.get("and_exists", 0) == 0


def test_shapes_with_general_bits():
    # A NAT rewrite is a general bit: an address where the rule
    # matches, the packet's own bit elsewhere.
    nat_general = [
        t.bit_kinds().general for seed in NAT_SEEDS for t in nat_hops(seed)[1]
    ]
    assert max(nat_general) > 0
    # GRE encapsulation copies overlay bits into the new underlay
    # header: a bit copied twice is general the second time.
    tunnel = [t.bit_kinds() for t in tunnel_hops()[1]]
    assert any(k.general > 0 for k in tunnel)
    assert all(k.copies <= 208 for k in tunnel)
    # The route map: the Option flag and every list cell guard but the
    # prepended head's are guards; the head's 14 agreeing bits of 65001
    # and 65002 and its guard are constants; med, local_pref and the
    # head's other 2 bits are general; the rest are copies.
    assert route_map_transformer(3).bit_kinds() == BitKinds(
        copies=168, constants=15, general=66, guards=1 + 2 + 3
    )
    # Byte arithmetic is general, and a counter below 5 has five
    # constant high bits.
    context = TransformerContext(max_list_length=1)
    step = ZenFunction(lambda x: x + 1, [Byte]).transformer(context)
    assert step.bit_kinds() == BitKinds(0, 0, 8, 0)
    assert counter_mod(5).transformer(context).bit_kinds() == BitKinds(
        0, 5, 3, 0
    )


def test_an_exploration_builds_no_relation():
    """One `reachable_sets` exploration of a fabric allocates only the
    two canonical blocks: no transformer built a relation."""
    models = _e2e_models()
    network, entry = models.build_fabric(models.fabric_description(7, 0))
    context = TransformerContext(max_list_length=1)
    paths = reachable_sets(network, entry, context=context, max_depth=6)
    assert len(paths) == 3
    widths = [
        bit_width(context.universe(annotation).zen_type, 1)
        for annotation in (Packet, ZOption[Packet])
    ]
    assert context.manager.num_vars == sum(widths)
