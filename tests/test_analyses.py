"""Integration tests for the six Table-1 analyses."""

from __future__ import annotations

import gc
import weakref

import pytest

from repro import ZenFunction
from repro.analyses import (
    ALWAYS,
    MAYBE,
    NEVER,
    AbstractControlPlane,
    BgpNetwork,
    atom_count,
    atomic_predicates,
    compress_devices,
    compress_interfaces,
    compression_ratio,
    enumerate_paths,
    find_reachable_packet,
    predicate_as_atoms,
    reachable_between,
    reachable_sets,
)
from repro.analyses.hsa import hsa_explore
from repro.core import TransformerContext
from repro.errors import ZenTypeError
from repro.network import (
    DENY,
    PERMIT,
    Acl,
    AclRule,
    Header,
    Network,
    Packet,
    Prefix,
    Route,
    RouteMap,
    RouteMapClause,
    ip_to_int,
)
from repro.network.overlay import VA_IP, VB_IP, build_virtual_network


@pytest.fixture(scope="module")
def ctx():
    return TransformerContext(max_list_length=1)


@pytest.fixture(scope="module")
def linear_net():
    """a --- b --- c with simple forwarding, one ACL at b."""
    net = Network()
    acl = Acl.of(
        "no-tcp-22",
        [AclRule(DENY, dst_ports=(22, 22)), AclRule(PERMIT)],
    )
    a = net.add_device("a", [("10.0.0.0/8", 2)])
    b = net.add_device("b", [("10.0.0.0/8", 2)])
    c = net.add_device("c", [("10.0.0.0/8", 2)])
    a1 = net.add_interface(a, 1)
    a2 = net.add_interface(a, 2)
    b1 = net.add_interface(b, 1, acl_in=acl)
    b2 = net.add_interface(b, 2)
    c1 = net.add_interface(c, 1)
    c2 = net.add_interface(c, 2)
    net.link(a2, b1)
    net.link(b2, c1)
    return net, a1, c2


class TestHsa:
    def test_terminal_paths(self, linear_net, ctx):
        net, entry, exit_intf = linear_net
        path_sets = reachable_sets(net, entry, context=ctx, max_depth=6)
        paths = {ps.path for ps in path_sets}
        assert any(p[-1] == "c:2" for p in paths)

    def test_acl_excluded_from_delivered_set(self, linear_net, ctx):
        from repro.network import make_header, make_packet

        net, entry, exit_intf = linear_net
        delivered = reachable_between(net, entry, exit_intf, context=ctx)
        assert not delivered.is_empty()
        ssh = make_packet(
            make_header(dst_ip=ip_to_int("10.1.1.1"), dst_port=22)
        )
        web = make_packet(
            make_header(dst_ip=ip_to_int("10.1.1.1"), dst_port=80)
        )
        assert delivered.contains(web)
        assert not delivered.contains(ssh)

    def test_hsa_agrees_with_simulation(self, linear_net, ctx):
        """Every element of a terminal path set replays concretely."""
        from repro.network import simulate

        net, entry, _ = linear_net
        for ps in reachable_sets(net, entry, context=ctx, max_depth=6):
            if ps.status != "stopped":
                continue
            example = ps.packets.element()
            trace = simulate(net, entry, example)
            seen = [h.interface_in for h in trace.hops]
            assert seen[0] == ps.path[0]

    def test_dropped_answer_frees_its_context_without_gc(self, linear_net):
        net, entry, _ = linear_net
        gc.disable()
        try:
            answer = reachable_sets(net, entry, max_depth=6)
            context = weakref.ref(answer[0].packets.context)
            del answer
            assert context() is None
        finally:
            gc.enable()

    def test_default_argument_queries_do_not_grow(self, linear_net):
        net, entry, _ = linear_net
        sizes = set()
        for _ in range(8):
            answer = reachable_sets(net, entry, max_depth=6)
            manager = answer[0].packets.context.manager
            sizes.add((manager.num_vars, manager.num_nodes))
        assert len(sizes) == 1

    def test_packets_fix_the_context(self, linear_net, ctx):
        net, entry, _ = linear_net
        packets = ctx.universe(Packet)
        answer = reachable_sets(net, entry, max_depth=6, packets=packets)
        assert all(ps.packets.context is ctx for ps in answer)
        with pytest.raises(ZenTypeError):
            reachable_sets(
                net,
                entry,
                context=TransformerContext(max_list_length=1),
                packets=packets,
            )

    def test_constrained_entry_through_tunnels(self):
        """HSA over the Figure-3 network with a constrained entry set."""
        ctx2 = TransformerContext(max_list_length=1)
        vn = build_virtual_network(buggy_underlay_acl=True)
        entry_pred = ZenFunction(
            lambda p: ~p.underlay_header.has_value()
            & (p.overlay_header.dst_port == 80)
            & (p.overlay_header.src_port == 1234)
            & (p.overlay_header.src_ip == VA_IP)
            & (p.overlay_header.dst_ip == VB_IP),
            [Packet],
        )
        entry_set = ctx2.from_predicate(entry_pred)
        results = list(
            hsa_explore(vn.va_uplink, entry_set, max_depth=8)
        )
        # With the buggy ACL, the set dies inbound at u2:1.
        dropped = [ps for ps in results if ps.status == "dropped_in"]
        assert any(ps.path[-1] == "u2:1" for ps in dropped)
        delivered = [
            ps
            for ps in results
            if ps.status == "stopped" and ps.path[-1] == "u3:2"
        ]
        assert not delivered


class TestAtomicPredicates:
    def test_independent_predicates(self, ctx):
        preds = [
            ZenFunction(lambda h: h.dst_port == 80, [Header]),
            ZenFunction(lambda h: h.protocol == 6, [Header]),
        ]
        atoms = atomic_predicates(Header, preds, context=ctx)
        assert len(atoms) == 4

    def test_duplicate_predicates_do_not_split(self, ctx):
        p = ZenFunction(lambda h: h.dst_port == 80, [Header])
        q = ZenFunction(lambda h: h.dst_port == 80, [Header])
        assert atom_count(Header, [p, q], context=ctx) == 2

    def test_atoms_partition_universe(self, ctx):
        preds = [
            ZenFunction(lambda h: h.dst_port < 1024, [Header]),
            ZenFunction(lambda h: h.dst_port < 4096, [Header]),
        ]
        atoms = atomic_predicates(Header, preds, context=ctx)
        union = ctx.empty_set(Header)
        for i, atom in enumerate(atoms):
            union = union.union(atom)
            for other in atoms[i + 1:]:
                assert atom.intersect(other).is_empty()
        assert union.is_universe()

    def test_nested_predicates(self, ctx):
        # port<4096 strictly contains port<1024: 3 atoms, not 4.
        preds = [
            ZenFunction(lambda h: h.dst_port < 1024, [Header]),
            ZenFunction(lambda h: h.dst_port < 4096, [Header]),
        ]
        assert atom_count(Header, preds, context=ctx) == 3

    def test_predicate_as_atoms_roundtrip(self, ctx):
        p1 = ZenFunction(lambda h: h.dst_port == 80, [Header])
        p2 = ZenFunction(lambda h: h.protocol == 6, [Header])
        atoms = atomic_predicates(Header, [p1, p2], context=ctx)
        ids = predicate_as_atoms(p1, atoms)
        assert 0 < len(ids) < len(atoms)

    def test_foreign_predicate_rejected(self, ctx):
        p1 = ZenFunction(lambda h: h.dst_port == 80, [Header])
        atoms = atomic_predicates(Header, [p1], context=ctx)
        p2 = ZenFunction(lambda h: h.protocol == 6, [Header])
        with pytest.raises(ZenTypeError):
            predicate_as_atoms(p2, atoms)


class TestAnteater:
    def test_path_enumeration(self, linear_net):
        net, _, _ = linear_net
        paths = list(
            enumerate_paths(net, net.device("a"), net.device("c"))
        )
        assert len(paths) == 1
        names = [i.name for i in paths[0]]
        assert names[0] == "a:1" and names[-1] == "c:2"

    def test_reachability_witness(self, linear_net):
        net, _, _ = linear_net
        result = find_reachable_packet(
            net,
            net.device("a"),
            net.device("c"),
            backend="sat",
            # Restrict to plain (non-encapsulated) packets so the
            # overlay header is the one being forwarded.
            extra_property=lambda p: ~p.underlay_header.has_value(),
        )
        assert result is not None
        # The ACL at b must not have dropped the witness.
        hdr = result.packet.overlay_header
        assert hdr.dst_port != 22
        assert (hdr.dst_ip >> 24) == 10

    def test_constrained_reachability(self, linear_net):
        net, _, _ = linear_net
        result = find_reachable_packet(
            net,
            net.device("a"),
            net.device("c"),
            extra_property=lambda p: p.overlay_header.dst_port == 443,
        )
        assert result is not None
        assert result.packet.overlay_header.dst_port == 443

    def test_unreachable_when_acl_blocks_everything(self):
        net = Network()
        deny = Acl.of("deny", [AclRule(DENY)])
        a = net.add_device("a", [("0.0.0.0/0", 2)])
        b = net.add_device("b", [("0.0.0.0/0", 2)])
        a1 = net.add_interface(a, 1)
        a2 = net.add_interface(a, 2)
        b1 = net.add_interface(b, 1, acl_in=deny)
        b2 = net.add_interface(b, 2)
        net.link(a2, b1)
        assert (
            find_reachable_packet(net, net.device("a"), net.device("b"))
            is None
        )


class TestMinesweeper:
    @staticmethod
    def two_router_net():
        bgp = BgpNetwork()
        bgp.add_router("r1", 100)
        bgp.add_router("r2", 200)
        bgp.add_session("r1", "r2")
        bgp.originate(
            "r1",
            Route(
                prefix=ip_to_int("10.0.0.0"),
                prefix_len=8,
                local_pref=100,
                med=0,
                as_path=[],
                communities=[],
            ),
        )
        return bgp

    def test_stable_state_exists(self):
        bgp = self.two_router_net()
        state = bgp.find_stable_state(max_list_length=2)
        assert state is not None
        assert getattr(state, "r1") is not None
        assert getattr(state, "r2") is not None

    def test_route_propagates(self):
        bgp = self.two_router_net()
        violation = bgp.verify_stable_property(
            lambda st: st.field("r2").has_value(), max_list_length=2
        )
        assert violation is None

    def test_as_path_grows(self):
        from repro.lang.listops import length

        bgp = self.two_router_net()
        violation = bgp.verify_stable_property(
            lambda st: ~st.field("r2").has_value()
            | (length(st.field("r2").value().as_path) == 1),
            max_list_length=2,
        )
        assert violation is None

    def test_import_filter_blocks(self):
        deny_all = RouteMap.of("deny", [RouteMapClause(False)])
        bgp = BgpNetwork()
        bgp.add_router("r1", 100)
        bgp.add_router("r2", 200)
        bgp.add_session("r1", "r2", import_policy=deny_all)
        bgp.originate(
            "r1",
            Route(
                prefix=ip_to_int("10.0.0.0"),
                prefix_len=8,
                local_pref=100,
                med=0,
                as_path=[],
                communities=[],
            ),
        )
        violation = bgp.verify_stable_property(
            lambda st: ~st.field("r2").has_value(), max_list_length=2
        )
        assert violation is None  # r2 never gets the route

    def test_unknown_router_rejected(self):
        bgp = BgpNetwork()
        bgp.add_router("r1", 1)
        with pytest.raises(ZenTypeError):
            bgp.add_session("r1", "nope")


class TestBonsai:
    def test_identical_devices_merge(self, ctx):
        net = Network()
        for name in ("a", "b"):
            dev = net.add_device(name, [("10.0.0.0/8", 1)])
            net.add_interface(dev, 1)
        odd = net.add_device("c", [("20.0.0.0/8", 1)])
        net.add_interface(odd, 1)
        classes = compress_devices(net, context=ctx)
        assert len(classes) == 2
        sizes = sorted(len(c) for c in classes)
        assert sizes == [1, 2]

    def test_interface_classes(self, ctx):
        net = Network()
        acl = Acl.of("x", [AclRule(DENY, dst_ports=(1, 2)), AclRule(PERMIT)])
        dev = net.add_device("d", [("0.0.0.0/0", 1)])
        net.add_interface(dev, 1, acl_in=acl)
        net.add_interface(dev, 2, acl_in=acl)
        classes = compress_interfaces(net, context=ctx)
        # Different port ids make outbound behavior differ, but ACLs
        # are shared: at least the pair cannot be 4 classes.
        assert len(classes) <= 2

    def test_compression_ratio(self, ctx):
        net = Network()
        for name in ("a", "b", "c", "d"):
            dev = net.add_device(name, [("10.0.0.0/8", 1)])
            net.add_interface(dev, 1)
        assert compression_ratio(net, context=ctx) == 0.25


class TestShapeshifter:
    def test_propagation_lattice(self):
        acp = AbstractControlPlane()
        for n in ("a", "b", "c", "d", "e"):
            acp.add_router(n)
        acp.originate("a")
        acp.add_edge("a", "b", ALWAYS)
        acp.add_edge("b", "c", MAYBE)
        acp.add_edge("c", "d", NEVER)
        acp.add_edge("b", "e", ALWAYS)
        state = acp.propagate()
        assert state == {
            "a": ALWAYS,
            "b": ALWAYS,
            "c": MAYBE,
            "d": NEVER,
            "e": ALWAYS,
        }

    def test_join_prefers_better_path(self):
        acp = AbstractControlPlane()
        for n in ("a", "b", "c"):
            acp.add_router(n)
        acp.originate("a")
        acp.add_edge("a", "b", MAYBE)
        acp.add_edge("a", "c", ALWAYS)
        acp.add_edge("c", "b", ALWAYS)
        assert acp.propagate()["b"] == ALWAYS

    def test_cycle_terminates(self):
        acp = AbstractControlPlane()
        for n in ("a", "b", "c"):
            acp.add_router(n)
        acp.originate("a")
        acp.add_edge("a", "b", ALWAYS)
        acp.add_edge("b", "c", ALWAYS)
        acp.add_edge("c", "b", ALWAYS)
        state = acp.propagate()
        assert state["b"] == ALWAYS and state["c"] == ALWAYS

    def test_requires_origin(self):
        acp = AbstractControlPlane()
        acp.add_router("a")
        with pytest.raises(ZenTypeError):
            acp.propagate()
