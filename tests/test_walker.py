"""The concrete network walker and its memo of hop pieces.

:func:`~repro.network.simulate` is the one concrete walker: every
"reachable" verdict of the compose driver is replayed through it.  Per
hop it evaluates an inbound piece, the FIB once and an egress piece,
each taken from a per-thread memo keyed by the frozen configuration it
reads.  These tests pin what that memo may change — no trace — and
what it must not do: pin a network, or outgrow its bound.
"""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.compose import driver, run_composed
from repro.compose.shard import forget, held
from repro.compose.topo import build_network
from repro.core import ZenFunction
from repro.network import (
    Acl,
    AclRule,
    Hop,
    Network,
    Prefix,
    ip_to_int,
    make_header,
    make_packet,
    simulate,
    topology,
)
from repro.network.overlay import VA_IP, VB_IP, build_virtual_network
from repro.network.packet import PROTO_GRE
from repro.workloads import chain_query, chain_topology, fat_tree, fat_tree_hosts
from repro.workloads import fat_tree_reach_query

DST = ip_to_int("10.1.1.1")


def chain(length: int) -> Network:
    """`length` devices in a line, each forwarding 10/8 out of port 2."""
    net = Network()
    previous = None
    for i in range(length):
        device = net.add_device(f"d{i}", [("10.0.0.0/8", 2)])
        inbound = net.add_interface(device, 1)
        if previous is not None:
            net.link(previous, inbound)
        previous = net.add_interface(device, 2)
    return net


def entry_of(net: Network):
    return net.device("d0").interface(1)


@pytest.fixture
def evaluated(monkeypatch):
    """The name of every hop piece evaluated, in order."""
    names = []
    evaluate = ZenFunction.evaluate

    def counted(self, *args):
        names.append(self.name)
        return evaluate(self, *args)

    monkeypatch.setattr(ZenFunction, "evaluate", counted)
    return names


class TestWalk:
    def test_a_forty_device_chain_delivers(self):
        net = chain(40)
        trace = simulate(net, entry_of(net), make_packet(make_header(dst_ip=DST)))
        assert trace.outcome == "exited"
        assert len(trace.hops) == 40
        assert trace.delivered_at("d39:2") == make_packet(make_header(dst_ip=DST))
        assert trace.delivered_at("d38:2") is None

    def test_the_fib_piece_is_evaluated_once_per_hop(self, evaluated):
        net = chain(5)
        trace = simulate(net, entry_of(net), make_packet(make_header(dst_ip=DST)))
        assert len(trace.hops) == 5
        assert evaluated == ["ingress", "fib_port", "egress"] * 5

    def test_a_loop_ends_at_the_first_repeated_interface_and_packet(self):
        net = Network()
        a = net.add_device("a", [("10.0.0.0/8", 2)])
        b = net.add_device("b", [("10.0.0.0/8", 1)])
        a2 = net.add_interface(a, 2)
        b1 = net.add_interface(b, 1)
        net.link(a2, b1)
        trace = simulate(net, b1, make_packet(make_header(dst_ip=DST)))
        assert trace.outcome == "loop"
        assert [hop.interface_in for hop in trace.hops] == ["b:1", "a:2"]

    def test_the_hop_bound_grows_with_the_network(self):
        net = chain(40)
        packet = make_packet(make_header(dst_ip=DST))
        assert simulate(net, entry_of(net), packet, max_hops=39).outcome == "loop"
        assert simulate(net, entry_of(net), packet, max_hops=40).outcome == "exited"


class TestTunnelTraces:
    """GRE: the underlay is pushed at u1's uplink, carried by u2 and
    stripped at u3, and the buggy underlay ACL drops port 80 at u2."""

    def hops(self, buggy, port):
        vn = build_virtual_network(buggy_underlay_acl=buggy)
        packet = make_packet(make_header(dst_ip=VB_IP, src_ip=VA_IP, dst_port=port))
        return vn, simulate(vn.network, vn.va_uplink, packet)

    def test_a_clean_underlay_carries_the_overlay_end_to_end(self):
        vn, trace = self.hops(False, 80)
        overlay = make_header(dst_ip=VB_IP, src_ip=VA_IP, dst_port=80)
        assert trace.outcome == "exited"
        assert [(h.interface_in, h.interface_out) for h in trace.hops] == [
            ("u1:1", "u1:2"),
            ("u2:1", "u2:2"),
            ("u3:1", "u3:2"),
        ]
        underlays = [h.packet.underlay_header for h in trace.hops]
        assert underlays[0] == underlays[1] != None  # noqa: E711
        assert underlays[0].protocol == PROTO_GRE
        assert underlays[0].dst_port == 80
        assert underlays[2] is None
        assert [h.packet.overlay_header for h in trace.hops] == [overlay] * 3
        assert trace.final_packet == make_packet(overlay)
        assert trace.delivered_at("u3:2") == trace.final_packet

    def test_the_buggy_underlay_acl_drops_at_u2(self):
        _, low = self.hops(True, 80)
        assert low.outcome == "dropped_in"
        assert [(h.interface_in, h.interface_out) for h in low.hops] == [
            ("u1:1", "u1:2"),
            ("u2:1", None),
        ]
        assert low.hops[1].packet.underlay_header is not None
        _, high = self.hops(True, 8080)
        assert high.outcome == "exited"
        assert len(high.hops) == 3


class TestPieceMemo:
    def test_equal_configuration_shares_pieces_across_networks(self):
        topo = chain_topology(6, seed=3, nat_probability=0.5, acl_probability=0.5)
        query = chain_query(6)
        packet = make_packet(make_header(dst_ip=0x0A000001))
        traces, sizes = [], []
        for _ in range(2):
            net = build_network(topo, (query["source"], query["sink"]))
            traces.append(simulate(net, net.device("d0").interface(1), packet))
            sizes.append(len(topology._pieces.memo))
        assert traces[0] == traces[1]
        assert sizes[0] == sizes[1] > 0  # the second network built no piece

    def test_an_edited_acl_is_a_new_piece(self):
        net = chain(3)
        packet = make_packet(make_header(dst_ip=DST))
        assert simulate(net, entry_of(net), packet).outcome == "exited"
        deny = Acl.of("deny-10", [AclRule(False, dst=Prefix.parse("10.0.0.0/8"))])
        net.device("d1").interface(1).acl_in = deny
        trace = simulate(net, entry_of(net), packet)
        assert trace.outcome == "dropped_in"
        assert trace.hops[-1] == Hop("d1:1", None, packet)

    def test_the_memo_stays_within_its_bound(self, monkeypatch):
        monkeypatch.setattr(topology, "MAX_HELD_PIECES", 4)
        topology._pieces.memo.clear()
        for seed in range(6):
            topo = chain_topology(5, seed=seed, nat_probability=0.5, acl_probability=0.5)
            net = build_network(topo, [("d0", 1), ("d4", 2)])
            packet = make_packet(make_header(dst_ip=0x0A000001))
            bounded = simulate(net, net.device("d0").interface(1), packet)
            assert len(topology._pieces.memo) <= 4
            monkeypatch.setattr(topology, "MAX_HELD_PIECES", 256)
            topology._pieces.memo.clear()
            assert simulate(net, net.device("d0").interface(1), packet) == bounded
            monkeypatch.setattr(topology, "MAX_HELD_PIECES", 4)

    def test_the_memo_pins_no_network(self):
        hosts = fat_tree_hosts(4)
        query = fat_tree_reach_query(hosts[0], hosts[-1])
        assert run_composed(fat_tree(4, seed=1, acl_probability=0.3), query, None).reachable
        (first,) = held().fabrics.values()
        network = weakref.ref(first.network)
        del first
        for seed in range(2, 2 + driver.MAX_HELD_FABRICS):
            run_composed(fat_tree(4, seed=seed, acl_probability=0.3), query, None)
        assert len(topology._pieces.memo) > 0
        forget()
        gc.collect()
        assert network() is None
