"""Table 1: which analyses the IVL can express.

The claim for Zen is the ✓ column: HSA, atomic predicates, Anteater,
Minesweeper, Bonsai and Shapeshifter are all expressible *on top of*
the language API without touching any backend code.  Each benchmark
here runs one of the six analyses end-to-end on a small canonical
network; the suite passing *is* the reproduction of Zen's column.

Run ``pytest benchmarks/bench_table1_expressiveness.py --benchmark-only``
and the printed table (see EXPERIMENTS.md) follows from which rows
executed.
"""

from __future__ import annotations

import pytest

from repro import ZenFunction
from repro.analyses import (
    ALWAYS,
    MAYBE,
    AbstractControlPlane,
    BgpNetwork,
    atomic_predicates,
    compress_devices,
    find_reachable_packet,
    reachable_sets,
)
from repro.core import TransformerContext
from repro.network import Header, Route, ip_to_int
from repro.network.overlay import build_virtual_network


@pytest.fixture(scope="module")
def virtual_network():
    return build_virtual_network(buggy_underlay_acl=True)


def test_table1_hsa(benchmark, virtual_network):
    """Row 1: header space analysis (packet sets along all paths).

    Uses a constrained entry set (fixed ports, overlay-only) on the
    tunnel network — see EXPERIMENTS.md on why fully symbolic
    correlated port copies are the BDD worst case.
    """
    from repro.network import Packet
    from repro.network.overlay import VA_IP, VB_IP

    benchmark.group = "table1"
    benchmark.name = "hsa"

    def run():
        ctx = TransformerContext(max_list_length=1)
        entry_pred = ZenFunction(
            lambda p: ~p.underlay_header.has_value()
            & (p.overlay_header.dst_port == 80)
            & (p.overlay_header.src_port == 1234)
            & (p.overlay_header.src_ip == VA_IP),
            [Packet],
        )
        return reachable_sets(
            virtual_network.network,
            virtual_network.va_uplink,
            max_depth=8,
            packets=ctx.from_predicate(entry_pred),
        )

    path_sets = benchmark(run)
    assert path_sets, "HSA must discover terminal path sets"


def test_table1_atomic_predicates(benchmark):
    """Row 2: Yang-Lam atomic predicates over header predicates."""
    benchmark.group = "table1"
    benchmark.name = "atomic_predicates"
    predicates = [
        ZenFunction(
            lambda h: (h.dst_ip & 0xFF000000) == 0x0A000000, [Header]
        ),
        ZenFunction(lambda h: h.dst_port == 80, [Header]),
        ZenFunction(lambda h: h.protocol == 6, [Header]),
    ]

    def run():
        ctx = TransformerContext(max_list_length=1)
        return atomic_predicates(Header, predicates, context=ctx)

    atoms = benchmark(run)
    assert len(atoms) == 8  # three independent predicates


def test_table1_anteater(benchmark, virtual_network):
    """Row 3: Anteater-style per-path SAT reachability."""
    benchmark.group = "table1"
    benchmark.name = "anteater"
    net = virtual_network.network

    result = benchmark(
        lambda: find_reachable_packet(
            net, net.device("u1"), net.device("u3"), backend="sat"
        )
    )
    assert result is not None


def test_table1_minesweeper(benchmark):
    """Row 4: Minesweeper-style stable path constraint solving."""
    benchmark.group = "table1"
    benchmark.name = "minesweeper"

    def run():
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
        return bgp.verify_stable_property(
            lambda st: st.field("r2").has_value(), max_list_length=2
        )

    violation = benchmark(run)
    assert violation is None  # r2 always learns the route


def test_table1_bonsai(benchmark, virtual_network):
    """Row 5: Bonsai-style compression via transformer equivalence."""
    benchmark.group = "table1"
    benchmark.name = "bonsai"
    net = virtual_network.network

    def run():
        ctx = TransformerContext(max_list_length=1)
        return compress_devices(net, context=ctx)

    classes = benchmark(run)
    assert 1 <= len(classes) <= len(net.devices)


def test_table1_shapeshifter(benchmark):
    """Row 6: Shapeshifter-style ternary abstract interpretation."""
    benchmark.group = "table1"
    benchmark.name = "shapeshifter"

    def run():
        acp = AbstractControlPlane()
        for name in ("a", "b", "c", "d"):
            acp.add_router(name)
        acp.originate("a")
        acp.add_edge("a", "b", ALWAYS)
        acp.add_edge("b", "c", MAYBE)
        acp.add_edge("b", "d", ALWAYS)
        return acp.propagate()

    state = benchmark(run)
    assert state["b"] == ALWAYS
    assert state["c"] == MAYBE
    assert state["d"] == ALWAYS
