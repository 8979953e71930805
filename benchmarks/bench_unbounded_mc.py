"""Extension benchmark: the unbounded model checker (§1's backend list).

Symbolic reachability fixpoints over a byte-counter transition system
at growing cycle sizes — iterations grow with the diameter while each
image stays cheap, demonstrating the transformer machinery beyond
single-shot queries.
"""

from __future__ import annotations

import pytest

from repro import Byte, TransformerContext, ZenFunction, if_
from repro.core import reachable_states


@pytest.mark.parametrize("cycle", [8, 32, 128])
def test_unbounded_reachability(benchmark, cycle):
    benchmark.group = f"unbounded-mc-{cycle}"
    benchmark.name = "forward_fixpoint"

    def run():
        ctx = TransformerContext(max_list_length=1)
        step = ZenFunction(
            lambda x: if_(x >= cycle - 1, 0, x + 1), [Byte]
        )
        return reachable_states(step, ctx.singleton(Byte, 0))

    report = benchmark(run)
    assert report.converged
    assert report.reachable.count() == cycle
