"""Compositional sharding: assume-guarantee network verification.

Decomposes an end-to-end reachability/invariant query over an
N-device topology into independent per-shard interface summaries,
computed in the calling thread, then recomposes them by chaining the
summaries along the topology.
A summary is exact for every
set that can arrive at its shard — a rewriting shard ships guarded
rewrites, not the image of one assumed set — so a topology is
summarised once, and every query on it is one recompose pass.

Public surface:

* :func:`run_composed` / :class:`ComposedResult` — the driver, which
  holds each topology's plan and summaries across queries in its
  thread's one compose context;
* :func:`plan_shards` / :class:`Plan` — the topology partitioner, one
  plan per topology;
* :func:`compute_shard_summary` — one shard's summary: picklable
  data whose guards are nodes of the compose context it names;
* :func:`recompose` — the chaining fixpoint, and
  :func:`walk_back` — its growth records run backwards from the hit
  to an initial-header witness;
* :func:`build_network` — the payload as one
  :class:`~repro.network.Network`, the only device model: every
  "reachable" witness is walked through it by
  :func:`~repro.network.simulate`, the one concrete walker.
"""

from .cubes import (
    Cover,
    cover_node,
    cover_predicate,
    validate_cover,
)
from .driver import (
    SHARD_BUILDER,
    ComposedResult,
    run_composed,
)
from .plan import Plan, plan_shards, point_key
from .recompose import (
    CANARY_DROP_ASSUMPTION,
    RecomposeOutcome,
    recompose,
    walk_back,
)
from .shard import compute_shard_summary
from .topo import (
    build_network,
    validate_query,
    validate_topology,
)

__all__ = [
    "CANARY_DROP_ASSUMPTION",
    "ComposedResult",
    "Cover",
    "Plan",
    "RecomposeOutcome",
    "SHARD_BUILDER",
    "build_network",
    "compute_shard_summary",
    "cover_node",
    "cover_predicate",
    "plan_shards",
    "point_key",
    "recompose",
    "run_composed",
    "validate_cover",
    "validate_query",
    "validate_topology",
    "walk_back",
]
