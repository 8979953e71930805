"""Compositional sharding: assume-guarantee network verification.

Decomposes an end-to-end reachability/invariant query over an
N-device topology into independent per-shard interface summaries that
fan out across the :class:`~repro.service.QueryEngine` worker pool,
then recomposes them by chaining the summaries along the topology and
discharging the interface assumptions.  A summary is exact for every
set that can arrive at its shard — a rewriting shard ships guarded
rewrites, not the image of one assumed set — so every query is one
dispatch round and one recompose pass.

Public surface:

* :func:`run_composed` / :class:`ComposedResult` — the driver;
* :func:`plan_shards` / :class:`Plan` — the topology partitioner;
* :func:`compute_shard_summary` — the picklable worker entry
  (``repro.compose.shard:compute_shard_summary``);
* :func:`recompose` — the parent-side chaining fixpoint, and
  :func:`walk_back` — its growth records run backwards from the hit
  to an initial-header witness;
* :func:`build_network` / :func:`replay` — the payload as one
  :class:`~repro.network.Network` (the only device model) and one
  concrete header walked through its Zen hop (the witness check).
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
    has_nat,
    replay,
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
    "has_nat",
    "plan_shards",
    "point_key",
    "recompose",
    "replay",
    "run_composed",
    "validate_cover",
    "validate_query",
    "validate_topology",
    "walk_back",
]
