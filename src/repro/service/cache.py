"""Worker-side compiled-model cache for the warm-dispatch path.

The dominant cost of a tiny service query is not the solve — it is
re-resolving the ``module:attribute`` builder reference, re-invoking
the builder, and re-constructing the Zen expression DAG on every
worker hop.  :class:`ModelCache` amortizes all of that: each worker
process keeps one LRU of resolved :meth:`ZenFunction.from_ref`
results (plus any compiled per-backend artifacts, e.g. a built
state-set transformer with its BDDs) keyed by
``(builder ref + builder args, backend)``; the built function's type
signature is recorded on the entry for observability and differential
checks.

A model reference names its builder, so an entry never goes stale
while its worker lives; a respawned worker starts with an empty cache,
so it can never serve an entry from a previous life.

The cache speaks the shared telemetry counter protocol
(``snapshot()`` / ``reset_counters()`` — see
:mod:`repro.telemetry.metrics`): hits, misses, and evictions are
exposed as ``service.cache.{hit,miss,evict}`` so worker replies can
carry the numbers back to the parent's ``QueryEngine.cache_stats()``.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Dict, Tuple

from ..core.function import ZenFunction

__all__ = ["CacheEntry", "ModelCache", "ref_cache_key"]


def ref_cache_key(spec: Any) -> str:
    """Canonical cache/sticky-routing key for a spec's model builder.

    Strings pass through (already canonical); callables are named by
    module and qualname.  Builder arguments are folded in by ``repr``
    so two parameterizations of one builder never collide.
    """
    builder = spec.builder
    if isinstance(builder, str):
        base = builder
    else:
        module = getattr(builder, "__module__", "?")
        qualname = getattr(builder, "__qualname__", None) or repr(builder)
        base = f"{module}:{qualname}"
    if spec.builder_args or spec.builder_kwargs:
        base += repr(spec.builder_args)
        base += repr(sorted(spec.builder_kwargs.items()))
    return base


class CacheEntry:
    """One warm model: the built function plus compiled artifacts."""

    __slots__ = ("function", "signature", "artifacts")

    def __init__(self, function: ZenFunction):
        self.function = function
        #: Recorded type signature of the built model.
        self.signature: Tuple[str, ...] = tuple(
            str(t) for t in function.arg_types
        )
        #: Lazily built per-kind compiled state (e.g. ``"transformer"``
        #: → a built StateSetTransformer that owns its BDD context;
        #: ``"compiled"`` → the model's ``compile()`` closure, or None
        #: when the compiler refused it).
        self.artifacts: Dict[str, Any] = {}


class ModelCache:
    """LRU of resolved/compiled models, keyed ``(ref key, backend)``.

    Not thread-safe: a worker process is single-threaded by design,
    and an in-process caller should own its instance.
    """

    def __init__(self, capacity: int = 32):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity!r}")
        self.capacity = capacity
        self._entries: "OrderedDict[Tuple[str, str], CacheEntry]" = (
            OrderedDict()
        )
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    # -- lookup ----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    def get_function(self, spec: Any) -> Tuple[ZenFunction, bool, CacheEntry]:
        """Resolve the spec's model, warm if possible.

        Returns ``(function, hit, entry)``; a miss resolves the
        builder reference, builds the model, and inserts it (evicting
        the least recently used entry past capacity).
        """
        key = (ref_cache_key(spec), spec.backend)
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
            self.hits += 1
            return entry.function, True, entry
        self.misses += 1
        function = ZenFunction.from_ref(
            spec.builder, *spec.builder_args, **spec.builder_kwargs
        )
        entry = CacheEntry(function)
        self._entries[key] = entry
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1
        return function, False, entry

    # -- counter protocol ------------------------------------------------

    def snapshot(self) -> Dict[str, float]:
        """Flat numeric snapshot (shared telemetry counter protocol)."""
        return {
            "service.cache.hit": self.hits,
            "service.cache.miss": self.misses,
            "service.cache.evict": self.evictions,
            "service.cache.size": len(self._entries),
        }

    def reset_counters(self) -> None:
        self.hits = 0
        self.misses = 0
        self.evictions = 0
