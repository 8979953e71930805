"""The seven workloads: what each hands to the system and how it is judged.

A workload instance belongs to one lap of one seed.  It builds that
lap's inputs and their reference answers (`setup`), runs queries
untraced (`run_chunk`), judges every answer against `reference`
(`check`), and — for the traced run — repeats a query through the
layer boundaries (`trace`).  Laps of one seed draw disjoint inputs, so a
run of three laps sees three times the inputs a single lap could fit in
its time box, which is what keeps the per-seed medians steady.
"""

from __future__ import annotations

import gc
import pickle
import statistics
import time
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro import ZenFunction
from repro.analyses import reachable_sets
from repro.baselines import find_packet_matching_last_line
from repro.compose import (
    SHARD_BUILDER,
    compute_shard_summary,
    plan_shards,
    recompose,
    run_composed,
)
from repro.core import TransformerContext
from repro.network import Header, Packet, Route
from repro.service import ModelCache, QueryEngine, QuerySpec, run_spec
from repro.telemetry import TRACER, disable_tracing, enable_tracing
from repro.workloads import fat_tree, fat_tree_hosts
from repro.workloads.generators import random_header

from . import models, reference
from .harness import POOL_SIZE, Recorder, merge_counts
from .tracing import bdd_counts, stepwise_find, timer_cost_inside, transformer_shims

_clock = time.perf_counter

#: Requests `service_stream` keeps in flight (closed loop, one client).
IN_FLIGHT = 32
HSA_MAX_DEPTH = 6


@dataclass
class Query:
    """One query: a stable id, its reference verdict, and its payload."""

    id: str
    expected: str
    payload: Any


#: (latency seconds, answer, exception or None) for one query.
Outcome = Tuple[float, Any, Optional[BaseException]]


class Workload:
    """Shared shape; subclasses fill in inputs, execution and judging."""

    name = ""
    #: per-size knobs, read as self.size["..."].  The full sizes keep one
    #: pass — the least a lap runs, traced repeats included — near its 4 s.
    sizes: Dict[str, Dict[str, int]] = {}

    def __init__(self, seed: int, lap: int, size: str) -> None:
        self.seed = seed
        self.lap = lap
        self.size = self.sizes[size]
        self.chunks: List[List[Query]] = []
        self.engine: Optional[QueryEngine] = None
        self.spawn_s = 0.0
        self._pickle_bytes: List[float] = []  # median pickled size per traced chunk

    # -- set-up ----------------------------------------------------------

    def setup(self) -> None:
        """Build inputs and reference answers, spawn and warm the pool."""
        raise NotImplementedError

    def _spawn_engine(self, first: QuerySpec) -> None:
        """Engine construction to first reply (`service.spawn_s`)."""
        started = _clock()
        self.engine = QueryEngine(pool_size=POOL_SIZE)
        self.engine.run(first)
        self.spawn_s = _clock() - started

    def worker_pids(self) -> Sequence[Optional[int]]:
        return self.engine.worker_pids() if self.engine is not None else ()

    def close(self) -> None:
        if self.engine is not None:
            self.engine.close()

    # -- execution -------------------------------------------------------

    def begin_pass(self, number: int) -> None:
        """Called before pass `number` (from 1); may replace `chunks`."""

    def run(self, query: Query) -> Any:
        raise NotImplementedError

    def run_chunk(self, chunk: List[Query]) -> List[Outcome]:
        out: List[Outcome] = []
        for query in chunk:
            started = _clock()
            try:
                answer, error = self.run(query), None
            except Exception as caught:  # a failing query is a counted failure
                answer, error = None, caught
            out.append((_clock() - started, answer, error))
        return out

    def check(self, query: Query, answer: Any) -> Tuple[str, bool]:
        """(verdict label, verdict and witness agree with the reference)."""
        raise NotImplementedError

    # -- traced run ------------------------------------------------------

    def trace(
        self, query: Query, recorder: Recorder, latency: float
    ) -> Tuple[Any, Dict[str, float], Dict[str, float]]:
        """(answer, seconds per layer, exact counts) for one query.

        `latency` is what the same query took untraced, just before.
        """
        raise NotImplementedError

    def extras(self) -> Dict[str, Callable[[Query], Any]]:
        """Further per-query timings the traced run takes (layer → call)."""
        return {}

    def observe(self, answer: Any) -> Dict[str, float]:
        """Counts an untraced answer itself carries (escalations, …)."""
        return {}

    def expected_entries(self, verdicts: Dict[str, str]) -> Dict[str, str]:
        """The form a pass's verdicts take in expected.json (one per query)."""
        return verdicts

    def traced_chunk(
        self, chunk: List[Query], labels: List[str], latencies: List[float]
    ) -> Tuple[Dict[str, List[float]], Dict[str, float], List[List[Any]]]:
        """Repeat `chunk` through the layer boundaries.

        `labels` and `latencies` are the verdicts and times of the
        untraced run just before; the stepwise verdict has to equal the
        untraced one.  Returns seconds per query and layer, exact counts
        summed over the chunk, and the recorded spans.  Like the untraced
        run, every timed call starts from a collected heap (see `lap`).
        """
        per_query: Dict[str, List[float]] = {}
        counts: Dict[str, float] = {}
        spans: List[List[Any]] = []
        for query, label, latency in zip(chunk, labels, latencies):
            recorder = Recorder()
            gc.collect()
            started = _clock()
            answer, layers, exact = self.trace(query, recorder, latency)
            layers["traced.total"] = _clock() - started
            traced_label = self.check(query, answer)[0]
            if traced_label != label:
                raise AssertionError(
                    f"{query.id}: stepwise verdict {traced_label!r} differs "
                    f"from the untraced {label!r}"
                )
            for layer, seconds in layers.items():
                per_query.setdefault(layer, []).append(seconds)
            merge_counts(counts, exact)
            spans.extend(recorder.spans)
            answer = None
            for layer, call in self.extras().items():
                gc.collect()
                started = _clock()
                call(query)
                per_query.setdefault(layer, []).append(_clock() - started)
        return per_query, counts, spans

    def engine_counters(self) -> Dict[str, float]:
        """Public engine counters after the lap (engine workloads)."""
        if self.engine is None:
            return {}
        dispatch = self.engine.dispatch_stats()
        overload = self.engine.overload_stats()
        return {
            "service.cache_hit_rate": self.engine.cache_stats()["hit_rate"],
            "service.batches": dispatch["batches"],
            "service.mean_batch_size": dispatch["mean_batch_size"],
            "service.sticky_hits": dispatch["sticky_hits"],
            "service.steals": dispatch["steals"],
            "service.worker_restarts": self.engine.total_restarts(),
            "service.shed": overload["shed_overload"],
            "service.hedges_launched": overload["hedge"]["launched"],
            "service.brownouts": sum(
                1 for t in overload["brownout"]["transitions"] if t["to"] == "brownout"
            ),
            "service.spawn_s": self.spawn_s,
            "service.pickle_bytes_p50": (
                statistics.median(self._pickle_bytes) if self._pickle_bytes else 0
            ),
        }


# ----------------------------------------------------------------------
# In-process find() rows
# ----------------------------------------------------------------------


#: Span names of the stepwise find whose self time has its own metric name.
_FIND_LAYER_METRIC = {"backends.flatten": "backends.flatten_self_s"}


class FindWorkload(Workload):
    """A `ZenFunction(model, types).find(backend=…)` per query."""

    backend = "bdd"
    arg_types: Sequence[Any] = (Header,)
    max_list_length = 4
    #: Cost of the op timer inside its own window, measured once per lap.
    _timer_cost: Optional[float] = None

    def run(self, query: Query) -> Any:
        function = ZenFunction(query.payload["model"], self.arg_types)
        return function.find(
            backend=self.backend, max_list_length=self.max_list_length
        )

    def check(self, query: Query, answer: Any) -> Tuple[str, bool]:
        if answer is None:
            return "unsat", query.expected == "unsat"
        return "sat", query.expected == "sat" and query.payload["replays"](answer)

    def trace(self, query, recorder, latency):
        if self._timer_cost is None:
            self._timer_cost = timer_cost_inside()
        answer, counts = stepwise_find(
            recorder,
            query.id,
            query.payload["model"],
            self.arg_types,
            self.backend,
            self.max_list_length,
            self._timer_cost,
        )
        layers = {
            _FIND_LAYER_METRIC.get(name, f"{name}_s"): seconds
            for name, seconds in recorder.self_times(query.id).items()
            if name != "find"  # glue between the steps, the benchmark's own
        }
        # Paired with the untraced run of the same query a moment before,
        # so neither the input nor a slow minute of the host is in it.
        layers["core.find_unattributed_s"] = latency - sum(layers.values())
        return answer, layers, counts


class AclBdd(FindWorkload):
    """Fig. 10 left, the paper's headline: bdd and/or kernels do most of
    the work as very many small ops; sat/aig do none.
    """

    name = "acl_bdd"
    sizes = {"full": {"lines": 150, "inputs": 6}, "quick": {"lines": 30, "inputs": 2}}

    def setup(self) -> None:
        chunk = []
        for index in range(self.size["inputs"]):
            acl = models.figure10_acl(self.seed, self.lap, index, self.size["lines"])
            rules = acl.rules
            # Reference verdict: a seeded search with the hand-written
            # scanner for a header no earlier line matches.
            rng = models.rng_for(self.seed, "acl-ref", self.lap, index)
            reachable = any(
                reference.acl_first_match(rules, random_header(rng)) == len(rules)
                for _ in range(64)
            )
            chunk.append(
                Query(
                    id=f"{self.name}/{self.lap}/{index}",
                    expected="sat" if reachable else "unknown",
                    payload={
                        "acl": acl,
                        "model": models.last_line_model(acl),
                        "replays": lambda h, rules=rules: (
                            reference.acl_first_match(rules, h) == len(rules)
                        ),
                    },
                )
            )
        self.chunks = [[query] for query in chunk]

    def extras(self):
        def telemetry_on(query: Query) -> None:
            enable_tracing()
            try:
                self.run(query)
            finally:
                disable_tracing()
                TRACER.reset()

        return {
            "baselines.batfish_acl_s": lambda query: find_packet_matching_last_line(
                query.payload["acl"]
            ),
            "telemetry.enabled_s": telemetry_on,
        }


class _RouteMapStructural(FindWorkload):
    arg_types = (Route,)

    def setup(self) -> None:
        for index in range(self.size["inputs"]):
            route_map = models.shaped_route_map(
                self.seed, self.lap, index, self.size["clauses"]
            )
            clauses = route_map.clauses
            # Satisfiable by construction: no generated clause matches a
            # prefix length below 8, so this route falls through to the
            # final permit unchanged.  The reference applier confirms it.
            known = Route(
                prefix=0,
                prefix_len=0,
                local_pref=100,
                med=0,
                as_path=[],
                communities=[0],
            )
            self.chunks.append(
                [
                    Query(
                        id=f"{self.name}/{self.lap}/{index}",
                        expected=(
                            "sat"
                            if reference.structural_property(clauses, known)
                            else "unknown"
                        ),
                        payload={
                            "model": models.structural_model(route_map),
                            "replays": lambda r, clauses=clauses: (
                                reference.structural_property(clauses, r)
                            ),
                        },
                    )
                ]
            )


class RouteMapBdd(_RouteMapStructural):
    """Fig. 10 right on bdd: the same layer used differently, few large ite
    expansions over symbolic lists; memory and GC show here.
    """

    name = "routemap_bdd"
    backend = "bdd"
    sizes = {
        "full": {"clauses": 12, "inputs": 7},
        "quick": {"clauses": 4, "inputs": 2},
    }


class RouteMapSat(_RouteMapStructural):
    """The other half of the Fig. 10 flip: flatten + AIG + Tseitin with a
    conflict-free solve; bdd does nothing, so a BDD change must not move
    it.
    """

    name = "routemap_sat"
    backend = "sat"
    sizes = {
        "full": {"clauses": 40, "inputs": 7},
        "quick": {"clauses": 8, "inputs": 2},
    }


class AclEquivSat(FindWorkload):
    """Paper queries solve with 0 conflicts; proving a refactored ACL equal
    is the only row that makes the CDCL search (sat) dominate.
    """

    name = "acl_equiv_sat"
    backend = "sat"
    sizes = {"full": {"lines": 14, "pairs": 24}, "quick": {"lines": 8, "pairs": 4}}

    def setup(self) -> None:
        pairs = self.size["pairs"]
        for index in range(pairs):
            original, rewritten = models.equivalence_pair(
                self.seed, self.lap, index, self.size["lines"]
            )
            expected = "unsat"  # equal by construction of the rewrite
            if index % 4 == 3:
                # Every fourth pair gets one observable action flip: the
                # first line that a header of its own region reaches.
                for line, rule in enumerate(rewritten.rules):
                    probe = models.rule_sample(rule)
                    if reference.acl_first_match(rewritten.rules, probe) == line + 1:
                        rewritten = models.flip_line(rewritten, line)
                        expected = "sat"
                        break
            a, b = original.rules, rewritten.rules
            self.chunks.append(
                [
                    Query(
                        id=f"{self.name}/{self.lap}/{index}",
                        expected=expected,
                        payload={
                            "model": models.difference_model(original, rewritten),
                            "replays": lambda h, a=a, b=b: (
                                reference.acl_permits(a, h)
                                != reference.acl_permits(b, h)
                            ),
                        },
                    )
                ]
            )


# ----------------------------------------------------------------------
# Header space analysis
# ----------------------------------------------------------------------


class HsaFabric(Workload):
    """Fig. 8: the state-set-transformer path; StateSetTransformer.build
    dominates, so core.transformers and the and_exists/rename/permute
    kernels show here and nowhere above.
    """

    name = "hsa_fabric"
    sizes = {"full": {"fabrics": 3, "probes": 24}, "quick": {"fabrics": 1, "probes": 8}}

    def setup(self) -> None:
        for index in range(self.size["fabrics"]):
            description = models.fabric_description(
                self.seed, self.lap * self.size["fabrics"] + index
            )
            network, entry = models.build_fabric(description)
            self.chunks.append(
                [
                    Query(
                        id=f"{self.name}/{self.lap}/{index}",
                        expected="paths",
                        payload={
                            "description": description,
                            "network": network,
                            "entry": entry,
                        },
                    )
                ]
            )

    def run(self, query: Query) -> Any:
        context = TransformerContext(max_list_length=1)
        return reachable_sets(
            query.payload["network"],
            query.payload["entry"],
            context=context,
            max_depth=HSA_MAX_DEPTH,
        )

    def check(self, query: Query, answer: Any) -> Tuple[str, bool]:
        """Witnesses replay and probes land in the set the forwarder says.

        Each reported path set's own element must take exactly that
        path through the hand-written forwarder, and each seeded probe
        packet must be in the set of the path the forwarder gives it —
        which therefore has to be among the reported ones — or in no
        forwarded set when the forwarder drops it.
        """
        description = query.payload["description"]
        label = f"paths={len(answer)}"
        by_path = {}
        for path_set in answer:
            if path_set.path in by_path:
                return label, False
            by_path[path_set.path] = path_set
            path, outcome = reference.trace_fabric(
                description, path_set.packets.element(), HSA_MAX_DEPTH
            )
            forwarded = len(path_set.path) % 2 == 0
            if path != path_set.path or forwarded != (outcome == "left"):
                return label, False
        probes = models.fabric_probe_headers(
            description, self.seed, self.size["probes"]
        )
        for number, header in enumerate(probes):
            packet = Packet(
                overlay_header=header,
                underlay_header=None if number % 4 else header,
            )
            path, outcome = reference.trace_fabric(description, packet, HSA_MAX_DEPTH)
            if outcome == "left" and path not in by_path:
                return label, False  # a whole forwarded path set is missing
            for reported, path_set in by_path.items():
                forwarded = len(reported) % 2 == 0
                if not forwarded:
                    continue
                inside = path_set.packets.contains(packet)
                if inside != (outcome == "left" and reported == path):
                    return label, False
        return label, True

    def trace(self, query, recorder, latency):
        with transformer_shims(recorder) as calls:
            with recorder.span("analyses.hsa", query.id):
                answer = self.run(query)
        totals = recorder.totals(query.id)
        layers = {
            "core.transformer_build_s": totals.get("core.transformer_build", 0.0),
            "core.transformer_image_s": totals.get("core.transformer_image", 0.0),
            "core.stateset_op_s": totals.get("core.stateset_op", 0.0),
            "analyses.hsa_self_s": recorder.self_times(query.id)["analyses.hsa"],
        }
        counts: Dict[str, float] = dict(calls)
        counts["analyses.path_sets"] = len(answer)
        if answer:
            counts.update(bdd_counts(answer[0].packets.context.manager))
        return answer, layers, counts


# ----------------------------------------------------------------------
# Composed reachability over the worker pool
# ----------------------------------------------------------------------


def _pickle_round_trip(values: Sequence[Any]) -> Tuple[float, List[int]]:
    """(seconds, size of each) to pickle and unpickle every value once."""
    started = _clock()
    sizes = []
    for value in values:
        blob = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        sizes.append(len(blob))
        pickle.loads(blob)  # bytes this process just wrote
    return _clock() - started, sizes


class ComposeFatTree(Workload):
    """The only row where compose (plan, 7 shard summaries, recompose) and
    the service fan-out both matter; two fat shards are the critical
    path.
    """

    name = "compose_fattree"
    sizes = {
        "full": {"k": 6, "queries": 5},
        "quick": {"k": 4, "queries": 3},
    }

    def setup(self) -> None:
        self._hosts = fat_tree_hosts(self.size["k"])
        self.begin_pass(0)
        first = plan_shards(self.topology, self.chunks[0][0].payload).shards[0]
        self._spawn_engine(
            QuerySpec(builder=SHARD_BUILDER, kind="call", builder_args=(first,))
        )
        run_composed(self.topology, self.chunks[0][0].payload, self.engine)

    def begin_pass(self, number: int) -> None:
        """A fresh fabric and fresh host pairs every pass.

        Which worker a shard task sticks to is a hash of the task, so a
        query is fast (its two fat shards on different workers) or slow
        (both batched to one) for good.  A handful of repeated queries
        would make a run's numbers a coin toss; a new draw every pass
        lets the run sample the lottery the service really plays.  The
        latencies stay two-peaked — the quartiles show the peaks.
        """
        scope = (self.lap, number)
        self.topology = fat_tree(
            self.size["k"],
            seed=models.rng_for(self.seed, "fattree-fabric", scope).getrandbits(32),
            acl_probability=0.3,
        )
        self.chunks = [
            [
                Query(
                    id=f"{self.name}/{self.lap}/{number}.{index}",
                    expected="reachable" if deliverable else "unreachable",
                    payload=query,
                )
                for index, (query, deliverable) in enumerate(
                    models.fat_tree_queries(
                        self._hosts, self.seed, scope, self.size["queries"]
                    )
                )
            ]
        ]

    def run(self, query: Query) -> Any:
        return run_composed(self.topology, query.payload, self.engine)

    def check(self, query: Query, answer: Any) -> Tuple[str, bool]:
        label = "reachable" if answer.reachable else "unreachable"
        if label != query.expected:
            return label, False
        if answer.reachable:
            sink = models.host_address(query.payload["sink"][0])
            if answer.witness is None or answer.witness["dst_ip"] != sink:
                return label, False
        return label, True

    def trace(self, query, recorder, latency):
        """The composed query stepped through its public stages, in-process."""
        with recorder.span("compose.query", query.id):
            with recorder.span("compose.plan"):
                plan = plan_shards(self.topology, query.payload)
            summaries = {}
            shard_seconds = []
            for task in plan.shards:
                started = _clock()
                with recorder.span("compose.shard"):
                    summary = compute_shard_summary(task)
                shard_seconds.append(_clock() - started)
                summaries[summary["shard_id"]] = summary
            with recorder.span("compose.recompose"):
                outcome = recompose(plan, summaries)
        if not outcome.trusted:
            raise AssertionError(f"{query.id}: stepwise recompose needs escalation")
        totals = recorder.totals(query.id)
        specs = [
            QuerySpec(builder=SHARD_BUILDER, kind="call", builder_args=(task,))
            for task in plan.shards
        ]
        pickle_s, sizes = _pickle_round_trip(specs + list(summaries.values()))
        layers = {
            "compose.plan_s": totals["compose.plan"],
            "compose.shard_s_sum": sum(shard_seconds),
            "compose.shard_s_max": max(shard_seconds),
            "compose.recompose_s": totals["compose.recompose"],
            "service.pickle_s": pickle_s,
        }
        counts = {"compose.shards": len(plan.shards)}
        self._pickle_bytes.append(statistics.median(sizes))
        # The traced answer mimics ComposedResult just enough for check().
        answer = _SteppedVerdict(outcome.hit_node != 0)
        return answer, layers, counts

    def observe(self, answer: Any) -> Dict[str, float]:
        return {
            "compose.escalations": answer.escalations,
            "compose.monolith_fallbacks": int(answer.monolith_fallback),
        }

    def extras(self):
        return {
            "compose.inproc_s_p50": lambda query: run_composed(
                self.topology, query.payload, None
            )
        }


class _SteppedVerdict:
    """Verdict of the stepwise composed run (no witness extraction)."""

    def __init__(self, reachable: bool) -> None:
        self.reachable = reachable
        self.witness = None


# ----------------------------------------------------------------------
# Request stream through the service
# ----------------------------------------------------------------------


class ServiceStream(Workload):
    """Solver work is tiny, so dispatch, pickling, batching and the per-
    worker model cache are the cost; 48 models fit the 32-entry caches
    only if sticky routing holds.
    """

    name = "service_stream"
    sizes = {
        "full": {"models": 48, "chunk": 400, "chunks": 2},
        "quick": {"models": 8, "chunk": 100, "chunks": 1},
    }

    def _spec(self, model: int, kind: str, header: Optional[Header]) -> QuerySpec:
        return QuerySpec(
            builder=models.STREAM_MODEL_REF,
            builder_args=(self.seed, self._first_model + model),
            kind=kind,
            # A model keeps one backend, so one model is one cache entry.
            backend=("sat", "bdd")[model % 2],
            args=(header,) if header is not None else (),
        )

    def setup(self) -> None:
        count = self.size["models"]
        # Each lap has its own models: which worker a model sticks to is
        # a hash lottery, and three draws per run steady what one cannot.
        self._first_model = self.lap * count
        rules = [
            models.stream_acl(self.seed, self._first_model + m).rules
            for m in range(count)
        ]
        rng = models.rng_for(self.seed, "stream", self.lap)
        size = self.size["chunk"]
        finds = size * 15 // 100
        for c in range(self.size["chunks"]):
            # Fixed shape, seeded order: exactly 15 % finds and every
            # model equally often — a find costs twenty evaluations, so
            # letting their number float would move a chunk's work by a
            # tenth between seeds.
            kinds = ["find"] * finds + ["evaluate"] * (size - finds)
            rng.shuffle(kinds)
            order = [m % count for m in range(size)]
            rng.shuffle(order)
            chunk = []
            for i, (kind, model) in enumerate(zip(kinds, order)):
                if kind == "evaluate":
                    # A uniform header falls through to the final permit;
                    # half are aimed at a line so that denies occur.
                    header = (
                        models.rule_sample(rng.choice(rules[model]))
                        if rng.random() < 0.5
                        else random_header(rng)
                    )
                    permitted = reference.acl_permits(rules[model], header)
                    expected = "permit" if permitted else "deny"
                    spec = self._spec(model, "evaluate", header)
                else:
                    # The final catch-all permit makes every ACL admit
                    # something; the witness must be permitted by the
                    # reference scanner.
                    expected = "sat"
                    spec = self._spec(model, "find", None)
                chunk.append(
                    Query(
                        id=f"{self.name}/{self.lap}/{c}.{i}",
                        expected=expected,
                        payload={"spec": spec, "rules": rules[model]},
                    )
                )
            self.chunks.append(chunk)
        self._spawn_engine(self._spec(0, "evaluate", random_header(rng)))
        # Warm-up: every model resolved once where routing sends it.
        warm = [self._spec(m, "evaluate", random_header(rng)) for m in range(count)]
        self.engine.gather([self.engine.submit(spec, wait=True) for spec in warm])

    def run_chunk(
        self, chunk: List[Query], recorder: Optional[Recorder] = None
    ) -> List[Outcome]:
        """Closed loop, one client thread, `IN_FLIGHT` requests outstanding.

        With a `recorder` (the traced run) each request leaves a span
        from submission to completion.
        """
        engine = self.engine
        sent: List[float] = [0.0] * len(chunk)
        done: List[float] = [0.0] * len(chunk)
        futures: List[Any] = [None] * len(chunk)
        outstanding: deque = deque()

        def stamp(index: int) -> Callable[[Any], None]:
            def on_done(_future: Any) -> None:
                done[index] = _clock()

            return on_done

        def drain_one() -> None:
            futures[outstanding.popleft()].exception()  # wait; result read below

        for index, query in enumerate(chunk):
            if len(outstanding) >= IN_FLIGHT:
                drain_one()
            sent[index] = _clock()
            future = engine.submit(query.payload["spec"], wait=True)
            future.add_done_callback(stamp(index))
            futures[index] = future
            outstanding.append(index)
        while outstanding:
            drain_one()
        out: List[Outcome] = []
        for index, future in enumerate(futures):
            error = future.exception()
            # A waiter can wake before the done-callback has run; such a
            # request completed no later than now.
            latency = (done[index] or _clock()) - sent[index]
            if recorder is not None:
                recorder.add("service.request", sent[index], latency, chunk[index].id)
            out.append(
                (latency, None if error is not None else future.result(), error)
            )
        return out

    def check(self, query: Query, answer: Any) -> Tuple[str, bool]:
        value = answer.answer
        if query.payload["spec"].kind == "evaluate":
            label = "permit" if value is True else "deny"
            return label, label == query.expected
        if value is None:
            return "unsat", False
        return "sat", reference.acl_permits(query.payload["rules"], value)

    def expected_entries(self, verdicts: Dict[str, str]) -> Dict[str, str]:
        """One entry per chunk: how many requests got each verdict."""
        tallies: Dict[str, Dict[str, int]] = {}
        for query_id, label in verdicts.items():
            tally = tallies.setdefault(query_id.rsplit(".", 1)[0], {})
            tally[label] = tally.get(label, 0) + 1
        return {
            chunk: " ".join(f"{label}={n}" for label, n in sorted(tally.items()))
            for chunk, tally in tallies.items()
        }

    def traced_chunk(self, chunk, labels, latencies):
        """The chunk again with a span per request, then its layers.

        The engine's own `AttemptRecord`s say how long a request waited
        and ran in its worker; what is left of the client latency is
        service overhead.  Pickling cost and the in-process equivalent
        are measured here, on the same specs and answers.
        """
        recorder = Recorder()
        gc.collect()
        outcomes = self.run_chunk(chunk, recorder)
        per_query: Dict[str, List[float]] = {
            "traced.total": [],
            "service.overhead_s_p50": [],
            "service.queue_wait_s_p50": [],
            "service.exec_s_p50": [],
        }
        retries = 0
        answers = []
        for query, label, (latency, result, error) in zip(chunk, labels, outcomes):
            if error is not None or self.check(query, result)[0] != label:
                raise AssertionError(f"{query.id}: traced request disagrees")
            worker_s = result.attempts[-1].elapsed_s
            per_query["traced.total"].append(latency)
            per_query["service.queue_wait_s_p50"].append(result.queue_wait_s)
            per_query["service.exec_s_p50"].append(worker_s)
            per_query["service.overhead_s_p50"].append(
                latency - worker_s - result.queue_wait_s
            )
            retries += int(result.retried)
            answers.append(result.answer)
        specs = [query.payload["spec"] for query in chunk]
        pickle_s, sizes = _pickle_round_trip(specs + answers)
        per_query["service.pickle_s"] = [pickle_s / len(chunk)]
        self._pickle_bytes.append(statistics.median(sizes))
        cache = ModelCache(capacity=self.size["models"])
        started = _clock()
        for spec in specs:
            run_spec(spec, cache)
        inproc_s = _clock() - started
        per_query["service.inproc_equiv_s"] = [inproc_s / len(chunk)]
        return per_query, {"service.retries": retries}, recorder.spans


WORKLOADS = {
    cls.name: cls
    for cls in (
        AclBdd,
        RouteMapBdd,
        RouteMapSat,
        AclEquivSat,
        HsaFabric,
        ComposeFatTree,
        ServiceStream,
    )
}
