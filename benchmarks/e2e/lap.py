"""One lap: one workload, one seed, one fresh interpreter.

`run.py` starts one by importing this module in a new interpreter (from
the repository root, `src` on the path) and calling `main` with
WORKLOAD SEED LAP SIZE SECONDS TRACED [EXPECTED]; the report is one JSON
object on standard output.

A lap sets the workload up, runs one whole pass over its queries and
then goes on, chunk by chunk, until its time box is spent, judges every
answer, and returns plain data for the parent to merge with the other
laps.  All
times are plain wall-clock or CPU seconds.

The collector runs with its default thresholds throughout, as it does
for a user.  One full collection is made, untimed, before every timed
stretch: a query's answer can hold a whole BDD manager, cyclic garbage
that only the oldest generation frees, and the query after it would
otherwise be charged for walking it (measured on `routemap_bdd`: the
second of two identical back-to-back queries ran 15 % slower, stepwise
or not; 1 % with the collection in between).
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()  # a lap's set-up time starts here

import gc  # noqa: E402  (everything below is part of set-up)
import json  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any, Dict, List, Optional  # noqa: E402

from . import reference  # noqa: E402
from .harness import merge_counts, peak_rss_mb, tree_cpu_s  # noqa: E402

_clock = time.perf_counter

#: Failures listed by id in a lap's report (all are counted).
_LISTED_FAILURES = 10


def run_lap(
    name: str,
    seed: int,
    lap: int,
    size: str,
    seconds: float,
    traced: bool,
    expected_path: Optional[Path],
) -> Dict[str, Any]:
    """Run one lap in this interpreter."""
    # Importing the program is part of what a user waits for: set-up.
    from .workloads import WORKLOADS

    workload = WORKLOADS[name](seed, lap, size)
    try:
        workload.setup()
        # Warm-up: lazy imports and first-use caches, before any timing.
        workload.run_chunk(workload.chunks[0][:1])
        setup_s = _clock() - _STARTED
        report = _measure(
            workload,
            seconds,
            traced,
            reference.expected_for(reference.load_expected(expected_path), seed, size),
        )
        if traced:
            report["gauges"] = workload.engine_counters()
    finally:
        workload.close()
    report.update(
        workload=name,
        seed=seed,
        lap=lap,
        size=size,
        traced=traced,
        setup_s=setup_s,
        peak_rss_mb=peak_rss_mb(),  # after close(): workers are reaped
    )
    return report


def _measure(workload, seconds, traced, expected) -> Dict[str, Any]:
    wall_s = cpu_s = 0.0
    samples: List[float] = []  # latencies of the queries that passed
    attempted = failed = 0
    failures: List[str] = []
    verdicts: Dict[str, str] = {}
    reference_verdicts: Dict[str, str] = {}
    per_query: Dict[str, List[float]] = {}
    counts: Dict[str, float] = {}
    first_pass_s: Dict[str, float] = {}
    spans: List[List[Any]] = []

    def fail(query_id: str, why: str) -> None:
        nonlocal failed
        failed += 1
        if len(failures) < _LISTED_FAILURES:
            failures.append(f"{query_id}: {why}")

    # One whole pass at least, so that every input is measured and judged;
    # after it the lap stops at the first chunk boundary past the time
    # box.  (Stopping at pass boundaries only made a run's sample count
    # jump by half when the host was a tenth slower.)
    began = _clock()
    passes = 0
    spent = False
    while not spent:
        for chunk in workload.chunks:
            pids = workload.worker_pids()
            gc.collect()
            cpu_before = tree_cpu_s(pids)
            chunk_started = _clock()
            outcomes = workload.run_chunk(chunk)
            wall_s += _clock() - chunk_started
            cpu_s += tree_cpu_s(pids) - cpu_before
            labels: List[str] = []
            latencies = [latency for latency, _, _ in outcomes]
            clean = True
            for query, (latency, answer, error) in zip(chunk, outcomes):
                attempted += 1
                if error is not None:
                    fail(query.id, f"{type(error).__name__}: {error}")
                    labels.append("error")
                    clean = False
                    continue
                try:
                    label, ok = workload.check(query, answer)
                except Exception as caught:  # a checker crash is a failed query
                    label, ok = "error", False
                    fail(query.id, f"check raised {type(caught).__name__}: {caught}")
                else:
                    if not ok:
                        fail(query.id, f"verdict {label!r}, reference {query.expected!r}")
                labels.append(label)
                if passes == 0:
                    verdicts[query.id] = label
                    reference_verdicts[query.id] = (
                        label if query.expected == "paths" else query.expected
                    )
                    recorded = expected.get(query.id)
                    if ok and recorded is not None and recorded != label:
                        ok = False
                        fail(query.id, f"verdict {label!r}, expected.json {recorded!r}")
                    if traced:
                        merge_counts(counts, workload.observe(answer))
                if ok:
                    samples.append(latency)  # a failed query has no latency figure
                else:
                    clean = False
            answer = outcomes = None  # answers can hold whole BDD managers
            if traced and clean:
                try:
                    layers, exact, chunk_spans = workload.traced_chunk(
                        chunk, labels, latencies
                    )
                except AssertionError as mismatch:
                    fail(chunk[0].id, str(mismatch))
                else:
                    for layer, values in layers.items():
                        per_query.setdefault(layer, []).extend(values)
                    if passes == 0:
                        merge_counts(counts, exact)
                        for layer, values in layers.items():
                            first_pass_s[layer] = first_pass_s.get(layer, 0.0) + sum(
                                values
                            )
                        spans.extend(chunk_spans)
            spent = passes > 0 and _clock() - began >= seconds
            if spent:
                break
        else:
            passes += 1
            if passes == 1:
                # Verdicts a workload records in bulk (per chunk, not per
                # request) are compared here, once the first pass is whole.
                for key, value in workload.expected_entries(verdicts).items():
                    if key not in verdicts and expected.get(key, value) != value:
                        fail(
                            key, f"verdicts {value!r}, expected.json {expected[key]!r}"
                        )
            spent = _clock() - began >= seconds
            if not spent:
                workload.begin_pass(passes)
    return {
        "samples": samples,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "passes": passes,
        "verdicts": verdicts,
        "reference_verdicts": workload.expected_entries(reference_verdicts),
        "per_query": per_query,
        "counts": counts,
        "first_pass_s": first_pass_s,
        "spans": spans,
    }


def main(argv: List[str]) -> int:
    name, seed, lap, size, seconds, traced = argv[:6]
    expected = Path(argv[6]) if len(argv) > 6 else None
    report = run_lap(
        name, int(seed), int(lap), size, float(seconds), traced == "1", expected
    )
    print(json.dumps(report))
    return 0
