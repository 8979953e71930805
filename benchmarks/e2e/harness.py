"""Measurement plumbing shared by every workload of the benchmark.

Nothing here knows about a particular workload: percentile rules, the
in-memory span recorder with self-time arithmetic, process-tree CPU and
memory accounting, the host-speed yardstick and the environment stamp.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import subprocess
import time
from contextlib import contextmanager
from pathlib import Path
from typing import (
    Any,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

#: Workers of the engine workloads (otherwise default configuration).
#: The runner refuses to measure when the machine has fewer cores.
POOL_SIZE = 2

# ----------------------------------------------------------------------
# Host-speed yardstick (informational only)
# ----------------------------------------------------------------------
#
# The boxes this runs on change speed by tens of per cent for seconds to
# minutes at a time (identical code, CPU time tracking wall time).  Every
# reported time is a plain wall-clock or CPU second; nothing is scaled.
# To let a reader tell a slow host from a slow program, `run.py` times
# this fixed kernel between the laps, in its own small process, and
# reports the reading as `bench.host_slowdown`.

#: Seconds the kernel takes, read the way `run.py` reads it (best of
#: three right before and after a lap), on the sizing box (2-core Xeon
#: 2.1 GHz, Python 3.11) when the host is quiet.  Only sets the scale.
YARDSTICK_NOMINAL_S = 0.009
_YARDSTICK_STEPS = 25_000


def yardstick() -> float:
    """Wall seconds of a fixed hash-consed DAG build — the dict, tuple
    and small-object mix the solvers spend their time in."""
    started = time.perf_counter()
    table: Dict[Tuple[int, int, int], Tuple[Any, Any]] = {}
    previous = before = None
    for step in range(_YARDSTICK_STEPS):
        key = (step & 63, id(previous) & 1023, step >> 3)
        node = table.get(key)
        if node is None:
            node = table[key] = (previous, before)
        before = previous
        previous = node
    return time.perf_counter() - started


# ----------------------------------------------------------------------
# Percentiles and quartiles
# ----------------------------------------------------------------------

#: A percentile is reported only with at least this many samples beyond it.
MIN_SAMPLES_BEYOND = 10


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile (p in 0..100) of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * p // 100))  # ceil without floats drifting
    return ordered[int(rank) - 1]


def highest_supported_percentile(count: int) -> Optional[float]:
    """The highest of p99.9/p99/p95/p90 with >= 10 samples beyond it."""
    for p, per_mille in ((99.9, 999), (99.0, 990), (95.0, 950), (90.0, 900)):
        if count * (1000 - per_mille) >= MIN_SAMPLES_BEYOND * 1000:
            return p
    return None


def median(values: Iterable[float]) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def quartiles(values: Sequence[float]) -> Tuple[float, float]:
    """(Q1, Q3) as `statistics.quantiles(values, n=4)` gives them."""
    if len(values) < 2:
        return (values[0], values[0]) if values else (0.0, 0.0)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def merge_counts(into: Dict[str, float], new: Dict[str, float]) -> None:
    """Add `new` counts into `into`; a peak is a maximum, not a sum."""
    for key, value in new.items():
        if key.endswith("peak_nodes"):
            into[key] = max(into.get(key, 0), value)
        else:
            into[key] = into.get(key, 0) + value


def failed_share(attempted: int, failed: int) -> float:
    """Failed queries over queries attempted (a refused query counts)."""
    return failed / attempted if attempted else 1.0


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------


class Recorder:
    """In-memory spans: name, start, end, parent, query id.

    Kept as plain lists and written out once at the end.  A span's self
    time is its duration minus the part its direct children cover;
    children are recorded inside their parent's interval and do not
    overlap one another, so that part is the sum of their durations.
    """

    def __init__(self) -> None:
        self.spans: List[List[Any]] = []  # [name, start, end, parent, query]
        self._open: List[int] = []

    @contextmanager
    def span(self, name: str, query: str = "") -> Iterator[int]:
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        if not query and parent is not None:
            query = self.spans[parent][4]
        record = [name, time.perf_counter(), None, parent, query]
        self.spans.append(record)
        self._open.append(index)
        try:
            yield index
        finally:
            record[2] = time.perf_counter()
            self._open.pop()

    def add(
        self,
        name: str,
        start: float,
        seconds: float,
        query: str = "",
        parent: Optional[int] = None,
    ) -> None:
        """Record an already-measured span, under `parent` or the open span.

        Used for calls too many to record one by one (tens of thousands
        of Boolean ops per query): their summed time becomes one span.
        """
        if parent is None and self._open:
            parent = self._open[-1]
        if not query and parent is not None:
            query = self.spans[parent][4]
        self.spans.append([name, start, start + seconds, parent, query])

    def self_times(self, query: Optional[str] = None) -> Dict[str, float]:
        """Self seconds per span name (optionally for one query id)."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                covered[parent] += end - start
        out: Dict[str, float] = {}
        for index, (name, start, end, _, owner) in enumerate(self.spans):
            if query is not None and owner != query:
                continue
            out[name] = out.get(name, 0.0) + (end - start) - covered[index]
        return out

    def totals(self, query: Optional[str] = None) -> Dict[str, float]:
        """Total (not self) seconds per span name."""
        out: Dict[str, float] = {}
        for name, start, end, _, owner in self.spans:
            if query is None or owner == query:
                out[name] = out.get(name, 0.0) + (end - start)
        return out

    def chrome_trace(self, pid: int = 0) -> List[Dict[str, Any]]:
        """The spans as Chrome ``trace_event`` complete events."""
        if not self.spans:
            return []
        origin = min(span[1] for span in self.spans)
        return [
            {
                "name": name,
                "ph": "X",
                "ts": (start - origin) * 1e6,
                "dur": (end - start) * 1e6,
                "pid": pid,
                "tid": 0,
                "args": {"query": query, "parent": parent},
            }
            for name, start, end, parent, query in self.spans
        ]


# ----------------------------------------------------------------------
# CPU and memory of a process tree
# ----------------------------------------------------------------------


def _process_cpu_s(pid: int) -> float:
    """On-CPU seconds of another live process (nanosecond counter)."""
    try:
        with open(f"/proc/{pid}/schedstat", encoding="ascii") as handle:
            return int(handle.read().split()[0]) / 1e9
    except (OSError, ValueError, IndexError):
        return 0.0


def tree_cpu_s(worker_pids: Sequence[Optional[int]] = ()) -> float:
    """User+system CPU of this process plus its live worker processes."""
    return time.process_time() + sum(
        _process_cpu_s(pid) for pid in worker_pids if pid
    )


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0  # Linux reports kilobytes


# ----------------------------------------------------------------------
# Environment stamp
# ----------------------------------------------------------------------


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.lower().startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_sha(root: Path) -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def stamp(root: Path, seed: int, lap_plan: Dict[str, Any]) -> Dict[str, Any]:
    """What machine and code produced a result file."""
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "git_sha": git_sha(root),
        "python": platform.python_version(),
        "seed": seed,
        "lap_plan": lap_plan,
        "yardstick_nominal_s": YARDSTICK_NOMINAL_S,
        "generated_unix": time.time(),
    }


def write_json(path: Path, payload: Any) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
