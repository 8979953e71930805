"""Microbenchmarks for the BDD kernels (perf trajectory tracking).

* ``apply_and``        — `and_(f, g)` over random formula pairs, cold
  caches: the conjunction kernel's raw speed;
* ``commutative_cache``— `and_(b, a)` after `and_(a, b)` (one shared
  cache entry), with the and-cache hit rate;
* ``and_many``         — balanced-tree reduction vs a linear fold;
* ``relational_product`` — `and_exists(S, R, X)` on the composition
  shape ``left(x, aux) AND right(aux, y)``;
* ``transformer_image``— `transform_forward` on an ACL model's
  transformer (the paper's transformer hot path), with the manager's
  op-level stats attached;
* ``telemetry_overhead`` — tracing and flight-recorder cost on the
  kernel hot path.

Nothing here reads the manager's private node store.  (A fused
relational-product kernel used to be compared against
`exists(and_(…))` here; it lost on this bench and tied end to end, and
was deleted in PR 12.)

Emits ``BENCH_micro_bdd.json`` (stamped with nproc, CPU model and git
sha) so successive PRs can compare numbers.

Usage:  PYTHONPATH=src python benchmarks/bench_micro_bdd.py [--quick]
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import sys
import time
from pathlib import Path

from repro import ZenFunction
from repro.bdd import Bdd
from repro.core.transformers import TransformerContext
from repro.network import Header, acl_match_line
from repro.workloads import random_acl

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from benchmarks.e2e.harness import cpu_model, git_sha  # noqa: E402

SEED = 2020


def best_of(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def random_formula(manager: Bdd, rng: random.Random, depth: int) -> int:
    """A random formula over the manager's existing variables."""
    if depth == 0:
        index = rng.randrange(manager.num_vars)
        return manager.var(index) if rng.random() < 0.5 else manager.nvar(index)
    left = random_formula(manager, rng, depth - 1)
    right = random_formula(manager, rng, depth - 1)
    op = rng.randrange(3)
    if op == 0:
        return manager.and_(left, right)
    if op == 1:
        return manager.or_(left, right)
    return manager.xor(left, right)


def bench_apply_and(num_vars: int, pairs: int, repeats: int) -> dict:
    """The conjunction kernel over random formula pairs, cold caches.

    The unique tables are warmed first, so the timed passes measure
    expansion and cache traffic, not node allocation.
    """
    manager = Bdd()
    manager.new_vars(num_vars)
    rng = random.Random(SEED)
    operands = [
        (random_formula(manager, rng, 4), random_formula(manager, rng, 4))
        for _ in range(pairs)
    ]

    def pass_() -> None:
        manager.clear_cache()
        for f, g in operands:
            manager.and_(f, g)

    pass_()  # warm the unique tables with the result nodes
    return {
        "name": "apply_and",
        "vars": num_vars,
        "pairs": pairs,
        "apply_ms": best_of(pass_, repeats) * 1000,
    }


def bench_commutative_cache(num_vars: int, pairs: int, repeats: int) -> dict:
    """Reversed-operand re-query: one cache probe.

    The and-cache is keyed on the ordered pair, so ``and_(g, f)`` after
    ``and_(f, g)`` costs a single lookup.
    """
    manager = Bdd()
    manager.new_vars(num_vars)
    rng = random.Random(SEED)
    operands = [
        (random_formula(manager, rng, 5), random_formula(manager, rng, 5))
        for _ in range(pairs)
    ]

    def forward_then_reversed() -> None:
        manager.clear_cache()
        for f, g in operands:
            manager.and_(f, g)
            manager.and_(g, f)

    manager.reset_stats()
    apply_ms = best_of(forward_then_reversed, repeats) * 1000
    return {
        "name": "commutative_cache",
        "vars": num_vars,
        "pairs": pairs,
        "apply_ms": apply_ms,
        "apply_hit_rate": round(manager.stats().hit_rate("and"), 4),
    }


def bench_and_many(conjuncts_count: int, repeats: int) -> dict:
    """Balanced n-ary conjunction vs the seed's linear fold.

    The workload mirrors the Batfish-baseline consumer: each conjunct
    is a cube over its own field block (what ``rule_bdd`` conjoins per
    ACL rule).  A linear fold re-walks the ever-growing accumulator
    for every conjunct — O(n^2) node visits — where the balanced tree
    combines equal-sized halves, O(n log n).
    """
    block = 4
    manager = Bdd()
    manager.new_vars(conjuncts_count * block)
    rng = random.Random(SEED)
    conjuncts = [
        manager.cube(
            {i * block + j: rng.random() < 0.5 for j in range(block)}
        )
        for i in range(conjuncts_count)
    ]
    rng.shuffle(conjuncts)

    def balanced() -> None:
        manager.clear_cache()
        manager.and_many(conjuncts)

    def linear() -> None:
        manager.clear_cache()
        result = 1
        for node in conjuncts:
            result = manager.and_(result, node)

    return {
        "name": "and_many",
        "conjuncts": len(conjuncts),
        "balanced_ms": best_of(balanced, repeats) * 1000,
        "linear_ms": best_of(linear, repeats) * 1000,
    }


def bench_relational_product(width: int, repeats: int) -> dict:
    """The relational product on the composition shape.

    ``left(x, aux) AND right(aux, y)`` with the middle block quantified
    away — exactly what transformer composition computes.  The
    conjunction is much larger than either operand or the result.
    """
    manager = Bdd()
    manager.new_vars(3 * width)
    x_levels = [3 * i for i in range(width)]
    aux_levels = [3 * i + 1 for i in range(width)]
    y_levels = [3 * i + 2 for i in range(width)]
    rng = random.Random(SEED)
    left = manager.and_many(
        manager.iff(
            manager.var(aux_levels[i]),
            manager.xor(
                manager.var(x_levels[i]),
                manager.var(x_levels[rng.randrange(width)]),
            ),
        )
        for i in range(width)
    )
    right = manager.and_many(
        manager.iff(
            manager.var(y_levels[i]),
            manager.xor(
                manager.var(aux_levels[i]),
                manager.var(aux_levels[rng.randrange(width)]),
            ),
        )
        for i in range(width)
    )

    def product() -> int:
        manager.clear_cache()
        return manager.and_exists(left, right, aux_levels)

    conj = manager.and_(left, right)
    return {
        "name": "relational_product",
        "width": width,
        "left_nodes": manager.node_count(left),
        "right_nodes": manager.node_count(right),
        "conjunction_nodes": manager.node_count(conj),
        "product_ms": best_of(product, repeats) * 1000,
    }


def bench_transformer_image(lines: int, repeats: int) -> dict:
    """End-to-end transformer post-image on an ACL model.

    Times ``transformer.transform_forward(input_set)`` itself, as every
    analysis calls it: the guard splits, renames and the relational
    product over the model's general bits (the line number is all
    general), from the canonical input block to the canonical output
    block.  The input set is non-trivial (a predicate over several
    header fields), so there is a real conjunction to quantify.  The
    first image, untimed, builds the product's relation once.
    """
    acl = random_acl(lines, seed=SEED)
    f = ZenFunction(lambda h: acl_match_line(acl, h), [Header], name="acl")

    context = TransformerContext()
    transformer = f.transformer(context=context)
    predicate = ZenFunction(
        lambda h: (h.dst_port <= 1024)
        & ((h.protocol == 6) | (h.protocol == 17))
        & (h.src_port >= 1024),
        [Header],
        name="interesting",
    )
    input_set = context.from_predicate(predicate)
    manager = context.manager
    result = transformer.transform_forward(input_set)
    manager.reset_stats()

    def image() -> None:
        manager.clear_cache()
        transformer.transform_forward(input_set)

    image_ms = best_of(image, repeats) * 1000
    return {
        "name": "transformer_image",
        "acl_lines": lines,
        "general_bits": transformer.bit_kinds().general,
        "image_nodes": manager.node_count(result.node),
        "image_ms": image_ms,
        "bdd_stats": manager.stats().as_dict(),
    }


def bench_telemetry_overhead(
    num_vars: int, pairs: int, repeats: int, baseline_ms=None
) -> dict:
    """Tracing overhead on the kernel hot path (disabled and enabled).

    A public op opens no span: only phases do, and they read the
    manager's counters at their end.  So the enabled pass should
    match the disabled one within noise; a gap here means a per-op
    cost crept back onto the hot path.  ``vs_baseline_ms`` compares
    the disabled pass with the previous ``BENCH_micro_bdd.json``.
    """
    from repro.telemetry import TRACER, disable_tracing, enable_tracing

    manager = Bdd()
    manager.new_vars(num_vars)
    rng = random.Random(SEED)
    operands = [
        (random_formula(manager, rng, 4), random_formula(manager, rng, 4))
        for _ in range(pairs)
    ]

    def pass_() -> None:
        manager.clear_cache()
        for f, g in operands:
            manager.and_(f, g)

    pass_()  # warm the unique table

    def traced_pass() -> None:
        TRACER.reset()  # don't let span trees accumulate across passes
        pass_()

    # Flight-recorder overhead: the always-on per-query obs cost is
    # one bounded-deque append per completed operation (tracing stays
    # disabled — this isolates the recorder itself).  The acceptance
    # bar is < 5% drift vs the plain disabled pass.
    from repro.obs import FlightRecorder

    recorder = FlightRecorder(capacity=256)

    def recorded_pass() -> None:
        manager.clear_cache()
        for f, g in operands:
            manager.and_(f, g)
            recorder.record_attempt(
                {
                    "spec": "bench.and",
                    "kind": "call",
                    "priority": "batch",
                    "ok": True,
                    "outcome": "ok",
                    "latency_s": 0.0,
                    "attempts": 1,
                }
            )

    # Interleave the three variants inside each repeat: run-to-run
    # drift (allocator state, frequency scaling) then hits all three
    # equally instead of biasing whichever block ran last.
    disabled_s = enabled_s = recorder_s = float("inf")
    disable_tracing()
    for _ in range(max(repeats, 5)):
        disabled_s = min(disabled_s, best_of(pass_, 1))
        enable_tracing()
        try:
            enabled_s = min(enabled_s, best_of(traced_pass, 1))
        finally:
            disable_tracing()
            TRACER.reset()
        recorder_s = min(recorder_s, best_of(recorded_pass, 1))
    disabled_ms = disabled_s * 1000
    enabled_ms = enabled_s * 1000
    recorder_ms = recorder_s * 1000

    row = {
        "name": "telemetry_overhead",
        "vars": num_vars,
        "pairs": pairs,
        "disabled_ms": disabled_ms,
        "enabled_ms": enabled_ms,
        "enabled_overhead_pct": round(
            (enabled_ms / disabled_ms - 1.0) * 100, 2
        )
        if disabled_ms
        else 0.0,
        "recorder_ms": recorder_ms,
        "recorder_overhead_pct": round(
            (recorder_ms / disabled_ms - 1.0) * 100, 2
        )
        if disabled_ms
        else 0.0,
    }
    if baseline_ms:
        row["vs_baseline_ms"] = baseline_ms
        row["vs_baseline_pct"] = round(
            (disabled_ms / baseline_ms - 1.0) * 100, 2
        )
    return row


def load_baseline_apply_ms(path: Path, num_vars: int, pairs: int):
    """The prior run's apply_and timing, if it used the same sizes."""
    if not path.is_file():
        return None
    try:
        prior = json.loads(path.read_text())
    except (OSError, ValueError):
        return None
    for row in prior.get("results", ()):
        if (
            row.get("name") == "apply_and"
            and row.get("vars") == num_vars
            and row.get("pairs") == pairs
        ):
            return row.get("apply_ms")
    return None


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true", help="small sizes (CI smoke run)"
    )
    def positive_int(text: str) -> int:
        value = int(text)
        if value < 1:
            raise argparse.ArgumentTypeError("must be >= 1")
        return value

    parser.add_argument("--repeats", type=positive_int, default=3)
    parser.add_argument(
        "--out",
        type=Path,
        default=ROOT / "BENCH_micro_bdd.json",
    )
    args = parser.parse_args()
    if not args.out.parent.is_dir():
        parser.error(f"--out directory does not exist: {args.out.parent}")

    if args.quick:
        sizes = dict(vars=24, pairs=40, many=64, width=10, acl=20)
    else:
        sizes = dict(vars=40, pairs=150, many=192, width=12, acl=60)

    # Read the previous artifact's apply_and timing before overwriting
    # it: the telemetry row reports disabled-mode drift against it.
    baseline_ms = load_baseline_apply_ms(
        args.out, sizes["vars"], sizes["pairs"]
    )

    results = [
        bench_apply_and(sizes["vars"], sizes["pairs"], args.repeats),
        bench_commutative_cache(sizes["vars"], sizes["pairs"], args.repeats),
        bench_and_many(sizes["many"], args.repeats),
        bench_relational_product(sizes["width"], args.repeats),
        bench_transformer_image(sizes["acl"], args.repeats),
        bench_telemetry_overhead(
            sizes["vars"], sizes["pairs"], args.repeats, baseline_ms
        ),
    ]

    report = {
        "bench": "micro_bdd",
        "quick": args.quick,
        "repeats": args.repeats,
        "python": platform.python_version(),
        "stamp": {
            "nproc": os.cpu_count(),
            "cpu_model": cpu_model(),
            "git_sha": git_sha(ROOT),
        },
        "results": results,
    }
    args.out.write_text(json.dumps(report, indent=2) + "\n")

    print(f"{'benchmark':>28} {'ms':>10}")
    for row in results[:-1]:
        for key, value in row.items():
            if key.endswith("_ms"):
                print(f"{row['name'] + '.' + key[:-3]:>28} {value:>10.2f}")

    overhead = results[-1]
    line = (
        f"\ntelemetry: disabled {overhead['disabled_ms']:.2f}ms, "
        f"enabled {overhead['enabled_ms']:.2f}ms "
        f"({overhead['enabled_overhead_pct']:+.1f}%), "
        f"recorder {overhead['recorder_ms']:.2f}ms "
        f"({overhead['recorder_overhead_pct']:+.1f}%)"
    )
    if "vs_baseline_pct" in overhead:
        line += (
            f"; disabled vs previous run "
            f"{overhead['vs_baseline_pct']:+.1f}%"
        )
    print(line)
    print(f"\nwrote {args.out}")


if __name__ == "__main__":
    main()
