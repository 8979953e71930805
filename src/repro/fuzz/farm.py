"""The fuzz farm: generate → cross-check → shrink → file artifacts.

:func:`run_farm` drives a whole campaign:

1. generate scenario ``i`` deterministically from ``(seed, i)``;
2. run it through the differential oracle
   (:func:`~repro.fuzz.oracle.check_scenario`) — in-process for
   throughput, and periodically through a fault-isolated
   :class:`~repro.service.QueryEngine` so the full subprocess path
   (worker pools, hard deadlines, ``run_differential``'s own
   disagreement detection) stays exercised;
3. on an unexplained failure, re-confirm it, delta-debug the scenario
   to a minimal reproducer (pinning the original counterexample so
   shrink steps cannot dodge the failure), and write a JSON repro
   artifact;
4. stop early once ``max_failures`` artifacts are filed or the
   ``wall_budget_s`` is spent — a CI smoke run must terminate even
   when everything is on fire.

The whole campaign is a pure function of its configuration: same
config, same scenarios, same verdicts, same artifacts (artifact files
embed a wall-clock timestamp; everything else is deterministic).

``chaos_every`` relaxes that determinism deliberately: every Nth
service-routed scenario also gets a worker fault (kill/stall) injected
into the engine right before the query, proving a campaign survives
mid-run worker churn.  The *verdicts* stay deterministic anyway —
any failure observed on a chaos-poisoned engine is re-checked by the
in-process oracle before an artifact is filed, so transport casualties
(a crash caused by the injected kill, a shed caused by the injected
load) can never masquerade as solver bugs.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..core.budget import Budget
from ..obs.recorder import RECORDER
from .artifact import (
    artifact_path,
    build_artifact,
    decode_inputs,
    load_artifact,
    write_artifact,
)
from .oracle import OracleReport, check_scenario
from .scenario import SCENARIO_KINDS, ScenarioGenerator
from .shrink import scenario_size, shrink_scenario

__all__ = ["FarmConfig", "FarmResult", "run_farm", "replay_artifact"]

#: Default per-query cooperative budget: generous enough that the tiny
#: scenarios the generator emits essentially never trip it, tight
#: enough that a pathological one (random 16-bit multiplies under the
#: BDD backend) degrades to an *explained* outcome in bounded time.
DEFAULT_BUDGET = Budget(
    deadline_s=2.0, max_conflicts=200_000, max_bdd_nodes=1_000_000
)


@dataclass(frozen=True)
class FarmConfig:
    """One fuzz campaign's configuration (fully determines its runs).

    ``service_every`` routes every Nth scenario through a
    :class:`~repro.service.QueryEngine` (0 = never, 1 = always);
    the rest solve in-process.  ``inject_bug`` plants a named
    reference-interpreter defect (see
    :data:`~repro.fuzz.reference.KNOWN_BUGS`) — the canary mode used
    by tests to prove the farm catches, shrinks, and reproduces real
    bugs.
    """

    seed: int = 0
    count: int = 200
    kinds: Tuple[str, ...] = SCENARIO_KINDS
    inject_bug: Optional[str] = None
    probe_count: int = 8
    budget: Budget = DEFAULT_BUDGET
    timeout_s: float = 30.0
    service_every: int = 8
    pool_size: int = 2
    max_failures: int = 5
    shrink_checks: int = 300
    wall_budget_s: Optional[float] = None
    #: Inject a worker fault before every Nth service-routed scenario
    #: (0 = never).  Faults are drawn from ``chaos_kinds`` by a
    #: seed-derived RNG; see the module docstring for how verdicts
    #: stay deterministic regardless.
    chaos_every: int = 0
    chaos_kinds: Tuple[str, ...] = ("kill", "stall")


@dataclass
class FarmResult:
    """Campaign totals plus every failure's artifact."""

    config: FarmConfig
    checked: int = 0
    clean: int = 0
    explained: int = 0
    failed: int = 0
    service_checked: int = 0
    chaos_injected: int = 0
    chaos_absorbed: int = 0
    elapsed_s: float = 0.0
    truncated: bool = False
    signatures: Dict[Tuple[str, ...], int] = field(default_factory=dict)
    explanations: Dict[str, int] = field(default_factory=dict)
    chaos_faults: Dict[str, int] = field(default_factory=dict)
    artifacts: List[Dict[str, Any]] = field(default_factory=list)
    artifact_paths: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.failed == 0

    def summary(self) -> Dict[str, Any]:
        """A JSON-ready campaign summary (no embedded live objects)."""
        return {
            "seed": self.config.seed,
            "count": self.config.count,
            "kinds": list(self.config.kinds),
            "inject_bug": self.config.inject_bug,
            "checked": self.checked,
            "clean": self.clean,
            "explained": self.explained,
            "failed": self.failed,
            "service_checked": self.service_checked,
            "chaos_injected": self.chaos_injected,
            "chaos_absorbed": self.chaos_absorbed,
            "chaos_faults": dict(self.chaos_faults),
            "elapsed_s": round(self.elapsed_s, 3),
            "truncated": self.truncated,
            "signatures": {
                "/".join(sig): n for sig, n in self.signatures.items()
            },
            "explanations": dict(self.explanations),
            "artifacts": list(self.artifact_paths),
            "ok": self.ok,
        }


def run_farm(
    config: FarmConfig,
    *,
    artifact_dir: Optional[str] = None,
    engine: Any = None,
    progress: Optional[Callable[[str], None]] = None,
) -> FarmResult:
    """Run one campaign; returns totals plus artifacts for failures.

    ``engine`` may be a caller-managed
    :class:`~repro.service.QueryEngine`; otherwise one is created
    lazily when ``config.service_every`` routes a scenario through the
    service, and closed before returning.
    """
    generator = ScenarioGenerator(
        seed=config.seed, kinds=config.kinds, inject_bug=config.inject_bug
    )
    result = FarmResult(config=config)
    own_engine = None
    started = time.monotonic()
    say = progress or (lambda message: None)
    chaos_rng = random.Random(f"repro-fuzz-chaos:{config.seed}")
    service_index = 0
    try:
        for index in range(config.count):
            if (
                config.wall_budget_s is not None
                and time.monotonic() - started > config.wall_budget_s
            ):
                result.truncated = True
                say(
                    f"wall budget exhausted after {result.checked} "
                    f"scenarios; stopping early"
                )
                break
            data = generator.scenario(index)
            use_service = (
                config.service_every > 0
                and index % config.service_every == 0
            )
            if use_service and engine is None and own_engine is None:
                from ..service import QueryEngine

                own_engine = QueryEngine(
                    pool_size=config.pool_size,
                    retries=1,
                    default_timeout_s=config.timeout_s,
                )
            active = (engine or own_engine) if use_service else None
            chaos_active = False
            if use_service:
                service_index += 1
                if (
                    config.chaos_every > 0
                    and service_index % config.chaos_every == 0
                ):
                    chaos_active = _inject_chaos(
                        active, config, chaos_rng, result, say
                    )
            report = check_scenario(
                data,
                engine=active,
                probe_count=config.probe_count,
                budget=config.budget,
                timeout_s=config.timeout_s if use_service else None,
            )
            if report.failed and chaos_active:
                # The engine this ran on had a fault injected moments
                # ago; a crash or transport failure here may be our own
                # chaos, not a solver bug.  Only the deterministic
                # in-process oracle's verdict files an artifact.
                recheck = check_scenario(
                    data,
                    probe_count=config.probe_count,
                    budget=config.budget,
                )
                if recheck.failed:
                    report = recheck
                else:
                    result.chaos_absorbed += 1
                    say(
                        f"scenario {index} failed only on the "
                        f"chaos-poisoned engine "
                        f"({'/'.join(report.signature or ('unknown',))})"
                        f" — absorbed, not filed"
                    )
                    report = recheck
            result.checked += 1
            if use_service:
                result.service_checked += 1
            if report.failed:
                result.failed += 1
                signature = report.signature or ("unknown",)
                result.signatures[signature] = (
                    result.signatures.get(signature, 0) + 1
                )
                say(
                    f"scenario {index} ({data['kind']}) failed: "
                    f"{'/'.join(signature)} — shrinking"
                )
                artifact = _file_failure(config, report, artifact_dir)
                result.artifacts.append(artifact)
                if artifact_dir is not None:
                    result.artifact_paths.append(
                        artifact_path(artifact_dir, artifact)
                    )
                # New finding: freeze a flight-recorder debug bundle
                # next to the repro artifact (the operational context
                # — metrics, recent attempts — the artifact lacks).
                RECORDER.trigger(
                    "fuzz_finding",
                    detail="/".join(signature),
                    bundle_dir=artifact_dir,
                    context={
                        "scenario_index": index,
                        "scenario_kind": data["kind"],
                        "seed": config.seed,
                        "detail": report.detail,
                    },
                )
                if result.failed >= config.max_failures:
                    result.truncated = True
                    say(
                        f"max_failures={config.max_failures} reached; "
                        f"stopping early"
                    )
                    break
            elif report.explained is not None:
                result.explained += 1
                result.explanations[report.explained] = (
                    result.explanations.get(report.explained, 0) + 1
                )
            else:
                result.clean += 1
            if progress and result.checked % 50 == 0:
                say(
                    f"{result.checked}/{config.count} checked "
                    f"({result.clean} clean, {result.explained} "
                    f"explained, {result.failed} failed)"
                )
    finally:
        if own_engine is not None:
            own_engine.close()
    result.elapsed_s = time.monotonic() - started
    return result


def _inject_chaos(
    engine: Any,
    config: FarmConfig,
    rng: random.Random,
    result: FarmResult,
    say: Callable[[str], None],
) -> bool:
    """Aim one worker fault at the campaign's engine.

    Returns True when a fault actually landed (a ``kill`` against an
    empty pool lands nothing).  The fault kind is drawn from
    ``config.chaos_kinds`` by the campaign's seed-derived RNG, so the
    *schedule* of faults is reproducible even though their victims
    (live worker pids) are not.
    """
    from ..service.chaos import inject_worker_fault

    kind, pid = inject_worker_fault(
        engine,
        kind=rng.choice(list(config.chaos_kinds)),
        rng=rng,
        stall_ms=100.0,
    )
    if pid is None and kind == "kill":
        return False
    result.chaos_injected += 1
    result.chaos_faults[kind] = result.chaos_faults.get(kind, 0) + 1
    say(f"chaos: injected {kind}" + (f" (pid {pid})" if pid else ""))
    return True


def _signature_preserving(
    config: FarmConfig,
    signature: Tuple[str, ...],
    pinned: Sequence[Tuple[Any, ...]],
) -> Callable[[Dict[str, Any]], bool]:
    """The shrinker's oracle: same failure *class*, in-process.

    Compares only the signature head (e.g. ``ref_divergence``) so a
    failure may legitimately move between its witness and probe
    flavours while the scenario shrinks.
    """

    def failing(candidate: Dict[str, Any]) -> bool:
        report = check_scenario(
            candidate,
            probe_count=config.probe_count,
            budget=config.budget,
            extra_inputs=pinned,
        )
        return (
            report.failed
            and report.signature is not None
            and report.signature[0] == signature[0]
        )

    return failing


def _file_failure(
    config: FarmConfig,
    report: OracleReport,
    artifact_dir: Optional[str],
) -> Dict[str, Any]:
    """Shrink a confirmed failure and assemble (and maybe write) its
    artifact."""
    signature = report.signature or ("unknown",)
    pinned = (
        [report.counterexample] if report.counterexample is not None else []
    )
    minimized = shrink_scenario(
        report.scenario,
        _signature_preserving(config, signature, pinned),
        max_checks=config.shrink_checks,
    )
    # Re-confirm the minimized scenario so the artifact records *its*
    # failure detail (witnesses, counterexample), not the original's.
    confirmed = check_scenario(
        minimized,
        probe_count=config.probe_count,
        budget=config.budget,
        extra_inputs=pinned,
    )
    final = confirmed if confirmed.failed else report
    artifact = build_artifact(
        final,
        minimized,
        shrink_info={
            "original_size": scenario_size(report.scenario),
            "minimized_size": scenario_size(minimized),
            "max_checks": config.shrink_checks,
            "pinned_counterexample": bool(pinned),
        },
        farm={
            "seed": config.seed,
            "scenario_index": report.scenario.get("index"),
            "count": config.count,
            "kinds": list(config.kinds),
            "inject_bug": config.inject_bug,
            "probe_count": config.probe_count,
        },
    )
    if artifact_dir is not None:
        write_artifact(artifact_path(artifact_dir, artifact), artifact)
    return artifact


def replay_artifact(
    source: Any, *, probe_count: Optional[int] = None
) -> Tuple[bool, OracleReport]:
    """Re-run the oracle on an artifact's minimized scenario.

    ``source`` is an artifact path or an already-loaded artifact dict.
    Returns ``(reproduced, report)`` — ``reproduced`` is True when the
    failure fires again with the artifact's signature head.  The
    replay pins the artifact's counterexample (when recorded), exactly
    as the shrinker did, so reproduction does not depend on probe
    luck.
    """
    artifact = (
        load_artifact(source) if isinstance(source, str) else source
    )
    scenario = artifact.get("minimized") or artifact["scenario"]
    pinned_tuple = decode_inputs(artifact.get("counterexample"))
    pinned = [pinned_tuple] if pinned_tuple is not None else []
    farm_meta = artifact.get("farm", {})
    report = check_scenario(
        scenario,
        probe_count=(
            probe_count
            if probe_count is not None
            else farm_meta.get("probe_count", 8)
        ),
        budget=DEFAULT_BUDGET,
        extra_inputs=pinned,
    )
    expected = tuple(artifact.get("signature") or ())
    reproduced = (
        report.failed
        and report.signature is not None
        and bool(expected)
        and report.signature[0] == expected[0]
    )
    return reproduced, report
