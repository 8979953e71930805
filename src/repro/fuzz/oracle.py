"""The differential cross-check oracle: SAT vs BDD vs concrete vs reference.

One scenario, four independent derivations of the same semantics:

1. the **SAT** backend's verdict (witness or unsat);
2. the **BDD** backend's verdict;
3. the **concrete evaluator** — every witness is replayed through it
   (the library's own ``validate=True`` self-check), and probe inputs
   are evaluated directly, by the interpreter and by the model's
   compiled closure (``compile_divergence`` when they differ);
4. the **reference interpreter** (:mod:`repro.fuzz.reference`) — a
   from-scratch reimplementation off the JSON payload.

:func:`check_scenario` runs a scenario through all four and folds the
comparisons into one :class:`OracleReport`.  A compose *topology*
scenario has its own arms: the composed verdict, concrete replay and
the reference walker on probes and on the composed witness, the same
question asked again through the driver's held fabric
(``memo_divergence`` when its verdict or witness differs), and one
HSA exploration (:func:`hsa_delivered`) for every "unreachable".  A
failure carries a *signature* — a short structural tuple like ``("unsound", "sat")`` or
``("ref_divergence", "probe")`` — which is what the shrinker preserves
while minimizing and what artifacts key on.  Budget and hard-timeout
exhaustion are *explained* outcomes, not failures: a fuzz campaign
under tight budgets must distinguish "the solver ran out of rope" from
"the solvers contradict each other".

Two execution modes share all comparison logic:

* **in-process** (default): solve directly in this process — fast,
  no pickling, what the shrinker uses for its thousands of candidate
  checks;
* **service** (pass an ``engine``): ship the query through
  :meth:`~repro.service.QueryEngine.run_differential`, exercising the
  full fault-isolated path — subprocess workers, retry ladders, hard
  deadlines, and the engine's own disagreement detection.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, Sequence, Tuple

from ..core.budget import Budget, start_meter
from ..errors import (
    ZenBackendDisagreement,
    ZenBudgetExceeded,
    ZenError,
    ZenOverloadShed,
    ZenQueueFull,
    ZenServiceError,
    ZenUnsoundResultError,
    ZenUnsupportedError,
)
from .reference import _in_cover, reference_inputs, reference_result
from .scenario import build_scenario_model, prop_never, scenario_label

__all__ = [
    "OracleReport",
    "check_scenario",
    "hsa_delivered",
    "make_specs",
    "ORACLE_BACKENDS",
]

ORACLE_BACKENDS = ("sat", "bdd")

#: Kinds checked in process whatever engine is handed over: the object
#: under test of a topology scenario is the compose driver.
IN_PROCESS_KINDS = ("topology",)

#: Attempt outcomes that count as explained (resource) exhaustion
#: rather than semantic failures when the service path gives up.
#: Overload-protection outcomes (shed_overload, deadline_expired,
#: engine_shutdown) belong here: a chaos-injected storm dropping a
#: fuzz query is the admission controller working, not a solver bug.
_EXPLAINED_OUTCOMES = {
    "timeout",
    "budget_exceeded",
    "shed",
    "cancelled",
    "shed_overload",
    "deadline_expired",
    "engine_shutdown",
}
_EXPLAINED_ERROR_TYPES = {
    "ZenBudgetExceeded",
    "ZenQueryTimeout",
    "ZenOverloadShed",
    "ZenQueueFull",
}

_OVERLOAD_OUTCOMES = {"shed_overload", "engine_shutdown"}


@dataclass
class OracleReport:
    """Everything the oracle learned about one scenario.

    ``ok`` is True when every completed comparison agreed.  On
    failure, ``signature`` identifies the failure *class* (stable
    under shrinking) and ``detail`` the specifics.  ``explained``
    names a resource reason (``"budget"``/``"timeout"``) when at least
    one backend could not finish — those scenarios are neither
    failures nor clean passes and the farm reports them separately.

    ``verdicts`` maps backend name to its satisfiability verdict:
    True (validated witness), False (proved unsat), or None (did not
    complete).  ``witnesses`` holds the decoded witness tuple of every
    backend that produced one.
    """

    scenario: Dict[str, Any]
    ok: bool
    signature: Optional[Tuple[str, ...]] = None
    detail: str = ""
    explained: Optional[str] = None
    mode: str = "inprocess"
    verdicts: Dict[str, Optional[bool]] = field(default_factory=dict)
    witnesses: Dict[str, Tuple[Any, ...]] = field(default_factory=dict)
    probes_checked: int = 0
    counterexample: Optional[Tuple[Any, ...]] = None
    disagreement: Optional[ZenBackendDisagreement] = None

    @property
    def failed(self) -> bool:
        return not self.ok and self.explained is None


def make_specs(
    data: Dict[str, Any],
    *,
    budget: Optional[Budget] = None,
    timeout_s: Optional[float] = None,
    trace: bool = False,
):
    """The service-mode :class:`~repro.service.QuerySpec` for a scenario.

    The builder is this package's :func:`build_scenario_model` by
    module:attribute reference, with the scenario dict as the (plain
    data, hence picklable) builder argument — any worker process can
    rebuild the model from it.
    """
    from ..service.spec import QuerySpec

    return QuerySpec(
        builder="repro.fuzz.scenario:build_scenario_model",
        builder_args=(data,),
        kind=data["query"],
        predicate=(
            "repro.fuzz.scenario:prop_never"
            if data["query"] == "verify"
            else None
        ),
        backend="sat",
        max_list_length=data["max_list_length"],
        budget=budget,
        timeout_s=timeout_s,
        label=scenario_label(data),
        trace=trace,
        # Campaigns are background work: under overload the engine may
        # shed or reject them, and the oracle treats that as explained.
        priority="fuzz",
    )


def _as_tuple(answer: Any, arity: int) -> Optional[Tuple[Any, ...]]:
    """Normalize find/verify answers to input tuples (unary unwraps)."""
    if answer is None:
        return None
    if arity == 1:
        return (answer,)
    return tuple(answer)


def _arity(data: Dict[str, Any]) -> int:
    return 2 if data["kind"] == "zen" else 1


def check_scenario(
    data: Dict[str, Any],
    *,
    engine: Any = None,
    probe_count: int = 12,
    budget: Optional[Budget] = None,
    timeout_s: Optional[float] = None,
    extra_inputs: Sequence[Tuple[Any, ...]] = (),
) -> OracleReport:
    """Run the full differential oracle over one scenario.

    ``extra_inputs`` are additional concrete inputs cross-checked
    exactly like probes.  The shrinker passes the original failure's
    counterexample here, so a candidate scenario keeps "failing" as
    long as that specific input still diverges — without this, each
    shrink step would re-roll the probe stream and lose the failure.
    """
    if data["kind"] in IN_PROCESS_KINDS:
        report = OracleReport(scenario=data, ok=True)
        _check_topology(data, report, probe_count, budget, extra_inputs)
        return report
    report = OracleReport(
        scenario=data, ok=True, mode="service" if engine else "inprocess"
    )
    try:
        fn = build_scenario_model(data)
    except Exception as error:  # noqa: BLE001 - any build failure is a find
        report.ok = False
        report.signature = ("error", type(error).__name__)
        report.detail = f"model build failed: {error}"
        return report

    if engine is None:
        _solve_inprocess(data, fn, report, budget)
    else:
        _solve_service(data, report, engine, budget, timeout_s)
    if report.failed:
        return report

    _cross_check(data, fn, report, probe_count, extra_inputs)
    return report


# ----------------------------------------------------------------------
# Solving
# ----------------------------------------------------------------------


def _solve_inprocess(
    data: Dict[str, Any],
    fn: Any,
    report: OracleReport,
    budget: Optional[Budget],
) -> None:
    arity = _arity(data)
    for backend in ORACLE_BACKENDS:
        meter = start_meter(budget)
        try:
            if data["query"] == "verify":
                answer = fn.verify(
                    prop_never,
                    backend=backend,
                    max_list_length=data["max_list_length"],
                    budget=meter,
                )
            else:
                answer = fn.find(
                    backend=backend,
                    max_list_length=data["max_list_length"],
                    budget=meter,
                )
        except ZenUnsoundResultError as error:
            report.ok = False
            report.signature = ("unsound", backend)
            report.detail = str(error)
            report.verdicts[backend] = None
            return
        except ZenBudgetExceeded as error:
            report.verdicts[backend] = None
            report.explained = f"budget:{error.reason or 'exhausted'}"
            continue
        except ZenError as error:
            report.ok = False
            report.signature = ("error", type(error).__name__)
            report.detail = f"{backend} raised: {error}"
            report.verdicts[backend] = None
            return
        witness = _as_tuple(answer, arity)
        report.verdicts[backend] = witness is not None
        if witness is not None:
            report.witnesses[backend] = witness

    completed = {b: v for b, v in report.verdicts.items() if v is not None}
    if len(set(completed.values())) > 1:
        report.ok = False
        report.signature = ("backend_disagreement",)
        report.detail = f"verdicts contradict: {report.verdicts}"


def _solve_service(
    data: Dict[str, Any],
    report: OracleReport,
    engine: Any,
    budget: Optional[Budget],
    timeout_s: Optional[float],
) -> None:
    from ..errors import ZenQueryFailed

    arity = _arity(data)
    spec = make_specs(data, budget=budget, timeout_s=timeout_s)
    try:
        result = engine.run_differential(spec)
    except ZenBackendDisagreement as error:
        report.ok = False
        report.signature = ("backend_disagreement",)
        report.detail = str(error)
        report.disagreement = error
        for backend, answer in error.answers.items():
            witness = _as_tuple(answer, arity)
            report.verdicts[backend] = witness is not None
            if witness is not None:
                report.witnesses[backend] = witness
        return
    except (ZenQueueFull, ZenOverloadShed):
        # Structured backpressure: the admission controller rejected or
        # shed this query before (or instead of) solving it.  Under a
        # chaos storm this is the overload machinery working as
        # designed, not a solver bug — and ZenQueueFull arrives with no
        # attempts at all, so it must be classified before the
        # attempt-based logic below.
        report.explained = "overload"
        report.verdicts.update({b: None for b in ORACLE_BACKENDS})
        return
    except (ZenQueryFailed, ZenServiceError) as error:
        attempts = getattr(error, "attempts", ())
        unsound = [
            a for a in attempts
            if a.error_type == "ZenUnsoundResultError"
        ]
        if unsound:
            report.ok = False
            report.signature = ("unsound", unsound[0].backend)
            report.detail = unsound[0].error
            return
        if attempts and all(
            a.outcome in _EXPLAINED_OUTCOMES
            or a.error_type in _EXPLAINED_ERROR_TYPES
            for a in attempts
        ):
            outcomes = {a.outcome for a in attempts}
            if outcomes & _OVERLOAD_OUTCOMES:
                report.explained = "overload"
            elif "timeout" in outcomes or "deadline_expired" in outcomes:
                report.explained = "timeout"
            else:
                report.explained = "budget"
            report.verdicts.update({b: None for b in ORACLE_BACKENDS})
            return
        report.ok = False
        report.signature = ("error", type(error).__name__)
        report.detail = str(error)
        return
    except ZenBudgetExceeded as error:
        report.explained = f"budget:{error.reason or 'exhausted'}"
        report.verdicts.update({b: None for b in ORACLE_BACKENDS})
        return

    answers = result.answers or {result.backend: result.answer}
    for backend in ORACLE_BACKENDS:
        if backend in answers:
            witness = _as_tuple(answers[backend], arity)
            report.verdicts[backend] = witness is not None
            if witness is not None:
                report.witnesses[backend] = witness
        else:
            # run_differential already compared completed sides; a
            # missing side failed (agreed=None) — resource-explained.
            report.verdicts[backend] = None
            report.explained = report.explained or "one-sided"


# ----------------------------------------------------------------------
# Compose topologies
# ----------------------------------------------------------------------


def topology_replay(
    topo: Dict[str, Any], query: Dict[str, Any]
) -> Callable[[Any], bool]:
    """A topology query's verdict on one header, by :func:`simulate`."""
    from ..compose.topo import build_network
    from ..network import make_packet, simulate

    network = build_network(topo, (query["source"], query["sink"]))
    (source, port), (sink, sink_port) = query["source"], query["sink"]
    entry = network.device(source).interface(int(port))
    exit_name = f"{sink}:{int(sink_port)}"

    def verdict(h: Any) -> bool:
        if not _in_cover(query.get("headers"), h):
            return False
        final = simulate(network, entry, make_packet(h)).delivered_at(exit_name)
        return final is not None and _in_cover(
            query.get("target"), final.overlay_header
        )

    return verdict


def hsa_delivered(
    topo: Dict[str, Any], source: Sequence[Any], headers: Any = None
) -> Callable[[Sequence[Any], Any], bool]:
    """One HSA exploration of the headers in `headers` (no underlay)
    entering at `source`; returns whether any of them leaves at a sink
    point carrying a header in a given cover.

    The path sets come from :func:`~repro.analyses.reachable_sets` over
    the payload's :class:`~repro.network.Network`: a symbolic engine
    that shares the device model with compose but none of its
    planning, summaries or recomposition.
    """
    from ..analyses import reachable_sets
    from ..compose.cubes import cover_predicate
    from ..compose.topo import build_network
    from ..core import ZenFunction
    from ..core.transformers import TransformerContext
    from ..network import Packet

    network = build_network(topo, [source])
    context = TransformerContext()
    injected = context.from_predicate(
        ZenFunction(
            lambda p: ~p.underlay_header.has_value()
            & cover_predicate(p.overlay_header, headers),
            [Packet],
        )
    )
    entry = network.device(source[0]).interface(source[1])
    sets = reachable_sets(network, entry, context, packets=injected)

    def delivers(sink: Sequence[Any], cover: Any) -> bool:
        wanted = context.from_predicate(
            ZenFunction(
                lambda p: cover_predicate(p.overlay_header, cover), [Packet]
            )
        )
        return any(
            s.path[-1] == f"{sink[0]}:{sink[1]}"
            and not s.packets.intersect(wanted).is_empty()
            for s in sets
        )

    return delivers


def _check_topology(
    data: Dict[str, Any],
    report: OracleReport,
    probe_count: int,
    budget: Optional[Budget],
    extra_inputs: Sequence[Tuple[Any, ...]],
) -> None:
    """The compose differential: composed vs reference vs replay vs HSA.

    Topology scenarios are not solved through find/verify — the object
    under test is :func:`~repro.compose.driver.run_composed` itself.
    Checks run cheapest-first: the composed verdict, then concrete
    probes (reference walker against the Zen hop's concrete replay, and
    any True probe against a composed "unreachable"), then the verdict
    itself.  A "reachable" must carry a witness the reference walker
    delivers — the driver already replayed it, so that proves the
    verdict.  The memo arm asks the question twice more, unbudgeted,
    so that the second answer comes from the fabric the first one
    held: both must give the verdict and carry witnesses the reference
    walker delivers.  An "unreachable" is judged by one HSA
    exploration (:func:`hsa_delivered`), which must not deliver any
    injected header into the target either.
    """
    from ..compose.driver import run_composed
    from ..network.packet import Header
    from .reference import SYSTEM_BUGS

    payload = data["payload"]
    topo, query = payload["topo"], payload["query"]
    # Reference-planted bugs stay in the reference interpreter; only
    # system bugs are interpreted by the compose pipeline.
    system_bug = data.get("bug") if data.get("bug") in SYSTEM_BUGS else None

    try:
        composed = run_composed(
            topo,
            query,
            budget=budget.to_dict() if budget is not None else None,
            bug=system_bug,
        )
    except ZenBudgetExceeded as error:
        report.explained = f"budget:{error.reason or 'exhausted'}"
        report.verdicts["composed"] = None
        return
    except ZenError as error:
        report.ok = False
        report.signature = ("error", type(error).__name__)
        report.detail = f"run_composed raised: {error}"
        report.verdicts["composed"] = None
        return
    report.verdicts["composed"] = composed.reachable

    replay_verdict = topology_replay(topo, query)

    rng = random.Random(
        f"repro-fuzz-probe:{data.get('seed')}:{data.get('index')}"
    )
    probes = list(extra_inputs) + reference_inputs(data, rng, count=probe_count)
    for probe in probes:
        ref_says = reference_result(data, probe)
        replay_says = replay_verdict(probe[0])
        report.probes_checked += 1
        if ref_says != replay_says:
            report.ok = False
            report.signature = ("ref_divergence", "probe")
            report.detail = (
                f"replay={replay_says} reference={ref_says} on probe "
                f"{probe!r}"
            )
            report.counterexample = probe
            return
        if ref_says and not composed.reachable:
            report.ok = False
            report.signature = ("unsat_refuted",)
            report.detail = (
                f"composed verdict is unreachable but {probe!r} is "
                f"delivered per both concrete interpreters "
                f"(mode={composed.mode}, shards={composed.shard_count})"
            )
            report.counterexample = probe
            return

    for _ in range(2):
        try:
            held = run_composed(topo, query, bug=system_bug)
        except ZenError as error:
            held, detail = None, f"raised {type(error).__name__}: {error}"
        else:
            detail = f"reachable={held.reachable} witness={held.witness!r}"
        if held is None or held.reachable != composed.reachable or (
            held.reachable
            and not reference_result(data, (Header(**held.witness),))
        ):
            report.ok = False
            report.signature = ("memo_divergence",)
            report.detail = (
                f"composed reachable={composed.reachable}, through the "
                f"held fabric {detail}"
            )
            return

    if composed.reachable:
        witness = (
            (Header(**composed.witness),) if composed.witness else None
        )
        if witness is None or not reference_result(data, witness):
            report.ok = False
            report.signature = ("ref_divergence", "witness")
            report.detail = (
                "composed reachable without a witness the reference "
                f"interpreter delivers: {composed.witness!r}"
            )
            report.counterexample = witness
            return
        report.witnesses["composed"] = witness
        return

    delivers = hsa_delivered(topo, query["source"], query.get("headers"))
    report.verdicts["hsa"] = delivers(query["sink"], query.get("target"))
    if report.verdicts["hsa"]:
        report.ok = False
        report.signature = ("compose_divergence",)
        report.detail = (
            f"composed=False hsa=True (shards={composed.shard_count})"
        )


# ----------------------------------------------------------------------
# Concrete + reference cross-checks
# ----------------------------------------------------------------------


def _cross_check(
    data: Dict[str, Any],
    fn: Any,
    report: OracleReport,
    probe_count: int,
    extra_inputs: Sequence[Tuple[Any, ...]] = (),
) -> None:
    # 1. Every witness must satisfy the model per the *reference*
    # interpreter (concrete replay already happened via validate=True;
    # this is the independent derivation).
    for backend, witness in report.witnesses.items():
        if not reference_result(data, witness):
            report.ok = False
            report.signature = ("ref_divergence", "witness")
            report.detail = (
                f"{backend} witness rejected by the reference "
                f"interpreter: {witness!r}"
            )
            report.counterexample = witness
            return

    # 2. Probe concrete inputs: the model (concrete evaluator) and the
    # reference must agree everywhere; and if the solvers proved unsat,
    # no probe may satisfy the model.
    completed = [v for v in report.verdicts.values() if v is not None]
    solver_unsat = bool(completed) and not any(completed)
    rng = random.Random(
        f"repro-fuzz-probe:{data.get('seed')}:{data.get('index')}"
    )
    probes = list(extra_inputs) + reference_inputs(data, rng, count=probe_count)
    # The model's compiled closure (what a warm service `evaluate`
    # runs) must also agree with the interpreter on every probe.
    try:
        compiled = fn.compile()
    except ZenUnsupportedError:
        compiled = None  # a list `case`: the service interprets it too
    for probe in probes:
        value = fn.evaluate(*probe)
        model_says = bool(value)
        ref_says = reference_result(data, probe)
        report.probes_checked += 1
        compiled_value = value if compiled is None else compiled(*probe)
        if compiled_value != value:
            report.ok = False
            report.signature = ("compile_divergence",)
            report.detail = (
                f"compiled={compiled_value!r} interpreted={value!r} on "
                f"probe {probe!r}"
            )
            report.counterexample = probe
            return
        if model_says != ref_says:
            report.ok = False
            report.signature = ("ref_divergence", "probe")
            report.detail = (
                f"model={model_says} reference={ref_says} on probe "
                f"{probe!r}"
            )
            report.counterexample = probe
            return
        if model_says and solver_unsat:
            report.ok = False
            report.signature = ("unsat_refuted",)
            report.detail = (
                f"solvers proved unsat but {probe!r} satisfies the "
                f"model concretely (verdicts: {report.verdicts})"
            )
            report.counterexample = probe
            return
