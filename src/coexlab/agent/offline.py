"""Offline strategy pipeline.

Order of operations: demonstrations are rendered into the generation
prompt (through the order-reversal ranker), the response is materialized
into a validated strategy with bounded re-queries, the strategy is
evaluated headlessly against the target scenario, and reflection rounds
refine it until the objective clears the analytic target or the round
budget runs out. Every accepted strategy passes through the conflict
screen of the strategy memory.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from ..backends import (
    Backend,
    ITEMS_TOKEN,
    RankerQuery,
    JudgeFn,
    check_strategy_text,
    fenced_json,
    judge_select,
    ranked_complete,
    user_request,
)
from ..errors import (
    MaterializationExhaustedError,
    MetricDomainError,
    UnsupportedPopulationError,
)
from ..mac import ScenarioSpec, TrajectoryLog, DEFAULT_FRAME_LEN
from ..metrics import windowed_throughput
from ..oracle import aware_trajectory, fair_objective
from ..strategy import (
    DOMAIN_MAC,
    DOMAIN_TCP,
    ExploreSpec,
    Strategy,
    strategy_doc,
)
from ..tcp import DEFAULT_CWND_MAX, TcpScenarioSpec, mean_social_reward
from ..templates import (
    TEMPLATE_REFLECTION,
    TEMPLATE_STRATEGY_GEN,
    render_template,
)
from .config import AgentConfig
from .demos import DemoBundle, _tcp_summary
from .memory import EpisodeRecord, EpisodicMemory, StrategySet, psa_update
from .observer import NOTABLE_OVERUSED, observer_analyze
from .online import MacPeriodEngine, TcpPeriodEngine
from .trace import DecisionTrace

RequeryFn = Callable[[List[Dict[str, object]]], str]


def _diagnostic_docs(diags) -> List[Dict[str, object]]:
    return [{"path": d.path, "message": d.message} for d in diags]


def asi_materialize(response_text: str, requery: RequeryFn,
                    max_retries: int, *,
                    frame_len: Optional[int] = None,
                    cwnd_max: Optional[int] = None,
                    domain: Optional[str] = None) -> Tuple[Strategy, int]:
    """Turn a completion into a validated strategy of ``domain``.

    ``max_retries`` bounds the total number of attempts. Each failed
    attempt collects parse/validation diagnostics and re-queries with
    them attached; exhaustion raises with every attempt's diagnostics.
    """
    if max_retries < 1:
        raise ValueError("need at least one materialization attempt")
    attempts: List[Dict[str, object]] = []
    text = response_text
    for attempt in range(max_retries):
        strategy, diags = check_strategy_text(text, frame_len, cwnd_max,
                                              domain)
        if strategy is not None:
            return strategy, attempt
        attempts.append({
            "attempt": attempt,
            "response": text,
            "diagnostics": _diagnostic_docs(diags),
        })
        if attempt + 1 < max_retries:
            text = requery(_diagnostic_docs(diags))
    raise MaterializationExhaustedError(attempts)


def _requery_fn(backend: Backend, prompt: str, tag: str) -> RequeryFn:
    def requery(diagnostics: List[Dict[str, object]]) -> str:
        note = json.dumps({"previous_attempt_diagnostics": diagnostics},
                          sort_keys=True)
        text = (f"{prompt}\n\nThe previous reply failed validation:\n"
                f"```json\n{note}\n```\nReply again with one corrected "
                f"strategy-v1 JSON document.")
        return backend.complete(user_request(text, tag=f"{tag}/retry"))
    return requery


@dataclass(frozen=True)
class GenerationResult:
    strategy: Strategy
    retries: int
    judge_used: bool


def _query_strategy(backend: Backend, template: str,
                    subs: Dict[str, object], items: Tuple[str, ...],
                    config: AgentConfig, *, ranker: bool, domain: str,
                    limit: Optional[Dict[str, int]],
                    estimate_j: Optional[Callable[[Strategy], float]],
                    request_tag: str) -> GenerationResult:
    """Query the backend with ``template`` over ``items`` (through the
    order-reversal ranker and its judge when ``ranker`` is set) and
    materialize a ``domain`` strategy fitting ``limit``, by default that
    of the family's default scenario."""
    spec_type, family = _DOMAINS[domain]
    mat_kwargs = {"domain": domain,
                  **(family.limit(spec_type) if limit is None else limit)}
    plain = render_template(template, {**subs, "ITEMS": "\n\n".join(items)})
    if ranker:
        prompt = render_template(template, {**subs, "ITEMS": ITEMS_TOKEN})
        judge: JudgeFn = lambda a, b: judge_select(
            a, b, backend=backend, estimate_j=estimate_j,
            request_tag=f"{request_tag}/judge", **mat_kwargs)
        ranked = ranked_complete(
            backend,
            RankerQuery(base=user_request(prompt, tag=request_tag),
                        reorderable_items=items),
            judge=judge)
        response, judge_used = ranked.text, ranked.judge_used
    else:
        response = backend.complete(user_request(plain, tag=request_tag))
        judge_used = False
    strategy, retries = asi_materialize(
        response, _requery_fn(backend, plain, request_tag),
        config.asi_retries, **mat_kwargs)
    return GenerationResult(strategy=strategy, retries=retries,
                            judge_used=judge_used)


def generate_initial_strategy(backend: Backend, demos: DemoBundle,
                              config: AgentConfig = AgentConfig(), *,
                              limit: Optional[Dict[str, int]] = None,
                              estimate_j: Optional[Callable[[Strategy],
                                                            float]] = None,
                              use_ranker: Optional[bool] = None) \
        -> GenerationResult:
    """Few-shot generation over the demonstration bundle. The prompt
    shows both limits, the one ``limit`` does not hold at its default."""
    if not demos.sets:
        raise ValueError("demonstration bundle is empty")
    family = _DOMAINS[demos.family][1]
    subs = {"DOMAIN": family.domain,
            "FRAME_LEN": (limit or {}).get("frame_len", DEFAULT_FRAME_LEN),
            "CWND_MAX": (limit or {}).get("cwnd_max", DEFAULT_CWND_MAX),
            "EPSILON": config.explore_epsilon, "SIGMA": family.sigma(config)}
    return _query_strategy(
        backend, TEMPLATE_STRATEGY_GEN, subs,
        tuple(s.prompt_block() for s in demos.sets), config,
        ranker=config.ranker_offline if use_ranker is None else use_ranker,
        domain=family.domain, limit=limit, estimate_j=estimate_j,
        request_tag="strategy-gen")


# -- evaluation ------------------------------------------------------------


def mac_j_estimate(log: TrajectoryLog, config: AgentConfig) -> float:
    """Mean fair objective over the last half of the run, computed on the
    windowed per-node throughput series."""
    series = windowed_throughput(log, config.window_frames)
    if not series.frames:
        raise MetricDomainError(
            f"evaluation log shorter than the {config.window_frames}-frame "
            f"throughput window")
    half = len(series.frames) // 2
    # one row per frame of the last half, nodes in ascending id order
    rows = np.zeros((len(series.frames) - half, len(series.values)))
    for k, nid in enumerate(sorted(series.values)):
        rows[:, k] = series.values[nid][half:]
    values = [fair_objective(row, config.alpha) for row in rows.tolist()]
    return sum(values) / len(values)


def mac_oracle_objective(spec: ScenarioSpec,
                         config: AgentConfig) -> Optional[float]:
    """Time-weighted analytic optimum over the evaluation horizon, or
    None when some population segment has no closed form."""
    horizon = min(spec.total_frames, config.eval_frames)
    try:
        _, segments = aware_trajectory(
            replace(spec, total_frames=horizon), alpha=config.alpha)
    except UnsupportedPopulationError:
        return None
    weighted = 0.0
    for seg in segments:
        weighted += seg.solution.objective * (seg.end_frame - seg.start_frame)
    return weighted / horizon


def mac_j_target(spec: ScenarioSpec, config: AgentConfig) -> float:
    oracle = mac_oracle_objective(spec, config)
    if oracle is None:
        return config.mac_j_target
    return config.j_opt_fraction * oracle


def _mac_episode(engine: MacPeriodEngine, log: TrajectoryLog,
                 config: AgentConfig) -> Dict[str, object]:
    """The observer's evidence over the episode's last window."""
    report = observer_analyze(
        log, window_frames=min(config.observer_window_frames, log.n_frames),
        exclude_ids=engine.team,
        overuse_threshold=config.overuse_threshold,
        rate_shift_delta=config.rate_shift_delta)
    return {
        "live_n": report.signals.live_n,
        "overused": [{"slot": e.slot, "utilization": e.utilization}
                     for e in report.notable
                     if e.kind == NOTABLE_OVERUSED],
        "unused": [e.slot for e in report.notable
                   if e.kind != NOTABLE_OVERUSED],
        "collision_rate": round(report.signals.collision_rate, 6),
        "theta_hi": config.overuse_threshold,
    }


class OfflineFamily(NamedTuple):
    """What the offline loop needs of one family; the loop itself, generate
    -> evaluate -> reflect, is the same for both."""

    domain: str
    engine: type                    # the period engine
    horizon: Callable[..., int]     # (spec, config) -> evaluation ticks
    # spec -> {"frame_len": L} or {"cwnd_max": W}, as ``PeriodEngine.limit``;
    # on the scenario type, the limit of its defaults
    limit: Callable[..., Dict[str, int]]
    sigma: Callable[..., float]     # config -> a generated strategy's noise
    j_estimate: Callable[..., float]    # (log, config) -> the episode's J
    # (engine, log, config) -> the episode's fields beside ``j``
    episode: Callable[..., Dict[str, object]]
    j_target: Callable[..., float]  # (spec, config) -> the J to clear


# scenario type -> its family's row
FAMILIES = {
    ScenarioSpec: OfflineFamily(
        DOMAIN_MAC, MacPeriodEngine,
        lambda spec, config: min(spec.total_frames, config.eval_frames),
        lambda spec: {"frame_len": spec.frame_len},
        lambda config: config.explore_sigma,
        mac_j_estimate, _mac_episode, mac_j_target),
    TcpScenarioSpec: OfflineFamily(
        DOMAIN_TCP, TcpPeriodEngine,
        lambda spec, config: min(spec.total_rounds, config.eval_rounds),
        lambda spec: {"cwnd_max": spec.cwnd_max},
        lambda config: config.tcp_explore_sigma,
        # the mean social reward of the episode's second half
        lambda log, config: mean_social_reward(log, log.n_rounds // 2),
        lambda engine, log, config: {"stats": _tcp_summary(
            log, flow_id=engine.team[0] if engine.team else 0,
            first_round=log.n_rounds // 2)},
        lambda spec, config: config.tcp_j_target),
}


# strategy domain (a demo bundle's family) -> (scenario type, its row)
_DOMAINS = {row.domain: (spec_type, row)
            for spec_type, row in FAMILIES.items()}


@dataclass
class EvaluationOutcome:
    j: float
    episode: Dict[str, object]


def evaluate_strategy(spec, strategy: Strategy,
                      config: AgentConfig = AgentConfig()) \
        -> EvaluationOutcome:
    """Headless evaluation: the strategy drives its nodes or flows over
    the family's evaluation horizon, with exploration off and no backend
    in the loop."""
    family = FAMILIES[type(spec)]
    engine = family.engine(spec, strategy, config,
                           backend=None, explore=ExploreSpec(0.0, 0.0))
    log = engine.run(family.horizon(spec, config))
    j = family.j_estimate(log, config)
    return EvaluationOutcome(j=j, episode={
        "j": round(j, 6), **family.episode(engine, log, config)})


# -- reflection ------------------------------------------------------------


def reflect_and_refine(backend: Backend, strategy: Strategy,
                       episode: Dict[str, object],
                       config: AgentConfig = AgentConfig(), *,
                       j: float, j_target: float,
                       limit: Optional[Dict[str, int]] = None,
                       estimate_j: Optional[Callable[[Strategy],
                                                     float]] = None,
                       request_tag: str = "reflection") -> GenerationResult:
    """One self-reflection round over the evaluated episode. Refinement
    of a strategy that already meets its target is a caller bug."""
    if j >= j_target:
        raise ValueError("strategy already meets the objective target; "
                         "nothing to refine")
    episode_doc = dict(episode)
    episode_doc.setdefault("j", round(j, 6))
    episode_doc["j_target"] = round(j_target, 6)
    items = (
        fenced_json({"strategy": strategy_doc(strategy)}),
        fenced_json({"episode": episode_doc}),
    )
    return _query_strategy(
        backend, TEMPLATE_REFLECTION, {}, items, config,
        ranker=config.ranker_offline,
        domain=strategy.domain, limit=limit, estimate_j=estimate_j,
        request_tag=request_tag)


# -- full offline loop -----------------------------------------------------


@dataclass
class OfflineResult:
    strategy: Strategy            # best strategy seen
    j: float                      # its measured objective
    j_target: float
    target_met: bool
    rounds: int                   # reflection rounds actually run
    retries: int                  # materialization retries, all stages
    strategies: StrategySet = field(default_factory=StrategySet)
    episodes: EpisodicMemory = field(default_factory=EpisodicMemory)


def run_offline(backend: Backend, spec, demos: DemoBundle,
                config: AgentConfig = AgentConfig(), *,
                trace: Optional[DecisionTrace] = None) -> OfflineResult:
    """Generation, evaluation and up to ``n_max`` reflection rounds.

    ``spec``'s type selects its family's row of ``FAMILIES``. The loop
    stops early when the target is met or a reflection reproduces an
    already-evaluated strategy.
    """
    family = FAMILIES[type(spec)]
    limit, j_target = family.limit(spec), family.j_target(spec, config)
    # the judges compare two candidates by their measured objective
    estimate_j = lambda s: round(evaluate_strategy(spec, s, config).j, 6)
    strategies, episodes = StrategySet(), EpisodicMemory()

    # a strategy's outcome, kept in the episodic memory and the trace
    def evaluated(strategy: Strategy, label: str, **data) -> EvaluationOutcome:
        outcome = evaluate_strategy(spec, strategy, config)
        episodes.add(EpisodeRecord(strategy_id=strategy.id,
                                   j_estimate=round(outcome.j, 6),
                                   summary=outcome.episode))
        if trace is not None:
            trace.child("assistant", f"{label} {strategy.id}",
                        outputs=strategy_doc(strategy),
                        j=round(outcome.j, 6), **data)
        return outcome

    gen = generate_initial_strategy(backend, demos, config, limit=limit,
                                    estimate_j=estimate_j)
    current, retries = gen.strategy, gen.retries
    psa_update(strategies, current, backend)
    outcome = evaluated(current, "offline generation",
                        j_target=round(j_target, 6))
    seen = {current.id}
    best, best_j = current, outcome.j
    rounds = 0
    while rounds < config.n_max and outcome.j < j_target:
        ref = reflect_and_refine(backend, current, outcome.episode, config,
                                 j=outcome.j, j_target=j_target,
                                 limit=limit, estimate_j=estimate_j,
                                 request_tag=f"reflection/r{rounds}")
        rounds += 1
        retries += ref.retries
        current = ref.strategy
        psa_update(strategies, current, backend)
        if current.id in seen:
            break
        seen.add(current.id)
        outcome = evaluated(current, f"reflection round {rounds}")
        if outcome.j > best_j:
            best, best_j = current, outcome.j

    return OfflineResult(strategy=best, j=best_j, j_target=j_target,
                         target_met=best_j >= j_target, rounds=rounds,
                         retries=retries, strategies=strategies,
                         episodes=episodes)
