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
from typing import Callable, Dict, List, Optional, Tuple

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
from ..tcp import (DEFAULT_CWND_MAX, TcpRoundLog, TcpScenarioSpec,
                   mean_social_reward)
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
                    frame_len: int, cwnd_max: int,
                    estimate_j: Optional[Callable[[Strategy], float]],
                    request_tag: str) -> GenerationResult:
    """Query the backend with ``template`` over ``items`` (through the
    order-reversal ranker and its judge when ``ranker`` is set) and
    materialize a ``domain`` strategy fitting ``frame_len`` or ``cwnd_max``."""
    limit = {"frame_len": frame_len} if domain == DOMAIN_MAC \
        else {"cwnd_max": cwnd_max}
    mat_kwargs = {"domain": domain, **limit}
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
                              frame_len: int = DEFAULT_FRAME_LEN,
                              cwnd_max: int = DEFAULT_CWND_MAX,
                              estimate_j: Optional[Callable[[Strategy],
                                                            float]] = None,
                              use_ranker: Optional[bool] = None) \
        -> GenerationResult:
    """Few-shot generation over the demonstration bundle."""
    if not demos.sets:
        raise ValueError("demonstration bundle is empty")
    domain = DOMAIN_MAC if demos.family == "mac" else DOMAIN_TCP
    sigma = config.explore_sigma if domain == DOMAIN_MAC \
        else config.tcp_explore_sigma
    subs = {"DOMAIN": domain, "FRAME_LEN": frame_len, "CWND_MAX": cwnd_max,
            "EPSILON": config.explore_epsilon, "SIGMA": sigma}
    return _query_strategy(
        backend, TEMPLATE_STRATEGY_GEN, subs,
        tuple(s.prompt_block() for s in demos.sets), config,
        ranker=config.ranker_offline if use_ranker is None else use_ranker,
        domain=domain, frame_len=frame_len, cwnd_max=cwnd_max,
        estimate_j=estimate_j, request_tag="strategy-gen")


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


def tcp_j_estimate(log: TcpRoundLog) -> float:
    return mean_social_reward(log, first_round=log.n_rounds // 2)


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


@dataclass
class EvaluationOutcome:
    j: float
    episode: Dict[str, object]


def evaluate_mac_strategy(spec: ScenarioSpec, strategy: Strategy,
                          config: AgentConfig = AgentConfig()) \
        -> EvaluationOutcome:
    """Headless evaluation: the strategy drives its nodes with exploration
    off and no backend in the loop."""
    horizon = min(spec.total_frames, config.eval_frames)
    engine = MacPeriodEngine(spec, strategy, config,
                             backend=None, explore=ExploreSpec(0.0, 0.0))
    log = engine.run(horizon)
    j = mac_j_estimate(log, config)
    window = min(config.observer_window_frames, horizon)
    report = observer_analyze(
        log, window_frames=window, exclude_ids=engine.team,
        overuse_threshold=config.overuse_threshold,
        rate_shift_delta=config.rate_shift_delta)
    episode = {
        "j": round(j, 6),
        "live_n": report.signals.live_n,
        "overused": [{"slot": e.slot, "utilization": e.utilization}
                     for e in report.notable
                     if e.kind == NOTABLE_OVERUSED],
        "unused": [e.slot for e in report.notable
                   if e.kind != NOTABLE_OVERUSED],
        "collision_rate": round(report.signals.collision_rate, 6),
        "theta_hi": config.overuse_threshold,
    }
    return EvaluationOutcome(j=j, episode=episode)


def evaluate_tcp_strategy(spec: TcpScenarioSpec, strategy: Strategy,
                          config: AgentConfig = AgentConfig()) \
        -> EvaluationOutcome:
    horizon = min(spec.total_rounds, config.eval_rounds)
    engine = TcpPeriodEngine(spec, strategy, config,
                             backend=None, explore=ExploreSpec(0.0, 0.0))
    log = engine.run(horizon)
    j = tcp_j_estimate(log)
    stats = _tcp_summary(log, flow_id=engine.team[0] if engine.team else 0,
                         first_round=horizon // 2)
    episode = {
        "j": round(j, 6),
        "stats": stats,
    }
    return EvaluationOutcome(j=j, episode=episode)


# -- reflection ------------------------------------------------------------


def reflect_and_refine(backend: Backend, strategy: Strategy,
                       episode: Dict[str, object],
                       config: AgentConfig = AgentConfig(), *,
                       j: float, j_target: float,
                       frame_len: int = DEFAULT_FRAME_LEN,
                       cwnd_max: int = DEFAULT_CWND_MAX,
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
        domain=strategy.domain, frame_len=frame_len, cwnd_max=cwnd_max,
        estimate_j=estimate_j, request_tag=request_tag)


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

    ``spec`` selects the domain: a slot scenario runs the mac pipeline, a
    flow scenario the tcp pipeline. The loop stops early when the target
    is met or a reflection reproduces an already-evaluated strategy.
    """
    is_mac = isinstance(spec, ScenarioSpec)
    frame_len = spec.frame_len if is_mac else DEFAULT_FRAME_LEN
    cwnd_max = DEFAULT_CWND_MAX if is_mac else spec.cwnd_max

    if is_mac:
        evaluate = lambda s: evaluate_mac_strategy(spec, s, config)
        j_target = mac_j_target(spec, config)
    else:
        evaluate = lambda s: evaluate_tcp_strategy(spec, s, config)
        j_target = config.tcp_j_target
    # the judges compare two candidates by their measured objective
    estimate_j = lambda s: round(evaluate(s).j, 6)

    gen = generate_initial_strategy(backend, demos, config,
                                    frame_len=frame_len, cwnd_max=cwnd_max,
                                    estimate_j=estimate_j)
    strategy = gen.strategy
    retries = gen.retries

    strategies = StrategySet()
    psa_update(strategies, strategy, backend)
    episodes = EpisodicMemory()

    outcome = evaluate(strategy)
    episodes.add(EpisodeRecord(strategy_id=strategy.id,
                               j_estimate=round(outcome.j, 6),
                               summary=outcome.episode))
    evaluated = {strategy.id}
    best, best_j = strategy, outcome.j
    if trace is not None:
        trace.child("assistant", f"offline generation {strategy.id}",
                    outputs=strategy_doc(strategy),
                    j=round(outcome.j, 6), j_target=round(j_target, 6))

    rounds = 0
    current, current_j, current_episode = strategy, outcome.j, outcome.episode
    while rounds < config.n_max and current_j < j_target:
        ref = reflect_and_refine(backend, current, current_episode, config,
                                 j=current_j, j_target=j_target,
                                 frame_len=frame_len, cwnd_max=cwnd_max,
                                 estimate_j=estimate_j,
                                 request_tag=f"reflection/r{rounds}")
        rounds += 1
        retries += ref.retries
        refined = ref.strategy
        psa_update(strategies, refined, backend)
        if refined.id in evaluated:
            break
        outcome = evaluate(refined)
        evaluated.add(refined.id)
        episodes.add(EpisodeRecord(strategy_id=refined.id,
                                   j_estimate=round(outcome.j, 6),
                                   summary=outcome.episode))
        if trace is not None:
            trace.child("assistant",
                        f"reflection round {rounds} {refined.id}",
                        outputs=strategy_doc(refined), j=round(outcome.j, 6))
        if outcome.j > best_j:
            best, best_j = refined, outcome.j
        current, current_j = refined, outcome.j
        current_episode = outcome.episode

    return OfflineResult(strategy=best, j=best_j, j_target=j_target,
                         target_met=best_j >= j_target, rounds=rounds,
                         retries=retries, strategies=strategies,
                         episodes=episodes)
