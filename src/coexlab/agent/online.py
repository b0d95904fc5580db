"""Period-driven online control loop.

An engine holds one strategy and drives its team of nodes through an
environment. Time is chopped into query periods; at each period start the
observer summarizes the recent window, every team node is asked (through
the completion backend) which action to hold, and the chosen actions run
unchanged until the next boundary.

Two interpretations of each decision are kept apart: the *proposal* is
the rule-adjusted action with exploration forced off, and feeds the
convergence detector; the *actuated* action additionally carries the
strategy's exploration noise from a dedicated perturbation stream, so
toggling exploration never shifts any other random draw.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..backends import (
    Backend,
    ITEMS_TOKEN,
    RankerQuery,
    extract_json_text,
    fenced_json,
    ranked_complete,
    user_request,
)
from ..errors import (
    BackendUnavailableError,
    InvalidScenarioError,
    MalformedResponseError,
)
from ..mac import (
    BernoulliSlotPolicy,
    DEFAULT_FRAME_LEN,
    KIND_AGENT,
    KIND_AWARE,
    MacEnvironment,
    ScenarioSpec,
    TrajectoryLog,
    purpose_rng,
    run_frames,
)
from ..oracle import fair_objective
from ..strategy import (
    ActionContext,
    DOMAIN_MAC,
    DOMAIN_TCP,
    ExploreSpec,
    Strategy,
    interpret_action,
    strategy_doc,
)
from ..tcp import (
    CONTROLLER_AGENT,
    TcpEnvironment,
    TcpRoundRecord,
    TcpScenarioSpec,
    mean_social_reward,
    run_rounds,
)
from ..templates import (
    TEMPLATE_NODE_DECISION,
    TEMPLATE_OBSERVER_SUMMARY,
    render_template,
    template_header,
)
from .config import AgentConfig
from .memory import StrategySet
from .observer import (
    NOTABLE_OVERUSED,
    ObserverReport,
    observer_analyze,
    tcp_observer_analyze,
)
from .trace import ACTOR_NODE, ACTOR_OBSERVER, DecisionTrace, overuse_label

# purpose stream carrying exploration noise; actuation draws live on
# stream 1 and demo sampling on stream 2
PERTURBATION_STREAM = 3

_NO_REPORT_TEXT = "No observer report is available yet."


def _strip_header(text: str) -> str:
    name = template_header(text)
    if not name:
        return text
    return text.split("\n", 1)[1] if "\n" in text else ""


@dataclass
class PeriodRecord:
    """Bookkeeping for one completed query period."""

    index: int
    start: int                      # first frame (mac) or round (tcp)
    length: int
    had_report: bool
    converged: bool
    env_changed: bool
    escaped: bool
    window_objective: Optional[float]
    decisions: Dict[int, object] = field(default_factory=dict)
    proposals: Dict[int, object] = field(default_factory=dict)
    actuated: Dict[int, object] = field(default_factory=dict)
    fallbacks: Tuple[int, ...] = ()


class _PeriodEngineBase:
    """State and helpers shared by the mac and tcp engines."""

    domain = ""

    def __init__(self, strategy: Strategy, config: AgentConfig, *,
                 backend: Optional[Backend], trace: Optional[DecisionTrace],
                 explore: Optional[ExploreSpec], use_ranker: Optional[bool],
                 memory: Optional[StrategySet]):
        if strategy.domain != self.domain:
            raise InvalidScenarioError(
                "strategy", f"domain {strategy.domain!r} does not drive a "
                            f"{self.domain} environment")
        self.config = config
        self.backend = backend
        self.trace = trace
        self.memory = memory
        self.use_ranker = config.ranker_online if use_ranker is None \
            else use_ranker
        self.strategy = strategy if explore is None \
            else replace(strategy, explore=explore)
        self._calm = replace(self.strategy, explore=ExploreSpec(0.0, 0.0))
        self.periods: List[PeriodRecord] = []
        self.proposal_history: List[Tuple[float, ...]] = []
        self._prev_decision: Dict[int, object] = {}
        self._best_objective: Optional[float] = None

    def _escape_threshold(self) -> float:
        # objectives may be negative (log utilities), so the allowed slack
        # is applied on the side that always lowers the threshold
        best = self._best_objective
        ratio = self.config.escape_ratio
        return best * ratio if best >= 0 else best / ratio

    # -- prompt assembly ---------------------------------------------------

    def _memory_items(self) -> Tuple[str, ...]:
        active = dict(strategy_doc(self.strategy))
        active["id"] = self.strategy.id
        items = [fenced_json(active)]
        if self.memory is not None:
            for sid, text in self.memory.snapshot():
                if sid == self.strategy.id:
                    continue
                doc = json.loads(text)
                doc["id"] = sid
                items.append(fenced_json(doc))
        return tuple(items)

    def _query_backend(self, payload: Dict[str, object], report_text: str,
                       tag: str) -> Tuple[str, str]:
        items = self._memory_items()
        subs = {
            "REPORT": report_text,
            "ITEMS": ITEMS_TOKEN if self.use_ranker else "\n\n".join(items),
            "PAYLOAD": json.dumps(payload, sort_keys=True),
            "FRAME_LEN": self._frame_len(),
        }
        prompt = render_template(TEMPLATE_NODE_DECISION, subs)
        if not self.use_ranker:
            return self.backend.complete(user_request(prompt, tag)), ""
        query = RankerQuery(base=user_request(prompt, tag),
                            reorderable_items=items)
        ranked = ranked_complete(self.backend, query, judge=None)
        note = "orders agree" if ranked.first == ranked.second \
            else "orders differ; first kept"
        return ranked.text, note

    def _decide(self, nid: int, payload: Dict[str, object],
                report_text: str, tag: str) -> Tuple[object, bool, str]:
        """Ask the backend for the action to hold; an unavailable or
        unusable backend reuses the previous decision verbatim."""
        if self.backend is None:
            return None, False, ""
        try:
            text, note = self._query_backend(payload, report_text, tag)
            return self._parse_action(text), False, note
        except (BackendUnavailableError, MalformedResponseError):
            if self._prev_decision.get(nid) is None:
                raise
            return self._prev_decision[nid], True, ""

    # -- hooks filled in by the domain engines -----------------------------

    def _frame_len(self) -> int:
        raise NotImplementedError

    def _parse_action(self, text: str):
        raise NotImplementedError


def _parse_json_action(text: str) -> object:
    try:
        doc = json.loads(extract_json_text(text))
    except ValueError as exc:
        raise MalformedResponseError(
            f"decision response is not JSON: {exc}") from exc
    if not isinstance(doc, dict) or "action" not in doc:
        raise MalformedResponseError("decision response lacks an action")
    return doc["action"]


def mac_window_objective(log: TrajectoryLog, window_frames: int,
                         alpha: float = 1.0) -> float:
    """Social objective over the trailing window: alpha-fair value of the
    per-node success rates among nodes live inside the window."""
    end = log.n_frames
    rates = log.success_rates(max(0, end - window_frames), end)
    return fair_objective(rates.values(), alpha)


def tcp_window_objective(records: Sequence[TcpRoundRecord],
                         window_rounds: int) -> float:
    tail = records[-window_rounds:]
    return mean_social_reward(list(tail))


class MacPeriodEngine(_PeriodEngineBase):
    """Drives the agent nodes of a slotted-medium scenario period by
    period. Aware nodes are out of scope here; they follow the reference
    trajectory and are actuated by the runner instead."""

    domain = DOMAIN_MAC

    def __init__(self, spec: ScenarioSpec, strategy: Strategy,
                 config: AgentConfig = AgentConfig(), *,
                 backend: Optional[Backend] = None,
                 trace: Optional[DecisionTrace] = None,
                 explore: Optional[ExploreSpec] = None,
                 use_ranker: Optional[bool] = None,
                 memory: Optional[StrategySet] = None):
        super().__init__(strategy, config, backend=backend, trace=trace,
                         explore=explore, use_ranker=use_ranker,
                         memory=memory)
        config.validate(spec.frame_len)
        if any(cfg.kind == KIND_AWARE for cfg in spec.nodes):
            raise InvalidScenarioError(
                "nodes", "aware nodes follow the reference trajectory and "
                         "are not driven by the online engine")
        self.spec = spec
        self.env = MacEnvironment(spec)
        self.period_frames = config.query_period_slots // spec.frame_len
        self.team = tuple(nid for nid, cfg in enumerate(spec.nodes)
                          if cfg.kind == KIND_AGENT)
        self.policy = BernoulliSlotPolicy(spec.seed, {})
        self._noise_rngs = {
            nid: purpose_rng(spec.seed, PERTURBATION_STREAM, nid)
            for nid in self.team
        }
        self._prev_overused: Optional[List[int]] = None

    def _frame_len(self) -> int:
        return self.spec.frame_len

    def _parse_action(self, text: str) -> List[float]:
        action = _parse_json_action(text)
        if not isinstance(action, (list, tuple)) or \
                len(action) != self.spec.frame_len or \
                not all(isinstance(v, (int, float)) for v in action):
            raise MalformedResponseError(
                f"mac action must be a {self.spec.frame_len}-entry vector")
        return [float(v) for v in action]

    # -- period pipeline ---------------------------------------------------

    def _live_team(self, f0: int, f1: int) -> List[int]:
        out = []
        for nid in self.team:
            cfg = self.spec.nodes[nid]
            if cfg.join_frame < f1 and \
                    (cfg.leave_frame is None or cfg.leave_frame > f0):
                out.append(nid)
        return out

    def _observe(self, f0: int) -> Optional[ObserverReport]:
        cfg = self.config
        if f0 < cfg.observer_window_frames:
            return None
        return observer_analyze(
            self.env.log,
            window_frames=cfg.observer_window_frames,
            exclude_ids=self.team,
            overuse_threshold=cfg.overuse_threshold,
            rate_shift_delta=cfg.rate_shift_delta,
            actions=self.proposal_history,
            convergence_epsilon=cfg.convergence_epsilon,
            convergence_periods=cfg.convergence_periods,
        )

    def _report_text(self, report: Optional[ObserverReport]) -> str:
        if report is None:
            return _NO_REPORT_TEXT
        overused = [e for e in report.notable if e.kind == NOTABLE_OVERUSED]
        notable = overuse_label(overused) if overused else "none"
        return _strip_header(render_template(TEMPLATE_OBSERVER_SUMMARY, {
            "WINDOW": f"{report.window[0]}-{report.window[1]}",
            "CONVERGED": report.converged,
            "ENV_CHANGED": report.env_changed,
            "NOTABLE": notable,
        })).strip()

    def _payload(self, nid: int, report: Optional[ObserverReport]) \
            -> Dict[str, object]:
        prev = self._prev_decision.get(nid)
        payload: Dict[str, object] = {
            "domain": DOMAIN_MAC,
            "node": nid,
            "frame_len": self.spec.frame_len,
            "base": [round(float(p), 6) for p in self.strategy.base_action],
            "prev_action": None if prev is None
            else [round(float(p), 6) for p in prev],
            "have_report": report is not None,
        }
        if report is not None:
            overused = sorted(e.slot for e in report.notable
                              if e.kind == NOTABLE_OVERUSED)
            unused = sorted(e.slot for e in report.notable
                            if e.kind != NOTABLE_OVERUSED)
            payload.update({
                "live_n": report.signals.live_n,
                "env_changed": report.env_changed,
                "overused": overused,
                "unused": unused,
                "prev_overused": self._prev_overused,
                "collision_rate": round(report.signals.collision_rate, 6),
            })
        return payload

    def _context(self, report: Optional[ObserverReport], rng,
                 base_override, escaped: bool) -> ActionContext:
        return ActionContext(
            rng=rng,
            slot_utilization=None if report is None
            else report.signals.slot_utilization,
            env_changed=False if report is None else report.env_changed,
            collision_rate=0.0 if report is None
            else report.signals.collision_rate,
            frame_len=self.spec.frame_len,
            base_override=base_override,
            escape_sigma=self.config.escape_sigma if escaped else None,
        )

    def _check_escape(self, report: Optional[ObserverReport]) \
            -> Tuple[bool, Optional[float]]:
        """Exploration is re-enabled when the team has converged onto an
        action whose windowed objective has fallen well below the best
        window seen so far. Only meaningful with a backend in the loop."""
        if report is None:
            return False, None
        objective = mac_window_objective(
            self.env.log, self.config.observer_window_frames,
            self.config.alpha)
        escaped = (self.backend is not None and report.converged
                   and self._best_objective is not None
                   and objective < self._escape_threshold())
        if self._best_objective is None \
                or objective > self._best_objective:
            self._best_objective = objective
        return escaped, objective

    def run_period(self, n_frames: Optional[int] = None) -> PeriodRecord:
        frames = self.period_frames if n_frames is None else n_frames
        if frames < 1:
            raise ValueError("a period needs at least one frame")
        f0 = self.env.frame_index
        index = len(self.periods)
        report = self._observe(f0)
        report_text = self._report_text(report)
        escaped, objective = self._check_escape(report)

        period_node = None
        if self.trace is not None:
            period_node = self.trace.root.child(
                self.trace.root.actor,
                f"period {index} frames {f0}-{f0 + frames - 1}")
            if report is None:
                obs_label = "no report yet"
            else:
                overused = [e for e in report.notable
                            if e.kind == NOTABLE_OVERUSED]
                obs_label = overuse_label(overused) if overused \
                    else f"window {report.window[0]}-{report.window[1]}"
            obs_node = period_node.child(
                ACTOR_OBSERVER, obs_label,
                outputs=report_text,
                converged=bool(report and report.converged),
                env_changed=bool(report and report.env_changed),
                escape=escaped,
            )
        record = PeriodRecord(
            index=index, start=f0, length=frames,
            had_report=report is not None,
            converged=bool(report and report.converged),
            env_changed=bool(report and report.env_changed),
            escaped=escaped, window_objective=objective,
        )

        team = self._live_team(f0, f0 + frames)
        fallbacks: List[int] = []
        flat_proposal: List[float] = []
        overused_slots = [] if report is None else sorted(
            e.slot for e in report.notable if e.kind == NOTABLE_OVERUSED)
        for nid in team:
            payload = self._payload(nid, report)
            decision, fell_back, note = self._decide(
                nid, payload, report_text, tag=f"node/{nid}/p{index}")
            held = decision is not None and \
                decision == self._prev_decision.get(nid)
            proposal = interpret_action(self._calm, self._context(
                report, np.random.default_rng(0), decision, False)).action
            actuated = interpret_action(self.strategy, self._context(
                report, self._noise_rngs[nid], decision, escaped)).action
            self.policy.set_vector(nid, actuated)
            if decision is not None:
                self._prev_decision[nid] = decision
            if fell_back:
                fallbacks.append(nid)
            record.decisions[nid] = decision
            record.proposals[nid] = proposal
            record.actuated[nid] = actuated
            flat_proposal.extend(float(p) for p in proposal)

            if period_node is not None:
                avoided = overused_slots and \
                    all(proposal[k] == 0.0 for k in overused_slots)
                if fell_back:
                    label = f"node {nid} fallback"
                elif avoided:
                    slots = ",".join(str(k) for k in overused_slots)
                    label = f"node {nid} avoid_slots {slots}"
                elif held:
                    label = f"node {nid} hold action"
                elif decision is None:
                    label = f"node {nid} strategy action"
                else:
                    label = f"node {nid} base action"
                data = {"action": [round(float(p), 6) for p in proposal]}
                if note:
                    data["ranker"] = note
                obs_node.child(ACTOR_NODE, label, inputs=payload,
                               outputs={"action": list(actuated)}, **data)

        record.fallbacks = tuple(fallbacks)
        self.proposal_history.append(tuple(flat_proposal))
        if report is not None:
            self._prev_overused = overused_slots
        run_frames(self.env, self.policy, frames)
        self.periods.append(record)
        return record

    def run(self, n_frames: int) -> TrajectoryLog:
        """Run whole periods until ``n_frames`` frames have elapsed; the
        final period is truncated when the horizon is not a multiple."""
        remaining = n_frames
        while remaining > 0:
            step = min(self.period_frames, remaining)
            self.run_period(step)
            remaining -= step
        return self.env.log


class TcpPeriodEngine(_PeriodEngineBase):
    """Round-driven counterpart of the mac engine for congestion-window
    control: one held window per agent flow per query period."""

    domain = DOMAIN_TCP

    def __init__(self, spec: TcpScenarioSpec, strategy: Strategy,
                 config: AgentConfig = AgentConfig(), *,
                 backend: Optional[Backend] = None,
                 trace: Optional[DecisionTrace] = None,
                 explore: Optional[ExploreSpec] = None,
                 use_ranker: Optional[bool] = None,
                 memory: Optional[StrategySet] = None):
        super().__init__(strategy, config, backend=backend, trace=trace,
                         explore=explore, use_ranker=use_ranker,
                         memory=memory)
        self.spec = spec
        self.env = TcpEnvironment(spec)
        self.period_rounds = config.tcp_query_period_rounds
        self.team = tuple(fid for fid, cfg in enumerate(spec.flows)
                          if cfg.controller == CONTROLLER_AGENT)
        self._noise_rngs = {
            fid: purpose_rng(spec.seed, PERTURBATION_STREAM, fid)
            for fid in self.team
        }
        self._held: Dict[int, int] = {}

    def _frame_len(self) -> int:
        return DEFAULT_FRAME_LEN

    def _parse_action(self, text: str) -> int:
        action = _parse_json_action(text)
        if isinstance(action, bool) or not isinstance(action, (int, float)):
            raise MalformedResponseError(
                "tcp action must be a congestion window")
        return int(action)

    def _live_team(self, r0: int, r1: int) -> List[int]:
        out = []
        for fid in self.team:
            cfg = self.spec.flows[fid]
            if cfg.join_round < r1 and \
                    (cfg.leave_round is None or cfg.leave_round > r0):
                out.append(fid)
        return out

    def _observe(self, fid: int, r0: int) -> Optional[ObserverReport]:
        cfg = self.config
        # a flow joining inside this period has no rounds logged yet
        if r0 < cfg.tcp_observer_window_rounds \
                or self.spec.flows[fid].join_round >= r0:
            return None
        return tcp_observer_analyze(
            self.env.records,
            window_rounds=cfg.tcp_observer_window_rounds,
            flow_id=fid,
            rate_shift_delta=cfg.rate_shift_delta,
            actions=self.proposal_history,
            convergence_epsilon=cfg.convergence_epsilon,
            convergence_periods=cfg.convergence_periods,
        )

    def _report_text(self, report: Optional[ObserverReport]) -> str:
        if report is None:
            return _NO_REPORT_TEXT
        return _strip_header(render_template(TEMPLATE_OBSERVER_SUMMARY, {
            "WINDOW": f"{report.window[0]}-{report.window[1]}",
            "CONVERGED": report.converged,
            "ENV_CHANGED": report.env_changed,
            "NOTABLE": "none",
        })).strip()

    def _payload(self, fid: int, report: Optional[ObserverReport]) \
            -> Dict[str, object]:
        payload: Dict[str, object] = {
            "domain": DOMAIN_TCP,
            "flow": fid,
            "cwnd_max": self.spec.cwnd_max,
            "base": int(self.strategy.base_action),
            "prev_action": self._prev_decision.get(fid),
            "have_report": report is not None,
        }
        if report is not None:
            s = report.signals
            payload.update({
                "live_n": s.live_n,
                "env_changed": report.env_changed,
                "loss_rate": round(s.loss_rate, 6),
                "min_rtt": round(s.min_rtt, 6),
                "mean_rtt": round(s.mean_rtt, 6),
                "rtt_inflation": round(s.rtt_inflation, 6),
            })
        return payload

    def _context(self, report: Optional[ObserverReport], rng,
                 base_override, escaped: bool) -> ActionContext:
        signals = None if report is None else report.signals
        return ActionContext(
            rng=rng,
            env_changed=False if report is None else report.env_changed,
            collision_rate=0.0 if signals is None else signals.loss_rate,
            rtt_inflation=0.0 if signals is None else signals.rtt_inflation,
            cwnd_max=self.spec.cwnd_max,
            base_override=base_override,
            escape_sigma=self.config.escape_sigma if escaped else None,
        )

    def _check_escape(self, any_report: bool, converged: bool) \
            -> Tuple[bool, Optional[float]]:
        if not any_report:
            return False, None
        objective = tcp_window_objective(
            self.env.records, self.config.tcp_observer_window_rounds)
        escaped = (self.backend is not None and converged
                   and self._best_objective is not None
                   and objective < self._escape_threshold())
        if self._best_objective is None \
                or objective > self._best_objective:
            self._best_objective = objective
        return escaped, objective

    def run_period(self, n_rounds: Optional[int] = None) -> PeriodRecord:
        rounds = self.period_rounds if n_rounds is None else n_rounds
        if rounds < 1:
            raise ValueError("a period needs at least one round")
        r0 = self.env.round_index
        index = len(self.periods)
        team = self._live_team(r0, r0 + rounds)
        reports = {fid: self._observe(fid, r0) for fid in team}
        have_report = any(r is not None for r in reports.values())
        converged = any(r is not None and r.converged
                        for r in reports.values())
        env_changed = any(r is not None and r.env_changed
                          for r in reports.values())
        escaped, objective = self._check_escape(have_report, converged)

        period_node = None
        if self.trace is not None:
            period_node = self.trace.root.child(
                self.trace.root.actor,
                f"period {index} rounds {r0}-{r0 + rounds - 1}")
            first = next((r for r in reports.values() if r is not None),
                         None)
            obs_label = "no report yet" if first is None \
                else f"window {first.window[0]}-{first.window[1]}"
            obs_node = period_node.child(
                ACTOR_OBSERVER, obs_label,
                converged=converged, env_changed=env_changed,
                escape=escaped,
            )
        record = PeriodRecord(
            index=index, start=r0, length=rounds,
            had_report=have_report, converged=converged,
            env_changed=env_changed, escaped=escaped,
            window_objective=objective,
        )

        fallbacks: List[int] = []
        flat_proposal: List[float] = []
        for fid in team:
            report = reports[fid]
            payload = self._payload(fid, report)
            decision, fell_back, note = self._decide(
                fid, payload, self._report_text(report),
                tag=f"flow/{fid}/p{index}")
            held = decision is not None and \
                decision == self._prev_decision.get(fid)
            proposal = interpret_action(self._calm, self._context(
                report, np.random.default_rng(0), decision, False)).action
            actuated = interpret_action(self.strategy, self._context(
                report, self._noise_rngs[fid], decision, escaped)).action
            self._held[fid] = int(actuated)
            if decision is not None:
                self._prev_decision[fid] = decision
            if fell_back:
                fallbacks.append(fid)
            record.decisions[fid] = decision
            record.proposals[fid] = proposal
            record.actuated[fid] = actuated
            flat_proposal.append(float(proposal))

            if period_node is not None:
                if fell_back:
                    label = f"flow {fid} fallback"
                elif held:
                    label = f"flow {fid} hold cwnd {proposal}"
                elif decision is None:
                    label = f"flow {fid} strategy cwnd {proposal}"
                else:
                    label = f"flow {fid} cwnd {proposal}"
                data = {"action": int(proposal)}
                if note:
                    data["ranker"] = note
                obs_node.child(ACTOR_NODE, label, inputs=payload,
                               outputs={"action": int(actuated)}, **data)

        record.fallbacks = tuple(fallbacks)
        self.proposal_history.append(tuple(flat_proposal))

        def controller(env: TcpEnvironment) -> Dict[int, int]:
            return {fid: cwnd for fid, cwnd in self._held.items()
                    if fid in env.states}

        run_rounds(self.env, controller, n_rounds=r0 + rounds)
        self.periods.append(record)
        return record

    def run(self, n_rounds: int) -> List[TcpRoundRecord]:
        remaining = n_rounds
        while remaining > 0:
            step = min(self.period_rounds, remaining)
            self.run_period(step)
            remaining -= step
        return self.env.records
