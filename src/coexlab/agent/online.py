"""Period-driven online control loop.

An engine holds one strategy and drives its team of nodes or flows
through an environment. Time is chopped into query periods; at each
period start the observer summarizes the recent window, every live team
member is asked (through the completion backend) which action to hold,
and the chosen actions run unchanged until the next boundary. One
skeleton, ``PeriodEngine.run_period``, serves both domains; the mac and
tcp engines supply only what differs between them.

One interpretation of each decision yields two actions: the *proposal*
is the rule-adjusted action before any exploration, and feeds the
convergence check; the *actuated* action additionally carries the
strategy's exploration noise from a dedicated perturbation stream, so
toggling exploration never shifts any other random draw.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field, replace
from typing import Deque, Dict, List, Optional, Tuple

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
from ..metrics import SuccessTotals
from ..oracle import fair_objective
from ..strategy import (
    ActionContext,
    DOMAIN_MAC,
    DOMAIN_TCP,
    ExploreSpec,
    Strategy,
    finite_number,
    interpret_action,
    strategy_doc,
)
from ..tcp import (
    CONTROLLER_AGENT,
    TcpEnvironment,
    TcpRoundLog,
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
from .observer import (
    NOTABLE_OVERUSED,
    ObserverReport,
    actions_converged,
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


def _overused_slots(report: Optional[ObserverReport]) -> List[int]:
    if report is None:
        return []
    return sorted(e.slot for e in report.notable
                  if e.kind == NOTABLE_OVERUSED)


def _observer_label(report: Optional[ObserverReport]) -> str:
    if report is None:
        return "no report yet"
    overused = [e for e in report.notable if e.kind == NOTABLE_OVERUSED]
    return overuse_label(overused) if overused \
        else f"window {report.window[0]}-{report.window[1]}"


def _report_text(report: Optional[ObserverReport], converged: bool) -> str:
    if report is None:
        return _NO_REPORT_TEXT
    overused = [e for e in report.notable if e.kind == NOTABLE_OVERUSED]
    return _strip_header(render_template(TEMPLATE_OBSERVER_SUMMARY, {
        "WINDOW": f"{report.window[0]}-{report.window[1]}",
        "CONVERGED": converged,
        "ENV_CHANGED": report.env_changed,
        "NOTABLE": overuse_label(overused) if overused else "none",
    })).strip()


def _action_json(action, exact: bool = False):
    """An action as the payload and the trace show it: a mac vector as a
    list rounded to 6 places unless ``exact``, a tcp window as an int."""
    if action is None:
        return None
    if isinstance(action, (list, tuple)):
        return list(action) if exact else [round(float(p), 6) for p in action]
    return int(action)


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
    decisions: Dict[int, object] = field(default_factory=dict)
    proposals: Dict[int, object] = field(default_factory=dict)
    actuated: Dict[int, object] = field(default_factory=dict)
    fallbacks: Tuple[int, ...] = ()


def _parse_json_action(text: str) -> object:
    try:
        doc = json.loads(extract_json_text(text))
    except (ValueError, RecursionError) as exc:
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
    totals = SuccessTotals(log.n_nodes)
    totals.add(log, max(0, end - window_frames), end)
    return fair_objective(totals.rates().values(), alpha)


def tcp_window_objective(log: TcpRoundLog, window_rounds: int) -> float:
    """Mean social reward over the trailing ``window_rounds`` rounds (the
    whole log, like the slice ``[-window_rounds:]``, when that is 0)."""
    first, _, _ = slice(-window_rounds, None).indices(log.n_rounds)
    return mean_social_reward(log, first_round=first)


class PeriodEngine:
    """The observe -> decide -> actuate loop shared by both domains.

    Each period observes the trailing window, checks convergence and
    escape once, then decides, interprets and actuates every live team
    member, returns a ``PeriodRecord`` and advances the environment. The
    engine keeps no period list: only a period count and the last
    proposals that the convergence check reads. A domain engine supplies
    the environment, whose log's ``n_ticks`` is the clock, the
    observation, the decision payload and the signals the strategy's
    rules read, action parsing, the trace wording and the actuation of a
    held action.
    """

    domain = ""
    unit = ""                # clock tick: "frame" or "round"
    member = ""              # team member: "node" or "flow"
    # one observer report for the whole team, shown on the observer node
    shared_report = False
    frame_len = DEFAULT_FRAME_LEN    # FRAME_LEN of the decision prompt
    period = 0               # ticks per query period

    def __init__(self, spec, strategy: Strategy, config: AgentConfig,
                 team: Tuple[int, ...], *,
                 backend: Optional[Backend] = None,
                 trace: Optional[DecisionTrace] = None,
                 explore: Optional[ExploreSpec] = None):
        if strategy.domain != self.domain:
            raise InvalidScenarioError(
                "strategy", f"domain {strategy.domain!r} does not drive a "
                            f"{self.domain} environment")
        self.spec = spec
        self.config = config
        self.backend = backend
        self.trace = trace
        self.strategy = strategy if explore is None \
            else replace(strategy, explore=explore)
        # the strategy as the decision prompt lists it
        self._items = (fenced_json({**strategy_doc(self.strategy),
                                    "id": self.strategy.id}),)
        self.team = team
        self._noise_rngs = {
            mid: purpose_rng(spec.seed, PERTURBATION_STREAM, mid)
            for mid in self.team
        }
        self.n_periods = 0
        # the convergence check reads the last convergence_periods + 1
        self.proposal_history: Deque[Tuple[float, ...]] = deque(
            maxlen=config.convergence_periods + 1)
        self._prev_decision: Dict[int, object] = {}
        self._best_objective: Optional[float] = None

    # -- prompt assembly and decisions -------------------------------------

    def _query_backend(self, payload: Dict[str, object], report_text: str,
                       tag: str) -> Tuple[str, str]:
        items = self._items
        ranker = self.config.ranker_online
        subs = {
            "REPORT": report_text,
            "ITEMS": ITEMS_TOKEN if ranker else "\n\n".join(items),
            "PAYLOAD": json.dumps(payload, sort_keys=True),
            "FRAME_LEN": self.frame_len,
        }
        prompt = render_template(TEMPLATE_NODE_DECISION, subs)
        if not ranker:
            return self.backend.complete(user_request(prompt, tag)), ""
        query = RankerQuery(base=user_request(prompt, tag),
                            reorderable_items=items)
        ranked = ranked_complete(self.backend, query, judge=None)
        note = "orders agree" if ranked.first == ranked.second \
            else "orders differ; first kept"
        return ranked.text, note

    def _decide(self, mid: int, payload: Dict[str, object],
                report_text: str, tag: str) -> Tuple[object, bool, str]:
        """Ask the backend for the action to hold; an unavailable or
        unusable backend reuses the previous decision verbatim."""
        if self.backend is None:
            return None, False, ""
        try:
            text, note = self._query_backend(payload, report_text, tag)
            return self._parse_action(text), False, note
        except (BackendUnavailableError, MalformedResponseError):
            if self._prev_decision.get(mid) is None:
                raise
            return self._prev_decision[mid], True, ""

    # -- period pipeline ---------------------------------------------------

    def _live_team(self, t0: int, t1: int) -> List[int]:
        live = {mid for _, _, ids in self.env.log.timeline.stretches(t0, t1)
                for mid in ids}
        return [mid for mid in self.team if mid in live]

    def _check_escape(self, had_report: bool, converged: bool) -> bool:
        """Exploration is re-enabled when the team has converged onto an
        action whose windowed objective has fallen well below the best
        window seen so far; never without a backend in the loop."""
        if self.backend is None or not had_report:
            return False
        objective = self._window_objective()
        best = self._best_objective
        ratio = self.config.escape_ratio
        # objectives may be negative (log utilities), so the allowed slack
        # is applied on the side that always lowers the threshold
        escaped = (converged and best is not None
                   and objective < (best * ratio if best >= 0
                                    else best / ratio))
        if best is None or objective > best:
            self._best_objective = objective
        return escaped

    def run_period(self, length: Optional[int] = None) -> PeriodRecord:
        """Run one query period of ``length`` ticks (default: a full
        period) and return its record."""
        length = self.period if length is None else length
        if length < 1:
            raise ValueError(f"a period needs at least one {self.unit}")
        t0 = self.env.log.n_ticks
        index = self.n_periods
        team = self._live_team(t0, t0 + length)
        # the reports that set the period's flags, and each member's own
        shared, reports = self._observe(t0, team)
        found = [r for r in shared if r is not None]
        first = found[0] if found else None
        converged = first is not None and actions_converged(
            self.proposal_history, self.config.convergence_epsilon,
            self.config.convergence_periods)
        env_changed = any(r.env_changed for r in found)
        escaped = self._check_escape(first is not None, converged)
        # a shared report is every member's, so it is rendered once
        shared_text = _report_text(first, converged) \
            if self.shared_report else None

        obs_node = None
        if self.trace is not None:
            period_node = self.trace.child(
                self.trace.root.actor,
                f"period {index} {self.unit}s {t0}-{t0 + length - 1}")
            obs_node = period_node.child(
                ACTOR_OBSERVER, _observer_label(first), outputs=shared_text,
                converged=converged, env_changed=env_changed, escape=escaped)
        record = PeriodRecord(
            index=index, start=t0, length=length,
            had_report=first is not None, converged=converged,
            env_changed=env_changed, escaped=escaped,
        )

        fallbacks: List[int] = []
        flat_proposal: List[float] = []
        for mid in team:
            report = reports[mid]
            payload = self._payload(mid, report)
            decision, fell_back, note = self._decide(
                mid, payload, shared_text if self.shared_report
                else _report_text(report, converged),
                tag=f"{self.member}/{mid}/p{index}")
            held = decision is not None and \
                decision == self._prev_decision.get(mid)
            interpreted = interpret_action(self.strategy, ActionContext(
                rng=self._noise_rngs[mid], base_override=decision,
                escape_sigma=self.config.escape_sigma if escaped else None,
                **self._signals(report)))
            proposal, actuated = interpreted.proposal, interpreted.action
            self._actuate(mid, actuated)
            if decision is not None:
                self._prev_decision[mid] = decision
            if fell_back:
                fallbacks.append(mid)
            record.decisions[mid] = decision
            record.proposals[mid] = proposal
            record.actuated[mid] = actuated
            flat_proposal.extend(np.ravel(proposal).astype(float).tolist())

            if obs_node is not None:
                what = "fallback" if fell_back \
                    else self._action_label(proposal, report, held, decision)
                data = {"action": _action_json(proposal)}
                if note:
                    data["ranker"] = note
                obs_node.child(ACTOR_NODE, f"{self.member} {mid} {what}",
                               inputs=payload, outputs={
                                   "action": _action_json(actuated, True)},
                               **data)

        record.fallbacks = tuple(fallbacks)
        self.proposal_history.append(tuple(flat_proposal))
        self._advance(t0, length, first)
        self.n_periods += 1
        return record

    def run(self, length: int):
        """Run whole periods until ``length`` frames or rounds have
        elapsed; the final period is truncated when the horizon is not a
        multiple. Returns the environment's trajectory."""
        remaining = length
        while remaining > 0:
            step = min(self.period, remaining)
            self.run_period(step)
            remaining -= step
        return self.env.log


class MacPeriodEngine(PeriodEngine):
    """Drives the agent nodes of a slotted-medium scenario period by
    period. Aware nodes are out of scope here; they follow the reference
    trajectory and are actuated by the runner instead."""

    domain = DOMAIN_MAC
    unit = "frame"
    member = "node"
    shared_report = True

    def __init__(self, spec: ScenarioSpec, strategy: Strategy,
                 config: AgentConfig = AgentConfig(), **options):
        super().__init__(spec, strategy, config, tuple(
            nid for nid, cfg in enumerate(spec.nodes)
            if cfg.kind == KIND_AGENT), **options)
        config.validate(spec.frame_len)
        if any(cfg.kind == KIND_AWARE for cfg in spec.nodes):
            raise InvalidScenarioError(
                "nodes", "aware nodes follow the reference trajectory and "
                         "are not driven by the online engine")
        self.env = MacEnvironment(spec)
        self.frame_len = spec.frame_len
        self.period = config.query_period_slots // spec.frame_len
        self.policy = BernoulliSlotPolicy(spec.seed, {})
        self._prev_overused: Optional[List[int]] = None

    def _observe(self, f0: int, team: List[int]):
        cfg = self.config
        report = None if f0 < cfg.observer_window_frames else \
            observer_analyze(
                self.env.log,
                window_frames=cfg.observer_window_frames,
                exclude_ids=self.team,
                overuse_threshold=cfg.overuse_threshold,
                rate_shift_delta=cfg.rate_shift_delta,
            )
        return [report], dict.fromkeys(team, report)

    def _window_objective(self) -> float:
        return mac_window_objective(
            self.env.log, self.config.observer_window_frames,
            self.config.alpha)

    def _parse_action(self, text: str) -> List[float]:
        action = _parse_json_action(text)
        if not isinstance(action, list) or len(action) != self.frame_len \
                or not all(finite_number(v) for v in action):
            raise MalformedResponseError(
                f"mac action must be a {self.frame_len}-entry vector of "
                f"finite numbers")
        return [float(v) for v in action]

    def _payload(self, nid: int, report: Optional[ObserverReport]) \
            -> Dict[str, object]:
        payload: Dict[str, object] = {
            "domain": DOMAIN_MAC,
            "node": nid,
            "frame_len": self.frame_len,
            "base": _action_json(self.strategy.base_action),
            "prev_action": _action_json(self._prev_decision.get(nid)),
            "have_report": report is not None,
        }
        if report is not None:
            overused = _overused_slots(report)
            payload.update({
                "live_n": report.signals.live_n,
                "env_changed": report.env_changed,
                "overused": overused,
                "unused": sorted(e.slot for e in report.notable
                                 if e.kind != NOTABLE_OVERUSED),
                "prev_overused": self._prev_overused,
                "collision_rate": round(report.signals.collision_rate, 6),
            })
        return payload

    def _signals(self, report: Optional[ObserverReport]) -> Dict[str, object]:
        if report is None:
            return {}
        return {"slot_utilization": report.signals.slot_utilization,
                "env_changed": report.env_changed,
                "collision_rate": report.signals.collision_rate}

    def _action_label(self, proposal, report: Optional[ObserverReport],
                      held: bool, decision) -> str:
        overused = _overused_slots(report)
        if overused and all(proposal[k] == 0.0 for k in overused):
            return "avoid_slots " + ",".join(str(k) for k in overused)
        if held:
            return "hold action"
        return "strategy action" if decision is None else "base action"

    def _actuate(self, nid: int, action) -> None:
        self.policy.set_vector(nid, action)

    def _advance(self, f0: int, frames: int,
                 report: Optional[ObserverReport]) -> None:
        if report is not None:
            self._prev_overused = _overused_slots(report)
        run_frames(self.env, self.policy, frames)


class TcpPeriodEngine(PeriodEngine):
    """Round-driven counterpart of the mac engine for congestion-window
    control: one held window per agent flow per query period."""

    domain = DOMAIN_TCP
    unit = "round"
    member = "flow"

    def __init__(self, spec: TcpScenarioSpec, strategy: Strategy,
                 config: AgentConfig = AgentConfig(), **options):
        super().__init__(spec, strategy, config, tuple(
            fid for fid, cfg in enumerate(spec.flows)
            if cfg.controller == CONTROLLER_AGENT), **options)
        self.env = TcpEnvironment(spec)
        self.period = config.tcp_query_period_rounds
        self._held: Dict[int, int] = {}

    def _observe(self, r0: int, team: List[int]):
        cfg = self.config
        reports: Dict[int, Optional[ObserverReport]] = {}
        for fid in team:
            # a flow joining inside this period has no rounds logged yet
            if r0 < cfg.tcp_observer_window_rounds \
                    or self.env.log.timeline.lifetimes[fid][0] >= r0:
                reports[fid] = None
                continue
            reports[fid] = tcp_observer_analyze(
                self.env.log,
                window_rounds=cfg.tcp_observer_window_rounds,
                flow_id=fid,
                rate_shift_delta=cfg.rate_shift_delta,
            )
        return list(reports.values()), reports

    def _window_objective(self) -> float:
        return tcp_window_objective(
            self.env.log, self.config.tcp_observer_window_rounds)

    def _parse_action(self, text: str) -> int:
        action = _parse_json_action(text)
        if not finite_number(action):
            raise MalformedResponseError(
                "tcp action must be a finite congestion window")
        return int(action)

    def _payload(self, fid: int, report: Optional[ObserverReport]) \
            -> Dict[str, object]:
        payload: Dict[str, object] = {
            "domain": DOMAIN_TCP,
            "flow": fid,
            "cwnd_max": self.spec.cwnd_max,
            "base": _action_json(self.strategy.base_action),
            "prev_action": _action_json(self._prev_decision.get(fid)),
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

    def _signals(self, report: Optional[ObserverReport]) -> Dict[str, object]:
        if report is None:
            return {"cwnd_max": self.spec.cwnd_max}
        return {"cwnd_max": self.spec.cwnd_max,
                "env_changed": report.env_changed,
                "collision_rate": report.signals.loss_rate,
                "rtt_inflation": report.signals.rtt_inflation}

    def _action_label(self, proposal, report: Optional[ObserverReport],
                      held: bool, decision) -> str:
        if held:
            return f"hold cwnd {proposal}"
        return f"strategy cwnd {proposal}" if decision is None \
            else f"cwnd {proposal}"

    def _actuate(self, fid: int, action) -> None:
        self._held[fid] = int(action)

    def _advance(self, r0: int, rounds: int,
                 report: Optional[ObserverReport]) -> None:
        run_rounds(self.env, self._held, n_rounds=r0 + rounds)
