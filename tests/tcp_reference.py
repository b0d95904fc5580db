"""The per-round TCP loop and its record-walking readers, kept as the
reference the columnar ``coexlab.tcp.TcpRoundLog`` and its readers must
equal.

``ReferenceTcpEnvironment.step_round`` re-derives the live set every
round, builds one ``TcpRoundRecord`` holding a ``FlowRoundRecord`` per
live flow, and updates each controller through ``dataclasses.replace``.
The readers below walk that record list the way the fast readers walked
it before the log became columnar; ``records_from_log`` rebuilds the same
records from a fast environment's log, so the two can be compared, or
hashed, record for record.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, List, Optional, Sequence

from coexlab.agent.observer import TcpWindowSignals
from coexlab.errors import MetricDomainError, WindowTooShortError
from coexlab.metrics import jain_index
from coexlab.oracle import fair_objective
from coexlab.runner import _cell
from coexlab.scenario import validate_scenario
from coexlab.tcp import (
    CONTROLLER_RENO,
    CONTROLLER_VEGAS,
    MODE_CONGESTION_AVOIDANCE,
    MODE_SLOW_START,
    VEGAS_ALPHA,
    VEGAS_BETA,
    FlowState,
    initial_state,
    tcp_reward,
)


@dataclass
class RoundFeedback:
    acks: float
    rtt: float
    loss: bool
    drops: float


@dataclass
class FlowRoundRecord:
    cwnd: float
    acks: float
    rtt: float
    loss: bool
    drops: float


@dataclass
class TcpRoundRecord:
    round_index: int
    live_ids: tuple
    queue: float
    per_flow: Dict[int, FlowRoundRecord] = field(default_factory=dict)


def reno_update(state: FlowState, fb: RoundFeedback, cwnd_max: int) -> FlowState:
    if fb.loss:
        ssthresh = max(state.cwnd / 2.0, 2.0)
        return replace(state, cwnd=ssthresh, ssthresh=ssthresh,
                       mode=MODE_CONGESTION_AVOIDANCE)
    if state.mode == MODE_SLOW_START and state.cwnd < state.ssthresh:
        cwnd = min(state.cwnd * 2.0, state.ssthresh)
        mode = (MODE_CONGESTION_AVOIDANCE if cwnd >= state.ssthresh
                else MODE_SLOW_START)
        return replace(state, cwnd=min(cwnd, float(cwnd_max)), mode=mode)
    return replace(state, cwnd=min(state.cwnd + 1.0, float(cwnd_max)),
                   mode=MODE_CONGESTION_AVOIDANCE)


def vegas_update(state: FlowState, fb: RoundFeedback, cwnd_max: int,
                 base: float) -> FlowState:
    if fb.loss:
        ssthresh = max(state.cwnd / 2.0, 2.0)
        return replace(state, cwnd=ssthresh, ssthresh=ssthresh,
                       mode=MODE_CONGESTION_AVOIDANCE)
    diff = (state.cwnd / base - state.cwnd / fb.rtt) * base
    if diff < VEGAS_ALPHA:
        cwnd = min(state.cwnd + 1.0, float(cwnd_max))
    elif diff > VEGAS_BETA:
        cwnd = max(state.cwnd - 1.0, 1.0)
    else:
        cwnd = state.cwnd
    return replace(state, cwnd=cwnd, mode=MODE_CONGESTION_AVOIDANCE)


class ReferenceTcpEnvironment:
    def __init__(self, spec):
        validate_scenario(spec)
        self.spec = spec
        self.round_index = 0
        self.states: Dict[int, FlowState] = {}
        # each flow's BaseRTT: the smallest rtt it has seen
        self.base_rtt: Dict[int, float] = {}
        self.live: List[int] = []
        self.records: List[TcpRoundRecord] = []
        self._refresh_live()

    def _refresh_live(self) -> None:
        new_live = []
        for fid, cfg in enumerate(self.spec.flows):
            live = cfg.join_round <= self.round_index and (
                cfg.leave_round is None or self.round_index < cfg.leave_round
            )
            if live:
                new_live.append(fid)
                if fid not in self.states:
                    self.states[fid] = initial_state(
                        cfg.controller, self.spec.cwnd_max
                    )
            elif fid in self.states and cfg.leave_round is not None \
                    and self.round_index >= cfg.leave_round:
                self.states.pop(fid, None)
        self.live = new_live

    def step_round(self, agent_cwnds: Optional[Dict[int, int]] = None) \
            -> TcpRoundRecord:
        self._refresh_live()
        agent_cwnds = agent_cwnds or {}
        for fid, cwnd in agent_cwnds.items():
            if fid in self.states:
                bounded = min(max(int(cwnd), 1), self.spec.cwnd_max)
                self.states[fid] = replace(self.states[fid], cwnd=float(bounded))

        spec = self.spec
        pipe = spec.link_capacity_pps * spec.base_rtt_s
        offered = sum(self.states[fid].cwnd for fid in self.live)
        backlog = max(0.0, offered - pipe)
        queue = min(backlog, spec.buffer_pkts)
        overflow = max(0.0, backlog - spec.buffer_pkts)
        rtt = spec.base_rtt_s + queue / spec.link_capacity_pps

        record = TcpRoundRecord(round_index=self.round_index,
                                live_ids=tuple(self.live), queue=queue)
        for fid in self.live:
            state = self.states[fid]
            drops = overflow * state.cwnd / offered if offered > 0 else 0.0
            acks = state.cwnd - drops
            fb = RoundFeedback(acks=acks, rtt=rtt, loss=drops > 0.0,
                               drops=drops)
            record.per_flow[fid] = FlowRoundRecord(
                cwnd=state.cwnd, acks=acks, rtt=rtt, loss=fb.loss, drops=drops
            )
            base = self.base_rtt.get(fid)
            if base is None or fb.rtt < base:
                self.base_rtt[fid] = fb.rtt
            controller = spec.flows[fid].controller
            if controller == CONTROLLER_RENO:
                self.states[fid] = reno_update(state, fb, spec.cwnd_max)
            elif controller == CONTROLLER_VEGAS:
                self.states[fid] = vegas_update(state, fb, spec.cwnd_max,
                                                self.base_rtt[fid])

        self.records.append(record)
        self.round_index += 1
        return record


def run_rounds(env: ReferenceTcpEnvironment,
               overrides: Optional[Dict[int, int]] = None,
               n_rounds: Optional[int] = None) -> List[TcpRoundRecord]:
    target = env.spec.total_rounds if n_rounds is None else n_rounds
    while env.round_index < target:
        env.step_round(overrides)
    return env.records


def records_from_log(env) -> List[TcpRoundRecord]:
    """The records ``ReferenceTcpEnvironment`` would have built, rebuilt
    from a ``coexlab.tcp.TcpEnvironment``'s columns: queue and drops are
    recomputed from the logged windows with the kernel's arithmetic."""
    spec, log = env.spec, env.log
    pipe = spec.link_capacity_pps * spec.base_rtt_s
    records = []
    for r in range(log.n_rounds):
        live = log.live_at(r)
        cwnds = {fid: log.cwnd[fid][r - log.join_rounds[fid]] for fid in live}
        offered = sum(cwnds[fid] for fid in live)
        backlog = max(0.0, offered - pipe)
        queue = min(backlog, spec.buffer_pkts)
        overflow = max(0.0, backlog - spec.buffer_pkts)
        record = TcpRoundRecord(round_index=r, live_ids=live, queue=queue)
        for fid in live:
            k = r - log.join_rounds[fid]
            record.per_flow[fid] = FlowRoundRecord(
                cwnd=cwnds[fid], acks=log.acks[fid][k], rtt=log.rtt[r],
                loss=bool(log.loss[fid][k]),
                drops=overflow * cwnds[fid] / offered if offered > 0 else 0.0)
        records.append(record)
    return records


# -- readers ----------------------------------------------------------------


def mean_social_reward(records, first_round: int = 0) -> float:
    values = []
    for rec in records:
        if rec.round_index < first_round or not rec.per_flow:
            continue
        per_flow = [tcp_reward(fr.acks, fr.rtt)
                    for fr in rec.per_flow.values()]
        values.append(sum(per_flow) / len(per_flow))
    if not values:
        raise MetricDomainError("no rounds to score")
    return sum(values) / len(values)


def mean_flow_throughputs(records, first_round: int = 0) -> Dict[int, float]:
    sums: Dict[int, float] = {}
    counts: Dict[int, int] = {}
    for rec in records:
        if rec.round_index < first_round:
            continue
        for fid, fr in rec.per_flow.items():
            sums[fid] = sums.get(fid, 0.0) + fr.acks / fr.rtt
            counts[fid] = counts.get(fid, 0) + 1
    return {fid: sums[fid] / counts[fid] for fid in sums}


def tcp_window_objective(records, window_rounds: int) -> float:
    return mean_social_reward(list(records[-window_rounds:]))


def tcp_j_estimate(records) -> float:
    total = records[-1].round_index + 1
    return mean_social_reward(list(records), first_round=total // 2)


def tcp_window_signals(records, window_rounds: int,
                       flow_id: int) -> TcpWindowSignals:
    if window_rounds < 1:
        raise WindowTooShortError("window_rounds must be >= 1")
    if len(records) < window_rounds:
        raise WindowTooShortError(
            f"need {window_rounds} rounds, have {len(records)}"
        )
    window = records[-window_rounds:]
    min_rtt = math.inf
    for rec in records:
        own = rec.per_flow.get(flow_id)
        if own is not None:
            min_rtt = min(min_rtt, own.rtt)
    if not math.isfinite(min_rtt):
        raise WindowTooShortError(f"flow {flow_id} absent from the log")

    rtts: List[float] = []
    half_loss = [[0, 0], [0, 0]]
    half_rtt = [[0.0, 0], [0.0, 0]]
    losses = 0
    flow_rounds = 0
    memberships = set()
    mid = window_rounds // 2
    for i, rec in enumerate(window):
        memberships.add(rec.live_ids)
        own = rec.per_flow.get(flow_id)
        if own is None:
            continue
        half = 0 if i < mid else 1
        flow_rounds += 1
        rtts.append(own.rtt)
        half_rtt[half][0] += own.rtt
        half_rtt[half][1] += 1
        if own.loss:
            losses += 1
            half_loss[half][0] += 1
        half_loss[half][1] += 1
    if not flow_rounds:
        raise WindowTooShortError(f"flow {flow_id} absent from the window")

    mean_rtt = sum(rtts) / len(rtts)
    rate_shift = 0.0
    if half_loss[0][1] and half_loss[1][1]:
        loss_shift = abs(half_loss[1][0] / half_loss[1][1]
                         - half_loss[0][0] / half_loss[0][1])
        rtt_shift = abs(half_rtt[1][0] / half_rtt[1][1]
                        - half_rtt[0][0] / half_rtt[0][1]) / min_rtt
        rate_shift = max(loss_shift, rtt_shift)
    return TcpWindowSignals(
        window=(window[0].round_index, window[-1].round_index),
        live_n=len(records[-1].live_ids),
        loss_rate=losses / flow_rounds,
        mean_rtt=mean_rtt,
        min_rtt=min_rtt,
        rtt_inflation=(mean_rtt - min_rtt) / min_rtt,
        membership_changed=len(memberships) > 1,
        rate_shift=rate_shift,
    )


def tcp_summary(records, flow_id: int) -> Dict[str, object]:
    acks = []
    rtts = []
    tputs = []
    flow_rounds = 0
    flow_loss_rounds = 0
    for rec in records:
        if not rec.per_flow:
            continue
        total_acks = sum(fr.acks for fr in rec.per_flow.values())
        rtt = next(iter(rec.per_flow.values())).rtt
        acks.append(total_acks)
        rtts.append(rtt)
        tputs.append(total_acks / rtt)
        own = rec.per_flow.get(flow_id)
        if own is not None:
            flow_rounds += 1
            if own.loss:
                flow_loss_rounds += 1
    return {
        "mean_acks": round(sum(acks) / len(acks), 6),
        "mean_rtt": round(sum(rtts) / len(rtts), 6),
        "min_rtt": round(min(rtts), 6),
        "max_rtt": round(max(rtts), 6),
        "mean_tput": round(sum(tputs) / len(tputs), 6),
        "loss_rate": round(flow_loss_rounds / max(1, flow_rounds), 6),
        "live_n": len(records[-1].live_ids),
    }


def csv_text(header: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    """The whole text ``csv.writer`` gives ``header`` and ``rows``."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def tcp_trajectory_csv(records, n_flows: int) -> str:
    header = ["round"]
    for fid in range(n_flows):
        header += [f"flow_{fid}_cwnd", f"flow_{fid}_acks", f"flow_{fid}_rtt"]
    rows = []
    for rec in records:
        row: List[object] = [rec.round_index]
        for fid in range(n_flows):
            fr = rec.per_flow.get(fid)
            if fr is None:
                row += ["", "", ""]
            else:
                row += [_cell(fr.cwnd), _cell(fr.acks), _cell(fr.rtt)]
        rows.append(row)
    return csv_text(header, rows)


def tcp_metrics_report(records, config) -> Dict[str, object]:
    total = records[-1].round_index + 1 if records else 0
    first = total // 2
    means = mean_flow_throughputs(list(records), first_round=first)
    return {
        "artifact": "metrics-v1",
        "family": "tcp",
        "params": {"alpha": config.alpha, "first_round": first},
        "mean_throughputs": {str(f): _cell(v) for f, v in sorted(means.items())},
        "jain": _cell(jain_index(list(means.values()))),
        "alpha_fair": _cell(fair_objective(means.values(), config.alpha)),
        "social_reward": _cell(mean_social_reward(list(records),
                                                  first_round=first)),
        "rmse": None,
    }
