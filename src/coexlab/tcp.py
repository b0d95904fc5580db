"""Fluid model of TCP flows sharing one bottleneck link.

One simulation step is one RTT-long round. The link drains
``capacity * base_rtt`` packets per round; anything offered beyond that
queues up to the buffer and the rest is dropped, allocated across flows
in proportion to their share of the offered load. Feedback (acks, rtt,
loss) then drives each flow's controller.

Defaults mirror a 1 Mbps link with 1000-byte packets and a 100 ms base
RTT: 12.5 packets in flight fill the pipe, and the buffer holds one
bandwidth-delay product more.

A run is recorded in a columnar ``TcpRoundLog``. A flow joins at most
once and leaves at most once, so the rounds it is live form one
contiguous range starting at its ``join_round``; its ``cwnd``, ``acks``
and ``loss`` columns cover exactly that range. All live flows queue at
the same bottleneck and see the same RTT, so ``rtt`` is one column
indexed by round. The live set follows from the flows' join and leave
rounds alone and is kept as segments cut only at those rounds. Each
flow's minimum RTT is a running minimum updated as rounds are appended,
the way Vegas keeps its BaseRTT, so an observer reads it without
rescanning the history.

Readers slice the columns for the rounds they need. Their sums run over
rounds in order and over flows in ascending id, with Python ``sum`` or
explicit loops and never numpy's pairwise summation, so every
floating-point result, and each artifact written from one, is the same
as when the log held one record object per round.
"""

from __future__ import annotations

import json
import math
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import InvalidScenarioError, MetricDomainError
from .strategy import finite_integer, finite_number

DEFAULT_CAPACITY_PPS = 125.0      # 1 Mbps / (1000 bytes * 8 bits)
DEFAULT_BASE_RTT_S = 0.1
DEFAULT_BUFFER_PKTS = 12.5        # one bandwidth-delay product
DEFAULT_CWND_MAX = 64
DEFAULT_REWARD_BETA = 0.5
REWARD_FLOOR_PENALTY = 5.0

VEGAS_ALPHA = 1.0   # packets
VEGAS_BETA = 3.0    # packets

CONTROLLER_RENO = "reno"
CONTROLLER_VEGAS = "vegas"
CONTROLLER_AGENT = "agent"
CONTROLLERS = (CONTROLLER_RENO, CONTROLLER_VEGAS, CONTROLLER_AGENT)

MODE_SLOW_START = "slow_start"
MODE_CONGESTION_AVOIDANCE = "congestion_avoidance"


@dataclass
class TcpFlowConfig:
    controller: str
    join_round: int = 0
    leave_round: Optional[int] = None


@dataclass
class TcpScenarioSpec:
    flows: List[TcpFlowConfig]
    total_rounds: int
    seed: int
    link_capacity_pps: float = DEFAULT_CAPACITY_PPS
    base_rtt_s: float = DEFAULT_BASE_RTT_S
    buffer_pkts: float = DEFAULT_BUFFER_PKTS
    cwnd_max: int = DEFAULT_CWND_MAX


@dataclass(slots=True)
class FlowState:
    cwnd: float
    ssthresh: float
    mode: str
    base_rtt_est: Optional[float] = None


@dataclass(slots=True)
class RoundFeedback:
    acks: float
    rtt: float
    loss: bool


def validate_tcp_scenario(spec: TcpScenarioSpec) -> None:
    if spec.total_rounds < 1:
        raise InvalidScenarioError("total_rounds", "must be >= 1")
    if spec.link_capacity_pps <= 0:
        raise InvalidScenarioError("link_capacity_pps", "must be positive")
    if spec.base_rtt_s <= 0:
        raise InvalidScenarioError("base_rtt_s", "must be positive")
    if spec.buffer_pkts < 0:
        raise InvalidScenarioError("buffer_pkts", "must be >= 0")
    if spec.cwnd_max < 1:
        raise InvalidScenarioError("cwnd_max", "must be >= 1")
    if not spec.flows:
        raise InvalidScenarioError("flows", "at least one flow required")
    for i, flow in enumerate(spec.flows):
        if flow.controller not in CONTROLLERS:
            raise InvalidScenarioError(
                f"flows[{i}].controller", f"unknown controller {flow.controller!r}"
            )
        if flow.join_round < 0:
            raise InvalidScenarioError(f"flows[{i}].join_round", "must be >= 0")
        if flow.leave_round is not None and flow.leave_round <= flow.join_round:
            raise InvalidScenarioError(
                f"flows[{i}].leave_round", "must be greater than join_round"
            )


def initial_state(controller: str, cwnd_max: int) -> FlowState:
    if controller == CONTROLLER_RENO:
        return FlowState(cwnd=2.0, ssthresh=cwnd_max / 2.0,
                         mode=MODE_SLOW_START)
    # Vegas probes linearly from the start; agent flows are overridden
    # each round anyway.
    return FlowState(cwnd=2.0, ssthresh=cwnd_max / 2.0,
                     mode=MODE_CONGESTION_AVOIDANCE)


def reno_update(state: FlowState, fb: RoundFeedback, cwnd_max: int) -> FlowState:
    """Slow-start doubling, +1 per round in congestion avoidance, and a
    multiplicative halving to ssthresh on loss."""
    if fb.loss:
        ssthresh = max(state.cwnd / 2.0, 2.0)
        return FlowState(ssthresh, ssthresh, MODE_CONGESTION_AVOIDANCE,
                         state.base_rtt_est)
    if state.mode == MODE_SLOW_START and state.cwnd < state.ssthresh:
        cwnd = min(state.cwnd * 2.0, state.ssthresh)
        mode = (MODE_CONGESTION_AVOIDANCE if cwnd >= state.ssthresh
                else MODE_SLOW_START)
        return FlowState(min(cwnd, float(cwnd_max)), state.ssthresh, mode,
                         state.base_rtt_est)
    return FlowState(min(state.cwnd + 1.0, float(cwnd_max)), state.ssthresh,
                     MODE_CONGESTION_AVOIDANCE, state.base_rtt_est)


def vegas_update(state: FlowState, fb: RoundFeedback, cwnd_max: int) -> FlowState:
    """Keep the estimated packets queued at the bottleneck between
    VEGAS_ALPHA and VEGAS_BETA.

    diff = (cwnd/base_rtt - cwnd/rtt) * base_rtt, the surplus the flow
    itself parks in the queue, measured in packets. On loss the flow
    falls back to a Reno-style halving.
    """
    base = state.base_rtt_est
    if base is None or fb.rtt < base:
        base = fb.rtt
    if fb.loss:
        ssthresh = max(state.cwnd / 2.0, 2.0)
        return FlowState(ssthresh, ssthresh, MODE_CONGESTION_AVOIDANCE, base)
    diff = (state.cwnd / base - state.cwnd / fb.rtt) * base
    if diff < VEGAS_ALPHA:
        cwnd = min(state.cwnd + 1.0, float(cwnd_max))
    elif diff > VEGAS_BETA:
        cwnd = max(state.cwnd - 1.0, 1.0)
    else:
        cwnd = state.cwnd
    return FlowState(cwnd, state.ssthresh, MODE_CONGESTION_AVOIDANCE, base)


def tcp_reward(acks: float, rtt: float) -> float:
    """log of delivered packets minus a delay penalty. A starved round
    (no acks) earns the floor: the zero-ack log value minus a fixed
    penalty, so it always ranks below any delivering round."""
    if acks <= 0.0:
        return math.log(1.0) - DEFAULT_REWARD_BETA * rtt \
            - REWARD_FLOOR_PENALTY
    return math.log(acks) - DEFAULT_REWARD_BETA * rtt


def live_segments(flows: Sequence[TcpFlowConfig]) \
        -> List[Tuple[int, Tuple[int, ...]]]:
    """``(first round, live flow ids)`` for each stretch of rounds with one
    live set, cut only at join and leave rounds; the last is open-ended."""
    cuts = {0}
    for cfg in flows:
        cuts.add(cfg.join_round)
        if cfg.leave_round is not None:
            cuts.add(cfg.leave_round)
    segments: List[Tuple[int, Tuple[int, ...]]] = []
    for start in sorted(cuts):
        live = tuple(fid for fid, cfg in enumerate(flows)
                     if cfg.join_round <= start
                     and (cfg.leave_round is None or start < cfg.leave_round))
        if not segments or segments[-1][1] != live:
            segments.append((start, live))
    return segments


class TcpRoundLog:
    """Columnar record of every round played so far (see the module
    docstring). Flow ``fid``'s columns ``cwnd[fid]``, ``acks[fid]`` and
    ``loss[fid]`` hold its live rounds from ``join_rounds[fid]`` on;
    ``rtt`` holds every round; ``min_rtt[fid]`` is the smallest RTT the
    flow has seen, ``math.inf`` before it first plays."""

    def __init__(self, flows: Sequence[TcpFlowConfig]):
        self.n_rounds = 0
        self.join_rounds = tuple(cfg.join_round for cfg in flows)
        self.leave_rounds = tuple(cfg.leave_round for cfg in flows)
        self.rtt = array("d")
        self.cwnd = [array("d") for _ in flows]
        self.acks = [array("d") for _ in flows]
        self.loss = [array("b") for _ in flows]
        self.min_rtt = [math.inf] * len(flows)
        self.segments = live_segments(flows)
        self._starts = [start for start, _ in self.segments]

    def live_at(self, r: int) -> Tuple[int, ...]:
        """Live flow ids, ascending, in round ``r``."""
        return self.segments[bisect_right(self._starts, r) - 1][1]

    def segments_between(self, r0: int, r1: int) \
            -> List[Tuple[int, int, Tuple[int, ...]]]:
        """``(first, end, live ids)`` for each live-set stretch of rounds
        ``[r0, r1)``, in round order."""
        out = []
        i = bisect_right(self._starts, r0) - 1
        while r0 < r1:
            end = r1 if i + 1 == len(self._starts) \
                else min(r1, self._starts[i + 1])
            out.append((r0, end, self.segments[i][1]))
            r0 = end
            i += 1
        return out

    def flow_rounds(self, fid: int, r0: int, r1: int) -> Tuple[int, int]:
        """The logged rounds of ``[r0, r1)`` in which flow ``fid`` was live,
        as ``(first, end)``; empty when ``first >= end``, as it is for an
        id that names no flow."""
        if not 0 <= fid < len(self.join_rounds):
            return r0, r0
        end = min(r1, self.n_rounds)
        if self.leave_rounds[fid] is not None:
            end = min(end, self.leave_rounds[fid])
        return max(r0, self.join_rounds[fid]), end

    def flow_values(self, column: List[array], fid: int, r0: int,
                    r1: int) -> list:
        """Flow ``fid``'s entries of ``column`` (``cwnd``, ``acks`` or
        ``loss``) for rounds ``[r0, r1)``, all of them live rounds of the
        flow."""
        join = self.join_rounds[fid]
        return column[fid][r0 - join:r1 - join].tolist()


class TcpEnvironment:
    """Round-driven state for all flows plus the columnar round log."""

    def __init__(self, spec: TcpScenarioSpec):
        validate_tcp_scenario(spec)
        self.spec = spec
        self.states: Dict[int, FlowState] = {}
        self.live: List[int] = []
        self.log = TcpRoundLog(spec.flows)
        self._change_rounds = {start for start, _ in self.log.segments}
        # each flow's window controller; agent flows have none
        self._updates = tuple(
            {CONTROLLER_RENO: reno_update,
             CONTROLLER_VEGAS: vegas_update}.get(cfg.controller)
            for cfg in spec.flows)
        self._refresh_live()

    @property
    def round_index(self) -> int:
        return self.log.n_rounds

    def _refresh_live(self) -> None:
        live = self.log.live_at(self.round_index)
        for fid in live:
            if fid not in self.states:
                self.states[fid] = initial_state(
                    self.spec.flows[fid].controller, self.spec.cwnd_max)
        for fid in [fid for fid in self.states if fid not in live]:
            del self.states[fid]
        self.live = list(live)

    def step_round(self, agent_cwnds: Optional[Dict[int, int]] = None) -> None:
        """Advance one round, appending it to the log. ``agent_cwnds``
        overrides the window of every live agent flow before the round is
        played out."""
        if self.round_index in self._change_rounds:
            self._refresh_live()
        spec = self.spec
        states = self.states
        if agent_cwnds:
            for fid, cwnd in agent_cwnds.items():
                state = states.get(fid)
                if state is not None:
                    bounded = min(max(int(cwnd), 1), spec.cwnd_max)
                    states[fid] = FlowState(float(bounded), state.ssthresh,
                                            state.mode, state.base_rtt_est)

        pipe = spec.link_capacity_pps * spec.base_rtt_s
        offered = sum([states[fid].cwnd for fid in self.live])
        backlog = max(0.0, offered - pipe)
        queue = min(backlog, spec.buffer_pkts)
        overflow = max(0.0, backlog - spec.buffer_pkts)
        rtt = spec.base_rtt_s + queue / spec.link_capacity_pps

        log = self.log
        log.rtt.append(rtt)
        for fid in self.live:
            state = states[fid]
            drops = overflow * state.cwnd / offered if offered > 0 else 0.0
            acks = state.cwnd - drops
            loss = drops > 0.0
            log.cwnd[fid].append(state.cwnd)
            log.acks[fid].append(acks)
            log.loss[fid].append(loss)
            if rtt < log.min_rtt[fid]:
                log.min_rtt[fid] = rtt
            update = self._updates[fid]
            if update is not None:
                states[fid] = update(state, RoundFeedback(acks, rtt, loss),
                                     spec.cwnd_max)
            elif state.base_rtt_est is None or rtt < state.base_rtt_est:
                # agent flows keep their override until the next one, but
                # still track the base rtt estimate
                states[fid] = FlowState(state.cwnd, state.ssthresh, state.mode,
                                        rtt)
        log.n_rounds += 1


def run_rounds(env: TcpEnvironment,
               overrides: Optional[Dict[int, int]] = None,
               n_rounds: Optional[int] = None) -> TcpRoundLog:
    """Run rounds until the scenario's horizon (or ``n_rounds``).

    ``overrides`` maps agent flow ids to the window each holds for every
    round of this call; a flow not live in a round is skipped, so a flow
    joining mid-call plays its held window from its first round.
    """
    target = env.spec.total_rounds if n_rounds is None else n_rounds
    while env.round_index < target:
        env.step_round(overrides)
    return env.log


def mean_social_reward(log: TcpRoundLog, first_round: int = 0) -> float:
    """Mean over rounds from ``first_round`` on of the average per-flow
    reward among live flows; rounds with no live flow are skipped."""
    values: List[float] = []
    for r0, r1, live in log.segments_between(max(0, first_round),
                                             log.n_rounds):
        if not live:
            continue
        rtts = log.rtt[r0:r1].tolist()
        rewards = [[tcp_reward(acks, rtt) for acks, rtt
                    in zip(log.flow_values(log.acks, fid, r0, r1), rtts)]
                   for fid in live]
        values += [total / len(live) for total in map(sum, zip(*rewards))]
    if not values:
        raise MetricDomainError("no rounds to score")
    return sum(values) / len(values)


def mean_flow_throughputs(log: TcpRoundLog,
                          first_round: int = 0) -> Dict[int, float]:
    """Average delivery rate (packets per second) per flow over the tail
    of the log starting at ``first_round``, keyed in the order the flows
    first play in that tail."""
    ranges = [(*log.flow_rounds(fid, first_round, log.n_rounds), fid)
              for fid in range(len(log.join_rounds))]
    means: Dict[int, float] = {}
    for r0, r1, fid in sorted((r for r in ranges if r[0] < r[1]),
                              key=lambda r: (r[0], r[2])):
        total = 0.0
        for acks, rtt in zip(log.flow_values(log.acks, fid, r0, r1),
                             log.rtt[r0:r1].tolist()):
            total += acks / rtt
        means[fid] = total / (r1 - r0)
    return means


def tcp_scenario_to_json(spec: TcpScenarioSpec) -> str:
    flows = []
    for cfg in spec.flows:
        entry: Dict[str, object] = {"controller": cfg.controller}
        if cfg.join_round:
            entry["join_round"] = cfg.join_round
        if cfg.leave_round is not None:
            entry["leave_round"] = cfg.leave_round
        flows.append(entry)
    doc = {
        "version": "tcp-v1",
        "link_capacity_pps": spec.link_capacity_pps,
        "base_rtt_s": spec.base_rtt_s,
        "buffer_pkts": spec.buffer_pkts,
        "cwnd_max": spec.cwnd_max,
        "total_rounds": spec.total_rounds,
        "seed": spec.seed,
        "flows": flows,
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def tcp_scenario_from_doc(doc: object) -> TcpScenarioSpec:
    """Parse a decoded ``tcp-v1`` scenario document, checking each field's
    type before the values are validated."""
    if not isinstance(doc, dict):
        raise InvalidScenarioError("$", "scenario must be a JSON object")
    if doc.get("version") != "tcp-v1":
        raise InvalidScenarioError("version", f"expected tcp-v1, got {doc.get('version')!r}")
    raw_flows = doc.get("flows")
    if not isinstance(raw_flows, list):
        raise InvalidScenarioError("flows", "must be a list")
    flows = []
    for i, raw in enumerate(raw_flows):
        if not isinstance(raw, dict):
            raise InvalidScenarioError(f"flows[{i}]", "must be an object")
        for key in raw:
            if key not in {"controller", "join_round", "leave_round"}:
                raise InvalidScenarioError(f"flows[{i}].{key}", "unknown field")
        join_round = raw.get("join_round", 0)
        leave_round = raw.get("leave_round")
        if not finite_integer(join_round):
            raise InvalidScenarioError(f"flows[{i}].join_round",
                                       "must be an integer")
        if leave_round is not None and not finite_integer(leave_round):
            raise InvalidScenarioError(f"flows[{i}].leave_round",
                                       "must be an integer")
        flows.append(TcpFlowConfig(controller=raw.get("controller", ""),
                                   join_round=join_round,
                                   leave_round=leave_round))
    ints = {"total_rounds": doc.get("total_rounds"), "seed": doc.get("seed"),
            "cwnd_max": doc.get("cwnd_max", DEFAULT_CWND_MAX)}
    floats = {key: doc.get(key, default) for key, default in (
        ("link_capacity_pps", DEFAULT_CAPACITY_PPS),
        ("base_rtt_s", DEFAULT_BASE_RTT_S),
        ("buffer_pkts", DEFAULT_BUFFER_PKTS))}
    for key, value in ints.items():
        if not finite_integer(value):
            raise InvalidScenarioError(key, "must be an integer")
    for key, value in floats.items():
        if not finite_number(value):
            raise InvalidScenarioError(key, "must be a finite number")
    spec = TcpScenarioSpec(flows=flows, **ints, **floats)
    validate_tcp_scenario(spec)
    return spec
