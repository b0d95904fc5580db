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
indexed by round, and so is ``reward``, each round's social reward: the
mean ``tcp_reward`` of its live flows, scored once as the round is
played. The live set follows from the flows' join and leave rounds alone
and is the log's ``timeline`` of rounds, and ``run_rounds`` plays each of
its stretches in one loop over plain floats.
Each flow's minimum RTT is a running minimum updated as rounds are
played; it is the BaseRTT Vegas reads, and an observer reads it without
rescanning the history.

Readers slice the columns for the rounds they need. Their sums run over
rounds in order and over flows in ascending id, with Python ``sum`` over
a round's flows and running totals over rounds (``sum`` compensates on
Python >= 3.12, and a total carried from block to block cannot), never
numpy's pairwise summation, so every floating-point result, and each
artifact written from one, is the same as when the log held one record
object per round.

A log may be given a consumer (``TcpRoundLog.stream``, the protocol of
``scenario.BlockStreamedLog``): ``run_rounds`` then hands it each block
of ``READ_BLOCK_ROUNDS`` rounds once the log holds a given number of
rounds after it, and the log drops the block. The log then holds rounds
from ``first_kept`` on, at most one block plus those kept rounds, and a
read of an earlier round raises ``IndexError``.
The end-of-run readers are such a consumer: their running totals
(``RewardTotal``, ``ThroughputTotals``) take the blocks in round order
and give the same floats as they would from a whole log.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import MetricDomainError
from .scenario import (BlockStreamedLog, Field, ScenarioFormat, Timeline,
                       nullable, validate_scenario)
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


_INTEGER = "must be an integer"
_NUMBER = "must be a finite number"
TCP_FORMAT = ScenarioFormat(
    version="tcp-v1", spec_type=TcpScenarioSpec, member_type=TcpFlowConfig,
    member_key="flows", tag="controller", tags=CONTROLLERS,
    member_fields=(
        Field("join_round", finite_integer, _INTEGER, 0),
        Field("leave_round", nullable(finite_integer), _INTEGER, None),
    ),
    fields=(
        Field("total_rounds", finite_integer, _INTEGER),
        Field("seed", finite_integer, _INTEGER),
        Field("cwnd_max", finite_integer, _INTEGER, DEFAULT_CWND_MAX),
        Field("link_capacity_pps", finite_number, _NUMBER,
              DEFAULT_CAPACITY_PPS),
        Field("base_rtt_s", finite_number, _NUMBER, DEFAULT_BASE_RTT_S),
        Field("buffer_pkts", finite_number, _NUMBER, DEFAULT_BUFFER_PKTS),
    ),
    ranges=(("total_rounds", lambda v: v < 1, "must be >= 1"),
            ("link_capacity_pps", lambda v: v <= 0, "must be positive"),
            ("base_rtt_s", lambda v: v <= 0, "must be positive"),
            ("buffer_pkts", lambda v: v < 0, "must be >= 0"),
            ("cwnd_max", lambda v: v < 1, "must be >= 1"),
            ("seed", lambda v: v < 0, "must be >= 0")),
    lifetime=("join_round", "leave_round"),
)


@dataclass(slots=True)
class FlowState:
    cwnd: float
    ssthresh: float
    mode: str


def initial_state(controller: str, cwnd_max: int) -> FlowState:
    if controller == CONTROLLER_RENO:
        return FlowState(cwnd=2.0, ssthresh=cwnd_max / 2.0,
                         mode=MODE_SLOW_START)
    # Vegas probes linearly from the start; agent flows are overridden
    # each round anyway.
    return FlowState(cwnd=2.0, ssthresh=cwnd_max / 2.0,
                     mode=MODE_CONGESTION_AVOIDANCE)


# A window controller maps a flow's (cwnd, ssthresh, slow_start) and one
# round's feedback (loss, rtt, and base_rtt: the flow's minimum RTT so far,
# this round's included) to its state for the next round. ``cwnd_max`` is
# a float.
def reno_update(cwnd: float, ssthresh: float, slow_start: bool, loss: bool,
                rtt: float, base_rtt: float,
                cwnd_max: float) -> Tuple[float, float, bool]:
    """Slow-start doubling, +1 per round in congestion avoidance, and a
    multiplicative halving to ssthresh on loss."""
    if loss:
        ssthresh = max(cwnd / 2.0, 2.0)
        return ssthresh, ssthresh, False
    if slow_start and cwnd < ssthresh:
        cwnd = min(cwnd * 2.0, ssthresh)
        return min(cwnd, cwnd_max), ssthresh, cwnd < ssthresh
    return min(cwnd + 1.0, cwnd_max), ssthresh, False


def vegas_update(cwnd: float, ssthresh: float, slow_start: bool, loss: bool,
                 rtt: float, base_rtt: float,
                 cwnd_max: float) -> Tuple[float, float, bool]:
    """Keep the estimated packets queued at the bottleneck between
    VEGAS_ALPHA and VEGAS_BETA.

    diff = (cwnd/base_rtt - cwnd/rtt) * base_rtt, the surplus the flow
    itself parks in the queue, measured in packets. On loss the flow
    falls back to a Reno-style halving.
    """
    if loss:
        ssthresh = max(cwnd / 2.0, 2.0)
        return ssthresh, ssthresh, False
    diff = (cwnd / base_rtt - cwnd / rtt) * base_rtt
    if diff < VEGAS_ALPHA:
        cwnd = min(cwnd + 1.0, cwnd_max)
    elif diff > VEGAS_BETA:
        cwnd = max(cwnd - 1.0, 1.0)
    return cwnd, ssthresh, False


def tcp_reward(acks: float, rtt: float) -> float:
    """log of delivered packets minus a delay penalty. A starved round
    (no acks) earns the floor: the zero-ack log value minus a fixed
    penalty, so it always ranks below any delivering round."""
    if acks <= 0.0:
        return math.log(1.0) - DEFAULT_REWARD_BETA * rtt \
            - REWARD_FLOOR_PENALTY
    return math.log(acks) - DEFAULT_REWARD_BETA * rtt


# the rounds a streamed log hands its consumer at a time
READ_BLOCK_ROUNDS = 4096


class TcpRoundLog(BlockStreamedLog):
    """Columnar record of the rounds played so far from round
    ``first_kept`` on (see the module docstring). Flow ``fid``'s columns
    ``cwnd[fid]``, ``acks[fid]`` and ``loss[fid]`` hold its live rounds
    from its join round in ``timeline``, or from ``first_kept`` if later,
    on; ``rtt`` and ``reward`` hold every round from ``first_kept`` on (a
    round with no live flow has reward 0.0, which no reader reads);
    ``min_rtt[fid]`` is the smallest RTT the flow has seen, ``math.inf``
    before it first plays. Streamed blocks are ``READ_BLOCK_ROUNDS``
    rounds."""

    unit = "round"

    def __init__(self, timeline: Timeline):
        super().__init__()
        self.n_rounds = 0
        self.timeline = timeline
        self.rtt = array("d")
        self.reward = array("d")
        self.cwnd = [array("d") for _ in timeline.lifetimes]
        self.acks = [array("d") for _ in timeline.lifetimes]
        self.loss = [array("b") for _ in timeline.lifetimes]
        self.min_rtt = [math.inf] * len(timeline.lifetimes)

    @property
    def n_ticks(self) -> int:
        return self.n_rounds

    def _block_ticks(self) -> int:
        return READ_BLOCK_ROUNDS

    def _drop(self, b0: int, b1: int) -> None:
        del self.rtt[:b1 - b0]
        del self.reward[:b1 - b0]
        for fid, (join, _) in enumerate(self.timeline.lifetimes):
            # a flow that left before b1 has no rounds from b1 on
            dropped = min(max(join, b1) - max(join, b0),
                          len(self.cwnd[fid]))
            for column in (self.cwnd, self.acks, self.loss):
                del column[fid][:dropped]

    def flow_rounds(self, fid: int, r0: int, r1: int) -> Tuple[int, int]:
        """The logged rounds of ``[r0, r1)`` in which flow ``fid`` was live,
        as ``(first, end)``; empty when ``first >= end``, as it is for an
        id that names no flow."""
        if not 0 <= fid < len(self.timeline.lifetimes):
            return r0, r0
        join, leave = self.timeline.lifetimes[fid]
        end = min(r1, self.n_rounds)
        if leave is not None:
            end = min(end, leave)
        return max(r0, join), end

    def flow_values(self, column: List[array], fid: int, r0: int,
                    r1: int) -> array:
        """Flow ``fid``'s entries of ``column`` (``cwnd``, ``acks`` or
        ``loss``) for rounds ``[r0, r1)``, all of them live rounds of the
        flow, as a copied slice of the column."""
        self._check_kept(r0)
        first = max(self.timeline.lifetimes[fid][0], self.first_kept)
        return column[fid][r0 - first:r1 - first]

    def rtt_values(self, r0: int, r1: int) -> array:
        """The RTTs of rounds ``[r0, r1)``, as a copied slice of ``rtt``."""
        self._check_kept(r0)
        return self.rtt[r0 - self.first_kept:r1 - self.first_kept]

    def reward_values(self, r0: int, r1: int) -> array:
        """The social rewards of rounds ``[r0, r1)``, as a copied slice of
        ``reward``."""
        self._check_kept(r0)
        return self.reward[r0 - self.first_kept:r1 - self.first_kept]


class TcpEnvironment:
    """Per-flow controller state plus the columnar round log. ``live`` is
    the live set of the last round played, or of round 0 before any, and
    ``states`` holds each of its flows' state for the flow's next round."""

    def __init__(self, spec: TcpScenarioSpec):
        validate_scenario(spec)
        self.spec = spec
        self.states: Dict[int, FlowState] = {}
        self.live: List[int] = []
        self.log = TcpRoundLog(Timeline(TCP_FORMAT.lifetimes(spec.flows)))
        # each flow's window controller; agent flows have none
        self._updates = tuple(
            {CONTROLLER_RENO: reno_update,
             CONTROLLER_VEGAS: vegas_update}.get(cfg.controller)
            for cfg in spec.flows)
        self._enter(self.log.timeline.live_at(0))

    @property
    def round_index(self) -> int:
        return self.log.n_rounds

    def _enter(self, live: Sequence[int]) -> None:
        """Take ``live`` as the live set; a joining flow starts afresh."""
        for fid in live:
            if fid not in self.states:
                self.states[fid] = initial_state(
                    self.spec.flows[fid].controller, self.spec.cwnd_max)
        for fid in [fid for fid in self.states if fid not in live]:
            del self.states[fid]
        self.live = list(live)


def run_rounds(env: TcpEnvironment,
               overrides: Optional[Dict[int, int]] = None,
               n_rounds: Optional[int] = None) -> TcpRoundLog:
    """Run rounds until the scenario's horizon (or ``n_rounds``).

    ``overrides`` maps agent flow ids to the window each holds for every
    round of this call; a flow not live in a round is skipped, so a flow
    joining mid-call plays its held window from its first round. Play
    stops at every round count where the log may retire a block, and the
    log retires what it may.
    """
    target = env.spec.total_rounds if n_rounds is None else n_rounds
    log = env.log
    for _, end, live in log.timeline.stretches(env.round_index, target):
        env._enter(live)
        while log.n_rounds < end:
            _play_stretch(env, overrides or {}, min(end, log.next_retire()))
            log.retire()
    return log


def _play_stretch(env: TcpEnvironment, overrides: Dict[int, int],
                  end: int) -> None:
    """Play rounds up to ``end``, all with the live set ``env.live``.

    Each live flow's state is held in local lists for the stretch and
    written back to ``env.states`` and ``log.min_rtt`` at its end. Every
    round, each held window is put in place before the link is played
    out; the offered load is summed over the live flows in ascending id.
    Each round's social reward is its flows' ``tcp_reward`` summed in
    live order, as ``sum`` adds from int 0, over the live count.
    """
    spec, log, live = env.spec, env.log, env.live
    states = [env.states[fid] for fid in live]
    cwnds = [state.cwnd for state in states]
    ssthreshs = [state.ssthresh for state in states]
    slow = [state.mode == MODE_SLOW_START for state in states]
    min_rtts = [log.min_rtt[fid] for fid in live]
    held = [(k, float(min(max(int(overrides[fid]), 1), spec.cwnd_max)))
            for k, fid in enumerate(live) if fid in overrides]
    flows = [(k, env._updates[fid], log.cwnd[fid].append,
              log.acks[fid].append, log.loss[fid].append)
             for k, fid in enumerate(live)]
    rtt_append, reward_append = log.rtt.append, log.reward.append
    rewards = [0.0] * len(live)
    # a round with no live flow scores sum([]) / 1 == 0.0
    n_live = len(live) or 1
    capacity, base_rtt = spec.link_capacity_pps, spec.base_rtt_s
    buffer, cwnd_max = spec.buffer_pkts, float(spec.cwnd_max)
    pipe = capacity * base_rtt
    # the largest of the live flows' minimum RTTs: a round whose rtt is
    # not below it lowers none of them
    highest_min = max(min_rtts, default=-math.inf)

    for _ in range(log.n_rounds, end):
        for k, cwnd in held:
            cwnds[k] = cwnd
        offered = sum(cwnds)
        backlog = max(0.0, offered - pipe)
        queue = min(backlog, buffer)
        overflow = max(0.0, backlog - buffer)
        rtt = base_rtt + queue / capacity
        rtt_append(rtt)
        if rtt < highest_min:
            min_rtts = [min(rtt, low) for low in min_rtts]
            highest_min = max(min_rtts)
        for k, update, cwnd_append, acks_append, loss_append in flows:
            cwnd = cwnds[k]
            drops = overflow * cwnd / offered if offered > 0 else 0.0
            loss = drops > 0.0
            acks = cwnd - drops
            cwnd_append(cwnd)
            acks_append(acks)
            loss_append(loss)
            rewards[k] = tcp_reward(acks, rtt)
            if update is not None:
                cwnds[k], ssthreshs[k], slow[k] = update(
                    cwnd, ssthreshs[k], slow[k], loss, rtt, min_rtts[k],
                    cwnd_max)
        reward_append(sum(rewards) / n_live)

    for k, fid in enumerate(live):
        env.states[fid] = FlowState(
            cwnds[k], ssthreshs[k],
            MODE_SLOW_START if slow[k] else MODE_CONGESTION_AVOIDANCE)
        log.min_rtt[fid] = min_rtts[k]
    log.n_rounds = end


class RewardTotal:
    """The running sum of each round's social reward (the log's ``reward``
    column), over rounds from ``first_round`` on in the order they are
    added; rounds with no live flow are skipped."""

    def __init__(self, first_round: int):
        self.first_round = first_round
        self.total = 0
        self.rounds = 0

    def add(self, log: TcpRoundLog, r0: int, r1: int) -> None:
        """Add rounds ``[r0, r1)``, those from ``first_round`` on."""
        total = self.total
        for s0, s1, live in log.timeline.stretches(
                max(r0, self.first_round), r1):
            if not live:
                continue
            self.rounds += s1 - s0
            for reward in log.reward_values(s0, s1):
                total += reward
        self.total = total

    def mean(self) -> float:
        if not self.rounds:
            raise MetricDomainError("no rounds to score")
        return self.total / self.rounds


class ThroughputTotals:
    """Per flow, the running sum of ``acks / rtt`` over its live rounds
    from ``first_round`` on, in the order they are added."""

    def __init__(self, first_round: int):
        self.first_round = first_round
        # flow id -> [first round added, rounds added, running total]
        self.flows: Dict[int, list] = {}

    def add(self, log: TcpRoundLog, r0: int, r1: int) -> None:
        """Add rounds ``[r0, r1)``, those from ``first_round`` on."""
        for fid in range(len(log.timeline.lifetimes)):
            f0, f1 = log.flow_rounds(fid, max(r0, self.first_round), r1)
            if f0 >= f1:
                continue
            entry = self.flows.setdefault(fid, [f0, 0, 0.0])
            total = entry[2]
            for acks, rtt in zip(log.flow_values(log.acks, fid, f0, f1),
                                 log.rtt_values(f0, f1)):
                total += acks / rtt
            entry[1] += f1 - f0
            entry[2] = total

    def means(self) -> Dict[int, float]:
        """Each flow's mean, keyed in the order the flows first played in
        the rounds added."""
        order = sorted(self.flows, key=lambda fid: (self.flows[fid][0], fid))
        return {fid: self.flows[fid][2] / self.flows[fid][1]
                for fid in order}


def mean_social_reward(log: TcpRoundLog, first_round: int = 0) -> float:
    """Mean over rounds from ``first_round`` on of the average per-flow
    reward among live flows; rounds with no live flow are skipped."""
    total = RewardTotal(max(0, first_round))
    total.add(log, total.first_round, log.n_rounds)
    return total.mean()


def mean_flow_throughputs(log: TcpRoundLog,
                          first_round: int = 0) -> Dict[int, float]:
    """Average delivery rate (packets per second) per flow over the tail
    of the log starting at ``first_round``, keyed in the order the flows
    first play in that tail."""
    totals = ThroughputTotals(first_round)
    totals.add(log, first_round, log.n_rounds)
    return totals.means()
