"""Window analysis of recent trajectory: change detection and notable
slot usage, plus the convergence test the period engine applies to its
own proposal history.

The analysis feeds the per-period decision prompt. Slot utilization is
computed over transmissions from nodes *outside* the controlled team, so
a team member occupying a slot at probability one is never mistaken for
an external owner of that slot.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, List, Sequence, Tuple

from ..errors import WindowTooShortError
from ..mac import SlotOutcome, TrajectoryLog
from ..tcp import TcpRoundLog

NOTABLE_OVERUSED = "overused"
NOTABLE_UNUSED = "unused"


@dataclass(frozen=True)
class NotableSlot:
    slot: int
    kind: str
    utilization: float


@dataclass(frozen=True)
class MacWindowSignals:
    window: Tuple[int, int]
    live_n: int
    # per frame position, fraction of window frames with a transmission
    # from outside the excluded team
    slot_utilization: Tuple[float, ...]
    collision_rate: float
    membership_changed: bool
    # largest change in any outcome rate between window halves
    rate_shift: float


@dataclass(frozen=True)
class TcpWindowSignals:
    window: Tuple[int, int]
    live_n: int
    loss_rate: float
    mean_rtt: float
    min_rtt: float
    rtt_inflation: float
    membership_changed: bool
    rate_shift: float


@dataclass(frozen=True)
class ObserverReport:
    env_changed: bool
    notable: Tuple[NotableSlot, ...]
    window: Tuple[int, int]
    signals: object


def _linf(a, b) -> float:
    a_seq = isinstance(a, (list, tuple))
    b_seq = isinstance(b, (list, tuple))
    if a_seq != b_seq:
        return math.inf
    if not a_seq:
        return abs(float(a) - float(b))
    if len(a) != len(b):
        return math.inf
    return max((abs(float(x) - float(y)) for x, y in zip(a, b)),
               default=0.0)


def actions_converged(actions: Sequence[object], epsilon: float,
                      periods: int) -> bool:
    """True when the last ``periods`` consecutive action changes all stay
    below ``epsilon`` in L-infinity. Needs periods + 1 actions."""
    if len(actions) < periods + 1:
        return False
    # the slice [-(periods + 1):], reading only those items of a history
    # that grows by one action per period
    recent = [actions[i] for i in
              range(*slice(-(periods + 1), None).indices(len(actions)))]
    return all(_linf(prev, cur) < epsilon
               for prev, cur in zip(recent, recent[1:]))


def _report(signals, notable: Sequence[NotableSlot],
            rate_shift_delta: float) -> ObserverReport:
    return ObserverReport(
        env_changed=signals.membership_changed
        or signals.rate_shift > rate_shift_delta,
        notable=tuple(notable), window=signals.window, signals=signals)


def mac_window_signals(log: TrajectoryLog, window_frames: int,
                       exclude_ids: Iterable[int] = ()) -> MacWindowSignals:
    if window_frames < 1:
        raise WindowTooShortError("window_frames must be >= 1")
    if not log.n_slots:
        raise WindowTooShortError("empty trajectory log")
    end = log.n_frames
    first_frame = end - window_frames
    if first_frame < 0:
        raise WindowTooShortError(f"need {window_frames} frames, have {end}")
    mid_frame = first_frame + window_frames // 2
    halves = (log.outcome_counts(first_frame, mid_frame),
              log.outcome_counts(mid_frame, end))
    half_totals = [sum(counts.values()) for counts in halves]
    rate_shift = 0.0
    if half_totals[0] and half_totals[1]:
        for outcome in SlotOutcome:
            older = halves[0][outcome] / half_totals[0]
            recent = halves[1][outcome] / half_totals[1]
            rate_shift = max(rate_shift, abs(recent - older))
    collided = sum(counts[SlotOutcome.COLLIDED] for counts in halves)
    util_counts = log.transmissions_by_position(first_frame, end, exclude_ids)
    return MacWindowSignals(
        window=(first_frame, end - 1),
        live_n=len(log.timeline.live_at(end - 1)),
        slot_utilization=tuple(c / window_frames for c in util_counts),
        collision_rate=collided / sum(half_totals),
        membership_changed=len(log.timeline.stretches(first_frame, end)) > 1,
        rate_shift=rate_shift,
    )


def observer_analyze(log: TrajectoryLog, *, window_frames: int,
                     exclude_ids: Iterable[int] = (),
                     overuse_threshold: float = 0.9,
                     rate_shift_delta: float = 0.1) -> ObserverReport:
    """Summarize the last ``window_frames`` frames of a trajectory."""
    signals = mac_window_signals(log, window_frames, exclude_ids)
    notable: List[NotableSlot] = []
    for slot, util in enumerate(signals.slot_utilization):
        if util >= overuse_threshold:
            notable.append(NotableSlot(slot, NOTABLE_OVERUSED, round(util, 6)))
        elif util == 0.0:
            notable.append(NotableSlot(slot, NOTABLE_UNUSED, 0.0))
    return _report(signals, notable, rate_shift_delta)


def tcp_window_signals(log: TcpRoundLog,
                       window_rounds: int,
                       flow_id: int) -> TcpWindowSignals:
    if window_rounds < 1:
        raise WindowTooShortError("window_rounds must be >= 1")
    end = log.n_rounds
    if end < window_rounds:
        raise WindowTooShortError(
            f"need {window_rounds} rounds, have {end}"
        )
    start = end - window_rounds
    r0, r1 = log.flow_rounds(flow_id, 0, end)
    if r0 >= r1:
        raise WindowTooShortError(f"flow {flow_id} absent from the log")
    # the base rtt reference is the flow's minimum over its whole history,
    # so an always-congested window still measures inflation against the
    # true uncongested round-trip time
    min_rtt = log.min_rtt[flow_id]
    r0 = max(r0, start)
    if r0 >= r1:
        raise WindowTooShortError(f"flow {flow_id} absent from the window")

    rtts = log.rtt_values(r0, r1).tolist()
    loss = log.flow_values(log.loss, flow_id, r0, r1)
    # rounds before ``split`` form the window's first half
    split = min(max(r0, start + window_rounds // 2), r1) - r0
    halves = ((rtts[:split], loss[:split]), (rtts[split:], loss[split:]))
    half_mean = []
    for half_rtts, half_loss in halves:
        # a running total, not sum(), which compensates on Python >= 3.12
        rtt_sum = 0.0
        for rtt in half_rtts:
            rtt_sum += rtt
        if half_rtts:
            half_mean.append((sum(half_loss) / len(half_loss),
                              rtt_sum / len(half_rtts)))

    mean_rtt = sum(rtts) / len(rtts)
    rate_shift = 0.0
    if len(half_mean) == 2:
        (loss0, rtt0), (loss1, rtt1) = half_mean
        rate_shift = max(abs(loss1 - loss0), abs(rtt1 - rtt0) / min_rtt)
    return TcpWindowSignals(
        window=(start, end - 1),
        live_n=len(log.timeline.live_at(end - 1)),
        loss_rate=sum(loss) / len(loss),
        mean_rtt=mean_rtt,
        min_rtt=min_rtt,
        rtt_inflation=(mean_rtt - min_rtt) / min_rtt,
        membership_changed=len(log.timeline.stretches(start, end)) > 1,
        rate_shift=rate_shift,
    )


def tcp_observer_analyze(log: TcpRoundLog, *,
                         window_rounds: int, flow_id: int,
                         rate_shift_delta: float = 0.1) -> ObserverReport:
    signals = tcp_window_signals(log, window_rounds, flow_id)
    return _report(signals, (), rate_shift_delta)
