"""Slotted-time simulator for heterogeneous multiple-access networks.

Time is divided into frames of ``frame_len`` slots (default 10 slots of
1 ms). All nodes share one channel. In each slot every live node either
transmits or stays silent; exactly one transmitter is a success, two or
more collide, none is an idle slot.

Protocol nodes:

* ``aloha``     transmits each slot with probability q.
* ``tdma``      transmits in its owned frame positions, every frame.
* ``csma``      counts down a backoff w only in slots it senses idle,
                transmits when w reaches zero, and rescales its window
                exponentially with the collision stage.
* ``fw_aloha``  waits a uniformly drawn w in [0, W-1] between transmissions.
* ``eb_aloha``  like fw_aloha but the window doubles per collision stage.

``agent`` and ``aware`` nodes have no internal policy; a
``BernoulliSlotPolicy`` supplies one per-slot transmit probability
vector per node.

Determinism: every node draws from its own PRNG stream derived from the
scenario seed and the node id, so adding or removing one node never
perturbs the randomness of the others.

Kernel: ``run_frames`` cuts its frames into the live-set stretches of the
log's ``timeline`` and, within each stretch, resolves up to
``KERNEL_CHUNK_SLOTS`` slots at a time. The live set and the policy
vectors are fixed inside a stretch, and aloha, tdma and controlled nodes
have no memory, so each of them is drawn in bulk: one ``random(n)`` call
on its own stream, or its owned-slot mask, per chunk. Only the stateful
backoff kinds are walked slot by slot, backoff ALOHA in id order and
then CSMA in id order sensing every transmitter counted so far, through
their machines' ``decide`` and ``on_outcome``. Outcome codes come from
the per-slot transmitter counts. The result is bit-identical to deciding
one slot at a time: ``Generator.random(n)`` yields the same doubles as n
scalar ``random()`` calls, every stream is private to one node, and each
stateful machine sees the same slots, and draws in the same ones.

A log may be given a consumer (``TrajectoryLog.stream``, the protocol of
``scenario.BlockStreamedLog``): ``run_frames`` then also stops at every
frame count where a block of ``READ_BLOCK_FRAMES`` frames may be handed
over, which changes no draw for the reasons above, and the log drops
the block. The log then holds frames from ``first_kept`` on, at most one
block plus the kept frames, so its columns stop growing with the
horizon, and a read of an earlier frame or slot raises ``IndexError``.
The end-of-run readers are such a consumer.
"""

from __future__ import annotations

import enum
from collections import abc
from dataclasses import dataclass, replace
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .errors import InvalidScenarioError, MissingDecisionError
from .scenario import (BlockStreamedLog, Field, ScenarioFormat, Timeline,
                       nullable, validate_scenario)
from .strategy import finite_integer, finite_number

DEFAULT_FRAME_LEN = 10
DEFAULT_SLOT_MS = 1.0

KIND_ALOHA = "aloha"
KIND_TDMA = "tdma"
KIND_CSMA = "csma"
KIND_FW_ALOHA = "fw_aloha"
KIND_EB_ALOHA = "eb_aloha"
KIND_AGENT = "agent"
KIND_AWARE = "aware"

PROTOCOL_KINDS = (KIND_ALOHA, KIND_TDMA, KIND_CSMA, KIND_FW_ALOHA, KIND_EB_ALOHA)
CONTROLLED_KINDS = (KIND_AGENT, KIND_AWARE)
ALL_KINDS = PROTOCOL_KINDS + CONTROLLED_KINDS


class SlotOutcome(enum.Enum):
    SUCCESS = "S"
    COLLIDED = "C"
    IDLE = "I"


@dataclass
class NodeConfig:
    """Static description of one node.

    Only the fields relevant to ``kind`` may be set; the rest stay None.
    ``join_frame``/``leave_frame`` bound the frames in which the node is
    live (join inclusive, leave exclusive).
    """

    kind: str
    q: Optional[float] = None
    slots: Optional[Tuple[int, ...]] = None
    window: Optional[int] = None
    max_stage: Optional[int] = None
    join_frame: int = 0
    leave_frame: Optional[int] = None


@dataclass
class ScenarioSpec:
    nodes: List[NodeConfig]
    total_frames: int
    seed: int
    frame_len: int = DEFAULT_FRAME_LEN
    slot_duration_ms: float = DEFAULT_SLOT_MS


@dataclass
class SlotRecord:
    """What happened in one slot, as stored in the trajectory log."""

    slot_index: int
    frame_index: int
    frame_position: int
    outcome: SlotOutcome
    transmitters: Tuple[int, ...]
    live_ids: Tuple[int, ...]
    reward_vector: Tuple[int, ...]


_OUTCOMES = tuple(SlotOutcome)      # outcome code -> outcome
# outcome code by a slot's transmitter count, capped at 2
_CODE_BY_COUNT = np.array([_OUTCOMES.index(o) for o in (
    SlotOutcome.IDLE, SlotOutcome.SUCCESS, SlotOutcome.COLLIDED)],
    dtype=np.int8)
_SUCCESS = _OUTCOMES.index(SlotOutcome.SUCCESS)

# Slots one kernel pass resolves at most; bounds its temporary arrays
# whatever the horizon.
KERNEL_CHUNK_SLOTS = 1 << 16
# the frames a streamed log hands its consumer at a time
READ_BLOCK_FRAMES = 512


def _doubled(col: np.ndarray) -> np.ndarray:
    """``col`` followed by as many zeroed rows, built in one new array
    so that growing holds only the old column and the new one."""
    grown = np.zeros((2 * len(col),) + col.shape[1:], dtype=col.dtype)
    grown[:len(col)] = col
    return grown


class TrajectoryLog(BlockStreamedLog):
    """Slot history of a run, stored as columns: per slot an outcome code
    and a transmit flag per node, in numpy arrays that grow by doubling,
    and per frame each node's successes. Liveness is the ``timeline`` of
    frames, one entry per node. The counting methods cover the logged
    slots of frames ``[f0, f1)``, first_kept <= f0 <= f1; ``records``
    rebuilds ``SlotRecord``s on demand.

    A streamed log (``stream``) hands its consumer blocks of
    ``READ_BLOCK_FRAMES`` frames and holds the frames from ``first_kept``
    on: row 0 of the slot columns is the first slot of that frame, and
    row 0 of the per-frame counts is that frame. ``n_slots`` and
    ``n_frames`` count every slot and frame logged."""

    unit = "frame"

    def __init__(self, frame_len: int, timeline: Timeline):
        super().__init__()
        self.frame_len = frame_len
        self.timeline = timeline
        self.n_nodes = n_nodes = len(timeline.lifetimes)
        self.n_slots = 0
        self._outcome = np.zeros(1024, dtype=np.int8)
        self._tx = np.zeros((1024, n_nodes), dtype=bool)
        # a node succeeds at most once per slot, so frame_len bounds a count
        self._won = np.zeros((1024, n_nodes),
                             dtype=np.min_scalar_type(frame_len))

    @property
    def records(self) -> SlotRecordView:
        # built per use: a view kept on the log would form a reference
        # cycle, which holds a finished log until the collector runs
        return SlotRecordView(self)

    @property
    def n_frames(self) -> int:
        return -(-self.n_slots // self.frame_len)

    @property
    def n_ticks(self) -> int:
        return self.n_frames

    def _block_ticks(self) -> int:
        return READ_BLOCK_FRAMES

    def _drop(self, b0: int, b1: int) -> None:
        """Move the rows from frame ``b1`` on to the front of each column;
        the per-frame counts they leave behind are zeroed for reuse."""
        cut, held = (b1 - b0) * self.frame_len, self.n_slots - self._base()
        self._outcome[:held - cut] = self._outcome[cut:held]
        self._tx[:held - cut] = self._tx[cut:held]
        cut, held = b1 - b0, self.n_frames - b0
        self._won[:held - cut] = self._won[cut:held]
        self._won[held - cut:held] = 0

    def _base(self) -> int:
        """The slot of row 0 of the slot columns."""
        return self.first_kept * self.frame_len

    def append_slots(self, outcome: np.ndarray, tx: np.ndarray) -> None:
        """Append n slots: outcome codes (indexes into ``SlotOutcome``)
        and an (n, n_nodes) transmit mask. The first and last frame they
        touch may be partial; their successes add to the frames' counts."""
        # rows, from row 0 at the first slot of frame first_kept
        i = self.n_slots - self._base()
        j = i + len(outcome)
        while j > len(self._outcome):
            self._outcome = _doubled(self._outcome)
            self._tx = _doubled(self._tx)
        f0, f1 = i // self.frame_len, -(-j // self.frame_len)
        while f1 > len(self._won):
            self._won = _doubled(self._won)
        self._outcome[i:j] = outcome
        self._tx[i:j] = tx
        won = np.flatnonzero(outcome == _SUCCESS)
        slot, nid = np.nonzero(tx[won])
        cells = ((i + won[slot]) // self.frame_len - f0) * self.n_nodes + nid
        self._won[f0:f1] += np.bincount(
            cells, minlength=(f1 - f0) * self.n_nodes).reshape(
                f1 - f0, self.n_nodes).astype(self._won.dtype)
        self.n_slots += len(outcome)

    def _slots(self, f0: int, f1: int) -> slice:
        """The rows of the logged slots of frames ``[f0, f1)``."""
        self._check_kept(f0)
        base = self._base()
        return slice(min(f0 * self.frame_len, self.n_slots) - base,
                     min(f1 * self.frame_len, self.n_slots) - base)

    def node_frame_successes(self, nid: int, f0: int = 0,
                             f1: Optional[int] = None) -> np.ndarray:
        """Node ``nid``'s successes in each logged frame of ``[f0, f1)``
        (up to the last logged frame when ``f1`` is None), as a read-only
        view of the per-frame counts."""
        self._check_kept(f0)
        end = self.n_frames if f1 is None else min(f1, self.n_frames)
        column = self._won[f0 - self.first_kept:end - self.first_kept, nid]
        column.flags.writeable = False
        return column

    def success_counts(self, f0: int, f1: int) -> Tuple[List[int],
                                                        List[int]]:
        """Per node id, its successes and its live slots among the logged
        slots of frames ``[f0, f1)``."""
        self._check_kept(f0)
        won = self._won[f0 - self.first_kept:
                        min(f1, self.n_frames) - self.first_kept]
        live = [0] * self.n_nodes
        for first, end, ids in self.timeline.stretches(f0, f1):
            span = self._slots(first, end)
            for nid in ids:
                live[nid] += span.stop - span.start
        return won.sum(axis=0, dtype=np.int64).tolist(), live

    def outcome_counts(self, f0: int, f1: int) -> Dict[SlotOutcome, int]:
        counts = np.bincount(self._outcome[self._slots(f0, f1)],
                             minlength=len(_OUTCOMES))
        return dict(zip(_OUTCOMES, counts.tolist()))

    def transmissions_by_position(self, f0: int, f1: int,
                                  exclude_ids: Iterable[int] = ()) -> List[int]:
        """Per frame position, slots with a transmission from some node
        outside ``exclude_ids``."""
        span = self._slots(f0, f1)
        keep = sorted(set(range(self.n_nodes)) - set(exclude_ids))
        hit = self._tx[span, keep].any(axis=1)
        # row 0 is the first slot of a frame
        positions = np.arange(span.start, span.stop) % self.frame_len
        return np.bincount(positions[hit], minlength=self.frame_len).tolist()


class SlotRecordView(abc.Sequence):
    """Read-only ``Sequence[SlotRecord]`` over a log, built on demand; its
    length counts every slot logged, and reading a slot of a dropped
    frame raises ``IndexError``."""

    def __init__(self, log: TrajectoryLog):
        self._log = log

    def __len__(self) -> int:
        return self._log.n_slots

    def __getitem__(self, index):
        i = range(len(self))[index]
        if isinstance(i, range):
            return [self[k] for k in i]
        log = self._log
        frame, position = divmod(i, log.frame_len)
        log._check_kept(frame)
        live = log.timeline.live_at(frame)
        row = i - log._base()
        outcome = _OUTCOMES[log._outcome[row]]
        transmitters = tuple(np.flatnonzero(log._tx[row]).tolist())
        won = outcome is SlotOutcome.SUCCESS
        return SlotRecord(
            slot_index=i, frame_index=frame, frame_position=position,
            outcome=outcome, transmitters=transmitters, live_ids=live,
            reward_vector=tuple(int(won and nid in transmitters)
                                for nid in live),
        )


def _check_node(cfg: NodeConfig, path: str, spec: ScenarioSpec) -> None:
    """What a node's kind requires of its other fields."""
    if cfg.kind == KIND_ALOHA:
        if cfg.q is None:
            raise InvalidScenarioError(f"{path}.q", "aloha requires q")
        if not isinstance(cfg.q, (int, float)) or isinstance(cfg.q, bool):
            raise InvalidScenarioError(f"{path}.q", "must be a number")
        if not 0.0 <= float(cfg.q) <= 1.0:
            raise InvalidScenarioError(f"{path}.q", f"must be in [0, 1], got {cfg.q}")
    if cfg.kind == KIND_TDMA:
        if not cfg.slots:
            raise InvalidScenarioError(f"{path}.slots", "tdma requires owned slots")
        for s in cfg.slots:
            if not isinstance(s, int) or not 0 <= s < spec.frame_len:
                raise InvalidScenarioError(
                    f"{path}.slots", f"slot {s} outside [0, {spec.frame_len})"
                )
        if len(set(cfg.slots)) != len(cfg.slots):
            raise InvalidScenarioError(f"{path}.slots", "duplicate slot entries")
    if cfg.kind in (KIND_CSMA, KIND_FW_ALOHA, KIND_EB_ALOHA):
        if cfg.window is None or cfg.window < 1:
            raise InvalidScenarioError(
                f"{path}.window", "backoff kinds require window >= 1"
            )
    if cfg.kind in (KIND_CSMA, KIND_EB_ALOHA):
        if cfg.max_stage is None or cfg.max_stage < 0:
            raise InvalidScenarioError(
                f"{path}.max_stage", "requires max_stage >= 0"
            )


_INTEGER = "must be an integer"
MAC_FORMAT = ScenarioFormat(
    version="mac-v1", spec_type=ScenarioSpec, member_type=NodeConfig,
    member_key="nodes", tag="kind", tags=ALL_KINDS,
    member_fields=(
        Field("join_frame", finite_integer, _INTEGER, 0),
        Field("window", nullable(finite_integer), _INTEGER, None),
        Field("max_stage", nullable(finite_integer), _INTEGER, None),
        Field("leave_frame", nullable(finite_integer), _INTEGER, None),
        Field("q", nullable(finite_number), "must be a finite number", None),
        Field("slots", lambda v: isinstance(v, list) and all(
            map(finite_integer, v)), "must be a list of integers", None,
            tuple),
    ),
    fields=(
        Field("total_frames", finite_integer, _INTEGER),
        Field("seed", finite_integer, _INTEGER),
        Field("frame_len", finite_integer, _INTEGER, DEFAULT_FRAME_LEN),
        Field("slot_duration_ms", finite_number, "must be a finite number",
              DEFAULT_SLOT_MS),
    ),
    ranges=(("frame_len", lambda v: v < 1, "must be >= 1"),
            ("total_frames", lambda v: v < 1, "must be >= 1"),
            ("seed", lambda v: v < 0, "must be >= 0")),
    lifetime=("join_frame", "leave_frame"),
    check_member=_check_node,
)


def node_rng(seed: int, node_id: int) -> np.random.Generator:
    """Dedicated stream for one node, stable under population changes."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(node_id,)))


def purpose_rng(seed: int, *key: int) -> np.random.Generator:
    """Stream for non-node purposes (agent exploration, demos, ...).

    Spawn keys >= 10000 so they can never collide with node streams.
    """
    return np.random.default_rng(
        np.random.SeedSequence(seed, spawn_key=tuple(10000 + k for k in key))
    )


class _BackoffMachine:
    """Sends when its backoff counter w reaches zero. After each own
    transmission w is redrawn from a window that doubles per collision
    stage, up to ``max_stage``."""

    def __init__(self, cfg: NodeConfig, rng: np.random.Generator):
        self.cfg = cfg
        self.rng = rng
        self.stage = 0
        self.w = int(self.rng.integers(0, self.current_window()))

    def current_window(self) -> int:
        capped = min(self.stage, self.cfg.max_stage)
        return self.cfg.window * (2 ** capped)

    def decide(self, carrier_busy: bool) -> bool:
        if self.w == 0:
            return True
        self.w -= 1
        return False

    def on_outcome(self, outcome: SlotOutcome) -> None:
        if outcome is SlotOutcome.COLLIDED:
            self.stage = min(self.stage + 1, self.cfg.max_stage)
        elif outcome is SlotOutcome.SUCCESS:
            self.stage = 0
        self.w = int(self.rng.integers(0, self.current_window()))


class FwAlohaMachine(_BackoffMachine):
    """Waits a uniform w in [0, W-1] slots between transmissions."""

    def __init__(self, cfg: NodeConfig, rng: np.random.Generator):
        super().__init__(replace(cfg, max_stage=0), rng)


class EbAlohaMachine(_BackoffMachine):
    """Fixed-window ALOHA with binary exponential backoff on collisions."""


class CsmaMachine(_BackoffMachine):
    """Carrier-sensing backoff.

    The counter only moves in slots sensed idle; it is frozen while some
    other node has already committed to transmit. The node sends in the
    idle slot where the counter reaches zero.
    """

    def decide(self, carrier_busy: bool) -> bool:
        if carrier_busy:
            return False
        if self.w > 0:
            self.w -= 1
        return self.w == 0


# the stateful kinds; every other kind is memoryless
_MACHINES = {
    KIND_CSMA: CsmaMachine,
    KIND_FW_ALOHA: FwAlohaMachine,
    KIND_EB_ALOHA: EbAlohaMachine,
}


class BernoulliSlotPolicy:
    """Transmit with the per-slot probability of a policy vector.

    One vector per controlled node id; draws come from a purpose stream
    so they never interfere with node streams. Used both for externally
    fixed reference policies and as the actuation layer of the agent.
    """

    stream_key = 1      # purpose stream of the actuation draws

    def __init__(self, seed: int, vectors: Dict[int, Sequence[float]]):
        self.seed = seed
        self.vectors: Dict[int, List[float]] = {}
        self._rngs: Dict[int, np.random.Generator] = {}
        for nid, v in vectors.items():
            self.set_vector(nid, v)

    def set_vector(self, nid: int, vector: Sequence[float]) -> None:
        self.vectors[nid] = list(vector)
        if nid not in self._rngs:
            self._rngs[nid] = purpose_rng(self.seed, self.stream_key, nid)


class MacEnvironment:
    """Live simulation state plus the accumulated trajectory log."""

    def __init__(self, spec: ScenarioSpec):
        validate_scenario(spec)
        self.spec = spec
        self.frame_len = spec.frame_len
        self.machines: Dict[int, _BackoffMachine] = {}
        self.live: List[int] = []
        self.log = TrajectoryLog(
            spec.frame_len, Timeline(MAC_FORMAT.lifetimes(spec.nodes)))
        self._rngs = {
            nid: node_rng(spec.seed, nid) for nid in range(len(spec.nodes))
        }
        self._enter(self.log.timeline.live_at(0))

    @property
    def slot_index(self) -> int:
        return self.log.n_slots

    @property
    def frame_index(self) -> int:
        return self.slot_index // self.frame_len

    def _enter(self, live: Sequence[int]) -> None:
        """Take ``live`` as the live set, at a frame boundary.

        A fresh state machine is built for every newly joined stateful
        node; each machine keeps drawing from its own node stream, so the
        rest of the population is unaffected.
        """
        for nid in set(self.machines) - set(live):
            del self.machines[nid]
        for nid in live:
            cfg = self.spec.nodes[nid]
            if nid not in self.machines and cfg.kind in _MACHINES:
                self.machines[nid] = _MACHINES[cfg.kind](cfg, self._rngs[nid])
        self.live = list(live)

    def _policy_vectors(self, policy: Optional[BernoulliSlotPolicy]) \
            -> Dict[int, np.ndarray]:
        """The vector of every live controlled node, checked."""
        vectors = {}
        for nid in self.live:
            if self.spec.nodes[nid].kind not in CONTROLLED_KINDS:
                continue
            vector = None if policy is None else policy.vectors.get(nid)
            if vector is None:
                raise MissingDecisionError(
                    f"no decision for controlled node {nid} at slot "
                    f"{self.slot_index}")
            if len(vector) != self.frame_len:
                raise InvalidScenarioError(
                    f"policy.vectors[{nid}]",
                    f"length {len(vector)} does not match frame_len "
                    f"{self.frame_len}")
            vectors[nid] = np.asarray(vector, dtype=float)
        return vectors

    def _run_segment(self, policy: Optional[BernoulliSlotPolicy],
                     n_slots: int) -> None:
        """Resolve ``n_slots`` slots with the live set held fixed."""
        vectors = self._policy_vectors(policy)
        nodes = self.spec.nodes
        aloha = [nid for nid in self.live if nodes[nid].kind == KIND_ALOHA]
        tdma = {nid: np.isin(np.arange(self.frame_len), nodes[nid].slots)
                for nid in self.live if nodes[nid].kind == KIND_TDMA}
        # backoff ALOHA in id order, then CSMA in id order
        walkers = [(nid, self.machines[nid]) for _, nid in sorted(
            (nodes[nid].kind == KIND_CSMA, nid)
            for nid in self.live if nid in self.machines)]
        for start in range(0, n_slots, KERNEL_CHUNK_SLOTS):
            n = min(KERNEL_CHUNK_SLOTS, n_slots - start)
            positions = np.arange(self.slot_index,
                                  self.slot_index + n) % self.frame_len
            tx = np.zeros((n, len(nodes)), dtype=bool)
            for nid in aloha:
                tx[:, nid] = self._rngs[nid].random(n) < nodes[nid].q
            for nid, owned in tdma.items():
                tx[:, nid] = owned[positions]
            for nid, vector in vectors.items():
                tx[:, nid] = policy._rngs[nid].random(n) < vector[positions]
            counts = tx.sum(axis=1)
            if walkers:
                counts = _walk(walkers, tx, counts)
            self.log.append_slots(_CODE_BY_COUNT[np.minimum(counts, 2)], tx)


def _walk(walkers: List[Tuple[int, _BackoffMachine]], tx: np.ndarray,
          counts: np.ndarray) -> np.ndarray:
    """Step the stateful nodes through one chunk, slot by slot, on top of
    the memoryless transmitters already in ``tx`` and ``counts``. Each
    machine senses every transmitter counted before it; ``tx`` is updated
    in place and the new counts returned."""
    counts = counts.tolist()
    for t, count in enumerate(counts):
        sent = []
        for nid, machine in walkers:
            if machine.decide(bool(count or sent)):
                sent.append((nid, machine))
        if sent:
            count += len(sent)
            outcome = SlotOutcome.SUCCESS if count == 1 \
                else SlotOutcome.COLLIDED
            for nid, machine in sent:
                machine.on_outcome(outcome)
                tx[t, nid] = True
            counts[t] = count
    return np.array(counts)


def run_frames(env: MacEnvironment, policy: Optional[BernoulliSlotPolicy],
               n_frames: int) -> TrajectoryLog:
    """Run ``n_frames`` full frames, one live-set stretch of the log's
    timeline at a time; ``policy`` must hold a ``frame_len``-entry vector
    for every live controlled node (it may be None when there are none).
    Play stops at every frame count where the log may retire a block, and
    the log retires what it may."""
    log = env.log
    start = env.frame_index
    for _, end, live in log.timeline.stretches(start, start + n_frames):
        env._enter(live)
        while env.frame_index < end:
            stop = min(end, log.next_retire())
            env._run_segment(policy, (stop - env.frame_index) * env.frame_len)
            log.retire()
    return log
