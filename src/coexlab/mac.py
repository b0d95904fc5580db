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

Kernel: ``run_frames`` cuts its frames at the join and leave frames of
``spec.nodes`` and, within each such segment, resolves up to
``KERNEL_CHUNK_SLOTS`` slots at a time. The live set and the policy
vectors are fixed inside a segment, and aloha, tdma and controlled nodes
have no memory, so each of them is drawn in bulk: one ``random(n)`` call
on its own stream, or its owned-slot mask, per chunk. Only the stateful
backoff kinds are walked slot by slot, backoff ALOHA in id order and
then CSMA in id order sensing every transmitter counted so far, through
their machines' ``decide`` and ``on_outcome``. Outcome codes come from
the per-slot transmitter counts. The result is bit-identical to deciding
one slot at a time: ``Generator.random(n)`` yields the same doubles as n
scalar ``random()`` calls, every stream is private to one node, and each
stateful machine sees the same slots, and draws in the same ones.
"""

from __future__ import annotations

import enum
import json
from collections import abc
from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .errors import InvalidScenarioError, MissingDecisionError
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
    agent_probs: Dict[int, float] = field(default_factory=dict)


_OUTCOMES = tuple(SlotOutcome)      # outcome code -> outcome
# outcome code by a slot's transmitter count, capped at 2
_CODE_BY_COUNT = np.array([_OUTCOMES.index(o) for o in (
    SlotOutcome.IDLE, SlotOutcome.SUCCESS, SlotOutcome.COLLIDED)],
    dtype=np.int8)

# Slots one kernel pass resolves at most; bounds its temporary arrays
# whatever the horizon.
KERNEL_CHUNK_SLOTS = 1 << 16


class TrajectoryLog:
    """Slot history of a run, stored as columns: per slot an outcome code,
    a transmit flag per node and each controlled node's slot probability,
    in numpy arrays that grow by doubling. Liveness is kept once per
    population segment, which takes effect at the first slot of its start
    frame. The counting methods cover the logged slots of frames
    ``[f0, f1)``, 0 <= f0 <= f1; ``records`` rebuilds ``SlotRecord``s on
    demand."""

    def __init__(self, frame_len: int, n_nodes: int,
                 controlled: Sequence[int] = ()):
        self.frame_len = frame_len
        self.n_nodes = n_nodes
        self.n_slots = 0
        # (start_frame, live node ids) for every population segment, in order.
        self.segments: List[Tuple[int, Tuple[int, ...]]] = []
        self._prob_col = {nid: col for col, nid in enumerate(controlled)}
        self._outcome = np.zeros(1024, dtype=np.int8)
        self._tx = np.zeros((1024, n_nodes), dtype=bool)
        self._prob = np.zeros((1024, len(self._prob_col)))
        self.records = SlotRecordView(self)

    @property
    def n_frames(self) -> int:
        return -(-self.n_slots // self.frame_len)

    def append_slots(self, outcome: np.ndarray, tx: np.ndarray,
                     probs: Dict[int, np.ndarray]) -> None:
        """Append n slots: outcome codes (indexes into ``SlotOutcome``),
        an (n, n_nodes) transmit mask and the slot probabilities of the
        live controlled nodes."""
        i, j = self.n_slots, self.n_slots + len(outcome)
        while j > len(self._outcome):
            self._outcome, self._tx, self._prob = (
                np.concatenate([col, np.zeros_like(col)])
                for col in (self._outcome, self._tx, self._prob))
        self._outcome[i:j] = outcome
        self._tx[i:j] = tx
        for nid, p in probs.items():
            self._prob[i:j, self._prob_col[nid]] = p
        self.n_slots = j

    def _slots(self, f0: int, f1: int) -> slice:
        return slice(min(f0 * self.frame_len, self.n_slots),
                     min(f1 * self.frame_len, self.n_slots))

    def frame_successes(self, f0: int, f1: int) -> np.ndarray:
        """Successes per frame and node id, shape (f1 - f0, n_nodes)."""
        span = self._slots(f0, f1)
        won = np.zeros(((f1 - f0) * self.frame_len, self.n_nodes), dtype=bool)
        success = self._outcome[span] == _OUTCOMES.index(SlotOutcome.SUCCESS)
        np.logical_and(self._tx[span], success[:, None],
                       out=won[:span.stop - span.start])
        return won.reshape(f1 - f0, self.frame_len, -1).sum(
            axis=1, dtype=np.int64)

    def success_rates(self, f0: int, f1: int) -> Dict[int, float]:
        """Successes over live slots, per node id live in the range."""
        won = self.frame_successes(f0, f1).sum(axis=0).tolist()
        live = [0] * self.n_nodes
        for ids, length in self._segment_overlaps(f0, f1):
            for nid in ids:
                live[nid] += length
        return {nid: won[nid] / n for nid, n in enumerate(live) if n}

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
        positions = np.arange(span.start, span.stop) % self.frame_len
        return np.bincount(positions[hit], minlength=self.frame_len).tolist()

    def segments_between(self, f0: int, f1: int) -> List[Tuple[int, ...]]:
        """Live ids of each segment holding a slot in the range, in order."""
        return [ids for ids, _ in self._segment_overlaps(f0, f1)]

    def _segment_overlaps(self, f0: int, f1: int):
        span = self._slots(f0, f1)
        starts = [start * self.frame_len for start, _ in self.segments]
        for (_, ids), start, end in zip(self.segments, starts,
                                        starts[1:] + [self.n_slots]):
            if min(end, span.stop) > max(start, span.start):
                yield ids, min(end, span.stop) - max(start, span.start)


class SlotRecordView(abc.Sequence):
    """Read-only ``Sequence[SlotRecord]`` over a log, built on demand."""

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
        live = [ids for start, ids in log.segments if start <= frame][-1]
        outcome = _OUTCOMES[log._outcome[i]]
        transmitters = tuple(np.flatnonzero(log._tx[i]).tolist())
        won = outcome is SlotOutcome.SUCCESS
        return SlotRecord(
            slot_index=i, frame_index=frame, frame_position=position,
            outcome=outcome, transmitters=transmitters, live_ids=live,
            reward_vector=tuple(int(won and nid in transmitters)
                                for nid in live),
            agent_probs={nid: float(log._prob[i, log._prob_col[nid]])
                         for nid in live if nid in log._prob_col},
        )


def _validate_prob(value, path: str) -> float:
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise InvalidScenarioError(path, "must be a number")
    if not 0.0 <= float(value) <= 1.0:
        raise InvalidScenarioError(path, f"must be in [0, 1], got {value}")
    return float(value)


def validate_node(cfg: NodeConfig, index: int, frame_len: int) -> None:
    path = f"nodes[{index}]"
    if cfg.kind not in ALL_KINDS:
        raise InvalidScenarioError(f"{path}.kind", f"unknown kind {cfg.kind!r}")
    if cfg.kind == KIND_ALOHA:
        if cfg.q is None:
            raise InvalidScenarioError(f"{path}.q", "aloha requires q")
        _validate_prob(cfg.q, f"{path}.q")
    if cfg.kind == KIND_TDMA:
        if not cfg.slots:
            raise InvalidScenarioError(f"{path}.slots", "tdma requires owned slots")
        for s in cfg.slots:
            if not isinstance(s, int) or not 0 <= s < frame_len:
                raise InvalidScenarioError(
                    f"{path}.slots", f"slot {s} outside [0, {frame_len})"
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
    if cfg.join_frame < 0:
        raise InvalidScenarioError(f"{path}.join_frame", "must be >= 0")
    if cfg.leave_frame is not None and cfg.leave_frame <= cfg.join_frame:
        raise InvalidScenarioError(
            f"{path}.leave_frame", "must be greater than join_frame"
        )


def validate_scenario(spec: ScenarioSpec) -> None:
    if spec.frame_len < 1:
        raise InvalidScenarioError("frame_len", "must be >= 1")
    if spec.total_frames < 1:
        raise InvalidScenarioError("total_frames", "must be >= 1")
    if not spec.nodes:
        raise InvalidScenarioError("nodes", "at least one node required")
    for i, cfg in enumerate(spec.nodes):
        validate_node(cfg, i, spec.frame_len)


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

    def on_outcome(self, transmitted: bool, outcome: SlotOutcome) -> None:
        if not transmitted:
            return
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
        self.slot_index = 0
        self.machines: Dict[int, _BackoffMachine] = {}
        self.live: List[int] = []
        self.log = TrajectoryLog(
            spec.frame_len, len(spec.nodes),
            [nid for nid, cfg in enumerate(spec.nodes)
             if cfg.kind in CONTROLLED_KINDS])
        self._rngs = {
            nid: node_rng(spec.seed, nid) for nid in range(len(spec.nodes))
        }
        self.apply_population_event(0)

    @property
    def frame_index(self) -> int:
        return self.slot_index // self.frame_len

    def apply_population_event(self, frame_index: int) -> None:
        """Recompute the live set at a frame boundary.

        A fresh state machine is built for every newly joined stateful
        node; each machine keeps drawing from its own node stream, so the
        rest of the population is unaffected.
        """
        new_live = []
        for nid, cfg in enumerate(self.spec.nodes):
            live = cfg.join_frame <= frame_index and (
                cfg.leave_frame is None or frame_index < cfg.leave_frame
            )
            if live:
                new_live.append(nid)
                if nid not in self.machines and cfg.kind in _MACHINES:
                    self.machines[nid] = _MACHINES[cfg.kind](cfg, self._rngs[nid])
            else:
                self.machines.pop(nid, None)
        if new_live != self.live or not self.log.segments:
            self.live = new_live
            self.log.segments.append((frame_index, tuple(new_live)))

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
            probs = {}
            for nid, vector in vectors.items():
                probs[nid] = vector[positions]
                tx[:, nid] = policy._rngs[nid].random(n) < probs[nid]
            counts = tx.sum(axis=1)
            if walkers:
                counts = _walk(walkers, tx, counts)
            self.log.append_slots(_CODE_BY_COUNT[np.minimum(counts, 2)],
                                  tx, probs)
            self.slot_index += n


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
                machine.on_outcome(True, outcome)
                tx[t, nid] = True
            counts[t] = count
    return np.array(counts)


def build_scenario(spec: ScenarioSpec) -> MacEnvironment:
    return MacEnvironment(spec)


def run_frames(env: MacEnvironment, policy: Optional[BernoulliSlotPolicy],
               n_frames: int) -> TrajectoryLog:
    """Run ``n_frames`` full frames. Population events apply at the
    frames where a node joins or leaves; ``policy`` must hold a
    ``frame_len``-entry vector for every live controlled node (it may be
    None when there are none)."""
    if n_frames < 1:
        return env.log
    start = env.frame_index
    end = start + n_frames
    events = {frame for cfg in env.spec.nodes
              for frame in (cfg.join_frame, cfg.leave_frame)
              if frame is not None and start < frame < end}
    cuts = [start, *sorted(events), end]
    for f0, f1 in zip(cuts, cuts[1:]):
        env.apply_population_event(f0)
        env._run_segment(policy, (f1 - f0) * env.frame_len)
    return env.log


def scenario_to_json(spec: ScenarioSpec) -> str:
    nodes = []
    for cfg in spec.nodes:
        entry: Dict[str, object] = {"kind": cfg.kind}
        if cfg.q is not None:
            entry["q"] = cfg.q
        if cfg.slots is not None:
            entry["slots"] = list(cfg.slots)
        if cfg.window is not None:
            entry["window"] = cfg.window
        if cfg.max_stage is not None:
            entry["max_stage"] = cfg.max_stage
        if cfg.join_frame:
            entry["join_frame"] = cfg.join_frame
        if cfg.leave_frame is not None:
            entry["leave_frame"] = cfg.leave_frame
        nodes.append(entry)
    doc = {
        "version": "mac-v1",
        "frame_len": spec.frame_len,
        "total_frames": spec.total_frames,
        "slot_duration_ms": spec.slot_duration_ms,
        "seed": spec.seed,
        "nodes": nodes,
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def scenario_from_doc(doc: object) -> ScenarioSpec:
    """Parse a decoded ``mac-v1`` scenario document, checking each field's
    type before the values are validated."""
    if not isinstance(doc, dict):
        raise InvalidScenarioError("$", "scenario must be a JSON object")
    if doc.get("version") != "mac-v1":
        raise InvalidScenarioError("version", f"expected mac-v1, got {doc.get('version')!r}")
    raw_nodes = doc.get("nodes")
    if not isinstance(raw_nodes, list):
        raise InvalidScenarioError("nodes", "must be a list")
    nodes = []
    for i, raw in enumerate(raw_nodes):
        if not isinstance(raw, dict):
            raise InvalidScenarioError(f"nodes[{i}]", "must be an object")
        known = {"kind", "q", "slots", "window", "max_stage", "join_frame",
                 "leave_frame"}
        for key in raw:
            if key not in known:
                raise InvalidScenarioError(f"nodes[{i}].{key}", "unknown field")
        if not finite_integer(raw.get("join_frame", 0)):
            raise InvalidScenarioError(f"nodes[{i}].join_frame",
                                       "must be an integer")
        for key in ("window", "max_stage", "leave_frame"):
            if raw.get(key) is not None and not finite_integer(raw[key]):
                raise InvalidScenarioError(f"nodes[{i}].{key}",
                                           "must be an integer")
        if raw.get("q") is not None and not finite_number(raw["q"]):
            raise InvalidScenarioError(f"nodes[{i}].q",
                                       "must be a finite number")
        if "slots" in raw and not (
                isinstance(raw["slots"], list)
                and all(finite_integer(s) for s in raw["slots"])):
            raise InvalidScenarioError(f"nodes[{i}].slots",
                                       "must be a list of integers")
        nodes.append(NodeConfig(
            kind=raw.get("kind", ""),
            q=raw.get("q"),
            slots=tuple(raw["slots"]) if "slots" in raw else None,
            window=raw.get("window"),
            max_stage=raw.get("max_stage"),
            join_frame=raw.get("join_frame", 0),
            leave_frame=raw.get("leave_frame"),
        ))
    ints = {"total_frames": doc.get("total_frames"), "seed": doc.get("seed"),
            "frame_len": doc.get("frame_len", DEFAULT_FRAME_LEN)}
    for key, value in ints.items():
        if not finite_integer(value):
            raise InvalidScenarioError(key, "must be an integer")
    slot_duration_ms = doc.get("slot_duration_ms", DEFAULT_SLOT_MS)
    if not finite_number(slot_duration_ms):
        raise InvalidScenarioError("slot_duration_ms",
                                   "must be a finite number")
    spec = ScenarioSpec(nodes=nodes, slot_duration_ms=slot_duration_ms,
                        **ints)
    validate_scenario(spec)
    return spec
