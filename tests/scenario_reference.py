"""The per-family scenario parsers, validators and serializers that
``coexlab.scenario`` and its two tables (``mac.MAC_FORMAT``,
``tcp.TCP_FORMAT``) replace, kept as the reference the table-driven path
must equal: the same spec or the same ``InvalidScenarioError`` text for
every document, the same validation error for every spec built in code,
and the same serialized document for every accepted spec.
``scenario_segments`` is the oracle's former population split, which
the ``scenario.Timeline`` stretches of ``[0, total_frames)`` must equal,
and ``live_segments`` the former builder of a timeline's ``segments``.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Sequence, Tuple

from coexlab.errors import InvalidScenarioError
from coexlab.mac import (
    ALL_KINDS,
    DEFAULT_FRAME_LEN,
    DEFAULT_SLOT_MS,
    KIND_ALOHA,
    KIND_CSMA,
    KIND_EB_ALOHA,
    KIND_FW_ALOHA,
    KIND_TDMA,
    NodeConfig,
    ScenarioSpec,
)
from coexlab.strategy import finite_integer, finite_number
from coexlab.tcp import (
    CONTROLLERS,
    DEFAULT_BASE_RTT_S,
    DEFAULT_BUFFER_PKTS,
    DEFAULT_CAPACITY_PPS,
    DEFAULT_CWND_MAX,
    TcpFlowConfig,
    TcpScenarioSpec,
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
    if spec.seed < 0:
        raise InvalidScenarioError("seed", "must be >= 0")
    if not spec.nodes:
        raise InvalidScenarioError("nodes", "at least one node required")
    for i, cfg in enumerate(spec.nodes):
        validate_node(cfg, i, spec.frame_len)


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
    if spec.seed < 0:
        raise InvalidScenarioError("seed", "must be >= 0")
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


def scenario_segments(spec: ScenarioSpec) -> List[Tuple[int, int, Tuple[int, ...]]]:
    """(start, end, live ids) for each population segment, end exclusive."""
    boundaries = {0, spec.total_frames}
    for cfg in spec.nodes:
        if 0 < cfg.join_frame < spec.total_frames:
            boundaries.add(cfg.join_frame)
        if cfg.leave_frame is not None and 0 < cfg.leave_frame < spec.total_frames:
            boundaries.add(cfg.leave_frame)
    ordered = sorted(boundaries)
    segments = []
    for start, end in zip(ordered, ordered[1:]):
        live = tuple(
            nid for nid, cfg in enumerate(spec.nodes)
            if cfg.join_frame <= start and
            (cfg.leave_frame is None or start < cfg.leave_frame)
        )
        segments.append((start, end, live))
    return segments


def live_segments(lifetimes: Sequence[Tuple[int, Optional[int]]]) \
        -> List[Tuple[int, Tuple[int, ...]]]:
    """``(start, live member ids)`` for each stretch with one live set,
    given each member's ``(join, leave)``, leave exclusive or None; cut
    only at join and leave points, the last open-ended."""
    cuts = {0}
    for join, leave in lifetimes:
        cuts.add(join)
        if leave is not None:
            cuts.add(leave)
    segments: List[Tuple[int, Tuple[int, ...]]] = []
    for start in sorted(cuts):
        live = tuple(i for i, (join, leave) in enumerate(lifetimes)
                     if join <= start and (leave is None or start < leave))
        if not segments or segments[-1][1] != live:
            segments.append((start, live))
    return segments
