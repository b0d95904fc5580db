"""The commands that read or add to artifacts but run no experiment:
``oracle``, ``demos``, ``eval`` and ``trace``, with the CSV readers only
``eval`` needs.

A ``coexlab run`` never calls them, so the CLI imports this module only
inside their handlers, and a run neither compiles it nor loads ``csv``.
Their artifacts follow the runner's conventions and go through its
writers.
"""

from __future__ import annotations

import csv
import math
import os
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .errors import (
    InvalidScenarioError,
    TracingDisabledError,
    UnsupportedPopulationError,
)
from .mac import ScenarioSpec
from .metrics import ThroughputSeries, rmse_vs_reference
from .oracle import aware_trajectory, check_alpha
from .runner import (
    ARTIFACT_CONFIG,
    ARTIFACT_DEMOS,
    ARTIFACT_DOT,
    ARTIFACT_EVAL,
    ARTIFACT_METRICS,
    ARTIFACT_ORACLE,
    ARTIFACT_REFERENCE,
    ARTIFACT_THROUGHPUT,
    ARTIFACT_TRACE,
    ARTIFACT_TRAJECTORY,
    ARTIFACT_TREE,
    _cell,
    _read_json,
    _rmse,
    _segment_policies,
    _write_file,
    _write_json,
    _write_reference,
    _write_text,
    load_scenario,
    mac_metrics_report,
    metrics_report,
)
from .agent.config import AgentConfig, checked_agent_settings
from .agent.demos import demo_bundle
from .agent.trace import TraceNode, trace_from_doc


def cmd_oracle(scenario_path: str, out_dir: str,
               alpha: float = 1.0) -> Dict[str, object]:
    """Analytic reference for a slot scenario: per-segment policies and
    the per-frame reference trajectory."""
    check_alpha(alpha)
    if not os.path.isfile(scenario_path):
        raise InvalidScenarioError("scenario",
                                   f"no such file: {scenario_path}")
    spec = load_scenario(scenario_path)
    if not isinstance(spec, ScenarioSpec):
        raise UnsupportedPopulationError(
            "flow scenarios have no slot-level analytic reference")
    reference, segments = aware_trajectory(spec, alpha=alpha)
    report: Dict[str, object] = {
        "artifact": "oracle-v1",
        "alpha": alpha,
        "frame_len": spec.frame_len,
        "total_frames": spec.total_frames,
        "segments": [],
    }
    for seg in segments:
        report["segments"].append({
            "start_frame": seg.start_frame,
            "end_frame": seg.end_frame,
            "live_ids": list(seg.live_ids),
            "objective": _cell(seg.solution.objective),
            "caveat": seg.solution.caveat,
            "policies": {str(nid): [_cell(p) for p in vec]
                         for nid, vec in _segment_policies(spec, seg)},
            "throughputs": {str(nid): _cell(val)
                            for nid, val in sorted(seg.node_values.items())},
        })
    os.makedirs(out_dir, exist_ok=True)
    _write_json(os.path.join(out_dir, ARTIFACT_ORACLE), report)
    _write_file(os.path.join(out_dir, ARTIFACT_REFERENCE),
                _write_reference, reference)
    return report


def cmd_demos(family: str, k: int, seed: int, out_dir: str) -> str:
    bundle = demo_bundle(family, k, seed)
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, ARTIFACT_DEMOS)
    _write_json(path, bundle.doc())
    return path


def _artifact(run_dir: str, name: str) -> str:
    path = os.path.join(run_dir, name)
    if not os.path.isfile(path):
        raise InvalidScenarioError("run_dir",
                                   f"missing artifact: {path}")
    return path


def _csv_rows(path: str, name: str, columns: int) -> List[List[str]]:
    """A CSV file's rows, header first, each as wide as its header."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or len(rows[0]) < columns or \
            any(len(row) != len(rows[0]) for row in rows):
        raise InvalidScenarioError(name, f"needs a header of {columns}+ "
                                         "cells and rows as wide as it")
    return rows


def _read_wide_csv(path: str,
                   name: str) -> Tuple[List[int], Dict[int, List[float]]]:
    """The ``frame`` and ``node_<id>`` columns of a per-frame CSV."""
    header, *rows = _csv_rows(path, name, 1)
    if header[0] != "frame":
        raise InvalidScenarioError(name, "first column must be frame")
    ids = _column_ids(header[1:], name, "node_")
    index: List[int] = []
    values: Dict[int, List[float]] = {i: [] for i in ids}
    for row in rows:
        index.append(int(row[0]))
        for i, cell in zip(ids, row[1:]):
            values[i].append(float(cell))
    for column in values.values():
        _check_finite(column, name)
    return index, values


def _column_ids(cells: Sequence[str], name: str, prefix: str) -> List[int]:
    """The distinct ids of cells that each read ``prefix`` and an int."""
    tails = [cell[len(prefix):] for cell in cells]
    if not all(cell.startswith(prefix) and tail.isascii() and tail.isdigit()
               for cell, tail in zip(cells, tails)):
        raise InvalidScenarioError(name, f"ids must read {prefix}<int>")
    ids = [int(tail) for tail in tails]
    if len(set(ids)) != len(ids):
        raise InvalidScenarioError(name, "repeats an id")
    return ids


def _check_finite(values: Iterable[float], name: str) -> None:
    if not all(map(math.isfinite, values)):
        raise InvalidScenarioError(name, "holds a non-finite number")


def cmd_eval(run_dir: str,
             reference_path: Optional[str] = None) -> Dict[str, object]:
    """Recompute the metrics summary from a run directory's artifacts."""
    cfg_doc = _read_json(_artifact(run_dir, ARTIFACT_CONFIG), ARTIFACT_CONFIG)
    family = cfg_doc.get("family") if isinstance(cfg_doc, dict) else None
    if family not in ("mac", "tcp"):
        raise InvalidScenarioError(
            ARTIFACT_CONFIG, "must be an object whose family is mac or tcp")
    if reference_path is not None:
        if family != "mac":
            raise InvalidScenarioError(
                "--reference", f"a {family} run has no reference trajectory")
        if not os.path.isfile(reference_path):
            raise InvalidScenarioError("--reference",
                                       f"no such file: {reference_path}")
    agent_cfg = AgentConfig(**checked_agent_settings(cfg_doc.get("agent")))
    trajectory = _artifact(run_dir, ARTIFACT_TRAJECTORY)
    _, *rows = _csv_rows(_artifact(run_dir, ARTIFACT_THROUGHPUT),
                         ARTIFACT_THROUGHPUT, 2)
    means = dict(zip(_column_ids([row[0] for row in rows],
                                 ARTIFACT_THROUGHPUT, ""),
                     (float(row[1]) for row in rows)))
    _check_finite(means.values(), ARTIFACT_THROUGHPUT)

    if family == "mac":
        frames, values = _read_wide_csv(trajectory, ARTIFACT_TRAJECTORY)
        series = ThroughputSeries(frames=frames, values=values,
                                  window_frames=agent_cfg.window_frames)
        rmse = None
        ref_file = reference_path or os.path.join(run_dir, ARTIFACT_REFERENCE)
        if os.path.isfile(ref_file):
            ref_frames, reference = _read_wide_csv(ref_file, ref_file)
            # the reference is read by row, so row r must hold frame r
            if ref_frames != list(range(1, len(ref_frames) + 1)):
                raise InvalidScenarioError(
                    ref_file, "frames must run 1, 2, ... in row order")
            # a node may join at the horizon: in the reference, in no window
            missing = sorted(set(values) - set(reference))
            if missing:
                raise InvalidScenarioError(
                    ref_file, f"has no column for node_{missing[0]}, "
                              f"which {ARTIFACT_TRAJECTORY} holds")
            # every frame past the warm-up is compared with the reference
            last = max(frames, default=0)
            if last > max(agent_cfg.warmup_frames, len(ref_frames)):
                raise InvalidScenarioError(
                    ref_file, f"ends at frame {len(ref_frames)}, before "
                              f"frame {last} of {ARTIFACT_TRAJECTORY}")
            rmse = _rmse(lambda: rmse_vs_reference(
                series, reference, agent_cfg.warmup_frames))
        summary = mac_metrics_report(means, rmse, agent_cfg)
    else:
        metrics_doc = _read_json(_artifact(run_dir, ARTIFACT_METRICS),
                                 ARTIFACT_METRICS)
        if not isinstance(metrics_doc, dict) or "params" not in metrics_doc:
            raise InvalidScenarioError(ARTIFACT_METRICS,
                                       "must be an object holding params")
        summary = metrics_report(
            "tcp", metrics_doc["params"], means, agent_cfg.alpha,
            social_reward=metrics_doc.get("social_reward"))
    summary["artifact"] = "eval-v1"
    _write_json(os.path.join(run_dir, ARTIFACT_EVAL), summary)
    return summary


def _traced_run(run_dir: str) -> bool:
    """Whether the run's ``config.json`` shows that tracing was on."""
    try:
        doc = _read_json(os.path.join(run_dir, ARTIFACT_CONFIG),
                         ARTIFACT_CONFIG)
    except (OSError, ValueError, InvalidScenarioError):
        return False
    return isinstance(doc, dict) and doc.get("trace") is True


def _tree_text(root: TraceNode) -> str:
    """``trace.txt``: each node's actor and label, indented by depth."""
    lines, stack = [], [(root, 0)]
    while stack:
        node, depth = stack.pop()
        lines.append("  " * depth + f"{node.actor}: {node.label}\n")
        stack.extend((c, depth + 1) for c in reversed(node.children))
    return "".join(lines)


def cmd_trace(run_dir: str) -> Dict[str, str]:
    """Render the decision tree of a traced run as ``trace.txt``, beside
    the ``trace.dot`` the run wrote."""
    path = os.path.join(run_dir, ARTIFACT_TRACE)
    if not os.path.isfile(path):
        if _traced_run(run_dir):
            raise TracingDisabledError(
                f"{run_dir} holds no decision trace: the run drives no "
                f"agent, so it writes none")
        raise TracingDisabledError(
            f"{run_dir} holds no decision trace; rerun with tracing enabled")
    root = trace_from_doc(_read_json(path, ARTIFACT_TRACE)).root
    dot_path = os.path.join(run_dir, ARTIFACT_DOT)
    if not os.path.isfile(dot_path):
        raise InvalidScenarioError(
            ARTIFACT_DOT, f"{run_dir} holds {ARTIFACT_TRACE} but no "
                          f"{ARTIFACT_DOT}; a run writes both, so rerun it")
    tree_path = os.path.join(run_dir, ARTIFACT_TREE)
    _write_text(tree_path, _tree_text(root))
    return {"tree": tree_path, "dot": dot_path}
