"""Experiment runner: one command, one self-describing run directory.

Every command writes deterministic artifacts: JSON reports carry sorted
keys and no timestamps, CSV files follow RFC 4180, and transcripts are
sequence-numbered. Re-running a command with the same configuration and
the scripted backend reproduces every artifact byte for byte.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
from dataclasses import asdict, dataclass, field, replace
from typing import (Callable, Dict, Iterable, List, Optional, Sequence,
                    TextIO, Tuple, Union)

import numpy as np

from . import __version__
from .backends import (
    Backend,
    HttpBackend,
    RecordingBackend,
    TranscriptRecorder,
)
from .errors import (
    InvalidScenarioError,
    MetricDomainError,
    TracingDisabledError,
    UnsupportedPopulationError,
)
from .mac import (
    CONTROLLED_KINDS,
    KIND_AGENT,
    KIND_AWARE,
    MAC_FORMAT,
    BernoulliSlotPolicy,
    MacEnvironment,
    ScenarioSpec,
    TrajectoryLog,
    run_frames,
)
from .metrics import (
    ThroughputSeries,
    jain_index,
    node_mean_throughputs,
    rmse_vs_reference,
    windowed_throughput,
)
from .oracle import (
    ReferenceSegment,
    aware_trajectory,
    check_alpha,
    fair_objective,
)
from .scenario import parse_scenario, scenario_doc
from .scripted import ScriptedBackend
from .strategy import (
    DOMAIN_MAC,
    DOMAIN_TCP,
    Strategy,
    strategy_doc,
    strategy_from_doc,
    validate_strategy,
)
from .tcp import (
    CONTROLLER_AGENT,
    TCP_FORMAT,
    TcpEnvironment,
    TcpRoundLog,
    TcpScenarioSpec,
    mean_flow_throughputs,
    mean_social_reward,
    run_rounds,
)
from .agent.config import AgentConfig, checked_agent_settings
from .agent.demos import demo_bundle, demos_to_json
from .agent.offline import OfflineResult, run_offline
from .agent.online import MacPeriodEngine, TcpPeriodEngine
from .agent.trace import DecisionTrace, trace_from_doc

BACKEND_SCRIPTED = "scripted"
BACKEND_HTTP = "http"
BACKEND_NONE = "none"
BACKENDS = (BACKEND_SCRIPTED, BACKEND_HTTP, BACKEND_NONE)

ARTIFACT_CONFIG = "config.json"
ARTIFACT_DEMOS = "demos.json"
ARTIFACT_STRATEGIES = "strategies.json"
ARTIFACT_STRATEGY = "strategy.json"
ARTIFACT_EPISODES = "episodes.json"
ARTIFACT_OFFLINE = "offline_report.json"
ARTIFACT_TRANSCRIPT = "transcript.jsonl"
ARTIFACT_TRAJECTORY = "trajectory.csv"
ARTIFACT_THROUGHPUT = "throughput.csv"
ARTIFACT_REFERENCE = "reference.csv"
ARTIFACT_METRICS = "metrics_report.json"
ARTIFACT_TRACE = "trace.json"
ARTIFACT_DOT = "trace.dot"
ARTIFACT_TREE = "trace.txt"
ARTIFACT_EVAL = "eval_summary.json"
ARTIFACT_ORACLE = "oracle_report.json"

AnyScenario = Union[ScenarioSpec, TcpScenarioSpec]


@dataclass
class RunConfig:
    """Everything one run needs; the on-disk snapshot embeds the scenario
    so a run directory stays reproducible if the input file moves."""

    scenario_path: str
    out_dir: str
    backend: str = BACKEND_SCRIPTED
    seed: Optional[int] = None
    agent: AgentConfig = field(default_factory=AgentConfig)
    trace: bool = True
    strategy_path: Optional[str] = None
    demo_seed: Optional[int] = None
    endpoint: str = ""
    model: str = ""

    def validate(self) -> None:
        if not os.path.isfile(self.scenario_path):
            raise InvalidScenarioError(
                "scenario", f"no such file: {self.scenario_path}")
        if self.strategy_path is not None \
                and not os.path.isfile(self.strategy_path):
            raise InvalidScenarioError(
                "strategy", f"no such file: {self.strategy_path}")
        if self.backend not in BACKENDS:
            raise InvalidScenarioError(
                "backend",
                f"unknown backend {self.backend!r}; choose from {BACKENDS}")
        if self.backend == BACKEND_HTTP and not (self.endpoint and self.model):
            raise InvalidScenarioError(
                "backend", "http backend needs --endpoint and --model")


def _read_json(path: str, error_path: str):
    """The JSON document in ``path``; malformed or too deeply nested text
    is an ``InvalidScenarioError`` at ``error_path``."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidScenarioError(error_path,
                                   f"invalid JSON in {path}: {exc}")
    except RecursionError:
        raise InvalidScenarioError(error_path,
                                   f"{path}: JSON nested too deeply")


def load_scenario(path: str) -> AnyScenario:
    doc = _read_json(path, "$")
    version = doc.get("version") if isinstance(doc, dict) else None
    for fmt in (MAC_FORMAT, TCP_FORMAT):
        if version == fmt.version:
            return parse_scenario(doc, fmt)
    raise InvalidScenarioError(
        "version", f"{path}: expected mac-v1 or tcp-v1, got {version!r}")


def load_cached_strategy(path: str, spec: AnyScenario) -> Strategy:
    """Load a strategy for reuse: either a single strategy document or a
    strategy-set snapshot, in which case the newest entry wins (later
    additions embody all earlier reflections). It must validate against
    ``spec``: its domain, and its frame length (mac) or window cap
    (tcp)."""
    doc = _read_json(path, "strategy")
    if isinstance(doc, dict) and doc.get("version") == "strategies-v1":
        entries = doc.get("strategies", [])
        if not entries:
            raise InvalidScenarioError("strategy", f"{path} holds no strategies")
        doc = entries[-1]
    # the embedded id is recomputed from content on parse
    if isinstance(doc, dict):
        doc = {k: v for k, v in doc.items() if k != "id"}
    strategy = strategy_from_doc(doc)
    if isinstance(spec, ScenarioSpec):
        diags = validate_strategy(strategy, frame_len=spec.frame_len,
                                  domain=DOMAIN_MAC)
    else:
        diags = validate_strategy(strategy, cwnd_max=spec.cwnd_max,
                                  domain=DOMAIN_TCP)
    if diags:
        raise InvalidScenarioError(
            "strategy", f"{path}: " + "; ".join(str(d) for d in diags))
    return strategy


def make_backend(config: RunConfig) -> Optional[Backend]:
    if config.backend == BACKEND_SCRIPTED:
        return ScriptedBackend()
    if config.backend == BACKEND_NONE:
        return None
    return HttpBackend(endpoint=config.endpoint, model=config.model)


# -- artifact writing -------------------------------------------------------


def _write_file(path: str, write: Callable[..., None], *args) -> None:
    """Open ``path`` for text with no newline translation and call
    ``write(fh, *args)``."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        write(fh, *args)


def _write_text(path: str, text: str) -> None:
    _write_file(path, lambda fh: fh.write(text))


def _write_json(path: str, doc: Dict[str, object]) -> None:
    _write_text(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")


# rows the CSV writers format and write at a time
CSV_BLOCK_ROWS = 4096


def _cell(value: object) -> object:
    if isinstance(value, float):
        return round(value, 6)
    return value


def _float_cells(values) -> List[str]:
    """The text ``csv.writer`` gives ``_cell(v)`` for each float ``v`` of
    ``values``: ``repr(round(v, 6))``, computed once per distinct 64-bit
    pattern, so 0.0 and -0.0 stay apart. Run columns repeat most values
    within a block (windowed throughputs are ratios of small counts; cwnd,
    acks and rtt hold across rounds), which makes this several times
    faster than formatting every cell; on all-distinct values it costs
    about a tenth more."""
    column = np.asarray(values, dtype=np.float64)
    bits, index = np.unique(column.view(np.int64), return_inverse=True)
    texts = np.array([repr(round(v, 6))
                      for v in bits.view(np.float64).tolist()], dtype=object)
    return texts[index].tolist()


def _write_csv(fh: TextIO, header: Sequence[str], n_rows: int,
               block: Callable[[int, int], List[List[str]]]) -> None:
    """Write the bytes ``csv.writer`` would, ``CSV_BLOCK_ROWS`` rows at a
    time; ``block(r0, r1)`` gives the cell texts of rows ``[r0, r1)``, one
    list per column. Cells are numbers or empty, so none needs quoting."""
    fh.write(",".join(header) + "\r\n")
    for r0 in range(0, n_rows, CSV_BLOCK_ROWS):
        rows = zip(*block(r0, min(r0 + CSV_BLOCK_ROWS, n_rows)))
        fh.write("\r\n".join(map(",".join, rows)) + "\r\n")


def _write_node_csv(fh: TextIO, frames: Sequence[int],
                    values: Dict[int, List[float]]) -> None:
    """A ``frame`` column, then one column per node id, ascending."""
    node_ids = sorted(values)

    def block(r0: int, r1: int) -> List[List[str]]:
        return [list(map(str, frames[r0:r1]))] + [
            _float_cells(values[nid][r0:r1]) for nid in node_ids]

    _write_csv(fh, ["frame"] + [f"node_{nid}" for nid in node_ids],
               len(frames), block)


def _write_reference(fh: TextIO, reference: Dict[int, List[float]]) -> None:
    total = len(reference[min(reference)]) if reference else 0
    _write_node_csv(fh, range(1, total + 1), reference)


def _write_tcp_trajectory(fh: TextIO, log: TcpRoundLog, n_flows: int) -> None:
    """One row per round; a flow's cells are empty in rounds it is not
    live."""
    header = ["round"]
    for fid in range(n_flows):
        header += [f"flow_{fid}_cwnd", f"flow_{fid}_acks", f"flow_{fid}_rtt"]

    def block(r0: int, r1: int) -> List[List[str]]:
        columns = [list(map(str, range(r0, r1)))]
        rtt = _float_cells(log.rtt[r0:r1])
        for fid in range(n_flows):
            f0, f1 = log.flow_rounds(fid, r0, r1)
            if f0 >= f1:  # not live in any round of the block
                columns += [[""] * (r1 - r0)] * 3
                continue
            head, tail = [""] * (f0 - r0), [""] * (r1 - f1)
            for column in (log.cwnd, log.acks):
                columns.append(head + _float_cells(
                    log.flow_values(column, fid, f0, f1)) + tail)
            columns.append(head + rtt[f0 - r0:f1 - r0] + tail)
        return columns

    _write_csv(fh, header, log.n_rounds, block)


def _write_throughput(fh: TextIO, metrics: Dict[str, object],
                      id_label: str) -> None:
    """The report's mean throughputs, one row per node or flow."""
    ids = list(metrics["mean_throughputs"])
    means = list(metrics["mean_throughputs"].values())
    _write_csv(fh, [id_label, "mean_throughput"], len(ids),
               lambda r0, r1: [ids[r0:r1], _float_cells(means[r0:r1])])


# -- metric reports ---------------------------------------------------------


def mac_metrics_report(series: ThroughputSeries, means: Dict[int, float],
                       reference: Optional[Dict[int, List[float]]],
                       config: AgentConfig) -> Dict[str, object]:
    report: Dict[str, object] = {
        "artifact": "metrics-v1",
        "family": "mac",
        "params": {
            "alpha": config.alpha,
            "window_frames": series.window_frames,
            "warmup_frames": config.warmup_frames,
        },
        "mean_throughputs": {str(n): _cell(v) for n, v in sorted(means.items())},
        "jain": _cell(jain_index(list(means.values()))),
        "alpha_fair": _cell(fair_objective(means.values(), config.alpha)),
        "rmse": None,
    }
    if reference is not None:
        try:
            report["rmse"] = _cell(rmse_vs_reference(
                series, reference, warmup_frames=config.warmup_frames))
        except MetricDomainError:
            pass
    return report


def _tcp_report(means: Dict[int, float], params: Dict[str, object],
                social_reward: Optional[float],
                alpha: float) -> Dict[str, object]:
    return {
        "artifact": "metrics-v1",
        "family": "tcp",
        "params": params,
        "mean_throughputs": {str(f): _cell(v) for f, v in sorted(means.items())},
        "jain": _cell(jain_index(list(means.values()))),
        "alpha_fair": _cell(fair_objective(means.values(), alpha)),
        "social_reward": social_reward,
        "rmse": None,
    }


def tcp_metrics_report(log: TcpRoundLog,
                       config: AgentConfig) -> Dict[str, object]:
    first = log.n_rounds // 2
    return _tcp_report(
        mean_flow_throughputs(log, first_round=first),
        {"alpha": config.alpha, "first_round": first},
        _cell(mean_social_reward(log, first_round=first)), config.alpha)


def _config_snapshot(config: RunConfig, spec: AnyScenario,
                     family: str) -> Dict[str, object]:
    return {
        "artifact": "run-config-v1",
        "package_version": __version__,
        "family": family,
        "backend": config.backend,
        "seed": spec.seed,
        "demo_seed": config.demo_seed if config.demo_seed is not None
        else spec.seed,
        "trace": config.trace,
        "cached_strategy": config.strategy_path is not None,
        "agent": asdict(config.agent),
        "scenario": scenario_doc(spec),
    }


# -- reference actuation ----------------------------------------------------


def _segment_policies(spec: ScenarioSpec, seg: ReferenceSegment):
    """``(node id, policy vector)`` for each controlled node of ``seg``."""
    controlled = [nid for nid in seg.live_ids
                  if spec.nodes[nid].kind in CONTROLLED_KINDS]
    return zip(controlled, seg.solution.policies)


def run_aware_reference(spec: ScenarioSpec,
                        segments: List[ReferenceSegment]) -> TrajectoryLog:
    """Drive every controlled node with the analytic optimum of each of
    ``segments``, the segments of ``aware_trajectory(spec)``.

    This is the reference actuation path: no agent loop, no backend, the
    policy vector switches exactly at population events.
    """
    env = MacEnvironment(spec)
    policy = BernoulliSlotPolicy(spec.seed, {})
    for seg in segments:
        for nid, vec in _segment_policies(spec, seg):
            policy.set_vector(nid, vec)
        run_frames(env, policy, seg.end_frame - seg.start_frame)
    return env.log


# -- commands ---------------------------------------------------------------


@dataclass
class RunResult:
    out_dir: str
    family: str
    metrics: Dict[str, object]
    offline: Optional[OfflineResult] = None


def _offline_artifacts(out: str, family: str, demo_k: int, demo_seed: int,
                       demos, result: OfflineResult) -> None:
    _write_text(os.path.join(out, ARTIFACT_DEMOS),
                demos_to_json(family, demo_k, demo_seed, demos.sets))
    _write_text(os.path.join(out, ARTIFACT_STRATEGIES),
                result.strategies.to_json())
    _write_text(os.path.join(out, ARTIFACT_EPISODES),
                result.episodes.to_json())
    _write_json(os.path.join(out, ARTIFACT_STRATEGY),
                {"id": result.strategy.id, **strategy_doc(result.strategy)})
    _write_json(os.path.join(out, ARTIFACT_OFFLINE), {
        "artifact": "offline-v1",
        "strategy_id": result.strategy.id,
        "j": _cell(result.j),
        "j_target": _cell(result.j_target),
        "target_met": result.target_met,
        "rounds": result.rounds,
        "retries": result.retries,
    })


def _check_mac_horizon(spec: AnyScenario, agent: AgentConfig) -> None:
    """A mac run and its offline evaluation episode each need at least one
    full throughput window."""
    if not isinstance(spec, ScenarioSpec):
        return
    for path, frames in (("total_frames", spec.total_frames),
                         ("agent.eval_frames", agent.eval_frames)):
        if frames < agent.window_frames:
            raise InvalidScenarioError(
                path, f"{frames} frames is shorter than the "
                      f"{agent.window_frames}-frame throughput window")


def _prepare(config: RunConfig) -> Tuple[AnyScenario, str, int]:
    """Validate ``config``, load its seeded scenario and create the output
    directory; returns the scenario, its family and the demo seed."""
    config.validate()
    spec = load_scenario(config.scenario_path)
    if config.seed is not None:
        spec = replace(spec, seed=config.seed)
    _check_mac_horizon(spec, config.agent)
    os.makedirs(config.out_dir, exist_ok=True)
    family = "mac" if isinstance(spec, ScenarioSpec) else "tcp"
    demo_seed = config.demo_seed if config.demo_seed is not None else spec.seed
    return spec, family, demo_seed


def cmd_run(config: RunConfig) -> RunResult:
    """Offline stage (unless a cached strategy is supplied), online stage,
    then the full artifact set."""
    spec, family, demo_seed = _prepare(config)
    out = config.out_dir
    agent_cfg = config.agent

    recorder = TranscriptRecorder()
    backend = make_backend(config)
    wrapped = RecordingBackend(backend, recorder) \
        if backend is not None else None
    trace = DecisionTrace(f"run {os.path.basename(config.scenario_path)}") \
        if config.trace else None

    offline_result: Optional[OfflineResult] = None
    demos = None
    if family == "mac":
        has_aware = any(n.kind == KIND_AWARE for n in spec.nodes)
        has_agent = any(n.kind == KIND_AGENT for n in spec.nodes)
        # the aware path actuates the reference, so it needs one
        try:
            reference, segments = aware_trajectory(spec,
                                                   alpha=agent_cfg.alpha)
        except UnsupportedPopulationError:
            if has_aware:
                raise
            reference = None
        if has_aware:
            log = run_aware_reference(spec, segments)
            trace = None
        elif not has_agent:
            log = run_frames(MacEnvironment(spec), None, spec.total_frames)
            trace = None
        else:
            strategy, offline_result, demos = _obtain_strategy(
                config, wrapped, spec, "mac", demo_seed)
            engine = MacPeriodEngine(spec, strategy, agent_cfg,
                                     backend=wrapped, trace=trace)
            log = engine.run(spec.total_frames)
        series = windowed_throughput(log, agent_cfg.window_frames)
        metrics = mac_metrics_report(series, node_mean_throughputs(log),
                                     reference, agent_cfg)
        _write_file(os.path.join(out, ARTIFACT_TRAJECTORY),
                    _write_node_csv, series.frames, series.values)
        if reference is not None:
            _write_file(os.path.join(out, ARTIFACT_REFERENCE),
                        _write_reference, reference)
    else:
        has_agent = any(f.controller == CONTROLLER_AGENT for f in spec.flows)
        if has_agent:
            strategy, offline_result, demos = _obtain_strategy(
                config, wrapped, spec, "tcp", demo_seed)
            engine = TcpPeriodEngine(spec, strategy, agent_cfg,
                                     backend=wrapped, trace=trace)
            tcp_log = engine.run(spec.total_rounds)
        else:
            tcp_log = run_rounds(TcpEnvironment(spec), None, spec.total_rounds)
            trace = None
        metrics = tcp_metrics_report(tcp_log, agent_cfg)
        _write_file(os.path.join(out, ARTIFACT_TRAJECTORY),
                    _write_tcp_trajectory, tcp_log, len(spec.flows))

    _write_file(os.path.join(out, ARTIFACT_THROUGHPUT), _write_throughput,
                metrics, "node" if family == "mac" else "flow")
    _write_json(os.path.join(out, ARTIFACT_CONFIG),
                _config_snapshot(config, spec, family))
    _write_json(os.path.join(out, ARTIFACT_METRICS), metrics)
    if offline_result is not None and demos is not None:
        _offline_artifacts(out, family, agent_cfg.demo_k, demo_seed,
                           demos, offline_result)
    if wrapped is not None:
        recorder.write(os.path.join(out, ARTIFACT_TRANSCRIPT))
    if trace is not None:
        _write_file(os.path.join(out, ARTIFACT_TRACE), trace.write_json)
        _write_text(os.path.join(out, ARTIFACT_DOT), trace.to_dot())
    return RunResult(out_dir=out, family=family, metrics=metrics,
                     offline=offline_result)


def _obtain_strategy(config: RunConfig, backend: Optional[Backend],
                     spec: AnyScenario, family: str, demo_seed: int):
    if config.strategy_path is not None:
        return load_cached_strategy(config.strategy_path, spec), None, None
    if backend is None:
        raise InvalidScenarioError(
            "backend", "agent scenarios need a backend or a cached strategy")
    demos = demo_bundle(family, config.agent.demo_k, demo_seed,
                        config=config.agent)
    result = run_offline(backend, spec, demos, config.agent)
    # the online stage reads the memories but never writes them
    result.strategies.freeze()
    result.episodes.freeze()
    return result.strategy, result, demos


def cmd_offline(config: RunConfig) -> OfflineResult:
    """Offline stage only; artifacts cover demos, memory and the outcome."""
    spec, family, demo_seed = _prepare(config)
    out = config.out_dir

    backend = make_backend(config)
    if backend is None:
        raise InvalidScenarioError("backend",
                                   "offline learning needs a backend")
    recorder = TranscriptRecorder()
    wrapped = RecordingBackend(backend, recorder)
    demos = demo_bundle(family, config.agent.demo_k, demo_seed,
                        config=config.agent)
    result = run_offline(wrapped, spec, demos, config.agent)

    _write_json(os.path.join(out, ARTIFACT_CONFIG),
                _config_snapshot(config, spec, family))
    _offline_artifacts(out, family, config.agent.demo_k, demo_seed,
                       demos, result)
    recorder.write(os.path.join(out, ARTIFACT_TRANSCRIPT))
    return result


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
    _write_text(path, demos_to_json(family, k, seed, bundle.sets))
    return path


def _read_artifact(run_dir: str, name: str) -> str:
    path = os.path.join(run_dir, name)
    if not os.path.isfile(path):
        raise InvalidScenarioError("run_dir",
                                   f"missing artifact: {path}")
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return fh.read()


def _csv_rows(text: str, name: str, columns: int) -> List[List[str]]:
    """A CSV file's rows, header first, each as wide as its header."""
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or len(rows[0]) < columns or \
            any(len(row) != len(rows[0]) for row in rows):
        raise InvalidScenarioError(name, f"needs a header of {columns}+ "
                                         "cells and rows as wide as it")
    return rows


def _read_wide_csv(text: str, name: str, index_col: str,
                   prefix: str) -> Tuple[List[int], Dict[int, List[float]]]:
    header, *rows = _csv_rows(text, name, 1)
    if header[0] != index_col:
        raise InvalidScenarioError(name, f"first column must be {index_col}")
    ids = _column_ids(header[1:], name, prefix)
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
    cfg_doc = json.loads(_read_artifact(run_dir, ARTIFACT_CONFIG))
    family = cfg_doc.get("family") if isinstance(cfg_doc, dict) else None
    if family not in ("mac", "tcp"):
        raise InvalidScenarioError(
            ARTIFACT_CONFIG, "must be an object whose family is mac or tcp")
    agent_cfg = AgentConfig(**checked_agent_settings(cfg_doc.get("agent")))
    trajectory = _read_artifact(run_dir, ARTIFACT_TRAJECTORY)
    _, *rows = _csv_rows(_read_artifact(run_dir, ARTIFACT_THROUGHPUT),
                         ARTIFACT_THROUGHPUT, 2)
    means = dict(zip(_column_ids([row[0] for row in rows],
                                 ARTIFACT_THROUGHPUT, ""),
                     (float(row[1]) for row in rows)))
    _check_finite(means.values(), ARTIFACT_THROUGHPUT)

    if family == "mac":
        frames, values = _read_wide_csv(trajectory, ARTIFACT_TRAJECTORY,
                                        "frame", "node_")
        series = ThroughputSeries(frames=frames, values=values,
                                  window_frames=agent_cfg.window_frames)
        reference = None
        ref_file = reference_path or os.path.join(run_dir, ARTIFACT_REFERENCE)
        if os.path.isfile(ref_file):
            with open(ref_file, "r", encoding="utf-8", newline="") as fh:
                _, reference = _read_wide_csv(fh.read(), ref_file,
                                              "frame", "node_")
        summary = mac_metrics_report(series, means, reference, agent_cfg)
    else:
        metrics_doc = json.loads(_read_artifact(run_dir, ARTIFACT_METRICS))
        if not isinstance(metrics_doc, dict) or "params" not in metrics_doc:
            raise InvalidScenarioError(ARTIFACT_METRICS,
                                       "must be an object holding params")
        summary = _tcp_report(means, metrics_doc["params"],
                              metrics_doc.get("social_reward"),
                              agent_cfg.alpha)
    summary["artifact"] = "eval-v1"
    _write_json(os.path.join(run_dir, ARTIFACT_EVAL), summary)
    return summary


def cmd_trace(run_dir: str) -> Dict[str, str]:
    """Render the decision tree of a traced run as text and DOT files."""
    path = os.path.join(run_dir, ARTIFACT_TRACE)
    if not os.path.isfile(path):
        raise TracingDisabledError(
            f"{run_dir} holds no decision trace; rerun with tracing enabled")
    trace = trace_from_doc(_read_json(path, ARTIFACT_TRACE))
    tree_path = os.path.join(run_dir, ARTIFACT_TREE)
    dot_path = os.path.join(run_dir, ARTIFACT_DOT)
    _write_text(tree_path, trace.render())
    _write_text(dot_path, trace.to_dot())
    return {"tree": tree_path, "dot": dot_path}
