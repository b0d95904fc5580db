"""Experiment runner: one command, one self-describing run directory.

This module holds ``cmd_run`` and ``cmd_offline``, the artifact writers
and the end-of-run readers; the commands a run never calls (oracle,
demos, eval and trace) live in ``coexlab.commands`` and reuse the
writers from here. ``cmd_run`` plays every scenario, MAC or TCP, agent
or not, through one sequence (``_run_stages``), and both families'
readers share one protocol: fed ranges of the log in order, each range
written as one CSV block, then ``finish(log)``.

Every command writes deterministic artifacts: JSON reports carry sorted
keys and no timestamps, CSV files follow RFC 4180, and transcripts are
sequence-numbered. Re-running a command with the same configuration and
the scripted backend reproduces every artifact byte for byte.
"""

from __future__ import annotations

import contextlib
import json
import os
from dataclasses import asdict, dataclass, field, replace
from functools import partial
from itertools import chain, islice, repeat
from typing import (Callable, Dict, Iterable, List, Mapping, Optional,
                    Sequence, TextIO, Tuple, Union)

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
    SquaredErrors,
    SuccessTotals,
    ThroughputWindows,
    jain_index,
    series_node_ids,
)
from .oracle import (
    ReferenceSegment,
    aware_trajectory,
    fair_objective,
)
from .scenario import Timeline, parse_scenario, scenario_doc
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
    RewardTotal,
    TcpEnvironment,
    TcpRoundLog,
    TcpScenarioSpec,
    ThroughputTotals,
    run_rounds,
)
from .agent.config import AgentConfig
from .agent.demos import demo_bundle, demos_doc
from .agent.offline import OfflineResult, run_offline
from .agent.online import MacPeriodEngine, TcpPeriodEngine
from .agent.trace import (
    DecisionTrace,
    TraceSink,
    indented_json,
)

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
ARTIFACT_REPLICAS = "replicas.json"
# every file a command writes into a run directory
ARTIFACTS = (ARTIFACT_CONFIG, ARTIFACT_DEMOS, ARTIFACT_STRATEGIES,
             ARTIFACT_STRATEGY, ARTIFACT_EPISODES, ARTIFACT_OFFLINE,
             ARTIFACT_TRANSCRIPT, ARTIFACT_TRAJECTORY, ARTIFACT_THROUGHPUT,
             ARTIFACT_REFERENCE, ARTIFACT_METRICS, ARTIFACT_TRACE,
             ARTIFACT_DOT, ARTIFACT_TREE, ARTIFACT_EVAL, ARTIFACT_ORACLE,
             ARTIFACT_REPLICAS)

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
        # the scenario format checks a seed read from the file
        for name in ("seed", "demo_seed"):
            if getattr(self, name) is not None and getattr(self, name) < 0:
                raise InvalidScenarioError(name, "must be >= 0")


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
        entries = doc.get("strategies")
        if not isinstance(entries, list) or not entries:
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
    _write_text(path, indented_json(doc) + "\n")


# rows ``_write_csv`` formats at a time, and rows joined into one write;
# the readers of a run write each range of the log they are fed as one
# block instead
CSV_BLOCK_ROWS = 512
_CHUNK_ROWS = 256


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


Block = Callable[[int, int], Sequence[Iterable[str]]]


def _write_csv(fh: TextIO, header: Sequence[str], n_rows: int,
               block: Block) -> None:
    """Write the bytes ``csv.writer`` would: the header, then rows
    ``[0, n_rows)``, ``CSV_BLOCK_ROWS`` at a time; ``block(r0, r1)`` gives
    the cell texts of rows ``[r0, r1)``."""
    fh.write(",".join(header) + "\r\n")
    for r0 in range(0, n_rows, CSV_BLOCK_ROWS):
        # one expression, so that no name holds a block's cells while the
        # next block's are made
        _write_block(fh, block(r0, min(r0 + CSV_BLOCK_ROWS, n_rows)))


def _write_block(fh: TextIO, columns: Sequence[Iterable[str]]) -> None:
    """Write one block of rows, given the cell texts of each column; the
    rows end with the shortest column. Lines are joined ``_CHUNK_ROWS`` at
    a time: one string per chunk, not per line, and never the block's
    whole text. Cells are numbers or empty, so none needs quoting."""
    lines = map(",".join, zip(*columns))
    while True:
        # an empty last line gives the chunk its final line break; a row
        # is never empty, so only the end of the block gives no text
        text = "\r\n".join(chain(islice(lines, _CHUNK_ROWS), ("",)))
        if not text:
            return
        fh.write(text)


def _node_header(node_ids: Sequence[int]) -> List[str]:
    return ["frame"] + [f"node_{nid}" for nid in node_ids]


def _node_cells(frames: Sequence[int], values: Mapping[int, Sequence[float]],
                r0: int = 0, r1: Optional[int] = None) -> List[List[str]]:
    """The cells of rows ``[r0, r1)`` of a ``frame`` column, then of one
    column per node id, ascending."""
    return [list(map(str, frames[r0:r1]))] + [
        _float_cells(values[nid][r0:r1]) for nid in sorted(values)]


def _write_node_csv(fh: TextIO, frames: Sequence[int],
                    values: Mapping[int, Sequence[float]]) -> None:
    """A ``frame`` column, then one column per node id, ascending."""
    _write_csv(fh, _node_header(sorted(values)), len(frames),
               partial(_node_cells, frames, values))


def _write_reference(fh: TextIO,
                     reference: Mapping[int, Sequence[float]]) -> None:
    total = len(reference[min(reference)]) if reference else 0
    _write_node_csv(fh, range(1, total + 1), reference)


def _tcp_trajectory_block(log: TcpRoundLog, n_flows: int, r0: int,
                          r1: int) -> List[Iterable[str]]:
    """The cells of rounds ``[r0, r1)``; a flow's cells are empty in rounds
    it is not live."""
    columns: List[Iterable[str]] = [map(str, range(r0, r1))]
    # zip stops at the round column, so padding may run on without end
    empty = repeat("")
    rtt = _float_cells(log.rtt_values(r0, r1))
    for fid in range(n_flows):
        f0, f1 = log.flow_rounds(fid, r0, r1)
        if f0 >= f1:  # not live in any round of the block
            columns += [empty] * 3
            continue
        cells = [_float_cells(log.flow_values(log.cwnd, fid, f0, f1)),
                 _float_cells(log.flow_values(log.acks, fid, f0, f1)),
                 islice(rtt, f0 - r0, f1 - r0)]
        if (f0, f1) != (r0, r1):  # joins or leaves inside the block
            cells = [chain(repeat("", f0 - r0), column, empty)
                     for column in cells]
        columns += cells
    return columns


def _write_throughput(fh: TextIO, metrics: Dict[str, object],
                      id_label: str) -> None:
    """The report's mean throughputs, one row per node or flow."""
    ids = list(metrics["mean_throughputs"])
    means = list(metrics["mean_throughputs"].values())
    _write_csv(fh, [id_label, "mean_throughput"], len(ids),
               lambda r0, r1: [ids[r0:r1], _float_cells(means[r0:r1])])


# -- metric reports ---------------------------------------------------------


def metrics_report(family: str, params: Dict[str, object],
                   means: Mapping[int, float], alpha: float,
                   **extra: object) -> Dict[str, object]:
    """The metric report of a run of ``family``, with the keys of ``extra``.
    The fairness figures are those of the reported means, rounded as
    ``throughput.csv`` holds them, so that ``eval`` finds the same."""
    reported = {i: _cell(v) for i, v in sorted(means.items())}
    return {
        "artifact": "metrics-v1",
        "family": family,
        "params": params,
        "mean_throughputs": {str(i): v for i, v in reported.items()},
        "jain": _cell(jain_index(list(reported.values()))),
        "alpha_fair": _cell(fair_objective(reported.values(), alpha)),
        "rmse": None,
        **extra,
    }


def mac_metrics_report(means: Mapping[int, float], rmse: Optional[float],
                       config: AgentConfig) -> Dict[str, object]:
    """The MAC report, with ``rmse`` if the run has one."""
    return metrics_report("mac", {
        "alpha": config.alpha,
        "window_frames": config.window_frames,
        "warmup_frames": config.warmup_frames,
    }, means, config.alpha, rmse=None if rmse is None else _cell(rmse))


def _rmse(rmse: Callable[[], float]) -> Optional[float]:
    """``rmse()``, or None where it is undefined."""
    try:
        return rmse()
    except MetricDomainError:
        return None


class MacRunReaders:
    """The end-of-run readers of a MAC run, fed its slot log in ranges of
    frames, in order, while the run goes (the consumer of
    ``TrajectoryLog.stream``): each range's windowed throughputs go to
    ``trajectory.csv`` through ``fh`` as one CSV block and, against
    ``reference`` if the run has one, into the running squared error; its
    successes go into the running node means. ``finish(log)`` feeds the
    frames left at the end, all of them on a log with no consumer, and
    returns the report."""

    def __init__(self, fh: TextIO, spec: ScenarioSpec,
                 reference: Optional[Mapping[int, Sequence[float]]],
                 config: AgentConfig):
        self.fh = fh
        self.config = config
        node_ids = series_node_ids(Timeline(MAC_FORMAT.lifetimes(spec.nodes)),
                                   spec.total_frames)
        self.windows = ThroughputWindows(node_ids, config.window_frames,
                                         spec.frame_len)
        self.successes = SuccessTotals(len(spec.nodes))
        self.errors = None if reference is None \
            else SquaredErrors(reference, config.warmup_frames)
        self.fed = 0
        fh.write(",".join(_node_header(node_ids)) + "\r\n")

    def __call__(self, log: TrajectoryLog, f0: int, f1: int) -> None:
        block = self.windows.add(log, f0, f1)
        _write_block(self.fh, _node_cells(block.frames, block.values))
        self.successes.add(log, f0, f1)
        if self.errors is not None:
            try:
                self.errors.add(block.frames, block.values)
            except MetricDomainError:   # a reference shorter than the run
                self.errors = None
        self.fed = f1

    def finish(self, log: TrajectoryLog) -> Dict[str, object]:
        self(log, self.fed, log.n_frames)
        return mac_metrics_report(
            self.successes.rates(),
            None if self.errors is None else _rmse(self.errors.rmse),
            self.config)


class TcpRunReaders:
    """The end-of-run readers of a TCP run, the counterpart of
    ``MacRunReaders``: each range of rounds it is fed goes to
    ``trajectory.csv`` as one CSV block, and its rounds from half the
    horizon on into the running totals of the metric report at
    ``alpha``."""

    def __init__(self, fh: TextIO, spec: TcpScenarioSpec, alpha: float):
        self.fh = fh
        self.alpha = alpha
        self.n_flows = len(spec.flows)
        self.first_round = spec.total_rounds // 2
        self.rewards = RewardTotal(self.first_round)
        self.throughputs = ThroughputTotals(self.first_round)
        self.fed = 0
        fh.write(",".join(["round"] + [
            f"flow_{fid}_{column}" for fid in range(self.n_flows)
            for column in ("cwnd", "acks", "rtt")]) + "\r\n")

    def __call__(self, log: TcpRoundLog, r0: int, r1: int) -> None:
        _write_block(self.fh, _tcp_trajectory_block(log, self.n_flows, r0, r1))
        self.rewards.add(log, r0, r1)
        self.throughputs.add(log, r0, r1)
        self.fed = r1

    def finish(self, log: TcpRoundLog) -> Dict[str, object]:
        self(log, self.fed, log.n_rounds)
        return metrics_report(
            "tcp", {"alpha": self.alpha, "first_round": self.first_round},
            self.throughputs.means(), self.alpha,
            social_reward=_cell(self.rewards.mean()))


def _config_snapshot(config: RunConfig, spec: AnyScenario, family: str,
                     demo_seed: int) -> Dict[str, object]:
    return {
        "artifact": "run-config-v1",
        "package_version": __version__,
        "family": family,
        "backend": config.backend,
        "seed": spec.seed,
        "demo_seed": demo_seed,
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


def run_aware_reference(env: MacEnvironment,
                        segments: List[ReferenceSegment]) -> TrajectoryLog:
    """Drive every controlled node of ``env`` with the analytic optimum of
    each of ``segments``, the segments of ``aware_trajectory`` of its
    scenario.

    This is the reference actuation path: no agent loop, no backend, the
    policy vector switches exactly at population events.
    """
    spec = env.spec
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
    _write_json(os.path.join(out, ARTIFACT_DEMOS),
                demos_doc(family, demo_k, demo_seed, demos.sets))
    _write_json(os.path.join(out, ARTIFACT_STRATEGIES),
                result.strategies.to_doc())
    _write_json(os.path.join(out, ARTIFACT_EPISODES),
                result.episodes.to_doc())
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


def _drives_agents(spec: AnyScenario) -> bool:
    """Whether the period engine runs ``spec``: it has an agent flow, or
    an agent node and no aware one (an aware run actuates the reference
    for every controlled node)."""
    if isinstance(spec, ScenarioSpec):
        kinds = {node.kind for node in spec.nodes}
        return KIND_AGENT in kinds and KIND_AWARE not in kinds
    return any(f.controller == CONTROLLER_AGENT for f in spec.flows)


@contextlib.contextmanager
def _transcript(out: str, backend: Optional[Backend]):
    """``backend`` recording into ``transcript.jsonl`` line by line, or
    None when there is no backend (and no transcript)."""
    if backend is None:
        yield None
        return
    with open(os.path.join(out, ARTIFACT_TRANSCRIPT), "w", encoding="utf-8",
              newline="\n") as fh:
        yield RecordingBackend(backend, TranscriptRecorder(fh))


@contextlib.contextmanager
def _streamed_files(out: str, *names: str):
    """The files ``names`` in ``out``, open for text with no newline
    translation; all of them are removed if the block fails."""
    paths = [os.path.join(out, name) for name in names]
    try:
        with contextlib.ExitStack() as stack:
            yield [stack.enter_context(open(path, "w", encoding="utf-8",
                                            newline=""))
                   for path in paths]
    except BaseException:
        for path in paths:
            with contextlib.suppress(FileNotFoundError):
                os.remove(path)
        raise


@contextlib.contextmanager
def _streamed_trace(config: RunConfig):
    """A decision trace written to ``trace.json`` and ``trace.dot`` as the
    run goes, or None when tracing is off. Both files are removed if the
    run fails before the trace is closed."""
    if not config.trace:
        yield None
        return
    with _streamed_files(config.out_dir, ARTIFACT_TRACE,
                         ARTIFACT_DOT) as (json_fh, dot_fh):
        trace = DecisionTrace(
            f"run {os.path.basename(config.scenario_path)}",
            sink=TraceSink(json_fh, dot_fh))
        yield trace
        trace.close()


def clear_artifacts(config: RunConfig) -> None:
    """Remove every artifact an earlier command left in the output
    directory, so that it holds only this run's; a cached strategy read
    from there stays."""
    for name in ARTIFACTS:
        path = os.path.join(config.out_dir, name)
        if config.strategy_path is not None and os.path.isfile(path) \
                and os.path.samefile(path, config.strategy_path):
            continue
        with contextlib.suppress(FileNotFoundError):
            os.remove(path)


def cmd_run(config: RunConfig) -> RunResult:
    """Offline stage (unless a cached strategy is supplied), online stage,
    then the full artifact set, in an output directory cleared of older
    artifacts. The transcript, the decision trace and the trajectory are
    written while the run goes; a run that drives no agent queries no
    backend, so it writes no transcript."""
    spec, family, demo_seed = _prepare(config)
    clear_artifacts(config)
    backend = make_backend(config) if _drives_agents(spec) else None
    with _transcript(config.out_dir, backend) as wrapped:
        return _run_stages(config, spec, family, demo_seed, wrapped)


def _run_stages(config: RunConfig, spec: AnyScenario, family: str,
                demo_seed: int, wrapped: Optional[Backend]) -> RunResult:
    """One sequence for every scenario: solve the MAC reference, open the
    trajectory and the family's readers, play the scenario with its log
    streamed to them, then write the rest of the artifact set."""
    out, agent_cfg = config.out_dir, config.agent
    mac = family == "mac"
    aware = mac and any(n.kind == KIND_AWARE for n in spec.nodes)
    # the aware path actuates the reference, so it needs one
    try:
        reference, segments = aware_trajectory(spec, alpha=agent_cfg.alpha) \
            if mac else (None, None)
    except UnsupportedPopulationError:
        if aware:
            raise
        reference = segments = None
    horizon = spec.total_frames if mac else spec.total_rounds
    # the trailing frames or rounds the observer and the window objective
    # read, which the streamed log keeps
    keep = agent_cfg.observer_window_frames if mac \
        else agent_cfg.tcp_observer_window_rounds
    offline_result = demos = None
    with _streamed_files(out, ARTIFACT_TRAJECTORY) as (fh,):
        readers = MacRunReaders(fh, spec, reference, agent_cfg) if mac \
            else TcpRunReaders(fh, spec, agent_cfg.alpha)
        if _drives_agents(spec):
            strategy, offline_result, demos = _obtain_strategy(
                config, wrapped, spec, family, demo_seed)
            with _streamed_trace(config) as trace:
                engine = (MacPeriodEngine if mac else TcpPeriodEngine)(
                    spec, strategy, agent_cfg, backend=wrapped, trace=trace)
                engine.env.log.stream(readers, keep)
                log = engine.run(horizon)
            # the readers need only the log; an engine held through the
            # end-of-run writes raised perfbench mac_churn's peak RSS by
            # 0.2 MB (2-core host), though it holds about 10 kB itself
            del engine
        else:
            env = (MacEnvironment if mac else TcpEnvironment)(spec)
            env.log.stream(readers, keep)
            log = run_aware_reference(env, segments) if aware \
                else run_frames(env, None, horizon) if mac \
                else run_rounds(env, None, horizon)
        metrics = readers.finish(log)

    if reference is not None:
        _write_file(os.path.join(out, ARTIFACT_REFERENCE),
                    _write_reference, reference)
    _write_file(os.path.join(out, ARTIFACT_THROUGHPUT), _write_throughput,
                metrics, "node" if mac else "flow")
    _write_json(os.path.join(out, ARTIFACT_CONFIG),
                _config_snapshot(config, spec, family, demo_seed))
    _write_json(os.path.join(out, ARTIFACT_METRICS), metrics)
    if offline_result is not None:
        _offline_artifacts(out, family, agent_cfg.demo_k, demo_seed,
                           demos, offline_result)
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
    """Offline stage only; artifacts cover demos, memory and the outcome,
    in an output directory cleared of older artifacts."""
    spec, family, demo_seed = _prepare(config)
    out = config.out_dir
    if not _drives_agents(spec):
        raise InvalidScenarioError(
            "nodes" if family == "mac" else "flows",
            "offline learning needs a member the online engine drives: "
            "an agent flow, or agent nodes and no aware node")

    backend = make_backend(config)
    if backend is None:
        raise InvalidScenarioError("backend",
                                   "offline learning needs a backend")
    clear_artifacts(config)
    demos = demo_bundle(family, config.agent.demo_k, demo_seed,
                        config=config.agent)
    with _transcript(out, backend) as wrapped:
        result = run_offline(wrapped, spec, demos, config.agent)

    # the offline stage writes no decision trace
    _write_json(os.path.join(out, ARTIFACT_CONFIG),
                _config_snapshot(replace(config, trace=False), spec, family,
                                 demo_seed))
    _offline_artifacts(out, family, config.agent.demo_k, demo_seed,
                       demos, result)
    return result
