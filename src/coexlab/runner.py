"""Experiment runner: one command, one self-describing run directory.

This module holds ``cmd_run`` and ``cmd_offline``, the artifact writers
and the end-of-run readers; the commands a run never calls (oracle,
demos, eval and trace) live in ``coexlab.commands`` and reuse the
writers from here. ``cmd_run`` plays every scenario, MAC or TCP, agent
or not, through one sequence, with every streamed record (transcript,
trajectory, decision trace) opened in one scope before any stage runs,
and both families' readers share one protocol: fed ranges of the log in
order, each range written as one CSV block, then ``finish(log)``.

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
from itertools import chain, islice, repeat
from typing import (Callable, Dict, Iterable, List, Mapping, Optional,
                    Sequence, TextIO, Tuple, Union)

import numpy as np

from . import __version__
from .backends import Backend, HttpBackend, RecordingBackend
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
from .scenario import FORMATS, Timeline, parse_scenario, scenario_doc
from .scripted import ScriptedBackend
from .strategy import (
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
from .agent.config import AgentConfig, checked_agent_settings
from .agent.demos import demo_bundle
from .agent.offline import FAMILIES, OfflineResult, run_offline
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

# agent flag -> the setting it sets on a mac run and on a tcp run (None
# where the family has none, so the flag is refused there), and its help
AGENT_FLAGS = {
    "query_period": ("query_period_slots", "tcp_query_period_rounds",
                     "slots or rounds per action update"),
    "epsilon": ("explore_epsilon", "explore_epsilon",
                "exploration probability"),
    "sigma": ("explore_sigma", "tcp_explore_sigma", "exploration noise scale"),
    "n_max": ("n_max", "n_max", "reflection round budget"),
    "alpha": ("alpha", "alpha", "fairness exponent"),
    "demo_k": ("demo_k", "demo_k", "demonstration tuples per protocol label"),
    "window": ("window_frames", None, "throughput window in frames"),
    "warmup": ("warmup_frames", None,
               "frames excluded from the RMSE comparison"),
}


@dataclass
class RunConfig:
    """Everything one run needs; the on-disk snapshot embeds the scenario
    so a run directory stays reproducible if the input file moves."""

    scenario_path: str
    out_dir: str
    backend: str = BACKEND_SCRIPTED
    seed: Optional[int] = None
    agent: AgentConfig = field(default_factory=AgentConfig)
    # agent flag -> value; ``_prepare`` sets it on the scenario's family
    agent_flags: Dict[str, object] = field(default_factory=dict)
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
    ``spec``: its family's domain and limit."""
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
    family = FAMILIES[type(spec)]
    diags = validate_strategy(strategy, domain=family.domain,
                              **family.limit(spec))
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


# rows of ``reference.csv`` formatted at a time, and rows joined into one
# write; the readers of a run write each range of the log they are fed as
# one block instead
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


def _write_block(fh: TextIO, columns: Sequence[Iterable[str]]) -> None:
    """Write one block of rows as ``csv.writer`` would, given the cell
    texts of each column; the rows end with the shortest column. Lines are
    joined ``_CHUNK_ROWS`` at a time: one string per chunk, not per line,
    and never the block's whole text. Cells are numbers or empty, so none
    needs quoting."""
    lines = map(",".join, zip(*columns))
    while True:
        # an empty last line gives the chunk its final line break; a row
        # is never empty, so only the end of the block gives no text
        text = "\r\n".join(chain(islice(lines, _CHUNK_ROWS), ("",)))
        if not text:
            return
        fh.write(text)


def _node_header(node_ids: Iterable[int]) -> str:
    """The header line of a ``frame`` column, then one column per node."""
    return ",".join(["frame"] + [f"node_{nid}" for nid in node_ids]) + "\r\n"


def _node_cells(frames: Sequence[int],
                values: Mapping[int, Sequence[float]]) -> List[List[str]]:
    """The cells of a ``frame`` column, then of one column per node id,
    ascending."""
    return [list(map(str, frames))] + [_float_cells(values[nid])
                                       for nid in sorted(values)]


def _write_reference(fh: TextIO,
                     reference: Mapping[int, Sequence[float]]) -> None:
    """Frames from 1 and each node's column, CSV_BLOCK_ROWS rows at a time."""
    total = len(reference[min(reference)]) if reference else 0
    fh.write(_node_header(sorted(reference)))
    for r0 in range(0, total, CSV_BLOCK_ROWS):
        r1 = min(r0 + CSV_BLOCK_ROWS, total)
        # one expression, so that no name holds a block's cells while the
        # next block's are made
        _write_block(fh, _node_cells(range(r0 + 1, r1 + 1), {
            nid: column[r0:r1] for nid, column in reference.items()}))


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
    means = metrics["mean_throughputs"]
    fh.write(f"{id_label},mean_throughput\r\n")
    _write_block(fh, [list(means), _float_cells(list(means.values()))])


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
        fh.write(_node_header(node_ids))

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


def _config_snapshot(config: RunConfig,
                     spec: AnyScenario) -> Dict[str, object]:
    return {
        "artifact": "run-config-v1",
        "package_version": __version__,
        "family": FAMILIES[type(spec)].domain,
        "backend": config.backend,
        "seed": config.seed,
        "demo_seed": config.demo_seed,
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
    metrics: Dict[str, object]
    offline: Optional[OfflineResult] = None


def _offline_artifacts(out: str, demos, result: OfflineResult) -> None:
    _write_json(os.path.join(out, ARTIFACT_DEMOS), demos.doc())
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


def _drives_agents(spec: AnyScenario) -> bool:
    """Whether the period engine runs ``spec``: it has an agent flow, or
    an agent node and no aware one (an aware run actuates the reference
    for every controlled node)."""
    if isinstance(spec, ScenarioSpec):
        kinds = {node.kind for node in spec.nodes}
        return KIND_AGENT in kinds and KIND_AWARE not in kinds
    return any(f.controller == CONTROLLER_AGENT for f in spec.flows)


def _prepare(config: RunConfig) \
        -> Tuple[RunConfig, AnyScenario, Optional[Strategy]]:
    """Refuse a bad ``config`` before the output directory is touched;
    returns ``config`` resolved against the scenario (its seed and demo
    seed set, its agent flags set on the settings of the scenario's
    family), the seeded scenario and the cached strategy, if any."""
    config.validate()
    spec = load_scenario(config.scenario_path)
    if config.seed is not None:
        spec = replace(spec, seed=config.seed)
    mac, family = isinstance(spec, ScenarioSpec), FAMILIES[type(spec)]
    settings = {}
    for flag, value in config.agent_flags.items():
        name = AGENT_FLAGS[flag][0 if mac else 1]
        if name is None:
            raise InvalidScenarioError(
                f"--{flag.replace('_', '-')}",
                f"a {family.domain} run has no such setting")
        settings[name] = value
    agent = replace(config.agent, **checked_agent_settings(settings))
    config = replace(config, agent=agent, seed=spec.seed,
                     demo_seed=spec.seed if config.demo_seed is None
                     else config.demo_seed)
    if mac:
        agent.validate(spec.frame_len)
        # a run and its offline evaluation episode each need at least one
        # full throughput window
        for path, frames in (("total_frames", spec.total_frames),
                             ("agent.eval_frames", agent.eval_frames)):
            if frames < agent.window_frames:
                raise InvalidScenarioError(
                    path, f"{frames} frames is shorter than the "
                          f"{agent.window_frames}-frame throughput window")
    else:
        # a run, and its offline evaluation episode if it has one, each
        # score their second half, which needs a live flow
        horizons = [("total_rounds", spec.total_rounds)]
        if _drives_agents(spec) and config.strategy_path is None:
            horizons.append(("agent.eval_rounds",
                             family.horizon(spec, agent)))
        timeline = Timeline(TCP_FORMAT.lifetimes(spec.flows))
        for path, rounds in horizons:
            if not any(live for *_, live in
                       timeline.stretches(rounds // 2, rounds)):
                raise InvalidScenarioError(
                    path, f"no flow is live in rounds {rounds // 2} to "
                          f"{rounds}, the second half that is scored")
    strategy = None
    if config.strategy_path is not None:
        if not _drives_agents(spec):
            raise InvalidScenarioError(
                "strategy", f"{config.strategy_path}: the online engine "
                            "drives no member of the scenario")
        strategy = load_cached_strategy(config.strategy_path, spec)
    elif config.backend == BACKEND_NONE and _drives_agents(spec):
        raise InvalidScenarioError("backend", "agent scenarios need a backend "
                                   "(or, for coexlab run, a --strategy)")
    return config, spec, strategy


def _open_transcript(out: str) -> TextIO:
    """``transcript.jsonl`` in ``out``, open for JSON lines."""
    return open(os.path.join(out, ARTIFACT_TRANSCRIPT), "w", encoding="utf-8",
                newline="\n")


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


def clear_artifacts(config: RunConfig) -> None:
    """Create the output directory, or remove every artifact an earlier
    command left there, so that it holds only this run's; a cached
    strategy read from there stays."""
    os.makedirs(config.out_dir, exist_ok=True)
    for name in ARTIFACTS:
        path = os.path.join(config.out_dir, name)
        if config.strategy_path is not None and os.path.isfile(path) \
                and os.path.samefile(path, config.strategy_path):
            continue
        with contextlib.suppress(FileNotFoundError):
            os.remove(path)


def cmd_run(config: RunConfig) -> RunResult:
    """One sequence for every scenario, in an output directory cleared of
    older artifacts: solve the MAC reference, open every streamed record,
    run the offline stage (unless a cached strategy is supplied) and play
    the scenario with its log streamed to the family's readers, then write
    the rest of the artifact set.

    The records open before any stage: ``transcript.jsonl`` when the
    engine drives an agent and has a backend, kept if the command fails;
    ``trajectory.csv``, and for a traced agent run ``trace.json`` and
    ``trace.dot``, removed if it fails."""
    config, spec, strategy = _prepare(config)
    clear_artifacts(config)
    out, agent_cfg = config.out_dir, config.agent
    mac = isinstance(spec, ScenarioSpec)
    aware = mac and any(n.kind == KIND_AWARE for n in spec.nodes)
    agents = _drives_agents(spec)
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
    traced = agents and config.trace
    offline_result = demos = None
    with contextlib.ExitStack() as stack:
        backend = make_backend(config) if agents else None
        if backend is not None:
            backend = RecordingBackend(
                backend, stack.enter_context(_open_transcript(out)))
        fh, *trace_fhs = stack.enter_context(_streamed_files(
            out, ARTIFACT_TRAJECTORY,
            *((ARTIFACT_TRACE, ARTIFACT_DOT) if traced else ())))
        trace = DecisionTrace(
            f"run {os.path.basename(config.scenario_path)}",
            sink=TraceSink(*trace_fhs)) if traced else None
        readers = MacRunReaders(fh, spec, reference, agent_cfg) if mac \
            else TcpRunReaders(fh, spec, agent_cfg.alpha)
        if agents:
            if strategy is None:
                demos, offline_result = _offline_stage(config, backend, spec)
                # the online stage reads the memories but never writes them
                offline_result.strategies.freeze()
                offline_result.episodes.freeze()
                strategy = offline_result.strategy
            engine = FAMILIES[type(spec)].engine(
                spec, strategy, agent_cfg, backend=backend, trace=trace)
            engine.env.log.stream(readers, keep)
            log = engine.run(horizon)
            if trace is not None:
                trace.close()
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
                _config_snapshot(config, spec))
    _write_json(os.path.join(out, ARTIFACT_METRICS), metrics)
    if offline_result is not None:
        _offline_artifacts(out, demos, offline_result)
    return RunResult(metrics=metrics, offline=offline_result)


def _offline_stage(config: RunConfig, backend: Backend, spec: AnyScenario):
    """The demonstrations and the offline stage's outcome."""
    demos = demo_bundle(FAMILIES[type(spec)].domain, config.agent.demo_k,
                        config.demo_seed, config=config.agent)
    return demos, run_offline(backend, spec, demos, config.agent)


def cmd_offline(config: RunConfig) -> OfflineResult:
    """Offline stage only; artifacts cover demos, memory and the outcome,
    in an output directory cleared of older artifacts."""
    config, spec, _ = _prepare(config)
    out = config.out_dir
    if not _drives_agents(spec):
        raise InvalidScenarioError(
            FORMATS[type(spec)].member_key,
            "offline learning needs a member the online engine drives: "
            "an agent flow, or agent nodes and no aware node")
    clear_artifacts(config)
    with _open_transcript(out) as fh:
        demos, result = _offline_stage(
            config, RecordingBackend(make_backend(config), fh), spec)

    # the offline stage writes no decision trace
    _write_json(os.path.join(out, ARTIFACT_CONFIG),
                _config_snapshot(replace(config, trace=False), spec))
    _offline_artifacts(out, demos, result)
    return result
