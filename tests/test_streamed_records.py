"""The transcript and the decision trace written while a run goes.

A period engine given a ``DecisionTrace`` with a ``TraceSink`` must write
the bytes that ``json.dumps`` and the recursive DOT numbering give for the
same trace built in memory, and the transcript of that run, while holding
one period of the trace. ``cmd_run`` streams both into the run directory,
and a run that fails leaves complete transcript lines and no partial
trace, nor the partial ``trajectory.csv`` a MAC or TCP run writes while
it goes. Nor does the engine keep its period records: what it holds does
not grow with the periods it has run.
"""

from __future__ import annotations

import gc
import io
import json
import os
import sys
import tracemalloc
import types

import pytest

import coexlab.agent.trace
import coexlab.backends
import coexlab.runner
import coexlab.scripted
from coexlab import mac, tcp
from coexlab.agent.config import AgentConfig
from coexlab.agent.online import MacPeriodEngine, TcpPeriodEngine
from coexlab.agent.trace import DecisionTrace, TraceSink
from coexlab.backends import RecordingBackend, TranscriptRecorder
from coexlab.cli import main
from coexlab.errors import BackendUnavailableError
from coexlab.mac import KIND_AGENT, KIND_TDMA, NodeConfig, ScenarioSpec
from coexlab.runner import (
    ARTIFACT_DOT,
    ARTIFACT_TRACE,
    ARTIFACT_TRAJECTORY,
    ARTIFACT_TRANSCRIPT,
    RunConfig,
    cmd_run,
)
from coexlab.scripted import ScriptedBackend
from coexlab.tcp import CONTROLLER_AGENT, CONTROLLER_RENO
from period_records import run_collect
from test_engine_digests import mac_spec, mac_strategy, tcp_spec, tcp_strategy
from test_trace_writer import node_doc, reference_dot


def run_engine(case, transcript_fh, sink=None):
    """Run ``case`` (engine class, spec, strategy, config, escape) with the
    recorder and trace given those outputs (with no sink, the trace is
    held in memory); returns the engine, its period records, the recorder
    and the trace."""
    cls, spec, strategy, config, escape = case
    recorder = TranscriptRecorder(transcript_fh)
    trace = DecisionTrace("engine run", sink=sink)
    engine = cls(spec, strategy, config,
                 backend=RecordingBackend(ScriptedBackend(), recorder),
                 trace=trace)
    horizon = spec.total_frames if cls is MacPeriodEngine \
        else spec.total_rounds
    if escape:
        # pretend a much better window was seen before the last third
        periods = run_collect(engine, horizon * 2 // 3)
        engine._best_objective += 10.0
        periods += run_collect(engine, horizon - horizon * 2 // 3)
    else:
        periods = run_collect(engine, horizon)
    if sink is not None:
        trace.close()
    return engine, periods, recorder, trace


CASES = {
    "mac online ranker": (MacPeriodEngine, mac_spec(300), mac_strategy(),
                          AgentConfig(ranker_online=True), False),
    "tcp": (TcpPeriodEngine, tcp_spec(800, CONTROLLER_AGENT, CONTROLLER_RENO),
            tcp_strategy(), AgentConfig(), False),
    "mac forced escape": (MacPeriodEngine, mac_spec(900),
                          mac_strategy(0.0, 0.0), AgentConfig(), True),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_streamed_records_equal_records_built_in_memory(name):
    memory_transcript = io.StringIO()
    _, _, _, memory_trace = run_engine(CASES[name], memory_transcript)
    transcript, json_fh, dot_fh = io.StringIO(), io.StringIO(), io.StringIO()
    _, periods, recorder, trace = run_engine(CASES[name], transcript,
                                             TraceSink(json_fh, dot_fh))
    assert transcript.getvalue() == memory_transcript.getvalue()
    assert json_fh.getvalue() == json.dumps(
        node_doc(memory_trace.root), indent=2, sort_keys=True) + "\n"
    assert dot_fh.getvalue() == reference_dot(memory_trace.root)
    assert trace.root.children == []
    assert recorder.count == len(transcript.getvalue().splitlines()) > 0
    assert len(memory_trace.root.children) == len(periods)
    assert any(p.escaped for p in periods) == CASES[name][4]


def retained_record_bytes(periods, streamed):
    """Bytes still allocated, after a MAC engine ran ``periods`` periods,
    by calls into the trace and backend modules other than the scripted
    backend's own work: the trace nodes and the transcript text. In
    memory, the trace has no sink and the transcript goes to a string."""
    cls, spec, strategy, config, _ = CASES["mac online ranker"]
    frames = periods * config.query_period_slots // spec.frame_len
    case = (cls, mac_spec(frames), strategy, config, False)
    with open(os.devnull, "w", encoding="utf-8") as null:
        tracemalloc.start(16)
        try:
            outputs = (null, TraceSink(null, null)) if streamed \
                else (io.StringIO(),)
            kept = run_engine(case, *outputs)
            # a full collection frees uncollected cycles and empties the
            # interpreter's free lists, whose blocks tracemalloc still
            # counts under the traceback that first allocated them; left
            # in, they made the total depend on when the collector last ran
            gc.collect()
            snapshot = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
    del kept
    snapshot = snapshot.filter_traces([
        tracemalloc.Filter(True, coexlab.agent.trace.__file__,
                           all_frames=True),
        tracemalloc.Filter(True, coexlab.backends.__file__, all_frames=True),
        tracemalloc.Filter(False, coexlab.scripted.__file__,
                           all_frames=True)])
    return sum(stat.size for stat in snapshot.statistics("filename"))


def test_streamed_record_memory_does_not_grow_with_the_run():
    n = 20
    # first-call allocations (caches) stay out of the measured runs
    retained_record_bytes(n, True)
    streamed = [retained_record_bytes(k, True) for k in (n, 2 * n)]
    in_memory = [retained_record_bytes(k, False) for k in (n, 2 * n)]
    per_period = (in_memory[1] - in_memory[0]) / n
    # built in memory, each period's trace nodes and transcript lines
    # stay: over 2 KiB of them
    assert per_period > 2 * 2**10
    # streamed, the two horizons differ by less than one period's records
    assert abs(streamed[1] - streamed[0]) < per_period


SHARED = (type, types.ModuleType, types.FunctionType,
          types.BuiltinFunctionType, types.MethodType)


def reachable_bytes(root, skip=()):
    """``sys.getsizeof`` summed over the objects reachable from ``root``,
    each once, leaving out those in ``skip`` and the classes, modules and
    functions the program shares."""
    seen = {id(obj) for obj in skip}
    stack, total = [root], 0
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, SHARED):
            continue
        seen.add(id(obj))
        total += sys.getsizeof(obj)
        stack.extend(gc.get_referents(obj))
    return total


def engine_bytes(periods, keep_records):
    """What a MAC engine streaming its transcript and trace holds after
    ``periods`` periods, without its trajectory log's columns; with
    ``keep_records`` the records of those periods are counted too.
    Returns the bytes and the engine."""
    config = AgentConfig()
    # a team member beside a TDMA node: the observer sees the same window
    # every period, so both horizons end in engine states of one shape
    spec = ScenarioSpec(nodes=[NodeConfig(KIND_AGENT),
                               NodeConfig(KIND_TDMA, slots=(3, 5))],
                        total_frames=periods * config.query_period_slots
                        // 10, seed=5)
    with open(os.devnull, "w", encoding="utf-8") as null:
        engine = MacPeriodEngine(
            spec, mac_strategy(0.0, 0.0), config,
            backend=RecordingBackend(ScriptedBackend(),
                                     TranscriptRecorder(null)),
            trace=DecisionTrace("engine run", sink=TraceSink(null, null)))
        records = run_collect(engine, spec.total_frames) if keep_records \
            else engine.run(spec.total_frames)
    # counted once the file is closed, which drops its pending writes
    log = engine.env.log
    columns = (log._outcome, log._tx, log._won)
    return reachable_bytes((engine, records), columns), engine


def test_engine_memory_does_not_grow_with_the_run():
    n = 20
    kept = [engine_bytes(k, True)[0] for k in (n, 2 * n)]
    per_period = (kept[1] - kept[0]) / n
    # each period's record: its flags and its decision, proposal and
    # actuated action per team member
    assert per_period > 2**10
    (short, _), (long, engine) = (engine_bytes(k, False)
                                  for k in (n, 2 * n))
    # the engine holds no record, so the horizons differ by less than one
    # period's records
    assert abs(long - short) < per_period
    assert len(engine.proposal_history) \
        <= engine.config.convergence_periods + 1


def write_scenario(path):
    doc = {"version": "mac-v1", "frame_len": 10, "total_frames": 600,
           "slot_duration_ms": 1.0, "seed": 5, "nodes": [
               {"kind": "agent"}, {"kind": "tdma", "slots": [3, 5]}]}
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


FAST_AGENT = AgentConfig(demo_k=3, demo_frames=40, eval_frames=400,
                         n_max=2)


def test_failed_run_keeps_transcript_lines_and_no_partial_trace(
        tmp_path, monkeypatch):
    run_period = MacPeriodEngine.run_period

    def failing(self, *args, **kwargs):
        if self.trace is not None and self.n_periods == 20:
            raise RuntimeError("simulated failure")
        return run_period(self, *args, **kwargs)

    monkeypatch.setattr(MacPeriodEngine, "run_period", failing)
    out = tmp_path / "run"
    with pytest.raises(RuntimeError, match="simulated failure"):
        cmd_run(RunConfig(scenario_path=write_scenario(tmp_path / "s.json"),
                          out_dir=str(out), agent=FAST_AGENT))
    assert not (out / ARTIFACT_TRACE).exists()
    assert not (out / ARTIFACT_DOT).exists()
    lines = (out / ARTIFACT_TRANSCRIPT).read_text().splitlines()
    entries = [json.loads(line) for line in lines]
    assert [e["seq"] for e in entries] == list(range(len(entries)))
    # the online stage got as far as period 19 before the failure
    assert any(e["tag"].endswith("/p19") for e in entries)


class JoinerOutage:
    """The scripted backend, down for every decision of the member whose
    request tags start with ``tag``, by default flow 2: a member with no
    earlier decision to fall back on, so its first period ends the run.
    Before failing, it notes the rows of the trajectory on disk."""

    def __init__(self, trajectory, tag="flow/2/"):
        self.inner = ScriptedBackend()
        self.trajectory = trajectory
        self.tag = tag
        self.rows_on_disk = None

    def complete(self, req):
        if req.request_tag.startswith(self.tag):
            self.rows_on_disk = self.trajectory.read_text().count("\n")
            raise BackendUnavailableError("simulated outage")
        return self.inner.complete(req)


def test_failed_tcp_run_removes_its_partial_trajectory(tmp_path,
                                                       monkeypatch, capsys):
    # small blocks, so that rows reach the file long before the failure
    monkeypatch.setattr(tcp, "READ_BLOCK_ROUNDS", 64)
    out = tmp_path / "run"
    backend = JoinerOutage(out / ARTIFACT_TRAJECTORY)
    monkeypatch.setattr(coexlab.runner, "make_backend",
                        lambda config: backend)
    scenario = tmp_path / "s.json"
    scenario.write_text(json.dumps({
        "version": "tcp-v1", "total_rounds": 1200, "seed": 3, "flows": [
            {"controller": "agent"}, {"controller": "reno"},
            {"controller": "agent", "join_round": 800}]}), encoding="utf-8")
    fast = tmp_path / "agent.json"
    fast.write_text(json.dumps({"demo_k": 3, "demo_rounds": 60,
                                "eval_rounds": 200, "n_max": 2}),
                    encoding="utf-8")
    assert main(["run", "--scenario", str(scenario), "--out", str(out),
                 "--agent-json", str(fast)]) == 3
    assert json.loads(capsys.readouterr().err)["error"] \
        == "BackendUnavailableError"
    # by round 800 the log has handed over rounds [0, 640), all but those
    # still in the file's write buffer
    assert backend.rows_on_disk > 500
    assert not (out / ARTIFACT_TRAJECTORY).exists()
    assert not (out / ARTIFACT_TRACE).exists()
    lines = (out / ARTIFACT_TRANSCRIPT).read_text().splitlines()
    entries = [json.loads(line) for line in lines]
    assert [e["seq"] for e in entries] == list(range(len(entries)))
    # the online stage got as far as period 7 before the failure
    assert any(e["tag"] == "flow/0/p7" for e in entries)


def test_failed_mac_run_removes_its_partial_trajectory(tmp_path,
                                                       monkeypatch, capsys):
    # small blocks, so that rows reach the file long before the failure
    monkeypatch.setattr(mac, "READ_BLOCK_FRAMES", 32)
    out = tmp_path / "run"
    backend = JoinerOutage(out / ARTIFACT_TRAJECTORY, tag="node/2/")
    monkeypatch.setattr(coexlab.runner, "make_backend",
                        lambda config: backend)
    scenario = tmp_path / "s.json"
    scenario.write_text(json.dumps({
        "version": "mac-v1", "total_frames": 1200, "seed": 3, "nodes": [
            {"kind": "agent"}, {"kind": "aloha", "q": 0.2},
            {"kind": "agent", "join_frame": 1000}]}), encoding="utf-8")
    fast = tmp_path / "agent.json"
    fast.write_text(json.dumps({"demo_k": 3, "demo_frames": 40,
                                "eval_frames": 400, "n_max": 2}),
                    encoding="utf-8")
    assert main(["run", "--scenario", str(scenario), "--out", str(out),
                 "--agent-json", str(fast)]) == 3
    assert json.loads(capsys.readouterr().err)["error"] \
        == "BackendUnavailableError"
    # by frame 1000 the log has handed over frames [0, 896): the windows
    # ending at frames 100 to 896, all but those still in the file's write
    # buffer
    assert backend.rows_on_disk > 400
    assert not (out / ARTIFACT_TRAJECTORY).exists()
    assert not (out / ARTIFACT_TRACE).exists()
    lines = (out / ARTIFACT_TRANSCRIPT).read_text().splitlines()
    entries = [json.loads(line) for line in lines]
    assert [e["seq"] for e in entries] == list(range(len(entries)))
    # the online stage got as far as period 99 before the failure
    assert any(e["tag"] == "node/0/p99" for e in entries)


def test_trace_files_are_written_while_the_run_goes(tmp_path, monkeypatch):
    """By the online stage's last period the trace file holds the earlier
    periods, all but those still in the file's write buffer."""
    out = tmp_path / "run"
    seen = {}
    run_period = MacPeriodEngine.run_period

    def watching(self, *args, **kwargs):
        if self.n_periods == 59:
            seen["text"] = (out / ARTIFACT_TRACE).read_text()
        return run_period(self, *args, **kwargs)

    monkeypatch.setattr(MacPeriodEngine, "run_period", watching)
    cmd_run(RunConfig(scenario_path=write_scenario(tmp_path / "s.json"),
                      out_dir=str(out), agent=FAST_AGENT))
    assert seen["text"].count('"label": "period ') >= 50
    doc = json.loads((out / ARTIFACT_TRACE).read_text())
    assert len(doc["children"]) == 60
