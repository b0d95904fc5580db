"""Command-line surface: artifacts, exit codes, reproducibility."""

import argparse
import concurrent.futures
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import coexlab.cli
import coexlab.oracle
import coexlab.runner
from coexlab.agent.config import AgentConfig
from coexlab.agent.memory import EpisodeRecord
from coexlab.cli import ARTIFACT_REPLICAS, main
from coexlab.agent.trace import trace_from_doc
from coexlab.errors import InvalidScenarioError, MemoryFrozenError
from coexlab.runner import (
    AGENT_FLAGS,
    ARTIFACT_CONFIG,
    ARTIFACT_DEMOS,
    ARTIFACT_DOT,
    ARTIFACT_EPISODES,
    ARTIFACT_METRICS,
    ARTIFACT_OFFLINE,
    ARTIFACT_ORACLE,
    ARTIFACT_REFERENCE,
    ARTIFACT_STRATEGIES,
    ARTIFACT_STRATEGY,
    ARTIFACT_THROUGHPUT,
    ARTIFACT_TRACE,
    ARTIFACT_TRAJECTORY,
    ARTIFACT_TRANSCRIPT,
    ARTIFACT_TREE,
    RunConfig,
    RunResult,
    cmd_run,
)
from coexlab.scripted import ScriptedBackend

ROOT = Path(__file__).resolve().parent.parent

# the count settings whose floor is not 1: a DYNAMIC demo needs two
# frames or rounds to switch its population in
DEMO_WINDOW_FLOORS = {"demo_frames": 2, "demo_rounds": 2}

FAST_AGENT = {
    "demo_k": 3, "demo_frames": 40, "demo_rounds": 60,
    "eval_frames": 400, "eval_rounds": 200, "n_max": 2,
}


def write_mac_scenario(path, nodes, frames=600, seed=5):
    doc = {"version": "mac-v1", "frame_len": 10, "total_frames": frames,
           "slot_duration_ms": 1.0, "seed": seed, "nodes": nodes}
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def write_tcp_scenario(path, flows, rounds=400, seed=11):
    doc = {"version": "tcp-v1", "link_capacity_pps": 125.0,
           "base_rtt_s": 0.1, "buffer_pkts": 12.5, "cwnd_max": 64,
           "total_rounds": rounds, "seed": seed, "flows": flows}
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


@pytest.fixture
def agent_json(tmp_path):
    path = tmp_path / "agent.json"
    path.write_text(json.dumps(FAST_AGENT), encoding="utf-8")
    return str(path)


@pytest.fixture
def tdma_scenario(tmp_path):
    return write_mac_scenario(tmp_path / "tdma.json", [
        {"kind": "agent"}, {"kind": "tdma", "slots": [3, 5]}])


@pytest.fixture
def aloha_scenario(tmp_path):
    return write_mac_scenario(tmp_path / "aloha.json", [
        {"kind": "agent"}, {"kind": "aloha", "q": 0.2}])


@pytest.fixture
def late_agent_scenario(tmp_path):
    """``mac_2a1h`` cut to 1000 frames, its agent joining at frame 100: the
    first segment holds no controlled node."""
    doc = json.loads((ROOT / "scenarios" / "mac_2a1h.json").read_text())
    doc["total_frames"] = 1000
    doc["nodes"][0]["join_frame"] = 100
    path = tmp_path / "late_agent.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def without(key):
    return lambda doc: {k: v for k, v in doc.items() if k != key}


# run artifact -> edit that leaves `coexlab eval` nothing sound to read
EVAL_BREAKAGES = {
    "config not an object": (ARTIFACT_CONFIG, lambda doc: [doc]),
    "config without agent": (ARTIFACT_CONFIG, without("agent")),
    "config without family": (ARTIFACT_CONFIG, without("family")),
    "config with unknown family": (ARTIFACT_CONFIG,
                                   lambda doc: dict(doc, family="phy")),
    "agent setting of wrong type": (
        ARTIFACT_CONFIG,
        lambda doc: dict(doc, agent=dict(doc["agent"], window_frames="x"))),
    "tcp metrics without params": (ARTIFACT_METRICS, without("params")),
}


def drop_last_cell(text):
    lines = text.splitlines()
    lines[-1] = lines[-1].rsplit(",", 1)[0]
    return "\n".join(lines) + "\n"


# artifact (or the --reference override) -> its short or empty replacement
EVAL_CSV_BREAKAGES = {
    "empty trajectory": (ARTIFACT_TRAJECTORY, lambda text: ""),
    "empty reference": (ARTIFACT_REFERENCE, lambda text: ""),
    "empty --reference": ("--reference", lambda text: ""),
    "empty throughput": (ARTIFACT_THROUGHPUT, lambda text: ""),
    "one-cell throughput row": (ARTIFACT_THROUGHPUT,
                                lambda text: text + "7\n"),
    "short last trajectory row": (ARTIFACT_TRAJECTORY, drop_last_cell),
}


def set_last_cell(value):
    def mutate(text):
        lines = text.splitlines()
        lines[-1] = lines[-1].rsplit(",", 1)[0] + "," + value
        return "\n".join(lines) + "\n"
    return mutate


# artifact (or the --reference override) and the non-finite text written
# into the last cell of its last row
EVAL_NON_FINITE = [(name, value)
                   for name in (ARTIFACT_TRAJECTORY, ARTIFACT_REFERENCE,
                                "--reference", ARTIFACT_THROUGHPUT)
                   for value in ("nan", "inf")]


def set_cell(row, col, value):
    def mutate(text):
        lines = text.splitlines()
        cells = lines[row].split(",")
        cells[col] = value
        lines[row] = ",".join(cells)
        return "\n".join(lines) + "\n"
    return mutate


# artifact (or the --reference override) -> a header or row that names a
# node twice or not as prefix and integer
EVAL_BAD_IDS = {
    "repeated trajectory id": (ARTIFACT_TRAJECTORY, set_cell(0, 2, "node_0")),
    "foreign trajectory prefix": (ARTIFACT_TRAJECTORY,
                                  set_cell(0, 1, "xxxx_0")),
    "non-integer trajectory id": (ARTIFACT_TRAJECTORY,
                                  set_cell(0, 1, "node_x")),
    "repeated reference id": (ARTIFACT_REFERENCE, set_cell(0, 2, "node_0")),
    "repeated --reference id": ("--reference", set_cell(0, 2, "node_0")),
    "repeated throughput id": (ARTIFACT_THROUGHPUT, set_cell(2, 0, "0")),
    "non-integer throughput id": (ARTIFACT_THROUGHPUT,
                                  set_cell(1, 0, "node_0")),
}


def drop_column(col):
    def mutate(text):
        rows = [line.split(",") for line in text.splitlines()]
        return "\n".join(",".join(r[:col] + r[col + 1:]) for r in rows) + "\n"
    return mutate


def nested_trace(depth):
    node = '{"actor": "a", "label": "b", "children": ['
    return node * depth + "]}" * depth


# trace.json text that names no sound decision tree
TRACE_BREAKAGES = {
    "not an object": "[1, 2]",
    "root without label": '{"actor": "a"}',
    "child without label": '{"actor": "a", "label": "b", '
                           '"children": [{"actor": "c"}]}',
    "data not an object": '{"actor": "a", "label": "b", "data": [1]}',
    "children not a list": '{"actor": "a", "label": "b", "children": 3}',
    "nested past the recursion limit":
        nested_trace(sys.getrecursionlimit() + 10),
}


class NonFiniteDecisions:
    """Scripted backend except that every node or flow decision holds a
    non-finite number."""

    def __init__(self):
        self.inner = ScriptedBackend()

    def complete(self, req):
        if req.request_tag.startswith("node/"):
            return '{"action": [%s]}' % ", ".join(["Infinity"] * 10)
        if req.request_tag.startswith("flow/"):
            return '{"action": Infinity}'
        return self.inner.complete(req)


@pytest.fixture
def solve_calls(monkeypatch):
    """``(population, alpha)`` of every oracle solve, made through any
    module holding the solver, starting from an empty solve memo."""
    solve = coexlab.oracle.solve_aware
    calls = []

    def counted(pop, alpha=1.0):
        calls.append((pop, alpha))
        return solve(pop, alpha)

    for name, module in list(sys.modules.items()):
        if not name.startswith("coexlab"):
            continue
        for attr, value in list(vars(module).items()):
            if value is solve:
                monkeypatch.setattr(module, attr, counted)
    coexlab.oracle._solved.cache_clear()
    yield calls
    coexlab.oracle._solved.cache_clear()


def run_cli(*argv):
    return main(list(argv))


def read_json(run_dir, name):
    with open(os.path.join(run_dir, name), encoding="utf-8") as fh:
        return json.load(fh)


def read_bytes(run_dir, name):
    with open(os.path.join(run_dir, name), "rb") as fh:
        return fh.read()


class TestRunCommand:
    def test_full_artifact_set_and_summary(self, tmp_path, tdma_scenario,
                                           agent_json, capsys):
        out = str(tmp_path / "run")
        code = run_cli("run", "--scenario", tdma_scenario, "--out", out,
                       "--agent-json", agent_json)
        assert code == 0
        for name in (ARTIFACT_CONFIG, ARTIFACT_DEMOS, ARTIFACT_STRATEGIES,
                     ARTIFACT_STRATEGY, ARTIFACT_EPISODES, ARTIFACT_OFFLINE,
                     ARTIFACT_TRANSCRIPT, ARTIFACT_TRAJECTORY,
                     ARTIFACT_THROUGHPUT, ARTIFACT_REFERENCE,
                     ARTIFACT_METRICS, ARTIFACT_TRACE):
            assert os.path.isfile(os.path.join(out, name)), name
        summary = json.loads(capsys.readouterr().out)
        assert summary["family"] == "mac"
        assert summary["rmse"] is not None

    def test_missing_scenario_exits_2_and_names_path(self, tmp_path, capsys):
        code = run_cli("run", "--scenario", str(tmp_path / "absent.json"),
                       "--out", str(tmp_path / "o"))
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert "absent.json" in err["message"]

    def test_config_snapshot_is_self_describing(self, tmp_path,
                                                tdma_scenario, agent_json):
        out = str(tmp_path / "run")
        run_cli("run", "--scenario", tdma_scenario, "--out", out,
                "--agent-json", agent_json, "--seed", "9")
        doc = read_json(out, ARTIFACT_CONFIG)
        assert doc["seed"] == 9
        assert doc["backend"] == "scripted"
        assert doc["agent"]["n_max"] == 2
        assert doc["scenario"]["nodes"][1]["kind"] == "tdma"
        assert doc["package_version"]

    def test_reruns_are_byte_identical(self, tmp_path, tdma_scenario,
                                       agent_json):
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        for out in (a, b):
            assert run_cli("run", "--scenario", tdma_scenario, "--out", out,
                           "--agent-json", agent_json) == 0
        for name in (ARTIFACT_TRAJECTORY, ARTIFACT_TRACE,
                     ARTIFACT_TRANSCRIPT, ARTIFACT_METRICS):
            assert read_bytes(a, name) == read_bytes(b, name), name

    def test_seed_override_changes_only_random_outcomes(self, tmp_path,
                                                        tdma_scenario,
                                                        agent_json):
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        run_cli("run", "--scenario", tdma_scenario, "--out", a,
                "--agent-json", agent_json)
        run_cli("run", "--scenario", tdma_scenario, "--out", b,
                "--agent-json", agent_json, "--seed", "77")
        assert read_bytes(a, ARTIFACT_TRAJECTORY) \
            != read_bytes(b, ARTIFACT_TRAJECTORY)
        header = read_bytes(a, ARTIFACT_TRAJECTORY).split(b"\r\n")[0]
        assert header == read_bytes(b, ARTIFACT_TRAJECTORY).split(b"\r\n")[0]

    def test_replicas_run_in_isolated_directories(self, tmp_path,
                                                  tdma_scenario, agent_json,
                                                  capsys):
        out = str(tmp_path / "reps")
        code = run_cli("run", "--scenario", tdma_scenario, "--out", out,
                       "--agent-json", agent_json, "--replicas", "2")
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        seeds = [r["seed"] for r in summary["replicas"]]
        assert seeds == [5, 6]
        for i in range(2):
            doc = read_json(os.path.join(out, f"replica_{i}"),
                            ARTIFACT_CONFIG)
            assert doc["seed"] == 5 + i

    @pytest.mark.parametrize("replicas", ["0", "-3"])
    def test_replicas_below_one_exit_2(self, tmp_path, tdma_scenario,
                                       replicas, capsys):
        out = tmp_path / "reps"
        code = run_cli("run", "--scenario", tdma_scenario, "--out", str(out),
                       "--replicas", replicas)
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert "--replicas" in err["message"]
        assert not out.exists()

    @pytest.mark.parametrize("replicas, cpus, workers",
                             [(1000, 2, 2), (3, 8, 3), (5, None, 1)])
    def test_replica_workers_capped_at_cpu_count(self, tmp_path,
                                                 tdma_scenario, monkeypatch,
                                                 replicas, cpus, workers):
        pools = []

        class SerialPool:
            def __init__(self, max_workers, mp_context):
                pools.append((max_workers, mp_context.get_start_method()))

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            SerialPool)
        monkeypatch.setattr(coexlab.cli, "cmd_run",
                            lambda config: RunResult(config.out_dir, "mac", {}))
        assert run_cli("run", "--scenario", tdma_scenario,
                       "--out", str(tmp_path / "reps"),
                       "--replicas", str(replicas)) == 0
        assert pools == [(workers, "fork")]

    @pytest.mark.parametrize("family", ["mac", "tcp"])
    def test_replica_matches_single_run_with_its_seed(self, tmp_path,
                                                      agent_json, family):
        if family == "mac":
            scenario = write_mac_scenario(tmp_path / "s.json", [
                {"kind": "agent"}, {"kind": "tdma", "slots": [3, 5]}])
        else:
            scenario = write_tcp_scenario(tmp_path / "s.json", [
                {"controller": "agent"}, {"controller": "reno"}])
        reps = tmp_path / "reps"
        assert run_cli("run", "--scenario", scenario, "--out", str(reps),
                       "--agent-json", agent_json, "--replicas", "2") == 0
        base = json.loads(Path(scenario).read_text())["seed"]
        for i in range(2):
            single = tmp_path / f"single_{i}"
            assert run_cli("run", "--scenario", scenario,
                           "--out", str(single), "--agent-json", agent_json,
                           "--seed", str(base + i)) == 0
            replica = reps / f"replica_{i}"
            names = sorted(p.name for p in single.iterdir())
            assert sorted(p.name for p in replica.iterdir()) == names
            assert ARTIFACT_TRANSCRIPT in names
            for name in names:
                assert (replica / name).read_bytes() \
                    == (single / name).read_bytes(), (i, name)

    def test_replicas_json_is_deterministic(self, tmp_path, agent_json,
                                            capsys):
        scenario = write_mac_scenario(tmp_path / "csma.json", [
            {"kind": "agent"}, {"kind": "csma", "window": 2, "max_stage": 4}])
        texts = []
        for run in ("a", "b"):
            out = tmp_path / run
            assert run_cli("run", "--scenario", scenario, "--out", str(out),
                           "--agent-json", agent_json, "--replicas", "3") == 0
            summary = json.loads(capsys.readouterr().out)["replicas"]
            texts.append((out / ARTIFACT_REPLICAS).read_text())
        assert texts[0] == texts[1]
        doc = json.loads(texts[0])
        assert texts[0] == json.dumps(doc, indent=2, sort_keys=True) + "\n"
        assert [r["seed"] for r in doc["replicas"]] == [5, 6, 7]
        for row, printed in zip(doc["replicas"], summary):
            report = read_json(printed["out_dir"], ARTIFACT_METRICS)
            assert row == {"seed": printed["seed"], "jain": report["jain"],
                           "alpha_fair": report["alpha_fair"], "rmse": None}
        for key in ("jain", "alpha_fair"):
            values = [row[key] for row in doc["replicas"]]
            mean = sum(values) / 3
            std = math.sqrt(sum((v - mean) ** 2 for v in values) / 3)
            assert doc["summary"][key]["mean"] == pytest.approx(mean,
                                                                abs=1e-6)
            assert doc["summary"][key]["std"] == pytest.approx(std, abs=1e-6)
        # csma has no closed form, so no replica has an rmse
        assert doc["summary"]["rmse"] is None

    def test_replica_error_exits_with_its_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"version": "strategy-v1", "nonsense": 1}),
                       encoding="utf-8")
        argv = ["--scenario", str(ROOT / "scenarios" / "mac_1c1h.json"),
                "--backend", "none", "--strategy", str(bad)]
        assert run_cli("run", "--out", str(tmp_path / "one"), *argv) == 2
        single = capsys.readouterr().err
        assert run_cli("run", "--out", str(tmp_path / "reps"),
                       "--replicas", "2", *argv) == 2
        err = capsys.readouterr().err
        assert err == single
        assert json.loads(err)["error"] == "StrategyParseError"
        assert "Traceback" not in err

    def test_replica_without_closed_form_exits_4(self, tmp_path, capsys):
        # the parent loads the scenario; only the worker meets the csma node
        scenario = write_mac_scenario(tmp_path / "aw.json", [
            {"kind": "aware"}, {"kind": "csma", "window": 2, "max_stage": 4}],
            frames=200)
        assert run_cli("run", "--scenario", scenario, "--replicas", "2",
                       "--out", str(tmp_path / "reps")) == 4
        err = capsys.readouterr().err
        assert json.loads(err)["error"] == "UnsupportedPopulationError"
        assert "Traceback" not in err

    @pytest.mark.parametrize("join_round", [150, 200])
    def test_tcp_agent_joining_late_runs(self, tmp_path, agent_json,
                                         join_round):
        doc = json.loads((ROOT / "scenarios" / "tcp_agent_reno.json")
                         .read_text(encoding="utf-8"))
        doc["flows"][0]["join_round"] = join_round
        doc["total_rounds"] = 600
        scenario = tmp_path / "late.json"
        scenario.write_text(json.dumps(doc), encoding="utf-8")
        out = str(tmp_path / "run")
        assert run_cli("run", "--scenario", str(scenario), "--out", out,
                       "--agent-json", agent_json) == 0
        periods = read_json(out, ARTIFACT_TRACE)["children"]
        joined = next(p for p in periods if p["label"].startswith(
            f"period {join_round // 100} rounds"))
        assert joined["children"][0]["label"] == "no report yet"
        assert "0" in read_json(out, ARTIFACT_METRICS)["mean_throughputs"]

    def test_cached_strategy_skips_offline_stage(self, tmp_path,
                                                 tdma_scenario, agent_json):
        first = str(tmp_path / "first")
        run_cli("run", "--scenario", tdma_scenario, "--out", first,
                "--agent-json", agent_json)
        cached = str(tmp_path / "cached")
        code = run_cli("run", "--scenario", tdma_scenario, "--out", cached,
                       "--agent-json", agent_json, "--backend", "none",
                       "--strategy", os.path.join(first, ARTIFACT_STRATEGY))
        assert code == 0
        assert not os.path.exists(os.path.join(cached, ARTIFACT_DEMOS))
        assert not os.path.exists(os.path.join(cached, ARTIFACT_STRATEGIES))
        assert read_bytes(first, ARTIFACT_TRAJECTORY) \
            == read_bytes(cached, ARTIFACT_TRAJECTORY)
        # rerun from the strategy cached in its own output directory: that
        # file stays while the older run's other artifacts go
        code = run_cli("run", "--scenario", tdma_scenario, "--out", first,
                       "--agent-json", agent_json, "--backend", "none",
                       "--strategy", os.path.join(first, ARTIFACT_STRATEGY))
        assert code == 0
        assert os.path.isfile(os.path.join(first, ARTIFACT_STRATEGY))
        assert not os.path.exists(os.path.join(first, ARTIFACT_DEMOS))
        assert read_bytes(first, ARTIFACT_TRAJECTORY) \
            == read_bytes(cached, ARTIFACT_TRAJECTORY)

    def test_agent_scenario_without_backend_exits_2(self, tmp_path,
                                                    tdma_scenario):
        code = run_cli("run", "--scenario", tdma_scenario,
                       "--out", str(tmp_path / "o"), "--backend", "none")
        assert code == 2

    def test_unknown_agent_override_exits_2(self, tmp_path, tdma_scenario,
                                            capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"no_such_setting": 1}), encoding="utf-8")
        code = run_cli("run", "--scenario", tdma_scenario,
                       "--out", str(tmp_path / "o"),
                       "--agent-json", str(bad))
        assert code == 2
        assert "no_such_setting" in json.loads(capsys.readouterr().err)["message"]

    @pytest.mark.parametrize("settings", [
        {"demo_k": "3"}, {"window_frames": "x"}, {"n_max": True},
        {"ranker_online": 1}, {"alpha": None}, {"alpha": float("nan")},
        {"explore_sigma": float("inf")}, {"escape_ratio": "0.9"},
    ], ids=lambda d: json.dumps(d))
    def test_agent_setting_of_wrong_type_exits_2(self, tmp_path,
                                                 tdma_scenario, settings,
                                                 capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(settings), encoding="utf-8")
        out = tmp_path / "o"
        code = run_cli("run", "--scenario", tdma_scenario, "--out", str(out),
                       "--agent-json", str(bad))
        assert code == 2
        name = next(iter(settings))
        assert name in json.loads(capsys.readouterr().err)["message"]
        assert not out.exists()

    @pytest.mark.parametrize("name,value", [
        ("query_period_slots", 0), ("tcp_query_period_rounds", 0),
        ("observer_window_frames", 0), ("window_frames", 0),
        ("tcp_observer_window_rounds", 0), ("demo_frames", 0),
        ("demo_rounds", 0), ("eval_frames", 0), ("eval_rounds", 0),
        ("asi_retries", 0), ("demo_k", 0), ("convergence_periods", -1),
        ("n_max", -1), ("warmup_frames", -1),
    ])
    def test_count_setting_out_of_range_exits_2(self, tmp_path,
                                                tdma_scenario, name, value,
                                                capsys):
        # a TCP setting is tried on a TCP agent scenario, whose run reads it
        if name.startswith("tcp_") or name.endswith("_rounds"):
            scenario = write_tcp_scenario(tmp_path / "ar.json", [
                {"controller": "agent"}, {"controller": "reno"}])
        else:
            scenario = tdma_scenario
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({**FAST_AGENT, name: value}),
                       encoding="utf-8")
        out = tmp_path / "o"
        code = run_cli("run", "--scenario", scenario, "--out", str(out),
                       "--agent-json", str(bad))
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError"
        least = DEMO_WINDOW_FLOORS.get(name, value + 1)
        assert f"agent setting {name} must be >= {least}" in err["message"]
        assert not out.exists()

    @pytest.mark.parametrize("scenario,name", [
        ("tcp_agent_reno.json", "demo_rounds"),
        ("mac_2a1h.json", "demo_frames"),
    ])
    def test_demo_window_of_one_exits_2_and_two_runs(self, tmp_path,
                                                     scenario, name, capsys):
        # a DYNAMIC demo switches its population half way through its
        # window, which a window of one frame or round cannot hold
        path = str(ROOT / "scenarios" / scenario)
        one = tmp_path / "one.json"
        one.write_text(json.dumps({name: 1}), encoding="utf-8")
        out = tmp_path / "o1"
        assert run_cli("run", "--scenario", path, "--out", str(out),
                       "--agent-json", str(one)) == 2
        err = json.loads(capsys.readouterr().err)
        assert f"agent setting {name} must be >= 2" in err["message"]
        assert not out.exists()
        two = tmp_path / "two.json"
        two.write_text(json.dumps({name: 2}), encoding="utf-8")
        assert run_cli("run", "--scenario", path, "--out",
                       str(tmp_path / "o2"), "--agent-json", str(two)) == 0

    @pytest.mark.parametrize("scenario,flags,name", [
        ("mac_1a1h.json", ("--seed", "-1"), "seed"),
        ("tcp_reno2.json", ("--seed", "-1"), "seed"),
        ("mac_1a1h.json", ("--seed", "-1", "--replicas", "2"), "seed"),
        ("mac_1a1h.json", ("--demo-seed", "-4"), "demo_seed"),
        ("tcp_agent_reno.json", ("--demo-seed", "-4"), "demo_seed"),
    ], ids=["mac", "tcp-no-agent", "replicas", "demo-mac", "demo-tcp"])
    def test_negative_seed_flag_exits_2_and_names_it(self, tmp_path,
                                                     scenario, flags, name,
                                                     capsys):
        out = tmp_path / "o"
        code = run_cli("run", "--scenario", str(ROOT / "scenarios" / scenario),
                       "--out", str(out), *flags)
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "InvalidScenarioError",
                       "message": f"{name}: must be >= 0"}
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "offline"])
    def test_negative_scenario_seed_exits_2_before_any_artifact(
            self, tmp_path, command, capsys):
        doc = json.loads((ROOT / "scenarios/mac_1a1h.json").read_text())
        scenario = tmp_path / "negative.json"
        scenario.write_text(json.dumps({**doc, "seed": -2}),
                            encoding="utf-8")
        out = tmp_path / "o"
        assert run_cli(command, "--scenario", str(scenario),
                       "--out", str(out)) == 2
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "InvalidScenarioError",
                       "message": "seed: must be >= 0"}
        assert not out.exists()

    @pytest.mark.parametrize("flag,name", [
        ("--query-period=0", "query_period_slots"), ("--n-max=-1", "n_max"),
        ("--demo-k=0", "demo_k"), ("--window=0", "window_frames"),
        ("--warmup=-1", "warmup_frames"),
    ])
    def test_count_flag_out_of_range_exits_2(self, tmp_path, tdma_scenario,
                                             flag, name, capsys):
        out = tmp_path / "o"
        assert run_cli("run", "--scenario", tdma_scenario, "--out", str(out),
                       flag) == 2
        assert name in json.loads(capsys.readouterr().err)["message"]
        assert not out.exists()

    def test_non_finite_flag_exits_2(self, tmp_path, tdma_scenario):
        out = tmp_path / "o"
        assert run_cli("run", "--scenario", tdma_scenario, "--out", str(out),
                       "--alpha", "nan") == 2
        assert not out.exists()

    @pytest.mark.parametrize("alpha", [50.0, -1.0],
                             ids=["overflowing", "negative"])
    @pytest.mark.parametrize("source", ["flag", "agent-json"])
    def test_alpha_the_utility_cannot_evaluate_exits_2(self, tmp_path, alpha,
                                                       source, capsys):
        shipped = json.loads((ROOT / "scenarios" / "mac_2a1h.json").read_text())
        scenario = write_mac_scenario(tmp_path / "mac_2a1h.json",
                                      shipped["nodes"], frames=600)
        out = tmp_path / "o"
        if source == "flag":
            extra = [f"--alpha={alpha}"]
        else:
            settings = tmp_path / "alpha.json"
            settings.write_text(json.dumps({"alpha": alpha}),
                                encoding="utf-8")
            extra = ["--agent-json", str(settings)]
        code = run_cli("run", "--scenario", scenario, "--out", str(out),
                       *extra)
        assert code == 2
        assert "alpha" in json.loads(capsys.readouterr().err)["message"]
        assert not out.exists()

    def test_agent_joining_late_gets_a_reference(self, tmp_path,
                                                 late_agent_scenario,
                                                 agent_json, capsys):
        out = str(tmp_path / "run")
        assert run_cli("run", "--scenario", late_agent_scenario,
                       "--out", out, "--agent-json", agent_json) == 0
        assert os.path.isfile(os.path.join(out, ARTIFACT_REFERENCE))
        rmse = read_json(out, ARTIFACT_METRICS)["rmse"]
        assert isinstance(rmse, float) and math.isfinite(rmse)

    @pytest.mark.parametrize("leave", [None, 300],
                             ids=["shipped", "aloha-leaves"])
    def test_aware_run_solves_each_segment_once(self, tmp_path, solve_calls,
                                                leave):
        doc = json.loads(
            (ROOT / "scenarios" / "mac_aware_2a1h.json").read_text())
        if leave is not None:
            doc["nodes"][1]["leave_frame"] = leave
        scenario = tmp_path / "aware.json"
        scenario.write_text(json.dumps(doc), encoding="utf-8")
        assert run_cli("run", "--scenario", str(scenario),
                       "--out", str(tmp_path / "run")) == 0
        assert len(solve_calls) == (1 if leave is None else 2)

    def test_agent_run_solves_each_population_once(self, tmp_path,
                                                   solve_calls):
        # the offline J target and the reference share four populations
        assert run_cli("run",
                       "--scenario", str(ROOT / "scenarios/mac_dynamic.json"),
                       "--out", str(tmp_path / "run")) == 0
        populations = {json.dumps([pop.n_agents, pop.aloha_q,
                                   [list(t) for t in pop.tdma_slots],
                                   pop.frame_len, alpha])
                       for pop, alpha in solve_calls}
        assert len(populations) == 4
        assert len(solve_calls) == len(populations)

    @pytest.mark.parametrize("doc", [
        {"domain": "mac", "base_action": [0.5] * 4},
        {"domain": "mac", "base_action": [0.5] * 12},
        {"domain": "tcp", "base_action": 8},
    ], ids=["short", "long", "wrong-domain"])
    def test_unsound_cached_strategy_exits_2(self, tmp_path, doc, capsys):
        cached = tmp_path / "cached.json"
        cached.write_text(json.dumps(dict(doc, version="strategy-v1")),
                          encoding="utf-8")
        code = run_cli("run",
                       "--scenario", str(ROOT / "scenarios/mac_1t1h.json"),
                       "--out", str(tmp_path / "o"), "--backend", "none",
                       "--strategy", str(cached))
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "InvalidScenarioError"
        assert str(cached) in err["message"]

    @pytest.mark.parametrize("trigger, effect, message", [
        ({"signal": ["env_change"]}, {"kind": "reset_exploration"},
         "unknown trigger signal ['env_change']"),
        ({"signal": "env_change"}, {"kind": {"scale_all": 1}},
         "unknown effect kind {'scale_all': 1}"),
    ], ids=["list-signal", "object-kind"])
    def test_non_string_rule_tag_exits_2(self, tmp_path, trigger, effect,
                                         message, capsys):
        cached = tmp_path / "cached.json"
        cached.write_text(json.dumps({
            "version": "strategy-v1", "domain": "mac",
            "base_action": [0.5] * 10,
            "rules": [{"trigger": trigger, "effect": effect}]}),
            encoding="utf-8")
        code = run_cli("run",
                       "--scenario", str(ROOT / "scenarios/mac_1t1h.json"),
                       "--out", str(tmp_path / "o"), "--backend", "none",
                       "--strategy", str(cached))
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "StrategyParseError"
        assert message in err["message"]

    def test_mac_strategy_on_tcp_scenario_exits_2(self, tmp_path, capsys):
        scenario = write_tcp_scenario(
            tmp_path / "ar.json",
            [{"controller": "agent"}, {"controller": "reno"}])
        cached = tmp_path / "cached.json"
        cached.write_text(json.dumps({"version": "strategy-v1",
                                      "domain": "mac",
                                      "base_action": [0.5] * 10}),
                          encoding="utf-8")
        code = run_cli("run", "--scenario", scenario,
                       "--out", str(tmp_path / "o"), "--backend", "none",
                       "--strategy", str(cached))
        assert code == 2
        assert "domain" in json.loads(capsys.readouterr().err)["message"]

    @pytest.mark.parametrize("frames, settings, path", [
        (50, {}, "total_frames"),
        (600, {"eval_frames": 50}, "agent.eval_frames"),
    ], ids=["total_frames", "eval_frames"])
    def test_horizon_below_window_exits_2(self, tmp_path, frames, settings,
                                          path, capsys):
        doc = json.loads((ROOT / "scenarios/mac_1a1h.json").read_text())
        scenario = write_mac_scenario(tmp_path / "short.json", doc["nodes"],
                                      frames=frames)
        overrides = tmp_path / "agent.json"
        overrides.write_text(json.dumps(settings), encoding="utf-8")
        out = tmp_path / "o"
        code = run_cli("run", "--scenario", scenario, "--out", str(out),
                       "--backend", "scripted", "--agent-json",
                       str(overrides))
        assert code == 2
        assert json.loads(capsys.readouterr().err)["message"].startswith(
            f"{path}: ")
        assert not out.exists()

    @pytest.mark.parametrize("family, keys, value", [
        ("tcp", ("flows", 0, "join_round"), "5"),
        ("tcp", ("flows", 0, "leave_round"), "9"),
        ("tcp", ("link_capacity_pps",), "x"),
        ("tcp", ("cwnd_max",), 10 ** 400),
        ("tcp", ("base_rtt_s",), float("nan")),
        ("tcp", ("cwnd_max",), 10.5),
        ("tcp", ("total_rounds",), True),
        ("mac", ("nodes", 0, "join_frame"), "5"),
        ("mac", ("nodes", 1, "slots"), 3),
        ("mac", ("frame_len",), True),
        ("mac", ("slot_duration_ms",), "1"),
    ], ids=["join_round", "leave_round", "link_capacity_pps", "huge_cwnd_max",
            "nan_base_rtt_s", "fractional_cwnd_max", "bool_total_rounds",
            "join_frame", "slots", "bool_frame_len",
            "slot_duration_ms"])
    def test_scenario_field_of_wrong_type_exits_2(self, tmp_path, family,
                                                  keys, value, capsys):
        if family == "tcp":
            path = write_tcp_scenario(tmp_path / "s.json", [
                {"controller": "reno", "leave_round": 300},
                {"controller": "vegas", "join_round": 10}])
        else:
            path = write_mac_scenario(tmp_path / "s.json", [
                {"kind": "aloha", "q": 0.2},
                {"kind": "tdma", "slots": [3], "join_frame": 5}])
        doc = json.loads(Path(path).read_text())
        target = doc
        for key in keys[:-1]:
            target = target[key]
        target[keys[-1]] = value
        Path(path).write_text(json.dumps(doc), encoding="utf-8")
        out = tmp_path / "o"
        code = run_cli("run", "--scenario", path, "--out", str(out),
                       "--backend", "none")
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "InvalidScenarioError"
        field = keys[-1] if len(keys) == 1 \
            else f"{keys[0]}[{keys[1]}].{keys[2]}"
        assert err["message"].startswith(f"{field}: ")
        assert not out.exists()

    @pytest.mark.parametrize("which", ["scenario", "strategy", "agent-json"])
    def test_deeply_nested_file_exits_2(self, tmp_path, which, capsys):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
        args = ["run", "--out", str(tmp_path / "o"), "--backend", "none"]
        if which == "scenario":
            args += ["--scenario", str(deep)]
        else:
            args += ["--scenario", str(ROOT / "scenarios/mac_1t1h.json"),
                     f"--{which}", str(deep)]
        assert run_cli(*args) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "InvalidScenarioError"
        assert "nested too deeply" in err["message"]
        assert str(deep) in err["message"]

    @pytest.mark.parametrize("strategies", [5, {"x": 1}, []],
                             ids=["number", "object", "empty"])
    def test_snapshot_without_a_strategy_list_exits_2(self, tmp_path,
                                                      strategies, capsys):
        snapshot = tmp_path / "snapshot.json"
        snapshot.write_text(json.dumps({"version": "strategies-v1",
                                        "strategies": strategies}),
                            encoding="utf-8")
        code = run_cli("run",
                       "--scenario", str(ROOT / "scenarios/mac_1t1h.json"),
                       "--out", str(tmp_path / "o"), "--backend", "none",
                       "--strategy", str(snapshot))
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "InvalidScenarioError"
        assert str(snapshot) in err["message"]

    def test_offline_memories_frozen_for_online_stage(self, tmp_path,
                                                      tdma_scenario):
        result = cmd_run(RunConfig(scenario_path=tdma_scenario,
                                   out_dir=str(tmp_path / "run"),
                                   agent=AgentConfig(**FAST_AGENT)))
        assert result.offline.strategies.frozen
        assert result.offline.episodes.frozen
        with pytest.raises(MemoryFrozenError):
            result.offline.strategies.add(result.offline.strategy)
        with pytest.raises(MemoryFrozenError):
            result.offline.episodes.add(EpisodeRecord("s", 0.0))

    @pytest.mark.parametrize("family", ["mac", "tcp"])
    def test_non_finite_first_decision_exits_3(self, tmp_path, agent_json,
                                               tdma_scenario, monkeypatch,
                                               family, capsys):
        scenario = tdma_scenario if family == "mac" else write_tcp_scenario(
            tmp_path / "ar.json",
            [{"controller": "agent"}, {"controller": "reno"}])
        monkeypatch.setattr(coexlab.runner, "make_backend",
                            lambda config: NonFiniteDecisions())
        code = run_cli("run", "--scenario", scenario,
                       "--out", str(tmp_path / "run"),
                       "--agent-json", agent_json)
        assert code == 3
        assert json.loads(capsys.readouterr().err)["error"] \
            == "MalformedResponseError"

    def test_protocol_only_tcp_run(self, tmp_path, capsys):
        scenario = write_tcp_scenario(tmp_path / "rv.json", [
            {"controller": "reno"}, {"controller": "vegas"}], rounds=600)
        out = str(tmp_path / "run")
        assert run_cli("run", "--scenario", scenario, "--out", out) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["family"] == "tcp"
        metrics = read_json(out, ARTIFACT_METRICS)
        assert 0.5 <= metrics["jain"] <= 1.0
        assert not os.path.exists(os.path.join(out, ARTIFACT_TRACE))

    def test_aware_scenario_uses_reference_actuation(self, tmp_path,
                                                     capsys):
        scenario = write_mac_scenario(tmp_path / "aw.json", [
            {"kind": "aware"}, {"kind": "aloha", "q": 0.2}], frames=1500)
        out = str(tmp_path / "run")
        assert run_cli("run", "--scenario", scenario, "--out", out) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["rmse"] < 0.1
        assert not os.path.exists(os.path.join(out, ARTIFACT_DEMOS))

    @pytest.mark.parametrize("scenario", ["tcp_reno2", "mac_aware_2a1h"])
    def test_run_driving_no_agent_leaves_no_transcript(self, tmp_path,
                                                       scenario):
        out = tmp_path / "run"
        assert run_cli("run", "--scenario",
                       str(ROOT / "scenarios" / f"{scenario}.json"),
                       "--out", str(out)) == 0
        assert (out / ARTIFACT_METRICS).is_file()
        assert not (out / ARTIFACT_TRANSCRIPT).exists()

    def test_agent_run_still_writes_its_transcript(self, tmp_path,
                                                   tdma_scenario, agent_json):
        out = tmp_path / "run"
        assert run_cli("run", "--scenario", tdma_scenario, "--out", str(out),
                       "--agent-json", agent_json) == 0
        lines = (out / ARTIFACT_TRANSCRIPT).read_text().splitlines()
        assert lines and all(json.loads(line) for line in lines)

    @pytest.mark.parametrize("nodes, closed_form", [
        ([{"kind": "aloha", "q": 0.3}, {"kind": "tdma", "slots": [3, 5]}],
         True),
        ([{"kind": "csma", "window": 2, "max_stage": 4},
          {"kind": "aloha", "q": 0.2}], False)])
    def test_protocol_only_mac_run(self, tmp_path, nodes, closed_form,
                                   capsys):
        # no agent and no aware node: the fixed nodes play the whole
        # horizon, against the reference where the population has one
        frames, window = 600, AgentConfig().window_frames
        scenario = write_mac_scenario(tmp_path / "p.json", nodes,
                                      frames=frames)
        out = tmp_path / "run"
        assert run_cli("run", "--scenario", scenario, "--out", str(out)) == 0
        summary = json.loads(capsys.readouterr().out)
        metrics = read_json(out, ARTIFACT_METRICS)
        assert summary["rmse"] == metrics["rmse"]
        if closed_form:
            assert isinstance(metrics["rmse"], float)
        else:
            assert metrics["rmse"] is None
        assert (out / ARTIFACT_REFERENCE).is_file() == closed_form
        lines = (out / ARTIFACT_TRAJECTORY).read_text().splitlines()
        assert len(lines) == frames + 2 - window
        assert lines[0] == "frame,node_0,node_1"
        assert [lines[1].split(",")[0], lines[-1].split(",")[0]] == \
            [str(window), str(frames)]
        assert (out / ARTIFACT_THROUGHPUT).read_text().splitlines() == \
            ["node,mean_throughput"] + [
                f"{nid},{value}"
                for nid, value in metrics["mean_throughputs"].items()]
        assert list(metrics["mean_throughputs"]) == ["0", "1"]
        assert not (out / ARTIFACT_TRANSCRIPT).exists()
        assert not (out / ARTIFACT_TRACE).exists()
        assert run_cli("eval", "--run", str(out)) == 0
        evaluated = json.loads(capsys.readouterr().out)
        assert (evaluated["jain"], evaluated["rmse"]) == \
            (metrics["jain"], metrics["rmse"])

    @pytest.mark.parametrize("command, scenario, flags, prefix", [
        ("run", "mac_2a1h", ["--query-period", "15"],
         "query_period_slots 15 must cover whole 10-slot frames"),
        ("run", "mac_1t1h", ["--backend", "none"], "backend: "),
        ("run", "tcp_agent_reno", ["--strategy", "BAD"], "strategy: "),
        ("run", "mac_2a1h", ["--replicas", "2", "--query-period", "15"],
         "query_period_slots 15 "),
        ("run", "tcp_reno2", ["--strategy", "BAD"], "strategy: "),
        ("run", "mac_aware_2a1h", ["--strategy", "BAD"], "strategy: "),
        ("run", "tcp_late_joiners", [], "agent.eval_rounds: "),
        ("offline", "tcp_late_joiners", [], "agent.eval_rounds: "),
        ("run", "tcp_early_leavers", [], "total_rounds: "),
    ], ids=["partial_frames", "no_backend", "unparsable_strategy",
            "replicas_partial_frames", "strategy_without_agent_tcp",
            "strategy_without_agent_mac", "no_flow_in_scored_eval_half",
            "offline_no_flow_in_scored_eval_half",
            "no_flow_in_scored_run_half"])
    def test_refused_run_keeps_earlier_run(self, tmp_path, command, scenario,
                                           flags, prefix, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("not json", encoding="utf-8")
        path = ROOT / "scenarios" / f"{scenario}.json"
        if scenario in EDITED_FLOWS:
            doc = json.loads((ROOT / "scenarios" / "tcp_agent_reno.json")
                             .read_text(encoding="utf-8"))
            doc["flows"] = EDITED_FLOWS[scenario]
            path = tmp_path / f"{scenario}.json"
            path.write_text(json.dumps(doc), encoding="utf-8")
        out = tmp_path / "o"
        out.mkdir()
        # what an earlier run left; a refused run leaves it byte for byte
        # and adds nothing, no transcript nor replica directory
        for name in (ARTIFACT_METRICS, ARTIFACT_CONFIG, ARTIFACT_REPLICAS):
            (out / name).write_text(f'{{"name": "{name}"}}\n')

        def tree():
            return {path: path.read_bytes() if path.is_file() else None
                    for path in out.rglob("*")}

        before = tree()
        assert run_cli(
            command, "--out", str(out), "--scenario", str(path),
            *[str(bad) if flag == "BAD" else flag for flag in flags]) == 2
        assert tree() == before
        assert json.loads(capsys.readouterr().err)["message"].startswith(
            prefix)

    def test_aware_scenario_without_closed_form_exits_4(self, tmp_path,
                                                        capsys):
        # the csma node joins only after the aware node has left, but the
        # aware path actuates the reference, which needs every segment
        scenario = write_mac_scenario(tmp_path / "aw.json", [
            {"kind": "aware", "leave_frame": 300}, {"kind": "aloha", "q": 0.2},
            {"kind": "csma", "window": 2, "max_stage": 4, "join_frame": 300}])
        assert run_cli("run", "--scenario", scenario,
                       "--out", str(tmp_path / "run")) == 4
        assert json.loads(capsys.readouterr().err)["error"] \
            == "UnsupportedPopulationError"


# refusal scenarios: tcp_agent_reno's 2000 rounds with these flows, none of
# them live in the second half of the 1000-round evaluation episode
# (late joiners) or of the run (early leavers)
EDITED_FLOWS = {
    "tcp_late_joiners": [{"controller": "agent", "join_round": 1200},
                         {"controller": "reno", "join_round": 1500}],
    "tcp_early_leavers": [{"controller": "agent", "leave_round": 500},
                          {"controller": "reno", "leave_round": 800}],
}

# agent flag -> a value unlike its default and FAST_AGENT's
FLAG_VALUES = {"query_period": 50, "epsilon": 0.1, "sigma": 0.3, "n_max": 1,
               "alpha": 2.0, "demo_k": 2, "window": 50, "warmup": 100}
# (flag, family) -> the artifact that the flag must change
FLAG_CHANGES = {("query_period", "tcp"): ARTIFACT_TRACE,
                ("sigma", "tcp"): ARTIFACT_TRANSCRIPT}


def write_flag_scenario(path, family):
    """A small agent scenario of ``family`` for the agent flag cases."""
    if family == "mac":
        return write_mac_scenario(path, [
            {"kind": "agent"}, {"kind": "tdma", "slots": [3, 5]}])
    return write_tcp_scenario(path, [{"controller": "agent"},
                                     {"controller": "reno"}])


@pytest.fixture(scope="module")
def flagless_runs(tmp_path_factory):
    """family -> the directory of a run given no agent flag."""
    root = tmp_path_factory.mktemp("flagless")
    settings = root / "agent.json"
    settings.write_text(json.dumps(FAST_AGENT), encoding="utf-8")
    runs = {}
    for family in ("mac", "tcp"):
        runs[family] = str(root / family)
        assert main(["run", "--scenario",
                     write_flag_scenario(root / f"{family}.json", family),
                     "--out", runs[family],
                     "--agent-json", str(settings)]) == 0
    return runs


class TestAgentFlags:
    def test_parser_flags_are_the_tables_keys(self):
        parser = argparse.ArgumentParser()
        coexlab.cli._add_agent_flags(parser)
        flags = {action.dest for action in parser._actions}
        assert flags - {"help", "agent_json"} == set(AGENT_FLAGS)
        assert set(FLAG_VALUES) == set(AGENT_FLAGS)

    @pytest.mark.parametrize("family", ["mac", "tcp"])
    @pytest.mark.parametrize("flag", sorted(FLAG_VALUES))
    def test_flag_sets_the_running_familys_setting(
            self, tmp_path, flag, family, agent_json, flagless_runs,
            capsys):
        setting = AGENT_FLAGS[flag][family == "tcp"]
        value = FLAG_VALUES[flag]
        out = tmp_path / "o"
        code = run_cli("run", "--out", str(out), "--agent-json", agent_json,
                       "--scenario",
                       write_flag_scenario(tmp_path / "s.json", family),
                       f"--{flag.replace('_', '-')}", str(value))
        if setting is None:
            assert code == 2
            assert json.loads(capsys.readouterr().err)["message"] == \
                f"--{flag}: a {family} run has no such setting"
            assert not out.exists()
            return
        assert code == 0
        # the one setting that differs from the flagless run's
        assert read_json(out, ARTIFACT_CONFIG)["agent"] == \
            dict(read_json(flagless_runs[family], ARTIFACT_CONFIG)["agent"],
                 **{setting: value})
        changed = FLAG_CHANGES.get((flag, family))
        if changed is not None:
            assert read_bytes(out, changed) != \
                read_bytes(flagless_runs[family], changed)


class TestOracleCommand:
    def test_aloha_report_shows_even_split(self, tmp_path, aloha_scenario,
                                           capsys):
        out = str(tmp_path / "oracle")
        assert run_cli("oracle", "--scenario", aloha_scenario,
                       "--out", out) == 0
        report = read_json(out, ARTIFACT_ORACLE)
        seg = report["segments"][0]
        assert seg["policies"]["0"] == pytest.approx([0.5] * 10, abs=1e-3)
        assert os.path.isfile(os.path.join(out, ARTIFACT_REFERENCE))

    def test_csma_population_exits_4(self, tmp_path, capsys):
        scenario = write_mac_scenario(tmp_path / "c.json", [
            {"kind": "agent"},
            {"kind": "csma", "window": 2, "max_stage": 4}])
        code = run_cli("oracle", "--scenario", scenario,
                       "--out", str(tmp_path / "o"))
        assert code == 4
        assert json.loads(capsys.readouterr().err)["error"] \
            == "UnsupportedPopulationError"

    def test_segment_without_controlled_node_exits_0(self, tmp_path,
                                                     late_agent_scenario):
        out = str(tmp_path / "oracle")
        assert run_cli("oracle", "--scenario", late_agent_scenario,
                       "--out", out) == 0
        first, second = read_json(out, ARTIFACT_ORACLE)["segments"]
        assert first["policies"] == {} and set(second["policies"]) == {"0"}

    @pytest.mark.parametrize("alpha", ["50", "-1"])
    def test_alpha_the_utility_cannot_evaluate_exits_2(self, tmp_path,
                                                       aloha_scenario, alpha,
                                                       capsys):
        out = tmp_path / "oracle"
        assert run_cli("oracle", "--scenario", aloha_scenario,
                       "--out", str(out), f"--alpha={alpha}") == 2
        assert "alpha" in json.loads(capsys.readouterr().err)["message"]
        assert not out.exists()

    def test_flow_scenario_exits_4(self, tmp_path):
        scenario = write_tcp_scenario(tmp_path / "t.json", [
            {"controller": "reno"}, {"controller": "reno"}])
        assert run_cli("oracle", "--scenario", scenario,
                       "--out", str(tmp_path / "o")) == 4


class TestEvalCommand:
    def test_summary_matches_run_metrics(self, tmp_path, tdma_scenario,
                                         agent_json, capsys):
        out = str(tmp_path / "run")
        run_cli("run", "--scenario", tdma_scenario, "--out", out,
                "--agent-json", agent_json)
        capsys.readouterr()
        assert run_cli("eval", "--run", out) == 0
        summary = json.loads(capsys.readouterr().out)
        metrics = read_json(out, ARTIFACT_METRICS)
        assert summary["rmse"] == metrics["rmse"]
        assert summary["jain"] == metrics["jain"]
        assert summary["params"] == metrics["params"]

    def test_fairness_figures_match_the_run(self, tmp_path, capsys):
        # the run's unrounded means give a jain of 0.987865 and an
        # alpha_fair of 6.677398; the six-place means that throughput.csv
        # holds, and eval reads, give 0.987866 and 6.677399
        scenario = tmp_path / "s.json"
        scenario.write_text(json.dumps({
            "version": "mac-v1", "frame_len": 10, "seed": 1,
            "total_frames": 700, "nodes": [
                {"kind": "agent", "leave_frame": 200},
                {"kind": "aloha", "q": 0.3}]}), encoding="utf-8")
        out = str(tmp_path / "run")
        assert run_cli("run", "--scenario", str(scenario), "--out", out,
                       "--backend", "scripted") == 0
        capsys.readouterr()
        assert run_cli("eval", "--run", out) == 0
        summary = json.loads(capsys.readouterr().out)
        metrics = read_json(out, ARTIFACT_METRICS)
        assert (summary["jain"], summary["alpha_fair"]) \
            == (metrics["jain"], metrics["alpha_fair"]) \
            == (0.987866, 6.677399)

    def test_missing_artifacts_exit_2(self, tmp_path, capsys):
        code = run_cli("eval", "--run", str(tmp_path / "empty"))
        assert code == 2
        assert "missing artifact" in \
            json.loads(capsys.readouterr().err)["message"]


    def test_unknown_agent_setting_in_run_config_exits_2(
            self, tmp_path, tdma_scenario, agent_json, capsys):
        out = tmp_path / "run"
        run_cli("run", "--scenario", tdma_scenario, "--out", str(out),
                "--agent-json", agent_json)
        config = json.loads((out / ARTIFACT_CONFIG).read_text())
        config["agent"]["no_such_setting"] = 1
        (out / ARTIFACT_CONFIG).write_text(json.dumps(config))
        capsys.readouterr()
        assert run_cli("eval", "--run", str(out)) == 2
        assert "no_such_setting" in \
            json.loads(capsys.readouterr().err)["message"]


    def test_count_setting_out_of_range_in_run_config_exits_2(
            self, tmp_path, tdma_scenario, agent_json, capsys):
        out = tmp_path / "run"
        run_cli("run", "--scenario", tdma_scenario, "--out", str(out),
                "--agent-json", agent_json)
        config = json.loads((out / ARTIFACT_CONFIG).read_text())
        config["agent"]["window_frames"] = 0
        (out / ARTIFACT_CONFIG).write_text(json.dumps(config))
        capsys.readouterr()
        assert run_cli("eval", "--run", str(out)) == 2
        assert "window_frames" in \
            json.loads(capsys.readouterr().err)["message"]

    def test_tcp_eval_reads_no_trajectory_but_needs_one(self, tmp_path,
                                                        capsys):
        scenario = write_tcp_scenario(tmp_path / "rv.json", [
            {"controller": "reno"}, {"controller": "vegas"}], rounds=300)
        out = tmp_path / "run"
        assert run_cli("run", "--scenario", scenario, "--out", str(out)) == 0
        assert run_cli("eval", "--run", str(out)) == 0
        summary = read_bytes(out, "eval_summary.json")
        (out / ARTIFACT_TRAJECTORY).write_bytes(b"round\xff\xfe\r\n")
        assert run_cli("eval", "--run", str(out)) == 0
        assert read_bytes(out, "eval_summary.json") == summary
        (out / ARTIFACT_TRAJECTORY).unlink()
        capsys.readouterr()
        assert run_cli("eval", "--run", str(out)) == 2
        assert "missing artifact" in \
            json.loads(capsys.readouterr().err)["message"]

    @pytest.fixture(scope="class")
    def mac_run(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("mac_run")
        scenario = write_mac_scenario(tmp / "tdma.json", [
            {"kind": "agent"}, {"kind": "tdma", "slots": [3, 5]}])
        (tmp / "agent.json").write_text(json.dumps(FAST_AGENT))
        out = tmp / "run"
        assert run_cli("run", "--scenario", scenario, "--out", str(out),
                       "--agent-json", str(tmp / "agent.json")) == 0
        return out

    @staticmethod
    def break_artifact(tmp_path, mac_run, name, mutate):
        """A copy of ``mac_run`` with artifact ``name`` (or a ``--reference``
        copy of its reference) mutated; the eval arguments and the path."""
        out = tmp_path / "run"
        shutil.copytree(mac_run, out)
        args = ["eval", "--run", str(out)]
        path = out / name
        if name == "--reference":
            path = tmp_path / "override.csv"
            shutil.copy(out / ARTIFACT_REFERENCE, path)
            args += ["--reference", str(path)]
        path.write_text(mutate(path.read_text()))
        return args, path

    @pytest.mark.parametrize("breakage", sorted(EVAL_CSV_BREAKAGES))
    def test_short_or_empty_csv_exits_2(self, tmp_path, mac_run, breakage,
                                        capsys):
        args, _ = self.break_artifact(tmp_path, mac_run,
                                      *EVAL_CSV_BREAKAGES[breakage])
        capsys.readouterr()
        assert run_cli(*args) == 2
        assert json.loads(capsys.readouterr().err)["error"] == \
            "InvalidScenarioError"

    @staticmethod
    def assert_exit_2_naming(args, name, path, capsys):
        """``coexlab eval`` exits 2, names the broken file and writes no
        summary."""
        capsys.readouterr()
        assert run_cli(*args) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "InvalidScenarioError"
        assert err["message"].startswith(
            str(path) if name in ("--reference", ARTIFACT_REFERENCE)
            else name)
        assert not (Path(args[2]) / "eval_summary.json").exists()

    @pytest.mark.parametrize("name,value", EVAL_NON_FINITE)
    def test_non_finite_cell_exits_2_and_names_file(self, tmp_path, mac_run,
                                                   name, value, capsys):
        args, path = self.break_artifact(tmp_path, mac_run, name,
                                         set_last_cell(value))
        self.assert_exit_2_naming(args, name, path, capsys)

    @pytest.mark.parametrize("breakage", sorted(EVAL_BAD_IDS))
    def test_bad_or_repeated_id_exits_2_and_names_file(
            self, tmp_path, mac_run, breakage, capsys):
        name, mutate = EVAL_BAD_IDS[breakage]
        args, path = self.break_artifact(tmp_path, mac_run, name, mutate)
        self.assert_exit_2_naming(args, name, path, capsys)

    @pytest.mark.parametrize("name", [ARTIFACT_REFERENCE, "--reference"])
    def test_reference_without_a_trajectory_node_exits_2_and_names_file(
            self, tmp_path, mac_run, name, capsys):
        args, path = self.break_artifact(tmp_path, mac_run, name,
                                         drop_column(2))
        self.assert_exit_2_naming(args, name, path, capsys)

    def test_reference_may_hold_a_node_no_window_saw(self, tmp_path, capsys):
        """A node that joins at the horizon has a reference column but no
        trajectory column; a reference lacking a trajectory node is
        refused."""
        scenario = write_mac_scenario(tmp_path / "late.json", [
            {"kind": "aloha", "q": 0.3}, {"kind": "tdma", "slots": [3]},
            {"kind": "aloha", "q": 0.3, "join_frame": 600}], frames=600)
        out = tmp_path / "run"
        assert run_cli("run", "--scenario", scenario, "--out", str(out)) == 0
        assert "node_2" in (out / ARTIFACT_REFERENCE).read_text()
        assert "node_2" not in (out / ARTIFACT_TRAJECTORY).read_text()
        args, path = self.break_artifact(tmp_path / "broken", out,
                                         ARTIFACT_REFERENCE, drop_column(1))
        self.assert_exit_2_naming(args, ARTIFACT_REFERENCE, path, capsys)
        assert run_cli("eval", "--run", str(out)) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["rmse"] == read_json(out, ARTIFACT_METRICS)["rmse"]

    @pytest.mark.parametrize("breakage", sorted(EVAL_BREAKAGES))
    def test_malformed_run_artifact_exits_2(self, tmp_path, breakage,
                                            capsys):
        scenario = write_tcp_scenario(tmp_path / "rv.json", [
            {"controller": "reno"}, {"controller": "vegas"}], rounds=300)
        out = tmp_path / "run"
        assert run_cli("run", "--scenario", scenario, "--out", str(out)) == 0
        name, mutate = EVAL_BREAKAGES[breakage]
        doc = json.loads((out / name).read_text())
        (out / name).write_text(json.dumps(mutate(doc)))
        capsys.readouterr()
        assert run_cli("eval", "--run", str(out)) == 2
        assert json.loads(capsys.readouterr().err)["message"]

    @pytest.mark.parametrize("name", [ARTIFACT_CONFIG, ARTIFACT_METRICS])
    def test_deeply_nested_json_artifact_exits_2(self, tmp_path, name,
                                                 capsys):
        scenario = write_tcp_scenario(tmp_path / "rv.json", [
            {"controller": "reno"}, {"controller": "vegas"}], rounds=300)
        out = tmp_path / "run"
        assert run_cli("run", "--scenario", scenario, "--out", str(out)) == 0
        (out / name).write_text("[" * 100_000 + "]" * 100_000,
                                encoding="utf-8")
        capsys.readouterr()
        assert run_cli("eval", "--run", str(out)) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "InvalidScenarioError"
        assert "nested too deeply" in err["message"]
        assert str(out / name) in err["message"]


class TestTraceCommand:
    def test_renders_tree_and_dot(self, tmp_path, tdma_scenario, agent_json,
                                  capsys):
        out = str(tmp_path / "run")
        run_cli("run", "--scenario", tdma_scenario, "--out", out,
                "--agent-json", agent_json)
        capsys.readouterr()
        assert run_cli("trace", "--run", out) == 0
        paths = json.loads(capsys.readouterr().out)
        with open(paths["tree"], encoding="utf-8") as fh:
            tree = fh.read()
        assert tree.startswith("assistant: run")
        assert "observer:" in tree
        with open(paths["dot"], encoding="utf-8") as fh:
            assert fh.read().startswith("digraph decision_trace")

    def test_keeps_the_dot_graph_the_run_wrote(self, tmp_path, tdma_scenario,
                                               agent_json, capsys):
        out = str(tmp_path / "run")
        run_cli("run", "--scenario", tdma_scenario, "--out", out,
                "--agent-json", agent_json)
        dot_path = os.path.join(out, ARTIFACT_DOT)
        before = read_bytes(out, ARTIFACT_DOT), os.stat(dot_path).st_mtime_ns
        capsys.readouterr()
        assert run_cli("trace", "--run", out) == 0
        assert json.loads(capsys.readouterr().out)["dot"] == dot_path
        assert (read_bytes(out, ARTIFACT_DOT),
                os.stat(dot_path).st_mtime_ns) == before

    def test_trace_without_dot_graph_exits_2(self, tmp_path, capsys):
        (tmp_path / ARTIFACT_TRACE).write_text(
            '{"actor": "a", "label": "b", "children": []}')
        assert run_cli("trace", "--run", str(tmp_path)) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "InvalidScenarioError"
        assert err["message"].startswith(f"{ARTIFACT_DOT}: ")
        assert not (tmp_path / ARTIFACT_TREE).exists()

    def test_untraced_run_exits_2(self, tmp_path, tdma_scenario, agent_json,
                                  capsys):
        out = str(tmp_path / "run")
        run_cli("run", "--scenario", tdma_scenario, "--out", out,
                "--agent-json", agent_json, "--no-trace")
        capsys.readouterr()
        code = run_cli("trace", "--run", out)
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "TracingDisabledError"
        assert err["message"].endswith("rerun with tracing enabled")

    def test_traced_run_without_agent_says_it_drives_none(self, tmp_path,
                                                          capsys):
        out = str(tmp_path / "run")
        assert run_cli("run", "--scenario",
                       str(ROOT / "scenarios" / "tcp_reno2.json"),
                       "--out", out) == 0
        assert read_json(out, ARTIFACT_CONFIG)["trace"] is True
        capsys.readouterr()
        assert run_cli("trace", "--run", out) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "TracingDisabledError"
        assert err["message"] == f"{out} holds no decision trace: the run " \
            "drives no agent, so it writes none"

    @pytest.mark.parametrize("replicas", ["1", "2"])
    def test_reused_out_dir_keeps_no_older_run_artifacts(self, tmp_path,
                                                         agent_json, capsys,
                                                         replicas):
        out = str(tmp_path / "run")
        assert run_cli("run", "--scenario",
                       str(ROOT / "scenarios" / "tcp_agent_reno.json"),
                       "--out", out, "--agent-json", agent_json) == 0
        agent_only = (ARTIFACT_TRACE, ARTIFACT_DOT, ARTIFACT_DEMOS,
                      ARTIFACT_STRATEGIES, ARTIFACT_STRATEGY,
                      ARTIFACT_OFFLINE, ARTIFACT_EPISODES)
        assert all(os.path.isfile(os.path.join(out, name))
                   for name in agent_only)
        assert run_cli("run", "--scenario",
                       str(ROOT / "scenarios" / "tcp_reno2.json"),
                       "--out", out, "--replicas", replicas) == 0
        assert not any(os.path.exists(os.path.join(out, name))
                       for name in agent_only)
        capsys.readouterr()
        # as on a run that was never traced
        assert run_cli("trace", "--run", out) == 2
        assert json.loads(capsys.readouterr().err)["error"] \
            == "TracingDisabledError"

    @pytest.mark.parametrize("breakage", sorted(TRACE_BREAKAGES))
    def test_malformed_trace_exits_2(self, tmp_path, breakage, capsys):
        (tmp_path / ARTIFACT_TRACE).write_text(TRACE_BREAKAGES[breakage])
        assert run_cli("trace", "--run", str(tmp_path)) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "InvalidScenarioError"
        # the document is refused before the missing trace.dot is
        assert ARTIFACT_DOT not in err["message"]

    def test_trace_document_nested_past_recursion_limit_is_refused(self):
        doc = {"actor": "a", "label": "b"}
        for _ in range(3 * sys.getrecursionlimit()):
            doc = {"actor": "a", "label": "b", "children": [doc]}
        with pytest.raises(InvalidScenarioError, match="nested too deeply"):
            trace_from_doc(doc)

    def test_rerun_emits_identical_tree_bytes(self, tmp_path, tdma_scenario,
                                              agent_json):
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        for out in (a, b):
            run_cli("run", "--scenario", tdma_scenario, "--out", out,
                    "--agent-json", agent_json)
            run_cli("trace", "--run", out)
        assert read_bytes(a, "trace.txt") == read_bytes(b, "trace.txt")
        assert read_bytes(a, "trace.dot") == read_bytes(b, "trace.dot")


class TestDemosCommand:
    def test_writes_bundle(self, tmp_path, capsys):
        out = str(tmp_path / "demos")
        assert run_cli("demos", "--family", "tcp", "--k", "2",
                       "--seed", "4", "--out", out) == 0
        doc = read_json(out, ARTIFACT_DEMOS)
        assert doc["version"] == "demos-v1"
        assert doc["family"] == "tcp" and doc["K"] == 2

    def test_negative_seed_exits_2_and_names_it(self, tmp_path, capsys):
        out = tmp_path / "demos"
        assert run_cli("demos", "--family", "tcp", "--k", "1",
                       "--seed", "-5", "--out", str(out)) == 2
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "ValueError",
                       "message": "seed must be >= 0, got -5"}
        assert not out.exists()


class TestOfflineCommand:
    def test_offline_takes_no_no_trace_flag(self, tmp_path, tdma_scenario):
        # the offline stage writes no decision trace to switch off
        with pytest.raises(SystemExit) as exit_info:
            run_cli("offline", "--scenario", tdma_scenario,
                    "--out", str(tmp_path / "o"), "--no-trace")
        assert exit_info.value.code == 2

    def test_config_says_no_trace_was_written(self, tmp_path, agent_json,
                                              capsys):
        out = str(tmp_path / "off")
        assert run_cli("offline", "--scenario",
                       str(ROOT / "scenarios" / "tcp_agent_reno.json"),
                       "--out", out, "--agent-json", agent_json) == 0
        assert read_json(out, ARTIFACT_CONFIG)["trace"] is False
        assert not os.path.exists(os.path.join(out, ARTIFACT_TRACE))
        capsys.readouterr()

    def test_writes_reports(self, tmp_path, agent_json, capsys):
        scenario = write_tcp_scenario(tmp_path / "ar.json", [
            {"controller": "agent"}, {"controller": "reno"}], rounds=400)
        out = str(tmp_path / "off")
        assert run_cli("offline", "--scenario", scenario, "--out", out,
                       "--agent-json", agent_json) == 0
        report = read_json(out, ARTIFACT_OFFLINE)
        assert report["target_met"] is True
        summary = json.loads(capsys.readouterr().out)
        assert summary["strategy_id"] == report["strategy_id"]
        assert os.path.isfile(os.path.join(out, ARTIFACT_TRANSCRIPT))

    @pytest.mark.parametrize("scenario", ["tcp_reno2", "mac_aware_2a1h"])
    def test_scenario_driving_no_agent_exits_2_before_clearing(
            self, tmp_path, scenario, capsys):
        # the online engine drives no flow of tcp_reno2 and no node of
        # mac_aware_2a1h, so there is no strategy to design
        path = str(ROOT / "scenarios" / f"{scenario}.json")
        out = tmp_path / "run"
        assert run_cli("run", "--scenario", path, "--out", str(out)) == 0
        earlier = {p.name: p.read_bytes() for p in out.iterdir()}
        assert ARTIFACT_METRICS in earlier
        capsys.readouterr()
        assert run_cli("offline", "--scenario", path, "--out", str(out)) == 2
        assert {p.name: p.read_bytes() for p in out.iterdir()} == earlier
        assert not (out / ARTIFACT_TRANSCRIPT).exists()
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "InvalidScenarioError"
        assert "online engine drives" in err["message"]
        fresh = tmp_path / "fresh"
        assert run_cli("offline", "--scenario", path, "--out", str(fresh)) == 2
        assert not fresh.exists()

    def test_reused_out_dir_keeps_no_older_run_artifacts(self, tmp_path,
                                                         agent_json, capsys):
        out = str(tmp_path / "run")
        assert run_cli("run", "--scenario",
                       str(ROOT / "scenarios" / "tcp_agent_reno.json"),
                       "--out", out, "--agent-json", agent_json) == 0
        run_only = (ARTIFACT_TRAJECTORY, ARTIFACT_THROUGHPUT,
                    ARTIFACT_METRICS, ARTIFACT_TRACE, ARTIFACT_DOT)
        assert all(os.path.isfile(os.path.join(out, name))
                   for name in run_only)
        assert run_cli("offline", "--scenario",
                       str(ROOT / "scenarios" / "tcp_agent_vegas.json"),
                       "--out", out, "--agent-json", agent_json) == 0
        assert not any(os.path.exists(os.path.join(out, name))
                       for name in run_only)
        assert read_json(out, ARTIFACT_CONFIG)["scenario"]["flows"][1] \
            ["controller"] == "vegas"
        capsys.readouterr()
        # no trajectory is left for eval to report the Reno run's metrics
        assert run_cli("eval", "--run", out) != 0


def modules_after(code):
    """The names in ``sys.modules`` once a fresh interpreter, with this
    checkout's package on its path, has run ``code``."""
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    done = subprocess.run(
        [sys.executable, "-c",
         code + "\nimport sys\nprint(' '.join(sorted(sys.modules)))"],
        env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))},
        capture_output=True, text=True, check=True)
    return set(done.stdout.splitlines()[-1].split())


class TestLazyCommands:
    """A run never loads the commands it does not call (oracle, demos,
    eval and trace live in ``coexlab.commands``), nor ``csv``, which only
    ``eval`` reads with."""

    def test_import_loads_neither(self):
        modules = modules_after("import coexlab.cli")
        assert "coexlab.runner" in modules
        assert not {"coexlab.commands", "csv"} & modules

    def test_run_loads_neither_and_eval_loads_both(self, tmp_path,
                                                   tdma_scenario, agent_json):
        out = str(tmp_path / "run")
        run = f"from coexlab.cli import main\n" \
              f"assert main(['run', '--scenario', {tdma_scenario!r}, " \
              f"'--out', {out!r}, '--agent-json', {agent_json!r}]) == 0"
        modules = modules_after(run)
        assert {"coexlab.agent.online", "coexlab.tcp"} <= modules
        assert not {"coexlab.commands", "csv"} & modules
        assert os.path.isfile(os.path.join(out, ARTIFACT_TRACE))
        evaluate = f"from coexlab.cli import main\n" \
                   f"assert main(['eval', '--run', {out!r}]) == 0"
        assert {"coexlab.commands", "csv"} <= modules_after(evaluate)
