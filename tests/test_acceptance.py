"""Acceptance gate: ten end-to-end checks at their stated tolerances.

Every test prints one verdict line (visible with ``pytest -s``; the same
text is the assertion message on failure), so a full run reads as a
ten-line report. All checks use the scripted backend and fixed seeds.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest

from coexlab.agent.config import AgentConfig
from coexlab.agent.demos import demo_bundle
from coexlab.agent.memory import (
    EVENT_SKIPPED,
    StrategySet,
    psa_update,
)
from coexlab.agent.offline import (
    asi_materialize,
    generate_initial_strategy,
    run_offline,
)
from coexlab.agent.online import MacPeriodEngine, TcpPeriodEngine
from coexlab.agent.trace import trace_from_doc
from coexlab.backends import (
    ITEMS_TOKEN,
    RankerQuery,
    ranked_complete,
    user_request,
)
from coexlab.errors import MaterializationExhaustedError
from coexlab.mac import (
    KIND_AGENT,
    KIND_ALOHA,
    KIND_TDMA,
    BernoulliSlotPolicy,
    MacEnvironment,
    NodeConfig,
    ScenarioSpec,
    run_frames,
)
from coexlab.metrics import (
    jain_index,
    node_mean_throughputs,
    rmse_vs_reference,
    windowed_throughput,
)
from coexlab.oracle import (
    Population,
    aware_trajectory,
    expected_throughputs,
    solve_aware,
)
from coexlab.runner import RunConfig, cmd_run, load_scenario
from coexlab.scripted import ScriptedBackend
from coexlab.strategy import ExploreSpec, Strategy, strategy_from_doc
from coexlab.tcp import (
    CONTROLLER_AGENT,
    CONTROLLER_RENO,
    CONTROLLER_VEGAS,
    TcpEnvironment,
    TcpFlowConfig,
    TcpScenarioSpec,
    mean_flow_throughputs,
    run_rounds,
)
from coexlab.templates import TEMPLATE_STRATEGY_GEN, render_template
from metrics_reference import alpha_fair_value
from period_records import run_collect
from records_reference import find, replay_history

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def verdict(number: int, name: str, ok: bool, detail: str) -> None:
    line = f"criterion {number:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def test_criterion_01_oracle_analytic_equivalence():
    t0 = time.perf_counter()
    aloha_sol = solve_aware(Population(1, [0.2], []), alpha=1.0)
    aloha_s = time.perf_counter() - t0
    dev = max(abs(p - 0.5) for p in aloha_sol.policies[0])

    t0 = time.perf_counter()
    tdma_sol = solve_aware(Population(1, [], [(3, 5)]), alpha=1.0)
    tdma_s = time.perf_counter() - t0
    policy = tdma_sol.policies[0]
    owned_off = policy[3] == 0.0 and policy[5] == 0.0
    free_on = all(policy[k] == 1.0 for k in range(10) if k not in (3, 5))
    tputs = (tdma_sol.agent_throughputs[0], tdma_sol.tdma_throughputs[0])

    ok = (dev <= 1e-3 and owned_off and free_on and tputs == (0.8, 0.2)
          and aloha_s < 5.0 and tdma_s < 5.0)
    verdict(1, "oracle analytic equivalence", ok,
            f"|p*-0.5|={dev:.2e}, tdma policy exact={owned_off and free_on}, "
            f"throughputs={tputs}, {aloha_s:.2f}s/{tdma_s:.2f}s")


def test_criterion_02_environment_fidelity():
    rng = np.random.default_rng(42)
    frames = 10_000  # 1e5 slots at frame length 10
    worst = 0.0
    for trial in range(5):
        n_agents = int(rng.integers(1, 3))
        n_aloha = int(rng.integers(0, 3))
        tdma_slots = []
        if rng.integers(0, 2):
            pair = sorted(rng.choice(10, size=2, replace=False).tolist())
            tdma_slots.append(tuple(int(s) for s in pair))
        aloha_q = [round(float(q), 3)
                   for q in rng.uniform(0.05, 0.3, size=n_aloha)]
        policies = [[round(float(p), 3) for p in rng.uniform(0.05, 0.95, 10)]
                    for _ in range(n_agents)]
        pop = Population(n_agents, aloha_q, tdma_slots, frame_len=10)
        agents, aloha, tdma = expected_throughputs(policies, pop)
        expected = agents + aloha + tdma

        nodes = [NodeConfig(kind=KIND_AGENT) for _ in range(n_agents)]
        nodes += [NodeConfig(kind=KIND_ALOHA, q=q) for q in aloha_q]
        nodes += [NodeConfig(kind=KIND_TDMA, slots=s) for s in tdma_slots]
        spec = ScenarioSpec(total_frames=frames, frame_len=10,
                            seed=1000 + trial, nodes=tuple(nodes))
        env = MacEnvironment(spec)
        vectors = {i: policies[i] for i in range(n_agents)}
        run_frames(env, BernoulliSlotPolicy(spec.seed, vectors), frames)
        measured = node_mean_throughputs(env.log)

        n_slots = frames * 10
        for nid, exp in enumerate(expected):
            sigma = math.sqrt(max(exp * (1.0 - exp), 1e-12) / n_slots)
            pull = abs(measured[nid] - exp) / sigma
            worst = max(worst, pull)
    verdict(2, "environment fidelity vs closed form", worst <= 3.0,
            f"worst deviation {worst:.2f} sigma over 5 populations")


def test_criterion_03_metric_formulas():
    table_value = jain_index((589.7, 193.6))
    table_ok = abs(table_value - 0.796) <= 0.001

    rng = np.random.default_rng(7)
    bounds_ok = scale_ok = alpha0_ok = True
    for _ in range(1000):
        n = int(rng.integers(1, 9))
        v = rng.uniform(0.01, 10.0, size=n)
        j = jain_index(v.tolist())
        bounds_ok &= (1.0 / n) - 1e-12 <= j <= 1.0 + 1e-12
        scale = float(rng.uniform(0.1, 100.0))
        scale_ok &= abs(jain_index((v * scale).tolist()) - j) <= 1e-9
        a0 = alpha_fair_value(v.tolist(), alpha=0.0)
        alpha0_ok &= abs(a0 - 100.0 * float(v.sum())) <= 1e-9 * abs(a0)
    ok = table_ok and bounds_ok and scale_ok and alpha0_ok
    verdict(3, "metric formulas", ok,
            f"jain(589.7,193.6)={table_value:.4f}, bounds/scale/alpha0 over "
            f"1000 vectors={bounds_ok}/{scale_ok}/{alpha0_ok}")


def test_criterion_04_static_scripted_pipeline(tmp_path):
    t0 = time.perf_counter()
    result = cmd_run(RunConfig(
        scenario_path=str(SCENARIOS / "mac_2a1h.json"),
        out_dir=str(tmp_path / "run")))
    elapsed = time.perf_counter() - t0
    rmse = result.metrics["rmse"]
    ok = rmse is not None and rmse <= 0.10 and elapsed < 60.0
    verdict(4, "static end-to-end pipeline", ok,
            f"rmse={rmse} (bound 0.10), {elapsed:.1f}s at 10^4 frames")


def test_criterion_05_dynamic_scripted_pipeline():
    spec = load_scenario(str(SCENARIOS / "mac_dynamic.json"))
    config = AgentConfig()
    backend = ScriptedBackend()
    demos = demo_bundle("mac", config.demo_k, spec.seed, config=config)
    offline = run_offline(backend, spec, demos, config)
    engine = MacPeriodEngine(spec, offline.strategy, config, backend=backend)
    periods = run_collect(engine, spec.total_frames)
    log = engine.env.log

    series = windowed_throughput(log, config.window_frames)
    reference, _ = aware_trajectory(spec, alpha=config.alpha)
    rmse = rmse_vs_reference(series, reference,
                             warmup_frames=config.warmup_frames)

    period = engine.period
    lags = {}
    for event in (2500, 5000, 7500):
        hits = [p.start for p in periods
                if p.env_changed and event <= p.start <= event + 2 * period]
        lags[event] = (hits[0] - event) // period if hits else None
    detect_ok = all(lag is not None for lag in lags.values())

    late = [p for p in periods if p.start >= 7600]
    avoid_ok = bool(late) and all(
        p.proposals[0][3] == 0.0 and p.proposals[0][5] == 0.0 for p in late)

    ok = rmse <= 0.12 and detect_ok and avoid_ok
    verdict(5, "dynamic end-to-end pipeline", ok,
            f"rmse={rmse:.4f} (bound 0.12), detection lag periods={lags}, "
            f"slots 3/5 avoided after event={avoid_ok}")


def _pair_throughputs(flows, seed=11, rounds=2000):
    spec = TcpScenarioSpec(total_rounds=rounds, seed=seed,
                           flows=tuple(flows))
    config = AgentConfig()
    if any(f.controller == CONTROLLER_AGENT for f in flows):
        backend = ScriptedBackend()
        demos = demo_bundle("tcp", config.demo_k, spec.seed, config=config)
        offline = run_offline(backend, spec, demos, config)
        engine = TcpPeriodEngine(spec, offline.strategy, config,
                                 backend=backend)
        log = engine.run(rounds)
    else:
        log = run_rounds(TcpEnvironment(spec), None, rounds)
    means = mean_flow_throughputs(log, first_round=rounds // 2)
    return jain_index(list(means.values()))


def test_criterion_06_tcp_fairness_gap():
    reno = TcpFlowConfig(controller=CONTROLLER_RENO)
    vegas = TcpFlowConfig(controller=CONTROLLER_VEGAS)
    agent = TcpFlowConfig(controller=CONTROLLER_AGENT)
    results = {}
    times = {}
    for name, flows in (("reno2", (reno, reno)),
                        ("vegas2", (vegas, vegas)),
                        ("reno+vegas", (reno, vegas)),
                        ("agent+reno", (agent, reno)),
                        ("agent+vegas", (agent, vegas))):
        t0 = time.perf_counter()
        results[name] = _pair_throughputs(flows)
        times[name] = time.perf_counter() - t0
    ok = (results["reno2"] >= 0.99 and results["vegas2"] >= 0.99
          and results["reno+vegas"] <= 0.90
          and results["agent+reno"] >= 0.95
          and results["agent+vegas"] >= 0.95
          and max(times.values()) < 30.0)
    shown = {k: round(v, 4) for k, v in results.items()}
    verdict(6, "tcp fairness gap", ok,
            f"jain={shown}, slowest pairing {max(times.values()):.1f}s")


class _CannedBackend:
    def __init__(self, responses):
        self.responses = list(responses)

    def complete(self, req):
        return self.responses.pop(0)


def test_criterion_07_stability_machinery():
    config = AgentConfig(demo_k=2, demo_frames=40, demo_rounds=60)
    demos = demo_bundle("mac", config.demo_k, seed=3, config=config)
    valid = ('```json\n{"version":"strategy-v1","domain":"mac",'
             '"base_action":[0.3,0.3,0.3,0.3,0.3,0.3,0.3,0.3,0.3,0.3],'
             '"rules":[],"explore":{"epsilon":0.0,"sigma":0.0},'
             '"provenance":"generated"}\n```')
    gen = generate_initial_strategy(
        _CannedBackend(["not a strategy", valid]), demos, config,
        use_ranker=False)
    one_retry = gen.retries == 1

    with pytest.raises(MaterializationExhaustedError) as err:
        asi_materialize("garbage", lambda d: "more garbage",
                        config.asi_retries, frame_len=10)
    exhausted = len(err.value.attempts) == config.asi_retries

    items = tuple(ds.prompt_block() for ds in demos.sets)
    prompt = render_template(TEMPLATE_STRATEGY_GEN, {
        "DOMAIN": "mac", "FRAME_LEN": 10, "CWND_MAX": 64,
        "EPSILON": 0.0, "SIGMA": 0.05, "ITEMS": ITEMS_TOKEN,
    })
    query = RankerQuery(base=user_request(prompt, tag="gen"),
                        reorderable_items=items)
    first = ranked_complete(ScriptedBackend(), query)
    second = ranked_complete(ScriptedBackend(), query)
    deterministic = (first.text == second.text
                     and first.first == second.first
                     and first.second == second.second)

    pre, post = prompt.split(ITEMS_TOKEN)
    q1 = query.materialize(reverse=False).messages[-1].content
    q2 = query.materialize(reverse=True).messages[-1].content
    confined = (q1 == pre + "\n\n".join(items) + post
                and q2 == pre + "\n\n".join(reversed(items)) + post)

    ok = one_retry and exhausted and deterministic and confined
    verdict(7, "stability machinery", ok,
            f"one retry={one_retry}, exhausted after "
            f"{config.asi_retries}={exhausted}, ranker deterministic="
            f"{deterministic}, reorder diff confined={confined}")


def _strategy_pool():
    pool = [Strategy(domain="mac", base_action=(round(p, 2),) * 10,
                     explore=ExploreSpec())
            for p in np.linspace(0.1, 0.9, 9)]
    for base in (6, 9, 12):
        for delta in (None, 2, -2):
            rules = []
            if delta is not None:
                rules.append({
                    "trigger": {"signal": "collision_rate_ge",
                                "threshold": 0.3},
                    "effect": {"kind": "adjust_cwnd", "delta": delta},
                })
            pool.append(strategy_from_doc({
                "version": "strategy-v1", "domain": "tcp",
                "base_action": base, "rules": rules,
                "explore": {"epsilon": 0.0, "sigma": 0.0},
                "provenance": "generated",
            }))
    return pool


def test_criterion_08_psa_semantics():
    backend = ScriptedBackend()
    pool = _strategy_pool()
    rng = np.random.default_rng(123)
    replay_ok = True
    for _ in range(1000):
        sset = StrategySet()
        for idx in rng.integers(0, len(pool), size=6):
            psa_update(sset, pool[int(idx)], backend)
        if replay_history(sset.history).snapshot() != sset.snapshot():
            replay_ok = False
            break

    sset = StrategySet()
    s = pool[0]
    psa_update(sset, s, backend)
    before = sset.snapshot()
    psa_update(sset, s, backend)
    noop_ok = (sset.snapshot() == before
               and sset.history[-1].event == EVENT_SKIPPED
               and bool(sset.history[-1].reason))
    verdict(8, "psa replay and duplicate semantics",
            replay_ok and noop_ok,
            f"1000 random sequences replay={replay_ok}, duplicate no-op "
            f"with reason={noop_ok}")


def _small_tdma_scenario(tmp_path):
    import json
    doc = {"version": "mac-v1", "frame_len": 10, "total_frames": 800,
           "slot_duration_ms": 1.0, "seed": 5, "nodes": [
               {"kind": "agent"}, {"kind": "tdma", "slots": [3, 5]}]}
    path = tmp_path / "tdma.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def test_criterion_09_cmd_run_determinism(tmp_path):
    scenario = _small_tdma_scenario(tmp_path)
    agent = AgentConfig(demo_k=3, demo_frames=40, eval_frames=400, n_max=2)
    outputs = []
    for name in ("a", "b"):
        cmd_run(RunConfig(scenario_path=scenario,
                          out_dir=str(tmp_path / name), agent=agent))
        outputs.append({
            f: (tmp_path / name / f).read_bytes()
            for f in ("trajectory.csv", "trace.json", "trace.dot",
                      "transcript.jsonl")
        })
    same = {f: outputs[0][f] == outputs[1][f] for f in outputs[0]}
    verdict(9, "byte-identical reruns", all(same.values()),
            f"identical artifacts={sorted(f for f, v in same.items() if v)}")


def test_criterion_10_explainability_artifact(tmp_path):
    import json
    scenario = _small_tdma_scenario(tmp_path)
    agent = AgentConfig(demo_k=3, demo_frames=40, eval_frames=400, n_max=2)
    cmd_run(RunConfig(scenario_path=scenario, out_dir=str(tmp_path / "run"),
                      agent=agent))
    doc = json.loads((tmp_path / "run" / "trace.json").read_text())
    trace = trace_from_doc(doc)
    observers = find(trace, lambda n: n.actor == "observer"
                     and n.label == "slots 3,5 utilization 1.0")
    shaped = False
    for obs in observers:
        for child in obs.children:
            action = child.data.get("action")
            if (child.label == "node 0 avoid_slots 3,5" and action
                    and action[3] == 0.0 and action[5] == 0.0):
                shaped = True
    ok = bool(observers) and shaped
    verdict(10, "explainability artifact", ok,
            f"observer nodes reporting full 3/5 use={len(observers)}, "
            f"child applies avoidance={shaped}")
