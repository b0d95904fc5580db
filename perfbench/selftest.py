"""Self-test of the benchmark harness; takes about a minute.

    python3 perfbench/selftest.py

Run from the repository root. It checks that:
- BENCHMARK.json keeps to its schema and agrees with the harness;
- a short-horizon pass of every workload, untraced and traced, prints
  every named metric with its unit and passes its output checks;
- each workload's traced counts show the layers it claims to use as
  busy and the layers it claims to bypass as idle;
- spans recorded in a forked worker process reach the traced result;
- the output check catches a corrupted artifact in a copied run directory;
- in a directory holding only BENCHMARK.json and the benchmark, the run
  fails without printing a result.
Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import re
import shutil
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor
from typing import Dict, List

import check
import layers
import spans
from run import END_TO_END_UNITS
from workloads import WORKLOADS, run_dirs

HERE = os.path.dirname(os.path.abspath(__file__))
SELFTEST_DIR = os.path.join(HERE, "_work", "selftest")
SEED = 7

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
GUARDS = ("failed_ratio", "jain", "alpha_fair", "rmse")

# a traced count that is nonzero exactly when the layer runs
LAYER_PROBE = {
    "mac": "mac.slots",
    "tcp": "tcp.rounds",
    "agent.observer": "agent.observer_calls",
    "agent.objective": "agent.objective_s",
    "agent.tcp_observer": "agent.tcp_observer_calls",
    "strategy": "strategy.interpret_calls",
    "backends": "backends.calls",
    "agent.demos": "agent.demos_s",
    "agent.offline": "agent.offline_s",
    "oracle": "oracle.solve_calls",
    "metrics": "metrics.window_s",
    "runner": "runner.self_s",
}

failures: List[str] = []


def expect(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def check_schema(bench: Dict[str, object]) -> None:
    expect(sorted(bench) == ["command", "end_to_end", "paths", "per_layer",
                             "run_seconds", "workloads"],
           "BENCHMARK.json has exactly the contract's keys")
    expect(bench["paths"] == ["perfbench"], "paths name the benchmark only")
    expect(isinstance(bench["run_seconds"], int)
           and 1 <= bench["run_seconds"] <= 60, "run_seconds in 1..60")
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in bench[key]]
    expect(all(NAME.match(n) for n in names) and len(names) == len(set(names)),
           "every name is well formed and used once")
    expect(all(sorted(w) == ["name", "why"] and 0 < len(w["why"]) <= 200
               and "\n" not in w["why"] for w in bench["workloads"]),
           "every workload has a one-line why of at most 200 characters")
    expect({w["name"]: w["why"] for w in bench["workloads"]}
           == {w.name: w.why for w in WORKLOADS.values()},
           "workloads and whys match workloads.py")
    expect(all(sorted(m) == ["better", "bound", "name", "unit"]
               and 0 < m["bound"] <= 0.25 and UNIT.match(m["unit"])
               and m["better"] in ("lower", "higher")
               for m in bench["end_to_end"]),
           "end_to_end metrics have unit, direction and a bound <= 0.25")
    setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"]
    expect(len(setup) == 1 and setup[0]["unit"] == "s"
           and setup[0]["bound"] == max(m["bound"]
                                        for m in bench["end_to_end"]),
           "setup_s is present in seconds with the largest bound")
    expect(all(sorted(m) == ["better", "name", "unit"]
               and UNIT.match(m["unit"]) for m in bench["per_layer"]),
           "per_layer metrics have unit and direction")
    expect({m["name"]: m["unit"] for m in bench["end_to_end"]}
           == END_TO_END_UNITS, "end_to_end metrics match run.py")
    expect({m["name"]: m["unit"] for m in bench["per_layer"]}
           == layers.UNITS, "per_layer metrics match layers.py")


def bench_run(workload: str, trace: int, cwd: str):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(SEED), "--seconds", "1",
         "--trace", str(trace), "--short"],
        cwd=cwd, capture_output=True, text=True, timeout=180)


def check_pass(bench: Dict[str, object], workload: str, trace: int,
               root: str) -> Dict[str, float]:
    proc = bench_run(workload, trace, root)
    label = f"{workload} trace={trace}"
    expect(proc.returncode == 0, f"{label}: exits 0")
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        expect(False, f"{label}: last line is a JSON result")
        return {}
    expect(sorted(result) == ["attempted", "correct", "failed", "metrics"],
           f"{label}: result has exactly the contract's keys")
    expect(result["correct"] and result["failed"] == 0
           and result["attempted"] >= 1, f"{label}: every output check passes")
    declared = {m["name"]: m["unit"]
                for m in bench["per_layer" if trace else "end_to_end"]}
    got = {n: m["unit"] for n, m in result["metrics"].items()}
    expect(got == declared, f"{label}: result holds every declared metric "
                            "with its unit")
    printed = {ln.split()[1] for ln in lines if ln.startswith("metric ")}
    for name, unit in declared.items():
        expect(any(re.match(rf"metric {re.escape(name)} \S+ "
                            rf"{re.escape(unit)}$", ln) for ln in lines),
               f"{label}: prints {name} with unit {unit}")
    expect(set(GUARDS) <= printed,
           f"{label}: prints failed_ratio and the fidelity guards")
    return {n: m["value"] for n, m in result["metrics"].items()}


def check_layers(workload: str, metrics: Dict[str, float]) -> None:
    w = WORKLOADS[workload]
    for layer in w.uses:
        if layer in LAYER_PROBE:
            expect(metrics[LAYER_PROBE[layer]] > 0,
                   f"{workload}: uses {layer}")
    for layer in w.bypasses:
        if layer in LAYER_PROBE:
            expect(metrics[LAYER_PROBE[layer]] == 0,
                   f"{workload}: bypasses {layer}")
    expect(metrics["runner.runs"] == w.replicas,
           f"{workload}: one run per replica")
    expect(metrics["cli.replica_parallelism"] > 0.5,
           f"{workload}: replica parallelism "
           f"{metrics['cli.replica_parallelism']:.2f} shows a busy child")
    if workload == "mac_churn":
        expect(0 <= metrics["trace.unattributed_s"] < 0.5,
               "mac_churn: layer self times cover the traced run but for "
               f"{metrics['trace.unattributed_s']:.3f} s of interpreter "
               "start and exit")


def _square(x: int) -> int:
    return x * x


def check_forked_spans() -> None:
    """Spans opened in a forked pool worker are written beside the main
    file, merged by ``spans.load`` and kept apart in the self times."""
    shutil.rmtree(SELFTEST_DIR, ignore_errors=True)
    os.makedirs(SELFTEST_DIR)
    path = os.path.join(SELFTEST_DIR, "fork_spans.json")
    rec = spans.SpanRecorder("fork-test", path)
    # replaced where it is defined, as traced.py does, so that it pickles
    global _square
    original, _square = _square, rec.wrap("square", _square)
    try:
        with rec.span("main") as root:
            fork = multiprocessing.get_context("fork")
            with ProcessPoolExecutor(max_workers=2, mp_context=fork) as pool:
                results = list(pool.map(_square, range(4)))
    finally:
        _square = original
    rec.write()
    doc = spans.load(path)
    worker = [s for s in doc["spans"] if s["name"] == "square"]
    expect(results == [0, 1, 4, 9] and len(worker) == 4
           and all(s["pid"] != rec.root_pid and s["parent"] == root["id"]
                   for s in worker),
           "spans of forked workers are written and merged")
    own = spans.self_times(doc["spans"])
    expect(abs(own[root["id"]] - spans.cpu_time(root)) < 1e-9,
           "a worker's spans do not count against the forking span")


def check_corruption(root: str) -> None:
    """A copied run directory with one changed byte must fail both the
    digest comparison and the eval reproduction."""
    w = WORKLOADS["mac_churn"]
    source = os.path.join(HERE, "_work", f"{w.name}-seed{SEED}-trace0",
                          "inv_00")
    copy = os.path.join(SELFTEST_DIR, "corrupt")
    shutil.rmtree(copy, ignore_errors=True)
    shutil.copytree(source, copy)
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    reference = check.file_digests(run_dirs(source, w.replicas), source)
    clean = check.check_invocation(0, run_dirs(copy, w.replicas), copy,
                                   reference, env, root)
    expect(clean == [], "an unchanged copy passes the output check")
    path = os.path.join(copy, "throughput.csv")
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    header, first, rest = text.split("\n", 2)
    node, value = first.split(",")
    bumped = f"{float(value) + 0.05:.6f}"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"{header}\n{node},{bumped}\n{rest}")
    problems = check.check_invocation(0, run_dirs(copy, w.replicas), copy,
                                      reference, env, root)
    expect(any("throughput.csv differs" in p for p in problems),
           "the digest check catches a corrupted throughput.csv")
    expect(any("eval jain" in p for p in problems),
           "the eval check catches a corrupted throughput.csv")


def check_bare_directory(root: str) -> None:
    """With no program beside it, the benchmark must fail, printing no
    result."""
    bare = os.path.join(SELFTEST_DIR, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(root, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = bench_run("mac_churn", 0, bare)
    expect(proc.returncode != 0 and '"correct"' not in proc.stdout,
           "in a directory with only the benchmark, the run fails "
           "without a result")


def main() -> int:
    root = os.getcwd()
    with open(os.path.join(root, "BENCHMARK.json"), "r",
              encoding="utf-8") as fh:
        bench = json.load(fh)
    check_schema(bench)
    check_forked_spans()
    for workload in WORKLOADS:
        check_pass(bench, workload, 0, root)
        if workload == "mac_churn":
            # before the next run clears the work directory
            check_corruption(root)
        check_layers(workload, check_pass(bench, workload, 1, root))
    check_bare_directory(root)
    shutil.rmtree(SELFTEST_DIR, ignore_errors=True)
    print(f"{len(failures)} failed check(s)" if failures
          else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
