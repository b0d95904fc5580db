"""coexlab benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload mac_churn --seed 1 --seconds 30 --trace 0

Run from the repository root. The scenario is generated from ``--seed``
into ``perfbench/_work/``; then ``coexlab run --backend scripted`` is
invoked as a subprocess, one invocation at a time, until ``--seconds``
have passed (at least three invocations). Each invocation's outputs are
checked afterwards (see ``check.py``). With ``--trace 0`` the run reports
the end-to-end metrics: host wall time, simulated steps per host second,
peak RSS of the child and set-up time. With ``--trace 1`` it alternates
untraced and traced invocations (``traced.py``) and reports the per-layer
metrics instead. The last line of stdout is one JSON object.

Simulated statistics (jain, alpha_fair, rmse) are exact for a seed, so
they are printed and checked as fidelity guards, not timed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import check
import spans
from layers import UNITS as PER_LAYER_UNITS
from layers import median_metrics, span_metrics
from workloads import WORKLOADS, Workload, generate, online_steps, run_dirs

HERE = os.path.dirname(os.path.abspath(__file__))
END_TO_END_UNITS = {"run_s": "s", "steps_per_s": "1/s", "peak_rss_mb": "MB",
                    "setup_s": "s"}
MIN_INVOCATIONS = 3
SETUP_REPEATS = 7
# a run must end within this many seconds, its checks included
DEADLINE_S = 170.0
CALIBRATION_LOOP = 1_000_000
# output checks are subprocesses; one per core of a 2-core host
CHECK_WORKERS = 2

# the numpy version it prints goes into the machine facts
SETUP_CODE = ("import sys, numpy, coexlab.cli\n"
              "from coexlab.runner import load_scenario\n"
              "load_scenario(sys.argv[1])\n"
              "print(numpy.__version__)\n")


@dataclass
class Invocation:
    out_dir: str
    returncode: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    calibration_s: float
    traced: bool
    spans_path: Optional[str] = None


def parse_args(argv: List[str]) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--short", action="store_true",
                   help="horizons cut tenfold, for the harness self-test")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    return args


def calibrate() -> float:
    """Time a fixed pure-Python loop: host speed, not the program."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(CALIBRATION_LOOP):
        acc += i * i
    return time.perf_counter() - t0


def git_commit(root: str) -> str:
    git_dir = os.path.join(root, ".git")
    if not os.path.isdir(git_dir):
        return "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              env=dict(os.environ, GIT_DIR=git_dir),
                              capture_output=True, text=True, timeout=10)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def run_child(cmd: List[str], env: Dict[str, str], cwd: str, log_base: str,
              timeout: float):
    """Run ``cmd`` to completion; returns (exit code, wall s, CPU s, peak
    RSS MB). The CPU time counts the child and every process it waited
    for. The child is killed if it outlives ``timeout``."""
    with open(log_base + ".out", "wb") as out, \
            open(log_base + ".err", "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, env=env, cwd=cwd, stdout=out,
                                stderr=err)
        timer = threading.Timer(max(timeout, 0.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (proc.returncode, wall, usage.ru_utime + usage.ru_stime,
            usage.ru_maxrss / 1024.0)


def read_text(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def measure(args: argparse.Namespace, w: Workload, scenario: str, work: str,
            env: Dict[str, str], root: str,
            remaining: Callable[[], float]) -> List[Invocation]:
    """Invoke the program until ``args.seconds`` have passed; with tracing,
    untraced and traced invocations alternate."""
    base_cmd = ["run", "--backend", "scripted", "--scenario", scenario]
    if w.replicas > 1:
        base_cmd += ["--replicas", str(w.replicas)]
    invocations: List[Invocation] = []
    t_loop = time.perf_counter()
    while (time.perf_counter() - t_loop < args.seconds
           or len(invocations) < (2 if args.trace else MIN_INVOCATIONS)):
        for traced in ((False, True) if args.trace else (False,)):
            k = len(invocations)
            out_dir = os.path.join(work, f"inv_{k:02d}")
            cmd = base_cmd + ["--out", out_dir]
            spans_path = None
            if traced:
                spans_path = os.path.join(work, f"spans_{k:02d}.json")
                cmd = [os.path.join(HERE, "traced.py"), spans_path,
                       f"{w.name}-seed{args.seed}-inv{k}"] + cmd
            else:
                cmd = ["-m", "coexlab"] + cmd
            calib = calibrate()
            code, wall, cpu, rss = run_child([sys.executable] + cmd, env,
                                             root, out_dir, remaining())
            invocations.append(Invocation(out_dir, code, wall, cpu, rss,
                                          calib, traced, spans_path))
        if remaining() < 0:
            break
    return invocations


def check_all(invocations: List[Invocation], replicas: int,
              env: Dict[str, str], root: str) -> Tuple[int, Dict[str, str]]:
    """Check every invocation against the first; returns the number that
    failed and the first invocation's artifact digests. The checks run
    after the timed invocations, so they may use both cores."""
    first = invocations[0].out_dir
    reference = check.file_digests(run_dirs(first, replicas), first)

    def problems(inv: Invocation) -> List[str]:
        return check.check_invocation(
            inv.returncode, run_dirs(inv.out_dir, replicas), inv.out_dir,
            reference, env, root)

    with ThreadPoolExecutor(max_workers=CHECK_WORKERS) as pool:
        found = list(pool.map(problems, invocations))
    for inv, probs in zip(invocations, found):
        status = "ok" if not probs else "FAILED " + "; ".join(probs)
        print(f"invocation {os.path.basename(inv.out_dir)} "
              f"traced={int(inv.traced)} run_s={inv.wall_s:.4f} "
              f"rss_mb={inv.rss_mb:.1f} calibration_s={inv.calibration_s:.4f} "
              f"{status}")
    return sum(bool(p) for p in found), reference


def print_guards(run_dir: str, replicas: int, work: str) -> None:
    """The simulated statistics of the first invocation, exact per seed."""
    for d in run_dirs(run_dir, replicas):
        try:
            guards = check.fidelity(d)
        except (OSError, ValueError):
            continue
        for key in check.FIDELITY:
            shown = "n/a (no analytic reference)" if guards[key] is None \
                else f"{guards[key]} 1"
            print(f"metric {key} {shown} exact; run "
                  f"{os.path.relpath(d, work)}")


def layer_metrics(invocations: List[Invocation]) -> Dict[str, float]:
    """Median over the traced invocations of every per-layer metric. The
    replica parallelism is the untraced child's CPU time (its worker
    processes included) over its wall time."""
    runs = [span_metrics(spans.load(inv.spans_path), inv.wall_s)
            for inv in invocations if inv.traced and inv.returncode == 0]
    if not runs:
        return {name: 0.0 for name in PER_LAYER_UNITS}
    metrics = median_metrics(runs)
    untraced = [inv for inv in invocations if not inv.traced]
    metrics["trace.overhead_s"] = \
        metrics["trace.run_s"] - statistics.median(inv.wall_s
                                                   for inv in untraced)
    metrics["cli.replica_parallelism"] = \
        statistics.median(inv.cpu_s / inv.wall_s for inv in untraced)
    return metrics


def print_coverage(metrics: Dict[str, float]) -> None:
    """Whether the layer self times, ``runner.self_s`` and the ``cli``
    times add up to the traced wall time, within the tracing overhead."""
    gap, overhead = metrics["trace.unattributed_s"], \
        metrics["trace.overhead_s"]
    verdict = "within" if abs(gap) <= overhead else "NOT within"
    print(f"coverage: self times leave {gap:.4f} s of the traced "
          f"{metrics['trace.run_s']:.4f} s unattributed, {verdict} the "
          f"tracing overhead {overhead:.4f} s")


def host_drift(calibrations: List[float], bound: float) -> Optional[str]:
    """A warning when host speed, as the calibration loop reads it,
    changed by more than ``bound`` between the run's two halves, so that
    the change is not read as the program's."""
    half = len(calibrations) // 2
    if half == 0:
        return None
    first = statistics.median(calibrations[:half])
    second = statistics.median(calibrations[half:])
    change = max(first, second) / min(first, second) - 1
    if change <= bound:
        return None
    return (f"warning: host speed changed by {change:.0%} within the run "
            f"(calibration median {first:.4f} s, then {second:.4f} s), "
            f"more than the {bound:.0%} bound of run_s")


def run_s_bound(root: str) -> float:
    with open(os.path.join(root, "BENCHMARK.json"), "r",
              encoding="utf-8") as fh:
        bench = json.load(fh)
    return next(m["bound"] for m in bench["end_to_end"]
                if m["name"] == "run_s")


def end_to_end_metrics(invocations: List[Invocation], steps: int,
                       setup_times: List[float]) -> Dict[str, float]:
    walls = [inv.wall_s for inv in invocations]
    return {
        "run_s": statistics.median(walls),
        "steps_per_s": statistics.median([steps / wall for wall in walls]),
        "peak_rss_mb": statistics.median([inv.rss_mb for inv in invocations]),
        "setup_s": statistics.median(setup_times),
    }


def main(argv: List[str]) -> int:
    args = parse_args(argv)
    t_start = time.perf_counter()
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "coexlab", "cli.py")):
        print(f"error: no coexlab sources under {src}; run from the "
              "repository root", file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    # only the latest run's files are kept, so disk use stays bounded
    shutil.rmtree(os.path.join(HERE, "_work"), ignore_errors=True)
    work = os.path.join(HERE, "_work",
                        f"{w.name}-seed{args.seed}-trace{args.trace}")
    os.makedirs(work)
    scenario = os.path.join(work, "scenario.json")
    try:
        doc = generate(w, args.seed, root, scenario, short=args.short)
    except (OSError, KeyError, ValueError) as exc:
        print(f"error: cannot generate {w.name} from {w.source}: {exc}",
              file=sys.stderr)
        return 2
    steps = online_steps(doc, w.replicas)
    print(f"workload {w.name} seed {args.seed} replicas {w.replicas} "
          f"online_steps {steps} why: {w.why}")
    print(f"layers used: {', '.join(w.uses)}; bypassed: "
          f"{', '.join(w.bypasses)}")
    env = dict(os.environ, PYTHONPATH=src)

    def remaining() -> float:
        return DEADLINE_S - (time.perf_counter() - t_start)

    def setup_probe(name: str):
        return run_child([sys.executable, "-c", SETUP_CODE, scenario], env,
                         root, os.path.join(work, name), remaining())

    loadavg_start = os.getloadavg()
    # warm-up: compiles the byte code, which users do not pay on every run
    if setup_probe("setup_warm")[0] != 0:
        print(f"error: importing coexlab failed; see {work}/setup_warm.err",
              file=sys.stderr)
        return 2
    setup_times = [] if args.trace else \
        [setup_probe(f"setup_{k}")[1] for k in range(SETUP_REPEATS)]
    invocations = measure(args, w, scenario, work, env, root, remaining)
    loadavg_end = os.getloadavg()

    failed, reference = check_all(invocations, w.replicas, env, root)
    calibrations = [inv.calibration_s for inv in invocations]
    facts = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": read_text(os.path.join(work, "setup_warm.out")).strip(),
        "commit": git_commit(root),
        "loadavg_start": [round(x, 2) for x in loadavg_start],
        "loadavg_end": [round(x, 2) for x in loadavg_end],
        "calibration_s": {"median": statistics.median(calibrations),
                          "min": min(calibrations),
                          "max": max(calibrations),
                          "loop": CALIBRATION_LOOP},
    }
    print("machine " + json.dumps(facts, sort_keys=True))
    warning = host_drift(calibrations, run_s_bound(root))
    if warning:
        print(warning)
    print(f"digest {w.name} seed {args.seed} "
          f"{check.combined_digest(reference)} "
          + json.dumps(reference, sort_keys=True))
    print_guards(invocations[0].out_dir, w.replicas, work)
    attempted = len(invocations)
    print(f"metric failed_ratio {failed / attempted} ratio "
          f"({failed} of {attempted} invocations)")

    if args.trace:
        metrics, units = layer_metrics(invocations), PER_LAYER_UNITS
        if w.replicas == 1:
            print_coverage(metrics)
    else:
        metrics = end_to_end_metrics(invocations, steps, setup_times)
        units = END_TO_END_UNITS
    for name in units:
        print(f"metric {name} {metrics[name]} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
