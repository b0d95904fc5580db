"""Command-line entrypoints.

Subcommands: run, oracle, demos, offline, eval, trace. Outcomes print as
JSON on stdout; failures print a machine-readable error on stderr and map
to exit codes 2 (configuration), 3 (backend) and 4 (unsupported
population). The API credential is the one setting read from the
environment (COEXLAB_API_KEY); everything else is a flag.

``run`` and ``offline`` come from ``coexlab.runner``. The handlers of
oracle, demos, eval and trace import ``coexlab.commands`` when called,
so a run never compiles those commands.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace
from typing import Dict, List, Optional

import numpy as np

from .agent.config import AgentConfig, checked_agent_settings
from .errors import (
    BackendUnavailableError,
    CoexlabError,
    MalformedResponseError,
    MaterializationExhaustedError,
    UnsupportedPopulationError,
)
from .runner import (
    AGENT_FLAGS,
    ARTIFACT_REPLICAS,
    BACKEND_SCRIPTED,
    BACKENDS,
    RunConfig,
    clear_artifacts,
    cmd_offline,
    cmd_run,
    _prepare,
    _read_json,
    _write_json,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_BACKEND = 3
EXIT_UNSUPPORTED = 4


def _run_config(args: argparse.Namespace) -> RunConfig:
    return RunConfig(
        scenario_path=args.scenario,
        out_dir=args.out,
        backend=args.backend,
        seed=args.seed,
        agent=AgentConfig(**checked_agent_settings(_read_json(
            args.agent_json, "agent") if args.agent_json else {})),
        agent_flags={flag: getattr(args, flag) for flag in AGENT_FLAGS
                     if getattr(args, flag) is not None},
        trace=not getattr(args, "no_trace", False),
        strategy_path=getattr(args, "strategy", None),
        demo_seed=args.demo_seed,
        endpoint=args.endpoint,
        model=args.model,
    )


def _emit(doc: Dict[str, object]) -> None:
    print(json.dumps(doc, sort_keys=True))


REPLICA_STATS = ("jain", "alpha_fair", "rmse")


def _run_replica(config: RunConfig) -> Dict[str, object]:
    """One replica in a pool worker; returns only the summary the parent
    reports, so the run's memories stay in the worker."""
    result = cmd_run(config)
    return {"out_dir": result.out_dir, "seed": config.seed,
            **{key: result.metrics.get(key) for key in REPLICA_STATS}}


def _replicas_doc(rows: List[Dict[str, object]]) -> Dict[str, object]:
    """Each replica's seed and statistics, with the mean and population
    standard deviation (to 6 places, as in ``metrics_report.json``) of each
    statistic over the replicas that have it."""
    summary: Dict[str, object] = {}
    for key in REPLICA_STATS:
        values = [row[key] for row in rows if row[key] is not None]
        summary[key] = {"mean": round(float(np.mean(values)), 6),
                        "std": round(float(np.std(values)), 6)} \
            if values else None
    return {"artifact": "replicas-v1",
            "replicas": [{"seed": row["seed"],
                          **{key: row[key] for key in REPLICA_STATS}}
                         for row in rows],
            "summary": summary}


def _run_replicas(config: RunConfig, replicas: int) -> None:
    """Seeds ``seed..seed+replicas-1`` into ``replica_i/``, in forked
    worker processes, since the simulation holds the interpreter lock."""
    # imported here: the pool costs every other command its import time
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    # refuse a bad setting before the earlier replicas are cleared
    spec = _prepare(config)[1]
    clear_artifacts(config)
    configs = [replace(config, seed=spec.seed + i,
                       out_dir=f"{config.out_dir}/replica_{i}")
               for i in range(replicas)]
    workers = min(replicas, os.cpu_count() or 1)
    # fork: workers inherit the imported package instead of importing it.
    # The pool forks every worker at the first submit, before it starts
    # its own thread, and the CLI runs no other, so no lock is held.
    with ProcessPoolExecutor(max_workers=workers,
                             mp_context=multiprocessing.get_context("fork")) \
            as pool:
        rows = list(pool.map(_run_replica, configs))
    _write_json(os.path.join(config.out_dir, ARTIFACT_REPLICAS),
                _replicas_doc(rows))
    _emit({"replicas": rows})


def _handle_run(args: argparse.Namespace) -> None:
    if args.replicas < 1:
        raise ValueError(f"--replicas must be >= 1, got {args.replicas}")
    config = _run_config(args)
    if args.replicas > 1:
        _run_replicas(config, args.replicas)
        return
    result = cmd_run(config)
    _emit({"out_dir": result.out_dir, "family": result.family,
           "jain": result.metrics.get("jain"),
           "rmse": result.metrics.get("rmse"),
           "alpha_fair": result.metrics.get("alpha_fair")})


def _handle_offline(args: argparse.Namespace) -> None:
    result = cmd_offline(_run_config(args))
    _emit({"out_dir": args.out, "strategy_id": result.strategy.id,
           "j": round(result.j, 6), "j_target": round(result.j_target, 6),
           "target_met": result.target_met, "rounds": result.rounds})


def _handle_oracle(args: argparse.Namespace) -> None:
    from .commands import cmd_oracle
    report = cmd_oracle(args.scenario, args.out, alpha=args.alpha)
    _emit({"out_dir": args.out, "segments": len(report["segments"]),
           "objectives": [s["objective"] for s in report["segments"]]})


def _handle_demos(args: argparse.Namespace) -> None:
    from .commands import cmd_demos
    path = cmd_demos(args.family, args.k, args.seed, args.out)
    _emit({"path": path, "family": args.family, "k": args.k,
           "seed": args.seed})


def _handle_eval(args: argparse.Namespace) -> None:
    from .commands import cmd_eval
    summary = cmd_eval(args.run, reference_path=args.reference)
    _emit(summary)


def _handle_trace(args: argparse.Namespace) -> None:
    from .commands import cmd_trace
    paths = cmd_trace(args.run)
    _emit(paths)


def _add_agent_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--agent-json", default=None,
                   help="JSON file of agent setting overrides")
    defaults = AgentConfig()
    for flag, (mac, tcp, what) in AGENT_FLAGS.items():
        # a flag's value has the type of the setting it sets
        p.add_argument(f"--{flag.replace('_', '-')}", dest=flag,
                       type=type(getattr(defaults, mac)), default=None,
                       help=f"{what}: sets {mac} on a mac run, "
                            f"{tcp or 'refused'} on a tcp run")


def _add_backend_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--backend", choices=BACKENDS, default=BACKEND_SCRIPTED)
    p.add_argument("--endpoint", default="",
                   help="chat-completions endpoint for the http backend")
    p.add_argument("--model", default="",
                   help="model name for the http backend")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coexlab",
        description="Run coexistence experiments and inspect their artifacts.")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="offline + online stages, full artifacts")
    run.add_argument("--scenario", required=True)
    run.add_argument("--out", required=True)
    run.add_argument("--seed", type=int, default=None,
                     help="override the scenario seed")
    run.add_argument("--no-trace", action="store_true")
    run.add_argument("--strategy", default=None,
                     help="cached strategy file; skips the offline stage")
    run.add_argument("--demo-seed", dest="demo_seed", type=int, default=None)
    run.add_argument("--replicas", type=int, default=1,
                     help="run N seed replicas in parallel processes; "
                          "writes their statistics to replicas.json")
    _add_backend_flags(run)
    _add_agent_flags(run)
    run.set_defaults(handler=_handle_run)

    offline = sub.add_parser("offline", help="offline stage only")
    offline.add_argument("--scenario", required=True)
    offline.add_argument("--out", required=True)
    offline.add_argument("--seed", type=int, default=None)
    offline.add_argument("--demo-seed", dest="demo_seed", type=int,
                         default=None)
    _add_backend_flags(offline)
    _add_agent_flags(offline)
    offline.set_defaults(handler=_handle_offline)

    oracle = sub.add_parser("oracle", help="analytic reference policies")
    oracle.add_argument("--scenario", required=True)
    oracle.add_argument("--out", required=True)
    oracle.add_argument("--alpha", type=float, default=1.0)
    oracle.set_defaults(handler=_handle_oracle)

    demos = sub.add_parser("demos", help="export demonstration tuples")
    demos.add_argument("--family", choices=("mac", "tcp"), required=True)
    demos.add_argument("--k", type=int, required=True)
    demos.add_argument("--seed", type=int, required=True)
    demos.add_argument("--out", required=True)
    demos.set_defaults(handler=_handle_demos)

    ev = sub.add_parser("eval", help="recompute metrics from run artifacts")
    ev.add_argument("--run", required=True)
    ev.add_argument("--reference", default=None,
                    help="reference trajectory CSV override")
    ev.set_defaults(handler=_handle_eval)

    tr = sub.add_parser("trace", help="render a run's decision tree")
    tr.add_argument("--run", required=True)
    tr.set_defaults(handler=_handle_trace)
    return parser


def _error_exit(exc: Exception) -> int:
    if isinstance(exc, UnsupportedPopulationError):
        code = EXIT_UNSUPPORTED
    elif isinstance(exc, (BackendUnavailableError, MalformedResponseError,
                          MaterializationExhaustedError)):
        code = EXIT_BACKEND
    else:
        code = EXIT_CONFIG
    print(json.dumps({"error": type(exc).__name__, "message": str(exc)},
                     sort_keys=True), file=sys.stderr)
    return code


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.handler(args)
    except (CoexlabError, ValueError, OSError, json.JSONDecodeError) as exc:
        return _error_exit(exc)
    return EXIT_OK
