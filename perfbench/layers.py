"""Per-layer metrics computed from the spans of a traced invocation.

Every ``*_s`` metric of a layer is the summed self time (CPU time, see
``spans.py``) of its spans, so the layer times, ``runner.self_s`` and the
``cli`` times add up to the traced process's busy time;
``trace.unattributed_s`` is what is left of the traced wall time
(interpreter start and exit, and waits outside any span).
"""

from __future__ import annotations

import statistics
from typing import Dict, List

from spans import self_times

# metric -> span names whose self times it sums
SELF_TIME = {
    "mac.kernel_s": ("mac.run_frames",),
    "agent.observer_s": ("agent.observer_analyze",),
    "agent.objective_s": ("agent.mac_window_objective",),
    "agent.tcp_observer_s": ("agent.tcp_observer_analyze",),
    "tcp.kernel_s": ("tcp.run_rounds",),
    "strategy.interpret_s": ("strategy.interpret_action",),
    "backends.complete_s": ("backends.complete",),
    "agent.demos_s": ("agent.demo_bundle",),
    "agent.offline_s": ("agent.run_offline", "agent.asi_materialize"),
    "oracle.solve_s": ("oracle.solve_aware",),
    "metrics.window_s": ("metrics.windowed_throughput",
                         "metrics.node_mean_throughputs"),
    "runner.self_s": ("runner.cmd_run",),
    "cli.import_s": ("cli.import",),
    "cli.self_s": ("cli.main",),
}

# metric -> span name whose calls it counts
CALLS = {
    "agent.observer_calls": "agent.observer_analyze",
    "agent.tcp_observer_calls": "agent.tcp_observer_analyze",
    "strategy.interpret_calls": "strategy.interpret_action",
    "backends.calls": "backends.complete",
    "oracle.solve_calls": "oracle.solve_aware",
    "runner.runs": "runner.cmd_run",
}

# metric -> (span name, count recorded on the span) it sums
SUMS = {
    "mac.slots": ("mac.run_frames", "slots"),
    "tcp.rounds": ("tcp.run_rounds", "rounds"),
    "backends.prompt_chars": ("backends.complete", "prompt_chars"),
    "agent.materialize_retries": ("agent.asi_materialize", "retries"),
}

UNITS: Dict[str, str] = {
    **{name: "s" for name in SELF_TIME},
    **{name: "count" for name in CALLS},
    "mac.slots": "slots",
    "tcp.rounds": "rounds",
    "backends.prompt_chars": "chars",
    "agent.materialize_retries": "count",
    "agent.online_fallbacks": "count",
    "mac.slots_per_s": "slots/s",
    "oracle.distinct_populations": "count",
    "oracle.distinct_share": "ratio",
    "cli.replica_parallelism": "ratio",
    "trace.run_s": "s",
    "trace.overhead_s": "s",
    "trace.unattributed_s": "s",
}


def span_metrics(doc: Dict[str, object], traced_run_s: float) \
        -> Dict[str, float]:
    """Every per-layer metric of one traced invocation, except
    ``trace.overhead_s`` and ``cli.replica_parallelism``, which come from
    the untraced runs."""
    spans: List[Dict[str, object]] = doc["spans"]
    own = self_times(spans)
    by_name: Dict[str, List[Dict[str, object]]] = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)
    mapped = {n for names in SELF_TIME.values() for n in names}
    unmapped = set(by_name) - mapped
    if unmapped:
        raise ValueError(f"spans with no layer metric: {sorted(unmapped)}")

    out: Dict[str, float] = {}
    for metric, names in SELF_TIME.items():
        out[metric] = sum(own[s["id"]] for n in names
                          for s in by_name.get(n, ()))
    for metric, name in CALLS.items():
        out[metric] = len(by_name.get(name, ()))
    for metric, (name, key) in SUMS.items():
        out[metric] = sum(s[key] for s in by_name.get(name, ()))
    out["agent.online_fallbacks"] = \
        doc["counters"].get("agent.online_fallbacks", 0)

    out["mac.slots_per_s"] = out["mac.slots"] / out["mac.kernel_s"] \
        if out["mac.kernel_s"] > 0 else 0.0
    solves = by_name.get("oracle.solve_aware", ())
    distinct = len({s["population"] for s in solves})
    out["oracle.distinct_populations"] = distinct
    out["oracle.distinct_share"] = distinct / len(solves) if solves else 0.0
    out["trace.run_s"] = traced_run_s
    out["trace.unattributed_s"] = traced_run_s - sum(own.values())
    return out


def median_metrics(runs: List[Dict[str, float]]) -> Dict[str, float]:
    return {name: statistics.median(r[name] for r in runs) for name in runs[0]}
