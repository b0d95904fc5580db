"""Run one ``coexlab`` command with a span around every call into each
layer's public functions, then write the spans as JSON.

    python3 perfbench/traced.py SPANS_JSON RUN_ID run --scenario ... --out ...

The spans are recorded here, around the calls, so the program itself is
unchanged: each wrapped function is replaced, for the life of this
process and of any process it forks, in every ``coexlab`` module that
holds a reference to it.
``src`` must be on ``PYTHONPATH``.
"""

from __future__ import annotations

import importlib
import json
import sys
from typing import List

from spans import SpanRecorder


def _slots(args, kwargs):
    log = args[0].log
    before = len(log.records)
    return lambda result: {"slots": len(log.records) - before}


def _rounds(args, kwargs):
    env = args[0]
    before = env.round_index
    return lambda result: {"rounds": env.round_index - before}


def _prompt_chars(args, kwargs):
    req = args[1] if len(args) > 1 else kwargs["req"]
    chars = sum(len(m.content) for m in req.messages)
    return lambda result: {"prompt_chars": chars}


def _retries(args, kwargs):
    return lambda result: {"retries": result[1]}


def _population(args, kwargs):
    pop = args[0] if args else kwargs["pop"]
    alpha = args[1] if len(args) > 1 else kwargs.get("alpha", 1.0)
    key = json.dumps([pop.n_agents, pop.aloha_q,
                      [list(t) for t in pop.tdma_slots], pop.frame_len,
                      alpha])
    return lambda result: {"population": key}


# (module, attribute, span name, measure); "Class.method" wraps a method
HOOKS = (
    ("coexlab.mac", "run_frames", "mac.run_frames", _slots),
    ("coexlab.tcp", "run_rounds", "tcp.run_rounds", _rounds),
    ("coexlab.agent.observer", "observer_analyze",
     "agent.observer_analyze", None),
    ("coexlab.agent.online", "mac_window_objective",
     "agent.mac_window_objective", None),
    ("coexlab.agent.observer", "tcp_observer_analyze",
     "agent.tcp_observer_analyze", None),
    ("coexlab.strategy", "interpret_action", "strategy.interpret_action",
     None),
    ("coexlab.backends", "RecordingBackend.complete", "backends.complete",
     _prompt_chars),
    ("coexlab.agent.demos", "demo_bundle", "agent.demo_bundle", None),
    ("coexlab.agent.offline", "run_offline", "agent.run_offline", None),
    ("coexlab.agent.offline", "asi_materialize", "agent.asi_materialize",
     _retries),
    ("coexlab.oracle", "solve_aware", "oracle.solve_aware", _population),
    ("coexlab.metrics", "windowed_throughput", "metrics.windowed_throughput",
     None),
    ("coexlab.metrics", "node_mean_throughputs",
     "metrics.node_mean_throughputs", None),
    ("coexlab.runner", "cmd_run", "runner.cmd_run", None),
)

# period engines whose fallbacks are counted outside the offline stage
ENGINES = (("coexlab.agent.online", "MacPeriodEngine"),
           ("coexlab.agent.online", "TcpPeriodEngine"))


def _replace_everywhere(original, replacement) -> None:
    for name, module in list(sys.modules.items()):
        if name != "coexlab" and not name.startswith("coexlab."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install(rec: SpanRecorder) -> None:
    for module_name, attr, span_name, measure in HOOKS:
        module = importlib.import_module(module_name)
        if "." in attr:
            cls_name, method = attr.split(".")
            cls = getattr(module, cls_name)
            setattr(cls, method, rec.wrap(span_name, getattr(cls, method),
                                          measure=measure))
        else:
            original = getattr(module, attr)
            _replace_everywhere(original, rec.wrap(span_name, original,
                                                   measure=measure))
    for module_name, cls_name in ENGINES:
        cls = getattr(importlib.import_module(module_name), cls_name)
        cls.run_period = _count_fallbacks(rec, cls.run_period)


def _count_fallbacks(rec: SpanRecorder, run_period):
    def counted(self, *args, **kwargs):
        record = run_period(self, *args, **kwargs)
        if not rec.inside("agent.run_offline"):
            rec.count("agent.online_fallbacks", len(record.fallbacks))
        return record
    return counted


def main(argv: List[str]) -> int:
    spans_path, run_id, cli_args = argv[0], argv[1], argv[2:]
    rec = SpanRecorder(run_id, spans_path)
    with rec.span("cli.import"):
        import coexlab.cli
    install(rec)
    with rec.span("cli.main") as root:
        rec.default_parent = root["id"]
        code = coexlab.cli.main(cli_args)
    rec.write()
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
