"""Readers of a run's records that no program path calls, kept for the
tests that check the records through them: a predicate search over a
decision trace and the strategy set rebuilt from its history."""

from __future__ import annotations

from typing import Callable, Iterable, List

from coexlab.agent.memory import (
    EVENT_ADDED,
    EVENT_REMOVED,
    HistoryEntry,
    StrategySet,
)
from coexlab.agent.trace import DecisionTrace, TraceNode
from coexlab.strategy import strategy_from_doc


def find(trace: DecisionTrace,
         predicate: Callable[[TraceNode], bool]) -> List[TraceNode]:
    """Every node of ``trace`` that ``predicate`` accepts, in preorder."""
    found: List[TraceNode] = []

    def walk(node: TraceNode) -> None:
        if predicate(node):
            found.append(node)
        for c in node.children:
            walk(c)

    walk(trace.root)
    return found


def replay_history(entries: Iterable[HistoryEntry]) -> StrategySet:
    """Rebuild the live set by replaying add/remove events."""
    out = StrategySet()
    for entry in entries:
        if entry.event == EVENT_ADDED:
            assert entry.doc is not None, "added entry lacks a body"
            out._by_id[entry.strategy_id] = strategy_from_doc(dict(entry.doc))
        elif entry.event == EVENT_REMOVED:
            out._by_id.pop(entry.strategy_id, None)
    return out

