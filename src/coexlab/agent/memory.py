"""Run-scoped memories: the strategy set and episodic records.

The strategy set is an insertion-ordered collection of validated
strategies keyed by id, with an append-only history from which the live
set can be reconstructed exactly. Both memories freeze at the start of
the online stage; any later write raises instead of silently mutating
state the online loop is not supposed to touch.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from ..backends import Backend, extract_json_text, user_request
from ..errors import MalformedResponseError, MemoryFrozenError
from ..strategy import (
    Strategy,
    serialize_strategy,
    strategy_doc,
)
from ..templates import TEMPLATE_PSA_CONFLICT, render_template

EVENT_ADDED = "added"
EVENT_REMOVED = "removed"
EVENT_SKIPPED = "skipped"


@dataclass(frozen=True)
class HistoryEntry:
    event: str
    strategy_id: str
    reason: str
    # full body embedded on "added" so the set replays from history alone
    doc: Optional[Dict[str, object]] = None

    def to_doc(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "event": self.event,
            "strategy_id": self.strategy_id,
            "reason": self.reason,
        }
        if self.doc is not None:
            out["strategy"] = self.doc
        return out


class StrategySet:
    """Ordered strategy memory with append-only history."""

    def __init__(self) -> None:
        self._by_id: Dict[str, Strategy] = {}
        self.history: List[HistoryEntry] = []
        self._frozen = False

    def __len__(self) -> int:
        return len(self._by_id)

    def __contains__(self, strategy_id: str) -> bool:
        return strategy_id in self._by_id

    def __iter__(self) -> Iterator[Strategy]:
        return iter(self._by_id.values())

    def ids(self) -> List[str]:
        return list(self._by_id)

    def get(self, strategy_id: str) -> Strategy:
        return self._by_id[strategy_id]

    @property
    def frozen(self) -> bool:
        return self._frozen

    def freeze(self) -> None:
        self._frozen = True

    def _writable(self) -> None:
        if self._frozen:
            raise MemoryFrozenError("strategy set is frozen")

    def add(self, strategy: Strategy, reason: str = "") -> bool:
        """Insert; a duplicate id is a recorded no-op."""
        self._writable()
        sid = strategy.id
        if sid in self._by_id:
            self.history.append(HistoryEntry(
                EVENT_SKIPPED, sid, "redundant: identical strategy already held"
            ))
            return False
        self._by_id[sid] = strategy
        self.history.append(HistoryEntry(
            EVENT_ADDED, sid, reason or f"provenance {strategy.provenance}",
            doc=strategy_doc(strategy),
        ))
        return True

    def remove(self, strategy_id: str, reason: str) -> None:
        self._writable()
        if strategy_id not in self._by_id:
            raise KeyError(strategy_id)
        del self._by_id[strategy_id]
        self.history.append(HistoryEntry(EVENT_REMOVED, strategy_id, reason))

    def snapshot(self) -> List[Tuple[str, str]]:
        """(id, canonical text) pairs in insertion order."""
        return [(sid, serialize_strategy(s))
                for sid, s in self._by_id.items()]

    def to_doc(self) -> Dict[str, object]:
        return {
            "version": "strategies-v1",
            "strategies": [
                {"id": sid, **strategy_doc(s)}
                for sid, s in self._by_id.items()
            ],
            "history": [entry.to_doc() for entry in self.history],
        }


def psa_update(strategies: StrategySet, new: Strategy,
               backend: Backend) -> StrategySet:
    """Insert ``new``, then drop members the conflict review flags as
    redundant with or contradicted by it. Mutates and returns the set."""
    if not strategies.add(new):
        return strategies
    existing = [
        {"id": sid, **strategy_doc(s)}
        for sid, s in zip(strategies.ids(), strategies)
        if sid != new.id
    ]
    if not existing:
        return strategies
    payload = {
        "new": {"id": new.id, **strategy_doc(new)},
        "existing": existing,
    }
    prompt = render_template(TEMPLATE_PSA_CONFLICT, {
        "PAYLOAD": json.dumps(payload, sort_keys=True)
    })
    response = backend.complete(user_request(prompt, "psa"))
    try:
        verdict = json.loads(extract_json_text(response))
    except (ValueError, RecursionError) as exc:
        raise MalformedResponseError(
            f"conflict review response is not JSON: {exc}"
        ) from exc
    removals = verdict.get("remove") if isinstance(verdict, dict) else None
    if not isinstance(removals, list):
        raise MalformedResponseError(
            "conflict review response lacks a remove list"
        )
    for entry in removals:
        sid = entry.get("id") if isinstance(entry, dict) else None
        if isinstance(sid, str) and sid != new.id and sid in strategies:
            strategies.remove(
                sid, str(entry.get("reason", "flagged by conflict review"))
            )
    return strategies


@dataclass(frozen=True)
class EpisodeRecord:
    """One evaluated episode of a strategy."""

    strategy_id: str
    j_estimate: float
    summary: Dict[str, object] = field(default_factory=dict)
    reflection_text: str = ""

    def to_doc(self) -> Dict[str, object]:
        return {
            "strategy_id": self.strategy_id,
            "j_estimate": self.j_estimate,
            "summary": self.summary,
            "reflection_text": self.reflection_text,
        }


class EpisodicMemory:
    """Append-only log of evaluated episodes."""

    def __init__(self) -> None:
        self.records: List[EpisodeRecord] = []
        self._frozen = False

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[EpisodeRecord]:
        return iter(self.records)

    @property
    def frozen(self) -> bool:
        return self._frozen

    def freeze(self) -> None:
        self._frozen = True

    def add(self, record: EpisodeRecord) -> None:
        if self._frozen:
            raise MemoryFrozenError("episodic memory is frozen")
        self.records.append(record)

    def to_doc(self) -> Dict[str, object]:
        return {
            "version": "episodes-v1",
            "episodes": [rec.to_doc() for rec in self.records],
        }
