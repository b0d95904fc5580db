"""Decision traces: the tree of actor steps behind each emitted action.

Every node names the acting role, a human-readable label, and digests of
the content it consumed and produced, so a rendered trace explains an
action without reproducing full prompts. Traces carry no timestamps and
serialize with sorted keys, so identical runs emit identical bytes.
"""

from __future__ import annotations

import hashlib
import io
import json
from dataclasses import dataclass, field
from typing import Callable, Dict, List, TextIO

from ..errors import InvalidScenarioError

ACTOR_OBSERVER = "observer"
ACTOR_NODE = "node"
ACTOR_ASSISTANT = "assistant"


def content_digest(payload: object) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"),
                      default=str)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:12]


@dataclass
class TraceNode:
    actor: str
    label: str
    input_digest: str = ""
    output_digest: str = ""
    data: Dict[str, object] = field(default_factory=dict)
    children: List["TraceNode"] = field(default_factory=list)

    def child(self, actor: str, label: str, *, inputs: object = None,
              outputs: object = None, **data: object) -> "TraceNode":
        node = TraceNode(
            actor=actor,
            label=label,
            input_digest=content_digest(inputs) if inputs is not None else "",
            output_digest=content_digest(outputs) if outputs is not None else "",
            data=dict(data),
        )
        self.children.append(node)
        return node

    def to_doc(self) -> Dict[str, object]:
        return {
            "actor": self.actor,
            "label": self.label,
            "input_digest": self.input_digest,
            "output_digest": self.output_digest,
            "data": self.data,
            "children": [c.to_doc() for c in self.children],
        }


def _dot_escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


class DecisionTrace:
    """A single rooted decision tree for one run or episode."""

    def __init__(self, label: str, actor: str = ACTOR_ASSISTANT):
        self.root = TraceNode(actor=actor, label=label)

    def find(self, predicate: Callable[[TraceNode], bool]) -> List[TraceNode]:
        found: List[TraceNode] = []

        def walk(node: TraceNode) -> None:
            if predicate(node):
                found.append(node)
            for c in node.children:
                walk(c)

        walk(self.root)
        return found

    def write_json(self, fh: TextIO) -> None:
        """Write the tree to ``fh`` as indented JSON with sorted keys."""
        json.dump(self.root.to_doc(), fh, indent=2, sort_keys=True)
        fh.write("\n")

    def to_json(self) -> str:
        buf = io.StringIO()
        self.write_json(buf)
        return buf.getvalue()

    def render(self) -> str:
        lines: List[str] = []

        def walk(node: TraceNode, depth: int) -> None:
            lines.append("  " * depth + f"{node.actor}: {node.label}")
            for c in node.children:
                walk(c, depth + 1)

        walk(self.root, 0)
        return "\n".join(lines) + "\n"

    def to_dot(self) -> str:
        lines = ["digraph decision_trace {", "  node [shape=box];"]
        counter = 0

        def walk(node: TraceNode) -> int:
            nonlocal counter
            nid = counter
            counter += 1
            label = _dot_escape(f"{node.actor}: {node.label}")
            lines.append(f'  n{nid} [label="{label}"];')
            for c in node.children:
                cid = walk(c)
                lines.append(f"  n{nid} -> n{cid};")
            return nid

        walk(self.root)
        lines.append("}")
        return "\n".join(lines) + "\n"


def node_from_doc(doc: object) -> TraceNode:
    """The node tree of a ``to_json`` document; a document of another
    shape is an ``InvalidScenarioError``."""
    if not isinstance(doc, dict):
        raise InvalidScenarioError(
            "trace", f"a node must be an object, not {type(doc).__name__}")
    for key in ("actor", "label"):
        if key not in doc:
            raise InvalidScenarioError("trace", f"a node has no {key!r}")
    data = doc.get("data", {})
    children = doc.get("children", [])
    if not isinstance(data, dict):
        raise InvalidScenarioError("trace", "a node's data must be an object")
    if not isinstance(children, list):
        raise InvalidScenarioError("trace",
                                   "a node's children must be a list")
    node = TraceNode(
        actor=str(doc["actor"]),
        label=str(doc["label"]),
        input_digest=str(doc.get("input_digest", "")),
        output_digest=str(doc.get("output_digest", "")),
        data=dict(data),
    )
    node.children = [node_from_doc(c) for c in children]
    return node


def trace_from_doc(doc: object) -> DecisionTrace:
    try:
        root = node_from_doc(doc)
    except RecursionError:
        raise InvalidScenarioError("trace", "nodes nested too deeply")
    trace = DecisionTrace(root.label, actor=root.actor)
    trace.root = root
    return trace


def overuse_label(entries) -> str:
    """Label text for an observer finding about fully occupied slots,
    e.g. ``slots 3,5 utilization 1.0``."""
    slots = ",".join(str(e.slot) for e in entries)
    utils = sorted({float(e.utilization) for e in entries})
    if len(utils) == 1:
        return f"slots {slots} utilization {utils[0]!r}"
    pairs = ",".join(f"{e.slot}:{float(e.utilization)!r}" for e in entries)
    return f"slots {pairs}"
