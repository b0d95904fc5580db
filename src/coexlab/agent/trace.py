"""Decision traces: the tree of actor steps behind each emitted action.

Every node names the acting role, a human-readable label, and digests of
the content it consumed and produced, so a rendered trace explains an
action without reproducing full prompts. Traces carry no timestamps and
serialize with sorted keys, so identical runs emit identical bytes.

A run writes its trace through a ``TraceSink``; a trace with no sink is
one parsed back from its document (``trace_from_doc``).
"""

from __future__ import annotations

import functools
import hashlib
import json
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, TextIO, Tuple

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


def _dot_escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def _dot_label(nid: int, node: TraceNode) -> str:
    label = _dot_escape(f"{node.actor}: {node.label}")
    return f'  n{nid} [label="{label}"];\n'


@functools.lru_cache(maxsize=None)
def _flat_encoder(inner: str) -> Callable[[object], str]:
    """``json``'s C encoder with sorted keys, joining items by ``",\n" +
    inner``: the body of a container of leaves at that indent. One is kept
    per nesting depth in use."""
    return json.JSONEncoder(separators=(",\n" + inner, ": "),
                            sort_keys=True).encode


def _json_key(key: object) -> str:
    """A dict key as ``json`` writes it: a string as it is, any other key
    by its JSON text."""
    return json.dumps(key if isinstance(key, str) else json.dumps(key))


def indented_json(value: object, indent: str = "") -> str:
    """``json.dumps(value, indent=2, sort_keys=True)`` for a value that
    opens on a line indented by ``indent``. The layout is built here, and
    each leaf, or container of leaves only, goes through ``json``'s C
    encoder, which ``indent=2`` would turn off."""
    is_dict = isinstance(value, dict)
    if not value or not (is_dict or isinstance(value, (list, tuple))):
        return json.dumps(value)
    inner = indent + "  "
    opening, closing = "{}" if is_dict else "[]"
    if any(isinstance(v, (dict, list, tuple))
           for v in (value.values() if is_dict else value)):
        items = (f"{_json_key(k)}: {indented_json(v, inner)}"
                 for k, v in sorted(value.items())) if is_dict \
            else (indented_json(v, inner) for v in value)
        body = (",\n" + inner).join(items)
    else:
        body = _flat_encoder(inner)(value)[1:-1]
    return f"{opening}\n{inner}{body}\n{indent}{closing}"


def _node_ends(node: TraceNode, indent: str) -> Tuple[str, str]:
    """The JSON text of ``node``, opening at ``indent``, before and after
    the items of its ``children`` list: its keys sort as actor, children,
    data, input_digest, label, output_digest."""
    inner = indent + "  "
    return (f'{{\n{inner}"actor": {json.dumps(node.actor)},\n'
            f'{inner}"children": [',
            f',\n{inner}"data": {indented_json(node.data, inner)},\n'
            f'{inner}"input_digest": {json.dumps(node.input_digest)},\n'
            f'{inner}"label": {json.dumps(node.label)},\n'
            f'{inner}"output_digest": {json.dumps(node.output_digest)}\n'
            f'{indent}}}')


def _node_json(node: TraceNode, indent: str) -> str:
    """``node``'s subtree as ``indented_json`` gives its document."""
    head, tail = _node_ends(node, indent)
    if not node.children:
        return f"{head}]{tail}"
    item = indent + "    "
    items = (",\n" + item).join(_node_json(c, item) for c in node.children)
    return f"{head}\n{item}{items}\n{indent}  ]{tail}"


class TraceSink:
    """Writes ``trace.json``, as ``json.dumps(indent=2, sort_keys=True)``
    gives it with a newline, and ``trace.dot`` one top-level subtree at a
    time: the root's opening, each finished top-level subtree, then on
    ``close`` the root's other keys; only that subtree is encoded at once."""

    def __init__(self, json_fh: TextIO, dot_fh: TextIO):
        self.json_fh = json_fh
        self.dot_fh = dot_fh
        self.written = 0        # top-level subtrees written
        self.next_id = 1        # DOT id of the next node; the root is n0

    def open(self, root: TraceNode) -> None:
        self.json_fh.write(_node_ends(root, "")[0])
        self.dot_fh.write("digraph decision_trace {\n"
                          "  node [shape=box];\n" + _dot_label(0, root))

    def subtree(self, node: TraceNode) -> None:
        self.json_fh.write(("," if self.written else "") + "\n    "
                           + _node_json(node, "    "))
        lines: List[str] = []
        nid = self._dot_walk(node, lines)
        lines.append(f"  n0 -> n{nid};\n")
        self.dot_fh.write("".join(lines))
        self.written += 1

    def _dot_walk(self, node: TraceNode, lines: List[str]) -> int:
        """Number ``node``'s subtree in pre-order, appending each node's
        label line and, after each child's subtree, the edge to it."""
        nid = self.next_id
        self.next_id += 1
        lines.append(_dot_label(nid, node))
        for c in node.children:
            cid = self._dot_walk(c, lines)
            lines.append(f"  n{nid} -> n{cid};\n")
        return nid

    def close(self, root: TraceNode) -> None:
        self.json_fh.write(("\n  ]" if self.written else "]")
                           + _node_ends(root, "")[1] + "\n")
        self.dot_fh.write("}\n")


class DecisionTrace:
    """A single rooted decision tree for one run or episode.

    With a sink, the trace is written as it grows: a top-level node goes
    to the sink, and out of memory, when the next one is made, and
    ``close`` writes the rest. A run's period nodes are top-level, so it
    holds one period at a time. Without one, the whole tree stays in
    memory: that is a trace parsed from its document.
    """

    def __init__(self, label: str, actor: str = ACTOR_ASSISTANT,
                 sink: Optional[TraceSink] = None):
        self.root = TraceNode(actor=actor, label=label)
        self.sink = sink
        if sink is not None:
            sink.open(self.root)

    def child(self, actor: str, label: str, **options: object) -> TraceNode:
        """A new top-level node; see ``TraceNode.child``."""
        self._flush()
        return self.root.child(actor, label, **options)

    def _flush(self) -> None:
        if self.sink is not None:
            for node in self.root.children:
                self.sink.subtree(node)
            self.root.children.clear()

    def close(self) -> None:
        """Write what a sinked trace still holds and the root's tail."""
        self._flush()
        self.sink.close(self.root)


def node_from_doc(doc: object) -> TraceNode:
    """The node tree of a ``trace.json`` document; a document of another
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
