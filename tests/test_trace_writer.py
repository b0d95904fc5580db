"""Differential tests of the decision-trace writer.

``indented_json`` lays out ``json.dumps(value, indent=2, sort_keys=True)``
itself and encodes leaves with ``json``'s C encoder; it must give the same
bytes for any JSON value. A trace written through a ``TraceSink`` one
top-level subtree at a time must give the bytes of the whole tree encoded
at once by ``json.dumps``, and its DOT text those of the recursive
numbering below, the DOT writer the trace had before.
"""

from __future__ import annotations

import io
import json
from typing import List

from hypothesis import given, settings
from hypothesis import strategies as st

from coexlab.agent.trace import (
    DecisionTrace,
    TraceNode,
    TraceSink,
    indented_json,
)

EXAMPLES = 100

# escapes, quotes, control characters, non-ASCII and lone surrogates
texts = st.text(st.characters(codec=None), max_size=8) | st.sampled_from(
    ['"', "\\", "\n\t\x00", "é", " ", "\U0001f600", "\ud800"])
leaves = (st.none() | st.booleans() | st.integers()
          | st.sampled_from([10 ** 30, -10 ** 40, 0.0, -0.0, 1e308,
                             -1e308, 5e-324, float("inf"), float("nan")])
          | st.floats() | texts)
keys = texts | st.integers(-3, 3)
values = st.recursive(
    leaves,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.lists(inner, max_size=3).map(tuple)
                   | st.dictionaries(texts, inner, max_size=4)),
    max_leaves=25)
# json sorts keys of one type only, so a dict mixes no str and int keys
int_keyed = st.dictionaries(st.integers(-3, 3), values, max_size=4)


@settings(max_examples=EXAMPLES, deadline=None)
@given(value=values | int_keyed)
def test_indented_json_equals_json_dumps(value):
    assert indented_json(value) == json.dumps(value, indent=2,
                                              sort_keys=True)


@settings(max_examples=EXAMPLES, deadline=None)
@given(value=values, depth=st.integers(1, 4))
def test_indented_json_at_depth_equals_nested_dump(value, depth):
    """A value opening at ``depth`` is laid out as inside ``depth``
    one-item lists."""
    wrapped = value
    for _ in range(depth):
        wrapped = [wrapped]
    opening = "".join(f"[\n{'  ' * (k + 1)}" for k in range(depth))
    closing = "".join(f"\n{'  ' * k}]" for k in reversed(range(depth)))
    assert opening + indented_json(value, "  " * depth) + closing \
        == json.dumps(wrapped, indent=2, sort_keys=True)


def node_doc(node: TraceNode) -> dict:
    """The document of ``node``'s subtree that ``trace.json`` holds."""
    return {"actor": node.actor, "label": node.label,
            "input_digest": node.input_digest,
            "output_digest": node.output_digest, "data": node.data,
            "children": [node_doc(c) for c in node.children]}


def reference_dot(root: TraceNode) -> str:
    """The DOT text of ``root``'s tree as one recursive pre-order walk
    numbers it."""
    lines = ["digraph decision_trace {", "  node [shape=box];"]
    counter = 0

    def walk(node: TraceNode) -> int:
        nonlocal counter
        nid = counter
        counter += 1
        label = f"{node.actor}: {node.label}".replace(
            "\\", "\\\\").replace('"', '\\"')
        lines.append(f'  n{nid} [label="{label}"];')
        for c in node.children:
            lines.append(f"  n{nid} -> n{walk(c)};")
        return nid

    walk(root)
    lines.append("}")
    return "\n".join(lines) + "\n"


# node contents: smaller values keep a tree of nodes quick to draw
small_values = st.recursive(
    leaves, lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(texts, inner, max_size=2), max_leaves=5)
data_values = st.dictionaries(
    st.sampled_from(["action", "j", "ranker", "converged", "note", "é"]),
    small_values, max_size=3)


@st.composite
def subtrees(draw, depth=0):
    """``(actor, label, options, children)`` of a node and its subtree."""
    options = draw(st.fixed_dictionaries({}, optional={
        "inputs": small_values, "outputs": small_values}))
    options.update(draw(data_values))
    children = draw(st.lists(subtrees(depth + 1), max_size=2)) \
        if depth < 2 else []
    return draw(texts), draw(texts), options, children


def build(parent, spec, make=None):
    actor, label, options, children = spec
    node = (make or parent.child)(actor, label, **options)
    for child in children:
        build(node, child)


@settings(max_examples=EXAMPLES // 2, deadline=None)
@given(root_label=texts, tops=st.lists(subtrees(), max_size=4),
       root_data=data_values)
def test_streamed_trace_equals_whole_tree(root_label, tops, root_data):
    whole = DecisionTrace(root_label)
    whole.root.data = dict(root_data)
    json_fh, dot_fh = io.StringIO(), io.StringIO()
    streamed = DecisionTrace(root_label, sink=TraceSink(json_fh, dot_fh))
    streamed.root.data = dict(root_data)
    for spec in tops:
        build(whole.root, spec)
        build(streamed.root, spec, make=streamed.child)
        assert len(streamed.root.children) == 1     # one subtree held
    streamed.close()

    assert json_fh.getvalue() == json.dumps(
        node_doc(whole.root), indent=2, sort_keys=True) + "\n"
    assert dot_fh.getvalue() == reference_dot(whole.root)
    assert not streamed.root.children


def test_sink_writes_each_subtree_before_the_next_is_made():
    json_fh = io.StringIO()
    trace = DecisionTrace("run", sink=TraceSink(json_fh, io.StringIO()))
    lengths: List[int] = []
    for k in range(3):
        trace.child("assistant", f"period {k}").child("observer", "window")
        lengths.append(len(json_fh.getvalue()))
    assert lengths[0] < lengths[1] < lengths[2]
    trace.close()
    assert [c["label"] for c in json.loads(json_fh.getvalue())["children"]] \
        == ["period 0", "period 1", "period 2"]
