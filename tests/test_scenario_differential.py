"""Differential test: the table-driven scenario formats of
``coexlab.scenario`` (``mac.MAC_FORMAT``, ``tcp.TCP_FORMAT``) against the
per-family parsers, validators and serializers kept in
``scenario_reference``.

Documents drawn sound and then mutated (wrong types, ``null``, NaN and
the infinities, ints of 10**400, unknown or missing keys, empty or
non-list members, bad lifetimes) must give the same spec or the same
error text, and every accepted spec the same serialized document. Specs
built in code must give the same validation error. The oracle's
population segments must equal the reference split.
"""

from __future__ import annotations

import json
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scenario_reference as ref
from coexlab.mac import ALL_KINDS, MAC_FORMAT, NodeConfig, ScenarioSpec
from coexlab.oracle import aware_trajectory
from coexlab.scenario import parse_scenario, scenario_doc, validate_scenario
from coexlab.tcp import (
    CONTROLLERS,
    TCP_FORMAT,
    TcpFlowConfig,
    TcpScenarioSpec,
)

# examples per test; four tests make about 600 a run
EXAMPLES = 150

weird_floats = st.floats(allow_nan=True, allow_infinity=True)
hostile = (st.none() | st.booleans() | weird_floats
           | st.sampled_from([10 ** 400, -10 ** 400, -1, 0, 2.5, "mac-v1"])
           | st.text(max_size=3) | st.lists(st.integers(-1, 3), max_size=2)
           | st.dictionaries(st.text(max_size=2), st.integers(0, 3),
                             max_size=1))


def mostly(good, edge):
    """``good`` about seven draws in eight, else ``edge``."""
    return st.sampled_from([True] * 7 + [False]).flatmap(
        lambda sound: good if sound else edge)


owned_slots = st.lists(st.integers(0, 9), min_size=1, max_size=3,
                      unique=True)
MAC_MEMBER = {
    "kind": st.sampled_from(ALL_KINDS),
    "q": mostly(st.floats(0, 1) | st.sampled_from([0, 1]),
                st.sampled_from([1.5, -0.25, None])),
    "slots": mostly(owned_slots,
                    st.none() | st.lists(st.integers(-1, 11), max_size=4)),
    "window": mostly(st.integers(1, 4), st.sampled_from([0, None])),
    "max_stage": mostly(st.integers(0, 4), st.sampled_from([-1, None])),
}
MAC_LIFETIME = {"join_frame": mostly(st.integers(0, 20), st.just(-1)),
                "leave_frame": mostly(st.integers(21, 40) | st.none(),
                                      st.integers(0, 20))}
MAC_TOP = {"total_frames": st.integers(1, 40), "seed": st.integers(0, 9)}
MAC_TOP_OPTIONAL = {"frame_len": st.integers(10, 12),
                    "slot_duration_ms": st.floats(0.1, 2.0) | st.just(1)}
TCP_MEMBER = {
    "controller": st.sampled_from(CONTROLLERS)}
TCP_LIFETIME = {"join_round": mostly(st.integers(0, 20), st.just(-1)),
                "leave_round": mostly(st.integers(21, 40) | st.none(),
                                      st.integers(0, 20))}
TCP_TOP = {"total_rounds": st.integers(1, 40), "seed": st.integers(0, 9)}
TCP_TOP_OPTIONAL = {
    "cwnd_max": st.integers(1, 80),
    "link_capacity_pps": mostly(st.floats(1.0, 300.0) | st.just(125),
                                st.just(0)),
    "base_rtt_s": mostly(st.floats(0.01, 0.3), st.just(-0.1)),
    "buffer_pkts": mostly(st.floats(0.0, 40.0) | st.just(0), st.just(-1.0)),
}


@st.composite
def documents(draw, version, member_key, member, lifetime, top,
              top_optional):
    """A sound-looking document, then up to two rounds of mutation. Each
    picks the document or one member and sets about half its fields to
    hostile values and deletes some. Then now and then one stray key, a
    broken version or a broken member list; now and then the whole
    document is not an object."""
    members = draw(st.lists(st.fixed_dictionaries(member, optional=lifetime),
                            min_size=1, max_size=3))
    doc = {"version": version, member_key: members,
           **draw(st.fixed_dictionaries(top, optional=top_optional))}
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        target = draw(st.sampled_from([doc, *members]))
        for key in sorted(top.keys() | top_optional.keys() if target is doc
                          else member.keys() | lifetime.keys()):
            change = draw(st.sampled_from(["keep", "set", "set", "pop"]))
            if change == "set":
                target[key] = draw(hostile)
            elif change == "pop":
                target.pop(key, None)
    stray = draw(st.sampled_from(
        [None] * 12 + ["version", member_key, "bogus", *member]))
    if stray is not None:
        draw(st.sampled_from([doc, *members]))[stray] = draw(hostile)
    return draw(st.sampled_from([doc] * 20 + [[doc], None, version]))


def outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:    # the reference's type and text must match
        return type(exc).__name__, str(exc)


def assert_same_parse(doc, fmt, ref_parse, ref_to_json):
    text = json.dumps(doc)
    got = outcome(parse_scenario, json.loads(text), fmt)
    want = outcome(ref_parse, json.loads(text))
    assert got == want
    if isinstance(want, (ScenarioSpec, TcpScenarioSpec)):
        assert json.dumps(scenario_doc(got), indent=2, sort_keys=True) \
            + "\n" == ref_to_json(want)


@settings(max_examples=EXAMPLES, deadline=None)
@given(doc=documents("mac-v1", "nodes", MAC_MEMBER, MAC_LIFETIME, MAC_TOP,
                     MAC_TOP_OPTIONAL))
def test_mac_documents_match_reference(doc):
    assert_same_parse(doc, MAC_FORMAT, ref.scenario_from_doc,
                      ref.scenario_to_json)


@settings(max_examples=EXAMPLES, deadline=None)
@given(doc=documents("tcp-v1", "flows", TCP_MEMBER, TCP_LIFETIME, TCP_TOP,
                     TCP_TOP_OPTIONAL))
def test_tcp_documents_match_reference(doc):
    assert_same_parse(doc, TCP_FORMAT, ref.tcp_scenario_from_doc,
                      ref.tcp_scenario_to_json)


# a sound document of each format, as (format, reference parser and
# serializer, top-level fields, one member with every member field set)
SOUND = [
    (MAC_FORMAT, ref.scenario_from_doc, ref.scenario_to_json,
     {"total_frames": 10, "seed": 1, "frame_len": 10,
      "slot_duration_ms": 1.0},
     {"kind": "csma", "q": 0.5, "slots": [1], "window": 2, "max_stage": 1,
      "join_frame": 0, "leave_frame": 5}),
    (TCP_FORMAT, ref.tcp_scenario_from_doc, ref.tcp_scenario_to_json,
     {"total_rounds": 10, "seed": 1, "cwnd_max": 8, "link_capacity_pps": 125,
      "base_rtt_s": 0.1, "buffer_pkts": 12.5},
     {"controller": "reno", "join_round": 0, "leave_round": 5}),
]
ABSENT = object()


@pytest.mark.parametrize("fmt,ref_parse,ref_to_json,top,member", SOUND)
def test_each_field_and_pair_of_fields_match_reference(
        fmt, ref_parse, ref_to_json, top, member):
    """The sound document, then each field absent, null or of a wrong
    type, then each pair of fields of a wrong type: the check order, the
    nullable fields and the defaults show in these alone."""
    keys = [(False, key) for key in top] + [(True, key) for key in member]
    cases = [[]] + [[(*key, value)] for key in keys
                    for value in (ABSENT, None, "x")]
    cases += [[(*a, "x"), (*b, "x")] for a, b in combinations(keys, 2)]
    for changes in cases:
        doc, node = dict(top, version=fmt.version), dict(member)
        for in_member, key, value in changes:
            target = node if in_member else doc
            if value is ABSENT:
                del target[key]
            else:
                target[key] = value
        doc[fmt.member_key] = [node]
        assert_same_parse(doc, fmt, ref_parse, ref_to_json)


nonpositive = st.integers(-1, 0)
nodes = st.builds(
    NodeConfig, kind=mostly(MAC_MEMBER["kind"], st.just("wifi")),
    q=mostly(st.floats(0, 1), st.floats(-0.5, 1.5) | weird_floats
             | st.sampled_from([None, True, "0.5", 1])),
    slots=mostly(owned_slots.map(tuple),
                 st.none() | st.lists(st.integers(-1, 11) | st.booleans(),
                                      max_size=3).map(tuple)),
    window=MAC_MEMBER["window"], max_stage=MAC_MEMBER["max_stage"],
    join_frame=MAC_LIFETIME["join_frame"],
    leave_frame=MAC_LIFETIME["leave_frame"])
mac_specs = st.builds(
    ScenarioSpec,
    nodes=mostly(st.lists(nodes, min_size=1, max_size=4), st.just([])),
    total_frames=mostly(MAC_TOP["total_frames"], nonpositive),
    seed=st.integers(0, 3),
    frame_len=mostly(MAC_TOP_OPTIONAL["frame_len"], nonpositive),
    slot_duration_ms=mostly(st.just(1.0), weird_floats))
flows = st.builds(
    TcpFlowConfig, controller=mostly(TCP_MEMBER["controller"], st.just("bbr")),
    join_round=TCP_LIFETIME["join_round"],
    leave_round=TCP_LIFETIME["leave_round"])
tcp_specs = st.builds(
    TcpScenarioSpec,
    flows=mostly(st.lists(flows, min_size=1, max_size=4), st.just([])),
    total_rounds=mostly(TCP_TOP["total_rounds"], nonpositive),
    seed=st.integers(0, 3),
    link_capacity_pps=mostly(TCP_TOP_OPTIONAL["link_capacity_pps"],
                             weird_floats),
    base_rtt_s=mostly(TCP_TOP_OPTIONAL["base_rtt_s"], weird_floats),
    buffer_pkts=mostly(TCP_TOP_OPTIONAL["buffer_pkts"], weird_floats),
    cwnd_max=mostly(TCP_TOP_OPTIONAL["cwnd_max"], nonpositive))


@settings(max_examples=EXAMPLES, deadline=None)
@given(spec=mac_specs | tcp_specs)
def test_specs_built_in_code_match_reference(spec):
    ref_validate, ref_to_json = (
        (ref.validate_scenario, ref.scenario_to_json)
        if isinstance(spec, ScenarioSpec)
        else (ref.validate_tcp_scenario, ref.tcp_scenario_to_json))
    got = outcome(validate_scenario, spec)
    assert got == outcome(ref_validate, spec)
    if got is None:
        assert json.dumps(scenario_doc(spec), indent=2, sort_keys=True) \
            + "\n" == ref_to_json(spec)


# populations the oracle solves quickly: short frames, no backoff kinds
oracle_nodes = st.builds(
    NodeConfig, kind=st.sampled_from(["aloha", "tdma", "agent", "aware"]),
    join_frame=st.integers(0, 12),
    leave_frame=st.none() | st.integers(13, 30))


@settings(max_examples=EXAMPLES, deadline=None)
@given(members=st.lists(oracle_nodes, min_size=1, max_size=4),
       total_frames=st.integers(1, 25))
def test_oracle_segments_match_reference(members, total_frames):
    for i, cfg in enumerate(members):
        cfg.q, cfg.slots = 0.3, (i % 3,)
    spec = ScenarioSpec(nodes=members, total_frames=total_frames, seed=1,
                        frame_len=3)
    _, segments = aware_trajectory(spec)
    assert [(seg.start_frame, seg.end_frame, seg.live_ids)
            for seg in segments] == ref.scenario_segments(spec)
