"""Scenario formats: one table per family (``mac.MAC_FORMAT``,
``tcp.TCP_FORMAT``) drives parsing, validation and serialization.
Fields are checked in table order, so an error names the first bad one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (Callable, Dict, List, NamedTuple, Optional, Sequence,
                    Tuple)

from .errors import InvalidScenarioError

REQUIRED = object()     # the default of a field a document must carry


class Field(NamedTuple):
    """A field's type test (a nullable field's accepts None), the message
    when it fails, its default and how a parsed value is stored."""

    name: str
    test: Callable[[object], bool]
    message: str
    default: object = REQUIRED
    convert: Callable[[object], object] = lambda value: value


def nullable(test: Callable[[object], bool]) -> Callable[[object], bool]:
    return lambda value: value is None or test(value)


@dataclass(frozen=True)
class ScenarioFormat:
    version: str
    spec_type: type
    member_type: type
    member_key: str                 # the member list: "nodes" or "flows"
    tag: str                        # the member field naming its type
    tags: Tuple[str, ...]
    member_fields: Tuple[Field, ...]    # left out of a document at default
    fields: Tuple[Field, ...]
    # (field, test that its value is out of range, message), in order
    ranges: Tuple[Tuple[str, Callable[[object], bool], str], ...]
    lifetime: Tuple[str, str]       # (join field, leave field)
    # check_member(member, path, spec): what the member's tag requires
    check_member: Optional[Callable[[object, str, object], None]] = None

    def __post_init__(self):
        FORMATS[self.spec_type] = self

    def lifetimes(self, members) -> List[Tuple[int, Optional[int]]]:
        join, leave = self.lifetime
        return [(getattr(m, join), getattr(m, leave)) for m in members]


FORMATS: Dict[type, ScenarioFormat] = {}    # by the spec type each builds


def _read_fields(raw: dict, fields: Sequence[Field], prefix: str) -> dict:
    values = {}
    for f in fields:
        value = raw.get(f.name, f.default)
        if (f.name in raw or value is REQUIRED) and not f.test(value):
            raise InvalidScenarioError(prefix + f.name, f.message)
        values[f.name] = f.convert(value) if f.name in raw else value
    return values


def parse_scenario(doc: object, fmt: ScenarioFormat):
    """Parse a decoded document of format ``fmt``, checking each field's
    type before the values are validated."""
    if not isinstance(doc, dict):
        raise InvalidScenarioError("$", "scenario must be a JSON object")
    if doc.get("version") != fmt.version:
        raise InvalidScenarioError(
            "version", f"expected {fmt.version}, got {doc.get('version')!r}")
    raw_members = doc.get(fmt.member_key)
    if not isinstance(raw_members, list):
        raise InvalidScenarioError(fmt.member_key, "must be a list")
    known = {fmt.tag, *(f.name for f in fmt.member_fields)}
    members = []
    for i, raw in enumerate(raw_members):
        path = f"{fmt.member_key}[{i}]"
        if not isinstance(raw, dict):
            raise InvalidScenarioError(path, "must be an object")
        for key in raw:
            if key not in known:
                raise InvalidScenarioError(f"{path}.{key}", "unknown field")
        members.append(fmt.member_type(
            **{fmt.tag: raw.get(fmt.tag, "")},
            **_read_fields(raw, fmt.member_fields, f"{path}.")))
    spec = fmt.spec_type(**{fmt.member_key: members},
                         **_read_fields(doc, fmt.fields, ""))
    validate_scenario(spec)
    return spec


def validate_scenario(spec) -> None:
    """Check a spec, parsed or built in code, against its format."""
    fmt = FORMATS[type(spec)]
    for name, out_of_range, message in fmt.ranges:
        if out_of_range(getattr(spec, name)):
            raise InvalidScenarioError(name, message)
    members = getattr(spec, fmt.member_key)
    if not members:
        raise InvalidScenarioError(
            fmt.member_key, f"at least one {fmt.member_key[:-1]} required")
    join_key, leave_key = fmt.lifetime
    for i, (member, (join, leave)) in enumerate(
            zip(members, fmt.lifetimes(members))):
        path = f"{fmt.member_key}[{i}]"
        tag = getattr(member, fmt.tag)
        if tag not in fmt.tags:
            raise InvalidScenarioError(f"{path}.{fmt.tag}",
                                       f"unknown {fmt.tag} {tag!r}")
        if fmt.check_member is not None:
            fmt.check_member(member, path, spec)
        if join < 0:
            raise InvalidScenarioError(f"{path}.{join_key}", "must be >= 0")
        if leave is not None and leave <= join:
            raise InvalidScenarioError(f"{path}.{leave_key}",
                                       f"must be greater than {join_key}")


def scenario_doc(spec) -> Dict[str, object]:
    """The document ``parse_scenario`` reads back as ``spec``."""
    fmt = FORMATS[type(spec)]
    members = []
    for member in getattr(spec, fmt.member_key):
        entry = {fmt.tag: getattr(member, fmt.tag)}
        for f in fmt.member_fields:
            value = getattr(member, f.name)
            if value != f.default:
                entry[f.name] = list(value) if isinstance(value, tuple) \
                    else value
        members.append(entry)
    return {"version": fmt.version,
            **{f.name: getattr(spec, f.name) for f in fmt.fields},
            fmt.member_key: members}


def live_segments(lifetimes: Sequence[Tuple[int, Optional[int]]]) \
        -> List[Tuple[int, Tuple[int, ...]]]:
    """``(start, live member ids)`` for each stretch with one live set,
    given each member's ``(join, leave)``, leave exclusive or None; cut
    only at join and leave points, the last open-ended."""
    cuts = {0}
    for join, leave in lifetimes:
        cuts.add(join)
        if leave is not None:
            cuts.add(leave)
    segments: List[Tuple[int, Tuple[int, ...]]] = []
    for start in sorted(cuts):
        live = tuple(i for i, (join, leave) in enumerate(lifetimes)
                     if join <= start and (leave is None or start < leave))
        if not segments or segments[-1][1] != live:
            segments.append((start, live))
    return segments
