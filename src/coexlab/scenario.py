"""Scenario formats: one table per family (``mac.MAC_FORMAT``,
``tcp.TCP_FORMAT``) drives parsing, validation and serialization.
Fields are checked in table order, so an error names the first bad one.
Both families' logs share the ``Timeline`` of who is live and the
``BlockStreamedLog`` protocol that hands their history on in blocks.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
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


def _check_finite(obj, fields: Sequence[Field], prefix: str) -> None:
    """Refuse NaN or an infinity in any of ``fields`` of ``obj``, with the
    field's message. A parsed document's type tests refuse them already;
    a spec built in code meets them here."""
    for f in fields:
        value = getattr(obj, f.name)
        if isinstance(value, float) and not math.isfinite(value):
            raise InvalidScenarioError(prefix + f.name, f.message)


def validate_scenario(spec) -> None:
    """Check a spec, parsed or built in code, against its format."""
    fmt = FORMATS[type(spec)]
    _check_finite(spec, fmt.fields, "")
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
        _check_finite(member, fmt.member_fields, f"{path}.")
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


class Timeline:
    """Who is live at each tick (a MAC frame or a TCP round), given each
    member's ``(join, leave)``, leave exclusive or None: ``segments`` holds
    ``(start, live member ids)`` per stretch with one live set, cut only at
    join and leave points, so consecutive live sets differ."""

    def __init__(self, lifetimes: Sequence[Tuple[int, Optional[int]]]):
        self.lifetimes = tuple(lifetimes)
        self.starts = sorted({0, *(t for lifetime in self.lifetimes
                                   for t in lifetime if t is not None)})
        self.segments = [(start, tuple(
            i for i, (join, leave) in enumerate(self.lifetimes)
            if join <= start and (leave is None or start < leave)))
            for start in self.starts]

    def live_at(self, t: int) -> Tuple[int, ...]:
        """Live member ids, ascending, at tick ``t``."""
        return self.segments[bisect_right(self.starts, t) - 1][1]

    def stretches(self, t0: int, t1: int) \
            -> List[Tuple[int, int, Tuple[int, ...]]]:
        """``(first, end, live ids)`` for each live-set stretch of ticks
        ``[t0, t1)``, in order; none when ``t0 >= t1``."""
        if t0 >= t1:
            return []
        lo, hi = bisect_right(self.starts, t0), bisect_left(self.starts, t1)
        bounds = [t0, *self.starts[lo:hi], t1]
        return [(first, end, ids) for first, end, (_, ids) in zip(
            bounds, bounds[1:], self.segments[lo - 1:hi])]


class BlockStreamedLog:
    """The block-streaming protocol of a log of ticks, shared by the MAC
    slot log (whose blocks are counted in frames) and the TCP round log.

    A log given a consumer (``stream``) hands it each block of
    ``_block_ticks()`` ticks, in order, once ``keep`` later ticks are
    logged, and drops the block's rows (``_drop``). The log then holds
    the ticks from ``first_kept`` on, at most one block plus the kept
    ticks, and a read of an earlier tick raises ``IndexError``
    (``_check_kept``). The log's kernel stops at every ``next_retire``
    tick count and calls ``retire``. A subclass gives the ``unit`` of a
    tick, ``n_ticks`` (the ticks logged), ``_block_ticks()`` (the ticks
    per block, read at each use) and ``_drop(b0, b1)``, which drops the
    rows of ticks ``[b0, b1)``, ``b0`` being ``first_kept``."""

    unit = "tick"

    def __init__(self):
        self.first_kept = 0
        self._consumer: Optional[Callable[..., None]] = None
        self._keep = 0

    def stream(self, consumer: Callable[..., None], keep: int) -> None:
        """From now on, hand each block ``[b0, b1)`` of ticks, in order, to
        ``consumer(self, b0, b1)`` once ``keep`` later ticks are logged,
        then drop it."""
        self._consumer = consumer
        self._keep = max(0, keep)

    def next_retire(self) -> int:
        """The first tick count above ``n_ticks`` at which a block may be
        retired: ``keep`` ticks past a block end."""
        block = self._block_ticks()
        blocks = (self.n_ticks - self._keep) // block + 1
        return self._keep + block * max(1, blocks)

    def retire(self) -> None:
        """Hand the consumer every block that lies wholly before the last
        ``keep`` ticks, and drop it; without a consumer, nothing."""
        if self._consumer is None:
            return
        block = self._block_ticks()
        while self.first_kept + block <= self.n_ticks - self._keep:
            b0 = self.first_kept
            self._consumer(self, b0, b0 + block)
            self._drop(b0, b0 + block)
            self.first_kept = b0 + block

    def _check_kept(self, t0: int) -> None:
        if t0 < self.first_kept:
            raise IndexError(f"{self.unit} {t0} was dropped; the log holds "
                             f"{self.unit}s from {self.first_kept} on")
