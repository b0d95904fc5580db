"""Structured strategy language for agent nodes and flows.

A strategy is a JSON document (version ``strategy-v1``) holding a base
action, an ordered list of trigger/effect rules, and an exploration
schedule. Strategies are the only executable thing a completion backend
may produce: instead of running generated code, the runtime parses,
validates and interprets this restricted language.

Interpretation order is fixed: base action, then rules in order (later
rules overwrite earlier ones slot-wise), then the optional epsilon
uniform resample, then Gaussian perturbation, then clipping to the valid
range; the rule-adjusted action, clipped alike, is the proposal.
Canonical serialization is byte-stable and is what the strategy id hashes.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, fields
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import StrategyParseError

STRATEGY_VERSION = "strategy-v1"

DOMAIN_MAC = "mac"
DOMAIN_TCP = "tcp"
DOMAINS = (DOMAIN_MAC, DOMAIN_TCP)

PROVENANCES = ("generated", "refined", "escape")

SIGNAL_UTILIZATION_GE = "slot_utilization_ge"
SIGNAL_UTILIZATION_ZERO = "slot_utilization_zero"
SIGNAL_ENV_CHANGE = "env_change"
SIGNAL_COLLISION_RATE_GE = "collision_rate_ge"
SIGNAL_RTT_INFLATION_GE = "rtt_inflation_ge"

# signal name -> (required params, optional params)
_SIGNALS: Dict[str, Tuple[Tuple[str, ...], Tuple[str, ...]]] = {
    SIGNAL_UTILIZATION_GE: (("theta",), ("slots",)),
    SIGNAL_UTILIZATION_ZERO: ((), ("slots",)),
    SIGNAL_ENV_CHANGE: ((), ()),
    SIGNAL_COLLISION_RATE_GE: (("threshold",), ()),
    SIGNAL_RTT_INFLATION_GE: (("threshold",), ()),
}

EFFECT_SET_SLOT_PROB = "set_slot_prob"
EFFECT_SCALE_ALL = "scale_all"
EFFECT_AVOID_SLOTS = "avoid_slots"
EFFECT_ADJUST_CWND = "adjust_cwnd"
EFFECT_RESET_EXPLORATION = "reset_exploration"

# effect kind -> (required params, optional params)
_EFFECTS: Dict[str, Tuple[Tuple[str, ...], Tuple[str, ...]]] = {
    EFFECT_SET_SLOT_PROB: (("slot", "prob"), ()),
    EFFECT_SCALE_ALL: (("factor",), ()),
    EFFECT_AVOID_SLOTS: (("slots",), ()),
    EFFECT_ADJUST_CWND: (("delta",), ()),
    EFFECT_RESET_EXPLORATION: ((), ()),
}

# the one domain a signal or effect is valid in; absent means both
_DOMAIN_OF: Dict[str, str] = {
    SIGNAL_UTILIZATION_GE: DOMAIN_MAC,
    SIGNAL_UTILIZATION_ZERO: DOMAIN_MAC,
    EFFECT_SET_SLOT_PROB: DOMAIN_MAC,
    EFFECT_AVOID_SLOTS: DOMAIN_MAC,
    EFFECT_ADJUST_CWND: DOMAIN_TCP,
}


@dataclass(frozen=True)
class Diagnostic:
    path: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}: {self.message}"


@dataclass(frozen=True)
class Trigger:
    signal: str
    theta: Optional[float] = None
    threshold: Optional[float] = None
    slots: Optional[Tuple[int, ...]] = None


@dataclass(frozen=True)
class Effect:
    kind: str
    slot: Optional[int] = None
    slots: Optional[Tuple[int, ...]] = None
    prob: Optional[float] = None
    factor: Optional[float] = None
    delta: Optional[float] = None


@dataclass(frozen=True)
class Rule:
    trigger: Trigger
    effect: Effect


@dataclass(frozen=True)
class ExploreSpec:
    epsilon: float = 0.0
    sigma: float = 0.0


MacAction = Tuple[float, ...]
BaseAction = Union[MacAction, int]


@dataclass(frozen=True)
class Strategy:
    domain: str
    base_action: BaseAction
    rules: Tuple[Rule, ...] = ()
    explore: ExploreSpec = ExploreSpec()
    provenance: str = "generated"

    @property
    def id(self) -> str:
        return strategy_id(self)


def _part_doc(part: Union[Trigger, Effect]) -> Dict[str, object]:
    """A trigger or effect as JSON: its tag and every parameter it sets."""
    doc: Dict[str, object] = {}
    for f in fields(part):
        value = getattr(part, f.name)
        if value is not None:
            doc[f.name] = list(value) if isinstance(value, tuple) else value
    return doc


def strategy_doc(s: Strategy) -> Dict[str, object]:
    base = list(s.base_action) if s.domain == DOMAIN_MAC else s.base_action
    return {
        "version": STRATEGY_VERSION,
        "domain": s.domain,
        "base_action": base,
        "rules": [
            {"trigger": _part_doc(r.trigger), "effect": _part_doc(r.effect)}
            for r in s.rules
        ],
        "explore": {"epsilon": s.explore.epsilon, "sigma": s.explore.sigma},
        "provenance": s.provenance,
    }


def serialize_strategy(s: Strategy) -> str:
    """Canonical text: compact JSON with sorted keys. Rule order is
    preserved (it is semantically significant), so two strategies that
    differ only in rule order serialize differently."""
    return json.dumps(strategy_doc(s), sort_keys=True, separators=(",", ":"))


def strategy_id(s: Strategy) -> str:
    digest = hashlib.sha256(serialize_strategy(s).encode("utf-8"))
    return digest.hexdigest()[:16]


def finite_number(value) -> bool:
    """True for an int or float, not a bool, that is finite as a float:
    NaN, the infinities and ints beyond the float range are refused."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def finite_integer(value) -> bool:
    """True for an int, not a bool, inside the float range."""
    return isinstance(value, int) and finite_number(value)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _slots_outside(slots, limit: int) -> List[str]:
    return [f"slot {k} outside [0, {limit})" for k in slots
            if k < 0 or (limit and k >= limit)]


def _outside_unit(value, limit: int) -> List[str]:
    return [] if 0.0 <= value <= 1.0 else [f"{value} outside [0, 1]"]


def _negative(value, limit: int) -> List[str]:
    return [f"{value} must be >= 0"] if value < 0.0 else []


_FINITE = "must be a finite number"

# Every trigger, effect and exploration parameter: name -> (type test at
# parse time, its message, range test at validation time giving a message
# per value out of range, given the frame length or 0). Parsing tests a
# trigger's or effect's parameters in this order, stopping at the first
# failure.
_PARAMS: Dict[str, Tuple[Callable[[object], bool], str,
                         Callable[[object, int], List[str]]]] = {
    "slots": (lambda value: isinstance(value, list)
              and all(_is_int(x) for x in value),
              "must be a list of ints", _slots_outside),
    "slot": (_is_int, "must be an int",
             lambda value, limit: _slots_outside((value,), limit)),
    "theta": (finite_number, _FINITE, _outside_unit),
    "threshold": (finite_number, _FINITE, _negative),
    "prob": (finite_number, _FINITE, _outside_unit),
    "factor": (finite_number, _FINITE, _negative),
    "delta": (finite_number, _FINITE, lambda value, limit: []),
    "epsilon": (finite_number, _FINITE, _outside_unit),
    "sigma": (finite_number, _FINITE, _negative),
}

# part -> (tag -> (required, optional) params, the noun its diagnostics use)
_PARTS = {
    Trigger: (_SIGNALS, "signal"),
    Effect: (_EFFECTS, "effect"),
}


def _parse_part(cls, raw, path: str, diags: List[Diagnostic]):
    """Parse a trigger or an effect (``cls``) from ``raw``; on failure
    append diagnostics and return None."""
    name = cls.__name__.lower()
    if not isinstance(raw, dict):
        diags.append(Diagnostic(path, f"{name} must be an object"))
        return None
    table, noun = _PARTS[cls]
    tag_field, *params = [f.name for f in fields(cls)]
    tag = raw.get(tag_field)
    if not isinstance(tag, str) or tag not in table:
        diags.append(Diagnostic(f"{path}.{tag_field}",
                                f"unknown {name} {tag_field} {tag!r}"))
        return None
    required, optional = table[tag]
    for key in raw:
        if key != tag_field and key not in required and key not in optional:
            diags.append(Diagnostic(f"{path}.{key}",
                                    f"unknown field for {noun} {tag!r}"))
    for key in required:
        if key not in raw:
            diags.append(Diagnostic(f"{path}.{key}",
                                    f"{noun} {tag!r} requires {key!r}"))
            return None
    for key, (type_ok, message, _) in _PARAMS.items():
        if key in params and key in raw and not type_ok(raw[key]):
            diags.append(Diagnostic(f"{path}.{key}", message))
            return None
    return cls(tag, **{key: tuple(raw[key]) if key == "slots" else raw[key]
                       for key in params if key in raw})


def parse_strategy(text: str) -> Strategy:
    """Parse strategy text. Raises StrategyParseError carrying every
    diagnostic found (JSON syntax location, unknown names, missing or
    ill-typed fields)."""
    diags: List[Diagnostic] = []
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise StrategyParseError([Diagnostic(
            "$", f"line {exc.lineno} column {exc.colno}: {exc.msg}"
        )]) from exc
    except (ValueError, RecursionError) as exc:
        # an integer beyond the digit limit, or nesting beyond the stack
        raise StrategyParseError([Diagnostic("$", str(exc))]) from exc
    if not isinstance(doc, dict):
        raise StrategyParseError([Diagnostic("$", "strategy must be a JSON object")])

    known = {"version", "domain", "base_action", "rules", "explore",
             "provenance"}
    for key in doc:
        if key not in known:
            diags.append(Diagnostic(key, "unknown field"))
    if doc.get("version") != STRATEGY_VERSION:
        diags.append(Diagnostic(
            "version", f"expected {STRATEGY_VERSION!r}, got {doc.get('version')!r}"
        ))
    domain = doc.get("domain")
    if domain not in DOMAINS:
        diags.append(Diagnostic("domain", f"unknown domain {domain!r}"))
        raise StrategyParseError(diags)

    base_raw = doc.get("base_action")
    base: Optional[BaseAction] = None
    if domain == DOMAIN_MAC:
        if not isinstance(base_raw, list) or \
                not all(finite_number(x) for x in base_raw):
            diags.append(Diagnostic(
                "base_action", "mac base_action must be a list of finite "
                               "numbers"))
        else:
            base = tuple(float(x) for x in base_raw)
    else:
        if not isinstance(base_raw, int) or not finite_number(base_raw):
            diags.append(Diagnostic("base_action",
                                    "tcp base_action must be an integer cwnd"))
        else:
            base = base_raw

    rules: List[Rule] = []
    raw_rules = doc.get("rules", [])
    if not isinstance(raw_rules, list):
        diags.append(Diagnostic("rules", "must be a list"))
    else:
        for i, raw_rule in enumerate(raw_rules):
            path = f"rules[{i}]"
            if not isinstance(raw_rule, dict):
                diags.append(Diagnostic(path, "rule must be an object"))
                continue
            for key in raw_rule:
                if key not in ("trigger", "effect"):
                    diags.append(Diagnostic(f"{path}.{key}", "unknown field"))
            trigger = _parse_part(Trigger, raw_rule.get("trigger"),
                                  f"{path}.trigger", diags)
            effect = _parse_part(Effect, raw_rule.get("effect"),
                                 f"{path}.effect", diags)
            if trigger is not None and effect is not None:
                rules.append(Rule(trigger=trigger, effect=effect))

    explore = ExploreSpec()
    raw_explore = doc.get("explore", {})
    if not isinstance(raw_explore, dict):
        diags.append(Diagnostic("explore", "must be an object"))
    else:
        for key in raw_explore:
            if key not in ("epsilon", "sigma"):
                diags.append(Diagnostic(f"explore.{key}", "unknown field"))
        eps = raw_explore.get("epsilon", 0.0)
        sig = raw_explore.get("sigma", 0.0)
        if not finite_number(eps) or not finite_number(sig):
            diags.append(Diagnostic("explore", "epsilon and sigma must be "
                                               "finite numbers"))
        else:
            explore = ExploreSpec(epsilon=float(eps), sigma=float(sig))

    provenance = doc.get("provenance", "generated")
    if provenance not in PROVENANCES:
        diags.append(Diagnostic(
            "provenance", f"must be one of {PROVENANCES}, got {provenance!r}"
        ))

    if diags or base is None:
        raise StrategyParseError(diags or
                                 [Diagnostic("base_action", "missing")])
    return Strategy(domain=domain, base_action=base, rules=tuple(rules),
                    explore=explore, provenance=provenance)


def validate_strategy(s: Strategy, frame_len: Optional[int] = None,
                      cwnd_max: Optional[int] = None,
                      domain: Optional[str] = None) -> List[Diagnostic]:
    """Range and cross-reference checks, and when ``domain`` is given the
    domain the caller runs. Returns diagnostics, empty when the strategy
    is sound; never raises."""
    if domain is not None and s.domain != domain:
        return [Diagnostic("domain", f"expected a {domain!r} strategy, "
                                     f"got {s.domain!r}")]
    diags: List[Diagnostic] = []
    if s.domain == DOMAIN_MAC:
        probs = s.base_action
        if frame_len is not None and len(probs) != frame_len:
            diags.append(Diagnostic(
                "base_action",
                f"length {len(probs)} does not match frame_len {frame_len}"
            ))
        limit = len(probs) if frame_len is None else frame_len
        for k, p in enumerate(probs):
            if not 0.0 <= p <= 1.0 or math.isnan(p):
                diags.append(Diagnostic(
                    f"base_action[{k}]", f"probability {p} outside [0, 1]"
                ))
    else:
        limit = frame_len or 0
        cwnd = s.base_action
        if cwnd < 1:
            diags.append(Diagnostic("base_action", f"cwnd {cwnd} must be >= 1"))
        if cwnd_max is not None and cwnd > cwnd_max:
            diags.append(Diagnostic(
                "base_action", f"cwnd {cwnd} above maximum {cwnd_max}"
            ))

    def check_ranges(path: str, obj) -> None:
        for param in fields(obj):
            value = getattr(obj, param.name)
            if param.name in _PARAMS and value is not None:
                diags.extend(Diagnostic(f"{path}.{param.name}", message)
                             for message in
                             _PARAMS[param.name][2](value, limit))

    for i, rule in enumerate(s.rules):
        for part in (rule.trigger, rule.effect):
            path = f"rules[{i}].{type(part).__name__.lower()}"
            tag = getattr(part, fields(part)[0].name)
            if _DOMAIN_OF.get(tag, s.domain) != s.domain:
                diags.append(Diagnostic(
                    path, f"{_PARTS[type(part)][1]} {tag!r} not valid for "
                          f"{s.domain} strategies"))
            check_ranges(path, part)
    check_ranges("explore", s.explore)
    return diags


@dataclass
class ActionContext:
    """Observed signals plus randomness for one interpretation."""

    rng: np.random.Generator
    slot_utilization: Optional[Sequence[float]] = None
    env_changed: bool = False
    collision_rate: float = 0.0
    rtt_inflation: float = 0.0
    cwnd_max: int = 64
    # when set, replaces the strategy's base action for this decision
    base_override: Optional[BaseAction] = None
    # when set, exploration noise uses at least this sigma (escape mode)
    escape_sigma: Optional[float] = None


@dataclass(frozen=True)
class InterpretedAction:
    action: BaseAction
    # the rule-adjusted action, clipped, before any exploration
    proposal: BaseAction
    fired_rules: Tuple[int, ...] = ()
    epsilon_resampled: bool = False
    sigma_used: float = 0.0
    exploration_reset: bool = False


def _trigger_fires(trig: Trigger, ctx: ActionContext) -> bool:
    if trig.signal == SIGNAL_ENV_CHANGE:
        return ctx.env_changed
    if trig.signal == SIGNAL_COLLISION_RATE_GE:
        return ctx.collision_rate >= trig.threshold
    if trig.signal == SIGNAL_RTT_INFLATION_GE:
        return ctx.rtt_inflation >= trig.threshold
    util = ctx.slot_utilization
    if util is None:
        return False
    slots = trig.slots if trig.slots is not None else range(len(util))
    values = [util[k] for k in slots if 0 <= k < len(util)]
    if not values:
        return False
    if trig.signal == SIGNAL_UTILIZATION_GE:
        return any(v >= trig.theta for v in values)
    return any(v == 0.0 for v in values)


def _clip(value, cwnd_max: int) -> BaseAction:
    if isinstance(value, list):
        return tuple(min(1.0, max(0.0, p)) for p in value)
    # clipping before rounding keeps an overflowed window finite
    return int(round(min(cwnd_max, max(1, value))))


def interpret_action(s: Strategy, ctx: ActionContext) -> InterpretedAction:
    """Resolve the concrete action for one decision point.

    Randomness is consumed in a fixed order (one uniform draw when
    epsilon > 0, then the Gaussian perturbation when sigma > 0), so the
    result is a pure function of strategy, context and rng state.
    """
    base = ctx.base_override if ctx.base_override is not None else s.base_action
    fired: List[int] = []
    exploration_reset = False

    if s.domain == DOMAIN_MAC:
        vec = [float(p) for p in base]
    else:
        cwnd = float(base)

    for i, rule in enumerate(s.rules):
        if not _trigger_fires(rule.trigger, ctx):
            continue
        fired.append(i)
        eff = rule.effect
        if eff.kind == EFFECT_RESET_EXPLORATION:
            exploration_reset = True
        elif s.domain == DOMAIN_MAC:
            if eff.kind == EFFECT_SET_SLOT_PROB:
                if 0 <= eff.slot < len(vec):
                    vec[eff.slot] = eff.prob
            elif eff.kind == EFFECT_SCALE_ALL:
                vec = [p * eff.factor for p in vec]
            elif eff.kind == EFFECT_AVOID_SLOTS:
                for k in eff.slots:
                    if 0 <= k < len(vec):
                        vec[k] = 0.0
        else:
            if eff.kind == EFFECT_ADJUST_CWND:
                cwnd += eff.delta
            elif eff.kind == EFFECT_SCALE_ALL:
                cwnd *= eff.factor

    proposal = _clip(vec if s.domain == DOMAIN_MAC else cwnd, ctx.cwnd_max)

    epsilon = s.explore.epsilon
    sigma = s.explore.sigma
    if ctx.escape_sigma is not None:
        sigma = max(sigma, ctx.escape_sigma)
    if exploration_reset:
        epsilon = 0.0
        sigma = 0.0

    epsilon_resampled = False
    action: BaseAction
    if s.domain == DOMAIN_MAC:
        if epsilon > 0.0 and float(ctx.rng.random()) < epsilon:
            vec = [float(u) for u in ctx.rng.random(len(vec))]
            epsilon_resampled = True
        if sigma > 0.0:
            noise = ctx.rng.normal(0.0, sigma, size=len(vec))
            vec = [p + float(n) for p, n in zip(vec, noise)]
        action = _clip(vec, ctx.cwnd_max)
    else:
        if epsilon > 0.0 and float(ctx.rng.random()) < epsilon:
            cwnd = float(ctx.rng.integers(1, ctx.cwnd_max + 1))
            epsilon_resampled = True
        if sigma > 0.0:
            cwnd += float(ctx.rng.normal(0.0, sigma))
        action = _clip(cwnd, ctx.cwnd_max)
    return InterpretedAction(
        action=action,
        proposal=proposal,
        fired_rules=tuple(fired),
        epsilon_resampled=epsilon_resampled,
        sigma_used=sigma,
        exploration_reset=exploration_reset,
    )


def strategy_from_doc(doc: Dict[str, object]) -> Strategy:
    """Build a strategy from an already-decoded JSON object."""
    return parse_strategy(json.dumps(doc))
