"""Deterministic scripted completion backend.

Each handler implements a documented reference heuristic for one prompt
template, so the full agent pipeline runs offline and reproducibly. The
response is a pure function of the request content.
"""

from __future__ import annotations

import json
import re
from typing import Dict, List, Optional, Tuple

from .errors import MalformedResponseError, UnrecognizedTemplateError
from .strategy import (
    DOMAIN_MAC,
    DOMAIN_TCP,
    EFFECT_ADJUST_CWND,
    EFFECT_AVOID_SLOTS,
    SIGNAL_COLLISION_RATE_GE,
    SIGNAL_RTT_INFLATION_GE,
    SIGNAL_UTILIZATION_GE,
)
from .backends import CompletionRequest, _check_request, iter_json_blocks
from .templates import (
    TEMPLATE_JUDGE,
    TEMPLATE_NODE_DECISION,
    TEMPLATE_PSA_CONFLICT,
    TEMPLATE_REFLECTION,
    TEMPLATE_STRATEGY_GEN,
    template_header,
)

_DOMAIN_RE = re.compile(r"Target domain: (mac|tcp)\.")
_EXPLORE_RE = re.compile(
    r"epsilon\s+([0-9]+(?:\.[0-9]+)?), sigma\s+([0-9]+(?:\.[0-9]+)?)")

# Congestion-window backoff rules attached to generated tcp strategies.
TCP_LOSS_BACKOFF_THRESHOLD = 0.3
TCP_RTT_BACKOFF_THRESHOLD = 0.9
TCP_BACKOFF_DELTA = -2


def _compact(doc: Dict[str, object]) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def _payload_blocks(text: str) -> List[Dict[str, object]]:
    blocks = []
    for raw in iter_json_blocks(text):
        try:
            blocks.append(json.loads(raw))
        except ValueError:
            continue
    return blocks


class ScriptedBackend:
    """Dispatches on the [template:<name> vN] header of the prompt."""

    def complete(self, req: CompletionRequest) -> str:
        _check_request(req)
        text = "\n".join(m.content for m in req.messages)
        name = ""
        for m in req.messages:
            name = template_header(m.content)
            if name:
                break
        handlers = {
            TEMPLATE_STRATEGY_GEN: _strategy_gen,
            TEMPLATE_REFLECTION: _reflection,
            TEMPLATE_NODE_DECISION: _node_decision,
            TEMPLATE_JUDGE: _judge,
            TEMPLATE_PSA_CONFLICT: _psa_conflict,
        }
        handler = handlers.get(name)
        if handler is None:
            raise UnrecognizedTemplateError(
                f"scripted backend has no handler for template "
                f"{name or '<missing header>'}")
        return handler(text)


def _prompt_scalar(regex: re.Pattern, text: str, caster, what: str):
    m = regex.search(text)
    if not m:
        raise MalformedResponseError(f"prompt lacks {what}")
    return caster(m.group(1))


def _demo_sets(text: str) -> List[Dict[str, object]]:
    sets = [b for b in _payload_blocks(text)
            if isinstance(b, dict) and "label" in b and "tuples" in b]
    if not sets:
        raise MalformedResponseError("prompt embeds no demonstration blocks")
    return sets


def _strategy_gen(text: str) -> str:
    domain = _prompt_scalar(_DOMAIN_RE, text, str, "a target domain")
    explore = _EXPLORE_RE.search(text)
    epsilon = float(explore.group(1)) if explore else 0.0
    sigma = float(explore.group(2)) if explore else 0.0
    demos = _demo_sets(text)
    if domain == DOMAIN_MAC:
        return _mac_strategy_gen(demos, epsilon, sigma)
    return _tcp_strategy_gen(demos)


def _mac_strategy_gen(demos: List[Dict[str, object]],
                      epsilon: float, sigma: float) -> str:
    """Heuristic: adopt the action of the highest-reward tuple across all
    demonstrations. Ties break on (label, tuple index) so the result does
    not depend on the order the blocks appear in."""
    best: Optional[Tuple[float, Tuple[str, int], List[float]]] = None
    for demo in demos:
        for idx, tup in enumerate(demo["tuples"]):
            key = (float(tup["r"]), str(demo["label"]), idx)
            if best is None or key[0] > best[0] or \
                    (key[0] == best[0] and (key[1], key[2]) < best[1]):
                best = (key[0], (key[1], key[2]), list(tup["a"]))
    doc = {
        "version": "strategy-v1",
        "domain": DOMAIN_MAC,
        "base_action": [round(float(p), 6) for p in best[2]],
        "rules": [],
        "explore": {"epsilon": epsilon, "sigma": sigma},
        "provenance": "generated",
    }
    return _compact(doc)


def _fair_share_cwnd(demos: List[Dict[str, object]]) -> int:
    """Estimate the fair congestion window from demonstration statistics.

    The link pipe is estimated from the best observed delivery rate scaled
    back to the uncongested round-trip time, the buffer from the worst
    round-trip inflation, and the result split evenly across the flows
    seen. Raw reward argmax would monopolize the link here, because a
    flow's own reward keeps growing with its share.
    """
    min_rtt = None
    max_rtt = 0.0
    best_tput = 0.0
    live_n = 1
    for demo in demos:
        for tup in demo["tuples"]:
            for state in (tup.get("s"), tup.get("sn")):
                if not isinstance(state, dict):
                    continue
                if "min_rtt" in state:
                    v = float(state["min_rtt"])
                    min_rtt = v if min_rtt is None else min(min_rtt, v)
                if "max_rtt" in state:
                    max_rtt = max(max_rtt, float(state["max_rtt"]))
                if "mean_tput" in state:
                    best_tput = max(best_tput, float(state["mean_tput"]))
                if "live_n" in state:
                    live_n = max(live_n, int(state["live_n"]))
    if min_rtt is None or min_rtt <= 0.0 or best_tput <= 0.0:
        raise MalformedResponseError(
            "demonstrations carry no usable congestion statistics")
    pipe_est = best_tput * min_rtt
    inflation = max(0.0, (max_rtt - min_rtt) / min_rtt)
    buffer_est = pipe_est * inflation
    return max(1, round((pipe_est + buffer_est / 2.0) / live_n))


def _tcp_strategy_gen(demos: List[Dict[str, object]]) -> str:
    base = _fair_share_cwnd(demos)
    doc = {
        "version": "strategy-v1",
        "domain": DOMAIN_TCP,
        "base_action": base,
        "rules": [
            {"trigger": {"signal": SIGNAL_COLLISION_RATE_GE,
                         "threshold": TCP_LOSS_BACKOFF_THRESHOLD},
             "effect": {"kind": EFFECT_ADJUST_CWND,
                        "delta": TCP_BACKOFF_DELTA}},
            {"trigger": {"signal": SIGNAL_RTT_INFLATION_GE,
                         "threshold": TCP_RTT_BACKOFF_THRESHOLD},
             "effect": {"kind": EFFECT_ADJUST_CWND,
                        "delta": TCP_BACKOFF_DELTA}},
        ],
        "explore": {"epsilon": 0.0, "sigma": 0.0},
        "provenance": "generated",
    }
    return _compact(doc)


def _single_payload(text: str, what: str) -> Dict[str, object]:
    blocks = _payload_blocks(text)
    if not blocks or not isinstance(blocks[0], dict):
        raise MalformedResponseError(f"prompt embeds no {what} payload")
    return blocks[0]


def derive_mac_action(live_n: int, overused: List[int],
                      frame_len: int) -> List[float]:
    """Even split of the free slots among the contenders: zero probability
    on slots another protocol holds permanently, 1/(live peers excluding
    the slot owner) elsewhere."""
    n_owners = 1 if overused else 0
    p = 1.0 / max(1, live_n - n_owners)
    return [0.0 if k in set(overused) else round(p, 6)
            for k in range(frame_len)]


def _observation_payload(text: str) -> Dict[str, object]:
    # The prompt also embeds the strategy memory as fenced blocks; the
    # observation is the one block that reports the previously held action.
    for block in _payload_blocks(text):
        if isinstance(block, dict) and "prev_action" in block:
            return block
    raise MalformedResponseError("prompt embeds no observation payload")


def _node_decision(text: str) -> str:
    payload = _observation_payload(text)
    domain = payload.get("domain")
    prev = payload.get("prev_action")
    base = payload.get("base")
    if domain == DOMAIN_TCP:
        # The offline-derived base already encodes the fair share; hold it.
        action = prev if prev is not None else base
        return _compact({"action": int(action)})
    if domain != DOMAIN_MAC:
        raise MalformedResponseError("observation payload lacks a domain")
    frame_len = int(payload.get("frame_len", 10))
    if not payload.get("have_report"):
        action = prev if prev is not None else base
        return _compact({"action": list(action)})
    overused = sorted(int(k) for k in payload.get("overused", []))
    prev_overused = payload.get("prev_overused")
    rederive = (
        prev is None
        or bool(payload.get("env_changed"))
        or prev_overused is None
        or sorted(int(k) for k in prev_overused) != overused
    )
    if rederive:
        action = derive_mac_action(int(payload["live_n"]), overused,
                                   frame_len)
    else:
        action = list(prev)
    return _compact({"action": action})


def _reflection(text: str) -> str:
    # The strategy and episode evidence arrive as separate reorderable
    # blocks; merging by key keeps the response order-independent.
    payload: Dict[str, object] = {}
    for block in _payload_blocks(text):
        if isinstance(block, dict):
            payload.update(block)
    strategy = payload.get("strategy")
    episode = payload.get("episode")
    if not isinstance(strategy, dict) or not isinstance(episode, dict):
        raise MalformedResponseError(
            "reflection payload needs strategy and episode")
    doc = dict(strategy)
    doc["provenance"] = "refined"
    if doc.get("domain") == DOMAIN_TCP:
        stats = episode.get("stats", {})
        demos = [{"label": "EPISODE", "tuples": [{"s": stats, "sn": stats}]}]
        doc["base_action"] = _fair_share_cwnd(demos)
        return _compact(doc)

    frame_len = len(doc["base_action"])
    overused = sorted(int(e["slot"]) for e in episode.get("overused", []))
    live_n = int(episode.get("live_n", 1))
    doc["base_action"] = derive_mac_action(live_n, overused, frame_len)
    theta = float(episode.get("theta_hi", 0.9))
    if overused:
        avoid = {
            "trigger": {"signal": SIGNAL_UTILIZATION_GE, "theta": theta,
                        "slots": overused},
            "effect": {"kind": EFFECT_AVOID_SLOTS, "slots": overused},
        }
        rules = [r for r in doc.get("rules", []) if r != avoid]
        rules.append(avoid)
        doc["rules"] = rules
    return _compact(doc)


def _judge(text: str) -> str:
    payload = _single_payload(text, "judge")
    j1 = payload.get("j_first")
    j2 = payload.get("j_second")
    if j1 is not None and j2 is not None and float(j2) > float(j1):
        return _compact({"selection": 2,
                         "rationale": "second candidate measured higher"})
    return _compact({"selection": 1,
                     "rationale": "first candidate measured at least as "
                                  "high (ties keep the first)"})


def _canonical_rules(doc: Dict[str, object]) -> str:
    return json.dumps(doc.get("rules", []), sort_keys=True,
                      separators=(",", ":"))


def _trigger_key(rule: Dict[str, object]) -> str:
    return json.dumps(rule.get("trigger", {}), sort_keys=True,
                      separators=(",", ":"))


def _effects_oppose(a: Dict[str, object], b: Dict[str, object]) -> bool:
    ka, kb = a.get("kind"), b.get("kind")
    if ka == kb == "set_slot_prob":
        return a.get("slot") == b.get("slot") and a.get("prob") != b.get("prob")
    if ka == kb == "adjust_cwnd":
        return float(a.get("delta", 0)) * float(b.get("delta", 0)) < 0
    if ka == kb == "scale_all":
        return (float(a.get("factor", 1)) - 1.0) * \
               (float(b.get("factor", 1)) - 1.0) < 0
    pair = {ka, kb}
    if pair == {"avoid_slots", "set_slot_prob"}:
        avoid = a if ka == "avoid_slots" else b
        setp = b if ka == "avoid_slots" else a
        return setp.get("slot") in set(avoid.get("slots", [])) and \
            float(setp.get("prob", 0.0)) > 0.0
    return False


def _psa_conflict(text: str) -> str:
    payload = _single_payload(text, "strategy-set")
    new = payload.get("new")
    existing = payload.get("existing", [])
    if not isinstance(new, dict):
        raise MalformedResponseError("strategy-set payload lacks new entry")
    remove = []
    new_rules = _canonical_rules(new)
    new_by_trigger = {_trigger_key(r): r.get("effect", {})
                      for r in new.get("rules", [])}
    for old in existing:
        reason = ""
        if _canonical_rules(old) == new_rules:
            reason = "redundant: identical rule effects"
        else:
            for r in old.get("rules", []):
                eff = new_by_trigger.get(_trigger_key(r))
                if eff is not None and _effects_oppose(r.get("effect", {}),
                                                       eff):
                    reason = "obsolete: opposing effect on a shared trigger"
                    break
        if reason:
            remove.append({"id": old.get("id", ""), "reason": reason})
    return _compact({"remove": remove})
