"""Completion backends: live HTTP client, the recording wrapper that
writes a run's transcript and the order-reversal ranker with judge
selection."""

from __future__ import annotations

import json
import os
import re
import time
from dataclasses import dataclass, replace
from typing import (Callable, Dict, List, Optional, Protocol, TextIO,
                    Tuple)

from .errors import (
    BackendUnavailableError,
    MalformedResponseError,
    StrategyParseError,
)
from .strategy import Diagnostic, Strategy, parse_strategy, validate_strategy
from .templates import TEMPLATE_JUDGE, render_template

ITEMS_TOKEN = "{{ITEMS}}"

_FENCE_RE = re.compile(r"```(?:json)?\s*\n(.*?)\n```", re.DOTALL)


def extract_json_text(text: str) -> str:
    """Return the first fenced JSON block, or the text itself when unfenced."""
    m = _FENCE_RE.search(text)
    return m.group(1) if m else text


def fenced_json(doc: object) -> str:
    """Compact sorted JSON in the fence ``extract_json_text`` reads."""
    body = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return f"```json\n{body}\n```"


def iter_json_blocks(text: str) -> List[str]:
    return [m.group(1) for m in _FENCE_RE.finditer(text)]


@dataclass(frozen=True)
class Message:
    role: str
    content: str


@dataclass(frozen=True)
class CompletionRequest:
    messages: Tuple[Message, ...]
    request_tag: str = ""


def user_request(content: str, tag: str = "") -> CompletionRequest:
    return CompletionRequest(messages=(Message("user", content),),
                             request_tag=tag)


def _check_request(req: CompletionRequest) -> None:
    if not req.messages:
        raise ValueError("completion request needs at least one message")


class Backend(Protocol):
    def complete(self, req: CompletionRequest) -> str: ...


class RecordingBackend:
    """Wraps a backend so every round-trip lands in the transcript ``fh``
    as one JSON line, written as the response arrives; none is kept.

    Lines carry a sequence number rather than wall-clock time so that
    identical runs produce identical transcripts.
    """

    def __init__(self, inner: Backend, fh: TextIO):
        self.inner = inner
        self.fh = fh
        self.count = 0

    def complete(self, req: CompletionRequest) -> str:
        response = self.inner.complete(req)
        self.fh.write(json.dumps({
            "seq": self.count,
            "kind": "completion",
            "tag": req.request_tag,
            "messages": [{"role": m.role, "content": m.content}
                         for m in req.messages],
            "response": response,
        }, sort_keys=True) + "\n")
        self.count += 1
        return response


# the HTTP backend's settings; retry n waits BACKOFF_BASE_S * 2 ** (n - 1) s
CREDENTIAL_ENV = "COEXLAB_API_KEY"
TEMPERATURE = 0.0
MAX_TOKENS = 2048
MAX_RETRIES = 3
TIMEOUT_S = 60.0
BACKOFF_BASE_S = 0.5

PostFn = Callable[[str, Dict[str, str], Dict[str, object], float],
                  Tuple[int, object]]


def _requests_post(url: str, headers: Dict[str, str],
                   payload: Dict[str, object],
                   timeout: float) -> Tuple[int, object]:
    import requests

    try:
        resp = requests.post(url, headers=headers, json=payload,
                             timeout=timeout)
    except requests.Timeout as exc:
        raise TimeoutError(str(exc)) from exc
    except requests.ConnectionError as exc:
        raise ConnectionError(str(exc)) from exc
    try:
        body = resp.json()
    except ValueError:
        body = resp.text
    return resp.status_code, body


class HttpBackend:
    """Chat-completions client for an OpenAI-compatible endpoint.

    Transient failures (5xx, timeouts, connection resets) are retried with
    exponential backoff; anything else fails fast with the carried status.
    """

    def __init__(self, endpoint: str, model: str,
                 api_key: Optional[str] = None,
                 post_fn: Optional[PostFn] = None,
                 sleep_fn: Callable[[float], None] = time.sleep):
        self.endpoint = endpoint
        self.model = model
        self.api_key = api_key if api_key is not None \
            else os.environ.get(CREDENTIAL_ENV, "")
        self.post_fn = post_fn or _requests_post
        self.sleep_fn = sleep_fn

    def complete(self, req: CompletionRequest) -> str:
        _check_request(req)
        payload = {
            "model": self.model,
            "messages": [{"role": m.role, "content": m.content}
                         for m in req.messages],
            "temperature": TEMPERATURE,
            "max_tokens": MAX_TOKENS,
        }
        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"

        last_status: Optional[int] = None
        last_error = ""
        for attempt in range(MAX_RETRIES + 1):
            if attempt:
                self.sleep_fn(BACKOFF_BASE_S * 2 ** (attempt - 1))
            try:
                status, body = self.post_fn(self.endpoint, headers, payload,
                                            TIMEOUT_S)
            except (TimeoutError, ConnectionError) as exc:
                last_status, last_error = None, str(exc)
                continue
            if status == 200:
                return self._extract_content(body)
            last_status, last_error = status, str(body)[:500]
            if status < 500:
                break
        tries = attempt + 1
        raise BackendUnavailableError(
            f"completion failed after {tries} "
            f"{'attempt' if tries == 1 else 'attempts'}: {last_error}",
            status=last_status)

    @staticmethod
    def _extract_content(body: object) -> str:
        try:
            content = body["choices"][0]["message"]["content"]
        except (KeyError, IndexError, TypeError):
            raise MalformedResponseError(
                "response body lacks choices[0].message.content")
        if not isinstance(content, str):
            raise MalformedResponseError("completion content is not text")
        return content


@dataclass(frozen=True)
class RankerQuery:
    """A completion request whose prompt embeds reorderable content blocks
    at the {{ITEMS}} placeholder."""

    base: CompletionRequest
    reorderable_items: Tuple[str, ...]

    def materialize(self, reverse: bool) -> CompletionRequest:
        items = self.reorderable_items
        if reverse:
            items = tuple(reversed(items))
        joined = "\n\n".join(items)
        replaced = False
        messages = []
        for m in self.base.messages:
            if ITEMS_TOKEN in m.content:
                messages.append(Message(m.role,
                                        m.content.replace(ITEMS_TOKEN,
                                                          joined)))
                replaced = True
            else:
                messages.append(m)
        if not replaced:
            raise ValueError("ranker query prompt lacks the items slot")
        tag = self.base.request_tag + ("/reversed" if reverse else "/forward")
        return replace(self.base, messages=tuple(messages), request_tag=tag)


@dataclass(frozen=True)
class JudgeDecision:
    selection: int  # 0-based candidate index
    rationale: str
    backend_called: bool


@dataclass(frozen=True)
class RankedCompletion:
    text: str
    first: str
    second: str
    selection: int
    judge_used: bool
    rationale: str


JudgeFn = Callable[[str, str], JudgeDecision]


def ranked_complete(backend: Backend, query: RankerQuery,
                    judge: Optional[JudgeFn] = None) -> RankedCompletion:
    """Query twice with the reorderable blocks forward and reversed, then
    reconcile: equal responses short-circuit, otherwise the judge picks."""
    if not query.reorderable_items:
        raise ValueError("ranker query needs at least one reorderable item")
    first = backend.complete(query.materialize(reverse=False))
    second = backend.complete(query.materialize(reverse=True))
    if first == second:
        return RankedCompletion(text=first, first=first, second=second,
                                selection=0, judge_used=False,
                                rationale="responses agree")
    if judge is None:
        return RankedCompletion(text=first, first=first, second=second,
                                selection=0, judge_used=False,
                                rationale="no judge configured; "
                                          "first candidate kept")
    decision = judge(first, second)
    chosen = first if decision.selection == 0 else second
    return RankedCompletion(text=chosen, first=first, second=second,
                            selection=decision.selection, judge_used=True,
                            rationale=decision.rationale)


def check_strategy_text(text: str, frame_len: Optional[int],
                        cwnd_max: Optional[int], domain: Optional[str]
                        ) -> Tuple[Optional[Strategy], List[Diagnostic]]:
    """Parse and validate the strategy in a completion: the strategy and
    no diagnostics when it is sound, else None and every diagnostic."""
    try:
        strategy = parse_strategy(extract_json_text(text))
    except StrategyParseError as exc:
        return None, exc.diagnostics
    diags = validate_strategy(strategy, frame_len=frame_len,
                              cwnd_max=cwnd_max, domain=domain)
    return (None if diags else strategy), diags


def judge_select(first: str, second: str, *, backend: Backend,
                 frame_len: Optional[int] = None,
                 cwnd_max: Optional[int] = None,
                 domain: Optional[str] = None,
                 estimate_j: Optional[Callable[[Strategy], float]] = None,
                 request_tag: str = "judge") -> JudgeDecision:
    """Pick between two candidate strategy responses.

    A candidate that fails parsing or validation, or is of another
    ``domain``, loses outright without a backend round-trip; two valid candidates go to the judge prompt with
    their measured rewards. Indecision falls back to the first candidate.
    """
    s1, _ = check_strategy_text(first, frame_len, cwnd_max, domain)
    s2, _ = check_strategy_text(second, frame_len, cwnd_max, domain)
    if s1 is None and s2 is None:
        raise MalformedResponseError(
            "both ranker candidates failed strategy validation")
    if s2 is None:
        return JudgeDecision(0, "only the first candidate is a valid "
                                "strategy", backend_called=False)
    if s1 is None:
        return JudgeDecision(1, "only the second candidate is a valid "
                                "strategy", backend_called=False)

    j1 = estimate_j(s1) if estimate_j is not None else None
    j2 = estimate_j(s2) if estimate_j is not None else None
    payload = json.dumps({
        "j_first": j1,
        "j_second": j2,
        "first": json.loads(extract_json_text(first)),
        "second": json.loads(extract_json_text(second)),
    }, sort_keys=True)
    prompt = render_template(TEMPLATE_JUDGE, {"PAYLOAD": payload})
    response = backend.complete(user_request(prompt, tag=request_tag))
    try:
        doc = json.loads(extract_json_text(response))
        selection = int(doc["selection"])
        rationale = str(doc.get("rationale", ""))
    except (ValueError, KeyError, TypeError, OverflowError, RecursionError):
        return JudgeDecision(0, "judge response unusable; first candidate "
                                "kept", backend_called=True)
    if selection not in (1, 2):
        return JudgeDecision(0, "judge undecided; first candidate kept",
                             backend_called=True)
    return JudgeDecision(selection - 1, rationale, backend_called=True)
