"""HTTP transport, transcript capture, ranker reversal and judge selection."""

from __future__ import annotations

import io
import json

import pytest

from coexlab.backends import (
    CompletionRequest,
    HttpBackend,
    JudgeDecision,
    Message,
    RankerQuery,
    RecordingBackend,
    TranscriptRecorder,
    extract_json_text,
    judge_select,
    ranked_complete,
    user_request,
)
from coexlab.errors import (
    BackendUnavailableError,
    MalformedResponseError,
    UnrecognizedTemplateError,
)
from coexlab.scripted import ScriptedBackend


def ok_body(content):
    return {"choices": [{"message": {"content": content}}]}


def http_with(script, **kw):
    """Backend whose post_fn pops canned (status, body) outcomes."""
    calls = []

    def post(url, headers, payload, timeout):
        calls.append(payload)
        outcome = script.pop(0)
        if isinstance(outcome, Exception):
            raise outcome
        return outcome

    backend = HttpBackend("https://api.test/v1/chat", "test-model",
                          api_key="k", post_fn=post, backoff_base_s=0.0, **kw)
    return backend, calls


class TestHttpBackend:
    def test_success_returns_content(self):
        backend, calls = http_with([(200, ok_body("hello"))])
        assert backend.complete(user_request("hi")) == "hello"
        assert calls[0]["temperature"] == 0.0
        assert calls[0]["messages"] == [{"role": "user", "content": "hi"}]

    def test_retries_transient_then_succeeds(self):
        backend, calls = http_with([(503, "busy"), TimeoutError("slow"),
                                    (200, ok_body("ok"))])
        assert backend.complete(user_request("hi")) == "ok"
        assert len(calls) == 3

    def test_gives_up_after_retries(self):
        backend, _ = http_with([(500, "x")] * 4)
        with pytest.raises(BackendUnavailableError) as err:
            backend.complete(user_request("hi"))
        assert err.value.status == 500

    def test_auth_failure_is_immediate(self):
        backend, calls = http_with([(401, "no")])
        with pytest.raises(BackendUnavailableError) as err:
            backend.complete(user_request("hi"))
        assert err.value.status == 401
        assert len(calls) == 1

    def test_malformed_body(self):
        backend, _ = http_with([(200, {"nope": True})])
        with pytest.raises(MalformedResponseError):
            backend.complete(user_request("hi"))

    def test_empty_messages_rejected(self):
        backend, _ = http_with([(200, ok_body("x"))])
        with pytest.raises(ValueError):
            backend.complete(CompletionRequest(messages=()))


class TestTranscript:
    def test_records_in_order_without_timestamps(self):
        transcript = io.StringIO()
        backend, _ = http_with([(200, ok_body("a")), (200, ok_body("b"))])
        wrapped = RecordingBackend(backend, TranscriptRecorder(transcript))
        wrapped.complete(user_request("one", tag="t1"))
        wrapped.complete(user_request("two", tag="t2"))
        lines = transcript.getvalue().strip().split("\n")
        entries = [json.loads(line) for line in lines]
        assert [e["seq"] for e in entries] == [0, 1]
        assert entries[0]["response"] == "a"
        assert entries[1]["tag"] == "t2"
        for e in entries:
            assert "time" not in e and "timestamp" not in e


class FixedBackend:
    def __init__(self, mapping):
        self.mapping = mapping

    def complete(self, req):
        return self.mapping(req.messages[-1].content)


def query_with_items(items):
    content = "header line\nitems:\n{{ITEMS}}\nfooter line"
    return RankerQuery(base=user_request(content, tag="q"),
                       reorderable_items=tuple(items))


class TestRanker:
    def test_reversal_confined_to_items_region(self):
        q = query_with_items(["d1", "d2", "d3"])
        fwd = q.materialize(reverse=False).messages[0].content
        rev = q.materialize(reverse=True).messages[0].content
        assert "d1\n\nd2\n\nd3" in fwd
        assert "d3\n\nd2\n\nd1" in rev
        assert fwd.replace("d1\n\nd2\n\nd3", "") == \
            rev.replace("d3\n\nd2\n\nd1", "")

    def test_equal_responses_skip_judge(self):
        backend = FixedBackend(lambda text: "same")
        called = []

        def judge(a, b):
            called.append(1)
            return JudgeDecision(1, "x", True)

        out = ranked_complete(backend, query_with_items(["a", "b"]),
                              judge=judge)
        assert out.text == "same" and not out.judge_used
        assert not called

    def test_divergent_responses_consult_judge(self):
        backend = FixedBackend(
            lambda text: "first" if text.index("AAA") < text.index("BBB")
            else "second")
        out = ranked_complete(backend, query_with_items(["AAA", "BBB"]),
                              judge=lambda r1, r2: JudgeDecision(1, "why",
                                                                 True))
        assert out.judge_used and out.text == "second"
        assert out.rationale == "why"

    def test_no_items_rejected(self):
        with pytest.raises(ValueError):
            ranked_complete(FixedBackend(lambda t: "x"),
                            query_with_items([]))

    def test_scripted_backend_bit_deterministic(self):
        import json as j
        items = []
        for label, r in [("ALOHA", 1.0), ("TDMA", 2.0)]:
            items.append("```json\n" + j.dumps(
                {"label": label, "k": 1,
                 "tuples": [{"s": {}, "a": [0.3] * 10, "r": r, "sn": {}}]})
                + "\n```")
        from coexlab.templates import TEMPLATE_STRATEGY_GEN, render_template
        prompt = render_template(TEMPLATE_STRATEGY_GEN, {
            "DOMAIN": "mac", "FRAME_LEN": 10, "CWND_MAX": 64,
            "EPSILON": 0.0, "SIGMA": 0.05, "ITEMS": "{{ITEMS}}"})
        q = RankerQuery(base=user_request(prompt),
                        reorderable_items=tuple(items))
        outs = [ranked_complete(ScriptedBackend(), q) for _ in range(2)]
        assert outs[0].text == outs[1].text
        assert not outs[0].judge_used  # order-independent heuristic


VALID_MAC = json.dumps({
    "version": "strategy-v1", "domain": "mac", "base_action": [0.2] * 10,
    "rules": [], "explore": {"epsilon": 0.0, "sigma": 0.0},
    "provenance": "generated",
})
VALID_MAC_2 = VALID_MAC.replace("0.2", "0.4")


class TestJudgeSelect:
    def test_validity_dominance_no_backend_call(self):
        class Exploding:
            def complete(self, req):
                raise AssertionError("judge backend should not be called")

        d = judge_select("not json at all", VALID_MAC, backend=Exploding(),
                         frame_len=10)
        assert d.selection == 1 and not d.backend_called
        d2 = judge_select(VALID_MAC, "{broken", backend=Exploding(),
                          frame_len=10)
        assert d2.selection == 0 and not d2.backend_called

    def test_other_domain_candidate_is_unusable(self):
        class Exploding:
            def complete(self, req):
                raise AssertionError("judge backend should not be called")

        tcp = json.dumps({"version": "strategy-v1", "domain": "tcp",
                          "base_action": 8})
        d = judge_select(tcp, VALID_MAC, backend=Exploding(), frame_len=10,
                         domain="mac")
        assert d.selection == 1 and not d.backend_called
        with pytest.raises(MalformedResponseError):
            judge_select(VALID_MAC, VALID_MAC_2, backend=Exploding(),
                         cwnd_max=64, domain="tcp")

    def test_both_invalid_escalates(self):
        with pytest.raises(MalformedResponseError):
            judge_select("nope", "also nope", backend=ScriptedBackend(),
                         frame_len=10)

    def test_higher_j_wins_through_scripted_judge(self):
        js = {VALID_MAC: 1.0, VALID_MAC_2: 2.5}

        def estimate(strategy):
            return 1.0 if strategy.base_action[0] == 0.2 else 2.5

        d = judge_select(VALID_MAC, VALID_MAC_2, backend=ScriptedBackend(),
                         frame_len=10, estimate_j=estimate)
        assert d.selection == 1 and d.backend_called

    def test_equal_j_keeps_first(self):
        d = judge_select(VALID_MAC, VALID_MAC_2, backend=ScriptedBackend(),
                         frame_len=10, estimate_j=lambda s: 1.0)
        assert d.selection == 0

    @pytest.mark.parametrize("reply", ['{"selection": Infinity}',
                                       '{"selection": NaN}'])
    def test_non_finite_selection_keeps_first(self, reply):
        d = judge_select(VALID_MAC, VALID_MAC_2,
                         backend=FixedBackend(lambda prompt: reply),
                         frame_len=10, estimate_j=lambda s: 1.0)
        assert d.selection == 0 and d.backend_called

    def test_fenced_candidate_accepted(self):
        fenced = "```json\n" + VALID_MAC + "\n```"
        assert extract_json_text(fenced) == VALID_MAC
        d = judge_select(fenced, "junk", backend=ScriptedBackend(),
                         frame_len=10)
        assert d.selection == 0


class TestScriptedDispatch:
    def test_unrecognized_template(self):
        with pytest.raises(UnrecognizedTemplateError):
            ScriptedBackend().complete(user_request("free-form question"))

    def test_same_prompt_same_response(self):
        from coexlab.templates import TEMPLATE_NODE_DECISION, render_template
        payload = json.dumps({"domain": "tcp", "prev_action": None,
                              "base": 9})
        prompt = render_template(TEMPLATE_NODE_DECISION, {
            "REPORT": "no report", "ITEMS": "(none)", "PAYLOAD": payload,
            "FRAME_LEN": 10})
        req = user_request(prompt)
        b = ScriptedBackend()
        assert b.complete(req) == b.complete(req) == '{"action":9}'
