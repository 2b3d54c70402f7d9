import json
import urllib.request
from unittest import mock

import pytest
from hypothesis import given, settings

from flaremon import labeling
from flaremon.classify import HIGH, LOW
from flaremon.errors import (AuthError, FlaremonError, ParseError,
                             Unavailable, UnparseableReply)
from flaremon.features import FeatureVector
from flaremon.labeling import (LabeledSample, LlmClientConfig, build_prompt,
                               label_samples, llm_label, parse_label, review,
                               rule_label)
from tests.conftest import TRAINING_LABELS, TRAINING_ROWS
from tests.file_fuzz import llm_replies, urlopen_replying


def fv(ratio, e, angle):
    return FeatureVector(ratio, e, angle)


class TestBuildPrompt:
    def test_contains_all_numbers(self):
        prompt = build_prompt(fv(0.22, 0.62, 52))
        assert "0.22" in prompt and "0.62" in prompt and "52" in prompt

    def test_deterministic(self):
        assert build_prompt(fv(1.5, 0.4, 30)) == build_prompt(fv(1.5, 0.4, 30))

    def test_zero_angle_present(self):
        assert "0 degrees" in build_prompt(fv(0.5, 0.5, 0))

    def test_asks_for_one_word(self):
        prompt = build_prompt(fv(0.5, 0.5, 10)).lower()
        assert "high" in prompt and "low" in prompt


class TestParseLabel:
    def test_plain_words(self):
        assert parse_label("high") == HIGH
        assert parse_label("Low") == LOW

    def test_prose_reply(self):
        assert parse_label("The combustion efficiency is LOW.") == LOW

    def test_last_occurrence_wins(self):
        assert parse_label("not high, definitely low") == LOW
        assert parse_label("low? no: high") == HIGH

    def test_unparseable(self):
        # "slow", "highly" and "flow below" hold the words only inside others.
        for reply in ("unsure", "slow", "highly", "flow below"):
            with pytest.raises(UnparseableReply):
                parse_label(reply)

    def test_whole_words_only(self):
        assert parse_label("High. The gas flow looks steady.") == HIGH
        assert parse_label("high; the smoke is below normal") == HIGH
        assert parse_label("LOW, though the flame burns highly") == LOW


class TestRuleLabel:
    @pytest.mark.parametrize("row,label",
                             list(zip(TRAINING_ROWS, TRAINING_LABELS)))
    def test_reproduces_published_labels(self, row, label):
        assert rule_label(fv(*row)) == label

    def test_boundary_cases(self):
        assert rule_label(fv(0.36, 0.40, 10)) == HIGH
        assert rule_label(fv(0.37, 0.40, 10)) == LOW
        assert rule_label(fv(0.36, 0.39, 10)) == LOW

    def test_total_function(self):
        assert rule_label(fv(1e9, 0.0, 90)) in (HIGH, LOW)


class TestLlmLabel:
    @pytest.fixture(autouse=True)
    def _monkeypatch(self, monkeypatch):
        self.monkeypatch = monkeypatch

    def cfg(self, server, timeout=5.0, max_retries=2, backoff_base=0.0):
        """The stub's client, with the retry constants patched for one
        test."""
        self.monkeypatch.setattr(labeling, "TIMEOUT", timeout)
        self.monkeypatch.setattr(labeling, "MAX_RETRIES", max_retries)
        self.monkeypatch.setattr(labeling, "BACKOFF_BASE", backoff_base)
        return LlmClientConfig(server.endpoint, "gpt-4")

    def test_simple_high(self, stub_llm):
        stub_llm.set_script([(200, "high")])
        label, transcript = llm_label(self.cfg(stub_llm), fv(0.2, 0.6, 50))
        assert label == HIGH
        assert "high" in transcript

    def test_prose_low(self, stub_llm):
        stub_llm.set_script([(200, "The combustion efficiency is LOW.")])
        label, _ = llm_label(self.cfg(stub_llm), fv(2.0, 0.2, 10))
        assert label == LOW

    def test_garbage_reply(self, stub_llm):
        stub_llm.set_script([(200, "unsure")])
        with pytest.raises(UnparseableReply):
            llm_label(self.cfg(stub_llm), fv(0.5, 0.5, 20))

    def test_retry_then_success(self, stub_llm):
        stub_llm.set_script([(500, None), (500, None), (200, "low")])
        label, _ = llm_label(self.cfg(stub_llm), fv(0.5, 0.5, 20))
        assert label == LOW
        assert stub_llm.call_count == 3

    def test_unavailable_after_retries(self, stub_llm):
        stub_llm.set_script([(500, None)])
        with pytest.raises(Unavailable):
            llm_label(self.cfg(stub_llm, max_retries=1), fv(0.5, 0.5, 20))
        assert stub_llm.call_count == 2

    def test_auth_error_no_retry(self, stub_llm):
        stub_llm.set_script([(401, None)])
        with pytest.raises(AuthError):
            llm_label(self.cfg(stub_llm), fv(0.5, 0.5, 20))
        assert stub_llm.call_count == 1

    def test_forbidden_is_an_auth_error(self, stub_llm):
        stub_llm.set_script([(403, None)])
        with pytest.raises(AuthError):
            llm_label(self.cfg(stub_llm), fv(0.5, 0.5, 20))
        assert stub_llm.call_count == 1

    def test_rate_limit_retried(self, stub_llm):
        stub_llm.set_script([(429, None), (200, "high")])
        label, _ = llm_label(self.cfg(stub_llm), fv(0.2, 0.6, 50))
        assert label == HIGH
        assert stub_llm.call_count == 2

    def test_other_error_status_body_is_the_transcript(self, stub_llm):
        stub_llm.set_script([(404, "low")])
        label, transcript = llm_label(self.cfg(stub_llm), fv(0.5, 0.5, 20))
        assert label == LOW and json.loads(transcript)["choices"]
        assert stub_llm.call_count == 1

    def test_transcript_is_the_body_as_utf8(self, stub_llm):
        body = json.dumps({"choices": [{"message": {"content": "hoch: high"}}],
                           "note": "überprüft"}, ensure_ascii=False)
        stub_llm.set_script([(200, body.encode("utf-8"))])
        assert llm_label(self.cfg(stub_llm), fv(0.2, 0.6, 50)) == (HIGH, body)

    def test_malformed_body(self, stub_llm):
        stub_llm.set_script([(200, b"<html>not json</html>")])
        with pytest.raises(UnparseableReply):
            llm_label(self.cfg(stub_llm), fv(0.5, 0.5, 20))

    def test_timeout_retried(self, stub_llm):
        stub_llm.set_script([(200, "high")], delay=0.3)
        waits = []
        with pytest.raises(Unavailable, match="timed out"):
            llm_label(self.cfg(stub_llm, timeout=0.05, max_retries=1),
                      fv(0.5, 0.5, 20), sleep=waits.append)
        assert len(waits) == 1

    def test_refused_connection_retried(self, stub_llm):
        cfg = self.cfg(stub_llm, max_retries=2)
        stub_llm.close()
        waits = []
        with pytest.raises(Unavailable, match="3 attempts"):
            llm_label(cfg, fv(0.5, 0.5, 20), sleep=waits.append)
        assert len(waits) == 2

    def test_backoff_bounded(self, stub_llm):
        stub_llm.set_script([(500, None)])
        waits = []
        with pytest.raises(Unavailable):
            llm_label(self.cfg(stub_llm, max_retries=3, backoff_base=0.25),
                      fv(0.5, 0.5, 20), sleep=waits.append)
        assert waits == [0.25, 0.5, 1.0]

    def test_label_samples_asks_the_llm_given_a_client(self, stub_llm):
        stub_llm.set_script([(200, "low")])
        out = label_samples([fv(0.2, 0.6, 50)], self.cfg(stub_llm))
        assert [(s.label, s.source) for s in out] == [(LOW, "llm")]
        assert json.loads(out[0].transcript)["choices"]
        assert stub_llm.call_count == 1


def sample(label):
    return LabeledSample(fv(0.5, 0.5, 20), label, "rule")


class TestReview:
    def test_all_confirmed(self):
        out = review([sample(HIGH), sample(LOW)],
                     input_fn=lambda _: "c", print_fn=lambda _: None)
        assert [s.label for s in out] == [HIGH, LOW]
        assert all(s.source == "human" for s in out)

    def test_one_flip(self):
        answers = iter(["c", "f"])
        out = review([sample(HIGH), sample(HIGH)],
                     input_fn=lambda _: next(answers),
                     print_fn=lambda _: None)
        assert [s.label for s in out] == [HIGH, LOW]

    def test_skip_preserves_source(self):
        out = review([sample(HIGH)], input_fn=lambda _: "s",
                     print_fn=lambda _: None)
        assert out[0].source == "rule"

    def test_end_of_input_names_the_sample(self):
        answers = iter(["c", "x"])

        def input_fn(_):
            try:
                return next(answers)
            except StopIteration:
                raise EOFError from None

        with pytest.raises(ParseError,
                           match=r"^input ended at sample \[1\] of 3$"):
            review([sample(HIGH), sample(LOW), sample(LOW)],
                   input_fn=input_fn, print_fn=lambda _: None)


@settings(max_examples=300, deadline=None)
@given(llm_replies())
def test_fuzzed_replies_label_or_raise_flaremon_error(body):
    cfg = LlmClientConfig("http://127.0.0.1:9/", "gpt-4")
    with mock.patch.object(labeling, "MAX_RETRIES", 0), \
            mock.patch.object(urllib.request, "urlopen",
                              urlopen_replying(body)):
        try:
            label, transcript = llm_label(cfg, fv(0.2, 0.6, 50))
        except FlaremonError:
            return
    assert label in (HIGH, LOW)
    assert transcript == body.decode("utf-8", errors="replace")
