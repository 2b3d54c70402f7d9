"""High/low labeling: LLM-assisted, deterministic rule fallback, manual review."""

from __future__ import annotations

import json
import os
import re
import time
from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple

from .classify import HIGH, LOW
from .errors import AuthError, ParseError, Unavailable, UnparseableReply
from .features import FeatureVector

API_KEY_ENV = "FLAREMON_LLM_API_KEY"
TIMEOUT = 30.0  # seconds per request
MAX_RETRIES = 3  # retries after the first attempt
BACKOFF_BASE = 0.5  # seconds before the first retry, doubled for each next

# Midpoints of the gaps between the closest high/low training rows.
RULE_RATIO_MAX = 0.36
RULE_INDEX_MIN = 0.40


class LlmClientConfig(NamedTuple):
    endpoint: str
    model: str


class LabeledSample(NamedTuple):
    features: FeatureVector
    label: str
    source: str  # llm | rule | human
    transcript: Optional[str] = None


def _fmt(v: float) -> str:
    return f"{v:g}"


def build_prompt(f: FeatureVector) -> str:
    """Deterministic text prompt naming all three feature values."""
    return (
        "A flare stack flame was measured from video.\n"
        f"- Smoke to flame area ratio: {_fmt(f.smoke_flame_ratio)} (dimensionless)\n"
        f"- Weighted RGB color index: {_fmt(f.rgb_index)} (dimensionless, "
        "0.3 = fully red, 0.7 = fully blue)\n"
        f"- Flame tilt from vertical: {_fmt(f.flame_angle)} degrees\n"
        "Is the combustion efficiency high or low? "
        "Answer with exactly one word: high or low."
    )


def parse_label(text: str) -> str:
    """The last case-insensitive whole word 'high' or 'low' wins, so a word
    that only contains one ("flow", "below", "highly") counts for neither."""
    matches = list(re.finditer(r"\b(high|low)\b", text, re.IGNORECASE))
    if not matches:
        raise UnparseableReply(f"no 'high' or 'low' in reply: {text!r}")
    return matches[-1].group(0).lower()


def llm_label(config: LlmClientConfig, f: FeatureVector,
              sleep: Callable[[float], None] = time.sleep) -> Tuple[str, str]:
    """Label one sample via a chat-completion-style endpoint.

    Returns (label, raw response transcript).  Transient failures retry
    with exponential backoff; total wait never exceeds
    TIMEOUT * (MAX_RETRIES + 1) plus backoff.
    """
    # Imported here: only LLM labelling talks HTTP.
    import http.client
    import urllib.error
    import urllib.request

    request = urllib.request.Request(config.endpoint, method="POST", headers={
        "Authorization": f"Bearer {os.environ.get(API_KEY_ENV, '')}",
        "Content-Type": "application/json",
    }, data=json.dumps({
        "model": config.model,
        "messages": [{"role": "user", "content": build_prompt(f)}],
    }).encode("utf-8"))
    last_error = None
    for attempt in range(MAX_RETRIES + 1):
        if attempt:
            sleep(BACKOFF_BASE * (2 ** (attempt - 1)))
        try:
            try:
                resp = urllib.request.urlopen(request, timeout=TIMEOUT)
            except urllib.error.HTTPError as exc:
                resp = exc  # a status outside 2xx is a reply like any other
            with resp:
                status, body = resp.status, resp.read()
        except (OSError, http.client.HTTPException) as exc:
            # URLError, refused or dropped connections and timeouts
            last_error = exc
            continue
        if status in (401, 403):
            raise AuthError(f"endpoint rejected credentials ({status})")
        if status == 429 or status >= 500:
            last_error = RuntimeError(f"HTTP {status}")
            continue
        transcript = body.decode("utf-8", errors="replace")
        try:
            content = json.loads(transcript)["choices"][0]["message"]["content"]
        except (ValueError, KeyError, IndexError, TypeError,
                RecursionError) as exc:
            raise UnparseableReply(f"malformed reply body: {exc}") from exc
        if type(content) is not str:
            raise UnparseableReply(f"reply content {content!r:.40} is not "
                                   "text")
        return parse_label(content), transcript
    raise Unavailable(f"gave up after {MAX_RETRIES + 1} attempts: "
                      f"{last_error}")


def rule_label(f: FeatureVector) -> str:
    """Deterministic offline stand-in: clean burns have little smoke and a
    blue-leaning color index."""
    if f.smoke_flame_ratio <= RULE_RATIO_MAX and f.rgb_index >= RULE_INDEX_MIN:
        return HIGH
    return LOW


def label_samples(features: Sequence[FeatureVector], llm_cfg=None,
                  do_review: bool = False) -> List[LabeledSample]:
    """Label by rule, or by the LLM at `llm_cfg`; `review` if `do_review`."""
    labeled: List[LabeledSample] = []
    for f in features:
        if llm_cfg is not None:
            lbl, transcript = llm_label(llm_cfg, f)
            labeled.append(LabeledSample(f, lbl, "llm", transcript))
        else:
            labeled.append(LabeledSample(f, rule_label(f), "rule"))
    if do_review:
        labeled = review(labeled)
    return labeled


def review(samples: Sequence[LabeledSample],
           input_fn: Callable[[str], str] = input,
           print_fn: Callable[[str], None] = print) -> List[LabeledSample]:
    """Interactive confirm/flip/skip pass over preliminary labels.

    Confirmed and flipped samples are re-sourced as human; skipped samples
    keep their original label and source.  End of input raises ParseError.
    """
    out = []
    for i, s in enumerate(samples):
        f = s.features
        print_fn(
            f"[{i}] ratio={_fmt(f.smoke_flame_ratio)} "
            f"E={_fmt(f.rgb_index)} angle={_fmt(f.flame_angle)} "
            f"-> {s.label} ({s.source})"
        )
        while True:
            try:
                key = input_fn("confirm [c] / flip [f] / skip [s]: ")
            except EOFError:
                raise ParseError(f"input ended at sample [{i}] of "
                                 f"{len(samples)}") from None
            key = key.strip().lower()
            if key in ("c", "f", "s"):
                break
            print_fn("please answer c, f, or s")
        if key == "s":
            out.append(s)
        else:
            label = s.label if key == "c" else (LOW if s.label == HIGH else HIGH)
            out.append(LabeledSample(features=s.features, label=label,
                                     source="human", transcript=s.transcript))
    return out
