"""High/low labeling: LLM-assisted, deterministic rule fallback, manual review."""

from __future__ import annotations

import os
import re
import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from .classify import HIGH, LOW
from .errors import AuthError, EndOfInput, Unavailable, UnparseableReply
from .features import FeatureVector

API_KEY_ENV = "FLAREMON_LLM_API_KEY"

# Midpoints of the gaps between the closest high/low training rows.
RULE_RATIO_MAX = 0.36
RULE_INDEX_MIN = 0.40


@dataclass(frozen=True)
class LlmClientConfig:
    endpoint: str
    model: str = "gpt-4"
    api_key_env: str = API_KEY_ENV
    timeout: float = 30.0
    max_retries: int = 3
    backoff_base: float = 0.5

    def __post_init__(self):
        if self.timeout <= 0:
            raise ValueError("timeout must be positive")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")


@dataclass(frozen=True)
class LabeledSample:
    features: FeatureVector
    pcs: Optional[tuple]
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
    """Last case-insensitive occurrence of 'high' or 'low' wins."""
    matches = list(re.finditer(r"high|low", text, re.IGNORECASE))
    if not matches:
        raise UnparseableReply(f"no 'high' or 'low' in reply: {text!r}")
    return matches[-1].group(0).lower()


def llm_label(cfg: LlmClientConfig, f: FeatureVector,
              sleep: Callable[[float], None] = time.sleep) -> Tuple[str, str]:
    """Label one sample via a chat-completion-style endpoint.

    Returns (label, raw response transcript).  Transient failures retry
    with exponential backoff; total wait never exceeds
    timeout * (max_retries + 1) plus backoff.
    """
    # Imported here: only LLM labelling needs it, and it is slow to import.
    import requests

    api_key = os.environ.get(cfg.api_key_env, "")
    body = {
        "model": cfg.model,
        "messages": [{"role": "user", "content": build_prompt(f)}],
    }
    headers = {"Authorization": f"Bearer {api_key}"}
    last_error = None
    for attempt in range(cfg.max_retries + 1):
        if attempt:
            sleep(cfg.backoff_base * (2 ** (attempt - 1)))
        try:
            resp = requests.post(cfg.endpoint, json=body, headers=headers,
                                 timeout=cfg.timeout)
        except requests.RequestException as exc:
            last_error = exc
            continue
        if resp.status_code in (401, 403):
            raise AuthError(f"endpoint rejected credentials ({resp.status_code})")
        if resp.status_code == 429 or resp.status_code >= 500:
            last_error = RuntimeError(f"HTTP {resp.status_code}")
            continue
        transcript = resp.text
        try:
            content = resp.json()["choices"][0]["message"]["content"]
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            raise UnparseableReply(f"malformed reply body: {exc}") from exc
        return parse_label(content), transcript
    raise Unavailable(f"gave up after {cfg.max_retries + 1} attempts: {last_error}")


def rule_label(f: FeatureVector) -> str:
    """Deterministic offline stand-in: clean burns have little smoke and a
    blue-leaning color index."""
    if f.smoke_flame_ratio <= RULE_RATIO_MAX and f.rgb_index >= RULE_INDEX_MIN:
        return HIGH
    return LOW


def review(samples: Sequence[LabeledSample],
           input_fn: Callable[[str], str] = input,
           print_fn: Callable[[str], None] = print) -> List[LabeledSample]:
    """Interactive confirm/flip/skip pass over preliminary labels.

    Confirmed and flipped samples are re-sourced as human; skipped samples
    keep their original label and source.  End of input raises EndOfInput.
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
                raise EndOfInput(f"input ended at sample [{i}] of "
                                 f"{len(samples)}") from None
            key = key.strip().lower()
            if key in ("c", "f", "s"):
                break
            print_fn("please answer c, f, or s")
        if key == "s":
            out.append(s)
        else:
            label = s.label if key == "c" else (LOW if s.label == HIGH else HIGH)
            out.append(LabeledSample(features=s.features, pcs=s.pcs, label=label,
                                     source="human", transcript=s.transcript))
    return out
