"""Scorer contract: given a rendered prompt, choose exactly one candidate.

A backend is any object with ``score(bundle) -> ScorerResponse``, taking
the :class:`~lpnl.prompts.PromptBundle` that ``build_prompt`` returned.

The production backend calls a remote text-completion endpoint; three
deterministic local backends exist so the whole pipeline runs (and is
testable) offline:

``fixed_index``
    always picks the candidate at a fixed position — the null baseline.
``oracle_truth``
    picks the candidate that is a known true neighbor of the source —
    the ceiling.
``lexical_overlap``
    picks the candidate whose description shares the most character
    trigrams with the source description — cheap content awareness.

Whatever the backend emits, the response's ``chosen`` is always a member
of the bundle's candidates: free-text model output is resolved through
a ladder (alias token, text prefix, trigram similarity) and, failing all
rungs, falls back to the first candidate with ``resolution="fallback"``.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
import os
import re
import threading
import time
from dataclasses import dataclass, field

import requests

from .prompts import PromptBundle, parse_prompt

logger = logging.getLogger(__name__)

__all__ = [
    "ScorerResponse",
    "ScorerBackendConfig",
    "ScorerError",
    "TransportError",
    "ResponseCache",
    "make_scorer",
    "score",
    "resolve_output",
]

BACKEND_KINDS = ("http_llm", "oracle_truth", "lexical_overlap", "fixed_index")

RESOLUTION_EXACT = "exact_match"
RESOLUTION_ALIAS = "alias_match"
RESOLUTION_FUZZY = "fuzzy_match"
RESOLUTION_FALLBACK = "fallback"


class ScorerError(RuntimeError):
    pass


class TransportError(ScorerError):
    """Remote call failed after all retries."""


@dataclass(frozen=True)
class ScorerResponse:
    chosen: int
    raw_output: str
    resolution: str


@dataclass
class ScorerBackendConfig:
    """Backend selection plus transport/caching knobs.

    Credentials are never stored here — only the *name* of the environment
    variable that holds the API key.

    ``max_in_flight`` is the ``http_llm`` request ceiling and the eval task
    fan-out width; the CPU-bound offline backends ignore it.
    """

    kind: str = "lexical_overlap"
    endpoint_url: str | None = None
    model_name: str | None = None
    api_key_env_var: str | None = None
    timeout: float = 30.0
    max_retries: int = 3
    backoff: float = 1.0
    cache_path: str | None = None
    max_in_flight: int = 4
    max_output_tokens: int = 64
    fixed_index: int = 0
    truth_pairs: frozenset[tuple[int, int]] = field(default_factory=frozenset)

    def __post_init__(self):
        if self.kind not in BACKEND_KINDS:
            raise ValueError(f"backend kind must be one of {BACKEND_KINDS}")
        if self.kind == "http_llm" and (not self.endpoint_url or not self.model_name):
            raise ValueError("http_llm backend requires endpoint_url and model_name")
        if self.max_in_flight < 1:
            raise ValueError("max_in_flight must be >= 1")


# -- answer resolution --------------------------------------------------------

_TOKEN_SPLIT = re.compile(r"[^0-9a-z]+")
_ALIAS_UNDERSCORE = re.compile(r"([a-z]+)_(\d+)")


def _trigrams(text: str) -> set[tuple[str, str, str]]:
    t = text.lower()
    return set(zip(t, t[1:], t[2:]))


def resolve_output(raw: str, bundle: PromptBundle) -> tuple[int, str]:
    """Map free-text model output to one candidate of the bundle.

    Ladder: exact alias token, then exact candidate-text prefix, then
    highest trigram overlap with a candidate's rendered description, then
    first candidate as a logged fallback. The result is always a member
    of the bundle's candidates.
    """
    candidates = bundle.candidate_order
    normalized = _ALIAS_UNDERSCORE.sub(r"\1\2", raw.strip().lower())

    aliases = [a.lower() for a in bundle.candidate_aliases]
    tokens = [t for t in _TOKEN_SPLIT.split(normalized) if t]
    for token in tokens:
        if token in aliases:
            return candidates[aliases.index(token)], RESOLUTION_ALIAS

    core = normalized
    for alias in aliases:
        if core.startswith(alias + ":"):
            core = core[len(alias) + 1 :].strip()
            break
    if len(core) >= 4:
        for i, text in enumerate(bundle.candidate_texts):
            lowered = text.lower()
            if lowered.startswith(core) or (len(lowered) >= 4 and core.startswith(lowered)):
                return candidates[i], RESOLUTION_EXACT

    grams = _trigrams(normalized)
    if grams:
        try:
            segments = parse_prompt(bundle.text).candidate_segments
        except ValueError:
            segments = bundle.candidate_texts
        overlaps = [len(grams & _trigrams(seg)) for seg in segments]
        best = max(overlaps)
        if best > 0:
            return candidates[overlaps.index(best)], RESOLUTION_FUZZY

    logger.warning("unresolvable scorer output %r; falling back to first candidate", raw[:80])
    return candidates[0], RESOLUTION_FALLBACK


# -- response cache -----------------------------------------------------------


def prompt_hash(prompt_text: str, model_name: str, max_output_tokens: int) -> str:
    """Cache key of a request: every field of the request body shapes the answer."""
    text = f"{model_name}\x00{max_output_tokens}\x00{prompt_text}"
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class ResponseCache:
    """Append-only newline-delimited JSON cache keyed by prompt hash.

    Lines are ``{hash, model, chosen_node_id, raw_output, resolution}``.
    Corrupt lines are skipped with a warning. Hits bypass the network but
    never change which candidate is chosen: a cached node id that is not
    among the current bundle's candidates is re-resolved from the cached
    raw output (dense node ids are only stable within one graph load).
    """

    def __init__(self, path: str):
        self.path = path
        self._lock = threading.Lock()
        self._entries: dict[str, dict] = {}
        self._load()

    def _load(self) -> None:
        if not os.path.exists(self.path):
            return
        with open(self.path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                    self._entries[record["hash"]] = record
                except (json.JSONDecodeError, KeyError, TypeError):
                    logger.warning("skipping corrupt cache line %s:%d", self.path, lineno)

    def __len__(self) -> int:
        return len(self._entries)

    def lookup(self, key: str) -> dict | None:
        return self._entries.get(key)

    def store(self, key: str, model: str, response: ScorerResponse) -> None:
        record = {
            "hash": key,
            "model": model,
            "chosen_node_id": response.chosen,
            "raw_output": response.raw_output,
            "resolution": response.resolution,
        }
        with self._lock:
            self._entries[key] = record
            with open(self.path, "a", encoding="utf-8") as fh:
                fh.write(json.dumps(record, sort_keys=True) + "\n")


# -- backends -----------------------------------------------------------------


def _answer(bundle: PromptBundle, i: int) -> ScorerResponse:
    """An offline backend's pick: candidate ``i``, answered as ``<alias>: <text>``."""
    return ScorerResponse(
        chosen=bundle.candidate_order[i],
        raw_output=f"{bundle.candidate_aliases[i]}: {bundle.candidate_texts[i]}",
        resolution=RESOLUTION_EXACT,
    )


class FixedIndexScorer:
    """Always the candidate at a fixed position (clamped to the last one)."""

    def __init__(self, cfg: ScorerBackendConfig):
        self.index = cfg.fixed_index

    def score(self, bundle: PromptBundle) -> ScorerResponse:
        return _answer(bundle, min(max(self.index, 0), len(bundle.candidate_order) - 1))


class OracleTruthScorer:
    """Picks the candidate known to be a true neighbor of the source.

    Configured with a ground-truth edge set as (source, target) pairs.
    When no candidate is a true neighbor the first one is returned with
    ``resolution="fallback"``.
    """

    def __init__(self, cfg: ScorerBackendConfig):
        self._truths: dict[int, set[int]] = {}
        for s, t in cfg.truth_pairs:
            self._truths.setdefault(s, set()).add(t)

    def score(self, bundle: PromptBundle) -> ScorerResponse:
        true_neighbors = self._truths.get(bundle.source, set())
        for i, c in enumerate(bundle.candidate_order):
            if c in true_neighbors:
                return _answer(bundle, i)
        return ScorerResponse(
            chosen=bundle.candidate_order[0],
            raw_output="",
            resolution=RESOLUTION_FALLBACK,
        )


class LexicalOverlapScorer:
    """Highest character-trigram overlap with the source description.

    Ties break toward the earlier candidate, so responses are pure
    functions of the bundle.
    """

    def __init__(self, cfg: ScorerBackendConfig):
        pass  # stateless: nothing in the config shapes its answers

    def score(self, bundle: PromptBundle) -> ScorerResponse:
        parsed = parse_prompt(bundle.text)
        source_grams = _trigrams(parsed.source_segment)
        best_i = 0
        best_overlap = -1
        for i, segment in enumerate(parsed.candidate_segments):
            overlap = len(source_grams & _trigrams(segment))
            if overlap > best_overlap:
                best_overlap = overlap
                best_i = i
        return _answer(bundle, best_i)


class HttpLlmScorer:
    """Single-turn completion calls against a remote model endpoint.

    Sends ``{"model": ..., "prompt": ..., "max_output_tokens": ...}`` as
    JSON and reads the completion from the usual response shapes. Retries
    429/5xx and transport errors with exponential backoff, waiting at least
    as long as a numeric ``Retry-After`` header asks (up to ``timeout``);
    concurrent callers are bounded by a semaphore sized ``max_in_flight``,
    the one backend attribute :func:`lpnl.evaluation.run_benchmark` fans
    out by. Answers that resolve only by ``fallback`` are not cached, so a
    later call asks the model again.
    """

    def __init__(self, cfg: ScorerBackendConfig):
        self.cfg = cfg
        self.max_in_flight = cfg.max_in_flight
        self.cache = ResponseCache(cfg.cache_path) if cfg.cache_path else None
        self._session = requests.Session()
        self._gate = threading.BoundedSemaphore(cfg.max_in_flight)
        if cfg.api_key_env_var:
            key = os.environ.get(cfg.api_key_env_var)
            if key:
                self._session.headers["Authorization"] = f"Bearer {key}"
            else:
                logger.warning(
                    "environment variable %s is not set; calling without credentials",
                    cfg.api_key_env_var,
                )

    def score(self, bundle: PromptBundle) -> ScorerResponse:
        key = prompt_hash(bundle.text, self.cfg.model_name or "", self.cfg.max_output_tokens)
        if self.cache is not None:
            hit = self.cache.lookup(key)
            if hit is not None:
                return self._from_cache(hit, bundle)
        raw = self._complete(bundle.text)
        chosen, resolution = resolve_output(raw, bundle)
        response = ScorerResponse(chosen=chosen, raw_output=raw, resolution=resolution)
        if self.cache is not None and resolution != RESOLUTION_FALLBACK:
            self.cache.store(key, self.cfg.model_name or "", response)
        return response

    def _from_cache(self, record: dict, bundle: PromptBundle) -> ScorerResponse:
        chosen = record.get("chosen_node_id")
        raw = record.get("raw_output", "")
        resolution = record.get("resolution", RESOLUTION_FALLBACK)
        if chosen in bundle.candidate_order:
            return ScorerResponse(chosen=chosen, raw_output=raw, resolution=resolution)
        chosen, resolution = resolve_output(raw, bundle)
        return ScorerResponse(chosen=chosen, raw_output=raw, resolution=resolution)

    def _complete(self, prompt_text: str) -> str:
        body = {
            "model": self.cfg.model_name,
            "prompt": prompt_text,
            "max_output_tokens": self.cfg.max_output_tokens,
        }
        last_error: Exception | None = None
        for attempt in range(self.cfg.max_retries):
            retry_after = 0.0
            try:
                with self._gate:
                    resp = self._session.post(
                        self.cfg.endpoint_url, json=body, timeout=self.cfg.timeout
                    )
                if resp.status_code == 429 or resp.status_code >= 500:
                    last_error = TransportError(
                        f"server returned {resp.status_code}: {resp.text[:200]}"
                    )
                    retry_after = _retry_after_seconds(
                        resp.headers.get("Retry-After"), self.cfg.timeout
                    )
                elif resp.status_code >= 400:
                    raise ScorerError(
                        f"request rejected ({resp.status_code}): {resp.text[:200]}"
                    )
                else:
                    return self._extract_text(resp.json())
            except requests.RequestException as exc:
                last_error = TransportError(f"transport failure: {exc}")
            if attempt < self.cfg.max_retries - 1:
                time.sleep(max(self.cfg.backoff * (2**attempt), retry_after))
        raise last_error or TransportError("remote completion failed")

    @staticmethod
    def _extract_text(data: object) -> str:
        if isinstance(data, str):
            return data
        if isinstance(data, dict):
            for key in ("text", "completion", "output"):
                if isinstance(data.get(key), str):
                    return data[key]
            choices = data.get("choices")
            if isinstance(choices, list) and choices:
                first = choices[0]
                if isinstance(first, dict):
                    if isinstance(first.get("text"), str):
                        return first["text"]
                    message = first.get("message")
                    if isinstance(message, dict) and isinstance(message.get("content"), str):
                        return message["content"]
        raise ScorerError(f"cannot find completion text in response: {str(data)[:200]}")


def _retry_after_seconds(value: str | None, cap: float) -> float:
    """The delay a numeric ``Retry-After`` header asks for, clipped to ``cap``.

    The HTTP-date form, a missing header and malformed, negative or
    non-finite values all count as no request (0).
    """
    try:
        seconds = float(value)
    except (TypeError, ValueError):
        return 0.0
    if not math.isfinite(seconds) or seconds < 0.0:
        return 0.0
    return min(seconds, cap)


_BACKENDS = {
    "fixed_index": FixedIndexScorer,
    "oracle_truth": OracleTruthScorer,
    "lexical_overlap": LexicalOverlapScorer,
    "http_llm": HttpLlmScorer,
}


def make_scorer(cfg: ScorerBackendConfig):
    """Instantiate the backend selected by ``cfg.kind``."""
    return _BACKENDS[cfg.kind](cfg)


def score(bundle: PromptBundle, cfg: ScorerBackendConfig) -> ScorerResponse:
    """One-off scoring. For repeated calls build the backend once."""
    return make_scorer(cfg).score(bundle)
