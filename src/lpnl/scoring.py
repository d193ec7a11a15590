"""Scorer contract: given a rendered prompt, choose exactly one candidate.

A backend is any object with ``score(bundle) -> ScorerResponse``, taking
the :class:`~lpnl.prompts.PromptBundle` that ``build_prompt`` returned.
``http_llm`` starts each request (a cache lookup and, on a miss, a write)
and then reads it; its ``send(bundle)`` only starts one and returns the
bundle to score, so that the caller can work while the model answers, and
``close()`` closes its idle connections and cache handle.

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
of the bundle's candidates. :func:`resolve_output` is the one way model
text becomes a candidate, for fresh and cached ``http_llm`` answers alike:
a ladder (alias token, text prefix, trigram similarity) that, failing all
rungs, falls back to the first candidate with ``resolution="fallback"``.
"""

from __future__ import annotations

import contextlib
import fcntl
import hashlib
import http.client
import json
import logging
import math
import os
import random
import re
import selectors
import socket
import ssl
import threading
import time
from dataclasses import dataclass, field, fields
from urllib.parse import urlsplit

from .prompts import PromptBundle, parse_prompt

logger = logging.getLogger(__name__)

__all__ = [
    "ScorerResponse",
    "ScorerBackendConfig",
    "ScorerError",
    "TransportError",
    "ResponseCache",
    "make_scorer",
    "close_scorer",
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
    fan-out width; the CPU-bound offline backends ignore it. ``max_retries``
    counts attempts: 1 sends each request once. ``timeout`` is in seconds.
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
        if self.endpoint_url:
            _check_endpoint_url(self.endpoint_url)
        if self.max_in_flight < 1:
            raise ValueError("max_in_flight must be >= 1")
        if self.max_retries < 1:
            raise ValueError("max_retries counts attempts and must be >= 1")
        if not self.timeout > 0:
            raise ValueError("timeout must be > 0 seconds")


def _check_endpoint_url(value: str) -> None:
    """Reject a URL that :class:`HttpLlmScorer` cannot send to, naming the field."""
    url = urlsplit(value)
    try:
        url.port  # raises on a port that is not a number in 0-65535
    except ValueError as exc:
        raise ValueError(f"endpoint_url {value!r}: {exc}") from None
    if url.scheme not in ("http", "https") or not url.hostname:
        raise ValueError(
            f"endpoint_url must be an http:// or https:// URL with a host, got {value!r}"
        )


# -- answer resolution --------------------------------------------------------

_TOKEN_SPLIT = re.compile(r"[^0-9a-z]+")
_ALIAS_UNDERSCORE = re.compile(r"([a-z]+)_(\d+)")


def _trigrams(text: str) -> set[tuple[str, str, str]]:
    t = text.lower()
    return set(zip(t, t[1:], t[2:]))


def _overlaps(text: str, segments: tuple[str, ...]) -> list[int]:
    """How many character trigrams ``text`` shares with each segment."""
    grams = _trigrams(text)
    return [len(grams & _trigrams(segment)) for segment in segments]


def _substring_overlaps(text: str, segments: tuple[str, ...]) -> list[int]:
    """:func:`_overlaps`, counted as ``text``'s distinct trigrams found in each
    lowercased segment: cheaper when ``text`` is short and the segments long."""
    t = text.lower()
    grams = {t[i : i + 3] for i in range(len(t) - 2)}
    return [sum(gram in segment for gram in grams) for segment in map(str.lower, segments)]


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

    overlaps = _substring_overlaps(normalized, parse_prompt(bundle.text).candidate_segments)
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

    Lines are ``{hash, model, chosen_node_id, raw_output, resolution}``;
    ``chosen_node_id`` and ``resolution`` record what the writing run
    resolved. A hit replays only ``raw_output``, which the scorer resolves
    like a fresh answer: dense node ids are only stable within one graph
    load, while the hashed prompt text fixes what the answer resolves to.
    Corrupt lines and lines without a string ``raw_output`` are skipped
    with a warning.

    The first :meth:`store` opens one unbuffered append handle, kept until
    :meth:`close`. Each store then takes an exclusive ``flock`` on it, ends
    a last line that a crash left without its newline, and writes its
    record in one call. Under the lock no writer in another process reads
    the file's end while a record is half written (Linux grows a file a
    page at a time) and takes that record's middle for a torn line.
    """

    def __init__(self, path: str):
        self.path = path
        self._lock = threading.Lock()
        self._entries: dict[str, dict] = {}
        self._fh = None
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
                    if isinstance(record["raw_output"], str):
                        self._entries[record["hash"]] = record
                        continue
                except (json.JSONDecodeError, KeyError, TypeError):
                    pass
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
        line = (json.dumps(record, sort_keys=True) + "\n").encode("utf-8")
        with self._lock:
            self._entries[key] = record
            if self._fh is None:
                self._fh = open(self.path, "a+b", buffering=0)
            fcntl.flock(self._fh, fcntl.LOCK_EX)
            try:
                # a last line that a crash left unterminated must not join this record
                size = self._fh.seek(0, os.SEEK_END)
                if size and os.pread(self._fh.fileno(), 1, size - 1) != b"\n":
                    self._fh.write(b"\n")
                self._fh.write(line)
            finally:
                fcntl.flock(self._fh, fcntl.LOCK_UN)

    def close(self) -> None:
        """Close the append handle; a later :meth:`store` opens it again."""
        with self._lock:
            if self._fh is not None:
                self._fh.close()
                self._fh = None


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
        overlaps = _overlaps(parsed.source_segment, parsed.candidate_segments)
        return _answer(bundle, overlaps.index(max(overlaps)))


# what a failed connect, write or read raises: an attempt that may be retried
_TRANSPORT_ERRORS = (OSError, http.client.HTTPException)


@dataclass
class _Started:
    """A started prompt, awaiting its read.

    ``hit`` is its cache entry, looked up once. On a miss ``conn`` holds the
    written request and its gate slot, or ``error`` says why writing failed;
    ``read`` once a score has taken it.
    """

    key: str
    prompt: str
    hit: dict | None
    conn: http.client.HTTPConnection | None = None
    error: Exception | None = None
    read: bool = False


@dataclass(frozen=True)
class _SentBundle(PromptBundle):
    """A bundle whose request :meth:`HttpLlmScorer.send` started."""

    started: _Started = field(compare=False, repr=False)


class HttpLlmScorer:
    """Single-turn completion calls against a remote model endpoint.

    Sends ``{"model": ..., "prompt": ..., "max_output_tokens": ...}`` as
    JSON and reads the completion from the usual response shapes. Retries
    429/5xx, transport errors and 2xx bodies that are not JSON with jittered
    exponential backoff, waiting at least as long as a numeric
    ``Retry-After`` header asks (up to ``timeout``); any other status,
    redirects included, is rejected without a retry. Concurrent callers are
    bounded by a semaphore sized ``max_in_flight``, the one backend
    attribute :func:`lpnl.evaluation.run_benchmark` fans out by.

    Requests go over the standard library's :mod:`http.client`, one
    keep-alive connection per in-flight slot: a caller takes an idle
    connection, or opens one, only while it holds the semaphore, so no more
    than ``max_in_flight`` connections are ever open. A connection the
    server closed while it sat idle is replaced before the request is sent,
    without spending an attempt. No proxy, ``.netrc`` or gzip support;
    HTTPS verifies against the system trust store.

    Every request is started, then read. Starting hashes the prompt and
    looks it up in the cache once; a miss writes the request under a gate
    slot that the read frees, and each retry writes it again. :meth:`send`
    starts a prompt so the caller can work while the model answers, and
    returns the bundle whose :meth:`score` reads it; the scorer keeps no
    record of what was sent.

    Fresh and cached answers alike go through :func:`resolve_output`.
    Answers that resolve only by ``fallback`` are not cached, so a later
    call asks the model again.

    Threads that share the scorer can take turns (:meth:`turn`): the
    holder of the turn computes alone and lets go of it only while it waits
    on the network, that is while it takes a gate slot, connects and sends,
    reads a response, or sleeps before a retry. Concurrent CPU work gains
    nothing under the GIL and only slows every thread; so when each prompt
    hits the cache one thread runs while the others wait, and when each
    misses, the requests of ``max_in_flight`` threads still overlap. A
    thread that does not hold the turn never waits for it.
    """

    def __init__(self, cfg: ScorerBackendConfig):
        self.cfg = cfg
        self.max_in_flight = cfg.max_in_flight
        self.cache = ResponseCache(cfg.cache_path) if cfg.cache_path else None
        self._gate = threading.BoundedSemaphore(cfg.max_in_flight)
        self._turn = threading.Lock()
        self._turn_holder: int | None = None  # the thread id that holds _turn
        url = urlsplit(cfg.endpoint_url)
        self._address = (url.hostname, url.port)
        self._tls = ssl.create_default_context() if url.scheme == "https" else None
        self._target = (url.path or "/") + (f"?{url.query}" if url.query else "")
        self._headers = {"Content-Type": "application/json"}
        # idle keep-alive connections; list.append and list.pop are atomic,
        # and only callers holding the gate touch it
        self._idle: list[http.client.HTTPConnection] = []
        if cfg.api_key_env_var:
            key = os.environ.get(cfg.api_key_env_var)
            if key:
                self._headers["Authorization"] = f"Bearer {key}"
            else:
                logger.warning(
                    "environment variable %s is not set; calling without credentials",
                    cfg.api_key_env_var,
                )

    @contextlib.contextmanager
    def turn(self):
        """Hold the turn for the ``with`` block, waiting until it is free.

        Inside, the calling thread runs while every other holder-to-be
        waits, except while it waits on the network: then it gives the turn
        up and takes it back before it goes on. Not reentrant.
        """
        with self._turn:
            self._turn_holder = threading.get_ident()
            try:
                yield
            finally:
                self._turn_holder = None

    @contextlib.contextmanager
    def _waiting(self):
        """Give the turn up for the ``with`` block if this thread holds it."""
        if self._turn_holder != threading.get_ident():
            yield
            return
        self._turn_holder = None
        self._turn.release()
        try:
            yield
        finally:
            self._turn.acquire()
            self._turn_holder = threading.get_ident()

    def send(self, bundle: PromptBundle) -> PromptBundle:
        """Start ``bundle``'s request and return the bundle to score in its place.

        Score each returned bundle once: until then, a miss holds its
        in-flight slot. A cache hit sends nothing and holds no slot.
        """
        values = {f.name: getattr(bundle, f.name) for f in fields(PromptBundle)}
        return _SentBundle(**values, started=self._start(bundle.text))

    def score(self, bundle: PromptBundle) -> ScorerResponse:
        """Read the request ``bundle`` carries from :meth:`send`, once; else start one."""
        started = bundle.started if isinstance(bundle, _SentBundle) else None
        if started is None or started.read:
            started = self._start(bundle.text)
        started.read = True
        hit = started.hit
        raw = hit["raw_output"] if hit is not None else self._complete(started)
        chosen, resolution = resolve_output(raw, bundle)
        response = ScorerResponse(chosen=chosen, raw_output=raw, resolution=resolution)
        if hit is None and self.cache is not None and resolution != RESOLUTION_FALLBACK:
            self.cache.store(started.key, self.cfg.model_name, response)
        return response

    def _start(self, prompt_text: str) -> _Started:
        """Hash and look up ``prompt_text`` once; on a miss, write its request."""
        key = prompt_hash(prompt_text, self.cfg.model_name, self.cfg.max_output_tokens)
        hit = self.cache.lookup(key) if self.cache is not None else None
        started = _Started(key, prompt_text, hit)
        if hit is None:
            self._post(started)
        return started

    def _post(self, started: _Started) -> None:
        """Write ``started``'s request under a gate slot; a transport failure frees it."""
        started.conn = started.error = None
        with self._waiting():
            self._gate.acquire()
            try:
                started.conn = self._write(started.prompt)
            except _TRANSPORT_ERRORS as exc:
                self._gate.release()
                started.error = exc
            except BaseException:
                self._gate.release()
                raise

    def _complete(self, started: _Started) -> str:
        """The model's answer to a started miss; each attempt reads one write."""
        last_error: Exception | None = None
        for attempt in range(self.cfg.max_retries):
            if attempt:
                self._post(started)
            retry_after = 0.0
            try:
                status, headers, body = self._receive(started)
            except _TRANSPORT_ERRORS as exc:
                last_error = TransportError(f"transport failure: {type(exc).__name__}: {exc}")
            else:
                if 200 <= status < 300:
                    try:
                        data = json.loads(body)
                    except ValueError as exc:
                        last_error = TransportError(f"response is not JSON: {exc}")
                    else:
                        return self._extract_text(data)
                elif status == 429 or status >= 500:
                    last_error = TransportError(f"server returned {status}: {_snippet(body)}")
                    retry_after = _retry_after_seconds(
                        headers.get("Retry-After"), self.cfg.timeout
                    )
                elif 300 <= status < 400:
                    raise ScorerError(
                        f"request rejected ({status}, redirects are not followed; "
                        f"Location: {headers.get('Location')}): {_snippet(body)}"
                    )
                else:
                    raise ScorerError(f"request rejected ({status}): {_snippet(body)}")
            if attempt < self.cfg.max_retries - 1:
                # jittered, so workers that met the same 429 do not retry in lockstep
                delay = max(self.cfg.backoff * 2**attempt * random.uniform(0.5, 1.0), retry_after)
                with self._waiting():
                    time.sleep(delay)
        raise last_error or TransportError("remote completion failed")

    def _write(self, prompt_text: str) -> http.client.HTTPConnection:
        """POST ``prompt_text``'s request on a pooled connection, leaving the response unread.

        Call only under the gate, and keep it until :meth:`_receive` is done.
        """
        payload = json.dumps({
            "model": self.cfg.model_name,
            "prompt": prompt_text,
            "max_output_tokens": self.cfg.max_output_tokens,
        }).encode("utf-8")
        conn = self._connection()
        try:
            conn.request("POST", self._target, body=payload, headers=self._headers)
        except BaseException:
            conn.close()
            raise
        return conn

    def _receive(self, started: _Started) -> tuple[int, http.client.HTTPMessage, bytes]:
        """``started``'s response read to the end, (status, headers, body).

        Frees its gate slot, after pooling or closing its connection.
        """
        if started.error is not None:
            raise started.error  # writing failed, and freed the slot then
        conn = started.conn
        try:
            with self._waiting():
                resp = conn.getresponse()
                body = resp.read()
            if resp.will_close:
                conn.close()
            else:
                self._idle.append(conn)
        except BaseException:
            conn.close()
            raise
        finally:
            self._gate.release()
        return resp.status, resp.headers, body

    def close(self) -> None:
        """Close the idle connections and the cache's append handle.

        A later call opens new connections. Call it when no other thread is
        sending or scoring.
        """
        idle, self._idle = self._idle, []
        for conn in idle:
            conn.close()
        if self.cache is not None:
            self.cache.close()

    def _connection(self) -> http.client.HTTPConnection:
        """An idle connection the server has not closed, else a new one (connected on use)."""
        while True:
            try:
                conn = self._idle.pop()
            except IndexError:
                break
            if not _readable(conn.sock):
                return conn
            # an idle keep-alive socket only reads as ready once the server
            # has closed it (or sent bytes nobody asked for): never reuse it
            conn.close()
        host, port = self._address
        if self._tls is not None:
            return http.client.HTTPSConnection(
                host, port, timeout=self.cfg.timeout, context=self._tls
            )
        return http.client.HTTPConnection(host, port, timeout=self.cfg.timeout)

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


def _snippet(body: bytes) -> str:
    return body.decode("utf-8", errors="replace")[:200]


def _readable(sock: socket.socket) -> bool:
    """Whether ``sock`` has data or end-of-stream waiting, without blocking."""
    with selectors.DefaultSelector() as selector:
        selector.register(sock, selectors.EVENT_READ)
        return bool(selector.select(0))


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


def close_scorer(backend) -> None:
    """Close what ``backend`` holds open; the offline backends hold nothing."""
    close = getattr(backend, "close", None)
    if close is not None:
        close()
