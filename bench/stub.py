"""Loopback completion endpoint for the HTTP workloads.

    python3 bench/stub.py

binds 127.0.0.1 on a free port, prints the port on the first line of
standard output, and serves until its standard input closes.

``POST /complete`` takes ``{"model", "prompt", ...}`` and answers
``{"text": ...}`` after a fixed delay of 5 ms. The answer depends on the
prompt text alone: the intended candidate is the one whose own text
shares the most character trigrams with the source's own text (ties go
to the earlier candidate). A digest of the prompt picks one of three answer
forms, each aimed at one rung of the answer-resolution ladder:

* ``alias``: the candidate's alias, e.g. ``a3``;
* ``exact``: the candidate's own text, which the text-prefix rung finds;
* ``fuzzy``: the candidate's words in reverse order, which only the
  trigram rung can place.

A form that could be claimed by an earlier rung (an alias-like token, or
a candidate text that is a prefix of another's) falls back to ``alias``,
so no answer reaches the fallback rung. Every answer ends with
``(ref <digest>)``, which makes raw outputs unique per prompt so the
benchmark can join its log with the scorer cache.

``GET /stats`` returns what happened since the previous ``/stats`` call
and resets it: requests served, peak requests in flight, the largest
``ceil(len(prompt) / 4)`` seen, and one log entry per answer.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

LATENCY_S = 0.005  # per request, slept before answering
RELATED_WITH = " is related with "
_TOKEN_SPLIT = re.compile(r"[^0-9a-z]+")


def _own(segment: str) -> tuple[str, str]:
    """(alias, own text) of one description line ``alias: text [TAG] ...``."""
    head = segment.split(RELATED_WITH, 1)[0]
    alias, _, rest = head.partition(": ")
    return alias, rest.rsplit(" [", 1)[0]


def _trigrams(text: str) -> set[str]:
    text = text.lower()
    return {text[i : i + 3] for i in range(len(text) - 2)}


def answer(prompt: str) -> dict:
    """The stub's reply to one prompt: raw text, form and intended candidate."""
    lines = prompt.split("\n")
    _, source_text = _own(lines[1])
    candidates = [_own(line) for line in lines[2:]]
    source_grams = _trigrams(source_text)
    overlaps = [len(source_grams & _trigrams(text)) for _, text in candidates]
    pick = overlaps.index(max(overlaps))
    alias, text = candidates[pick]

    digest = hashlib.sha256(prompt.encode("utf-8")).hexdigest()
    ref = f" (ref {digest[:8]})"
    form = ("alias", "exact", "fuzzy")[int(digest[8:16], 16) % 3]
    aliases = {a.lower() for a, _ in candidates}
    others = [t.lower() for i, (_, t) in enumerate(candidates) if i != pick]
    if form == "exact":
        core = text.lower()
        body = text
        clash = len(core) < 4 or any(o.startswith(core) or core.startswith(o) for o in others)
    elif form == "fuzzy":
        body = " ".join(reversed(text.split()))
        core = body.lower()
        clash = any(t.startswith(core) or core.startswith(t) for t in others + [text.lower()])
    else:
        body, clash = alias, False
    if form != "alias":
        tokens = set(_TOKEN_SPLIT.split((body + ref).lower()))
        if clash or tokens & aliases:
            form, body = "alias", alias
    return {"raw": body + ref, "form": form, "intended_text": text}


class _State:
    def __init__(self):
        self.lock = threading.Lock()
        self.reset()

    def reset(self) -> None:
        self.requests = 0
        self.in_flight = 0
        self.in_flight_peak = 0
        self.max_prompt_tokens = 0
        self.log: list[dict] = []


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    state: _State

    def do_POST(self):
        state = self.state
        with state.lock:
            state.in_flight += 1
            state.in_flight_peak = max(state.in_flight_peak, state.in_flight)
        try:
            body = json.loads(self.rfile.read(int(self.headers.get("Content-Length", 0))))
            prompt = body["prompt"]
            reply = answer(prompt)
            time.sleep(LATENCY_S)
            with state.lock:
                state.requests += 1
                state.max_prompt_tokens = max(state.max_prompt_tokens, math.ceil(len(prompt) / 4))
                state.log.append(reply)
        finally:
            with state.lock:
                state.in_flight -= 1
        self._send(200, {"text": reply["raw"]})

    def do_GET(self):
        if self.path != "/stats":
            self._send(404, {"error": "not found"})
            return
        state = self.state
        with state.lock:
            stats = {
                "requests": state.requests,
                "in_flight_peak": state.in_flight_peak,
                "max_prompt_tokens": state.max_prompt_tokens,
                "log": state.log,
            }
            state.reset()
        self._send(200, stats)

    def _send(self, status: int, payload: dict) -> None:
        body = json.dumps(payload).encode("utf-8")
        head = (
            f"HTTP/1.1 {status} {self.responses[status][0]}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n\r\n"
        ).encode("latin-1")
        # one write: headers and body sent apart wait ~40 ms on the client's
        # delayed ACK (Nagle's algorithm holds the second segment back)
        self.wfile.write(head + body)

    def log_message(self, *args):
        pass


def main() -> int:
    handler = type("Handler", (_Handler,), {"state": _State()})
    server = ThreadingHTTPServer(("127.0.0.1", 0), handler)
    server.daemon_threads = True
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    print(server.server_port, flush=True)
    try:
        sys.stdin.read()  # returns when the parent closes our stdin
    finally:
        server.shutdown()
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
