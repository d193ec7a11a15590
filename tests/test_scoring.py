import fcntl
import json
import logging
import multiprocessing
import os
import random
import shutil
import ssl
import subprocess
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from lpnl.graph import EdgeType, HetGraph, NodeType
from lpnl.prompts import PromptConfig, build_prompt
from lpnl.sampling import AnchorList
from lpnl.scoring import (
    HttpLlmScorer,
    ResponseCache,
    ScorerBackendConfig,
    ScorerError,
    ScorerResponse,
    TransportError,
    _overlaps,
    _retry_after_seconds,
    _substring_overlaps,
    _trigrams,
    make_scorer,
    prompt_hash,
    resolve_output,
)


def fixture():
    node_types = [NodeType("paper", 0, "PA"), NodeType("author", 1, "AU")]
    edge_types = [EdgeType("authored_by", "paper", "author")]
    nodes = [
        ("p0", "paper", "entropy methods for lattice models"),
        ("a0", "author", "Alva Mercer studies entropy methods"),
        ("a1", "author", "Bren Holt studies seismic waves"),
        ("a2", "author", "Cyra Shaw studies орographic rain"),
    ]
    g = HetGraph(node_types, edge_types, nodes, [])
    anchors = {v: AnchorList(v, ()) for v in range(len(g))}
    candidates = [g.id_of("a0"), g.id_of("a1"), g.id_of("a2")]
    bundle = build_prompt(g.id_of("p0"), "authored_by", candidates, anchors, g, PromptConfig())
    return g, bundle


# -- deterministic backends -----------------------------------------------------


def test_fixed_index_zero_picks_first():
    _, bundle = fixture()
    cfg = ScorerBackendConfig(kind="fixed_index", fixed_index=0)
    resp = helpers.score_once(bundle, cfg)
    assert resp.chosen == bundle.candidate_order[0]
    assert resp.resolution == "exact_match"


def test_fixed_index_clamps_to_last():
    _, bundle = fixture()
    cfg = ScorerBackendConfig(kind="fixed_index", fixed_index=99)
    resp = helpers.score_once(bundle, cfg)
    assert resp.chosen == bundle.candidate_order[-1]


def test_oracle_truth_picks_true_neighbor():
    g, bundle = fixture()
    cfg = ScorerBackendConfig(
        kind="oracle_truth",
        truth_pairs=frozenset({(g.id_of("p0"), g.id_of("a1"))}),
    )
    resp = helpers.score_once(bundle, cfg)
    assert resp.chosen == g.id_of("a1")
    assert resp.resolution == "exact_match"


def test_oracle_truth_fallback_when_absent():
    g, bundle = fixture()
    cfg = ScorerBackendConfig(kind="oracle_truth", truth_pairs=frozenset())
    resp = helpers.score_once(bundle, cfg)
    assert resp.chosen == bundle.candidate_order[0]
    assert resp.resolution == "fallback"


def test_lexical_overlap_prefers_shared_vocabulary():
    g, bundle = fixture()
    cfg = ScorerBackendConfig(kind="lexical_overlap")
    resp = helpers.score_once(bundle, cfg)
    # a0's text shares "entropy methods" with the source description
    assert resp.chosen == g.id_of("a0")


def test_deterministic_backends_stable_across_calls():
    _, bundle = fixture()
    for kind in ("fixed_index", "lexical_overlap"):
        cfg = ScorerBackendConfig(kind=kind)
        first = helpers.score_once(bundle, cfg)
        second = helpers.score_once(bundle, cfg)
        assert first == second


# -- trigrams ---------------------------------------------------------------------


def slice_trigrams(text):
    text = text.lower()
    return {text[i : i + 3] for i in range(len(text) - 2)}


TRIGRAM_TEXTS = ["", "a", "ab", "abc", "abca", "Straße ÄÖÜ", "İstanbul", "орографический дождь"]


@settings(max_examples=300, deadline=None)
@given(a=st.text(max_size=40) | st.sampled_from(TRIGRAM_TEXTS),
       b=st.text(max_size=40) | st.sampled_from(TRIGRAM_TEXTS))
def test_trigram_overlap_matches_slice_version(a, b):
    assert len(_trigrams(a)) == len(slice_trigrams(a))
    assert len(_trigrams(a) & _trigrams(b)) == len(slice_trigrams(a) & slice_trigrams(b))


# "İ" lowercases to two characters, "ẞ" and "Σ" to one other
CASE_TEXT = st.text(alphabet="abcAB İiẞßΣσς̇-", max_size=30)


@settings(max_examples=300, deadline=None)
@given(text=CASE_TEXT | st.text(max_size=20) | st.sampled_from(TRIGRAM_TEXTS),
       segments=st.lists(CASE_TEXT | st.text(max_size=60) | st.sampled_from(TRIGRAM_TEXTS),
                         min_size=1, max_size=4))
def test_substring_overlaps_match_trigram_set_overlaps(text, segments):
    segments = tuple(segments)
    assert _substring_overlaps(text, segments) == _overlaps(text, segments)


# -- resolution ladder ----------------------------------------------------------


def test_resolve_alias_token_with_underscore():
    _, bundle = fixture()
    aliases = bundle.candidate_aliases
    raw = f"The answer is {aliases[1][0]}_{aliases[1][1:]}"  # e.g. "a_2"
    chosen, resolution = resolve_output(raw, bundle)
    assert chosen == bundle.candidate_order[1]
    assert resolution == "alias_match"


def test_resolve_plain_alias_token():
    _, bundle = fixture()
    chosen, resolution = resolve_output(bundle.candidate_aliases[2], bundle)
    assert chosen == bundle.candidate_order[2]
    assert resolution == "alias_match"


@pytest.mark.parametrize("type_name, prefix", [("ärztin", "r"), ("ö", "n")])
@pytest.mark.parametrize("prefixed", [False, True], ids=["bare", "prefixed"])
def test_alias_of_non_ascii_type_name_resolves(type_name, prefix, prefixed):
    # the alias rung tokenizes on [0-9a-z]: an alias such as "ä2" never matched
    node_types = [NodeType("paper", 0, "PA"), NodeType(type_name, 1, "AE")]
    nodes = [("p0", "paper", "clinical trials of a new vaccine"),
             ("x1", type_name, "Anna Berg"), ("x2", type_name, "Carl Dunn")]
    g = HetGraph(node_types, [EdgeType("treated_by", "paper", type_name)], nodes, [])
    anchors = {v: AnchorList(v, ()) for v in range(len(g))}
    candidates = [g.id_of("x1"), g.id_of("x2")]
    bundle = build_prompt(g.id_of("p0"), "treated_by", candidates, anchors, g, PromptConfig())
    assert bundle.candidate_aliases == (f"{prefix}1", f"{prefix}2")
    alias = bundle.candidate_aliases[1]
    chosen, resolution = resolve_output(f"{alias}: Carl Dunn" if prefixed else alias, bundle)
    assert (g.key_of(chosen), resolution) == ("x2", "alias_match")


def test_resolve_text_prefix():
    _, bundle = fixture()
    chosen, resolution = resolve_output("Bren Holt", bundle)
    assert chosen == bundle.candidate_order[1]
    assert resolution == "exact_match"


def test_resolve_trigram_fuzzy():
    _, bundle = fixture()
    chosen, resolution = resolve_output("someone studying seismic-wave physics", bundle)
    assert chosen == bundle.candidate_order[1]
    assert resolution == "fuzzy_match"


def test_resolve_gibberish_falls_back():
    _, bundle = fixture()
    chosen, resolution = resolve_output("%%% @@ ##", bundle)
    assert chosen == bundle.candidate_order[0]
    assert resolution == "fallback"


@settings(max_examples=200, deadline=None)
@given(raw=st.text(max_size=80))
def test_resolution_closed_world(raw):
    _, bundle = fixture()
    chosen, resolution = resolve_output(raw, bundle)
    assert chosen in bundle.candidate_order
    assert resolution in ("exact_match", "alias_match", "fuzzy_match", "fallback")


# -- cache ------------------------------------------------------------------------


def test_cache_roundtrip_many_entries(tmp_path):
    path = str(tmp_path / "cache.jsonl")
    cache = ResponseCache(path)
    for i in range(10_000):
        cache.store(f"k{i}", "m", ScorerResponse(chosen=i, raw_output=f"out{i}", resolution="exact_match"))
    cache.close()
    reloaded = ResponseCache(path)
    assert len(reloaded) == 10_000
    for i in (0, 1234, 9999):
        record = reloaded.lookup(f"k{i}")
        assert record["chosen_node_id"] == i
        assert record["raw_output"] == f"out{i}"


def test_cache_skips_corrupt_lines(tmp_path):
    path = tmp_path / "cache.jsonl"
    good = {"hash": "h1", "model": "m", "chosen_node_id": 3, "raw_output": "x", "resolution": "exact_match"}
    path.write_text(json.dumps(good) + "\nnot json at all\n[1,2,3]\n")
    cache = ResponseCache(str(path))
    assert len(cache) == 1
    assert cache.lookup("h1")["chosen_node_id"] == 3


def _append_records(path, tag, barrier):
    cache = ResponseCache(path)
    barrier.wait(timeout=30)
    for i in range(200):
        # sizes from tens of bytes to past the 8 KiB io buffer
        raw = f"{tag}-{i}:" + "x" * (37 * i % 9000)
        cache.store(f"{tag}{i}", "m", ScorerResponse(chosen=i, raw_output=raw, resolution="exact_match"))
    cache.close()


def test_cache_concurrent_appends_from_two_processes(tmp_path, caplog):
    path = str(tmp_path / "shared.jsonl")
    ctx = multiprocessing.get_context("spawn")
    barrier = ctx.Barrier(2)
    procs = [ctx.Process(target=_append_records, args=(path, tag, barrier)) for tag in "ab"]
    for proc in procs:
        proc.start()
    for proc in procs:
        proc.join(timeout=60)
    assert [proc.is_alive() for proc in procs] == [False, False]
    assert [proc.exitcode for proc in procs] == [0, 0]
    with caplog.at_level("WARNING", logger="lpnl.scoring"):
        reloaded = ResponseCache(path)
    assert "corrupt" not in caplog.text
    assert len(reloaded) == 400
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    assert lines[-1] == "" and len(lines) == 401  # 400 whole lines, each ended
    for tag in "ab":
        for i in range(200):
            record = reloaded.lookup(f"{tag}{i}")
            assert record["chosen_node_id"] == i
            assert record["raw_output"] == f"{tag}-{i}:" + "x" * (37 * i % 9000)


def test_cache_store_waits_for_a_writer_that_holds_the_lock(tmp_path):
    # another writer holds the file's lock halfway through a record: a store
    # must neither read that half as a torn line nor write into its middle
    path = tmp_path / "shared.jsonl"
    first = {"hash": "h1", "model": "m", "chosen_node_id": 1, "raw_output": "x" * 5000,
             "resolution": "exact_match"}
    line = (json.dumps(first, sort_keys=True) + "\n").encode()
    cache = ResponseCache(str(path))
    with open(path, "ab", buffering=0) as writer:
        fcntl.flock(writer, fcntl.LOCK_EX)
        writer.write(line[:4096])
        storing = threading.Thread(target=cache.store, args=(
            "h2", "m", ScorerResponse(chosen=2, raw_output="y", resolution="exact_match")))
        storing.start()
        storing.join(0.3)
        waited = storing.is_alive()
        writer.write(line[4096:])
        fcntl.flock(writer, fcntl.LOCK_UN)
    storing.join(5)
    assert not storing.is_alive()
    cache.close()
    assert waited
    lines = path.read_bytes().split(b"\n")
    assert len(lines) == 3 and lines[0] + b"\n" == line and lines[-1] == b""
    assert json.loads(lines[1])["hash"] == "h2"
    assert len(ResponseCache(str(path))) == 2


def test_prompt_hash_distinguishes_model():
    assert prompt_hash("same prompt", "model-a", 64) != prompt_hash("same prompt", "model-b", 64)
    assert prompt_hash("same prompt", "model-a", 64) == prompt_hash("same prompt", "model-a", 64)
    assert prompt_hash("same prompt", "model-a", 64) != prompt_hash("same prompt", "model-a", 32)


# -- HTTP backend ------------------------------------------------------------------


class _Script(BaseHTTPRequestHandler):
    responses: list = []
    requests_seen: int = 0
    bodies: list = []

    def do_POST(self):
        cls = type(self)
        cls.requests_seen += 1
        length = int(self.headers.get("Content-Length", 0))
        cls.bodies.append(json.loads(self.rfile.read(length)))
        status, payload, *headers = cls.responses[min(cls.requests_seen - 1, len(cls.responses) - 1)]
        body = json.dumps(payload).encode()
        self.send_response(status)
        for name, value in (headers[0] if headers else {}).items():
            self.send_header(name, value)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


@pytest.fixture
def http_server():
    server = HTTPServer(("127.0.0.1", 0), _Script)
    _Script.responses = [(200, {"text": "ok"})]
    _Script.requests_seen = 0
    _Script.bodies = []
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_port}/complete", _Script
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)


def http_cfg(url, **kwargs):
    return ScorerBackendConfig(
        kind="http_llm",
        endpoint_url=url,
        model_name="test-model",
        backoff=0.01,
        timeout=5.0,
        **kwargs,
    )


def test_http_backend_resolves_model_output(http_server):
    url, script = http_server
    _, bundle = fixture()
    script.responses = [(200, {"text": bundle.candidate_aliases[1]})]
    resp = helpers.score_once(bundle, http_cfg(url))
    assert resp.chosen == bundle.candidate_order[1]
    assert resp.resolution == "alias_match"
    sent = script.bodies[0]
    assert sent["model"] == "test-model"
    assert sent["prompt"] == bundle.text
    assert "max_output_tokens" in sent


def test_http_backend_retries_on_server_error(http_server):
    url, script = http_server
    _, bundle = fixture()
    script.responses = [(500, {}), (503, {}), (200, {"completion": "a1"})]
    resp = helpers.score_once(bundle, http_cfg(url))
    assert script.requests_seen == 3
    assert resp.chosen in bundle.candidate_order


def test_http_backend_honours_numeric_retry_after(http_server):
    url, script = http_server
    _, bundle = fixture()
    script.responses = [(429, {}, {"Retry-After": "0.3"}), (200, {"text": bundle.candidate_aliases[1]})]
    start = time.perf_counter()
    resp = helpers.score_once(bundle, http_cfg(url))  # backoff 0.01 s
    assert time.perf_counter() - start >= 0.3
    assert script.requests_seen == 2
    assert resp.chosen == bundle.candidate_order[1]


def test_http_backoff_is_jittered_and_never_below_retry_after(http_server, monkeypatch):
    url, script = http_server
    _, bundle = fixture()
    # Retry-After per failed attempt: none, none, above the jittered step, below it
    script.responses = [
        (503, {}),
        (503, {}),
        (429, {}, {"Retry-After": "0.5"}),
        (429, {}, {"Retry-After": "0.01"}),
        (200, {"text": bundle.candidate_aliases[1]}),
    ]
    retry_after = [0.0, 0.0, 0.5, 0.01]
    draws = iter([0.5, 1.0, 0.75, 0.6])
    jitters, slept = [], []

    def uniform(lo, hi):
        assert (lo, hi) == (0.5, 1.0)
        jitters.append(next(draws))
        return jitters[-1]

    monkeypatch.setattr(random, "uniform", uniform)
    monkeypatch.setattr(time, "sleep", slept.append)
    cfg = http_cfg(url, max_retries=5)
    cfg.backoff = 0.1
    resp = helpers.score_once(bundle, cfg)
    assert resp.chosen == bundle.candidate_order[1]
    assert script.requests_seen == 5 and len(slept) == 4
    for attempt, (delay, jitter, floor) in enumerate(zip(slept, jitters, retry_after)):
        step = 0.1 * 2**attempt
        jittered = step * jitter
        assert step / 2 <= jittered <= step
        assert delay == max(jittered, floor)
        assert delay >= floor
    assert slept == pytest.approx([0.05, 0.2, 0.5, 0.48])


@pytest.mark.parametrize(
    "value, expected",
    [
        ("0.3", 0.3),
        ("2", 2.0),
        ("120", 5.0),  # clipped to the timeout
        ("Wed, 21 Oct 2015 07:28:00 GMT", 0.0),
        ("-1", 0.0),
        ("nan", 0.0),
        ("inf", 0.0),
        ("soon", 0.0),
        (None, 0.0),
    ],
)
def test_retry_after_header_values(value, expected):
    assert _retry_after_seconds(value, 5.0) == expected


def test_http_backend_gives_up_after_retries(http_server):
    url, script = http_server
    _, bundle = fixture()
    script.responses = [(500, {})]
    with pytest.raises(TransportError):
        helpers.score_once(bundle, http_cfg(url, max_retries=2))
    assert script.requests_seen == 2


@pytest.mark.parametrize("answer, resolution", [
    ("a3", "alias_match"),
    ("Bren Holt studies", "exact_match"),
    ("waves seismic studies Holt Bren", "fuzzy_match"),
], ids=["alias", "exact", "fuzzy"])
def test_http_cache_bypasses_network(tmp_path, http_server, answer, resolution):
    url, script = http_server
    _, bundle = fixture()
    script.responses = [(200, {"text": answer})]
    cfg = http_cfg(url, cache_path=str(tmp_path / "c.jsonl"))
    with helpers.built(cfg) as scorer:
        first = scorer.score(bundle)
        assert first.resolution == resolution
        second = scorer.score(bundle)
        assert script.requests_seen == 1
        assert first == second
        # a fresh process (new scorer) reuses the file, also while the first holds it open
        third = helpers.score_once(bundle, cfg)
    assert script.requests_seen == 1
    assert third == first


def _toy_bundle(nodes):
    """Source a1, relation writes, candidates p1 and p2, on the toy graph with these node lines."""
    g = HetGraph(*helpers.toy_schema(), nodes, [("a1", "p1", "writes"), ("a2", "p1", "writes")])
    anchors = {v: AnchorList(v, ()) for v in range(len(g))}
    candidates = [g.id_of("p1"), g.id_of("p2")]
    return g, build_prompt(g.id_of("a1"), "writes", candidates, anchors, g, PromptConfig())


def test_http_cache_replay_survives_reordered_node_file(tmp_path, http_server):
    # dense ids follow the node file's order; the cached answer names its candidate by text
    url, script = http_server
    script.responses = [(200, {"text": "p2: adaptive kernels"})]
    nodes = [
        ("p1", "paper", "spectral methods for sparse graphs"),
        ("p2", "paper", "adaptive kernels in noisy settings"),
        ("a1", "author", "Alva Mercer (graph algorithms)"),
        ("a2", "author", "Bren Holt (numerical methods)"),
    ]
    cfg = http_cfg(url, cache_path=str(tmp_path / "c.jsonl"))
    g, bundle = _toy_bundle(nodes)
    cold = helpers.score_once(bundle, cfg)
    assert (g.key_of(cold.chosen), cold.resolution) == ("p2", "alias_match")
    swapped_g, swapped = _toy_bundle([nodes[1], nodes[0], *nodes[2:]])
    assert swapped.text == bundle.text
    replay = helpers.score_once(swapped, cfg)
    assert script.requests_seen == 1
    assert (swapped_g.key_of(replay.chosen), replay.resolution) == ("p2", "alias_match")


@pytest.mark.parametrize("raw", ["missing", None, 7, ["a1"]])
def test_http_cache_line_without_raw_text_is_asked_again(tmp_path, http_server, caplog, raw):
    url, script = http_server
    _, bundle = fixture()
    script.responses = [(200, {"text": bundle.candidate_aliases[1]})]
    record = {"hash": prompt_hash(bundle.text, "test-model", 64), "model": "test-model",
              "chosen_node_id": bundle.candidate_order[2], "resolution": "alias_match"}
    if raw != "missing":
        record["raw_output"] = raw
    path = tmp_path / "c.jsonl"
    path.write_text(json.dumps(record) + "\n")
    with caplog.at_level(logging.WARNING, logger="lpnl.scoring"):
        resp = helpers.score_once(bundle, http_cfg(url, cache_path=str(path)))
    assert "skipping corrupt cache line" in caplog.text
    assert script.requests_seen == 1
    assert (resp.chosen, resp.resolution) == (bundle.candidate_order[1], "alias_match")


def test_http_cache_skips_fallback_answers(tmp_path, http_server):
    url, script = http_server
    _, bundle = fixture()
    script.responses = [(200, {"text": "%%% @@ ##"})]
    path = tmp_path / "c.jsonl"
    with helpers.built(http_cfg(url, cache_path=str(path))) as scorer:
        first = scorer.score(bundle)
        assert first.resolution == "fallback"
        assert not path.exists() or path.read_text() == ""
        second = scorer.score(bundle)
    assert script.requests_seen == 2
    assert second == first


def test_http_cache_appends_after_a_truncated_last_line(tmp_path, http_server, caplog):
    # a crash mid-write leaves a last line without its newline: the next
    # record must start a line of its own, not join the broken one
    url, script = http_server
    bundle, other = two_bundles()
    script.responses = [(200, {"text": bundle.candidate_aliases[1]})]
    path = tmp_path / "c.jsonl"
    good = {"hash": "h1", "model": "m", "chosen_node_id": 3, "raw_output": "x", "resolution": "exact_match"}
    path.write_text(json.dumps(good) + "\n" + json.dumps(good)[:20])
    cfg = http_cfg(url, cache_path=str(path))
    first = helpers.score_once(bundle, cfg)
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="lpnl.scoring"):
        replay = helpers.score_once(bundle, cfg)
    assert caplog.messages == [f"skipping corrupt cache line {path}:2"]
    assert script.requests_seen == 1 and replay == first
    # the file now ends in a newline, and the next record adds none
    helpers.score_once(other, cfg)
    lines = path.read_text().split("\n")
    assert len(lines) == 5 and lines[-1] == "" and "" not in lines[:-1]
    assert json.loads(lines[0]) == good


def test_http_cache_keyed_by_output_cap(tmp_path, http_server):
    # a cap's cached answers never replay for another cap sharing the file
    url, script = http_server
    _, bundle = fixture()
    script.responses = [(200, {"text": bundle.candidate_aliases[2]})]
    path = str(tmp_path / "shared.jsonl")
    helpers.score_once(bundle, http_cfg(url, cache_path=path, max_output_tokens=64))
    assert script.requests_seen == 1
    helpers.score_once(bundle, http_cfg(url, cache_path=path, max_output_tokens=8))
    assert script.requests_seen == 2
    assert [body["max_output_tokens"] for body in script.bodies] == [64, 8]
    helpers.score_once(bundle, http_cfg(url, cache_path=path, max_output_tokens=64))
    assert script.requests_seen == 2


def test_http_cache_transparent_for_choices(tmp_path, http_server):
    url, script = http_server
    _, bundle = fixture()
    script.responses = [(200, {"text": bundle.candidate_aliases[1]})]
    plain = helpers.score_once(bundle, http_cfg(url))
    script.responses = [(200, {"text": bundle.candidate_aliases[1]})]
    cached = helpers.score_once(bundle, http_cfg(url, cache_path=str(tmp_path / "c2.jsonl")))
    assert plain.chosen == cached.chosen


def test_http_requires_endpoint_and_model():
    with pytest.raises(ValueError):
        ScorerBackendConfig(kind="http_llm")


@pytest.mark.parametrize("name, value", [
    ("max_retries", 0), ("max_retries", -1), ("timeout", 0.0), ("timeout", -2.0),
    ("timeout", float("nan")),
])
def test_http_settings_that_cannot_work_are_rejected(name, value):
    # max_retries counts attempts: 0 would send nothing; a 0 timeout fails every socket call
    with pytest.raises(ValueError, match=name):
        ScorerBackendConfig(kind="http_llm", endpoint_url="http://127.0.0.1:9/", model_name="m",
                            **{name: value})


def test_http_one_attempt_sends_one_request(http_server):
    url, script = http_server
    _, bundle = fixture()
    script.responses = [(500, {})]
    with pytest.raises(TransportError):
        helpers.score_once(bundle, http_cfg(url, max_retries=1))
    assert script.requests_seen == 1


def test_openai_style_response_shapes(http_server):
    url, script = http_server
    _, bundle = fixture()
    script.responses = [(200, {"choices": [{"message": {"content": bundle.candidate_aliases[0]}}]})]
    resp = helpers.score_once(bundle, http_cfg(url))
    assert resp.chosen == bundle.candidate_order[0]


@pytest.mark.parametrize("data, text", [
    ("bare", "bare"),
    ({"text": "t"}, "t"),
    ({"completion": "c"}, "c"),
    ({"output": "o"}, "o"),
    ({"choices": [{"text": "ct"}]}, "ct"),
    ({"choices": [{"message": {"content": "mc"}}]}, "mc"),
    ({"text": 7, "output": "o"}, "o"),  # the first key holding a string
])
def test_extract_text_response_shapes(data, text):
    assert HttpLlmScorer._extract_text(data) == text


@pytest.mark.parametrize("data", [
    {}, [], 7, None, {"text": None}, {"choices": []}, {"choices": ["a1"]},
    {"choices": [{"message": "a1"}]}, {"choices": [{"message": {"content": 1}}]},
])
def test_extract_text_rejects_other_shapes(data):
    with pytest.raises(ScorerError, match="cannot find completion text"):
        HttpLlmScorer._extract_text(data)


# -- HTTP transport: keep-alive connections ----------------------------------------


def test_http_sequential_calls_share_one_connection(keep_alive):
    _, bundle = fixture()
    scorer = make_scorer(http_cfg(keep_alive.url))
    for _ in range(5):
        resp = scorer.score(bundle)
        assert (resp.chosen, resp.resolution) == (bundle.candidate_order[0], "alias_match")
    assert len(keep_alive.seen) == 5
    assert keep_alive.connections == 1
    scorer.close()
    assert scorer.score(bundle).chosen == bundle.candidate_order[0]
    assert keep_alive.connections == 2
    scorer.close()


def test_http_reconnects_to_a_server_that_dropped_the_idle_connection(keep_alive):
    # each answer is followed by a close the client is not told about; reusing
    # the connection would fail the one attempt each call has
    keep_alive.drop_after_reply = True
    _, bundle = fixture()
    scorer = make_scorer(http_cfg(keep_alive.url, max_retries=1))
    for call in range(1, 6):
        resp = scorer.score(bundle)
        assert resp.chosen == bundle.candidate_order[0]
        assert len(keep_alive.seen) == call
        assert keep_alive.dropped.acquire(timeout=5)  # the server has closed it
    assert keep_alive.connections == 5
    scorer.close()


@pytest.mark.parametrize("status, headers, expected", [
    (400, {}, r"request rejected \(400\): bad prompt"),
    (302, {"Location": "http://elsewhere.test/complete"},
     r"request rejected \(302.*Location: http://elsewhere\.test/complete\): bad prompt"),
])
def test_http_rejected_status_sends_one_request(keep_alive, status, headers, expected):
    keep_alive.replies = [(status, b"bad prompt \xff", headers)]
    _, bundle = fixture()
    with pytest.raises(ScorerError, match=expected) as excinfo:
        helpers.score_once(bundle, http_cfg(keep_alive.url, max_retries=3))
    assert not isinstance(excinfo.value, TransportError)
    assert "�" in str(excinfo.value)  # undecodable bytes replaced, not raised
    assert len(keep_alive.seen) == 1


def test_http_non_json_success_is_retried(keep_alive):
    keep_alive.replies = [(200, b"<html>upstream busy</html>", {})]
    _, bundle = fixture()
    resp = helpers.score_once(bundle, http_cfg(keep_alive.url, max_retries=2))
    assert resp.chosen == bundle.candidate_order[0]
    assert len(keep_alive.seen) == 2
    keep_alive.replies = [(200, b"not json", {})]
    with pytest.raises(TransportError, match="not JSON"):
        helpers.score_once(bundle, http_cfg(keep_alive.url, max_retries=1))


def test_http_request_line_and_body(keep_alive):
    _, bundle = fixture()
    helpers.score_once(bundle, http_cfg(keep_alive.url))
    path, headers, body = keep_alive.seen[0]
    assert path == "/v1/complete?mode=test"
    assert headers["Content-Type"] == "application/json"
    assert "Authorization" not in headers
    assert body == {"model": "test-model", "prompt": bundle.text, "max_output_tokens": 64}


def test_http_api_key_from_environment(keep_alive, monkeypatch, caplog):
    _, bundle = fixture()
    monkeypatch.setenv("LPNL_TEST_KEY", "s3cret")
    helpers.score_once(bundle, http_cfg(keep_alive.url, api_key_env_var="LPNL_TEST_KEY"))
    assert keep_alive.seen[-1][1]["Authorization"] == "Bearer s3cret"
    monkeypatch.delenv("LPNL_TEST_KEY")
    with caplog.at_level(logging.WARNING, logger="lpnl.scoring"):
        helpers.score_once(bundle, http_cfg(keep_alive.url, api_key_env_var="LPNL_TEST_KEY"))
    assert "LPNL_TEST_KEY is not set" in caplog.text
    assert "Authorization" not in keep_alive.seen[-1][1]


def test_https_verifies_the_server_against_the_trust_store(tmp_path, monkeypatch):
    openssl = shutil.which("openssl")
    if openssl is None:
        pytest.skip("making a test certificate needs the openssl command")
    cert, key = tmp_path / "cert.pem", tmp_path / "key.pem"
    subprocess.run(
        [openssl, "req", "-x509", "-newkey", "ec", "-pkeyopt", "ec_paramgen_curve:prime256v1",
         "-nodes", "-keyout", str(key), "-out", str(cert), "-days", "1",
         "-subj", "/CN=127.0.0.1", "-addext", "subjectAltName=IP:127.0.0.1"],
        check=True, capture_output=True, timeout=60,
    )
    tls = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
    tls.load_cert_chain(cert, key)
    _, bundle = fixture()
    with helpers.serving(helpers.KeepAliveEndpoint(tls)) as server:
        monkeypatch.setenv("SSL_CERT_FILE", str(cert))
        resp = helpers.score_once(bundle, http_cfg(server.url))
        assert resp.chosen == bundle.candidate_order[0]
        assert len(server.seen) == 1
        # the self-signed certificate is in no system store
        monkeypatch.delenv("SSL_CERT_FILE")
        monkeypatch.delenv("SSL_CERT_DIR", raising=False)
        with pytest.raises(TransportError, match="CERTIFICATE_VERIFY_FAILED"):
            helpers.score_once(bundle, http_cfg(server.url, max_retries=1))
        assert len(server.seen) == 1


@pytest.mark.parametrize("url", [
    "ftp://127.0.0.1/complete", "http:///complete", "http://", "127.0.0.1:8080/complete",
    "http://127.0.0.1:port/complete", "http://127.0.0.1:70000/complete",
])
def test_http_endpoint_url_needs_http_scheme_and_host(url):
    with pytest.raises(ValueError, match="endpoint_url"):
        ScorerBackendConfig(kind="http_llm", endpoint_url=url, model_name="m")


def test_import_and_call_load_no_third_party_http_client(keep_alive):
    keep_alive.replies = [(200, b'{"text": "ok computer"}', {})]
    program = (
        "import sys\n"
        "import lpnl\n"
        "from lpnl.prompts import PromptBundle\n"
        "from lpnl.scoring import ScorerBackendConfig, make_scorer\n"
        "scorer = make_scorer(ScorerBackendConfig(\n"
        f"    kind='http_llm', endpoint_url={keep_alive.url!r}, model_name='m'))\n"
        "bundle = PromptBundle('any prompt', 3, 0, (1,), ('a1',), ('ok computer',))\n"
        "print(scorer.score(bundle).raw_output)\n"
        "print(sorted(m for m in ('requests', 'urllib3') if m in sys.modules))\n"
    )
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {**os.environ, "PYTHONPATH": src}
    result = subprocess.run([sys.executable, "-c", program], capture_output=True, text=True,
                            timeout=60, env=env)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split("\n")[:2] == ["ok computer", "[]"]
    assert len(keep_alive.seen) == 1


# -- HTTP transport: a request sent ahead of its score -------------------------------


def two_bundles():
    """The fixture's bundle and one over the same candidates in reverse order."""
    g, bundle = fixture()
    anchors = {v: AnchorList(v, ()) for v in range(len(g))}
    other = build_prompt(bundle.source, "authored_by", bundle.candidate_order[::-1], anchors, g,
                         PromptConfig())
    return bundle, other


def slots_free(scorer) -> bool:
    """Whether every in-flight slot is free; leaves them free."""
    taken = 0
    while taken < scorer.max_in_flight and scorer._gate.acquire(blocking=False):
        taken += 1
    for _ in range(taken):
        scorer._gate.release()
    return taken == scorer.max_in_flight


def finishes(fn, timeout: float = 5.0):
    """``fn()``, run on a thread of its own; fails rather than hangs if it blocks."""
    out = []
    thread = threading.Thread(target=lambda: out.append(fn()), daemon=True)
    thread.start()
    thread.join(timeout)
    assert not thread.is_alive(), "blocked on an in-flight slot"
    return out[0]


def test_http_send_then_score_reads_one_request_and_looks_up_once(keep_alive, tmp_path,
                                                                   monkeypatch):
    lookups = []
    real_lookup = ResponseCache.lookup

    def counting(self, key):
        lookups.append(key)
        return real_lookup(self, key)

    monkeypatch.setattr(ResponseCache, "lookup", counting)
    bundle, _ = two_bundles()
    scorer = make_scorer(http_cfg(keep_alive.url, cache_path=str(tmp_path / "c.jsonl")))
    sent = scorer.send(bundle)
    assert not slots_free(scorer)  # held until the answer is read
    first = scorer.score(sent)
    assert (first.chosen, first.resolution) == (bundle.candidate_order[0], "alias_match")
    assert len(keep_alive.seen) == 1 and len(lookups) == 1 and slots_free(scorer)
    sent = scorer.send(bundle)  # a cache hit: nothing goes out
    assert slots_free(scorer)
    assert scorer.score(sent) == first
    assert len(keep_alive.seen) == 1 and len(lookups) == 2
    assert keep_alive.connections == 1
    scorer.close()


# (replies, requests, error): the status rules, whichever way a request starts
STATUS_RULES = [
    ([(400, b"bad prompt", {})], 1, r"request rejected \(400\): bad prompt"),
    ([(302, b"moved", {"Location": "http://elsewhere.test/"})], 1,
     r"Location: http://elsewhere\.test/"),
    ([(503, b"busy", {"Retry-After": "0"})], 2, None),
    ([(429, b"slow down", {})], 2, None),
    ([(200, b"not json", {})], 2, None),
]


@pytest.mark.parametrize(
    "sent_first, replies, requests, error",
    [(True, *rule) for rule in STATUS_RULES] + [(False, *rule) for rule in STATUS_RULES],
    # explicit ids: the sent-first cases keep their long-standing test names
    ids=[f"replies{i}-{n}-{error}" for i, (_, n, error) in enumerate(STATUS_RULES)]
    + [f"scored directly-replies{i}" for i in range(len(STATUS_RULES))],
)
def test_http_sent_request_keeps_the_status_rules(keep_alive, sent_first, replies, requests,
                                                   error):
    keep_alive.replies = list(replies)
    bundle, _ = two_bundles()
    scorer = make_scorer(http_cfg(keep_alive.url, max_retries=3, max_in_flight=1))
    if sent_first:
        bundle = scorer.send(bundle)
    if error is None:
        assert scorer.score(bundle).chosen == bundle.candidate_order[0]
    else:
        with pytest.raises(ScorerError, match=error) as excinfo:
            scorer.score(bundle)
        assert not isinstance(excinfo.value, TransportError)
    assert len(keep_alive.seen) == requests
    assert slots_free(scorer)
    scorer.close()


@pytest.mark.parametrize("attempts", [1, 2])
def test_http_failure_while_sending_is_the_first_attempt(keep_alive, monkeypatch, attempts):
    bundle, _ = two_bundles()
    scorer = make_scorer(http_cfg(keep_alive.url, max_retries=attempts, max_in_flight=1))
    writes = []
    real_write = scorer._write

    def reset_once(prompt):
        writes.append(prompt)
        if len(writes) == 1:
            raise ConnectionResetError("reset while sending")
        return real_write(prompt)

    monkeypatch.setattr(scorer, "_write", reset_once)
    bundle = scorer.send(bundle)
    assert slots_free(scorer)
    if attempts == 1:
        with pytest.raises(TransportError, match="ConnectionResetError: reset while sending"):
            scorer.score(bundle)
    else:
        assert scorer.score(bundle).chosen == bundle.candidate_order[0]
    assert (len(writes), len(keep_alive.seen)) == (attempts, attempts - 1)
    assert slots_free(scorer)
    scorer.close()


def test_http_sent_bundles_are_read_in_any_order_on_one_thread(keep_alive):
    bundle, other = two_bundles()
    scorer = make_scorer(http_cfg(keep_alive.url, max_in_flight=2))

    def send_both_then_score_in_reverse():
        sent_bundle = scorer.send(bundle)
        sent_other = scorer.send(other)
        assert not slots_free(scorer)
        return scorer.score(sent_other), scorer.score(sent_bundle)

    answer_other, answer_bundle = finishes(send_both_then_score_in_reverse)
    assert answer_other.chosen == other.candidate_order[0]
    assert answer_bundle.chosen == bundle.candidate_order[0]
    assert sorted(body["prompt"] for _, _, body in keep_alive.seen) == sorted(
        [bundle.text, other.text])
    assert slots_free(scorer)
    scorer.close()


def test_http_sent_bundle_scored_again_starts_a_fresh_request(keep_alive):
    bundle, _ = two_bundles()
    scorer = make_scorer(http_cfg(keep_alive.url, max_in_flight=1))
    sent = scorer.send(bundle)
    first = scorer.score(sent)
    # its request was read: a second score starts one of its own, as a plain bundle does
    again = finishes(lambda: scorer.score(sent))
    assert again == first == scorer.score(bundle)
    assert [body["prompt"] for _, _, body in keep_alive.seen] == [bundle.text] * 3
    assert slots_free(scorer)
    scorer.close()


def test_offline_backends_have_no_send():
    for kind in ("fixed_index", "oracle_truth", "lexical_overlap"):
        assert not hasattr(make_scorer(ScorerBackendConfig(kind=kind)), "send")
