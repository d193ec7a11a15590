import json
import multiprocessing
import threading
import time
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lpnl.graph import EdgeType, HetGraph, NodeType
from lpnl.prompts import PromptConfig, build_prompt
from lpnl.sampling import AnchorList
from lpnl.scoring import (
    ResponseCache,
    ScorerBackendConfig,
    ScorerResponse,
    TransportError,
    _retry_after_seconds,
    _trigrams,
    make_scorer,
    prompt_hash,
    resolve_output,
    score,
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


def request_of(bundle):
    return bundle


# -- deterministic backends -----------------------------------------------------


def test_fixed_index_zero_picks_first():
    _, bundle = fixture()
    cfg = ScorerBackendConfig(kind="fixed_index", fixed_index=0)
    resp = score(request_of(bundle), cfg)
    assert resp.chosen == bundle.candidate_order[0]
    assert resp.resolution == "exact_match"


def test_fixed_index_clamps_to_last():
    _, bundle = fixture()
    cfg = ScorerBackendConfig(kind="fixed_index", fixed_index=99)
    resp = score(request_of(bundle), cfg)
    assert resp.chosen == bundle.candidate_order[-1]


def test_oracle_truth_picks_true_neighbor():
    g, bundle = fixture()
    cfg = ScorerBackendConfig(
        kind="oracle_truth",
        truth_pairs=frozenset({(g.id_of("p0"), g.id_of("a1"))}),
    )
    resp = score(request_of(bundle), cfg)
    assert resp.chosen == g.id_of("a1")
    assert resp.resolution == "exact_match"


def test_oracle_truth_fallback_when_absent():
    g, bundle = fixture()
    cfg = ScorerBackendConfig(kind="oracle_truth", truth_pairs=frozenset())
    resp = score(request_of(bundle), cfg)
    assert resp.chosen == bundle.candidate_order[0]
    assert resp.resolution == "fallback"


def test_lexical_overlap_prefers_shared_vocabulary():
    g, bundle = fixture()
    cfg = ScorerBackendConfig(kind="lexical_overlap")
    resp = score(request_of(bundle), cfg)
    # a0's text shares "entropy methods" with the source description
    assert resp.chosen == g.id_of("a0")


def test_deterministic_backends_stable_across_calls():
    _, bundle = fixture()
    for kind in ("fixed_index", "lexical_overlap"):
        cfg = ScorerBackendConfig(kind=kind)
        first = score(request_of(bundle), cfg)
        second = score(request_of(bundle), cfg)
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
    for tag in "ab":
        for i in range(200):
            record = reloaded.lookup(f"{tag}{i}")
            assert record["chosen_node_id"] == i
            assert record["raw_output"] == f"{tag}-{i}:" + "x" * (37 * i % 9000)


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
    resp = score(request_of(bundle), http_cfg(url))
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
    resp = score(request_of(bundle), http_cfg(url))
    assert script.requests_seen == 3
    assert resp.chosen in bundle.candidate_order


def test_http_backend_honours_numeric_retry_after(http_server):
    url, script = http_server
    _, bundle = fixture()
    script.responses = [(429, {}, {"Retry-After": "0.3"}), (200, {"text": bundle.candidate_aliases[1]})]
    start = time.perf_counter()
    resp = score(request_of(bundle), http_cfg(url))  # backoff 0.01 s
    assert time.perf_counter() - start >= 0.3
    assert script.requests_seen == 2
    assert resp.chosen == bundle.candidate_order[1]


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
        score(request_of(bundle), http_cfg(url, max_retries=2))
    assert script.requests_seen == 2


def test_http_cache_bypasses_network(tmp_path, http_server):
    url, script = http_server
    _, bundle = fixture()
    script.responses = [(200, {"text": bundle.candidate_aliases[2]})]
    cfg = http_cfg(url, cache_path=str(tmp_path / "c.jsonl"))
    scorer = make_scorer(cfg)
    first = scorer.score(request_of(bundle))
    second = scorer.score(request_of(bundle))
    assert script.requests_seen == 1
    assert first == second
    # a fresh process (new scorer) reuses the file
    scorer2 = make_scorer(cfg)
    third = scorer2.score(request_of(bundle))
    assert script.requests_seen == 1
    assert third == first


def test_http_cache_skips_fallback_answers(tmp_path, http_server):
    url, script = http_server
    _, bundle = fixture()
    script.responses = [(200, {"text": "%%% @@ ##"})]
    path = tmp_path / "c.jsonl"
    scorer = make_scorer(http_cfg(url, cache_path=str(path)))
    first = scorer.score(request_of(bundle))
    assert first.resolution == "fallback"
    assert not path.exists() or path.read_text() == ""
    second = scorer.score(request_of(bundle))
    assert script.requests_seen == 2
    assert second == first


def test_http_cache_keyed_by_output_cap(tmp_path, http_server):
    # a cap's cached answers never replay for another cap sharing the file
    url, script = http_server
    _, bundle = fixture()
    script.responses = [(200, {"text": bundle.candidate_aliases[2]})]
    path = str(tmp_path / "shared.jsonl")
    make_scorer(http_cfg(url, cache_path=path, max_output_tokens=64)).score(request_of(bundle))
    assert script.requests_seen == 1
    make_scorer(http_cfg(url, cache_path=path, max_output_tokens=8)).score(request_of(bundle))
    assert script.requests_seen == 2
    assert [body["max_output_tokens"] for body in script.bodies] == [64, 8]
    make_scorer(http_cfg(url, cache_path=path, max_output_tokens=64)).score(request_of(bundle))
    assert script.requests_seen == 2


def test_http_cache_transparent_for_choices(tmp_path, http_server):
    url, script = http_server
    _, bundle = fixture()
    script.responses = [(200, {"text": bundle.candidate_aliases[1]})]
    plain = score(request_of(bundle), http_cfg(url))
    script.responses = [(200, {"text": bundle.candidate_aliases[1]})]
    cached = score(request_of(bundle), http_cfg(url, cache_path=str(tmp_path / "c2.jsonl")))
    assert plain.chosen == cached.chosen


def test_http_requires_endpoint_and_model():
    with pytest.raises(ValueError):
        ScorerBackendConfig(kind="http_llm")


def test_openai_style_response_shapes(http_server):
    url, script = http_server
    _, bundle = fixture()
    script.responses = [(200, {"choices": [{"message": {"content": bundle.candidate_aliases[0]}}]})]
    resp = score(request_of(bundle), http_cfg(url))
    assert resp.chosen == bundle.candidate_order[0]
