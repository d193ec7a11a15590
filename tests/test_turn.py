"""Eval workers on ``http_llm`` take turns: one computes at a time, and a
worker lets go of its turn only while it waits on the network.

Every run here goes through ``finishes``, which joins with a timeout, so a
deadlock fails its test instead of hanging the suite.
"""

import hashlib
import sys
import threading
import time

import pytest

import helpers
import lpnl.evaluation
from helpers import make_tasks
from lpnl.evaluation import run_benchmark
from lpnl.prompts import PromptConfig, build_prompt
from lpnl.sampling import AnchorList, SamplerConfig
from lpnl.scoring import ScorerBackendConfig, make_scorer
from lpnl.tournament import DncConfig

FAST = SamplerConfig(hops=1, layer_budget=3, anchor_k=3, rng_seed=0)
PROMPT = PromptConfig()
DNC = DncConfig(length_limit=3)


def finishes(fn, timeout: float = 60.0):
    """``fn()``, run on a thread of its own; fails rather than hangs if it blocks."""
    out, errors = [], []

    def target():
        try:
            out.append(fn())
        except BaseException as exc:
            errors.append(exc)

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(timeout)
    assert not thread.is_alive(), "deadlocked"
    if errors:
        raise errors[0]
    return out[0]


def prompt_keyed(prompt: str) -> str:
    """The alias of a candidate picked by a hash of the prompt alone."""
    lines = prompt.split("\n")[2:]
    return lines[hashlib.sha256(prompt.encode()).digest()[0] % len(lines)].split(": ", 1)[0]


def http(url: str, width: int, **kwargs) -> ScorerBackendConfig:
    return ScorerBackendConfig(kind="http_llm", endpoint_url=url, model_name="m", timeout=5.0,
                               max_in_flight=width, **kwargs)


@pytest.fixture
def predicted(monkeypatch):
    """(start, end, trace or None) of every ``predict`` that ``run_benchmark`` calls."""
    log = []
    real = lpnl.evaluation.predict

    def spy(*args, **kwargs):
        start, trace = time.perf_counter(), None
        try:
            trace = real(*args, **kwargs)
            return trace
        finally:
            log.append((start, time.perf_counter(), trace))

    monkeypatch.setattr(lpnl.evaluation, "predict", spy)
    return log


@pytest.fixture(scope="module")
def graph():
    return helpers.authorship_graph(n_papers=60, seed=12)


def test_reports_and_traces_match_at_every_width_cold_and_replayed(keep_alive, graph, tmp_path,
                                                                    predicted):
    keep_alive.answer = prompt_keyed
    tasks = make_tasks(graph, n_tasks=8, n_candidates=12, seed=9)
    outputs, caches = [], []
    for width in (1, 2, 4):
        cache = tmp_path / f"{width}.jsonl"
        cfg = http(keep_alive.url, width, cache_path=str(cache))
        for _ in ("cold", "replay"):
            predicted.clear()
            sent = len(keep_alive.seen)
            report = finishes(lambda: run_benchmark(tasks, graph, FAST, PROMPT, cfg, DNC,
                                                    seeds=(0, 1)))
            traces = sorted(repr(trace) for *_, trace in predicted)
            outputs.append((report.to_json(), traces, len(keep_alive.seen) - sent))
        caches.append(sorted(cache.read_text(encoding="utf-8").splitlines()))
    report_json, traces, _ = outputs[0]
    prompts = sum(row["scorer_calls"] for row in report.rows)
    assert not report.failures and len(report.rows) == 2 * len(tasks) == len(traces)
    assert len({row["rank"] for row in report.rows}) > 1  # the answers are not all alike
    # cold runs send every prompt, replays none; outputs match across runs
    assert [sent for *_, sent in outputs] == [prompts, 0] * 3
    assert all(out[:2] == (report_json, traces) for out in outputs)
    assert caches[0] == caches[1] == caches[2] and len(caches[0]) == prompts


def test_all_hit_run_never_overlaps_two_predict_calls(keep_alive, graph, tmp_path, predicted):
    tasks = make_tasks(graph, n_tasks=16, n_candidates=12, seed=9)
    cfg = http(keep_alive.url, 2, cache_path=str(tmp_path / "c.jsonl"))
    finishes(lambda: run_benchmark(tasks, graph, FAST, PROMPT, cfg, DNC))
    sent = len(keep_alive.seen)
    predicted.clear()
    report = finishes(lambda: run_benchmark(tasks, graph, FAST, PROMPT, cfg, DNC))
    assert not report.failures and len(keep_alive.seen) == sent
    spans = sorted((start, end) for start, end, _ in predicted)
    assert len(spans) == len(tasks)
    assert all(prev_end <= start for (_, prev_end), (start, _) in zip(spans, spans[1:]))


def test_more_workers_than_cores_run_each_job_once(keep_alive, graph, predicted):
    # a short switch interval makes a lost update of the shared job iterator
    # or outcome list likely, were they not used under the turn
    keep_alive.answer = prompt_keyed
    tasks = make_tasks(graph, n_tasks=12, n_candidates=6, seed=3)
    seeds = (0, 1, 2)
    serial = finishes(lambda: run_benchmark(tasks, graph, FAST, PROMPT, http(keep_alive.url, 1),
                                            DNC, seeds=seeds))
    predicted.clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        report = finishes(lambda: run_benchmark(tasks, graph, FAST, PROMPT,
                                                http(keep_alive.url, 8), DNC, seeds=seeds))
    finally:
        sys.setswitchinterval(interval)
    assert len(predicted) == len(seeds) * len(tasks)
    assert [(row["seed"], row["task"]) for row in report.rows] == [
        (seed, task) for seed in seeds for task in range(len(tasks))]
    assert report.to_json() == serial.to_json()


def test_cold_run_keeps_max_in_flight_requests_at_the_model(keep_alive, graph):
    keep_alive.latency = 0.05
    tasks = make_tasks(graph, n_tasks=4, n_candidates=9, seed=9)
    report = finishes(lambda: run_benchmark(tasks, graph, FAST, PROMPT, http(keep_alive.url, 2),
                                            DNC))
    assert not report.failures and len(report.rows) == len(tasks)
    assert keep_alive.in_flight_peak == 2


def test_task_in_a_429_backoff_lets_the_other_tasks_finish(keep_alive, graph, predicted):
    keep_alive.replies = [(429, b"slow down", {"Retry-After": "2"})]
    tasks = make_tasks(graph, n_tasks=3, n_candidates=9, seed=9)
    cfg = http(keep_alive.url, 2, backoff=0.01, max_retries=2)
    report = finishes(lambda: run_benchmark(tasks, graph, FAST, PROMPT, cfg, DNC))
    assert not report.failures and len(report.rows) == len(tasks)
    refused = keep_alive.seen[0][2]["prompt"]
    arrivals = sorted(arrived for arrived, _, prompt in keep_alive.log if prompt == refused)
    assert len(arrivals) == 2
    # every other task ended while the refused one slept before its retry
    ends = sorted(end for _, end, _ in predicted)
    assert ends[-2] < arrivals[1] < ends[-1]


def test_task_whose_request_is_rejected_fails_alone(keep_alive, graph):
    keep_alive.replies = [(400, b"bad prompt", {})]
    tasks = make_tasks(graph, n_tasks=6, n_candidates=9, seed=9)
    report = finishes(lambda: run_benchmark(tasks, graph, FAST, PROMPT, http(keep_alive.url, 2),
                                            DNC))
    assert len(report.rows) == len(tasks) - 1
    [failure] = report.failures
    assert "request rejected (400): bad prompt" in failure["error"]


def _bundle(g):
    task = make_tasks(g, n_tasks=1, n_candidates=4, seed=1)[0]
    anchors = {v: AnchorList(v, ()) for v in (task.source_id, *task.candidate_ids)}
    return build_prompt(task.source_id, "authored_by", list(task.candidate_ids), anchors, g,
                        PROMPT)


def test_thread_without_the_turn_never_waits_for_it(keep_alive, graph):
    bundle = _bundle(graph)
    scorer = make_scorer(http(keep_alive.url, 2))
    with scorer.turn():
        response = finishes(lambda: scorer.score(bundle), timeout=10)
    assert response.chosen == bundle.candidate_order[0]
    scorer.close()


def test_holder_gives_the_turn_up_only_while_it_waits(keep_alive, graph):
    keep_alive.latency = 0.1
    bundle = _bundle(graph)
    scorer = make_scorer(http(keep_alive.url, 2))
    holding = threading.Event()
    out = []

    def hold_and_score():
        with scorer.turn():
            holding.set()
            out.append(scorer.score(bundle))

    thread = threading.Thread(target=hold_and_score, daemon=True)
    thread.start()
    assert holding.wait(10)
    with scorer.turn():  # free only once the holder waits on the network
        deadline = time.monotonic() + 10
        while not keep_alive.log and time.monotonic() < deadline:
            time.sleep(0.01)
        assert keep_alive.log  # answered, yet the holder cannot go on without its turn
        time.sleep(0.1)
        assert thread.is_alive() and not out
    thread.join(10)
    assert not thread.is_alive()
    assert out[0].chosen == bundle.candidate_order[0]
    scorer.close()
