import hashlib
import json
import math
import statistics
import threading
from concurrent.futures import ThreadPoolExecutor
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np
import pytest

import helpers
import lpnl.evaluation
from helpers import make_tasks
from lpnl.evaluation import (
    EvalTask,
    metric_hits1,
    metric_mrr,
    metric_ndcg,
    run_benchmark,
)
from lpnl.prompts import PromptConfig
from lpnl.sampling import SamplerConfig
from lpnl.scoring import HttpLlmScorer, LexicalOverlapScorer, ScorerBackendConfig, ScorerError
from lpnl.tournament import DncConfig

FAST = SamplerConfig(hops=1, layer_budget=3, anchor_k=3, rng_seed=0)
PROMPT = PromptConfig()


# -- metric functions ----------------------------------------------------------


def test_metrics_truth_at_rank_one():
    ranking = [7, 3, 5]
    assert metric_hits1(ranking, 7) == 1.0
    assert metric_mrr(ranking, 7) == 1.0
    assert metric_ndcg(ranking, 7) == 1.0


def test_metrics_truth_at_rank_two():
    ranking = [3, 7, 5]
    assert metric_hits1(ranking, 7) == 0.0
    assert metric_mrr(ranking, 7) == pytest.approx(0.5)
    assert metric_ndcg(ranking, 7) == pytest.approx(1 / math.log2(3), abs=1e-12)
    assert metric_ndcg(ranking, 7) == pytest.approx(0.6309, abs=1e-4)


def test_metrics_truth_at_rank_four_of_four():
    ranking = [1, 2, 3, 4]
    assert metric_mrr(ranking, 4) == pytest.approx(0.25)
    assert metric_ndcg(ranking, 4) == pytest.approx(1 / math.log2(5), abs=1e-12)
    assert metric_ndcg(ranking, 4) == pytest.approx(0.4307, abs=1e-4)


def test_metrics_match_reference_on_random_rankings():
    rng = np.random.default_rng(0)
    for _ in range(1000):
        n = int(rng.integers(1, 50))
        ranking = list(rng.permutation(n))
        truth = int(ranking[int(rng.integers(n))])
        ndcg_ref, mrr_ref, hits_ref = helpers.reference_metrics(ranking, truth)
        assert abs(metric_ndcg(ranking, truth) - ndcg_ref) < 1e-12
        assert abs(metric_mrr(ranking, truth) - mrr_ref) < 1e-12
        assert abs(metric_hits1(ranking, truth) - hits_ref) < 1e-12
        # provable ordering for a single relevant item
        assert metric_hits1(ranking, truth) <= metric_mrr(ranking, truth) + 1e-12
        assert metric_mrr(ranking, truth) <= metric_ndcg(ranking, truth) + 1e-12


def test_metric_truth_absent_raises():
    with pytest.raises(ValueError, match="absent"):
        metric_mrr([1, 2, 3], 99)


def test_eval_task_validation():
    with pytest.raises(ValueError, match="among"):
        EvalTask(source_id=0, relation="authored_by", candidate_ids=(1, 2), truth_id=3)
    with pytest.raises(ValueError, match="duplicates"):
        EvalTask(source_id=0, relation="authored_by", candidate_ids=(1, 1, 3), truth_id=3)


# -- benchmark -------------------------------------------------------------------


def test_oracle_benchmark_perfect_hits():
    g = helpers.authorship_graph(n_papers=60, seed=3)
    tasks = make_tasks(g, n_tasks=12, n_candidates=5, seed=1)
    report = run_benchmark(
        tasks, g, FAST, PROMPT,
        ScorerBackendConfig(kind="oracle_truth", max_in_flight=1),
        DncConfig(length_limit=3, grouping="random_seeded"),
    )
    assert report.hits_at_1 == 1.0
    assert report.mrr == 1.0
    assert not report.failures
    assert len(report.rows) == 12


def test_fixed_index_matches_brute_force_simulation():
    g = helpers.authorship_graph(n_papers=80, seed=4)
    tasks = make_tasks(g, n_tasks=20, n_candidates=6, seed=2)
    limit = 3
    report = run_benchmark(
        tasks, g, FAST, PROMPT,
        ScorerBackendConfig(kind="fixed_index", fixed_index=0, max_in_flight=1),
        DncConfig(length_limit=limit, grouping="sequential"),
    )
    expected_hits = []
    for task in tasks:
        winner_index = helpers.simulate_first_pick_tournament(len(task.candidate_ids), limit)
        expected_hits.append(1.0 if task.candidate_ids[winner_index] == task.truth_id else 0.0)
    assert report.hits_at_1 == pytest.approx(sum(expected_hits) / len(expected_hits))


def test_benchmark_reports_are_reproducible():
    g = helpers.authorship_graph(n_papers=50, seed=6)
    tasks = make_tasks(g, n_tasks=8, n_candidates=4, seed=3)
    cfg = ScorerBackendConfig(kind="lexical_overlap", max_in_flight=1)
    one = run_benchmark(tasks, g, FAST, PROMPT, cfg, DncConfig(), seeds=(0, 1))
    two = run_benchmark(tasks, g, FAST, PROMPT, cfg, DncConfig(), seeds=(0, 1))
    assert one.to_json() == two.to_json()


def test_benchmark_empty_tasks():
    g = helpers.authorship_graph(n_papers=10)
    report = run_benchmark([], g, FAST, PROMPT)
    assert report.tasks == 0
    assert report.rows == ()
    assert report.hits_at_1 == 0.0


def test_benchmark_ordering_invariant_and_validation():
    g = helpers.authorship_graph(n_papers=60, seed=8)
    tasks = make_tasks(g, n_tasks=10, n_candidates=5, seed=5)
    for kind in ("fixed_index", "lexical_overlap", "oracle_truth"):
        report = run_benchmark(
            tasks, g, FAST, PROMPT,
            ScorerBackendConfig(kind=kind, max_in_flight=1),
            DncConfig(length_limit=3),
        )
        report.validate()
        assert report.hits_at_1 <= report.mrr <= report.ndcg


def test_benchmark_records_per_task_failures():
    # one candidate's text alone blows the budget: tasks containing it fail
    # with budget_unsatisfiable, are excluded from aggregates, and counted
    from lpnl.graph import EdgeType, HetGraph, NodeType

    node_types = [NodeType("paper", 0, "PA"), NodeType("author", 1, "AU")]
    edge_types = [EdgeType("authored_by", "paper", "author")]
    nodes = [
        ("p0", "paper", "short paper"),
        ("p1", "paper", "second paper"),
        ("good", "author", "fine author"),
        ("other", "author", "other author"),
        ("fat", "author", "chatter " * 200),
    ]
    edges = [("p0", "good", "authored_by"), ("p1", "other", "authored_by")]
    g = HetGraph(node_types, edge_types, nodes, edges)
    tasks = [
        EvalTask(  # contains the oversized candidate -> unsatisfiable
            source_id=g.id_of("p0"), relation="authored_by",
            candidate_ids=(g.id_of("good"), g.id_of("fat")), truth_id=g.id_of("good"),
        ),
        EvalTask(  # fine
            source_id=g.id_of("p1"), relation="authored_by",
            candidate_ids=(g.id_of("other"), g.id_of("good")), truth_id=g.id_of("other"),
        ),
    ]
    report = run_benchmark(
        tasks, g, FAST, PromptConfig(token_budget=64),
        ScorerBackendConfig(kind="oracle_truth", max_in_flight=1), DncConfig(),
    )
    assert len(report.failures) == 1
    assert len(report.rows) == 1
    assert report.failures[0]["task"] == 0
    assert report.hits_at_1 == 1.0  # aggregate over the surviving task only


def test_report_aggregates_are_per_seed_means_of_rows(monkeypatch):
    g = helpers.authorship_graph(n_papers=60, seed=10)
    tasks = make_tasks(g, n_tasks=8, n_candidates=5, seed=8)
    failing_source = tasks[3].source_id
    real_score = LexicalOverlapScorer.score

    def score(self, bundle):
        if bundle.source == failing_source:
            raise ScorerError("refused")
        return real_score(self, bundle)

    monkeypatch.setattr(LexicalOverlapScorer, "score", score)
    seeds = (0, 1, 2)
    report = run_benchmark(
        tasks, g, FAST, PROMPT, ScorerBackendConfig(kind="lexical_overlap"),
        DncConfig(length_limit=2), seeds=seeds,
    )
    assert [(f["seed"], f["task"]) for f in report.failures] == [(s, 3) for s in seeds]
    assert len(report.rows) == len(seeds) * (len(tasks) - 1)
    for name in ("ndcg", "mrr", "hits_at_1"):
        means = [
            statistics.fmean(row[name] for row in report.rows if row["seed"] == seed)
            for seed in seeds
        ]
        assert getattr(report, name) == statistics.fmean(means)
        assert getattr(report, f"{name}_std") == statistics.pstdev(means)
        assert report.to_dict()[name] == getattr(report, name)


class _PromptKeyed(BaseHTTPRequestHandler):
    """Answers with the alias of a candidate picked by a hash of the prompt
    alone, so the answer cannot depend on request order or concurrency."""

    def do_POST(self):
        prompt = json.loads(self.rfile.read(int(self.headers["Content-Length"])))["prompt"]
        candidate_lines = prompt.split("\n")[2:]
        pick = hashlib.sha256(prompt.encode()).digest()[0] % len(candidate_lines)
        body = json.dumps({"text": candidate_lines[pick].split(": ", 1)[0]}).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


@pytest.fixture
def prompt_keyed_url():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _PromptKeyed)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_port}/complete"
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)
    assert not thread.is_alive()


def test_benchmark_concurrent_matches_serial(monkeypatch, prompt_keyed_url):
    g = helpers.authorship_graph(n_papers=60, seed=12)
    tasks = make_tasks(g, n_tasks=10, n_candidates=5, seed=9)
    pool_widths = []

    class CountingPool(ThreadPoolExecutor):
        def __init__(self, max_workers):
            pool_widths.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(lpnl.evaluation, "ThreadPoolExecutor", CountingPool)
    http = {"kind": "http_llm", "endpoint_url": prompt_keyed_url, "model_name": "m", "timeout": 5.0}
    for backend in ({"kind": "lexical_overlap"}, http):
        serial, threaded = (
            run_benchmark(
                tasks, g, FAST, PROMPT,
                ScorerBackendConfig(**backend, max_in_flight=width),
                DncConfig(length_limit=3), seeds=(0, 1),
            )
            for width in (1, 4)
        )
        assert not serial.failures and len(serial.rows) == 2 * len(tasks)
        assert serial.to_json() == threaded.to_json()
    # one pool in all: http_llm at width 4; the offline backend ran inline
    assert pool_widths == [4]


def test_http_run_opens_at_most_max_in_flight_connections(keep_alive):
    g = helpers.authorship_graph(n_papers=60, seed=12)
    tasks = make_tasks(g, n_tasks=8, n_candidates=5, seed=9)
    report = run_benchmark(
        tasks, g, FAST, PROMPT,
        ScorerBackendConfig(kind="http_llm", endpoint_url=keep_alive.url, model_name="m",
                            timeout=5.0, max_in_flight=2),
        DncConfig(length_limit=3),
    )
    assert not report.failures and len(report.rows) == len(tasks)
    assert len(keep_alive.seen) == sum(row["scorer_calls"] for row in report.rows) > len(tasks)
    assert 1 <= keep_alive.connections <= 2


def test_http_tasks_send_their_sets_in_order_one_at_a_time(keep_alive, monkeypatch):
    g = helpers.authorship_graph(n_papers=60, seed=12)
    tasks = make_tasks(g, n_tasks=8, n_candidates=12, seed=9)
    dnc = DncConfig(length_limit=3)
    keep_alive.latency = 0.005

    def run(width):
        cfg = ScorerBackendConfig(kind="http_llm", endpoint_url=keep_alive.url, model_name="m",
                                  timeout=5.0, max_in_flight=width)
        keep_alive.log.clear()
        keep_alive.in_flight_peak = 0
        opened = keep_alive.connections
        report = run_benchmark(tasks, g, FAST, PROMPT, cfg, dnc)
        return report, sorted(keep_alive.log), keep_alive.connections - opened

    # without send, one worker: each task's sets one after another, tasks in turn
    with monkeypatch.context() as patch:
        patch.delattr(HttpLlmScorer, "send")
        serial, serial_log, _ = run(1)
    expected, task_of = [], {}
    for row in serial.rows:
        prompts = [prompt for *_, prompt in serial_log[:row["scorer_calls"]]]
        del serial_log[:row["scorer_calls"]]
        expected.append(prompts)
        task_of.update((prompt, row["task"]) for prompt in prompts)
    assert not serial_log and len(task_of) == sum(map(len, expected))

    ahead, log, connections = run(2)
    assert ahead.to_json() == serial.to_json()
    by_task = [[] for _ in tasks]
    for request in log:
        by_task[task_of[request[2]]].append(request)
    for task, requests in enumerate(by_task):
        assert [prompt for *_, prompt in requests] == expected[task]
        # each request arrives after the task's previous one was answered
        assert all(prev[1] <= cur[0] for prev, cur in zip(requests, requests[1:]))
    assert keep_alive.in_flight_peak <= 2 and connections <= 2


def test_http_outputs_match_whichever_way_requests_start(keep_alive, monkeypatch, tmp_path):
    # scored directly (no send) and sent ahead, at every width: the same report,
    # the same cache lines, and each task's requests in the same order
    g = helpers.authorship_graph(n_papers=60, seed=12)
    tasks = make_tasks(g, n_tasks=8, n_candidates=12, seed=9)
    dnc = DncConfig(length_limit=3)

    def run(name, width):
        cache = tmp_path / f"{name}-{width}.jsonl"
        cfg = ScorerBackendConfig(kind="http_llm", endpoint_url=keep_alive.url, model_name="m",
                                  timeout=5.0, max_in_flight=width, cache_path=str(cache))
        keep_alive.seen.clear()
        report = run_benchmark(tasks, g, FAST, PROMPT, cfg, dnc)
        prompts = [body["prompt"] for _, _, body in keep_alive.seen]
        return report, cache.read_text(encoding="utf-8").splitlines(), prompts

    with monkeypatch.context() as patch:
        patch.delattr(HttpLlmScorer, "send")
        runs = [run("direct", width) for width in (1, 2, 4)]
    runs += [run("ahead", width) for width in (1, 2, 4)]
    serial, serial_cache, serial_log = runs[0]
    # one worker runs the tasks in turn, so the log splits into each task's requests
    task_of = {}
    for row in serial.rows:
        task_of.update((prompt, row["task"]) for prompt in serial_log[:row["scorer_calls"]])
        del serial_log[:row["scorer_calls"]]
    assert not serial_log and len(task_of) == len(serial_cache)
    offline = run_benchmark(tasks, g, FAST, PROMPT, ScorerBackendConfig(kind="fixed_index"), dnc)
    assert serial.to_json() == offline.to_json()  # the endpoint names each set's first
    for report, cache, log in runs[1:]:
        assert report.to_json() == serial.to_json()
        assert sorted(cache) == sorted(serial_cache)
        by_task = {}
        for prompt in log:
            by_task.setdefault(task_of[prompt], []).append(prompt)
        assert by_task == {
            task: [p for p in task_of if task_of[p] == task] for task in range(len(tasks))
        }


def test_offline_backends_run_inline(monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("an offline backend started a thread pool")

    monkeypatch.setattr(lpnl.evaluation, "ThreadPoolExecutor", no_pool)
    g = helpers.authorship_graph(n_papers=40, seed=5)
    tasks = make_tasks(g, n_tasks=6, n_candidates=5, seed=3)
    for kind in ("fixed_index", "oracle_truth", "lexical_overlap"):
        report = run_benchmark(
            tasks, g, FAST, PROMPT,
            ScorerBackendConfig(kind=kind, max_in_flight=4), DncConfig(length_limit=3),
        )
        assert not report.failures and len(report.rows) == len(tasks)


def test_predict_accepts_prebuilt_backend():
    from lpnl.scoring import make_scorer
    from lpnl.tournament import predict

    g = helpers.authorship_graph(n_papers=30, seed=2)
    edges = g.edges_of_type("authored_by")
    source, truth = edges[0]
    pool = [truth] + [a for a in g.nodes_of_type("author") if a != truth][:5]
    backend = make_scorer(
        ScorerBackendConfig(kind="oracle_truth", truth_pairs=frozenset({(source, truth)}))
    )
    trace = predict(g, source, "authored_by", pool, FAST, PROMPT, backend, DncConfig())
    assert trace.final == truth


def test_benchmark_multi_seed_std():
    g = helpers.authorship_graph(n_papers=60, seed=10)
    tasks = make_tasks(g, n_tasks=6, n_candidates=4, seed=8)
    report = run_benchmark(
        tasks, g, FAST, PROMPT,
        ScorerBackendConfig(kind="oracle_truth", max_in_flight=1),
        DncConfig(), seeds=(0, 1, 2),
    )
    assert report.seeds == (0, 1, 2)
    assert report.hits_at_1 == 1.0
    assert report.hits_at_1_std == 0.0


def test_benchmark_seeds_default_to_the_sampler_seed(monkeypatch):
    g = helpers.authorship_graph(n_papers=30, seed=2)
    tasks = make_tasks(g, n_tasks=3, n_candidates=4, seed=1)
    seen = []
    real = lpnl.evaluation.predict

    def spy(g, source, relation, candidates, sampler_cfg, *rest):
        seen.append(sampler_cfg.rng_seed)
        return real(g, source, relation, candidates, sampler_cfg, *rest)

    monkeypatch.setattr(lpnl.evaluation, "predict", spy)
    report = run_benchmark(tasks, g, FAST.with_seed(7))
    assert report.seeds == (7,)
    assert report.to_dict()["seeds"] == [7]
    assert seen == [7] * len(tasks)
    assert run_benchmark([], g, FAST.with_seed(7)).seeds == (7,)
