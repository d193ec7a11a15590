import math
import sys
import threading
from dataclasses import replace

import pytest

import helpers
import lpnl.prompts
import lpnl.sampling
import lpnl.scoring
import lpnl.tournament
from lpnl.graph import EdgeType, HetGraph, NodeType, UnknownNodeError
from lpnl.prompts import PromptConfig
from lpnl.sampling import TIE_EPS, SamplerConfig
from lpnl.scoring import ScorerBackendConfig, close_scorer, make_scorer
from lpnl.tournament import (
    DncConfig,
    PredictionAborted,
    PredictionTrace,
    Round,
    partition,
    predict,
)


def tournament_fixture(n_candidates: int) -> tuple[HetGraph, int, list[int]]:
    """A paper, shared fields, and n author candidates with field links."""
    node_types = [
        NodeType("paper", 0, "PA"),
        NodeType("author", 1, "AU"),
        NodeType("field", 2, "FD"),
    ]
    edge_types = [
        EdgeType("authored_by", "paper", "author"),
        EdgeType("about", "paper", "field"),
        EdgeType("expert_in", "author", "field"),
    ]
    nodes = [("s", "paper", "a survey of resilient overlay meshes")]
    edges = []
    for j in range(4):
        nodes.append((f"f{j}", "field", f"field topic {j}"))
        edges.append(("s", f"f{j}", "about"))
    for i in range(n_candidates):
        nodes.append((f"c{i}", "author", f"candidate person number {i}"))
        edges.append((f"c{i}", f"f{i % 4}", "expert_in"))
    g = HetGraph(node_types, edge_types, nodes, edges)
    return g, g.id_of("s"), [g.id_of(f"c{i}") for i in range(n_candidates)]


FAST_SAMPLER = SamplerConfig(hops=1, layer_budget=8, anchor_k=4, rng_seed=0)
PROMPT = PromptConfig(token_budget=4096)


def oracle_cfg(g, source, target):
    return ScorerBackendConfig(
        kind="oracle_truth",
        truth_pairs=frozenset({(source, target)}),
        max_in_flight=1,
    )


def expected_rounds(n: int, limit: int) -> int:
    rounds = 0
    while n > 1:
        n = math.ceil(n / limit)
        rounds += 1
    return rounds


# -- partition ------------------------------------------------------------------


def test_partition_100_by_5_gives_20_sets():
    sets = partition(list(range(100)), 5)
    assert len(sets) == 20
    assert all(len(s) == 5 for s in sets)


def test_partition_7_by_3_balanced():
    sets = partition(list(range(7)), 3)
    assert sorted(len(s) for s in sets) == [2, 2, 3]


def test_partition_under_limit_single_set():
    assert partition([10, 20], 3) == [[10, 20]]


def test_partition_sequential_preserves_order():
    sets = partition(list(range(9)), 4, grouping="sequential")
    flat = [c for s in sets for c in s]
    assert flat == list(range(9))


def test_partition_random_seeded_deterministic():
    a = partition(list(range(30)), 4, grouping="random_seeded", seed=5)
    b = partition(list(range(30)), 4, grouping="random_seeded", seed=5)
    c = partition(list(range(30)), 4, grouping="random_seeded", seed=6)
    assert a == b
    assert a != c
    assert sorted(x for s in a for x in s) == list(range(30))


def test_partition_sizes_never_exceed_limit():
    for n in range(1, 60):
        for limit in (2, 3, 5):
            sets = partition(list(range(n)), limit)
            assert len(sets) == math.ceil(n / limit)
            assert max(len(s) for s in sets) <= limit
            assert max(len(s) for s in sets) - min(len(s) for s in sets) <= 1


def test_partition_empty_pool_rejected():
    with pytest.raises(ValueError):
        partition([], 3)
    # a limit below 2 is refused as DncConfig refuses it
    for limit in (-1, 0):
        with pytest.raises(ValueError, match="length_limit must be >= 2"):
            partition([1, 2, 3], limit)


def test_round_count_recurrence_matches_simulation():
    # winners regroup sequentially, so round structure only depends on n and L
    for limit in (2, 3, 5):
        for n in [1, 2, 3, 7, 30, 101, 999, 10_000]:
            pool = list(range(n))
            rounds = 0
            while len(pool) > 1:
                pool = [s[0] for s in partition(pool, limit)]
                rounds += 1
            assert rounds == expected_rounds(n, limit)


# -- predict ---------------------------------------------------------------------


def test_predict_round_and_call_arithmetic():
    g, source, candidates = tournament_fixture(100)
    dnc = DncConfig(length_limit=5, grouping="sequential")
    with helpers.built(oracle_cfg(g, source, candidates[17])) as oracle:
        trace = predict(g, source, "authored_by", candidates, FAST_SAMPLER, PROMPT, oracle, dnc)
    assert len(trace.rounds) == 3
    assert [len(r.sets) for r in trace.rounds] == [20, 4, 1]
    assert trace.scorer_calls == 25
    assert trace.final == candidates[17]


def test_predict_single_candidate_no_calls():
    g, source, candidates = tournament_fixture(1)
    with helpers.built(oracle_cfg(g, source, candidates[0])) as oracle:
        trace = predict(
            g, source, "authored_by", candidates, FAST_SAMPLER, PROMPT, oracle, DncConfig(),
        )
    assert trace.scorer_calls == 0
    assert trace.final == candidates[0]
    assert trace.ranking == (candidates[0],)


def test_predict_rejects_duplicates():
    g, source, candidates = tournament_fixture(3)
    with helpers.built(oracle_cfg(g, source, candidates[0])) as oracle:
        with pytest.raises(ValueError, match="duplicates"):
            predict(
                g, source, "authored_by", [candidates[0], candidates[0]],
                FAST_SAMPLER, PROMPT, oracle, DncConfig(),
            )


def test_oracle_winner_survives_64_candidates_all_seeds():
    g, source, candidates = tournament_fixture(64)
    truth = candidates[41]
    with helpers.built(oracle_cfg(g, source, truth)) as oracle:
        for seed in range(12):
            dnc = DncConfig(length_limit=3, grouping="random_seeded")
            trace = predict(
                g, source, "authored_by", candidates, FAST_SAMPLER.with_seed(seed), PROMPT,
                oracle, dnc,
            )
            assert trace.final == truth


def test_winner_soundness_sweep():
    g, source, candidates = tournament_fixture(30)
    for n in (1, 2, 3, 5, 9, 17, 30):
        pool = candidates[:n]
        target = pool[n // 2]
        with helpers.built(oracle_cfg(g, source, target)) as oracle:
            for limit in (2, 3, 5):
                for grouping in ("sequential", "random_seeded"):
                    for seed in (0, 1):
                        dnc = DncConfig(length_limit=limit, grouping=grouping)
                        trace = predict(
                            g, source, "authored_by", pool, FAST_SAMPLER.with_seed(seed),
                            PROMPT, oracle, dnc,
                        )
                        assert trace.final == target
                        assert trace.ranking[0] == target


def test_trace_invariants():
    g, source, candidates = tournament_fixture(23)
    dnc = DncConfig(length_limit=3, grouping="random_seeded")
    with helpers.built(oracle_cfg(g, source, candidates[7])) as oracle:
        trace = predict(
            g, source, "authored_by", candidates, FAST_SAMPLER.with_seed(4), PROMPT, oracle, dnc,
        )
    survivors = set(candidates)
    for rnd in trace.rounds:
        covered = [c for s in rnd.sets for c in s]
        assert sorted(covered) == sorted(survivors)
        assert all(len(s) <= dnc.length_limit for s in rnd.sets)
        for members, winner in zip(rnd.sets, rnd.winners):
            assert winner in members
        survivors = set(rnd.winners)
    assert survivors == {trace.final}
    assert sorted(trace.ranking) == sorted(candidates)


def test_derive_ranking_last_round_fills_top_ranks():
    g, source, candidates = tournament_fixture(100)
    dnc = DncConfig(length_limit=5, grouping="sequential")
    with helpers.built(oracle_cfg(g, source, candidates[0])) as oracle:
        trace = predict(g, source, "authored_by", candidates, FAST_SAMPLER, PROMPT, oracle, dnc)
    ranking = trace.ranking
    assert ranking[0] == trace.final
    last_round_members = {c for s in trace.rounds[-1].sets for c in s}
    assert set(ranking[:4]) == last_round_members
    # everything eliminated in round 1 ranks below round-2 survivors
    round2_members = {c for s in trace.rounds[1].sets for c in s}
    boundary = len(round2_members)
    assert set(ranking[:boundary]) == round2_members


def test_derive_ranking_two_candidates():
    g, source, candidates = tournament_fixture(2)
    with helpers.built(oracle_cfg(g, source, candidates[1])) as oracle:
        trace = predict(
            g, source, "authored_by", candidates, FAST_SAMPLER, PROMPT, oracle, DncConfig(),
        )
    assert trace.ranking == (candidates[1], candidates[0])


def test_derive_ranking_deterministic_tiebreak():
    g, source, candidates = tournament_fixture(9)
    dnc = DncConfig(length_limit=3, grouping="sequential")
    with helpers.built(oracle_cfg(g, source, candidates[0])) as oracle:
        traces = [
            predict(g, source, "authored_by", candidates, FAST_SAMPLER, PROMPT, oracle, dnc)
            for _ in range(2)
        ]
    assert traces[0].ranking == traces[1].ranking


def test_derive_ranking_tie_scores_within_eps_rank_by_id():
    # 11's retained mass exceeds 10's by less than TIE_EPS: a tie, so id decides
    trace = PredictionTrace(
        source=0,
        relation="authored_by",
        candidates=(11, 12, 10, 13),
        rounds=(Round(((11, 12, 10, 13),), (13,)),),
        final=13,
        tie_scores={10: 0.5, 11: 0.5 + 0.5 * TIE_EPS, 12: 0.7, 13: 0.1},
    )
    assert trace.ranking == (13, 12, 10, 11)
    far = {**trace.tie_scores, 11: 0.5 + 2 * TIE_EPS}
    assert replace(trace, tie_scores=far).ranking == (13, 12, 11, 10)


def test_trace_derives_ranking_and_scorer_calls():
    trace = PredictionTrace(
        source=0,
        relation="authored_by",
        candidates=(1, 2, 3, 4, 5, 6, 7),
        rounds=(
            Round(((1, 2, 3), (4, 5), (6, 7)), (2, 5, 7)),
            Round(((2, 5, 7),), (5,)),
        ),
        final=5,
        tie_scores={1: 0.1, 2: 0.2, 3: 0.3, 4: 0.4, 5: 0.5, 6: 0.6, 7: 0.05},
    )
    assert trace.scorer_calls == 4
    # the winner, then round 2's losers, then round 1's, each by retained mass
    assert trace.ranking == (5, 2, 7, 6, 4, 3, 1)


def test_aborted_trace_counts_recorded_winners():
    g, source, candidates = tournament_fixture(9)
    oracle = make_scorer(oracle_cfg(g, source, candidates[0]))
    scored = []

    class FailsSecondCall:
        def score(self, bundle):
            scored.append(bundle)
            if len(scored) == 2:
                raise RuntimeError("boom")
            return oracle.score(bundle)

    with pytest.raises(PredictionAborted) as excinfo:
        predict(
            g, source, "authored_by", candidates, FAST_SAMPLER, PROMPT,
            FailsSecondCall(), DncConfig(length_limit=3, grouping="sequential"),
        )
    partial = excinfo.value.trace
    assert [len(r.sets) for r in partial.rounds] == [3]
    assert partial.rounds[0].winners == (candidates[0],)
    assert partial.scorer_calls == 1
    assert partial.final is None and partial.ranking == ()


def test_answer_outside_the_scored_set_aborts():
    g, source, candidates = tournament_fixture(9)
    oracle = make_scorer(oracle_cfg(g, source, candidates[0]))
    scored = []

    class NamesAnotherSet:
        def score(self, bundle):
            scored.append(bundle)
            response = oracle.score(bundle)
            if len(scored) == 3:
                # a pool member, but one of the first set's
                return replace(response, chosen=candidates[1])
            return response

    with pytest.raises(PredictionAborted, match="not in the scored set") as excinfo:
        predict(
            g, source, "authored_by", candidates, FAST_SAMPLER, PROMPT,
            NamesAnotherSet(), DncConfig(length_limit=3, grouping="sequential"),
        )
    assert f"backend chose {candidates[1]}" in str(excinfo.value)
    partial = excinfo.value.trace
    assert partial.final is None and partial.ranking == ()
    assert partial.rounds[0].sets == (tuple(candidates[:3]), tuple(candidates[3:6]),
                                      tuple(candidates[6:]))
    # the oracle's pick, then the first candidate (no truth in the second set)
    assert partial.rounds[0].winners == (candidates[0], candidates[3])
    assert partial.scorer_calls == 2 and len(scored) == 3


def test_derive_ranking_incomplete_trace_rejected(keep_alive):
    g, source, candidates = tournament_fixture(4)
    keep_alive.replies = [(400, b"unknown model", {})]
    cfg = ScorerBackendConfig(kind="http_llm", endpoint_url=keep_alive.url, model_name="m",
                              timeout=5.0, max_in_flight=1)
    with helpers.built(cfg) as backend:
        with pytest.raises(PredictionAborted, match=r"request rejected \(400\)") as excinfo:
            predict(g, source, "authored_by", candidates, FAST_SAMPLER, PROMPT, backend,
                    DncConfig())
    partial = excinfo.value.trace
    assert partial.final is None
    assert partial.rounds  # the failed round is recorded with its sets
    assert partial.ranking == ()  # an incomplete trace has no ranking
    assert partial.scorer_calls == sum(len(r.winners) for r in partial.rounds) == 0


def test_anchor_runs_once_per_node(monkeypatch):
    g, source, candidates = tournament_fixture(12)
    calls = []
    real = lpnl.sampling.top_k_anchors

    def counting(graph, center, cfg, mask=None):
        calls.append(center)
        return real(graph, center, cfg, mask)

    # predict reaches the sampler through lpnl.sampling.anchors_for
    monkeypatch.setattr(lpnl.sampling, "top_k_anchors", counting)
    with helpers.built(oracle_cfg(g, source, candidates[3])) as oracle:
        predict(
            g, source, "authored_by", candidates, FAST_SAMPLER, PROMPT, oracle,
            DncConfig(length_limit=2),
        )
    assert len(calls) == 1 + len(candidates)
    assert len(set(calls)) == len(calls)


def test_prompts_within_budget_every_round(monkeypatch):
    g, source, candidates = tournament_fixture(40)
    seen = []
    real = lpnl.tournament.build_prompt

    def recording(*args, **kwargs):
        bundle = real(*args, **kwargs)
        seen.append(bundle.token_count)
        return bundle

    monkeypatch.setattr(lpnl.tournament, "build_prompt", recording)
    prompt_cfg = PromptConfig(token_budget=256)
    with helpers.built(oracle_cfg(g, source, candidates[11])) as oracle:
        predict(
            g, source, "authored_by", candidates, FAST_SAMPLER.with_seed(1), prompt_cfg, oracle,
            DncConfig(length_limit=3, grouping="random_seeded"),
        )
    assert seen
    assert all(count <= 256 for count in seen)


def test_dnc_config_validation():
    with pytest.raises(ValueError):
        DncConfig(length_limit=1)
    with pytest.raises(ValueError):
        DncConfig(grouping="zigzag")


def test_dnc_config_has_no_seed_of_its_own():
    with pytest.raises(TypeError):
        DncConfig(rng_seed=1)


def test_round_one_is_grouped_with_the_sampler_seed():
    g, source, candidates = tournament_fixture(9)
    dnc = DncConfig(length_limit=3, grouping="random_seeded")
    with helpers.built(oracle_cfg(g, source, candidates[4])) as oracle:
        for seed in (3, 5):
            trace = predict(
                g, source, "authored_by", candidates, FAST_SAMPLER.with_seed(seed), PROMPT,
                oracle, dnc,
            )
            expected = partition(candidates, 3, "random_seeded", seed)
            assert trace.rounds[0].sets == tuple(map(tuple, expected))


# -- one request ahead against http_llm ------------------------------------------


def http_backend(url, **kwargs):
    return make_scorer(ScorerBackendConfig(
        kind="http_llm", endpoint_url=url, model_name="m", timeout=5.0, backoff=0.0, **kwargs,
    ))


def test_unknown_candidate_raises_before_any_request(keep_alive):
    g, source, candidates = tournament_fixture(6)
    backend = http_backend(keep_alive.url)
    # the unknown id sits in the last set, after three sets could have gone out
    with pytest.raises(UnknownNodeError):
        predict(
            g, source, "authored_by", [*candidates, len(g)], FAST_SAMPLER, PROMPT, backend,
            DncConfig(length_limit=2, grouping="sequential"),
        )
    backend.close()
    assert keep_alive.seen == [] and keep_alive.connections == 0


def test_wrongly_typed_candidate_raises_before_any_request(keep_alive):
    g, source, candidates = tournament_fixture(6)
    backend = http_backend(keep_alive.url)
    # a field among the authors, in the last set, after three sets could have gone out
    with pytest.raises(ValueError, match="has type 'field', expected 'author'"):
        predict(
            g, source, "authored_by", [*candidates, g.id_of("f0")], FAST_SAMPLER, PROMPT,
            backend, DncConfig(length_limit=2, grouping="sequential"),
        )
    backend.close()
    assert keep_alive.seen == [] and keep_alive.connections == 0


def failing_build(monkeypatch, at_call: int) -> None:
    """Make the tournament's ``at_call``-th ``build_prompt`` call raise."""
    real = lpnl.prompts.build_prompt
    calls = []

    def build(*args, **kwargs):
        calls.append(args)
        if len(calls) == at_call:
            raise RuntimeError("cannot render")
        return real(*args, **kwargs)

    monkeypatch.setattr(lpnl.tournament, "build_prompt", build)


def build_prompt_text(g, source, members):
    anchors = lpnl.sampling.anchors_for(g, (source, *members), FAST_SAMPLER)
    return lpnl.prompts.build_prompt(source, "authored_by", members, anchors, g, PROMPT).text


def test_build_failure_after_a_sent_set_scores_that_set_first(keep_alive, monkeypatch):
    g, source, candidates = tournament_fixture(9)
    dnc = DncConfig(length_limit=3, grouping="sequential")
    traces = []
    # fixed_index 0 answers as the endpoint does, with the first candidate
    for backend in (make_scorer(ScorerBackendConfig(kind="fixed_index")),
                    http_backend(keep_alive.url, max_in_flight=1)):
        failing_build(monkeypatch, at_call=2)
        with pytest.raises(PredictionAborted, match="set scoring failed: cannot render") as excinfo:
            predict(g, source, "authored_by", candidates, FAST_SAMPLER, PROMPT, backend, dnc)
        traces.append(excinfo.value.trace)
        close_scorer(backend)
    set_by_set, ahead = traces
    assert ahead == set_by_set
    assert ahead.rounds == (Round(
        (tuple(candidates[:3]), tuple(candidates[3:6]), tuple(candidates[6:])), (candidates[0],),
    ),)
    assert ahead.final is None and ahead.scorer_calls == 1
    assert sorted(ahead.tie_scores) == sorted(candidates)
    assert [body["prompt"] for _, _, body in keep_alive.seen] == [
        build_prompt_text(g, source, candidates[:3])
    ]


def test_sent_set_that_fails_is_the_failure_when_the_next_build_fails(keep_alive, monkeypatch):
    # a set-by-set run scores set 1, fails there, and never builds set 2
    g, source, candidates = tournament_fixture(9)
    keep_alive.replies = [(400, b"unknown model", {})]
    failing_build(monkeypatch, at_call=2)
    backend = http_backend(keep_alive.url, max_in_flight=1)
    with pytest.raises(PredictionAborted, match=r"request rejected \(400\)") as excinfo:
        predict(g, source, "authored_by", candidates, FAST_SAMPLER, PROMPT, backend,
                DncConfig(length_limit=3, grouping="sequential"))
    backend.close()
    assert excinfo.value.trace.rounds[0].winners == ()
    assert len(keep_alive.seen) == 1


def test_predict_leaves_the_backend_open_for_its_caller(keep_alive, monkeypatch):
    closed = []
    real_close = lpnl.scoring.HttpLlmScorer.close

    def recording_close(self):
        closed.append(self)
        real_close(self)

    monkeypatch.setattr(lpnl.scoring.HttpLlmScorer, "close", recording_close)
    g, source, candidates = tournament_fixture(4)
    backend = http_backend(keep_alive.url)
    try:
        predict(g, source, "authored_by", candidates, FAST_SAMPLER, PROMPT, backend, DncConfig())
        keep_alive.replies = [(400, b"no", {})]
        with pytest.raises(PredictionAborted):
            predict(g, source, "authored_by", candidates, FAST_SAMPLER, PROMPT, backend,
                    DncConfig())
        assert closed == []  # after a complete and an aborted run alike
    finally:
        backend.close()
    assert closed == [backend]


@pytest.mark.parametrize("width", [1, 2, 4])
def test_aborted_run_is_the_same_sent_ahead_or_scored_directly(keep_alive, monkeypatch, width):
    g, source, candidates = tournament_fixture(9)
    dnc = DncConfig(length_limit=3, grouping="sequential")

    def aborted():
        # set 1 is answered (None: the endpoint names the first candidate); set 2
        # is retried once, then rejected
        keep_alive.replies = [None, (503, b"busy", {"Retry-After": "0"}),
                              (400, b"unknown model", {})]
        keep_alive.seen.clear()
        backend = http_backend(keep_alive.url, max_in_flight=width, max_retries=3)
        with pytest.raises(PredictionAborted, match=r"request rejected \(400\)") as excinfo:
            predict(g, source, "authored_by", candidates, FAST_SAMPLER, PROMPT, backend, dnc)
        for _ in range(width):
            assert backend._gate.acquire(blocking=False)
        backend.close()
        return excinfo.value.trace, [body["prompt"] for _, _, body in keep_alive.seen]

    with monkeypatch.context() as patch:
        patch.delattr(lpnl.scoring.HttpLlmScorer, "send")
        direct, direct_prompts = aborted()
    ahead, prompts = aborted()
    assert ahead == direct and ahead.rounds[0].winners == (candidates[0],)
    second = build_prompt_text(g, source, candidates[3:6])
    assert prompts == direct_prompts == [build_prompt_text(g, source, candidates[:3]), second,
                                         second]


def test_threads_sharing_one_backend_keep_one_request_each(keep_alive):
    # more threads than slots and cores, switching threads as often as the
    # interpreter allows: every thread keeps its own sent request, the slots
    # bound what is in flight, and each one is free again at the end
    g, source, candidates = tournament_fixture(20)
    dnc = DncConfig(length_limit=3, grouping="sequential")
    expected = predict(g, source, "authored_by", candidates, FAST_SAMPLER, PROMPT,
                       make_scorer(ScorerBackendConfig(kind="fixed_index")), dnc)
    backend = http_backend(keep_alive.url, max_in_flight=3)
    traces, errors = [], []

    def work():
        try:
            for _ in range(3):
                traces.append(predict(g, source, "authored_by", candidates, FAST_SAMPLER, PROMPT,
                                      backend, dnc))
        except Exception as exc:  # reported below, on the test's thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, daemon=True) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == [] and traces == [expected] * 18
    assert len(keep_alive.seen) == 18 * expected.scorer_calls
    assert keep_alive.in_flight_peak <= 3 and keep_alive.connections <= 3
    for _ in range(3):
        assert backend._gate.acquire(blocking=False)
    backend.close()
