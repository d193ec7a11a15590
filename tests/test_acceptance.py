"""Acceptance criteria, one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import json
import subprocess
import sys
import time
from contextlib import contextmanager

import numpy as np
import pytest
from scipy import stats

import helpers
from lpnl.datagen import DatagenConfig, generate_examples, leakage_audit
from lpnl.evaluation import (
    EvalTask,
    metric_hits1,
    metric_mrr,
    metric_ndcg,
    run_benchmark,
)
from lpnl.graph import EdgeMask, EdgeType, HetGraph, NodeType
from lpnl.prompts import (
    BudgetUnsatisfiableError,
    PromptConfig,
    build_prompt,
)
from lpnl.sampling import (
    AnchorList,
    SamplerConfig,
    layer_sampling_probs,
    ppr_approx,
    sample_subgraph,
    top_k_anchors,
)
from lpnl.scoring import ScorerBackendConfig
from lpnl.synth import make_academic_graph, make_disambiguation_tasks, write_task_file
from lpnl.tournament import DncConfig, predict


@contextmanager
def criterion(number: int, title: str):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number} ({title}): FAIL")
        raise
    print(f"[acceptance] criterion {number} ({title}): PASS")


def test_criterion_1_tournament_arithmetic():
    """100 candidates at limit 5: exactly 20 first-round sets, 3 rounds, <1s."""
    with criterion(1, "tournament arithmetic"):
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
        nodes = [("s", "paper", "the source paper")]
        edges = []
        for j in range(5):
            nodes.append((f"f{j}", "field", f"field {j}"))
            edges.append(("s", f"f{j}", "about"))
        for i in range(100):
            nodes.append((f"c{i}", "author", f"author number {i}"))
            edges.append((f"c{i}", f"f{i % 5}", "expert_in"))
        g = HetGraph(node_types, edge_types, nodes, edges)
        candidates = [g.id_of(f"c{i}") for i in range(100)]
        cfg = ScorerBackendConfig(kind="fixed_index", fixed_index=0, max_in_flight=1)
        with helpers.built(cfg) as scorer:
            started = time.perf_counter()
            trace = predict(
                g, g.id_of("s"), "authored_by", candidates,
                SamplerConfig(hops=1, layer_budget=8, anchor_k=5, rng_seed=0),
                PromptConfig(),
                scorer,
                DncConfig(length_limit=5, grouping="random_seeded"),
            )
            elapsed = time.perf_counter() - started
        assert len(trace.rounds[0].sets) == 20
        assert len(trace.rounds) == 3
        assert trace.scorer_calls == 25
        assert elapsed < 1.0, f"took {elapsed:.2f}s"


def test_criterion_2_ppr_matches_dense_oracle():
    """Forward push at 1e-6 tolerance matches the dense solve; top-10 identical.

    Symmetric leaves produce bitwise-equal oracle scores; when such a tie
    straddles the rank-10 boundary "the top-10 set" is not unique and set
    identity is ill-posed. Fixtures are therefore drawn until the boundary
    gap exceeds the push error bound; the agreement checks themselves run
    unweakened on all 50 accepted subgraphs.
    """
    with criterion(2, "PPR oracle equivalence"):
        started = time.perf_counter()
        rng = np.random.default_rng(42)
        accepted = 0
        trial = 0
        while accepted < 50:
            trial += 1
            assert trial < 200, "fixture generator failed to find separable graphs"
            n = int(rng.integers(60, 201))
            g = helpers.random_het_graph(n, seed=1000 + trial, avg_degree=5.0)
            center = int(rng.integers(n))
            sub = sample_subgraph(
                g, center, SamplerConfig(hops=2, layer_budget=10**6, anchor_k=10)
            )
            cfg = SamplerConfig(push_tolerance=1e-6, anchor_k=10)
            oracle = helpers.ppr_dense_solve(sub, center, cfg.alpha)
            ranked = sorted((s for v, s in oracle.items() if v != center), reverse=True)
            if len(ranked) > 10 and ranked[9] - ranked[10] < 1e-5:
                continue  # top-10 not uniquely defined; draw another fixture
            accepted += 1
            approx = ppr_approx(sub, center, cfg)
            assert set(approx) == set(oracle)
            worst = max(abs(approx[v] - oracle[v]) for v in oracle)
            assert worst <= 1e-4, f"linf {worst} on trial {trial}"
            approx.pop(center)
            oracle.pop(center)
            key = lambda kv: (-kv[1], kv[0])
            top_a = {v for v, _ in sorted(approx.items(), key=key)[:10]}
            top_o = {v for v, _ in sorted(oracle.items(), key=key)[:10]}
            assert top_a == top_o, f"top-10 sets differ on trial {trial}"
        elapsed = time.perf_counter() - started
        assert elapsed < 10.0, f"took {elapsed:.2f}s"


def _profile_fixture():
    """Hub with two node types of controlled degrees hanging off it."""
    degrees_a = [1, 2, 3, 4, 5]
    degrees_b = [2, 4, 6, 8]
    node_types = [
        NodeType("hub", 0, "HB"),
        NodeType("ta", 1, "TA"),
        NodeType("tb", 2, "TB"),
        NodeType("pad", 3, "PD"),
    ]
    edge_types = [
        EdgeType("hub_a", "hub", "ta"),
        EdgeType("hub_b", "hub", "tb"),
        EdgeType("a_pad", "ta", "pad"),
        EdgeType("b_pad", "tb", "pad"),
    ]
    nodes = [("hub", "hub", "the hub")]
    edges = []
    pad = 0
    for i, extra in enumerate(degrees_a):
        nodes.append((f"a{i}", "ta", f"ta node {i}"))
        edges.append(("hub", f"a{i}", "hub_a"))
        for _ in range(extra - 1):  # one degree comes from the hub edge
            nodes.append((f"pad{pad}", "pad", f"pad {pad}"))
            edges.append((f"a{i}", f"pad{pad}", "a_pad"))
            pad += 1
    for i, extra in enumerate(degrees_b):
        nodes.append((f"b{i}", "tb", f"tb node {i}"))
        edges.append(("hub", f"b{i}", "hub_b"))
        for _ in range(extra - 1):
            nodes.append((f"pad{pad}", "pad", f"pad {pad}"))
            edges.append((f"b{i}", f"pad{pad}", "b_pad"))
            pad += 1
    g = HetGraph(node_types, edge_types, nodes, edges)
    return g, degrees_a, degrees_b


def test_criterion_3_squared_degree_sampling_fidelity():
    """Seeded runs follow the squared-degree law; type budgets stay balanced."""
    with criterion(3, "sampling fidelity"):
        g, degrees_a, degrees_b = _profile_fixture()
        hub = g.id_of("hub")
        # probabilities asserted directly first
        ids_a = [g.id_of(f"a{i}") for i in range(len(degrees_a))]
        probs = layer_sampling_probs(g, ids_a, "ta")
        weights = np.array(degrees_a, dtype=float) ** 2
        for node_id, deg_sq in zip(ids_a, weights):
            assert probs[node_id] == pytest.approx(deg_sq / weights.sum(), abs=1e-12)

        # budget 1 per type makes per-run selection probabilities exactly the
        # squared-degree law (no without-replacement correction)
        runs = 10_000
        counts_a = np.zeros(len(degrees_a))
        counts_b = np.zeros(len(degrees_b))
        for seed in range(runs):
            cfg = SamplerConfig(hops=1, layer_budget=1, anchor_k=1, rng_seed=seed)
            sub = sample_subgraph(g, hub, cfg)
            for v in sub.layers[0]:
                name = g.key_of(v)
                if name.startswith("a"):
                    counts_a[int(name[1:])] += 1
                elif name.startswith("b"):
                    counts_b[int(name[1:])] += 1
        for counts, degrees in ((counts_a, degrees_a), (counts_b, degrees_b)):
            weights = np.array(degrees, dtype=float) ** 2
            expected = runs * weights / weights.sum()
            _, p = stats.chisquare(counts, expected)
            assert p > 0.01, f"chi-square p={p}"

        # 100:1 cross-type degree skew still fills both type budgets
        node_types = [
            NodeType("hub", 0, "HB"), NodeType("heavy", 1, "HV"),
            NodeType("light", 2, "LT"), NodeType("pad", 3, "PD"),
        ]
        edge_types = [
            EdgeType("h_heavy", "hub", "heavy"), EdgeType("h_light", "hub", "light"),
            EdgeType("heavy_pad", "heavy", "pad"),
        ]
        nodes = [("hub", "hub", "hub")]
        edges = []
        for i in range(12):
            nodes.append((f"hv{i}", "heavy", f"heavy {i}"))
            edges.append(("hub", f"hv{i}", "h_heavy"))
            for j in range(100):
                nodes.append((f"pd{i}_{j}", "pad", f"pad {i} {j}"))
                edges.append((f"hv{i}", f"pd{i}_{j}", "heavy_pad"))
            nodes.append((f"lt{i}", "light", f"light {i}"))
            edges.append(("hub", f"lt{i}", "h_light"))
        skew = HetGraph(node_types, edge_types, nodes, edges)
        sub = sample_subgraph(
            skew, skew.id_of("hub"), SamplerConfig(hops=1, layer_budget=8, anchor_k=8)
        )
        per_type = {"heavy": 0, "light": 0}
        for v in sub.layers[0]:
            per_type[skew.type_of(v).name] += 1
        assert per_type == {"heavy": 8, "light": 8}


def test_criterion_4_tournament_soundness():
    """An always-correct scorer wins every configuration; oracle Hits@1 is 1."""
    with criterion(4, "tournament soundness"):
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
        nodes = [("s", "paper", "source paper text")]
        edges = []
        for j in range(3):
            nodes.append((f"f{j}", "field", f"field {j}"))
            edges.append(("s", f"f{j}", "about"))
        for i in range(30):
            nodes.append((f"c{i}", "author", f"author {i}"))
            edges.append((f"c{i}", f"f{i % 3}", "expert_in"))
        g = HetGraph(node_types, edge_types, nodes, edges)
        source = g.id_of("s")
        all_candidates = [g.id_of(f"c{i}") for i in range(30)]
        fast = SamplerConfig(hops=1, layer_budget=2, anchor_k=2,
                             ppr_mode="approximate_push")
        prompt_cfg = PromptConfig(token_budget=2048)
        for n in range(1, 31):
            pool = all_candidates[:n]
            target = pool[(n * 7) % n]
            cfg = ScorerBackendConfig(
                kind="oracle_truth",
                truth_pairs=frozenset({(source, target)}),
                max_in_flight=1,
            )
            with helpers.built(cfg) as scorer:
                for limit in (2, 3, 5):
                    for grouping in ("sequential", "random_seeded"):
                        for seed in (0, 1):
                            dnc = DncConfig(length_limit=limit, grouping=grouping)
                            trace = predict(
                                g, source, "authored_by", pool, fast.with_seed(seed),
                                prompt_cfg, scorer, dnc,
                            )
                            assert trace.final == target

        # benchmark equivalence on the bundled synthetic graph
        synth = make_academic_graph()
        raw = make_disambiguation_tasks(synth, n_tasks=20, candidates_per_task=6, seed=3)
        tasks = [
            EvalTask(
                source_id=synth.id_of(t["source_id"]),
                relation=t["relation"],
                candidate_ids=tuple(synth.id_of(c) for c in t["candidate_ids"]),
                truth_id=synth.id_of(t["truth_id"]),
            )
            for t in raw
        ]
        report = run_benchmark(
            tasks, synth,
            scorer_cfg=ScorerBackendConfig(kind="oracle_truth", max_in_flight=1),
        )
        assert report.hits_at_1 == 1.0
        assert report.mrr == 1.0


def test_criterion_5_token_discipline():
    """10^4 randomized prompts: within budget or an explicit budget error."""
    with criterion(5, "token discipline"):
        rng = np.random.default_rng(7)
        node_types = [NodeType("s", 0, "SS"), NodeType("c", 1, "CC")]
        edge_types = [EdgeType("rel", "s", "c")]
        words = ["flux", "manifold", "kernel", "osmotic", "granular", "spline"]

        def text(max_len):
            length = int(rng.integers(1, max_len))
            chunks = []
            while sum(len(w) + 1 for w in chunks) < length:
                chunks.append(words[int(rng.integers(len(words)))])
            return " ".join(chunks) or "stub"

        nodes = [(f"s{i}", "s", text(2000)) for i in range(40)]
        nodes += [(f"c{i}", "c", text(3000)) for i in range(180)]
        g = HetGraph(node_types, edge_types, nodes, [])
        sources = [g.id_of(f"s{i}") for i in range(40)]
        cands = [g.id_of(f"c{i}") for i in range(180)]
        anchor_pool = {
            v: AnchorList(
                v,
                tuple(
                    (int(c), 1.0 / (k + 1))
                    for k, c in enumerate(rng.choice(cands, size=8, replace=False))
                    if int(c) != v
                ),
            )
            for v in sources + cands
        }
        cfg = PromptConfig(token_budget=1024)
        emitted = 0
        refused = 0
        for _ in range(10_000):
            source = sources[int(rng.integers(len(sources)))]
            count = int(rng.integers(1, 7))
            chosen = [int(c) for c in rng.choice(cands, size=count, replace=False)]
            try:
                bundle = build_prompt(source, "rel", chosen, anchor_pool, g, cfg)
            except BudgetUnsatisfiableError:
                refused += 1
                continue
            emitted += 1
            assert bundle.token_count <= 1024, "silent overflow"
        assert emitted + refused == 10_000
        assert emitted > 0 and refused > 0  # both regimes exercised


def test_criterion_6_masking_integrity():
    """Masked runs are byte-identical to physically-deleted-edge runs."""
    with criterion(6, "masking integrity"):
        g = helpers.random_het_graph(500, seed=77, avg_degree=5.0)
        rng = np.random.default_rng(5)
        all_edges = [
            (u, v, t) for t in g.edge_types for u, v in g.edges_of_type(t)
        ]
        picks = rng.choice(len(all_edges), size=1000, replace=False)
        cfg = SamplerConfig(hops=2, layer_budget=4, anchor_k=8, rng_seed=3)
        prompt_cfg = PromptConfig(token_budget=4096)
        for i, pick in enumerate(picks):
            u, v, t_name = all_edges[int(pick)]
            mask = EdgeMask([(u, v, t_name)])
            stripped = helpers.remove_edge_copy(g, u, v, t_name)
            masked_u = top_k_anchors(g, u, cfg, mask)
            removed_u = top_k_anchors(stripped, u, cfg)
            assert masked_u == removed_u
            masked_v = top_k_anchors(g, v, cfg, mask)
            removed_v = top_k_anchors(stripped, v, cfg)
            assert masked_v == removed_v
            bare_v = AnchorList(v, ())
            rendered_masked = build_prompt(u, t_name, [v], {u: masked_u, v: bare_v}, g,
                                           prompt_cfg).text
            rendered_removed = build_prompt(u, t_name, [v], {u: removed_u, v: bare_v},
                                            stripped, prompt_cfg).text
            assert rendered_masked == rendered_removed
            if i % 10 == 0:
                target_type = g.edge_type(t_name).target_type
                pool = [c for c in g.nodes_of_type(target_type) if c != u][:3]
                anchors_m = {u: masked_u}
                anchors_r = {u: removed_u}
                for c in pool:
                    anchors_m[c] = top_k_anchors(g, c, cfg, mask)
                    anchors_r[c] = top_k_anchors(stripped, c, cfg)
                full_m = build_prompt(u, t_name, pool, anchors_m, g, prompt_cfg)
                full_r = build_prompt(u, t_name, pool, anchors_r, stripped, prompt_cfg)
                assert full_m.text == full_r.text

        # audit side: a masked corpus carries zero violations
        corpus_graph = helpers.authorship_graph(n_papers=120, n_authors=40, seed=13)
        corpus = list(
            generate_examples(
                corpus_graph,
                DatagenConfig(relation="authored_by", num_examples=200, rng_seed=4),
                SamplerConfig(hops=1, layer_budget=4, anchor_k=4),
                PromptConfig(),
            )
        )
        report = leakage_audit(corpus, corpus_graph)
        assert report.examples_scanned == 200
        assert report.ok, report.violations[:3]


def test_criterion_7_metric_correctness():
    """Metric functions agree with an independent implementation to 1e-12."""
    with criterion(7, "metric correctness"):
        rng = np.random.default_rng(3)
        for _ in range(1000):
            n = int(rng.integers(1, 60))
            ranking = [int(x) for x in rng.permutation(n)]
            truth = ranking[int(rng.integers(n))]
            ndcg_ref, mrr_ref, hits_ref = helpers.reference_metrics(ranking, truth)
            assert abs(metric_ndcg(ranking, truth) - ndcg_ref) < 1e-12
            assert abs(metric_mrr(ranking, truth) - mrr_ref) < 1e-12
            assert abs(metric_hits1(ranking, truth) - hits_ref) < 1e-12
            assert (
                metric_hits1(ranking, truth)
                <= metric_mrr(ranking, truth) + 1e-12
                <= metric_ndcg(ranking, truth) + 2e-12
            )


@pytest.fixture(scope="module")
def synth_on_disk(tmp_path_factory):
    from lpnl.graph import save_graph

    root = tmp_path_factory.mktemp("synth")
    g = make_academic_graph()
    nodes, edges, schema = (
        str(root / "nodes.tsv"),
        str(root / "edges.tsv"),
        str(root / "schema.json"),
    )
    save_graph(g, nodes, edges, schema)
    tasks_path = str(root / "tasks.ndjson")
    write_task_file(tasks_path, make_disambiguation_tasks(g, n_tasks=40, candidates_per_task=6, seed=11))
    return root, [
        "--nodes", nodes, "--edges", edges, "--schema", schema,
    ], tasks_path


def test_criterion_8_end_to_end_cli(synth_on_disk):
    """`lpnl eval` on the ~10^4-node graph: <60s, content beats position."""
    with criterion(8, "end-to-end offline run"):
        root, graph_flags, tasks_path = synth_on_disk

        def run_eval(backend_flags, out_name):
            out = str(root / out_name)
            started = time.perf_counter()
            result = subprocess.run(
                [sys.executable, "-m", "lpnl", *graph_flags,
                 "eval", "--tasks", tasks_path, *backend_flags, "--out", out],
                capture_output=True, text=True, timeout=300,
            )
            elapsed = time.perf_counter() - started
            assert result.returncode == 0, result.stderr
            with open(out, encoding="utf-8") as fh:
                return json.load(fh), elapsed

        lexical, t_lex = run_eval(["--backend", "lexical_overlap"], "lexical.json")
        fixed, t_fix = run_eval(
            ["--backend", "fixed_index", "--fixed-index", "0"], "fixed.json"
        )
        assert t_lex < 60.0, f"lexical run took {t_lex:.1f}s"
        assert t_fix < 60.0, f"fixed run took {t_fix:.1f}s"
        assert lexical["tasks"] == 40
        assert lexical["hits_at_1"] > fixed["hits_at_1"], (
            f"lexical {lexical['hits_at_1']} vs fixed {fixed['hits_at_1']}"
        )
