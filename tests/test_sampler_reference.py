"""The sampler against the per-group stage-1 loop and power-iteration PPR it replaced.

The reference below is the earlier sampler: stage 1 builds its RNG up
front, calls ``layer_sampling_probs`` once per (type, layer) group, turns
its dict back into an array and draws with ``Generator.choice`` itself
when the group exceeds the budget, then builds the walk adjacency from
``HetGraph.induced_edges`` triples by indexing and sorting them; stage 2
rebuilds a ``node -> position`` dict in the walk matrix and in each PPR
mode, and computes exact PPR by power iteration. Every ``EgoSubgraph`` and every
forward-push score dict must be exactly equal, key order included. Exact
PPR is now one linear solve, whose rounding differs from power
iteration's: its scores must lie within 1e-10 of the reference's at every
node, in the same node order, and its anchor lists must name the same
nodes in the same order once the tie rule is applied to the reference
scores. The sampler builds its RNG only at a sample's first drawing
group, so the cases where that could diverge must be among those checked.
"""

import json
import math
from collections import deque
from dataclasses import replace

import numpy as np
import pytest

import helpers
from lpnl.cli import main
from lpnl.evaluation import EvalTask, run_benchmark
from lpnl.graph import EdgeMask, EdgeType, HetGraph, NodeType, UnknownNodeError, save_graph
from lpnl.prompts import PromptConfig
from lpnl.sampling import (
    PPR_MODES,
    TIE_EPS,
    AnchorList,
    EgoSubgraph,
    SamplerConfig,
    _draw_without_replacement,
    _squared_degree_probs,
    layer_sampling_probs,
    ppr_approx,
    ppr_exact,
    sample_subgraph,
    top_k_anchors,
)
from lpnl.scoring import ScorerBackendConfig
from lpnl.synth import SynthSpec, make_academic_graph, make_disambiguation_tasks
from lpnl.tournament import DncConfig

# solve against power iteration, per node: the contract of ppr_exact
SCORE_TOL = 1e-10


def _ref_layer_sampling_probs(g, frontier, type_name, mask=None):
    members = sorted(set(int(v) for v in frontier))
    for v in members:
        if g.type_of(v).name != type_name:
            raise ValueError(f"frontier node {v} is not of type {type_name!r}")
    if not members:
        return {}
    degs = g.degrees(members, mask).astype(np.float64)
    weights = degs * degs
    total = weights.sum()
    if total <= 0.0:
        probs = np.full(len(members), 1.0 / len(members))
    else:
        probs = weights / total
    return {v: float(p) for v, p in zip(members, probs)}


def _ref_sample_subgraph(g, center, cfg, mask, draws):
    """The earlier stage 1, which builds its RNG up front and reads every group's degrees.

    Appends each hop's number of type groups that drew to ``draws``.
    """
    g._check_node(center)
    rng = np.random.default_rng([cfg.rng_seed, center])
    visited = {center}
    layers = []
    frontier = [center]
    for _ in range(cfg.hops):
        candidates = sorted({w for u in frontier for w in g.all_neighbors(u, mask)} - visited)
        if not candidates:
            layers.append(())
            frontier = []
            draws.append(0)
            continue
        by_type = {}
        for v in candidates:
            by_type.setdefault(g.type_of(v).name, []).append(v)
        layer = []
        drawn = 0
        for type_name in sorted(by_type):
            members = by_type[type_name]
            prob_map = _ref_layer_sampling_probs(g, members, type_name, mask)
            probs = np.array([prob_map[v] for v in members])
            if len(members) > cfg.layer_budget:
                drawn += 1
                picked = rng.choice(len(members), size=cfg.layer_budget, replace=False, p=probs)
                members = [members[i] for i in picked]
            layer.extend(members)
        draws.append(drawn)
        layer.sort()
        layers.append(tuple(layer))
        visited.update(layer)
        frontier = layer
    order = [center] + [v for layer in layers for v in layer]
    triples = g.induced_edges(visited, mask)
    adjacency = tuple(tuple(neigh) for neigh in _ref_index_and_sort(order, triples))
    return EgoSubgraph(center, tuple(layers), adjacency, g, mask)


def _ref_index_and_sort(order, triples):
    """Neighbor positions per node from typed edge triples, each list sorted."""
    index = {v: i for i, v in enumerate(order)}
    adj = [[] for _ in order]
    for u, v, _ in triples:
        adj[index[u]].append(index[v])
        adj[index[v]].append(index[u])
    for lst in adj:
        lst.sort()
    return adj


def _ref_adjacency(sub):
    order = list(sub.nodes)
    return order, _ref_index_and_sort(order, sub.induced_edges)


def _ref_walk_matrix(sub, center):
    order, adj = _ref_adjacency(sub)
    index = {v: i for i, v in enumerate(order)}
    if center not in index:
        raise UnknownNodeError(center)
    n = len(order)
    m = np.zeros((n, n), dtype=np.float64)
    ci = index[center]
    for u, neigh in enumerate(adj):
        if neigh:
            share = 1.0 / len(neigh)
            for w in neigh:
                m[w, u] += share
        else:
            m[ci, u] = 1.0
    return order, m


def _ref_ppr_exact(sub, center, alpha):
    order, m = _ref_walk_matrix(sub, center)
    n = len(order)
    index = {v: i for i, v in enumerate(order)}
    e = np.zeros(n)
    e[index[center]] = 1.0
    beta = 1.0 - alpha
    steps = max(1, math.ceil(math.log(2.5e-11) / math.log(beta)))
    alpha_e = alpha * e
    beta_m = beta * m
    pi = e.copy()
    scratch = np.empty_like(pi)
    for _ in range(steps):
        np.dot(beta_m, pi, out=scratch)
        scratch += alpha_e
        pi, scratch = scratch, pi
    for _ in range(100_000):
        np.dot(beta_m, pi, out=scratch)
        scratch += alpha_e
        delta = np.abs(scratch - pi).sum()
        pi, scratch = scratch, pi
        if delta < 1e-10:
            break
    return {v: float(pi[i]) for i, v in enumerate(order)}


def _ref_ppr_approx(sub, center, cfg):
    order, adj = _ref_adjacency(sub)
    index = {v: i for i, v in enumerate(order)}
    if center not in index:
        raise UnknownNodeError(center)
    n = len(order)
    ci = index[center]
    alpha = cfg.alpha
    r_max = cfg.push_tolerance
    estimate = [0.0] * n
    residual = [0.0] * n
    residual[ci] = 1.0
    degree = [len(neigh) for neigh in adj]
    threshold = [max(r_max * d, r_max) for d in degree]
    queue = deque([ci])
    in_queue = [False] * n
    in_queue[ci] = True
    while queue:
        u = queue.popleft()
        in_queue[u] = False
        res = residual[u]
        if res < threshold[u]:
            continue
        estimate[u] += alpha * res
        residual[u] = 0.0
        spread = (1.0 - alpha) * res
        if degree[u] == 0:
            residual[ci] += spread
            if not in_queue[ci] and residual[ci] >= threshold[ci]:
                queue.append(ci)
                in_queue[ci] = True
            continue
        share = spread / degree[u]
        for w in adj[u]:
            residual[w] += share
            if not in_queue[w] and residual[w] >= threshold[w]:
                queue.append(w)
                in_queue[w] = True
    return {v: estimate[index[v]] for v in order}


def _ref_scores(sub, center, cfg):
    if cfg.ppr_mode == "exact_power_iteration":
        return _ref_ppr_exact(sub, center, cfg.alpha)
    return _ref_ppr_approx(sub, center, cfg)


def _ref_tie_order(scores):
    """The tie rule: sort by score, then re-sort each run of scores within TIE_EPS by id."""
    ranked = sorted(scores.items(), key=lambda item: (-item[1], item[0]))
    out, start = [], 0
    for i in range(1, len(ranked) + 1):
        if i == len(ranked) or ranked[i - 1][1] - ranked[i][1] > TIE_EPS:
            out.extend(sorted(ranked[start:i]))
            start = i
    return out


def _ref_anchors(scores, center, cfg):
    scores = dict(scores)
    center_score = scores.pop(center, 0.0)
    entries = tuple((v, float(s)) for v, s in _ref_tie_order(scores)[: cfg.anchor_k])
    return AnchorList(center=center, entries=entries, center_score=float(center_score))


def _assert_scores_close(scores, ref_scores, context):
    assert list(scores) == list(ref_scores), context
    worst = max(abs(scores[v] - ref_scores[v]) for v in ref_scores)
    assert worst <= SCORE_TOL, (context, worst)


def _assert_anchors_close(anchors, expected, context):
    assert anchors.center == expected.center, context
    assert tuple(v for v, _ in anchors.entries) == tuple(v for v, _ in expected.entries), context
    assert abs(anchors.center_score - expected.center_score) <= SCORE_TOL, context
    for (_, s), (_, ref) in zip(anchors.entries, expected.entries):
        assert abs(s - ref) <= SCORE_TOL, context


def _incident_mask(g, center, pick):
    """A mask on one of ``center``'s edges, or None for an isolated center."""
    neighbors = g.all_neighbors(center)
    if not neighbors:
        return None
    w = neighbors[pick % len(neighbors)]
    t_name = next(t for t in g.edge_types if w in g.neighbors(center, t))
    return EdgeMask([(center, w, t_name)])


def _assert_matches_reference(g, center, cfg, mask):
    """Compare both stages with the reference; return its drawing groups per hop."""
    sub = sample_subgraph(g, center, cfg, mask)
    draws = []
    ref = _ref_sample_subgraph(g, center, cfg, mask, draws)
    assert sub == ref, (center, cfg, mask)
    for mode in PPR_MODES:
        mode_cfg = replace(cfg, ppr_mode=mode)
        context = (center, mode_cfg, mask)
        ref_scores = _ref_scores(ref, center, mode_cfg)
        anchors = top_k_anchors(g, center, mode_cfg, mask)
        expected = _ref_anchors(ref_scores, center, mode_cfg)
        if mode == "approximate_push":
            scores = ppr_approx(sub, center, mode_cfg)
            assert list(scores.items()) == list(ref_scores.items()), context
            assert anchors == expected, context
        else:
            _assert_scores_close(ppr_exact(sub, center, cfg.alpha), ref_scores, context)
            _assert_anchors_close(anchors, expected, context)
    return tuple(draws)


def _assert_reaches_lazy_rng_cases(draws):
    """Each case where an RNG built at the first drawing group could diverge is met.

    ``draws`` holds the per-hop drawing-group counts of every sample: some
    sample never draws, some first draws in hop 2 or 3, some hop draws two
    or more groups.
    """
    assert any(sum(d) == 0 for d in draws)
    assert any(sum(d) and not d[0] for d in draws)
    assert any(max(d, default=0) >= 2 for d in draws)


@pytest.fixture(scope="module")
def synth_graph():
    return make_academic_graph(SynthSpec(n_topics=40, seed=3))


@pytest.fixture(scope="module")
def bench_graph():
    # the graph of the eval benchmark workloads at seed 0
    return make_academic_graph(SynthSpec(n_topics=40, seed=0))


def test_synth_centers_match_reference(synth_graph):
    g = synth_graph
    rng = np.random.default_rng(11)
    # every venue (there are 40) and 90 of each other type: 310 centers
    centers = []
    for type_name in sorted(g.node_types):
        pool = g.nodes_of_type(type_name)
        centers += [int(v) for v in rng.choice(pool, size=min(90, len(pool)), replace=False)]
    draws = []
    for i, center in enumerate(centers):
        # hops 1-3 against a tight and the default per-type budget, so many
        # hops draw from several type groups
        cfg = SamplerConfig(hops=1 + i % 3, layer_budget=(4, 16)[i // 3 % 2], anchor_k=20)
        for mask in (None, _incident_mask(g, center, i)):
            draws.append(_assert_matches_reference(g, center, cfg, mask))
    _assert_reaches_lazy_rng_cases(draws)


def _degree_skew_graph():
    # the fixture of test_sampling.test_type_balance_under_degree_skew
    node_types = [
        NodeType("hub", 0, "HB"),
        NodeType("heavy", 1, "HV"),
        NodeType("light", 2, "LT"),
        NodeType("pad", 3, "PD"),
    ]
    edge_types = [
        EdgeType("h_heavy", "hub", "heavy"),
        EdgeType("h_light", "hub", "light"),
        EdgeType("heavy_pad", "heavy", "pad"),
    ]
    nodes = [("hub", "hub", "hub node")]
    edges = []
    for i in range(12):
        nodes.append((f"hv{i}", "heavy", f"heavy {i}"))
        edges.append(("hub", f"hv{i}", "h_heavy"))
        for j in range(100):
            nodes.append((f"pad{i}_{j}", "pad", f"pad {i} {j}"))
            edges.append((f"hv{i}", f"pad{i}_{j}", "heavy_pad"))
    for i in range(12):
        nodes.append((f"lt{i}", "light", f"light {i}"))
        edges.append(("hub", f"lt{i}", "h_light"))
    return HetGraph(node_types, edge_types, nodes, edges)


def test_degree_skew_centers_match_reference():
    g = _degree_skew_graph()
    keys = ["hub", "hv0", "hv5", "lt0", "lt7", "pad0_0", "pad3_41", "pad11_99"]
    draws = []
    for i, key in enumerate(keys):
        center = g.id_of(key)
        for hops in (1, 2, 3):
            for budget in (3, 8):
                cfg = SamplerConfig(hops=hops, layer_budget=budget, anchor_k=20)
                for mask in (None, _incident_mask(g, center, i)):
                    draws.append(_assert_matches_reference(g, center, cfg, mask))
    _assert_reaches_lazy_rng_cases(draws)


def test_task_masks_inside_subgraph_match_reference(synth_graph):
    # The eval mask hides source-truth in both orientations. Decoy candidates
    # never reach both endpoints, so the source's and the truth's other
    # neighbors are centers too: their subgraphs hold the masked pair away
    # from the center, often in the last layer, whose rows feed only the walk.
    g = synth_graph
    inner = centers = 0
    draws = []
    for task in make_disambiguation_tasks(g, 12, 6, seed=1):
        source, truth = g.id_of(task["source_id"]), g.id_of(task["truth_id"])
        relation = task["relation"]
        mask = EdgeMask([(source, truth, relation), (truth, source, relation)])
        around = set(g.all_neighbors(source, mask)) | set(g.all_neighbors(truth, mask))
        for center in [g.id_of(c) for c in task["candidate_ids"]] + sorted(around):
            centers += 1
            for hops in (2, 3):
                cfg = SamplerConfig(hops=hops, anchor_k=20)
                draws.append(_assert_matches_reference(g, center, cfg, mask))
                members = set(sample_subgraph(g, center, cfg, mask).nodes) - {center}
                inner += source in members and truth in members
    assert centers >= 100
    assert inner >= 10
    _assert_reaches_lazy_rng_cases(draws)


def _self_loop_parallel_graph():
    # a self-loop at n0 and n2; n0-n1 and n2-n3 joined by both edge types
    node_types = [NodeType("n", 0, "ND")]
    edge_types = [EdgeType("link", "n", "n"), EdgeType("tie", "n", "n")]
    nodes = [(f"n{i}", "n", f"node {i}") for i in range(7)]
    edges = [
        ("n0", "n0", "link"),
        ("n0", "n1", "link"),
        ("n0", "n1", "tie"),
        ("n1", "n2", "link"),
        ("n2", "n2", "tie"),
        ("n2", "n3", "link"),
        ("n3", "n2", "tie"),
        ("n1", "n4", "tie"),
        ("n3", "n5", "link"),
        ("n5", "n6", "tie"),
    ]
    return HetGraph(node_types, edge_types, nodes, edges)


def test_self_loops_and_parallel_edges_match_reference():
    g = _self_loop_parallel_graph()
    n = {f"n{i}": g.id_of(f"n{i}") for i in range(7)}
    masks = [
        None,
        EdgeMask([(n["n0"], n["n0"], "link")]),
        EdgeMask([(n["n1"], n["n0"], "tie")]),  # reversed orientation
        EdgeMask([(n["n0"], n["n1"], "link"), (n["n0"], n["n1"], "tie")]),
        EdgeMask([(n["n2"], n["n2"], "tie"), (n["n2"], n["n3"], "tie")]),
        EdgeMask([(n["n2"], n["n3"], "link"), (n["n2"], n["n3"], "tie"), (n["n0"], n["n0"], "link")]),
    ]
    sub = sample_subgraph(g, n["n2"], SamplerConfig(hops=1))
    # the self-loop gives two entries, each type of n2-n3 its own
    assert sub.adjacency[0].count(0) == 2
    assert sub.adjacency[0].count(sub.nodes.index(n["n3"])) == 2
    for center in n.values():
        for hops in (1, 2, 3):
            for budget in (1, 16):
                cfg = SamplerConfig(hops=hops, layer_budget=budget, anchor_k=20)
                for mask in masks:
                    _assert_matches_reference(g, center, cfg, mask)


def test_push_at_the_centers_threshold_matches_reference(synth_graph):
    # The center starts with residual 1 against its threshold
    # push_tolerance * max(deg, 1): above 1 nothing is pushed and every score
    # is 0; at exactly 1 the center is pushed.
    g = synth_graph
    centers = [v for v in g.nodes_of_type("paper")[:40] if len(g.all_neighbors(v)) >= 2][:5]
    for center in centers:
        for hops in (1, 2, 3):
            sub = sample_subgraph(g, center, SamplerConfig(hops=hops))
            deg = len(sub.adjacency[0])
            for tolerance, pushed in ((1.5 / deg, False), (1.0 / deg, True)):
                cfg = SamplerConfig(hops=hops, ppr_mode="approximate_push",
                                    push_tolerance=tolerance)
                assert (tolerance * max(deg, 1) > 1) is not pushed
                scores = ppr_approx(sub, center, cfg)
                assert list(scores.items()) == list(_ref_ppr_approx(sub, center, cfg).items())
                assert (scores[center] > 0) is pushed
                if not pushed:
                    assert set(scores.values()) == {0.0}


def test_zero_degree_group_draws_match_reference():
    # A candidate keeps the edge it was reached by, so sample_subgraph never
    # meets a zero-degree member; the group step is checked on its own.
    g = helpers.degree_profile_graph({"u": 3, "w": 4, "z": 0, "y": 0, "q": 0, "r": 1, "s": 2})
    hop = list(range(len(g)))  # a hop's candidates: every node, both types
    r = g.id_of("r")
    masks = (None, EdgeMask([(r, g.all_neighbors(r)[0], "x_pad")]))
    for mask in masks:
        degrees = g.degrees(hop, mask)
        group = [i for i, v in enumerate(hop) if g.type_of(v).name == "x"]
        members = [hop[i] for i in group]
        probs = _squared_degree_probs(degrees[group])
        prob_map = _ref_layer_sampling_probs(g, members, "x", mask)
        assert layer_sampling_probs(g, members[::-1] + members, "x", mask) == prob_map
        ref_probs = np.array([prob_map[v] for v in members])
        assert probs.tolist() == ref_probs.tolist()
        positive = {v for v, p in zip(members, probs) if p > 0}
        for take in (5, 6):
            # fewer positive-probability members than the budget: the draw
            # refuses rather than fill with members it could never reach
            assert len(positive) < take < len(members)
            with pytest.raises(ValueError):
                _draw_without_replacement(np.random.default_rng(0), members, probs, take)


def test_solve_anchor_lists_match_power_iteration(bench_graph):
    g = bench_graph
    rng = np.random.default_rng(5)
    centers = [int(v) for v in rng.choice(len(g), size=2000, replace=False)]
    for i, center in enumerate(centers):
        mask = _incident_mask(g, center, i) if i % 2 else None
        for hops in (2, 3):
            cfg = SamplerConfig(hops=hops, anchor_k=50)
            sub = sample_subgraph(g, center, cfg, mask)
            expected = _ref_anchors(_ref_ppr_exact(sub, center, cfg.alpha), center, cfg)
            _assert_anchors_close(top_k_anchors(g, center, cfg, mask), expected, (center, hops, mask))


def test_sample_output_matches_power_iteration(bench_graph, tmp_path):
    # `lpnl sample` prints 8 significant digits: enough to rank, too few to
    # show how the solver rounds (at full precision nearly every line differs)
    g = bench_graph
    files = [str(tmp_path / name) for name in ("nodes.tsv", "edges.tsv", "schema.json")]
    save_graph(g, *files)
    rng = np.random.default_rng(17)
    centers = [int(v) for v in rng.choice(len(g), size=1500, replace=False)]
    out = tmp_path / "sample.ndjson"
    graph_flags = [x for flag, path in zip(("--nodes", "--edges", "--schema"), files)
                   for x in (flag, path)]
    argv = [*graph_flags, "sample", "--out", str(out)]
    assert main(argv + [x for v in centers for x in ("--center", g.key_of(v))]) == 0
    cfg = SamplerConfig()
    expected = []
    for center in centers:
        sub = sample_subgraph(g, center, cfg)
        anchors = _ref_anchors(_ref_ppr_exact(sub, center, cfg.alpha), center, cfg)
        record = {"center": g.key_of(center), "anchors": [
            {"id": g.key_of(v), "score": float(f"{s:.8g}")} for v, s in anchors.entries
        ]}
        expected.append(json.dumps(record, sort_keys=True))
    assert out.read_text().splitlines() == expected


def test_solve_reports_match_power_iteration(bench_graph, monkeypatch):
    # the bench eval shape (hops 2, 50 anchors, L=5, budget 1024, lexical),
    # with 10 candidates per task instead of 30
    g = bench_graph
    tasks = [
        EvalTask(
            source_id=g.id_of(t["source_id"]),
            relation=t["relation"],
            candidate_ids=tuple(g.id_of(c) for c in t["candidate_ids"]),
            truth_id=g.id_of(t["truth_id"]),
        )
        for t in make_disambiguation_tasks(g, 200, 10, seed=1)
    ]
    assert len(tasks) == 200

    def report():
        return run_benchmark(
            tasks, g, SamplerConfig(hops=2, anchor_k=50), PromptConfig(token_budget=1024),
            ScorerBackendConfig(kind="lexical_overlap"), DncConfig(length_limit=5), seeds=(0, 1),
        ).to_json()

    solved = report()
    monkeypatch.setattr("lpnl.sampling.ppr_exact", _ref_ppr_exact)
    assert report() == solved
