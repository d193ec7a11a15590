import numpy as np
import pytest
from scipy import stats

import helpers
from lpnl.graph import EdgeMask, UnknownNodeError
from lpnl.sampling import (
    TIE_EPS,
    SamplerConfig,
    _rank_by_score,
    layer_sampling_probs,
    ppr_approx,
    ppr_exact,
    sample_subgraph,
    top_k_anchors,
)


# -- layer sampling probabilities --------------------------------------------


def test_probs_squared_degree_two_nodes():
    g = helpers.degree_profile_graph({"u": 1, "w": 2})
    probs = layer_sampling_probs(g, [g.id_of("u"), g.id_of("w")], "x")
    assert probs[g.id_of("u")] == pytest.approx(0.2)
    assert probs[g.id_of("w")] == pytest.approx(0.8)
    assert sum(probs.values()) == pytest.approx(1.0, abs=1e-12)


def test_probs_singleton_group():
    g = helpers.degree_profile_graph({"u": 4})
    probs = layer_sampling_probs(g, [g.id_of("u")], "x")
    assert probs == {g.id_of("u"): 1.0}


def test_probs_with_zero_degree_member():
    g = helpers.degree_profile_graph({"u": 3, "w": 4, "z": 0})
    probs = layer_sampling_probs(g, [g.id_of(n) for n in ("u", "w", "z")], "x")
    assert probs[g.id_of("u")] == pytest.approx(9 / 25)
    assert probs[g.id_of("w")] == pytest.approx(16 / 25)
    assert probs[g.id_of("z")] == 0.0


def test_probs_empty_frontier_returns_empty():
    g = helpers.degree_profile_graph({"u": 1})
    assert layer_sampling_probs(g, [], "x") == {}


def test_probs_all_zero_degrees_uniform():
    g = helpers.degree_profile_graph({"u": 0, "w": 0})
    probs = layer_sampling_probs(g, [g.id_of("u"), g.id_of("w")], "x")
    assert probs[g.id_of("u")] == pytest.approx(0.5)
    assert probs[g.id_of("w")] == pytest.approx(0.5)


def test_probs_rejects_wrong_type():
    g = helpers.degree_profile_graph({"u": 1})
    with pytest.raises(ValueError, match="not of type"):
        layer_sampling_probs(g, [g.id_of("u")], "pad")


# -- stage-1 subgraph sampling -------------------------------------------------


def test_small_neighborhood_taken_whole():
    g = helpers.star_graph(3)
    cfg = SamplerConfig(hops=1, layer_budget=16, anchor_k=5)
    sub = sample_subgraph(g, g.id_of("hub"), cfg)
    assert sub.layers[0] == tuple(sorted(g.id_of(f"l{i}") for i in range(3)))
    assert len(set(sub.layers[0])) == 3


def test_path_layers_forced():
    g = helpers.path_graph("abc")
    cfg = SamplerConfig(hops=2, layer_budget=16, anchor_k=5)
    sub = sample_subgraph(g, g.id_of("a"), cfg)
    assert sub.layers == ((g.id_of("b"),), (g.id_of("c"),))


def test_star_sampling_uniform_marginals():
    # equal degrees force uniform selection; frequency test over seeds
    g = helpers.star_graph(30)
    hub = g.id_of("hub")
    counts = np.zeros(len(g))
    runs = 10_000
    for seed in range(runs):
        cfg = SamplerConfig(hops=1, layer_budget=16, anchor_k=5, rng_seed=seed)
        sub = sample_subgraph(g, hub, cfg)
        assert len(sub.layers[0]) == 16
        for v in sub.layers[0]:
            counts[v] += 1
    leaf_counts = np.array([counts[g.id_of(f"l{i}")] for i in range(30)])
    expected = np.full(30, runs * 16 / 30)
    _, p = stats.chisquare(leaf_counts, expected)
    assert p > 0.01


def test_sampling_determinism():
    g = helpers.random_het_graph(200, seed=2)
    cfg = SamplerConfig(hops=2, layer_budget=4, anchor_k=10, rng_seed=123)
    a = sample_subgraph(g, 0, cfg)
    b = sample_subgraph(g, 0, cfg)
    assert a == b
    anchors_a = top_k_anchors(g, 0, cfg)
    anchors_b = top_k_anchors(g, 0, cfg)
    assert anchors_a == anchors_b


def test_layers_disjoint_and_connected():
    g = helpers.random_het_graph(300, seed=4)
    cfg = SamplerConfig(hops=3, layer_budget=5, anchor_k=10, rng_seed=7)
    sub = sample_subgraph(g, 1, cfg)
    seen = {sub.center}
    previous = {sub.center}
    for layer in sub.layers:
        layer_set = set(layer)
        assert not (layer_set & seen)
        for v in layer:
            assert any(u in previous for u in g.all_neighbors(v))
        seen |= layer_set
        previous = layer_set
    member = set(sub.nodes)
    for u, v, _ in sub.induced_edges:
        assert u in member and v in member


def test_induced_edges_closed_over_vertex_set():
    g = helpers.random_het_graph(120, seed=6)
    cfg = SamplerConfig(hops=2, layer_budget=6, anchor_k=10, rng_seed=1)
    sub = sample_subgraph(g, 2, cfg)
    member = set(sub.nodes)
    expected = set()
    for t_name in g.edge_types:
        for u, v in g.edges_of_type(t_name):
            if u in member and v in member:
                expected.add((u, v, t_name))
    assert set(sub.induced_edges) == expected


def test_mask_invisible_vs_physical_removal():
    g = helpers.random_het_graph(150, seed=8)
    t_name = next(iter(g.edge_types))
    edges = g.edges_of_type(t_name)
    assert edges
    u, v = edges[0]
    mask = EdgeMask([(u, v, t_name)])
    stripped = helpers.remove_edge_copy(g, u, v, t_name)
    cfg = SamplerConfig(hops=2, layer_budget=5, anchor_k=10, rng_seed=5)
    for center in (u, v):
        sub_masked = sample_subgraph(g, center, cfg, mask)
        sub_removed = sample_subgraph(stripped, center, cfg)
        assert sub_masked == sub_removed
        assert top_k_anchors(g, center, cfg, mask) == top_k_anchors(stripped, center, cfg)


# -- PPR ------------------------------------------------------------------------


def _full_subgraph(g, center, hops=2):
    cfg = SamplerConfig(hops=hops, layer_budget=10**6, anchor_k=10)
    return sample_subgraph(g, center, cfg)


def test_ppr_exact_two_node_fixed_point():
    # oracle-derived closed form: pi = (1/(2-a), (1-a)/(2-a))
    g = helpers.path_graph("ab")
    sub = _full_subgraph(g, g.id_of("a"), hops=1)
    scores = ppr_exact(sub, g.id_of("a"), 0.15)
    assert scores[g.id_of("a")] == pytest.approx(1 / 1.85, abs=1e-9)
    assert scores[g.id_of("b")] == pytest.approx(0.85 / 1.85, abs=1e-9)


def test_ppr_exact_alpha_one_limit():
    g = helpers.path_graph("abc")
    sub = _full_subgraph(g, g.id_of("a"))
    scores = ppr_exact(sub, g.id_of("a"), 1.0)
    assert scores[g.id_of("a")] == pytest.approx(1.0)
    assert scores[g.id_of("b")] == pytest.approx(0.0)


def test_ppr_exact_matches_dense_solve():
    for seed in range(6):
        g = helpers.random_het_graph(80, seed=seed)
        sub = _full_subgraph(g, seed % len(g))
        exact = ppr_exact(sub, seed % len(g), 0.15)
        oracle = helpers.ppr_dense_solve(sub, seed % len(g), 0.15)
        assert set(exact) == set(oracle)
        for v in oracle:
            assert exact[v] == pytest.approx(oracle[v], abs=1e-8)
        assert sum(exact.values()) == pytest.approx(1.0, abs=1e-9)


def test_ppr_approx_close_to_exact():
    for seed in (1, 2, 3):
        g = helpers.random_het_graph(100, seed=seed)
        sub = _full_subgraph(g, 0)
        cfg = SamplerConfig(push_tolerance=1e-8, anchor_k=10)
        approx = ppr_approx(sub, 0, cfg)
        exact = ppr_exact(sub, 0, cfg.alpha)
        worst = max(abs(approx[v] - exact[v]) for v in exact)
        assert worst < 1e-6


def test_ppr_approx_error_bounded_by_degree_tolerance():
    g = helpers.random_het_graph(150, seed=12)
    sub = _full_subgraph(g, 3)
    cfg = SamplerConfig(push_tolerance=1e-4, anchor_k=10)
    approx = ppr_approx(sub, 3, cfg)
    exact = ppr_exact(sub, 3, cfg.alpha)
    order, adj = sub.adjacency()
    deg = {v: len(adj[i]) for i, v in enumerate(order)}
    for v in exact:
        assert abs(approx[v] - exact[v]) <= cfg.push_tolerance * max(deg[v], 1) + 1e-12


def test_ppr_approx_star_center_largest():
    g = helpers.star_graph(12)
    sub = _full_subgraph(g, g.id_of("hub"), hops=1)
    cfg = SamplerConfig(push_tolerance=1e-7, anchor_k=10)
    scores = ppr_approx(sub, g.id_of("hub"), cfg)
    hub_score = scores[g.id_of("hub")]
    assert all(hub_score > s for v, s in scores.items() if v != g.id_of("hub"))


def test_ppr_top_k_sets_agree_with_oracle():
    for seed in range(5):
        g = helpers.random_het_graph(120, seed=20 + seed)
        sub = _full_subgraph(g, 0)
        cfg = SamplerConfig(push_tolerance=1e-6, anchor_k=10)
        approx = ppr_approx(sub, 0, cfg)
        oracle = helpers.ppr_dense_solve(sub, 0, cfg.alpha)
        approx.pop(0)
        oracle.pop(0)
        top_approx = {v for v, _ in sorted(approx.items(), key=lambda kv: (-kv[1], kv[0]))[:10]}
        top_oracle = {v for v, _ in sorted(oracle.items(), key=lambda kv: (-kv[1], kv[0]))[:10]}
        assert top_approx == top_oracle


def test_ppr_center_outside_subgraph_raises():
    g = helpers.path_graph("abc")
    sub = _full_subgraph(g, g.id_of("a"), hops=1)
    # c is a graph node that was not sampled; len(g) is no node at all
    for center in (g.id_of("c"), len(g)):
        with pytest.raises(UnknownNodeError) as excinfo:
            ppr_exact(sub, center, 0.15)
        assert excinfo.value.args == (center,)
        with pytest.raises(UnknownNodeError) as excinfo:
            ppr_approx(sub, center, SamplerConfig())
        assert excinfo.value.args == (center,)


# -- anchor lists ---------------------------------------------------------------


def test_anchor_list_truncation_noop_when_small():
    g = helpers.path_graph("abc")
    cfg = SamplerConfig(hops=2, layer_budget=16, anchor_k=50)
    anchors = top_k_anchors(g, g.id_of("a"), cfg)
    assert len(anchors) == 2  # whole subgraph minus the center


def test_anchor_order_on_path():
    g = helpers.path_graph("abc")
    cfg = SamplerConfig(hops=2, layer_budget=16, anchor_k=2)
    anchors = top_k_anchors(g, g.id_of("a"), cfg)
    assert anchors.ids() == (g.id_of("b"), g.id_of("c"))
    oracle = helpers.ppr_dense_solve(
        _full_subgraph(g, g.id_of("a")), g.id_of("a"), cfg.alpha
    )
    assert oracle[g.id_of("b")] > oracle[g.id_of("c")]


def test_anchor_scores_non_increasing_and_no_duplicates():
    g = helpers.random_het_graph(200, seed=31)
    cfg = SamplerConfig(hops=2, layer_budget=8, anchor_k=15, rng_seed=2)
    anchors = top_k_anchors(g, 5, cfg)
    scores = [s for _, s in anchors.entries]
    assert scores == sorted(scores, reverse=True)
    ids = anchors.ids()
    assert len(set(ids)) == len(ids)
    assert anchors.center not in ids
    assert len(anchors) <= cfg.anchor_k


# -- the tie rule ----------------------------------------------------------------


def test_tie_rule_orders_noise_perturbed_equal_scores_by_id():
    items = [(7, 0.25 + 3e-11), (3, 0.25 - 2e-11), (5, 0.25), (1, 0.1), (9, 0.4)]
    assert [v for v, _ in _rank_by_score(items)] == [9, 3, 5, 7, 1]
    # the scores travel with their nodes
    assert sorted(_rank_by_score(items)) == sorted(items)


def test_tie_rule_chains_merge():
    # each neighbor lies within TIE_EPS, the ends 1.8 TIE_EPS apart: one group
    step = 0.6 * TIE_EPS
    items = [(4, 0.3), (2, 0.3 - step), (8, 0.3 - 2 * step), (6, 0.3 - 3 * step)]
    items.append((1, 0.3 - 3 * step - 2 * TIE_EPS))
    assert [v for v, _ in _rank_by_score(items)] == [2, 4, 6, 8, 1]


def test_tie_rule_keeps_gaps_above_eps():
    items = [(1, 0.2), (2, 0.2 + 2 * TIE_EPS), (3, 0.2 - 2 * TIE_EPS)]
    assert [v for v, _ in _rank_by_score(items)] == [2, 1, 3]


def test_structurally_tied_anchors_rank_by_id():
    g = helpers.star_graph(12)
    hub = g.id_of("hub")
    anchors = top_k_anchors(g, hub, SamplerConfig(hops=1, layer_budget=16, anchor_k=12))
    assert list(anchors.ids()) == sorted(v for v in range(len(g)) if v != hub)


def test_default_anchor_k_is_50():
    assert SamplerConfig().anchor_k == 50


def test_config_validation():
    with pytest.raises(ValueError):
        SamplerConfig(hops=4)
    with pytest.raises(ValueError):
        SamplerConfig(alpha=0.0)
    with pytest.raises(ValueError):
        SamplerConfig(anchor_k=0)
    with pytest.raises(ValueError):
        SamplerConfig(ppr_mode="monte_carlo")


def test_type_balance_under_degree_skew():
    # heavy type must not crowd out the light type: budgets are per type
    node_types = [
        helpers.NodeType("hub", 0, "HB"),
        helpers.NodeType("heavy", 1, "HV"),
        helpers.NodeType("light", 2, "LT"),
        helpers.NodeType("pad", 3, "PD"),
    ]
    edge_types = [
        helpers.EdgeType("h_heavy", "hub", "heavy"),
        helpers.EdgeType("h_light", "hub", "light"),
        helpers.EdgeType("heavy_pad", "heavy", "pad"),
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
    g = helpers.HetGraph(node_types, edge_types, nodes, edges)
    cfg = SamplerConfig(hops=1, layer_budget=8, anchor_k=20, rng_seed=0)
    sub = sample_subgraph(g, g.id_of("hub"), cfg)
    by_type = {}
    for v in sub.layers[0]:
        by_type.setdefault(g.type_of(v).name, 0)
        by_type[g.type_of(v).name] += 1
    assert by_type["heavy"] == 8
    assert by_type["light"] == 8
