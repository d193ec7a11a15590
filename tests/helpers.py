"""Shared fixtures-in-code: graph builders and independent oracles.

The oracles here deliberately re-derive expected values through different
machinery than the library uses (dense linear solves, general-form metric
definitions, a from-scratch tournament simulator) so tests stay honest.
"""

from __future__ import annotations

import math

import numpy as np

from lpnl.graph import EdgeType, HetGraph, NodeType
from lpnl.sampling import EgoSubgraph


def toy_schema() -> tuple[list[NodeType], list[EdgeType]]:
    node_types = [
        NodeType("paper", 0, "PA"),
        NodeType("author", 1, "AU"),
        NodeType("venue", 2, "VN"),
    ]
    edge_types = [
        EdgeType("writes", "author", "paper"),
        EdgeType("published_in", "paper", "venue"),
    ]
    return node_types, edge_types


def toy_graph() -> HetGraph:
    """Five nodes (2 papers, 2 authors, 1 venue), three edges.

    Hand-counted facts used in tests: degree(p1) == 2 and
    neighbors(p1, writes) == {a1, a2}.
    """
    node_types, edge_types = toy_schema()
    nodes = [
        ("p1", "paper", "spectral methods for sparse graphs"),
        ("p2", "paper", "adaptive kernels in noisy settings"),
        ("a1", "author", "Alva Mercer (graph algorithms)"),
        ("a2", "author", "Bren Holt (numerical methods)"),
        ("v1", "venue", "journal of discrete structures"),
    ]
    edges = [
        ("a1", "p1", "writes"),
        ("a2", "p1", "writes"),
        ("p2", "v1", "published_in"),
    ]
    return HetGraph(node_types, edge_types, nodes, edges)


def degree_profile_graph(degrees: dict[str, int]) -> HetGraph:
    """Type-"x" nodes with exact total degrees, padded via throwaway nodes."""
    node_types = [NodeType("x", 0, "X"), NodeType("pad", 1, "PD")]
    edge_types = [EdgeType("x_pad", "x", "pad")]
    nodes = [(name, "x", f"node {name}") for name in degrees]
    edges = []
    pad_count = 0
    for name, deg in degrees.items():
        for _ in range(deg):
            pad = f"pad{pad_count}"
            pad_count += 1
            nodes.append((pad, "pad", f"pad {pad}"))
            edges.append((name, pad, "x_pad"))
    return HetGraph(node_types, edge_types, nodes, edges)


def star_graph(n_leaves: int = 30) -> HetGraph:
    node_types = [NodeType("hub", 0, "HB"), NodeType("leaf", 1, "LF")]
    edge_types = [EdgeType("spoke", "hub", "leaf")]
    nodes = [("hub", "hub", "the hub")] + [
        (f"l{i}", "leaf", f"leaf number {i}") for i in range(n_leaves)
    ]
    edges = [("hub", f"l{i}", "spoke") for i in range(n_leaves)]
    return HetGraph(node_types, edge_types, nodes, edges)


def path_graph(labels: str = "abc") -> HetGraph:
    node_types = [NodeType("n", 0, "NN")]
    edge_types = [EdgeType("link", "n", "n")]
    nodes = [(ch, "n", f"node {ch}") for ch in labels]
    edges = [(labels[i], labels[i + 1], "link") for i in range(len(labels) - 1)]
    return HetGraph(node_types, edge_types, nodes, edges)


def random_het_graph(
    n: int,
    seed: int,
    avg_degree: float = 5.0,
    n_types: int = 3,
) -> HetGraph:
    """Random typed graph, connected through a spanning backbone."""
    rng = np.random.default_rng(seed)
    names = [f"t{i}" for i in range(n_types)]
    node_types = [NodeType(name, i, name.upper()) for i, name in enumerate(names)]
    edge_types = [
        EdgeType(f"r{i}_{j}", names[i], names[j])
        for i in range(n_types)
        for j in range(i, n_types)
    ]
    type_of = [int(rng.integers(n_types)) for _ in range(n)]
    nodes = [(f"n{v}", names[type_of[v]], f"text of node {v} {'x' * int(rng.integers(3, 12))}")
             for v in range(n)]

    def rel(u: int, v: int) -> tuple[str, str, str]:
        a, b = (u, v) if type_of[u] <= type_of[v] else (v, u)
        return (f"n{a}", f"n{b}", f"r{type_of[a]}_{type_of[b]}")

    seen = set()
    edges = []
    for v in range(1, n):
        u = int(rng.integers(v))
        edge = rel(u, v)
        if edge not in seen:
            seen.add(edge)
            edges.append(edge)
    extra = int(n * (avg_degree - 2) / 2)
    while extra > 0:
        u, v = int(rng.integers(n)), int(rng.integers(n))
        if u == v:
            continue
        edge = rel(u, v)
        if edge in seen:
            continue
        seen.add(edge)
        edges.append(edge)
        extra -= 1
    return HetGraph(node_types, edge_types, nodes, edges)


def authorship_graph(
    n_papers: int = 200,
    n_authors: int = 60,
    n_fields: int = 12,
    authors_per_paper: int = 2,
    seed: int = 0,
) -> HetGraph:
    """Papers with authors and a field each; the training-data workhorse."""
    rng = np.random.default_rng(seed)
    node_types = [
        NodeType("paper", 0, "PA"),
        NodeType("author", 1, "AU"),
        NodeType("field", 2, "FD"),
    ]
    edge_types = [
        EdgeType("authored_by", "paper", "author"),
        EdgeType("about", "paper", "field"),
    ]
    nodes = [(f"a{a}", "author", f"author person {a}") for a in range(n_authors)]
    nodes += [(f"f{f}", "field", f"field area {f}") for f in range(n_fields)]
    edges = []
    for p in range(n_papers):
        nodes.append((f"p{p}", "paper", f"paper title number {p}"))
        for a in rng.choice(n_authors, size=authors_per_paper, replace=False):
            edges.append((f"p{p}", f"a{a}", "authored_by"))
        edges.append((f"p{p}", f"f{int(rng.integers(n_fields))}", "about"))
    return HetGraph(node_types, edge_types, nodes, edges)


def remove_edge_copy(g: HetGraph, u: int, v: int, t_name: str) -> HetGraph:
    """A fresh graph identical to ``g`` minus one stored edge."""
    node_types = sorted(g.node_types.values(), key=lambda nt: nt.type_id)
    edge_types = list(g.edge_types.values())
    nodes = [(g.key_of(x), g.type_of(x).name, g.text(x)) for x in range(len(g))]
    edges = []
    for name in g.edge_types:
        for a, b in g.edges_of_type(name):
            if (a, b, name) == (u, v, t_name):
                continue
            edges.append((g.key_of(a), g.key_of(b), name))
    return HetGraph(node_types, edge_types, nodes, edges)


# -- independent oracles ------------------------------------------------------


def ppr_dense_solve(sub: EgoSubgraph, center: int, alpha: float) -> dict[int, float]:
    """PPR by direct dense linear solve: (I - (1-a) M) pi = a * e_center.

    Builds the walk matrix from the subgraph's induced edges and calls
    numpy's solver. The library's exact mode now solves the same system,
    so this oracle mainly checks the walk matrix and the system's set-up;
    independence from the solve comes from the power-iteration reference
    in ``test_sampler_reference.py``, which the exact mode must match
    within 1e-10 at every node.
    """
    order, adj = sub.adjacency()
    index = {v: i for i, v in enumerate(order)}
    n = len(order)
    m = np.zeros((n, n))
    ci = index[center]
    for u, neigh in enumerate(adj):
        if neigh:
            for w in neigh:
                m[w, u] += 1.0 / len(neigh)
        else:
            m[ci, u] = 1.0
    e = np.zeros(n)
    e[ci] = 1.0
    pi = np.linalg.solve(np.eye(n) - (1.0 - alpha) * m, alpha * e)
    return {v: float(pi[index[v]]) for v in order}


def reference_metrics(ranking: list[int], truth: int) -> tuple[float, float, float]:
    """(ndcg, mrr, hits@1) from the general graded-relevance definitions.

    Relevance is 1 for the truth and 0 elsewhere; DCG is normalized by the
    ideal DCG of the single relevant item.
    """
    gains = [1.0 if c == truth else 0.0 for c in ranking]
    dcg = sum(gain / math.log2(pos + 1) for pos, gain in enumerate(gains, start=1))
    idcg = 1.0 / math.log2(2)
    ndcg = dcg / idcg
    rank = gains.index(1.0) + 1
    return ndcg, 1.0 / rank, 1.0 if rank == 1 else 0.0


def simulate_first_pick_tournament(n: int, length_limit: int) -> int:
    """Who survives sequential partition + always-pick-first? (by index).

    Brute-force reference for the fixed-position baseline: re-implements
    balanced partitioning from its definition and eliminates accordingly.
    """
    pool = list(range(n))
    while len(pool) > 1:
        m = math.ceil(len(pool) / length_limit)
        base, extra = divmod(len(pool), m)
        sets, start = [], 0
        for i in range(m):
            size = base + (1 if i < extra else 0)
            sets.append(pool[start : start + size])
            start += size
        pool = [s[0] for s in sets]
    return pool[0]
