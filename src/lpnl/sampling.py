"""Two-stage neighborhood sampling: budgeted layer growth, then PPR ranking.

Stage 1 grows an ego-subgraph around a center node, hop by hop. Within
each hop the candidate frontier is grouped by node type and at most
``layer_budget`` nodes per type are drawn without replacement, with
probability proportional to squared degree normalized within the type
group. Normalizing within type keeps low-degree node types from being
drowned out by high-degree ones. A group that fits the budget joins
whole: degrees and the law are computed only for a group that draws, and
the RNG only at a sample's first draw.

Stage 2 scores every sampled node by personalized PageRank restricted
to the subgraph, walking edges in both directions, and keeps the top-k
as the anchor list that later turns structure into text. Both PPR modes
walk the local adjacency that stage 1 keeps (:attr:`EgoSubgraph.adjacency`).
Rankings count scores within ``TIE_EPS`` as ties, ordered by node id.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import accumulate, chain
from typing import Iterable, Sequence

import numpy as np

from .graph import EdgeMask, HetGraph, NodeType, UnknownNodeError

__all__ = [
    "SamplerConfig",
    "EgoSubgraph",
    "AnchorList",
    "layer_sampling_probs",
    "sample_subgraph",
    "ppr_exact",
    "ppr_approx",
    "top_k_anchors",
    "anchors_for",
]

PPR_MODES = ("exact_power_iteration", "approximate_push")

# above the ~1e-11 rounding noise between structurally equal PPR scores
TIE_EPS = 1e-10


@dataclass(frozen=True)
class SamplerConfig:
    """Knobs for both sampling stages.

    ``hops`` is capped at 3: beyond that the extra context stops paying
    for its tokens. ``layer_budget`` bounds sampled nodes per node type
    per hop so prompt length stays controllable before ranking even runs.
    ``rng_seed`` is a prediction's one seed: the tournament's first-round
    grouping draws from it too.
    """

    hops: int = 2
    layer_budget: int = 16
    anchor_k: int = 50
    alpha: float = 0.15
    ppr_mode: str = "exact_power_iteration"
    push_tolerance: float = 1e-4
    rng_seed: int = 0

    def __post_init__(self):
        if self.hops not in (1, 2, 3):
            raise ValueError(f"hops must be 1, 2 or 3, got {self.hops}")
        if self.anchor_k < 1:
            raise ValueError("anchor_k must be >= 1")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie strictly between 0 and 1")
        if self.layer_budget < 1:
            raise ValueError("layer_budget must be >= 1")
        if self.ppr_mode not in PPR_MODES:
            raise ValueError(f"ppr_mode must be one of {PPR_MODES}")
        if self.push_tolerance <= 0:
            raise ValueError("push_tolerance must be positive")
        if self.rng_seed < 0:
            raise ValueError("rng_seed must be non-negative")

    def with_seed(self, seed: int) -> "SamplerConfig":
        return replace(self, rng_seed=seed)


@dataclass(frozen=True)
class EgoSubgraph:
    """A sampled h-hop neighborhood: layered nodes plus their walk adjacency.

    Layers are disjoint, exclude the center, and every layer-l node is
    adjacent to some node of layer l-1 (layer 0 being the center).
    ``adjacency[i]`` holds the ascending ``nodes`` positions of node i's
    subgraph neighbors, one per unmasked edge end (a self-loop gives two).
    ``graph`` and ``mask`` sit outside equality and serve only the
    on-demand :attr:`induced_edges`, which checks and demos read.
    """

    center: int
    layers: tuple[tuple[int, ...], ...]
    adjacency: tuple[tuple[int, ...], ...]
    graph: HetGraph = field(compare=False, repr=False)
    mask: EdgeMask | None = field(compare=False, repr=False)

    @cached_property
    def nodes(self) -> tuple[int, ...]:
        return tuple(chain([self.center], *self.layers))

    @property
    def induced_edges(self) -> tuple[tuple[int, int, str], ...]:
        """Unmasked ``(u, w, type)`` graph edges among ``nodes``, read on each access."""
        return tuple(self.graph.induced_edges(self.nodes, self.mask))


@dataclass(frozen=True)
class AnchorList:
    """Top-k subgraph nodes for a center, ranked by PPR score.

    Entries follow the tie rule (:func:`_rank_by_score`). ``center_score``
    is the PPR mass retained at the center itself; it is not an entry but
    is kept as a tie-break key for rankings, under the same rule.
    """

    center: int
    entries: tuple[tuple[int, float], ...]
    center_score: float = 0.0

    def __len__(self) -> int:
        return len(self.entries)


def layer_sampling_probs(
    g: HetGraph,
    frontier: Sequence[int],
    node_type: NodeType | str,
    mask: EdgeMask | None = None,
) -> dict[int, float]:
    """Selection probabilities for one (type, layer) frontier group.

    Probability is squared degree over the group's summed squared degrees.
    An all-zero-degree group degenerates to 0/0 and falls back to uniform.
    """
    type_name = node_type.name if isinstance(node_type, NodeType) else node_type
    members = sorted(set(int(v) for v in frontier))
    for v in members:
        if g.type_of(v).name != type_name:
            raise ValueError(f"frontier node {v} is not of type {type_name!r}")
    if not members:
        return {}
    probs = _squared_degree_probs(g.degrees(members, mask))
    return {v: float(p) for v, p in zip(members, probs)}


def _squared_degree_probs(degrees: np.ndarray) -> np.ndarray:
    """The stage-1 law for one type group: squared degree over its sum."""
    degs = degrees.astype(np.float64)
    weights = degs * degs
    total = weights.sum()
    if total <= 0.0:
        return np.full(len(degs), 1.0 / len(degs))
    return weights / total


def _draw_without_replacement(
    rng: np.random.Generator, members: list[int], probs: np.ndarray, take: int
) -> list[int]:
    # every candidate keeps the edge it was reached by, so no weight is zero
    picked = rng.choice(len(members), size=take, replace=False, p=probs)
    return [members[i] for i in picked]


def sample_subgraph(
    g: HetGraph,
    center: int,
    cfg: SamplerConfig,
    mask: EdgeMask | None = None,
) -> EgoSubgraph:
    """Stage-1 sampling: grow a layered subgraph around ``center``.

    Deterministic for a fixed (graph, center, config, mask): the RNG
    stream is derived from (rng_seed, center), so sampling distinct
    centers in parallel stays reproducible. A type group that fits the
    budget joins its layer whole; only a larger one reads its members'
    degrees and draws, and the first such group builds the RNG. Each
    member's masked row is read once, the last layer's only to build the
    walk adjacency.
    """
    g._check_node(center)
    type_of = g._type_of  # candidates come from the graph's rows, so every id is known
    rng: np.random.Generator | None = None
    # masked rows of the center and inner layers; its keys are the nodes sampled so far
    rows: dict[int, list[int]] = {}
    layers: list[tuple[int, ...]] = []
    frontier = [center]
    for _ in range(cfg.hops):
        rows.update((u, g.all_neighbors(u, mask)) for u in frontier)
        by_type: dict[str, list[int]] = {}
        for v in sorted({w for u in frontier for w in rows[u]} - rows.keys()):
            by_type.setdefault(type_of[v].name, []).append(v)
        layer: list[int] = []
        for type_name in sorted(by_type):
            members = by_type[type_name]
            if len(members) > cfg.layer_budget:
                if rng is None:
                    rng = np.random.default_rng([cfg.rng_seed, center])
                probs = _squared_degree_probs(g.degrees(members, mask))
                members = _draw_without_replacement(rng, members, probs, cfg.layer_budget)
            layer.extend(members)
        layer.sort()
        layers.append(tuple(layer))
        frontier = layer
    # positions in ``EgoSubgraph.nodes``
    index = {v: i for i, v in enumerate(chain([center], *layers))}
    adjacency = []
    for v in index:
        row = rows[v] if v in rows else g.all_neighbors(v, mask)
        neigh = [i for i in map(index.get, row) if i is not None]
        neigh.sort()
        adjacency.append(tuple(neigh))
    return EgoSubgraph(center, tuple(layers), tuple(adjacency), g, mask)


def _position(sub: EgoSubgraph, center: int) -> int:
    """``center``'s position in ``sub.nodes``; it must have been sampled."""
    if center not in sub.nodes:
        raise UnknownNodeError(center)
    return sub.nodes.index(center)


def _walk_matrix(sub: EgoSubgraph, ci: int) -> np.ndarray:
    """Column-stochastic transition matrix of the subgraph walk.

    Column u spreads mass equally over u's subgraph neighbors; a node with
    no subgraph edges sends its mass back to the center, at position
    ``ci``, so the stationary vector stays a proper distribution.
    """
    n = len(sub.nodes)
    m = np.zeros((n, n), dtype=np.float64)
    for u, neigh in enumerate(sub.adjacency):
        if neigh:
            share = 1.0 / len(neigh)
            for w in neigh:
                m[w, u] += share
        else:
            m[ci, u] = 1.0
    return m


def ppr_exact(sub: EgoSubgraph, center: int, alpha: float) -> dict[int, float]:
    """Personalized PageRank on the subgraph by one dense linear solve.

    Solves ``(I - (1 - alpha) M) pi = alpha * e_center`` (Jeh & Widom,
    WWW 2003), nonsingular for ``alpha`` in (0, 1]. Scores sum to 1 and are
    within 1e-10 at every node of power iteration run to an L1 residual
    below 1e-10; that gap can reorder structurally tied nodes, so rankings
    apply the tie rule (``TIE_EPS``).
    """
    ci = _position(sub, center)
    m = _walk_matrix(sub, ci)
    m *= alpha - 1.0
    m.flat[:: len(m) + 1] += 1.0
    rhs = np.zeros(len(m))
    rhs[ci] = alpha
    pi = np.linalg.solve(m, rhs)
    return {v: float(pi[i]) for i, v in enumerate(sub.nodes)}


def ppr_approx(sub: EgoSubgraph, center: int, cfg: SamplerConfig) -> dict[int, float]:
    """Personalized PageRank by queue-driven forward push.

    Maintains per-node estimates and residuals. Any node whose residual
    reaches ``push_tolerance * degree`` is pushed: an ``alpha`` share of
    its residual settles into its estimate and the rest spreads to its
    neighbors. On termination the per-node estimate differs from the
    exact score by at most ``push_tolerance * degree(node)``.

    At the defaults push beats the solve of :func:`ppr_exact` only above ~220
    subgraph nodes (synthetic graphs of 10^4 and 10^5 nodes, 2-core Xeon).
    """
    ci = _position(sub, center)
    adj = sub.adjacency
    n = len(adj)
    alpha = cfg.alpha
    keep = 1.0 - alpha
    r_max = cfg.push_tolerance
    estimate = [0.0] * n
    residual = [0.0] * n
    residual[ci] = 1.0
    degree = [len(neigh) for neigh in adj]
    threshold = [max(r_max * d, r_max) for d in degree]
    # A node is queued only once its residual reaches its threshold, and the
    # residual only grows until the node is popped; so only the center's
    # first entry, queued with residual 1, can be below it.
    if residual[ci] < threshold[ci]:
        return dict(zip(sub.nodes, estimate))
    queue: deque[int] = deque([ci])
    pop, push = queue.popleft, queue.append
    in_queue = [False] * n
    in_queue[ci] = True
    while queue:
        u = pop()
        in_queue[u] = False
        res = residual[u]
        estimate[u] += alpha * res
        residual[u] = 0.0
        spread = keep * res
        d = degree[u]
        if d == 0:
            # Isolated within the subgraph: walk mass restarts at the center.
            residual[ci] += spread
            if not in_queue[ci] and residual[ci] >= threshold[ci]:
                push(ci)
                in_queue[ci] = True
            continue
        share = spread / d
        for w in adj[u]:
            r = residual[w] + share
            residual[w] = r
            if r >= threshold[w] and not in_queue[w]:
                push(w)
                in_queue[w] = True
    return dict(zip(sub.nodes, estimate))


def top_k_anchors(
    g: HetGraph,
    center: int,
    cfg: SamplerConfig,
    mask: EdgeMask | None = None,
) -> AnchorList:
    """Full two-stage run: sample a subgraph, rank by PPR, keep the top k.

    The center itself is dropped from the entries; ties under the tie
    rule break toward the smaller node id so results are reproducible.
    """
    sub = sample_subgraph(g, center, cfg, mask)
    if cfg.ppr_mode == "exact_power_iteration":
        scores = ppr_exact(sub, center, cfg.alpha)
    else:
        scores = ppr_approx(sub, center, cfg)
    center_score = scores.pop(center, 0.0)
    entries = tuple(_rank_by_score(scores.items())[: cfg.anchor_k])
    return AnchorList(center=center, entries=entries, center_score=float(center_score))


def _rank_by_score(items: Iterable[tuple[int, float]]) -> list[tuple[int, float]]:
    """Descending by score; sorted scores chained at most ``TIE_EPS`` apart tie, by node id."""
    ranked = sorted(items, key=lambda item: -item[1])
    gaps = (prev[1] - cur[1] > TIE_EPS for prev, cur in zip(ranked, ranked[1:]))
    return [item for _, item in sorted(zip(accumulate(gaps, initial=0), ranked))]


def anchors_for(
    g: HetGraph,
    nodes: Iterable[int],
    cfg: SamplerConfig,
    mask: EdgeMask | None = None,
) -> dict[int, AnchorList]:
    """Anchor lists for every node of a task, keyed by node, in the given order."""
    return {v: top_k_anchors(g, v, cfg, mask) for v in nodes}
