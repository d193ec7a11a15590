"""``build_prompt`` against the linear walk it replaced.

The reference below is the earlier renderer: every render rebuilds every
node string through the graph's checked accessors, and the walk renders
the shrink schedule one step at a time until a step fits. Every
``PromptBundle`` field must match, or both sides must refuse with the same
``BudgetUnsatisfiableError.needed``; bad nodes must raise the same error.
"""

import numpy as np
import pytest

from lpnl.graph import EdgeType, HetGraph, NodeType, UnknownNodeError
from lpnl.prompts import (
    SHRINK_STEP,
    BudgetUnsatisfiableError,
    PromptBundle,
    PromptConfig,
    _alias_prefixes,
    build_prompt,
    estimate_tokens,
)
from lpnl.sampling import AnchorList, SamplerConfig, anchors_for
from lpnl.synth import SynthSpec, make_academic_graph, make_disambiguation_tasks

ESTIMATORS = ("chars_div_4", "whitespace")


class _RefAliases:
    def __init__(self, g):
        self._prefixes = _alias_prefixes(g)
        self._g = g
        self._counters = {}
        self._assigned = {}

    def alias(self, v):
        got = self._assigned.get(v)
        if got is not None:
            return got
        prefix = self._prefixes[self._g.type_of(v).name]
        nth = self._counters.get(prefix, 0) + 1
        self._counters[prefix] = nth
        self._assigned[v] = f"{prefix}{nth}"
        return self._assigned[v]


def _ref_render_one(g, v, aliases):
    return f"{aliases.alias(v)}: {g.text(v)} [{g.type_of(v).identifier_tag}]"


def _ref_description(g, v, anchors, max_anchors, cfg, aliases):
    head = _ref_render_one(g, v, aliases)
    if max_anchors > 0 and anchors.entries:
        rendered = [_ref_render_one(g, a, aliases) for a, _ in anchors.entries[:max_anchors]]
        head = head + " is related with " + ", ".join(rendered)
    return head


def _ref_render(g, source, relation, candidates, anchor_source, cfg, src_k, cand_k):
    aliases = _RefAliases(g)
    source_alias = aliases.alias(source)
    question = cfg.question_for(relation, source_alias)
    source_desc = _ref_description(g, source, anchor_source[source], src_k, cfg, aliases)
    cand_descs, cand_aliases = [], []
    for c in candidates:
        cand_aliases.append(aliases.alias(c))
        cand_descs.append(_ref_description(g, c, anchor_source[c], cand_k, cfg, aliases))
    text = "\n".join([question, source_desc, *cand_descs])
    return PromptBundle(
        text=text,
        token_count=estimate_tokens(text, cfg),
        source=source,
        candidate_order=tuple(int(c) for c in candidates),
        candidate_aliases=tuple(cand_aliases),
        candidate_texts=tuple(g.text(c) for c in candidates),
    )


def reference_build_prompt(source, relation, candidates, anchor_source, g, cfg):
    relation = g.edge_type(relation)
    k_source = len(anchor_source[source].entries)
    k_cand = max(len(anchor_source[c].entries) for c in candidates)

    def render(src_k, cand_k):
        return _ref_render(g, source, relation, candidates, anchor_source, cfg, src_k, cand_k)

    bundle = render(k_source, k_cand)
    if bundle.token_count <= cfg.token_budget:
        return bundle
    cand_k = k_cand
    while cand_k > 0:
        cand_k = max(cand_k - SHRINK_STEP, 0)
        bundle = render(k_source, cand_k)
        if bundle.token_count <= cfg.token_budget:
            return bundle
    src_k = k_source
    while src_k > 0:
        src_k = max(src_k - SHRINK_STEP, 0)
        bundle = render(src_k, 0)
        if bundle.token_count <= cfg.token_budget:
            return bundle
    raise BudgetUnsatisfiableError(needed=bundle.token_count, budget=cfg.token_budget)


def outcome(build, *args):
    try:
        return build(*args)
    except BudgetUnsatisfiableError as exc:
        return ("refused", exc.needed, exc.budget)


def assert_same(*args):
    assert outcome(build_prompt, *args) == outcome(reference_build_prompt, *args)


def criterion_5_prompts():
    """The 10^4 randomized prompts of acceptance criterion 5, same draws."""
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
    prompts = []
    for _ in range(10_000):
        source = sources[int(rng.integers(len(sources)))]
        count = int(rng.integers(1, 7))
        chosen = [int(c) for c in rng.choice(cands, size=count, replace=False)]
        prompts.append((source, chosen))
    return g, anchor_pool, prompts


@pytest.mark.parametrize("estimator", ESTIMATORS)
def test_matches_linear_walk_on_criterion_5_prompts(estimator):
    g, anchor_pool, prompts = criterion_5_prompts()
    cfg = PromptConfig(token_budget=1024, token_estimator=estimator)
    refused = 0
    for source, chosen in prompts:
        got = outcome(build_prompt, source, "rel", chosen, anchor_pool, g, cfg)
        want = outcome(reference_build_prompt, source, "rel", chosen, anchor_pool, g, cfg)
        assert got == want, (source, chosen)
        refused += isinstance(got, tuple)
    assert 0 < refused < len(prompts)


@pytest.mark.parametrize("estimator", ESTIMATORS)
def test_matches_linear_walk_on_synthetic_anchors(estimator):
    g = make_academic_graph(SynthSpec(n_topics=40, seed=3))
    tasks = make_disambiguation_tasks(g, n_tasks=12, candidates_per_task=10, seed=4)
    sampler = SamplerConfig(hops=2, anchor_k=50)
    for task in tasks:
        source = g.id_of(task["source_id"])
        candidates = [g.id_of(c) for c in task["candidate_ids"]]
        anchors = anchors_for(g, [source, *candidates], sampler)
        for budget in (64, 128, 256, 512, 1024, 4096):
            cfg = PromptConfig(token_budget=budget, token_estimator=estimator)
            for size in (1, 5, 10):
                assert_same(source, task["relation"], candidates[:size], anchors, g, cfg)


def _shared_anchor_graph():
    node_types = [NodeType("s", 0, "SS"), NodeType("c", 1, "CC"), NodeType("f", 2, "FF")]
    edge_types = [EdgeType("rel", "s", "c")]
    nodes = [("src", "s", "x")]
    nodes += [(f"c{i}", "c", f"candidate {i}") for i in range(4)]
    nodes += [(f"f{i}", "f", "y" * (i % 3 + 1)) for i in range(30)]
    g = HetGraph(node_types, edge_types, nodes, [])
    fillers = [g.id_of(f"f{i}") for i in range(30)]
    anchors = {g.id_of("src"): AnchorList(g.id_of("src"), tuple((f, 1.0) for f in fillers[:17]))}
    for i in range(4):
        c = g.id_of(f"c{i}")
        # candidates share most of their anchors with the source and each other
        anchors[c] = AnchorList(c, tuple((f, 1.0) for f in fillers[i : i + 13]))
    return g, anchors


@pytest.mark.parametrize("estimator", ESTIMATORS)
def test_matches_linear_walk_on_every_budget(estimator):
    g, anchors = _shared_anchor_graph()
    candidates = [g.id_of(f"c{i}") for i in range(4)]
    loose = PromptConfig(token_budget=4096, token_estimator=estimator)
    full = build_prompt(g.id_of("src"), "rel", candidates, anchors, g, loose).token_count
    for budget in range(64, full + 2):
        cfg = PromptConfig(token_budget=budget, token_estimator=estimator)
        assert_same(g.id_of("src"), "rel", candidates, anchors, g, cfg)


def test_bad_anchor_raises_as_before_even_when_cut():
    g, anchors = _shared_anchor_graph()
    source, candidates = g.id_of("src"), [g.id_of(f"c{i}") for i in range(4)]
    tight = PromptConfig(token_budget=64)
    last = candidates[-1]
    # an unknown id at the tail of the last candidate's anchors: no step
    # that fits renders it, yet the call still rejects it
    broken = {**anchors, last: AnchorList(last, anchors[last].entries + ((len(g), 1.0),))}
    for build in (build_prompt, reference_build_prompt):
        with pytest.raises(UnknownNodeError) as excinfo:
            build(source, "rel", candidates, broken, g, tight)
        assert excinfo.value.args == (len(g),)


def test_renumbering_limit_still_fits_budget():
    # 75 candidates, 71 of which list candidate k3 as their one anchor.
    # Cutting k0's anchors from 8 to 3 moves k3's first mention behind k1,
    # k1's anchors and k2, so its alias grows from "c9" to "c10" in each of
    # its 72 mentions: the render with fewer anchors has more tokens. The
    # search then returns a later step than the walk; its prompt still fits.
    node_types = [NodeType("s", 0, "SS"), NodeType("c", 1, "CC")]
    edge_types = [EdgeType("rel", "s", "c")]
    nodes = [("src", "s", "x")]
    nodes += [(f"o{i}", "c", "o") for i in range(10)]
    nodes += [(f"k{i}", "c", "k") for i in range(75)]
    g = HetGraph(node_types, edge_types, nodes, [])
    o = [g.id_of(f"o{i}") for i in range(10)]
    k = [g.id_of(f"k{i}") for i in range(75)]
    source, x = g.id_of("src"), k[3]
    anchors = {
        source: AnchorList(source, ()),
        k[0]: AnchorList(k[0], tuple((v, 1.0) for v in o[:3] + o[6:] + [x])),
        k[1]: AnchorList(k[1], tuple((v, 1.0) for v in o[3:6])),
        k[2]: AnchorList(k[2], ()),
        x: AnchorList(x, ()),
    }
    anchors.update({c: AnchorList(c, ((x, 1.0),)) for c in k[4:]})
    cfg = PromptConfig(token_budget=763)
    walk = reference_build_prompt(source, "rel", k, anchors, g, cfg)
    relation = g.edge_type("rel")
    assert walk.token_count == 763
    assert _ref_render(g, source, relation, k, anchors, cfg, 0, 3).token_count == 765
    got = build_prompt(source, "rel", k, anchors, g, cfg)
    assert got.token_count <= 763
    assert got == _ref_render(g, source, relation, k, anchors, cfg, 0, 0)
