import numpy as np
import pytest
from scipy import stats

import helpers
from lpnl.datagen import (
    DatagenConfig,
    InsufficientEdgesError,
    TrainingExample,
    generate_examples,
    leakage_audit,
    read_examples,
    write_examples,
)
from lpnl.graph import EdgeMask, EdgeType, HetGraph, NodeType
from lpnl.prompts import PromptConfig, build_prompt, parse_prompt
from lpnl.sampling import SamplerConfig, anchors_for, top_k_anchors

FAST = SamplerConfig(hops=1, layer_budget=3, anchor_k=3, rng_seed=0)
PROMPT = PromptConfig()


def test_shape_contract_two_candidates():
    g = helpers.authorship_graph(n_papers=40)
    cfg = DatagenConfig(relation="authored_by", num_examples=20, candidates_per_example=2, rng_seed=3)
    for example in generate_examples(g, cfg, FAST, PROMPT):
        assert len(example.negative_ids) == 1
        assert example.truth_position in (0, 1)
        candidates = list(example.negative_ids)
        candidates.insert(example.truth_position, example.truth_id)
        assert candidates.count(example.truth_id) == 1
        assert g.has_edge(example.source_id, example.truth_id, "authored_by")
        for negative in example.negative_ids:
            assert not g.has_edge(example.source_id, negative, "authored_by")
            assert g.type_of(negative).name == "author"


def test_deterministic_per_seed():
    g = helpers.authorship_graph(n_papers=30)
    cfg = DatagenConfig(relation="authored_by", num_examples=10, rng_seed=9)
    first = list(generate_examples(g, cfg, FAST, PROMPT))
    second = list(generate_examples(g, cfg, FAST, PROMPT))
    assert first == second
    other = list(
        generate_examples(g, DatagenConfig(relation="authored_by", num_examples=10, rng_seed=10), FAST, PROMPT)
    )
    assert first != other


def test_truth_position_uniform_chi_square():
    g = helpers.authorship_graph(n_papers=5200, n_authors=400, n_fields=50)
    cfg = DatagenConfig(
        relation="authored_by", num_examples=10_000, candidates_per_example=3, rng_seed=5
    )
    push = SamplerConfig(hops=1, layer_budget=2, anchor_k=2, ppr_mode="approximate_push")
    positions = np.zeros(3)
    for example in generate_examples(g, cfg, push, PROMPT):
        positions[example.truth_position] += 1
    assert positions.sum() == 10_000
    _, p = stats.chisquare(positions)
    assert p > 0.01


def test_target_text_names_truth_alias():
    g = helpers.authorship_graph(n_papers=40)
    cfg = DatagenConfig(relation="authored_by", num_examples=15, rng_seed=2)
    for example in generate_examples(g, cfg, FAST, PROMPT):
        parsed = parse_prompt(example.input_text)
        segment = parsed.candidate_segments[example.truth_position]
        alias = segment.split(": ", 1)[0]
        assert example.target_text.startswith(f"{alias}: ")
        assert g.text(example.truth_id).startswith(
            example.target_text.split(": ", 1)[1][:10]
        )


def test_examples_parse_under_prompt_grammar():
    g = helpers.authorship_graph(n_papers=40)
    cfg = DatagenConfig(relation="authored_by", num_examples=15, rng_seed=6)
    for example in generate_examples(g, cfg, FAST, PROMPT):
        parsed = parse_prompt(example.input_text)
        assert len(parsed.candidate_segments) == cfg.candidates_per_example
        assert parsed.question


def leaky_fixture() -> HetGraph:
    """Truth is the source's only strong neighbor, so an unmasked run puts it
    at the top of the source's anchors."""
    node_types = [NodeType("paper", 0, "PA"), NodeType("author", 1, "AU")]
    edge_types = [EdgeType("authored_by", "paper", "author")]
    nodes = [("p0", "paper", "lonely paper about moss")]
    edges = [("p0", "a0", "authored_by")]
    nodes += [(f"a{i}", "author", f"author number {i} of the moss guild") for i in range(6)]
    for i in range(1, 6):
        # give decoy authors some degree via other papers
        nodes.append((f"q{i}", "paper", f"other paper {i}"))
        edges.append((f"q{i}", f"a{i}", "authored_by"))
    return HetGraph(node_types, edge_types, nodes, edges)


def test_mask_reaches_the_sampler():
    g = leaky_fixture()
    cfg = DatagenConfig(relation="authored_by", num_examples=1, candidates_per_example=3, rng_seed=1)
    examples = list(generate_examples(g, cfg, FAST, PROMPT))
    # p0's only edge is the masked one, so it gets skipped...
    assert examples == []
    counters: dict = {}
    list(generate_examples(g, cfg, FAST, PROMPT, counters=counters))
    assert counters["skipped_zero_degree"] >= 1


def test_masked_anchor_list_differs_when_truth_was_top():
    g = helpers.authorship_graph(n_papers=30, n_authors=12)
    cfg = DatagenConfig(relation="authored_by", num_examples=10, rng_seed=4)
    for example in generate_examples(g, cfg, FAST, PROMPT):
        mask = EdgeMask([(example.source_id, example.truth_id, "authored_by")])
        unmasked = top_k_anchors(g, example.source_id, FAST)
        masked = top_k_anchors(g, example.source_id, FAST, mask)
        if example.truth_id in unmasked.ids():
            assert masked != unmasked


def test_leakage_audit_clean_on_masked_corpus():
    g = helpers.authorship_graph(n_papers=60)
    cfg = DatagenConfig(relation="authored_by", num_examples=30, rng_seed=7)
    corpus = list(generate_examples(g, cfg, FAST, PROMPT))
    report = leakage_audit(corpus, g)
    assert report.examples_scanned == 30
    assert report.ok


def test_leakage_audit_catches_unmasked_corpus():
    # built without the mask, the truth is a 1-hop neighbor of the source and
    # often one of its two anchors; the audit must flag exactly those examples
    g = helpers.authorship_graph(n_papers=50, n_authors=10, authors_per_paper=3)
    narrow = SamplerConfig(hops=1, layer_budget=16, anchor_k=2, rng_seed=0)
    rng = np.random.default_rng(8)
    edges = g.edges_of_type("authored_by")
    authors = g.nodes_of_type("author")
    corpus = []
    for i in rng.permutation(len(edges))[:25]:
        source, truth = edges[int(i)]
        negative = next(
            int(a) for a in rng.permutation(authors) if not g.has_edge(source, int(a), "authored_by")
        )
        anchors = anchors_for(g, (source, truth, negative), narrow)
        bundle = build_prompt(source, "authored_by", [truth, negative], anchors, g, PROMPT)
        corpus.append(TrainingExample(bundle.text, "", source, truth, (negative,), 0))
    # line 0 is the question, line 1 the source
    leaked = [
        i for i, e in enumerate(corpus)
        if f": {g.text(e.truth_id)} [AU]" in e.input_text.split("\n")[1]
    ]
    assert 0 < len(leaked) < len(corpus)
    report = leakage_audit(corpus, g)
    assert report.examples_scanned == len(corpus)
    assert [v["index"] for v in report.violations] == leaked


def test_same_text_twin_of_truth_is_withheld():
    # p0 has two authors who share a name: whichever edge is masked, the
    # other author reaches p0's anchors and renders exactly like the truth
    node_types = [NodeType("paper", 0, "PA"), NodeType("author", 1, "AU")]
    edge_types = [EdgeType("authored_by", "paper", "author")]
    nodes = [
        ("p0", "paper", "tidal moss survey"),
        ("a0", "author", "nova kade"),
        ("a1", "author", "nova kade"),
    ]
    edges = [("p0", "a0", "authored_by"), ("p0", "a1", "authored_by")]
    for i in range(2, 6):
        nodes += [(f"a{i}", "author", f"decoy author {i}"), (f"q{i}", "paper", f"other paper {i}")]
        edges.append((f"q{i}", f"a{i}", "authored_by"))
    g = HetGraph(node_types, edge_types, nodes, edges)
    p0, a0, a1 = g.id_of("p0"), g.id_of("a0"), g.id_of("a1")
    assert a1 in top_k_anchors(g, p0, FAST, EdgeMask([(p0, a0, "authored_by")])).ids()
    cfg = DatagenConfig(relation="authored_by", num_examples=2, rng_seed=1)
    corpus = list(generate_examples(g, cfg, FAST, PROMPT))
    assert {e.truth_id for e in corpus} == {a0, a1}
    assert leakage_audit(corpus, g).ok


def test_leakage_audit_empty_corpus():
    g = helpers.authorship_graph(n_papers=10)
    report = leakage_audit([], g)
    assert report.examples_scanned == 0
    assert report.ok


def test_insufficient_edges_error():
    g = helpers.authorship_graph(n_papers=5)
    cfg = DatagenConfig(relation="authored_by", num_examples=1000)
    with pytest.raises(InsufficientEdgesError):
        list(generate_examples(g, cfg, FAST, PROMPT))


def test_jsonl_roundtrip(tmp_path):
    g = helpers.authorship_graph(n_papers=30)
    cfg = DatagenConfig(relation="authored_by", num_examples=12, rng_seed=13)
    corpus = list(generate_examples(g, cfg, FAST, PROMPT))
    path = str(tmp_path / "train.jsonl")
    assert write_examples(path, corpus, g) == 12
    loaded = list(read_examples(path, g))
    assert loaded == corpus


def test_split_hygiene():
    g = helpers.authorship_graph(n_papers=90)
    # attribute = paper index as a stand-in for publication year
    attr = {g.id_of(f"p{p}"): float(p) for p in range(90)}
    boundaries = (30.0, 60.0)
    seen: dict[str, set] = {}
    for split in ("train", "valid", "test"):
        cfg = DatagenConfig(
            relation="authored_by",
            num_examples=20,
            rng_seed=1,
            split=split,
            split_boundaries=boundaries,
        )
        examples = list(generate_examples(g, cfg, FAST, PROMPT, node_attr=attr))
        seen[split] = {(e.source_id, e.truth_id) for e in examples}
        for example in examples:
            value = attr[example.source_id]
            if split == "train":
                assert value < 30
            elif split == "valid":
                assert 30 <= value < 60
            else:
                assert value >= 60
    assert not (seen["train"] & seen["test"])
    assert not (seen["train"] & seen["valid"])


def test_split_requires_attributes():
    g = helpers.authorship_graph(n_papers=20)
    cfg = DatagenConfig(
        relation="authored_by", num_examples=5, rng_seed=1,
        split="train", split_boundaries=(10.0, 15.0),
    )
    with pytest.raises(ValueError, match="node_attr"):
        list(generate_examples(g, cfg, FAST, PROMPT))


def test_shared_neighbor_policy_prefers_two_hop():
    g = helpers.authorship_graph(n_papers=60, n_authors=30, authors_per_paper=3, seed=5)
    cfg = DatagenConfig(
        relation="authored_by", num_examples=20,
        candidates_per_example=3, negative_policy="shared_neighbor", rng_seed=2,
    )
    near_hits = 0
    total = 0
    for example in generate_examples(g, cfg, FAST, PROMPT):
        ball = {example.source_id}
        frontier = [example.source_id]
        for _ in range(3):
            nxt = {w for u in frontier for w in g.all_neighbors(u)} - ball
            ball |= nxt
            frontier = sorted(nxt)
        for negative in example.negative_ids:
            total += 1
            if negative in ball:
                near_hits += 1
    assert total == 40
    assert near_hits > total * 0.5


def test_config_validation():
    with pytest.raises(ValueError):
        DatagenConfig(relation="r", candidates_per_example=1)
    with pytest.raises(ValueError):
        DatagenConfig(relation="r", negative_policy="antonyms")
    with pytest.raises(ValueError):
        DatagenConfig(relation="r", split="train")  # boundaries missing


@pytest.mark.parametrize("boundaries", [(2015.0,), (2016.0, 2015.0)])
def test_split_boundaries_must_be_an_ascending_pair(boundaries):
    with pytest.raises(ValueError, match="split_boundaries"):
        DatagenConfig(relation="authored_by", split="valid", split_boundaries=boundaries)


def test_split_boundaries_list_becomes_float_tuple():
    cfg = DatagenConfig(relation="authored_by", split="valid", split_boundaries=[2015, 2016])
    assert cfg.split_boundaries == (2015.0, 2016.0)
    assert all(type(b) is float for b in cfg.split_boundaries)
