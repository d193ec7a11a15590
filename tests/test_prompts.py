import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers

from lpnl.graph import EdgeType, HetGraph, NodeType
from lpnl.prompts import (
    BudgetUnsatisfiableError,
    PromptConfig,
    _shrink_schedule,
    build_prompt,
    describe_node,
    estimate_tokens,
    parse_prompt,
)
from lpnl.sampling import AnchorList


def academic_fixture():
    node_types = [
        NodeType("paper", 0, "PA"),
        NodeType("author", 1, "AU"),
        NodeType("field", 2, "FD"),
    ]
    edge_types = [EdgeType("authored_by", "paper", "author")]
    nodes = [
        ("p0", "paper", "kernel methods for lattice models"),
        ("p1", "paper", "entropy bounds in sparse regimes"),
        ("a0", "author", "Alva Mercer"),
        ("a1", "author", "Bren Holt"),
        ("a2", "author", "Cyra Shaw"),
        ("f0", "field", "lattice theory"),
        ("f1", "field", "information theory"),
    ]
    edges = [("p0", "a0", "authored_by")]
    g = HetGraph(node_types, edge_types, nodes, edges)
    anchors = {
        g.id_of("p0"): AnchorList(
            g.id_of("p0"),
            ((g.id_of("f0"), 0.3), (g.id_of("p1"), 0.2), (g.id_of("a1"), 0.1)),
        ),
        g.id_of("a0"): AnchorList(g.id_of("a0"), ((g.id_of("p0"), 0.4),)),
        g.id_of("a1"): AnchorList(g.id_of("a1"), ((g.id_of("f1"), 0.2),)),
        g.id_of("a2"): AnchorList(g.id_of("a2"), ()),
    }
    return g, anchors


QUESTIONS = {"authored_by": "Which following candidate {target_type} writes the {source_type} {source_alias}?"}


def test_estimate_tokens_examples():
    cfg_ws = PromptConfig(token_estimator="whitespace")
    cfg_chars = PromptConfig(token_estimator="chars_div_4")
    assert estimate_tokens("", cfg_ws) == 0
    assert estimate_tokens("", cfg_chars) == 0
    assert estimate_tokens("a b c d", cfg_ws) == 4
    assert estimate_tokens("x" * 400, cfg_chars) == 100


def test_estimate_tokens_monotone_in_length():
    cfg = PromptConfig()
    last = 0
    for n in range(0, 300, 7):
        now = estimate_tokens("y" * n, cfg)
        assert now >= last
        last = now


def test_estimate_tokens_pluggable():
    cfg = PromptConfig(token_estimator=lambda text: len(text))
    assert estimate_tokens("abcd", cfg) == 4


def test_describe_node_no_anchors():
    g, anchors = academic_fixture()
    desc = describe_node(g.id_of("p0"), anchors[g.id_of("p0")], g, PromptConfig(), max_anchors=0)
    assert desc.rendered == "p1: kernel methods for lattice models [PA]"
    assert "is related with" not in desc.rendered
    assert desc.anchors_used == 0


def test_describe_node_rendered_shape_and_order():
    g, anchors = academic_fixture()
    desc = describe_node(g.id_of("p0"), anchors[g.id_of("p0")], g, PromptConfig())
    assert desc.rendered == (
        "p1: kernel methods for lattice models [PA] is related with "
        "f1: lattice theory [FD], p2: entropy bounds in sparse regimes [PA], "
        "a1: Bren Holt [AU]"
    )
    assert desc.anchors_used == 3


def test_describe_node_wrong_center_rejected():
    g, anchors = academic_fixture()
    with pytest.raises(ValueError, match="belongs to"):
        describe_node(g.id_of("p1"), anchors[g.id_of("p0")], g, PromptConfig())


def test_build_prompt_shape_and_order():
    g, anchors = academic_fixture()
    cfg = PromptConfig(question_templates=QUESTIONS)
    candidates = [g.id_of("a1"), g.id_of("a0"), g.id_of("a2")]
    bundle = build_prompt(g.id_of("p0"), "authored_by", candidates, anchors, g, cfg)
    assert bundle.candidate_order == tuple(candidates)
    assert bundle.token_count <= cfg.token_budget
    parsed = parse_prompt(bundle.text)
    assert parsed.question == "Which following candidate author writes the paper p1?"
    assert len(parsed.candidate_segments) == 3
    # candidate descriptions appear in input order
    for alias, text, segment in zip(
        bundle.candidate_aliases, ("Bren Holt", "Alva Mercer", "Cyra Shaw"),
        parsed.candidate_segments,
    ):
        assert segment.startswith(f"{alias}: {text} [")
    # aliases are dense, per type, in first-appearance order; a node seen
    # earlier (a1 is one of p0's anchors) keeps its alias
    assert bundle.source_alias == "p1"
    assert bundle.candidate_aliases == ("a1", "a2", "a3")


def test_build_prompt_deterministic():
    g, anchors = academic_fixture()
    cfg = PromptConfig(question_templates=QUESTIONS)
    candidates = [g.id_of("a0"), g.id_of("a2")]
    one = build_prompt(g.id_of("p0"), "authored_by", candidates, anchors, g, cfg)
    two = build_prompt(g.id_of("p0"), "authored_by", candidates, anchors, g, cfg)
    assert one.text == two.text


def test_build_prompt_type_mismatch():
    g, anchors = academic_fixture()
    with pytest.raises(ValueError, match="type"):
        build_prompt(
            g.id_of("p0"), "authored_by", [g.id_of("p1")], anchors, g, PromptConfig()
        )


def test_build_prompt_source_type_mismatch():
    # "writes" runs from an author; the venue v1 must not be asked about as one
    g = helpers.toy_graph()
    v1 = g.id_of("v1")
    anchors = {v: AnchorList(v, ()) for v in range(len(g))}
    with pytest.raises(ValueError, match=f"source {v1} has type 'venue', expected 'author'"):
        build_prompt(v1, "writes", [g.id_of("p1"), g.id_of("p2")], anchors, g, PromptConfig())


def test_build_prompt_empty_candidates():
    g, anchors = academic_fixture()
    with pytest.raises(ValueError, match="non-empty"):
        build_prompt(g.id_of("p0"), "authored_by", [], anchors, g, PromptConfig())


def big_text_fixture(text_len: int, n_candidates: int = 3):
    node_types = [NodeType("s", 0, "SS"), NodeType("c", 1, "CC")]
    edge_types = [EdgeType("rel", "s", "c")]
    nodes = [("src", "s", "w" * text_len)]
    for i in range(n_candidates):
        nodes.append((f"c{i}", "c", f"cand {i} " + "z" * text_len))
    g = HetGraph(node_types, edge_types, nodes, [])
    anchors = {v: AnchorList(v, ()) for v in range(len(g))}
    return g, anchors


def test_budget_unsatisfiable_reports_need():
    g, anchors = big_text_fixture(5000)
    cfg = PromptConfig(token_budget=1024)
    with pytest.raises(BudgetUnsatisfiableError) as excinfo:
        build_prompt(g.id_of("src"), "rel", [g.id_of("c0"), g.id_of("c1")], anchors, g, cfg)
    assert excinfo.value.needed > 1024
    assert excinfo.value.budget == 1024


def test_shrink_drops_anchor_tail_never_reorders():
    # one fat candidate forces anchor shrinking; surviving anchors must be
    # a prefix of the full anchor ordering
    node_types = [NodeType("s", 0, "SS"), NodeType("c", 1, "CC"), NodeType("f", 2, "FF")]
    edge_types = [EdgeType("rel", "s", "c")]
    nodes = [("src", "s", "source text here")]
    nodes += [(f"c{i}", "c", "candidate " + "y" * 200) for i in range(3)]
    nodes += [(f"f{i}", "f", f"filler anchor {i} " + "q" * 40) for i in range(30)]
    g = HetGraph(node_types, edge_types, nodes, [])
    anchor_ids = [g.id_of(f"f{i}") for i in range(30)]
    entries = tuple((v, 1.0 / (i + 1)) for i, v in enumerate(anchor_ids))
    anchors = {g.id_of("src"): AnchorList(g.id_of("src"), entries)}
    for i in range(3):
        anchors[g.id_of(f"c{i}")] = AnchorList(g.id_of(f"c{i}"), entries[:10])

    loose = PromptConfig(token_budget=4096)
    tight = PromptConfig(token_budget=512)
    full = build_prompt(g.id_of("src"), "rel", [g.id_of("c0"), g.id_of("c1"), g.id_of("c2")], anchors, g, loose)
    small = build_prompt(g.id_of("src"), "rel", [g.id_of("c0"), g.id_of("c1"), g.id_of("c2")], anchors, g, tight)
    assert small.token_count <= 512

    def anchor_texts(prompt_text, segment):
        seg = parse_prompt(prompt_text).source_segment if segment == "src" else None
        if " is related with " not in seg:
            return []
        return seg.split(" is related with ", 1)[1].split(", ")

    full_anchors = anchor_texts(full.text, "src")
    small_anchors = anchor_texts(small.text, "src")
    assert len(small_anchors) <= len(full_anchors)
    # alias numbering differs between renders; compare the text payloads
    strip = lambda items: [a.split(": ", 1)[1] for a in items]
    assert strip(small_anchors) == strip(full_anchors)[: len(small_anchors)]


def test_candidate_anchors_shrink_before_source():
    g, anchors = academic_fixture()
    # token budget that forces candidate anchors to zero but keeps source's
    cfg = PromptConfig(token_budget=64, question_templates=QUESTIONS)
    candidates = [g.id_of("a1"), g.id_of("a2")]
    bundle = build_prompt(g.id_of("p0"), "authored_by", candidates, anchors, g, cfg)
    parsed = parse_prompt(bundle.text)
    assert bundle.token_count <= 64
    for segment in parsed.candidate_segments:
        assert " is related with " not in segment


def test_parse_prompt_rejects_short_text():
    with pytest.raises(ValueError):
        parse_prompt("only one line")


def test_describe_node_rejects_empty_text():
    # load-time validation rejects empty text, so doctor an instance to
    # exercise the renderer's own guard
    from lpnl.prompts import EmptyNodeTextError

    g, anchors = academic_fixture()
    g._texts[g.id_of("p0")] = ""
    with pytest.raises(EmptyNodeTextError):
        describe_node(g.id_of("p0"), anchors[g.id_of("p0")], g, PromptConfig())


def test_prompt_config_validation():
    with pytest.raises(ValueError):
        PromptConfig(token_budget=10)
    with pytest.raises(ValueError):
        PromptConfig(token_estimator="bytes")
    with pytest.raises(ValueError):
        PromptConfig(question_templates={"rel": "line\nbreak"})


@settings(max_examples=120, deadline=None)
@given(
    text_len=st.integers(min_value=1, max_value=900),
    n_candidates=st.integers(min_value=1, max_value=6),
    budget=st.integers(min_value=64, max_value=1024),
)
def test_budget_never_silently_exceeded(text_len, n_candidates, budget):
    g, anchors = big_text_fixture(text_len, n_candidates)
    cfg = PromptConfig(token_budget=budget)
    candidates = [g.id_of(f"c{i}") for i in range(n_candidates)]
    try:
        bundle = build_prompt(g.id_of("src"), "rel", candidates, anchors, g, cfg)
    except BudgetUnsatisfiableError:
        return
    assert bundle.token_count <= budget


@st.composite
def shrink_inputs(draw):
    """A source, 1-6 candidates and anchor lists drawn from a shared pool.

    Texts may be one character long, and anchors may be other candidates,
    so aliases renumber (``c9`` -> ``c10``) as anchors are cut.
    """
    n_pool = draw(st.integers(min_value=0, max_value=24))
    n_cands = draw(st.integers(min_value=1, max_value=6))
    text = st.text(alphabet="ab", min_size=1, max_size=6) | st.sampled_from(["a", "b b"])
    node_types = [NodeType("s", 0, "SS"), NodeType("c", 1, "CC"), NodeType("f", 2, "FF")]
    edge_types = [EdgeType("rel", "s", "c")]
    nodes = [("src", "s", draw(text))]
    nodes += [(f"c{i}", "c", draw(text)) for i in range(n_cands)]
    nodes += [(f"x{i}", draw(st.sampled_from(["c", "f", "s"])), draw(text)) for i in range(n_pool)]
    g = HetGraph(node_types, edge_types, nodes, [])
    centers = [0, *range(1, n_cands + 1)]
    anchors = {}
    for v in centers:
        picks = draw(st.lists(st.integers(0, len(g) - 1), unique=True, max_size=22))
        anchors[v] = AnchorList(v, tuple((a, 1.0) for a in picks if a != v))
    return g, anchors, list(range(1, n_cands + 1))


@settings(max_examples=300, deadline=None)
@given(inputs=shrink_inputs(), estimator=st.sampled_from(["chars_div_4", "whitespace"]))
def test_tokens_never_increase_along_shrink_schedule(inputs, estimator):
    # build_prompt binary-searches the schedule, which finds the first step
    # that fits only if token counts never increase along it
    g, anchors, candidates = inputs
    cfg = PromptConfig(token_budget=10**9, token_estimator=estimator)
    k_cand = max(len(anchors[c].entries) for c in candidates)
    counts = []
    for src_k, cand_k in _shrink_schedule(len(anchors[0].entries), k_cand):
        # with the anchor lists cut to a step's counts, the full render is that step
        cut = {v: AnchorList(v, anchors[v].entries[: src_k if v == 0 else cand_k]) for v in anchors}
        counts.append(build_prompt(0, "rel", candidates, cut, g, cfg).token_count)
    assert counts == sorted(counts, reverse=True)


def test_shrink_schedule_steps():
    assert _shrink_schedule(0, 0) == [(0, 0)]
    assert _shrink_schedule(0, 3) == [(0, 3), (0, 0)]
    assert _shrink_schedule(12, 10) == [(12, 10), (12, 5), (12, 0), (7, 0), (2, 0), (0, 0)]


def test_one_step_schedule_fits_or_reports_need():
    # no anchors anywhere: the schedule is the anchor-free render alone
    g, anchors = big_text_fixture(300, 2)
    candidates = [g.id_of("c0"), g.id_of("c1")]
    calls = []

    def counting(text):
        calls.append(text)
        return len(text)

    fits = build_prompt(g.id_of("src"), "rel", candidates, anchors, g,
                        PromptConfig(token_budget=1024, token_estimator=counting))
    assert calls == [fits.text] and fits.token_count == len(fits.text)
    calls.clear()
    with pytest.raises(BudgetUnsatisfiableError) as excinfo:
        build_prompt(g.id_of("src"), "rel", candidates, anchors, g,
                     PromptConfig(token_budget=len(fits.text) - 1, token_estimator=counting))
    assert len(calls) == 1
    assert excinfo.value.needed == len(fits.text)
    assert excinfo.value.budget == len(fits.text) - 1
