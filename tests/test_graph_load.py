"""``load_graph`` and ``HetGraph`` against the per-record loader they replaced.

``load_graph`` reads each file in blocks of lines and ``HetGraph`` checks its
records a batch at a time, column-wise. ``helpers.reference_load_graph`` and
``helpers.reference_graph`` are the line-by-line, record-by-record loader
that came before, frozen: the stored arrays and strings, and the message,
file and line of every error, must equal theirs.
"""

import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from lpnl.graph import (
    EdgeType,
    GraphFormatError,
    HetGraph,
    NodeType,
    _BLOCK,
    _unescape_field,
    load_graph,
    normalize_text,
    save_graph,
)
from lpnl.synth import SynthSpec, make_academic_graph

STORED = ("keys", "_texts", "_type_of", "_nodes_of_type", "_indptr", "_neighbors", "_kinds")


def _assert_same_store(got, want):
    for name in STORED:
        a, b = getattr(got, name), getattr(want, name)
        if isinstance(b, np.ndarray):
            assert a.dtype == b.dtype, name
            np.testing.assert_array_equal(a, b, err_msg=name)
        else:
            assert a == b, name


def _assert_loads_as_reference(files):
    _assert_same_store(load_graph(*files), helpers.reference_load_graph(*files))


def _saved(tmp_path, g):
    files = [str(tmp_path / name) for name in ("nodes.tsv", "edges.tsv", "schema.json")]
    save_graph(g, *files)
    return files


@pytest.mark.parametrize("build", [
    lambda: make_academic_graph(SynthSpec(n_topics=12)),
    lambda: make_academic_graph(SynthSpec(n_topics=40)),
    lambda: helpers.random_het_graph(500, seed=2),
], ids=["synth-12", "synth-40", "random"])
def test_saved_graphs_load_as_the_reference_loads_them(tmp_path, build):
    g = build()
    files = _saved(tmp_path, g)
    _assert_loads_as_reference(files)
    # the records' path through HetGraph stores the same as the files' path
    records = [(g.key_of(v), g.type_of(v).name, g.text(v)) for v in range(len(g))]
    edges = [(g.key_of(u), g.key_of(v), t) for t in g.edge_types for u, v in g.edges_of_type(t)]
    schema = sorted(g.node_types.values(), key=lambda nt: nt.type_id), list(g.edge_types.values())
    _assert_same_store(
        HetGraph(*schema, records, edges), helpers.reference_graph(*schema, records, edges)
    )


NODE_TYPES = [NodeType("paper", 0, "PA"), NodeType("author", 1, "AU")]
EDGE_TYPES = [EdgeType("writes", "author", "paper"), EdgeType("cites", "paper", "paper")]
SCHEMA = {
    "node_types": [{"name": nt.name, "identifier_tag": nt.identifier_tag} for nt in NODE_TYPES],
    "edge_types": [{"name": et.name, "source": et.source_type, "target": et.target_type}
                   for et in EDGE_TYPES],
}
# text a reader and the normaliser must both get right
AWKWARD_TEXTS = [
    "tab\\tescape and newline\\nescape",
    "a literal backslash \\\\ and \\\\t not a tab",
    "trailing backslash \\",
    "unknown escape \\x stays",
    "unicode\xa0white\x85space and　more",
    "controls\x01\x02 between\x1b words\x7f",
    "  padded   with   runs  ",
    "non-ascii λόγος 論文 ü",
]


def _write(path, lines, ending="\n", last_newline=True):
    text = ending.join(lines) + (ending if last_newline else "")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def _messy_files(tmp_path, ending, last_newline, n_papers=6000):
    """Files of several blocks, with blank lines, a 100 KB line, awkward
    text, doubled edge lines and self-loops."""
    nodes = [f"a{i}\tauthor\tauthor number {i}" for i in range(50)]
    for i in range(n_papers):
        nodes.append(f"p{i}\tpaper\t{AWKWARD_TEXTS[i % len(AWKWARD_TEXTS)]} {i}")
        if i % 97 == 0:
            nodes.append("")
    nodes.insert(1234, "p_long\tpaper\t" + "long words " * 10_000)
    edges = []
    for i in range(n_papers):
        edges.append(f"a{i % 50}\tp{i}\twrites")
        edges.append(f"p{i}\tp{(i * 7) % n_papers}\tcites")  # p0 cites itself
        if i % 11 == 0:
            edges += [f"p{i}\tp{i}\tcites", f"a{i % 50}\tp{i}\twrites", "", ""]
    schema, node_file, edge_file = (str(tmp_path / n) for n in ("s.json", "n.tsv", "e.tsv"))
    with open(schema, "w", encoding="utf-8") as fh:
        json.dump(SCHEMA, fh)
    _write(node_file, nodes, ending, last_newline)
    _write(edge_file, edges, ending, last_newline)
    return node_file, edge_file, schema


@pytest.mark.parametrize("ending, last_newline", [("\n", True), ("\r\n", True), ("\n", False),
                                                  ("\r\n", False), ("\r", True)])
def test_messy_files_load_as_the_reference_loads_them(tmp_path, ending, last_newline):
    files = _messy_files(tmp_path, ending, last_newline)
    for path in files[:2]:  # several blocks each
        with open(path, encoding="utf-8") as fh:
            assert len(fh.read()) > 4 * _BLOCK
    _assert_loads_as_reference(files)


def test_more_than_64_edge_types_keep_int32_kinds(tmp_path):
    schema = {"node_types": [{"name": "n", "identifier_tag": "NN"}],
              "edge_types": [{"name": f"r{i}", "source": "n", "target": "n"} for i in range(70)]}
    files = [str(tmp_path / n) for n in ("n.tsv", "e.tsv", "s.json")]
    _write(files[0], [f"n{i}\tn\tnode {i}" for i in range(400)])
    _write(files[1], [f"n{i % 400}\tn{(i * 13) % 400}\tr{i % 70}" for i in range(5000)])
    (tmp_path / "s.json").write_text(json.dumps(schema))
    g = load_graph(*files)
    assert g._kinds.dtype == np.int32 and g._kinds.max() > 127
    _assert_loads_as_reference(files)


# -- errors -------------------------------------------------------------------

GOOD_NODES = [f"a{i}\tauthor\tauthor number {i}" for i in range(20)]
GOOD_NODES += [f"p{i}\tpaper\tpaper title number {i} on graphs" for i in range(6000)]
GOOD_EDGES = [f"a{i % 20}\tp{i}\twrites" for i in range(6000)]

# (file, bad line): each names one error kind
BAD_RECORDS = {
    "node field count": ("nodes", "p9x\tpaper"),
    "node field count, four": ("nodes", "p9x\tpaper\ttext\textra"),
    "duplicate id": ("nodes", "a0\tauthor\tanother text"),
    "unknown node type": ("nodes", "p9x\tgizmo\ttext"),
    "empty text": ("nodes", "p9x\tpaper\t \\t \x01"),
    "duplicate before type": ("nodes", "a0\tgizmo\t "),
    "type before empty text": ("nodes", "p9x\tgizmo\t "),
    "edge field count": ("edges", "a1\tp1"),
    "unknown edge type": ("edges", "a1\tp1\tfrobs"),
    "dangling source": ("edges", "a99\tp1\twrites"),
    "dangling target": ("edges", "a1\tp99999\twrites"),
    "meta-relation": ("edges", "p1\ta1\twrites"),
    "type before source": ("edges", "a99\tp1\tfrobs"),
    "source before target": ("edges", "a99\tp99999\twrites"),
    "target before meta-relation": ("edges", "p1\tp99999\twrites"),
}


def _files_with(tmp_path, nodes, edges):
    files = [str(tmp_path / n) for n in ("n.tsv", "e.tsv", "s.json")]
    _write(files[0], nodes)
    _write(files[1], edges)
    (tmp_path / "s.json").write_text(json.dumps(SCHEMA))
    return files


def _error(load, files):
    with pytest.raises(GraphFormatError) as info:
        load(*files)
    return type(info.value), str(info.value), info.value.path, info.value.line


def _assert_same_error(files):
    got = _error(load_graph, files)
    assert got == _error(helpers.reference_load_graph, files)
    return got


@pytest.mark.parametrize("kind", BAD_RECORDS)
@pytest.mark.parametrize("at", [3, 5500], ids=["first-block", "later-block"])
def test_a_bad_record_raises_as_the_reference_does(tmp_path, kind, at):
    which, bad = BAD_RECORDS[kind]
    nodes, edges = list(GOOD_NODES), list(GOOD_EDGES)
    lines = nodes if which == "nodes" else edges
    assert (len("\n".join(lines[:at])) > _BLOCK) == (at > 3)
    lines[at:at] = ["", bad, "", "p5\tpaper\tafter the bad line"]  # blank lines count
    _, _, path, line = _assert_same_error(_files_with(tmp_path, nodes, edges))
    assert path.endswith(("n.tsv" if which == "nodes" else "e.tsv")) and line == at + 2


@pytest.mark.parametrize("at", [3, 5500], ids=["first-block", "later-block"])
def test_the_first_bad_record_wins_over_a_later_malformed_line(tmp_path, at):
    # a malformed line after a bad record of its block must not pre-empt it
    for first, then in [("a0\tauthor\tdup", "broken line"), ("a1\tp1\tfrobs", "a1\tp1")]:
        nodes, edges = list(GOOD_NODES), list(GOOD_EDGES)
        lines = nodes if first.startswith("a0") else edges
        lines[at:at] = [first, "", then]
        _, message, _, line = _assert_same_error(_files_with(tmp_path, nodes, edges))
        assert line == at + 1 and "fields" not in message
        # and a malformed line before a bad record is reported first
        lines[at:at + 3] = [then, first]
        _, message, _, line = _assert_same_error(_files_with(tmp_path, nodes, edges))
        assert line == at + 1 and "fields" in message


def test_a_bad_node_wins_over_an_earlier_bad_edge_line(tmp_path):
    nodes, edges = list(GOOD_NODES), list(GOOD_EDGES)
    edges[1:1] = ["a1\tp1"]
    nodes[5000:5000] = ["p3\tpaper\tdup"]
    _, _, path, line = _assert_same_error(_files_with(tmp_path, nodes, edges))
    assert path.endswith("n.tsv") and line == 5001


@pytest.mark.parametrize("kind", [k for k in BAD_RECORDS if "field count" not in k])
@pytest.mark.parametrize("at", [3, 4500], ids=["first-batch", "later-batch"])
def test_a_bad_record_given_to_hetgraph_raises_as_the_reference_does(kind, at):
    which, bad = BAD_RECORDS[kind]
    nodes, edges = ([_record(line) for line in lines] for lines in (GOOD_NODES, GOOD_EDGES))
    records = nodes if which == "nodes" else edges
    records[at:at] = [_record(bad), ("p5", "paper", "after it")]
    got = _error(lambda: HetGraph(NODE_TYPES, EDGE_TYPES, nodes, edges), ())
    assert got == _error(lambda: helpers.reference_graph(NODE_TYPES, EDGE_TYPES, nodes, edges), ())
    assert got[2:] == (None, None)


def _record(line):
    *fields, last = line.split("\t")
    return (*fields, _unescape_field(last))  # a record holds its text unescaped


# -- node keys ----------------------------------------------------------------


@pytest.mark.parametrize("key", ["p\t1", "p\n1", "p\r1"])
@pytest.mark.parametrize("before", [0, 5000], ids=["first-batch", "later-batch"])
def test_a_key_that_save_graph_cannot_write_is_refused(key, before):
    nodes = [(f"q{i}", "paper", "fine text") for i in range(before)] + [(key, "paper", "some text")]
    with pytest.raises(GraphFormatError) as info:
        HetGraph([NodeType("paper", 0, "PA")], [], nodes, [])
    assert repr(key) in str(info.value) and "node_id" in str(info.value)


@pytest.mark.parametrize("key", ["p 1", " padded key ", "größe", "論文-7", "λ\xa0x"])
def test_keys_with_spaces_or_non_ascii_letters_round_trip(tmp_path, key):
    g = HetGraph([NodeType("paper", 0, "PA")], [EdgeType("cites", "paper", "paper")],
                 [(key, "paper", "some text"), ("q", "paper", "other text")], [(key, "q", "cites")])
    g2 = load_graph(*_saved(tmp_path, g))
    assert g2.keys == [key, "q"]
    assert g2.edges_of_type("cites") == [(0, 1)]


# -- normalize_text -------------------------------------------------------------

SPACES = [chr(c) for c in range(0x110000) if chr(c).isspace()]
CONTROLS = [chr(c) for c in range(0x20)] + [chr(c) for c in range(0x7F, 0xA0)]
ALPHABET = sorted(set(SPACES + CONTROLS + ["\\", "a", "b", "Z", "é", "λ", "論"]))


@settings(max_examples=500, deadline=None)
@given(st.text(alphabet=st.sampled_from(ALPHABET), max_size=40))
def test_normalize_text_equals_its_regex_definition(text):
    assert normalize_text(text) == helpers.reference_normalize_text(text)


def test_normalize_text_on_every_whitespace_and_control_character():
    for ch in SPACES + CONTROLS:
        text = f"{ch}a{ch}{ch}b{ch}"
        assert normalize_text(text) == helpers.reference_normalize_text(text), repr(ch)
    assert re.fullmatch(r"\s+", "".join(SPACES))
