import json
from pathlib import Path

import pytest

import helpers
from lpnl.graph import (
    EdgeMask,
    GraphFormatError,
    UnknownEdgeTypeError,
    UnknownNodeError,
    load_graph,
    normalize_text,
    save_graph,
)


def test_load_toy_graph_counts(toy_files):
    g = load_graph(*toy_files)
    summary = g.summary()
    assert summary["nodes"] == 5
    assert summary["edges"] == 3
    assert summary["node_types"] == {"paper": 2, "author": 2, "venue": 1}
    assert summary["edge_types"] == {"writes": 2, "published_in": 1}
    assert g.degree(g.id_of("p1")) == 2


def test_empty_edge_file_all_degrees_zero(toy_files, tmp_path):
    nodes, _, schema = toy_files
    empty = tmp_path / "none.tsv"
    empty.write_text("")
    g = load_graph(nodes, str(empty), schema)
    assert all(g.degree(v) == 0 for v in range(len(g)))


def test_dangling_endpoint_error_names_the_node(toy_files, tmp_path):
    nodes, _, schema = toy_files
    bad = tmp_path / "bad_edges.tsv"
    bad.write_text("a1\t99\twrites\n")
    with pytest.raises(GraphFormatError, match="99"):
        load_graph(nodes, str(bad), schema)


def test_malformed_record_reports_line_number(toy_files, tmp_path):
    _, edges, schema = toy_files
    bad = tmp_path / "bad_nodes.tsv"
    bad.write_text("p1\tpaper\tfine\nbroken line without tabs\n")
    with pytest.raises(GraphFormatError, match=r":2:"):
        load_graph(str(bad), edges, schema)


def test_duplicate_node_id_rejected(toy_files, tmp_path):
    _, edges, schema = toy_files
    dup = tmp_path / "dup_nodes.tsv"
    dup.write_text("p1\tpaper\tone\np1\tpaper\ttwo\n")
    with pytest.raises(GraphFormatError, match="duplicate"):
        load_graph(str(dup), edges, schema)


def test_unknown_type_name_rejected(toy_files, tmp_path):
    _, edges, schema = toy_files
    bad = tmp_path / "nodes.tsv"
    bad.write_text("p1\tgizmo\ttext\n")
    with pytest.raises(GraphFormatError, match="gizmo"):
        load_graph(str(bad), edges, schema)


def test_empty_text_rejected_with_line(toy_files, tmp_path):
    _, edges, schema = toy_files
    bad = tmp_path / "nodes.tsv"
    bad.write_text("p1\tpaper\tfine\np2\tpaper\t \\t \n")
    with pytest.raises(GraphFormatError, match=r"nodes\.tsv:2: .*empty text"):
        load_graph(str(bad), edges, schema)


def test_neighbors_toy_fixture(toy_graph):
    g = toy_graph
    p1 = g.id_of("p1")
    assert g.neighbors(p1, "writes") == sorted([g.id_of("a1"), g.id_of("a2")])
    assert g.neighbors(g.id_of("a1"), "writes") == [p1]
    assert g.neighbors(p1, "published_in") == []


def test_neighbors_unknown_node_and_type(toy_graph):
    with pytest.raises(UnknownNodeError):
        toy_graph.neighbors(999, "writes")
    with pytest.raises(UnknownEdgeTypeError):
        toy_graph.neighbors(0, "frobnicates")


def test_mask_hides_edge_from_both_sides(toy_graph):
    g = toy_graph
    p1, a1, a2 = g.id_of("p1"), g.id_of("a1"), g.id_of("a2")
    mask = EdgeMask([(a1, p1, "writes")])
    assert g.neighbors(p1, "writes", mask) == [a2]
    assert g.neighbors(a1, "writes", mask) == []
    assert g.degree(p1, mask) == 1
    assert g.degree(a1, mask) == 0
    # reversed orientation resolves to the same stored edge
    reversed_mask = EdgeMask([(p1, a1, "writes")])
    assert g.neighbors(p1, "writes", reversed_mask) == [a2]


def test_mask_of_absent_edge_changes_nothing(toy_graph):
    g = toy_graph
    p2, a1 = g.id_of("p2"), g.id_of("a1")
    mask = EdgeMask([(a1, p2, "writes")])
    assert g.degree(p2, mask) == g.degree(p2)
    assert g.degree(a1, mask) == g.degree(a1)


def test_degrees_rejects_unknown_ids(toy_graph):
    g = toy_graph
    p1, a1 = g.id_of("p1"), g.id_of("a1")
    mask = EdgeMask([(a1, p1, "writes")])
    assert g.degrees([p1, a1]).tolist() == [2, 1]
    assert g.degrees([p1, a1], mask).tolist() == [1, 0]
    for bad in (-1, len(g)):
        for m in (None, mask):
            with pytest.raises(UnknownNodeError) as excinfo:
                g.degrees([p1, bad, a1], m)
            assert excinfo.value.args == (bad,)


def test_degree_isolated_node(toy_graph):
    # v1 has one edge; a fresh graph with an isolated node:
    g = helpers.degree_profile_graph({"lonely": 0, "busy": 3})
    assert g.degree(g.id_of("lonely")) == 0
    assert g.degree(g.id_of("busy")) == 3


def test_adjacency_symmetry_exhaustive():
    g = helpers.random_het_graph(300, seed=3)
    for t_name in g.edge_types:
        for u, v in g.edges_of_type(t_name):
            assert u in g.neighbors(v, t_name)
            assert v in g.neighbors(u, t_name)


def test_degree_equals_adjacency_length_sum():
    g = helpers.random_het_graph(200, seed=5)
    for v in range(len(g)):
        total = sum(len(g.neighbors(v, t)) for t in g.edge_types)
        assert g.degree(v) == total


def test_mask_soundness_multiset():
    g = helpers.random_het_graph(150, seed=9)
    all_edges = {t: g.edges_of_type(t) for t in g.edge_types}
    picked = [(u, v, t) for t, pairs in all_edges.items() for u, v in pairs[:5]]
    mask = EdgeMask(picked)
    masked_set = set(picked)
    for t_name, pairs in all_edges.items():
        expected = [(u, v) for u, v in pairs if (u, v, t_name) not in masked_set]
        yielded = []
        for u, v in pairs:
            if v in g.neighbors(u, t_name, mask) and u in g.neighbors(v, t_name, mask):
                yielded.append((u, v))
        assert yielded == expected


def test_roundtrip_save_load(tmp_path):
    g = helpers.random_het_graph(400, seed=11)
    nodes, edges, schema = (
        str(tmp_path / "n.tsv"),
        str(tmp_path / "e.tsv"),
        str(tmp_path / "s.json"),
    )
    save_graph(g, nodes, edges, schema)
    g2 = load_graph(nodes, edges, schema)
    assert len(g2) == len(g)
    assert g2.keys == g.keys
    for v in range(len(g)):
        assert g2.text(v) == g.text(v)
        assert g2.degree(v) == g.degree(v)
    for t_name in g.edge_types:
        assert g2.edges_of_type(t_name) == g.edges_of_type(t_name)
        for v in range(len(g)):
            assert g2.neighbors(v, t_name) == g.neighbors(v, t_name)


def test_text_escapes_roundtrip(tmp_path):
    schema = {
        "node_types": [{"name": "n", "identifier_tag": "NN"}],
        "edge_types": [],
    }
    (tmp_path / "s.json").write_text(json.dumps(schema))
    raw = "a\\tb with backslash-t and \\\\ literal"
    (tmp_path / "n.tsv").write_text(f"x\tn\t{raw}\n")
    (tmp_path / "e.tsv").write_text("")
    g = load_graph(str(tmp_path / "n.tsv"), str(tmp_path / "e.tsv"), str(tmp_path / "s.json"))
    # unescape turns \t into a tab, normalization collapses it to a space
    assert g.text(0) == "a b with backslash-t and \\ literal"
    save_graph(g, str(tmp_path / "n2.tsv"), str(tmp_path / "e2.tsv"), str(tmp_path / "s2.json"))
    g2 = load_graph(str(tmp_path / "n2.tsv"), str(tmp_path / "e2.tsv"), str(tmp_path / "s2.json"))
    assert g2.text(0) == g.text(0)

    # an escaped backslash before t, a trailing backslash, and an unknown escape
    cases = {"y": ("x\\\\ty", "x\\ty"), "z": ("end\\", "end\\"), "w": ("a\\xb", "a\\xb")}
    (tmp_path / "n3.tsv").write_text("".join(f"{k}\tn\t{raw}\n" for k, (raw, _) in cases.items()))
    g3 = load_graph(str(tmp_path / "n3.tsv"), str(tmp_path / "e.tsv"), str(tmp_path / "s.json"))
    assert [g3.text(g3.id_of(k)) for k in cases] == [want for _, want in cases.values()]
    save_graph(g3, str(tmp_path / "n4.tsv"), str(tmp_path / "e4.tsv"), str(tmp_path / "s4.json"))
    g4 = load_graph(str(tmp_path / "n4.tsv"), str(tmp_path / "e4.tsv"), str(tmp_path / "s4.json"))
    assert [g4.text(v) for v in range(len(g4))] == [g3.text(v) for v in range(len(g3))]


def test_normalize_text():
    assert normalize_text(" a\t b\nc\x00d ") == "a b cd"
    assert normalize_text("\x01\x02") == ""


def test_meta_relation_enforced(toy_files, tmp_path):
    nodes, _, schema = toy_files
    bad = tmp_path / "edges.tsv"
    bad.write_text("p1\tp2\twrites\n")  # writes must be author -> paper
    with pytest.raises(GraphFormatError, match="meta-relation"):
        load_graph(nodes, str(bad), schema)


def test_duplicate_edge_lines_collapse(toy_files, tmp_path):
    nodes, edges, schema = toy_files
    doubled = tmp_path / "doubled.tsv"
    doubled.write_text(Path(edges).read_text() + "a1\tp1\twrites\na1\tp1\twrites\n")
    g = load_graph(nodes, str(doubled), schema)
    assert g.summary() == load_graph(nodes, edges, schema).summary()
    assert g.summary()["edge_types"] == {"writes": 2, "published_in": 1}
    p1, a1, a2 = g.id_of("p1"), g.id_of("a1"), g.id_of("a2")
    assert g.degree(p1) == 2
    assert g.degree(a1) == 1
    assert g.neighbors(p1, "writes") == sorted([a1, a2])
    assert g.neighbors(a1, "writes") == [p1]


def test_has_edge_orientation_and_range(toy_graph):
    g = toy_graph
    p1, a1, p2, v1 = g.id_of("p1"), g.id_of("a1"), g.id_of("p2"), g.id_of("v1")
    assert g.has_edge(a1, p1, "writes")
    assert not g.has_edge(p1, a1, "writes")
    assert not g.has_edge(a1, p1, "published_in")
    assert g.has_edge(p2, v1, "published_in")
    for u, v in [(-1, p1), (a1, -1), (len(g), p1), (a1, len(g)), (10**9, 10**9)]:
        assert not g.has_edge(u, v, "writes")
    with pytest.raises(UnknownEdgeTypeError):
        g.has_edge(a1, p1, "frobnicates")


def test_mask_naming_missing_node_is_ignored(toy_graph):
    g = toy_graph
    p1, a1 = g.id_of("p1"), g.id_of("a1")
    mask = EdgeMask([(a1, p1, "writes"), (len(g) + 3, p1, "writes"), (-1, a1, "writes")])
    assert g.resolve_mask(mask) == {(a1, p1, "writes")}
    assert g.degree(p1, mask) == 1
    with pytest.raises(UnknownEdgeTypeError):
        g.resolve_mask(EdgeMask([(a1, p1, "frobnicates")]))


def test_empty_node_and_edge_files_load(tmp_path):
    schema = {
        "node_types": [{"name": "n", "identifier_tag": "NN"}],
        "edge_types": [{"name": "e", "source": "n", "target": "n"}],
    }
    (tmp_path / "s.json").write_text(json.dumps(schema))
    (tmp_path / "n.tsv").write_text("")
    (tmp_path / "e.tsv").write_text("")
    g = load_graph(str(tmp_path / "n.tsv"), str(tmp_path / "e.tsv"), str(tmp_path / "s.json"))
    assert len(g) == 0
    assert g.summary() == {"nodes": 0, "edges": 0, "node_types": {"n": 0}, "edge_types": {"e": 0}}
    assert g.nodes_of_type("n") == []
    assert g.edges_of_type("e") == []
    assert not g.has_edge(0, 0, "e")


def test_record_errors_name_file_and_line(toy_files, tmp_path):
    nodes, edges, schema = toy_files
    bad = tmp_path / "edges.tsv"
    bad.write_text("a1\tp1\twrites\n\na2\tp9\twrites\n")
    with pytest.raises(GraphFormatError, match=r"edges\.tsv:3: .*'p9'") as info:
        load_graph(nodes, str(bad), schema)
    assert (info.value.path, info.value.line) == (str(bad), 3)
