"""Differential tests of the undirected CSR edge store against a set-based reference.

The reference below is the edge store the graph used to keep: one Python
set of ``(source, target)`` pairs per edge type, filled line by line from
the edge file, walked by per-type loops over both orientations. Every
traversal the graph exposes must equal what the reference derives from
the same files.
"""

import random
import sys
import threading

import numpy as np
import pytest

from lpnl.graph import EdgeMask, HetGraph, UnknownEdgeTypeError, load_graph, save_graph
from lpnl.synth import SynthSpec, make_academic_graph


class SetReference:
    def __init__(self, g, node_file, edge_file):
        self.n = len(g)
        self.pairs = {t: set() for t in g.edge_types}
        with open(edge_file, encoding="utf-8") as fh:
            for line in fh:
                src, dst, t_name = line.rstrip("\n").split("\t")
                self.pairs[t_name].add((g.id_of(src), g.id_of(dst)))
        self.types = {name: [] for name in g.node_types}
        with open(node_file, encoding="utf-8") as fh:
            for v, line in enumerate(fh):
                self.types[line.split("\t")[1]].append(v)
        # per type: the targets of each source and the sources of each target
        self.out = {t: {} for t in self.pairs}
        self.inn = {t: {} for t in self.pairs}
        for t_name, pairs in self.pairs.items():
            for u, v in pairs:
                self.out[t_name].setdefault(u, []).append(v)
                self.inn[t_name].setdefault(v, []).append(u)

    def has_edge(self, u, v, t_name):
        return (u, v) in self.pairs[t_name]

    def resolve_mask(self, mask):
        if not mask:
            return frozenset()
        resolved = set()
        for u, v, t_name in mask.triples():
            pairs = self.pairs.get(t_name)
            if pairs is None:
                raise UnknownEdgeTypeError(t_name)
            if (u, v) in pairs:
                resolved.add((u, v, t_name))
            elif (v, u) in pairs:
                resolved.add((v, u, t_name))
        return frozenset(resolved)

    def neighbors(self, v, t_name, resolved=frozenset()):
        found = [w for w in self.out[t_name].get(v, ()) if (v, w, t_name) not in resolved]
        found += [u for u in self.inn[t_name].get(v, ()) if (u, v, t_name) not in resolved]
        return sorted(found)

    def all_neighbors(self, v, resolved=frozenset()):
        return sorted(w for t_name in self.pairs for w in self.neighbors(v, t_name, resolved))

    def induced_edges(self, members, resolved=frozenset()):
        return [
            (u, v, t_name)
            for t_name, out in self.out.items()
            for u in sorted(members)
            for v in sorted(out.get(u, ()))
            if v in members and (u, v, t_name) not in resolved
        ]

    def degrees(self):
        deg = np.zeros(self.n, dtype=np.int64)
        for pairs in self.pairs.values():
            for u, v in pairs:
                deg[u] += 1
                deg[v] += 1
        return deg

    def summary(self):
        return {
            "nodes": self.n,
            "edges": sum(len(p) for p in self.pairs.values()),
            "node_types": {name: len(ids) for name, ids in self.types.items()},
            "edge_types": {name: len(p) for name, p in self.pairs.items()},
        }


def _saved_files(tmp_path, n_topics):
    paths = [str(tmp_path / name) for name in ("nodes.tsv", "edges.tsv", "schema.json")]
    save_graph(make_academic_graph(SynthSpec(n_topics=n_topics, seed=3)), *paths)
    return paths


def _assert_rows_match(g, ref, nodes, mask=None):
    resolved = ref.resolve_mask(mask)
    for v in nodes:
        assert g.all_neighbors(v, mask) == ref.all_neighbors(v, resolved), v
        for t_name in ref.pairs:
            assert g.neighbors(v, t_name, mask) == ref.neighbors(v, t_name, resolved), (v, t_name)


def _vertex_set(ref, rng, n):
    """A center's ball of up to ~120 nodes plus a few random nodes."""
    members = {int(rng.integers(n))}
    frontier = list(members)
    while frontier and len(members) < 120:
        frontier = [w for u in frontier for w in ref.all_neighbors(u) if w not in members][:60]
        members.update(frontier)
    members.update(int(x) for x in rng.integers(0, n, size=10))
    return members


def _assert_matches_reference(g, ref, rng):
    n = len(g)
    assert g.summary() == ref.summary()
    for name, ids in ref.types.items():
        assert g.nodes_of_type(name) == ids
    np.testing.assert_array_equal(g.degrees(range(n)), ref.degrees())
    _assert_rows_match(g, ref, range(n))
    for t_name, pairs in ref.pairs.items():
        assert g.edges_of_type(t_name) == sorted(pairs)

        probes = list(pairs) + [(v, u) for u, v in pairs]
        probes += [tuple(int(x) for x in rng.integers(0, n, size=2)) for _ in range(2000)]
        probes += [(-1, 0), (0, -1), (n, 0), (0, n), (n + 7, -3), (-n, -n)]
        for u, v in probes:
            assert g.has_edge(u, v, t_name) == ref.has_edge(u, v, t_name), (u, v, t_name)

    # masks mixing stored, reversed, absent and out-of-range triples
    every = [(u, v, t) for t, pairs in ref.pairs.items() for u, v in sorted(pairs)]
    unmasked = ref.degrees()
    for _ in range(50):
        triples = [every[int(i)] for i in rng.integers(0, len(every), size=4)]
        triples += [(v, u, t) for u, v, t in triples[:2]]
        t_name = every[int(rng.integers(len(every)))][2]
        triples += [(int(rng.integers(n)), int(rng.integers(n)), t_name), (n + 1, 0, t_name)]
        mask = EdgeMask(triples)
        assert g.resolve_mask(mask) == ref.resolve_mask(mask)
        want = unmasked.copy()
        for u, v, _ in ref.resolve_mask(mask):
            want[u] -= 1
            want[v] -= 1
        np.testing.assert_array_equal(g.degrees(range(n), mask), want)
        # every row a mask can change, and a sample of the rows it cannot
        touched = {x for u, v, _ in triples for x in (u, v) if 0 <= x < n}
        _assert_rows_match(g, ref, sorted(touched) + rng.integers(0, n, size=200).tolist(), mask)

    # induced edges of sampled balls, unmasked and with a mask hiding some of them
    for _ in range(30):
        members = _vertex_set(ref, rng, n)
        inside = ref.induced_edges(members)
        assert g.induced_edges(members) == inside
        triples = [inside[int(i)] for i in rng.integers(0, len(inside), size=3)] if inside else []
        triples += [(v, u, t) for u, v, t in triples[:1]]
        triples += [every[int(i)] for i in rng.integers(0, len(every), size=2)]
        mask = EdgeMask(triples)
        assert g.induced_edges(members, mask) == ref.induced_edges(members, ref.resolve_mask(mask))


@pytest.mark.parametrize("n_topics", [40, 400])
def test_csr_store_matches_set_reference(tmp_path, n_topics):
    nodes, edges, schema = _saved_files(tmp_path, n_topics)
    g = load_graph(nodes, edges, schema)
    _assert_matches_reference(g, SetReference(g, nodes, edges), np.random.default_rng(n_topics))


def test_shuffled_duplicated_edge_lines_build_the_same_store(tmp_path):
    nodes, edges, schema = _saved_files(tmp_path, 40)
    with open(edges, encoding="utf-8") as fh:
        lines = fh.readlines()
    shuffler = random.Random(5)
    lines += shuffler.sample(lines, len(lines) // 3)
    shuffler.shuffle(lines)
    noisy = str(tmp_path / "noisy_edges.tsv")
    with open(noisy, "w", encoding="utf-8") as fh:
        fh.writelines(lines)
    g = load_graph(nodes, noisy, schema)
    _assert_matches_reference(g, SetReference(g, nodes, noisy), np.random.default_rng(1))
    clean = load_graph(nodes, edges, schema)
    assert g.summary() == clean.summary()
    for t_name in g.edge_types:
        assert g.edges_of_type(t_name) == clean.edges_of_type(t_name)


def _reversed_copy(g):
    keys = list(reversed(g.keys))
    nodes = [(k, g.type_of(g.id_of(k)).name, g.text(g.id_of(k))) for k in keys]
    edges = [
        (g.key_of(u), g.key_of(v), t) for t in g.edge_types for u, v in g.edges_of_type(t)
    ]
    return HetGraph(list(g.node_types.values()), list(g.edge_types.values()), nodes, edges)


def test_mask_resolution_is_remembered_per_graph(toy_graph):
    g = toy_graph
    p1, a1 = g.id_of("p1"), g.id_of("a1")
    mask = EdgeMask([(p1, a1, "writes")])
    first = g.resolve_mask(mask)
    assert first == {(a1, p1, "writes")}
    assert g.resolve_mask(mask) is first
    # the same ids name no edge in a copy with the node order reversed
    other = _reversed_copy(g)
    assert other.resolve_mask(mask) == frozenset()
    assert g.resolve_mask(mask) == first


def test_mask_resolution_memo_under_threads(toy_graph):
    # threads resolve one mask against two graphs in turn; the memo on the
    # mask holds one graph at a time and must never answer for the other
    g, other = toy_graph, _reversed_copy(toy_graph)
    a1, p1 = g.id_of("a1"), g.id_of("p1")
    mask = EdgeMask([(p1, a1, "writes")])
    want = {id(g): {(a1, p1, "writes")}, id(other): frozenset()}
    wrong: list = []

    def work(seed):
        rng = random.Random(seed)
        for _ in range(2000):
            graph = g if rng.random() < 0.5 else other
            if graph.resolve_mask(mask) != want[id(graph)]:
                wrong.append(seed)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []
