"""Shared fixtures-in-code: graph builders and independent oracles.

The oracles here deliberately re-derive expected values through different
machinery than the library uses (dense linear solves, general-form metric
definitions, a from-scratch tournament simulator) so tests stay honest.
"""

from __future__ import annotations

import contextlib
import json
import math
import re
import ssl
import threading
import time
from array import array
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from types import SimpleNamespace

import numpy as np

from lpnl.evaluation import EvalTask
from lpnl.graph import (
    EdgeType,
    GraphFormatError,
    HetGraph,
    NodeType,
    _read_schema,
    _undirected_csr,
    _unescape_field,
)
from lpnl.sampling import EgoSubgraph
from lpnl.scoring import close_scorer, make_scorer


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


def make_tasks(g, n_tasks: int, n_candidates: int, seed: int) -> list[EvalTask]:
    """``n_tasks`` authorship tasks on ``g``: a true author among random decoys."""
    rng = np.random.default_rng(seed)
    edges = g.edges_of_type("authored_by")
    authors = g.nodes_of_type("author")
    picks = rng.choice(len(edges), size=n_tasks, replace=False)
    tasks = []
    for i in picks:
        source, truth = edges[int(i)]
        true_neighbors = set(g.neighbors(source, "authored_by"))
        decoys = []
        while len(decoys) < n_candidates - 1:
            a = authors[int(rng.integers(len(authors)))]
            if a not in true_neighbors and a not in decoys:
                decoys.append(a)
        candidates = decoys + [truth]
        order = rng.permutation(len(candidates))
        tasks.append(
            EvalTask(
                source_id=source,
                relation="authored_by",
                candidate_ids=tuple(candidates[int(j)] for j in order),
                truth_id=truth,
            )
        )
    return tasks


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
    order, adj = sub.nodes, sub.adjacency
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


# -- the per-record graph loader ------------------------------------------------
#
# load_graph reads each file in blocks and checks the records column-wise. The
# loader below is the one it replaced, frozen: a generator per line, and one
# loop over the nodes and one over the edges that check a record at a time.
# Every stored array, string and error of load_graph must equal its own.

_REF_CONTROL_CHARS = re.compile(r"[\x00-\x08\x0b-\x1f\x7f]")
_REF_WHITESPACE_RUN = re.compile(r"\s+")


def reference_normalize_text(text: str) -> str:
    """``normalize_text`` by its regex definition."""
    return _REF_WHITESPACE_RUN.sub(" ", _REF_CONTROL_CHARS.sub("", text)).strip()


def _reference_read_tsv(path: str, n_fields: int, where: list):
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            fields = line.split("\t")
            if len(fields) != n_fields:
                raise GraphFormatError(
                    f"expected {n_fields} tab-separated fields, got {len(fields)}",
                    path=path,
                    line=lineno,
                )
            where[:] = path, lineno
            yield fields


def reference_graph(node_types, edge_types, nodes, edges) -> SimpleNamespace:
    """What ``HetGraph`` stores for these records (valid schema assumed)."""
    node_type = {nt.name: nt for nt in node_types}
    edge_type = {et.name: et for et in edge_types}
    g = SimpleNamespace(keys=[], key_to_id={}, _texts=[], _type_of=[])
    g._nodes_of_type = {name: [] for name in node_type}
    for key, type_name, text in nodes:
        if key in g.key_to_id:
            raise GraphFormatError(f"duplicate node_id {key!r}")
        nt = node_type.get(type_name)
        if nt is None:
            raise GraphFormatError(f"unknown node type {type_name!r} for node {key!r}")
        clean = reference_normalize_text(text)
        if not clean:
            raise GraphFormatError(f"node {key!r} has empty text after normalization")
        g._nodes_of_type[type_name].append(len(g.keys))
        g.key_to_id[key] = len(g.keys)
        g.keys.append(key)
        g._texts.append(clean)
        g._type_of.append(nt)

    type_index = {name: i for i, name in enumerate(edge_type)}
    sources, targets = array("i"), array("i")
    source_kinds = array("b" if len(edge_type) <= 64 else "i")
    for src_key, dst_key, t_name in edges:
        et = edge_type.get(t_name)
        if et is None:
            raise GraphFormatError(f"unknown edge type {t_name!r}")
        if src_key not in g.key_to_id:
            raise GraphFormatError(f"edge endpoint {src_key!r} does not exist")
        if dst_key not in g.key_to_id:
            raise GraphFormatError(f"edge endpoint {dst_key!r} does not exist")
        u = g.key_to_id[src_key]
        v = g.key_to_id[dst_key]
        if g._type_of[u].name != et.source_type or g._type_of[v].name != et.target_type:
            raise GraphFormatError(
                f"edge ({src_key!r}, {dst_key!r}, {t_name!r}) violates its meta-relation "
                f"<{et.source_type}, {t_name}, {et.target_type}>"
            )
        sources.append(u)
        targets.append(v)
        source_kinds.append(2 * type_index[t_name])
    g._indptr, g._neighbors, g._kinds = _undirected_csr(
        len(g.keys), 2 * len(edge_type), sources, targets, source_kinds
    )
    return g


def reference_load_graph(node_file: str, edge_file: str, schema: str) -> SimpleNamespace:
    """What ``load_graph`` stores for these files, or the error it raises."""
    node_types, edge_types = _read_schema(schema)
    where: list = [None, None]
    nodes = (
        (key, type_name, _unescape_field(text))
        for key, type_name, text in _reference_read_tsv(node_file, 3, where)
    )
    edges = _reference_read_tsv(edge_file, 3, where)
    try:
        return reference_graph(node_types, edge_types, nodes, edges)
    except GraphFormatError as exc:
        if exc.path is not None:
            raise
        raise GraphFormatError(str(exc), path=where[0], line=where[1]) from exc


# -- completion endpoint ----------------------------------------------------------


def first_alias(prompt: str) -> str:
    """The alias of the prompt's first candidate, e.g. ``a1``."""
    return prompt.split("\n")[2].split(": ", 1)[0]


class _KeepAliveHandler(BaseHTTPRequestHandler):
    """HTTP/1.1 answers on kept-alive connections, each in one write."""

    protocol_version = "HTTP/1.1"
    wbufsize = -1  # buffered: headers and body leave in one segment on flush

    def do_POST(self):
        server = self.server
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        arrived = time.perf_counter()
        with server.lock:
            server.seen.append((self.path, dict(self.headers), body))
            reply = server.replies.pop(0) if server.replies else None
            server.in_flight += 1
            server.in_flight_peak = max(server.in_flight_peak, server.in_flight)
        time.sleep(server.latency)
        with server.lock:
            server.in_flight -= 1
            # before the answer leaves: a client waiting for it sends later
            server.log.append((arrived, time.perf_counter(), body["prompt"]))
        if reply is None:
            reply = (200, json.dumps({"text": server.answer(body["prompt"])}).encode(), {})
        status, payload, headers = reply
        self.send_response(status)
        for name, value in headers.items():
            self.send_header(name, value)
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)
        # dropped without a "Connection: close" header
        self.close_connection = server.drop_after_reply

    def log_message(self, *args):
        pass


class KeepAliveEndpoint(ThreadingHTTPServer):
    """A completion endpoint on loopback that keeps connections alive.

    ``connections`` counts accepted connections and ``seen`` holds each
    request's (path, headers, JSON body). Answers come from ``replies``,
    (status, body bytes, headers) taken in order, then are
    ``answer(prompt)``: by default the prompt's first candidate by alias.
    With ``drop_after_reply`` each connection is closed after its answer,
    without a ``Connection: close`` header, and ``dropped`` is released
    once it is. Given ``tls``, it speaks HTTPS.
    Each answer waits ``latency`` seconds; ``log`` holds each request's
    (arrival, answer, prompt) on ``time.perf_counter``, and
    ``in_flight_peak`` the most requests it held at once.
    """

    daemon_threads = True

    def __init__(self, tls: ssl.SSLContext | None = None):
        super().__init__(("127.0.0.1", 0), _KeepAliveHandler)
        if tls is not None:
            self.socket = tls.wrap_socket(self.socket, server_side=True)
        self.lock = threading.Lock()
        self.connections = 0
        self.seen: list = []
        self.replies: list = []
        self.drop_after_reply = False
        self.answer = first_alias
        self.latency = 0.0
        self.log: list[tuple[float, float, str]] = []
        self.in_flight = self.in_flight_peak = 0
        self.dropped = threading.Semaphore(0)
        scheme = "http" if tls is None else "https"
        self.url = f"{scheme}://127.0.0.1:{self.server_port}/v1/complete?mode=test"

    def process_request(self, request, client_address):
        with self.lock:
            self.connections += 1
        super().process_request(request, client_address)

    def shutdown_request(self, request):
        super().shutdown_request(request)
        self.dropped.release()


@contextlib.contextmanager
def serving(server):
    """Run ``server.serve_forever`` on a thread for the ``with`` block."""
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
    assert not thread.is_alive()


# -- scorer backends ---------------------------------------------------------------


@contextlib.contextmanager
def built(cfg):
    """The backend ``cfg`` selects, closed when the ``with`` block exits."""
    backend = make_scorer(cfg)
    try:
        yield backend
    finally:
        close_scorer(backend)


def score_once(bundle, cfg):
    """Build the backend ``cfg`` selects, score ``bundle`` with it, close it."""
    with built(cfg) as backend:
        return backend.score(bundle)
