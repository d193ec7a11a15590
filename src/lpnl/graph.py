"""Immutable heterogeneous graph with typed adjacency and per-node text.

File formats
------------
Node file: UTF-8, newline-delimited, tab-separated::

    node_id<TAB>type_name<TAB>text

``text`` may contain any character except tab/newline; the escapes
``\\t``, ``\\n`` and ``\\\\`` are honoured, and any other backslash stays
literal. A ``node_id`` may not hold a tab, a newline or a carriage return.
Edge file::

    src_id<TAB>dst_id<TAB>edge_type_name

Identical edge lines collapse to one stored edge. Blank lines are skipped,
and ``\\r\\n`` or ``\\r`` ends a line as ``\\n`` does. ``load_graph`` reads each
file in blocks of lines and :class:`HetGraph` checks each block's records
column-wise; an error names the file and line of the first bad record.

Schema file: JSON with ``node_types`` (each ``{name, identifier_tag}``)
and ``edge_types`` (each ``{name, source, target}``).

Node ids in files are arbitrary strings; they are mapped to dense
integers at load so adjacency can live in flat arrays. Every edge is
traversable from both endpoints (walk semantics): one undirected CSR,
``indptr`` plus ``neighbors`` (int32, each row ascending), holds each
stored edge in the rows of both endpoints, and ``kinds`` (int8; int32
past 64 edge types) keeps the declared orientation that masks and
relations need: ``2 * i`` for the schema's ``i``-th edge type, plus 1 in
the row of the stored target. Every traversal reads this one store.
"""

from __future__ import annotations

import bisect
import json
import logging
import re
from array import array
from dataclasses import dataclass
from itertools import islice
from typing import Iterable, Iterator, Sequence

import numpy as np

logger = logging.getLogger(__name__)

__all__ = [
    "NodeType",
    "EdgeType",
    "HetGraph",
    "EdgeMask",
    "GraphFormatError",
    "UnknownNodeError",
    "UnknownNodeTypeError",
    "UnknownEdgeTypeError",
    "load_graph",
    "save_graph",
    "normalize_text",
]


class GraphFormatError(ValueError):
    """Malformed input file; carries the offending file and line number."""

    _record: int | None = None  # a refused record's place in its batch, for load_graph

    def __init__(self, message: str, path: str | None = None, line: int | None = None):
        self.path = path
        self.line = line
        where = ""
        if path is not None:
            where = f"{path}: " if line is None else f"{path}:{line}: "
        super().__init__(f"{where}{message}")


class UnknownNodeError(KeyError):
    pass


class UnknownNodeTypeError(KeyError):
    pass


class UnknownEdgeTypeError(KeyError):
    pass


@dataclass(frozen=True)
class NodeType:
    name: str
    type_id: int
    identifier_tag: str


@dataclass(frozen=True)
class EdgeType:
    name: str
    source_type: str
    target_type: str


_CONTROL_CHARS = re.compile(r"[\x00-\x08\x0b-\x1f\x7f]")
# tab, newline and every other C0/C1 control character
_ANY_CONTROL_CHAR = re.compile(r"[\x00-\x1f\x7f-\x9f]")
# what ends a TSV field or line, so a node key may not hold it
_FIELD_BREAK = re.compile(r"[\t\n\r]")
_BATCH = 1 << 12  # records HetGraph checks at a time, unless a file brings its blocks
# characters of lines load_graph reads at a time: 64 KB blocks load no faster
# and leave ~1 MB more of the heap behind
_BLOCK = 1 << 14
_NOT_TAB_OR_NEWLINE = bytes(set(range(256)) - set(b"\t\n"))


def normalize_text(text: str) -> str:
    """Strip control characters and collapse internal whitespace.

    Node text is embedded verbatim in rendered prompts, so it must be a
    single clean line.
    """
    # str.split() and str.strip() use the same whitespace test as re's \s
    return " ".join(_CONTROL_CHARS.sub("", text).split())


def _check_schema_name(what: str, name: object) -> None:
    """Type names and tags go verbatim into prompt lines and TSV fields."""
    if not isinstance(name, str) or not name or _ANY_CONTROL_CHAR.search(name):
        raise GraphFormatError(
            f"{what} {name!r} must be a non-empty string without tabs, newlines "
            "or other control characters"
        )


def _escape_field(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\t", "\\t").replace("\n", "\\n")


_ESCAPE = re.compile(r"\\([tn\\])")
_UNESCAPED = {"t": "\t", "n": "\n", "\\": "\\"}


def _unescape_field(text: str) -> str:
    return _ESCAPE.sub(lambda m: _UNESCAPED[m.group(1)], text)


class EdgeMask:
    """A set of (source_id, target_id, edge_type) triples hidden from traversal.

    A triple given in the reverse of the stored orientation still masks the
    stored edge (the triple is resolved against the graph when applied), so
    callers never need to know which endpoint a relation was declared from.
    An edge type the schema lacks raises :class:`UnknownEdgeTypeError` when
    applied; only unmatched or out-of-range endpoints mask nothing.
    Masks are per-task overlays; they never mutate the shared graph.
    """

    def __init__(self, triples: Iterable[tuple[int, int, str]] = ()):
        self._triples: frozenset[tuple[int, int, str]] = frozenset(
            (int(u), int(v), str(t)) for u, v, t in triples
        )
        # (graph, resolved triples) of the last HetGraph.resolve_mask call;
        # traversal resolves the same mask many times per sample
        self._resolution: tuple[HetGraph, frozenset[tuple[int, int, str]]] | None = None

    def __bool__(self) -> bool:
        return bool(self._triples)

    def triples(self) -> frozenset[tuple[int, int, str]]:
        return self._triples


class HetGraph:
    """Typed-node, typed-edge graph, immutable after construction.

    Instances are safe to share across threads; per-task edge removal is
    expressed through :class:`EdgeMask` overlays passed into traversal calls.
    """

    def __init__(
        self,
        node_types: Sequence[NodeType],
        edge_types: Sequence[EdgeType],
        nodes: Iterable[tuple[str, str, str]],
        edges: Iterable[tuple[str, str, str]],
        *,
        _source: str | None = None,
    ):
        for nt in node_types:
            _check_schema_name("node type name", nt.name)
            _check_schema_name(f"identifier tag of node type {nt.name!r}", nt.identifier_tag)
        for et in edge_types:
            _check_schema_name("edge type name", et.name)
        self.node_types: dict[str, NodeType] = {nt.name: nt for nt in node_types}
        if len(self.node_types) != len(node_types):
            raise GraphFormatError("duplicate node type name in schema")
        self.edge_types: dict[str, EdgeType] = {et.name: et for et in edge_types}
        if len(self.edge_types) != len(edge_types):
            raise GraphFormatError("duplicate edge type name in schema")
        for et in edge_types:
            for side in (et.source_type, et.target_type):
                if side not in self.node_types:
                    raise GraphFormatError(
                        f"edge type {et.name!r} references unknown node type {side!r}"
                    )

        self.keys: list[str] = []
        self.key_to_id: dict[str, int] = {}
        self._texts: list[str] = []
        self._type_of: list[NodeType] = []
        position = {name: i for i, name in enumerate(self.node_types)}
        type_ids = array("i")  # each node's type, as its position in the schema
        for keys, type_names, texts in _batches(nodes):
            self._add_nodes(keys, type_names, texts, position, type_ids)
        type_of = np.asarray(type_ids)
        self._nodes_of_type: dict[str, list[int]] = {
            name: np.flatnonzero(type_of == i).tolist() for name, i in position.items()
        }

        # position of each edge type in the schema; an entry's kind is twice it
        self._type_index: dict[str, int] = {name: i for i, name in enumerate(self.edge_types)}
        # the node types that an edge of each type joins
        ends = np.array([(position[et.source_type], position[et.target_type]) for et in edge_types],
                        dtype=np.int32).reshape(-1, 2)
        store = array("i"), array("i"), array("b" if len(self.edge_types) <= 64 else "i")
        for srcs, dsts, t_names in _batches(edges):
            self._add_edges(srcs, dsts, t_names, type_of, ends, store)

        self._indptr, self._neighbors, self._kinds = _undirected_csr(
            len(self.keys), 2 * len(self.edge_types), *store
        )
        self._degree = np.diff(self._indptr)

        if _source:
            logger.info("loaded graph from %s: %s", _source, self.summary())

    def _add_nodes(self, keys, type_names, texts, position: dict, type_ids: array) -> None:
        """Check a batch of node records column-wise, then store it."""
        n0, n = len(self.keys), len(keys)
        types = list(map(position.get, type_names))
        clean = list(map(normalize_text, texts))
        broken = dup = n
        if _FIELD_BREAK.search("".join(keys)):
            broken = next(i for i, key in enumerate(keys) if _FIELD_BREAK.search(key))
        if len(set(keys)) < n or not self.key_to_id.keys().isdisjoint(keys):
            seen: set = set()
            dup = next(i for i, key in enumerate(keys)
                       if key in self.key_to_id or key in seen or seen.add(key))
        _refuse_first([broken, dup, types.index(None) if None in types else n,
                       clean.index("") if "" in clean else n], n, [
            lambda at: f"node_id {keys[at]!r} must not hold a tab, a newline or a carriage return",
            lambda at: f"duplicate node_id {keys[at]!r}",
            lambda at: f"unknown node type {type_names[at]!r} for node {keys[at]!r}",
            lambda at: f"node {keys[at]!r} has empty text after normalization",
        ])
        self.key_to_id.update(zip(keys, range(n0, n0 + n)))
        self.keys.extend(keys)
        self._texts.extend(clean)
        self._type_of.extend(map(list(self.node_types.values()).__getitem__, types))
        type_ids.extend(types)

    def _add_edges(self, srcs, dsts, t_names, type_of, ends, store: tuple) -> None:
        """Check a batch of edge records column-wise, then append it to ``store``."""
        kinds = list(map({name: 2 * i for name, i in self._type_index.items()}.get, t_names))
        us = list(map(self.key_to_id.get, srcs))
        vs = list(map(self.key_to_id.get, dsts))
        failing = [col.index(None) if None in col else len(col) for col in (kinds, us, vs)]
        cut = min(failing)  # the records before it have known types and endpoints
        checked = array("i", us[:cut]), array("i", vs[:cut]), array(store[2].typecode, kinds[:cut])
        u, v, k = map(np.asarray, checked)
        wrong = (type_of[u] != ends[k >> 1, 0]) | (type_of[v] != ends[k >> 1, 1])
        failing.append(int(wrong.argmax()) if wrong.any() else len(kinds))
        _refuse_first(failing, len(kinds), [
            lambda at: f"unknown edge type {t_names[at]!r}",
            lambda at: f"edge endpoint {srcs[at]!r} does not exist",
            lambda at: f"edge endpoint {dsts[at]!r} does not exist",
            lambda at: f"edge ({srcs[at]!r}, {dsts[at]!r}, {t_names[at]!r}) violates its "
            f"meta-relation <{self.edge_types[t_names[at]].source_type}, {t_names[at]}, "
            f"{self.edge_types[t_names[at]].target_type}>",
        ])
        for column, batch in zip(store, checked):
            column.extend(batch)

    # -- basic accessors ----------------------------------------------------

    def __len__(self) -> int:
        return len(self.keys)

    @property
    def num_edges(self) -> int:
        # every stored edge has one entry in the row of each endpoint
        return len(self._neighbors) // 2

    def text(self, v: int) -> str:
        self._check_node(v)
        return self._texts[v]

    def type_of(self, v: int) -> NodeType:
        self._check_node(v)
        return self._type_of[v]

    def id_of(self, key: str) -> int:
        if key not in self.key_to_id:
            raise UnknownNodeError(key)
        return self.key_to_id[key]

    def key_of(self, v: int) -> str:
        self._check_node(v)
        return self.keys[v]

    def nodes_of_type(self, type_name: str) -> list[int]:
        if type_name not in self.node_types:
            raise UnknownNodeTypeError(type_name)
        return list(self._nodes_of_type[type_name])

    def edge_type(self, t: EdgeType | str) -> EdgeType:
        name = t.name if isinstance(t, EdgeType) else t
        et = self.edge_types.get(name)
        if et is None:
            raise UnknownEdgeTypeError(name)
        return et

    def has_edge(self, u: int, v: int, t: EdgeType | str) -> bool:
        """Whether (u, v) is a stored edge of type ``t`` in that orientation."""
        kind = 2 * self._type_index[self.edge_type(t).name]
        if not (0 <= u < len(self.keys) and 0 <= v < len(self.keys)):
            return False
        # binary search of u's row for the entries of v, then their kinds
        lo, hi = int(self._indptr[u]), int(self._indptr[u + 1])
        first = bisect.bisect_left(self._neighbors, v, lo, hi)
        last = bisect.bisect_right(self._neighbors, v, first, hi)
        return kind in self._kinds[first:last].tolist()

    def edges_of_type(self, t: EdgeType | str) -> list[tuple[int, int]]:
        """Stored (source, target) pairs of one edge type, in sorted order."""
        kind = 2 * self._type_index[self.edge_type(t).name]
        # the source's entries: rows ascend, and so do the targets in a row
        at = np.flatnonzero(self._kinds == kind)
        sources = np.searchsorted(self._indptr, at, side="right") - 1
        return list(zip(sources.tolist(), self._neighbors[at].tolist()))

    def summary(self) -> dict:
        node_counts = {name: len(ids) for name, ids in self._nodes_of_type.items()}
        per_kind = np.bincount(self._kinds, minlength=2 * len(self.edge_types))
        edge_counts = dict(zip(self.edge_types, per_kind[::2].tolist()))
        return {"nodes": len(self.keys), "edges": self.num_edges,
                "node_types": node_counts, "edge_types": edge_counts}

    def _check_node(self, v: int) -> None:
        if not 0 <= v < len(self.keys):
            raise UnknownNodeError(v)

    # -- masking ------------------------------------------------------------

    def resolve_mask(self, mask: EdgeMask | None) -> frozenset[tuple[int, int, str]]:
        """Map mask triples onto stored edges.

        A triple whose literal orientation matches a stored edge masks that
        edge; otherwise, if the reversed orientation exists, the reversed
        edge is masked. Unmatched or out-of-range endpoints are ignored; an
        unknown edge type raises :class:`UnknownEdgeTypeError`, as a typo
        must not leave the edge visible. The result is remembered on the
        mask for the graph it was resolved against.
        """
        if not mask:
            return frozenset()
        cached = mask._resolution
        if cached is not None and cached[0] is self:
            return cached[1]
        resolved = set()
        for u, v, t_name in mask.triples():
            if self.has_edge(u, v, t_name):
                resolved.add((u, v, t_name))
            elif self.has_edge(v, u, t_name):
                resolved.add((v, u, t_name))
        resolution = frozenset(resolved)
        mask._resolution = (self, resolution)
        return resolution

    # -- traversal ----------------------------------------------------------

    def _row(self, v: int, t_name: str | None, resolved: frozenset) -> list[int]:
        """``v``'s neighbors, of type ``t_name`` unless None, minus masked edges."""
        lo, hi = self._indptr[v], self._indptr[v + 1]
        out = self._neighbors[lo:hi].tolist()
        if t_name is not None:
            index = self._type_index[t_name]
            out = [w for w, kind in zip(out, self._kinds[lo:hi].tolist()) if kind >> 1 == index]
        # a resolved edge is stored, so each endpoint's row holds the other once
        for mu, mv, mt in resolved:
            if t_name is None or mt == t_name:
                if mu == v:
                    out.remove(mv)
                if mv == v:
                    out.remove(mu)
        return out

    def neighbors(
        self, v: int, t: EdgeType | str, mask: EdgeMask | None = None
    ) -> list[int]:
        """Sorted neighbor ids of ``v`` under edge type ``t``.

        Both orientations are walkable: a node of the source type sees its
        targets, a node of the target type sees its sources, and a node of a
        same-typed relation sees both. Masked edges are omitted.
        """
        self._check_node(v)
        return self._row(v, self.edge_type(t).name, self.resolve_mask(mask))

    def all_neighbors(self, v: int, mask: EdgeMask | None = None) -> list[int]:
        """Sorted neighbors of ``v`` across every edge type (multiset)."""
        self._check_node(v)
        return self._row(v, None, self.resolve_mask(mask))

    def degree(self, v: int, mask: EdgeMask | None = None) -> int:
        """Total incident edge count across all edge types, minus masked edges."""
        return int(self.degrees([v], mask)[0])

    def degrees(self, nodes: Sequence[int], mask: EdgeMask | None = None) -> np.ndarray:
        """:meth:`degree` of each node, in order; the first unknown id raises."""
        n = len(self.keys)
        # builtin min/max: a numpy mask with any() doubled this call's cost on
        # the sampler's short lists
        if len(nodes) and (min(nodes) < 0 or max(nodes) >= n):
            raise UnknownNodeError(next(v for v in nodes if not 0 <= v < n))
        ids = np.asarray(nodes, dtype=np.int64)
        degs = self._degree[ids]
        # a mask holds a few edges; each takes one from both its endpoints
        for mu, mv, _ in self.resolve_mask(mask):
            degs -= ids == mu
            degs -= ids == mv
        return degs

    def induced_edges(
        self, vertex_set: Iterable[int], mask: EdgeMask | None = None
    ) -> list[tuple[int, int, str]]:
        """All stored edges with both endpoints in ``vertex_set``, mask applied."""
        members = set(vertex_set)
        resolved = self.resolve_mask(mask)
        names = list(self.edge_types)
        # one pass over the members' rows; the buckets keep the schema's type order
        by_type: list[list[tuple[int, int, str]]] = [[] for _ in names]
        for u in sorted(members):
            lo, hi = self._indptr[u], self._indptr[u + 1]
            for w, kind in zip(self._neighbors[lo:hi].tolist(), self._kinds[lo:hi].tolist()):
                # an even kind is the entry in the stored source's row
                if not kind & 1 and w in members:
                    edge = (u, w, names[kind >> 1])
                    if edge not in resolved:
                        by_type[kind >> 1].append(edge)
        return [edge for edges in by_type for edge in edges]


def _undirected_csr(
    n: int, n_kinds: int, sources: array, targets: array, source_kinds: array
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``indptr``, ``neighbors`` and ``kinds`` of the distinct stored edges.

    ``source_kinds`` holds each edge's kind in its source's row; the entry
    in the target's row is that kind plus 1.
    """
    m = len(sources)
    # one int64 key per entry orders the rows, each row by neighbor then
    # kind; one in-place sort also makes identical edge lines adjacent
    key = np.empty(2 * m, dtype=np.int64)
    for half, rows, cols, side in ((key[:m], sources, targets, 0), (key[m:], targets, sources, 1)):
        half[:] = np.asarray(rows)
        half *= n
        half += np.asarray(cols)
        half *= n_kinds
        half += np.asarray(source_kinds)
        half += side
    key.sort()
    first = np.ones(len(key), dtype=bool)
    np.not_equal(key[1:], key[:-1], out=first[1:])
    if not first.all():
        key = key[first]  # identical edge lines collapse to one stored edge
    kinds = np.empty(len(key), dtype=np.asarray(source_kinds).dtype)
    np.remainder(key, n_kinds, out=kinds, casting="unsafe")
    key //= n_kinds
    neighbors = np.empty(len(key), dtype=np.int32)
    np.remainder(key, n, out=neighbors, casting="unsafe")
    key //= n
    return np.searchsorted(key, np.arange(n + 1)), neighbors, kinds


# -- loading / saving -------------------------------------------------------


def _read_schema(schema_path: str) -> tuple[list[NodeType], list[EdgeType]]:
    with open(schema_path, encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise GraphFormatError(f"schema is not valid JSON: {exc}", path=schema_path) from exc
    try:
        node_types = [
            NodeType(name=entry["name"], type_id=i, identifier_tag=entry["identifier_tag"])
            for i, entry in enumerate(raw.get("node_types", []))
        ]
        edge_types = [
            EdgeType(name=entry["name"], source_type=entry["source"], target_type=entry["target"])
            for entry in raw.get("edge_types", [])
        ]
    except (KeyError, TypeError) as exc:
        raise GraphFormatError(f"schema entry missing field: {exc}", path=schema_path) from exc
    if not node_types:
        raise GraphFormatError("schema declares no node types", path=schema_path)
    return node_types, edge_types


def _refuse_first(failing: list[int], n: int, messages: list) -> None:
    """Raise the error of the first of ``n`` records to fail a check.

    ``failing`` holds each check's first failing record (``n`` if none), in the
    order a record meets the checks; ``messages`` each check's error, by record.
    """
    at = min(failing)
    if at < n:
        exc = GraphFormatError(messages[failing.index(at)](at))
        exc._record = at
        raise exc


def _batches(records: Iterable) -> Iterator:
    """The columns of ``records``, a batch at a time; a file brings its own blocks."""
    if isinstance(records, _TsvBlocks):
        return iter(records)
    records = iter(records)
    return (tuple(zip(*batch, strict=True))
            for batch in iter(lambda: list(islice(records, _BATCH)), []))


class _TsvBlocks:
    """The three columns of a TSV file's records, a block of lines at a time.

    Only the current block is held; its lines give the line number of a
    record the graph refuses.
    """

    def __init__(self, path: str, escaped: bool = False):
        self.path = path
        self.escaped = escaped  # the third column holds escaped node text
        self.lines: list[str] = []
        self.first_line = 1  # the number of the block's first line

    def __iter__(self) -> Iterator[tuple[list[str], list[str], list[str]]]:
        with open(self.path, encoding="utf-8") as fh:
            while lines := fh.readlines(_BLOCK):
                self.first_line += len(self.lines)
                self.lines = lines
                records = [line for line in lines if line != "\n"] if "\n" in lines else lines
                block, good = "".join(records), len(records)
                # every line holds two tabs: tab, tab, newline repeat through the
                # block, and a file's last line may lack its newline
                seps = block.encode().translate(None, _NOT_TAB_OR_NEWLINE)
                if seps != b"\t\t\n" * good and seps + b"\n" != b"\t\t\n" * good:
                    good = next(i for i, line in enumerate(records) if line.count("\t") != 2)
                # one split per block; the records before a malformed line are checked first
                fields = block.replace("\n", "\t").split("\t")
                del fields[3 * good:]
                texts = fields[2::3]
                if self.escaped:
                    texts = [_unescape_field(text) if "\\" in text else text for text in texts]
                yield fields[0::3], fields[1::3], texts
                _refuse_first([good], len(records), [
                    lambda at: "expected 3 tab-separated fields, got {}".format(
                        records[at].count("\t") + 1)])


def load_graph(node_file: str, edge_file: str, schema: str) -> HetGraph:
    """Load and validate a heterogeneous graph from disk.

    Raises :class:`GraphFormatError` on malformed records, unknown type
    names, dangling edge endpoints, or duplicate node ids; an error about
    a record names its file and line (blank lines count), one about the
    schema its path. The first bad record in file order is reported, the
    node file's before the edge file's. Each file is read in blocks of
    lines of at most 16 KB, and :class:`HetGraph` checks each block
    column-wise and normalises each node's text once.
    """
    node_types, edge_types = _read_schema(schema)
    nodes, edges = _TsvBlocks(node_file, escaped=True), _TsvBlocks(edge_file)
    try:
        return HetGraph(node_types, edge_types, nodes, edges, _source=node_file)
    except GraphFormatError as exc:
        if exc._record is None:  # not about a record: the schema is at fault
            raise GraphFormatError(str(exc), path=schema) from exc
        # the edge file is read only once every node is in; blank lines count
        blocks = edges if edges.lines else nodes
        lines = (n for n, line in enumerate(blocks.lines, blocks.first_line) if line != "\n")
        line = next(islice(lines, exc._record, None))
        raise GraphFormatError(str(exc), path=blocks.path, line=line) from exc


def save_graph(g: HetGraph, node_file: str, edge_file: str, schema_file: str) -> None:
    """Write a graph back to the three-file on-disk format."""
    schema = {
        "node_types": [
            {"name": nt.name, "identifier_tag": nt.identifier_tag}
            for nt in sorted(g.node_types.values(), key=lambda nt: nt.type_id)
        ],
        "edge_types": [
            {"name": et.name, "source": et.source_type, "target": et.target_type}
            for et in g.edge_types.values()
        ],
    }
    with open(schema_file, "w", encoding="utf-8") as fh:
        json.dump(schema, fh, indent=2, sort_keys=False)
        fh.write("\n")
    with open(node_file, "w", encoding="utf-8") as fh:
        for v in range(len(g)):
            fh.write(f"{g.keys[v]}\t{g.type_of(v).name}\t{_escape_field(g.text(v))}\n")
    with open(edge_file, "w", encoding="utf-8") as fh:
        for t_name in g.edge_types:
            for u, v in g.edges_of_type(t_name):
                fh.write(f"{g.key_of(u)}\t{g.key_of(v)}\t{t_name}\n")
