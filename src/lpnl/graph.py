"""Immutable heterogeneous graph with typed adjacency and per-node text.

File formats
------------
Node file: UTF-8, newline-delimited, tab-separated::

    node_id<TAB>type_name<TAB>text

``text`` may contain any character except tab/newline; the escapes
``\\t``, ``\\n`` and ``\\\\`` are honoured, and any other backslash stays
literal. Edge file::

    src_id<TAB>dst_id<TAB>edge_type_name

Identical edge lines collapse to one stored edge.

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
_WHITESPACE_RUN = re.compile(r"\s+")


def normalize_text(text: str) -> str:
    """Strip control characters and collapse internal whitespace.

    Node text is embedded verbatim in rendered prompts, so it must be a
    single clean line.
    """
    text = _CONTROL_CHARS.sub("", text)
    return _WHITESPACE_RUN.sub(" ", text).strip()


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
        self._nodes_of_type: dict[str, list[int]] = {name: [] for name in self.node_types}
        for key, type_name, text in nodes:
            if key in self.key_to_id:
                raise GraphFormatError(f"duplicate node_id {key!r}")
            nt = self.node_types.get(type_name)
            if nt is None:
                raise GraphFormatError(f"unknown node type {type_name!r} for node {key!r}")
            clean = normalize_text(text)
            if not clean:
                raise GraphFormatError(f"node {key!r} has empty text after normalization")
            self._nodes_of_type[type_name].append(len(self.keys))
            self.key_to_id[key] = len(self.keys)
            self.keys.append(key)
            self._texts.append(clean)
            self._type_of.append(nt)

        # position of each edge type in the schema; an entry's kind is twice it
        self._type_index: dict[str, int] = {name: i for i, name in enumerate(self.edge_types)}
        sources, targets = array("i"), array("i")
        source_kinds = array("b" if len(self.edge_types) <= 64 else "i")
        for src_key, dst_key, t_name in edges:
            et = self.edge_types.get(t_name)
            if et is None:
                raise GraphFormatError(f"unknown edge type {t_name!r}")
            if src_key not in self.key_to_id:
                raise GraphFormatError(f"edge endpoint {src_key!r} does not exist")
            if dst_key not in self.key_to_id:
                raise GraphFormatError(f"edge endpoint {dst_key!r} does not exist")
            u = self.key_to_id[src_key]
            v = self.key_to_id[dst_key]
            if self._type_of[u].name != et.source_type or self._type_of[v].name != et.target_type:
                raise GraphFormatError(
                    f"edge ({src_key!r}, {dst_key!r}, {t_name!r}) violates its meta-relation "
                    f"<{et.source_type}, {t_name}, {et.target_type}>"
                )
            sources.append(u)
            targets.append(v)
            source_kinds.append(2 * self._type_index[t_name])

        self._indptr, self._neighbors, self._kinds = _undirected_csr(
            len(self.keys), 2 * len(self.edge_types), sources, targets, source_kinds
        )
        self._degree = np.diff(self._indptr)

        if _source:
            logger.info("loaded graph from %s: %s", _source, self.summary())

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


def _read_tsv(path: str, n_fields: int, where: list) -> Iterator[list[str]]:
    """Fields of each non-blank line; ``where`` is set to its file and line."""
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


def load_graph(node_file: str, edge_file: str, schema: str) -> HetGraph:
    """Load and validate a heterogeneous graph from disk.

    Raises :class:`GraphFormatError` on malformed records, unknown type
    names, dangling edge endpoints, or duplicate node ids; an error about
    a record names its file and line, one about the schema its path.
    Records stream into :class:`HetGraph`, which normalises each node's
    text once.
    """
    node_types, edge_types = _read_schema(schema)
    where: list = [None, None]  # file and line of the record being added
    nodes = (
        (key, type_name, _unescape_field(text))
        for key, type_name, text in _read_tsv(node_file, 3, where)
    )
    edges = _read_tsv(edge_file, 3, where)
    try:
        return HetGraph(node_types, edge_types, nodes, edges, _source=node_file)
    except GraphFormatError as exc:
        if exc.path is not None:
            raise
        # before the first record is read, only the schema can be at fault
        path, line = where if where[0] is not None else (schema, None)
        raise GraphFormatError(str(exc), path=path, line=line) from exc


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
