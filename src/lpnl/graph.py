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
traversable from both endpoints (walk semantics); the declared
source/target orientation is kept so that masks and relations stay
well defined.
"""

from __future__ import annotations

import bisect
import json
import logging
import re
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

logger = logging.getLogger(__name__)

__all__ = [
    "NodeType",
    "EdgeType",
    "Node",
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
        where = f"{path}:{line}: " if path is not None and line is not None else ""
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


@dataclass(frozen=True)
class Node:
    node_id: int
    key: str
    type: NodeType
    text: str


_CONTROL_CHARS = re.compile(r"[\x00-\x08\x0b-\x1f\x7f]")
_WHITESPACE_RUN = re.compile(r"\s+")


def normalize_text(text: str) -> str:
    """Strip control characters and collapse internal whitespace.

    Node text is embedded verbatim in rendered prompts, so it must be a
    single clean line.
    """
    text = _CONTROL_CHARS.sub("", text)
    return _WHITESPACE_RUN.sub(" ", text).strip()


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
    Masks are per-task overlays; they never mutate the shared graph.
    """

    def __init__(self, triples: Iterable[tuple[int, int, str]] = ()):
        self._triples: frozenset[tuple[int, int, str]] = frozenset(
            (int(u), int(v), str(t)) for u, v, t in triples
        )
        # (graph, resolved triples) of the last HetGraph.resolve_mask call;
        # traversal resolves the same mask many times per sample
        self._resolution: tuple[HetGraph, frozenset[tuple[int, int, str]]] | None = None

    def __len__(self) -> int:
        return len(self._triples)

    def __iter__(self) -> Iterator[tuple[int, int, str]]:
        return iter(sorted(self._triples))

    def __bool__(self) -> bool:
        return bool(self._triples)

    def triples(self) -> frozenset[tuple[int, int, str]]:
        return self._triples


@dataclass
class _TypedAdjacency:
    """Per-edge-type adjacency in CSR form, stored in both orientations."""

    fwd_indptr: np.ndarray
    fwd_indices: np.ndarray
    rev_indptr: np.ndarray
    rev_indices: np.ndarray

    def out_neighbors(self, v: int) -> np.ndarray:
        return self.fwd_indices[self.fwd_indptr[v] : self.fwd_indptr[v + 1]]

    def in_neighbors(self, v: int) -> np.ndarray:
        return self.rev_indices[self.rev_indptr[v] : self.rev_indptr[v + 1]]

    @classmethod
    def from_pairs(cls, n: int, sources: list[int], targets: list[int]) -> _TypedAdjacency:
        """Both CSR orientations of the distinct (source, target) pairs, rows sorted."""
        # identical edge lines collapse to one stored edge; np.unique also
        # sorts the pairs by source, then target
        packed = np.asarray(sources, dtype=np.int64) * n + np.asarray(targets, dtype=np.int64)
        u, v = np.divmod(np.unique(packed), max(n, 1))

        def indptr(rows: np.ndarray) -> np.ndarray:
            return np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=n))))

        return cls(indptr(u), v, indptr(v), u[np.lexsort((u, v))])


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

        n = len(self.keys)
        sources: dict[str, list[int]] = {et.name: [] for et in edge_types}
        targets: dict[str, list[int]] = {et.name: [] for et in edge_types}
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
            sources[t_name].append(u)
            targets[t_name].append(v)

        self._adj: dict[str, _TypedAdjacency] = {
            t_name: _TypedAdjacency.from_pairs(n, sources[t_name], targets[t_name])
            for t_name in self.edge_types
        }
        self._deg_total = np.zeros(n, dtype=np.int64)
        for adj in self._adj.values():
            self._deg_total += np.diff(adj.fwd_indptr) + np.diff(adj.rev_indptr)

        if _source:
            logger.info("loaded graph from %s: %s", _source, self.summary())

    # -- basic accessors ----------------------------------------------------

    def __len__(self) -> int:
        return len(self.keys)

    @property
    def num_edges(self) -> int:
        return sum(len(adj.fwd_indices) for adj in self._adj.values())

    def node(self, v: int) -> Node:
        self._check_node(v)
        return Node(node_id=v, key=self.keys[v], type=self._type_of[v], text=self._texts[v])

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
        adj = self._adj[self.edge_type(t).name]
        if not (0 <= u < len(self.keys) and 0 <= v < len(self.keys)):
            return False
        # binary search of u's row; rows hold targets in ascending order
        end = int(adj.fwd_indptr[u + 1])
        i = bisect.bisect_left(adj.fwd_indices, v, int(adj.fwd_indptr[u]), end)
        return i < end and bool(adj.fwd_indices[i] == v)

    def edges_of_type(self, t: EdgeType | str) -> list[tuple[int, int]]:
        """Stored (source, target) pairs of one edge type, in sorted order."""
        adj = self._adj[self.edge_type(t).name]
        # CSR rows hold each source's targets in ascending order
        sources = np.repeat(np.arange(len(self.keys)), np.diff(adj.fwd_indptr))
        return list(zip(sources.tolist(), adj.fwd_indices.tolist()))

    def summary(self) -> dict:
        node_counts = {name: len(ids) for name, ids in self._nodes_of_type.items()}
        edge_counts = {name: len(adj.fwd_indices) for name, adj in self._adj.items()}
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
        edge is masked. Triples matching nothing are ignored. The result is
        remembered on the mask for the graph it was resolved against.
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

    def _neighbors_resolved(
        self, v: int, et: EdgeType, resolved: frozenset[tuple[int, int, str]]
    ) -> list[int]:
        adj = self._adj[et.name]
        v_type = self._type_of[v].name
        parts: list[np.ndarray] = []
        if v_type == et.source_type:
            parts.append(adj.out_neighbors(v))
        if v_type == et.target_type:
            parts.append(adj.in_neighbors(v))
        if not parts:
            return []
        merged = np.sort(np.concatenate(parts)) if len(parts) > 1 else parts[0]
        result = merged.tolist()
        if resolved:
            for mu, mv, mt in resolved:
                if mt != et.name:
                    continue
                if mu == v:
                    _remove_one(result, mv)
                if mv == v:
                    _remove_one(result, mu)
        return result

    def neighbors(
        self, v: int, t: EdgeType | str, mask: EdgeMask | None = None
    ) -> list[int]:
        """Sorted neighbor ids of ``v`` under edge type ``t``.

        Both orientations are walkable: a node of the source type sees its
        targets, a node of the target type sees its sources, and a node of a
        same-typed relation sees both. Masked edges are omitted.
        """
        self._check_node(v)
        return self._neighbors_resolved(v, self.edge_type(t), self.resolve_mask(mask))

    def all_neighbors(self, v: int, mask: EdgeMask | None = None) -> list[int]:
        """Sorted neighbors of ``v`` across every edge type (multiset)."""
        self._check_node(v)
        resolved = self.resolve_mask(mask)
        out: list[int] = []
        for et in self.edge_types.values():
            out.extend(self._neighbors_resolved(v, et, resolved))
        out.sort()
        return out

    def _degree_resolved(self, v: int, resolved: frozenset[tuple[int, int, str]]) -> int:
        deg = int(self._deg_total[v])
        for mu, mv, _ in resolved:
            if mu == v:
                deg -= 1
            if mv == v:
                deg -= 1
        return deg

    def degree(self, v: int, mask: EdgeMask | None = None) -> int:
        """Total incident edge count across all edge types, minus masked edges."""
        self._check_node(v)
        return self._degree_resolved(v, self.resolve_mask(mask))

    def degrees(self, nodes: Sequence[int], mask: EdgeMask | None = None) -> np.ndarray:
        """:meth:`degree` of each node, in order; the first unknown id raises."""
        n = len(self.keys)
        # builtin min/max: a numpy mask with any() doubled this call's cost on
        # the sampler's short lists
        if len(nodes) and (min(nodes) < 0 or max(nodes) >= n):
            raise UnknownNodeError(next(v for v in nodes if not 0 <= v < n))
        ids = np.asarray(nodes, dtype=np.int64)
        degs = self._deg_total[ids]
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
        out: list[tuple[int, int, str]] = []
        for t_name in self.edge_types:
            adj = self._adj[t_name]
            for u in sorted(members):
                for w in adj.out_neighbors(u).tolist():
                    if w in members and (u, w, t_name) not in resolved:
                        out.append((u, w, t_name))
        return out


def _remove_one(values: list[int], item: int) -> None:
    try:
        values.remove(item)
    except ValueError:
        pass


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
    a record names its file and line. Records stream into
    :class:`HetGraph`, which normalises each node's text once.
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
        if exc.path is not None or where[0] is None:
            raise
        raise GraphFormatError(str(exc), path=where[0], line=where[1]) from exc


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
            node = g.node(v)
            fh.write(f"{node.key}\t{node.type.name}\t{_escape_field(node.text)}\n")
    with open(edge_file, "w", encoding="utf-8") as fh:
        for t_name in g.edge_types:
            for u, v in g.edges_of_type(t_name):
                fh.write(f"{g.key_of(u)}\t{g.key_of(v)}\t{t_name}\n")
