"""Render link-prediction prompts under a hard token budget.

A prompt has exactly three kinds of segment, one per line:

    <question>
    <source description>
    <candidate 1 description>
    ...
    <candidate n description>

A node description reads ``p1: Some title [PA]`` optionally followed by
`` is related with a1: ... [AU], f1: ... [FD]`` listing its anchors in
importance order. Local aliases (``p1``, ``a1``, ...) are assigned per
prompt in first-appearance order; the bracketed tag is the node type's
identifier tag. Newlines cannot occur inside node text (normalization
collapses them), which makes the line-oriented grammar parseable — see
:func:`parse_prompt`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

from .graph import EdgeType, HetGraph
from .sampling import AnchorList

__all__ = [
    "PromptConfig",
    "NodeDescription",
    "PromptBundle",
    "BudgetUnsatisfiableError",
    "EmptyNodeTextError",
    "describe_node",
    "build_prompt",
    "estimate_tokens",
    "parse_prompt",
    "ParsedPrompt",
]

RELATED_WITH = " is related with "
SHRINK_STEP = 5

DEFAULT_QUESTION = (
    "Which following candidate {target_type} is linked to the "
    "{source_type} {source_alias} by '{relation}'?"
)


class BudgetUnsatisfiableError(ValueError):
    """Even anchor-free descriptions exceed the token budget."""

    def __init__(self, needed: int, budget: int):
        self.needed = needed
        self.budget = budget
        super().__init__(
            f"prompt needs at least {needed} tokens but the budget is {budget}"
        )


class EmptyNodeTextError(ValueError):
    def __init__(self, node_id: int):
        self.node_id = node_id
        super().__init__(f"node {node_id} has no text to render")


@dataclass(frozen=True)
class PromptConfig:
    """Prompt rendering knobs.

    ``token_estimator`` may be ``"chars_div_4"``, ``"whitespace"``, or any
    callable ``str -> int``; the budget is enforced against whichever
    estimator is configured. ``question_templates`` maps an edge type name
    to a single-line question with ``{source_type}``/``{target_type}``/
    ``{source_alias}``/``{relation}`` slots; relations without an entry
    fall back to a generic question.
    """

    token_budget: int = 1024
    token_estimator: str | Callable[[str], int] = "chars_div_4"
    question_templates: Mapping[str, str] = field(default_factory=dict)
    anchor_separator: str = ", "

    def __post_init__(self):
        if self.token_budget < 64:
            raise ValueError("token_budget must be at least 64")
        if isinstance(self.token_estimator, str) and self.token_estimator not in (
            "chars_div_4",
            "whitespace",
        ):
            raise ValueError(f"unknown token estimator {self.token_estimator!r}")
        # newlines separate prompt segments; normalization strips them from node text
        if "\n" in self.anchor_separator:
            raise ValueError("anchor_separator must not contain newlines")
        for name, template in self.question_templates.items():
            if "\n" in template:
                raise ValueError(f"question template for {name!r} must be single-line")

    def question_for(self, relation: EdgeType, source_alias: str) -> str:
        template = self.question_templates.get(relation.name, DEFAULT_QUESTION)
        return template.format(
            source_type=relation.source_type,
            target_type=relation.target_type,
            source_alias=source_alias,
            relation=relation.name,
        )


@dataclass(frozen=True)
class NodeDescription:
    subject: int
    rendered: str
    anchors_used: int


@dataclass(frozen=True)
class PromptBundle:
    """A fully rendered prompt plus the index data scorers need.

    ``candidate_order`` lists candidate node ids in the exact order their
    descriptions appear in ``text``; ``candidate_aliases`` and
    ``candidate_texts`` are aligned with it so answers can be resolved
    without re-reading the graph.
    """

    text: str
    token_count: int
    source: int
    candidate_order: tuple[int, ...]
    source_alias: str
    candidate_aliases: tuple[str, ...]
    candidate_texts: tuple[str, ...]


def estimate_tokens(text: str, cfg: PromptConfig) -> int:
    """Token count under the configured estimator.

    ``chars_div_4`` is the default: tokenizer-free, reproducible, and a
    conservative ceiling for typical English text.
    """
    estimator = cfg.token_estimator
    if callable(estimator):
        return int(estimator(text))
    if estimator == "whitespace":
        return len(text.split())
    return math.ceil(len(text) / 4)


class _AliasAllocator:
    """Per-prompt aliases like ``p1``, ``a2`` in first-appearance order."""

    def __init__(self, g: HetGraph):
        self._prefixes = _alias_prefixes(g)
        self._g = g
        self._counters: dict[str, int] = {}
        self._assigned: dict[int, str] = {}

    def alias(self, v: int) -> str:
        got = self._assigned.get(v)
        if got is not None:
            return got
        prefix = self._prefixes[self._g.type_of(v).name]
        nth = self._counters.get(prefix, 0) + 1
        self._counters[prefix] = nth
        alias = f"{prefix}{nth}"
        self._assigned[v] = alias
        return alias


def _alias_prefixes(g: HetGraph) -> dict[str, str]:
    """Shortest unambiguous lowercase prefix per node type name."""
    ordered = sorted(g.node_types.values(), key=lambda nt: nt.type_id)
    taken: set[str] = set()
    prefixes: dict[str, str] = {}
    for nt in ordered:
        cleaned = "".join(ch for ch in nt.name.lower() if ch.isalpha()) or "n"
        chosen = None
        for size in range(1, len(cleaned) + 1):
            if cleaned[:size] not in taken:
                chosen = cleaned[:size]
                break
        if chosen is None:
            chosen = f"{cleaned}{nt.type_id}"
        taken.add(chosen)
        prefixes[nt.name] = chosen
    return prefixes


def _render_one(g: HetGraph, v: int, aliases: _AliasAllocator) -> str:
    text = g.text(v)
    if not text:
        raise EmptyNodeTextError(v)
    return f"{aliases.alias(v)}: {text} [{g.type_of(v).identifier_tag}]"


def _render_description(
    g: HetGraph,
    v: int,
    anchors: AnchorList,
    max_anchors: int,
    cfg: PromptConfig,
    aliases: _AliasAllocator,
) -> tuple[str, int]:
    head = _render_one(g, v, aliases)
    used = 0
    if max_anchors > 0 and anchors.entries:
        rendered = [
            _render_one(g, a, aliases) for a, _ in anchors.entries[:max_anchors]
        ]
        used = len(rendered)
        head = head + RELATED_WITH + cfg.anchor_separator.join(rendered)
    return head, used


def describe_node(
    v: int,
    anchors: AnchorList,
    g: HetGraph,
    cfg: PromptConfig,
    max_anchors: int | None = None,
) -> NodeDescription:
    """Render one node with up to ``max_anchors`` of its anchors.

    Anchors keep their ranked order; truncation only ever drops the tail,
    never reorders.
    """
    if anchors.center != v:
        raise ValueError(f"anchor list belongs to {anchors.center}, not {v}")
    if max_anchors is None:
        max_anchors = len(anchors.entries)
    rendered, used = _render_description(
        g, v, anchors, max_anchors, cfg, _AliasAllocator(g)
    )
    return NodeDescription(subject=v, rendered=rendered, anchors_used=used)


def _render_prompt(
    g: HetGraph,
    source: int,
    relation: EdgeType,
    candidates: Sequence[int],
    anchor_source: Mapping[int, AnchorList],
    cfg: PromptConfig,
    source_anchors: int,
    candidate_anchors: int,
) -> PromptBundle:
    aliases = _AliasAllocator(g)
    source_alias = aliases.alias(source)
    question = cfg.question_for(relation, source_alias)
    source_desc, _ = _render_description(
        g, source, anchor_source[source], source_anchors, cfg, aliases
    )
    cand_descs: list[str] = []
    cand_aliases: list[str] = []
    for c in candidates:
        cand_aliases.append(aliases.alias(c))
        desc, _ = _render_description(
            g, c, anchor_source[c], candidate_anchors, cfg, aliases
        )
        cand_descs.append(desc)
    text = "\n".join([question, source_desc, *cand_descs])
    return PromptBundle(
        text=text,
        token_count=estimate_tokens(text, cfg),
        source=source,
        candidate_order=tuple(int(c) for c in candidates),
        source_alias=source_alias,
        candidate_aliases=tuple(cand_aliases),
        candidate_texts=tuple(g.text(c) for c in candidates),
    )


def build_prompt(
    source: int,
    relation: EdgeType | str,
    candidates: Sequence[int],
    anchor_source: Mapping[int, AnchorList],
    g: HetGraph,
    cfg: PromptConfig,
) -> PromptBundle:
    """Question + source description + candidate descriptions, within budget.

    When the fully rendered prompt would exceed ``cfg.token_budget``, the
    candidates' anchor counts shrink first (they dominate the token mass),
    then the source's, each in steps of 5 down to zero. If even the
    anchor-free rendering cannot fit, :class:`BudgetUnsatisfiableError`
    reports the minimal token need instead of silently overflowing.
    """
    if not candidates:
        raise ValueError("candidates must be non-empty")
    relation = g.edge_type(relation)
    for c in candidates:
        ctype = g.type_of(c).name
        if ctype != relation.target_type:
            raise ValueError(
                f"candidate {c} has type {ctype!r}, expected {relation.target_type!r}"
            )
    if source not in anchor_source:
        raise KeyError(f"no anchor list supplied for source {source}")
    for c in candidates:
        if c not in anchor_source:
            raise KeyError(f"no anchor list supplied for candidate {c}")

    k_source = len(anchor_source[source].entries)
    k_cand = max((len(anchor_source[c].entries) for c in candidates), default=0)

    def render(src_k: int, cand_k: int) -> PromptBundle:
        return _render_prompt(
            g, source, relation, candidates, anchor_source, cfg, src_k, cand_k
        )

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


@dataclass(frozen=True)
class ParsedPrompt:
    question: str
    source_segment: str
    candidate_segments: tuple[str, ...]

    @property
    def source_own_text(self) -> str:
        return _own_text(self.source_segment)

    def candidate_own_texts(self) -> tuple[str, ...]:
        return tuple(_own_text(seg) for seg in self.candidate_segments)


def _own_text(segment: str) -> str:
    """The node's own text within a description segment (anchors stripped)."""
    head = segment.split(RELATED_WITH, 1)[0]
    alias_sep = head.find(": ")
    if alias_sep >= 0:
        head = head[alias_sep + 2 :]
    if head.endswith("]") and " [" in head:
        head = head.rsplit(" [", 1)[0]
    return head


def parse_prompt(text: str) -> ParsedPrompt:
    """Split a rendered prompt back into its three segment kinds.

    Inverse of the rendering grammar: first line question, second line
    source description, one candidate description per remaining line.
    """
    lines = text.split("\n")
    if len(lines) < 3:
        raise ValueError("prompt must have question, source and >= 1 candidate lines")
    return ParsedPrompt(
        question=lines[0],
        source_segment=lines[1],
        candidate_segments=tuple(lines[2:]),
    )
