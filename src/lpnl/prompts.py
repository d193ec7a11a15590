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
identifier tag. What follows an alias, ``": <text> [<TAG>]"``, is the
node's label; :func:`node_label` is the one place that spells it, and the
training-data generator and its leakage audit search prompts for it.
Newlines cannot occur inside node text (normalization collapses them) or
type names and tags (the graph rejects them), which makes the
line-oriented grammar parseable — see :func:`parse_prompt`.

To fit the token budget, :func:`build_prompt` drops anchor tails along a
fixed shrink schedule and binary-searches it for the first step that fits,
so a prompt costs about log2 of the schedule's length renders rather than
one per step. Each node's ``": <text> [<TAG>]"`` label is built and checked
once per call and shared by those renders; nothing is cached on the graph.
The search relies on a render with fewer anchors never having more tokens,
which a callable ``token_estimator`` must respect: if it gives a shorter
prompt more tokens, the prompt still fits the budget but may carry fewer
anchors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import count, product
from string import ascii_lowercase
from typing import Callable, Iterable, Mapping, Sequence

from .graph import EdgeType, HetGraph
from .sampling import AnchorList

__all__ = [
    "PromptConfig",
    "PromptBundle",
    "BudgetUnsatisfiableError",
    "node_label",
    "build_prompt",
    "estimate_tokens",
    "parse_prompt",
    "ParsedPrompt",
]

RELATED_WITH = " is related with "
ANCHOR_SEPARATOR = ", "
SHRINK_STEP = 5
TOKEN_ESTIMATORS = ("chars_div_4", "whitespace")

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

    def __post_init__(self):
        if self.token_budget < 64:
            raise ValueError("token_budget must be at least 64")
        if isinstance(self.token_estimator, str) and self.token_estimator not in TOKEN_ESTIMATORS:
            raise ValueError(f"unknown token estimator {self.token_estimator!r}")
        # newlines separate prompt segments; normalization strips them from node text
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
class PromptBundle:
    """A fully rendered prompt plus the index data scorers need.

    ``candidate_order`` lists candidate node ids in the exact order their
    descriptions appear in ``text``; ``candidate_aliases`` and
    ``candidate_texts`` are aligned with it so answers can be resolved
    without re-reading the graph. The source's alias is the first of its
    type, e.g. ``p1``.
    """

    text: str
    token_count: int
    source: int
    candidate_order: tuple[int, ...]
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


def _alias_prefixes(g: HetGraph) -> dict[str, str]:
    """Shortest unambiguous lowercase prefix per node type name.

    Only ASCII letters are kept, because answer resolution splits tokens
    on anything outside ``[0-9a-z]``; a name with none counts as ``"n"``.
    A prefix is letters only and no two are equal, so an alias (prefix,
    then a number) names one node. When every prefix of a name is taken,
    letters are appended to it (``"na"``, ``"nb"``, ...) until one is free.
    """
    ordered = sorted(g.node_types.values(), key=lambda nt: nt.type_id)
    taken: set[str] = set()
    prefixes: dict[str, str] = {}
    for nt in ordered:
        cleaned = "".join(ch for ch in nt.name.lower() if ch.isascii() and ch.isalpha()) or "n"
        for size in range(1, len(cleaned) + 1):
            if cleaned[:size] not in taken:
                chosen = cleaned[:size]
                break
        else:
            extended = (cleaned + "".join(letters)
                        for n in count(1) for letters in product(ascii_lowercase, repeat=n))
            chosen = next(p for p in extended if p not in taken)
        taken.add(chosen)
        prefixes[nt.name] = chosen
    return prefixes


def node_label(text: str, tag: str) -> str:
    """How a prompt shows a node after its alias: ``": <text> [<TAG>]"``."""
    return f": {text} [{tag}]"


def _node_labels(
    g: HetGraph, prefixes: Mapping[str, str], nodes: Iterable[int]
) -> dict[int, tuple[str, str]]:
    """Alias prefix and ``": <text> [<TAG>]"`` label of each node, in order.

    Each node is checked once, through the public accessor, in the order
    given; the first unknown id raises. The dict lives for one call, so no
    copy of the graph's text outlives it.
    """
    labels: dict[int, tuple[str, str]] = {}
    for v in nodes:
        if v in labels:
            continue
        text = g.text(v)
        nt = g._type_of[v]
        labels[v] = (prefixes[nt.name], node_label(text, nt.identifier_tag))
    return labels


class _AliasAllocator:
    """Per-prompt aliases like ``p1``, ``a2`` in first-appearance order."""

    def __init__(self, labels: Mapping[int, tuple[str, str]]):
        self._labels = labels
        self._counters: dict[str, int] = {}
        self._assigned: dict[int, str] = {}

    def alias(self, v: int) -> str:
        got = self._assigned.get(v)
        if got is not None:
            return got
        prefix = self._labels[v][0]
        nth = self._counters.get(prefix, 0) + 1
        self._counters[prefix] = nth
        alias = f"{prefix}{nth}"
        self._assigned[v] = alias
        return alias

    def describe(self, v: int, anchors: Sequence[tuple[int, float]], max_anchors: int) -> str:
        """``v``'s description with the first ``max_anchors`` of its anchors."""
        labels = self._labels
        head = self.alias(v) + labels[v][1]
        if max_anchors > 0 and anchors:
            head += RELATED_WITH + ANCHOR_SEPARATOR.join(
                [self.alias(a) + labels[a][1] for a, _ in anchors[:max_anchors]]
            )
        return head


def _shrink_cuts(k: int) -> list[int]:
    """Anchor counts after each cut of ``k`` by ``SHRINK_STEP``, down to 0."""
    return [*range(k - SHRINK_STEP, 0, -SHRINK_STEP), 0] if k > 0 else []


def _shrink_schedule(k_source: int, k_cand: int) -> list[tuple[int, int]]:
    """``(source anchors, candidate anchors)`` per step, most anchors first.

    Full anchors, then the candidates' anchors cut by ``SHRINK_STEP`` down
    to 0, then the source's. The last step is always ``(0, 0)``.
    """
    return [
        (k_source, k_cand),
        *((k_source, k) for k in _shrink_cuts(k_cand)),
        *((k, 0) for k in _shrink_cuts(k_source)),
    ]


def _check_task(
    g: HetGraph, source: int, relation: EdgeType | str, candidates: Sequence[int]
) -> EdgeType:
    """Resolve ``relation`` after checking the task's nodes.

    Every node must have its end type and no candidate may repeat. An
    unknown id raises :class:`~lpnl.graph.UnknownNodeError`, a wrong type or
    a repeat ``ValueError``; a wrong type is reported before a repeat.
    """
    if not candidates:
        raise ValueError("candidates must be non-empty")
    relation = g.edge_type(relation)
    stype = g.type_of(source).name
    if stype != relation.source_type:
        raise ValueError(
            f"source {g.key_of(source)!r} has type {stype!r}, expected {relation.source_type!r}"
        )
    for c in candidates:
        ctype = g.type_of(c).name
        if ctype != relation.target_type:
            raise ValueError(
                f"candidate {g.key_of(c)!r} has type {ctype!r}, expected {relation.target_type!r}"
            )
    if len(set(candidates)) != len(candidates):
        raise ValueError("candidates contain duplicates")
    return relation


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
    then the source's, each in steps of 5 down to zero. The result is the
    first step of that schedule whose render fits. A binary search over the
    schedule finds it in about log2 of its length renders, each measured by
    :func:`estimate_tokens`; every node's label (:func:`node_label`) is
    built and checked once per call, in full-render order, and shared by
    those renders. Anchors are joined by ``ANCHOR_SEPARATOR``. The text has
    one line per segment, ``2 + len(candidates)`` in all, which
    :func:`parse_prompt` splits back and the scorers rely on.

    The search returns the step a walk down the schedule would return as
    long as a render with fewer anchors never has more tokens. The
    ``whitespace`` estimator always keeps this; ``chars_div_4`` keeps it
    unless alias renumbering (``c9`` -> ``c10``) outgrows the dropped
    anchors, which takes dozens of candidates sharing one anchor. A
    callable ``token_estimator`` must not give a shorter prompt more
    tokens. Where counts do increase, the prompt still fits the budget but
    may carry fewer anchors than the walk would keep, and the call may
    refuse a prompt that an earlier step would fit. If even the anchor-free
    rendering cannot fit, :class:`BudgetUnsatisfiableError` reports its
    token count instead of silently overflowing. A wrongly typed node or a
    repeated candidate raises ``ValueError`` before any render.
    """
    relation = _check_task(g, source, relation, candidates)
    if source not in anchor_source:
        raise KeyError(f"no anchor list supplied for source {source}")
    for c in candidates:
        if c not in anchor_source:
            raise KeyError(f"no anchor list supplied for candidate {c}")

    prefixes = _alias_prefixes(g)
    # the source is the first node aliased in every render
    source_alias = f"{prefixes[g.type_of(source).name]}1"
    question = cfg.question_for(relation, source_alias)
    source_entries = anchor_source[source].entries
    cand_entries = [anchor_source[c].entries for c in candidates]
    # full-render order, so the first bad node raises as a full render would
    order = [source, *(a for a, _ in source_entries)]
    for c, entries in zip(candidates, cand_entries):
        order.append(c)
        order.extend(a for a, _ in entries)
    labels = _node_labels(g, prefixes, order)

    def render(src_k: int, cand_k: int) -> tuple[str, int, tuple[str, ...]]:
        aliases = _AliasAllocator(labels)
        lines = [question, aliases.describe(source, source_entries, src_k)]
        cand_aliases = []
        for c, entries in zip(candidates, cand_entries):
            cand_aliases.append(aliases.alias(c))
            lines.append(aliases.describe(c, entries, cand_k))
        text = "\n".join(lines)
        return text, estimate_tokens(text, cfg), tuple(cand_aliases)

    schedule = _shrink_schedule(len(source_entries), max(map(len, cand_entries)))
    # steps up to lo do not fit, step hi does (hi == len(schedule): none known)
    lo, hi = -1, len(schedule)
    fit = None
    needed = 0
    while hi - lo > 1:
        mid = (lo + hi) // 2
        rendered = render(*schedule[mid])
        if rendered[1] <= cfg.token_budget:
            hi, fit = mid, rendered
        else:
            lo, needed = mid, rendered[1]
    if fit is None:
        # lo ended on the last step, the anchor-free render
        raise BudgetUnsatisfiableError(needed=needed, budget=cfg.token_budget)
    text, token_count, cand_aliases = fit
    return PromptBundle(
        text=text,
        token_count=token_count,
        source=source,
        candidate_order=tuple(int(c) for c in candidates),
        candidate_aliases=cand_aliases,
        candidate_texts=tuple(g.text(c) for c in candidates),
    )


@dataclass(frozen=True)
class ParsedPrompt:
    question: str
    source_segment: str
    candidate_segments: tuple[str, ...]


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
