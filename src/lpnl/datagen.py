"""Self-supervised fine-tuning data: masked true edges become labeled prompts.

Each example takes a real edge (source, truth) of the chosen relation,
hides it behind an :class:`~lpnl.graph.EdgeMask` for every anchor
computation, mixes the truth into sampled negatives at a uniformly
random position, and renders the same prompt grammar the predictor
consumes. The target string is the truth's in-prompt alias plus a text
prefix, which gives answer resolution an unambiguous token.

The truth node is also withheld from the *source's* rendered anchor
list: the masked edge already keeps it out of direct reach, but on dense
graphs the truth can survive into the source's top-k through other
paths, and a training input that names its own answer defeats the point.
So is any other anchor that renders like the truth (the same
:func:`~lpnl.prompts.node_label`): a twin reads exactly like the answer.
:func:`leakage_audit` enforces exactly this.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, replace
from typing import Iterable, Iterator, Mapping

import numpy as np

from .graph import EdgeMask, HetGraph
from .prompts import PromptConfig, build_prompt, node_label, parse_prompt
from .sampling import SamplerConfig, anchors_for

logger = logging.getLogger(__name__)

__all__ = [
    "DatagenConfig",
    "TrainingExample",
    "LeakageReport",
    "InsufficientEdgesError",
    "generate_examples",
    "leakage_audit",
    "write_examples",
    "read_examples",
]

NEGATIVE_POLICIES = ("random_same_type", "shared_neighbor")
SPLITS = ("train", "valid", "test")
TARGET_TEXT_PREFIX_CHARS = 40


class InsufficientEdgesError(ValueError):
    pass


@dataclass(frozen=True)
class DatagenConfig:
    """What to generate: relation, volume, negatives, determinism, splits.

    ``split_boundaries`` is an optional pair (train_upto, valid_upto) of
    thresholds over a per-node numeric attribute (supplied separately to
    :func:`generate_examples`); an edge belongs to the split of its
    source node: train if attr < train_upto, valid if < valid_upto,
    else test.
    """

    relation: str = ""
    num_examples: int = 1
    candidates_per_example: int = 3
    negative_policy: str = "random_same_type"
    rng_seed: int = 0
    split: str | None = None
    split_boundaries: tuple[float, float] | None = None

    def __post_init__(self):
        if self.candidates_per_example < 2:
            raise ValueError("candidates_per_example must be >= 2")
        if self.negative_policy not in NEGATIVE_POLICIES:
            raise ValueError(f"negative_policy must be one of {NEGATIVE_POLICIES}")
        if self.num_examples < 1:
            raise ValueError("num_examples must be >= 1")
        if self.split is not None and self.split not in SPLITS:
            raise ValueError(f"split must be one of {SPLITS}")
        if (self.split is None) != (self.split_boundaries is None):
            raise ValueError("split and split_boundaries must be given together")
        if self.split_boundaries is not None:
            try:
                train_upto, valid_upto = (float(b) for b in self.split_boundaries)
            except (TypeError, ValueError):
                train_upto = valid_upto = float("nan")
            if not train_upto < valid_upto:
                raise ValueError("split_boundaries must be two ascending numbers "
                                 f"(train_upto, valid_upto), got {self.split_boundaries!r}")
            # a config file's list becomes the tuple the field declares
            object.__setattr__(self, "split_boundaries", (train_upto, valid_upto))


@dataclass(frozen=True)
class TrainingExample:
    input_text: str
    target_text: str
    source_id: int
    truth_id: int
    negative_ids: tuple[int, ...]
    truth_position: int

    def to_record(self, g: HetGraph) -> dict:
        return {
            "input": self.input_text,
            "target": self.target_text,
            "meta": {
                "source_id": g.key_of(self.source_id),
                "truth_id": g.key_of(self.truth_id),
                "negative_ids": [g.key_of(n) for n in self.negative_ids],
                "truth_position": self.truth_position,
            },
        }


def _split_of(value: float, boundaries: tuple[float, float]) -> str:
    train_upto, valid_upto = boundaries
    if value < train_upto:
        return "train"
    if value < valid_upto:
        return "valid"
    return "test"


def _node_label(g: HetGraph, v: int) -> str:
    """What a prompt shows of ``v`` after its alias."""
    return node_label(g.text(v), g.type_of(v).identifier_tag)


def _true_neighbors(g: HetGraph, source: int, relation: str) -> set[int]:
    return set(g.neighbors(source, relation))


def _draw_negatives(
    g: HetGraph,
    source: int,
    truth: int,
    relation: str,
    policy: str,
    count: int,
    rng: np.random.Generator,
    target_pool: list[int],
    target_pool_set: set[int],
) -> list[int]:
    """Sample negative candidates of the relation's target type.

    ``random_same_type`` draws uniformly over target-type nodes that are
    not true neighbors. ``shared_neighbor`` prefers target-type nodes within
    three hops of the source (the hard negatives a disambiguation task
    sees), topping up uniformly when there are too few; with no such
    nodes it is the uniform draw.
    """
    exclude = _true_neighbors(g, source, relation) | {source, truth}
    near: set[int] = set()
    if policy == "shared_neighbor":
        # target-type nodes within 3 hops of the source: the candidates that
        # co-occur with its neighborhood (for a bipartite relation the other
        # plausible targets sit at hop 3, not hop 2)
        ball = {source}
        frontier = [source]
        for _ in range(3):
            nxt = {w for u in frontier for w in g.all_neighbors(u)} - ball
            ball |= nxt
            frontier = sorted(nxt)
        near = {w for w in ball if w in target_pool_set and w not in exclude}
    pool = sorted(near)
    if len(pool) >= count:
        picked = rng.choice(len(pool), size=count, replace=False)
        return [pool[i] for i in sorted(picked)]
    extras = [v for v in target_pool if v not in exclude and v not in near]
    if len(extras) < count - len(pool):
        raise InsufficientEdgesError(
            f"cannot draw {count} negatives for source {source}: "
            f"{len(pool) + len(extras)} available"
        )
    fill = rng.choice(len(extras), size=count - len(pool), replace=False)
    return pool + [extras[i] for i in sorted(fill)]


def generate_examples(
    g: HetGraph,
    cfg: DatagenConfig,
    sampler_cfg: SamplerConfig | None = None,
    prompt_cfg: PromptConfig | None = None,
    node_attr: Mapping[int, float] | None = None,
    counters: dict | None = None,
) -> Iterator[TrainingExample]:
    """Yield (prompt, answer) training examples for ``cfg.relation``.

    Deterministic for a fixed seed: edge selection uses the corpus seed
    and each example derives its own stream from (seed, source, truth).
    Sources whose masked degree is zero are skipped and counted under
    ``counters["skipped_zero_degree"]``.
    """
    sampler_cfg = sampler_cfg or SamplerConfig()
    prompt_cfg = prompt_cfg or PromptConfig()
    relation = g.edge_type(cfg.relation)
    edges = g.edges_of_type(relation)

    if cfg.split is not None:
        if node_attr is None:
            raise ValueError("split_boundaries given but no node_attr mapping supplied")
        edges = [
            (s, c)
            for s, c in edges
            if _split_of(node_attr.get(s, float("inf")), cfg.split_boundaries) == cfg.split
        ]
    if len(edges) < cfg.num_examples:
        raise InsufficientEdgesError(
            f"{len(edges)} edges of {relation.name!r} available"
            + (f" in split {cfg.split!r}" if cfg.split else "")
            + f", need {cfg.num_examples}"
        )

    corpus_rng = np.random.default_rng([cfg.rng_seed, 0xDA7A])
    order = corpus_rng.permutation(len(edges))
    target_pool = g.nodes_of_type(relation.target_type)
    target_pool_set = set(target_pool)
    if counters is not None:
        counters.setdefault("skipped_zero_degree", 0)

    emitted = 0
    for edge_index in order:
        if emitted >= cfg.num_examples:
            break
        source, truth = edges[int(edge_index)]
        mask = EdgeMask([(source, truth, relation.name), (truth, source, relation.name)])
        if g.degree(source, mask) == 0:
            if counters is not None:
                counters["skipped_zero_degree"] += 1
            logger.debug("skipping source %s: masked degree is 0", source)
            continue
        rng = np.random.default_rng([cfg.rng_seed, source, truth])
        negatives = _draw_negatives(
            g, source, truth, relation.name, cfg.negative_policy,
            cfg.candidates_per_example - 1, rng, target_pool, target_pool_set,
        )
        position = int(rng.integers(0, cfg.candidates_per_example))
        candidates = list(negatives)
        candidates.insert(position, truth)

        anchors = anchors_for(g, (source, *candidates), sampler_cfg, mask)
        truth_label = _node_label(g, truth)
        anchors[source] = replace(
            anchors[source],
            entries=tuple(
                e for e in anchors[source].entries if _node_label(g, e[0]) != truth_label
            ),
        )

        bundle = build_prompt(source, relation, candidates, anchors, g, prompt_cfg)
        alias = bundle.candidate_aliases[position]
        target_text = f"{alias}: {g.text(truth)[:TARGET_TEXT_PREFIX_CHARS]}"
        emitted += 1
        yield TrainingExample(
            input_text=bundle.text,
            target_text=target_text,
            source_id=source,
            truth_id=truth,
            negative_ids=tuple(negatives),
            truth_position=position,
        )


@dataclass(frozen=True)
class LeakageReport:
    examples_scanned: int
    violations: tuple[dict, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def leakage_audit(
    corpus: Iterable[TrainingExample] | str,
    g: HetGraph,
) -> LeakageReport:
    """Verify no training input names its own answer in the source block.

    For each example the rendered input is parsed back into segments and
    the source description is searched for the truth node's label. Any hit
    means the truth, or a twin of it, reached the source's rendered anchors.
    """
    if isinstance(corpus, str):
        corpus = read_examples(corpus, g)
    scanned = 0
    violations: list[dict] = []
    for example in corpus:
        scanned += 1
        parsed = parse_prompt(example.input_text)
        # the whole label, not the bare text: one node's text may be a prefix of another's
        if _node_label(g, example.truth_id) in parsed.source_segment:
            violations.append(
                {
                    "index": scanned - 1,
                    "source_id": example.source_id,
                    "truth_id": example.truth_id,
                    "reason": "truth text appears in the source description",
                }
            )
    return LeakageReport(examples_scanned=scanned, violations=tuple(violations))


def write_examples(path: str, examples: Iterable[TrainingExample], g: HetGraph) -> int:
    """Write examples as newline-delimited JSON keyed by ``g``'s node keys; returns the count."""
    count = 0
    with open(path, "w", encoding="utf-8") as fh:
        for example in examples:
            fh.write(json.dumps(example.to_record(g), ensure_ascii=False) + "\n")
            count += 1
    return count


def read_examples(path: str, g: HetGraph) -> Iterator[TrainingExample]:
    """Read a JSONL corpus written against ``g`` back into :class:`TrainingExample` objects."""
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            meta = record["meta"]
            yield TrainingExample(
                input_text=record["input"],
                target_text=record["target"],
                source_id=g.id_of(meta["source_id"]),
                truth_id=g.id_of(meta["truth_id"]),
                negative_ids=tuple(g.id_of(n) for n in meta["negative_ids"]),
                truth_position=meta["truth_position"],
            )
