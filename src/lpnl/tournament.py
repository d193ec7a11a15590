"""Divide-and-conquer candidate elimination.

A candidate pool larger than the per-prompt limit L is split into
balanced sets of at most L. The scorer picks one winner per set; winners
regroup in order of generation and the process repeats until a single
candidate survives. With 100 candidates and L=5 that is 20 sets, then 4,
then 1 — three rounds and 25 scorer calls.

Anchors are computed once per node (source and each candidate) and
reused across rounds, so the sampler cost is 1 + |candidates| regardless
of how many rounds run.

Sets are scored one after another; concurrency belongs to the caller
(:func:`lpnl.evaluation.run_benchmark` fans whole tasks out).

A full ranking of the original pool is derived from elimination order:
the later a candidate is eliminated, the better its rank; ties within a
round break by the candidate's retained PPR mass, with masses within
``lpnl.sampling.TIE_EPS`` counted as equal, then node id. This
ranking is an artifact convention — the tournament itself only names a
winner — and is labeled as such wherever it is reported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

from .graph import EdgeMask, EdgeType, HetGraph
from .prompts import PromptConfig, build_prompt
from .sampling import SamplerConfig, _rank_by_score, anchors_for
from .scoring import ScorerBackendConfig, ScorerError, make_scorer

__all__ = [
    "DncConfig",
    "Round",
    "PredictionTrace",
    "PredictionAborted",
    "partition",
    "predict",
    "derive_ranking",
    "RANKING_CONVENTION",
]

RANKING_CONVENTION = "elimination-round, ties by retained PPR mass then node id"

GROUPINGS = ("sequential", "random_seeded")


@dataclass(frozen=True)
class DncConfig:
    """Tournament shape: per-set length limit and how the pool is grouped."""

    length_limit: int = 3
    grouping: str = "random_seeded"
    rng_seed: int = 0

    def __post_init__(self):
        if self.length_limit < 2:
            raise ValueError("length_limit must be >= 2")
        if self.grouping not in GROUPINGS:
            raise ValueError(f"grouping must be one of {GROUPINGS}")
        if self.rng_seed < 0:
            raise ValueError("rng_seed must be non-negative")


@dataclass(frozen=True)
class Round:
    sets: tuple[tuple[int, ...], ...]
    winners: tuple[int, ...]


@dataclass(frozen=True)
class PredictionTrace:
    """What a tournament did: its sets, their winners, the answer.

    ``final`` is None when a set failed; the failed round is then the last
    one, holding its sets and the winners named before the failure.
    ``ranking`` and ``scorer_calls`` are derived from ``rounds`` and
    ``tie_scores``, never stored.
    """

    source: int
    relation: str
    candidates: tuple[int, ...]
    rounds: tuple[Round, ...]
    final: int | None
    tie_scores: Mapping[int, float] = field(default_factory=dict)

    @property
    def complete(self) -> bool:
        return self.final is not None

    @property
    def scorer_calls(self) -> int:
        """Scorer calls that named a winner; a failed call is not counted."""
        return sum(len(r.winners) for r in self.rounds)

    @cached_property
    def ranking(self) -> tuple[int, ...]:
        """The elimination ranking (see module docstring); ``()`` if incomplete."""
        return _rank(self) if self.complete else ()


class PredictionAborted(RuntimeError):
    """A set-level failure ended the run; the partial trace is attached.

    Skipping the failed set instead could silently eliminate the true
    answer, so the whole prediction aborts.
    """

    def __init__(self, message: str, trace: PredictionTrace):
        self.trace = trace
        super().__init__(message)


def partition(
    pool: Sequence[int],
    length_limit: int,
    grouping: str = "sequential",
    seed: int = 0,
) -> list[list[int]]:
    """Split ``pool`` into ceil(n / L) balanced sets of size at most L.

    Balanced means set sizes differ by at most one; a trailing 1-element
    set would get a free pass through its round, so slack is spread out.
    ``random_seeded`` shuffles the pool first, ``sequential`` keeps order.
    """
    if not pool:
        raise ValueError("pool must be non-empty")
    items = list(pool)
    if grouping == "random_seeded":
        rng = np.random.default_rng(seed)
        rng.shuffle(items)
    elif grouping != "sequential":
        raise ValueError(f"grouping must be one of {GROUPINGS}")
    n = len(items)
    m = math.ceil(n / length_limit)
    base, extra = divmod(n, m)
    sets: list[list[int]] = []
    start = 0
    for i in range(m):
        size = base + (1 if i < extra else 0)
        sets.append(items[start : start + size])
        start += size
    return sets


def predict(
    g: HetGraph,
    source: int,
    relation: EdgeType | str,
    candidates: Sequence[int],
    sampler_cfg: SamplerConfig,
    prompt_cfg: PromptConfig,
    scorer_cfg: ScorerBackendConfig,
    dnc_cfg: DncConfig,
    mask: EdgeMask | None = None,
) -> PredictionTrace:
    """Run the full tournament for one prediction task.

    Each round renders one prompt per set (reusing the per-node anchors
    computed up front) and asks the scorer for the set's winner; winners
    re-partition sequentially until one remains. Sets are scored one after
    another, so a lone call against ``http_llm`` sends its requests
    serially whatever ``max_in_flight`` says. Any failure aborts with the
    partial trace attached.

    ``scorer_cfg`` may be a :class:`~lpnl.scoring.ScorerBackendConfig` or an
    already-built backend, so batch callers can share one instance.
    """
    relation = g.edge_type(relation)
    candidates = [int(c) for c in candidates]
    if not candidates:
        raise ValueError("candidates must be non-empty")
    if len(set(candidates)) != len(candidates):
        raise ValueError("candidates contain duplicates")

    anchors = anchors_for(g, (source, *candidates), sampler_cfg, mask)
    tie_scores = {c: anchors[c].center_score for c in candidates}

    # an already-built backend may be passed in place of the config so many
    # predictions can share one connection pool, cache and in-flight ceiling
    scorer = scorer_cfg if hasattr(scorer_cfg, "score") else make_scorer(scorer_cfg)
    rounds: list[Round] = []
    pool = list(candidates)
    failure: Exception | None = None
    while len(pool) > 1 and failure is None:
        if not rounds:
            sets = partition(pool, dnc_cfg.length_limit, dnc_cfg.grouping, dnc_cfg.rng_seed)
        else:
            sets = partition(pool, dnc_cfg.length_limit, "sequential")
        winners: list[int] = []
        try:
            for members in sets:
                bundle = build_prompt(source, relation, members, anchors, g, prompt_cfg)
                response = scorer.score(bundle)
                if response.chosen not in members:
                    raise ScorerError(
                        f"backend chose {response.chosen}, which is not in the scored set"
                    )
                winners.append(response.chosen)
        except Exception as exc:
            failure = exc
        rounds.append(Round(tuple(map(tuple, sets)), tuple(winners)))
        pool = winners

    trace = PredictionTrace(
        source=source,
        relation=relation.name,
        candidates=tuple(candidates),
        rounds=tuple(rounds),
        final=pool[0] if failure is None else None,
        tie_scores=tie_scores,
    )
    if failure is not None:
        raise PredictionAborted(f"set scoring failed: {failure}", trace) from failure
    return trace


def _rank(trace: PredictionTrace) -> tuple[int, ...]:
    # Never-eliminated (the winner) sorts before everything and later
    # elimination beats earlier; within a round, higher retained PPR mass
    # under the sampler's tie rule, then id.
    eliminated_in: dict[int, int] = {}
    for round_index, rnd in enumerate(trace.rounds, start=1):
        for members, winner in zip(rnd.sets, rnd.winners):
            for c in members:
                if c != winner:
                    eliminated_in[c] = round_index
    by_round: dict[float, list[tuple[int, float]]] = {}
    for c in trace.candidates:
        by_round.setdefault(eliminated_in.get(c, math.inf), []).append(
            (c, trace.tie_scores.get(c, 0.0))
        )
    return tuple(
        c
        for round_index in sorted(by_round, reverse=True)
        for c, _ in _rank_by_score(by_round[round_index])
    )


def derive_ranking(trace: PredictionTrace) -> tuple[int, ...]:
    """Order all original candidates by how long they survived.

    Rank 1 is the final winner; candidates eliminated in later rounds
    outrank those eliminated earlier. This is the artifact's convention
    for turning a single tournament into a ranking (see module docstring).
    """
    if not trace.complete:
        raise ValueError("cannot derive a ranking from an incomplete trace")
    return trace.ranking
