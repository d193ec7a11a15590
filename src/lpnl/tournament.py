"""Divide-and-conquer candidate elimination.

A candidate pool larger than the per-prompt limit L is split into
balanced sets of at most L. The scorer picks one winner per set; winners
regroup in order of generation and the process repeats until a single
candidate survives. With 100 candidates and L=5 that is 20 sets, then 4,
then 1 — three rounds and 25 scorer calls.

Anchors are computed once per node (source and each candidate), as the
first set that holds the node is built, and reused across rounds, so the
sampler cost is 1 + |candidates| regardless of how many rounds run.

A task keeps at most one scorer request in flight, one request ahead:
against a backend that can ``send`` (``http_llm``), set k+1 is built while
set k's request is at the model, held by the bundle ``send`` returned.
Sets are still sent and scored in order; concurrency across tasks belongs
to the caller (:func:`lpnl.evaluation.run_benchmark` fans whole tasks out,
to workers that take turns on the scorer: one computes at a time, and hands
over only while the scorer waits on the network).

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
from .prompts import PromptBundle, PromptConfig, _check_task, build_prompt
from .sampling import AnchorList, SamplerConfig, _rank_by_score, anchors_for
from .scoring import ScorerError

__all__ = [
    "DncConfig",
    "Round",
    "PredictionTrace",
    "PredictionAborted",
    "partition",
    "predict",
    "RANKING_CONVENTION",
]

RANKING_CONVENTION = "elimination-round, ties by retained PPR mass then node id"

GROUPINGS = ("sequential", "random_seeded")


@dataclass(frozen=True)
class DncConfig:
    """Tournament shape: per-set length limit and how the pool is grouped.

    ``random_seeded`` grouping draws from the sampler's ``rng_seed``, the
    one seed of a prediction.
    """

    length_limit: int = 3
    grouping: str = "random_seeded"

    def __post_init__(self):
        if self.length_limit < 2:
            raise ValueError("length_limit must be >= 2")
        if self.grouping not in GROUPINGS:
            raise ValueError(f"grouping must be one of {GROUPINGS}")


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
    ``length_limit`` must be at least 2, as in :class:`DncConfig`.
    """
    if not pool:
        raise ValueError("pool must be non-empty")
    if length_limit < 2:
        raise ValueError("length_limit must be >= 2")
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
    scorer,
    dnc_cfg: DncConfig,
    mask: EdgeMask | None = None,
) -> PredictionTrace:
    """Run the full tournament for one prediction task.

    Each set computes the anchor lists that no earlier set needed (the
    source's with the first set), renders its prompt and asks the scorer
    for its winner; winners re-partition sequentially until one remains.
    Against a backend with ``send`` (``http_llm``) the task keeps one
    request ahead: set k+1's anchors and prompt are built while set k's
    request is at the model, then k is scored (through the bundle ``send``
    returned) and k+1 sent. A task so has at most one request in flight,
    and sends its sets in order; a round ends when its last set is scored.
    The task is checked by :func:`~lpnl.prompts.build_prompt`'s rule (ids,
    types, no repeated candidate) before the first request. Round 1 is
    grouped with ``sampler_cfg.rng_seed``, the prediction's one seed. Any
    failure aborts with the partial trace attached; a set already built is
    scored first, so the trace names the winners of a set-by-set run.

    ``scorer`` is a built backend (:func:`~lpnl.scoring.make_scorer`), so
    many predictions can share one connection pool, cache and in-flight
    ceiling; its caller closes it. A caller that holds the scorer's
    :meth:`~lpnl.scoring.HttpLlmScorer.turn` keeps it for the whole call,
    except while the scorer waits on the network; ``predict`` itself never
    takes it.
    """
    candidates = [int(c) for c in candidates]
    relation = _check_task(g, source, relation, candidates)

    # an offline backend has nothing to start ahead of its answer: it scores the bundle itself
    send = getattr(scorer, "send", lambda bundle: bundle)
    anchors: dict[int, AnchorList] = {}

    def build(members: list[int]) -> PromptBundle:
        missing = [v for v in (source, *members) if v not in anchors]
        anchors.update(anchors_for(g, missing, sampler_cfg, mask))
        return build_prompt(source, relation, members, anchors, g, prompt_cfg)

    def winner(members: list[int], bundle: PromptBundle) -> int:
        response = scorer.score(bundle)
        if response.chosen not in members:
            raise ScorerError(f"backend chose {response.chosen}, which is not in the scored set")
        return response.chosen

    rounds: list[Round] = []
    pool = list(candidates)
    failure: Exception | None = None
    while len(pool) > 1 and failure is None:
        if not rounds:
            sets = partition(pool, dnc_cfg.length_limit, dnc_cfg.grouping, sampler_cfg.rng_seed)
        else:
            sets = partition(pool, dnc_cfg.length_limit, "sequential")
        winners: list[int] = []
        sent: tuple[list[int], PromptBundle] | None = None  # sent, not yet scored
        try:
            for members in sets:
                try:
                    bundle = build(members)
                finally:
                    # the previous set's answer, read once this set is built
                    # or, if building it failed, before that failure counts
                    if sent is not None:
                        winners.append(winner(*sent))
                sent = (members, send(bundle))
            winners.append(winner(*sent))
        except Exception as exc:
            failure = exc
        rounds.append(Round(tuple(map(tuple, sets)), tuple(winners)))
        pool = winners

    # a lone candidate meets no set, and an aborted run may stop before some
    anchors.update(anchors_for(g, [c for c in candidates if c not in anchors], sampler_cfg, mask))
    trace = PredictionTrace(
        source=source,
        relation=relation.name,
        candidates=tuple(candidates),
        rounds=tuple(rounds),
        final=pool[0] if failure is None else None,
        tie_scores={c: anchors[c].center_score for c in candidates},
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
