"""Ranked-retrieval metrics and the end-to-end benchmark loop.

Tasks are single-relevant-item: exactly one candidate is the true
neighbor. With the truth at rank r of the derived ranking:

    Hits@1 = 1 if r == 1 else 0
    MRR    = 1 / r
    NDCG   = 1 / log2(r + 1)

so Hits@1 <= MRR <= NDCG holds on every report. The benchmark masks the
truth edge while predicting — mirroring training-data generation — so a
content-aware scorer cannot be handed the answer through the source's
anchors.
"""

from __future__ import annotations

import json
import logging
import math
import statistics
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import ClassVar, Sequence

from .graph import EdgeMask, HetGraph
from .prompts import PromptConfig
from .sampling import SamplerConfig
from .scoring import ScorerBackendConfig, make_scorer
from .tournament import RANKING_CONVENTION, DncConfig, predict

logger = logging.getLogger(__name__)

__all__ = [
    "EvalTask",
    "MetricReport",
    "metric_hits1",
    "metric_mrr",
    "metric_ndcg",
    "run_benchmark",
    "read_tasks",
]


@dataclass(frozen=True)
class EvalTask:
    source_id: int
    relation: str
    candidate_ids: tuple[int, ...]
    truth_id: int

    def __post_init__(self):
        if self.truth_id not in self.candidate_ids:
            raise ValueError("truth_id must be among candidate_ids")
        if len(set(self.candidate_ids)) != len(self.candidate_ids):
            raise ValueError("candidate_ids contain duplicates")


def _rank_of(ranking: Sequence[int], truth_id: int) -> int:
    try:
        return list(ranking).index(truth_id) + 1
    except ValueError:
        raise ValueError(f"truth {truth_id} is absent from the ranking") from None


def metric_hits1(ranking: Sequence[int], truth_id: int) -> float:
    return 1.0 if _rank_of(ranking, truth_id) == 1 else 0.0


def metric_mrr(ranking: Sequence[int], truth_id: int) -> float:
    return 1.0 / _rank_of(ranking, truth_id)


def metric_ndcg(ranking: Sequence[int], truth_id: int) -> float:
    return 1.0 / math.log2(_rank_of(ranking, truth_id) + 1)


@dataclass(frozen=True)
class MetricReport:
    """Per-task rows and failure accounting, with aggregates derived from the rows.

    ``ndcg``/``mrr``/``hits_at_1`` are means of per-seed means of the rows;
    the ``_std`` fields spread over seeds (zero for a single seed). Both are
    computed once, on construction, and are 0.0 when no row succeeded.
    Failed tasks have no row and are counted in ``failures``.
    """

    rows: tuple[dict, ...]
    seeds: tuple[int, ...]
    tasks: int
    failures: tuple[dict, ...] = ()
    ndcg: float = field(init=False)
    mrr: float = field(init=False)
    hits_at_1: float = field(init=False)
    ndcg_std: float = field(init=False)
    mrr_std: float = field(init=False)
    hits_at_1_std: float = field(init=False)

    ranking_convention: ClassVar[str] = RANKING_CONVENTION

    def __post_init__(self):
        by_seed: dict[int, list[dict]] = {}
        for row in self.rows:
            by_seed.setdefault(row["seed"], []).append(row)
        for name in ("ndcg", "mrr", "hits_at_1"):
            means = [
                statistics.fmean(row[name] for row in by_seed[seed])
                for seed in self.seeds
                if seed in by_seed
            ]
            object.__setattr__(self, name, statistics.fmean(means) if means else 0.0)
            std = statistics.pstdev(means) if len(means) > 1 else 0.0
            object.__setattr__(self, f"{name}_std", std)

    def validate(self) -> None:
        for name, value in (("ndcg", self.ndcg), ("mrr", self.mrr), ("hits_at_1", self.hits_at_1)):
            if not 0.0 <= value <= 1.0 + 1e-12:
                raise ValueError(f"{name} out of range: {value}")
        if not (self.hits_at_1 <= self.mrr + 1e-12 and self.mrr <= self.ndcg + 1e-12):
            raise ValueError(
                f"metric ordering violated: hits@1={self.hits_at_1} mrr={self.mrr} ndcg={self.ndcg}"
            )

    def to_dict(self) -> dict:
        return {
            "ndcg": self.ndcg,
            "mrr": self.mrr,
            "hits_at_1": self.hits_at_1,
            "ndcg_std": self.ndcg_std,
            "mrr_std": self.mrr_std,
            "hits_at_1_std": self.hits_at_1_std,
            "tasks": self.tasks,
            "seeds": list(self.seeds),
            "failures": list(self.failures),
            "ranking_convention": self.ranking_convention,
            "rows": list(self.rows),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)

    def render_table(self) -> str:
        header = f"{'metric':<10}{'mean':>10}{'std':>10}"
        lines = [header, "-" * len(header)]
        for name, mean, std in (
            ("NDCG", self.ndcg, self.ndcg_std),
            ("MRR", self.mrr, self.mrr_std),
            ("Hits@1", self.hits_at_1, self.hits_at_1_std),
        ):
            lines.append(f"{name:<10}{mean:>10.4f}{std:>10.4f}")
        lines.append(
            f"tasks={self.tasks} seeds={len(self.seeds)} failures={len(self.failures)}"
        )
        return "\n".join(lines)


def run_benchmark(
    tasks: Sequence[EvalTask],
    g: HetGraph,
    sampler_cfg: SamplerConfig | None = None,
    prompt_cfg: PromptConfig | None = None,
    scorer_cfg: ScorerBackendConfig | None = None,
    dnc_cfg: DncConfig | None = None,
    seeds: Sequence[int] = (0,),
) -> MetricReport:
    """Predict every task per seed, score the derived rankings, aggregate.

    Each task's truth edge is masked for the whole prediction. The seed
    of the run replaces the sampler's and the tournament's ``rng_seed``
    so repeated seeds measure pipeline variance, not scorer variance.
    An ``oracle_truth`` scorer config is completed with the tasks' own
    ground truth when no truth pairs were supplied.

    All tasks share one backend instance. Against ``http_llm``, which waits
    on I/O, one thread pool per call fans tasks out to ``max_in_flight``
    workers; the CPU-bound offline backends ignore it and run inline.
    Results are reduced in task order, so reports stay reproducible.
    """
    sampler_cfg = sampler_cfg or SamplerConfig()
    prompt_cfg = prompt_cfg or PromptConfig()
    scorer_cfg = scorer_cfg or ScorerBackendConfig()
    dnc_cfg = dnc_cfg or DncConfig()

    if not tasks:
        logger.warning("no tasks to evaluate; returning an empty report")
        return MetricReport(rows=(), seeds=tuple(seeds), tasks=0)

    if scorer_cfg.kind == "oracle_truth" and not scorer_cfg.truth_pairs:
        scorer_cfg = replace(
            scorer_cfg,
            truth_pairs=frozenset((t.source_id, t.truth_id) for t in tasks),
        )
    # one backend for the whole run: its in-flight ceiling, connection pool
    # and cache are global across concurrent tasks; offline backends have
    # no ceiling and get one worker
    scorer = make_scorer(scorer_cfg)
    workers = min(getattr(scorer, "max_in_flight", 1), len(tasks))

    def run_task(args: tuple[int, int, SamplerConfig, DncConfig]) -> tuple[dict | None, dict | None]:
        seed, task_index, seeded_sampler, seeded_dnc = args
        task = tasks[task_index]
        mask = EdgeMask(
            [
                (task.source_id, task.truth_id, task.relation),
                (task.truth_id, task.source_id, task.relation),
            ]
        )
        try:
            trace = predict(
                g,
                task.source_id,
                task.relation,
                task.candidate_ids,
                seeded_sampler,
                prompt_cfg,
                scorer,
                seeded_dnc,
                mask,
            )
        except Exception as exc:
            logger.warning("task %d failed under seed %d: %s", task_index, seed, exc)
            return None, {"task": task_index, "seed": seed, "error": str(exc)}
        ndcg = metric_ndcg(trace.ranking, task.truth_id)
        mrr = metric_mrr(trace.ranking, task.truth_id)
        hits = metric_hits1(trace.ranking, task.truth_id)
        row = {
            "task": task_index,
            "seed": seed,
            "source": g.key_of(task.source_id),
            "truth": g.key_of(task.truth_id),
            "predicted": g.key_of(trace.final),
            "rank": _rank_of(trace.ranking, task.truth_id),
            "ndcg": ndcg,
            "mrr": mrr,
            "hits_at_1": hits,
            "scorer_calls": trace.scorer_calls,
        }
        return row, None

    jobs = []
    for seed in seeds:
        seeded_sampler = sampler_cfg.with_seed(seed)
        seeded_dnc = replace(dnc_cfg, rng_seed=seed)
        for task_index in range(len(tasks)):
            jobs.append((seed, task_index, seeded_sampler, seeded_dnc))
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(run_task, jobs))
    else:
        outcomes = [run_task(job) for job in jobs]
    # outcomes arrive in job order, so reports stay byte-identical across runs
    report = MetricReport(
        rows=tuple(row for row, _ in outcomes if row is not None),
        seeds=tuple(seeds),
        tasks=len(tasks),
        failures=tuple(failure for _, failure in outcomes if failure is not None),
    )
    report.validate()
    return report


def read_tasks(path: str, g: HetGraph) -> list[EvalTask]:
    """Read newline-delimited JSON tasks, mapping raw ids to dense ids."""
    tasks: list[EvalTask] = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            tasks.append(
                EvalTask(
                    source_id=g.id_of(record["source_id"]),
                    relation=record["relation"],
                    candidate_ids=tuple(g.id_of(c) for c in record["candidate_ids"]),
                    truth_id=g.id_of(record["truth_id"]),
                )
            )
    return tasks
