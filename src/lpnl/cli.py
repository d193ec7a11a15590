"""Command-line entry point.

    lpnl [--config cfg.json] [graph flags] <subcommand> [flags]

Subcommands: ``sample`` (anchor lists), ``prompt`` (rendered prompts),
``score`` (one-off scoring of a prompt file), ``predict`` (tournament
traces), ``gen-train`` (training corpus), ``eval`` (benchmark report).
A single JSON config file supplies per-module sections (``graph``,
``sampler``, ``prompt``, ``scorer``, ``dnc``, ``datagen``); command-line
flags override config values. All ids in files and output are the raw
string ids from the node file.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
import time

from .datagen import DatagenConfig, generate_examples, leakage_audit, write_examples
from .evaluation import read_tasks, run_benchmark
from .graph import HetGraph, load_graph
from .prompts import (
    BudgetUnsatisfiableError,
    PromptBundle,
    PromptConfig,
    build_prompt,
    parse_prompt,
)
from .sampling import SamplerConfig, anchors_for, top_k_anchors
from .scoring import ScorerBackendConfig, ScorerRequest, make_scorer
from .tournament import DncConfig, PredictionAborted, partition, predict

logger = logging.getLogger("lpnl")


def _load_config(path: str | None) -> dict:
    if not path:
        return {}
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _merge(section: dict, overrides: dict) -> dict:
    merged = dict(section)
    for key, value in overrides.items():
        if value is not None:
            merged[key] = value
    return merged


def _sampler_config(config: dict, args) -> SamplerConfig:
    section = _merge(
        config.get("sampler", {}),
        {
            "hops": getattr(args, "hops", None),
            "anchor_k": getattr(args, "k", None),
            "layer_budget": getattr(args, "budget", None),
            "alpha": getattr(args, "alpha", None),
            "ppr_mode": getattr(args, "mode", None),
            "rng_seed": getattr(args, "seed", None),
        },
    )
    return SamplerConfig(**section)


def _prompt_config(config: dict, args) -> PromptConfig:
    section = _merge(
        config.get("prompt", {}),
        {
            "token_budget": getattr(args, "token_budget", None),
            "token_estimator": getattr(args, "token_estimator", None),
        },
    )
    return PromptConfig(**section)


def _scorer_config(config: dict, args) -> ScorerBackendConfig:
    section = _merge(
        config.get("scorer", {}),
        {
            "kind": getattr(args, "backend", None),
            "endpoint_url": getattr(args, "endpoint_url", None),
            "model_name": getattr(args, "model", None),
            "api_key_env_var": getattr(args, "api_key_env", None),
            "cache_path": getattr(args, "cache", None),
            "fixed_index": getattr(args, "fixed_index", None),
            "max_in_flight": getattr(args, "max_in_flight", None),
            "timeout": getattr(args, "timeout", None),
            "max_retries": getattr(args, "max_retries", None),
        },
    )
    truth_pairs = section.get("truth_pairs")
    if truth_pairs is not None:
        section["truth_pairs"] = frozenset(tuple(p) for p in truth_pairs)
    return ScorerBackendConfig(**section)


def _dnc_config(config: dict, args) -> DncConfig:
    section = _merge(
        config.get("dnc", {}),
        {
            "length_limit": getattr(args, "length_limit", None),
            "grouping": getattr(args, "grouping", None),
            "rng_seed": getattr(args, "seed", None),
        },
    )
    return DncConfig(**section)


def _load_graph(config: dict, args) -> HetGraph:
    section = _merge(
        config.get("graph", {}),
        {
            "nodes": getattr(args, "nodes", None),
            "edges": getattr(args, "edges", None),
            "schema": getattr(args, "schema", None),
        },
    )
    missing = [name for name in ("nodes", "edges", "schema") if not section.get(name)]
    if missing:
        raise SystemExit(f"missing graph file settings: {', '.join(missing)}")
    return load_graph(section["nodes"], section["edges"], section["schema"])


def _out_stream(args):
    if getattr(args, "out", None):
        return open(args.out, "w", encoding="utf-8")
    return sys.stdout


def _read_task_records(path: str) -> list[dict]:
    records = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records


# -- subcommand handlers ------------------------------------------------------


def _cmd_sample(args, config: dict) -> int:
    g = _load_graph(config, args)
    sampler_cfg = _sampler_config(config, args)
    out = _out_stream(args)
    for center_key in args.center:
        center = g.id_of(center_key)
        anchors = top_k_anchors(g, center, sampler_cfg)
        record = {
            "center": center_key,
            "anchors": [
                {"id": g.key_of(v), "score": s} for v, s in anchors.entries
            ],
        }
        out.write(json.dumps(record, sort_keys=True) + "\n")
    if out is not sys.stdout:
        out.close()
    return 0


def _bundle_record(bundle: PromptBundle, g: HetGraph, relation: str) -> dict:
    return {
        "source": g.key_of(bundle.source),
        "relation": relation,
        "candidates": [g.key_of(c) for c in bundle.candidate_order],
        "text": bundle.text,
        "token_count": bundle.token_count,
    }


def _cmd_prompt(args, config: dict) -> int:
    g = _load_graph(config, args)
    sampler_cfg = _sampler_config(config, args)
    prompt_cfg = _prompt_config(config, args)
    out = _out_stream(args)
    failed = 0
    for record in _read_task_records(args.tasks):
        source = g.id_of(record["source_id"])
        candidates = [g.id_of(c) for c in record["candidate_ids"]]
        relation = record["relation"]
        anchors = anchors_for(g, (source, *candidates), sampler_cfg)
        try:
            bundle = build_prompt(source, relation, candidates, anchors, g, prompt_cfg)
        except BudgetUnsatisfiableError as exc:
            failed += 1
            out.write(json.dumps({"source": record["source_id"], "error": str(exc)}) + "\n")
            continue
        out.write(json.dumps(_bundle_record(bundle, g, relation), sort_keys=True) + "\n")
    if out is not sys.stdout:
        out.close()
    return 1 if failed else 0


def _rebuild_bundle(record: dict, g: HetGraph) -> PromptBundle:
    """Reconstruct a scoreable bundle from a `prompt` output record."""
    parsed = parse_prompt(record["text"])
    aliases = []
    for segment in parsed.candidate_segments:
        head = segment.split(": ", 1)[0]
        aliases.append(head)
    return PromptBundle(
        text=record["text"],
        token_count=record["token_count"],
        source=g.id_of(record["source"]),
        candidate_order=tuple(g.id_of(c) for c in record["candidates"]),
        source_alias=parsed.source_segment.split(": ", 1)[0],
        candidate_aliases=tuple(aliases),
        candidate_texts=parsed.candidate_own_texts(),
    )


def _cmd_score(args, config: dict) -> int:
    g = _load_graph(config, args)
    scorer_cfg = _scorer_config(config, args)
    scorer = make_scorer(scorer_cfg)
    out = _out_stream(args)
    for record in _read_task_records(args.prompts):
        if "error" in record:
            continue
        bundle = _rebuild_bundle(record, g)
        response = scorer.score(ScorerRequest(bundle))
        out.write(
            json.dumps(
                {
                    "source": record["source"],
                    "chosen": g.key_of(response.chosen),
                    "resolution": response.resolution,
                    "raw_output": response.raw_output,
                },
                sort_keys=True,
            )
            + "\n"
        )
    if out is not sys.stdout:
        out.close()
    return 0


def _trace_record(trace, g: HetGraph) -> dict:
    return {
        "source": g.key_of(trace.source),
        "relation": trace.relation,
        "candidates": [g.key_of(c) for c in trace.candidates],
        "rounds": [
            {
                "sets": [[g.key_of(c) for c in s] for s in rnd.sets],
                "winners": [g.key_of(w) for w in rnd.winners],
            }
            for rnd in trace.rounds
        ],
        "final": g.key_of(trace.final) if trace.final is not None else None,
        "ranking": [g.key_of(c) for c in trace.ranking],
        "scorer_calls": trace.scorer_calls,
    }


def _cmd_predict(args, config: dict) -> int:
    g = _load_graph(config, args)
    sampler_cfg = _sampler_config(config, args)
    prompt_cfg = _prompt_config(config, args)
    scorer_cfg = _scorer_config(config, args)
    # one backend for every task, so its cache and session load once
    scorer = None if args.dry_run else make_scorer(scorer_cfg)
    dnc_cfg = _dnc_config(config, args)
    out = _out_stream(args)
    status = 0
    for record in _read_task_records(args.tasks):
        source = g.id_of(record["source_id"])
        candidates = [g.id_of(c) for c in record["candidate_ids"]]
        relation = record["relation"]
        if args.dry_run:
            anchors = anchors_for(g, (source, *candidates), sampler_cfg)
            sets = partition(
                candidates, dnc_cfg.length_limit, dnc_cfg.grouping, dnc_cfg.rng_seed
            )
            for members in sets:
                bundle = build_prompt(source, relation, members, anchors, g, prompt_cfg)
                out.write(json.dumps(_bundle_record(bundle, g, relation), sort_keys=True) + "\n")
            continue
        try:
            trace = predict(
                g, source, relation, candidates,
                sampler_cfg, prompt_cfg, scorer, dnc_cfg,
            )
        except PredictionAborted as exc:
            status = 1
            out.write(
                json.dumps(
                    {"error": str(exc), **_trace_record(exc.trace, g)}, sort_keys=True
                )
                + "\n"
            )
            continue
        out.write(json.dumps(_trace_record(trace, g), sort_keys=True) + "\n")
    if out is not sys.stdout:
        out.close()
    return status


def _cmd_gen_train(args, config: dict) -> int:
    g = _load_graph(config, args)
    sampler_cfg = _sampler_config(config, args)
    prompt_cfg = _prompt_config(config, args)
    section = _merge(
        config.get("datagen", {}),
        {
            "relation": args.relation,
            "num_examples": args.num,
            "candidates_per_example": args.candidates_per_example,
            "negative_policy": args.policy,
            "rng_seed": args.seed,
            "split": args.split,
        },
    )
    if args.split_boundaries:
        section["split_boundaries"] = tuple(
            float(x) for x in args.split_boundaries.split(",")
        )
    cfg = DatagenConfig(**section)
    node_attr = None
    if args.attr_file:
        node_attr = {}
        with open(args.attr_file, encoding="utf-8") as fh:
            for line in fh:
                if not line.strip():
                    continue
                key, value = line.rstrip("\n").split("\t")
                node_attr[g.id_of(key)] = float(value)
    counters: dict = {}
    examples = list(
        generate_examples(
            g, cfg, sampler_cfg, prompt_cfg, node_attr=node_attr, counters=counters
        )
    )
    count = write_examples(args.out, examples, g)
    if args.audit:
        report = leakage_audit(examples, g)
        if not report.ok:
            logger.error("leakage audit found %d violations", len(report.violations))
            return 1
        logger.info("leakage audit clean over %d examples", report.examples_scanned)
    logger.info("wrote %d examples to %s (%s)", count, args.out, counters)
    return 0


def _cmd_eval(args, config: dict) -> int:
    g = _load_graph(config, args)
    sampler_cfg = _sampler_config(config, args)
    prompt_cfg = _prompt_config(config, args)
    scorer_cfg = _scorer_config(config, args)
    dnc_cfg = _dnc_config(config, args)
    tasks = read_tasks(args.tasks, g)
    seeds = tuple(int(s) for s in args.seeds.split(",")) if args.seeds else (0,)
    started = time.perf_counter()
    report = run_benchmark(
        tasks, g,
        sampler_cfg=sampler_cfg, prompt_cfg=prompt_cfg,
        scorer_cfg=scorer_cfg, dnc_cfg=dnc_cfg, seeds=seeds,
    )
    elapsed = time.perf_counter() - started
    try:
        if tasks:
            report.validate()
    except ValueError as exc:
        logger.error("report failed validation: %s", exc)
        return 1
    out = _out_stream(args)
    out.write(report.to_json() + "\n")
    if out is not sys.stdout:
        out.close()
    print(report.render_table(), file=sys.stderr)
    print(f"evaluated {len(tasks)} tasks in {elapsed:.2f}s", file=sys.stderr)
    return 0


# -- parser -------------------------------------------------------------------


def _add_scorer_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--backend", choices=("http_llm", "oracle_truth", "lexical_overlap", "fixed_index"))
    p.add_argument("--endpoint-url", dest="endpoint_url")
    p.add_argument("--model")
    p.add_argument("--api-key-env", dest="api_key_env")
    p.add_argument("--cache")
    p.add_argument("--fixed-index", dest="fixed_index", type=int)
    p.add_argument("--max-in-flight", dest="max_in_flight", type=int)
    p.add_argument("--timeout", type=float)
    p.add_argument("--max-retries", dest="max_retries", type=int)


def _add_sampler_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--hops", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--budget", type=int)
    p.add_argument("--alpha", type=float)
    p.add_argument("--mode", choices=("exact_power_iteration", "approximate_push"))
    p.add_argument("--seed", type=int)


def _add_prompt_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--token-budget", dest="token_budget", type=int)
    p.add_argument("--token-estimator", dest="token_estimator",
                   choices=("chars_div_4", "whitespace"))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="lpnl", description=__doc__)
    parser.add_argument("--config", help="JSON config file with per-module sections")
    parser.add_argument("--nodes", help="node file (tsv)")
    parser.add_argument("--edges", help="edge file (tsv)")
    parser.add_argument("--schema", help="schema file (json)")
    parser.add_argument("--log-level", default="WARNING")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", help="emit top-k anchor lists for centers")
    p.add_argument("--center", action="append", required=True, help="node id (repeatable)")
    _add_sampler_flags(p)
    p.add_argument("--out")
    p.set_defaults(handler=_cmd_sample)

    p = sub.add_parser("prompt", help="render one prompt per task")
    p.add_argument("--tasks", required=True, help="ndjson task file")
    _add_sampler_flags(p)
    _add_prompt_flags(p)
    p.add_argument("--out")
    p.set_defaults(handler=_cmd_prompt)

    p = sub.add_parser("score", help="score a prompt file with a backend")
    p.add_argument("--prompts", required=True, help="ndjson prompt records")
    _add_scorer_flags(p)
    p.add_argument("--out")
    p.set_defaults(handler=_cmd_score)

    p = sub.add_parser("predict", help="run the elimination tournament per task")
    p.add_argument("--tasks", required=True)
    p.add_argument("--dry-run", action="store_true",
                   help="emit first-round prompts without scoring")
    p.add_argument("--length-limit", dest="length_limit", type=int)
    p.add_argument("--grouping", choices=("sequential", "random_seeded"))
    _add_sampler_flags(p)
    _add_prompt_flags(p)
    _add_scorer_flags(p)
    p.add_argument("--out")
    p.set_defaults(handler=_cmd_predict)

    p = sub.add_parser("gen-train", help="generate self-supervised training data")
    p.add_argument("--relation", required=True)
    p.add_argument("--num", type=int, required=True)
    p.add_argument("--candidates-per-example", dest="candidates_per_example", type=int)
    p.add_argument("--policy", choices=("random_same_type", "shared_neighbor"))
    p.add_argument("--split", choices=("train", "valid", "test"))
    p.add_argument("--split-boundaries", dest="split_boundaries",
                   help="comma pair, e.g. 2015,2016")
    p.add_argument("--attr-file", dest="attr_file",
                   help="tsv of node_id<TAB>numeric attribute for splits")
    p.add_argument("--audit", action="store_true", help="run the leakage audit after writing")
    _add_sampler_flags(p)
    _add_prompt_flags(p)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_gen_train)

    p = sub.add_parser("eval", help="benchmark a scorer over a task file")
    p.add_argument("--tasks", required=True)
    p.add_argument("--seeds", help="comma-separated seeds, default 0")
    p.add_argument("--length-limit", dest="length_limit", type=int)
    p.add_argument("--grouping", choices=("sequential", "random_seeded"))
    _add_sampler_flags(p)
    _add_prompt_flags(p)
    _add_scorer_flags(p)
    p.add_argument("--out")
    p.set_defaults(handler=_cmd_eval)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=getattr(logging, args.log_level.upper(), logging.WARNING))
    config = _load_config(args.config)
    try:
        return args.handler(args, config)
    except (ValueError, KeyError, TypeError, OSError) as exc:
        logger.error("%s", exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())
