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
from contextlib import contextmanager
from dataclasses import dataclass, fields
from typing import Any, Callable, NamedTuple

from .datagen import (
    NEGATIVE_POLICIES,
    SPLITS,
    DatagenConfig,
    generate_examples,
    leakage_audit,
    write_examples,
)
from .evaluation import read_tasks, run_benchmark
from .graph import HetGraph, load_graph
from .prompts import (
    TOKEN_ESTIMATORS,
    BudgetUnsatisfiableError,
    PromptBundle,
    PromptConfig,
    build_prompt,
    parse_prompt,
)
from .sampling import PPR_MODES, SamplerConfig, anchors_for, top_k_anchors
from .scoring import BACKEND_KINDS, ScorerBackendConfig, make_scorer
from .tournament import GROUPINGS, DncConfig, PredictionAborted, partition, predict

logger = logging.getLogger("lpnl")


@dataclass(frozen=True)
class _GraphFiles:
    nodes: str | None = None
    edges: str | None = None
    schema: str | None = None


# config file section -> the class it builds
_SECTIONS = {
    "graph": _GraphFiles,
    "sampler": SamplerConfig,
    "prompt": PromptConfig,
    "scorer": ScorerBackendConfig,
    "dnc": DncConfig,
    "datagen": DatagenConfig,
}


class _Knob(NamedTuple):
    """A flag, the ``section.field`` config keys it overrides, its argparse settings.

    ``parse`` converts a set flag's string when the section is built, so a
    malformed value fails like a bad config value.
    """

    flag: str
    keys: tuple[str, ...]
    settings: dict = {}
    parse: Callable[[str], Any] | None = None

    @property
    def dest(self) -> str:
        return self.flag[2:].replace("-", "_")


_KNOBS = (
    _Knob("--nodes", ("graph.nodes",), {"help": "node file (tsv)"}),
    _Knob("--edges", ("graph.edges",), {"help": "edge file (tsv)"}),
    _Knob("--schema", ("graph.schema",), {"help": "schema file (json)"}),
    _Knob("--hops", ("sampler.hops",), {"type": int}),
    _Knob("--k", ("sampler.anchor_k",), {"type": int}),
    _Knob("--budget", ("sampler.layer_budget",), {"type": int}),
    _Knob("--alpha", ("sampler.alpha",), {"type": float}),
    _Knob("--mode", ("sampler.ppr_mode",), {"choices": PPR_MODES}),
    _Knob("--seed", ("sampler.rng_seed", "dnc.rng_seed", "datagen.rng_seed"), {"type": int}),
    _Knob("--token-budget", ("prompt.token_budget",), {"type": int}),
    _Knob("--token-estimator", ("prompt.token_estimator",), {"choices": TOKEN_ESTIMATORS}),
    _Knob("--backend", ("scorer.kind",), {"choices": BACKEND_KINDS}),
    _Knob("--endpoint-url", ("scorer.endpoint_url",)),
    _Knob("--model", ("scorer.model_name",)),
    _Knob("--api-key-env", ("scorer.api_key_env_var",)),
    _Knob("--cache", ("scorer.cache_path",)),
    _Knob("--fixed-index", ("scorer.fixed_index",), {"type": int}),
    _Knob("--max-in-flight", ("scorer.max_in_flight",), {"type": int}),
    _Knob("--timeout", ("scorer.timeout",), {"type": float}),
    _Knob("--max-retries", ("scorer.max_retries",), {"type": int}),
    _Knob("--length-limit", ("dnc.length_limit",), {"type": int}),
    _Knob("--grouping", ("dnc.grouping",), {"choices": GROUPINGS}),
    _Knob("--relation", ("datagen.relation",), {"required": True}),
    _Knob("--num", ("datagen.num_examples",), {"type": int, "required": True}),
    _Knob("--candidates-per-example", ("datagen.candidates_per_example",), {"type": int}),
    _Knob("--policy", ("datagen.negative_policy",), {"choices": NEGATIVE_POLICIES}),
    _Knob("--split", ("datagen.split",), {"choices": SPLITS}),
    _Knob("--split-boundaries", ("datagen.split_boundaries",), {"help": "comma pair, e.g. 2015,2016"},
          lambda text: tuple(float(x) for x in text.split(","))),
)


def _load_config(path: str | None) -> dict:
    if not path:
        return {}
    with open(path, encoding="utf-8") as fh:
        config = json.load(fh)
    for name in config:
        if name not in _SECTIONS:
            raise ValueError(f"unknown config section {name!r}")
    return config


def _section(name: str, config: dict, args):
    """Config section ``name``: the flags the user set laid over the file's section."""
    cls = _SECTIONS[name]
    values = dict(config.get(name, {}))
    known = {f.name for f in fields(cls)}
    for key in values:
        if key not in known:
            raise ValueError(f"unknown key {key!r} in config section {name!r}")
    # JSON has no tuples; the scorer looks pairs up in a frozenset
    if values.get("truth_pairs") is not None:
        values["truth_pairs"] = frozenset(tuple(p) for p in values["truth_pairs"])
    for knob in _KNOBS:
        value = getattr(args, knob.dest, None)
        if value is None:
            continue
        for key in knob.keys:
            section, _, attr = key.partition(".")
            if section == name:
                values[attr] = knob.parse(value) if knob.parse else value
    return cls(**values)


def _load_graph(config: dict, args) -> HetGraph:
    files = _section("graph", config, args)
    missing = [f.name for f in fields(files) if not getattr(files, f.name)]
    if missing:
        raise SystemExit(f"missing graph file settings: {', '.join(missing)}")
    return load_graph(files.nodes, files.edges, files.schema)


@contextmanager
def _output(path: str | None):
    """The ``--out`` file, closed on exit even when the handler raises; else stdout."""
    if not path:
        yield sys.stdout
        return
    with open(path, "w", encoding="utf-8") as fh:
        yield fh


def _read_task_records(path: str) -> list[dict]:
    records = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records


# -- subcommand handlers ------------------------------------------------------
#
# Each handler gets the parsed flags, the loaded graph and the config
# sections its subcommand builds, keyed by section name.


def _cmd_sample(args, g: HetGraph, cfg: dict) -> int:
    with _output(args.out) as out:
        for center_key in args.center:
            center = g.id_of(center_key)
            anchors = top_k_anchors(g, center, cfg["sampler"])
            record = {
                "center": center_key,
                "anchors": [
                    {"id": g.key_of(v), "score": s} for v, s in anchors.entries
                ],
            }
            out.write(json.dumps(record, sort_keys=True) + "\n")
    return 0


def _bundle_record(bundle: PromptBundle, g: HetGraph, relation: str) -> dict:
    return {
        "source": g.key_of(bundle.source),
        "relation": relation,
        "candidates": [g.key_of(c) for c in bundle.candidate_order],
        "text": bundle.text,
        "token_count": bundle.token_count,
    }


def _cmd_prompt(args, g: HetGraph, cfg: dict) -> int:
    failed = 0
    with _output(args.out) as out:
        for record in _read_task_records(args.tasks):
            source = g.id_of(record["source_id"])
            candidates = [g.id_of(c) for c in record["candidate_ids"]]
            relation = record["relation"]
            anchors = anchors_for(g, (source, *candidates), cfg["sampler"])
            try:
                bundle = build_prompt(source, relation, candidates, anchors, g, cfg["prompt"])
            except BudgetUnsatisfiableError as exc:
                failed += 1
                out.write(json.dumps({"source": record["source_id"], "error": str(exc)}) + "\n")
                continue
            out.write(json.dumps(_bundle_record(bundle, g, relation), sort_keys=True) + "\n")
    return 1 if failed else 0


def _rebuild_bundle(record: dict, g: HetGraph) -> PromptBundle:
    """Reconstruct a scoreable bundle from a `prompt` output record.

    Candidate texts come from the graph, as in ``build_prompt``: a node's
    text may itself contain the prompt's separators.
    """
    parsed = parse_prompt(record["text"])
    candidates = tuple(g.id_of(c) for c in record["candidates"])
    return PromptBundle(
        text=record["text"],
        token_count=record["token_count"],
        source=g.id_of(record["source"]),
        candidate_order=candidates,
        source_alias=parsed.source_segment.split(": ", 1)[0],
        candidate_aliases=tuple(seg.split(": ", 1)[0] for seg in parsed.candidate_segments),
        candidate_texts=tuple(g.text(c) for c in candidates),
    )


def _cmd_score(args, g: HetGraph, cfg: dict) -> int:
    scorer = make_scorer(cfg["scorer"])
    with _output(args.out) as out:
        for record in _read_task_records(args.prompts):
            if "error" in record:
                continue
            bundle = _rebuild_bundle(record, g)
            response = scorer.score(bundle)
            choice = {
                "source": record["source"],
                "chosen": g.key_of(response.chosen),
                "resolution": response.resolution,
                "raw_output": response.raw_output,
            }
            out.write(json.dumps(choice, sort_keys=True) + "\n")
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


def _cmd_predict(args, g: HetGraph, cfg: dict) -> int:
    sampler_cfg, prompt_cfg, dnc_cfg = cfg["sampler"], cfg["prompt"], cfg["dnc"]
    # one backend for every task, so its cache and session load once
    scorer = None if args.dry_run else make_scorer(cfg["scorer"])
    status = 0
    with _output(args.out) as out:
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
                failed = {"error": str(exc), **_trace_record(exc.trace, g)}
                out.write(json.dumps(failed, sort_keys=True) + "\n")
                continue
            out.write(json.dumps(_trace_record(trace, g), sort_keys=True) + "\n")
    return status


def _cmd_gen_train(args, g: HetGraph, cfg: dict) -> int:
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
            g, cfg["datagen"], cfg["sampler"], cfg["prompt"],
            node_attr=node_attr, counters=counters,
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


def _cmd_eval(args, g: HetGraph, cfg: dict) -> int:
    tasks = read_tasks(args.tasks, g)
    seeds = tuple(int(s) for s in args.seeds.split(",")) if args.seeds else (0,)
    started = time.perf_counter()
    report = run_benchmark(
        tasks, g,
        sampler_cfg=cfg["sampler"], prompt_cfg=cfg["prompt"],
        scorer_cfg=cfg["scorer"], dnc_cfg=cfg["dnc"], seeds=seeds,
    )
    elapsed = time.perf_counter() - started
    with _output(args.out) as out:
        out.write(report.to_json() + "\n")
    print(report.render_table(), file=sys.stderr)
    print(f"evaluated {len(tasks)} tasks in {elapsed:.2f}s", file=sys.stderr)
    if report.failures:
        logger.error("%d of %d task runs failed", len(report.failures), len(tasks) * len(seeds))
        return 1
    return 0


# -- parser -------------------------------------------------------------------


def _add_knobs(parser: argparse.ArgumentParser, sections: tuple[str, ...]) -> None:
    """Add every knob that overrides a key of ``sections``; its help names those keys."""
    for knob in _KNOBS:
        keys = [key for key in knob.keys if key.split(".")[0] in sections]
        if not keys:
            continue
        settings = dict(knob.settings)
        note = f"overrides config {', '.join(keys)}"
        settings["help"] = f"{settings['help']}; {note}" if "help" in settings else note
        parser.add_argument(knob.flag, **settings)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="lpnl", description=__doc__)
    parser.add_argument("--config", help="JSON config file with per-module sections")
    _add_knobs(parser, ("graph",))
    parser.add_argument("--log-level", default="WARNING")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, help, sections):
        p = sub.add_parser(name, help=help)
        p.set_defaults(handler=handler, sections=sections)
        _add_knobs(p, sections)
        return p

    p = command("sample", _cmd_sample, "emit top-k anchor lists for centers", ("sampler",))
    p.add_argument("--center", action="append", required=True, help="node id (repeatable)")
    p.add_argument("--out")

    p = command("prompt", _cmd_prompt, "render one prompt per task", ("sampler", "prompt"))
    p.add_argument("--tasks", required=True, help="ndjson task file")
    p.add_argument("--out")

    p = command("score", _cmd_score, "score a prompt file with a backend", ("scorer",))
    p.add_argument("--prompts", required=True, help="ndjson prompt records")
    p.add_argument("--out")

    p = command("predict", _cmd_predict, "run the elimination tournament per task",
                ("sampler", "prompt", "scorer", "dnc"))
    p.add_argument("--tasks", required=True)
    p.add_argument("--dry-run", action="store_true",
                   help="emit first-round prompts without scoring")
    p.add_argument("--out")

    p = command("gen-train", _cmd_gen_train, "generate self-supervised training data",
                ("sampler", "prompt", "datagen"))
    p.add_argument("--attr-file", help="tsv of node_id<TAB>numeric attribute for splits")
    p.add_argument("--audit", action="store_true", help="run the leakage audit after writing")
    p.add_argument("--out", required=True)

    p = command("eval", _cmd_eval, "benchmark a scorer over a task file",
                ("sampler", "prompt", "scorer", "dnc"))
    p.add_argument("--tasks", required=True)
    p.add_argument("--seeds", help="comma-separated seeds, default 0")
    p.add_argument("--out")

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=getattr(logging, args.log_level.upper(), logging.WARNING))
    try:
        config = _load_config(args.config)
        g = _load_graph(config, args)
        cfg = {name: _section(name, config, args) for name in args.sections}
        return args.handler(args, g, cfg)
    except (ValueError, KeyError, TypeError, OSError) as exc:
        logger.error("%s", exc)
        logger.debug("%s failed", args.command, exc_info=True)
        return 1


if __name__ == "__main__":
    sys.exit(main())
