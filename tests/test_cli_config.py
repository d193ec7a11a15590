"""The CLI's knob table against the per-section builders it replaced.

The reference below is the earlier parser and merge code (``_merge`` and
one builder per config section), kept here without handlers and as it
was but for three later rules: ``--seed`` no longer sets a ``dnc`` seed,
the scorer's ``truth_pairs`` name raw ids that the loaded graph maps, and
``prompt`` builds the ``dnc`` section in place of ``predict --dry-run``.
Every subcommand is parsed by both, with each knob flag set and unset,
over config files that leave sections empty, fill every key, or set keys
the flags override; both must build equal config objects and graph paths,
or both must fail.
"""

import argparse
import json
from pathlib import Path

import pytest

import helpers
from lpnl import cli
from lpnl.cli import build_parser, main
from lpnl.datagen import DatagenConfig
from lpnl.graph import load_graph, save_graph
from lpnl.prompts import PromptConfig
from lpnl.sampling import SamplerConfig
from lpnl.scoring import ScorerBackendConfig
from lpnl.tournament import DncConfig

# -- reference ------------------------------------------------------------------


def _merge(section, overrides):
    merged = dict(section)
    for key, value in overrides.items():
        if value is not None:
            merged[key] = value
    return merged


def _sampler_config(config, args, g):
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


def _prompt_config(config, args, g):
    section = _merge(
        config.get("prompt", {}),
        {
            "token_budget": getattr(args, "token_budget", None),
            "token_estimator": getattr(args, "token_estimator", None),
        },
    )
    return PromptConfig(**section)


def _scorer_config(config, args, g):
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
        section["truth_pairs"] = frozenset((g.id_of(s), g.id_of(t)) for s, t in truth_pairs)
    return ScorerBackendConfig(**section)


def _dnc_config(config, args, g):
    section = _merge(
        config.get("dnc", {}),
        {
            "length_limit": getattr(args, "length_limit", None),
            "grouping": getattr(args, "grouping", None),
        },
    )
    return DncConfig(**section)


def _graph_paths(config, args):
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
    return section["nodes"], section["edges"], section["schema"]


def _datagen_config(config, args, g):
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
    return DatagenConfig(**section)


def _add_scorer_flags(p):
    p.add_argument("--backend", choices=("http_llm", "oracle_truth", "lexical_overlap", "fixed_index"))
    p.add_argument("--endpoint-url", dest="endpoint_url")
    p.add_argument("--model")
    p.add_argument("--api-key-env", dest="api_key_env")
    p.add_argument("--cache")
    p.add_argument("--fixed-index", dest="fixed_index", type=int)
    p.add_argument("--max-in-flight", dest="max_in_flight", type=int)
    p.add_argument("--timeout", type=float)
    p.add_argument("--max-retries", dest="max_retries", type=int)


def _add_sampler_flags(p):
    p.add_argument("--hops", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--budget", type=int)
    p.add_argument("--alpha", type=float)
    p.add_argument("--mode", choices=("exact_power_iteration", "approximate_push"))
    p.add_argument("--seed", type=int)


def _add_prompt_flags(p):
    p.add_argument("--token-budget", dest="token_budget", type=int)
    p.add_argument("--token-estimator", dest="token_estimator",
                   choices=("chars_div_4", "whitespace"))


def _reference_parser():
    parser = argparse.ArgumentParser(prog="lpnl")
    parser.add_argument("--config")
    parser.add_argument("--nodes")
    parser.add_argument("--edges")
    parser.add_argument("--schema")
    parser.add_argument("--log-level", default="WARNING")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample")
    p.add_argument("--center", action="append", required=True)
    _add_sampler_flags(p)
    p.add_argument("--out")

    p = sub.add_parser("prompt")
    p.add_argument("--tasks", required=True)
    p.add_argument("--length-limit", dest="length_limit", type=int)
    p.add_argument("--grouping", choices=("sequential", "random_seeded"))
    _add_sampler_flags(p)
    _add_prompt_flags(p)
    p.add_argument("--out")

    p = sub.add_parser("score")
    p.add_argument("--prompts", required=True)
    _add_scorer_flags(p)
    p.add_argument("--out")

    p = sub.add_parser("predict")
    p.add_argument("--tasks", required=True)
    p.add_argument("--length-limit", dest="length_limit", type=int)
    p.add_argument("--grouping", choices=("sequential", "random_seeded"))
    _add_sampler_flags(p)
    _add_prompt_flags(p)
    _add_scorer_flags(p)
    p.add_argument("--out")

    p = sub.add_parser("gen-train")
    p.add_argument("--relation", required=True)
    p.add_argument("--num", type=int, required=True)
    p.add_argument("--candidates-per-example", dest="candidates_per_example", type=int)
    p.add_argument("--policy", choices=("random_same_type", "shared_neighbor"))
    p.add_argument("--split", choices=("train", "valid", "test"))
    p.add_argument("--split-boundaries", dest="split_boundaries")
    p.add_argument("--attr-file", dest="attr_file")
    p.add_argument("--audit", action="store_true")
    _add_sampler_flags(p)
    _add_prompt_flags(p)
    p.add_argument("--out", required=True)

    p = sub.add_parser("eval")
    p.add_argument("--tasks", required=True)
    p.add_argument("--seeds")
    p.add_argument("--length-limit", dest="length_limit", type=int)
    p.add_argument("--grouping", choices=("sequential", "random_seeded"))
    _add_sampler_flags(p)
    _add_prompt_flags(p)
    _add_scorer_flags(p)
    p.add_argument("--out")
    return parser


# the config sections each subcommand's handler built, in build order;
# each builder gets the loaded graph
REFERENCE_SECTIONS = {
    "sample": (("sampler", _sampler_config),),
    "prompt": (("sampler", _sampler_config), ("prompt", _prompt_config), ("dnc", _dnc_config)),
    "score": (("scorer", _scorer_config),),
    "predict": (("sampler", _sampler_config), ("prompt", _prompt_config),
                ("scorer", _scorer_config), ("dnc", _dnc_config)),
    "gen-train": (("sampler", _sampler_config), ("prompt", _prompt_config),
                  ("datagen", _datagen_config)),
    "eval": (("sampler", _sampler_config), ("prompt", _prompt_config),
             ("scorer", _scorer_config), ("dnc", _dnc_config)),
}

# -- cases ----------------------------------------------------------------------

# a non-knob flag each subcommand requires
REQUIRED = {
    "sample": ["--center", "p0"],
    "prompt": ["--tasks", "tasks.ndjson"],
    "score": ["--prompts", "prompts.ndjson"],
    "predict": ["--tasks", "tasks.ndjson"],
    "gen-train": ["--out", "train.jsonl"],
    "eval": ["--tasks", "tasks.ndjson"],
}

# one value per knob, none equal to a config file's value
FLAG_VALUES = {
    "--hops": "1", "--k": "7", "--budget": "5", "--alpha": "0.3",
    "--mode": "approximate_push", "--seed": "4",
    "--token-budget": "300", "--token-estimator": "whitespace",
    "--backend": "oracle_truth", "--endpoint-url": "http://127.0.0.1:9/flag",
    "--model": "flag-model", "--api-key-env": "FLAG_KEY", "--cache": "flag-cache.ndjson",
    "--fixed-index": "2", "--max-in-flight": "3", "--timeout": "2.5", "--max-retries": "1",
    "--length-limit": "4", "--grouping": "sequential",
    "--relation": "authored_by", "--num": "5", "--candidates-per-example": "4",
    "--policy": "shared_neighbor", "--split": "valid", "--split-boundaries": "2015,2016",
}

# per flag, values both parsers accept that no config takes
BAD_VALUES = {
    "--hops": ("9",), "--alpha": ("1.5",), "--token-budget": ("10",), "--max-in-flight": ("0",),
    "--length-limit": ("1",), "--seed": ("-1",), "--candidates-per-example": ("1",),
    "--split-boundaries": ("2015;2016",), "--max-retries": ("0",), "--timeout": ("0",),
    "--endpoint-url": ("ftp://x", "http:///complete"),
}


def _knobs_of(command):
    """(graph knob flags, subcommand knob flags), as the reference parser has them."""
    parser = _reference_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    own = [
        a.option_strings[0] for a in sub.choices[command]._actions
        if a.option_strings and a.option_strings[0] in FLAG_VALUES
    ]
    return ["--nodes", "--edges", "--schema"], own


def _argvs(command, graph_flags):
    """Each knob both set and unset: none, all, all but one, and one at a time."""
    graph_knobs, own = _knobs_of(command)
    values = {**FLAG_VALUES, **graph_flags}
    required = [f for f in own if f in ("--relation", "--num")]

    def argv(chosen, bad=None):
        value = {**values, **(dict([bad]) if bad else {})}
        top = [x for f in graph_knobs if f in chosen for x in (f, value[f])]
        below = [x for f in own if f in chosen for x in (f, value[f])]
        return top + [command, *REQUIRED[command], *below]

    every = graph_knobs + own
    yield argv(set())
    yield argv(set(every))
    for flag in every:
        yield argv(set(every) - {flag})
        yield argv({flag, *required})
        for bad in BAD_VALUES.get(flag, ()):
            yield argv(set(every), bad=(flag, bad))


def _configs(graph):
    full = {
        "graph": graph,
        "sampler": {"hops": 3, "layer_budget": 8, "anchor_k": 20, "alpha": 0.2,
                    "ppr_mode": "exact_power_iteration", "push_tolerance": 1e-5,
                    "rng_seed": 11},
        "prompt": {"token_budget": 2048, "token_estimator": "chars_div_4",
                   "question_templates": {"authored_by": "Who wrote {source_alias}?"}},
        "scorer": {"kind": "http_llm", "endpoint_url": "http://127.0.0.1:9/cfg",
                   "model_name": "cfg-model", "api_key_env_var": "CFG_KEY", "timeout": 9.0,
                   "max_retries": 5, "backoff": 0.5, "cache_path": "cfg-cache.ndjson",
                   "max_in_flight": 6, "max_output_tokens": 32, "fixed_index": 1,
                   "truth_pairs": [["p1", "a2"], ["p3", "a4"]]},
        "dnc": {"length_limit": 6, "grouping": "random_seeded"},
        "datagen": {"relation": "authored_by", "num_examples": 9,
                    "candidates_per_example": 5, "negative_policy": "random_same_type",
                    "rng_seed": 13, "split": "train", "split_boundaries": [2001, 2002]},
    }
    overridden = {
        "graph": {"nodes": graph["nodes"]},
        "sampler": {"hops": 3, "rng_seed": 21},
        "prompt": {"token_budget": 512},
        "scorer": {"kind": "fixed_index", "fixed_index": 1, "max_in_flight": 2},
        "dnc": {"length_limit": 5},
        "datagen": {"negative_policy": "shared_neighbor", "num_examples": 3, "rng_seed": 23},
    }
    return {"none": None, "full": full, "overridden": overridden}


@pytest.fixture(scope="module")
def graph_files(tmp_path_factory):
    """The same toy graph saved twice: once named by flags, once by config files."""
    g = helpers.authorship_graph(n_papers=20, n_authors=10, seed=1)
    paths = {}
    for name in ("flags", "config"):
        root = tmp_path_factory.mktemp(name)
        paths[name] = {k: str(root / f) for k, f in
                       (("nodes", "nodes.tsv"), ("edges", "edges.tsv"), ("schema", "schema.json"))}
        save_graph(g, paths[name]["nodes"], paths[name]["edges"], paths[name]["schema"])
    return paths


def _reference(argv, config):
    """(namespace, graph paths, {section: config}) or the exception raised."""
    try:
        args = _reference_parser().parse_args(argv)
        paths = _graph_paths(config, args)
        g = load_graph(*paths)
        built = {name: build(config, args, g) for name, build in REFERENCE_SECTIONS[args.command]}
    except (SystemExit, ValueError, TypeError, KeyError) as exc:
        return exc
    return args, paths, built


def _current(argv, config, monkeypatch):
    try:
        args = build_parser().parse_args(argv)
        with monkeypatch.context() as m:
            m.setattr(cli, "load_graph", lambda *paths: paths)
            paths = cli._load_graph(config, args)
        g = load_graph(*paths)
        built = {name: cli._section(name, config, args, g) for name in args.sections}
    except (SystemExit, ValueError, TypeError, KeyError) as exc:
        return exc
    return args, paths, built


@pytest.mark.parametrize("command", sorted(REFERENCE_SECTIONS))
def test_sections_match_reference(command, graph_files, tmp_path, monkeypatch):
    graph_flags = {f"--{k}": v for k, v in graph_files["flags"].items()}
    cases = raised = 0
    for config_name, config in _configs(graph_files["config"]).items():
        prefix = []
        if config is not None:
            path = tmp_path / f"{config_name}.json"
            path.write_text(json.dumps(config))
            prefix = ["--config", str(path)]
        for argv in _argvs(command, graph_flags):
            argv = prefix + argv
            config_dict = config or {}
            expected = _reference(argv, config_dict)
            got = _current(argv, config_dict, monkeypatch)
            cases += 1
            if isinstance(expected, BaseException):
                raised += 1
                assert isinstance(got, BaseException), (argv, expected, got)
                if isinstance(expected, SystemExit) and isinstance(expected.code, int):
                    # argparse rejected the command line in both
                    assert isinstance(got, SystemExit) and got.code == expected.code, argv
                    continue
                # a config that fails to build: main reports it and exits 1
                if isinstance(got, SystemExit):
                    with pytest.raises(SystemExit, match="missing graph file settings"):
                        main(argv)
                else:
                    assert main(argv) == 1, argv
                continue
            assert not isinstance(got, BaseException), (argv, got)
            ref_args, ref_paths, ref_built = expected
            args, paths, built = got
            parsed = {k: v for k, v in vars(args).items() if k not in ("handler", "sections")}
            assert parsed == vars(ref_args), argv
            assert paths == ref_paths, argv
            assert built == ref_built, argv
            assert list(built) == [name for name, _ in REFERENCE_SECTIONS[command]]
    assert 0 < raised < cases


@pytest.mark.parametrize("section,key", [
    ("graph", "nodez"), ("sampler", "hop"), ("prompt", "segment_separator"),
    ("prompt", "anchor_separator"),
    ("scorer", "backend"), ("dnc", "limit"), ("dnc", "rng_seed"), ("datagen", "policy"),
])
def test_unknown_config_key_names_section_and_key(section, key, graph_files, tmp_path, caplog):
    config = {section: {key: 1}}
    if section != "graph":
        config["graph"] = graph_files["config"]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    command = "gen-train" if section == "datagen" else "eval"
    argv = ["--config", str(path), command, "--out", str(tmp_path / "out")]
    argv += ["--relation", "authored_by", "--num", "1"] if command == "gen-train" else [
        "--tasks", "tasks.ndjson"]
    with pytest.raises(ValueError, match=f"unknown key '{key}' in config section '{section}'"):
        cli._section(section, config, build_parser().parse_args(argv))
    assert main(argv) == 1
    assert f"unknown key '{key}' in config section '{section}'" in caplog.text


def test_unknown_config_section_is_named(graph_files, tmp_path, caplog):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"graph": graph_files["config"], "samplr": {"hops": 1}}))
    assert main(["--config", str(path), "sample", "--center", "p0"]) == 1
    assert "unknown config section 'samplr'" in caplog.text


def test_help_names_the_config_keys(capsys):
    helps = [([], {"graph"})] + [
        ([command], {name for name, _ in sections})
        for command, sections in REFERENCE_SECTIONS.items()
    ]
    for argv, names in helps:
        with pytest.raises(SystemExit):
            main([*argv, "--help"])
        text = " ".join(capsys.readouterr().out.split())
        for knob in cli._KNOBS:
            for key in knob.keys:
                if key.split(".")[0] in names:
                    assert key in text, (argv, knob.flag, key)


def test_readme_lists_every_knob():
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    for knob in cli._KNOBS:
        keys = ", ".join(f"`{key}`" for key in knob.keys)
        assert f"| `{knob.flag}` | {keys} |" in readme, knob.flag
