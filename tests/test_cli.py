import gc
import json
import logging
import socket
import subprocess
import sys
import warnings

import numpy as np
import pytest

import helpers
from lpnl import cli, scoring
from lpnl.cli import main
from lpnl.datagen import LeakageReport
from lpnl.graph import EdgeType, HetGraph, NodeType, save_graph
from lpnl.prompts import BudgetUnsatisfiableError, parse_prompt


@pytest.fixture
def cli_graph(tmp_path):
    g = helpers.authorship_graph(n_papers=40, n_authors=20, seed=1)
    nodes, edges, schema = (
        str(tmp_path / "nodes.tsv"),
        str(tmp_path / "edges.tsv"),
        str(tmp_path / "schema.json"),
    )
    save_graph(g, nodes, edges, schema)
    return g, ["--nodes", nodes, "--edges", edges, "--schema", schema]


def write_tasks(tmp_path, g, n=3, candidates=4, with_truth=True, seed=2):
    rng = np.random.default_rng(seed)
    edges = g.edges_of_type("authored_by")
    authors = g.nodes_of_type("author")
    lines = []
    for i in rng.choice(len(edges), size=n, replace=False):
        source, truth = edges[int(i)]
        true_set = set(g.neighbors(source, "authored_by"))
        decoys = []
        while len(decoys) < candidates - 1:
            a = authors[int(rng.integers(len(authors)))]
            if a not in true_set and a not in decoys:
                decoys.append(a)
        cand = [truth] + decoys
        record = {
            "source_id": g.key_of(source),
            "relation": "authored_by",
            "candidate_ids": [g.key_of(c) for c in cand],
        }
        if with_truth:
            record["truth_id"] = g.key_of(truth)
        lines.append(json.dumps(record))
    path = tmp_path / ("tasks_truth.ndjson" if with_truth else "tasks.ndjson")
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def read_ndjson(path):
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def test_sample_subcommand(cli_graph, tmp_path):
    g, flags = cli_graph
    out = str(tmp_path / "anchors.ndjson")
    code = main(flags + [
        "sample", "--center", "p0", "--center", "a1",
        "--hops", "1", "--k", "3", "--budget", "4", "--seed", "0",
        "--out", out,
    ])
    assert code == 0
    records = read_ndjson(out)
    assert [r["center"] for r in records] == ["p0", "a1"]
    for record in records:
        scores = [a["score"] for a in record["anchors"]]
        assert len(scores) <= 3
        assert scores == sorted(scores, reverse=True)
        for anchor in record["anchors"]:
            g.id_of(anchor["id"])  # raw ids resolve


def test_prompt_subcommand(cli_graph, tmp_path):
    g, flags = cli_graph
    tasks = write_tasks(tmp_path, g, with_truth=False)
    out = str(tmp_path / "prompts.ndjson")
    code = main(flags + ["prompt", "--tasks", tasks, "--hops", "1", "--k", "2",
                         "--length-limit", "4", "--grouping", "sequential", "--out", out])
    assert code == 0
    records = read_ndjson(out)
    assert len(records) == 3
    for record in records:
        assert record["token_count"] <= 1024
        assert len(record["candidates"]) == 4
        assert record["text"].count("\n") == 1 + len(record["candidates"])  # q + src + cands


def test_prompt_over_budget_writes_an_error_record_and_exits_1(cli_graph, tmp_path):
    g, flags = cli_graph
    authors = [g.key_of(a) for a in g.nodes_of_type("author")]
    tasks = tmp_path / "tasks.ndjson"
    # twenty candidates cannot fit 64 tokens even without anchors; two can
    tasks.write_text("".join(
        json.dumps({"source_id": "p0", "relation": "authored_by", "candidate_ids": ids}) + "\n"
        for ids in (authors[:20], authors[:2])
    ))
    out = str(tmp_path / "prompts.ndjson")
    code = main(flags + ["prompt", "--tasks", str(tasks), "--hops", "1", "--k", "2",
                         "--length-limit", "20", "--grouping", "sequential",
                         "--token-budget", "64", "--out", out])
    assert code == 1
    failed, rendered = read_ndjson(out)
    assert failed["source"] == "p0" and "64" in failed["error"]
    assert rendered["candidates"] == authors[:2] and rendered["token_count"] <= 64


def test_score_subcommand(cli_graph, tmp_path):
    g, flags = cli_graph
    tasks = write_tasks(tmp_path, g, with_truth=False)
    prompts = str(tmp_path / "prompts.ndjson")
    main(flags + ["prompt", "--tasks", tasks, "--hops", "1", "--k", "2", "--out", prompts])
    out = str(tmp_path / "choices.ndjson")
    code = main(flags + [
        "score", "--prompts", prompts, "--backend", "fixed_index", "--fixed-index", "0",
        "--out", out,
    ])
    assert code == 0
    choices = read_ndjson(out)
    prompt_records = read_ndjson(prompts)
    for choice, prompt in zip(choices, prompt_records):
        assert choice["chosen"] == prompt["candidates"][0]
        assert choice["resolution"] == "exact_match"


def test_score_takes_candidate_texts_from_the_graph(tmp_path, keep_alive):
    # a candidate's own text contains the prompt's anchor separator
    g = HetGraph(
        [NodeType("paper", 0, "PA"), NodeType("author", 1, "AU")],
        [EdgeType("authored_by", "paper", "author")],
        [
            ("p0", "paper", "vision models survey"),
            ("x", "author", "deep nets is related with graphs"),
            ("y", "author", "deep nets for vision"),
        ],
        [("p0", "y", "authored_by")],
    )
    files = [str(tmp_path / name) for name in ("nodes.tsv", "edges.tsv", "schema.json")]
    save_graph(g, *files)
    flags = ["--nodes", files[0], "--edges", files[1], "--schema", files[2]]
    tasks = tmp_path / "tasks.ndjson"
    tasks.write_text(json.dumps(
        {"source_id": "p0", "relation": "authored_by", "candidate_ids": ["x", "y"]}
    ) + "\n")
    prompts = str(tmp_path / "prompts.ndjson")
    assert main(flags + ["prompt", "--tasks", str(tasks), "--hops", "1", "--out", prompts]) == 0
    alias_x = parse_prompt(read_ndjson(prompts)[0]["text"]).candidate_segments[0].split(": ")[0]

    out = str(tmp_path / "fixed.ndjson")
    assert main(flags + ["score", "--prompts", prompts, "--backend", "fixed_index", "--out", out]) == 0
    assert read_ndjson(out)[0]["raw_output"] == f"{alias_x}: deep nets is related with graphs"

    # the model names y by its full text; a text cut at the separator would
    # make x's "deep nets" a prefix of the answer and pick x
    keep_alive.replies = [(200, b'{"text": "deep nets for vision"}', {})]
    out = str(tmp_path / "http.ndjson")
    assert main(flags + [
        "score", "--prompts", prompts, "--backend", "http_llm",
        "--endpoint-url", keep_alive.url, "--model", "m", "--out", out,
    ]) == 0
    choice = read_ndjson(out)[0]
    assert (choice["chosen"], choice["resolution"]) == ("y", "exact_match")


def test_score_writes_an_error_record_when_the_scorer_fails_and_scores_the_next(
        cli_graph, tmp_path, keep_alive, capsys):
    g, flags = cli_graph
    tasks = write_tasks(tmp_path, g, n=2, with_truth=False)
    prompts = str(tmp_path / "prompts.ndjson")
    assert main(flags + ["prompt", "--tasks", tasks, "--hops", "1", "--k", "2",
                         "--length-limit", "4", "--grouping", "sequential",
                         "--out", prompts]) == 0
    first, second = read_ndjson(prompts)
    keep_alive.replies = [(400, b"unknown model", {})]
    out = str(tmp_path / "choices.ndjson")
    code = main(flags + [
        "score", "--prompts", prompts, "--backend", "http_llm",
        "--endpoint-url", keep_alive.url, "--model", "m", "--out", out,
    ])
    assert code == 1
    failed, scored = read_ndjson(out)
    assert failed == {"source": first["source"],
                      "error": "request rejected (400): unknown model"}
    assert (scored["source"], scored["chosen"]) == (second["source"], second["candidates"][0])
    assert len(keep_alive.seen) == 2
    assert "Traceback" not in capsys.readouterr().err


def test_score_writes_an_error_record_for_a_bad_prompt_record(cli_graph, tmp_path):
    g, flags = cli_graph
    tasks = write_tasks(tmp_path, g, n=1, with_truth=False)
    prompts = tmp_path / "prompts.ndjson"
    assert main(flags + ["prompt", "--tasks", tasks, "--hops", "1", "--length-limit", "4",
                         "--out", str(prompts)]) == 0
    record = read_ndjson(str(prompts))[0]
    bad = [{**record, "candidates": ["nobody", *record["candidates"][1:]]},
           {**record, "text": "one line"}]
    prompts.write_text("".join(json.dumps(r) + "\n" for r in [*bad, record]))
    out = str(tmp_path / "choices.ndjson")
    assert main(flags + ["score", "--prompts", str(prompts), "--backend", "fixed_index",
                         "--out", out]) == 1
    *failed, scored = read_ndjson(out)
    assert [sorted(r) for r in failed] == [["error", "source"]] * 2
    assert "nobody" in failed[0]["error"] and "candidate" in failed[1]["error"]
    assert scored["chosen"] == record["candidates"][0]


def test_predict_subcommand(cli_graph, tmp_path):
    g, flags = cli_graph
    tasks = write_tasks(tmp_path, g, with_truth=False)
    out = str(tmp_path / "traces.ndjson")
    code = main(flags + [
        "predict", "--tasks", tasks, "--backend", "lexical_overlap",
        "--hops", "1", "--k", "2", "--length-limit", "2", "--seed", "0",
        "--out", out,
    ])
    assert code == 0
    traces = read_ndjson(out)
    assert len(traces) == 3
    for trace in traces:
        assert trace["final"] in trace["candidates"]
        assert sorted(trace["ranking"]) == sorted(trace["candidates"])
        assert trace["scorer_calls"] == sum(len(r["sets"]) for r in trace["rounds"])


@pytest.mark.parametrize("grouping", ["sequential", "random_seeded"])
def test_prompt_writes_the_sets_of_predicts_first_round(cli_graph, tmp_path, grouping):
    g, flags = cli_graph
    tasks = write_tasks(tmp_path, g, candidates=7, with_truth=False)
    shared = ["--tasks", tasks, "--hops", "1", "--k", "2", "--length-limit", "3",
              "--grouping", grouping, "--seed", "5"]
    traces, prompts = str(tmp_path / "traces.ndjson"), str(tmp_path / "prompts.ndjson")
    assert main(flags + ["predict", *shared, "--backend", "lexical_overlap", "--out", traces]) == 0
    assert main(flags + ["prompt", *shared, "--out", prompts]) == 0
    bundles = read_ndjson(prompts)
    assert len(bundles) == 9  # 7 candidates -> 3 sets per task
    assert all(b["token_count"] <= 1024 for b in bundles)
    assert [(b["source"], b["candidates"]) for b in bundles] == [
        (t["source"], members) for t in read_ndjson(traces) for members in t["rounds"][0]["sets"]
    ]


def test_predict_builds_one_backend(cli_graph, tmp_path, monkeypatch, keep_alive):
    g, flags = cli_graph
    tasks = write_tasks(tmp_path, g, n=5, with_truth=False)
    loads = []
    real_load = scoring.ResponseCache._load

    def counting_load(self):
        loads.append(self.path)
        real_load(self)

    monkeypatch.setattr(scoring.ResponseCache, "_load", counting_load)
    cache = str(tmp_path / "cache.ndjson")
    out = str(tmp_path / "traces.ndjson")
    code = main(flags + [
        "predict", "--tasks", tasks, "--backend", "http_llm",
        "--endpoint-url", keep_alive.url, "--model", "m", "--cache", cache,
        "--hops", "1", "--k", "2", "--length-limit", "2", "--seed", "0",
        "--out", out,
    ])
    assert code == 0
    assert len(read_ndjson(out)) == 5
    assert loads == [cache]
    assert keep_alive.connections == 1  # one backend, one keep-alive connection


def test_predict_writes_the_aborted_trace_and_exits_1(cli_graph, tmp_path, keep_alive):
    g, flags = cli_graph
    tasks = write_tasks(tmp_path, g, n=2, with_truth=False)
    # the first task's second set is rejected; later calls name the first candidate
    keep_alive.replies = [(200, b'{"text": "a1"}', {}), (400, b"unknown model", {})]
    out = str(tmp_path / "traces.ndjson")
    code = main(flags + [
        "predict", "--tasks", tasks, "--backend", "http_llm",
        "--endpoint-url", keep_alive.url, "--model", "m",
        "--hops", "1", "--k", "2", "--length-limit", "2", "--grouping", "sequential",
        "--out", out,
    ])
    assert code == 1
    aborted, completed = read_ndjson(out)
    assert aborted["error"] == "set scoring failed: request rejected (400): unknown model"
    assert aborted["final"] is None and aborted["ranking"] == []
    assert aborted["rounds"] == [{"sets": [aborted["candidates"][:2], aborted["candidates"][2:]],
                                  "winners": [aborted["candidates"][0]]}]
    assert aborted["scorer_calls"] == 1
    assert "error" not in completed and completed["final"] == completed["candidates"][0]
    assert len(keep_alive.seen) == 2 + completed["scorer_calls"]


# a change that makes a valid task bad, and the error its record names; the
# error names nodes by raw key
BAD_TASKS = {
    "unknown id": (lambda t: {"candidate_ids": [*t["candidate_ids"], "no-such-author"]},
                   "'no-such-author'"),
    "wrong type": (lambda t: {"candidate_ids": [*t["candidate_ids"], "p1"]},
                   "candidate 'p1' has type 'paper', expected 'author'"),
    "duplicate candidate": (lambda t: {"candidate_ids": [*t["candidate_ids"],
                                                         t["candidate_ids"][0]]},
                            "candidates contain duplicates"),
    "unknown relation": (lambda t: {"relation": "cites"}, "'cites'"),
}
TASK_COMMANDS = {
    "predict": ["predict", "--backend", "lexical_overlap", "--length-limit", "2"],
    "prompt": ["prompt"],
}


def _run_tasks(flags, command, tmp_path, tasks, name):
    """Run ``command`` over the task records; return its exit code and output records."""
    path = tmp_path / f"{name}.ndjson"
    path.write_text("".join(json.dumps(t) + "\n" for t in tasks))
    out = str(tmp_path / f"{name}.out.ndjson")
    code = main(flags + [*TASK_COMMANDS[command], "--tasks", str(path),
                         "--hops", "1", "--k", "2", "--out", out])
    return code, read_ndjson(out)


@pytest.mark.parametrize("command, kind", [
    (command, kind) for command in TASK_COMMANDS for kind in BAD_TASKS
])
def test_a_bad_task_writes_one_error_record_and_the_next_task_runs(cli_graph, tmp_path,
                                                                   command, kind):
    g, flags = cli_graph
    first, second = read_ndjson(write_tasks(tmp_path, g, n=2, with_truth=False))
    change, error = BAD_TASKS[kind]
    code, records = _run_tasks(flags, command, tmp_path, [{**first, **change(first)}, second],
                               "bad_first")
    assert code == 1
    failed, *rest = records
    assert failed == {"source": first["source_id"], "error": error}
    assert rest == _run_tasks(flags, command, tmp_path, [second], "alone")[1]


def test_prompt_writes_no_set_of_a_task_whose_later_set_fails(cli_graph, tmp_path, monkeypatch):
    g, flags = cli_graph
    tasks = read_ndjson(write_tasks(tmp_path, g, n=2, with_truth=False))
    real_build = cli.build_prompt
    built = []

    def second_set_over_budget(*args):
        built.append(args)
        if len(built) == 2:
            raise BudgetUnsatisfiableError(100, 64)
        return real_build(*args)

    monkeypatch.setattr(cli, "build_prompt", second_set_over_budget)
    code, records = _run_tasks(flags, "prompt", tmp_path, tasks, "sets")
    assert code == 1
    failed, *rest = records
    assert failed == {"source": tasks[0]["source_id"],
                      "error": "prompt needs at least 100 tokens but the budget is 64"}
    assert [r["source"] for r in rest] == [tasks[1]["source_id"]] * 2


def test_gen_train_subcommand(cli_graph, tmp_path):
    g, flags = cli_graph
    out = str(tmp_path / "train.jsonl")
    code = main(flags + [
        "gen-train", "--relation", "authored_by", "--num", "8",
        "--candidates-per-example", "3", "--seed", "1",
        "--hops", "1", "--k", "2", "--audit",
        "--out", out,
    ])
    assert code == 0
    records = read_ndjson(out)
    assert len(records) == 8
    for record in records:
        assert {"input", "target", "meta"} <= set(record)
        assert record["meta"]["truth_position"] in (0, 1, 2)
        g.id_of(record["meta"]["source_id"])


def test_gen_train_split_keeps_only_that_splits_edges(cli_graph, tmp_path):
    g, flags = cli_graph
    papers = [g.key_of(p) for p in g.nodes_of_type("paper")]
    # the first ten papers fall in "train" (below 2015), the rest in "test"
    attrs = tmp_path / "years.tsv"
    attrs.write_text("".join(f"{key}\t{2010 if i < 10 else 2020}\n"
                             for i, key in enumerate(papers)))
    out = str(tmp_path / "train.jsonl")
    code = main(flags + [
        "gen-train", "--relation", "authored_by", "--num", "12", "--seed", "1",
        "--candidates-per-example", "3", "--hops", "1", "--k", "2",
        "--split", "train", "--split-boundaries", "2015,2016", "--attr-file", str(attrs),
        "--out", out,
    ])
    assert code == 0
    records = read_ndjson(out)
    assert len(records) == 12
    assert {record["meta"]["source_id"] for record in records} <= set(papers[:10])


def test_gen_train_audit_violation_exits_1(cli_graph, tmp_path, monkeypatch, caplog):
    _, flags = cli_graph

    def leaky(examples, g):
        return LeakageReport(examples_scanned=len(examples), violations=({"index": 0},))

    monkeypatch.setattr(cli, "leakage_audit", leaky)
    out = str(tmp_path / "train.jsonl")
    code = main(flags + [
        "gen-train", "--relation", "authored_by", "--num", "4", "--seed", "1",
        "--candidates-per-example", "3", "--hops", "1", "--k", "2", "--audit", "--out", out,
    ])
    assert code == 1
    assert "leakage audit found 1 violations" in caplog.text
    assert len(read_ndjson(out)) == 4  # written before the audit


def test_eval_subcommand_oracle(cli_graph, tmp_path, capsys):
    g, flags = cli_graph
    tasks = write_tasks(tmp_path, g, with_truth=True)
    out = str(tmp_path / "report.json")
    code = main(flags + [
        "eval", "--tasks", tasks, "--backend", "oracle_truth",
        "--hops", "1", "--k", "2", "--seeds", "0", "--out", out,
    ])
    assert code == 0
    report = read_json(out)
    assert report["hits_at_1"] == 1.0
    assert report["tasks"] == 3
    table = capsys.readouterr().err
    assert "Hits@1" in table


def test_eval_seed_is_the_seed_it_runs(cli_graph, tmp_path):
    g, flags = cli_graph
    tasks = write_tasks(tmp_path, g, with_truth=True)
    reports = []
    for seed_flags in (["--seed", "5"], ["--seeds", "5"]):
        out = tmp_path / "report.json"
        assert main(flags + [
            "eval", "--tasks", tasks, "--backend", "lexical_overlap",
            "--hops", "1", "--k", "2", *seed_flags, "--out", str(out),
        ]) == 0
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]
    assert json.loads(reports[0])["seeds"] == [5]


def test_eval_empty_task_file(cli_graph, tmp_path):
    _, flags = cli_graph
    empty = tmp_path / "empty.ndjson"
    empty.write_text("")
    out = str(tmp_path / "report.json")
    code = main(flags + ["eval", "--tasks", str(empty), "--out", out])
    assert code == 0
    report = read_json(out)
    assert report["tasks"] == 0


def test_eval_exits_1_when_every_task_fails(cli_graph, tmp_path):
    g, flags = cli_graph
    tasks = write_tasks(tmp_path, g, with_truth=True)
    # a loopback port that was bound and then closed refuses connections
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
    out = str(tmp_path / "report.json")
    code = main(flags + [
        "eval", "--tasks", tasks, "--backend", "http_llm",
        "--endpoint-url", f"http://127.0.0.1:{port}/complete", "--model", "m",
        "--max-retries", "1", "--hops", "1", "--k", "2", "--out", out,
    ])
    assert code == 1
    report = read_json(out)
    assert report["tasks"] == 3
    assert len(report["failures"]) == 3
    assert report["rows"] == []


def test_out_file_closed_when_handler_fails(cli_graph, tmp_path):
    _, flags = cli_graph
    out = str(tmp_path / "anchors.ndjson")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(flags + [
            "sample", "--center", "p0", "--center", "does-not-exist", "--out", out,
        ])
        gc.collect()
    assert code == 1
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]
    assert [r["center"] for r in read_ndjson(out)] == ["p0"]


def test_error_traceback_logged_at_debug(cli_graph, caplog):
    _, flags = cli_graph
    caplog.set_level(logging.DEBUG, logger="lpnl")
    code = main(flags + ["--log-level", "DEBUG", "sample", "--center", "does-not-exist"])
    assert code == 1
    errors = [r for r in caplog.records if r.levelno == logging.ERROR]
    assert len(errors) == 1 and "does-not-exist" in errors[0].getMessage()
    debug = [r for r in caplog.records if r.levelno == logging.DEBUG and r.exc_info]
    assert len(debug) == 1
    assert "Traceback" in caplog.text and "_cmd_sample" in caplog.text


def test_config_file_with_flag_override(cli_graph, tmp_path):
    g, flags = cli_graph
    nodes, edges, schema = flags[1], flags[3], flags[5]
    config = {
        "graph": {"nodes": nodes, "edges": edges, "schema": schema},
        "sampler": {"hops": 1, "anchor_k": 2, "layer_budget": 4},
        "scorer": {"kind": "fixed_index", "fixed_index": 1},
        "dnc": {"length_limit": 2},
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    tasks = write_tasks(tmp_path, g, with_truth=True)
    out = str(tmp_path / "report.json")
    code = main(["--config", str(cfg_path), "eval", "--tasks", tasks, "--out", out])
    assert code == 0
    report = read_json(out)
    assert report["tasks"] == 3
    # flag overrides the config's scorer kind
    out2 = str(tmp_path / "report2.json")
    code = main([
        "--config", str(cfg_path), "eval", "--tasks", tasks,
        "--backend", "oracle_truth", "--out", out2,
    ])
    assert code == 0
    assert read_json(out2)["hits_at_1"] == 1.0


def test_config_truth_pairs_take_raw_ids(cli_graph, tmp_path):
    g, flags = cli_graph
    tasks = write_tasks(tmp_path, g, candidates=6, with_truth=True)
    records = read_ndjson(tasks)
    pairs = [[r["source_id"], r["truth_id"]] for r in records]
    cfg_path = tmp_path / "config.json"
    out = str(tmp_path / "traces.ndjson")
    argv = flags + ["--config", str(cfg_path), "predict", "--tasks", tasks,
                    "--hops", "1", "--k", "2", "--length-limit", "2", "--out", out]
    cfg_path.write_text(json.dumps({"scorer": {"kind": "oracle_truth", "truth_pairs": pairs}}))
    assert main(argv) == 0
    assert [t["final"] for t in read_ndjson(out)] == [r["truth_id"] for r in records]
    # an id the graph lacks fails like any bad config value
    pairs.append([records[0]["source_id"], "no-such-author"])
    cfg_path.write_text(json.dumps({"scorer": {"kind": "oracle_truth", "truth_pairs": pairs}}))
    assert main(argv) == 1


def test_missing_graph_flags_is_usage_error(tmp_path):
    tasks = tmp_path / "t.ndjson"
    tasks.write_text("")
    with pytest.raises(SystemExit):
        main(["eval", "--tasks", str(tasks)])


def test_unknown_node_id_reports_error(cli_graph, tmp_path):
    _, flags = cli_graph
    code = main(flags + ["sample", "--center", "does-not-exist"])
    assert code == 1


def test_module_entrypoint_subprocess(cli_graph, tmp_path):
    g, flags = cli_graph
    tasks = write_tasks(tmp_path, g, with_truth=True)
    out = str(tmp_path / "report.json")
    result = subprocess.run(
        [sys.executable, "-m", "lpnl", *flags,
         "eval", "--tasks", tasks, "--backend", "oracle_truth",
         "--hops", "1", "--k", "2", "--out", out],
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert read_json(out)["hits_at_1"] == 1.0
    assert "Hits@1" in result.stderr
