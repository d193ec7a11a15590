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
from lpnl import scoring
from lpnl.cli import main
from lpnl.graph import EdgeType, HetGraph, NodeType, save_graph
from lpnl.prompts import parse_prompt


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
    code = main(flags + ["prompt", "--tasks", tasks, "--hops", "1", "--k", "2", "--out", out])
    assert code == 0
    records = read_ndjson(out)
    assert len(records) == 3
    for record in records:
        assert record["token_count"] <= 1024
        assert len(record["candidates"]) == 4
        assert record["text"].count("\n") == 1 + len(record["candidates"])  # q + src + cands


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


def test_score_takes_candidate_texts_from_the_graph(tmp_path, monkeypatch):
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
    monkeypatch.setattr(scoring.HttpLlmScorer, "_complete", lambda self, text: "deep nets for vision")
    out = str(tmp_path / "http.ndjson")
    assert main(flags + [
        "score", "--prompts", prompts, "--backend", "http_llm",
        "--endpoint-url", "http://127.0.0.1:9/complete", "--model", "m", "--out", out,
    ]) == 0
    choice = read_ndjson(out)[0]
    assert (choice["chosen"], choice["resolution"]) == ("y", "exact_match")


def test_predict_subcommand_and_dry_run(cli_graph, tmp_path):
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

    dry = str(tmp_path / "dry.ndjson")
    code = main(flags + [
        "predict", "--tasks", tasks, "--dry-run",
        "--hops", "1", "--k", "2", "--length-limit", "2", "--seed", "0",
        "--out", dry,
    ])
    assert code == 0
    bundles = read_ndjson(dry)
    assert len(bundles) == 6  # 4 candidates -> 2 sets per task
    assert all(b["token_count"] <= 1024 for b in bundles)


def test_predict_builds_one_backend(cli_graph, tmp_path, monkeypatch):
    g, flags = cli_graph
    tasks = write_tasks(tmp_path, g, n=5, with_truth=False)
    loads = []
    real_load = scoring.ResponseCache._load

    def counting_load(self):
        loads.append(self.path)
        real_load(self)

    monkeypatch.setattr(scoring.ResponseCache, "_load", counting_load)
    # answer with the first candidate's alias instead of calling a model
    monkeypatch.setattr(
        scoring.HttpLlmScorer, "_complete",
        lambda self, text: parse_prompt(text).candidate_segments[0].split(": ", 1)[0],
    )
    cache = str(tmp_path / "cache.ndjson")
    out = str(tmp_path / "traces.ndjson")
    code = main(flags + [
        "predict", "--tasks", tasks, "--backend", "http_llm",
        "--endpoint-url", "http://127.0.0.1:9/complete", "--model", "m", "--cache", cache,
        "--hops", "1", "--k", "2", "--length-limit", "2", "--seed", "0",
        "--out", out,
    ])
    assert code == 0
    assert len(read_ndjson(out)) == 5
    assert loads == [cache]


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


def test_eval_subcommand_oracle(cli_graph, tmp_path, capsys):
    g, flags = cli_graph
    tasks = write_tasks(tmp_path, g, with_truth=True)
    out = str(tmp_path / "report.json")
    code = main(flags + [
        "eval", "--tasks", tasks, "--backend", "oracle_truth",
        "--hops", "1", "--k", "2", "--seeds", "0", "--out", out,
    ])
    assert code == 0
    report = json.loads(open(out).read())
    assert report["hits_at_1"] == 1.0
    assert report["tasks"] == 3
    table = capsys.readouterr().err
    assert "Hits@1" in table


def test_eval_empty_task_file(cli_graph, tmp_path):
    _, flags = cli_graph
    empty = tmp_path / "empty.ndjson"
    empty.write_text("")
    out = str(tmp_path / "report.json")
    code = main(flags + ["eval", "--tasks", str(empty), "--out", out])
    assert code == 0
    report = json.loads(open(out).read())
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
    report = json.loads(open(out).read())
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
    report = json.loads(open(out).read())
    assert report["tasks"] == 3
    # flag overrides the config's scorer kind
    out2 = str(tmp_path / "report2.json")
    code = main([
        "--config", str(cfg_path), "eval", "--tasks", tasks,
        "--backend", "oracle_truth", "--out", out2,
    ])
    assert code == 0
    assert json.loads(open(out2).read())["hits_at_1"] == 1.0


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
    assert json.loads(open(out).read())["hits_at_1"] == 1.0
    assert "Hits@1" in result.stderr
