"""Correctness checks computed by the benchmark itself.

Each check returns a list of failure messages (empty when it holds). None
of them trusts the program's own bookkeeping: tournament shapes come
from the ``ceil(n / L)`` chain, metrics from the rows' ranks, PPR from a
dense solve, and the corpus from files parsed here.
"""

from __future__ import annotations

import json
import math
import os
import re
from typing import Iterable, Sequence

import numpy as np

# failure messages kept per check; the rest are counted
MAX_REPORTED = 5


def _cap(failures: list[str]) -> list[str]:
    if len(failures) > MAX_REPORTED:
        return failures[:MAX_REPORTED] + [f"... and {len(failures) - MAX_REPORTED} more"]
    return failures


def tournament_chain(n: int, length_limit: int) -> tuple[int, int]:
    """(scorer calls, rounds) for n candidates in sets of at most L."""
    calls = rounds = 0
    while n > 1:
        n = math.ceil(n / length_limit)
        calls += n
        rounds += 1
    return calls, rounds


def check_trace(trace, length_limit: int) -> list[str]:
    """Shape of one completed tournament: chain, sets, winners, ranking."""
    out: list[str] = []
    where = f"task with source {trace.source}"
    calls, rounds = tournament_chain(len(trace.candidates), length_limit)
    if trace.scorer_calls != calls or len(trace.rounds) != rounds:
        out.append(
            f"{where}: {trace.scorer_calls} calls in {len(trace.rounds)} rounds, "
            f"expected {calls} in {rounds}"
        )
    pool = list(trace.candidates)
    for index, rnd in enumerate(trace.rounds, start=1):
        members = [c for s in rnd.sets for c in s]
        sizes = [len(s) for s in rnd.sets]
        if sorted(members) != sorted(pool):
            out.append(f"{where}: round {index} sets do not partition its pool")
        if len(rnd.sets) != math.ceil(len(pool) / length_limit):
            out.append(f"{where}: round {index} has {len(rnd.sets)} sets for {len(pool)} entrants")
        if sizes and (max(sizes) > length_limit or max(sizes) - min(sizes) > 1):
            out.append(f"{where}: round {index} set sizes {sizes} unbalanced or over {length_limit}")
        if len(rnd.winners) != len(rnd.sets) or any(
            w not in s for s, w in zip(rnd.sets, rnd.winners)
        ):
            out.append(f"{where}: round {index} has a winner outside its set")
        pool = list(rnd.winners)
    if pool != [trace.final]:
        out.append(f"{where}: final {trace.final} is not the last round's single winner")
    ranking = list(trace.ranking)
    if sorted(ranking) != sorted(trace.candidates) or len(set(ranking)) != len(ranking):
        out.append(f"{where}: ranking is not a permutation of the candidates")
    elif ranking[0] != trace.final:
        out.append(f"{where}: ranking starts with {ranking[0]}, not the winner {trace.final}")
    return out


def check_report(report, tasks: Sequence, traces: dict, length_limit: int, key_of) -> list[str]:
    """Recompute NDCG, MRR and Hits@1 from each row's rank; tie rows to traces."""
    out: list[str] = []
    rows = report.rows
    if not rows:
        return ["report has no rows"]
    calls, _ = tournament_chain(len(tasks[0].candidate_ids), length_limit)
    ranks = []
    for row in rows:
        task = tasks[row["task"]]
        trace = traces.get((task.source_id, tuple(task.candidate_ids)))
        rank = row["rank"]
        ranks.append(rank)
        if trace is None:
            out.append(f"row {row['task']}: no trace recorded for its task")
            continue
        true_rank = list(trace.ranking).index(task.truth_id) + 1
        if rank != true_rank or row["predicted"] != key_of(trace.final):
            out.append(f"row {row['task']}: rank {rank}, trace gives {true_rank}")
        if row["scorer_calls"] != calls:
            out.append(f"row {row['task']}: {row['scorer_calls']} scorer calls, expected {calls}")
    expected = {
        "ndcg": float(np.mean([1.0 / math.log2(r + 1) for r in ranks])),
        "mrr": float(np.mean([1.0 / r for r in ranks])),
        "hits_at_1": float(np.mean([1.0 if r == 1 else 0.0 for r in ranks])),
    }
    for name, value in expected.items():
        if abs(getattr(report, name) - value) > 1e-12:
            out.append(f"report {name}={getattr(report, name)!r}, rows give {value!r}")
    if not report.hits_at_1 <= report.mrr <= report.ndcg:
        out.append(f"Hits@1 <= MRR <= NDCG fails: {report.hits_at_1}, {report.mrr}, {report.ndcg}")
    return out


def check_token_counts(pairs: Iterable[tuple[int, int]], budget: int) -> list[str]:
    """(reported count, ceil(len/4) recomputed) pairs agree and fit the budget."""
    out = [
        f"prompt reports {count} tokens, text gives {recomputed}, budget {budget}"
        for count, recomputed in pairs
        if count != recomputed or recomputed > budget
    ]
    return _cap(out)


def dense_ppr(sub, center: int, alpha: float) -> dict[int, float]:
    """PPR on the sampled subgraph by one dense linear solve.

    Edges walk both ways, parallel edges count once each, and a node
    without subgraph edges sends its mass back to the center.
    """
    nodes = list(sub.nodes)
    index = {v: i for i, v in enumerate(nodes)}
    n = len(nodes)
    adj = np.zeros((n, n))
    for u, v, _ in sub.induced_edges:
        adj[index[v], index[u]] += 1.0
        adj[index[u], index[v]] += 1.0
    degree = adj.sum(axis=0)
    walk = np.divide(adj, degree, out=np.zeros_like(adj), where=degree > 0)
    walk[index[center], degree == 0] = 1.0
    e = np.zeros(n)
    e[index[center]] = 1.0
    pi = alpha * np.linalg.solve(np.eye(n) - (1.0 - alpha) * walk, e)
    return {v: float(pi[index[v]]) for v in nodes}


def check_ppr(g, centers: Sequence[int], sampler_cfg) -> list[str]:
    """ppr_exact matches the dense solve; ppr_approx is within its push bound."""
    from lpnl import ppr_approx, ppr_exact, sample_subgraph

    out: list[str] = []
    for center in centers:
        sub = sample_subgraph(g, center, sampler_cfg)
        oracle = dense_ppr(sub, center, sampler_cfg.alpha)
        exact = ppr_exact(sub, center, sampler_cfg.alpha)
        approx = ppr_approx(sub, center, sampler_cfg)
        if set(exact) != set(oracle) or set(approx) != set(oracle):
            out.append(f"center {center}: PPR node sets differ from the subgraph's")
            continue
        worst = max(abs(exact[v] - oracle[v]) for v in oracle)
        if worst > 1e-8:
            out.append(f"center {center}: ppr_exact is {worst:.3g} from the dense solve")
        degree = {v: 0 for v in oracle}
        for u, v, _ in sub.induced_edges:
            degree[u] += 1
            degree[v] += 1
        tol = sampler_cfg.push_tolerance
        over = [v for v in oracle if abs(approx[v] - oracle[v]) > tol * max(degree[v], 1) + 1e-12]
        if over:
            out.append(f"center {center}: ppr_approx outside push_tolerance*deg at {len(over)} nodes")
    return out


def check_http_answers(stub_log: Sequence[dict], cache_records: Sequence[dict], text_of) -> list[str]:
    """Every cached answer resolved on the rung the stub aimed at, never the
    fallback; alias and exact-text answers chose the intended candidate."""
    rung = {"alias": "alias_match", "exact": "exact_match", "fuzzy": "fuzzy_match"}
    sent = {entry["raw"]: entry for entry in stub_log}
    out: list[str] = []
    for record in cache_records:
        entry = sent.get(record["raw_output"])
        if entry is None:
            out.append(f"cached answer {record['raw_output'][:40]!r} was never sent by the stub")
            continue
        if record["resolution"] != rung[entry["form"]]:
            out.append(f"{entry['form']} answer resolved by {record['resolution']}")
        elif entry["form"] != "fuzzy" and text_of(record["chosen_node_id"]) != entry["intended_text"]:
            out.append(f"{entry['form']} answer {entry['raw'][:40]!r} chose another candidate")
    return _cap(out)


def check_audit(path: str, report, texts: dict) -> tuple[list[str], list[str]]:
    """(failures, leaks): ``leakage_audit``'s report against a search of our own.

    The audit must have scanned every example and flagged exactly those
    whose source line renders the truth's text as ``: <text> [<tag>]``.
    A flagged example is not a failure: ``check_corpus`` already fails any
    source line that names the truth node itself, so a leak here is another
    node with the truth's text, which ``generate_examples`` does not
    withhold. That happens on some seeds only; ``leaks`` names them.
    """
    leaks: dict[int, str] = {}
    count = 0
    with open(path, encoding="utf-8") as fh:
        for count, line in enumerate(fh, start=1):
            record = json.loads(line)
            lines = record["input"].split("\n")
            meta = record["meta"]
            alias = record["target"].split(": ", 1)[0]
            segment = lines[2 + meta["truth_position"]]
            # the candidate line renders the truth as "<alias>: <text> [<tag>]"
            needle = segment[len(alias):segment.index("]", len(alias) + len(texts[meta["truth_id"]])) + 1]
            if needle in lines[1]:
                twin = lines[1][:lines[1].index(needle)].rsplit(" ", 1)[-1]
                leaks[count - 1] = (f"{os.path.basename(path)} example {count}: the source line "
                                    f"renders {twin} with the text of the truth {meta['truth_id']}")
    out = []
    flagged = sorted(v["index"] for v in report.violations)
    if flagged != sorted(leaks):
        out.append(f"leakage_audit of {os.path.basename(path)} flags examples "
                   f"{[i + 1 for i in flagged]}, the source lines give {[i + 1 for i in sorted(leaks)]}")
    if report.examples_scanned != count:
        out.append(f"audit of {os.path.basename(path)} scanned {report.examples_scanned} of {count}")
    return out, list(leaks.values())


def read_cache(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _unescape(text: str) -> str:
    out, i = [], 0
    while i < len(text):
        if text[i] == "\\" and i + 1 < len(text) and text[i + 1] in "tn\\":
            out.append({"t": "\t", "n": "\n", "\\": "\\"}[text[i + 1]])
            i += 2
        else:
            out.append(text[i])
            i += 1
    return "".join(out)


def read_graph_tsv(directory: str, relation: str) -> tuple[dict, dict, set]:
    """(type by key, text by key, (source, target) keys of ``relation``) from the TSV files."""
    types: dict[str, str] = {}
    texts: dict[str, str] = {}
    with open(os.path.join(directory, "nodes.tsv"), encoding="utf-8") as fh:
        for line in fh:
            key, type_name, text = line.rstrip("\n").split("\t")
            types[key] = type_name
            texts[key] = _unescape(text)
    edges: set[tuple[str, str]] = set()
    with open(os.path.join(directory, "edges.tsv"), encoding="utf-8") as fh:
        for line in fh:
            src, dst, name = line.rstrip("\n").split("\t")
            if name == relation:
                edges.add((src, dst))
    return types, texts, edges


def check_corpus(
    path: str, types: dict, texts: dict, edges: set, target_type: str,
    candidates: int, budget: int,
) -> tuple[int, list[str]]:
    """(examples read, failures) for one written corpus file."""
    out: list[str] = []
    count = 0
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            record = json.loads(line)
            count += 1
            meta = record["meta"]
            source, truth, negatives = meta["source_id"], meta["truth_id"], meta["negative_ids"]
            position = meta["truth_position"]
            where = f"{os.path.basename(path)} example {count}"
            if (source, truth) not in edges:
                out.append(f"{where}: ({source}, {truth}) is not an edge")
            if len(negatives) != candidates - 1 or len(set(negatives) | {truth}) != candidates:
                out.append(f"{where}: negatives {negatives} are not {candidates - 1} distinct non-truths")
            for n in negatives:
                if types.get(n) != target_type or (source, n) in edges:
                    out.append(f"{where}: negative {n} is a neighbor or not a {target_type}")
            text = record["input"]
            lines = text.split("\n")
            if len(lines) != 2 + candidates or not 0 <= position < candidates:
                out.append(f"{where}: {len(lines) - 2} candidate lines, truth at {position}")
                continue
            segment = lines[2 + position]
            alias = segment.split(": ", 1)[0]
            if not segment.startswith(f"{alias}: {texts[truth]} [") or not record["target"].startswith(f"{alias}: "):
                out.append(f"{where}: candidate {position} is not the truth {truth}")
            # a node keeps one alias per prompt, so the truth named among the
            # source's anchors would carry its candidate alias there
            if re.search(rf"(?:^|, | is related with ){re.escape(alias)}: ", lines[1]):
                out.append(f"{where}: the source description names the truth {truth}")
            if math.ceil(len(text) / 4) > budget:
                out.append(f"{where}: {math.ceil(len(text) / 4)} tokens over budget {budget}")
    return count, _cap(out)
