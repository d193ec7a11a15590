"""lpnl benchmark: offline eval, loopback-HTTP eval with cache replay, and
corpus generation, each driven through the public API.

    python3 bench/run.py --workload eval-lexical-10k --seed 0 --seconds 15 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 15

Inputs are generated from ``--seed`` in a child process, written as TSV,
and loaded back with ``load_graph``. A run sets up several times
(``setup_s`` is the median), then runs whole rounds of one workload until
``--seconds`` of round time have passed, then checks every output it
kept against computations of its own (``checks.py``).

``--trace 0`` prints the end-to-end metrics. The only wrapper in that run
is one ``perf_counter`` pair around each ``predict`` call, which also
keeps the returned trace for the checks. ``--trace 1`` runs rounds
untraced for half the time, then the same rounds again with every layer
wrapped (``spans.py``), and prints the per-layer metrics with the tracing
overhead; spans are written to ``.bench_out/``.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``. ``correct`` is false when any
check fails, and each failed check is printed to standard error. The exit
code is 0 whenever a result is printed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import urllib.request

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORK_ROOT = os.path.join(ROOT, ".bench_work")
OUT_ROOT = os.path.join(ROOT, ".bench_out")

WORKLOADS = ("eval-lexical-10k", "eval-http-loopback", "eval-http-replay", "gen-train-100k")
E2E_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "tasks_per_s": "1/s",
    "prompts_per_s": "1/s",
    "task_latency_p50_ms": "ms",
}

LENGTH_LIMIT = 5
TOKEN_BUDGET = 1024
MAX_IN_FLIGHT = 2  # = nproc of the reference machine
EVAL_TOPICS, EVAL_TASKS, EVAL_BATCH = 40, 600, 20
REPLAY_BATCHES = 4  # batches cached by the cold warm-up, then replayed in turn
GEN_TOPICS, GEN_BATCH, GEN_CANDIDATES = 400, 60, 5
# lexical_overlap must beat a position-blind pick (1/30) by a wide margin
MIN_LEXICAL_HITS1 = 0.25
PPR_CENTERS = 5
TOKEN_SAMPLE_TASKS = 3


class LoopbackStub:
    """The loopback endpoint (``stub.py``) in its own process."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(BENCH, "stub.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        self.port = int(self.proc.stdout.readline())
        self.url = f"http://127.0.0.1:{self.port}/complete"

    def stats(self) -> dict:
        """What the stub saw since the previous call."""
        with urllib.request.urlopen(f"http://127.0.0.1:{self.port}/stats", timeout=30) as resp:
            return json.loads(resp.read())

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


class Workload:
    topics = 0
    tasks = 0
    setup_repeats = 5

    def __init__(self, name: str, work: str, seed: int):
        self.name, self.work, self.seed = name, work, seed
        self.latencies: list[float] = []

    def graph_files(self) -> tuple[str, str, str]:
        return tuple(os.path.join(self.work, f) for f in ("nodes.tsv", "edges.tsv", "schema.json"))

    def start(self) -> None:
        pass

    def close(self) -> None:
        pass

    def setup(self):
        raise NotImplementedError

    def prepare(self) -> None:
        pass

    def run_round(self, r: int) -> tuple[int, float]:
        raise NotImplementedError

    def failed(self) -> int:
        """Operations of the measured rounds that raised inside the program."""
        return 0

    def stub_seen(self, rounds: int) -> dict:
        """Requests and peak in flight at the stub over the last ``rounds`` rounds."""
        return {}

    def e2e(self, ops: int, busy: float) -> dict:
        raise NotImplementedError

    def check(self, tracer) -> list[str]:
        raise NotImplementedError


class EvalWorkload(Workload):
    """``run_benchmark`` over 30-candidate author-attribution tasks."""

    topics, tasks = EVAL_TOPICS, EVAL_TASKS

    def __init__(self, name: str, work: str, seed: int):
        super().__init__(name, work, seed)
        import lpnl

        self.mode = {"eval-lexical-10k": "lexical", "eval-http-loopback": "cold",
                     "eval-http-replay": "replay"}[name]
        self.sampler = lpnl.SamplerConfig(hops=2, anchor_k=50)
        self.prompt = lpnl.PromptConfig(token_budget=TOKEN_BUDGET)
        self.dnc = lpnl.DncConfig(length_limit=LENGTH_LIMIT)
        self.stub: LoopbackStub | None = None
        self.traces: dict[tuple, object] = {}
        self.rounds: list[dict] = []  # per round: batch, report, and for HTTP cache path + stub stats
        self.cold_rows: dict[int, list] = {}  # batch -> rows of its cold pass
        self.files = 0

    def start(self) -> None:
        if self.mode != "lexical":
            self.stub = LoopbackStub()

    def close(self) -> None:
        if self.stub is not None:
            self.stub.close()

    def scorer_cfg(self, cache_path: str | None = None):
        import lpnl

        if self.mode == "lexical":
            return lpnl.ScorerBackendConfig(kind="lexical_overlap", max_in_flight=MAX_IN_FLIGHT)
        return lpnl.ScorerBackendConfig(
            kind="http_llm", endpoint_url=self.stub.url, model_name="loopback-stub",
            max_in_flight=MAX_IN_FLIGHT, cache_path=cache_path,
        )

    def _cache_path(self) -> str:
        self.files += 1
        return os.path.join(self.work, f"cache-{self.files}.jsonl")

    def setup(self):
        import lpnl

        g = lpnl.load_graph(*self.graph_files())
        lpnl.make_scorer(self.scorer_cfg(self._cache_path() if self.stub else None))
        return g

    def prepare(self) -> None:
        import lpnl

        tasks = lpnl.read_tasks(os.path.join(self.work, "tasks.ndjson"), self.g)
        self.batches = [tasks[i : i + EVAL_BATCH] for i in range(0, len(tasks), EVAL_BATCH)]
        self._install_timer()
        if self.mode == "replay":
            self.replay_cache = {}
            for b in range(REPLAY_BATCHES):
                self.replay_cache[b] = self._cache_path()
                self._round(b, self.replay_cache[b], cold=True)
            self.latencies.clear()

    def _install_timer(self) -> None:
        """The one wrapper of the untraced run: wall time of each ``predict``."""
        import lpnl.tournament

        original = lpnl.tournament.predict
        latencies, traces = self.latencies, self.traces

        def timed_predict(*args, **kwargs):
            start = time.perf_counter()
            trace = original(*args, **kwargs)
            latencies.append(time.perf_counter() - start)
            traces[(trace.source, trace.candidates)] = trace
            return trace

        for name, mod in list(sys.modules.items()):
            if name == "lpnl" or name.startswith("lpnl."):
                if getattr(mod, "predict", None) is original:
                    mod.predict = timed_predict

    def _round(self, batch: int, cache_path: str | None, cold: bool) -> tuple[int, float]:
        import lpnl

        tasks = self.batches[batch]
        start = time.perf_counter()
        report = lpnl.run_benchmark(
            tasks, self.g, self.sampler, self.prompt, self.scorer_cfg(cache_path), self.dnc,
            seeds=(self.seed,),
        )
        elapsed = time.perf_counter() - start
        entry = {"batch": batch, "report": report, "cache": cache_path, "cold": cold}
        if self.stub is not None:
            entry["stats"] = self.stub.stats()
        if cold and self.mode == "replay":
            self.cold_rows[batch] = report.rows
        self.rounds.append(entry)
        return len(tasks), elapsed

    def run_round(self, r: int) -> tuple[int, float]:
        if self.mode == "lexical":
            return self._round(r % len(self.batches), None, cold=False)
        if self.mode == "cold":
            return self._round(r % len(self.batches), self._cache_path(), cold=True)
        batch = r % REPLAY_BATCHES
        return self._round(batch, self.replay_cache[batch], cold=False)

    def measured_rounds(self) -> list[dict]:
        return [e for e in self.rounds if not (self.mode == "replay" and e["cold"])]

    def failed(self) -> int:
        return sum(len(e["report"].failures) for e in self.measured_rounds())

    def stub_seen(self, rounds: int) -> dict:
        if self.stub is None:
            return {}
        stats = [e["stats"] for e in self.rounds[-rounds:]]
        return {"requests": sum(s["requests"] for s in stats),
                "in_flight_peak": max(s["in_flight_peak"] for s in stats)}

    def e2e(self, ops: int, busy: float) -> dict:
        prompts = sum(row["scorer_calls"] for e in self.measured_rounds() for row in e["report"].rows)
        return {"tasks_per_s": ops / busy, "prompts_per_s": prompts / busy,
                "task_latency_p50_ms": statistics.median(self.latencies) * 1000.0}

    def check(self, tracer) -> list[str]:
        import checks

        out: list[str] = []
        for trace in self.traces.values():
            out += checks.check_trace(trace, LENGTH_LIMIT)
        for e in self.rounds:
            out += checks.check_report(e["report"], self.batches[e["batch"]], self.traces,
                                       LENGTH_LIMIT, self.g.key_of)
        if self.mode == "lexical":
            rows = [row for e in self.rounds for row in e["report"].rows]
            hits = statistics.fmean(row["hits_at_1"] for row in rows)
            if hits < MIN_LEXICAL_HITS1:
                out.append(f"lexical_overlap Hits@1 {hits:.3f} is below {MIN_LEXICAL_HITS1}")
        if tracer is not None:
            out += checks.check_token_counts(tracer.prompt_tokens, TOKEN_BUDGET)
        out += checks.check_token_counts(self._rerendered_token_counts(), TOKEN_BUDGET)
        centers = [t.source_id for t in self.batches[0][:PPR_CENTERS]]
        out += checks.check_ppr(self.g, centers, self.sampler.with_seed(self.seed))
        if self.stub is not None:
            out += self._check_http()
        return out

    def _rerendered_token_counts(self) -> list[tuple[int, int]]:
        """Render again every prompt of a few tasks' tournaments, with the
        truth edge masked as ``run_benchmark`` masks it."""
        import lpnl

        sampler = self.sampler.with_seed(self.seed)
        pairs = []
        for task in self.batches[0][:TOKEN_SAMPLE_TASKS]:
            trace = self.traces[(task.source_id, tuple(task.candidate_ids))]
            mask = lpnl.EdgeMask([(task.source_id, task.truth_id, task.relation),
                                  (task.truth_id, task.source_id, task.relation)])
            anchors = {v: lpnl.top_k_anchors(self.g, v, sampler, mask)
                       for v in (task.source_id, *task.candidate_ids)}
            for rnd in trace.rounds:
                for members in rnd.sets:
                    bundle = lpnl.build_prompt(task.source_id, task.relation, members, anchors,
                                               self.g, self.prompt)
                    pairs.append((bundle.token_count, math.ceil(len(bundle.text) / 4)))
        return pairs

    def _check_http(self) -> list[str]:
        import checks

        out: list[str] = []
        resolutions: dict[str, int] = {}
        for e in self.rounds:
            stats, report = e["stats"], e["report"]
            if stats["in_flight_peak"] > MAX_IN_FLIGHT:
                out.append(f"stub saw {stats['in_flight_peak']} requests in flight, limit {MAX_IN_FLIGHT}")
            if stats["max_prompt_tokens"] > TOKEN_BUDGET:
                out.append(f"stub got a prompt of {stats['max_prompt_tokens']} tokens")
            if not e["cold"]:
                if stats["requests"]:
                    out.append(f"replay of batch {e['batch']} sent {stats['requests']} requests")
                keep = lambda rows: [(r["task"], r["predicted"], r["rank"]) for r in rows]
                if keep(report.rows) != keep(self.cold_rows[e["batch"]]):
                    out.append(f"replay of batch {e['batch']} predicted differently from its cold pass")
                continue
            calls = sum(row["scorer_calls"] for row in report.rows)
            if stats["requests"] != calls:
                out.append(f"cold pass sent {stats['requests']} requests for {calls} scorer calls")
            records = checks.read_cache(e["cache"])
            out += checks.check_http_answers(stats["log"], records, self.g.text)
            for record in records:
                resolutions[record["resolution"]] = resolutions.get(record["resolution"], 0) + 1
        missing = {"alias_match", "exact_match", "fuzzy_match"} - set(resolutions)
        if missing or resolutions.get("fallback"):
            out.append(f"resolution rungs reached: {resolutions}")
        return out


class GenWorkload(Workload):
    """``generate_examples`` on the 10^5-node graph, written and audited."""

    topics = GEN_TOPICS
    setup_repeats = 3

    def __init__(self, name: str, work: str, seed: int):
        super().__init__(name, work, seed)
        import lpnl

        self.sampler = lpnl.SamplerConfig(hops=3, ppr_mode="approximate_push")
        self.prompt = lpnl.PromptConfig(token_budget=TOKEN_BUDGET)
        self.corpora: dict[str, object] = {}  # path -> leakage report of its last write

    def setup(self):
        import lpnl

        return lpnl.load_graph(*self.graph_files())

    def run_round(self, r: int) -> tuple[int, float]:
        import lpnl

        cfg = lpnl.DatagenConfig(
            relation="authored_by", num_examples=GEN_BATCH,
            candidates_per_example=GEN_CANDIDATES, negative_policy="shared_neighbor",
            rng_seed=self.seed * 1000 + r,
        )
        path = os.path.join(self.work, f"corpus-{r}.jsonl")
        start = time.perf_counter()
        examples = list(lpnl.generate_examples(self.g, cfg, self.sampler, self.prompt))
        lpnl.write_examples(path, examples, self.g)
        self.corpora[path] = lpnl.leakage_audit(path, self.g)
        elapsed = time.perf_counter() - start
        # per example, averaged over the round: a single example (~15 ms) is
        # short enough to fall wholly inside one of the host's fast or slow
        # stretches, which makes the median of single examples jump
        self.latencies.append(elapsed / len(examples))
        return len(examples), elapsed

    def e2e(self, ops: int, busy: float) -> dict:
        # every workload reports every end-to-end metric; here they all follow
        # tasks_per_s: one prompt is rendered per example, and the latency
        # is the median round time per example
        return {"tasks_per_s": ops / busy, "prompts_per_s": ops / busy,
                "task_latency_p50_ms": statistics.median(self.latencies) * 1000.0}

    def check(self, tracer) -> list[str]:
        import checks

        out: list[str] = []
        types, texts, edges = checks.read_graph_tsv(self.work, "authored_by")
        for path, audit in sorted(self.corpora.items()):
            count, failures = checks.check_corpus(path, types, texts, edges, "author",
                                                  GEN_CANDIDATES, TOKEN_BUDGET)
            out += failures
            if count != GEN_BATCH:
                out.append(f"{os.path.basename(path)} holds {count} examples, expected {GEN_BATCH}")
            failures, leaks = checks.check_audit(path, audit, texts)
            out += failures
            for leak in leaks:
                print(f"LEAK (not a failure, see bench/README.md): {leak}", file=sys.stderr)
        if tracer is not None:
            out += checks.check_token_counts(tracer.prompt_tokens, TOKEN_BUDGET)
        with open(next(iter(self.corpora)), encoding="utf-8") as fh:
            sources = [self.g.id_of(json.loads(line)["meta"]["source_id"]) for line in fh]
        out += checks.check_ppr(self.g, sources[:PPR_CENTERS], self.sampler)
        return out


def _measure(
    workload: Workload, seconds: float | None, rounds: int | None = None, pause=None, pauses: int = 0,
) -> tuple[int, int, float]:
    """Run whole rounds from round 0 until ``seconds`` of round time or
    ``rounds`` rounds; returns (rounds, operations, round seconds).

    ``pause`` runs, outside round time, after the first round to pass each
    of ``pauses`` evenly spaced marks in ``seconds``.
    """
    marks = [seconds * (i + 1) / (pauses + 1) for i in range(pauses)]
    done = ops = 0
    busy = 0.0
    while busy < seconds if rounds is None else done < rounds:
        n, elapsed = workload.run_round(done)
        ops += n
        busy += elapsed
        done += 1
        while marks and busy >= marks[0]:
            marks.pop(0)
            pause()
    return done, ops, busy


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> tuple[dict, list[str]]:
    from spans import Tracer, layer_metrics

    os.makedirs(WORK_ROOT, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{name}-", dir=WORK_ROOT)
    cls = GenWorkload if name.startswith("gen-") else EvalWorkload
    workload = cls(name, work, seed)
    try:
        subprocess.run(
            [sys.executable, os.path.join(BENCH, "inputs.py"), "--out", work,
             "--topics", str(cls.topics), "--seed", str(seed), "--tasks", str(cls.tasks)],
            check=True, timeout=300,
        )
        workload.start()
        load_tracer = Tracer() if trace else None
        if trace:
            load_tracer.install()
            load_tracer.enabled = True
        setup_times: list[float] = []

        def set_up(times: int):
            for _ in range(times):
                workload.g = None  # drop the previous copy first, so peak RSS holds one graph
                start = time.perf_counter()
                workload.g = workload.setup()
                setup_times.append(time.perf_counter() - start)

        # untraced, one set-up comes before the measured rounds and the rest
        # are spread between them: the host's speed changes within seconds,
        # and set-ups made back to back would all see the same stretch
        set_up(workload.setup_repeats if trace else 1)
        if trace:
            load_tracer.enabled = False
            load_tracer.uninstall()
        workload.prepare()

        if not trace:
            _, ops, busy = _measure(workload, seconds, pause=lambda: set_up(1),
                                    pauses=workload.setup_repeats - 1)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            metrics = {"setup_s": statistics.median(setup_times), "peak_rss_mb": peak_rss_mb}
            metrics.update(workload.e2e(ops, busy))
            metrics = {k: (v, E2E_UNITS[k]) for k, v in metrics.items()}
            attempted, tracer = ops, None
        else:
            rounds, ops_plain, busy_plain = _measure(workload, seconds / 2)
            tracer = Tracer()
            missing = tracer.install()
            if missing:
                print(f"not in this program, reads 0: {', '.join(missing)}", file=sys.stderr)
            tracer.enabled = True
            _, ops, busy = _measure(workload, None, rounds)
            tracer.enabled = False
            tracer.uninstall()
            overhead = ((busy / ops) / (busy_plain / ops_plain) - 1.0) * 100.0
            metrics = layer_metrics(tracer, load_tracer, ops, workload.stub_seen(rounds), overhead)
            tracer.spans.extend(load_tracer.spans)
            os.makedirs(OUT_ROOT, exist_ok=True)
            tracer.write(os.path.join(OUT_ROOT, f"spans-{name}-seed{seed}.tsv.gz"))
            attempted = ops_plain + ops
        failures = workload.check(tracer)
        result = {
            "correct": not failures,
            "attempted": attempted,
            "failed": workload.failed(),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
        return result, failures
    finally:
        workload.close()
        shutil.rmtree(work, ignore_errors=True)


def _print_table(name: str, result: dict) -> None:
    print(f"== {name}: attempted {result['attempted']}, failed {result['failed']}, "
          f"correct {result['correct']}")
    for metric, entry in result["metrics"].items():
        print(f"   {metric:<40} {entry['value']:>14.6g} {entry['unit']}")


def run_all(args) -> int:
    """Each workload in its own process, so each has its own peak RSS."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=900,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 and not lines:
            print(f"{name} exited with {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        _print_table(name, result)
        combined["correct"] &= result["correct"] and proc.returncode == 0
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(combined))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="lpnl benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    # the loopback stub must never be reached through a proxy
    os.environ["NO_PROXY"] = os.environ["no_proxy"] = "127.0.0.1,localhost"
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "lpnl", "__init__.py")):
        print(f"no lpnl package under {src}: run from the root of an lpnl checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    if args.workload == "all":
        return run_all(args)

    result, failures = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    for failure in failures:
        print(f"CHECK FAILED: {failure}", file=sys.stderr)
    _print_table(args.workload, result)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
