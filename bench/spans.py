"""Span recorder for the traced run.

:func:`Tracer.install` wraps public functions of every ``lpnl`` layer from
outside the program: each call records a span ``(span id, parent id,
task id, name, start, end)``. Spans stay in memory until the run ends,
then :meth:`Tracer.write` stores them and :func:`layer_metrics` derives
the per-layer numbers.

Parents follow the calling thread's stack. The ``ThreadPoolExecutor``
names that ``lpnl.tournament`` and ``lpnl.evaluation`` import are
replaced by a subclass that counts pools and hands the submitting
thread's span to the worker, so spans in pool threads keep their parent
and task. ``tournament.predict`` and each resumption of
``datagen.generate_examples`` open a new task.

A wrapped name missing from the program is skipped; its metrics read 0.
"""

from __future__ import annotations

import collections
import functools
import gzip
import itertools
import math
import statistics
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

# (module, owner, attribute, span name, opens a task, is a generator);
# ``None`` in the last field counts calls without a span: ``resolve_mask``
# runs hundreds of times per operation, and a span each would dominate
# the tracing overhead.
FUNCTIONS = [
    ("lpnl.graph", None, "load_graph", "graph.load_graph", False, False),
    ("lpnl.graph", "HetGraph", "all_neighbors", "graph.all_neighbors", False, False),
    ("lpnl.graph", "HetGraph", "neighbors", "graph.neighbors", False, False),
    ("lpnl.graph", "HetGraph", "degree", "graph.degree", False, False),
    ("lpnl.graph", "HetGraph", "degrees", "graph.degrees", False, False),
    ("lpnl.graph", "HetGraph", "resolve_mask", "graph.resolve_mask", False, None),
    ("lpnl.graph", "HetGraph", "induced_edges", "graph.induced_edges", False, False),
    ("lpnl.graph", "HetGraph", "edges_of_type", "graph.edges_of_type", False, False),
    ("lpnl.graph", "HetGraph", "nodes_of_type", "graph.nodes_of_type", False, False),
    ("lpnl.sampling", None, "top_k_anchors", "sampling.top_k_anchors", False, False),
    ("lpnl.sampling", None, "sample_subgraph", "sampling.sample_subgraph", False, False),
    ("lpnl.sampling", None, "layer_sampling_probs", "sampling.layer_sampling_probs", False, False),
    ("lpnl.sampling", None, "ppr_exact", "sampling.ppr_exact", False, False),
    ("lpnl.sampling", None, "ppr_approx", "sampling.ppr_approx", False, False),
    ("lpnl.prompts", None, "build_prompt", "prompts.build_prompt", False, False),
    ("lpnl.prompts", None, "estimate_tokens", "prompts.estimate_tokens", False, False),
    ("lpnl.prompts", None, "parse_prompt", "prompts.parse_prompt", False, False),
    ("lpnl.scoring", None, "make_scorer", "scoring.make_scorer", False, False),
    ("lpnl.scoring", None, "resolve_output", "scoring.resolve_output", False, False),
    ("lpnl.scoring", "ResponseCache", "lookup", "scoring.cache.lookup", False, False),
    ("lpnl.scoring", "ResponseCache", "store", "scoring.cache.store", False, False),
    ("lpnl.scoring", "HttpLlmScorer", "_complete", "scoring.http.complete", False, False),
    ("lpnl.tournament", None, "predict", "tournament.predict", True, False),
    ("lpnl.evaluation", None, "run_benchmark", "evaluation.run_benchmark", False, False),
    ("lpnl.datagen", None, "generate_examples", "datagen.generate_examples", True, True),
    ("lpnl.datagen", None, "write_examples", "datagen.write_examples", False, False),
    ("lpnl.datagen", None, "read_examples", "datagen.read_examples", False, True),
    ("lpnl.datagen", None, "leakage_audit", "datagen.leakage_audit", False, False),
]
SCORER_CLASSES = ("LexicalOverlapScorer", "HttpLlmScorer", "OracleTruthScorer", "FixedIndexScorer")
EXECUTOR_MODULES = ("lpnl.tournament", "lpnl.evaluation")
RESOLUTIONS = ("alias_match", "exact_match", "fuzzy_match", "fallback")
LAYERS = ("graph", "sampling", "prompts", "scoring", "tournament", "evaluation", "datagen")


class Tracer:
    def __init__(self):
        self.spans: list[tuple[int, int, int, str, float, float]] = []
        self.counts: collections.Counter = collections.Counter()
        self.samples: dict[str, list[float]] = collections.defaultdict(list)
        self.enabled = False
        # what a wrapped call's result adds to the counters, by span name
        self.observers = {
            "sampling.sample_subgraph": lambda sub: self.sample("subgraph_nodes", len(sub.nodes)),
            "prompts.build_prompt": self._observe_prompt,
            "scoring.cache.lookup": lambda hit: self.count("cache.hits" if hit is not None else "cache.misses"),
            "datagen.generate_examples": lambda _: self.count("datagen.examples"),
            "datagen.leakage_audit": lambda report: self.count("datagen.leakage_violations", len(report.violations)),
        }
        # (token_count, ceil(len/4) recomputed) of every prompt built while tracing
        self.prompt_tokens: list[tuple[int, int]] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------------

    def _stack(self) -> list[tuple[int, int]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> tuple[int, int]:
        """(span id, task id) of the innermost open span on this thread."""
        stack = self._stack()
        return stack[-1] if stack else (0, 0)

    def call(self, name: str, opens_task: bool, fn, args, kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        stack = self._stack()
        parent, task = stack[-1] if stack else (0, 0)
        span_id = next(self._ids)
        if opens_task:
            task = span_id
        stack.append((span_id, task))
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((span_id, parent, task, name, start, end))
        observe = self.observers.get(name)
        if observe is not None:
            observe(result)
        return result

    def _observe_prompt(self, bundle) -> None:
        self.sample("prompt_tokens", bundle.token_count)
        self.prompt_tokens.append((bundle.token_count, math.ceil(len(bundle.text) / 4)))

    def count(self, key: str, n: int = 1) -> None:
        if self.enabled:
            with self._lock:
                self.counts[key] += n

    def sample(self, key: str, value: float) -> None:
        if self.enabled:
            with self._lock:
                self.samples[key].append(value)

    # -- wrapping -------------------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _patch_everywhere(self, original, replacement) -> None:
        """Rebind ``original`` in every lpnl module that imported it by name."""
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "lpnl" or mod_name.startswith("lpnl."):
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, replacement)

    def _wrap_function(self, original, name: str, opens_task: bool, is_generator: bool | None):
        tracer = self
        if is_generator is None:
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                tracer.count(name)
                return original(*args, **kwargs)
        elif is_generator:
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                gen = original(*args, **kwargs)
                while True:
                    try:
                        item = tracer.call(name, opens_task, next, (gen,), {})
                    except StopIteration:
                        return
                    yield item
        else:
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                return tracer.call(name, opens_task, original, args, kwargs)
        return wrapper

    def install(self) -> list[str]:
        """Wrap every layer; returns the wrapped names that the program lacks."""
        import lpnl  # noqa: F401  (loads every submodule)

        missing = []
        for mod_name, owner_name, attr, name, opens_task, is_gen in FUNCTIONS:
            mod = sys.modules.get(mod_name)
            owner = getattr(mod, owner_name, None) if owner_name else mod
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                missing.append(name)
                continue
            wrapper = self._wrap_function(original, name, opens_task, is_gen)
            if owner_name:
                self._patch(owner, attr, wrapper)
            else:
                self._patch_everywhere(original, wrapper)
        scoring = sys.modules["lpnl.scoring"]
        for cls_name in SCORER_CLASSES:
            cls = getattr(scoring, cls_name, None)
            if cls is None or not hasattr(cls, "score"):
                missing.append(f"scoring.{cls_name}.score")
                continue
            self._patch(cls, "score", self._scorer_wrapper(cls.score))
        for mod_name in EXECUTOR_MODULES:
            mod = sys.modules.get(mod_name)
            if mod is not None and getattr(mod, "ThreadPoolExecutor", None) is ThreadPoolExecutor:
                self._patch(mod, "ThreadPoolExecutor", self._executor_class())
        return missing

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def _scorer_wrapper(self, original):
        tracer = self

        @functools.wraps(original)
        def score(backend, request):
            start = time.perf_counter()
            response = tracer.call("scoring.score", False, original, (backend, request), {})
            tracer.sample("scoring.score_ms", (time.perf_counter() - start) * 1000.0)
            tracer.count(f"scoring.resolution.{response.resolution}")
            return response

        return score

    def _executor_class(self):
        tracer = self

        class TracedExecutor(ThreadPoolExecutor):
            def __init__(self, *args, **kwargs):
                tracer.count("executors_created")
                super().__init__(*args, **kwargs)

            def submit(self, fn, /, *args, **kwargs):
                context = tracer.current()

                def in_context(*a, **k):
                    stack = tracer._stack()
                    stack.append(context)
                    try:
                        return fn(*a, **k)
                    finally:
                        stack.pop()

                return super().submit(in_context, *args, **kwargs)

        return TracedExecutor

    # -- output ---------------------------------------------------------------

    def write(self, path: str) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("span\tparent\ttask\tname\tstart\tend\n")
            for span_id, parent, task, name, start, end in self.spans:
                fh.write(f"{span_id}\t{parent}\t{task}\t{name}\t{start!r}\t{end!r}\n")

    def totals(self) -> tuple[dict, dict, dict]:
        """Per span name: call count, inclusive seconds, self seconds.

        Self time is a span's duration minus the part of it that its child
        spans cover; children running concurrently in pool threads are
        merged before subtracting, so no interval is removed twice.
        """
        children: dict[int, list[tuple[float, float]]] = collections.defaultdict(list)
        for _, parent, _, _, start, end in self.spans:
            if parent:
                children[parent].append((start, end))
        calls: collections.Counter = collections.Counter()
        inclusive: dict[str, float] = collections.defaultdict(float)
        own: dict[str, float] = collections.defaultdict(float)
        for span_id, _, _, name, start, end in self.spans:
            covered = 0.0
            reach = start
            for c_start, c_end in sorted(children.get(span_id, ())):
                c_start, c_end = max(c_start, reach), min(c_end, end)
                if c_end > c_start:
                    covered += c_end - c_start
                    reach = c_end
            calls[name] += 1
            inclusive[name] += end - start
            own[name] += end - start - covered
        return calls, inclusive, own


def _per(numerator: float, base: float) -> float:
    return numerator / base if base else 0.0


def layer_metrics(
    tracer: Tracer, setup: Tracer, ops: int, http: dict, overhead_pct: float
) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of the traced rounds, as {name: (value, unit)}.

    Counts and seconds are per operation (a predicted task, or a generated
    example) so that runs of different length compare; ``trace.ops`` is
    the base. ``graph.load_graph.s`` is per load, from the ``setup``
    tracer. ``http`` holds what the loopback stub saw while tracing.
    """
    calls, inclusive, own = tracer.totals()
    load_calls, load_inclusive, _ = setup.totals()
    counts, samples = tracer.counts, tracer.samples
    m: dict[str, tuple[float, str]] = {}

    def per_op(name: str, value: float, unit: str) -> None:
        m[name] = (_per(value, ops), unit)

    m["graph.load_graph.s"] = (_per(load_inclusive["graph.load_graph"], load_calls["graph.load_graph"]), "s")
    for name in ("graph.all_neighbors", "sampling.top_k_anchors", "prompts.build_prompt",
                 "prompts.estimate_tokens", "scoring.score", "tournament.predict"):
        per_op(f"{name}.calls", calls[name], "count/op")
    per_op("graph.resolve_mask.calls", counts["graph.resolve_mask"], "count/op")
    for name in ("graph.all_neighbors", "graph.induced_edges", "sampling.top_k_anchors",
                 "sampling.ppr_exact", "sampling.ppr_approx", "prompts.build_prompt",
                 "scoring.score", "tournament.predict", "evaluation.run_benchmark",
                 "datagen.leakage_audit"):
        per_op(f"{name}.s", inclusive[name], "s/op")
    for name in ("sampling.sample_subgraph", "datagen.generate_examples"):
        per_op(f"{name}.self_s", own[name], "s/op")
    per_op("datagen.corpus_io.s", inclusive["datagen.write_examples"] + inclusive["datagen.read_examples"], "s/op")
    for layer in LAYERS:
        layer_own = sum(v for k, v in own.items() if k.startswith(layer + "."))
        per_op(f"{layer}.self_s", layer_own, "s/op")

    m["sampling.subgraph_nodes.mean"] = (statistics.fmean(samples["subgraph_nodes"] or [0]), "nodes")
    m["prompts.renders_per_prompt"] = (_per(calls["prompts.estimate_tokens"], calls["prompts.build_prompt"]), "ratio")
    m["prompts.tokens_per_prompt.mean"] = (statistics.fmean(samples["prompt_tokens"] or [0]), "tokens")
    m["scoring.score_latency_p50_ms"] = (statistics.median(samples["scoring.score_ms"] or [0]), "ms")
    per_op("scoring.http.requests", http.get("requests", 0), "count/op")
    m["scoring.http.in_flight_peak"] = (http.get("in_flight_peak", 0), "count")
    lookups = counts["cache.hits"] + counts["cache.misses"]
    per_op("scoring.cache.lookups", lookups, "count/op")
    per_op("scoring.cache.hits", counts["cache.hits"], "count/op")
    m["scoring.cache.hit_ratio"] = (_per(counts["cache.hits"], lookups), "ratio")
    for resolution in RESOLUTIONS:
        per_op(f"scoring.resolution.{resolution}", counts[f"scoring.resolution.{resolution}"], "count/op")
    m["tournament.prompts_per_task"] = (_per(calls["prompts.build_prompt"], calls["tournament.predict"]), "ratio")
    per_op("tournament.executors_created", counts["executors_created"], "count/op")
    m["datagen.examples"] = (counts["datagen.examples"], "count")
    m["datagen.leakage_violations"] = (counts["datagen.leakage_violations"], "count")
    m["trace.ops"] = (ops, "count")
    per_op("trace.spans", len(tracer.spans), "count/op")
    m["trace.overhead_pct"] = (overhead_pct, "%")
    return m
