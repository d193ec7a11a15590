"""Benchmark scorers on author attribution over the synthetic graph.

Each task asks which of six authors really wrote a paper. The truth edge
is masked during prediction so nothing leaks through the anchors. The
content-aware trigram scorer should crush the pick-the-first baseline;
the oracle shows the ceiling.
"""

from lpnl import (
    DncConfig,
    EvalTask,
    PromptConfig,
    SamplerConfig,
    ScorerBackendConfig,
    run_benchmark,
)
from lpnl.synth import SynthSpec, make_academic_graph, make_disambiguation_tasks

g = make_academic_graph(SynthSpec(n_topics=10, papers_per_topic=80, authors_per_topic=40))
raw = make_disambiguation_tasks(g, n_tasks=30, candidates_per_task=6, seed=11)
tasks = [
    EvalTask(
        source_id=g.id_of(t["source_id"]),
        relation=t["relation"],
        candidate_ids=tuple(g.id_of(c) for c in t["candidate_ids"]),
        truth_id=g.id_of(t["truth_id"]),
    )
    for t in raw
]
print(f"{len(tasks)} tasks, 6 candidates each\n")

backends = [
    ("fixed_index(0)", ScorerBackendConfig(kind="fixed_index", fixed_index=0)),
    ("lexical_overlap", ScorerBackendConfig(kind="lexical_overlap")),
    ("oracle_truth", ScorerBackendConfig(kind="oracle_truth")),
]
for name, scorer_cfg in backends:
    report = run_benchmark(
        tasks, g,
        SamplerConfig(hops=2, layer_budget=8, anchor_k=10),
        PromptConfig(),
        scorer_cfg,
        DncConfig(length_limit=3),
        seeds=(0,),
    )
    print(f"== {name}")
    print(report.render_table())
    print()

print("the same run is available from the shell:")
print("  lpnl --nodes nodes.tsv --edges edges.tsv --schema schema.json \\")
print("       eval --tasks tasks.ndjson --backend lexical_overlap --out report.json")
