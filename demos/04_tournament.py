"""Divide-and-conquer prediction over a large candidate set.

One prompt cannot describe 60 candidates inside a 1024-token window.
Instead the pool is split into sets of at most L, the scorer names one
winner per set, winners regroup, and rounds continue until a single
candidate survives. The trace records every set, winner and prompt count,
and a full ranking falls out of the elimination order.
"""

import numpy as np

from lpnl import (
    DncConfig, PromptConfig, SamplerConfig, ScorerBackendConfig, close_scorer, make_scorer, predict,
)
from lpnl.synth import SynthSpec, make_academic_graph

g = make_academic_graph(SynthSpec(n_topics=10, papers_per_topic=80, authors_per_topic=40))
rng = np.random.default_rng(4)

paper = g.id_of("p5_11")
truth = g.neighbors(paper, "authored_by")[0]
authors = g.nodes_of_type("author")
decoys = [a for a in rng.choice(authors, size=70, replace=False)
          if a not in g.neighbors(paper, "authored_by")][:59]
candidates = [int(c) for c in rng.permutation([truth, *decoys])]
print(f"source {g.key_of(paper)}: 1 true author hidden among {len(candidates)} candidates")

# predict takes a built backend, which its caller closes
scorer = make_scorer(ScorerBackendConfig(kind="lexical_overlap"))
try:
    trace = predict(
        g,
        paper,
        "authored_by",
        candidates,
        SamplerConfig(hops=2, layer_budget=8, anchor_k=10, rng_seed=0),
        PromptConfig(),
        scorer,
        DncConfig(length_limit=3, grouping="random_seeded"),
    )
finally:
    close_scorer(scorer)

for i, rnd in enumerate(trace.rounds, start=1):
    print(f"round {i}: {len(rnd.sets)} sets of sizes {sorted(set(len(s) for s in rnd.sets))}")
print(f"scorer calls: {trace.scorer_calls}")
print(f"predicted: {g.key_of(trace.final)} - {g.text(trace.final)}")
print(f"truth:     {g.key_of(truth)} - {g.text(truth)}")
print("correct!" if trace.final == truth else "missed.")

rank_of_truth = list(trace.ranking).index(truth) + 1
print(f"\ntruth sits at rank {rank_of_truth} of {len(trace.ranking)} in the derived ranking")
print("top 5 by elimination order:", [g.key_of(c) for c in trace.ranking[:5]])
