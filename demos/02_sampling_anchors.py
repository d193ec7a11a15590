"""Two-stage sampling: budgeted layer growth, then PPR anchor ranking.

Stage 1 samples the neighborhood hop by hop with per-type budgets and
squared-degree weighting, so no node type drowns out the others. Stage 2
ranks everything sampled by personalized PageRank within the subgraph;
the top-k become the node's anchors.
"""

from lpnl import SamplerConfig, ppr_approx, ppr_exact, sample_subgraph, top_k_anchors
from lpnl.synth import SynthSpec, make_academic_graph

g = make_academic_graph(SynthSpec(n_topics=10, papers_per_topic=80, authors_per_topic=40))
paper = g.id_of("p3_7")
print("center:", g.key_of(paper), "-", g.text(paper))

cfg = SamplerConfig(hops=2, layer_budget=8, anchor_k=12, rng_seed=0)
sub = sample_subgraph(g, paper, cfg)
for hop, layer in enumerate(sub.layers, start=1):
    by_type = {}
    for v in layer:
        by_type.setdefault(g.type_of(v).name, 0)
        by_type[g.type_of(v).name] += 1
    print(f"hop {hop}: {len(layer)} nodes {by_type}")
print("induced edges:", len(sub.induced_edges))

# the per-type budget is what keeps hub types from flooding the subgraph:
# fields touch hundreds of papers, yet papers still get their slots.

exact = ppr_exact(sub, paper, alpha=0.15)
push = ppr_approx(sub, paper, SamplerConfig(push_tolerance=1e-6))
worst = max(abs(exact[v] - push[v]) for v in exact)
print(f"\nexact solve vs forward push, max abs difference: {worst:.2e}")

anchors = top_k_anchors(g, paper, cfg)
print(f"\ntop {len(anchors)} anchors for {g.key_of(paper)}:")
for node_id, score in anchors.entries:
    node = g.node(node_id)
    print(f"  {score:.4f}  {node.type.name:<7} {node.text[:60]}")
