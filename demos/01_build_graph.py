"""Build a typed academic graph, save it, reload it, poke at it.

The graph store keeps typed nodes with text payloads and typed edges
walkable from both endpoints. Masks hide individual edges from traversal
without touching the shared structure.
"""

import tempfile
from pathlib import Path

from lpnl import EdgeMask, load_graph, save_graph
from lpnl.synth import SynthSpec, make_academic_graph

# a small-ish instance so the demo runs in a blink (~1.3k nodes)
g = make_academic_graph(SynthSpec(n_topics=10, papers_per_topic=80, authors_per_topic=40))
print("generated:", g.summary())

with tempfile.TemporaryDirectory(prefix="lpnl_demo_") as workdir:
    nodes, edges, schema = (
        str(Path(workdir) / name) for name in ("nodes.tsv", "edges.tsv", "schema.json")
    )
    save_graph(g, nodes, edges, schema)
    print("wrote", nodes, edges, schema)
    g2 = load_graph(nodes, edges, schema)

assert g2.summary() == g.summary()
print("reloaded graph matches")

# inspect one paper and its neighborhood
paper = g2.id_of("p0_0")
print("\npaper p0_0 text:", g2.text(paper))
print("degree:", g2.degree(paper))
authors = g2.neighbors(paper, "authored_by")
print("authors:", [(g2.key_of(a), g2.text(a)) for a in authors])

# hide one authorship edge behind a mask; the graph itself is untouched
mask = EdgeMask([(paper, authors[0], "authored_by")])
print("\nwith the first authorship masked:")
print("degree:", g2.degree(paper, mask))
print("authors:", [g2.key_of(a) for a in g2.neighbors(paper, "authored_by", mask)])
print("without the mask again:", [g2.key_of(a) for a in g2.neighbors(paper, "authored_by")])
