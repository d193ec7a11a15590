"""Generate self-supervised fine-tuning data from real edges.

Every example masks a true edge, samples negatives of the right type,
hides the answer at a random position among the candidates, and renders
the exact prompt grammar the predictor uses. An audit confirms that no
input ever names its own answer in the source description.
"""

import collections
import tempfile
from pathlib import Path

from lpnl import (
    DatagenConfig,
    PromptConfig,
    SamplerConfig,
    generate_examples,
    leakage_audit,
    write_examples,
)
from lpnl.synth import SynthSpec, make_academic_graph

g = make_academic_graph(SynthSpec(n_topics=10, papers_per_topic=80, authors_per_topic=40))

cfg = DatagenConfig(
    relation="authored_by",
    num_examples=60,
    candidates_per_example=3,
    negative_policy="shared_neighbor",
    rng_seed=0,
)
counters: dict = {}
examples = list(
    generate_examples(
        g, cfg,
        SamplerConfig(hops=2, layer_budget=6, anchor_k=8),
        PromptConfig(),
        counters=counters,
    )
)
print(f"generated {len(examples)} examples; "
      f"{counters['skipped_zero_degree']} sources skipped (masked degree 0)")

first = examples[0]
print("\nexample input:\n" + first.input_text)
print("\ntarget:", first.target_text)
print("truth position:", first.truth_position)

positions = collections.Counter(e.truth_position for e in examples)
print("\ntruth position histogram:", dict(sorted(positions.items())))

report = leakage_audit(examples, g)
print(f"leakage audit: {report.examples_scanned} scanned, "
      f"{len(report.violations)} violations")

with tempfile.TemporaryDirectory(prefix="lpnl_demo_") as workdir:
    out = Path(workdir) / "train.jsonl"
    write_examples(str(out), examples, g)
    print("wrote", out)
