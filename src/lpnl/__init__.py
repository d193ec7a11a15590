"""Scalable link prediction on large heterogeneous graphs via language prompts.

The pipeline: load a typed graph, sample each node's neighborhood in two
stages (type-budgeted layer growth, then personalized-PageRank ranking),
render the top anchors as natural-language prompts under a token budget,
and eliminate candidate neighbors tournament-style with a pluggable
scorer. Training corpora for scorer fine-tuning are generated
self-supervised from masked true edges; benchmarks report NDCG, MRR and
Hits@1 over rankings derived from elimination order.
"""

from .graph import (
    EdgeMask,
    EdgeType,
    GraphFormatError,
    HetGraph,
    NodeType,
    UnknownEdgeTypeError,
    UnknownNodeError,
    UnknownNodeTypeError,
    load_graph,
    normalize_text,
    save_graph,
)
from .sampling import (
    AnchorList,
    EgoSubgraph,
    SamplerConfig,
    layer_sampling_probs,
    ppr_approx,
    ppr_exact,
    sample_subgraph,
    top_k_anchors,
)
from .prompts import (
    BudgetUnsatisfiableError,
    NodeDescription,
    ParsedPrompt,
    PromptBundle,
    PromptConfig,
    build_prompt,
    describe_node,
    estimate_tokens,
    parse_prompt,
)
from .scoring import (
    ResponseCache,
    ScorerBackendConfig,
    ScorerError,
    ScorerResponse,
    TransportError,
    close_scorer,
    make_scorer,
    resolve_output,
)
from .tournament import (
    DncConfig,
    PredictionAborted,
    PredictionTrace,
    Round,
    partition,
    predict,
)
from .datagen import (
    DatagenConfig,
    InsufficientEdgesError,
    LeakageReport,
    TrainingExample,
    generate_examples,
    leakage_audit,
    read_examples,
    write_examples,
)
from .evaluation import (
    EvalTask,
    MetricReport,
    metric_hits1,
    metric_mrr,
    metric_ndcg,
    read_tasks,
    run_benchmark,
)

__version__ = "0.1.0"
