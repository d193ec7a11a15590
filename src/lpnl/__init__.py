"""Scalable link prediction on large heterogeneous graphs via language prompts.

The pipeline: load a typed graph, sample each node's neighborhood in two
stages (type-budgeted layer growth, then personalized-PageRank ranking),
render the top anchors as natural-language prompts under a token budget,
and eliminate candidate neighbors tournament-style with a pluggable
scorer. Training corpora for scorer fine-tuning are generated
self-supervised from masked true edges; benchmarks report NDCG, MRR and
Hits@1 over rankings derived from elimination order.
"""

from . import datagen, evaluation, graph, prompts, sampling, scoring, tournament
from .graph import *
from .sampling import *
from .prompts import *
from .scoring import *
from .tournament import *
from .datagen import *
from .evaluation import *

# the layers' exports, in pipeline order; ``cli`` and ``synth`` stay submodules
__all__ = [
    *graph.__all__,
    *sampling.__all__,
    *prompts.__all__,
    *scoring.__all__,
    *tournament.__all__,
    *datagen.__all__,
    *evaluation.__all__,
]

__version__ = "0.1.0"
