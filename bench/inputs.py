"""Write one workload's inputs to disk: a synthetic graph as TSV, plus tasks.

Run as a child process of ``run.py`` so that the memory the synthetic
generator needs never shows in the benchmark process's peak RSS:

    python3 bench/inputs.py --out DIR --topics 40 --seed 3 --tasks 600

writes ``nodes.tsv``, ``edges.tsv`` and ``schema.json`` (the graph file
format of ``lpnl.graph``) and, when ``--tasks`` is positive,
``tasks.ndjson`` with that many 30-candidate author-attribution tasks.
Everything derives from ``--seed``.
"""

from __future__ import annotations

import argparse
import os
import sys

CANDIDATES_PER_TASK = 30


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--topics", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--tasks", type=int, default=0)
    args = parser.parse_args(argv)

    from lpnl import save_graph
    from lpnl.synth import SynthSpec, make_academic_graph, make_disambiguation_tasks, write_task_file

    g = make_academic_graph(SynthSpec(n_topics=args.topics, seed=args.seed))
    save_graph(
        g,
        os.path.join(args.out, "nodes.tsv"),
        os.path.join(args.out, "edges.tsv"),
        os.path.join(args.out, "schema.json"),
    )
    if args.tasks > 0:
        tasks = make_disambiguation_tasks(
            g, n_tasks=args.tasks, candidates_per_task=CANDIDATES_PER_TASK, seed=args.seed + 1
        )
        write_task_file(os.path.join(args.out, "tasks.ndjson"), tasks)
    return 0


if __name__ == "__main__":
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
    sys.exit(main())
