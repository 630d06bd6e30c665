"""Solver outputs as one JSON document, for comparing two source trees.

For each instance and kind it records the value, the lexicographically
least witness, every ``SearchStats`` counter but ``elapsed_ms``, and the
root convex partition (``parts`` as [mask, capacity] pairs, and ``free``).
The instances are the benchmark's solve instances (``SOLVE_WORKLOADS`` in
``benchmarks/workloads.py``), the records of a default ``mvis verify`` and
60 seeded random connected graphs of 3 to 11 vertices under all five kinds.
Standard library and ``src/`` only, no options::

    python3 tools/dump.py > a.json    # in each tree, then: cmp a.json b.json
"""

from __future__ import annotations

import dataclasses
import json
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "benchmarks"))

from workloads import SOLVE_WORKLOADS  # noqa: E402

from mvis import build_graph, generate, solve, solve_independence  # noqa: E402
from mvis.cli import _verify_instances, build_parser  # noqa: E402
from mvis.solve import _search, convex_partition  # noqa: E402
from mvis.visibility import VARIANTS  # noqa: E402

KINDS = (*VARIANTS, "independence")

#: Seeded random connected graphs dumped under every kind.
RANDOM_GRAPHS = 60


def record(g, kind: str) -> dict:
    """One solve of ``kind`` on ``g`` and its root partition."""
    res = (solve_independence(g) if kind == "independence"
           else solve(g, kind))
    stats = dataclasses.asdict(res.stats)
    del stats["elapsed_ms"]
    root = _search(g, kind).root[1]
    partition = convex_partition(g, kind, root)
    return {
        "kind": kind,
        "value": res.value,
        "witness": res.witness.ids(),
        "stats": stats,
        "parts": [list(part) for part in partition.parts],
        "free": partition.free,
    }


def random_connected_graph(n: int, rng: random.Random):
    """A random spanning tree plus each other edge with probability 0.4."""
    perm = list(range(n))
    rng.shuffle(perm)
    edges = {tuple(sorted((perm[i], perm[rng.randrange(i)])))
             for i in range(1, n)}
    edges |= {(u, v) for u in range(n) for v in range(u + 1, n)
              if rng.random() < 0.4}
    return build_graph(n, sorted(edges))


def main() -> None:
    bench = [dict(instance=spec, **record(generate(spec), kind))
             for cases in SOLVE_WORKLOADS.values() for spec, kind in cases]
    verify = []
    args = build_parser().parse_args(["verify"])
    for spec, checks in _verify_instances(args).items():
        g = generate(spec)
        verify += [dict(instance=spec, **record(g, kind))
                   for kind, _ in checks]
    rand = []
    for seed in range(RANDOM_GRAPHS):
        rng = random.Random(seed)
        g = random_connected_graph(rng.randint(3, 11), rng)
        rand += [dict(seed=seed, n=g.n, **record(g, kind)) for kind in KINDS]
    json.dump({"benchmark": bench, "verify": verify, "random": rand},
              sys.stdout, indent=1, sort_keys=True)
    print()


if __name__ == "__main__":
    main()
