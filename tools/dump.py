"""Solver outputs and family graphs as one JSON document, for comparing
two source trees.

For each instance and kind it records the value, the lexicographically
least witness, every ``SearchStats`` counter but ``elapsed_ms``, and the
root convex partition (``parts`` as [mask, capacity] pairs, and ``free``)
and the parts of its merged partition (``merged``, null when no two parts
merge).
The instances are the benchmark's solve instances (``SOLVE_WORKLOADS`` in
``benchmarks/workloads.py``), the records of a default ``mvis verify`` and
60 seeded random connected graphs of 3 to 11 vertices
(``tests/naive.py``'s ``random_connected_graph``) under all five kinds.

The ``graphs`` section records order, name, labels and adjacency of
``generate(spec)`` for sample specs of every family kind and alias, and for
every spec of a default ``mvis verify`` and of the benchmark. For each of
the benchmark's reductions, and for ``path:2`` with t = 3, it records the
same of G' plus its tags, id bookkeeping and the witness that the base
graph's lex-least maximum independent set builds.

The ``classify`` section records the ``classify_set`` report (the four
flags and the lex-first violations) of every ``check`` set of the
benchmark's ``cli-sweep`` workload at seeds 1 to 10, and of
:data:`RANDOM_SETS` seeded random sets plus the empty and the whole vertex
set on each of the 60 random graphs.
Standard library and the repository's own modules only, no options::

    python3 tools/dump.py > a.json    # in each tree, then: cmp a.json b.json
"""

from __future__ import annotations

import dataclasses
import json
import random
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "benchmarks"))
sys.path.insert(0, str(ROOT / "tests"))

from workloads import (  # noqa: E402
    CHECK_GRAPHS,
    REDUCTIONS,
    SOLVE_WORKLOADS,
    build as build_ops,
)

from mvis import (  # noqa: E402
    classify_set,
    generate,
    reduction_gprime,
    reduction_witness,
    solve,
    solve_independence,
    write_edge_list,
)
from mvis.cli import _verify_instances, build_parser  # noqa: E402
from mvis.families import _KIND_ALIASES, _KINDS  # noqa: E402
from mvis.solve import _search, convex_partitions  # noqa: E402
from mvis.visibility import VARIANTS  # noqa: E402
from naive import random_connected_graph, random_subset  # noqa: E402

KINDS = (*VARIANTS, "independence")

#: Seeded random connected graphs dumped under every kind.
RANDOM_GRAPHS = 60

#: Seeded random sets classified on each random graph.
RANDOM_SETS = 8

#: The ``cli-sweep`` seeds whose ``check`` sets are classified.
CHECK_SEEDS = range(1, 11)

#: Sample parameter fields per family kind, dumped under the kind and each
#: of its aliases; ``gprime`` is built on an edge-list file of ``path:5``.
SAMPLE_PARAMS = {
    "path": ("2", "6"),
    "cycle": ("3", "7"),
    "complete": ("1", "2", "5"),
    "star": ("1", "4"),
    "random_tree": ("2", "9", "9:seed=4"),
    "grid": ("1x2", "1x5", "5x1", "3x4"),
    "torus": ("3x3", "3x5"),
    "pathprod": ("5", "3x2", "2x3x2"),
    "gn": ("2", "3"),
    "ht": ("2", "3"),
    "gprime": ("path5.el:t=3",),
}

#: The benchmark's reductions, plus the smallest base graph.
DUMPED_REDUCTIONS = (*REDUCTIONS, ("path:2", 3))


def record(g, kind: str) -> dict:
    """One solve of ``kind`` on ``g``, its root partition and the parts of
    the merged one."""
    res = (solve_independence(g) if kind == "independence"
           else solve(g, kind))
    stats = dataclasses.asdict(res.stats)
    del stats["elapsed_ms"]
    root = _search(g, kind).root[1]
    partitions = convex_partitions(g, kind, root)
    merged = next((p for p in partitions if p.merged), None)
    return {
        "kind": kind,
        "value": res.value,
        "witness": res.witness.ids(),
        "stats": stats,
        "parts": [list(part) for part in partitions[0].parts],
        "free": partitions[0].free,
        "merged": merged and [list(part) for part in merged.parts],
    }


def random_graphs():
    """(seed, generator, graph) for each seeded random graph; the
    generator is left where the graph's draws end."""
    for seed in range(RANDOM_GRAPHS):
        rng = random.Random(seed)
        yield seed, rng, random_connected_graph(rng.randint(3, 11), rng)


def report_record(g, members: list[int]) -> dict:
    """The ``classify_set`` report of ``members`` on ``g``."""
    rep = classify_set(g, members)
    return {
        "set": members,
        **{kind: rep.holds(kind) for kind in VARIANTS},
        "violations": {k: list(p) for k, p in rep.violations.items()},
    }


def dump_classify() -> dict:
    graphs = {spec: generate(spec) for spec in CHECK_GRAPHS}
    checks = [dict(seed=seed, spec=op.params["spec"],
                   **report_record(graphs[op.params["spec"]],
                                   op.params["set"]))
              for seed in CHECK_SEEDS
              for op in build_ops("cli-sweep", seed)
              if op.kind == "check"]
    rand = []
    for seed, rng, g in random_graphs():
        sets = [random_subset(g.n, rng).ids() for _ in range(RANDOM_SETS)]
        rand += [dict(seed=seed, **report_record(g, members))
                 for members in (*sets, [], list(range(g.n)))]
    return {"checks": checks, "random": rand}


def graph_record(g) -> dict:
    """Order, name, labels and adjacency of ``g``."""
    return {
        "n": g.n,
        "name": g.name,
        "labels": None if g.labels is None else list(g.labels),
        "adj": [list(nbrs) for nbrs in g.adj],
    }


def family_specs(verify_specs) -> list[str]:
    """Sample specs of every kind and alias, then the sweep's and the
    benchmark's specs, each once."""
    names = [*_KINDS, *_KIND_ALIASES]
    samples = [f"{name}:{params}" for name in names
               for params in SAMPLE_PARAMS[_KIND_ALIASES.get(name, name)]]
    bench = [spec for cases in SOLVE_WORKLOADS.values() for spec, _ in cases]
    bench += [*CHECK_GRAPHS, *(base for base, _ in REDUCTIONS)]
    return list(dict.fromkeys([*samples, *verify_specs, *bench]))


def dump_graphs(verify_specs) -> dict:
    families = []
    with tempfile.TemporaryDirectory() as tmp:
        write_edge_list(generate("path:5"), str(Path(tmp) / "path5.el"))
        for spec in family_specs(verify_specs):
            # The file lives in a temporary directory; the dump names it by
            # its file name alone, so two trees dump the same text.
            text = spec.replace("path5.el", str(Path(tmp) / "path5.el"))
            families.append(dict(spec=spec, **graph_record(generate(text))))
    reductions = []
    for base_spec, t in DUMPED_REDUCTIONS:
        base = generate(base_spec)
        rec = reduction_gprime(base, t)
        witness = reduction_witness(rec, solve_independence(base).witness)
        reductions.append(dict(
            base=base_spec,
            t=t,
            **graph_record(rec.gprime),
            tags=list(rec.tags),
            apex_clique_ids=list(rec.apex_clique_ids),
            pendant_ids=[[list(e), list(ids)]
                         for e, ids in rec.pendant_ids.items()],
            witness=witness.ids(),
        ))
    return {"families": families, "reductions": reductions}


def main() -> None:
    bench = [dict(instance=spec, **record(generate(spec), kind))
             for cases in SOLVE_WORKLOADS.values() for spec, kind in cases]
    verify = []
    args = build_parser().parse_args(["verify"])
    instances = _verify_instances(args)
    for spec, checks in instances.items():
        g = generate(spec)
        verify += [dict(instance=spec, **record(g, kind))
                   for kind, _ in checks]
    rand = []
    for seed, _, g in random_graphs():
        rand += [dict(seed=seed, n=g.n, **record(g, kind)) for kind in KINDS]
    json.dump({"benchmark": bench, "verify": verify, "random": rand,
               "graphs": dump_graphs(instances),
               "classify": dump_classify()},
              sys.stdout, indent=1, sort_keys=True)
    print()


if __name__ == "__main__":
    main()
