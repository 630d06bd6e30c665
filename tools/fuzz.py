"""The solver against brute force on seeded random graphs.

Each seed s, from ``--seed`` on, gives two graphs, each drawn from a
fresh ``random.Random(s)``:

* ``random``: ``tests/naive.py``'s ``random_connected_graph``, its order
  drawn from 7 to 12 and its edge density from ``DENSITIES``;
* ``product``: ``tests/naive.py``'s ``random_product_graph``, a randomly
  numbered prism h x K2 over a random graph h of 3 to 6 vertices. Its
  symmetric convex parts exercise orbital branching and the capacity
  memo's keys, which the random graphs rarely do.

Under the four variants and independence it checks on each graph that

* the value equals the exhaustive maximum (``brute_max_all``, or for
  independence the largest independent set of an enumeration);
* the witness equals the least maximum set: the least of
  ``brute_max_witnesses_all``'s sets, as sorted id tuples;
* a solve cut by a node budget of :data:`BUDGET` reports a lower bound at
  most the value, with a witness of that size that is a set of its kind.

Each failure prints the seed, the graph, the kind, the check, both answers
and the edge list; the last line is a summary, and the exit status is 1
when any check failed. Standard library and the repository's own modules
only::

    python3 tools/fuzz.py --count 1000 [--seed 0]
"""

from __future__ import annotations

import argparse
import random
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))

from mvis import (  # noqa: E402
    Incomplete,
    SolveOptions,
    VertexSet,
    classify_set,
    solve,
    solve_independence,
)
from naive import (  # noqa: E402
    DENSITIES,
    VARIANTS,
    brute_max_all,
    brute_max_witnesses_all,
    independent_maxima,
    random_connected_graph,
    random_product_graph,
)

#: Node budget of the cut solve.
BUDGET = 5


def solve_kind(g, kind: str, opts: SolveOptions | None = None):
    if kind == "independence":
        return solve_independence(g, opts)
    return solve(g, kind, opts)


def holds(g, kind: str, witness: VertexSet) -> bool:
    if kind == "independence":
        adj = g.adjacency_masks()
        return not any(adj[v] & witness.mask for v in witness.ids())
    return classify_set(g, witness).holds(kind)


def problems(g, kind: str, value: int, least: tuple[int, ...]):
    """What a solve of ``kind`` on ``g`` gets wrong, against the brute
    force ``value`` and least maximum set ``least``."""
    res = solve_kind(g, kind)
    if res.value != value:
        yield f"value: brute {value}, solve {res.value}"
    elif tuple(res.witness.ids()) != least:
        yield f"witness: brute {list(least)}, solve {res.witness.ids()}"
    try:
        solve_kind(g, kind, SolveOptions(node_budget=BUDGET))
    except Incomplete as inc:
        if (inc.lower_bound > value or inc.witness.card != inc.lower_bound
                or not holds(g, kind, inc.witness)):
            yield (f"budget {BUDGET}: lower bound {inc.lower_bound}, "
                   f"witness {inc.witness.ids()}, value {value}")


def check(seed: int) -> list[str]:
    """The failures on the two graphs of ``seed``, one line each."""
    rng = random.Random(seed)
    random_graph = random_connected_graph(rng.randint(7, 12), rng,
                                          p=rng.choice(DENSITIES))
    product = random_product_graph(random.Random(seed))
    return (check_graph(f"seed {seed} random", random_graph)
            + check_graph(f"seed {seed} product", product))


def check_graph(name: str, g) -> list[str]:
    """The failures on ``g``, one line each, starting with ``name``."""
    values = brute_max_all(g)
    maxima = brute_max_witnesses_all(g)
    maxima["independence"] = independent_maxima(g)
    values["independence"] = len(maxima["independence"][0])
    failures = []
    for kind in (*VARIANTS, "independence"):
        least = min(maxima[kind])
        if len(least) != values[kind]:
            failures.append(f"{name} {kind}: brute_max_all gives "
                            f"{values[kind]}, its witnesses {len(least)}; "
                            f"edges {g.edges()}")
            continue
        for problem in problems(g, kind, values[kind], least):
            failures.append(f"{name} {kind}: {problem}; edges {g.edges()}")
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--count", type=int, default=1000,
                        help="graphs to check (default 1000)")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed of the first graph (default 0)")
    args = parser.parse_args(argv)
    t0 = time.monotonic()
    failed = 0
    for seed in range(args.seed, args.seed + args.count):
        for line in check(seed):
            print(line, flush=True)
            failed += 1
    print(f"{args.count} seeds ({args.seed}..{args.seed + args.count - 1}), "
          f"{2 * args.count} graphs, {10 * args.count} solves: "
          f"{failed} failed checks in {time.monotonic() - t0:.1f} s")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
