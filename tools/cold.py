"""Cold solves, parent against change, each in a fresh process.

For each of :data:`INSTANCES`, runs ``solve(generate(spec), variant)`` in
a new Python process that imports ``mvis`` from the checkout's own
``src/``, :data:`RUNS` times per checkout, alternating which checkout runs
first (parent first in even runs). The time is that of generating and
solving, so it includes the pair table, the partitions and every capacity
search, and no warm reuse. The process also sums the nodes of the
capacity searches the solve runs, all from a cleared capacity memo: each
is a search narrowed by ``within`` (``mvis.solve._search``), which a
wrapper set in the process records. They are not in the solve's
``nodes_explored``, so work moved into them shows here.

Then it solves the random slice once per checkout, in one fresh process:
for each seed s of :data:`RANDOM_SEEDS`, ``random.Random(s)`` draws
n = ``randint(12, 20)`` and p = ``uniform(0.05, 0.35)``, and
``random_connected_graph(n, rng, p)`` of ``tests/naive.py`` builds a
randomly numbered graph, solved under every variant. Only its summed
nodes are reported.

Prints first the fixed list's summed nodes and the random slice's, one
line each; then, per instance and checkout, the median time, the median
peak resident memory of the process, the node count with the value, and
the capacity-search nodes; last a totals row: each side's summed median
seconds, summed nodes and summed capacity-search nodes. The values must
be the same on both sides, and a side's counts the same in each of its
runs; the two sides' counts may differ. Standard library only::

    python3 tools/cold.py PARENT CHANGE
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

#: Instances timed, as (spec, variant).
INSTANCES = (
    ("ht:4", "dual"),
    ("torus:6x6", "mutual"),
    ("torus:7x6", "mutual"),
    ("pathprod:3x3x3", "dual"),
    ("grid:8x8", "mutual"),
    ("torus:6x5", "mutual"),
    ("star:300", "mutual"),
    ("ht:3", "mutual"),
    ("torus:7x7", "mutual"),
    ("grid:9x9", "mutual"),
    ("torus:8x6", "mutual"),
)

#: Seeds of the random slice.
RANDOM_SEEDS = range(20)

#: Alternating parent/change runs per instance.
RUNS = 5

#: What one fresh process runs for an instance; it prints one JSON line.
CHILD = """\
import json, resource, sys, time
from mvis import generate, solve
core = sys.modules["mvis.solve"]  # the name mvis.solve is the function
narrowed = []
plain = core._search
def recording(g, kind, opts=None, within=None):
    search = plain(g, kind, opts, within)
    if within is not None:
        narrowed.append(search)
    return search
core._search = recording
core._capacity.cache_clear()
t0 = time.perf_counter()
result = solve(generate(sys.argv[1]), sys.argv[2])
seconds = time.perf_counter() - t0
print(json.dumps({
    "s": seconds,
    "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    "value": result.value,
    "nodes": result.stats.nodes_explored,
    "cap_nodes": sum(s.stats.nodes_explored for s in narrowed),
}))
"""

#: What one fresh process runs for the random slice, from the checkout's
#: root; it prints one JSON line.
RANDOM_CHILD = """\
import json, random, sys
sys.path.insert(0, "tests")
from mvis import VARIANTS, solve
from naive import random_connected_graph
values, nodes = [], 0
for seed in map(int, sys.argv[1:]):
    rng = random.Random(seed)
    n = rng.randint(12, 20)
    g = random_connected_graph(n, rng, rng.uniform(0.05, 0.35))
    for variant in VARIANTS:
        result = solve(g, variant)
        values.append(result.value)
        nodes += result.stats.nodes_explored
print(json.dumps({"values": values, "nodes": nodes}))
"""


def run_child(checkout: Path, child: str, *args: str) -> dict:
    """The JSON line of ``child`` run in a fresh process importing
    ``checkout/src``, from the checkout's root."""
    env = dict(os.environ, PYTHONPATH=str(checkout.resolve() / "src"))
    out = subprocess.run(
        [sys.executable, "-c", child, *args],
        cwd=checkout, env=env, capture_output=True, text=True, check=True,
    ).stdout
    return json.loads(out)


def same(runs: list[dict], key: str, what: str) -> int:
    """The count ``key`` of one side's runs, which must agree."""
    counts = {r[key] for r in runs}
    if len(counts) != 1:
        sys.exit(f"{what}: one side's {key} vary: {counts}")
    return counts.pop()


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    args = ap.parse_args()
    checkouts = (args.parent, args.change)
    rows = []
    total_s = [0.0, 0.0]
    total_nodes = [0, 0]
    total_cap = [0, 0]
    for spec, variant in INSTANCES:
        what = f"{spec} {variant}"
        runs = ([], [])
        for i in range(RUNS):
            for side in ((0, 1), (1, 0))[i % 2]:
                runs[side].append(
                    run_child(checkouts[side], CHILD, spec, variant))
        values = {r["value"] for side in runs for r in side}
        if len(values) != 1:
            sys.exit(f"{what}: the values differ: {values}")
        nodes = [same(side, "nodes", what) for side in runs]
        cap = [same(side, "cap_nodes", what) for side in runs]
        s = [statistics.median(r["s"] for r in side) for side in runs]
        mb = [statistics.median(r["rss_mb"] for r in side) for side in runs]
        rows.append(f"{what:<24}{s[0]:>10.3f}{s[1]:>10.3f}"
                    f"{s[1] / s[0] - 1:>+9.1%}{mb[0]:>11.1f}{mb[1]:>11.1f}"
                    f"{values.pop():>7}{nodes[0]:>14}{nodes[1]:>14}"
                    f"{cap[0]:>12}{cap[1]:>12}")
        for side in (0, 1):
            total_s[side] += s[side]
            total_nodes[side] += nodes[side]
            total_cap[side] += cap[side]
    seeds = [str(seed) for seed in RANDOM_SEEDS]
    rand = [run_child(c, RANDOM_CHILD, *seeds) for c in checkouts]
    if rand[0]["values"] != rand[1]["values"]:
        sys.exit("random slice: the values differ")
    print(f"fixed list nodes: parent {total_nodes[0]}, change "
          f"{total_nodes[1]} ({total_nodes[1] / total_nodes[0] - 1:+.1%})")
    print(f"random slice nodes ({len(seeds)} graphs, every variant): parent "
          f"{rand[0]['nodes']}, change {rand[1]['nodes']}")
    print(f"{'instance':<24}{'parent s':>10}{'change s':>10}{'change':>9}"
          f"{'parent MB':>11}{'change MB':>11}{'value':>7}"
          f"{'parent nodes':>14}{'change nodes':>14}"
          f"{'parent cap':>12}{'change cap':>12}")
    print("\n".join(rows))
    print(f"{'total':<24}{total_s[0]:>10.3f}{total_s[1]:>10.3f}"
          f"{total_s[1] / total_s[0] - 1:>+9.1%}{'':>29}"
          f"{total_nodes[0]:>14}{total_nodes[1]:>14}"
          f"{total_cap[0]:>12}{total_cap[1]:>12}")


if __name__ == "__main__":
    main()
