"""Cold solves, parent against change, each in a fresh process.

For each of :data:`INSTANCES`, runs ``solve(generate(spec), variant)`` in
a new Python process that imports ``mvis`` from the checkout's own
``src/``, :data:`RUNS` times per checkout, alternating which checkout runs
first (parent first in even runs). The time is that of generating and
solving, so it includes the pair table, the partition and every capacity
search, and no warm reuse.
Prints, per instance and checkout, the median time, the median peak
resident memory of the process and the node count, with the value, and
last a totals row: each side's summed median seconds and summed nodes. The
value must be the same on both sides, and a side's node count the same in
each of its runs; the two sides' node counts may differ. Standard library
only::

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
)

#: Alternating parent/change runs per instance.
RUNS = 5

#: What one fresh process runs; it prints one JSON line.
CHILD = """\
import json, resource, sys, time
from mvis import generate, solve
t0 = time.perf_counter()
result = solve(generate(sys.argv[1]), sys.argv[2])
seconds = time.perf_counter() - t0
print(json.dumps({
    "s": seconds,
    "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    "value": result.value,
    "nodes": result.stats.nodes_explored,
}))
"""


def run_once(checkout: Path, spec: str, variant: str) -> dict:
    """One cold solve in a fresh process importing ``checkout/src``."""
    env = dict(os.environ, PYTHONPATH=str(checkout.resolve() / "src"))
    out = subprocess.run(
        [sys.executable, "-c", CHILD, spec, variant],
        cwd=checkout, env=env, capture_output=True, text=True, check=True,
    ).stdout
    return json.loads(out)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    args = ap.parse_args()
    checkouts = (args.parent, args.change)
    total_s = [0.0, 0.0]
    total_nodes = [0, 0]
    print(f"{'instance':<24}{'parent s':>10}{'change s':>10}{'change':>9}"
          f"{'parent MB':>11}{'change MB':>11}{'value':>7}"
          f"{'parent nodes':>14}{'change nodes':>14}")
    for spec, variant in INSTANCES:
        runs = ([], [])
        for i in range(RUNS):
            for side in ((0, 1), (1, 0))[i % 2]:
                runs[side].append(run_once(checkouts[side], spec, variant))
        values = {r["value"] for side in runs for r in side}
        if len(values) != 1:
            sys.exit(f"{spec} {variant}: the values differ: {values}")
        nodes = []
        for side in runs:
            counts = {r["nodes"] for r in side}
            if len(counts) != 1:
                sys.exit(f"{spec} {variant}: one side's nodes vary: {counts}")
            nodes.append(counts.pop())
        s = [statistics.median(r["s"] for r in side) for side in runs]
        mb = [statistics.median(r["rss_mb"] for r in side) for side in runs]
        print(f"{spec + ' ' + variant:<24}{s[0]:>10.3f}{s[1]:>10.3f}"
              f"{s[1] / s[0] - 1:>+9.1%}{mb[0]:>11.1f}{mb[1]:>11.1f}"
              f"{values.pop():>7}{nodes[0]:>14}{nodes[1]:>14}")
        for side in (0, 1):
            total_s[side] += s[side]
            total_nodes[side] += nodes[side]
    print(f"{'total':<24}{total_s[0]:>10.3f}{total_s[1]:>10.3f}"
          f"{total_s[1] / total_s[0] - 1:>+9.1%}{'':>29}"
          f"{total_nodes[0]:>14}{total_nodes[1]:>14}")


if __name__ == "__main__":
    main()
