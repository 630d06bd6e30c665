"""Parent against change on the benchmark, in alternating pairs.

Runs ``benchmarks/run.py --trace 0`` at its own run length in a parent
checkout and in a change checkout, ten pairs per workload, alternating
which side runs first (parent first in even pairs, change first in odd
pairs), with seed = pair index + 1, and writes one JSON document in the
format of the committed ``BENCH_*.json`` files: for each workload and each
end-to-end metric of the change's ``BENCHMARK.json``, the median and
quartiles (inclusive method) of each side, the relative change of the
median, the metric's bound and how many pairs the change won and lost;
``failed_ops`` and ``attempted_ops`` summed over the runs, and whether
every run was correct. Standard library only::

    python3 tools/pairs.py PARENT CHANGE --out BENCH_18.json \\
        --description "..."

Each checkout is a git work tree with its code committed; a run imports
``mvis`` from the checkout's own ``src/``. Each checkout's runs set
``PYTHONPYCACHEPREFIX`` to a directory of its own, fresh for each run of
the tool, so that ``__pycache__`` files an earlier process left in one
tree cannot make its imports, and so its ``setup_s``, cheaper than the
other's. The document records the parent's ``HEAD`` as ``parent_commit``
and the change's ``HEAD:src`` tree id as ``change_src_tree``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

#: Alternating parent/change pairs per workload.
PAIRS = 10


def run_once(checkout: Path, workload: str, seed: int,
             env: dict[str, str]) -> dict:
    """The result line of one benchmark run in ``checkout`` under the
    environment ``env``, at ``benchmarks/run.py``'s own run length."""
    out = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload,
         "--seed", str(seed), "--trace", "0"],
        cwd=checkout, env=env, capture_output=True, text=True, check=True,
    ).stdout
    return json.loads(out.strip().splitlines()[-1])


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": round(median, 4), "q1": round(q1, 4),
            "q3": round(q3, 4)}


def compare(runs: list[tuple[dict, dict]], metrics: list[dict]) -> dict:
    """One workload's entry from its (parent, change) result pairs."""
    entry = {}
    for metric in metrics:
        name = metric["name"]
        sides = [[r["metrics"][name]["value"] for r in side]
                 for side in zip(*runs)]
        parent, change = summary(sides[0]), summary(sides[1])
        entry[name] = {
            "unit": metric["unit"],
            "parent": parent,
            "change": change,
            "change_vs_parent": round(change["median"] / parent["median"] - 1,
                                      4),
            "bound": metric["bound"],
            "pairs_change_lower": sum(c < p for p, c in zip(*sides)),
            "pairs_change_higher": sum(c > p for p, c in zip(*sides)),
        }
    for key, field in (("failed_ops", "failed"),
                       ("attempted_ops", "attempted")):
        entry[key] = {side: sum(pair[i][field] for pair in runs)
                      for i, side in enumerate(("parent", "change"))}
    entry["correct"] = {side: all(pair[i]["correct"] for pair in runs)
                        for i, side in enumerate(("parent", "change"))}
    return entry


def git(checkout: Path, *args: str) -> str:
    """A git command's output in ``checkout``, stripped."""
    return subprocess.run(["git", "-C", str(checkout), *args],
                          capture_output=True, text=True,
                          check=True).stdout.strip()


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--description", default="")
    args = ap.parse_args()
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    doc = {
        "description": args.description,
        "parent_commit": git(args.parent, "rev-parse", "HEAD"),
        "change_src_tree": git(args.change, "rev-parse", "HEAD:src"),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "pairs": PAIRS,
        "workloads": {},
    }
    checkouts = (args.parent, args.change)
    with tempfile.TemporaryDirectory() as caches:
        envs = [dict(os.environ, PYTHONPYCACHEPREFIX=str(Path(caches) / s))
                for s in ("parent", "change")]
        for workload in (w["name"] for w in spec["workloads"]):
            runs = []
            for i in range(PAIRS):
                pair = [{}, {}]
                for side in ((0, 1), (1, 0))[i % 2]:
                    pair[side] = run_once(checkouts[side], workload, i + 1,
                                          envs[side])
                runs.append(tuple(pair))
                p, c = (r["metrics"]["pass_s"]["value"] for r in runs[-1])
                print(f"{workload} pair {i + 1}: pass_s {p:.4f} -> {c:.4f}",
                      file=sys.stderr)
            doc["workloads"][workload] = compare(runs, spec["end_to_end"])
    args.out.write_text(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    main()
