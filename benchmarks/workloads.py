"""The four workloads, each a fixed list of operations built from a seed.

A pass runs the list once, serially, in one process. The solve workloads
call ``mvis.solve`` on fixed instances, built during set-up, in a fixed
order: the seed does not change them, so their node counts repeat exactly
from run to run. ``cli-sweep`` calls ``mvis.cli.main`` as the command line
does; its seed draws the vertex sets given to ``check`` and the order of
its operations.
"""

from __future__ import annotations

import contextlib
import io
import random
import sys
from dataclasses import dataclass, field
from typing import Callable

#: (family spec, variant) per solve workload; why each is there is in the
#: README. A pass takes about 2 s, so that a run holds ten or more passes
#: and its median rests on more than the three to five samples that
#: passes of 5 to 6 s gave. Larger instances (grid:6x6 and torus:6x5
#: mutual take over 20 s each) are left out.
SOLVE_WORKLOADS = {
    "grid-hereditary": (
        ("grid:5x5", "mutual"),
        ("grid:6x4", "mutual"),
        ("grid:7x4", "mutual"),
        ("grid:6x6", "outer"),
        ("grid:5x5", "outer"),
        ("grid:6x4", "outer"),
    ),
    "torus-hereditary": (
        ("torus:5x5", "mutual"),
        ("torus:5x4", "mutual"),
        ("torus:6x4", "outer"),
        ("torus:5x5", "outer"),
        ("torus:5x4", "outer"),
    ),
    "dual": (
        ("ht:3", "dual"),
        ("grid:8x8", "dual"),
        ("torus:6x4", "dual"),
        ("pathprod:3x3x3", "dual"),
        ("gn:4", "dual"),
    ),
}

#: Graphs that ``cli-sweep`` classifies random vertex sets on.
CHECK_GRAPHS = ("grid:7x6", "torus:6x6", "ht:3", "grid:8x8")
CHECKS_PER_GRAPH = 12
CHECK_SET_SIZES = (2, 10)

#: (base graph, clique parameter t) for ``mvis reduce``.
REDUCTIONS = (("path:7", 4), ("grid:3x3", 3), ("cycle:9", 4))

WORKLOADS = (*SOLVE_WORKLOADS, "cli-sweep")


@dataclass
class Op:
    """One operation of a pass.

    ``kind`` is ``solve``, ``verify``, ``check`` or ``reduce``; ``label``
    names it in reports. ``graph`` is the solved graph (solve operations);
    ``params`` holds what the checks need: spec and variant for a solve,
    spec and set for a check, base and t for a reduction.
    """

    kind: str
    label: str
    run: Callable[[], object]
    graph: object = None
    params: dict = field(default_factory=dict)


def instance_name(spec: str, variant: str) -> str:
    """Metric-safe instance name, e.g. ``grid-6x6.mutual``."""
    return f"{spec.replace(':', '-')}.{variant}"


def run_cli(argv: list[str]) -> tuple[int, str]:
    """``mvis.cli.main`` in process; its exit code and standard output."""
    cli = sys.modules["mvis.cli"]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(argv))
    return code, buf.getvalue()


def build(name: str, seed: int) -> list[Op]:
    """The operation list of workload ``name``; the set-up work is here."""
    if name in SOLVE_WORKLOADS:
        return _solve_ops(SOLVE_WORKLOADS[name])
    if name == "cli-sweep":
        rng = random.Random(seed)
        ops = _cli_ops(rng)
        rng.shuffle(ops)
        return ops
    raise ValueError(f"unknown workload {name!r}")


def _solve_ops(instances) -> list[Op]:
    mv = sys.modules["mvis"]
    graphs = {}
    for spec, _ in instances:
        if spec not in graphs:
            g = mv.generate(spec)
            mv.all_pairs_distances(g)
            graphs[spec] = g
    ops = []
    for spec, variant in instances:
        g = graphs[spec]
        ops.append(Op(
            kind="solve",
            label=f"{spec} {variant}",
            run=lambda g=g, variant=variant: mv.solve(g, variant),
            graph=g,
            params={"spec": spec, "variant": variant},
        ))
    return ops


def _cli_ops(rng: random.Random) -> list[Op]:
    mv = sys.modules["mvis"]
    ops = [Op("verify", "verify", lambda: run_cli(["verify", "--json"]))]
    for spec in CHECK_GRAPHS:
        n = mv.generate(spec).n
        for _ in range(CHECKS_PER_GRAPH):
            members = sorted(rng.sample(range(n), rng.randint(*CHECK_SET_SIZES)))
            argv = ["check", spec, "--set", ",".join(map(str, members)), "--json"]
            ops.append(Op(
                "check", f"check {spec} {members}",
                lambda argv=argv: run_cli(argv),
                params={"spec": spec, "set": members},
            ))
    for base, t in REDUCTIONS:
        argv = ["reduce", base, "--t", str(t), "--json"]
        ops.append(Op(
            "reduce", f"reduce {base} t={t}",
            lambda argv=argv: run_cli(argv),
            params={"base": base, "t": t},
        ))
    return ops
