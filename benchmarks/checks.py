"""Correctness checks made apart from the solver.

Each check returns a list of problems; an empty list means the output
passed. The checks rest on:

* ``classify_set``, which is constrained BFS and shares no code with the
  search: a witness must hold its variant, and adding any one vertex to it
  must break the variant, as it must for a maximum set;
* the closed-form tables of ``mvis.oracles``, where they are exact, and the
  torus outer upper bound;
* the orders mutual >= outer >= total and mutual >= dual >= total between
  the variants of one graph;
* :func:`classify`, a classifier of its own that walks the distance layers
  of each source (it does not use ``classify_set``), for ``check`` verdicts;
* :func:`brute_alpha`, subset enumeration, for the independence number that
  ``reduce`` relies on.

``mvis`` is looked up when a check runs, not when this module is imported,
because the benchmark imports ``mvis`` afresh while it times set-up.
"""

from __future__ import annotations

import sys
from collections import deque

#: Values the default ``mvis verify`` sweep must report.
VERIFY_INSTANCES = 147

#: (larger, smaller): the first variant's value is never below the second's.
CHAIN = (("mutual", "outer"), ("outer", "total"),
         ("mutual", "dual"), ("dual", "total"))

#: Pairs that must stay visible, per variant, given whether u and v are in X.
REQUIRED = {
    "mutual": lambda a, b: a and b,
    "total": lambda a, b: True,
    "outer": lambda a, b: a or b,
    "dual": lambda a, b: a == b,
}


def _mvis():
    return sys.modules["mvis"]


# --------------------------------------------------------------------------
# Solve results
# --------------------------------------------------------------------------


def check_solve(g, spec: str, variant: str, value: int,
                witness: list[int]) -> list[str]:
    """A solved (value, witness) against classify_set and the tables."""
    mv = _mvis()
    problems = []
    ws = mv.VertexSet(g.n, witness)
    if ws.card != value:
        problems.append(f"witness has {ws.card} vertices, value is {value}")
    if not mv.classify_set(g, ws).holds(variant):
        problems.append(f"witness {ws.ids()} is not a {variant} set")
    else:
        for v in range(g.n):
            if v not in ws and mv.classify_set(g, ws.with_vertex(v)).holds(variant):
                problems.append(f"witness plus vertex {v} is still {variant}")
                break
    table = mv.oracle(spec, variant)
    if table.kind == "exact" and value != table.value:
        problems.append(f"value {value}, table gives {table.value} ({table.source})")
    elif table.kind == "upper_bound" and value > table.value:
        problems.append(f"value {value} above the bound {table.value} ({table.source})")
    elif table.kind == "lower_bound" and value < table.value:
        problems.append(f"value {value} below the bound {table.value} ({table.source})")
    return problems


def check_chain(values: dict[tuple[str, str], int]) -> list[tuple[str, str]]:
    """The variant orders among the values solved for the same graph, as
    (graph, problem) pairs."""
    problems = []
    for (spec, variant), value in values.items():
        for big, small in CHAIN:
            other = values.get((spec, small))
            if variant == big and other is not None and value < other:
                problems.append((spec, f"{big} {value} < {small} {other}"))
    return problems


# --------------------------------------------------------------------------
# The independent classifier and ``check`` verdicts
# --------------------------------------------------------------------------


def distances(adj) -> list[list[int]]:
    n = len(adj)
    rows = []
    for s in range(n):
        dist = [-1] * n
        dist[s] = 0
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for w in adj[u]:
                if dist[w] < 0:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        rows.append(dist)
    return rows


def visible_from(adj, dist_u: list[int], u: int, members: set[int]) -> list[bool]:
    """``ok[v]``: some u,v-geodesic has no vertex of X strictly inside.

    Vertices are taken in order of distance from u; v is reachable when a
    neighbour one layer closer is u itself, or is outside X and reachable.
    """
    n = len(adj)
    ok = [False] * n
    through = [False] * n  # reachable and passable
    ok[u] = through[u] = True
    for z in sorted(range(n), key=dist_u.__getitem__):
        if z == u:
            continue
        dz = dist_u[z] - 1
        ok[z] = any(through[y] for y in adj[z] if dist_u[y] == dz)
        through[z] = ok[z] and z not in members
    return ok


def classify(adj, members) -> dict:
    """Flags and lexicographically first violating pair, per variant."""
    n = len(adj)
    x = set(members)
    dist = distances(adj)
    rows = [visible_from(adj, dist[u], u, x) for u in range(n)]
    report = {"violations": {}}
    for variant, required in REQUIRED.items():
        first = next(
            (
                [u, v]
                for u in range(n)
                for v in range(u + 1, n)
                if required(u in x, v in x) and not rows[u][v]
            ),
            None,
        )
        report[f"is_{variant}"] = first is None
        if first is not None:
            report["violations"][variant] = first
    return report


def check_verdict(adj, members: list[int], payload: dict) -> list[str]:
    """A ``mvis check --json`` payload against :func:`classify`."""
    problems = []
    if payload.get("set") != sorted(members):
        problems.append(f"set read back as {payload.get('set')}")
    expected = classify(adj, members)
    for key, value in expected.items():
        if payload.get(key) != value:
            problems.append(f"{key}: got {payload.get(key)}, expected {value}")
    return problems


# --------------------------------------------------------------------------
# ``reduce`` and ``verify``
# --------------------------------------------------------------------------


def brute_alpha(adj) -> int:
    """Independence number by enumerating every vertex subset."""
    n = len(adj)
    masks = [sum(1 << w for w in nbrs) for nbrs in adj]
    best = 0
    for s in range(1 << n):
        size = s.bit_count()
        if size <= best:
            continue
        rest = s
        while rest:
            low = rest & -rest
            if masks[low.bit_length() - 1] & s:
                break
            rest ^= low
        else:
            best = size
    return best


def check_reduce(base_adj, t: int, payload: dict) -> list[str]:
    """A ``mvis reduce --json`` payload: the identity (m+1)t + alpha, with
    alpha enumerated here and the order of G' counted from its parts."""
    n = len(base_adj)
    m = sum(len(a) for a in base_adj) // 2
    alpha = brute_alpha(base_adj)
    expected = (m + 1) * t + alpha
    want = {
        "alpha": alpha,
        "expected_value": expected,
        "solved_total": expected,
        "witness_size": expected,
        "witness_is_total": True,
        "identity_certified": True,
        "gprime_order": n + m + (t + 1) + m * t,
    }
    return [
        f"{key}: got {payload.get(key)}, expected {value}"
        for key, value in want.items()
        if payload.get(key) != value
    ]


def check_verify(report: dict) -> list[str]:
    """The default sweep agrees everywhere, and every witness it reports
    is a set of its variant with the solved size."""
    mv = _mvis()
    problems = []
    want = {"instances": VERIFY_INSTANCES, "agreements": VERIFY_INSTANCES,
            "disagreements": 0, "incomplete": 0}
    summary = report.get("summary", {})
    for key, value in want.items():
        if summary.get(key) != value:
            problems.append(f"summary {key}: got {summary.get(key)}, expected {value}")
    graphs = {}
    for r in report.get("records", []):
        spec, variant = r["instance"], r["variant"]
        if spec not in graphs:
            graphs[spec] = mv.generate(spec)
        g = graphs[spec]
        witness = r.get("witness")
        if witness is None or len(witness) != r.get("solved"):
            problems.append(f"{spec} {variant}: witness {witness} for value {r.get('solved')}")
        elif not mv.classify_set(g, witness).holds(variant):
            problems.append(f"{spec} {variant}: witness {witness} is not {variant}")
    return problems


def stable_verify(report: dict) -> dict:
    """The report without its timings, for comparing passes."""
    records = [
        {k: ({**v, "elapsed_ms": None} if k == "stats" else v)
         for k, v in r.items()}
        for r in report["records"]
    ]
    return {**report, "records": records}
