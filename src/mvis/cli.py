"""Command-line surface: generate family graphs, classify vertex sets, run
the exact solvers, query the closed-form oracle, build the hardness
reduction, and run the oracle-vs-solver-vs-witness verification sweep.

Exit codes: 0 all agree, 1 disagreement (solver vs table, or a failed
witness), 2 usage error or bad input (a malformed graph file or an
unreadable path), 3 budget exhausted.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys

from .graphs import (
    Graph,
    GraphError,
    VertexSet,
    read_edge_list,
    write_edge_list,
)
from .visibility import VARIANTS, classify_set
from .solve import (
    Incomplete,
    SolveOptions,
    solve,
    solve_independence,
)
from .families import (
    BadParams,
    generate,
    gn_witnesses,
    grid_dual_witness,
    grid_outer_witness,
    parse_family_spec,
    reduction_gprime,
    reduction_witness,
    torus_witnesses,
)
from .oracles import OracleValue, oracle

FORMAT_VERSION = 2

EXIT_OK = 0
EXIT_DISAGREE = 1
EXIT_USAGE = 2
EXIT_INCOMPLETE = 3


def _load_graph(arg: str) -> Graph:
    """A graph argument is an edge-list path or a family spec string."""
    if os.path.exists(arg):
        return read_edge_list(arg)
    try:
        return generate(arg)
    except BadParams as exc:
        raise GraphError(
            f"{arg!r} is neither an existing file nor a family spec: {exc}"
        ) from None


def _parse_set(g: Graph, text: str) -> VertexSet:
    """Vertex set input: comma-separated ids and/or "(i,j)" coordinate
    labels (1-based, usable when the graph carries labels)."""
    tokens: list[str] = []
    depth, cur = 0, ""
    for ch in text:
        if ch == "," and depth == 0:
            tokens.append(cur)
            cur = ""
        else:
            cur += ch
            depth += ch == "("
            depth -= ch == ")"
    if cur.strip():
        tokens.append(cur)
    ids = []
    for tok in tokens:
        tok = tok.strip()
        if not tok:
            continue
        if tok.startswith("("):
            ids.append(g.vertex_by_label(tok.replace(" ", "")))
        else:
            ids.append(int(tok))
    return VertexSet(g.n, ids)


def _budget_ms(args) -> int:
    """``--budget-ms``, else ``MVIS_BUDGET_MS``, else 0 (unlimited)."""
    if args.budget_ms is not None:
        return args.budget_ms
    return int(os.environ.get("MVIS_BUDGET_MS", "0"))


def _solve_opts(args) -> SolveOptions:
    return SolveOptions(
        node_budget=args.budget_nodes,
        time_budget_ms=_budget_ms(args),
    )


def _emit(payload: dict, as_json: bool) -> None:
    if as_json:
        print(json.dumps(payload, indent=2, sort_keys=True))
        return
    for line in _render_text(payload):
        print(line)


def _render_text(payload: dict, indent: int = 0) -> list[str]:
    pad = "  " * indent
    lines = []
    for key, value in payload.items():
        if isinstance(value, dict):
            lines.append(f"{pad}{key}:")
            lines.extend(_render_text(value, indent + 1))
        else:
            lines.append(f"{pad}{key}: {value}")
    return lines


# --------------------------------------------------------------------------
# Subcommands
# --------------------------------------------------------------------------


def cmd_gen(args) -> int:
    g = generate(args.spec)
    write_edge_list(g, args.out)
    print(f"wrote {g.n} vertices, {g.m} edges to {args.out}")
    return EXIT_OK


def cmd_check(args) -> int:
    g = _load_graph(args.graph)
    vs = _parse_set(g, args.set)
    rep = classify_set(g, vs)
    payload = {
        "graph": g.name or args.graph,
        "set": vs.ids(),
        "is_mutual": rep.is_mutual,
        "is_total": rep.is_total,
        "is_outer": rep.is_outer,
        "is_dual": rep.is_dual,
        "violations": {k: list(v) for k, v in rep.violations.items()},
    }
    _emit(payload, args.json)
    return EXIT_OK


def cmd_solve(args) -> int:
    opts = _solve_opts(args)
    g = _load_graph(args.graph)
    try:
        res = solve(g, args.variant, opts)
    except Incomplete as inc:
        payload = {
            "graph": g.name or args.graph,
            "variant": args.variant,
            "incomplete": True,
            "value_certified": inc.value_certified,
            "value_lower_bound": inc.lower_bound,
            "witness": None if inc.value_certified else inc.witness.ids(),
            "stats": _stats_dict(inc.stats),
        }
        if inc.value_certified:
            # Out of budget in the witness phase: the value is exact, but
            # the lex-least witness is unknown.
            payload["value"] = inc.lower_bound
        _emit(payload, args.json)
        return EXIT_INCOMPLETE
    payload = {
        "graph": g.name or args.graph,
        "variant": res.variant,
        "value": res.value,
        "witness": res.witness.ids(),
        "witness_labels": (
            [g.labels[i] for i in res.witness] if g.labels else None
        ),
        "stats": _stats_dict(res.stats),
    }
    _emit(payload, args.json)
    return EXIT_OK


def cmd_oracle(args) -> int:
    val = oracle(args.spec, args.variant)
    payload = {
        "family": args.spec,
        "variant": args.variant,
        "kind": val.kind,
        "value": val.value,
        "source": val.source,
    }
    _emit(payload, args.json)
    return EXIT_OK


def _exact(solver, *args) -> tuple[int, VertexSet]:
    """The value of a solve and a maximum set, also when the budget ran out
    only in the witness phase, where the value is already exact; a budget
    stop before that re-raises :class:`Incomplete`."""
    try:
        res = solver(*args)
    except Incomplete as inc:
        if not inc.value_certified:
            raise
        return inc.lower_bound, inc.witness
    return res.value, res.witness


def cmd_reduce(args) -> int:
    opts = _solve_opts(args)
    base = _load_graph(args.graph)
    record = reduction_gprime(base, args.t)
    gp = record.gprime
    if args.out:
        write_edge_list(gp, args.out)
    payload = {
        "base": base.name or args.graph,
        "t": args.t,
        "gprime_order": gp.n,
        "gprime_edges": gp.m,
    }
    try:
        # Any maximum independent set builds the reduction's witness.
        alpha, alpha_set = _exact(solve_independence, base, opts)
        witness = reduction_witness(record, alpha_set)
        expected = (base.m + 1) * args.t + alpha
        s_total = classify_set(gp, witness).is_total
        payload.update(
            alpha=alpha,
            expected_value=expected,
            witness_size=witness.card,
            witness_is_total=s_total,
        )
        total, _ = _exact(solve, gp, "total", opts)
    except Incomplete as inc:
        solved = "alpha" if inc.variant == "independence" else "solved_total"
        payload[f"{solved}_lower_bound"] = inc.lower_bound
        payload["identity_certified"] = None
        _emit(payload, args.json)
        return EXIT_INCOMPLETE
    payload["solved_total"] = total
    payload["identity_certified"] = total == expected
    _emit(payload, args.json)
    if not s_total or total != expected:
        return EXIT_DISAGREE
    return EXIT_OK


# --------------------------------------------------------------------------
# The verification sweep
# --------------------------------------------------------------------------


def _stats_dict(stats) -> dict:
    """The ``SearchStats`` fields in order, ``nodes_explored`` as ``nodes``
    and ``elapsed_ms`` rounded."""
    out = {"nodes" if f.name == "nodes_explored" else f.name:
           getattr(stats, f.name) for f in dataclasses.fields(stats)}
    out["elapsed_ms"] = round(out["elapsed_ms"], 2)
    return out


def _witness_for(spec: str, variant: str) -> VertexSet | None:
    """Constructed witness for instances that have one, else None."""
    fam = parse_family_spec(spec)
    try:
        if fam.kind == "grid":
            n, m = fam.params
            if variant == "outer":
                return grid_outer_witness(n, m)
            if variant == "dual":
                return grid_dual_witness(n, m)
        elif fam.kind == "torus":
            n, m = fam.params
            return torus_witnesses(n, m, variant)
        elif fam.kind == "gn":
            return gn_witnesses(fam.params[0], variant)
    except GraphError:
        return None
    return None


def _verify_record(g: Graph, spec: str, variant: str, ora: OracleValue,
                   opts: SolveOptions) -> dict:
    """Solve one sweep instance on its generated graph and compare the
    result, and any constructed witness, with the oracle value."""
    record = {
        "instance": spec,
        "variant": variant,
        "oracle": {"kind": ora.kind, "value": ora.value, "source": ora.source},
    }
    try:
        res = solve(g, variant, opts)
        value, witness, stats = res.value, res.witness.ids(), res.stats
    except Incomplete as inc:
        if not inc.value_certified:
            record.update(
                incomplete=True,
                solved_lower_bound=inc.lower_bound,
                agree=None,
                stats=_stats_dict(inc.stats),
            )
            return record
        # The budget ran out in the witness phase: the value is exact and
        # is compared, but there is no lex-least witness.
        value, witness, stats = inc.lower_bound, None, inc.stats
    record.update(
        incomplete=False,
        solved=value,
        witness=witness,
        agree=ora.agrees_with(value),
        stats=_stats_dict(stats),
    )
    built = _witness_for(spec, variant)
    if built is not None:
        rep = classify_set(g, built)
        record["constructed_witness"] = built.ids()
        record["constructed_witness_ok"] = rep.holds(variant) and (
            ora.kind != "exact" or built.card == ora.value
        )
    return record


#: The family groups ``verify --families`` can name.
_VERIFY_FAMILIES = ("cycles", "paths", "trees", "grids", "tori", "gn", "ht")

#: The tori whose outer number the sweep checks against the oracle's bound.
_OUTER_TORI = ((4, 3), (4, 4), (5, 3), (5, 4))


def _verify_instances(args) -> dict[str, list[tuple[str, OracleValue]]]:
    """The instance grid for the sweep, bounded by the scope flags: per
    family spec, its (variant, oracle value) pairs with a covered value."""
    scope = (set(args.families.split(",")) if args.families
             else set(_VERIFY_FAMILIES))
    unknown = scope.difference(_VERIFY_FAMILIES)
    if unknown:
        raise ValueError(
            f"unknown families {', '.join(sorted(unknown))}; "
            f"choose from {','.join(_VERIFY_FAMILIES)}"
        )
    instances: dict[str, list[tuple[str, OracleValue]]] = {}

    def add(spec: str, variant: str) -> None:
        val = oracle(spec, variant)
        if val.kind != "unknown":
            instances.setdefault(spec, []).append((variant, val))

    if "cycles" in scope:
        for n in range(3, args.max_cycle + 1):
            for variant in VARIANTS:
                add(f"cycle:{n}", variant)
    if "paths" in scope:
        for n in range(2, 9):
            for variant in VARIANTS:
                add(f"path:{n}", variant)
    if "trees" in scope:
        for k in range(args.trees):
            for variant in VARIANTS:
                add(f"random_tree:{args.tree_size}:seed={args.seed + k}", variant)
    if "grids" in scope:
        for n in range(2, args.max_grid + 1):
            for m in range(2, n + 1):
                for variant in VARIANTS:
                    add(f"grid:{n}x{m}", variant)
    if "tori" in scope:
        for n in range(3, args.max_torus + 1):
            for m in range(3, n + 1):
                add(f"torus:{n}x{m}", "dual")
                add(f"torus:{n}x{m}", "total")
                if (n, m) in _OUTER_TORI:
                    add(f"torus:{n}x{m}", "outer")
    if "gn" in scope:
        for n in (2, 3, 4):
            for variant in VARIANTS:
                add(f"gn:{n}", variant)
    if "ht" in scope:
        add("ht:2", "dual")
        add("ht:2", "outer")
    return instances


def cmd_verify(args) -> int:
    opts = _solve_opts(args)
    records = []
    for spec, checks in _verify_instances(args).items():
        g = generate(spec)
        records += [_verify_record(g, spec, variant, ora, opts)
                    for variant, ora in checks]
    records.sort(key=lambda r: (r["instance"], r["variant"]))

    incomplete = sum(1 for r in records if r["incomplete"])
    disagreements = [
        r for r in records
        if r["agree"] is False or r.get("constructed_witness_ok") is False
    ]
    report = {
        "format_version": FORMAT_VERSION,
        "command": " ".join(getattr(args, "argv", ["verify"])),
        "records": records,
        "summary": {
            "instances": len(records),
            "agreements": sum(1 for r in records if r["agree"] is True),
            "disagreements": len(disagreements),
            "incomplete": incomplete,
        },
    }
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        for r in records:
            status = (
                "INCOMPLETE" if r["incomplete"]
                else "ok" if r["agree"] and r.get("constructed_witness_ok", True)
                else "DISAGREE"
            )
            got = r.get("solved", r.get("solved_lower_bound"))
            print(
                f"{r['instance']:>22} {r['variant']:>7} "
                f"oracle={r['oracle']['value']} solved={got} {status}"
            )
        s = report["summary"]
        print(
            f"instances={s['instances']} agreements={s['agreements']} "
            f"disagreements={s['disagreements']} incomplete={s['incomplete']}"
        )
    if disagreements:
        return EXIT_DISAGREE
    if incomplete:
        return EXIT_INCOMPLETE
    return EXIT_OK


# --------------------------------------------------------------------------
# Argument parsing
# --------------------------------------------------------------------------


def _add_budget_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--budget-nodes", type=int, default=0,
                   help="max search nodes (0 = unlimited)")
    p.add_argument("--budget-ms", type=int, default=None,
                   help="max solve milliseconds (default MVIS_BUDGET_MS or unlimited)")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing does not change
    it, so every :func:`main` call shares it. It names the subcommand in
    ``command``; :func:`main` looks up its ``cmd_`` function at each call."""
    ap = argparse.ArgumentParser(
        prog="mvis",
        description="exact mutual-visibility invariants: generators, solvers, "
                    "oracles, and a verification harness",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="write a family graph as an edge list")
    p.add_argument("spec", help='family spec, e.g. "grid:4x3", "gn:2"')
    p.add_argument("out", help="output edge-list path")

    p = sub.add_parser("check", help="classify a vertex set under all four variants")
    p.add_argument("graph", help="edge-list path or family spec")
    p.add_argument("--set", required=True,
                   help='ids and/or coordinates: "0,1,2" or "(1,1),(2,3)"')
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("solve", help="exact value and witness for one variant")
    p.add_argument("graph", help="edge-list path or family spec")
    p.add_argument("--variant", required=True, choices=VARIANTS)
    p.add_argument("--json", action="store_true")
    _add_budget_flags(p)

    p = sub.add_parser("oracle", help="closed-form value for a family instance")
    p.add_argument("spec", help="family spec string")
    p.add_argument("--variant", required=True, choices=VARIANTS)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("verify", help="oracle-vs-solver-vs-witness sweep")
    p.add_argument("--families", default=None,
                   help="comma list from " + ",".join(_VERIFY_FAMILIES))
    p.add_argument("--max-cycle", type=int, default=10)
    p.add_argument("--max-grid", type=int, default=5)
    p.add_argument("--max-torus", type=int, default=6)
    p.add_argument("--trees", type=int, default=5, help="random tree count")
    p.add_argument("--tree-size", type=int, default=12)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="write the JSON report here")
    p.add_argument("--json", action="store_true")
    _add_budget_flags(p)

    p = sub.add_parser("reduce", help="build the hardness-reduction graph and "
                                      "certify its identity")
    p.add_argument("graph", help="base graph: edge-list path or family spec")
    p.add_argument("--t", type=int, required=True, help="clique parameter, >= 3")
    p.add_argument("--out", default=None, help="write the reduction edge list here")
    p.add_argument("--json", action="store_true")
    _add_budget_flags(p)

    return ap


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    args = ap.parse_args(argv)
    args.argv = argv
    # Looked up now, not when the shared parser was built, so a command
    # function replaced on this module since then is the one that runs.
    command = globals()[f"cmd_{args.command}"]
    try:
        return command(args)
    except (GraphError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
