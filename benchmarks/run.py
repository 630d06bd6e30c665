#!/usr/bin/env python3
"""Benchmark of the ``mvis`` package, run the way its users run it.

    python3 benchmarks/run.py --workload grid-hereditary --seed 1 \\
        --seconds 25 --trace 0

Each run imports ``mvis`` from ``src/`` of the checkout, builds the
workload's inputs, then runs whole passes of the workload's operations
until the next pass would end after ``--seconds`` (at least one pass).
Every output is checked apart from the solver (see ``checks.py``).

``--trace 0`` reports the end-to-end metrics: set-up time (median of
several fresh imports and input builds) and median pass time, both scaled
to a reference host speed (see ``REFERENCE_S``), search nodes of one pass
and peak resident memory. ``--trace 1`` runs one untraced
pass, then traced passes, and reports the per-layer metrics of one traced
set-up plus one traced pass (the median over traced passes), with the
tracing overhead. ``--smoke`` runs one pass of every workload.

The metric names and units are those of ``BENCHMARK.json``. The last line
of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``. Result and trace files go to
``benchmarks/out/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import random
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

import checks
import workloads
from tracer import Bucket, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

#: Fresh imports and input builds timed per run; ``setup_s`` is their median.
SETUP_REPEATS = 25

#: The host's speed drifts by a third within minutes, so both times are
#: scaled to a reference speed: ``pass_s`` and ``setup_s`` are medians
#: times ``REFERENCE_S`` over the median time of :func:`reference_job`,
#: sampled every ``REFERENCE_EVERY_S`` seconds between operations of the
#: same run. ``REFERENCE_S`` is the job's usual time on the reference box
#: (2 cores, Python 3.11).
REFERENCE_S = 0.025
REFERENCE_EVERY_S = 0.4


def _reference_graph(n: int = 15, p: float = 0.3, seed: int = 5):
    rng = random.Random(seed)
    adj = [[] for _ in range(n)]
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                adj[u].append(v)
                adj[v].append(u)
    return adj


REFERENCE_GRAPH = _reference_graph()


def reference_job() -> float:
    """Seconds a fixed bitmask search takes now: the independence number of
    ``REFERENCE_GRAPH`` by subset enumeration, 5 times. It shares no code
    with ``mvis``, so a change to the program does not move it. It tracks
    the host's speed better than a plain arithmetic loop, which was tried
    first and left the spread of ``pass_s`` unchanged."""
    t0 = perf_counter()
    for _ in range(5):
        checks.brute_alpha(REFERENCE_GRAPH)
    return perf_counter() - t0


class ReferenceSampler:
    """Times :func:`reference_job` when ``REFERENCE_EVERY_S`` has passed."""

    def __init__(self):
        self.times = [reference_job() for _ in range(5)]
        self.last = perf_counter()

    def __call__(self) -> None:
        if perf_counter() - self.last >= REFERENCE_EVERY_S:
            self.times.append(reference_job())
            self.last = perf_counter()


class SetupError(Exception):
    """The checkout holds no ``mvis`` source to benchmark."""


def import_mvis():
    """Import ``mvis`` and ``mvis.cli`` afresh from ``src/``."""
    for name in [n for n in sys.modules if n == "mvis" or n.startswith("mvis.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    try:
        mv = importlib.import_module("mvis")
        importlib.import_module("mvis.cli")
    except ImportError as exc:
        raise SetupError(f"cannot import mvis from {SRC}: {exc}") from None
    if Path(mv.__file__).resolve().parent.parent != SRC:
        raise SetupError(f"mvis was imported from {mv.__file__}, not {SRC}")
    return mv


def set_up(workload: str, seed: int, repeats: int):
    """Time ``repeats`` fresh imports plus input builds; keep the last."""
    times = []
    for _ in range(repeats):
        gc.collect()
        t0 = perf_counter()
        import_mvis()
        ops = workloads.build(workload, seed)
        times.append(perf_counter() - t0)
    gc.collect()
    return ops, times


def run_passes(ops, seconds: float, after_op=None, after_pass=None):
    """Whole passes until the next one would end after ``seconds``.

    Returns a list of ``(pass_s, [(op_s, output), ...])``, where ``pass_s``
    is the sum of the operation times, so that ``after_op`` is not counted.
    An operation that raises has the exception as its output. Passes after
    the first keep only what must repeat (:func:`stable`).
    """
    passes = []
    start = perf_counter()
    while True:
        record = []
        for op in ops:
            a = perf_counter()
            try:
                out = op.run()
            except Exception as exc:  # counted as a failed operation
                out = exc
            record.append((perf_counter() - a, out))
            if after_op is not None:
                after_op()
        pass_s = sum(op_s for op_s, _ in record)
        if after_pass is not None:
            after_pass()
        if passes:
            record = [(op_s, stable(op, out)) for op, (op_s, out) in zip(ops, record)]
        passes.append((pass_s, record))
        if perf_counter() - start + pass_s > seconds:
            return passes


# --------------------------------------------------------------------------
# Checking outputs
# --------------------------------------------------------------------------


def _payload(out) -> dict | None:
    """The JSON a command printed, or None."""
    try:
        return json.loads(out[1])
    except json.JSONDecodeError:
        return None


def _problems(op, out) -> list[str]:
    """Problems of one operation's output, checked apart from the solver."""
    if isinstance(out, Exception):
        return [f"raised {out!r}"]
    if op.kind == "solve":
        return checks.check_solve(op.graph, op.params["spec"], op.params["variant"],
                                  out.value, out.witness.ids())
    code, payload = out[0], _payload(out)
    if code != 0 or payload is None:
        return [f"exit code {code}, output {out[1][:200]!r}"]
    if op.kind == "verify":
        return checks.check_verify(payload)
    mv = sys.modules["mvis"]
    if op.kind == "check":
        adj = mv.generate(op.params["spec"]).adj
        return checks.check_verdict(adj, op.params["set"], payload)
    adj = mv.generate(op.params["base"]).adj
    return checks.check_reduce(adj, op.params["t"], payload)


def stable(op, out):
    """What must repeat exactly from pass to pass: a digest of a command's
    output, so that memory does not grow with the number of passes. An
    exception is kept as it is, so that it still counts as a failure."""
    if isinstance(out, Exception):
        return out
    if op.kind == "solve":
        return (out.value, out.witness.ids(), out.stats.nodes_explored,
                out.stats.prunes)
    code, text = out
    payload = _payload(out)
    if op.kind == "verify" and payload is not None:
        text = json.dumps(checks.stable_verify(payload))
    return code, hashlib.sha256(text.encode()).hexdigest()


def check_passes(ops, passes) -> tuple[int, int, list[str]]:
    """(failed, wrong, problems) over every operation of every pass.

    The first pass is checked in full; a later pass must repeat it.
    ``wrong`` counts failures of operations that returned an answer.
    """
    first = [out for _, out in passes[0][1]]
    problems = [_problems(op, out) for op, out in zip(ops, first)]
    solved = {
        (op.params["spec"], op.params["variant"]): out.value
        for op, out in zip(ops, first)
        if op.kind == "solve" and not isinstance(out, Exception)
    }
    for spec, text in checks.check_chain(solved):
        for i, op in enumerate(ops):
            if op.kind == "solve" and op.params["spec"] == spec:
                problems[i].append(text)
    reference = [stable(op, out) for op, out in zip(ops, first)]
    failed = wrong = 0
    report = []
    for k, (_, record) in enumerate(passes):
        for i, (op, (_, out)) in enumerate(zip(ops, record)):
            found = list(problems[i])
            if k and out != reference[i]:
                found.append("differs from the first pass")
            if found:
                failed += 1
                wrong += not isinstance(out, Exception)
                report.append(f"pass {k} {op.label}: " + "; ".join(found))
    return failed, wrong, report


# --------------------------------------------------------------------------
# Metrics
# --------------------------------------------------------------------------


def _solver_stats(op, out):
    """(nodes, solver ms) of each solve an operation reports."""
    if isinstance(out, Exception):
        return []
    if op.kind == "solve":
        return [(out.stats.nodes_explored, out.stats.elapsed_ms)]
    payload = _payload(out) if op.kind == "verify" else None
    if payload is None:
        return []
    return [(r["stats"]["nodes"], r["stats"]["elapsed_ms"])
            for r in payload.get("records", [])]


def search_nodes(ops, record) -> int:
    return sum(nodes for op, (_, out) in zip(ops, record)
               for nodes, _ in _solver_stats(op, out))


def layer_metrics(b: Bucket) -> dict[str, float]:
    """Per-layer metrics of one bucket: ``_ms`` is self time, except for
    ``cli.*_ms``, which is whole-command time and so splits a pass."""
    def ms(name):
        return b.self_ns.get(name, 0) / 1e6

    def calls(name):
        return b.calls.get(name, 0)

    c = b.counts
    pid_calls = c.get("visibility.visible_pid_calls", 0)
    return {
        "solve.calls": calls("solve"),
        "solve.ms": ms("solve"),
        "solve.nodes": c.get("solve.nodes", 0),
        "solve.prunes": c.get("solve.prunes", 0),
        "solve.independence_ms": ms("solve.independence"),
        "visibility.visible_pid_calls": pid_calls,
        "visibility.visible_pid_ms": c.get("visibility.visible_pid_ns", 0) / 1e6,
        "visibility.visible_pid_shortcut_ratio": (
            c.get("visibility.visible_pid_shortcuts", 0) / pid_calls
            if pid_calls else 0.0
        ),
        "visibility.pairvis_build_calls": calls("visibility.pairvis_build"),
        "visibility.pairvis_build_ms": ms("visibility.pairvis_build"),
        "visibility.pairvis_entries": c.get("visibility.pairvis_entries", 0),
        "visibility.classify_calls": calls("visibility.classify"),
        "visibility.classify_ms": ms("visibility.classify"),
        "graphs.apsp_calls": calls("graphs.apsp"),
        "graphs.apsp_ms": ms("graphs.apsp"),
        "families.generate_ms": ms("families.generate"),
        "families.reduction_ms": ms("families.reduction"),
        "oracles.oracle_calls": calls("oracles.oracle"),
        "oracles.oracle_ms": ms("oracles.oracle"),
        "cli.verify_ms": b.total_ns.get("cli.verify", 0) / 1e6,
        "cli.check_ms": b.total_ns.get("cli.check", 0) / 1e6,
        "cli.reduce_ms": b.total_ns.get("cli.reduce", 0) / 1e6,
    }


def reference_metrics(ops, record) -> dict[str, float]:
    """Metrics read off one untraced pass: solver speed, and time and
    nodes per solved instance (0 for instances of other workloads)."""
    metrics = {}
    for instances in workloads.SOLVE_WORKLOADS.values():
        for spec, variant in instances:
            name = workloads.instance_name(spec, variant)
            metrics[f"solve.{name}.ms"] = 0.0
            metrics[f"solve.{name}.nodes"] = 0
    nodes = 0
    solve_ms = 0.0
    for op, (op_s, out) in zip(ops, record):
        for op_nodes, op_ms in _solver_stats(op, out):
            nodes += op_nodes
            solve_ms += op_ms
        if op.kind == "solve" and not isinstance(out, Exception):
            name = workloads.instance_name(op.params["spec"], op.params["variant"])
            metrics[f"solve.{name}.ms"] = op_s * 1000
            metrics[f"solve.{name}.nodes"] = out.stats.nodes_explored
    metrics["solve.nodes_per_s"] = nodes / (solve_ms / 1000) if solve_ms else 0.0
    return metrics


def _median_metrics(dicts: list[dict]) -> dict:
    return {k: statistics.median(d[k] for d in dicts) for k in dicts[0]}


# --------------------------------------------------------------------------
# Runs
# --------------------------------------------------------------------------


def run_untraced(workload: str, seed: int, seconds: float, repeats: int):
    reference = ReferenceSampler()
    ops, setup_times = set_up(workload, seed, repeats)
    passes = run_passes(ops, seconds, after_op=reference)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    wall_s = statistics.median(wall for wall, _ in passes)
    reference_s = statistics.median(reference.times)
    setup_s = statistics.median(setup_times)
    print(f"median pass {wall_s:.4f} s, set-up {setup_s:.4f} s wall; "
          f"reference job {reference_s * 1000:.1f} ms")
    metrics = {
        "setup_s": setup_s * REFERENCE_S / reference_s,
        "pass_s": wall_s * REFERENCE_S / reference_s,
        "search_nodes": search_nodes(ops, passes[0][1]),
        "peak_rss_mb": peak_rss_mb,
    }
    failed, wrong, report = check_passes(ops, passes)
    return metrics, len(ops) * len(passes), failed, wrong, report, None


def run_traced(workload: str, seed: int, seconds: float):
    ops, _ = set_up(workload, seed, 1)
    reference = run_passes(ops, 0)
    tracer = Tracer()
    tracer.install()
    try:
        traced_ops = workloads.build(workload, seed)
        setup_bucket = tracer.take()
        buckets = []
        passes = run_passes(traced_ops, seconds,
                            after_pass=lambda: buckets.append(tracer.take()))
    finally:
        tracer.uninstall()
    ref_wall, ref_record = reference[0]
    traced_s = statistics.median(wall for wall, _ in passes)
    metrics = _median_metrics(
        [layer_metrics(setup_bucket.add(b)) for b in buckets]
    )
    metrics.update(reference_metrics(ops, ref_record))
    metrics["trace.pass_s"] = traced_s
    metrics["trace.overhead_s"] = traced_s - ref_wall
    failed, wrong, report = check_passes(ops, reference)
    t_failed, t_wrong, t_report = check_passes(traced_ops, passes)
    attempted = len(ops) * (1 + len(passes))
    return (metrics, attempted, failed + t_failed, wrong + t_wrong,
            report + t_report, tracer.spans)


def result_line(metrics: dict, section: str, attempted: int, failed: int,
                wrong: int) -> dict:
    """The result object, with exactly the metrics BENCHMARK.json lists."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())[section]
    return {
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
            for m in spec
        },
    }


def run_one(workload: str, seed: int, seconds: float, trace: bool,
            repeats: int) -> dict:
    if trace:
        metrics, attempted, failed, wrong, report, spans = run_traced(
            workload, seed, seconds)
    else:
        metrics, attempted, failed, wrong, report, spans = run_untraced(
            workload, seed, seconds, repeats)
    result = result_line(metrics, "per_layer" if trace else "end_to_end",
                         attempted, failed, wrong)
    for line in report:
        print(f"CHECK FAILED {line}", file=sys.stderr)
    OUT.mkdir(exist_ok=True)
    out_file = OUT / f"{workload}-seed{seed}-trace{int(trace)}.json"
    out_file.write_text(json.dumps(
        {"workload": workload, "seed": seed, "result": result,
         "spans": spans or []}
    ))
    print(f"{workload}: attempted {attempted}, failed {failed}")
    for name, m in result["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="one pass of every workload")
    args = ap.parse_args(argv)
    if args.smoke == (args.workload is not None):
        ap.error("give exactly one of --workload and --smoke")
    names = workloads.WORKLOADS if args.smoke else (args.workload,)
    seconds = 0 if args.smoke else args.seconds
    repeats = 1 if args.smoke else SETUP_REPEATS
    try:
        results = [run_one(w, args.seed, seconds, bool(args.trace), repeats)
                   for w in names]
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for result in results:
        print(json.dumps(result))
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
