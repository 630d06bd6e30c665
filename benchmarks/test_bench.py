"""Each check rejects a wrong answer, the tracer's self times add up, and
the smoke mode runs every workload.

Run with ``python3 -m pytest benchmarks``.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import run
import workloads
from tracer import Tracer

HERE = Path(__file__).resolve().parent


@pytest.fixture(scope="module")
def mv():
    return run.import_mvis()


def _solved(mv, spec, variant):
    g = mv.generate(spec)
    res = mv.solve(g, variant)
    return g, res.value, res.witness.ids()


# -- solve results ----------------------------------------------------------


def test_solve_check_accepts_the_solver_answer(mv):
    for spec, variant in (("grid:5x4", "mutual"), ("torus:4x4", "mutual"),
                          ("grid:4x4", "dual")):
        g, value, witness = _solved(mv, spec, variant)
        assert checks.check_solve(g, spec, variant, value, witness) == []


def test_witness_with_one_vertex_swapped_is_rejected(mv):
    g, value, witness = _solved(mv, "grid:5x4", "mutual")
    outside = [v for v in range(g.n) if v not in witness]
    rejected = 0
    for v in outside:
        swapped = sorted(witness[1:] + [v])
        still_mutual = checks.classify(g.adj, swapped)["is_mutual"]
        problems = checks.check_solve(g, "grid:5x4", "mutual", value, swapped)
        assert bool(problems) != still_mutual, (v, problems)
        rejected += not still_mutual
    assert rejected > 0


@pytest.mark.parametrize("spec, variant", [("grid:5x4", "mutual"),
                                           ("torus:4x4", "mutual")])
def test_value_off_by_one_is_rejected(mv, spec, variant):
    g, value, witness = _solved(mv, spec, variant)
    assert checks.check_solve(g, spec, variant, value + 1, witness)
    # One vertex short: a valid set, but not a maximum one. Torus mutual
    # has no table entry, so only the one-vertex extension catches it.
    problems = checks.check_solve(g, spec, variant, value - 1, witness[:-1])
    assert any("still" in p for p in problems)


def test_variant_order_is_checked():
    values = {("g", "mutual"): 3, ("g", "outer"): 4, ("g", "dual"): 2,
              ("g", "total"): 2, ("h", "outer"): 9}
    assert checks.check_chain(values) == [("g", "mutual 3 < outer 4")]


# -- check verdicts -----------------------------------------------------------


def test_classifier_agrees_with_classify_set(mv):
    rng = random.Random(7)
    for spec in ("grid:4x3", "torus:4x4", "gn:3", "ht:2"):
        g = mv.generate(spec)
        for _ in range(20):
            members = rng.sample(range(g.n), rng.randint(1, g.n // 2))
            mine = checks.classify(g.adj, members)
            rep = mv.classify_set(g, members)
            for variant in checks.REQUIRED:
                assert mine[f"is_{variant}"] == rep.holds(variant)
            assert mine["violations"] == {
                k: list(v) for k, v in rep.violations.items()
            }


def test_flipped_check_verdict_is_rejected(mv):
    spec, members = "grid:7x6", [0, 5, 17, 33]
    code, text = workloads.run_cli(
        ["check", spec, "--set", ",".join(map(str, members)), "--json"])
    payload = json.loads(text)
    adj = mv.generate(spec).adj
    assert code == 0
    assert checks.check_verdict(adj, members, payload) == []
    for key in ("is_mutual", "is_total", "is_outer", "is_dual"):
        flipped = {**payload, key: not payload[key]}
        assert checks.check_verdict(adj, members, flipped), key
    variant, (u, v) = next(iter(payload["violations"].items()))
    moved = {**payload, "violations": {**payload["violations"],
                                       variant: [u, v + 1]}}
    assert checks.check_verdict(adj, members, moved)


# -- reduce and verify --------------------------------------------------------


def test_brute_alpha(mv):
    assert [checks.brute_alpha(mv.generate(s).adj)
            for s in ("path:7", "cycle:9", "grid:3x3")] == [4, 4, 5]


def test_wrong_reduction_is_rejected(mv):
    code, text = workloads.run_cli(["reduce", "path:7", "--t", "4", "--json"])
    payload = json.loads(text)
    adj = mv.generate("path:7").adj
    assert code == 0
    assert checks.check_reduce(adj, 4, payload) == []
    for key, wrong in (("alpha", payload["alpha"] + 1),
                       ("solved_total", payload["solved_total"] - 1),
                       ("identity_certified", False)):
        assert checks.check_reduce(adj, 4, {**payload, key: wrong}), key


def test_wrong_verify_report_is_rejected(mv):
    code, text = workloads.run_cli(["verify", "--json"])
    report = json.loads(text)
    assert code == 0
    assert checks.check_verify(report) == []
    summary = {**report["summary"], "disagreements": 1}
    assert checks.check_verify({**report, "summary": summary})
    records = [dict(r) for r in report["records"]]
    r = next(r for r in records if r["solved"] >= 3)
    r["witness"] = r["witness"][:-1]
    problems = checks.check_verify({**report, "records": records})
    assert any(r["instance"] in p for p in problems)


def test_failed_command_is_a_problem():
    op = workloads.Op("reduce", "reduce path:7 t=4", lambda: None,
                      params={"base": "path:7", "t": 4})
    assert run._problems(op, (2, ""))
    assert run._problems(op, (1, "{}"))


# -- tracing --------------------------------------------------------------------


def test_self_time_is_span_time_minus_children():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda: sum(range(20000)))

    def body():
        inner()
        inner()
        return sum(range(20000))

    outer = tracer.wrap("outer", body)
    outer()
    bucket = tracer.take()
    spans = tracer.spans
    assert [s[0] for s in spans] == ["outer", "inner", "inner"]
    assert [s[3] for s in spans] == [-1, 0, 0]
    children = sum(s[2] - s[1] for s in spans[1:])
    assert bucket.calls == {"outer": 1, "inner": 2}
    assert bucket.self_ns["outer"] == bucket.total_ns["outer"] - children
    assert bucket.self_ns["inner"] == bucket.total_ns["inner"] == children


def test_install_patches_every_caller_and_uninstall_restores(mv):
    cli = sys.modules["mvis.cli"]
    solve_mod = sys.modules["mvis.solve"]
    originals = (cli.solve, cli.classify_set, solve_mod.PairVisibility,
                 mv.PairVisibility.visible_pid)
    tracer = Tracer()
    tracer.install()
    try:
        assert cli.solve is not originals[0]
        assert cli.solve is mv.solve is solve_mod.solve
        assert solve_mod.PairVisibility is not originals[2]
        workloads.run_cli(["reduce", "path:7", "--t", "4", "--json"])
    finally:
        tracer.uninstall()
    assert (cli.solve, cli.classify_set, solve_mod.PairVisibility,
            mv.PairVisibility.visible_pid) == originals
    bucket = tracer.take()
    assert bucket.calls["cli.reduce"] == 1
    assert bucket.calls["solve.independence"] == 1
    assert bucket.calls["visibility.classify"] == 1
    assert bucket.counts["visibility.visible_pid_calls"] > 0


# -- whole runs -----------------------------------------------------------------


def test_smoke_runs_every_workload():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    results = [json.loads(line) for line in proc.stdout.splitlines()
               if line.startswith("{")]
    assert len(results) == len(workloads.WORKLOADS)
    for result in results:
        assert result["correct"] and result["failed"] == 0
        assert set(result["metrics"]) == {
            "setup_s", "pass_s", "search_nodes", "peak_rss_mb"}


def test_fails_without_the_program_source(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "dual",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert not proc.stdout.strip()
