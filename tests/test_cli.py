import dataclasses
import itertools
import json
import random
import sys
from types import SimpleNamespace

import pytest

import mvis.cli
import mvis.graphs
from mvis import (
    Incomplete,
    SolveOptions,
    generate,
    read_edge_list,
    reduction_gprime,
    solve,
    solve_independence,
    write_edge_list,
)
from mvis.cli import _verify_record, build_parser, main
from mvis.oracles import OracleValue, oracle
from mvis.solve import _capacity, _part_graph

from test_solve import value_phase_nodes


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


class TestParser:
    def test_every_call_shares_one_parser(self, capsys):
        assert build_parser() is build_parser()
        # Parsing leaves nothing behind: a flag of one call is not set in
        # the next, and the next call's own defaults hold.
        code, payload = run_json(capsys, "solve", "cycle:5", "--variant",
                                 "mutual", "--json", "--budget-nodes", "1")
        assert code == 3 and payload["incomplete"] is True
        code, out = run(capsys, "solve", "cycle:5", "--variant", "mutual")
        assert code == 0
        assert out.startswith("graph: cycle:5\n")
        assert "value: 3\n" in out

    def test_command_replaced_after_the_parser_is_built_runs(
            self, monkeypatch):
        # A tracer wraps the command functions on the module; the shared
        # parser must not hold on to the ones it was built with.
        build_parser()
        specs = []
        monkeypatch.setattr(mvis.cli, "cmd_oracle",
                            lambda args: specs.append(args.spec) or 0)
        assert main(["oracle", "grid:3x3", "--variant", "mutual"]) == 0
        assert specs == ["grid:3x3"]


class TestGen:
    def test_round_trip(self, tmp_path, capsys):
        out = str(tmp_path / "g.el")
        code, _ = run(capsys, "gen", "grid:4x3", out)
        assert code == 0
        g = read_edge_list(out)
        ref = generate("grid:4x3")
        assert g.edges() == ref.edges()
        assert g.labels == ref.labels
        assert g.name == ref.name

    def test_gn_gen(self, tmp_path, capsys):
        out = str(tmp_path / "gn.el")
        code, _ = run(capsys, "gen", "gn:2", out)
        assert code == 0
        assert read_edge_list(out).n == 8

    def test_gprime_gen_from_file(self, tmp_path, capsys):
        base = str(tmp_path / "p5.el")
        out = str(tmp_path / "gp.el")
        write_edge_list(generate("path:5"), base)
        code, _ = run(capsys, "gen", f"gprime:{base}:t=3", out)
        assert code == 0
        assert read_edge_list(out).n == 25

    def test_bad_spec_usage_error(self, tmp_path, capsys):
        code = main(["gen", "blorp:9", str(tmp_path / "x.el")])
        assert code == 2

    def test_extra_spec_field_usage_error(self, tmp_path, capsys):
        assert main(["gen", "gn:3:seed=2", str(tmp_path / "x.el")]) == 2
        assert "error:" in capsys.readouterr().err


class TestCheck:
    def test_c6_adjacent_dual(self, capsys):
        code, payload = run_json(capsys, "check", "cycle:6", "--set", "0,1", "--json")
        assert code == 0
        assert payload["is_dual"] is True
        assert payload["is_total"] is False

    def test_path_endpoints_total(self, capsys):
        code, payload = run_json(capsys, "check", "path:5", "--set", "0,4", "--json")
        assert payload["is_total"] is True

    def test_coordinate_input(self, tmp_path, capsys):
        out = str(tmp_path / "g.el")
        main(["gen", "grid:4x3", out])
        capsys.readouterr()
        code, payload = run_json(
            capsys, "check", out,
            "--set", "(1,1),(2,1),(4,2),(4,3),(1,3)", "--json",
        )
        assert code == 0
        assert payload["is_dual"] is True
        assert sorted(payload["set"]) == payload["set"]

    def test_violations_reported(self, capsys):
        code, payload = run_json(capsys, "check", "cycle:5", "--set", "0", "--json")
        assert payload["is_dual"] is False
        assert "dual" in payload["violations"]


class TestSolve:
    def test_torus_dual(self, capsys):
        code, payload = run_json(
            capsys, "solve", "torus:5x3", "--variant", "dual", "--json"
        )
        assert code == 0
        assert payload["value"] == 2

    def test_grid_outer(self, capsys):
        code, payload = run_json(
            capsys, "solve", "grid:6x6", "--variant", "outer", "--json"
        )
        assert payload["value"] == 8

    def test_ht_outer(self, capsys):
        code, payload = run_json(
            capsys, "solve", "ht:2", "--variant", "outer", "--json"
        )
        assert payload["value"] == 8

    def test_budget_exhaustion_exit_code(self, capsys):
        code, payload = run_json(
            capsys, "solve", "grid:5x5", "--variant", "mutual",
            "--budget-nodes", "40", "--json",
        )
        assert code == 3
        assert payload["incomplete"] is True
        assert payload["value_lower_bound"] <= 10

    def test_env_budget(self, capsys, monkeypatch):
        monkeypatch.setenv("MVIS_BUDGET_MS", "1")
        code, payload = run_json(
            capsys, "solve", "grid:6x6", "--variant", "mutual", "--json"
        )
        assert code == 3

    def test_budget_out_in_witness_phase_reports_value(self, capsys):
        g = generate("grid:4x4")
        budget = value_phase_nodes(g, "mutual")
        code, payload = run_json(
            capsys, "solve", "grid:4x4", "--variant", "mutual",
            "--budget-nodes", str(budget), "--json",
        )
        assert code == 3
        assert payload["incomplete"] is True
        assert payload["value_certified"] is True
        assert payload["value"] == payload["value_lower_bound"] == 8
        assert payload["witness"] is None

    def test_stats_show_bound_prunes(self, capsys):
        code, payload = run_json(
            capsys, "solve", "grid:7x4", "--variant", "mutual", "--json"
        )
        assert code == 0
        assert 0 < payload["stats"]["bound_prunes"] <= payload["stats"]["prunes"]

    def test_stats_show_image_prunes(self, capsys):
        code, payload = run_json(
            capsys, "solve", "torus:5x5", "--variant", "mutual", "--json"
        )
        assert code == 0
        stats = payload["stats"]
        assert 0 < stats["image_prunes"] <= stats["bound_prunes"]

    def test_stats_show_merged_prunes(self, capsys):
        # torus:5x5 mutual's merged partition joins a C5 x P2 part and a C5
        # into a convex C5 x P3; its cuts are counted apart from the image's.
        code, payload = run_json(
            capsys, "solve", "torus:5x5", "--variant", "mutual", "--json"
        )
        assert code == 0
        stats = payload["stats"]
        assert 0 < stats["merged_prunes"]
        assert 0 < stats["image_prunes"]
        assert stats["image_prunes"] + stats["merged_prunes"] <= (
            stats["bound_prunes"])

    def test_stats_show_orbit_prunes(self, capsys):
        code, payload = run_json(
            capsys, "solve", "torus:5x5", "--variant", "mutual", "--json"
        )
        assert code == 0
        assert 0 < payload["stats"]["orbit_prunes"] <= payload["stats"]["prunes"]
        assert "method" not in payload

    def test_stats_show_doll_prunes(self, capsys):
        code, payload = run_json(
            capsys, "solve", "torus:5x5", "--variant", "mutual", "--json"
        )
        assert code == 0
        assert 0 < payload["stats"]["doll_prunes"] <= payload["stats"]["prunes"]

    def test_stats_show_witness_phase(self, capsys):
        code, payload = run_json(
            capsys, "solve", "grid:4x4", "--variant", "mutual", "--json"
        )
        assert code == 0
        stats = payload["stats"]
        assert "witness_queries" not in stats
        assert 0 < stats["witness_nodes"] < stats["nodes"]

    def test_value_search_set_is_the_witness(self, capsys):
        # The dual search builds no doll table, so its value search finds
        # the value and its last set is the witness: no witness query runs.
        code, payload = run_json(
            capsys, "solve", "grid:8x8", "--variant", "dual", "--json"
        )
        assert code == 0
        assert payload["value"] == 5
        assert payload["stats"]["witness_nodes"] == 0

    def test_no_command_takes_parallel(self):
        for argv in (["solve", "cycle:5", "--variant", "dual"],
                     ["reduce", "path:3", "--t", "3"], ["verify"]):
            with pytest.raises(SystemExit) as exc:
                main([*argv, "--parallel", "2"])
            assert exc.value.code == 2


class TestOracleCmd:
    def test_oracle(self, capsys):
        code, payload = run_json(
            capsys, "oracle", "torus:7x5", "--variant", "outer", "--json"
        )
        assert payload["kind"] == "upper_bound" and payload["value"] == 10

    def test_out_of_range_spec_is_a_usage_error(self, capsys):
        for spec in ("cycle:2", "torus:2x2", "complete:0"):
            assert main(["oracle", spec, "--variant", "mutual"]) == 2
            assert "error:" in capsys.readouterr().err


class TestReduce:
    def test_p3_identity(self, tmp_path, capsys):
        out = str(tmp_path / "gp.el")
        code, payload = run_json(
            capsys, "reduce", "path:3", "--t", "3", "--out", out, "--json"
        )
        assert code == 0
        assert payload["gprime_order"] == 15
        assert payload["alpha"] == 2
        assert payload["expected_value"] == 11
        assert payload["witness_is_total"] is True
        assert payload["solved_total"] == 11
        assert payload["identity_certified"] is True
        assert read_edge_list(out).n == 15

    def test_k3_witness_size(self, capsys):
        code, payload = run_json(
            capsys, "reduce", "complete:3", "--t", "3", "--json"
        )
        assert payload["alpha"] == 1
        assert payload["witness_size"] == (3 + 1) * 3 + 1  # 13

    def test_alpha_budget_out_reports_lower_bound(self, capsys):
        code, payload = run_json(
            capsys, "reduce", "grid:3x3", "--t", "3", "--budget-nodes", "3",
            "--json",
        )
        assert code == 3
        assert 0 < payload["alpha_lower_bound"] <= 5
        assert payload["identity_certified"] is None
        assert "alpha" not in payload

    def test_certified_total_is_exact(self, capsys):
        # A budget that certifies the total's value but runs out in its
        # witness phase; the identity needs the value only.
        gp = reduction_gprime(generate("path:4"), 3).gprime
        budget = value_phase_nodes(gp, "total")
        with pytest.raises(Incomplete) as exc:
            solve(gp, "total", SolveOptions(node_budget=budget))
        assert exc.value.value_certified
        assert solve_independence(
            generate("path:4"), SolveOptions(node_budget=budget)
        ).value == 2
        code, payload = run_json(
            capsys, "reduce", "path:4", "--t", "3",
            "--budget-nodes", str(budget), "--json",
        )
        assert code == 0
        assert payload["solved_total"] == payload["expected_value"] == 14
        assert payload["identity_certified"] is True
        assert "solved_total_lower_bound" not in payload

    def test_certified_alpha_builds_the_witness(self, capsys):
        # A budget that certifies alpha but runs out in its witness phase:
        # the maximum set it holds still builds a total witness, and the
        # total's solve then stops uncertified.
        base = generate("path:4")
        budget = value_phase_nodes(base, "independence")
        with pytest.raises(Incomplete) as exc:
            solve_independence(base, SolveOptions(node_budget=budget))
        assert exc.value.value_certified
        code, payload = run_json(
            capsys, "reduce", "path:4", "--t", "3",
            "--budget-nodes", str(budget), "--json",
        )
        assert code == 3
        assert payload["alpha"] == 2
        assert payload["witness_size"] == payload["expected_value"] == 14
        assert payload["witness_is_total"] is True
        assert payload["solved_total_lower_bound"] <= 14
        assert payload["identity_certified"] is None

    def test_missed_identity_exits_one(self, capsys, monkeypatch):
        # A solved total that misses (m + 1) t + alpha is a disagreement.
        exact = mvis.cli.solve

        def one_short(g, variant, opts=None):
            res = exact(g, variant, opts)
            return dataclasses.replace(res, value=res.value - 1)

        monkeypatch.setattr(mvis.cli, "solve", one_short)
        code, payload = run_json(
            capsys, "reduce", "path:3", "--t", "3", "--json"
        )
        assert code == 1
        assert payload["expected_value"] == 11
        assert payload["solved_total"] == 10
        assert payload["witness_is_total"] is True
        assert payload["identity_certified"] is False


class TestVerify:
    def test_cycles_and_paths_agree(self, capsys):
        code, report = run_json(
            capsys, "verify", "--families", "cycles,paths",
            "--max-cycle", "8", "--json",
        )
        assert code == 0
        assert report["summary"]["disagreements"] == 0
        assert report["summary"]["instances"] > 40
        assert report["format_version"] == 2
        for r in report["records"]:
            assert r["stats"]["witness_nodes"] <= r["stats"]["nodes"]
            assert r["stats"]["doll_prunes"] <= r["stats"]["prunes"]
            assert (r["stats"]["image_prunes"] + r["stats"]["merged_prunes"]
                    <= r["stats"]["bound_prunes"])
            assert "witness_queries" not in r["stats"]

    def test_records_show_merged_prunes(self, capsys):
        code, report = run_json(capsys, "verify", "--json")
        assert code == 0
        assert report["format_version"] == 2
        stats = [r["stats"] for r in report["records"] if r["solved"]]
        assert all(0 <= s["merged_prunes"] <= s["bound_prunes"]
                   for s in stats)
        assert sum(s["merged_prunes"] > 0 for s in stats) > 0

    def test_warm_verify_solves_no_capacity(self, capsys):
        # A verify regenerates its graphs, so their partitions are rebuilt
        # and every capacity comes from the one memo. Once a verify has run,
        # all of its capacities must still be there for the next: a memo
        # too small for them would solve them all again, every time.
        assert main(["verify"]) == 0
        for _ in range(2):
            misses = (_capacity.cache_info().misses,
                      _part_graph.cache_info().misses)
            assert main(["verify"]) == 0
            assert (_capacity.cache_info().misses,
                    _part_graph.cache_info().misses) == misses
        capsys.readouterr()

    def test_dual_records_run_no_witness_query(self, capsys):
        code, report = run_json(capsys, "verify", "--json")
        assert code == 0
        dual = [r for r in report["records"]
                if r["variant"] == "dual" and r["solved"]]
        assert len(dual) > 30
        assert all(r["stats"]["witness_nodes"] == 0 for r in dual)

    def test_full_cycle_sweep_agreement_count(self, capsys):
        code, report = run_json(
            capsys, "verify", "--families", "cycles", "--max-cycle", "10", "--json"
        )
        assert code == 0
        assert report["summary"]["instances"] == 32
        assert report["summary"]["agreements"] == 32

    def test_records_sorted_and_cited(self, capsys):
        code, report = run_json(
            capsys, "verify", "--families", "cycles", "--max-cycle", "5", "--json"
        )
        keys = [(r["instance"], r["variant"]) for r in report["records"]]
        assert keys == sorted(keys)
        assert all(r["oracle"]["source"] for r in report["records"])

    def test_gn_discrepancy_flagged(self, capsys, monkeypatch):
        # With the source's unattainable n + 1 put back as the dual entry,
        # verify must catch the wrong table entry, and only that one.
        real_oracle = mvis.cli.oracle

        def source_oracle(spec, variant):
            if spec.startswith("gn:") and variant == "dual":
                n = int(spec.split(":")[1])
                return OracleValue("exact", n + 1, "source table: n+1")
            return real_oracle(spec, variant)

        monkeypatch.setattr(mvis.cli, "oracle", source_oracle)
        code, report = run_json(capsys, "verify", "--families", "gn", "--json")
        assert code == 1
        bad = [r for r in report["records"] if r["agree"] is False]
        assert bad and all(r["variant"] == "dual" for r in bad)
        flagged = [
            r for r in report["records"]
            if r["agree"] is False or r.get("constructed_witness_ok") is False
        ]
        assert sorted((r["instance"], r["variant"]) for r in flagged) == [
            ("gn:2", "dual"), ("gn:3", "dual"), ("gn:4", "dual"),
        ]

        monkeypatch.undo()
        code, report = run_json(capsys, "verify", "--families", "gn", "--json")
        assert code == 0
        assert report["summary"]["agreements"] == 12
        assert report["summary"]["disagreements"] == 0

    def test_env_budget(self, capsys, monkeypatch):
        # The solver reads a clock that moves 1 ms per read, so a 1 ms
        # budget runs out by the second node of every search, however fast
        # the host and however warm the caches of earlier solves.
        ticks = itertools.count()
        clock = SimpleNamespace(monotonic=lambda: next(ticks) / 1000)
        monkeypatch.setattr(sys.modules["mvis.solve"], "time", clock)
        monkeypatch.setenv("MVIS_BUDGET_MS", "1")
        code, report = run_json(capsys, "verify", "--families", "gn", "--json")
        assert code == 3
        assert report["summary"]["incomplete"] > 0
        assert report["summary"]["disagreements"] == 0

    def test_certified_value_counts_as_agreeing(self):
        spec = "grid:4x4"
        budget = value_phase_nodes(generate(spec), "mutual")
        val = oracle(spec, "mutual")
        record = _verify_record(generate(spec), spec, "mutual", val,
                                SolveOptions(node_budget=budget))
        assert record["incomplete"] is False
        assert record["solved"] == val.value
        assert record["agree"] is True
        assert record["witness"] is None

    def test_default_sweep_generates_each_graph_once(self, capsys,
                                                     monkeypatch):
        # The oracle reads a random tree's leaves from its Pruefer sequence
        # and generates no graph, so cold and warm sweeps both generate each
        # of the 44 graphs once.
        calls = []
        real = mvis.cli.generate

        def counting(spec):
            calls.append(str(spec))
            return real(spec)

        monkeypatch.setattr(mvis.cli, "generate", counting)
        assert main(["verify"]) == 0
        assert len(calls) == 44
        calls.clear()
        assert main(["verify"]) == 0
        assert len(calls) == 44
        capsys.readouterr()

    def test_unknown_family_is_a_usage_error(self, capsys):
        assert main(["verify", "--families", "grid"]) == 2
        assert "grid" in capsys.readouterr().err

    def test_max_torus_bounds_every_torus(self, capsys):
        _, report = run_json(capsys, "verify", "--families", "tori",
                             "--max-torus", "4", "--json")
        got = {(r["instance"], r["variant"]) for r in report["records"]}
        tori = ("torus:3x3", "torus:4x3", "torus:4x4")
        assert got == {(t, v) for t in tori for v in ("dual", "total")} | {
            ("torus:4x3", "outer"), ("torus:4x4", "outer")}

    def test_report_written_to_file(self, tmp_path, capsys):
        out = str(tmp_path / "report.json")
        code, _ = run(
            capsys, "verify", "--families", "paths", "--out", out
        )
        with open(out) as fh:
            report = json.load(fh)
        assert report["summary"]["disagreements"] == 0


class TestNegativeBudgets:
    @pytest.mark.parametrize("argv", [
        ["solve", "grid:3x3", "--variant", "mutual", "--budget-ms", "-5"],
        ["solve", "grid:3x3", "--variant", "mutual", "--budget-nodes", "-1"],
        ["verify", "--budget-nodes", "-1"],
        ["verify", "--families", "gn", "--budget-ms", "-1"],
        ["reduce", "path:3", "--t", "3", "--budget-nodes", "-2"],
    ])
    def test_flag_is_usage_error(self, capsys, argv):
        assert main([*argv, "--json"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "negative" in err

    def test_env_is_usage_error(self, capsys, monkeypatch):
        monkeypatch.setenv("MVIS_BUDGET_MS", "-3")
        for argv in (["solve", "grid:3x3", "--variant", "mutual"],
                     ["verify", "--families", "gn"]):
            assert main(argv) == 2
            out, err = capsys.readouterr()
            assert out == ""
            assert "negative" in err


class TestUsageErrors:
    def test_unknown_graph_arg(self, capsys):
        assert main(["solve", "no_such_file.el", "--variant", "dual"]) == 2

    def test_unknown_variant_rejected(self):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "cycle:5", "--variant", "median"])
        assert exc.value.code == 2


#: Tokens and lines the fuzz test splices into valid edge-list files.
FUZZ_TOKENS = ("-2", "-1", "0", "1", "2", "7", "9", "x", "1.5", "0x1", "#",
               "(1,1)", "")
FUZZ_LINES = ("0 1 7", "5", "-2 0", "0 0", "1 1", "a b", "# label 0 a",
              "# label 0", "# label x y", "# label 99 z", "# name fuzz", "")


def mutate_lines(lines, rng):
    """A copy of ``lines`` with up to two random edits."""
    lines = list(lines)
    for _ in range(rng.randint(0, 2)):
        i = rng.randrange(len(lines) + 1)
        op = rng.randrange(5)
        if op == 0 and lines:
            del lines[min(i, len(lines) - 1)]
        elif op == 1:
            lines.insert(i, rng.choice(FUZZ_LINES))
        elif lines:
            i = min(i, len(lines) - 1)
            tokens = lines[i].split(" ")
            j = rng.randrange(len(tokens))
            if op == 2:
                tokens[j] = rng.choice(FUZZ_TOKENS)
            elif op == 3:
                del tokens[j]
            else:
                tokens.insert(j, rng.choice(FUZZ_TOKENS))
            lines[i] = " ".join(tokens)
    return lines


def mutate_set(rng):
    """A ``--set`` string: a valid one with a few characters changed."""
    text = list(rng.choice(("0,1,2", "(1,1),(2,3)", "3", "", "0,(3,3)")))
    for _ in range(rng.randint(0, 3)):
        i = rng.randrange(len(text) + 1)
        if rng.random() < 0.5 and text:
            del text[min(i, len(text) - 1)]
        else:
            text.insert(i, rng.choice("0123456789,()- x"))
    return "".join(text)


class TestMalformedInput:
    """Bad input is a usage error, exit 2, and never a traceback."""

    @pytest.mark.parametrize("text", [
        "3 2\n0 1\n1\n",
        "3 2\n0 1 7\n1 2\n",
        "-2 0\n",
        "# a comment\n# another\n",
    ], ids=["one-token-edge", "three-token-edge", "negative-order",
            "comments-only"])
    def test_bad_edge_list(self, tmp_path, capsys, text):
        path = tmp_path / "bad.el"
        path.write_text(text)
        assert main(["check", str(path), "--set", "0"]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("spec, reason", [
        ("path:1", "path needs n >= 2, got (1,)"),
        ("foo:3", "unknown family kind 'foo'"),
        ("Foo", "unknown family kind 'foo'"),
        ("grid", "cannot parse family spec 'grid'"),
    ], ids=["path-1", "unknown-kind", "unknown-kind-alone", "no-params"])
    def test_bad_family_spec_gives_its_reason(self, capsys, spec, reason):
        assert main(["check", spec, "--set", "0"]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and reason in err

    def test_huge_order_too_few_edges(self, tmp_path, capsys, monkeypatch):
        # A header whose edges cannot connect its order is refused before
        # build_graph allocates a neighbour set per vertex.
        def no_build(*args, **kwargs):
            raise AssertionError("build_graph was called")

        monkeypatch.setattr(mvis.graphs, "build_graph", no_build)
        path = tmp_path / "huge.el"
        path.write_text("1000000000 0\n")
        assert main(["check", str(path), "--set", "0"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_coordinates_on_an_unlabelled_graph(self, tmp_path, capsys):
        path = tmp_path / "p3.el"
        path.write_text("3 2\n0 1\n1 2\n")
        assert main(["check", str(path), "--set", "(1,1)"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_reduction_of_one_vertex(self, capsys):
        assert main(["reduce", "complete:1", "--t", "3"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_gen_into_missing_directory(self, tmp_path, capsys):
        out = str(tmp_path / "missing" / "x.el")
        assert main(["gen", "grid:3x3", out]) == 2
        assert "error:" in capsys.readouterr().err

    def test_solve_a_directory(self, tmp_path, capsys):
        assert main(["solve", str(tmp_path), "--variant", "mutual"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_fuzzed_files_and_sets(self, tmp_path, capsys):
        rng = random.Random(8080)
        sources = []
        for spec in ("grid:3x3", "cycle:5", "path:4"):
            path = str(tmp_path / "source.el")
            write_edge_list(generate(spec), path)
            with open(path, encoding="utf-8") as fh:
                sources.append(fh.read().splitlines())
        codes = set()
        for i in range(300):
            lines = mutate_lines(rng.choice(sources), rng)
            path = tmp_path / f"fuzz{i}.el"
            path.write_text("\n".join(lines) + "\n")
            text = mutate_set(rng)
            code = main(["check", str(path), f"--set={text}"])
            assert code in (0, 2), (lines, text)
            codes.add(code)
            if i % 4 == 0:
                code = main(["solve", str(path), "--variant", "mutual"])
                assert code in (0, 2), lines
            capsys.readouterr()
        assert codes == {0, 2}
