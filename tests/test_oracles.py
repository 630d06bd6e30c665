import itertools
import random

import pytest

from mvis import (
    BadParams,
    comparison_table,
    generate,
    oracle,
    solve,
)

from naive import naive_classify, random_connected_graph

VARIANTS = ("mutual", "total", "outer", "dual")


class TestOracleEntries:
    def test_spec_examples(self):
        assert oracle("cycle:6", "dual").value == 2
        assert oracle("grid:6x5", "outer").value == 6
        torus_outer = oracle("torus:7x5", "outer")
        assert torus_outer.kind == "upper_bound" and torus_outer.value == 10
        assert oracle("grid:9x6", "total").value == 4
        assert oracle("torus:6x4", "dual").value == 4

    def test_cycle_tables(self):
        assert oracle("cycle:3", "total").value == 3
        assert oracle("cycle:4", "total").value == 2
        assert oracle("cycle:9", "total").value == 0
        assert oracle("cycle:4", "dual").value == 3
        assert oracle("cycle:5", "outer").value == 2
        for n in range(3, 12):
            assert oracle(f"cycle:{n}", "mutual").value == 3

    def test_sources_carry_rule_names(self):
        val = oracle("grid:8x6", "outer")
        assert "grid outer" in val.source

    def test_unknown_cases(self):
        assert oracle("torus:5x4", "mutual").kind == "unknown"
        assert oracle("grid:5x2", "mutual").kind == "unknown"
        assert oracle("grid:5x2", "total").kind == "unknown"
        assert oracle("ht:2", "mutual").kind == "unknown"
        assert oracle("pathprod:3x3x3", "outer").kind == "unknown"

    def test_pathprod_total(self):
        assert oracle("pathprod:3x3x3", "total").value == 8
        assert oracle("pathprod:4x3x3x3", "total").value == 16
        assert oracle("pathprod:4x3", "total").value == 4

    def test_trees_and_stars(self):
        for variant in VARIANTS:
            assert oracle("star:5", variant).value == 5
            assert oracle("path:9", variant).value == 2
            assert oracle("complete:6", variant).value == 6
        v = oracle("random_tree:12:seed=3", "dual")
        assert v.kind == "exact"
        from mvis import graph_stats

        assert v.value == graph_stats(generate("random_tree:12:seed=3")).leaf_count

    def test_random_tree_leaves_from_pruefer_sequence(self):
        from mvis import graph_stats

        for n in range(2, 21):
            for seed in range(10):
                spec = f"random_tree:{n}:seed={seed}"
                leaves = graph_stats(generate(spec)).leaf_count
                assert oracle(spec, "mutual").value == leaves

    def test_out_of_range_specs_get_no_value(self):
        for text in ("cycle:2", "cycle:-4", "torus:2x2", "star:0",
                     "grid:1x1", "pathprod:1x1", "path:1", "ht:1",
                     "complete:0", "gn:1"):
            for variant in VARIANTS:
                with pytest.raises(BadParams):
                    oracle(text, variant)

    def test_grid_normalization(self):
        assert oracle("grid:5x6", "outer").value == oracle("grid:6x5", "outer").value
        assert oracle("torus:3x5", "dual").value == oracle("torus:5x3", "dual").value

    def test_gprime_oracle(self, tmp_path):
        from mvis import write_edge_list

        base = generate("path:5")
        path = str(tmp_path / "p5.el")
        write_edge_list(base, path)
        for variant in VARIANTS:
            val = oracle(f"gprime:{path}:t=3", variant)
            assert val.value == (4 + 1) * 3 + 3

    def test_bad_kind(self):
        with pytest.raises(Exception):
            oracle("grid:4x4", "median")


class TestOracleSolverAgreement:
    def test_path_shaped_products(self):
        # A grid or path product with one long side is a path.
        for spec in ("grid:1x5", "pathprod:5"):
            g = generate(spec)
            for variant in VARIANTS:
                val = oracle(spec, variant)
                assert val.kind == "exact" and "path rule" in val.source
                assert solve(g, variant).value == val.value == 2

    def test_cycles(self):
        for n in range(3, 9):
            for variant in VARIANTS:
                val = oracle(f"cycle:{n}", variant)
                assert solve(generate(f"cycle:{n}"), variant).value == val.value

    def test_small_grids(self):
        for n in range(2, 6):
            for m in range(2, n + 1):
                g = generate(f"grid:{n}x{m}")
                for variant in VARIANTS:
                    val = oracle(f"grid:{n}x{m}", variant)
                    if val.kind == "exact":
                        assert solve(g, variant).value == val.value, (n, m, variant)

    def test_small_tori(self):
        for n in range(3, 6):
            for m in range(3, n + 1):
                g = generate(f"torus:{n}x{m}")
                for variant in ("dual", "total"):
                    val = oracle(f"torus:{n}x{m}", variant)
                    assert solve(g, variant).value == val.value, (n, m, variant)

    def test_torus_outer_bound_honored(self):
        for spec in ("torus:4x3", "torus:4x4", "torus:5x3"):
            val = oracle(spec, "outer")
            assert solve(generate(spec), "outer").value <= val.value

    def test_gn_table_discrepancy_is_real(self):
        # The source tables the five-cycle gadget's dual value as n + 1,
        # which this graph cannot reach: the true value is 2 (proof at the
        # oracle entry). Pin the gap to the source, and confirm the 2 by
        # subset enumeration with the geodesic oracle, never by the solver.
        for n in (2, 3):
            g = generate(f"gn:{n}")
            naive_best = max(
                len(x)
                for k in range(g.n + 1)
                for x in itertools.combinations(range(g.n), k)
                if naive_classify(g, x)["dual"]
            )
            assert naive_best == 2
            assert oracle(f"gn:{n}", "dual").value == 2
            assert solve(g, "dual").value == 2 < n + 1
            for variant in ("mutual", "outer", "total"):
                assert solve(g, variant).value == oracle(f"gn:{n}", variant).value

    def test_ht_table(self):
        g = generate("ht:2")
        assert solve(g, "dual").value == oracle("ht:2", "dual").value == 10
        assert solve(g, "outer").value == oracle("ht:2", "outer").value == 8

    def test_tables_internally_ordered(self):
        # Wherever two variants are both exact for one instance, the table
        # values themselves must respect the two containment chains.
        specs = [f"cycle:{n}" for n in range(3, 12)]
        specs += [f"path:{n}" for n in range(2, 8)]
        specs += [
            f"grid:{n}x{m}" for n in range(2, 10) for m in range(2, n + 1)
        ]
        specs += [
            f"torus:{n}x{m}" for n in range(3, 9) for m in range(3, n + 1)
        ]
        specs += [f"gn:{n}" for n in (2, 3, 4)] + ["ht:2", "star:6", "complete:5"]
        for spec in specs:
            vals = {v: oracle(spec, v) for v in VARIANTS}
            for hi, lo in (
                ("mutual", "outer"), ("outer", "total"),
                ("mutual", "dual"), ("dual", "total"),
            ):
                if vals[hi].kind == "exact" and vals[lo].kind == "exact":
                    assert vals[hi].value >= vals[lo].value, (spec, hi, lo)


class TestComparisonTable:
    def test_path_all_equal(self):
        ct = comparison_table(generate("path:5"))
        assert ct.values() == (2, 2, 2, 2)
        assert ct.ordering_ok and not ct.conjecture_violated

    def test_gadget_chain(self):
        # Solver truth for the five-cycle gadget; the dual entry is 2, not
        # the source's n + 1 = 4, see the oracle discrepancy test.
        ct = comparison_table(generate("gn:3"))
        assert ct.values() == (0, 2, 3, 6)
        assert ct.ordering_ok
        assert ct.mu_over_outer == 2.0  # mutual = 2 * outer exactly: tight, not violated
        assert not ct.conjecture_violated

    def test_ordering_over_random_graphs(self):
        rng = random.Random(12)
        for _ in range(8):
            g = random_connected_graph(rng.randint(2, 8), rng)
            ct = comparison_table(g)
            assert ct.ordering_ok

    @pytest.mark.slow
    def test_grid_7x6_chain(self):
        ct = comparison_table(generate("grid:7x6"))
        assert ct.values() == (4, 5, 8, 12)
        assert ct.ordering_ok
