import pytest

from mvis import (
    BadParams,
    FamilySpec,
    NoWitnessKnown,
    NotIndependent,
    OutOfRange,
    VertexSet,
    classify_set,
    generate,
    gn_witnesses,
    graph_stats,
    grid_dual_witness,
    grid_outer_witness,
    parse_family_spec,
    reduction_gprime,
    reduction_witness,
    solve,
    solve_independence,
    torus_witnesses,
)
from mvis.families import gn_vertex, ht_copy_vertex


def coords_of(g, witness):
    return sorted(g.labels[i] for i in witness)


class TestSpecParsing:
    def test_round_trip(self):
        for text in (
            "path:5", "cycle:6", "complete:4", "star:5",
            "random_tree:10:seed=3", "grid:9x6", "torus:5x4",
            "pathprod:3x3x3", "gn:3", "ht:2",
        ):
            spec = parse_family_spec(text)
            assert spec.canonical() == text
            assert generate(text).name == text

    def test_aliases(self):
        for text, kind in (("clique:4", "complete"), ("tree:6", "random_tree"),
                           ("path_product:3x3", "pathprod"),
                           ("gadget_gn:3", "gn"), ("gadget_ht:2", "ht")):
            assert parse_family_spec(text).kind == kind

    def test_gprime_spec(self):
        spec = parse_family_spec("gprime:base.el:t=3")
        assert spec.kind == "gprime"
        assert spec.base_path == "base.el" and spec.params == (3,)
        colon = parse_family_spec("gprime:a:b.el:t=3")
        assert colon.base_path == "a:b.el"
        assert colon.canonical() == "gprime:a:b.el:t=3"
        assert parse_family_spec(colon.canonical()) == colon

    def test_bad_specs(self):
        for text in ("nope:3", "cycle", "grid:4", "cycle:x", "gprime:f.el",
                     "gn:3:seed=2", "cycle:5:banana",
                     "random_tree:5:seed=1:junk", "random_tree:5:sd=1"):
            with pytest.raises(BadParams):
                parse_family_spec(text)

    def test_param_ranges(self):
        for text in ("cycle:2", "cycle:-4", "gn:1", "ht:1", "path:1",
                     "torus:2x3", "torus:2x2", "star:0", "grid:1x1",
                     "pathprod:1x1", "complete:0", "random_tree:1",
                     "gprime:f.el:t=2"):
            with pytest.raises(BadParams):
                parse_family_spec(text)
            with pytest.raises(BadParams):
                generate(text)

    def test_spec_construction_checks_ranges(self):
        for kind, params in (("cycle", (2,)), ("grid", (4,)), ("path", ()),
                             ("pathprod", ()), ("nope", (3,)),
                             ("gprime", (2,))):
            with pytest.raises(BadParams):
                FamilySpec(kind, params, base_path="f.el")
        with pytest.raises(BadParams):
            FamilySpec("gprime", (3,))
        assert generate(FamilySpec("grid", (1, 2))).n == 2


class TestGenerators:
    def test_gn_structure(self):
        g = generate("gn:2")
        assert g.n == 8
        assert g.has_edge(0, 1)  # the shared edge
        assert g.degree(0) == 3 and g.degree(1) == 3
        assert graph_stats(g).girth == 5

    def test_ht_structure(self):
        g = generate("ht:2")
        assert g.n == 25
        apex = 24
        assert g.degree(apex) == 2
        assert g.labels[apex] == "x"
        assert sorted(g.adj[apex]) == [
            ht_copy_vertex(0, 2, 3), ht_copy_vertex(1, 2, 3)
        ]

    def test_torus_regular(self):
        g = generate("torus:3x3")
        assert g.n == 9 and all(g.degree(v) == 4 for v in range(9))

    def test_random_tree_reproducible(self):
        a = generate("random_tree:12:seed=7")
        b = generate("random_tree:12:seed=7")
        assert a.edges() == b.edges()
        assert a.m == a.n - 1

    def test_random_trees_vary_with_seed(self):
        edge_sets = {tuple(generate(f"random_tree:12:seed={s}").edges())
                     for s in range(8)}
        assert len(edge_sets) > 1

    def test_degenerate_grids_are_paths(self):
        g = generate("grid:5x1")
        assert g.n == 5 and g.m == 4 and g.labels[0] == "(1,1)"
        h = generate("grid:1x5")
        assert h.n == 5 and h.m == 4 and h.labels[-1] == "(1,5)"
        with pytest.raises(BadParams):
            generate("grid:1x1")


class TestReduction:
    def test_p5_counts_and_tags(self):
        record = reduction_gprime(generate("path:5"), 3)
        gp = record.gprime
        assert gp.n == 25  # 5 + 4 + 4 + 12
        tags = record.tags
        assert tags.count("original") == 5
        assert tags.count("edge_vertex") == 4
        assert tags.count("apex_x") == 1
        assert tags.count("apex_clique") == 3
        assert sum(1 for t in tags if t.startswith("pendant_clique")) == 12

    def test_p2_and_c5_orders(self):
        assert reduction_gprime(generate("path:2"), 3).gprime.n == 10
        assert reduction_gprime(generate("cycle:5"), 3).gprime.n == 29

    def test_order_and_size_formulas(self):
        for spec, t in (("path:4", 3), ("cycle:4", 4), ("star:3", 3)):
            base = generate(spec)
            n, m = base.n, base.m
            gp = reduction_gprime(base, t).gprime
            assert gp.n == n + m + (t + 1) + m * t
            expected_edges = (
                m                       # base edges
                + 2 * m                 # edge-vertices to their endpoints
                + m * (m - 1) // 2      # clique on the edge-vertices
                + (t + 1) * t // 2      # apex clique
                + n                     # apex to every base vertex
                + m * t * (t - 1) // 2  # pendant cliques
                + m * t                 # pendant cliques joined to their v_e
            )
            assert gp.m == expected_edges

    def test_t_below_three_rejected(self):
        with pytest.raises(BadParams):
            reduction_gprime(generate("path:3"), 2)

    def test_witness_sizes(self):
        rec = reduction_gprime(generate("path:5"), 3)
        s = reduction_witness(rec, [0, 2, 4])
        assert s.card == (4 + 1) * 3 + 3  # 18
        rec2 = reduction_gprime(generate("path:2"), 3)
        s2 = reduction_witness(rec2, [0])
        assert s2.card == 7

    def test_witness_checks_independence(self):
        rec = reduction_gprime(generate("path:5"), 3)
        with pytest.raises(NotIndependent):
            reduction_witness(rec, [0, 1])

    def test_witness_is_total_for_p4(self):
        rec = reduction_gprime(generate("path:4"), 3)
        alpha = solve_independence(rec.base)
        s = reduction_witness(rec, alpha.witness)
        assert classify_set(rec.gprime, s).is_total


class TestGridOuterWitness:
    def test_fig_12x9_coordinates(self):
        g = generate("grid:12x9")
        w = grid_outer_witness(12, 9)
        assert coords_of(g, w) == sorted(
            ["(1,1)", "(12,1)", "(1,9)", "(12,9)",
             "(3,2)", "(5,3)", "(7,4)", "(9,5)", "(11,6)",
             "(2,7)", "(4,8)"]
        )

    def test_10x7_second_repair(self):
        g = generate("grid:10x7")
        w = grid_outer_witness(10, 7)
        labs = coords_of(g, w)
        assert "(4,6)" in labs and "(2,6)" not in labs

    def test_10x6_swap_repair(self):
        g = generate("grid:10x6")
        w = grid_outer_witness(10, 6)
        labs = coords_of(g, w)
        assert "(7,5)" in labs and "(9,4)" in labs
        assert "(7,4)" not in labs and "(9,5)" not in labs

    def test_7x5_explicit_set(self):
        g = generate("grid:7x5")
        w = grid_outer_witness(7, 5)
        assert coords_of(g, w) == sorted(
            ["(1,1)", "(7,1)", "(5,2)", "(2,3)", "(4,4)", "(1,5)", "(7,5)"]
        )

    def test_sizes_and_classification(self):
        for n, m in [(7, 6), (8, 6), (9, 7), (11, 8), (5, 3), (9, 3), (8, 5), (14, 6)]:
            w = grid_outer_witness(n, m)
            g = generate(f"grid:{n}x{m}")
            expected = 5 if m == 3 else m + 2
            assert w.card == expected
            assert classify_set(g, w).is_outer

    def test_out_of_range(self):
        for n, m in [(6, 6), (4, 4), (6, 5), (7, 4), (4, 3), (5, 6)]:
            with pytest.raises(OutOfRange):
                grid_outer_witness(n, m)


class TestGridDualWitness:
    def test_4x3_exact(self):
        g = generate("grid:4x3")
        w = grid_dual_witness(4, 3)
        assert coords_of(g, w) == sorted(
            ["(1,1)", "(2,1)", "(4,2)", "(4,3)", "(1,3)"]
        )

    def test_classification(self):
        for n, m in [(4, 3), (5, 4), (6, 3), (7, 5), (4, 2), (6, 2)]:
            w = grid_dual_witness(n, m)
            g = generate(f"grid:{n}x{m}")
            assert classify_set(g, w).is_dual

    def test_m2_corners(self):
        g = generate("grid:4x2")
        w = grid_dual_witness(4, 2)
        assert coords_of(g, w) == sorted(["(1,1)", "(1,2)", "(4,1)", "(4,2)"])

    def test_out_of_range(self):
        for n, m in [(3, 3), (2, 2), (3, 4)]:
            with pytest.raises(OutOfRange):
                grid_dual_witness(n, m)


class TestTorusWitnesses:
    def test_dual_sets(self):
        sizes = {(3, 3): 5, (4, 3): 5, (4, 4): 8, (5, 3): 2,
                 (5, 4): 4, (6, 3): 4, (6, 4): 4}
        for (n, m), size in sizes.items():
            w = torus_witnesses(n, m, "dual")
            g = generate(f"torus:{n}x{m}")
            assert w.card == size
            assert classify_set(g, w).is_dual

    def test_total_sets(self):
        for (n, m), size in {(3, 3): 3, (4, 3): 3, (4, 4): 4}.items():
            w = torus_witnesses(n, m, "total")
            g = generate(f"torus:{n}x{m}")
            assert w.card == size
            assert classify_set(g, w).is_total

    def test_zero_cases_have_no_witness(self):
        for n, m, variant in [(5, 5, "dual"), (7, 3, "dual"), (5, 5, "total"),
                              (6, 4, "total"), (5, 3, "mutual")]:
            with pytest.raises(NoWitnessKnown):
                torus_witnesses(n, m, variant)


class TestGnWitnesses:
    def test_mutual_and_outer_classify(self):
        for n in (2, 3, 4, 5):
            g = generate(f"gn:{n}")
            wm = gn_witnesses(n, "mutual")
            wo = gn_witnesses(n, "outer")
            assert wm.card == 2 * n and classify_set(g, wm).is_mutual
            assert wo.card == n and classify_set(g, wo).is_outer

    def test_quoted_dual_candidate_is_not_dual(self):
        # The source's size-(n+1) candidate {x1, z1..zn} blocks the
        # complement pair (x_i, y_i) through z_i for every i >= 2, so it
        # fails the dual check; the true dual maximum of this family is 2,
        # reached by the constructed witness.
        for n in (2, 3, 4):
            g = generate(f"gn:{n}")
            ids = [gn_vertex("x", 1)] + [gn_vertex("z", i) for i in range(1, n + 1)]
            w = VertexSet(g.n, ids)
            assert w.card == n + 1
            rep = classify_set(g, w)
            assert not rep.is_dual
            u, v = rep.violations["dual"]
            assert u not in w and v not in w
            assert solve(g, "dual").value == 2
            built = gn_witnesses(n, "dual")
            assert built.card == 2 and classify_set(g, built).is_dual

    def test_total_has_no_witness(self):
        with pytest.raises(NoWitnessKnown):
            gn_witnesses(3, "total")

    def test_vertex_helper(self):
        g = generate("gn:3")
        assert g.labels[gn_vertex("u", 0)] == "u"
        assert g.labels[gn_vertex("x", 2)] == "x2"
        assert g.labels[gn_vertex("z", 3)] == "z3"
