import math
import random

import pytest

from mvis import (
    DisconnectedGraph,
    EmptySet,
    GraphError,
    InvalidVertexId,
    VertexSet,
    all_pairs_distances,
    build_graph,
    cartesian_product,
    generate,
    graph_stats,
    induced_subgraph,
    interval,
    is_convex,
    read_edge_list,
    write_edge_list,
)

from naive import random_connected_graph


def grid_id(i, j, m):
    return (i - 1) * m + (j - 1)


class TestBuildGraph:
    def test_p2(self):
        g = build_graph(2, [(0, 1)])
        assert g.n == 2 and g.m == 1

    def test_cycle_degrees(self):
        g = build_graph(5, [(i, (i + 1) % 5) for i in range(5)])
        assert all(g.degree(v) == 2 for v in range(5))

    def test_isolated_vertices_rejected(self):
        with pytest.raises(DisconnectedGraph):
            build_graph(4, [(0, 1)])

    def test_out_of_range(self):
        with pytest.raises(InvalidVertexId):
            build_graph(3, [(0, 3)])

    def test_self_loop(self):
        with pytest.raises(InvalidVertexId):
            build_graph(3, [(0, 0), (0, 1), (1, 2)])

    def test_negative_order(self):
        with pytest.raises(GraphError):
            build_graph(-2, [])

    def test_duplicate_edges_collapse(self):
        g = build_graph(2, [(0, 1), (1, 0), (0, 1)])
        assert g.m == 1

    def test_neighbor_lists_sorted(self):
        g = build_graph(4, [(3, 0), (2, 0), (1, 0)])
        assert g.adj[0] == (1, 2, 3)


class TestDistances:
    def test_c5(self):
        g = generate("cycle:5")
        d = all_pairs_distances(g)
        assert d[0][2] == 2 and d[0][3] == 2

    def test_p4(self):
        g = generate("path:4")
        assert all_pairs_distances(g)[0][3] == 3

    def test_grid_label_distance(self):
        g = generate("grid:3x3")
        d = all_pairs_distances(g)
        u = g.vertex_by_label("(1,1)")
        v = g.vertex_by_label("(3,3)")
        assert d[u][v] == 4

    def test_grid_manhattan_all_sizes_to_8(self):
        for n in range(2, 9):
            for m in range(2, n + 1):
                g = generate(f"grid:{n}x{m}")
                d = all_pairs_distances(g)
                for i1 in range(1, n + 1):
                    for j1 in range(1, m + 1):
                        for i2 in range(1, n + 1):
                            for j2 in range(1, m + 1):
                                a = grid_id(i1, j1, m)
                                b = grid_id(i2, j2, m)
                                assert d[a][b] == abs(i1 - i2) + abs(j1 - j2)

    def test_torus_wrapped_manhattan_all_sizes_to_8(self):
        for n in range(3, 9):
            for m in range(3, n + 1):
                g = generate(f"torus:{n}x{m}")
                d = all_pairs_distances(g)
                for i1 in range(1, n + 1):
                    for j1 in range(1, m + 1):
                        for i2 in range(1, n + 1):
                            for j2 in range(1, m + 1):
                                a = grid_id(i1, j1, m)
                                b = grid_id(i2, j2, m)
                                di = min(abs(i1 - i2), n - abs(i1 - i2))
                                dj = min(abs(j1 - j2), m - abs(j1 - j2))
                                assert d[a][b] == di + dj

    def test_matrix_invariants(self):
        rng = random.Random(5)
        g = random_connected_graph(9, rng)
        d = all_pairs_distances(g)
        for u in range(g.n):
            assert d[u][u] == 0
            for v in range(g.n):
                assert d[u][v] == d[v][u]
                assert (d[u][v] == 1) == g.has_edge(u, v)
                for z in range(g.n):
                    assert d[u][v] <= d[u][z] + d[z][v]


class TestInterval:
    def test_path_unique_geodesic(self):
        g = generate("path:5")
        assert interval(g, 0, 4).ids() == [0, 1, 2, 3, 4]

    def test_c4_antipodal(self):
        g = generate("cycle:4")
        assert interval(g, 0, 2).card == 4

    def test_c5_short_arc(self):
        g = generate("cycle:5")
        assert interval(g, 0, 2).ids() == [0, 1, 2]

    def test_contains_endpoints_and_symmetric(self):
        rng = random.Random(1)
        for _ in range(20):
            g = random_connected_graph(rng.randint(2, 9), rng)
            u, v = rng.randrange(g.n), rng.randrange(g.n)
            iv = interval(g, u, v)
            assert u in iv and v in iv
            assert iv == interval(g, v, u)


class TestConvexity:
    def test_single_vertex(self):
        g = generate("cycle:6")
        assert is_convex(g, [3])

    def test_torus_layer_is_convex(self):
        g = generate("torus:5x4")
        layer = [grid_id(i, 2, 4) for i in range(1, 6)]
        assert is_convex(g, layer)

    def test_grid_layer_is_convex(self):
        g = generate("grid:5x4")
        row = [grid_id(3, j, 4) for j in range(1, 5)]
        assert is_convex(g, row)

    def test_antipodal_subpath_of_c6_not_convex(self):
        g = generate("cycle:6")
        assert not is_convex(g, [0, 1, 2, 3])

    def test_empty_raises(self):
        g = generate("cycle:6")
        with pytest.raises(EmptySet):
            is_convex(g, [])


class TestStats:
    def test_c7(self):
        s = graph_stats(generate("cycle:7"))
        assert (s.min_degree, s.diameter, s.girth, s.leaf_count) == (2, 3, 7, 0)

    def test_star(self):
        s = graph_stats(generate("star:5"))
        assert s.leaf_count == 5
        assert s.girth == math.inf

    def test_p6(self):
        s = graph_stats(generate("path:6"))
        assert s.diameter == 5 and s.leaf_count == 2

    def test_girth_of_products(self):
        assert graph_stats(generate("grid:4x3")).girth == 4
        assert graph_stats(generate("torus:3x3")).girth == 3
        assert graph_stats(generate("torus:5x5")).girth == 4


class TestCartesianProduct:
    def test_p2_p2_is_c4(self):
        g = cartesian_product(generate("path:2"), generate("path:2"))
        assert g.n == 4 and g.m == 4
        assert all(g.degree(v) == 2 for v in range(4))

    def test_p4_p3_counts(self):
        g = generate("grid:4x3")
        assert g.n == 12 and g.m == 17

    def test_c3_c3_counts(self):
        g = generate("torus:3x3")
        assert g.n == 9 and g.m == 18
        assert all(g.degree(v) == 4 for v in range(9))

    def test_commutative_up_to_isomorphism(self):
        a, b = generate("path:4"), generate("cycle:5")
        gh = cartesian_product(a, b)
        hg = cartesian_product(b, a)
        assert gh.n == hg.n and gh.m == hg.m
        assert sorted(gh.degree(v) for v in range(gh.n)) == sorted(
            hg.degree(v) for v in range(hg.n)
        )

    def test_labels_flatten(self):
        g = generate("pathprod:3x3x3")
        assert g.labels[0] == "(1,1,1)"
        assert g.labels[-1] == "(3,3,3)"


class TestInduced:
    def test_relabels_densely(self):
        g = generate("cycle:6")
        sub, ids = induced_subgraph(g, [1, 2, 3])
        assert sub.n == 3 and sub.m == 2
        assert ids == [1, 2, 3]

    def test_disconnected_part_rejected(self):
        g = generate("cycle:6")
        with pytest.raises(DisconnectedGraph):
            induced_subgraph(g, [0, 3])


class TestEdgeListFormat:
    def test_round_trip(self, tmp_path):
        g = generate("grid:4x3")
        path = str(tmp_path / "g.el")
        write_edge_list(g, path)
        h = read_edge_list(path)
        assert h.n == g.n and h.edges() == g.edges()
        assert h.labels == g.labels and h.name == g.name

    def test_comments_ignored(self, tmp_path):
        path = str(tmp_path / "c.el")
        path_text = "# a comment\n3 2\n0 1\n# another\n1 2\n"
        with open(path, "w") as fh:
            fh.write(path_text)
        g = read_edge_list(path)
        assert g.n == 3 and g.m == 2

    @pytest.mark.parametrize("text", [
        "3 2\n0 1\n1\n",
        "3 2\n0 1 7\n1 2\n",
        "3 2\n0 x\n1 2\n",
        "3\n0 1\n1 2\n",
        "-2 0\n",
    ], ids=["one-token-edge", "three-token-edge", "non-integer",
            "one-token-header", "negative-order"])
    def test_malformed_lines_rejected(self, tmp_path, text):
        path = str(tmp_path / "bad.el")
        with open(path, "w") as fh:
            fh.write(text)
        with pytest.raises(GraphError):
            read_edge_list(path)


class TestVertexSet:
    def test_basics(self):
        s = VertexSet(8, [1, 3, 5])
        assert len(s) == 3 and s.card == 3
        assert 3 in s and 2 not in s
        assert s.ids() == [1, 3, 5]

    def test_capacity_enforced(self):
        with pytest.raises(InvalidVertexId):
            VertexSet(4, [4])
