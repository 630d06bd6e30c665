import random
from itertools import combinations, permutations

import pytest

import mvis.symmetry
from mvis import build_graph, generate, reduction_gprime, solve
from mvis.solve import _search, convex_partitions
from mvis.symmetry import automorphisms, moving_automorphism, stabilizer_orbit

from naive import brute_max_witnesses_all, random_connected_graph
from test_solve import value_phase_nodes

VARIANTS = ("mutual", "total", "outer", "dual")


def members(mask):
    return [v for v in range(mask.bit_length()) if (mask >> v) & 1]


def all_automorphisms(g):
    """Every automorphism of ``g``, by trying every permutation."""
    edges = set(g.edges())
    return [
        p for p in permutations(range(g.n))
        if all(tuple(sorted((p[u], p[w]))) in edges for u, w in edges)
    ]


def gprime():
    return reduction_gprime(generate("path:3"), 3).gprime


def prism3():
    return build_graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5),
                           (0, 3), (1, 4), (2, 5)])


def k33():
    return build_graph(6, [(a, b) for a in range(3) for b in range(3, 6)])


def petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return build_graph(10, outer + spokes + inner)


class TestStabilizerOrbit:
    @pytest.mark.parametrize("name", [
        "torus:5x5", "grid:5x5", "ht:3", "gprime", "random",
    ])
    def test_every_map_found_is_an_automorphism(self, name, monkeypatch):
        found = []
        real = mvis.symmetry._extend

        def recording(g, d, key, fixed_ids, v, w, *rest):
            sigma = real(g, d, key, fixed_ids, v, w, *rest)
            if sigma is not None:
                found.append((fixed_ids, v, w, sigma))
            return sigma

        monkeypatch.setattr(mvis.symmetry, "_extend", recording)
        rng = random.Random(7)
        if name == "gprime":
            graphs = [gprime()]
        elif name == "random":
            graphs = [random_connected_graph(rng.randint(4, 9), rng, p=0.3)
                      for _ in range(12)]
        else:
            graphs = [generate(name)]
        for g in graphs:
            found.clear()
            full = (1 << g.n) - 1
            for _ in range(6):
                fixed_ids = rng.sample(range(g.n), rng.randint(0, 2))
                fixed = sum(1 << x for x in fixed_ids)
                v = rng.choice([u for u in range(g.n) if u not in fixed_ids])
                stabilizer_orbit(g, fixed, v, full & ~fixed)
            edges = set(g.edges())
            for fixed_ids, v, w, sigma in found:
                assert sorted(sigma) == list(range(g.n))
                assert sigma[v] == w
                assert all(sigma[x] == x for x in fixed_ids)
                images = {tuple(sorted((sigma[a], sigma[b]))) for a, b in edges}
                assert images == edges
        if name != "random":
            assert found  # each of these graphs has symmetry to find

    def test_orbits_lie_inside_the_true_orbits(self):
        rng = random.Random(11)
        graphs = [random_connected_graph(rng.randint(3, 7), rng, p=0.3)
                  for _ in range(25)]
        graphs += [generate("cycle:7"), generate("complete:5"), prism3(), k33()]
        for g in graphs:
            autos = all_automorphisms(g)
            full = (1 << g.n) - 1
            for k in range(3):
                for fixed_ids in combinations(range(g.n), k):
                    fixed = sum(1 << x for x in fixed_ids)
                    stab = [p for p in autos if all(p[x] == x for x in fixed_ids)]
                    for v in range(g.n):
                        if (fixed >> v) & 1:
                            continue
                        true = {p[v] for p in stab}
                        got = members(stabilizer_orbit(g, fixed, v, full & ~fixed))
                        assert v in got
                        assert set(got) <= true, (g.edges(), fixed_ids, v)

    def test_orbit_is_cut_to_within(self):
        g = generate("torus:5x5")
        within = (1 << 3) | (1 << 7) | (1 << 12)
        assert stabilizer_orbit(g, 0, 3, within) == within

    @pytest.mark.parametrize("spec", ["torus:5x5", "torus:6x4", "torus:4x3"])
    def test_torus_is_one_orbit(self, spec):
        g = generate(spec)
        full = (1 << g.n) - 1
        assert stabilizer_orbit(g, 0, 0, full) == full
        assert stabilizer_orbit(g, 0, g.n - 1, full) == full

    def test_grid_corner_orbit_is_the_four_corners(self):
        g = generate("grid:5x5")
        at = g.vertex_by_label
        corners = sorted(at(f"({i},{j})") for i in (1, 5) for j in (1, 5))
        full = (1 << g.n) - 1
        assert members(stabilizer_orbit(g, 0, corners[0], full)) == corners
        # Fixing one corner leaves only the diagonal reflection through it.
        c, a, b = at("(1,1)"), at("(1,3)"), at("(3,1)")
        orbit = stabilizer_orbit(g, 1 << c, a, full & ~(1 << c))
        assert members(orbit) == sorted([a, b])


class TestMovingAutomorphism:
    @pytest.mark.parametrize("name", [
        "grid:8x8", "torus:6x5", "ht:3", "gn:4", "pathprod:3x3x3", "gprime",
        "random",
    ])
    def test_map_is_an_automorphism_that_moves_vertex_0(self, name):
        rng = random.Random(5)
        if name == "gprime":
            graphs = [gprime()]
        elif name == "random":
            graphs = [random_connected_graph(rng.randint(3, 9), rng, p=0.3)
                      for _ in range(40)]
        else:
            graphs = [generate(name)]
        for g in graphs:
            sigma = moving_automorphism(g)
            if sigma is None:
                assert name == "random"
                continue
            assert sorted(sigma) == list(range(g.n))
            assert sigma[0] != 0
            edges = set(g.edges())
            assert {tuple(sorted((sigma[a], sigma[b])))
                    for a, b in edges} == edges

    def test_map_sends_0_to_the_least_vertex_of_its_orbit(self):
        rng = random.Random(3)
        graphs = [random_connected_graph(rng.randint(2, 7), rng, p=0.3)
                  for _ in range(30)]
        graphs += [generate("cycle:7"), prism3(), k33(), generate("star:4")]
        for g in graphs:
            moved = {p[0] for p in all_automorphisms(g)} - {0}
            sigma = moving_automorphism(g)
            assert (None if sigma is None else sigma[0]) == min(
                moved, default=None), g.edges()

    def test_map_is_sought_once_per_graph(self, monkeypatch):
        # Each (kind, vertex mask) builds its own partition and image; the
        # map they share depends on the graph alone.
        calls = []
        real = mvis.symmetry._moving_automorphism
        monkeypatch.setattr(mvis.symmetry, "_moving_automorphism",
                            lambda g: calls.append(g) or real(g))
        g = generate("torus:5x5")
        images = sum(len(_search(g, kind).bound) == 2
                     for kind in (*VARIANTS, "independence"))
        images += len(convex_partitions(g, "mutual", (1 << 20) - 1)) - 1
        assert images >= 4
        assert calls == [g]
        assert moving_automorphism(g) == real(generate("torus:5x5"))

    @pytest.mark.parametrize("spec", ["star:300", "random_tree:12:seed=0"])
    def test_no_image_without_a_map(self, spec):
        # star:300's vertex 0 is its centre, which every automorphism
        # fixes; so does every automorphism of this tree fix its vertex 0.
        g = generate(spec)
        assert moving_automorphism(g) is None
        for kind in (*VARIANTS, "independence"):
            partitions = convex_partitions(g, kind, _search(g, kind).root[1])
            assert len(partitions) == 1, kind

    @pytest.mark.parametrize("spec", [
        "cycle:7", "torus:3x3", "pathprod:2x2x2",
    ])
    def test_searches_with_an_image_match_brute_force(self, spec):
        g = generate(spec)
        maxima = brute_max_witnesses_all(g)
        # Wherever the partition prunes, its image prunes too.
        bounds = [len(_search(g, variant).bound) for variant in VARIANTS]
        assert set(bounds) <= {0, 2} and 2 in bounds
        for variant in VARIANTS:
            res = solve(g, variant)
            best = min(maxima[variant])
            assert res.value == len(best), variant
            assert tuple(res.witness.ids()) == best, variant


class TestAutomorphisms:
    def test_maps_are_distinct_automorphisms(self):
        # A part's automorphisms key its capacity memo. Each must be a
        # true automorphism; a map left out only costs a capacity search,
        # yet the groups of these small graphs come out whole, and the
        # step limit cuts only the larger groups of K5, K6, K1,5 and C3xC3.
        rng = random.Random(3)
        whole = [random_connected_graph(rng.randint(2, 7), rng, p=0.3)
                 for _ in range(30)]
        whole += [generate(spec) for spec in
                  ("cycle:7", "pathprod:2x2x2", "grid:2x3")]
        cut = [generate(spec) for spec in
               ("complete:5", "complete:6", "star:5", "torus:3x3")]
        for g in whole + cut:
            maps = automorphisms(g)
            true = set(all_automorphisms(g))
            assert len(set(maps)) == len(maps)
            assert set(maps) <= true, g.edges()
            assert (set(maps) == true) == (g not in cut), g.edges()


SYMMETRIC = {
    **{f"cycle:{n}": (lambda n=n: generate(f"cycle:{n}")) for n in range(3, 10)},
    **{f"complete:{n}": (lambda n=n: generate(f"complete:{n}")) for n in (4, 5, 6)},
    "Q3": lambda: generate("pathprod:2x2x2"),
    "petersen": petersen,
    "prism3": prism3,
    "K3,3": k33,
}


class TestOrbitalBranching:
    @pytest.mark.parametrize("name", sorted(SYMMETRIC))
    def test_symmetric_graphs_match_brute_force(self, name):
        g = SYMMETRIC[name]()
        maxima = brute_max_witnesses_all(g)
        for variant in VARIANTS:
            res = solve(g, variant)
            best = min(maxima[variant])
            assert res.value == len(best), variant
            assert tuple(res.witness.ids()) == best, variant

    def test_orbit_prunes_fire_on_symmetric_graphs(self):
        # grid:6x4 outer was the hereditary case until the partition bound
        # counted each part inside the node's mask, and pathprod:3x3x3
        # outer until the search branched on its lowest open vertex: the
        # bounds now cut the spine before any orbit is dropped there.
        for spec, variant in (("torus:5x5", "mutual"), ("torus:6x4", "dual"),
                              ("pathprod:3x3x3", "mutual")):
            stats = solve(generate(spec), variant).stats
            assert 0 < stats.orbit_prunes <= stats.prunes, spec

    @pytest.mark.parametrize("spec, variant, value, nodes, orbit_prunes", [
        pytest.param("torus:5x5", "mutual", 10, 1904, 28,
                     id="torus:5x5-mutual"),
        pytest.param("torus:6x4", "mutual", 11, 278, 0,
                     id="torus:6x4-mutual"),
        pytest.param("grid:6x6", "outer", 8, 112, 0, id="grid:6x6-outer"),
        pytest.param("pathprod:3x3x3", "outer", 9, 182, 0,
                     id="pathprod:3x3x3-outer"),
    ])
    def test_hereditary_tree_is_pinned(self, spec, variant, value, nodes,
                                       orbit_prunes):
        # Orbits are dropped on the include-only spine and nowhere else; a
        # change to where they are dropped changes these counts. The nodes
        # fell from 8664, 16103, 1107 and 1344 when the witness rebuild
        # began to reuse the maximum sets it holds, rose from 8609,
        # 13657, 1003 and 1151 when the witness phase became one id-order
        # query, and fell from 8620, 13675, 1012 and 1161 when the value
        # search began with the doll table, whose nodes they include. The
        # orbit prunes did not move. They fell from 3398, 4263, 659 and 905
        # when the partition bound began to count each part inside the
        # node's mask, and grid:6x6 outer's orbit prunes from 3 to 0. When
        # every search began to branch on its lowest open vertex rather
        # than in descending degree, the grid and path-product nodes fell
        # from 226 and 664, and pathprod:3x3x3 outer's orbit prunes from
        # 14 to 0; the tori did not move, as all their vertices have one
        # degree. When the search began to prune on the partition's
        # automorphism image too, the nodes fell from 3014, 434 and 186 (the
        # grid did not move), and torus:6x4 mutual's orbit prunes from 25 to
        # 0: the image cuts its spine before an orbit is dropped there. The
        # test ids name the instance only, so a count that moves does not
        # rename the test.
        res = solve(generate(spec), variant)
        assert res.value == value
        assert res.stats.nodes_explored == nodes
        assert res.stats.orbit_prunes == orbit_prunes

    def test_torus_value_phase_node_ceiling(self):
        # 36,199 value-phase nodes without orbital branching; 8,609 with it.
        assert value_phase_nodes(generate("torus:5x5"), "mutual") < 10_000
