import random
import sys
from itertools import combinations

import pytest

import mvis.symmetry
from mvis import (
    build_graph,
    generate,
    reduction_gprime,
    solve,
    solve_independence,
)
from mvis.solve import (
    _capacity,
    _DualSearch,
    _HereditarySearch,
    _orbit,
    _Search,
    _search,
    convex_partitions,
)
from mvis.symmetry import STEPS_PER_VERTEX, automorphism_group

from naive import (
    brute_max_witnesses_all,
    independent_maxima,
    random_connected_graph,
    random_product_graph,
)
from test_solve import KINDS, image_map, solve_kind, value_phase_nodes

VARIANTS = ("mutual", "total", "outer", "dual")


def members(mask):
    return [v for v in range(mask.bit_length()) if (mask >> v) & 1]


def all_automorphisms(g):
    """Every automorphism of ``g``: the permutations, built vertex by
    vertex in id order, that keep adjacency to every vertex placed."""
    adjacent = [[g.has_edge(u, w) for w in range(g.n)] for u in range(g.n)]
    found = []
    p = []

    def extend(used):
        u = len(p)
        if u == g.n:
            found.append(tuple(p))
            return
        for c in range(g.n):
            if not used >> c & 1 and all(
                    adjacent[u][w] == adjacent[c][p[w]] for w in range(u)):
                p.append(c)
                extend(used | 1 << c)
                p.pop()

    extend(0)
    return found


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


def image(sigma, mask):
    out = 0
    for v in members(mask):
        out |= 1 << sigma[v]
    return out


def stabiliser_orbit(g, fixed_ids, v, within=None):
    """The orbit of v under the maps of the group that fix each vertex of
    ``fixed_ids`` and, given ``within``, send that mask onto itself."""
    maps = [s for s in automorphism_group(g)
            if all(s[x] == x for x in fixed_ids)
            and (within is None or image(s, within) == within)]
    return _orbit(maps, v)


SYMMETRIC = {
    **{f"cycle:{n}": (lambda n=n: generate(f"cycle:{n}")) for n in range(3, 10)},
    **{f"complete:{n}": (lambda n=n: generate(f"complete:{n}")) for n in (4, 5, 6)},
    "Q3": lambda: generate("pathprod:2x2x2"),
    "petersen": petersen,
    "prism3": prism3,
    "K3,3": k33,
}


class TestStabilizerOrbit:
    """Pointwise-stabiliser orbits taken from the automorphism group, as
    the value search takes them on the include-only spine, against the
    orbits of brute force."""

    @pytest.mark.parametrize("name", [
        "torus:5x5", "grid:5x5", "ht:3", "gprime", "random",
    ])
    def test_every_map_found_is_an_automorphism(self, name):
        rng = random.Random(7)
        if name == "gprime":
            graphs = [gprime()]
        elif name == "random":
            graphs = [random_connected_graph(rng.randint(4, 9), rng, p=0.3)
                      for _ in range(12)]
        else:
            graphs = [generate(name)]
        for g in graphs:
            edges = set(g.edges())
            found = 0
            for _ in range(6):
                fixed_ids = rng.sample(range(g.n), rng.randint(0, 2))
                for sigma in automorphism_group(g)[1:]:
                    if all(sigma[x] == x for x in fixed_ids):
                        found += 1
                        assert sorted(sigma) == list(range(g.n))
                        images = {tuple(sorted((sigma[a], sigma[b])))
                                  for a, b in edges}
                        assert images == edges
            if name != "random":
                assert found  # each of these graphs has symmetry to find

    def test_orbits_lie_inside_the_true_orbits(self):
        # Where the group is whole, the orbits are the true ones; where
        # the cap cut it (K5 and K3,3), they lie inside them.
        rng = random.Random(11)
        graphs = [random_connected_graph(rng.randint(3, 7), rng, p=0.3)
                  for _ in range(25)]
        graphs += [generate("cycle:7"), generate("complete:5"), prism3(), k33()]
        capped = 0
        for g in graphs:
            autos = all_automorphisms(g)
            whole = len(automorphism_group(g)) == len(autos)
            capped += not whole
            for k in range(3):
                for fixed_ids in combinations(range(g.n), k):
                    stab = [p for p in autos if all(p[x] == x for x in fixed_ids)]
                    for v in range(g.n):
                        if v in fixed_ids:
                            continue
                        true = {p[v] for p in stab}
                        got = set(members(stabiliser_orbit(g, fixed_ids, v)))
                        assert v in got
                        assert got <= true, (g.edges(), fixed_ids, v)
                        assert got == true or not whole, (
                            g.edges(), fixed_ids, v)
        assert capped == 2

    def test_orbit_is_cut_to_within(self):
        # Maps that send a mask onto itself keep each orbit inside it: the
        # maps of one row of C5 x C5 move its vertices along the row only.
        g = generate("torus:5x5")
        row = sum(1 << v for v in range(g.n) if g.labels[v].startswith("(1,"))
        assert row.bit_count() == 5
        assert stabiliser_orbit(g, (), members(row)[2], row) == row

    @pytest.mark.parametrize("spec", ["torus:5x5", "torus:6x4", "torus:4x3"])
    def test_torus_is_one_orbit(self, spec):
        g = generate(spec)
        full = (1 << g.n) - 1
        assert stabiliser_orbit(g, (), 0) == full
        assert stabiliser_orbit(g, (), g.n - 1) == full

    def test_grid_corner_orbit_is_the_four_corners(self):
        g = generate("grid:5x5")
        at = g.vertex_by_label
        corners = sorted(at(f"({i},{j})") for i in (1, 5) for j in (1, 5))
        assert members(stabiliser_orbit(g, (), corners[0])) == corners
        # Fixing one corner leaves only the diagonal reflection through it.
        c, a, b = at("(1,1)"), at("(1,3)"), at("(3,1)")
        assert members(stabiliser_orbit(g, (c,), a)) == sorted([a, b])


class TestAutomorphismGroup:
    GRAPHS = {
        "torus:5x5": lambda: generate("torus:5x5"),
        "torus:7x6": lambda: generate("torus:7x6"),
        "grid:8x8": lambda: generate("grid:8x8"),
        "ht:3": lambda: generate("ht:3"),
        "pathprod:3x3x3": lambda: generate("pathprod:3x3x3"),
        "gprime": gprime,
        "complete:7": lambda: generate("complete:7"),
        "star:12": lambda: generate("star:12"),
    }

    @pytest.mark.parametrize("name", sorted(GRAPHS))
    def test_maps_are_distinct_automorphisms(self, name):
        g = self.GRAPHS[name]()
        group = automorphism_group(g)
        edges = set(g.edges())
        assert group[0] == tuple(range(g.n))
        assert len(set(group)) == len(group) <= STEPS_PER_VERTEX * g.n
        for sigma in group:
            assert sorted(sigma) == list(range(g.n))
            assert {tuple(sorted((sigma[a], sigma[b])))
                    for a, b in edges} == edges
        assert automorphism_group(g) is group  # kept on the graph

    @pytest.mark.parametrize("name", sorted(GRAPHS))
    def test_group_is_closed_below_the_cap(self, name):
        g = self.GRAPHS[name]()
        group = automorphism_group(g)
        held = set(group)
        if len(group) == STEPS_PER_VERTEX * g.n:
            # The cap cuts G' (432 maps), K7 and K1,12; C5 x C5 has exactly
            # 200 maps, the cap of 8 * 25.
            assert name in ("gprime", "complete:7", "star:12", "torus:5x5")
            return
        for a in group:
            for b in group:
                assert tuple(a[x] for x in b) in held, name

    @pytest.mark.parametrize("name", sorted(SYMMETRIC))
    def test_group_is_every_automorphism(self, name):
        # Below the cap the group is the whole automorphism group; K5 (120
        # maps), K6 (720), Petersen (120) and K3,3 (72) fill the cap of 8n.
        g = SYMMETRIC[name]()
        group = automorphism_group(g)
        true = set(all_automorphisms(g))
        cap = STEPS_PER_VERTEX * g.n
        assert set(group) <= true
        if len(true) <= cap:
            assert set(group) == true
        else:
            assert len(group) == cap
            assert name in ("complete:5", "complete:6", "petersen", "K3,3")

    def test_small_groups_are_whole_or_fill_the_cap(self):
        # A part's group keys its capacity memo, so these are graphs of a
        # part's size. Each map must be a true automorphism; a map left
        # out only costs a capacity search, yet the groups of these graphs
        # come out whole, C3 x C3's 72 maps exactly at the cap, and only
        # K5, K6 and K1,5 fill the cap of 8n short of their whole groups.
        rng = random.Random(3)
        whole = [random_connected_graph(rng.randint(2, 7), rng, p=0.3)
                 for _ in range(30)]
        whole += [generate(spec) for spec in
                  ("cycle:7", "pathprod:2x2x2", "grid:2x3", "torus:3x3")]
        capped = [generate(spec) for spec in
                  ("complete:5", "complete:6", "star:5")]
        for g in whole + capped:
            group = automorphism_group(g)
            true = set(all_automorphisms(g))
            assert len(set(group)) == len(group), g.edges()
            assert set(group) <= true, g.edges()
        for g in whole:
            assert set(automorphism_group(g)) == set(
                all_automorphisms(g)), g.edges()
        for g in capped:
            assert len(automorphism_group(g)) == STEPS_PER_VERTEX * g.n

    @pytest.mark.parametrize("spec", ["torus:5x5", "torus:6x6"])
    def test_torus_group_is_whole_at_the_cap(self, spec):
        # C5 x C5 has 5 * 5 * 2 * 2 * 2 = 200 automorphisms and C6 x C6
        # 288: exactly the cap of 8n.
        g = generate(spec)
        group = automorphism_group(g)
        assert set(group) == set(all_automorphisms(g))
        assert len(group) == STEPS_PER_VERTEX * g.n


class TestTinyGraphs:
    @pytest.mark.parametrize("spec, group", [
        pytest.param(None, ((),), id="empty"),
        pytest.param("complete:1", ((0,),), id="complete:1"),
    ])
    def test_identity_only_and_no_moving_map(self, spec, group):
        g = build_graph(0, []) if spec is None else generate(spec)
        assert automorphism_group(g) == group
        assert image_map(g) is None


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
            sigma = image_map(g)
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
            sigma = image_map(g)
            assert (None if sigma is None else sigma[0]) == min(
                moved, default=None), g.edges()

    def test_map_is_sought_once_per_graph(self, monkeypatch):
        # Each (kind, vertex mask) builds its own partition and image; the
        # map they share comes from the graph's one automorphism group. The
        # capacity searches build the groups of their part graphs, which
        # are other graphs.
        calls = []
        real = mvis.symmetry._automorphism_group
        monkeypatch.setattr(mvis.symmetry, "_automorphism_group",
                            lambda g: calls.append(g) or real(g))
        g = generate("torus:5x5")
        images = sum(_search(g, kind).merged_from == 2 for kind in KINDS)
        images += sum(not p.merged for p in convex_partitions(
            g, "mutual", (1 << 20) - 1)) - 1
        assert images >= 4
        assert [h for h in calls if h is g] == [g]
        assert automorphism_group(g) == real(generate("torus:5x5"))

    @pytest.mark.parametrize("spec", ["star:300", "random_tree:12:seed=0"])
    def test_no_image_without_a_map(self, spec):
        # star:300's vertex 0 is its centre, which every automorphism
        # fixes; so does every automorphism of this tree fix its vertex 0.
        # So neither P nor the merged partition M has an image, though
        # two parts of the tree's P merge.
        g = generate(spec)
        assert image_map(g) is None
        merges = 0
        for kind in KINDS:
            partitions = convex_partitions(g, kind, _search(g, kind).root[1])
            kinds = [p.merged for p in partitions]
            assert kinds in ([False], [False, True]), kind
            merges += len(kinds) - 1
        assert bool(merges) == (spec != "star:300")

    def test_capped_stabiliser_leaves_no_image(self):
        # tools/fuzz.py's product graph of seed 500: the maps that fix
        # vertex 0 fill the cap of 8n before a map that moves 0 joins the
        # group. An automorphism of the graph moves 0, but the image exists
        # only when the group holds one, so no search has an image, and the
        # searches lose pruning only.
        g = random_product_graph(random.Random(500))
        assert len(automorphism_group(g)) == STEPS_PER_VERTEX * g.n
        assert image_map(g) is None
        assert any(p[0] for p in all_automorphisms(g))
        maxima = brute_max_witnesses_all(g)
        maxima["independence"] = independent_maxima(g)
        for kind in KINDS:
            root = _search(g, kind).root[1]
            assert len(convex_partitions(g, kind, root)) == 1, kind
            res = solve_kind(g, kind)
            best = min(maxima[kind])
            assert res.value == len(best), kind
            assert tuple(res.witness.ids()) == best, kind

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

    @pytest.mark.parametrize("seed", [120, 134, 187, 279])
    def test_relabelled_products_match_brute_force(self, seed):
        # tools/fuzz.py's product graphs of these seeds: prisms over random
        # graphs, randomly numbered. With orbits on in narrowed capacity
        # searches, their dual values come out too low or their dual
        # witnesses wrong. The capacity memo starts cold, so the capacity
        # searches run here whatever ran before.
        g = random_product_graph(random.Random(seed))
        maxima = brute_max_witnesses_all(g)
        maxima["independence"] = independent_maxima(g)
        _capacity.cache_clear()
        for kind in KINDS:
            res = solve_kind(g, kind)
            best = min(maxima[kind])
            assert res.value == len(best), kind
            assert tuple(res.witness.ids()) == best, kind

    def test_carried_maps_keep_their_node(self, monkeypatch):
        # At every orbit drop, each map the node carries sends its inside
        # and open sets onto themselves, in every search a solve runs from
        # a cold capacity memo, its capacity searches, doll levels and
        # witness queries included. The cap of 8n binds on K7, K1,12,
        # Petersen, K3,3 and G'. The hook reads the node from the exclude
        # call that precedes each drop, and whether the innermost search
        # running is a decision query (``first``) from a wrapped _dfs; a
        # partition bound's capacity search runs inside another search.
        module = sys.modules[_Search.__module__]
        node = []
        counts = {}
        decision = {}  # orbit drops of more than v inside decision queries
        firsts = []
        dfs = _Search._dfs

        def tracking_dfs(self, inside, open_, floor, first, limit=0):
            firsts.append(first)
            try:
                return dfs(self, inside, open_, floor, first, limit)
            finally:
                firsts.pop()

        monkeypatch.setattr(_Search, "_dfs", tracking_dfs)

        def recording(exclude):
            def wrapper(self, inside, open_, v):
                node[:] = [inside, open_, v]
                return exclude(self, inside, open_, v)
            return wrapper

        for cls in (_HereditarySearch, _DualSearch):
            monkeypatch.setattr(cls, "exclude", recording(cls.exclude))
        orbit = module._orbit

        def checking_orbit(maps, v):
            inside, open_, u = node
            assert u == v
            for sigma in maps:
                kept = (image(sigma, inside), image(sigma, open_)) == (
                    inside, open_)
                counts[name][kept] += 1
            found = orbit(maps, v)
            if firsts[-1] and found != 1 << v:
                decision[name] += 1
            return found

        monkeypatch.setattr(module, "_orbit", checking_orbit)
        graphs = {name: generate(name) for name in (
            "cycle:8", "complete:7", "star:12", "torus:3x3", "torus:4x3",
            "pathprod:2x2x3", "grid:4x4")}
        graphs.update(petersen=petersen(), k33=k33(), gprime=gprime())
        _capacity.cache_clear()
        for name, g in graphs.items():
            counts[name] = [0, 0]  # maps that moved the node, that kept it
            decision[name] = 0
            for variant in VARIANTS:
                solve(g, variant)
            solve_independence(g)
        assert not any(bad for bad, _ in counts.values()), counts
        assert sum(kept > 0 for _, kept in counts.values()) >= 7, counts
        for name in ("torus:3x3", "torus:4x3", "pathprod:2x2x3", "grid:4x4"):
            assert decision[name] > 0, decision

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
        pytest.param("torus:5x5", "mutual", 10, 657, 53,
                     id="torus:5x5-mutual"),
        pytest.param("torus:6x4", "mutual", 11, 241, 23,
                     id="torus:6x4-mutual"),
        pytest.param("grid:6x6", "outer", 8, 90, 0, id="grid:6x6-outer"),
        pytest.param("pathprod:3x3x3", "outer", 9, 158, 8,
                     id="pathprod:3x3x3-outer"),
    ])
    def test_hereditary_tree_is_pinned(self, spec, variant, value, nodes,
                                       orbit_prunes):
        # Orbits are dropped at every node whose exclude child passes the
        # count test, under the maps the node carries; a change to where
        # they are dropped changes these counts. The nodes
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
        # 0: the image cuts its spine before an orbit is dropped there. When
        # every node began to drop orbits under the maps it carries down
        # from the graph's automorphism group, not only the spine under
        # the pointwise stabiliser of its inside set, torus:5x5 mutual's
        # nodes fell from 1904 and its orbit prunes rose from 28 (the
        # others did not move). When the doll table began to extend its
        # last set by one test, to stop at the root bound, and its level
        # queries and the witness query to drop orbits too, the nodes
        # fell from 1056, 278, 112 and 182, and the orbit prunes rose
        # from 48, 0, 0 and 0 (grid:6x6 outer drops none). When the search
        # began to prune on the merged partition M and its image too,
        # torus:5x5 mutual's nodes fell from 1027 and grid:6x6 outer's
        # from 104 (the others did not move). The test ids
        # name the instance only, so a count that moves does not rename
        # the test.
        res = solve(generate(spec), variant)
        assert res.value == value
        assert res.stats.nodes_explored == nodes
        assert res.stats.orbit_prunes == orbit_prunes

    def test_star_doll_table_extends_its_last_set(self):
        # Every level of a star's doll table extends the set of the level
        # above by its leaf, so each takes one shortcut test, and the
        # table stops at the root bound, k. 1,899 nodes when each level
        # ran a decision query of about k / 2 nodes (k^2 / 2 in all).
        res = solve(generate("star:60"), "mutual")
        assert res.value == 60
        assert res.stats.nodes_explored <= 130

    def test_torus_value_phase_node_ceiling(self):
        # 36,199 value-phase nodes without orbital branching; 8,609 with it.
        assert value_phase_nodes(generate("torus:5x5"), "mutual") < 10_000
