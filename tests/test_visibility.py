import random
import sys

import pytest

import mvis.visibility
from mvis import (
    UNREACHABLE,
    PairVisibility,
    VertexSet,
    VisibilityReport,
    all_pairs_distances,
    classify_set,
    constrained_distance,
    generate,
    interval,
    is_bypass_candidate,
    is_pair_visible,
    solve,
    solve_independence,
)
from mvis.solve import convex_partitions, dual_zero_sufficient
from mvis.visibility import pair_visibility

from naive import (
    naive_classify,
    naive_visible,
    random_connected_graph,
    random_subset,
)

VARIANTS = ("mutual", "total", "outer", "dual")


class TestConstrainedDistance:
    def test_c6_antipodal_blockers(self):
        g = generate("cycle:6")
        cd = constrained_distance(g, [0, 3], 0)
        assert cd[3] == 3  # both arcs internally avoid the blockers

    def test_path_cut_vertex(self):
        g = generate("path:5")
        cd = constrained_distance(g, [2], 0)
        assert cd[4] == UNREACHABLE

    def test_c4_alternate_route(self):
        g = generate("cycle:4")
        cd = constrained_distance(g, [1], 0)
        assert cd[2] == 2  # via vertex 3

    def test_blockers_get_levels_but_no_expansion(self):
        g = generate("path:4")
        cd = constrained_distance(g, [1], 0)
        assert cd[1] == 1
        assert cd[2] == UNREACHABLE


class TestPairVisible:
    def test_adjacent_always(self):
        g = generate("cycle:6")
        rng = random.Random(0)
        for _ in range(10):
            x = random_subset(6, rng, 0.5)
            assert is_pair_visible(g, x, 2, 3)

    def test_c6_far_arc(self):
        g = generate("cycle:6")
        assert is_pair_visible(g, [0, 1], 5, 2)

    def test_p5_blocked(self):
        g = generate("path:5")
        assert not is_pair_visible(g, [1, 3], 0, 4)

    def test_matches_naive_on_random_graphs(self):
        rng = random.Random(42)
        for _ in range(30):
            g = random_connected_graph(rng.randint(2, 7), rng)
            x = random_subset(g.n, rng)
            u, v = rng.randrange(g.n), rng.randrange(g.n)
            if u == v:
                continue
            assert is_pair_visible(g, x, u, v) == naive_visible(g, x, u, v)


class TestClassifySet:
    def test_c6_adjacent_pair_is_dual(self):
        g = generate("cycle:6")
        assert classify_set(g, [0, 1]).is_dual
        assert not classify_set(g, [0]).is_dual

    def test_path_endpoints_total(self):
        for n in range(2, 9):
            g = generate(f"path:{n}")
            assert classify_set(g, [0, n - 1]).is_total

    def test_c3c3_layer_total(self):
        g = generate("torus:3x3")
        ids = [g.vertex_by_label(f"(1,{j})") for j in (1, 2, 3)]
        assert classify_set(g, ids).is_total

    def test_c5_three_vertices_mutual(self):
        g = generate("cycle:5")
        rep = classify_set(g, [0, 2, 3])
        assert rep.is_mutual == naive_classify(g, [0, 2, 3])["mutual"]
        assert rep.is_mutual

    def test_empty_set_every_variant(self):
        for spec in ("cycle:7", "path:4", "grid:3x3"):
            rep = classify_set(generate(spec), [])
            assert rep.is_mutual and rep.is_total and rep.is_outer and rep.is_dual
            assert rep.violations == {}

    def test_implications(self):
        rng = random.Random(9)
        for _ in range(120):
            g = random_connected_graph(rng.randint(2, 8), rng)
            rep = classify_set(g, random_subset(g.n, rng))
            if rep.is_total:
                assert rep.is_outer and rep.is_dual
            if rep.is_outer or rep.is_dual:
                assert rep.is_mutual

    def test_violations_are_real_and_lex_first(self):
        rng = random.Random(13)
        checked = 0
        while checked < 40:
            g = random_connected_graph(rng.randint(3, 7), rng)
            x = random_subset(g.n, rng)
            rep = classify_set(g, x)
            member = lambda v: v in x
            required = {
                "mutual": lambda u, v: member(u) and member(v),
                "total": lambda u, v: True,
                "outer": lambda u, v: member(u) or member(v),
                "dual": lambda u, v: member(u) == member(v),
            }
            for variant, pair in rep.violations.items():
                u, v = pair
                assert not naive_visible(g, x, u, v)
                req = required[variant]
                assert req(u, v)
                for a in range(g.n):
                    for b in range(a + 1, g.n):
                        if (a, b) == (u, v):
                            break
                        if req(a, b):
                            assert naive_visible(g, x, a, b)
                    else:
                        continue
                    break
                checked += 1

    def test_agrees_with_naive_oracle(self):
        rng = random.Random(77)
        for _ in range(60):
            g = random_connected_graph(rng.randint(2, 7), rng)
            x = random_subset(g.n, rng)
            rep = classify_set(g, x)
            flags = naive_classify(g, x)
            assert rep.is_mutual == flags["mutual"]
            assert rep.is_total == flags["total"]
            assert rep.is_outer == flags["outer"]
            assert rep.is_dual == flags["dual"]

    @pytest.mark.parametrize("spec", [
        "grid:8x8", "torus:6x6", "ht:3", "star:12", "path:9", "random",
    ])
    def test_matches_per_source_pairs_on_larger_graphs(self, spec):
        rng = random.Random(31)
        if spec == "random":
            graphs = [random_connected_graph(rng.randint(8, 16), rng)
                      for _ in range(12)]
        else:
            graphs = [generate(spec)]
        for g in graphs:
            sets = [random_subset(g.n, rng, p) for p in (0.1, 0.3, 0.6)]
            sets += [VertexSet(g.n), VertexSet(g.n, range(g.n)),
                     VertexSet(g.n, [rng.randrange(g.n)])]
            for x in sets:
                assert classify_set(g, x) == per_source_report(g, x), x.ids()


def per_source_report(g, x) -> VisibilityReport:
    """The report :func:`classify_set` should give, from one
    :func:`is_pair_visible` call (a per-source constrained BFS against the
    distance matrix) per required pair, pairs in lexicographic order."""
    first = {}
    for u in range(g.n):
        for v in range(u + 1, g.n):
            inside = (u in x) + (v in x)
            required = {"mutual": inside == 2, "total": True,
                        "outer": inside >= 1, "dual": inside != 1}
            wanted = [k for k, req in required.items()
                      if req and k not in first]
            if wanted and not is_pair_visible(g, x, u, v):
                first.update(dict.fromkeys(wanted, (u, v)))
    return VisibilityReport(
        *(k not in first for k in VARIANTS),
        violations={k: first[k] for k in VARIANTS if k in first},
    )


class TestHeredity:
    def test_mutual_outer_total_hereditary(self):
        rng = random.Random(5)
        trials = 0
        while trials < 300:
            g = random_connected_graph(rng.randint(3, 9), rng)
            x = random_subset(g.n, rng, 0.5)
            if x.card < 2:
                continue
            rep = classify_set(g, x)
            sub = VertexSet(g.n, [v for v in x if rng.random() < 0.6])
            subrep = classify_set(g, sub)
            if rep.is_mutual:
                assert subrep.is_mutual
            if rep.is_outer:
                assert subrep.is_outer
            if rep.is_total:
                assert subrep.is_total
            trials += 1

    def test_dual_not_hereditary_c6(self):
        g = generate("cycle:6")
        assert classify_set(g, [0, 1]).is_dual
        assert not classify_set(g, [0]).is_dual

    def test_monotone_obstruction(self):
        rng = random.Random(21)
        hits = 0
        while hits < 60:
            g = random_connected_graph(rng.randint(3, 8), rng)
            x = random_subset(g.n, rng)
            u, v = rng.randrange(g.n), rng.randrange(g.n)
            if u == v or is_pair_visible(g, x, u, v):
                continue
            sup = x.mask
            for w in range(g.n):
                if w not in (u, v) and rng.random() < 0.4:
                    sup |= 1 << w
            assert not is_pair_visible(g, sup, u, v)
            hits += 1


class TestBypassCandidates:
    def test_tree_leaf(self):
        g = generate("star:4")
        assert is_bypass_candidate(g, 1)  # a leaf
        assert not is_bypass_candidate(g, 0)  # the center

    def test_c5_vertices_are_middles(self):
        g = generate("cycle:5")
        assert not any(is_bypass_candidate(g, v) for v in range(5))

    def test_c4_vertices_are_not(self):
        g = generate("cycle:4")
        assert all(is_bypass_candidate(g, v) for v in range(4))

    def test_grid_corners_only(self):
        g = generate("grid:4x3")
        cands = [v for v in range(g.n) if is_bypass_candidate(g, v)]
        corners = sorted(
            g.vertex_by_label(lab) for lab in ("(1,1)", "(1,3)", "(4,1)", "(4,3)")
        )
        assert cands == corners

    def test_singleton_total_sets_are_the_candidates(self):
        # The hereditary total search relies on this to need no filter.
        rng = random.Random(12)
        for _ in range(40):
            g = random_connected_graph(rng.randint(2, 10), rng,
                                       p=rng.choice((0.2, 0.3, 0.5)))
            totals = [v for v in range(g.n) if classify_set(g, [v]).is_total]
            cands = [v for v in range(g.n) if is_bypass_candidate(g, v)]
            assert totals == cands, g.edges()


def kernel_graph(spec):
    if spec == "random":
        return random_connected_graph(14, random.Random(31), p=0.2)
    return generate(spec)


def walk_blockers(n, rng, steps):
    """Blocker masks that drift one vertex at a time, as in a search, with
    an occasional jump to a fresh random set."""
    xmask = 0
    for _ in range(steps):
        if rng.random() < 0.05:
            xmask = random_subset(n, rng, rng.uniform(0.1, 0.6)).mask
        else:
            xmask ^= 1 << rng.randrange(n)
        yield xmask


class TestPairVisibilityKernel:
    """The cached-witness kernel against the constrained-BFS predicates,
    over long blocker sequences that leave stale hints behind."""

    SPECS = ["grid:5x5", "torus:5x4", "ht:2", "random"]

    @pytest.mark.parametrize("spec", SPECS)
    def test_table_matches_intervals(self, spec):
        g = kernel_graph(spec)
        n = g.n
        d = all_pairs_distances(g)
        adj = g.adjacency_masks()
        pv = PairVisibility(g)

        def nearer(span, u, z):
            """The vertices of ``span`` one step nearer u than z is."""
            return sum(1 << y for y in range(n)
                       if (span >> y) & 1 and d[u][y] == d[u][z] - 1)

        for u in range(n):
            for v in range(u + 1, n):
                pid = u * n + v
                assert pv.pair_ids[u][v] == pv.pair_ids[v][u] == pid
                ends = (1 << u) | (1 << v)
                span = interval(g, u, v).mask
                assert pv.interior[pid] == span & ~ends, (u, v)
                assert sum(bit for bit, _ in pv.entries[pid]) == span & ~ends
                for bit, pm in pv.entries[pid]:
                    z = bit.bit_length() - 1
                    assert pm == adj[z] & nearer(span, u, z), (u, v, z)
                # visible_pid's sweep reaches u and interior vertices only,
                # and walks back from v's neighbours among them.
                assert (adj[v] & (pv.interior[pid] | 1 << u)
                        == adj[v] & nearer(span, u, v)), (u, v)

    @pytest.mark.parametrize("spec", SPECS)
    def test_visible_pid_matches_bfs(self, spec):
        g = kernel_graph(spec)
        n = g.n
        pv = PairVisibility(g)
        rng = random.Random(5)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        hot = rng.sample(pairs, 12)  # re-tested under every mask
        answers = set()
        for xmask in walk_blockers(n, rng, 300):
            x = VertexSet.from_mask(n, xmask)
            for u, v in hot + rng.sample(pairs, 8):
                pid = u * n + v
                got = pv.visible_pid(pid, xmask)
                assert got == is_pair_visible(g, x, u, v), (u, v, x.ids())
                if got:  # the hint is now a geodesic that avoids x
                    assert not pv.hint[pid] & xmask
                answers.add(got)
        assert answers == {True, False}

    @pytest.mark.parametrize("spec", SPECS)
    def test_hints_stay_geodesic_interiors(self, spec):
        g = kernel_graph(spec)
        n = g.n
        d = all_pairs_distances(g)
        pv = PairVisibility(g)
        rng = random.Random(6)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        for xmask in walk_blockers(n, rng, 200):
            for u, v in rng.sample(pairs, 20):
                pv.visible_pid(u * n + v, xmask)
        narrowed = 0
        for u, v in pairs:
            pid = u * n + v
            hint = pv.hint[pid]
            assert hint & ~pv.interior[pid] == 0
            if hint == pv.interior[pid]:
                continue
            narrowed += 1
            # One geodesic: d(u,v) - 1 interior vertices that stay visible
            # when every other interval vertex blocks.
            assert hint.bit_count() == d[u][v] - 1
            others = VertexSet.from_mask(n, pv.interior[pid] & ~hint)
            assert is_pair_visible(g, others, u, v)
        assert narrowed > 0

    @pytest.mark.parametrize("spec", SPECS)
    def test_row_matches_constrained_distance(self, spec):
        g = kernel_graph(spec)
        n = g.n
        d = all_pairs_distances(g)
        pv = PairVisibility(g)
        rng = random.Random(7)
        for xmask in walk_blockers(n, rng, 150):
            x = VertexSet.from_mask(n, xmask)
            u = rng.randrange(n)
            cd = constrained_distance(g, x, u)
            want = sum(1 << w for w in range(n) if cd[w] == d[u][w])
            assert pv.row(u, xmask) == want, (u, x.ids())

    @pytest.mark.parametrize("spec", SPECS)
    def test_memo_gives_what_a_fresh_sweep_gives(self, spec):
        g = kernel_graph(spec)
        n = g.n
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]

        def calls():
            rng = random.Random(8)
            for xmask in walk_blockers(n, rng, 200):
                for u, v in rng.sample(pairs, 15):
                    yield u * n + v, xmask

        warmed = PairVisibility(g)
        for pid, xmask in calls():
            warmed.visible_pid(pid, xmask)
        # The replay starts from the same hints on both tables, so only
        # the warmed table's memo differs.
        warmed.hint = list(warmed.interior)
        held = len(warmed.memo)
        assert held > 0
        fresh = PairVisibility(g)
        for pid, xmask in calls():
            assert (warmed.visible_pid(pid, xmask)
                    == fresh.visible_pid(pid, xmask)), pid
            assert warmed.hint[pid] == fresh.hint[pid], pid
        # Every sweep of the replay was answered from the memo.
        assert len(warmed.memo) == held
        assert warmed.hint == fresh.hint

    def test_memo_stays_within_its_limit(self, monkeypatch):
        monkeypatch.setattr(mvis.visibility, "PAIR_MEMO_LIMIT", 7)
        g = kernel_graph("grid:5x5")
        n = g.n
        pv = PairVisibility(g)
        rng = random.Random(9)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        largest = 0
        for xmask in walk_blockers(n, rng, 200):
            x = VertexSet.from_mask(n, xmask)
            for u, v in rng.sample(pairs, 10):
                got = pv.visible_pid(u * n + v, xmask)
                assert got == is_pair_visible(g, x, u, v), (u, v, x.ids())
                assert len(pv.memo) <= 7
                largest = max(largest, len(pv.memo))
        assert largest == 7

    def test_classify_set_does_not_use_the_kernel(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("classify_set built a PairVisibility")

        monkeypatch.setattr(mvis.visibility, "PairVisibility", refuse)
        g = generate("grid:4x4")
        rep = classify_set(g, [0, 3, 12, 15])
        assert rep.is_mutual and rep.is_outer

    def test_classify_set_computes_no_distance_matrix(self):
        g = generate("grid:8x8")
        rep = classify_set(g, [0, 9, 27, 63])
        assert rep.is_mutual and not rep.is_total and g._dist is None


class TestOneTablePerGraph:
    def test_table_is_cached_on_the_graph(self):
        g = generate("grid:4x3")
        assert pair_visibility(g) is pair_visibility(g)
        assert pair_visibility(generate("grid:4x3")) is not pair_visibility(g)

    def test_every_search_on_a_graph_shares_one_table(self, monkeypatch):
        built = []

        class Counting(PairVisibility):
            def __init__(self, g):
                super().__init__(g)
                built.append(g.n)

        monkeypatch.setattr(mvis.visibility, "PairVisibility", Counting)
        g = generate("grid:5x5")
        for variant in VARIANTS:
            solve(g, variant)
        solve_independence(g)
        convex_partitions(g, "outer")
        dual_zero_sufficient(g)
        # Part capacities are solved on smaller graphs with their own tables.
        assert built.count(g.n) == 1


@pytest.fixture
def solve_calls(monkeypatch):
    """Counts the calls of a function of the solve module: given its name,
    returns the list of the argument tuples of every call from now on."""
    # mvis.solve is the function; the module is found through it.
    module = sys.modules[convex_partitions.__module__]

    def count(name):
        calls = []
        func = getattr(module, name)

        def counting(*args):
            calls.append(args)
            return func(*args)

        monkeypatch.setattr(module, name, counting)
        return calls

    return count


@pytest.fixture
def hull_calls(solve_calls):
    """The argument tuples of every ``_hull_with`` call from now on."""
    return solve_calls("_hull_with")


class TestOnePartitionPerGraphAndKind:
    def test_partition_is_cached_on_the_graph(self):
        g = generate("grid:4x3")
        full = (1 << g.n) - 1
        root = sum(1 << v for v in range(g.n) if is_bypass_candidate(g, v))
        assert root != full
        outer = convex_partitions(g, "outer", full)
        assert convex_partitions(g, "outer", full) is outer
        assert convex_partitions(g, "outer") is outer  # no mask: the full one
        assert convex_partitions(g, "mutual", full) is not outer
        total = convex_partitions(g, "total", root)
        assert convex_partitions(g, "total", root) is total
        assert convex_partitions(g, "total", full) is not total
        assert convex_partitions(generate("grid:4x3"), "outer") is not outer

    def test_second_solve_builds_no_hull(self, hull_calls):
        g = generate("grid:5x5")
        solves = [lambda v=v: solve(g, v) for v in VARIANTS]
        for run in solves + [lambda: solve_independence(g)]:
            run()
            built = len(hull_calls)
            run()
            assert len(hull_calls) == built
        assert hull_calls  # the first solves did build their partitions

    @pytest.mark.parametrize("spec, kind, hulls, capacities", [
        pytest.param("grid:8x8", "dual", 6906, 19, id="grid:8x8-dual"),
        pytest.param("torus:6x6", "mutual", 2266, 21, id="torus:6x6-mutual"),
        pytest.param("grid:5x5", "mutual", 604, 9, id="grid:5x5-mutual"),
        pytest.param("ht:3", "dual", 1223, 79, id="ht:3-dual"),
    ])
    def test_root_partition_tries_a_pinned_number_of_hulls(
            self, solve_calls, hull_calls, spec, kind, hulls, capacities):
        # A round scores and steps each hull once, however many seed
        # chains meet it. Part capacities are searches with no partition
        # of their own, so even with a cold capacity memo the build runs
        # one partition, every hull it tries is the root's and every
        # capacity it solves is one of a root hull, or of a union of two
        # parts in the merged partition: one more on grid:8x8, grid:5x5
        # and ht:3, whose unions share one shape (18, 8 and 78 before the
        # merged partition); torus:6x6's C6 x P2 parts make no convex
        # union. The test ids name the instance only, so a count that
        # moves does not rename the test.
        module = sys.modules[convex_partitions.__module__]
        partitions = solve_calls("_partition")
        module._capacity.cache_clear()
        module._search(generate(spec), kind)
        assert len(hull_calls) == hulls
        assert len(partitions) == 1
        assert module._capacity.cache_info().misses == capacities
