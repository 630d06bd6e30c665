import dataclasses
import os
import random
import subprocess
import sys
import time

import pytest

import mvis
from mvis import (
    GraphError,
    Incomplete,
    IncompleteCover,
    SolveOptions,
    TooSmall,
    VertexSet,
    build_graph,
    classify_set,
    dual_zero_by_cover,
    dual_zero_sufficient,
    generate,
    graph_stats,
    induced_subgraph,
    interval,
    is_convex,
    solve,
    solve_independence,
    total_is_zero,
)
from mvis.cli import main
from mvis.solve import (
    PART_LIMIT,
    _BudgetExceeded,
    _capacity,
    _DualSearch,
    _HereditarySearch,
    _part_capacity,
    _part_edges,
    _Search,
    _search,
    convex_partitions,
)
from mvis.symmetry import automorphism_group
from mvis.visibility import PAIR_TABLE_LIMIT, pair_visibility

from naive import (
    brute_max,
    brute_max_all,
    brute_max_witnesses,
    brute_max_witnesses_all,
    random_connected_graph,
)

VARIANTS = ("mutual", "total", "outer", "dual")
KINDS = VARIANTS + ("independence",)


def solve_kind(g, kind, opts=None):
    """A solve of any of the five kinds, independence included."""
    if kind == "independence":
        return solve_independence(g, opts)
    return solve(g, kind, opts)


def image_map(g):
    """The map sigma of the image partition: the first map of ``g``'s
    automorphism group that moves vertex 0, or None."""
    return next((tau for tau in automorphism_group(g)[1:] if tau[0]), None)


def value_phase_nodes(g, kind):
    """Nodes of the value phase: the smallest node budget under which the
    value gets certified (the phase is deterministic, so certification is
    monotone in the budget)."""

    def certified(budget):
        try:
            solve_kind(g, kind, SolveOptions(node_budget=budget))
        except Incomplete as inc:
            return inc.value_certified
        return True

    lo, hi = 0, solve_kind(g, kind).stats.nodes_explored
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if certified(mid):
            hi = mid
        else:
            lo = mid
    return hi


def torus_layer(n, m, j):
    """Ids of the n-factor layer at second coordinate j (1-based)."""
    return VertexSet(n * m, [(i - 1) * m + (j - 1) for i in range(1, n + 1)])


class TestExhaustiveAgreement:
    def test_every_connected_graph_on_4_and_5_vertices(self):
        from itertools import combinations

        from mvis import DisconnectedGraph, build_graph

        for n in (4, 5):
            all_pairs = list(combinations(range(n), 2))
            for mask in range(1 << len(all_pairs)):
                edges = [e for k, e in enumerate(all_pairs) if (mask >> k) & 1]
                try:
                    g = build_graph(n, edges)
                except DisconnectedGraph:
                    continue
                brute = brute_max_all(g)
                for variant in VARIANTS:
                    res = solve(g, variant)
                    assert res.value == brute[variant], (variant, edges)
                    assert classify_set(g, res.witness).holds(variant)
                assert total_is_zero(g) == (brute["total"] == 0)

    def test_single_vertex_graph(self):
        g = generate("complete:1")
        for variant in VARIANTS:
            res = solve(g, variant)
            assert res.value == 1
            assert res.witness.ids() == [0]
        assert classify_set(g, [0]).is_total

    @pytest.mark.slow
    def test_every_connected_graph_on_6_vertices(self):
        from itertools import combinations

        from mvis import DisconnectedGraph, build_graph

        n = 6
        all_pairs = list(combinations(range(n), 2))
        for mask in range(1 << len(all_pairs)):
            edges = [e for k, e in enumerate(all_pairs) if (mask >> k) & 1]
            try:
                g = build_graph(n, edges)
            except DisconnectedGraph:
                continue
            brute = brute_max_all(g)
            for variant in VARIANTS:
                assert solve(g, variant).value == brute[variant], (
                    variant, edges,
                )

    def test_random_graphs_all_variants(self):
        rng = random.Random(2024)
        for _ in range(25):
            g = random_connected_graph(rng.randint(2, 8), rng)
            for variant in VARIANTS:
                res = solve(g, variant)
                assert res.value == brute_max(g, variant), (variant, g.edges())
                assert classify_set(g, res.witness).holds(variant)
                assert res.witness.card == res.value

    def test_total_search_agrees_with_brute_force(self):
        rng = random.Random(31)
        for _ in range(15):
            g = random_connected_graph(rng.randint(2, 8), rng)
            brute = brute_max(g, "total")
            assert solve(g, "total").value == brute, g.edges()
            assert total_is_zero(g) == (brute == 0), g.edges()


def submasks(mask):
    """Every submask of ``mask``, ``mask`` first and 0 last."""
    x = mask
    while True:
        yield x
        if not x:
            return
        x = (x - 1) & mask


def largest_inside(g, kind, mask):
    """The largest variant-set of ``g`` inside ``mask``, apart from the
    solver: a hereditary kind walks its down-closed family level by level,
    with :func:`classify_set` on each set; level k + 1 extends each set of
    level k by a vertex of ``mask`` above its highest, and as every
    variant-set of size k + 1 less its highest vertex is one of size k,
    the walk misses none. Dual is not hereditary, so it classifies every
    submask of ``mask``."""
    if kind == "dual":
        return max(x.bit_count() for x in submasks(mask)
                   if classify_set(g, x).is_dual)
    level, size = [0], 0
    while True:
        level = [y for x in level for v in range(x.bit_length(), g.n)
                 if mask >> v & 1
                 and classify_set(g, y := x | 1 << v).holds(kind)]
        if not level:
            return size
        size += 1


def union_capacity(sub, kind, halves):
    """The capacity of ``sub``, a union of the convex parts whose
    capacities are ``halves``, apart from the solver. A hereditary kind
    walks the down-closed family (:func:`largest_inside`). Otherwise the
    lemma bounds it by the sum of ``halves``, and a set of that size which
    :func:`classify_set` accepts shows that the sum is met; a union whose
    capacity is below the sum fails the test rather than go unchecked."""
    if kind != "dual":
        return largest_inside(sub, kind, (1 << sub.n) - 1)
    witness = solve(sub, kind).witness
    assert classify_set(sub, witness).is_dual
    assert witness.card == sum(halves), "no check apart from the solver"
    return witness.card


def regrown_partition(g, kind, searched=None):
    """The greedy partition of :func:`convex_partitions` without its memo,
    as (parts, free): every round regrows the chain of every seed edge from
    scratch, and a hull is the closure of a vertex mask under the graph's
    intervals."""
    n = g.n
    full = (1 << n) - 1
    room = full if searched is None else searched
    limit = min(PART_LIMIT, n - 1)
    if limit < 3:
        return [], full
    iv = {(a, b): interval(g, a, b).mask
          for a in range(n) for b in range(a + 1, n)}

    def fitting_hull(mask):
        while mask.bit_count() <= limit and not mask & ~room:
            ids = [v for v in range(n) if mask >> v & 1]
            grown = mask
            for i, a in enumerate(ids):
                for b in ids[i + 1:]:
                    grown |= iv[a, b]
            if grown == mask:
                return mask
            mask = grown
        return 0

    def key(h):
        size = h.bit_count()
        if size < 3:
            return None
        cap = _part_capacity(g, kind, h)
        return (cap / size, -size, h, cap) if cap < size else None

    parts = []
    while True:
        best = None
        for a, b in g.edges():
            h = (1 << a) | (1 << b)
            if h & ~room:
                continue
            while h:
                k = key(h)
                if k is not None and (best is None or k < best):
                    best = k
                # The smallest fitting hull of h plus a neighbour in room,
                # lowest neighbour id on ties.
                steps = []
                for w in range(n):
                    if (room >> w & 1 and not h >> w & 1
                            and any(h >> u & 1 for u in g.adj[w])):
                        h2 = fitting_hull(h | 1 << w)
                        if h2:
                            steps.append((h2.bit_count(), w, h2))
                h = min(steps)[2] if steps else 0
        if best is None:
            covered = 0
            for part, _ in parts:
                covered |= part
            return parts, full & ~covered
        parts.append((best[2], best[3]))
        room &= ~best[2]


class TestPartitionBound:
    def test_random_graphs_match_brute_force(self):
        rng = random.Random(2025)
        bound_prunes = 0
        for _ in range(40):
            g = random_connected_graph(rng.randint(2, 8), rng, p=0.25)
            maxima = brute_max_witnesses_all(g)
            for variant in VARIANTS:
                res = solve(g, variant)
                assert res.value == brute_max(g, variant), (variant, g.edges())
                assert tuple(res.witness.ids()) == min(maxima[variant]), (
                    variant, g.edges(),
                )
                bound_prunes += res.stats.bound_prunes
        assert bound_prunes > 0  # the bound really pruned in these searches

    @pytest.mark.parametrize("spec, variants", [
        ("grid:7x4", VARIANTS),
        ("torus:5x5", VARIANTS),
        ("ht:3", ("total", "outer", "dual")),
        ("random", VARIANTS),
    ])
    def test_parts_are_disjoint_convex_and_exact(self, spec, variants):
        # Every partition a search prunes on: the greedy one P and, where
        # there is one, its automorphism image, then the merged partition
        # M and its image, where two parts of P merge. A part of P has its
        # capacity by brute force over its subsets. A union of M has up to
        # 24 vertices, so it is checked apart from the solver by
        # union_capacity, and its halves must be parts of P or of its
        # image with the capacities M gives them.
        if spec == "random":
            g = random_connected_graph(10, random.Random(12), p=0.2)
        else:
            g = generate(spec)
        brute_cache = {}
        full = (1 << g.n) - 1
        images = merges = 0
        for variant in variants:
            search = _search(g, variant)
            room = search.root[1]
            partitions = convex_partitions(g, variant, room)
            assert search.bound == tuple(p.bound for p in partitions
                                         if p.parts)
            assert [p.merged for p in partitions] == sorted(
                p.merged for p in partitions)
            fine = [p for p in partitions if not p.merged]
            images += len(fine) - 1
            merges += len(fine) < len(partitions)
            fine_parts = {part for p in fine for part in p.parts}
            value = solve(g, variant).value
            for partition in partitions:
                covered = 0
                for part, cap in partition.parts:
                    assert not covered & part
                    covered |= part
                    vs = VertexSet.from_mask(g.n, part)
                    assert 3 <= vs.card < g.n
                    assert part != room
                    assert is_convex(g, vs)
                    sub, _ = induced_subgraph(g, vs)
                    _, ids, halves = partition.shape[part]
                    if halves:
                        assert partition.merged
                        (a, _), (b, _) = halves
                        assert not a & b and a | b == (1 << vs.card) - 1
                        for h, c in halves:
                            assert (sum(1 << ids[i] for i in range(vs.card)
                                        if h >> i & 1), c) in fine_parts
                        key = (tuple(sub.edges()), variant)
                        if key not in brute_cache:
                            brute_cache[key] = union_capacity(
                                sub, variant, [c for _, c in halves])
                        assert cap == brute_cache[key] < vs.card
                    else:
                        key = tuple(sub.edges())
                        if key not in brute_cache:
                            brute_cache[key] = brute_max_all(sub)
                        assert cap == brute_cache[key][variant] < vs.card
                assert covered | partition.free == full
                assert not covered & partition.free
                assert partition.bound(full) >= value
        # grid:7x4's map is a reflection that keeps its set of lines, so it
        # has no image; the torus and the gadget have one. In the random
        # graph no two parts have a convex union.
        assert bool(images) == (spec in ("torus:5x5", "ht:3"))
        assert bool(merges) == (spec != "random")

    @pytest.mark.parametrize("spec, kind", [
        ("grid:6x4", "mutual"), ("grid:6x4", "outer"), ("torus:5x4", "mutual"),
    ])
    def test_no_part_is_the_whole_room(self, spec, kind):
        # P has two parts that split the room, so their union is convex and
        # is the room: a part that was the room would make its capacity
        # search the whole solve, outside nodes_explored. No part of any
        # partition is the room, so M is left out here.
        g = generate(spec)
        room = _search(g, kind).root[1]
        partitions = convex_partitions(g, kind, room)
        p = partitions[0]
        assert len(p.parts) == 2 and p.parts[0][0] | p.parts[1][0] == room
        assert is_convex(g, VertexSet.from_mask(g.n, room))
        assert not any(q.merged for q in partitions)
        assert all(part != room for q in partitions for part, _ in q.parts)

    @pytest.mark.parametrize("spec, kind", [
        ("torus:5x5", "mutual"), ("ht:3", "dual"), ("pathprod:3x3x3", "dual"),
        ("torus:6x4", "outer"),
    ])
    def test_submask_caps_share_keys_and_stay_exact(self, spec, kind):
        # A part's cap inside a mask is keyed by the least labels under the
        # part's automorphisms, and an image part labels sigma(x) as x in
        # its preimage. Each cap must still be the largest set of the part
        # inside the mask, apart from the solver (largest_inside), and an
        # image part's mask must find the cap of the mask sigma maps onto
        # it. So for P and its image, and for M and its image where parts
        # merge: a union's cap inside a mask comes from a search that
        # prunes on its halves.
        g = generate(spec)
        partitions = convex_partitions(g, kind, _search(g, kind).root[1])
        pairs = [partitions[i:i + 2] for i in range(0, len(partitions), 2)]
        assert [len(pair) for pair in pairs] == [2] * len(pairs)
        assert len(pairs) == (1 if spec == "torus:6x4" else 2)
        sigma = image_map(g)
        full = (1 << g.n) - 1
        rng = random.Random(spec)
        _capacity.cache_clear()
        for p, image in pairs:
            for (h, cap), (sh, image_cap) in zip(p.parts, image.parts):
                assert image_cap == cap
                sub, _ = induced_subgraph(g, VertexSet.from_mask(g.n, h))
                ids = VertexSet.from_mask(g.n, h).ids()
                for _ in range(8):
                    m = h & rng.getrandbits(g.n)
                    if len(ids) > PART_LIMIT:
                        # 3/8 of a union, as the dual check tries every
                        # submask of m.
                        m &= rng.getrandbits(g.n) | rng.getrandbits(g.n)
                    best = largest_inside(sub, kind, sum(
                        1 << i for i, v in enumerate(ids) if m >> v & 1))
                    sm = sum(1 << sigma[v] for v in ids if m >> v & 1)
                    in_image = image.bound(full & ~sh | sm) - image.bound(
                        full)
                    assert in_image + cap == best, (h, m)
                    misses = _capacity.cache_info().misses
                    assert p.bound(full & ~h | m) - p.bound(full) + cap == (
                        best)
                    assert _capacity.cache_info().misses == misses, (h, m)

    def test_cold_capacity_searches_are_pinned(self, monkeypatch):
        # pathprod:3x3x3's dual solve in a fresh memo: 167 capacity
        # searches when an image part labelled its masks by rank within
        # sigma(H) and no symmetry of a part merged two of its masks; 71
        # when only the include-only spine dropped orbits, as the longer
        # search met more masks; 69 before the merged partition M, whose
        # 18-vertex union of two 3x3 layers and its image take a search
        # for each mask they meet.
        module = sys.modules[_Search.__module__]
        narrowed = []

        def counting(g, kind, opts=None, within=None):
            narrowed.append(within is not None)
            return _search(g, kind, opts, within)

        monkeypatch.setattr(module, "_search", counting)
        _capacity.cache_clear()
        solve(generate("pathprod:3x3x3"), "dual")
        assert sum(narrowed) == 249

    def test_memo_matches_regrown_chains(self):
        specs = ("grid:5x5", "grid:7x4", "torus:5x4", "ht:2", "gn:3",
                 "pathprod:3x3x2", "cycle:8", "random_tree:12:seed=1",
                 "star:4", "complete:4", "path:6")
        graphs = [generate(spec) for spec in specs]
        rng = random.Random(9)
        graphs += [
            random_connected_graph(rng.randint(5, 12), rng,
                                   p=rng.choice((0.15, 0.25, 0.4)))
            for _ in range(150)
        ]
        for g in graphs:
            for kind in KINDS:
                # The root's open vertices, which the solver partitions.
                root = _search(g, kind).root[1]
                partition = convex_partitions(g, kind, root)[0]
                assert (partition.parts, partition.free) == regrown_partition(
                    g, kind, root), (g.edges(), kind)

    def test_part_capacity_is_the_induced_solve(self):
        # The one capacity memo is keyed on the part's edges relabelled by
        # rank within the part: parts with one mask in different graphs
        # must each get their own subgraph's number, and translates of one
        # part, in one graph or in several, share one solve.
        g, other = generate("grid:7x4"), generate("grid:7x4")
        for kind in KINDS:
            path = solve_kind(generate("path:4"), kind).value
            assert _part_capacity(g, kind, 0b1111) == path  # row 1
            misses = _capacity.cache_info().misses
            assert _part_capacity(g, kind, 0b1111 << 4) == path  # row 2
            assert _part_capacity(other, kind, 0b1111) == path
            assert _capacity.cache_info().misses == misses, kind
        rng = random.Random(14)
        for _ in range(60):
            g = random_connected_graph(rng.randint(3, 10), rng,
                                       p=rng.choice((0.2, 0.3, 0.4)))
            part = 1 << rng.randrange(g.n)
            for _ in range(rng.randint(1, g.n - 1)):
                grown = 0
                for v in range(g.n):
                    if part >> v & 1:
                        for w in g.adj[v]:
                            grown |= 1 << w
                grown &= ~part
                if not grown:
                    break
                choices = [w for w in range(g.n) if grown >> w & 1]
                part |= 1 << rng.choice(choices)
            sub, _ = induced_subgraph(g, VertexSet.from_mask(g.n, part))
            for kind in KINDS:
                assert _part_capacity(g, kind, part) == solve_kind(
                    sub, kind).value, (kind, g.edges(), part)

    def test_capacity_inside_a_mask_is_the_largest_set_there(self):
        # A capacity narrowed to a mask ``within`` is the largest
        # variant-set inside it, by brute force over every subset (for
        # independence, no edge of the graph inside the set). A narrowed
        # search that branched orbitally came out too low here: the
        # stabiliser of the inside set need not map ``within`` onto itself.
        rng = random.Random(17)
        graphs = [generate(spec) for spec in ("cycle:6", "grid:4x3", "gn:2")]
        graphs += [random_connected_graph(rng.randint(3, 9), rng,
                                          p=rng.choice((0.2, 0.3, 0.4)))
                   for _ in range(120)]
        for g in graphs:
            n = g.n
            full = (1 << n) - 1
            edges = [(1 << u) | (1 << w) for u, w in g.edges()]
            largest = {kind: [0] * (1 << n) for kind in KINDS}
            for mask in range(1 << n):
                rep = classify_set(g, mask)
                size = mask.bit_count()
                for kind in KINDS:
                    if kind == "independence":
                        ok = not any(e & mask == e for e in edges)
                    else:
                        ok = rep.holds(kind)
                    largest[kind][mask] = size if ok else 0
            # largest[kind][m] becomes the largest solution inside m.
            for v in range(n):
                for kind in KINDS:
                    table = largest[kind]
                    for mask in range(1 << n):
                        if mask >> v & 1 and table[mask ^ 1 << v] > table[mask]:
                            table[mask] = table[mask ^ 1 << v]
            edge_bits = _part_edges(g, full)
            for within in [rng.getrandbits(n) for _ in range(5)]:
                for kind in KINDS:
                    assert _capacity(kind, n, edge_bits, within) == (
                        largest[kind][within]), (kind, g.edges(), within)

    def test_grid_parts_are_long_lines(self):
        g = generate("grid:7x4")
        partition = convex_partitions(g, "mutual")[0]
        assert sorted(cap for _, cap in partition.parts) == [2, 2, 2, 2]
        assert all(part.bit_count() == 7 for part, _ in partition.parts)
        assert partition.bound((1 << g.n) - 1) == solve(g, "mutual").value == 8

    def test_bound_cuts_grid_search(self):
        res = solve(generate("grid:7x4"), "mutual")
        assert res.stats.bound_prunes > 0
        assert res.stats.nodes_explored < 1000  # 75,864 with |X| + |open|


class TestDualRegressionPin:
    """Dual values, lex-least witnesses and node counts as the benchmark's
    ``dual`` workload reports them: a change to the visibility kernel or the
    forcing must search exactly the same tree. Three changes moved the
    counts on purpose, and values and witnesses did not move. Orbital
    branching drops orbits from the value phase's exclude branches (ht:3
    2871, torus:6x4 864, pathprod:3x3x3 2636 and gn:4 60 before it). The
    per-vertex witness rebuild took every vertex of a maximum set it
    already held without a query (ht:3 2863, torus:6x4 199,
    pathprod:3x3x3 2635 and gn:4 59 before it). The witness phase became
    one id-order decision query (ht:3 2351, torus:6x4 137, pathprod:3x3x3
    2154 and gn:4 45 before it). The partition bound began to count each
    part by its largest dual set inside the node's mask (ht:3 2085,
    torus:6x4 158, pathprod:3x3x3 2172 before it; gn:4 did not move).
    Every search began to branch on its lowest open vertex, not in
    descending degree (ht:3 736, pathprod:3x3x3 1780 before it; torus:6x4
    and gn:4 did not move). The search began to prune on the partition's
    automorphism image too (ht:3 594, torus:6x4 89, pathprod:3x3x3 972
    and gn:4 55 before it). The set the value search ends on became the
    witness, with no witness query, as it is the lex-least maximum set
    whenever that search found the value (ht:3 567, torus:6x4 79,
    pathprod:3x3x3 947 and gn:4 30 before it). Every node, not only the
    include-only spine, began to drop orbits, under the maps it carries
    down from the graph's automorphism group (ht:3 364, torus:6x4 51,
    pathprod:3x3x3 926 and gn:4 19 before it). The search began to prune on
    the merged partition M and its image too (ht:3 320 and pathprod:3x3x3
    432 before it; torus:6x4 and gn:4 did not move)."""

    @pytest.mark.parametrize("spec, value, witness, nodes", [
        pytest.param(
            "ht:3", 15,
            [0, 2, 3, 10, 11, 12, 14, 15, 22, 23, 24, 26, 27, 34, 35], 305,
            id="ht:3",
        ),
        pytest.param("torus:6x4", 4, [0, 4, 10, 14], 27, id="torus:6x4"),
        pytest.param(
            "pathprod:3x3x3", 8, [0, 1, 3, 17, 18, 19, 24, 26], 326,
            id="pathprod:3x3x3",
        ),
        pytest.param("gn:4", 2, [2, 3], 7, id="gn:4"),
    ])
    def test_value_witness_and_nodes(self, spec, value, witness, nodes):
        g = generate(spec)
        res = solve(g, "dual")
        assert res.value == value
        assert res.witness.ids() == witness
        assert classify_set(g, res.witness).is_dual
        assert res.stats.nodes_explored == nodes

    def test_overfull_forcing_graph(self):
        # In this graph's witness search, the forcing of an include puts
        # more vertices in than the value, and the cap cuts those states.
        # 18 nodes when the rebuild queried each vertex, refusing such a
        # prefix without a node; 33 when the value search branched in
        # descending degree; 53 when every solve ran the witness search,
        # which the solve now skips, as its value search found the value;
        # 31 before the value search returned once its floor reached the
        # root bound.
        g = build_graph(11, [
            (0, 1), (0, 7), (1, 2), (1, 5), (1, 7), (2, 4), (2, 7), (3, 8),
            (3, 9), (4, 5), (4, 6), (4, 8), (5, 6), (6, 9), (7, 9), (7, 10),
            (8, 10),
        ])
        res = solve(g, "dual")
        assert (res.value, res.witness.ids()) == (2, [1, 5])
        assert res.stats.nodes_explored == 30
        search = _search(g, "dual")
        search.run_value()
        overfull = []
        include = search.include

        def recording_include(inside, open_, v):
            child = include(inside, open_, v)
            if child is not None and child[0].bit_count() > search.best:
                overfull.append(child[0])
            return child

        search.include = recording_include
        assert search.lex_least_witness(search.best) == res.witness.mask
        assert overfull


class TestDualForcing:
    def test_every_closed_state_is_a_dual_set(self):
        # The dual search keeps no leaf check: forcing must already have
        # tested every pair by the time nothing is open. Walk every
        # include/exclude sequence on the lowest open vertex, as the search
        # branches, and check each state with nothing open.
        rng = random.Random(88)
        closed = 0
        for _ in range(40):
            g = random_connected_graph(rng.randint(2, 7), rng,
                                       p=rng.choice((0.2, 0.4)))
            search = _DualSearch(g, "dual", SolveOptions())
            stack = [search.root]
            while stack:
                inside, open_ = stack.pop()
                if not open_:
                    closed += 1
                    assert classify_set(g, inside).is_dual, (
                        g.edges(), inside,
                    )
                    continue
                v = (open_ & -open_).bit_length() - 1
                for decide in (search.include, search.exclude):
                    child = decide(inside, open_, v)
                    if child is not None:
                        stack.append(child)
        assert closed > 100


def bits(mask):
    """The vertex ids in ``mask``, ascending."""
    return [v for v in range(mask.bit_length()) if mask >> v & 1]


class TestHereditaryInclude:
    def test_include_keeps_exactly_the_addable_vertices(self):
        # include decides which open vertices to drop from the pairs near v
        # alone, so check it against classify_set (for independence: no
        # edge inside the set). From a random
        # solution X with open = every addable w, include(X, open, v) keeps
        # exactly the w with X + v + w a solution; from a random part of
        # that open set it keeps the same w inside the part. The root keeps
        # open the vertices v with {v} a solution.
        rng = random.Random(18)
        graphs = [generate(spec) for spec in ("cycle:6", "grid:4x3", "gn:2")]
        graphs += [random_connected_graph(rng.randint(3, 9), rng,
                                          p=rng.choice((0.2, 0.3, 0.4)))
                   for _ in range(150)]
        checks = 0
        for g in graphs:
            edges = [(1 << u) | (1 << w) for u, w in g.edges()]
            reports = {}

            def holds(kind, mask):
                if kind == "independence":
                    return not any(e & mask == e for e in edges)
                if mask not in reports:
                    reports[mask] = classify_set(g, mask)
                return reports[mask].holds(kind)

            for kind in ("mutual", "outer", "total", "independence"):
                def addable(x):
                    return sum(1 << w for w in range(g.n) if not x >> w & 1
                               and holds(kind, x | 1 << w))

                search = _HereditarySearch(g, kind, SolveOptions())
                assert search.root == (0, addable(0)), (kind, g.n, g.edges())
                checks += 1
                for _ in range(3):
                    x = 0
                    for _ in range(rng.randint(0, g.n)):
                        grow = bits(addable(x))
                        if not grow:
                            break
                        x |= 1 << rng.choice(grow)
                    open_ = addable(x)
                    for v in bits(open_):
                        xv = x | 1 << v
                        want = addable(xv)
                        part = open_ & (rng.getrandbits(g.n) | 1 << v)
                        assert search.include(x, open_, v) == (xv, want), (
                            kind, g.n, g.edges(), x, v)
                        assert search.include(x, part, v) == (
                            xv, want & part), (kind, g.n, g.edges(), x, v,
                                               part)
                        checks += 2
        assert checks > 5000


class TestKnownValues:
    def test_c7_dual_zero(self):
        assert solve(generate("cycle:7"), "dual").value == 0

    def test_grid_5x4_outer(self):
        assert solve(generate("grid:5x4"), "outer").value == 5

    def test_grid_4x3_dual_exceeds_outer(self):
        g = generate("grid:4x3")
        assert solve(g, "dual").value == 5
        assert solve(g, "outer").value == 4

    def test_torus_4x4_total(self):
        g = generate("torus:4x4")
        res = solve(g, "total")
        assert res.value == 4
        quoted = [g.vertex_by_label(lab) for lab in ("(1,1)", "(1,2)", "(3,3)", "(3,4)")]
        assert classify_set(g, quoted).is_total

    def test_trees_every_variant_equals_leaf_count(self):
        for seed in range(6):
            g = generate(f"random_tree:11:seed={seed}")
            leaves = graph_stats(g).leaf_count
            for variant in VARIANTS:
                assert solve(g, variant).value == leaves

    def test_paths(self):
        for n in (2, 5, 8):
            g = generate(f"path:{n}")
            for variant in VARIANTS:
                assert solve(g, variant).value == 2


def outcome(result):
    """A solve's value, witness and every counter but ``elapsed_ms``."""
    counters = dataclasses.asdict(result.stats)
    del counters["elapsed_ms"]
    return result.value, result.witness.mask, counters


class TestWarmResolve:
    @pytest.mark.parametrize("spec, variant", [
        ("ht:3", "dual"), ("torus:5x4", "mutual"), ("grid:5x5", "outer"),
    ])
    def test_same_graph_solves_as_a_fresh_one(self, spec, variant):
        # Re-solves reuse the graph's pair table, with the hints and sweep
        # results that earlier solves left in it.
        g = generate(spec)
        cold = outcome(solve(g, variant))
        assert pair_visibility(g).memo
        for _ in range(2):
            assert outcome(solve(g, variant)) == cold
            assert outcome(solve(generate(spec), variant)) == cold


class TestLexLeastWitness:
    def test_matches_brute_force_minimum(self):
        rng = random.Random(404)
        for _ in range(12):
            g = random_connected_graph(rng.randint(3, 7), rng)
            for variant in VARIANTS:
                res = solve(g, variant)
                maxima = brute_max_witnesses(g, variant)
                assert tuple(res.witness.ids()) == min(maxima), (variant, g.edges())

    def test_deterministic(self):
        g = generate("grid:4x4")
        a = solve(g, "dual")
        b = solve(g, "dual")
        assert a.value == b.value
        assert a.witness == b.witness
        assert a.stats.nodes_explored == b.stats.nodes_explored


class TestDecisionQuery:
    def test_every_size_up_to_n(self):
        # The witness phase asks only for the value, so ask the one DFS
        # for every size from the root instead. The dual sets of C5,
        # C6 and G_2 have sizes 0 and 2 only: a query for 1 must answer
        # no, not with a larger set.
        rng = random.Random(111)
        graphs = [generate(spec) for spec in ("cycle:5", "cycle:6", "gn:2")]
        graphs += [
            random_connected_graph(rng.randint(2, 8), rng,
                                   p=rng.choice((0.2, 0.3, 0.4)))
            for _ in range(40)
        ]
        gaps = 0
        for g in graphs:
            sizes = {kind: set() for kind in VARIANTS}
            for mask in range(1 << g.n):
                rep = classify_set(g, mask)
                for kind in VARIANTS:
                    if rep.holds(kind):
                        sizes[kind].add(mask.bit_count())
            for kind in VARIANTS:
                search = _search(g, kind)
                gaps += max(sizes[kind]) + 1 - len(sizes[kind])
                for t in range(1, g.n + 1):
                    found = search._dfs(*search.root, t - 1, True)
                    assert bool(found) == (t in sizes[kind]), (
                        kind, t, g.edges(),
                    )
                    if found:
                        assert found.bit_count() == t, (kind, t, g.edges())
                        assert classify_set(g, found).holds(kind), (
                            kind, t, g.edges(),
                        )
        assert gaps >= 3


def plain_lex_rebuild(search, target):
    """The greedy lex-least rebuild as a reference: one decision query for
    every vertex that the decided prefix still lets in."""
    chosen = count = 0
    state = search.root
    for v in range(search.n):
        if count == target:
            break
        child = search.include(state[0], state[1], v)
        if child is not None and search._dfs(*child, target - 1, True):
            chosen |= 1 << v
            count += 1
        else:
            child = search.exclude(state[0], state[1], v)
            if child is None:
                break
        state = child
    assert count == target
    return chosen


def witness_of(g, kind, rebuild):
    """Witness mask of ``rebuild`` run after the value phase of the search
    a solve of ``kind`` on ``g`` builds."""
    search = _search(g, kind)
    search.run_value()
    return rebuild(search, search.best)


def is_solution(g, kind, mask):
    if kind == "independence":
        adj = g.adjacency_masks()
        return not any(adj[v] & mask for v in range(g.n) if (mask >> v) & 1)
    return classify_set(g, mask).holds(kind)


class TestWitnessReuse:
    """The witness phase: one decision query from the root."""

    def test_same_witness_as_querying_every_vertex(self):
        rng = random.Random(77)
        for _ in range(30):
            g = random_connected_graph(rng.randint(2, 11), rng,
                                       p=rng.choice((0.2, 0.3, 0.4)))
            for kind in KINDS:
                got = witness_of(g, kind, _Search.lex_least_witness)
                want = witness_of(g, kind, plain_lex_rebuild)
                assert got == want, (kind, g.edges())

    def test_every_found_set_is_a_solution(self, monkeypatch):
        found = []
        dfs = _Search._dfs

        def recording_dfs(self, inside, open_, floor, first, limit=0):
            mask = dfs(self, inside, open_, floor, first, limit)
            if first and mask:
                found.append((self.g, self.kind, inside, open_, floor + 1,
                              mask, limit))
            return mask

        monkeypatch.setattr(_Search, "_dfs", recording_dfs)
        rng = random.Random(78)
        # The hereditary solves, part capacities included, make doll level
        # queries, each under a node limit; each solve makes one witness
        # query, with none.
        for _ in range(60):
            g = random_connected_graph(rng.randint(2, 10), rng,
                                       p=rng.choice((0.2, 0.3, 0.4)))
            for kind in KINDS:
                solve_kind(g, kind)
        assert sum(1 for *_, limit in found if not limit) > 50
        assert sum(1 for *_, limit in found if limit) > 50
        for g, kind, inside, open_, target, mask, _ in found:
            assert mask & inside == inside, (kind, g.edges())
            assert not mask & ~(inside | open_), (kind, g.edges())
            assert mask.bit_count() == target, (kind, g.edges())
            assert is_solution(g, kind, mask), (kind, g.edges(), mask)

    def test_phase_split_adds_up(self):
        g = generate("grid:4x4")
        stats = solve(g, "mutual").stats
        assert stats.witness_nodes > 0
        assert (value_phase_nodes(g, "mutual") + stats.witness_nodes
                == stats.nodes_explored)

    def test_ht3_mutual_witness_phase(self):
        # 54,010 witness-phase nodes when every vertex was queried.
        res = solve(generate("ht:3"), "mutual")
        assert res.value == 18
        assert res.stats.witness_nodes <= 6000

    def test_grid_6x6_mutual_witness_phase(self):
        # 10,054 witness-phase nodes when every vertex was queried, 6,133
        # when the queries reused the maximum sets they found; the target
        # was at most 5,027, half of the first. 1,453 before the partition
        # bound counted each part by its largest set inside the node's mask,
        # 555 before the search pruned on the partition's automorphism image
        # too, 57 before the value search's last set became the witness:
        # the value search, not the doll table, finds this value.
        res = solve(generate("grid:6x6"), "mutual")
        assert res.value == 12
        assert res.stats.witness_nodes == 0


class TestValueSearchWitness:
    """The set the value search ends on is the lex-least maximum set
    whenever that search, not the doll table, found the value, so a solve
    returns it with no witness query (the module docstring's witness
    phase)."""

    def test_witnesses_match_brute_force(self, monkeypatch):
        module = sys.modules[_Search.__module__]
        orbit = module._orbit
        floors = []  # the floor at each orbit drop of the current search
        current = []

        def recording_orbit(maps, v):
            found = orbit(maps, v)
            if current and found & ~(1 << v):
                floors.append(current[0].best)
            return found

        monkeypatch.setattr(module, "_orbit", recording_orbit)
        rng = random.Random(2525)
        skipped = skipped_past_orbits = queried = 0
        for _ in range(40):
            g = random_connected_graph(rng.randint(9, 10), rng,
                                       p=rng.choice((0.3, 0.5, 0.7)))
            maxima = brute_max_witnesses_all(g)
            independent = [m for m in range(1 << g.n)
                           if is_solution(g, "independence", m)]
            alpha = max(m.bit_count() for m in independent)
            maxima["independence"] = [
                tuple(VertexSet.from_mask(g.n, m).ids())
                for m in independent if m.bit_count() == alpha
            ]
            for kind in KINDS:
                current.clear()
                res = solve_kind(g, kind)
                assert tuple(res.witness.ids()) == min(maxima[kind]), (
                    kind, g.edges())
                search = _search(g, kind)
                current.append(search)
                floors.clear()
                if search.run_value():
                    skipped += 1
                    assert res.stats.witness_nodes == 0, (kind, g.edges())
                    assert search.best_mask == search.lex_least_witness(
                        search.best), (kind, g.edges())
                    if any(floor < search.best for floor in floors):
                        skipped_past_orbits += 1
                elif res.value:
                    queried += 1
        # Solves of both kinds, and skips where orbits were dropped before
        # the value search's last set was found.
        assert skipped > 40 and queried > 100
        assert skipped_past_orbits > 3


class TestLabelInvariance:
    @pytest.mark.parametrize("spec", [
        "grid:5x4", "ht:2", "pathprod:2x2x3", "gn:2", "torus:4x4",
    ])
    def test_relabelled_graphs_keep_their_values(self, spec):
        # Every search branches on its lowest open vertex, so the ids steer
        # the search; the value must not depend on them.
        g = generate(spec)
        rng = random.Random(spec)
        values = {kind: solve_kind(g, kind).value for kind in KINDS}
        for _ in range(3):
            perm = list(range(g.n))
            rng.shuffle(perm)
            h = build_graph(g.n, [(perm[u], perm[w]) for u, w in g.edges()])
            for kind in KINDS:
                res = solve_kind(h, kind)
                assert res.value == values[kind], (spec, kind, perm)
                assert res.witness.card == res.value, (spec, kind, perm)
                assert is_solution(h, kind, res.witness.mask), (
                    spec, kind, perm)


HEREDITARY = ("mutual", "total", "outer", "independence")


class TestDollTable:
    def test_levels_are_the_largest_suffix_solutions(self):
        # Each built level v of the doll table is the largest solution
        # inside the root's open vertices with id v or more, by
        # brute force over every subset; an abandoned level and every level
        # below it read n. Clearing the table does not move the witness.
        rng = random.Random(2026)
        abandoned = 0
        for _ in range(40):
            g = random_connected_graph(rng.randint(2, 10), rng,
                                       p=rng.choice((0.2, 0.3, 0.4)))
            n = g.n
            adj = g.adjacency_masks()
            solutions = {kind: [] for kind in HEREDITARY}
            for mask in range(1 << n):
                rep = classify_set(g, mask)
                for kind in VARIANTS:
                    if kind in solutions and rep.holds(kind):
                        solutions[kind].append(mask)
                if not any(adj[v] & mask for v in range(n) if mask >> v & 1):
                    solutions["independence"].append(mask)
            for kind in HEREDITARY:
                search = _search(g, kind)
                search.run_value()
                root_open = search.root[1]
                want = []
                for i in range(n + 1):
                    room = root_open >> i << i
                    want.append(max(x.bit_count() for x in solutions[kind]
                                    if not x & ~room))
                doll = search.doll
                wrong = [i for i in range(n + 1) if doll[i] != want[i]]
                if wrong:
                    abandoned += 1
                    assert doll[:wrong[-1] + 1] == [n] * (wrong[-1] + 1), (
                        kind, g.edges())
                    assert doll[wrong[-1] + 1:] == want[wrong[-1] + 1:], (
                        kind, g.edges())
                witness = search.lex_least_witness(search.best)
                search.doll = None
                assert search.lex_least_witness(search.best) == witness
                assert witness == min(
                    (x for x in solutions[kind]
                     if x.bit_count() == search.best),
                    key=lambda x: [v for v in range(n) if x >> v & 1])
        assert abandoned > 0


class TestDollShortcut:
    @pytest.mark.parametrize("name", ["random", "grid:3x3", "torus:3x3"])
    def test_addable_is_exact(self, name):
        # A false positive would raise a doll level, and so the value. For
        # every hereditary kind, every solution S and every vertex v
        # outside it, the shortcut test says whether S + v is a solution,
        # by classify_set, or for independence by v's neighbours in S.
        if name == "random":
            rng = random.Random(2828)
            graphs = [random_connected_graph(rng.randint(2, 9), rng,
                                             p=rng.choice((0.2, 0.3, 0.4)))
                      for _ in range(25)]
        else:
            graphs = [generate(name)]
        tested = 0
        for g in graphs:
            n = g.n
            adj = g.adjacency_masks()
            reports = [classify_set(g, mask) for mask in range(1 << n)]
            for kind in HEREDITARY:
                search = _search(g, kind)
                for mask in range(1 << n):
                    if kind == "independence":
                        if not is_solution(g, kind, mask):
                            continue
                    elif not reports[mask].holds(kind):
                        continue
                    for v in range(n):
                        if mask >> v & 1:
                            continue
                        if kind == "independence":
                            want = not adj[v] & mask
                        else:
                            want = reports[mask | 1 << v].holds(kind)
                        assert search._addable(mask, v) == want, (
                            kind, mask, v, g.edges())
                        tested += want
        assert tested > 100


class TestIndependence:
    def test_small_values(self):
        assert solve_independence(generate("path:5")).value == 3
        assert solve_independence(generate("cycle:5")).value == 2
        assert solve_independence(generate("complete:6")).value == 1

    def test_solve_takes_only_the_visibility_variants(self):
        with pytest.raises(ValueError):
            solve(generate("path:5"), "independence")

    def test_witness_is_independent_and_lex_least(self):
        rng = random.Random(8)
        for _ in range(10):
            g = random_connected_graph(rng.randint(2, 9), rng)
            res = solve_independence(g)
            ids = res.witness.ids()
            assert all(
                not g.has_edge(a, b)
                for i, a in enumerate(ids)
                for b in ids[i + 1:]
            )
            best = 0
            sets = []
            for mask in range(1 << g.n):
                vs = VertexSet.from_mask(g.n, mask)
                ok = all(
                    not g.has_edge(a, b)
                    for i, a in enumerate(vs.ids())
                    for b in vs.ids()[i + 1:]
                )
                if ok:
                    if vs.card > best:
                        best, sets = vs.card, [tuple(vs.ids())]
                    elif vs.card == best:
                        sets.append(tuple(vs.ids()))
            assert res.value == best
            assert tuple(ids) == min(sets)

    def test_kernel_bounds_prune_independence(self):
        # The independence search runs the shared kernel, with its
        # partition bound and orbital branching: 12,826 nodes without them,
        # 118 before the witness rebuild reused the value phase's set, 27
        # before the witness phase became one id-order query, and 41 before
        # the doll table. The root bound already equals the value here, so
        # the table's levels are pure cost: 41 -> 300. Counting each part
        # by its largest independent set inside the node's mask: 300 -> 126.
        # Branching on the lowest open vertex, not in descending degree:
        # 126 -> 118. Extending the table's last set by one test per level
        # and stopping the table at the root bound: 118 -> 53.
        res = solve_independence(generate("ht:2"))
        assert res.value == 13
        assert res.witness.ids() == list(range(0, 26, 2))
        assert res.stats.nodes_explored == 53


class TestTotalIsZero:
    def test_examples(self):
        assert total_is_zero(generate("cycle:5"))
        assert not total_is_zero(generate("path:3"))
        assert total_is_zero(generate("torus:5x5"))

    def test_too_small(self):
        with pytest.raises(TooSmall):
            total_is_zero(generate("complete:1"))

    def test_agrees_with_brute_force(self):
        rng = random.Random(55)
        for _ in range(25):
            g = random_connected_graph(rng.randint(2, 10), rng)
            assert total_is_zero(g) == (brute_max(g, "total") == 0), g.edges()


class TestDualZeroSufficient:
    def test_long_cycle_proven(self):
        assert dual_zero_sufficient(generate("cycle:9")) == "proven_zero"

    def test_c5c5_inconclusive_yet_zero(self):
        g = generate("torus:5x5")
        assert dual_zero_sufficient(g) == "inconclusive"
        assert solve(g, "dual").value == 0

    def test_one_vertex_inconclusive_and_nonzero(self):
        g = generate("complete:1")
        assert dual_zero_sufficient(g) == "inconclusive"
        assert solve(g, "dual").value == 1

    def test_c6_inconclusive_and_nonzero(self):
        g = generate("cycle:6")
        assert dual_zero_sufficient(g) == "inconclusive"
        assert solve(g, "dual").value == 2

    def test_sweep_families_only_long_cycles_proven(self):
        specs = ([f"cycle:{n}" for n in range(3, 11)]
                 + [f"path:{n}" for n in range(2, 9)]
                 + [f"random_tree:12:seed={s}" for s in range(5)]
                 + [f"grid:{n}x{m}" for n in range(2, 6)
                    for m in range(2, n + 1)]
                 + [f"torus:{n}x{m}" for n in range(3, 7)
                    for m in range(3, n + 1)]
                 + ["gn:2", "gn:3", "gn:4", "ht:2"])
        proven = [spec for spec in specs
                  if dual_zero_sufficient(generate(spec)) == "proven_zero"]
        assert proven == [f"cycle:{n}" for n in range(7, 11)]

    @pytest.mark.parametrize("spec, answer", [
        ("torus:7x7", "proven_zero"),
        ("torus:8x7", "proven_zero"),
        ("torus:8x8", "proven_zero"),
        ("torus:7x6", "inconclusive"),
    ])
    def test_convex_p4_rule_decides_tori(self, spec, answer):
        g = generate(spec)
        assert graph_stats(g).girth == 4  # the girth rule does not apply
        assert dual_zero_sufficient(g) == answer
        if answer == "proven_zero":
            assert solve(g, "dual").value == 0

    def test_proven_zero_is_sound(self):
        rng = random.Random(66)
        for _ in range(15):
            g = random_connected_graph(rng.randint(3, 9), rng)
            if dual_zero_sufficient(g) == "proven_zero":
                assert solve(g, "dual").value == 0


class TestDualZeroByCover:
    def test_c7xc5_layer_cover(self):
        g = generate("torus:7x5")
        cover = [torus_layer(7, 5, j) for j in range(1, 6)]
        assert dual_zero_by_cover(g, cover)

    def test_c3xc3_cover_fails(self):
        g = generate("torus:3x3")
        cover = [torus_layer(3, 3, j) for j in range(1, 4)]
        assert not dual_zero_by_cover(g, cover)

    def test_self_cover(self):
        g = generate("cycle:7")
        assert dual_zero_by_cover(g, [VertexSet(7, range(7))])
        # A convex part whose dual number is not 0 fails the certificate.
        assert not dual_zero_by_cover(generate("path:3"),
                                      [VertexSet(3, range(3))])

    def test_non_convex_part_fails(self):
        # The ends of P3 are not convex: their geodesic runs through 1.
        cover = [VertexSet(3, [0, 2]), VertexSet(3, [1])]
        assert not dual_zero_by_cover(generate("path:3"), cover)

    def test_incomplete_cover_rejected(self):
        g = generate("cycle:7")
        with pytest.raises(IncompleteCover):
            dual_zero_by_cover(g, [VertexSet(7, [0, 1, 2])])


class TestBudgets:
    def test_node_budget_raises_incomplete(self):
        g = generate("grid:5x5")
        with pytest.raises(Incomplete) as exc:
            solve(g, "mutual", SolveOptions(node_budget=50))
        inc = exc.value
        assert inc.lower_bound <= 10
        assert inc.stats.nodes_explored <= 51
        assert classify_set(g, inc.witness).is_mutual

    def test_time_budget(self):
        # The solve must run far past 30 ms. torus:6x6 mutual takes about
        # a second; grid:6x6 mutual can finish within 30 ms once its part
        # capacities are memoised.
        g = generate("torus:6x6")
        with pytest.raises(Incomplete):
            solve(g, "mutual", SolveOptions(time_budget_ms=30))

    def test_time_budget_read_on_every_node(self):
        # A deadline that passes after the first node stops the next one,
        # however few nodes the solve has. The dual value search makes no
        # include before its root node, so the first include sleeps past
        # the deadline between node 1 and node 2.
        search = _search(generate("cycle:6"), "dual",
                         SolveOptions(time_budget_ms=50))
        include = search.include
        calls = []

        def sleepy_include(inside, open_, v):
            if not calls:
                time.sleep(0.06)
            calls.append(v)
            return include(inside, open_, v)

        search.include = sleepy_include
        with pytest.raises(_BudgetExceeded):
            search.run_value()
        assert search.stats.nodes_explored == 2

    def test_clock_starts_before_the_tables(self):
        # The pair table and the partition of a fresh grid:8x8 take far
        # more than 1 ms, so the deadline has passed by the first node.
        with pytest.raises(Incomplete) as exc:
            solve(generate("grid:8x8"), "dual",
                  SolveOptions(time_budget_ms=1))
        assert exc.value.stats.nodes_explored == 1

    def test_witness_phase_exhaustion_certifies_value(self):
        g = generate("grid:4x4")
        full = solve(g, "mutual")
        value_nodes = value_phase_nodes(g, "mutual")
        assert 0 < value_nodes < full.stats.nodes_explored
        with pytest.raises(Incomplete) as exc:
            solve(g, "mutual", SolveOptions(node_budget=value_nodes))
        inc = exc.value
        assert inc.value_certified
        assert inc.lower_bound == full.value == inc.witness.card
        assert classify_set(g, inc.witness).is_mutual
        with pytest.raises(Incomplete) as exc:
            solve(g, "mutual", SolveOptions(node_budget=value_nodes - 1))
        assert not exc.value.value_certified

    def test_negative_budgets_rejected(self):
        with pytest.raises(ValueError):
            SolveOptions(node_budget=-1)
        with pytest.raises(ValueError):
            SolveOptions(time_budget_ms=-5)

    def test_unlimited_by_default(self):
        res = solve(generate("cycle:8"), "mutual")
        assert res.value == 3

    def test_first_dive_reports_the_set_it_reached(self):
        # Every hereditary state is a solution, and each doll level raises
        # the best set as soon as it finds one, so a budget that runs out
        # while the table is built reports the largest level set so far.
        # A level whose vertex extends the set of the level above costs one
        # node, the shortcut test; one that finds its set on its first dive
        # costs that test, when the set lies in the level root's open set,
        # and one node per vertex of the set; one that finds none, as on
        # the last row of the grid, where a third vertex blocks a pair,
        # costs its whole search. Before the table, node k of the value
        # search's first dive held k - 1 vertices. In descending-degree
        # order the levels reached [1, 1, 2, 2, 2, 3, 3, 3, 3, 4, 4, 4, 4,
        # 4, 4, 4, 4, 5, ...]. Before the search pruned on the partition's
        # automorphism image too, the fourth vertex came at budget 24, not
        # 22; before the shortcut test, the second came at budget 3, not 2,
        # and the fourth at 22, not 24; before the merged partition M cut
        # the level queries, the fourth came at budget 24, not 20.
        g = generate("grid:5x5")
        reached = []
        for budget in range(1, 25):
            with pytest.raises(Incomplete) as exc:
                solve(g, "mutual", SolveOptions(node_budget=budget))
            inc = exc.value
            assert not inc.value_certified
            assert inc.lower_bound == inc.witness.card
            assert classify_set(g, inc.witness).is_mutual
            reached.append(inc.lower_bound)
        assert reached == [1, 2, 2, 2, 2, 2, 2, 2, 3, 3, 3, 3, 3, 3, 3, 3,
                           3, 3, 3, 4, 4, 4, 4, 4]


class TestDeepGraphs:
    def test_depth_is_not_bounded_by_the_recursion_limit(self):
        # The search keeps its pending branches on an explicit stack, so a
        # graph far deeper than the recursion limit solves in every kind.
        script = (
            "import sys\n"
            "sys.setrecursionlimit(100)\n"
            "from mvis import generate, solve_independence\n"
            "from mvis.cli import main\n"
            "codes = [main(['solve', 'star:150', '--variant', v])\n"
            "         for v in ('mutual', 'total', 'outer', 'dual')]\n"
            "print(codes, solve_independence(generate('star:150')).value)\n"
        )
        src = os.path.dirname(os.path.dirname(mvis.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True,
            text=True, timeout=120,
        )
        assert out.stdout.splitlines()[-1] == str([0] * 4) + " 150", (
            out.stdout, out.stderr,
        )
        assert "RecursionError" not in out.stderr

    def test_cli_refuses_too_large_a_pair_table(self, capsys):
        # path:600 has distance sum 35,999,900; the guard computes it from
        # the distances and refuses before the table is built.
        t0 = time.monotonic()
        assert main(["solve", "path:600", "--variant", "mutual"]) == 2
        assert time.monotonic() - t0 < 10
        err = capsys.readouterr().err
        assert "at least 35999900 entries" in err
        assert f"limit {PAIR_TABLE_LIMIT}" in err

    def test_too_many_pairs_refused_before_any_distance(self):
        # star:2000 has 2,001 vertices and so 2,001,000 pairs: refused
        # before the distance matrix is computed.
        g = generate("star:2000")
        with pytest.raises(GraphError, match="at least 2001000 entries"):
            solve(g, "mutual")
        assert g._dist is None
        assert g._pairvis is None


class TestOrdering:
    def test_chain_on_solved_instances(self):
        rng = random.Random(17)
        instances = [generate(s) for s in ("cycle:5", "cycle:8", "grid:4x3", "star:4")]
        instances += [random_connected_graph(rng.randint(2, 8), rng) for _ in range(10)]
        for g in instances:
            vals = {v: solve(g, v).value for v in VARIANTS}
            assert vals["mutual"] >= vals["outer"] >= vals["total"]
            assert vals["mutual"] >= vals["dual"] >= vals["total"]
