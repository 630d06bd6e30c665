"""Independent naive oracles used to cross-check the package.

Everything here is written straight from the definitions (explicit geodesic
enumeration, full subset enumeration) and deliberately shares no code with
the solvers it checks.
"""

from __future__ import annotations

import random

from mvis import (
    Graph,
    VertexSet,
    build_graph,
    cartesian_product,
    classify_set,
    generate,
)
from mvis.graphs import all_pairs_distances

VARIANTS = ("mutual", "total", "outer", "dual")

#: Edge densities :func:`random_product_graph` and ``tools/fuzz.py`` draw
#: a random graph's ``p`` from.
DENSITIES = (0.15, 0.3, 0.45, 0.6)


def all_geodesics(g: Graph, u: int, v: int) -> list[list[int]]:
    """Every shortest u,v-path, by descent along the distance gradient."""
    d = all_pairs_distances(g)
    duv = d[u][v]
    paths: list[list[int]] = []

    def extend(path: list[int]) -> None:
        z = path[-1]
        if z == v:
            paths.append(list(path))
            return
        for w in g.adj[z]:
            if d[u][w] == d[u][z] + 1 and d[u][w] + d[w][v] == duv:
                path.append(w)
                extend(path)
                path.pop()

    extend([u])
    return paths


def member_set(x) -> set[int]:
    """The vertex ids of ``x``, a :class:`VertexSet` or an iterable of ids."""
    return set(x.ids() if isinstance(x, VertexSet) else x)


def visible_past(g: Graph, members: set[int], u: int, v: int) -> bool:
    """Whether some u,v-geodesic has no interior vertex in ``members``."""
    return any(
        all(z in (u, v) or z not in members for z in path)
        for path in all_geodesics(g, u, v)
    )


def naive_visible(g: Graph, x, u: int, v: int) -> bool:
    return visible_past(g, member_set(x), u, v)


def naive_classify(g: Graph, x) -> dict[str, bool]:
    members = member_set(x)
    flags = {"mutual": True, "total": True, "outer": True, "dual": True}
    for u in range(g.n):
        for v in range(u + 1, g.n):
            if visible_past(g, members, u, v):
                continue
            u_in, v_in = u in members, v in members
            flags["total"] = False
            if u_in and v_in:
                flags["mutual"] = False
            if u_in or v_in:
                flags["outer"] = False
            if u_in == v_in:
                flags["dual"] = False
    return flags


def brute_max(g: Graph, variant: str) -> int:
    """Exhaustive 2^n maximum via the package classifier."""
    best = 0
    for mask in range(1 << g.n):
        vs = VertexSet.from_mask(g.n, mask)
        if vs.card > best and classify_set(g, vs).holds(variant):
            best = vs.card
    return best


def brute_max_witnesses(g: Graph, variant: str) -> list[tuple[int, ...]]:
    """All maximum sets for a variant, as sorted id tuples."""
    best = 0
    sets: list[tuple[int, ...]] = []
    for mask in range(1 << g.n):
        vs = VertexSet.from_mask(g.n, mask)
        if classify_set(g, vs).holds(variant):
            if vs.card > best:
                best = vs.card
                sets = [tuple(vs.ids())]
            elif vs.card == best:
                sets.append(tuple(vs.ids()))
    return sets


def brute_max_witnesses_all(g: Graph) -> dict[str, list[tuple[int, ...]]]:
    """All maximum sets of each variant, as sorted id tuples, from one
    enumeration with one classify_set call per subset."""
    best = dict.fromkeys(VARIANTS, 0)
    sets: dict[str, list[tuple[int, ...]]] = {v: [()] for v in VARIANTS}
    for mask in range(1, 1 << g.n):
        vs = VertexSet.from_mask(g.n, mask)
        rep = classify_set(g, vs)
        for variant in VARIANTS:
            if not rep.holds(variant):
                continue
            if vs.card > best[variant]:
                best[variant] = vs.card
                sets[variant] = [tuple(vs.ids())]
            elif vs.card == best[variant]:
                sets[variant].append(tuple(vs.ids()))
    return sets


def brute_max_all(g: Graph) -> dict[str, int]:
    """Exhaustive maxima of all four variants from one enumeration; a subset
    no larger than every maximum so far is not classified."""
    best = dict.fromkeys(VARIANTS, 0)
    for mask in range(1 << g.n):
        vs = VertexSet.from_mask(g.n, mask)
        if vs.card <= min(best.values()):
            continue
        rep = classify_set(g, vs)
        for variant in VARIANTS:
            if vs.card > best[variant] and rep.holds(variant):
                best[variant] = vs.card
    return best


def random_connected_graph(n: int, rng: random.Random, p: float = 0.4) -> Graph:
    """Random connected graph: a random spanning tree plus extra edges."""
    perm = list(range(n))
    rng.shuffle(perm)
    edges = set()
    for i in range(1, n):
        edges.add(tuple(sorted((perm[i], perm[rng.randrange(i)]))))
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                edges.add((u, v))
    return build_graph(n, sorted(edges))


def random_product_graph(rng: random.Random) -> Graph:
    """A randomly numbered prism over a random graph: h =
    :func:`random_connected_graph` on ``rng.randint(3, 6)`` vertices with
    ``p = rng.choice(DENSITIES)``, then h x K2 (``cartesian_product`` with
    ``path:2``), its ids permuted by ``rng.shuffle``. Swapping the two
    copies of h is an automorphism, so the graph and its convex parts can
    be symmetric, which random graphs this small rarely are."""
    h = random_connected_graph(rng.randint(3, 6), rng, p=rng.choice(DENSITIES))
    g = cartesian_product(h, generate("path:2"))
    perm = list(range(g.n))
    rng.shuffle(perm)
    return build_graph(g.n, [(perm[u], perm[w]) for u, w in g.edges()])


def independent_maxima(g: Graph) -> list[tuple[int, ...]]:
    """Every maximum independent set of ``g``, as sorted id tuples."""
    adj = g.adjacency_masks()
    best = 0
    sets: list[tuple[int, ...]] = [()]
    for mask in range(1, 1 << g.n):
        if any(adj[v] & mask for v in range(g.n) if mask >> v & 1):
            continue
        size = mask.bit_count()
        ids = tuple(VertexSet.from_mask(g.n, mask).ids())
        if size > best:
            best, sets = size, [ids]
        elif size == best:
            sets.append(ids)
    return sets


def random_subset(n: int, rng: random.Random, p: float = 0.4) -> VertexSet:
    return VertexSet(n, [v for v in range(n) if rng.random() < p])
