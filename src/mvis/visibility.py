"""Visibility predicates over vertex sets.

Two vertices are X-visible when some geodesic between them has no internal
vertex in X (endpoints are exempt). A set is classified under four variants
at once:

* mutual -- every pair inside X is X-visible;
* total  -- every pair of the whole vertex set is X-visible;
* outer  -- mutual, plus every X-to-complement pair;
* dual   -- mutual, plus every complement-to-complement pair.

:func:`classify_set` realizes the two-BFS verification scheme, a plain BFS
and a constrained BFS from every source, in which members of X may be
reached but never expanded, as one lock-step sweep: all sources advance
together, one layer at a time, as bit masks, and no distance matrix is
read. :func:`constrained_distance` and :func:`is_pair_visible` keep the
per-source form. :class:`PairVisibility` precomputes
per-pair geodesic DAGs and caches one witness geodesic per pair, so search
code re-tests a single pair in a few integer operations and sweeps the DAG
only on a hint miss under blockers not swept before; its ``row`` gives all
of one vertex's visible partners at once. :func:`classify_set` does not
use it, so it stays an independent check of the solvers.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from .graphs import (
    Graph,
    GraphError,
    InvalidVertexId,
    UNREACHABLE,
    all_pairs_distances,
    as_vertex_set,
)

#: The four set variants, in the canonical reporting order.
VARIANTS = ("mutual", "total", "outer", "dual")

#: The most entries a :class:`PairVisibility` may hold: one per pair
#: u < v and one per interior vertex of its interval, about 170 bytes each.
#: The pair count and the sum of d(u, v) over the pairs are lower bounds on
#: it, checked before the build; the build counts the entries it makes and
#: stops past the limit. It admits ``star:1100`` (1.21M entries) and
#: ``grid:16x16`` (1.27M), not ``grid:20x20`` (4.60M) or ``path:600``.
PAIR_TABLE_LIMIT = 2_000_000

#: The most sweep results a :class:`PairVisibility` keeps in its ``memo``;
#: a full memo is cleared before the next result goes in.
PAIR_MEMO_LIMIT = 1 << 17


@dataclass(frozen=True)
class VisibilityReport:
    """Classification of one vertex set under all four variants.

    ``violations`` maps each failed variant to its lexicographically first
    non-X-visible required pair.
    """

    is_mutual: bool
    is_total: bool
    is_outer: bool
    is_dual: bool
    violations: dict[str, tuple[int, int]] = field(default_factory=dict)

    def holds(self, variant: str) -> bool:
        return getattr(self, f"is_{variant}")


def constrained_distance(g: Graph, x, source: int) -> list[int]:
    """BFS distances from ``source`` along paths internally avoiding ``x``.

    Vertices of ``x`` other than the source are assigned a level when first
    reached but are never expanded, so they can terminate a path yet cannot
    be passed through. Unreachable vertices get :data:`UNREACHABLE`.
    """
    if not 0 <= source < g.n:
        raise InvalidVertexId(f"source {source} outside [0, {g.n})")
    xmask = as_vertex_set(g, x).mask & ~(1 << source)
    dist = [UNREACHABLE] * g.n
    dist[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        du1 = dist[u] + 1
        for w in g.adj[u]:
            if dist[w] == UNREACHABLE:
                dist[w] = du1
                if not (xmask >> w) & 1:
                    queue.append(w)
    return dist


def is_pair_visible(g: Graph, x, u: int, v: int) -> bool:
    """True iff some u,v-geodesic has no internal vertex in ``x``."""
    if not (0 <= u < g.n) or not (0 <= v < g.n):
        raise InvalidVertexId(f"pair ({u}, {v}) outside [0, {g.n})")
    if u == v:
        return True
    d = all_pairs_distances(g)
    return constrained_distance(g, x, u)[v] == d[u][v]


def classify_set(g: Graph, x) -> VisibilityReport:
    """Classify ``x`` under all four variants, with first violating pairs.

    The empty set is a set of every variant. Otherwise one lock-step sweep
    runs the plain and the constrained BFS of every source at once. Each
    vertex v keeps the mask of sources whose plain BFS has not reached it
    yet, and each layer ORs its neighbours' frontier masks from the layer
    before: plain sources in the low n bits, constrained ones in the high
    n bits. A member of X is expanded only as its own source, at layer 0.

    Pair (s, v) is X-visible exactly when the constrained BFS from s
    reaches v in layer d(s, v), where the plain one does. The constrained
    masks keep only such on-time arrivals. A late arrival at v is never
    needed: from v it reaches a neighbour w only after layer d(s, v) + 1,
    which is at least d(s, w), so late again. And an on-time arrival at w
    comes from a neighbour v reached in layer d(s, w) - 1, and d(s, v) is
    at least that, so v was on time too. The sweep stops once no
    constrained mask is left.

    So ``vis[v]`` ends as the sources X-visible from v. Reversing a
    geodesic keeps its interior, so X-visibility is symmetric and
    ``vis[u]`` is also the mask of u's X-visible partners.
    """
    vs = as_vertex_set(g, x)
    n = g.n
    xmask = vs.mask
    if xmask == 0:
        return VisibilityReport(True, True, True, True, {})
    full = (1 << n) - 1
    unseen = [full ^ (1 << v) for v in range(n)]
    vis = [1 << v for v in range(n)]
    # Every vertex is its own source in both BFS at layer 0.
    front = [(1 | 1 << n) << v for v in range(n)]
    live = True
    while live:
        live = 0
        nxt = [0] * n
        for v, nbrs in enumerate(g.adj):
            if not unseen[v]:
                continue
            reach = 0
            for w in nbrs:
                reach |= front[w]
            new = reach & unseen[v]
            if new:
                unseen[v] ^= new
                on_time = reach >> n & new
                if on_time:
                    vis[v] |= on_time
                    live |= on_time
                    if not (xmask >> v) & 1:
                        new |= on_time << n
                nxt[v] = new
        front = nxt

    # Each variant's required partners of u, by whether u is in x.
    outside = full & ~xmask
    required_of = (
        {"mutual": 0, "total": full, "outer": xmask, "dual": outside},
        {"mutual": xmask, "total": full, "outer": full, "dual": xmask},
    )
    violations: dict[str, tuple[int, int]] = {}
    for u in range(n):
        # The lowest required partner above u that u cannot see gives the
        # lex-first violation from u.
        above = full & ~((2 << u) - 1)
        for key, partners in required_of[(xmask >> u) & 1].items():
            bad = partners & above & ~vis[u]
            if bad and key not in violations:
                violations[key] = (u, (bad & -bad).bit_length() - 1)
    return VisibilityReport(
        is_mutual="mutual" not in violations,
        is_total="total" not in violations,
        is_outer="outer" not in violations,
        is_dual="dual" not in violations,
        violations={k: violations[k] for k in VARIANTS if k in violations},
    )


def is_bypass_candidate(g: Graph, v: int) -> bool:
    """True iff ``v`` is never the middle vertex of a convex P3.

    A convex P3 u-v-w needs d(u,w) = 2 with v the unique common neighbor.
    Only bypass candidates can belong to a nonempty total
    mutual-visibility set.
    """
    if not 0 <= v < g.n:
        raise InvalidVertexId(f"vertex {v} outside [0, {g.n})")
    masks = g.adjacency_masks()
    nbrs = g.adj[v]
    vbit = 1 << v
    for i, u in enumerate(nbrs):
        mu = masks[u]
        for w in nbrs[i + 1:]:
            if (mu >> w) & 1:
                continue  # adjacent, d(u,w) = 1
            if mu & masks[w] == vbit:
                return False
    return True


def _too_large(n: int, size: int) -> GraphError:
    """The error for a pair table of at least ``size`` entries."""
    return GraphError(f"graph on {n} vertices: pair table of at least "
                      f"{size} entries, limit {PAIR_TABLE_LIMIT}")


class PairVisibility:
    """Precomputed geodesic DAGs with a cached witness geodesic per pair.

    Everything comes from one table, ``layers``: for each vertex, the masks
    of the vertices at each distance from it. For each unordered pair (u, v)
    with u < v, indexed by ``pid = u * n + v``, the interval vertices other
    than u and v are laid out in BFS-layer order from u in ``entries``, each
    with a bitmask of its in-DAG predecessors; ``interior`` holds their
    union.

    :meth:`visible_pid` answers "is the pair X-visible" for an arbitrary
    blocker bitmask. Each pair keeps a hint mask, and the invariant is that
    a hint is either the whole ``interior`` or the interior of one real
    u,v-geodesic, so a blocker set missing the hint proves the pair visible.
    A re-test is one AND on a hint hit and a sweep only on a hint miss: the
    forward sweep over ``entries``, when it finds the pair visible, walks
    back through the predecessor masks and stores the interior of the
    geodesic it found as the new hint. No hint is built ahead of use.

    A sweep reads nothing but the pair and its blocked interior, so its
    result is memoised: ``memo`` maps ``pid << n | (interior[pid] & xmask)``
    to the geodesic interior the sweep found, or to 0 when the pair is
    blocked, and a hint miss sweeps only on a memo miss. A memo hit gives
    the answer and the new hint that a fresh sweep would, so hints, and
    every search that reads them, do not depend on what the memo holds.
    It keeps at most :data:`PAIR_MEMO_LIMIT` entries, about 120 bytes each
    on graphs of up to 144 vertices, and is cleared when full.

    :meth:`row` gives all of one vertex's X-visible partners at once, by a
    BFS over its row of ``layers`` that expands no vertex of X.

    Memory grows with n^2 times the mean interval size, so a graph whose
    pair count or distance sum is above :data:`PAIR_TABLE_LIMIT` raises
    :class:`GraphError` before the build, and one whose pairs and interior
    vertices pass it raises it during the build.
    """

    __slots__ = (
        "n",
        "interior",
        "hint",
        "entries",
        "pair_mask",
        "pairs_through",
        "pair_ids",
        "adj",
        "layers",
        "memo",
    )

    def __init__(self, g: Graph):
        n = g.n
        # A pair takes a slot and at least d(u, v) - 1 interior entries.
        # The pair count bounds the distance sum, with no distance computed.
        size = n * (n - 1) // 2
        if size <= PAIR_TABLE_LIMIT:
            d = all_pairs_distances(g)
            size = sum(map(sum, d)) // 2
        if size > PAIR_TABLE_LIMIT:
            raise _too_large(n, size)
        self.n = n
        adj = self.adj = g.adjacency_masks()
        # layers[u][k] is the mask of the vertices at distance k from u.
        layers = []
        for du in d:
            masks = [0] * (max(du) + 1)
            for z, dz in enumerate(du):
                masks[dz] |= 1 << z
            layers.append(tuple(masks))
        self.layers = layers
        # Indexed by pid = u * n + v for u < v.
        self.interior: list[int] = [0] * (n * n)
        self.entries: list[tuple[tuple[int, int], ...]] = [()] * (n * n)
        self.pair_mask: list[int] = [0] * (n * n)
        through: list[list[int]] = [[] for _ in range(n)]
        built = 0
        for u in range(n):
            lu = layers[u]
            for v in range(u + 1, n):
                pid = u * n + v
                lv = layers[v]
                duv = d[u][v]
                # The interval's slice at distance k from u is
                # lu[k] & lv[duv - k]; an entry's predecessors are its
                # neighbours in the slice before.
                prev = 1 << u
                imask = 0
                entries = []
                for k in range(1, duv):
                    cur = lu[k] & lv[duv - k]
                    imask |= cur
                    rest = cur
                    while rest:
                        low = rest & -rest
                        rest ^= low
                        z = low.bit_length() - 1
                        entries.append((low, adj[z] & prev))
                        through[z].append(pid)
                    prev = cur
                self.interior[pid] = imask
                self.entries[pid] = tuple(entries)
                self.pair_mask[pid] = (1 << u) | (1 << v)
                built += len(entries) + 1
                if built > PAIR_TABLE_LIMIT:
                    raise _too_large(n, built)
        self.pairs_through = [tuple(p) for p in through]
        # pair_ids[v][u] is the pid of the pair {u, v} (unused for u = v).
        self.pair_ids = [
            tuple(u * n + v if u < v else v * n + u for u in range(n))
            for v in range(n)
        ]
        self.hint = list(self.interior)
        self.memo: dict[int, int] = {}

    def visible_pid(self, pid: int, xmask: int) -> bool:
        """True iff pair ``pid`` is X-visible for blocker mask ``xmask``."""
        if not self.hint[pid] & xmask:
            return True
        blocked = self.interior[pid] & xmask
        key = pid << self.n | blocked
        memo = self.memo
        path = memo.get(key)
        if path is None:
            path = self._sweep(pid, blocked)
            if len(memo) >= PAIR_MEMO_LIMIT:
                memo.clear()
            memo[key] = path
        # A missed hint is a nonempty interior, so a found path is nonzero.
        if not path:
            return False
        self.hint[pid] = path
        return True

    def _sweep(self, pid: int, blocked: int) -> int:
        """The interior of the u,v-geodesic that avoids ``blocked`` and
        takes the lowest reached predecessor at each step back from v, or
        0 when every u,v-geodesic meets ``blocked``."""
        ends = self.pair_mask[pid]
        reach = ends & -ends  # u, the lower end
        entries = self.entries[pid]
        for bit, pm in entries:
            if pm & reach and not bit & blocked:
                reach |= bit
        # v's neighbours in reach lie in the last slice: u is one only
        # when the interior is empty, and then no sweep is made.
        want = self.adj[ends.bit_length() - 1] & reach
        if not want:
            return 0
        # Walk back from v along reached predecessors; entries run in
        # layer order, so in reverse each wanted vertex comes up in turn.
        want &= -want
        path = 0
        for bit, pm in reversed(entries):
            if bit == want:
                path |= bit
                want = pm & reach
                want &= -want
        return path

    def row(self, u: int, xmask: int) -> int:
        """Mask of every w such that the pair (u, w) is X-visible for
        blocker mask ``xmask``; u itself is included.

        Each distance layer from u is reached from the previous one through
        vertices outside X (u itself is always expanded), so a vertex is
        reached exactly when some geodesic to it avoids X internally.
        """
        adj = self.adj
        seen = expand = 1 << u
        for layer in self.layers[u][1:]:
            nbrs = 0
            while expand:
                low = expand & -expand
                nbrs |= adj[low.bit_length() - 1]
                expand ^= low
            reached = nbrs & layer
            if not reached:
                break
            seen |= reached
            expand = reached & ~xmask
        return seen


def pair_visibility(g: Graph) -> PairVisibility:
    """The graph's :class:`PairVisibility` table, built on first use and
    cached on the graph, as :func:`all_pairs_distances` caches distances."""
    if g._pairvis is None:
        g._pairvis = PairVisibility(g)
    return g._pairvis
