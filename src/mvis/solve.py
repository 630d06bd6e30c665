"""Exact maximum-set solvers for the four visibility variants.

The hereditary variants (mutual, outer, total) use depth-first inclusion
search: any partial set violating the variant prunes its whole subtree, and
an upper bound on the best completion bound-prunes the rest. The dual
variant is not hereditary, so it branches include/exclude per vertex
tracking the decided-in set I and decided-out set E; a subtree dies as soon
as two same-side decided vertices are not I-visible, a condition that is
monotone in I and therefore sound. Unit forcing derived from that same
condition (a blocked pair must end up split across I and E) is applied
eagerly; it only removes nodes whose descendants would all die anyway.
Deciding a vertex u tests all of u's pairs at once:
:meth:`PairVisibility.row` gives the mask of u's I-visible partners, and
the same-side partners outside it are killed or forced with mask
operations. Only the pairs through u, when u joins I, are re-tested one by
one. The lex-least rebuild carries the decided state of its fixed prefix
forward instead of replaying it for every candidate.

The upper bound is a convex-partition bound. If H is convex in G (every
geodesic between two vertices of H stays in H) and X is a variant-set of G,
then X intersect H is a variant-set of the subgraph H, because the pairs of
H keep exactly their geodesics; so |X intersect H| <= mu(H). This holds for
all four variants. Before searching, :func:`convex_partition` splits the
searched vertices into disjoint convex parts H_i of at most
:data:`PART_LIMIT` vertices, each with capacity c_i = mu(H_i) computed by an
exact solve of the part. Every node then bounds its best completion by the
sum over parts of min(c_i, |(X + open) intersect H_i|), where X is the set
so far (decided-in, for dual) and open the vertices still addable
(undecided, for dual). It plays the role of the colouring bound of
max-clique branch-and-bound; on a grid the parts are geodesic lines of
capacity 2.

All searches run in two phases: first the exact value, then the
lexicographically least maximum witness, rebuilt greedily one vertex at a
time with decision searches.

The value phase also branches orbitally (Ostrowski et al., Orbital
branching, 2011). On the spine, the nodes reached from the root by include
branches only, everything ruled out is ruled out by the included set X
alone: a hereditary node's open list is every vertex addable to X, and a
dual node's decided state is the forcing closure of X, which does not
depend on the order of the decisions. So every automorphism fixing X
pointwise maps such a node's subproblem onto itself, and any solution
there that meets the orbit O of the branch vertex v under that stabiliser
maps to one of the same size that contains v. The exclude branch of a
spine node therefore drops all of O, not just v. Orbits come from
:func:`mvis.symmetry.stabilizer_orbit`, which counts only maps it has
verified to be distance-preserving bijections and gives up on a map after
a step limit proportional to n; a missed map only makes O smaller, which
loses pruning but never a solution. The witness phase does not branch
orbitally, so the lex-least witness is found exactly as before.
"""

from __future__ import annotations

import time
from collections.abc import Callable
from dataclasses import dataclass
from functools import lru_cache

from .graphs import (
    Graph,
    GraphError,
    VertexSet,
    all_pairs_distances,
    as_vertex_set,
    build_graph,
    graph_stats,
    induced_subgraph,
    is_convex,
)
from .symmetry import stabilizer_orbit
from .visibility import PairVisibility, is_bypass_candidate

VARIANTS = ("mutual", "total", "outer", "dual")


class TooSmall(GraphError):
    """The graph is below the minimum order for this characterization."""


class IncompleteCover(GraphError):
    """The supplied parts do not cover the vertex set."""


class Incomplete(Exception):
    """A search budget was exhausted before the solve finished.

    ``lower_bound`` and ``witness`` describe the best set found so far. When
    ``value_certified`` is set the budget ran out in the witness phase:
    ``lower_bound`` is then the exact value, but ``witness`` is only some
    maximum set, not the lexicographically least one.
    """

    def __init__(self, variant: str, lower_bound: int, witness: VertexSet,
                 stats: "SearchStats", value_certified: bool = False):
        what = "exact value" if value_certified else "best so far"
        super().__init__(
            f"budget exhausted solving {variant}: {what} {lower_bound}"
        )
        self.variant = variant
        self.lower_bound = lower_bound
        self.witness = witness
        self.stats = stats
        self.value_certified = value_certified


@dataclass
class SolveOptions:
    """Search controls.

    ``node_budget`` / ``time_budget_ms`` of 0 mean unlimited. The candidate
    filter restricts the total-variant search to vertices that can belong to
    a nonempty total set at all.
    """

    node_budget: int = 0
    time_budget_ms: int = 0
    candidate_filter: bool = True


@dataclass
class SearchStats:
    """Search counters. ``bound_prunes`` counts the prunes, included in
    ``prunes``, that only the convex-partition bound made. ``orbit_prunes``,
    also included in ``prunes``, counts the vertices that orbital branching
    dropped from exclude branches beyond the branch vertex itself."""

    nodes_explored: int = 0
    prunes: int = 0
    bound_prunes: int = 0
    orbit_prunes: int = 0
    elapsed_ms: float = 0.0


@dataclass(frozen=True)
class SolveResult:
    variant: str
    value: int
    witness: VertexSet
    stats: SearchStats


class _BudgetExceeded(Exception):
    pass


class _Budget:
    """Node/time budget shared across the phases of one solve call."""

    __slots__ = ("nodes", "node_budget", "deadline", "t0")

    def __init__(self, opts: SolveOptions):
        self.nodes = 0
        self.node_budget = opts.node_budget
        self.t0 = time.monotonic()
        self.deadline = (
            self.t0 + opts.time_budget_ms / 1000.0
            if opts.time_budget_ms
            else 0.0
        )

    def tick(self) -> None:
        """Count a node. The clock is read on the first node and every
        2048th after it, so time spent before the search counts too."""
        self.nodes += 1
        if self.node_budget and self.nodes > self.node_budget:
            raise _BudgetExceeded
        if (self.deadline and self.nodes & 2047 == 1
                and time.monotonic() > self.deadline):
            raise _BudgetExceeded

    def elapsed_ms(self) -> float:
        return (time.monotonic() - self.t0) * 1000.0


def _branch_order(g: Graph, candidates: list[int]) -> list[int]:
    """Descending degree, ties by ascending vertex id."""
    return sorted(candidates, key=lambda v: (-len(g.adj[v]), v))


# --------------------------------------------------------------------------
# Convex-partition bound
# --------------------------------------------------------------------------

#: Most vertices in one part of a convex partition. Each part's capacity is
#: an exact solve of the part, so parts stay small.
PART_LIMIT = 12


class ConvexPartition:
    """Disjoint convex parts with their capacities, and the bound they give.

    ``parts`` holds (vertex mask, capacity) pairs, only for parts whose
    capacity is below their size; every other vertex counts in full.
    """

    __slots__ = ("parts", "free")

    def __init__(self, parts: list[tuple[int, int]], full: int):
        self.parts = parts
        covered = 0
        for h, _ in parts:
            covered |= h
        self.free = full & ~covered

    def bound(self, mask: int) -> int:
        """Upper bound on |X| for variant-sets X of the graph inside ``mask``."""
        b = (mask & self.free).bit_count()
        for h, c in self.parts:
            k = (mask & h).bit_count()
            b += c if c < k else k
        return b


@lru_cache(maxsize=4096)
def _capacity(variant: str, n: int, edge_bits: int) -> int:
    """The variant's number of the connected graph on ``n`` vertices whose
    edge (u, w), u < w, is bit ``u * n + w`` of ``edge_bits``."""
    edges = [divmod(i, n) for i in range(n * n) if (edge_bits >> i) & 1]
    return solve(build_graph(n, edges), variant).value


def _part_capacity(g: Graph, variant: str, part: int) -> int:
    """The variant's number of the subgraph induced by the mask ``part``,
    memoised on its edge list relabelled in ascending id order."""
    ids = [v for v in range(g.n) if (part >> v) & 1]
    k = len(ids)
    new_id = {v: i for i, v in enumerate(ids)}
    edge_bits = 0
    for u in ids:
        base = new_id[u] * k
        for w in g.adj[u]:
            if u < w and (part >> w) & 1:
                edge_bits |= 1 << (base + new_id[w])
    return _capacity(variant, k, edge_bits)


def _hull_with(h: int, w: int, room: int, limit: int, interior: list[int],
               n: int) -> int:
    """Convex hull of the convex mask ``h`` plus vertex ``w``; 0 as soon as
    the hull leaves ``room`` or grows past ``limit`` vertices.

    Only pairs with a newly added end can bring in more vertices, since the
    pairs inside ``h`` already have their intervals in ``h``. The hull only
    grows, so a try stops at the first interval that takes it past
    ``limit`` or out of ``room``.
    """
    new = 1 << w
    h |= new
    if h.bit_count() > limit:
        return 0
    while new:
        acc = h
        while new:
            low = new & -new
            a = low.bit_length() - 1
            new ^= low
            rest = h ^ low
            while rest:
                lb = rest & -rest
                b = lb.bit_length() - 1
                rest ^= lb
                acc |= interior[a * n + b if a < b else b * n + a]
                if acc.bit_count() > limit or acc & ~room:
                    return 0
        new = acc & ~h
        h = acc
    return h


def convex_partition(g: Graph, variant: str, searched: int | None = None,
                     pv: PairVisibility | None = None) -> ConvexPartition:
    """Greedy partition of the ``searched`` vertex mask into convex parts.

    Each round grows a hull from every edge inside the vertices not yet
    used: each step adds the neighbouring vertex with the smallest new hull
    (lowest id on ties), while the hull stays unused and has at most
    :data:`PART_LIMIT` vertices. Of all hulls met on the way, the round
    keeps the one with the lowest capacity per vertex (then the larger,
    then the lower mask). Rounds stop when no hull has capacity below its
    size. Parts are proper subsets, so computing their capacities with
    :func:`solve` terminates.
    """
    n = g.n
    full = (1 << n) - 1
    room = full if searched is None else searched
    limit = min(PART_LIMIT, n - 1)
    if limit < 3:
        return ConvexPartition([], full)
    interior = (pv or PairVisibility(g)).interior
    adj = g.adjacency_masks()
    caps: dict[int, int] = {}

    def score(h: int):
        size = h.bit_count()
        if size < 3:
            return None
        cap = caps.get(h)
        if cap is None:
            cap = caps[h] = _part_capacity(g, variant, h)
        return (cap / size, -size, h, cap) if cap < size else None

    def step(h: int) -> tuple[int, int]:
        """The next hull grown from ``h`` (or 0), and the union of ``h``
        with every hull tried that fit in ``room``."""
        touched = h
        frontier = 0
        m = h
        while m:
            low = m & -m
            frontier |= adj[low.bit_length() - 1]
            m ^= low
        frontier &= room & ~h
        size = h.bit_count()
        nxt = 0
        most = limit
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            h2 = _hull_with(h, low.bit_length() - 1, room, most, interior, n)
            if h2:
                touched |= h2
                nxt = h2
                most = h2.bit_count() - 1
                if most == size:
                    break
        return nxt, touched

    # grown[h] = (best key among h and the hulls grown from it, union of
    # every hull those steps tried that fit). Growth paths from different
    # seeds merge, so this is shared. Removing a part from ``room`` only
    # turns tried hulls into misfits, so an entry whose union misses the
    # part still holds in the next round.
    grown: dict[int, tuple] = {}

    def grow(h: int):
        path = []
        while h and h not in grown:
            nxt, touched = step(h)
            path.append((h, touched))
            h = nxt
        best, seen = grown[h] if h else (None, 0)
        for h, touched in reversed(path):
            key = score(h)
            if key is not None and (best is None or key < best):
                best = key
            seen |= touched
            grown[h] = (best, seen)
        return best

    parts: list[tuple[int, int]] = []
    while True:
        best = None
        m = room
        while m:
            low = m & -m
            m ^= low
            nbrs = adj[low.bit_length() - 1] & room & ~(2 * low - 1)
            while nbrs:
                lw = nbrs & -nbrs
                nbrs ^= lw
                key = grow(low | lw)
                if key is not None and (best is None or key < best):
                    best = key
        if best is None:
            return ConvexPartition(parts, full)
        part = best[2]
        parts.append((part, best[3]))
        room &= ~part
        grown = {h: e for h, e in grown.items() if not e[1] & part}


# --------------------------------------------------------------------------
# Hereditary variants: mutual, outer, total
# --------------------------------------------------------------------------


class _HereditarySearch:
    def __init__(self, g: Graph, variant: str, pv: PairVisibility,
                 candidates: list[int], bound: Callable[[int], int] | None,
                 budget: _Budget, stats: SearchStats):
        self.g = g
        self.n = g.n
        self.variant = variant
        self.pv = pv
        self.candidates = candidates
        self.bound = bound
        self.order = _branch_order(g, candidates)
        self.budget = budget
        self.stats = stats
        self.best = 0
        self.best_mask = 0

    def _feasible_add(self, v: int, xm: int, xm2: int) -> bool:
        """Would X + v still satisfy the variant? Incremental re-checks only.

        Pairs whose geodesic interior misses v keep their status, so only
        pairs through v plus the newly required pairs involving v are
        tested.
        """
        pv = self.pv
        n = self.n
        visible = pv.visible_pid
        pair_mask = pv.pair_mask
        variant = self.variant
        if variant == "mutual":
            mm = xm
            base = v * n
            while mm:
                low = mm & -mm
                u = low.bit_length() - 1
                mm ^= low
                pid = u * n + v if u < v else base + u
                if not visible(pid, xm2):
                    return False
            for pid in pv.pairs_through[v]:
                pm = pair_mask[pid]
                if xm & pm == pm and not visible(pid, xm2):
                    return False
            return True
        if variant == "total":
            for pid in pv.pairs_through[v]:
                if not visible(pid, xm2):
                    return False
            return True
        # outer: v's pairs against the whole vertex set become required.
        # Pairs (v, u) with u already inside were required before and their
        # blocker set is unchanged (endpoints are exempt), so skip them.
        base = v * n
        for z in range(n):
            if z == v or (xm >> z) & 1:
                continue
            pid = z * n + v if z < v else base + z
            if not visible(pid, xm2):
                return False
        for pid in pv.pairs_through[v]:
            if xm & pair_mask[pid] and not visible(pid, xm2):
                return False
        return True

    def run_value(self) -> None:
        """Candidate-list DFS: the list holds only vertices individually
        addable to the current set, which is sound to maintain because
        addability is monotone under heredity (a vertex unaddable now can
        never become addable as the set grows). On the include-only spine
        the list is every vertex addable to X, so the exclude branch drops
        the branch vertex's whole orbit under the stabiliser of X."""
        g = self.g
        stats = self.stats
        tick = self.budget.tick
        feasible_add = self._feasible_add
        bound = self.bound

        def dfs(cands: list[int], xm: int, count: int, spine: bool) -> None:
            tick()
            if count + len(cands) <= self.best:
                stats.prunes += 1
                return
            if not cands:
                self.best = count
                self.best_mask = xm
                return
            if bound:
                om = xm
                for u in cands:
                    om |= 1 << u
                if bound(om) <= self.best:
                    stats.prunes += 1
                    stats.bound_prunes += 1
                    return
            v = cands[0]
            rest = cands[1:]
            xm2 = xm | (1 << v)
            kept = [
                u for u in rest if feasible_add(u, xm2, xm2 | (1 << u))
            ]
            stats.prunes += len(rest) - len(kept)
            dfs(kept, xm2, count + 1, spine)
            if spine and count + len(rest) > self.best:
                within = 0
                for u in cands:
                    within |= 1 << u
                orbit = stabilizer_orbit(g, xm, v, within)
                dropped = orbit.bit_count() - 1
                if dropped:
                    stats.prunes += dropped
                    stats.orbit_prunes += dropped
                    rest = [u for u in rest if not (orbit >> u) & 1]
            dfs(rest, xm, count, False)

        initial = [
            v for v in self.order if feasible_add(v, 0, 1 << v)
        ]
        dfs(initial, 0, 0, True)

    def exists_with_prefix(self, prefix_mask: int, prefix_count: int,
                           allowed: list[int], target: int) -> bool:
        """Is there a feasible set of size ``target`` extending the prefix
        using only ``allowed`` vertices?"""
        stats = self.stats
        tick = self.budget.tick
        feasible_add = self._feasible_add
        bound = self.bound

        def dfs(cands: list[int], xm: int, count: int) -> bool:
            tick()
            if count == target:
                return True
            if count + len(cands) < target:
                stats.prunes += 1
                return False
            if bound:
                om = xm
                for u in cands:
                    om |= 1 << u
                if bound(om) < target:
                    stats.prunes += 1
                    stats.bound_prunes += 1
                    return False
            v = cands[0]
            xm2 = xm | (1 << v)
            kept = [
                u for u in cands[1:] if feasible_add(u, xm2, xm2 | (1 << u))
            ]
            if dfs(kept, xm2, count + 1):
                return True
            return dfs(cands[1:], xm, count)

        initial = [
            u for u in allowed
            if feasible_add(u, prefix_mask, prefix_mask | (1 << u))
        ]
        return dfs(initial, prefix_mask, prefix_count)

    def lex_least_witness(self, target: int) -> int:
        """Greedy lexicographically least maximum set, one decision per id."""
        if target == 0:
            return 0
        chosen = 0
        count = 0
        low = 0
        cand_set = set(self.candidates)
        while count < target:
            for v in range(low, self.n):
                if v not in cand_set or (chosen >> v) & 1:
                    continue
                cm2 = chosen | (1 << v)
                if not self._feasible_add(v, chosen, cm2):
                    continue
                allowed = [u for u in self.order if u > v and not (cm2 >> u) & 1]
                if self.exists_with_prefix(cm2, count + 1, allowed, target):
                    chosen = cm2
                    count += 1
                    low = v + 1
                    break
            else:
                raise AssertionError("lex witness reconstruction failed")
        return chosen


# --------------------------------------------------------------------------
# Dual variant
# --------------------------------------------------------------------------


class _DualSearch:
    """Include/exclude search with monotone blocked-pair forcing.

    A pair that is not I-visible can never become visible again, and a dual
    set must keep every blocked pair split across X and its complement, so
    discovering one forces or kills decisions. Same-side decided blocked
    pairs kill the node; one-sided ones force the undecided endpoint.
    """

    def __init__(self, g: Graph, pv: PairVisibility,
                 bound: Callable[[int], int] | None, budget: _Budget,
                 stats: SearchStats):
        self.g = g
        self.n = g.n
        self.pv = pv
        self.bound = bound
        self.budget = budget
        self.stats = stats
        self.order = _branch_order(g, list(range(g.n)))
        self.best = 0
        self.best_mask = 0
        self.full = (1 << g.n) - 1

    def _apply(self, im: int, em: int, v: int,
               into: bool) -> tuple[int, int] | None:
        """Decide v (and everything it forces); None when a pair dies."""
        pv = self.pv
        full = self.full
        visible = pv.visible_pid
        row = pv.row
        through = pv.pairs_through
        pair_mask = pv.pair_mask
        stack = [(v, into)]
        while stack:
            u, side = stack.pop()
            ub = 1 << u
            if side:
                if em & ub:
                    return None
                if im & ub:
                    continue
                im |= ub
                # Decided-in partners and undecided ones that u cannot see.
                bad = full & ~em & ~row(u, im)
                if bad & im:
                    return None  # two decided-in vertices blocked
                while bad:
                    low = bad & -bad
                    stack.append((low.bit_length() - 1, False))
                    bad ^= low
                dec = im | em
                for pid in through[u]:
                    pm = pair_mask[pid]
                    known = dec & pm
                    if not known:
                        continue  # both undecided; caught later
                    if known != pm:
                        # One end decided: a blocked pair forces the other
                        # end to the other side.
                        if not visible(pid, im):
                            stack.append(
                                ((pm ^ known).bit_length() - 1,
                                 bool(em & pm))
                            )
                    elif ((im & pm == pm or em & pm == pm)
                          and not visible(pid, im)):
                        return None
            else:
                if im & ub:
                    return None
                if em & ub:
                    continue
                em |= ub
                # Decided-out partners and undecided ones that u cannot see.
                bad = full & ~im & ~row(u, im)
                if bad & em:
                    return None  # two decided-out vertices blocked
                while bad:
                    low = bad & -bad
                    stack.append((low.bit_length() - 1, True))
                    bad ^= low
        return im, em

    def _full_dual_ok(self, xm: int) -> bool:
        """Leaf check: every within-X and within-complement pair visible."""
        n = self.n
        visible = self.pv.visible_pid
        cm = self.full & ~xm
        for u in range(n):
            ub = 1 << u
            side = xm if xm & ub else cm
            base = u * n
            for v in range(u + 1, n):
                if side & (1 << v) and not visible(base + v, xm):
                    return False
        return True

    def run_value(self) -> None:
        """Include/exclude DFS. On the include-only spine the decided state
        is the forcing closure of the included set alone, so the exclude
        branch also excludes the branch vertex's orbit under the stabiliser
        of the decided-in set."""
        g = self.g
        n = self.n
        stats = self.stats
        tick = self.budget.tick
        order = self.order
        bound = self.bound

        def dfs(im: int, em: int, start: int, spine: bool) -> None:
            tick()
            und = self.full & ~im & ~em
            icount = im.bit_count()
            if icount + und.bit_count() <= self.best:
                stats.prunes += 1
                return
            if not und:
                if self._full_dual_ok(im):
                    self.best = icount
                    self.best_mask = im
                return
            if bound and bound(im | und) <= self.best:
                stats.prunes += 1
                stats.bound_prunes += 1
                return
            i = start
            while (1 << order[i]) & ~und:
                i += 1
            v = order[i]
            r = self._apply(im, em, v, True)
            if r is not None:
                dfs(r[0], r[1], i + 1, spine)
            else:
                stats.prunes += 1
            r = self._apply(im, em, v, False)
            # n - |E| is the exclude child's |I| + |undecided|: its count
            # prune.
            if (spine and r is not None
                    and n - r[1].bit_count() > self.best):
                orbit = stabilizer_orbit(g, im, v, und) & ~(1 << v)
                dropped = orbit.bit_count()
                stats.prunes += dropped
                stats.orbit_prunes += dropped
                while orbit and r is not None:
                    low = orbit & -orbit
                    orbit ^= low
                    r = self._apply(r[0], r[1], low.bit_length() - 1, False)
            if r is not None:
                dfs(r[0], r[1], i + 1, False)
            else:
                stats.prunes += 1

        dfs(0, 0, 0, True)

    def exists_with_prefix(self, im: int, em: int, target: int) -> bool:
        """Is there a dual set X of size ``target`` that contains the
        decided-in set ``im`` and misses the decided-out set ``em``?"""
        if im.bit_count() > target:
            return False
        stats = self.stats
        tick = self.budget.tick
        order = self.order
        bound = self.bound

        def dfs(im: int, em: int, start: int) -> bool:
            tick()
            und = self.full & ~im & ~em
            icount = im.bit_count()
            if icount > target or icount + und.bit_count() < target:
                stats.prunes += 1
                return False
            if not und:
                return icount == target and self._full_dual_ok(im)
            if bound and bound(im | und) < target:
                stats.prunes += 1
                stats.bound_prunes += 1
                return False
            i = start
            while (1 << order[i]) & ~und:
                i += 1
            v = order[i]
            r = self._apply(im, em, v, True)
            if r is not None and dfs(r[0], r[1], i + 1):
                return True
            r = self._apply(im, em, v, False)
            if r is not None and dfs(r[0], r[1], i + 1):
                return True
            return False

        return dfs(im, em, 0)

    def lex_least_witness(self, target: int) -> int:
        """Greedy lexicographically least maximum set. ``im`` and ``em``
        hold the decisions on vertices 0..v-1, with everything they force:
        the chosen ones in, the rest out."""
        if target == 0:
            return 0
        chosen = 0
        count = 0
        im = em = 0
        for v in range(self.n):
            if count == target:
                break
            r = self._apply(im, em, v, True)
            if r is not None and self.exists_with_prefix(r[0], r[1], target):
                chosen |= 1 << v
                count += 1
            else:
                r = self._apply(im, em, v, False)
                if r is None:
                    break
            im, em = r
        if count < target:
            raise AssertionError("lex witness reconstruction failed")
        return chosen


# --------------------------------------------------------------------------
# Public entry points
# --------------------------------------------------------------------------


def solve(g: Graph, variant: str, opts: SolveOptions | None = None) -> SolveResult:
    """Exact value and lexicographically least maximum witness.

    Raises :class:`Incomplete` with the best-so-far lower bound when the
    node or time budget runs out.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    opts = opts or SolveOptions()
    budget = _Budget(opts)
    stats = SearchStats()
    pv = PairVisibility(g)

    candidates = list(range(g.n))
    if variant == "total" and opts.candidate_filter:
        candidates = [v for v in candidates if is_bypass_candidate(g, v)]
    searched = sum(1 << v for v in candidates)
    partition = convex_partition(g, variant, searched, pv)
    # Without a part below its size the bound equals the plain count.
    bound = partition.bound if partition.parts else None
    if variant == "dual":
        search: _DualSearch | _HereditarySearch = _DualSearch(
            g, pv, bound, budget, stats
        )
    else:
        search = _HereditarySearch(
            g, variant, pv, candidates, bound, budget, stats
        )

    value_certified = False
    try:
        search.run_value()
        value_certified = True
        witness_mask = search.lex_least_witness(search.best)
    except _BudgetExceeded:
        stats.nodes_explored = budget.nodes
        stats.elapsed_ms = budget.elapsed_ms()
        raise Incomplete(
            variant,
            search.best,
            VertexSet.from_mask(g.n, search.best_mask),
            stats,
            value_certified,
        ) from None
    stats.nodes_explored = budget.nodes
    stats.elapsed_ms = budget.elapsed_ms()
    return SolveResult(
        variant=variant,
        value=search.best,
        witness=VertexSet.from_mask(g.n, witness_mask),
        stats=stats,
    )


def solve_independence(g: Graph, opts: SolveOptions | None = None) -> SolveResult:
    """Exact independence number with a lexicographically least witness."""
    opts = opts or SolveOptions()
    budget = _Budget(opts)
    stats = SearchStats()
    masks = g.adjacency_masks()
    order = _branch_order(g, list(range(g.n)))
    n = g.n

    best = 0
    best_mask = 0
    tick = budget.tick

    def dfs(i: int, xm: int, count: int, forbidden: int) -> None:
        nonlocal best, best_mask
        tick()
        if count + (n - i) <= best:
            stats.prunes += 1
            return
        if i == n:
            best = count
            best_mask = xm
            return
        v = order[i]
        vb = 1 << v
        if not forbidden & vb:
            dfs(i + 1, xm | vb, count + 1, forbidden | masks[v] | vb)
        else:
            stats.prunes += 1
        dfs(i + 1, xm, count, forbidden)

    def exists(i: int, xm: int, count: int, forbidden: int,
               allowed: list[int], target: int) -> bool:
        tick()
        if count == target:
            return True
        if count + (len(allowed) - i) < target:
            stats.prunes += 1
            return False
        v = allowed[i]
        vb = 1 << v
        if not forbidden & vb and exists(
            i + 1, xm | vb, count + 1, forbidden | masks[v] | vb,
            allowed, target,
        ):
            return True
        return exists(i + 1, xm, count, forbidden, allowed, target)

    try:
        dfs(0, 0, 0, 0)
        target = best
        chosen = 0
        count = 0
        forbidden = 0
        low = 0
        while count < target:
            for v in range(low, n):
                vb = 1 << v
                if forbidden & vb:
                    continue
                allowed = [u for u in order if u > v and not (forbidden | masks[v] | vb) & (1 << u)]
                if exists(0, chosen | vb, count + 1,
                          forbidden | masks[v] | vb, allowed, target):
                    chosen |= vb
                    forbidden |= masks[v] | vb
                    count += 1
                    low = v + 1
                    break
            else:
                raise AssertionError("lex witness reconstruction failed")
    except _BudgetExceeded:
        stats.nodes_explored = budget.nodes
        stats.elapsed_ms = budget.elapsed_ms()
        raise Incomplete(
            "independence", best, VertexSet.from_mask(n, best_mask), stats
        ) from None

    stats.nodes_explored = budget.nodes
    stats.elapsed_ms = budget.elapsed_ms()
    return SolveResult(
        variant="independence",
        value=target,
        witness=VertexSet.from_mask(n, chosen),
        stats=stats,
    )


def total_is_zero(g: Graph) -> bool:
    """Characterization shortcut: the total number is 0 exactly when every
    vertex is the middle of some convex P3 (i.e. no bypass candidates)."""
    if g.n < 2:
        raise TooSmall("characterization needs at least 2 vertices")
    return not any(is_bypass_candidate(g, v) for v in range(g.n))


def dual_zero_sufficient(g: Graph) -> str:
    """Sufficient conditions for a zero dual number.

    Returns "proven_zero" when every edge is the center of a convex P4, or
    when girth >= 7 and minimum degree >= 2. Returns "inconclusive"
    otherwise; this is NOT a claim that the dual number is nonzero (e.g.
    C5 x C5 fails both conditions yet has dual number 0).
    """
    stats = graph_stats(g)
    if stats.girth >= 7 and stats.min_degree >= 2:
        return "proven_zero"
    imask = _interval_mask_cache(g)
    if all(_edge_center_of_convex_p4(g, u, v, imask) for u, v in g.edges()):
        return "proven_zero"
    return "inconclusive"


def _edge_center_of_convex_p4(g: Graph, u: int, v: int, imask) -> bool:
    d = all_pairs_distances(g)
    for w in g.adj[u]:
        if w == v:
            continue
        dw = d[w]
        for w2 in g.adj[v]:
            if w2 == u or dw[w2] != 3:
                continue
            four = (1 << w) | (1 << u) | (1 << v) | (1 << w2)
            # convexity of the 4-set: all six intervals stay inside it
            if (
                imask(w, w2) | imask(w, v) | imask(u, w2)
                | imask(w, u) | imask(u, v) | imask(v, w2)
            ) & ~four == 0:
                return True
    return False


def _interval_mask_cache(g: Graph):
    d = all_pairs_distances(g)
    n = g.n
    cache: dict[int, int] = {}

    def imask(u: int, v: int) -> int:
        key = u * n + v if u < v else v * n + u
        m = cache.get(key)
        if m is None:
            du, dv = d[u], d[v]
            duv = du[v]
            m = 0
            for z in range(n):
                if du[z] + dv[z] == duv:
                    m |= 1 << z
            cache[key] = m
        return m

    return imask


def dual_zero_by_cover(g: Graph, cover: list, opts: SolveOptions | None = None) -> bool:
    """Certify a zero dual number by a convex cover with zero parts.

    True certifies the dual number is 0. False means this certificate
    fails (a part is non-convex or has a nonzero dual number), not that the
    dual number is positive. Raises :class:`IncompleteCover` when the parts
    do not cover every vertex.
    """
    parts = [as_vertex_set(g, p) for p in cover]
    union = 0
    for p in parts:
        union |= p.mask
    if union != (1 << g.n) - 1:
        raise IncompleteCover("cover misses some vertices")
    for p in parts:
        if not is_convex(g, p):
            return False
        sub, _ = induced_subgraph(g, p)
        if solve(sub, "dual", opts).value != 0:
            return False
    return True
