"""Exact maximum-set solvers for the four visibility variants and for
independence.

Every solve runs one branch-and-bound kernel, :class:`_Search`. A search
state is a pair of vertex masks (inside, open): inside is the set chosen so
far and open the vertices still undecided; every other vertex is out. Each
kind of search supplies two decisions on a vertex v, ``include`` and
``exclude``, which return the child state, or None when the branch dies.
The kernel holds one DFS, :meth:`_Search._dfs`, which looks below a state
for solutions X with |X| > floor, where a solution is any hereditary
state, or a dual state with nothing open. With ``first`` set it is a
decision query ("is there a solution of size t that extends this
state?") for t = floor + 1: it returns the first solution of size t it
finds, and prunes every state with more than t vertices inside.
Otherwise each solution found raises the floor, ``best`` and
``best_mask``: the value search is floor ``best`` from the root. Every
search branches on its lowest open vertex, include first, so the searches
differ only in start state, floor and stop rule.

The value search records hereditary states that are not leaves, yet it
searches the same tree as when it recorded leaves only. Let S be such a
state with |S| > best. Include never kills a hereditary child, since the
branch vertex is open and so addable, so the include-first dive from S
reaches a leaf L with |L| > |S| before any other check reads the floor.
The checks on the dive pass either way: every state X on it is a
solution, and while X has an open vertex v, X + v is one too, so
|X| + |open|, the partition bounds and |X| + c[v] of the doll table (below;
c[v] >= 1 when v is open) all exceed |X|, which is at least the floor. At
L the floor becomes |L| either way. Only a budget that runs out on the
dive sees a difference: it reports the larger set reached there.

The hereditary kinds are mutual, outer, total and independence: any subset
of a solution is a solution. Their inside X is always a solution, and open
holds only vertices individually addable to it (the open invariant), so
include keeps the open w for which X + v + w is still a solution, and
exclude drops v from open. Dropping w is sound because a vertex unaddable
now never becomes addable as inside grows. For independence include keeps
the open vertices not adjacent to v. The dual variant is not hereditary:
both decisions run :meth:`_DualSearch._apply`, which decides v and
everything it forces. That is the one rule in which the kinds differ:
every hereditary state is a solution, while a dual state is one only when
nothing is open.

The hereditary include makes one pass over the pairs near v. A pair is
required when at least 2 (mutual), 1 (outer) or 0 (total) of its ends are
in the set, and then it must stay visible, blocked only by its interior
vertices in the set. By the open invariant X + v and X + w are solutions.
A pair that has v neither as an end nor as an interior vertex has, under
X + v + w, the blockers and the required status it has under X + w, so it
passes; so does a pair that misses w, as under X + v. Only a pair that has
both v and w among its ends and interior vertices can fail, in one of
four ways:

* v and w interior: the pair is in ``pairs_through[v]``, and it is
  required under X + v + w exactly when it is under X. Then X + v keeps
  it visible, so after a refresh against X + v its cached geodesic (the
  hint) is free of X + v. If w is not on the hint, the hint stays free;
  if it is, one ``visible_pid`` test against X + v + w decides. A w that
  blocks the pair lies on every geodesic free of X + v, the hint among
  them, so no vertex off the hint is tested.
* v interior, w an end: the blockers are those under X + v. The pair
  fails if it is blocked there and w's end makes it newly required: for
  mutual when the other end is in X, for outer whenever no end is in X.
  A pair already required under X + v is visible there.
* v an end, w interior: the pair (v, b) with an interior is required
  under X + v + w exactly when it is under X + v (b in X for mutual,
  always for outer and total), and is then tested as in the first case.
* v and w the ends: the blockers are those under X. For outer and total
  X + v already requires the pair, so it is visible. For mutual it is
  newly required, so a w whose pair (v, w) X blocks is dropped.

So include visits each pair near v once, not once per open vertex.

The hereditary root keeps open exactly the vertices v for which {v} is a
solution. For mutual, outer and independence that is every vertex: the
pairs of {v} to the rest have v as an end, so nothing blocks them. For
total these are the bypass candidates, the vertices that are
the middle of no convex P3 (:func:`mvis.visibility.is_bypass_candidate`),
so the search needs no filter of its own. If u-v-w is a convex P3, v is on
the only u,w-geodesic, so {v} blocks the pair. Conversely, if v is on every
geodesic of some pair, let x and y be v's neighbours on one of them; then
d(x, y) = 2, and a second common neighbour of x and y would replace v in
that geodesic, so x-v-y is a convex P3.

Dual forcing. A pair that is not I-visible (I = inside) never becomes
visible again as I grows, and a dual set keeps every blocked pair split
between I and the rest. So a blocked pair with both ends decided on one
side kills the node, and one with a single end decided forces the other
end to the other side. Deciding u tests all of u's pairs at once:
:meth:`PairVisibility.row` gives the mask of u's I-visible partners, and
the same-side partners outside it are killed or forced with mask
operations, by one rule for both sides, as a dual set asks the same of I
and its complement. When u joins I, the pairs through u are re-tested one
by one.
A state with nothing open is therefore always a dual set. A pair's status
depends only on which of its interior vertices are in I, so look at the
last decision that touches the pair: the decision of its later endpoint,
or an interior vertex joining I. If it is the later endpoint, its row is
taken against the interior as it stays, and a same-side blocked partner
kills the node there. If it is an interior vertex joining I after both
ends are decided, the loop over the pairs through that vertex tests the
pair and kills the node. No leaf check is needed.

The upper bound is a convex-partition bound. If H is convex in G (every
geodesic between two vertices of H stays in H) and X is a variant-set of G,
then X intersect H is a variant-set of the subgraph H, because the pairs of
H keep exactly their geodesics. This holds for all four variants, and for
independence on any induced subgraph. Before searching,
:func:`convex_partitions` splits the root's open vertices into disjoint
convex parts H_i of at most :data:`PART_LIMIT` vertices. Every solution
below a node lies inside its mask M = inside + open, so its part in H_i is
a variant-set of H_i inside M intersect H_i. The node therefore bounds its
best completion by |M minus the parts| plus the sum over parts of
cap(H_i, M intersect H_i), the size of the largest variant-set of H_i
inside that mask. cap(H_i, H_i) is the part's capacity mu(H_i), by which
the parts are chosen. This is the colouring bound of max-clique
branch-and-bound, re-coloured at every node (Tomita & Seki, DMTCS 2003);
a part has at most :data:`PART_LIMIT` vertices, so each cap is memoised
rather than recomputed. The memo keys a mask by the part's relabelled
edges and its labels, taking the least labels under the maps of the
relabelled part's automorphism group (:func:`mvis.symmetry.automorphism_group`,
built once per relabelled part and kept on its graph). Each maps the
part's variant-sets inside m onto those inside the image of m: masks that
a symmetry of the part swaps, in one part or in isomorphic parts, share
one search. On a grid the parts are geodesic lines of capacity 2.

A second partition comes from the graph's symmetry, with no second build.
An automorphism sigma preserves distances, so it maps each interval onto
an interval: sigma(H) is convex when H is, and the parts sigma(H_i) with
sigma(free) again split the vertices. sigma also maps the pairs of H onto
those of sigma(H) with their geodesics, so it maps the variant-sets of H
inside a mask m onto those of sigma(H) inside sigma(m), and
cap(sigma(H), sigma(H)) = cap(H, H): the image's capacities are known
without a search. Labelling sigma(x) as x, sigma(H) keys a mask m as H
keys the mask sigma maps onto m, so the image shares H's memo. The image
is a convex partition like any other, so its bound holds for every mask;
it needs no symmetry of the root's open vertices. sigma is the first map
that moves vertex 0 in the automorphism group that orbital branching
(below) uses; without one, or where sigma would repeat the parts, the
image is left out.

A third partition M merges parts. The union U of two convex parts H1 and
H2 is often convex too, as two neighbouring lines of a grid are; then
the lemma holds for U unchanged. H1 and H2 are convex in the subgraph U,
so for a variant-set Y of U inside a mask m, Y intersect H1 and
Y intersect H2 are variant-sets of H1 and H2, and
cap(U, m) <= cap(H1, m intersect H1) + cap(H2, m intersect H2). Often the sum is not met below the root even where it is met at
the root: two grid lines of capacity 2 hold 4 vertices, but fewer once
the mask cuts into them. :func:`_merged` builds M from P, in part order:
each part takes the first later one whose union with it is convex and
is not the whole searched room, and every other part and vertex stays as
it is in P. A union that was the whole room would make its capacity
search the whole solve, moved out of the solve's node count and pruned
by its halves alone, as on grid:6x4 and torus:5x4, whose P has two
parts. So M is again a partition into proper convex parts, of at most
twice :data:`PART_LIMIT` vertices, its bound holds for every mask and is
at most P's at every node. A union keys the capacity memo by its
relabelled edges and its group like any part, and M has an image sigma(M)
under the same sigma, which shares M's memo as sigma(P) shares P's. This
is the colouring bound taken at four colourings, tried in the order P,
sigma(P), M, sigma(M): M cuts at least where P does, but each of its caps
is a search over up to 24 vertices, so it comes last. A node is pruned at
the first of the bounds that is at most the floor. No bound ever cuts a
solution above the floor, so the solutions the value search records, the
floor after each, the value and the lex-least witness are those of one
bound, and a node count can only fall.

Each cap is a value search of the part whose root keeps open only the
part's vertices in the mask. A part of P or sigma(P) has no partition
bound of its own. A union of M or sigma(M) prunes on its two halves, the
two parts it joins: a half H counts as the smaller of |H inside the
node's mask| and cap(H, H), which the union takes from the partition it
was merged from, so this bound runs no search and adds no entry to the
memo. So only the top of a solve builds a partition, and a part is never
partitioned but into the halves it was merged from. A search narrowed to
a mask does not branch orbitally: an automorphism of the part need not
map the mask onto itself, so dropping an orbit could drop every largest
set inside the mask, and a cap too low would prune the optimum.

Every search but a narrowed one also branches orbitally (Ostrowski,
Linderoth, Rossi & Smriglio, Orbital branching, Math. Programming 2011),
at every node: the value search, the doll table's level queries and the
witness query. Each node carries maps: automorphisms sigma of the graph
with sigma(inside) = inside and sigma(open) = open, as sets. The
solutions below a node are the solutions S with inside <= S <= inside +
open (for dual, forcing removes only completions that are no dual set),
so each carried map sends them onto themselves. Let O be the orbit of the
branch vertex v under the group the maps generate: v, then every image of
an orbit vertex, until no new image appears. A solution below the node
that meets O maps, by some product of the maps, to one of the same size
that holds v, in the include subtree. That subtree is done before the
exclude branch is built, so the exclude branch drops all of O, not just
v, and loses no solution above the floor. The children keep maps that
keep them: the include child those with sigma(v) = v, as a hereditary
child's open is the open vertices addable to inside + v, and the dual
forcing closure commutes with every automorphism; the exclude child every
map, as each sends O onto itself. A search's start state carries the maps
of :func:`mvis.symmetry.automorphism_group` that fix each vertex of its
inside set and send its open set onto itself; the group's maps are
verified distance-preserving bijections, and its size is capped. The
value search and the witness query start at the root, whose open set
every automorphism keeps, and a doll level at {v} with some of the
vertices above v open. A map left out only makes O smaller, which loses
pruning but never a solution, and as O is closed under the maps a node
carries, the argument never needs the group to be whole. The group is
built at the first orbit drop of the search: until then every node that
branches was reached from the start by includes only, and its maps are
the start's maps that fix each of those include vertices. In a decision
query the orbit drop must not lose the first set of size floor + 1 it
would meet. It does not: the query returns at its first hit, so it
reaches an exclude branch only after the include subtree had no hit, and
step 3 of the witness proof (below) covers the level queries and the
witness query as it covers the value search. The value search's own set
is the witness only where the orbits provably dropped no set of the
value's size before it (below).

The doll table (Russian-doll search: Verfaillie, Lemaitre & Schiex, AAAI
1996; Ostergard, Discrete Applied Math. 2002). Before the value search of
a hereditary kind, :meth:`_Search._build_doll` fills a table c over the
vertex ids, from the highest: c[v] is the size of the largest solution
among the root's open vertices with id >= v, and c[n] = 0. Any subset of
a solution is a solution, so c[v] is c[v + 1] + 1 when some solution of
that size holds v and lies among those vertices, and c[v + 1] otherwise.
Level v asks exactly that, as one decision query from the state
include(0, those vertices, v) with floor c[v + 1]; that root's open
vertices have ids above v. Each hit raises ``best`` and ``best_mask`` at
once, so a budget that runs out during the table reports the largest
level set. That set S, of size c[v + 1] with ids above v, often settles
the next level with no query: when S lies in the level root's open set,
one node, :meth:`_HereditarySearch._addable`, tests whether S + v is a
solution, and if it is, it is a set of c[v + 1] + 1 vertices holding v,
so the level is a hit. A level that takes more than
:data:`DOLL_LEVEL_LIMIT` nodes per vertex is abandoned, and it and every
level below it keep c = n. Such an entry never prunes: a node past the
count prune has floor < |inside| + |open| <= n. The table also stops
after the hit that reaches the ceiling, the smaller of |root open| and
every partition bound of the root's open mask, as no solution is larger,
and the levels below it keep n too; the value search then has nothing to
find and is skipped. For the same reason the value search returns as
soon as its floor reaches the ceiling.

Every search once the table exists, the level queries, the value search
and the witness query, prunes a node that branches on v when
|inside| + c[v] <= floor. The node branches on its lowest open vertex, so
open lies in ids >= v, and within the root's open vertices, as include and
exclude only remove vertices from open; so do the orbit vertices dropped,
by excludes. Any solution below the node is inside + Y with
Y within open, and Y is a solution by heredity among the root's open
vertices with id >= v, so |Y| <= c[v]. A level query reads only c[w] for
w > v, which are built before it starts.

The witness phase. A solve returns the lexicographically least maximum
set: of two sets of one size, the one holding the lowest vertex of their
symmetric difference. Let t be the value. When the value search itself
raised ``best`` to t, its last set is that witness, with no further
search, in three steps.

1. Preorder is lex order. The full tree, with no prunes, holds every
   solution as the inside of a state: include the solution's vertices and
   exclude the rest, lowest first; a hereditary solution's undecided
   vertices are addable, so open. Take two states whose insides differ
   and have the same size, so neither lies below the other. Where their
   paths part, the node branched on its lowest open vertex v, so both
   agree on every vertex below v, the one below the include child holds v
   and the other does not: the state met first in preorder has the
   lex-smaller inside. So the first state of size t in preorder, a leaf
   for dual and any state for a hereditary kind, holds the lex-least set
   of size t.
2. Before that first hit the floor is below t: it is what the doll table
   left, below t as the table did not reach t, or the size of a set the
   search recorded. A count, partition (P, sigma(P), M or sigma(M)) or
   doll prune cuts only a
   subtree whose solutions are at most the floor, and a killed child
   holds none, so neither cuts a set of size t before the hit. In a
   decision query for size t the floor is t - 1 throughout, and its size
   cap cuts only states with more than t vertices inside, all of whose
   solutions are larger.
3. An orbit drop at a node with branch vertex v comes after the node's
   include subtree is done. Before the hit, that subtree had no hit, so
   it holds no set of size t: no earlier cut removed one, by steps 2 and
   3 taken in the order the cuts happen. Then no set of size t below the
   node meets the dropped orbit O: a product of the maps the node carries
   would map it onto one holding v, which lies in the include subtree.

So nothing before the hit cuts a set of size t. The value search meets
the first state of size t in preorder, records it as its floor is below
t, and records nothing after it, as no solution is larger: its last set
is the lex-least one. When the doll table reached t, the value search
records nothing and ``best_mask`` is some set of size t. Then
:meth:`_Search.lex_least_witness` finds the witness with a decision query
from the root for size t: it visits states in the same preorder, its
prunes cut no set of size t as its floor is t - 1, the states its size
cap cuts hold more than t vertices, and by step 3 its orbit drops, each
after an include subtree with no hit, cut none either, so its first hit
is the first state of size t, the lex-least set.
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
from .symmetry import automorphism_group
from .visibility import (
    VARIANTS,
    PairVisibility,
    is_bypass_candidate,
    pair_visibility,
)


class TooSmall(GraphError):
    """The graph is below the minimum order for this characterization."""


class IncompleteCover(GraphError):
    """The supplied parts do not cover the vertex set."""


class Incomplete(Exception):
    """A search budget was exhausted before the solve finished.

    ``lower_bound`` and ``witness`` describe the best set found so far. When
    ``value_certified`` is set the budget ran out in the witness phase,
    which only a value that the doll table found has: ``lower_bound`` is
    then the exact value, but ``witness`` is only some maximum set, not the
    lexicographically least one.
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

    ``node_budget`` / ``time_budget_ms`` of 0 mean unlimited; a negative
    budget raises ``ValueError``.
    """

    node_budget: int = 0
    time_budget_ms: int = 0

    def __post_init__(self):
        if self.node_budget < 0:
            raise ValueError(f"node budget {self.node_budget} is negative")
        if self.time_budget_ms < 0:
            raise ValueError(
                f"time budget {self.time_budget_ms} ms is negative"
            )


@dataclass
class SearchStats:
    """Search counters, which the search keeps itself as it runs.
    ``prunes`` counts the nodes cut by the count, by a decision query's
    size, by a partition bound or by the doll table, the children
    whose decision killed them (in both phases), and the orbit vertices
    dropped; a vertex that an include drops from open as unaddable is not a
    prune. ``bound_prunes`` counts the prunes, included in ``prunes``, that
    only the convex-partition bounds made. ``image_prunes``, included in
    ``bound_prunes``, counts those that only the image sigma(P) of the
    greedy partition P made, where P's bound did not cut.
    ``merged_prunes``, also included in ``bound_prunes``, counts those
    that only the merged partition M or its image sigma(M) made, where
    neither P nor sigma(P) cut. ``doll_prunes``, also included in
    ``prunes``, counts the nodes that only the doll table cut, in its own
    level queries, the value search and the witness query.
    ``orbit_prunes``, also included in ``prunes``, counts the vertices
    that orbital branching dropped from exclude branches beyond the branch
    vertex itself, at any node, under the maps the node carries.
    ``nodes_explored`` includes the doll table's nodes, which count in the
    value phase; the root ``include`` of each doll level is not a node,
    and its shortcut test, whether the table's set plus the level's
    vertex is a solution, is one, passed or failed.
    ``witness_nodes`` counts the nodes, included in ``nodes_explored``, of
    the witness phase: the one decision query whose first hit is the
    lex-least maximum set. It is 0 when the phase is skipped, as the value
    search found the value and its set is returned."""

    nodes_explored: int = 0
    prunes: int = 0
    bound_prunes: int = 0
    image_prunes: int = 0
    merged_prunes: int = 0
    orbit_prunes: int = 0
    doll_prunes: int = 0
    witness_nodes: int = 0
    elapsed_ms: float = 0.0


@dataclass(frozen=True)
class SolveResult:
    variant: str
    value: int
    witness: VertexSet
    stats: SearchStats


class _BudgetExceeded(Exception):
    pass


# --------------------------------------------------------------------------
# Convex-partition bound
# --------------------------------------------------------------------------

#: Most vertices in one part of a convex partition. Each of a part's caps
#: is a value search of the part with no partition bound, so parts stay
#: small; a union of two parts in the merged partition has at most twice
#: as many, and prunes on its two halves.
PART_LIMIT = 12

#: Most nodes one level of the doll table may take, per vertex of the
#: graph, before the table is abandoned at that level.
DOLL_LEVEL_LIMIT = 2


@dataclass(frozen=True, slots=True)
class ConvexPartition:
    """Disjoint convex parts with their capacities, and the bound they give.

    ``parts`` holds (vertex mask, capacity) pairs, only for parts whose
    capacity is below their size; ``free`` holds every other vertex, which
    counts in full. ``shape`` maps each part to its edges relabelled as
    :func:`_capacity` takes them, its vertices in label order and its
    halves: for a union of two parts of the greedy partition, the label
    mask and capacity of each, and () for any other part. ``merged`` marks
    the merged partition M and its image (:func:`_merged`). ``caps``
    maps each proper submask m of a part met by :meth:`bound` to the
    largest variant-set of the part inside m; the parts are disjoint, so
    one dict serves them all. It fills lazily, and partitions are shared
    through the graph's cache, so every search on the graph shares it;
    nothing else in a partition changes after it is built.
    """

    parts: list[tuple[int, int]]
    free: int
    variant: str
    shape: dict[int, tuple[int, tuple[int, ...], tuple]]
    caps: dict[int, int]
    merged: bool = False

    def bound(self, mask: int) -> int:
        """Upper bound on |X| for variant-sets X of the graph inside
        ``mask``: |mask & free| plus, for each part H, the largest
        variant-set of H inside mask & H."""
        b = (mask & self.free).bit_count()
        caps = self.caps
        for h, c in self.parts:
            m = mask & h
            if m != h:
                c = caps.get(m)
                if c is None:
                    edge_bits, ids, halves = self.shape[h]
                    c = caps[m] = _capacity(self.variant, len(ids),
                                            edge_bits, _relabel(ids, m),
                                            halves)
            b += c
        return b


@lru_cache(maxsize=64)
def _part_graph(n: int, edge_bits: int) -> Graph:
    """The connected graph on ``n`` vertices whose edge (u, w), u < w, is
    bit ``u * n + w`` of ``edge_bits``. Its tables (pair visibility,
    distances, automorphism group) are built on first use and kept on the
    graph, so a part's capacity searches inside different masks share
    them. The cache stays small, as every graph in it keeps its tables
    alive."""
    return build_graph(n, [divmod(i, n) for i in range(n * n)
                           if (edge_bits >> i) & 1])


@lru_cache(maxsize=4096)
def _capacity(variant: str, n: int, edge_bits: int, within: int,
              halves: tuple[tuple[int, int], ...] = ()) -> int:
    """The size of the largest variant-set inside the mask ``within`` of
    the graph :func:`_part_graph` gives for ``n`` and ``edge_bits``. This
    is the one capacity memo: parts with equal relabellings, in one graph
    or in several, share one solve, and a part's own capacity is the call
    with every label in ``within``. An automorphism tau of the graph maps
    its variant-sets inside tau^-1(within) onto those inside ``within``,
    so a proper mask is first replaced by the least tau^-1(within) over
    the maps of the graph's :func:`mvis.symmetry.automorphism_group`:
    masks that a symmetry of the part swaps share one solve too.

    The solve is a value search narrowed to ``within`` by :func:`_search`,
    which builds no partition. For a union of two parts, ``halves`` holds
    (label mask, capacity) of each: the search prunes on the bound that
    counts each half H by the smaller of |H inside the node's mask| and
    cap(H), which needs no capacity of its own."""
    g = _part_graph(n, edge_bits)
    if within != (1 << n) - 1:
        least = min(_relabel(tau, within) for tau in automorphism_group(g))
        if least < within:
            return _capacity(variant, n, edge_bits, least, halves)
    search = _search(g, variant, within=within)
    if halves:
        search.bound = (lambda m: sum(min((m & h).bit_count(), c)
                                      for h, c in halves),)
        search.merged_from = 1  # the halves are no merged partition
    search.run_value()
    return search.best


def _relabel(ids: tuple[int, ...], m: int) -> int:
    """The mask of the labels i whose vertex ``ids[i]`` is in the mask
    ``m``."""
    labels = 0
    for i, v in enumerate(ids):
        if m >> v & 1:
            labels |= 1 << i
    return labels


def _part_ids(part: int) -> tuple[int, ...]:
    """The vertices of the mask ``part`` in label order: by id."""
    return tuple(v for v in range(part.bit_length()) if part >> v & 1)


def _part_edges(g: Graph, part: int) -> int:
    """The edges of the subgraph induced by the mask ``part``, relabelled
    by :func:`_part_ids`, as :func:`_capacity` takes them: a vertex's label
    is the number of part vertices below it."""
    adj = g.adjacency_masks()
    k = part.bit_count()
    edge_bits = 0
    m = part
    while m:
        b = m & -m
        m ^= b
        up = adj[b.bit_length() - 1] & part & ~(2 * b - 1)
        row = 0
        while up:
            c = up & -up
            up ^= c
            row |= 1 << (part & (c - 1)).bit_count()
        edge_bits |= row << (part & (b - 1)).bit_count() * k
    return edge_bits


def _part_capacity(g: Graph, variant: str, part: int,
                   halves: tuple[tuple[int, int], ...] = ()) -> int:
    """The variant's number of the subgraph induced by the mask ``part``:
    its largest variant-set inside every vertex of the part. ``halves`` is
    passed on to :func:`_capacity`."""
    k = part.bit_count()
    return _capacity(variant, k, _part_edges(g, part), (1 << k) - 1, halves)


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


def convex_partitions(g: Graph, variant: str,
                      searched: int | None = None
                      ) -> tuple[ConvexPartition, ...]:
    """The partitions a search over the ``searched`` vertex mask prunes on:
    the greedy one P of :func:`_partition`, then its image sigma(P)
    (:func:`_image`), then the merged partition M of :func:`_merged` and
    its image sigma(M). An image is left out when the graph's automorphism
    group holds no map that moves vertex 0, when the partition has no
    parts or when that map sends its set of parts onto itself; M and
    sigma(M) are left out when no two parts of P merge. All are built once per
    (variant, searched mask) and cached on the graph together.
    """
    room = (1 << g.n) - 1 if searched is None else searched
    if (variant, room) not in g._partitions:
        partition = _partition(g, variant, room)
        merged = _merged(g, partition, room)
        g._partitions[variant, room] = (
            partition, *_image(g, partition),
            *(() if merged is None else (merged, *_image(g, merged))))
    return g._partitions[variant, room]


def _merged(g: Graph, partition: ConvexPartition,
            room: int) -> ConvexPartition | None:
    """The merged partition M of ``partition``, or None when no two of
    its parts merge. In part order, each part not yet merged takes the
    first later one not yet merged whose union with it is convex and a
    proper subset of ``room``; the union replaces the two, and every other
    part and ``free`` stay as they are. A union has at most twice
    :data:`PART_LIMIT` vertices, and its capacity comes from
    :func:`_part_capacity` with its two halves."""
    n = g.n
    interior = pair_visibility(g).interior
    variant = partition.variant
    parts: list[tuple[int, int]] = []
    shape = {}
    merged = 0
    for i, (h, c) in enumerate(partition.parts):
        if h & merged:
            continue
        ids = _part_ids(h)
        halves: tuple[tuple[int, int], ...] = ()
        for h2, c2 in partition.parts[i + 1:]:
            u = h | h2
            if h2 & merged or u == room or any(
                    interior[a * n + b if a < b else b * n + a] & ~u
                    for a in ids for b in _part_ids(h2)):
                continue
            merged |= u
            labels = _part_ids(u)
            halves = ((_relabel(labels, h), c), (_relabel(labels, h2), c2))
            h = u
            c = _part_capacity(g, variant, u, halves)
            break
        parts.append((h, c))
        shape[h] = (_part_edges(g, h), _part_ids(h), halves)
    if not merged:
        return None
    return ConvexPartition(parts, partition.free, variant, shape, {}, True)


def _image(g: Graph, partition: ConvexPartition
           ) -> tuple[ConvexPartition, ...]:
    """The image of ``partition`` under sigma, the first map of
    :func:`mvis.symmetry.automorphism_group` that moves vertex 0, as a
    one-tuple, or the empty tuple (see :func:`convex_partitions`). Its
    parts are sigma(H), each with H's capacity, as sigma maps the subgraph
    H onto the subgraph sigma(H), and its ``free`` is sigma(free). It maps
    masks only: no hull is grown and no capacity is solved here. Each
    vertex sigma(x) of a part takes the label of x in H, so sigma(H) has
    H's relabelled edges and H's halves, and a submask m of sigma(H) keys
    the capacity memo as the submask of H that sigma maps onto m."""
    if not partition.parts:
        return ()
    sigma = next((tau for tau in automorphism_group(g)[1:] if tau[0]), None)
    if sigma is None:
        return ()

    def image(mask: int) -> int:
        out = 0
        while mask:
            low = mask & -mask
            mask ^= low
            out |= 1 << sigma[low.bit_length() - 1]
        return out

    parts = [(image(h), c) for h, c in partition.parts]
    if {h for h, _ in parts} == {h for h, _ in partition.parts}:
        return ()
    shape = {image(h): (edge_bits, tuple(sigma[v] for v in ids), halves)
             for h, (edge_bits, ids, halves) in partition.shape.items()}
    return (ConvexPartition(parts, image(partition.free), partition.variant,
                            shape, {}, partition.merged),)


def _partition(g: Graph, variant: str, room: int) -> ConvexPartition:
    """Greedy partition of the ``room`` vertex mask into convex parts.

    Each round grows a hull from every edge inside the vertices not yet
    used: each step adds the neighbouring vertex with the smallest new hull
    (lowest id on ties), while the hull stays unused and has at most
    :data:`PART_LIMIT` vertices. Of all hulls met on the way, the round
    keeps the one with the lowest capacity per vertex (then the larger,
    then the lower mask). Rounds stop when no hull has capacity below its
    size. Parts are proper subsets: a part that was the whole graph would
    make its capacity search the whole solve, with no partition bound.

    Chains from different seeds merge, so a round scores and steps each
    hull once: a chain's walk stops at the first hull the round has seen,
    whose chain onward it has already scored. Keys hold the mask, so they
    are totally ordered and the round's choice does not depend on which
    seed met a hull first.

    :func:`convex_partitions` builds it once per (variant, room) and caches
    it on the graph; capacities come from :func:`_part_capacity`.
    """
    n = g.n
    free = (1 << n) - 1
    limit = min(PART_LIMIT, n - 1)
    interior = pair_visibility(g).interior
    adj = g.adjacency_masks()

    def score(h: int):
        size = h.bit_count()
        if size < 3:
            return None
        cap = _part_capacity(g, variant, h)
        return (cap / size, -size, h, cap) if cap < size else None

    def step(h: int) -> int:
        """The next hull grown from ``h``, or 0."""
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
                nxt = h2
                most = h2.bit_count() - 1
                if most == size:
                    break
        return nxt

    parts: list[tuple[int, int]] = []
    while True:
        seen: set[int] = set()
        best = None
        m = room
        while m:
            low = m & -m
            m ^= low
            nbrs = adj[low.bit_length() - 1] & room & ~(2 * low - 1)
            while nbrs:
                lw = nbrs & -nbrs
                nbrs ^= lw
                h = low | lw
                while h and h not in seen:
                    seen.add(h)
                    key = score(h)
                    if key is not None and (best is None or key < best):
                        best = key
                    h = step(h)
        if best is None:
            shape = {h: (_part_edges(g, h), _part_ids(h), ())
                     for h, _ in parts}
            return ConvexPartition(parts, free, variant, shape, {})
        part = best[2]
        parts.append((part, best[3]))
        room &= ~part
        free &= ~part


# --------------------------------------------------------------------------
# The search kernel
# --------------------------------------------------------------------------


def _orbit(maps: tuple[tuple[int, ...], ...], v: int) -> int:
    """The mask of the orbit of v under the group the image tuples
    ``maps`` generate: v, then every image of an orbit vertex under a map,
    until no new image appears."""
    orbit = 1 << v
    todo = [v]
    while todo:
        u = todo.pop()
        for x in {s[u] for s in maps}:
            if not orbit >> x & 1:
                orbit |= 1 << x
                todo.append(x)
    return orbit


class _Search:
    """Branch-and-bound over (inside, open) states; see the module
    docstring. Build one with :func:`_search`. :meth:`_dfs` is the one DFS,
    a loop over an explicit stack of pending branches, so no recursion
    limit caps the order of a graph: it looks for solutions X with
    |X| > floor, and either returns the first, of size floor + 1, or
    records each in ``best``. :meth:`run_value`, :meth:`_build_doll` and
    :meth:`lex_least_witness` only choose its start state, floor and stop
    rule. Subclasses supply :meth:`include` and :meth:`exclude`. The
    root state leaves every vertex open unless a subclass or
    :func:`_search` narrows it. ``bound`` holds the partition bounds of
    the vertex mask they are given, the greedy partition's first, and
    ``merged_from`` the index in it of the merged partition's: a cut by a
    bound from there on counts in ``merged_prunes``, and one by any other
    bound but the first in ``image_prunes``. ``doll``,
    once built, is the doll table, indexed by vertex id, and ``ceiling``,
    which :meth:`run_value` sets, bounds every solution. The search keeps
    the budget of ``opts`` itself: its clock starts before the pair table
    and the partitions are built, and :meth:`_dfs` counts and checks every
    node of every phase."""

    #: Whether every ``inside`` is itself a solution, not only the states
    #: with nothing open.
    hereditary = True

    #: Whether the searches branch orbitally. They may only when every
    #: automorphism of the graph maps the root's open vertices onto
    #: themselves, which a capacity search narrowed to a mask breaks.
    orbital = True

    def __init__(self, g: Graph, kind: str, opts: SolveOptions):
        self.t0 = time.monotonic()
        self.node_budget = opts.node_budget
        self.deadline = (self.t0 + opts.time_budget_ms / 1000.0
                         if opts.time_budget_ms else 0.0)
        self.g = g
        self.n = g.n
        self.kind = kind
        self.pv: PairVisibility = pair_visibility(g)
        self.bound: tuple[Callable[[int], int], ...] = ()
        self.merged_from = 0
        self.doll: list[int] | None = None
        self.stats = SearchStats()
        self.best = 0
        self.best_mask = 0
        self.full = (1 << g.n) - 1
        self.root = (0, self.full)
        self.ceiling = g.n

    def run_value(self) -> bool:
        """The value search: the doll table first for a hereditary kind,
        then floor ``best`` from the root. True when that DFS raised
        ``best``, so that ``best_mask`` is the lex-least maximum set (see
        the module docstring); False when the doll table already reached
        the value, or the value is 0. It first sets ``ceiling``, the
        smaller of |root open| and every partition bound of the root's
        open mask, which bounds every solution: the table stops at it, the
        DFS is skipped when the table reached it, and the DFS returns
        once its floor does."""
        root_open = self.root[1]
        self.ceiling = min((root_open.bit_count(),
                            *(bound(root_open) for bound in self.bound)))
        if self.hereditary:
            self._build_doll()
        before = self.best
        if before < self.ceiling:
            self._dfs(*self.root, before, False)
        return self.best > before

    def _build_doll(self) -> None:
        """Fill ``doll`` from the highest vertex id: ``doll[v]`` is the
        largest solution among the root's open vertices with id >= v.
        Level v asks for a solution one larger than ``doll[v + 1]`` that
        holds v; each one found raises ``best``. When the set the table
        holds, ``best_mask``, lies in the open set of the level's root,
        one node, :meth:`_HereditarySearch._addable`, first tests whether
        that set plus v is one; only when it is not does the level run
        its decision query. A level that takes more than
        :data:`DOLL_LEVEL_LIMIT` nodes per vertex is abandoned, and it and
        every level below it keep n, which prunes nothing; so do the
        levels below a hit that reaches ``ceiling``, where the table
        stops."""
        n = self.n
        root_open = self.root[1]
        doll = self.doll = [n] * n + [0]
        for v in range(n - 1, -1, -1):
            c = doll[v + 1]
            if (root_open >> v) & 1:
                start = self.include(0, root_open >> v << v, v)
                held = self.best_mask
                found = 0
                if not held & ~start[1]:
                    self._tick()
                    if self._addable(held, v):
                        found = held | 1 << v
                if not found:
                    found = self._dfs(*start, c, True,
                                      limit=DOLL_LEVEL_LIMIT * n)
                if found is None:
                    return
                if found:
                    c = self.best = c + 1
                    self.best_mask = found
            doll[v] = c
            if c == self.ceiling:
                return

    def _tick(self) -> None:
        """Count one node that :meth:`_dfs` does not, a doll shortcut test,
        and raise :class:`_BudgetExceeded` past the node budget or the
        deadline, as :meth:`_dfs` does."""
        self.stats.nodes_explored += 1
        if (self.node_budget and self.stats.nodes_explored > self.node_budget
                or self.deadline and time.monotonic() > self.deadline):
            raise _BudgetExceeded

    def _dfs(self, inside: int, open_: int, floor: int, first: bool,
             limit: int = 0) -> int | None:
        """With ``first``, the decision query for size floor + 1: the first
        solution found of that size, else 0; ``floor`` stays put, and a
        node with more than floor + 1 vertices inside is pruned. Without
        it, the value search: each solution found raises ``floor``, and the
        result is 0, returned as soon as the floor reaches ``ceiling``.
        Branches on the lowest open vertex, include first; prunes on
        |inside| + |open| <= floor, on the first partition bound at most
        the floor and, once it is built, on the doll table. In an orbital
        search the exclude branch of a node also drops the branch vertex's
        orbit under the maps the node carries, in either mode.
        Each node counts in ``stats.nodes_explored``, and the node past the
        node budget or the deadline raises :class:`_BudgetExceeded`. With
        ``limit``, the search gives up and returns None on its node after
        the first ``limit``.

        The stack holds entries (inside, open, maps, v). One with
        v < 0 is a node. One with v >= 0 is the exclude branch of the node
        (inside, open) that branched on v; it sits beneath that node's
        include child, so the exclude child is built only once the whole
        include subtree is done, and its orbit drop reads the floor that
        subtree left. That keeps the visiting order, every prune and every
        counter of a recursive search. ``maps`` are the non-identity maps
        the node carries (see the module docstring): () carries none, as
        in a narrowed search, and an int is a mask of fixed vertices,
        standing for the group's maps that fix each of them and send the
        start's open set onto itself, until an exclude child passes the
        count test, where :meth:`_stabiliser` builds them. The start
        carries its inside set as that int, and each include child adds
        its branch vertex. When the start's open set is the root's, which
        every automorphism keeps, it is not tested."""
        stats = self.stats
        node_budget = self.node_budget
        deadline = self.deadline
        clock = time.monotonic
        stop = stats.nodes_explored + limit
        cap = floor + 1 if first else self.n
        ceiling = self.ceiling
        doll = self.doll
        bounds = self.bound
        merged_from = self.merged_from
        include = self.include
        exclude = self.exclude
        hereditary = self.hereditary
        setwise = 0 if open_ == self.root[1] else open_
        stack = [(inside, open_, inside if self.orbital else (), -1)]
        while stack:
            inside, open_, maps, v = stack.pop()
            if v >= 0:
                child = exclude(inside, open_, v)
                if maps != () and child is not None and (
                        child[0].bit_count() + child[1].bit_count() > floor):
                    if type(maps) is int:
                        maps = self._stabiliser(maps, setwise)
                    orbit = _orbit(maps, v) & ~(1 << v)
                    dropped = orbit.bit_count()
                    stats.prunes += dropped
                    stats.orbit_prunes += dropped
                    while orbit and child is not None:
                        low = orbit & -orbit
                        orbit ^= low
                        child = exclude(*child, low.bit_length() - 1)
                if child is None:
                    stats.prunes += 1
                    continue
                inside, open_ = child
            stats.nodes_explored += 1
            if (node_budget and stats.nodes_explored > node_budget
                    or deadline and clock() > deadline):
                raise _BudgetExceeded
            if limit and stats.nodes_explored > stop:
                return None
            count = inside.bit_count()
            if count + open_.bit_count() <= floor or count > cap:
                stats.prunes += 1
                continue
            if count > floor and (hereditary or not open_):
                if first:
                    return inside
                floor = self.best = count
                self.best_mask = inside
                if floor >= ceiling:
                    return 0
                if not open_:
                    continue
            if bounds:
                mask = inside | open_
                cut = next((i for i, bound in enumerate(bounds)
                            if bound(mask) <= floor), None)
                if cut is not None:
                    stats.prunes += 1
                    stats.bound_prunes += 1
                    if cut >= merged_from:
                        stats.merged_prunes += 1
                    elif cut:
                        stats.image_prunes += 1
                    continue
            v = (open_ & -open_).bit_length() - 1
            if doll and count + doll[v] <= floor:
                stats.prunes += 1
                stats.doll_prunes += 1
                continue
            stack.append((inside, open_, maps, v))
            child = include(inside, open_, v)
            if child is None:
                stats.prunes += 1
            else:
                if type(maps) is int:
                    maps |= 1 << v
                elif maps:
                    maps = tuple(s for s in maps if s[v] == v)
                stack.append((*child, maps, -1))
        return 0

    def _stabiliser(self, fixed: int,
                    setwise: int) -> tuple[tuple[int, ...], ...]:
        """The maps of the graph's automorphism group, but the identity,
        that fix each vertex of the mask ``fixed`` and send the mask
        ``setwise`` onto itself: those a node carries whose branches from
        its search's start were includes of the vertices of ``fixed`` that
        the start's inside set misses, when ``setwise`` is the start's open
        set (see :meth:`_dfs`). It filters the group one vertex at a time,
        in id order, and stops once no map is left; a vertex in both masks
        is fixed, which keeps it in ``setwise``, and a bijection that sends
        ``setwise`` into itself sends it onto itself. The first call builds
        the group."""
        maps = automorphism_group(self.g)[1:]
        rest = fixed | setwise
        while rest and maps:
            low = rest & -rest
            rest ^= low
            v = low.bit_length() - 1
            if fixed & low:
                maps = [s for s in maps if s[v] == v]
            else:
                maps = [s for s in maps if setwise >> s[v] & 1]
        return tuple(maps)

    def lex_least_witness(self, target: int) -> int:
        """The lexicographically least solution of size ``target``: the
        first hit of the decision query from the root (see the module
        docstring). A solve asks it only when the doll table, not
        :meth:`run_value`'s DFS, found the value."""
        if target == 0:
            return 0
        found = self._dfs(*self.root, target - 1, True)
        if found.bit_count() != target:
            raise AssertionError("lex witness reconstruction failed")
        return found


# --------------------------------------------------------------------------
# Hereditary kinds: mutual, outer, total, independence
# --------------------------------------------------------------------------


#: For each visibility variant, how many ends of a pair must lie in X for
#: the pair to be required to stay X-visible.
_NEED = {"total": 0, "outer": 1, "mutual": 2}


class _HereditarySearch(_Search):
    """``open`` holds only vertices individually addable to ``inside``, and
    :meth:`include` keeps exactly the open vertices still addable after v
    joins, by one pass over the pairs that have v as an end or an interior
    vertex (see the module docstring). The root keeps open the vertices
    that are a solution on their own: every vertex, or for total the bypass
    candidates."""

    def __init__(self, g: Graph, kind: str, opts: SolveOptions):
        super().__init__(g, kind, opts)
        self.adj = g.adjacency_masks()
        self.need = _NEED.get(kind)  # None for independence
        if kind == "total":
            self.root = (0, sum(1 << v for v in range(self.n)
                                if is_bypass_candidate(g, v)))

    def include(self, inside: int, open_: int,
                v: int) -> tuple[int, int] | None:
        """Add v and keep the open vertices w for which inside + v + w is
        still a solution; None when v is not open."""
        vb = 1 << v
        if not open_ & vb:
            return None
        xm = inside
        inside |= vb
        open_ ^= vb
        need = self.need
        apart = ~self.adj[v]
        if need is None:
            return inside, open_ & apart
        pv = self.pv
        visible = pv.visible_pid
        hint = pv.hint
        pair_mask = pv.pair_mask
        pids = pv.pair_ids[v]
        kill = 0
        if need == 2:
            # Mutual: the pair (v, w) becomes required when w joins, and as
            # its ends are exempt, only X can block it.
            rest = open_ & apart
            while rest:
                low = rest & -rest
                rest ^= low
                pid = pids[low.bit_length() - 1]
                if hint[pid] & xm and not visible(pid, xm):
                    kill |= low
        # The pairs that inside requires whatever w is: their open interior
        # vertices on the hint are tested one by one below.
        required = []
        for pid in pv.pairs_through[v]:
            ends = pair_mask[pid]
            chosen = ends & xm
            if chosen == ends or not need or need == 1 and chosen:
                required.append(pid)
            elif chosen or need == 1:
                # Required once an open end w joins, with the blockers it
                # has under inside.
                grow = (ends ^ chosen) & open_ & ~kill
                if grow and hint[pid] & inside and not visible(pid, inside):
                    kill |= grow
        # The pairs (v, b) with an interior that inside requires.
        rest = (xm if need == 2 else self.full ^ vb) & apart
        while rest:
            low = rest & -rest
            rest ^= low
            required.append(pids[low.bit_length() - 1])
        for pid in required:
            # Refresh the hint to a geodesic free of inside, which exists as
            # inside is a solution. A vertex whose joining blocks the pair
            # lies on every such geodesic, so only the hint is tested.
            if hint[pid] & inside:
                visible(pid, inside)
            on = hint[pid] & open_ & ~kill
            while on:
                low = on & -on
                on ^= low
                if not visible(pid, inside | low):
                    kill |= low
        return inside, open_ & ~kill

    def exclude(self, inside: int, open_: int,
                v: int) -> tuple[int, int] | None:
        return inside, open_ & ~(1 << v)

    def _addable(self, inside: int, v: int) -> bool:
        """Whether inside + v is a solution, for a solution ``inside`` and
        a vertex v outside it. For independence: v has no neighbour in
        inside. Otherwise every pair with v as an end that inside + v
        requires is visible under inside, as v is exempt as an end: for
        mutual the pairs (v, s) with s in inside, for outer and total
        every pair (v, w). So v's row under inside holds those partners.
        Then every pair through v with at least ``need`` ends in inside is
        visible under inside + v. A pair that has v neither as an end nor
        as an interior vertex has under inside + v the blockers and the
        required status it has under inside, so it passes."""
        need = self.need
        if need is None:
            return not self.adj[v] & inside
        pv = self.pv
        partners = inside if need == 2 else self.full
        if pv.row(v, inside) & partners != partners:
            return False
        blockers = inside | 1 << v
        hint = pv.hint
        pair_mask = pv.pair_mask
        for pid in pv.pairs_through[v]:
            if (hint[pid] & blockers
                    and (pair_mask[pid] & inside).bit_count() >= need
                    and not pv.visible_pid(pid, blockers)):
                return False
        return True


# --------------------------------------------------------------------------
# Dual variant
# --------------------------------------------------------------------------


class _DualSearch(_Search):
    """Include/exclude with monotone blocked-pair forcing; a state is a
    solution only once nothing is open."""

    hereditary = False

    def include(self, inside: int, open_: int,
                v: int) -> tuple[int, int] | None:
        return self._apply(inside, open_, v, True)

    def exclude(self, inside: int, open_: int,
                v: int) -> tuple[int, int] | None:
        return self._apply(inside, open_, v, False)

    def _apply(self, im: int, open_: int, v: int,
               into: bool) -> tuple[int, int] | None:
        """Decide v (and everything it forces); None when a pair dies."""
        pv = self.pv
        full = self.full
        visible = pv.visible_pid
        hint = pv.hint
        row = pv.row
        through = pv.pairs_through
        pair_mask = pv.pair_mask
        em = full & ~im & ~open_
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
                other = em
            else:
                if im & ub:
                    return None
                if em & ub:
                    continue
                em |= ub
                other = im
            # Partners on u's side and undecided ones that u cannot see.
            # bad misses the other side, so a decided one is on u's side.
            bad = full & ~other & ~row(u, im)
            if bad & (im | em):
                return None  # two vertices on one side blocked
            while bad:
                low = bad & -bad
                stack.append((low.bit_length() - 1, not side))
                bad ^= low
            if not side:
                continue
            dec = im | em
            for pid in through[u]:
                if not hint[pid] & im:
                    continue  # visible along its cached geodesic
                pm = pair_mask[pid]
                known = dec & pm
                if not known:
                    continue  # both undecided; caught later
                if known != pm:
                    # One end decided: a blocked pair forces the other end
                    # to the other side.
                    if not visible(pid, im):
                        stack.append(
                            ((pm ^ known).bit_length() - 1, bool(em & pm))
                        )
                elif ((im & pm == pm or em & pm == pm)
                      and not visible(pid, im)):
                    return None
        return im, full & ~im & ~em


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
    return _solve(g, variant, opts or SolveOptions())


def solve_independence(g: Graph, opts: SolveOptions | None = None) -> SolveResult:
    """Exact independence number with a lexicographically least witness."""
    return _solve(g, "independence", opts or SolveOptions())


def _search(g: Graph, kind: str, opts: SolveOptions | None = None,
            within: int | None = None) -> _Search:
    """The search of ``kind`` on ``g`` under the budget of ``opts``; the
    one place that picks the search class.

    With no ``within`` it is the search of a solve, with the partition
    bounds over the root's open vertices: the one place partitions are
    attached. With ``within`` it is a capacity search with no partition
    bound (:func:`_capacity` gives a union's search its halves), whose
    root keeps open only the vertices of ``within``; for the dual variant
    that puts every other vertex out, which forces nothing, as nothing is
    inside. A narrowed search does not branch orbitally (see the module
    docstring)."""
    search = (_DualSearch if kind == "dual" else _HereditarySearch)(
        g, kind, opts or SolveOptions())
    if within is None:
        # Without a part below its size a bound equals the plain count.
        partitions = [p for p in convex_partitions(g, kind, search.root[1])
                      if p.parts]
        search.bound = tuple(p.bound for p in partitions)
        search.merged_from = sum(not p.merged for p in partitions)
    elif within != search.full:
        search.root = (0, search.root[1] & within)
        search.orbital = False
    return search


def _solve(g: Graph, kind: str, opts: SolveOptions) -> SolveResult:
    search = _search(g, kind, opts)
    stats = search.stats

    value_certified = False
    witness_mask = None
    try:
        found = search.run_value()
        value_certified = True
        value_nodes = stats.nodes_explored
        witness_mask = (search.best_mask if found
                        else search.lex_least_witness(search.best))
    except _BudgetExceeded:
        pass
    if value_certified:
        stats.witness_nodes = stats.nodes_explored - value_nodes
    stats.elapsed_ms = (time.monotonic() - search.t0) * 1000.0
    if witness_mask is None:
        raise Incomplete(
            kind,
            search.best,
            VertexSet.from_mask(g.n, search.best_mask),
            stats,
            value_certified,
        )
    return SolveResult(
        variant=kind,
        value=search.best,
        witness=VertexSet.from_mask(g.n, witness_mask),
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

    Returns "proven_zero" when the graph has an edge and every edge is the
    center of a convex P4, or when girth >= 7 and minimum degree >= 2.
    Returns "inconclusive" otherwise; this is NOT a claim that the dual
    number is nonzero (e.g. C5 x C5 fails both conditions yet has dual
    number 0, and one vertex has dual number 1).
    """
    stats = graph_stats(g)
    if stats.girth >= 7 and stats.min_degree >= 2:
        return "proven_zero"
    edges = g.edges()
    if edges and all(_edge_center_of_convex_p4(g, u, v) for u, v in edges):
        return "proven_zero"
    return "inconclusive"


def _edge_center_of_convex_p4(g: Graph, u: int, v: int) -> bool:
    d = all_pairs_distances(g)
    for w in g.adj[u]:
        if w == v:
            continue
        for w2 in g.adj[v]:
            if w2 != u and d[w][w2] == 3 and is_convex(g, [w, u, v, w2]):
                return True
    return False


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
