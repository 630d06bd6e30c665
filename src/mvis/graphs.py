"""Core graph machinery: immutable adjacency-list graphs, bitset vertex sets,
BFS distances, geodesic intervals, convexity, and Cartesian products.

Vertices are dense integers ``0..n-1``. Graphs are simple, undirected and
connected; disconnected input is rejected at construction time because every
visibility notion downstream assumes connectivity.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence


class GraphError(Exception):
    """Base class for graph construction and query errors."""


class InvalidVertexId(GraphError):
    """An edge endpoint is out of range, or an edge is a self-loop."""


class DisconnectedGraph(GraphError):
    """The edge list does not describe a connected graph."""


class EmptySet(GraphError):
    """An operation that needs a non-empty vertex set got an empty one."""


#: Sentinel distance for vertices a constrained BFS cannot reach.
UNREACHABLE = -1


class VertexSet:
    """Immutable fixed-capacity set of vertex ids backed by an int bitmask.

    ``capacity`` is the order of the host graph; members must lie in
    ``[0, capacity)``. The mask is exposed (``.mask``) so search code can
    work on raw ints and convert at the boundary.
    """

    __slots__ = ("capacity", "mask")

    def __init__(self, capacity: int, members: Iterable[int] = ()):
        mask = 0
        for v in members:
            if not 0 <= v < capacity:
                raise InvalidVertexId(f"vertex {v} outside [0, {capacity})")
            mask |= 1 << v
        self.capacity = capacity
        self.mask = mask

    @classmethod
    def from_mask(cls, capacity: int, mask: int) -> "VertexSet":
        s = cls.__new__(cls)
        s.capacity = capacity
        s.mask = mask
        return s

    @property
    def card(self) -> int:
        return self.mask.bit_count()

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __contains__(self, v: int) -> bool:
        return 0 <= v < self.capacity and (self.mask >> v) & 1 == 1

    def __iter__(self) -> Iterator[int]:
        m = self.mask
        while m:
            low = m & -m
            yield low.bit_length() - 1
            m ^= low

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, VertexSet)
            and self.capacity == other.capacity
            and self.mask == other.mask
        )

    def __hash__(self) -> int:
        return hash((self.capacity, self.mask))

    def __repr__(self) -> str:
        return f"VertexSet({self.capacity}, {sorted(self)})"

    def ids(self) -> list[int]:
        """Members in ascending order."""
        return list(self)

    def with_vertex(self, v: int) -> "VertexSet":
        if not 0 <= v < self.capacity:
            raise InvalidVertexId(f"vertex {v} outside [0, {self.capacity})")
        return VertexSet.from_mask(self.capacity, self.mask | (1 << v))


def as_vertex_set(g: "Graph", x) -> VertexSet:
    """Coerce ``x`` (VertexSet, iterable of ids, or raw mask int) for ``g``."""
    if isinstance(x, VertexSet):
        if x.capacity != g.n:
            raise InvalidVertexId(
                f"set capacity {x.capacity} does not match graph order {g.n}"
            )
        return x
    if isinstance(x, int):
        if x >> g.n:
            raise InvalidVertexId("mask has bits beyond the vertex universe")
        return VertexSet.from_mask(g.n, x)
    return VertexSet(g.n, x)


class Graph:
    """Immutable simple connected undirected graph with sorted neighbor lists.

    Construct through :func:`build_graph`, :func:`cartesian_product`, or a
    family generator; the constructor trusts its input.
    """

    __slots__ = (
        "n",
        "adj",
        "labels",
        "name",
        "_dist",
        "_pairvis",
        "_partitions",
        "_group",
        "_adj_masks",
        "_label_ids",
    )

    def __init__(
        self,
        n: int,
        adj: tuple[tuple[int, ...], ...],
        labels: tuple[str, ...] | None = None,
        name: str | None = None,
    ):
        self.n = n
        self.adj = adj
        self.labels = labels
        self.name = name
        self._dist: list[list[int]] | None = None
        self._pairvis = None  # mvis.visibility.pair_visibility's table
        self._partitions = {}  # mvis.solve.convex_partitions' cache
        # mvis.symmetry.automorphism_group's maps, None until built
        self._group: tuple[tuple[int, ...], ...] | None = None
        self._adj_masks: list[int] | None = None
        self._label_ids: dict[str, int] | None = None

    @property
    def m(self) -> int:
        return sum(len(a) for a in self.adj) // 2

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adj[u]

    def edges(self) -> list[tuple[int, int]]:
        """All edges as sorted (u, v) pairs with u < v, in lexicographic order."""
        return [(u, v) for u in range(self.n) for v in self.adj[u] if u < v]

    def adjacency_masks(self) -> list[int]:
        """Per-vertex neighbor bitmasks (cached)."""
        if self._adj_masks is None:
            self._adj_masks = [
                sum(1 << w for w in nbrs) for nbrs in self.adj
            ]
        return self._adj_masks

    def vertex_by_label(self, label: str) -> int:
        if self.labels is None:
            raise GraphError("graph carries no vertex labels")
        if self._label_ids is None:
            self._label_ids = {lab: i for i, lab in enumerate(self.labels)}
        try:
            return self._label_ids[label]
        except KeyError:
            raise InvalidVertexId(f"no vertex labeled {label!r}") from None

    def __repr__(self) -> str:
        tag = f" {self.name}" if self.name else ""
        return f"<Graph{tag} n={self.n} m={self.m}>"


def build_graph(
    n: int,
    edges: Iterable[tuple[int, int]],
    labels: Sequence[str] | None = None,
    name: str | None = None,
) -> Graph:
    """Build a canonical Graph from an edge list.

    Duplicate edges collapse; self-loops and out-of-range endpoints raise
    :class:`InvalidVertexId`; disconnected input raises
    :class:`DisconnectedGraph`; a negative order raises :class:`GraphError`.
    """
    if n < 0:
        raise GraphError(f"graph order {n} is negative")
    nbrs: list[set[int]] = [set() for _ in range(n)]
    for u, v in edges:
        if not (0 <= u < n) or not (0 <= v < n):
            raise InvalidVertexId(f"edge ({u}, {v}) outside [0, {n})")
        if u == v:
            raise InvalidVertexId(f"self-loop at vertex {u}")
        nbrs[u].add(v)
        nbrs[v].add(u)
    adj = tuple(tuple(sorted(s)) for s in nbrs)
    g = Graph(n, adj, tuple(labels) if labels is not None else None, name)
    if n > 0 and UNREACHABLE in bfs_distances(g, 0):
        raise DisconnectedGraph(f"graph on {n} vertices is not connected")
    return g


def bfs_distances(g: Graph, source: int) -> list[int]:
    """Hop distances from ``source``; :data:`UNREACHABLE` for vertices in
    another component, which only :func:`build_graph` ever sees."""
    dist = [UNREACHABLE] * g.n
    dist[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        du = dist[u]
        for w in g.adj[u]:
            if dist[w] == UNREACHABLE:
                dist[w] = du + 1
                queue.append(w)
    return dist


def all_pairs_distances(g: Graph) -> list[list[int]]:
    """Exact n x n hop-distance matrix, cached on the graph after first use."""
    if g._dist is None:
        g._dist = [bfs_distances(g, s) for s in range(g.n)]
    return g._dist


def interval(g: Graph, u: int, v: int) -> VertexSet:
    """Union of all u,v-geodesics: ``{z : d(u,z) + d(z,v) = d(u,v)}``."""
    if not (0 <= u < g.n) or not (0 <= v < g.n):
        raise InvalidVertexId(f"vertex pair ({u}, {v}) outside [0, {g.n})")
    d = all_pairs_distances(g)
    duv = d[u][v]
    du, dv = d[u], d[v]
    mask = 0
    for z in range(g.n):
        if du[z] + dv[z] == duv:
            mask |= 1 << z
    return VertexSet.from_mask(g.n, mask)


def is_convex(g: Graph, s) -> bool:
    """True iff every geodesic between two members of ``s`` stays in ``s``.

    Convexity forces connectivity of the induced subgraph, so no separate
    connectivity check is needed.
    """
    vs = as_vertex_set(g, s)
    if vs.mask == 0:
        raise EmptySet("convexity is undefined for the empty set")
    members = vs.ids()
    smask = vs.mask
    for i, u in enumerate(members):
        for v in members[i + 1:]:
            if interval(g, u, v).mask & ~smask:
                return False
    return True


@dataclass(frozen=True)
class GraphStats:
    min_degree: int
    diameter: int
    girth: float  # math.inf for forests
    leaf_count: int


def graph_stats(g: Graph) -> GraphStats:
    """Minimum degree, diameter, girth (inf for forests), and leaf count."""
    degrees = [len(a) for a in g.adj]
    d = all_pairs_distances(g)
    diameter = max(max(row) for row in d) if g.n else 0
    return GraphStats(
        min_degree=min(degrees) if degrees else 0,
        diameter=diameter,
        girth=_girth(g),
        leaf_count=sum(1 for deg in degrees if deg == 1),
    )


def _girth(g: Graph) -> float:
    """Shortest cycle length via one BFS per source; inf when acyclic."""
    if g.m < g.n:  # connected with m = n-1 edges is a tree
        return math.inf
    best = math.inf
    for source in range(g.n):
        dist = [UNREACHABLE] * g.n
        parent = [UNREACHABLE] * g.n
        dist[source] = 0
        queue = deque([source])
        while queue:
            u = queue.popleft()
            if 2 * dist[u] >= best - 1:
                continue
            for w in g.adj[u]:
                if dist[w] == UNREACHABLE:
                    dist[w] = dist[u] + 1
                    parent[w] = u
                    queue.append(w)
                elif parent[u] != w and parent[w] != u:
                    best = min(best, dist[u] + dist[w] + 1)
        if best == 3:
            return 3
    return best


def _strip_parens(label: str) -> str:
    if label.startswith("(") and label.endswith(")"):
        return label[1:-1]
    return label


def cartesian_product(g: Graph, h: Graph) -> Graph:
    """Cartesian product; vertex (a, b) gets id ``a * h.n + b``.

    When both factors carry labels the product is labeled with flattened
    coordinate tuples, e.g. paths labeled "1".."n" yield "(i,j)".
    """
    nh = h.n
    n = g.n * nh
    adj: list[list[int]] = [[] for _ in range(n)]
    for a in range(g.n):
        base = a * nh
        for b in range(nh):
            row = adj[base + b]
            for c in g.adj[a]:
                row.append(c * nh + b)
            for d_ in h.adj[b]:
                row.append(base + d_)
    labels = None
    if g.labels is not None and h.labels is not None:
        labels = tuple(
            f"({_strip_parens(g.labels[a])},{_strip_parens(h.labels[b])})"
            for a in range(g.n)
            for b in range(nh)
        )
    return Graph(n, tuple(tuple(sorted(r)) for r in adj), labels)


def induced_subgraph(g: Graph, s) -> tuple[Graph, list[int]]:
    """Induced subgraph on ``s`` with dense relabeling.

    Returns the subgraph and the list mapping new ids to original ids
    (ascending). Raises :class:`DisconnectedGraph` if the part is not
    connected, since downstream solvers require connectivity.
    """
    vs = as_vertex_set(g, s)
    if vs.mask == 0:
        raise EmptySet("cannot induce on the empty set")
    old_ids = vs.ids()
    new_id = {old: new for new, old in enumerate(old_ids)}
    edges = [
        (new_id[u], new_id[w])
        for u in old_ids
        for w in g.adj[u]
        if u < w and w in new_id
    ]
    labels = None
    if g.labels is not None:
        labels = [g.labels[old] for old in old_ids]
    sub = build_graph(len(old_ids), edges, labels=labels)
    return sub, old_ids


# --- edge-list file format -------------------------------------------------
#
# First non-comment line "n m", then m lines "u v" with 0-based ids.
# '#' starts a comment; "# label <id> <text>" and "# name <text>" comments
# carry optional metadata and round-trip through read/write.


def write_edge_list(g: Graph, path: str) -> None:
    lines = []
    if g.name:
        lines.append(f"# name {g.name}")
    lines.append(f"{g.n} {g.m}")
    if g.labels is not None:
        for v, lab in enumerate(g.labels):
            lines.append(f"# label {v} {lab}")
    for u, v in g.edges():
        lines.append(f"{u} {v}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def read_edge_list(path: str) -> Graph:
    name: str | None = None
    labels: dict[int, str] = {}
    header: tuple[int, int] | None = None
    edges: list[tuple[int, int]] = []
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                body = line[1:].strip()
                if body.startswith("label "):
                    _, vid, lab = body.split(" ", 2)
                    labels[int(vid)] = lab
                elif body.startswith("name "):
                    name = body[5:].strip()
                continue
            try:
                pair = tuple(map(int, line.split()))
            except ValueError:
                pair = ()
            if len(pair) != 2:
                raise GraphError(f"{path}: not two integers: {line!r}")
            if header is None:
                header = pair
            else:
                edges.append(pair)
    if header is None:
        raise GraphError(f"{path}: no header line")
    n, m = header
    if len(edges) != m:
        raise GraphError(f"{path}: header promises {m} edges, found {len(edges)}")
    # Refused before build_graph, which allocates n neighbour sets.
    if n >= 2 and m < n - 1:
        raise DisconnectedGraph(
            f"{path}: {m} edges cannot connect {n} vertices")
    label_tuple = None
    if labels:
        if set(labels) != set(range(n)):
            raise GraphError(f"{path}: label comments do not cover 0..{n - 1}")
        label_tuple = [labels[i] for i in range(n)]
    return build_graph(n, edges, labels=label_tuple, name=name)
