"""Graph family generators and constructive witness sets.

Product graphs carry 1-based coordinate labels "(i,j)" so witness sets
quoted in coordinates can be entered verbatim; internally vertex (i,j) of an
n x m product gets id (i-1)*m + (j-1).
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass, field
from functools import reduce
from itertools import combinations

from .graphs import (
    Graph,
    GraphError,
    VertexSet,
    build_graph,
    cartesian_product,
    read_edge_list,
)


class BadParams(GraphError):
    """Family parameters outside the valid range."""


class OutOfRange(GraphError):
    """No witness construction exists for these parameters."""


class NoWitnessKnown(GraphError):
    """The requested variant has no known witness for this family."""


class NotIndependent(GraphError):
    """The supplied base set is not independent."""


@dataclass(frozen=True)
class FamilySpec:
    """A parsed family descriptor.

    ``params`` holds the integer parameters in declaration order; random
    trees carry a ``seed`` and the reduction carries the path of its base
    graph file. Construction raises :class:`BadParams` for parameters
    outside the family's range, so parsing, :func:`generate` and the
    oracle all reject the same specs.
    """

    kind: str
    params: tuple[int, ...] = ()
    seed: int = 0
    base_path: str | None = None

    def __post_init__(self):
        rule = _KINDS.get(self.kind)
        if rule is None:
            raise BadParams(f"unknown family kind {self.kind!r}")
        arity, valid, need, _ = rule
        p = self.params
        if not p or (arity and len(p) != arity):
            raise BadParams(f"{self.kind} takes {arity or 'one or more'} "
                            f"parameters, got {p}")
        if not valid(*p):
            raise BadParams(f"{self.kind} needs {need}, got {p}")
        if self.kind == "gprime" and self.base_path is None:
            raise BadParams("reduction spec carries no base graph path")

    def canonical(self) -> str:
        if self.kind == "random_tree":
            return f"random_tree:{self.params[0]}:seed={self.seed}"
        if self.kind == "gprime":
            return f"gprime:{self.base_path}:t={self.params[0]}"
        if self.kind in ("grid", "torus", "pathprod"):
            return f"{self.kind}:" + "x".join(str(p) for p in self.params)
        return f"{self.kind}:{self.params[0]}"


#: The other names a family kind goes by.
_KIND_ALIASES = {
    "clique": "complete",
    "tree": "random_tree",
    "path_product": "pathprod",
    "gadget_gn": "gn",
    "gadget_ht": "ht",
}


def parse_family_spec(text: str) -> FamilySpec:
    """Parse canonical strings like "grid:9x6", "gn:3", "gprime:p5.el:t=3"."""
    parts = text.strip().split(":")
    name = parts[0].lower()
    kind = _KIND_ALIASES.get(name, name)
    if kind not in _KINDS:
        raise BadParams(f"unknown family kind {name!r}")
    if len(parts) < 2:
        raise BadParams(f"cannot parse family spec {text!r}")
    try:
        if kind == "gprime":
            if len(parts) < 3 or not parts[-1].startswith("t="):
                raise BadParams(f"reduction spec needs a trailing t=, got {text!r}")
            t = int(parts[-1][2:])
            base = ":".join(parts[1:-1])
            return FamilySpec("gprime", (t,), base_path=base)
        if len(parts) > (3 if kind == "random_tree" else 2):
            raise BadParams(f"extra fields in family spec {text!r}")
        if kind == "random_tree":
            n = int(parts[1])
            seed = 0
            if len(parts) == 3:
                if not parts[2].startswith("seed="):
                    raise BadParams(f"bad tree seed in {text!r}")
                seed = int(parts[2][5:])
            return FamilySpec("random_tree", (n,), seed=seed)
        if kind in ("grid", "torus", "pathprod"):
            return FamilySpec(kind, tuple(int(p) for p in parts[1].split("x")))
        return FamilySpec(kind, (int(parts[1]),))
    except ValueError as exc:
        raise BadParams(f"cannot parse family spec {text!r}: {exc}") from None


def _numbered(n: int, edges) -> Graph:
    """The graph on ``edges`` with vertex ``i`` labeled ``str(i + 1)``."""
    return build_graph(n, edges, labels=[str(i + 1) for i in range(n)])


def _product(factor, dims) -> Graph:
    """The Cartesian product of ``factor(d)`` over ``dims``, in order."""
    return reduce(cartesian_product, map(factor, dims))


def _path(n: int) -> Graph:
    return _numbered(n, [(i, i + 1) for i in range(n - 1)])


def _cycle(n: int) -> Graph:
    return _numbered(n, [(i, (i + 1) % n) for i in range(n)])


def pruefer_sequence(n: int, seed: int) -> list[int]:
    """The seeded Pruefer sequence of ``random_tree:n:seed=seed``. Its
    tree's leaves are the n - len(set(seq)) vertices missing from it."""
    rng = random.Random(seed)
    return [rng.randrange(n) for _ in range(n - 2)]


def _random_tree(n: int, seed: int) -> Graph:
    """Uniform labeled tree from a seeded Pruefer sequence."""
    seq = pruefer_sequence(n, seed)
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    leaves = [i for i in range(n) if degree[i] == 1]
    heapq.heapify(leaves)
    edges = []
    for x in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, x))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    edges.append((heapq.heappop(leaves), heapq.heappop(leaves)))
    return _numbered(n, edges)


def _gadget_gn(n: int) -> Graph:
    """n five-cycles u - x_i - z_i - y_i - v sharing the single edge uv;
    order 3n + 2, with the ids of :func:`gn_vertex`."""
    edges = [(0, 1)]
    labels = ["u", "v"] + [""] * (3 * n)
    for i in range(1, n + 1):
        x, z, y = (gn_vertex(role, i) for role in "xzy")
        edges += [(0, x), (x, z), (z, y), (y, 1)]
        labels[x], labels[z], labels[y] = f"x{i}", f"z{i}", f"y{i}"
    return build_graph(3 * n + 2, edges, labels=labels)


def gn_vertex(role: str, i: int) -> int:
    """Id of u, v, x_i, z_i, or y_i (i 1-based) in the five-cycle gadget."""
    return {"u": 0, "v": 1, "x": 3 * i - 1, "z": 3 * i, "y": 3 * i + 1}[role]


def _gadget_ht(t: int) -> Graph:
    """t disjoint 4x3 grids plus an apex adjacent to each grid's (2,3).

    Copy c (0-based) occupies ids 12c .. 12c + 11 with the usual grid
    indexing; the apex has id 12t. Order 12t + 1.
    """
    grid = _product(_path, (4, 3))
    edges = [(12 * c + u, 12 * c + v)
             for c in range(t) for u, v in grid.edges()]
    edges += [(12 * t, ht_copy_vertex(c, 2, 3)) for c in range(t)]
    labels = [f"g{c + 1}:{lab}" for c in range(t) for lab in grid.labels]
    return build_graph(12 * t + 1, edges, labels=labels + ["x"])


def ht_copy_vertex(c: int, i: int, j: int) -> int:
    """Id of vertex (i, j) of copy ``c`` (0-based) in the grid-chain gadget."""
    return 12 * c + (i - 1) * 3 + (j - 1)


#: Per family kind: the number of parameters (0 for one or more), the test
#: they must pass, that test in words, and the builder of a checked spec,
#: called with the spec and its parameters.
_KINDS = {
    "path": (1, lambda n: n >= 2, "n >= 2", lambda s, n: _path(n)),
    "cycle": (1, lambda n: n >= 3, "n >= 3", lambda s, n: _cycle(n)),
    "complete": (1, lambda n: n >= 1, "n >= 1",
                 lambda s, n: _numbered(n, combinations(range(n), 2))),
    "star": (1, lambda k: k >= 1, "k >= 1 leaves",
             lambda s, k: _numbered(k + 1, [(0, i) for i in range(1, k + 1)])),
    "random_tree": (1, lambda n: n >= 2, "n >= 2",
                    lambda s, n: _random_tree(n, s.seed)),
    "grid": (2, lambda n, m: n >= 1 and m >= 1 and n * m >= 2,
             "at least two vertices", lambda s, *dims: _product(_path, dims)),
    "torus": (2, lambda n, m: n >= 3 and m >= 3, "n, m >= 3",
              lambda s, *dims: _product(_cycle, dims)),
    "pathprod": (0, lambda *dims: all(d >= 2 for d in dims), "factors >= 2",
                 lambda s, *dims: _product(_path, dims)),
    "gn": (1, lambda n: n >= 2, "n >= 2", lambda s, n: _gadget_gn(n)),
    "ht": (1, lambda t: t >= 2, "t >= 2", lambda s, t: _gadget_ht(t)),
    "gprime": (1, lambda t: t >= 3, "t >= 3",
               lambda s, t: reduction_gprime(read_edge_list(s.base_path),
                                             t).gprime),
}


def generate(spec: FamilySpec | str) -> Graph:
    """Build the graph described by a FamilySpec or its string form, named
    by its canonical spec; G' keeps the name its reduction gives it."""
    if isinstance(spec, str):
        spec = parse_family_spec(spec)
    g = _KINDS[spec.kind][3](spec, *spec.params)
    if g.name is None:
        g.name = spec.canonical()
    return g


# --------------------------------------------------------------------------
# The hardness-reduction graph G' and its canonical witness
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class ReductionRecord:
    """The reduction graph with per-vertex roles and id bookkeeping."""

    gprime: Graph
    tags: tuple[str, ...]
    base: Graph
    apex_clique_ids: tuple[int, ...] = ()
    pendant_ids: dict[tuple[int, int], tuple[int, ...]] = field(
        default_factory=dict
    )


def reduction_gprime(g: Graph, t: int) -> ReductionRecord:
    """Attach edge-vertices, an apex clique, and pendant cliques to ``g``.

    Per base edge e = ij: a vertex v_e adjacent to i and j, with all v_e
    forming a clique; a clique K_{t+1} whose distinguished vertex x is
    adjacent to all of the base; per v_e a pendant K_t fully joined to it.
    Order n + m + (t + 1) + m*t.
    """
    if t < 3:
        raise BadParams(f"reduction needs t >= 3, got {t}")
    if g.n < 2:
        raise BadParams("reduction needs a base graph with at least 2 vertices")
    n = g.n
    base_edges = g.edges()
    m = len(base_edges)

    edges: list[tuple[int, int]] = list(base_edges)
    tags: list[str] = ["original"] * n
    labels: list[str] = (list(g.labels) if g.labels is not None
                         else [str(i + 1) for i in range(n)])

    for ve, (i, j) in enumerate(base_edges, start=n):
        tags.append("edge_vertex")
        labels.append(f"ve({i + 1},{j + 1})")
        edges += [(i, ve), (j, ve)]
    edges += combinations(range(n, n + m), 2)

    apex = n + m
    clique_ids = tuple(range(apex + 1, apex + 1 + t))
    tags += ["apex_x"] + ["apex_clique"] * t
    labels += ["x"] + [f"x{k}" for k in range(1, t + 1)]
    edges += combinations((apex,) + clique_ids, 2)
    edges += [(apex, i) for i in range(n)]

    pendant_ids: dict[tuple[int, int], tuple[int, ...]] = {}
    next_id = apex + 1 + t
    for ve, (i, j) in enumerate(base_edges, start=n):
        ids = tuple(range(next_id, next_id + t))
        next_id += t
        pendant_ids[(i, j)] = ids
        tags += [f"pendant_clique({i}-{j})"] * t
        labels += [f"e({i + 1},{j + 1})y{k}" for k in range(1, t + 1)]
        edges += combinations(ids, 2)
        edges += [(ve, pid) for pid in ids]

    gp = build_graph(next_id, edges, labels=labels, name=f"gprime:t={t}")
    return ReductionRecord(
        gprime=gp,
        tags=tuple(tags),
        base=g,
        apex_clique_ids=clique_ids,
        pendant_ids=pendant_ids,
    )


def reduction_witness(record: ReductionRecord, independent_set) -> VertexSet:
    """The canonical total mutual-visibility set built from a base
    independent set: I plus the apex clique minus x plus every pendant
    vertex; its size is (m + 1) * t + |I|."""
    base = record.base
    ind = sorted(
        independent_set.ids()
        if isinstance(independent_set, VertexSet)
        else independent_set
    )
    for a, b in combinations(ind, 2):
        if base.has_edge(a, b):
            raise NotIndependent(f"vertices {a} and {b} are adjacent")
    members = list(ind) + list(record.apex_clique_ids)
    for ids in record.pendant_ids.values():
        members.extend(ids)
    return VertexSet(record.gprime.n, members)


# --------------------------------------------------------------------------
# Witness constructions for grids, tori, and the five-cycle gadget
# --------------------------------------------------------------------------


def _grid_ids(coords, n: int, m: int) -> VertexSet:
    for (i, j) in coords:
        if not (1 <= i <= n and 1 <= j <= m):
            raise OutOfRange(f"coordinate ({i},{j}) outside {n}x{m}")
    return VertexSet(n * m, [(i - 1) * m + (j - 1) for i, j in coords])


def grid_outer_witness(n: int, m: int) -> VertexSet:
    """An outer mutual-visibility set of the n x m grid of size m + 2.

    Covers the wide regime n >= 7, m >= 6 (with its collision repairs), the
    explicit small sets for m = 3 (n >= 5) and m = 5 (n >= 7), and the
    long-thin extension where the diagonal run is capped at m - 2 entries.
    Requires n >= m.
    """
    if n < m:
        raise OutOfRange("witness construction assumes n >= m")
    if m == 3 and n >= 5:
        coords = [(1, 1), (n, 1), (3, 2), (1, 3), (n, 3)]
        return _grid_ids(coords, n, m)
    if m == 5 and n >= 7:
        coords = [(1, 1), (n, 1), (5, 2), (2, 3), (4, 4), (1, 5), (n, 5)]
        return _grid_ids(coords, n, m)
    if m < 6 or n < 7:
        raise OutOfRange(f"no outer witness construction for {n}x{m}")

    corners = [(1, 1), (n, 1), (1, m), (n, m)]
    half = (n - 2) // 2
    if half > m - 2:
        # Long thin grids: the diagonal run alone reaches the top rows.
        a_run = [(2 * k + 1, k + 1) for k in range(1, m - 1)]
        return _grid_ids(corners + a_run, n, m)
    a_run = [(2 * k + 1, k + 1) for k in range(1, half + 1)]
    b_run = [(2 * k, half + k + 1) for k in range(1, m - half - 1)]
    coords = corners + a_run + b_run
    collision = (n - 1, m - 1)
    if (a_run and a_run[-1] == collision) or (b_run and b_run[-1] == collision):
        coords = [c for c in coords if c not in ((n - 3, m - 2), (n - 1, m - 1))]
        coords += [(n - 3, m - 1), (n - 1, m - 2)]
    elif len(b_run) == 1 and b_run[0] == (2, m - 1):
        coords = [c for c in coords if c != (2, m - 1)]
        coords.append((4, m - 1))
    return _grid_ids(coords, n, m)


def grid_dual_witness(n: int, m: int) -> VertexSet:
    """A maximum dual mutual-visibility set of the n x m grid.

    The five-vertex corner-hugging set for n >= 4, m >= 3; the four corners
    for m = 2, n >= 3.
    """
    if m == 2 and n >= 3:
        return _grid_ids([(1, 1), (1, 2), (n, 1), (n, 2)], n, m)
    if n >= 4 and m >= 3:
        coords = [(1, 1), (2, 1), (n, m - 1), (n, m), (1, m)]
        return _grid_ids(coords, n, m)
    raise OutOfRange(f"no dual witness construction for {n}x{m}")


_TORUS_DUAL_WITNESS = {
    (3, 3): [(1, 1), (1, 2), (1, 3), (2, 1), (3, 1)],
    (4, 3): [(1, 1), (1, 2), (1, 3), (2, 1), (3, 1)],
    (4, 4): [(1, 1), (1, 2), (1, 3), (2, 1), (3, 1), (3, 3), (3, 4), (4, 3)],
    (5, 3): [(1, 1), (2, 1)],
    (5, 4): [(1, 1), (2, 1), (4, 3), (5, 3)],
    (6, 3): [(1, 2), (2, 2), (4, 1), (5, 1)],
    (6, 4): [(1, 1), (2, 1), (4, 3), (5, 3)],
}

_TORUS_TOTAL_WITNESS = {
    (3, 3): [(1, 1), (1, 2), (1, 3)],
    (4, 3): [(1, 1), (1, 2), (1, 3)],
    (4, 4): [(1, 1), (1, 2), (3, 3), (3, 4)],
}


def torus_witnesses(n: int, m: int, variant: str) -> VertexSet:
    """Maximum dual/total witness sets for the nonzero torus cases."""
    if variant == "dual":
        table = _TORUS_DUAL_WITNESS
    elif variant == "total":
        table = _TORUS_TOTAL_WITNESS
    else:
        raise NoWitnessKnown(f"no torus witnesses for variant {variant!r}")
    coords = table.get((n, m))
    if coords is None:
        raise NoWitnessKnown(f"no nonzero {variant} witness for torus {n}x{m}")
    return _grid_ids(coords, n, m)


def gn_witnesses(n: int, variant: str) -> VertexSet:
    """Witness sets for the five-cycle gadget: 2n / n / 2 vertices for
    mutual / outer / dual; the total number is 0, so no total witness."""
    if n < 2:
        raise OutOfRange(f"five-cycle gadget needs n >= 2, got {n}")
    cap = 3 * n + 2
    if variant == "mutual":
        ids = [gn_vertex("x", i) for i in range(1, n + 1)]
        ids += [gn_vertex("y", i) for i in range(1, n + 1)]
    elif variant == "outer":
        ids = [gn_vertex("z", i) for i in range(1, n + 1)]
    elif variant == "dual":
        ids = [gn_vertex("x", 1), gn_vertex("z", 1)]
    else:
        raise NoWitnessKnown("the five-cycle gadget has no nonempty total set")
    return VertexSet(cap, ids)
