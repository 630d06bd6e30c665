"""Vertex orbits under graph automorphisms that fix a vertex set pointwise,
one automorphism that moves vertex 0, and the automorphisms of a graph.

The searches use the orbits for orbital branching, the map for a second
partition bound, and the automorphisms of a part so that capacity
searches inside masks that a symmetry swaps run once. Every map counted
or returned is verified: it is a bijection of the vertex set that
preserves every distance, hence adjacency, so it is an automorphism. The
maps are found by a bounded backtracking search; a search that runs out
of steps counts as no map. The mask returned is therefore always a
subset of the true orbit, which is all that soundness needs: a smaller
orbit only prunes less, a missing map only leaves out the second bound,
and a missing automorphism of a part only runs a capacity search twice.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterator

from .graphs import Graph, VertexSet, all_pairs_distances

#: Candidate images one extension search may try, per vertex of the graph.
STEPS_PER_VERTEX = 8


def stabilizer_orbit(g: Graph, fixed: int, v: int, within: int) -> int:
    """Mask of the vertices of ``within`` to which some verified
    automorphism of ``g`` that fixes each vertex of the mask ``fixed`` maps
    ``v``. It always holds ``v``; ``v`` must lie in ``within``, and
    ``fixed`` must miss ``within``.

    A candidate w must match v in degree, in its sorted distance row and
    in its distance to each fixed vertex. A map sending v to w is then
    extended in BFS order from v (see :func:`_extend`). Each map found is
    applied to the orbit so far, so its images join without a search.
    """
    d = all_pairs_distances(g)
    key = _keys(g, d)
    fixed_ids = VertexSet.from_mask(g.n, fixed).ids()
    dv = d[v]
    to_fixed = [dv[x] for x in fixed_ids]
    order, parent = _bfs_tree(g, v, fixed)
    limit = STEPS_PER_VERTEX * g.n
    maps: list[tuple[int, ...]] = []
    orbit = 1 << v
    for w in VertexSet.from_mask(g.n, within & ~orbit):
        if (orbit >> w) & 1 or key[w] != key[v]:
            continue
        dw = d[w]
        if [dw[x] for x in fixed_ids] != to_fixed:
            continue
        sigma = _extend(g, d, key, fixed_ids, v, w, order, parent, limit)
        if sigma is None:
            continue
        maps.append(sigma)
        todo = VertexSet.from_mask(g.n, orbit).ids()
        while todo:
            u = todo.pop()
            for s in maps:
                x = s[u]
                if not (orbit >> x) & 1:
                    orbit |= 1 << x
                    todo.append(x)
    return orbit & within


def moving_automorphism(g: Graph) -> tuple[int, ...] | None:
    """A verified automorphism of ``g`` that moves vertex 0, as an image
    tuple, or None when none is found. The images w = 1, 2, ... that match
    vertex 0 in degree and sorted distance row are tried in turn, and the
    first map :func:`_extend` finds with nothing fixed is returned, so
    vertex 0 goes to the least vertex that a map reaches within the step
    limit :func:`stabilizer_orbit` uses. It depends on the graph alone, so
    it is sought once and kept on the graph."""
    if g._moving is False:
        g._moving = _moving_automorphism(g)
    return g._moving


def _moving_automorphism(g: Graph) -> tuple[int, ...] | None:
    if g.n < 2:
        return None
    d = all_pairs_distances(g)
    key = _keys(g, d)
    order, parent = _bfs_tree(g, 0, 0)
    limit = STEPS_PER_VERTEX * g.n
    for w in range(1, g.n):
        if key[w] == key[0]:
            sigma = _extend(g, d, key, [], 0, w, order, parent, limit)
            if sigma is not None:
                return sigma
    return None


def automorphisms(g: Graph) -> list[tuple[int, ...]]:
    """Verified automorphisms of ``g``, as image tuples: for each vertex w
    that matches vertex 0 in degree and sorted distance row, the maps
    sending 0 to w that :func:`_extensions` finds within the step limit
    :func:`stabilizer_orbit` gives one map. A graph with few automorphisms
    gets them all; a map left out is only a symmetry not used."""
    d = all_pairs_distances(g)
    key = _keys(g, d)
    order, parent = _bfs_tree(g, 0, 0)
    limit = STEPS_PER_VERTEX * g.n
    return [sigma for w in range(g.n) if key[w] == key[0]
            for sigma in _extensions(g, d, key, [], 0, w, order, parent,
                                     limit)]


def _keys(g: Graph, d: list[list[int]]) -> list:
    """Each vertex's degree and sorted distance row, which an automorphism
    preserves."""
    return [(len(nbrs), sorted(row)) for nbrs, row in zip(g.adj, d)]


def _bfs_tree(g: Graph, v: int, fixed: int) -> tuple[list[int], list[int]]:
    """The vertices other than ``v`` and the ``fixed`` ones in BFS order
    from ``v``, and each vertex's BFS parent."""
    parent = [-1] * g.n
    parent[v] = v
    queue = deque([v])
    order = []
    while queue:
        u = queue.popleft()
        if u != v and not (fixed >> u) & 1:
            order.append(u)
        for w in g.adj[u]:
            if parent[w] < 0:
                parent[w] = u
                queue.append(w)
    return order, parent


def _extend(g: Graph, d: list[list[int]], key: list, fixed_ids: list[int],
            v: int, w: int, order: list[int], parent: list[int],
            limit: int) -> tuple[int, ...] | None:
    """An automorphism that fixes ``fixed_ids``, sends ``v`` to ``w`` and
    is found within ``limit`` steps, as an image tuple; else None: the
    first map :func:`_extensions` yields."""
    return next(_extensions(g, d, key, fixed_ids, v, w, order, parent,
                            limit), None)


def _extensions(g: Graph, d: list[list[int]], key: list,
                fixed_ids: list[int], v: int, w: int, order: list[int],
                parent: list[int], limit: int) -> Iterator[tuple[int, ...]]:
    """Each automorphism that fixes ``fixed_ids`` and sends ``v`` to ``w``
    that a search of ``limit`` steps in all finds, as an image tuple. ``w``
    must already match ``v`` in its distance to each fixed vertex.

    The vertices of ``order`` are mapped in turn, each z to an unused
    neighbour of the image of its BFS parent that has z's ``key`` (degree
    and sorted distance row) and whose distance to the image of every
    vertex mapped so far equals z's distance to that vertex. A dead end
    backtracks to the previous vertex's next choice, and so does a
    complete map once it is yielded. The map is complete only when every
    vertex is mapped, and then it is a distance-preserving bijection.
    """
    sigma = [-1] * g.n
    for x in fixed_ids:
        sigma[x] = x
    sigma[v] = w
    domain = [*fixed_ids, v]
    images = [*fixed_ids, w]
    used = 1 << w
    for x in fixed_ids:
        used |= 1 << x
    adj = g.adj
    pending: list[list[int]] = []
    steps = 0
    k = 0
    while True:
        if k == len(order):
            yield tuple(sigma)
            k -= 1
            if k < 0:
                return
        z = order[k]
        if k == len(pending):
            pending.append(
                [c for c in adj[sigma[parent[z]]] if not (used >> c) & 1]
            )
        else:
            # Back at z after a dead end or a complete map further on:
            # drop z's last choice.
            used ^= 1 << sigma[z]
            domain.pop()
            images.pop()
        options = pending[k]
        dz = d[z]
        while options:
            c = options.pop()
            steps += 1
            if steps > limit:
                return
            dc = d[c]
            if key[c] == key[z] and all(
                dc[s] == dz[y] for y, s in zip(domain, images)
            ):
                sigma[z] = c
                used |= 1 << c
                domain.append(z)
                images.append(c)
                k += 1
                break
        else:
            pending.pop()
            k -= 1
            if k < 0:
                return
