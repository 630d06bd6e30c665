"""Automorphisms of a graph: one capped group of them per graph.

:func:`automorphism_group` is the only entry point. It runs one bounded
search from vertex 0 and keeps the group it closes on the graph. The
solver uses the group for orbital branching; on a part's relabelled graph,
to key capacity searches, so that masks a symmetry of the part swaps
share one search; and its first map that moves vertex 0, for a second
partition bound. Every map is verified: the backtracking search of
:func:`_extensions` returns only bijections of the vertex set that
preserve every distance, hence adjacency, so they are automorphisms, and
a composition of automorphisms is one too. The search gives up after a
step limit, and the group stops at a cap, so it may miss maps, and
soundness needs none of them: a missing map only leaves a smaller orbit,
which prunes less, leaves out the second bound, or runs a capacity search
twice.
"""

from __future__ import annotations

from collections.abc import Iterator

from .graphs import Graph, all_pairs_distances

#: Candidate images one extension search may try, and maps the group of
#: :func:`automorphism_group` may hold, per vertex of the graph.
STEPS_PER_VERTEX = 8


def automorphism_group(g: Graph) -> tuple[tuple[int, ...], ...]:
    """Verified automorphisms of ``g`` as image tuples, the identity first,
    closed under composition unless the cap of ``STEPS_PER_VERTEX * n``
    maps cut it short. The generators are the maps of :func:`_extensions`
    that fix vertex 0, then the first map 0 -> w it finds for each w
    that matches 0 in degree and sorted distance row and that no map so
    far sends 0 to. When the search finds the whole stabiliser of 0 and a
    map to each vertex of 0's orbit, the group is the whole automorphism
    group, or its first cap maps. Each generator not yet held is closed in
    at once (:func:`_close`), which puts it first in its coset, so the
    group's first map that moves 0 is the first map 0 -> w for the least
    w that the search reaches, unless the maps that fix 0 fill the cap
    first. It depends on the graph alone, so it is built once and kept on
    the graph."""
    if g._group is None:
        g._group = _automorphism_group(g)
    return g._group


def _automorphism_group(g: Graph) -> tuple[tuple[int, ...], ...]:
    """The maps of :func:`automorphism_group`. Degree and sorted distance
    row are the key that an automorphism preserves, so 0 may go only to a
    vertex w whose key is 0's. Each search from 0 to w maps the other
    vertices in BFS order from 0, each next to its BFS parent's image, and
    tries at most ``STEPS_PER_VERTEX * n`` candidate images, the cap."""
    n = g.n
    cap = STEPS_PER_VERTEX * n
    group = [tuple(range(n))]
    if n < 2:
        return tuple(group)
    d = all_pairs_distances(g)
    key = [(len(nbrs), sorted(row)) for nbrs, row in zip(g.adj, d)]
    parent = [-1] * n
    parent[0] = 0
    tree = [0]
    for u in tree:
        for w in g.adj[u]:
            if parent[w] < 0:
                parent[w] = u
                tree.append(w)
    order = tree[1:]
    held = set(group)
    gens: list[tuple[int, ...]] = []
    for sigma in _extensions(g, d, key, 0, order, parent, cap):
        if len(group) == cap:
            return tuple(group)
        if sigma not in held:
            _close(group, held, gens, sigma, cap)
    reached = 1
    for w in range(1, n):
        if len(group) == cap:
            break
        if key[w] == key[0] and not reached >> w & 1:
            sigma = next(_extensions(g, d, key, w, order, parent, cap), None)
            if sigma is not None:
                _close(group, held, gens, sigma, cap)
                for tau in group:
                    reached |= 1 << tau[0]
    return tuple(group)


def _close(group: list[tuple[int, ...]], held: set[tuple[int, ...]],
           gens: list[tuple[int, ...]], sigma: tuple[int, ...],
           cap: int) -> None:
    """Grow ``group``, closed under composition and generated by ``gens``,
    into the group generated by ``gens`` and ``sigma``, stopping at ``cap``
    maps; ``held`` is the set of ``group``'s maps. This is Dimino's
    algorithm: the new group is a union of right cosets H r of the old
    group H, where H r holds, for each h in H, the map that applies h then
    r. The first is H sigma. A representative r followed by a generator t
    gives a new coset when that map is not yet held, and the whole coset
    joins at once (:func:`_join`), so no coset is built twice and no
    product is kept that the group does not hold."""
    old = list(group)
    gens.append(sigma)
    reps = [sigma]
    if not _join(group, held, old, sigma, cap):
        return
    for r in reps:
        for t in gens:
            rt = tuple(map(t.__getitem__, r))
            if rt not in held:
                if not _join(group, held, old, rt, cap):
                    return
                reps.append(rt)


def _join(group: list[tuple[int, ...]], held: set[tuple[int, ...]],
          old: list[tuple[int, ...]], r: tuple[int, ...], cap: int) -> bool:
    """Add the coset of the maps that apply a map of ``old`` then ``r`` to
    ``group`` and ``held``; False as soon as ``group`` holds ``cap``
    maps."""
    for h in old:
        if len(group) == cap:
            return False
        rh = tuple(map(r.__getitem__, h))
        group.append(rh)
        held.add(rh)
    return True


def _extensions(g: Graph, d: list[list[int]], key: list, w: int,
                order: list[int], parent: list[int],
                limit: int) -> Iterator[tuple[int, ...]]:
    """Each automorphism that sends vertex 0 to ``w`` that a search of
    ``limit`` steps in all finds, as an image tuple.

    The vertices of ``order`` are mapped in turn, each z to an unused
    neighbour of the image of its BFS parent that has z's ``key`` (degree
    and sorted distance row) and whose distance to the image of every
    vertex mapped so far equals z's distance to that vertex. A dead end
    backtracks to the previous vertex's next choice, and so does a
    complete map once it is yielded. The map is complete only when every
    vertex is mapped, and then it is a distance-preserving bijection.
    """
    sigma = [-1] * g.n
    sigma[0] = w
    domain = [0]
    images = [w]
    used = 1 << w
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
