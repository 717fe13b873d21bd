"""Shared oracles and small hand-built flag graphs for the tests."""

from __future__ import annotations

from itertools import combinations, permutations, product

import numpy as np

from chirex.maniplex import Maniplex, RootedManiplex, forced_map, tau
from chirex.permcore import Perm, PermGroup, orbit_of


def brute_force_closure(gens, degree: int, cap: int = 10_000):
    """All elements of the generated group by plain multiplication,
    independent of the stabiliser-chain code. None if the cap is hit."""
    ident = Perm.identity(degree)
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for p in frontier:
            for g in gens:
                q = p * g
                if q not in seen:
                    if len(seen) >= cap:
                        return None
                    seen.add(q)
                    nxt.append(q)
        frontier = nxt
    return seen


def cyclic_meet_by_loop(s: Perm, H: PermGroup) -> int:
    """Order of <s> meet H from the least j in 1..q-1 with s^j in H (q/j,
    or 1 if there is none), by q-1 products and sifts: the cross-check
    for ``gpr.cyclic_meet_order``. Powers are numpy image arrays, so the
    loop stays fast enough for q in the tens of thousands."""
    q = s.order()
    images = np.array(s.images)
    power = images
    for j in range(1, q):
        if H.chain.contains(power):
            return q // j
        power = images[power]
    return 1


def check_order_exceeds(gens, degree: int) -> None:
    """``PermGroup.order_exceeds`` at |G|-1, |G| and |G|+1 against
    ``order()``, each on a fresh group that must not keep the chain it
    built; after ``order()`` the cached full chain answers the same."""
    order = PermGroup(degree, gens).order()
    for bound, exceeds in ((order - 1, True), (order, False), (order + 1, False)):
        G = PermGroup(degree, gens)
        assert G.order_exceeds(bound) is exceeds, (bound, order)
        assert G._chain is None
        G.order()
        assert G.order_exceeds(bound) is exceeds, (bound, order)


def components_union_find(perms, degree: int):
    """Union-find cross-check of ``permcore.orbit_partition``: the same
    (blocks, block_of) pair, found by merging each point with its images."""
    parent = list(range(degree))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for g in perms:
        for v in range(degree):
            a, b = find(v), find(g.images[v])
            if a != b:
                parent[max(a, b)] = min(a, b)
    groups: dict[int, list[int]] = {}
    for v in range(degree):
        groups.setdefault(find(v), []).append(v)
    blocks = [tuple(sorted(g)) for _, g in sorted(groups.items())]
    block_of = [-1] * degree
    for i, blk in enumerate(blocks):
        for v in blk:
            block_of[v] = i
    return blocks, block_of


def aut_count_by_scan(M: Maniplex, base: int) -> int:
    """|Aut(M)| of a connected flag graph by one forced map from the base
    flag to every flag, O(N^2): the cross-check for
    ``maniplex.automorphism_orbit``."""
    rows = [r.images for r in M.adjacency]
    return sum(1 for psi in range(M.num_flags)
               if forced_map(rows, base, psi) is not None)


def intersection_property_orbits(sigma, base: int = 0):
    """Orbit form of the intersection property over all index pairs: the
    cross-check for ``mix.intersection_property_group``.

    The rotation generators must act freely and transitively; subgroup
    elements then correspond to the points of the base's orbit, and
    subgroup intersections to orbit intersections. Returns (True, None)
    or (False, (I, J)) with the first failing pair.
    """
    sigma = tuple(sigma)
    degree = sigma[0].degree
    closure = brute_force_closure(sigma, degree, cap=degree)
    if closure is None or len(closure) != degree or len(orbit_of(base, sigma)) != degree:
        raise ValueError("rotation group is not free and transitive")
    n = len(sigma) + 1
    subsets = [I for size in range(n + 1) for I in combinations(range(n), size)]
    orbits = {I: frozenset(orbit_of(base, [tau(sigma, i, j) for i, j in combinations(I, 2)]))
              for I in subsets}
    for I in subsets:
        for J in subsets:
            meet = tuple(sorted(set(I) & set(J)))
            if orbits[I] & orbits[J] != orbits[meet]:
                return False, (I, J)
    return True, None


def brute_force_isomorphic(G, H) -> bool:
    """True iff some bijection of the vertices carries every arrow of the
    GPR-graph G onto the arrow of H with the same label."""
    V = G.num_vertices
    if G.rank != H.rank or V != H.num_vertices:
        return False
    pairs = [(a.images, b.images) for a, b in zip(G.arrows, H.arrows)]
    return any(all(pi[ga[v]] == ha[pi[v]] for ga, ha in pairs for v in range(V))
               for pi in permutations(range(V)))


def polygon(p: int) -> RootedManiplex:
    """Flag graph of the p-gon: 2p flags around a cycle."""
    n = 2 * p
    r0 = Perm.from_cycles(n, [(2 * i, 2 * i + 1) for i in range(p)])
    r1 = Perm.from_cycles(n, [(2 * i + 1, (2 * i + 2) % n) for i in range(p)])
    return RootedManiplex(Maniplex(2, (r0, r1)), 0)


def polyhedron(face_cycles) -> RootedManiplex:
    """Rank-3 flag graph of a polyhedron given by its face vertex cycles.
    Every edge must lie in exactly two faces."""
    edges = set()
    for cyc in face_cycles:
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            edges.add(frozenset((a, b)))
    flags = []
    for fi, cyc in enumerate(face_cycles):
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            flags.append((a, frozenset((a, b)), fi))
            flags.append((b, frozenset((a, b)), fi))
    index = {fl: i for i, fl in enumerate(flags)}

    def r0(fl):
        v, e, f = fl
        return (next(u for u in e if u != v), e, f)

    def r1(fl):
        v, e, f = fl
        e2 = next(e2 for (v2, e2, f2) in flags
                  if v2 == v and f2 == f and e2 != e)
        return (v, e2, f)

    def r2(fl):
        v, e, f = fl
        f2 = next(f2 for (v2, e2, f2) in flags
                  if v2 == v and e2 == e and f2 != f)
        return (v, e, f2)

    adj = tuple(Perm([index[fn(fl)] for fl in flags]) for fn in (r0, r1, r2))
    return RootedManiplex(Maniplex(3, adj), 0)


def triangular_prism() -> RootedManiplex:
    """Not rotary: its faces have two different sizes."""
    return polyhedron([(0, 1, 2), (5, 4, 3), (0, 3, 4, 1),
                       (1, 4, 5, 2), (2, 5, 3, 0)])


def _cube_flags():
    verts = list(product((-1, 1), repeat=3))
    faces = [(a, s) for a in range(3) for s in (-1, 1)]

    def on_face(v, f):
        return v[f[0]] == f[1]

    def edges_at(v):
        out = []
        for a in range(3):
            w = list(v)
            w[a] = -w[a]
            out.append(frozenset((v, tuple(w))))
        return out

    flags = []
    for v in verts:
        for e in edges_at(v):
            for f in faces:
                if all(on_face(u, f) for u in e):
                    flags.append((v, e, f))
    return flags, faces


def cube() -> RootedManiplex:
    """Flag graph of the cube: 48 flags."""
    flags, faces = _cube_flags()
    index = {fl: i for i, fl in enumerate(flags)}

    def other_vertex(v, e):
        return next(u for u in e if u != v)

    def r0(fl):
        v, e, f = fl
        return (other_vertex(v, e), e, f)

    def r1(fl):
        v, e, f = fl
        e2 = next(e2 for (v2, e2, f2) in flags
                  if v2 == v and f2 == f and e2 != e)
        return (v, e2, f)

    def r2(fl):
        v, e, f = fl
        f2 = next(f2 for (v2, e2, f2) in flags
                  if v2 == v and e2 == e and f2 != f)
        return (v, e, f2)

    adj = tuple(Perm([index[fn(fl)] for fl in flags]) for fn in (r0, r1, r2))
    return RootedManiplex(Maniplex(3, adj), 0)


def hemicube() -> RootedManiplex:
    """Antipodal quotient of the cube: 24 flags, non-orientable."""
    flags, _ = _cube_flags()
    index = {fl: i for i, fl in enumerate(flags)}

    def antipode(fl):
        v, e, f = fl
        return (tuple(-x for x in v),
                frozenset(tuple(-x for x in u) for u in e),
                (f[0], -f[1]))

    reps = []
    rep_of = {}
    for fl in flags:
        key = min(index[fl], index[antipode(fl)])
        if key == index[fl]:
            rep_of[index[fl]] = len(reps)
            reps.append(fl)
    big = cube().maniplex

    def project(i: int) -> int:
        fl = flags[i]
        j = min(index[fl], index[antipode(fl)])
        return rep_of[j]

    adj = tuple(Perm([project(r.images[index[fl]]) for fl in reps])
                for r in big.adjacency)
    return RootedManiplex(Maniplex(3, adj), 0)
