"""Shared oracles and small hand-built flag graphs for the tests."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import combinations, permutations, product

import numpy as np

from chirex.gpr import GprGraph, components, rooted_digraph_isomorphic
from chirex.maniplex import (AutomorphismOrbit, Maniplex, PreconditionError, RootedManiplex,
                             RotationSystem, Symmetry, VerificationError, classify_symmetry,
                             find_rooted_automorphism, forced_map, rotation_system,
                             schlafli, tau)
from chirex.permcore import Perm, PermGroup, orbit_of, orbit_partition
from chirex.toroidal import TorusParams, build_toroidal_map
from chirex.two_s_m import TwoSM, build_two_s_m, every_ridge_in_two_facets


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


def facet_components_by_every_root(G, cay) -> bool:
    """Condition 1 of the extension criterion as the parent code decided
    it: every component of G under its first cay.rank arrows passes
    ``gpr.rooted_digraph_isomorphic``, which tries every root image; the
    cross-check for ``gpr.facet_components_isomorphic``."""
    facet_part = GprGraph(cay.rank, G.arrows[:cay.rank])
    return all(rooted_digraph_isomorphic(facet_part, cay, vertices=blk)
               for blk in components(facet_part, range(1, cay.rank + 1))[0])


def unmatched_level_by_partitions(G) -> int | None:
    """Condition 4 of the extension criterion as the parent code decided
    it, from three whole-graph partitions per k: the facet components,
    the {k..n}-components and the {k..n-1}-components, each block
    compared as a set with the meet of its two blocks. The cross-check
    for ``gpr.unmatched_component_level``."""
    n = G.rank
    gblocks, gblock_of = components(G, range(1, n))
    for k in range(2, n):
        dblocks, dblock_of = components(G, range(k, n + 1))
        for blk in components(G, range(k, n))[0]:
            v = blk[0]
            if set(blk) == set(gblocks[gblock_of[v]]) & set(dblocks[dblock_of[v]]):
                break
        else:
            return k
    return None


@dataclass(frozen=True)
class GroupWord:
    """A word in abstract generators: letters are (index, exponent) pairs."""

    letters: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        for idx, exp in self.letters:
            if exp not in (1, -1):
                raise ValueError("word exponents must be +1 or -1")
            if idx < 0:
                raise ValueError("negative generator index")

    def __len__(self) -> int:
        return len(self.letters)

    def inverse(self) -> "GroupWord":
        return GroupWord(tuple((i, -e) for i, e in reversed(self.letters)))

    def __add__(self, other: "GroupWord") -> "GroupWord":
        return GroupWord(self.letters + other.letters)


def rho_bar(w: GroupWord, n: int) -> GroupWord:
    """Image of a word in s_1..s_{n-2} under the involutory facet-group
    automorphism sending s_{n-2} to its inverse and s_{n-3} to
    s_{n-3} s_{n-2}^2, fixing earlier generators: the word form of
    ``gpr.rho_bar``, letter by letter."""
    top = n - 3  # 0-based index of s_{n-2}
    out: list[tuple[int, int]] = []
    for idx, exp in w.letters:
        if idx > top:
            raise PreconditionError("word uses generators outside the facet group")
        if idx == top and top >= 0:
            out.append((idx, -exp))
        elif idx == top - 1 and idx >= 0:
            if exp == 1:
                out.extend([(idx, 1), (top, 1), (top, 1)])
            else:
                out.extend([(top, -1), (top, -1), (idx, -1)])
        else:
            out.append((idx, exp))
    return GroupWord(tuple(out))


def evaluate_word(gens, word: GroupWord, degree: int | None = None) -> Perm:
    """Left-to-right product of the word's letters over the generator list."""
    if degree is None:
        if not gens:
            raise ValueError("degree required when there are no generators")
        degree = gens[0].degree
    acc = Perm.identity(degree)
    for idx, exp in word.letters:
        if idx >= len(gens):
            raise IndexError("generator index %d out of range" % idx)
        acc = acc * (gens[idx] if exp == 1 else gens[idx].inverse())
    return acc


def word_action(gens, word: GroupWord, degree: int | None = None) -> Perm:
    """The word read as a left action (leftmost letter applied last)."""
    return evaluate_word(gens, GroupWord(word.letters[::-1]), degree)


def facet_word(RS: RotationSystem, phi_f: int, phi: int,
               inverses=None) -> GroupWord:
    """A word in s_1..s_{n-2} whose left action takes phi_f to phi, by BFS
    with the letters tried in the order s_1, s_1^-1, s_2, s_2^-1, ...: the
    cross-check for the joint BFS of ``extend_db.build_matching`` Step 4.

    Letters are 0-based: letter index i stands for s_{i+1}. Any two words
    for the same pair evaluate to the same group element (the action is
    free). ``inverses``, the image tuples of s_1^{-1}..s_{n-2}^{-1}, may be
    passed in so that many words share them.
    """
    gens = RS.sigma[: RS.rank - 2]
    if inverses is None:
        inverses = [g.inverse().images for g in gens]
    moves = []
    for i, g in enumerate(gens):
        moves.append((i, 1, g.images))
        moves.append((i, -1, inverses[i]))
    # parent[v] = (previous vertex, letter); prepending a letter applies
    # the new generator last, i.e. on the left
    parent: dict[int, tuple[int, tuple[int, int]] | None] = {phi_f: None}
    queue = deque([phi_f])
    while queue:
        v = queue.popleft()
        if v == phi:
            break
        for idx, exp, imgs in moves:
            u = imgs[v]
            if u not in parent:
                parent[u] = (v, (idx, exp))
                queue.append(u)
    if phi not in parent:
        raise PreconditionError("flag %d not in the facet orbit of %d" % (phi, phi_f))
    letters = []
    v = phi
    while parent[v] is not None:
        v, letter = parent[v]
        letters.append(letter)
    return GroupWord(tuple(letters))


def check_spread_by_words(K: RootedManiplex, matching) -> int:
    """Check every matched white flag against the per-flag path that
    ``extend_db.build_matching`` Step 4 replaced: a ``facet_word`` from a
    reference flag of the facet component, its ``rho_bar`` image, and that
    word's left action on the reference flag's partner. Returns the number
    of flags checked.

    The reference is the component's least flag, not the Step 1-3 anchor:
    rho is an automorphism of the facet group, so the spread of any edge of
    the component gives the same partners as the anchor's spread.
    """
    rs = rotation_system(K)
    n, W = K.rank, rs.degree
    facet_gens = rs.sigma[: n - 2]
    images = {1: [g.images for g in facet_gens],
              -1: [g.inverse().images for g in facet_gens]}
    comps = orbit_partition(facet_gens, W)[0]
    partner = matching.partner
    checked = 0
    for ell in range(matching.num_copies):
        for comp in comps:
            ref = comp[0]
            ell2, psi = divmod(partner[ell * W + ref], W)
            for flag in comp:
                target = psi
                for idx, exp in reversed(rho_bar(facet_word(rs, ref, flag, images[-1]),
                                                 n).letters):
                    target = images[exp][idx][target]
                assert partner[ell * W + flag] == ell2 * W + target, (ell, flag)
                checked += 1
    return checked


def orbit_by_deque(x: int, perms) -> list[int]:
    """BFS closure of {x} with a set and a deque, in discovery order: the
    cross-check for ``permcore.orbit_of``."""
    seen = {x}
    order = [x]
    queue = deque([x])
    while queue:
        p = queue.popleft()
        for g in perms:
            q = g.images[p]
            if q not in seen:
                seen.add(q)
                order.append(q)
                queue.append(q)
    return order


def orientable_by_deque(M: Maniplex, base_flag: int = 0) -> frozenset[int] | None:
    """White flags of the flag graph's 2-colouring by a deque BFS, None if
    it is not bipartite: the cross-check for ``maniplex.is_orientable``."""
    colour = [-1] * M.num_flags
    colour[base_flag] = 0
    queue = deque([base_flag])
    while queue:
        x = queue.popleft()
        for r in M.adjacency:
            y = r.images[x]
            if colour[y] == -1:
                colour[y] = 1 - colour[x]
                queue.append(y)
            elif colour[y] == colour[x]:
                return None
    return frozenset(x for x in range(M.num_flags) if colour[x] == 0)


def colouring_by_facet_bfs(M: Maniplex, base_flag: int = 0) -> list[int] | None:
    """The facet 2-colouring by a deque BFS over the facet adjacency sets,
    base facet 1, None if there is none: the cross-check for
    ``maniplex.dually_bipartite_colouring`` (without its last-entry check)."""
    facet_list, facet_of = M.facet_partition
    last = M.adjacency[-1].images
    # f and the facet of r_{n-1}(flag) share an (n-2)-face
    neighbours: list[set[int]] = [set() for _ in facet_list]
    for f in range(M.num_flags):
        neighbours[facet_of[f]].add(facet_of[last[f]])
    colour = [0] * len(facet_list)
    start = facet_of[base_flag]
    colour[start] = 1
    queue = deque([start])
    while queue:
        a = queue.popleft()
        for b in neighbours[a]:
            if colour[b] == 0:
                colour[b] = -colour[a]
                queue.append(b)
            elif colour[b] == colour[a]:
                return None
    return None if 0 in colour else colour


def facets_regular_by_submaniplex(K: RootedManiplex) -> bool:
    """True iff the base facet, copied out as a maniplex of its own, is
    regular: the cross-check for the regular-facet precondition of
    ``extend_db.extend_dually_bipartite``."""
    man = K.maniplex
    blocks, block_of = man.facet_partition
    blk = blocks[block_of[K.base_flag]]
    pos = {f: i for i, f in enumerate(blk)}
    sub = Maniplex(man.rank - 1, tuple(Perm([pos[r.images[f]] for f in blk])
                                       for r in man.adjacency[:-1]))
    return classify_symmetry(RootedManiplex(sub, pos[K.base_flag])) is Symmetry.REGULAR


def schlafli_by_orders(M: RootedManiplex) -> list[int]:
    """[p_1..p_{n-1}] with p_i the order of the product r_{i-1} r_i, on a
    rotary maniplex: the cross-check for ``maniplex.schlafli``, which reads
    p_i off the base flag's cycle."""
    if classify_symmetry(M) is Symmetry.OTHER:
        raise PreconditionError("Schlafli symbol undefined: maniplex is not rotary")
    adj = M.maniplex.adjacency
    return [(adj[i] * adj[i - 1]).order() for i in range(1, M.rank)]


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
               if forced_map(rows, rows, base, psi, [-1] * M.num_flags) is not None)


def automorphism_orbit_by_closure(M: Maniplex, base: int) -> AutomorphismOrbit:
    """``maniplex.automorphism_orbit`` with hand-written closures: after a
    found automorphism the orbit is extended incrementally (the new
    generator moves the old points, every generator the new), and a
    failure's exclusion is a tagged stack DFS. The oracle for the version
    that takes both closures from ``orbit_of``."""
    N = M.num_flags
    if len(orbit_of(base, M.adjacency)) != N:
        raise PreconditionError("automorphism orbit needs a connected flag graph")
    IMAGE = 1  # 0 marks an unknown flag, 2 + k the orbit of the k-th failure
    state = [0] * N
    state[base] = IMAGE
    orbit = [base]
    gens: list[tuple[int, ...]] = []
    forced_maps = failures = 0
    for psi in range(N):
        if state[psi]:
            continue
        forced_maps += 1
        aut = find_rooted_automorphism(M, base, psi)
        if aut is not None:
            gens.append(aut.images)
            old, i = len(orbit), 0
            while i < len(orbit):
                for h in (gens if i >= old else gens[-1:]):
                    q = h[orbit[i]]
                    if state[q] != IMAGE:
                        if state[q]:
                            raise VerificationError("flag %d is excluded and an image" % q)
                        state[q] = IMAGE
                        orbit.append(q)
                i += 1
            continue
        tag = 2 + failures
        failures += 1
        state[psi] = tag
        stack = [psi]
        while stack:
            p = stack.pop()
            for h in gens:
                q = h[p]
                if state[q] != tag:
                    if state[q] == IMAGE:
                        raise VerificationError("flag %d is excluded and an image" % q)
                    state[q] = tag
                    stack.append(q)
    return AutomorphismOrbit(orbit=orbit, generators=gens, forced_maps=forced_maps)


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


def expected_flag_count(p: TorusParams) -> int:
    """Flag count of a toroidal map, in closed form."""
    if p.family == "44":
        return 8 * (p.b * p.b + p.c * p.c)
    return 12 * (p.b * p.b + p.b * p.c + p.c * p.c)


def canonical_params(p: TorusParams) -> TorusParams:
    """Rotate (b, c) by the lattice symmetry into b > 0, c >= 0.

    The quotient lattice is invariant under its point rotation, so this
    does not change the map; exactly one rotate lies in that sector.
    """
    b, c = p.b, p.c
    for _ in range(6):
        if b > 0 and c >= 0:
            return TorusParams(p.family, b, c)
        if p.family == "44":
            b, c = -c, b
        else:
            b, c = -c, b + c
    raise AssertionError("rotation orbit missed the canonical sector")


def is_chiral_params(p: TorusParams) -> bool:
    """The closed-form chirality test: b c (b - c) != 0 in canonical form."""
    q = canonical_params(p)
    return q.b * q.c * (q.b - q.c) != 0


# 2s^M flag coordinates: flag (flag of M, x, delta) is
# (flag * num_u + u) * 2 + delta, where u holds x_1..x_{m-1} in mixed
# radix base s and x_0 makes the coordinate sum vanish mod s

def num_u(tsm: TwoSM) -> int:
    return tsm.s ** (tsm.m - 1)


def flag_id(tsm: TwoSM, flag: int, u: int, delta: int) -> int:
    return (flag * num_u(tsm) + u) * 2 + delta


def decode(tsm: TwoSM, v: int) -> tuple[int, int, int]:
    v, delta = divmod(v, 2)
    flag, u = divmod(v, num_u(tsm))
    return flag, u, delta


def u_vector(tsm: TwoSM, u: int) -> tuple[int, ...]:
    coords = []
    for _ in range(tsm.m - 1):
        u, d = divmod(u, tsm.s)
        coords.append(d)
    return ((-sum(coords)) % tsm.s, *coords)


def u_index(tsm: TwoSM, vector) -> int:
    if sum(vector) % tsm.s != 0:
        raise ValueError("coordinate sum must vanish mod s")
    u = 0
    for d in reversed(vector[1:]):
        u = u * tsm.s + (d % tsm.s)
    return u


def two_s_m_type(M: RootedManiplex, s: int):
    """Schlafli symbol of 2s^M, computed from the built maniplex.

    Returns (symbol, ridge_ok): when some (n-2)-face of M lies in only
    one facet the last entry need not be 2s, and ridge_ok is False.
    """
    return schlafli(build_two_s_m(M, s).rooted), every_ridge_in_two_facets(M.maniplex)


def _check_automorphism(tsm: TwoSM, g: Perm, message: str) -> None:
    for r in tsm.maniplex.adjacency:
        if g * r != r * g:
            raise PreconditionError(message)


def lift_automorphism(tsm: TwoSM, gamma: Perm) -> Perm:
    """Lift an automorphism of M to 2s^M:
    (flag, x, delta) -> (flag gamma, x gamma + delta a_{0 gamma}, delta)."""
    man = tsm.source.maniplex
    if gamma.degree != man.num_flags:
        raise PreconditionError("degree mismatch with the source maniplex")
    for r in man.adjacency:
        if gamma * r != r * gamma:
            raise PreconditionError("not an automorphism of the source maniplex")
    m, s = tsm.m, tsm.s
    facet_of = tsm.facet_of_source
    # facet permutation induced by gamma
    fperm = [-1] * m
    for f in range(man.num_flags):
        j, j2 = facet_of[f], facet_of[gamma.images[f]]
        if fperm[j] == -1:
            fperm[j] = j2
        elif fperm[j] != j2:
            raise PreconditionError("flag map does not induce a facet permutation")
    a0g = [0] * m
    if fperm[0] != 0:
        a0g[fperm[0]] = 1
        a0g[0] = -1
    imgs = []
    for v in range(tsm.maniplex.num_flags):
        flag, u, delta = decode(tsm, v)
        vec = u_vector(tsm, u)
        out = [0] * m
        for j in range(m):
            out[fperm[j]] = vec[j]
        if delta:
            out = [(x + a) % s for x, a in zip(out, a0g)]
        imgs.append(flag_id(tsm, gamma.images[flag], u_index(tsm, out), delta))
    lifted = Perm(imgs)
    _check_automorphism(tsm, lifted, "lift is not an automorphism")
    return lifted


def translation_chi_automorphisms(tsm: TwoSM) -> list[Perm]:
    """Generators tau_{a_j} (j = 1..m-1) translating x, plus chi which
    negates x and flips delta; each verified to be an automorphism."""
    m, s = tsm.m, tsm.s
    flags = [decode(tsm, v) for v in range(tsm.maniplex.num_flags)]
    out = []
    for j in range(1, m):
        imgs = []
        for flag, u, delta in flags:
            vec = list(u_vector(tsm, u))
            vec[j] = (vec[j] + 1) % s
            vec[0] = (vec[0] - 1) % s
            imgs.append(flag_id(tsm, flag, u_index(tsm, vec), delta))
        out.append(Perm(imgs))
    out.append(Perm(flag_id(tsm, flag, u_index(tsm, [(-x) % s for x in u_vector(tsm, u)]),
                            1 - delta) for flag, u, delta in flags))
    for g in out:
        _check_automorphism(tsm, g, "claimed symmetry is not an automorphism")
    return out


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


def cross_check_maps():
    """The 504 maps of the benchmark's sweep (-6 <= b, c <= 6, three
    families), the small polytopes and 2s^R for R = {4,4}_(2,0), s = 2, 3."""
    for family in ("44", "36", "63"):
        for b in range(-6, 7):
            for c in range(-6, 7):
                if (b, c) != (0, 0):
                    yield build_toroidal_map(TorusParams(family, b, c))
    yield from (cube(), hemicube(), triangular_prism())
    yield from (polygon(p) for p in range(3, 9))
    R = build_toroidal_map(TorusParams("44", 2, 0))
    yield from (build_two_s_m(R, s).rooted for s in (2, 3))
