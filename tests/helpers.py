"""Shared oracles and small hand-built flag graphs for the tests."""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from itertools import combinations, permutations, product

import numpy as np

from chirex.gpr import GprGraph, components, rooted_digraph_isomorphic
from chirex.gpr import rho_bar as perm_rho_bar
from chirex.maniplex import (AutomorphismOrbit, Maniplex, PreconditionError, Report,
                             RootedManiplex, RotationSystem, Symmetry, VerificationError,
                             classify_symmetry, facets, find_rooted_automorphism, forced_map,
                             rotation_system, schlafli, validate)
from chirex import permcore
from chirex.permcore import Perm, PermGroup, left_product, orbit_of, orbit_partition
from chirex.toroidal import (_SQUARES, _TRIANGLES, TorusParams, build_toroidal_map,
                             lattice_for)
from chirex.two_s_m import TwoSM, _facet_labels, build_two_s_m, every_ridge_in_two_facets

# every chiral dually-bipartite {4,4}_(b,c) with b <= 9: 0 < c < b, b - c even
HEADLINE_MAPS = [(b, c) for b in range(2, 10) for c in range(1, b) if (b - c) % 2 == 0]


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


def power_by_squaring(p: Perm, k: int) -> Perm:
    """p^k by square-and-multiply (about 2 log2 |k| products, the inverse
    first for k < 0): the cross-check for ``Perm.__pow__``, which turns
    each cycle of p instead."""
    if k < 0:
        return power_by_squaring(p.inverse(), -k)
    result = Perm.identity(p.degree)
    base = p
    while k:
        if k & 1:
            result = result * base
        base = base * base
        k >>= 1
    return result


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


def white_facets_by_orbits(K: RootedManiplex):
    """The facets of K on its white flags as orbits of s_1..s_{n-2}, the
    partition the matching computed before it read K's facet partition."""
    rs = rotation_system(K)
    return orbit_partition(rs.sigma[: rs.rank - 2], rs.degree)


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


def spread_by_copy(K: RootedManiplex, matching) -> tuple[int, ...]:
    """The partner tuple rebuilt by the per-copy Step 4 loop that
    ``extend_db.build_matching`` ran before it shared one forced map per
    (anchor flag, target) pair: one fresh ``forced_map`` from the letters
    s_1..s_{n-2} to their rho images for every facet component of every
    copy, with no result kept between them.

    Each component's anchor edge is the one of its least flag in the given
    matching: rho is an automorphism of the facet group, so the spread of
    any edge of the component gives the same partners as the Step 1-3
    anchor's spread.
    """
    rs = rotation_system(K)
    n, W = K.rank, rs.degree
    facet = rs.sigma[: n - 2]
    letters = [g.images for g in facet]
    images = [r.images for r in perm_rho_bar(facet)]
    comps = orbit_partition(facet, W)[0]
    partner = [-1] * len(matching.partner)
    for ell in range(matching.num_copies):
        for ci, comp in enumerate(comps):
            av = ell * W + comp[0]
            ell2, psi = divmod(matching.partner[av], W)
            target = [-1] * W
            reached = forced_map(letters, images, comp[0], psi, target)
            if reached is None:
                raise VerificationError("rho is not consistent on facet component %d" % ci)
            for u in reached:
                partner[ell * W + u] = ell2 * W + target[u]
    return tuple(partner)


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
    ``maniplex.dually_bipartite_colouring``."""
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


def rotary_by_flag_maps(M: RootedManiplex) -> bool:
    """True iff, for every i, a forced map over the whole flag graph sends
    the base flag to s_i(base) = r_{i-1} r_i (base): the cross-check for
    ``RootedManiplex.rotary``, which maps over the even-word graph."""
    rows, base = [r.images for r in M.maniplex.adjacency], M.base_flag
    return all(forced_map(rows, rows, base, rows[i - 1][rows[i][base]], [-1] * len(rows[0]))
               is not None for i in range(1, len(rows)))


def symmetry_by_flag_maps(M: RootedManiplex) -> Symmetry:
    """Regular, chiral or neither from flag-graph forced maps only: the
    cross-check for ``RootedManiplex.symmetry``."""
    if not rotary_by_flag_maps(M):
        return Symmetry.OTHER
    rows, base = [r.images for r in M.maniplex.adjacency], M.base_flag
    if forced_map(rows, rows, base, rows[0][base], [-1] * len(rows[0])) is None:
        return Symmetry.CHIRAL
    return Symmetry.REGULAR


def mirror_sensitive_maniplex() -> RootedManiplex:
    """An 8-flag non-orientable 3-maniplex, not rotary, on which every
    forced map base -> s_i(base) over the even-word graph (here all flags)
    succeeds: only the r_0 comparison of ``RootedManiplex.rotary`` refuses
    it. Found by a random search over rank-3 flag graphs of up to 32 flags."""
    rows = ([1, 0, 3, 2, 6, 7, 4, 5], [3, 5, 4, 0, 2, 1, 7, 6], [2, 3, 0, 1, 7, 6, 5, 4])
    return RootedManiplex(Maniplex(3, tuple(Perm(r) for r in rows)), 0)


def random_rank3_maniplex(rng, blocks: int) -> Maniplex | None:
    """A random rank-3 flag graph on 4 * blocks flags, or None when the
    draw fails the axioms: r_0 and r_2 act on each block {a, b, c, d} as
    (a b)(c d) and (a c)(b d), and r_1 is a random fixed-point-free
    involution."""
    n = 4 * blocks
    pts = rng.sample(range(n), n)
    r0, r1, r2 = [0] * n, [0] * n, [0] * n
    for j in range(0, n, 4):
        a, b, c, d = pts[j:j + 4]
        r0[a], r0[b], r0[c], r0[d] = b, a, d, c
        r2[a], r2[b], r2[c], r2[d] = c, d, a, b
    pts = rng.sample(range(n), n)
    for a, b in zip(pts[::2], pts[1::2]):
        r1[a], r1[b] = b, a
    man = Maniplex(3, tuple(Perm(r) for r in (r0, r1, r2)))
    return man if validate(man).passed else None


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


def tau(sigma, i: int, j: int) -> Perm:
    """The element tau_{i,j} = sigma_{i+1} ... sigma_j of the rank-n
    rotation generators sigma = (sigma_1, ..., sigma_{n-1}), with the
    usual conventions: identity when i == j or when i < j touches the
    ends, and tau_{i,j} = tau_{j,i}^{-1} when i > j."""
    n = len(sigma) + 1
    if not (-1 <= i <= n and -1 <= j <= n):
        raise IndexError("tau indices out of range")
    if i > j:
        return tau(sigma, j, i).inverse()
    if i == j or i == -1 or j == n:
        return Perm.identity(sigma[0].degree)
    return left_product(sigma[i:j])


def intersection_property_by_enumeration(sigma, cap: int = 1_000_000):
    """Intersection property for a rotation-generator list of any rank.

    For every pair of index sets I, J (neither containing the other,
    the nested pairs being trivially correct) the subgroup generated by
    the tau elements of the smaller side is enumerated and its members
    sifted through the larger side's stabiliser chain; the member count
    must equal the order of the subgroup for the intersected index set.
    Returns (True, None) or (False, (I, J)) with the first failing pair,
    and raises if both sides of some pair exceed the enumeration cap.
    The rank-free oracle for the mix's rank-4 certificate,
    ``mix.intersection_property_group``.
    """
    sigma = tuple(sigma)
    degree = sigma[0].degree
    n = len(sigma) + 1  # rank of the would-be polytope
    subsets = [I for size in range(n + 1) for I in combinations(range(n), size)]
    groups: dict[tuple, PermGroup] = {}
    orders: dict[tuple, int] = {}
    elements: dict[tuple, set | None] = {}

    def group_for(I) -> PermGroup:
        if I not in groups:
            groups[I] = PermGroup(degree, [tau(sigma, i, j) for i, j in combinations(I, 2)])
        return groups[I]

    def order_for(I) -> int:
        if I not in orders:
            orders[I] = group_for(I).order()
        return orders[I]

    def elems(I):
        if I not in elements:
            elements[I] = brute_force_closure(group_for(I).generators, degree, cap)
        return elements[I]

    for a, I in enumerate(subsets):
        for J in subsets[a + 1:]:
            si, sj = set(I), set(J)
            if si <= sj or sj <= si:
                continue  # the intersection is the smaller subgroup itself
            meet = tuple(sorted(si & sj))
            small, big = (I, J) if order_for(I) <= order_for(J) else (J, I)
            members = elems(small)
            if members is None:
                raise VerificationError(
                    "both subgroups of pair %s exceed the enumeration cap" % ((I, J),))
            hits = sum(1 for p in members if p in group_for(big))
            if hits != order_for(meet):
                return False, (I, J)
    return True, None


def intersection_property_orbits(sigma, base: int = 0):
    """Orbit form of the intersection property over all index pairs: the
    cross-check for :func:`intersection_property_by_enumeration`.

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


def lattice_contains(lat, v) -> bool:
    """v lies in the lattice spanned by lat.g1 and lat.g2: by Cramer's rule
    both of its coordinates in that basis are integers."""
    (a, b), (c, d) = lat.g1, lat.g2
    det = a * d - b * c
    return (v[0] * d - v[1] * c) % det == 0 and (a * v[1] - b * v[0]) % det == 0


def regular_quotient_by_scan(p: TorusParams) -> TorusParams | None:
    """The regular candidate (d, 0) or (d, d) whose lattice contains p's and
    whose built map has the most facets, at least two; the first on ties."""
    lat = lattice_for(p)
    best = None
    for d in range(1, math.isqrt(lat.index) + 2):
        for form in ((d, 0), (d, d)):
            cand = TorusParams(p.family, *form)
            if not all(lattice_contains(lattice_for(cand), g) for g in (lat.g1, lat.g2)):
                continue
            count = len(facets(build_toroidal_map(cand).maniplex))
            if count >= 2 and (best is None or count > best[0]):
                best = (count, cand)
    return None if best is None else best[1]


def toroidal_adjacency_by_cells(p: TorusParams) -> tuple[tuple[int, ...], ...]:
    """Image tuples of r_0, r_1, r_2 of the map, appended cell by cell and
    tile by tile: the cross-check for ``toroidal.build_toroidal_map``."""
    offsets, neighbours = _SQUARES if p.family == "44" else _TRIANGLES
    T, K = len(offsets), len(offsets[0])
    across = []
    for t in range(T):
        for k in range(K):
            for which in range(2):
                dx, dy, t2, j2 = neighbours[t][k if which == 0 else (k - 1) % K]
                k2 = offsets[t2].index((offsets[t][k][0] - dx, offsets[t][k][1] - dy))
                across.append((dx, dy, (t2 * K + k2) * 2 + (0 if j2 == k2 else 1)))
    lat = lattice_for(p)
    L = T * K * 2
    cells = lat.cells()
    cell_index = {c: i for i, c in enumerate(cells)}
    r0, r1, r2 = [], [], []
    for ci, (x, y) in enumerate(cells):
        for t in range(T):
            tile = ci * T + t
            for k in range(K):
                r0 += [(tile * K + (k + 1) % K) * 2 + 1, (tile * K + (k - 1) % K) * 2]
                v = (tile * K + k) * 2
                r1 += [v + 1, v]
        for dx, dy, f2 in across:
            r2.append(cell_index[lat.canon(x + dx, y + dy)] * L + f2)
    adjacency = (tuple(r0), tuple(r1), tuple(r2))
    return adjacency[::-1] if p.family == "63" else adjacency


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


def two_s_m_adjacency_by_decoding(M: RootedManiplex, s: int) -> tuple[tuple[int, ...], ...]:
    """Image tuples of the connections of 2s^M, each flag decoded into
    (flag of M, u, delta) and encoded again: the cross-check for
    ``two_s_m.build_two_s_m``."""
    man = M.maniplex
    m, facet_of = _facet_labels(M)
    nu = s ** (m - 1)
    N = man.num_flags * nu * 2
    adjacency = []
    for r in man.adjacency:
        imgs = []
        for v in range(N):
            rest, delta = divmod(v, 2)
            flag, u = divmod(rest, nu)
            imgs.append((r.images[flag] * nu + u) * 2 + delta)
        adjacency.append(tuple(imgs))
    imgs = []
    for v in range(N):
        rest, delta = divmod(v, 2)
        flag, u = divmod(rest, nu)
        j = facet_of[flag]
        if j:  # add (-1)^delta (e_j - e_0): only free coordinate j moves
            step = s ** (j - 1)
            d = (u // step) % s
            u += (((d + (1 if delta == 0 else -1)) % s) - d) * step
        imgs.append((flag * nu + u) * 2 + 1 - delta)
    adjacency.append(tuple(imgs))
    return tuple(adjacency)


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


def validate_by_loops(M: Maniplex) -> Report:
    """``maniplex.validate`` flag by flag: the oracle for its whole-array checks."""
    report = Report()
    N = M.num_flags
    ok = True
    for i, r in enumerate(M.adjacency):
        for x, y in enumerate(r.images):
            if y == x or r.images[y] != x:
                ok = False
                report.add("involution", False, "r_%d fails at flag %d" % (i, x))
                break
        if not ok:
            break
    if ok:
        report.add("involution", True, "all r_i fixed-point-free involutions")

    distinct = True
    for i, j in combinations(range(M.rank), 2):
        ri, rj = M.adjacency[i].images, M.adjacency[j].images
        for x in range(N):
            if ri[x] == rj[x]:
                distinct = False
                report.add("distinct-neighbours", False,
                           "r_%d and r_%d agree at flag %d" % (i, j, x))
                break
        if not distinct:
            break
    if distinct:
        report.add("distinct-neighbours", True, "")

    commuting = True
    for i, j in combinations(range(M.rank), 2):
        if j - i < 2:
            continue
        ri, rj = M.adjacency[i], M.adjacency[j]
        if ri * rj != rj * ri:
            commuting = False
            report.add("far-commutation", False, "r_%d and r_%d do not commute" % (i, j))
            break
    if commuting:
        report.add("far-commutation", True, "")

    reached = orbit_of(0, M.adjacency) if N else []
    report.add("transitivity", len(reached) == N,
               "" if len(reached) == N else "%d of %d flags reachable" % (len(reached), N))
    return report


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


def count_chains(monkeypatch) -> list[tuple[int, int]]:
    """(degree, generator count) of every stabiliser chain built from now
    on, in the order they are built."""
    built = []
    init = permcore._Chain.__init__

    def counting_init(chain, gens, degree):
        built.append((degree, len(gens)))
        init(chain, gens, degree)

    monkeypatch.setattr(permcore._Chain, "__init__", counting_init)
    return built


class CursorChain(permcore._Chain):
    """The stabiliser chain verified as before rounds: level by level from
    the deepest, each generator's rows in batches of ``BATCH // degree``
    from a cursor (``formed``) of verified rows. The first residue of a
    batch is inserted, and verifying resumes at the deepest level it
    changed. The cross-check for the rounds of ``permcore._Chain``, which
    must give the same base, strong generators, orbits and split."""

    def _verify(self) -> None:
        i = len(self.base) - 1
        while i >= 0:
            i = self._check(i)

    def _check(self, i: int) -> int:
        """Resume verifying level i; the next level to verify (i - 1 when done)."""
        pts, row_of = self.pts[i], self.row_of[i]
        for k, s in enumerate(self.strong[self.gens[i]]):
            while self.formed[i][k] < len(pts):
                a = self.formed[i][k]
                p = np.array(pts[a:a + max(1, self.BATCH // self.degree)])
                up = self.uinv.take(row_of[p], axis=0)  # u_p^{-1}
                w = self._gather(row_of[s[p]], s)  # s * u_q^{-1}
                rows = np.flatnonzero((w != up).any(axis=1))
                g = np.empty((len(rows), self.degree), dtype=self.dtype)
                to = self._offsets(np.arange(len(rows)))[:, None] + up[rows]
                g.reshape(-1)[to] = w[rows]  # u_p * s * u_q^{-1}
                self.sifts += len(rows)
                stop = self._sift(g, i + 1)
                bad = np.flatnonzero(stop >= 0)
                self.formed[i][k] = a + len(p) if not len(bad) else a + int(rows[bad[0]]) + 1
                if len(bad):
                    j = int(stop[bad[0]])
                    self._insert(g[bad[0]].copy(), i + 1, j)
                    return j
        return i - 1
