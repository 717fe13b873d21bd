"""Chiral extension of a dually-bipartite chiral polytope.

Takes 2s copies of the Cayley GPR-graph of K and joins them by a
perfect matching assembled in four steps; the matching involution t
yields the new generator s_n = s_{n-1}^{-1} t. Every property the
construction promises is re-verified on the result.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .gpr import GprGraph, check_tau_relations, rho_bar, verify_extension_criterion
from .maniplex import (MAX_FLAGS, PreconditionError, Report, RootedManiplex, Symmetry,
                       VerificationError, classify_symmetry, dually_bipartite_colouring,
                       forced_map, rotation_system)
from .permcore import Perm, orbit_of, orbit_partition


@dataclass(frozen=True)
class Matching:
    num_copies: int
    partner: tuple[int, ...]  # vertex -> matched vertex

    def is_perfect(self) -> bool:
        return all(p != v and self.partner[p] == v for v, p in enumerate(self.partner))


@dataclass
class DbExtensionResult:
    graph: GprGraph
    t: Perm
    matching: Matching
    report: Report
    last_entry: int
    s: int
    base_vertex: int


def _check_preconditions(K: RootedManiplex) -> list[int]:
    """The facet 2-colouring of K, after checking every input condition."""
    man = K.maniplex
    if K.rank < 3:
        raise PreconditionError("extension needs rank at least 3")
    if classify_symmetry(K) is not Symmetry.CHIRAL:
        raise PreconditionError("input maniplex is not chiral")
    colouring = dually_bipartite_colouring(man, K.base_flag)
    if colouring is None:
        raise PreconditionError("input maniplex is not dually bipartite")
    # K is chiral, so its facets are rotary, and they are regular iff the
    # base facet has an automorphism sending the base flag to its
    # 0-neighbour (all facets are isomorphic by flag transitivity)
    rows = [r.images for r in man.adjacency[:-1]]
    base = K.base_flag
    if forced_map(rows, rows, base, rows[0][base], [-1] * man.num_flags) is None:
        raise PreconditionError("facets of the input are not regular")
    return colouring


def build_matching(K: RootedManiplex, colouring, s: int,
                   seed: int | None = None) -> Matching:
    """The four-step matching on 2s copies of the white flags of K.

    ``colouring`` is the facet 2-colouring (values +-1). With no seed
    the Step 3 representative is the least-index eligible flag;
    otherwise it is drawn from a seeded RNG.
    """
    if s < 1:
        raise PreconditionError("s must be positive")
    rs = rotation_system(K)
    n = K.rank
    W = rs.degree
    copies = 2 * s
    if W * copies > MAX_FLAGS:
        raise PreconditionError("the extension would have %d vertices, more than the %d allowed"
                                % (W * copies, MAX_FLAGS))
    rng = random.Random(seed) if seed is not None else None

    _, facet_of_flag = K.maniplex.facet_partition
    cbar = [colouring[facet_of_flag[f]] for f in rs.white_flags]
    w0 = rs.base
    if cbar[w0] != 1:
        cbar = [-c for c in cbar]

    def vid(flag: int, ell: int) -> int:
        return ell * W + flag

    partner = [-1] * (W * copies)

    def match(u: int, v: int) -> None:
        for a, b in ((u, v), (v, u)):
            if partner[a] not in (-1, b):
                raise VerificationError("matching steps conflict at vertex %d" % a)
            partner[a] = b

    # steps 1 and 2: the orbit of the base flag under s_{n-1}, walked once;
    # s_{n-1}^j w0 and s_{n-1}^{-j} w0 depend on j mod the cycle's length
    cycle = orbit_of(w0, [rs.sigma[n - 2]])
    for ell in range(copies):
        sign = 1 if ell % 2 == 0 else -1
        for j, a in enumerate(cycle):
            b = cycle[-j]
            match(vid(a, ell), vid(b, (ell + sign * cbar[a]) % copies))

    # orbits E_k of the base flag under <s_k .. s_{n-1}>
    orbit_k = {}
    for k in range(1, n):
        orbit_k[k] = frozenset(orbit_of(w0, rs.sigma[k - 1:]))

    # {1..n-2}-components of the white flags
    facet_comps, comp_of = orbit_partition(rs.sigma[: n - 2], W)

    base_orbit = orbit_k[n - 1]  # flags s_{n-1}^j w0, handled by steps 1-2
    # step 3: anchor the remaining components, odd copies choose
    for comp in facet_comps:
        if any(f in base_orbit for f in comp):
            continue
        k = max(k for k in range(1, n - 1) if any(f in orbit_k[k] for f in comp))
        eligible = sorted(f for f in comp if f in orbit_k[k])
        for ell in range(1, copies, 2):
            phi_f = rng.choice(eligible) if rng is not None else eligible[0]
            # odd copy: (-1)^ell = -1
            match(vid(phi_f, ell), vid(phi_f, (ell - cbar[phi_f]) % copies))

    # every component of every copy must now hold exactly one anchor
    anchor: dict[tuple[int, int], int] = {}
    for v, p in enumerate(partner):
        if p != -1:
            ell, flag = divmod(v, W)
            if anchor.setdefault((ell, comp_of[flag]), v) != v:
                raise VerificationError("component has two matched anchors")
    if len(anchor) != copies * len(facet_comps):
        raise VerificationError("component without a matched anchor")

    # step 4: spread each anchor edge over its component via rho. A flag
    # u = L v reached by the letter L gets the target rho(L) t(v): the
    # forced map from the letters s_1..s_{n-2} to their rho images gives
    # every flag the target of its BFS tree word, and every other edge must
    # agree with it. Forward letters suffice: they are permutations, so
    # they reach the whole component, and a map consistent on an edge is
    # consistent on its inverse.
    facet = rs.sigma[: n - 2]
    letters = [g.images for g in facet]
    images = [r.images for r in rho_bar(facet)]
    for (ell, ci), av in anchor.items():
        target = [-1] * W
        ell2, psi = divmod(partner[av], W)
        reached = forced_map(letters, images, av % W, psi, target)
        if reached is None:
            raise VerificationError("rho is not consistent on facet component %d" % ci)
        for u in reached[1:]:
            match(vid(u, ell), vid(target[u], ell2))

    matching = Matching(num_copies=copies, partner=tuple(partner))
    if not matching.is_perfect():
        raise VerificationError("constructed matching is not perfect")
    for v, p in enumerate(matching.partner):
        if (v // W) % 2 == (p // W) % 2:
            raise VerificationError("matched copies share a parity")
    return matching


def extend_dually_bipartite(K: RootedManiplex, s: int,
                            seed: int | None = None) -> DbExtensionResult:
    """Run the matching construction and verify everything it claims."""
    colouring = _check_preconditions(K)
    matching = build_matching(K, colouring, s, seed)
    rs = rotation_system(K)
    n = K.rank
    W = rs.degree
    copies = 2 * s

    def widen(p: Perm) -> Perm:
        return Perm([ell * W + x for ell in range(copies) for x in p.images])

    t = Perm(matching.partner)
    arrows = [widen(g) for g in rs.sigma]
    s_last_inv = widen(rs.sigma[n - 2].inverse())
    # s_n = s_{n-1}^{-1} t: apply t first
    arrows.append(t * s_last_inv)
    G = GprGraph(rank=n, arrows=tuple(arrows))

    if not check_tau_relations(G, t):
        raise VerificationError("matching involution violates the forced relations")
    report = verify_extension_criterion(G, K)
    if not report.passed:
        raise VerificationError("extension criterion failed: %s" % ", ".join(report.failing()))

    base_vertex = rs.base  # copy 0
    sn = G.arrow(n)
    orb = orbit_of(base_vertex, [sn])
    if len(orb) != copies:
        raise VerificationError("base orbit under the new generator has length %d, wanted %d"
                                % (len(orb), copies))
    last_entry = report.data["last_entry"]
    if last_entry % copies != 0:
        raise VerificationError("2s does not divide the last Schlafli entry")
    return DbExtensionResult(graph=G, t=t, matching=matching, report=report,
                             last_entry=last_entry, s=s, base_vertex=base_vertex)
