"""GPR-graphs: vertex sets with one arrow permutation per label.

Arrow label k plays the role of the rotation generator sigma_k; the
Cayley GPR-graph of a rotary maniplex records the free action of its
even connection group on white flags. The module also houses the
mechanical verifier for the four-condition chiral extension criterion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from .maniplex import (PreconditionError, Report, RootedManiplex, Symmetry,
                       classify_symmetry, forced_map, rotation_system)
from .maniplex import VerificationError  # noqa: F401  (re-exported)
from .permcore import (DegreeMismatch, Perm, PermGroup, cycle_power, disjoint_union,
                       left_product, orbit_of, orbit_partition)


@dataclass(frozen=True)
class GprGraph:
    rank: int  # arrow labels 1..rank
    arrows: tuple[Perm, ...]  # arrows[k-1] is the label-k permutation

    def __post_init__(self):
        if len(self.arrows) != self.rank:
            raise ValueError("need one arrow permutation per label")
        degs = {a.degree for a in self.arrows}
        if len(degs) > 1:
            raise ValueError("arrow degrees disagree")

    @property
    def num_vertices(self) -> int:
        return self.arrows[0].degree

    def arrow(self, k: int) -> Perm:
        if not 1 <= k <= self.rank:
            raise IndexError("arrow label %d out of range 1..%d" % (k, self.rank))
        return self.arrows[k - 1]

    @cached_property
    def criterion_reports(self) -> dict:
        """The report of :func:`verify_extension_criterion` per facet map,
        stored by its first run on this graph; read-only."""
        return {}


def components(G: GprGraph, I) -> tuple[list[tuple[int, ...]], list[int]]:
    """Connected components under the arrows with labels in I, as
    :func:`orbit_partition`'s (blocks, block_of) pair."""
    return orbit_partition([G.arrow(k) for k in I], G.num_vertices)


def cayley_gpr(M: RootedManiplex) -> GprGraph:
    """Cayley GPR-graph on white flags; arrow k is the action of s_k."""
    if classify_symmetry(M) is Symmetry.OTHER:
        raise PreconditionError("Cayley GPR-graph needs a rotary maniplex")
    rs = rotation_system(M)
    return GprGraph(rank=M.rank - 1, arrows=rs.sigma)


def rooted_digraph_isomorphic(G: GprGraph, H: GprGraph,
                              vertices=None) -> bool:
    """Label- and direction-preserving isomorphism test.

    G (optionally restricted to the given connected vertex set, which
    must be closed under the arrows) is compared against H by forced
    extension from every candidate image of its least vertex. This is
    the general test, for any H; the extension criterion does not call
    it, since its target is a Cayley graph and one root image is enough
    there (:func:`facet_components_isomorphic`).
    """
    if G.rank != H.rank:
        return False
    rows_g = [a.images for a in G.arrows]
    verts = range(G.num_vertices) if vertices is None else sorted(vertices)
    inside = set(verts)
    if any(row[v] not in inside for row in rows_g for v in verts):
        raise ValueError("vertex set is not closed under the arrows")
    V = len(verts)
    if V != H.num_vertices:
        return False
    rows_h = [a.images for a in H.arrows]
    for root_img in range(V):
        image = [-1] * G.num_vertices
        reached = forced_map(rows_g, rows_h, verts[0], root_img, image)
        if reached is not None and len(reached) == V and len({image[v] for v in reached}) == V:
            return True
    return False


def facet_components_isomorphic(G: GprGraph, cay: GprGraph) -> bool:
    """True iff every component of G under its first cay.rank arrows is
    a labelled copy of the Cayley GPR-graph cay.

    Each component gets one forced map, from its least vertex to vertex
    0 of cay. One root image is enough: the arrows of cay generate a
    regular group, and its centraliser in the symmetric group, which is
    the group of label-preserving automorphisms of cay, is regular too
    (Dixon and Mortimer, *Permutation Groups*, 1996, 4.2), so an
    isomorphism can always be moved to send the least vertex to 0. A
    component is a copy iff its map is consistent on every arrow and a
    bijection onto cay's W vertices: defined on exactly W vertices, with
    W distinct images.
    """
    W = cay.num_vertices
    rows_g = [a.images for a in G.arrows[:cay.rank]]
    rows_c = [a.images for a in cay.arrows]
    image = [-1] * G.num_vertices
    for root in range(G.num_vertices):
        if image[root] != -1:
            continue  # the first vertex not yet mapped is the least of its component
        reached = forced_map(rows_g, rows_c, root, 0, image)
        if reached is None or len(reached) != W or len({image[a] for a in reached}) != W:
            return False
    return True


class FacetSubgroup:
    """The group H generated by the given arrows, for arrows under which
    only the identity of H fixes vertex 0.

    That holds for the facet subgroup of a GPR-graph whose facet
    components are all labelled copies of one Cayley graph: a word in the
    arrows is trivial on one copy iff it is trivial on all of them, and H
    acts regularly on each copy. The element of H sending 0 to v is then
    unique, and it is the product of the arrows along the BFS-tree path
    from 0 to v. So H holds g iff g(0) lies in the component of 0 and g
    equals that path word on every point. A True answer is certified
    directly, since the path word lies in H; a False one rests on the
    regularity.
    """

    def __init__(self, arrows):
        import numpy as np
        self._np = np
        self.degree = arrows[0].degree
        self._arrays = [np.array(a.images, dtype=np.intp) for a in arrows]
        rows = [a.images for a in arrows]
        self._tree = {0: None}  # vertex -> (BFS parent, arrow index)
        order = [0]
        for p in order:  # the growing list is the BFS queue
            for k, row in enumerate(rows):
                q = row[p]
                if q not in self._tree:
                    self._tree[q] = (p, k)
                    order.append(q)

    def __contains__(self, g: Perm) -> bool:
        if g.degree != self.degree:
            raise DegreeMismatch("element degree %d != group degree %d" % (g.degree, self.degree))
        v = g.images[0]
        if v not in self._tree:
            return False
        letters = []
        while v != 0:
            v, k = self._tree[v]
            letters.append(k)
        np = self._np
        word = np.arange(self.degree)
        for k in reversed(letters):  # from 0 outwards: apply each arrow after the last
            word = self._arrays[k][word]
        return np.array_equal(word, g.images)


def gpr_group(G: GprGraph) -> PermGroup:
    return PermGroup(G.num_vertices, G.arrows)


def faithful_group(G: GprGraph) -> PermGroup:
    """A permutation group isomorphic to ``gpr_group(G)``, on W + c points
    where the arrows allow it, so its order is |gpr_group(G)|.

    W is the size of the facet component of vertex 0 (labels 1..n-1) and
    c = V / W. If W divides V, W + c < V and every arrow is a product map
    lW + w -> pi(l)W + sigma(w) on c copies of W points, the result is
    generated by the arrows' sigma acting on 0..W-1 beside their pi on
    W..W+c-1; otherwise it is ``gpr_group(G)``.

    The two groups are isomorphic. An arrow is a bijection, so its sigma
    and pi are too. The product of two product maps is the product map
    of (sigma sigma', pi pi'), so every element of the group generated by
    the arrows is a product map, and g -> (sigma_g, pi_g) is a
    homomorphism onto the group generated by the pairs. It is injective,
    since g(lW + w) = pi_g(l)W + sigma_g(w) recovers g from its pair. And
    a pair acts faithfully on the disjoint union of W points and c copies.

    Every unseeded or seeded s = 1 extension is of this form
    (:func:`chirex.extend_db.build_matching`), so its order is taken on
    W + 2 points instead of 2W; an extension at s >= 2 is not.
    """
    V, n = G.num_vertices, G.rank
    W = len(orbit_of(0, G.arrows[:n - 1]))
    c = V // W
    if V % W or W + c >= V:
        return gpr_group(G)
    import numpy as np
    copy, flag = np.divmod(np.array([a.images for a in G.arrows]).reshape(n, c, W), W)
    if not ((flag == flag[:, :1]).all() and (copy == copy[:, :, :1]).all()):
        return gpr_group(G)
    return PermGroup(W + c, [Perm(disjoint_union(sigma, pi)) for sigma, pi
                             in zip(flag[:, 0].tolist(), copy[:, :, 0].tolist())])


def verify_extension_criterion(G: GprGraph, K: RootedManiplex) -> Report:
    """Check the four conditions under which a GPR-graph with labels
    1..n defines a chiral (n+1)-polytope with facets isomorphic to K.

    The report is computed once per graph and facet map and kept on G
    (``G.criterion_reports``); a later call returns the same report.
    """
    n = G.rank
    if n < 2:
        raise PreconditionError("the criterion needs at least two labels, got %d" % n)
    if K.rank != n:
        raise PreconditionError("facet rank %d does not match label count %d" % (K.rank, n))
    if G.num_vertices == 0:
        raise PreconditionError("the GPR-graph has no vertices")
    if K in G.criterion_reports:
        return G.criterion_reports[K]
    report = Report()
    cay = cayley_gpr(K)

    facet_labels = range(1, n)
    gblocks, gblock_of = components(G, facet_labels)
    all_iso = facet_components_isomorphic(G, cay)
    report.add("facet-components-isomorphic", all_iso,
               "%d components of size %s" % (len(gblocks), sorted({len(b) for b in gblocks})))

    involutory = True
    detail = ""
    for k in range(1, n):
        prod = left_product([G.arrow(i) for i in range(k, n + 1)])
        if not (prod * prod).is_identity():
            involutory = False
            detail = "(s_%d...s_%d)^2 is not trivial" % (k, n)
            break
    report.add("suffix-products-involutory", involutory, detail)

    sn = G.arrow(n)
    # condition 1 makes the facet subgroup regular on every facet
    # component; without it, membership needs a stabiliser chain
    facet_gens = G.arrows[: n - 1]
    H = FacetSubgroup(facet_gens) if all_iso else PermGroup(G.num_vertices, facet_gens)
    q, m = cyclic_meet_order(sn, H)
    # the least positive j with s_n^j in the facet subgroup is q/m
    report.add("cyclic-meet-trivial", m == 1,
               "" if m == 1 else "s_%d^%d lies in the facet subgroup" % (n, q // m))
    report.data["last_entry"] = q

    k = unmatched_component_level(G, gblocks, gblock_of)
    report.add("component-intersection", k is None,
               "" if k is None else "no suitable {%d..%d}-component" % (k, n - 1))
    G.criterion_reports[K] = report
    return report


def unmatched_component_level(G: GprGraph, gblocks, gblock_of) -> int | None:
    """Condition 4: the least k in 2..n-1 at which no {k..n-1}-component
    is the meet of its facet component (in ``gblocks``) and its
    {k..n}-component, or None. Components are visited by least vertex up
    to the first match, and each {k..n}-orbit is labelled once."""
    n, V = G.rank, G.num_vertices
    for k in range(2, n):
        inner = [G.arrow(i) for i in range(k, n)]
        outer = inner + [G.arrow(n)]
        seen = bytearray(V)
        outer_of = [-1] * V  # the least vertex of the labelled {k..n}-orbit
        for v in range(V):
            if seen[v]:
                continue  # the first unseen vertex is the least of its component
            blk = orbit_of(v, inner)
            for x in blk:
                seen[x] = 1
            if outer_of[v] < 0:
                for x in orbit_of(v, outer):
                    outer_of[x] = v
            # blk lies in both blocks, so it is their meet iff the sizes agree
            if len(blk) == sum(1 for x in gblocks[gblock_of[v]] if outer_of[x] == outer_of[v]):
                break
        else:
            return k
    return None


def cyclic_meet_order(s: Perm, H) -> tuple[int, int]:
    """(q, m): the order q of s and the order m of <s> meet H, in at most
    log2 q membership tests (H is any group that supports ``in``).

    The meet is the subgroup of <s> of order m, for some m dividing
    q = |s|, and s^(q/k) lies in H exactly when k divides m. So m is the
    product, over the primes p of q, of the largest p^e with s^(q/p^e)
    in H. Every prime of q divides a cycle length of s. s is decomposed
    into cycles once: q is the lcm of their lengths, and each tested
    power turns the same cycles (:func:`cycle_power`), one pass over the
    points per test.
    """
    cycles = s.cycles()
    lengths = {len(c) for c in cycles}
    q = math.lcm(*lengths)
    m = 1
    for p in sorted(_prime_divisors(lengths)):
        k = p
        while q % k == 0 and cycle_power(s.degree, cycles, q // k) in H:
            m, k = m * p, k * p
    return q, m


def _prime_divisors(numbers) -> set[int]:
    """The primes dividing some of the numbers, by trial division."""
    primes = set()
    for n in numbers:
        p = 2
        while p * p <= n:
            if n % p == 0:
                primes.add(p)
                while n % p == 0:
                    n //= p
            p += 1
        if n > 1:
            primes.add(n)
    return primes


def rho_bar(facet_gens) -> list[Perm]:
    """Images of the facet generators s_1..s_m under the involutory
    automorphism of the facet group that sends s_m to its inverse and
    s_{m-1} to s_{m-1} s_m^2 and fixes the others; it exists because the
    facets are regular."""
    out = list(facet_gens)
    if out:
        out[-1] = facet_gens[-1].inverse()
    if len(out) >= 2:
        out[-2] = left_product([facet_gens[-2], facet_gens[-1], facet_gens[-1]])
    return out


def check_tau_relations(G: GprGraph, t: Perm) -> bool:
    """The relations forced on the matching involution t by the rotation
    group of the extended maniplex: t^2 = 1, and t g t = rho_bar(g) for
    the generators g = s_1..s_{n-2}."""
    if t.degree != G.num_vertices:
        raise PreconditionError("degree mismatch")
    if not (t * t).is_identity():
        return False
    facet = G.arrows[: G.rank - 2]
    # t g t is palindromic, so the reading order does not matter
    return all(left_product([t, g, t]) == r for g, r in zip(facet, rho_bar(facet)))
