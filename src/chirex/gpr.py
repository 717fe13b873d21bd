"""GPR-graphs: vertex sets with one arrow permutation per label.

Arrow label k plays the role of the rotation generator sigma_k; the
Cayley GPR-graph of a rotary maniplex records the free action of its
even connection group on white flags. The module also houses the
mechanical verifier for the four-condition chiral extension criterion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .maniplex import (PreconditionError, Report, RootedManiplex, Symmetry,
                       classify_symmetry, forced_map_between, rotation_system)
from .maniplex import VerificationError  # noqa: F401  (re-exported)
from .permcore import DegreeMismatch, Perm, PermGroup, left_product, orbit_partition


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


def _restrict(G: GprGraph, verts) -> GprGraph:
    verts = sorted(verts)
    pos = {v: i for i, v in enumerate(verts)}
    arrows = []
    for a in G.arrows:
        try:
            arrows.append(Perm(pos[a.images[v]] for v in verts))
        except KeyError:
            raise ValueError("vertex set is not closed under the arrows")
    return GprGraph(rank=G.rank, arrows=tuple(arrows))


def rooted_digraph_isomorphic(G: GprGraph, H: GprGraph,
                              vertices=None) -> bool:
    """Label- and direction-preserving isomorphism test.

    G (optionally restricted to the given connected vertex set) is
    compared against H by forced extension from every candidate image
    of G's least vertex. This is the general test, for any H; the
    extension criterion does not call it, since its target is a Cayley
    graph and one root image is enough there
    (:func:`facet_components_isomorphic`).
    """
    if G.rank != H.rank:
        return False
    if vertices is not None:
        G = _restrict(G, vertices)
    V = G.num_vertices
    if V != H.num_vertices:
        return False
    rows_g = [a.images for a in G.arrows] + [a.inverse().images for a in G.arrows]
    rows_h = [a.images for a in H.arrows] + [a.inverse().images for a in H.arrows]
    for root_img in range(V):
        mapping = forced_map_between(rows_g, rows_h, 0, root_img)
        if mapping is not None and -1 not in mapping and len(set(mapping)) == V:
            return True
    return False


def facet_components_isomorphic(G: GprGraph, cay: GprGraph) -> bool:
    """True iff every component of G under its first cay.rank arrows is
    a labelled copy of the Cayley GPR-graph cay.

    Each component gets one forced map, from its least vertex to vertex
    0 of cay, along forward arrows only (the arrows are permutations, so
    they reach the whole component). One root image is enough: the
    arrows of cay generate a regular group, and its centraliser in the
    symmetric group, which is the group of label-preserving
    automorphisms of cay, is regular too (Dixon and Mortimer,
    *Permutation Groups*, 1996, 4.2), so an isomorphism can always be
    moved to send the least vertex to 0. A component is a copy iff its
    map is consistent on every arrow and a bijection onto cay's W
    vertices: injective, and defined on exactly W vertices.
    """
    W = cay.num_vertices
    rows = [(a.images, b.images) for a, b in zip(G.arrows, cay.arrows)]
    image = [-1] * G.num_vertices
    for root in range(G.num_vertices):
        if image[root] != -1:
            continue  # the first vertex not yet mapped is the least of its component
        image[root] = 0
        hit = bytearray(W)
        hit[0] = 1
        reached = [root]
        for a in reached:  # the growing list is the BFS queue
            b = image[a]
            for ra, rb in rows:
                a2, b2 = ra[a], rb[b]
                m = image[a2]
                if m == -1:
                    if hit[b2]:
                        return False
                    hit[b2] = 1
                    image[a2] = b2
                    reached.append(a2)
                elif m != b2:
                    return False
        if len(reached) != W:
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
    return PermGroup(G.num_vertices, G.arrows,
                     names=tuple("s%d" % k for k in range(1, G.rank + 1)))


def verify_extension_criterion(G: GprGraph, K: RootedManiplex) -> Report:
    """Check the four conditions under which a GPR-graph with labels
    1..n defines a chiral (n+1)-polytope with facets isomorphic to K.
    """
    n = G.rank
    if n < 2:
        raise PreconditionError("the criterion needs at least two labels, got %d" % n)
    if K.rank != n:
        raise PreconditionError("facet rank %d does not match label count %d" % (K.rank, n))
    if G.num_vertices == 0:
        raise PreconditionError("the GPR-graph has no vertices")
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
    q = sn.order()
    # condition 1 makes the facet subgroup regular on every facet
    # component; without it, membership needs a stabiliser chain
    facet_gens = G.arrows[: n - 1]
    H = FacetSubgroup(facet_gens) if all_iso else PermGroup(G.num_vertices, facet_gens)
    m = cyclic_meet_order(sn, H)
    # the least positive j with s_n^j in the facet subgroup is q/m
    report.add("cyclic-meet-trivial", m == 1,
               "" if m == 1 else "s_%d^%d lies in the facet subgroup" % (n, q // m))
    report.data["last_entry"] = q

    cond4 = True
    detail = ""
    for k in range(2, n):
        dblocks, dblock_of = components(G, range(k, n + 1))
        found = False
        for blk in components(G, range(k, n))[0]:
            v = blk[0]
            gblock = set(gblocks[gblock_of[v]])
            dblock = set(dblocks[dblock_of[v]])
            if set(blk) == gblock & dblock:
                found = True
                break
        if not found:
            cond4 = False
            detail = "no suitable {%d..%d}-component" % (k, n - 1)
            break
    report.add("component-intersection", cond4, detail)
    return report


def cyclic_meet_order(s: Perm, H) -> int:
    """The order m of <s> meet H, in at most log2 |s| membership tests
    (H is any group that supports ``in``).

    The meet is the subgroup of <s> of order m, for some m dividing
    q = |s|, and s^(q/k) lies in H exactly when k divides m. So m is the
    product, over the primes p of q, of the largest p^e with s^(q/p^e)
    in H. Every prime of q divides a cycle length of s.
    """
    lengths = s.cycle_lengths()
    q = math.lcm(*lengths)
    m = 1
    for p in sorted(_prime_divisors(lengths)):
        k = p
        while q % k == 0 and s ** (q // k) in H:
            m, k = m * p, k * p
    return m


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


def check_tau_relations(G: GprGraph, t: Perm) -> bool:
    """Relations forced on the matching involution t by the rotation
    group of the extended maniplex; relations whose generator index
    would be nonpositive are skipped."""
    n = G.rank
    if t.degree != G.num_vertices:
        raise PreconditionError("degree mismatch")
    if not (t * t).is_identity():
        return False

    def conj(p: Perm) -> Perm:
        # t p t as a left-action product (palindromic, so the reading
        # order does not matter)
        return left_product([t, p, t])

    if n - 2 >= 1:
        s = G.arrow(n - 2)
        if conj(s) != s.inverse():
            return False
    if n - 3 >= 1:
        s3, s2 = G.arrow(n - 3), G.arrow(n - 2)
        if conj(s3) != left_product([s3, s2, s2]):
            return False
    for i in range(1, n - 3):
        s = G.arrow(i)
        if conj(s) != s:
            return False
    return True
