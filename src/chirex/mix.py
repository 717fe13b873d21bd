"""Diamond (mix) products of permutation groups and the pipeline that
extends a chiral polytope through a regular quotient.

The diamond of two groups with paired generators acts on the disjoint
union of their point sets; its order against the factor orders decides
covering and homomorphism questions, and a free-tuple action lets the
intersection property be checked directly on the product.

The quotient pipeline proves its two expensive claims about the mix by
certificate instead of on the whole mix group, whose stabiliser chain is
quadratic in the degree:

- chirality: a mirror automorphism of the mix restricts to one of the
  facet subgroup, so a chiral facet subgroup certifies a chiral mix;
- the intersection property at rank 4: by Schulte and Weiss, *Chiral
  polytopes* (1991), it reduces to <s1> & <s2> = 1, <s2> & <s3> = 1 and
  <s1,s2> & <s2,s3> = <s2>, and each of these follows from the extension
  criterion for the chiral extension and the facet projection being
  injective.

The group order of the mix is never computed by the pipeline; a caller
that reports it asks the result's group for it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations

from .gpr import GprGraph, verify_extension_criterion
from .maniplex import (PreconditionError, Report, RootedManiplex, Symmetry,
                       VerificationError, classify_symmetry, covers, facets,
                       rotation_system, tau)
from .permcore import Perm, PermGroup, disjoint_union, left_product
from .two_s_m import build_two_s_m


def paired_perm(g: Perm, h: Perm) -> Perm:
    """g and h acting side by side on the disjoint union of their points."""
    return Perm(disjoint_union(g.images, h.images))


def diamond(G: PermGroup, H: PermGroup) -> PermGroup:
    """Subgroup of G x H generated by positionally paired generators."""
    if len(G.generators) != len(H.generators):
        raise PreconditionError("diamond needs equal generator counts")
    gens = [paired_perm(g, h) for g, h in zip(G.generators, H.generators)]
    return PermGroup(G.degree + H.degree, gens)


def enantiomorph_generators(sigma) -> list[Perm]:
    """Mirror generators: (s_1^{-1}, s_1^2 s_2, s_3, ..., s_{n-1})."""
    sigma = list(sigma)
    if not sigma:
        raise PreconditionError("need at least one rotation generator")
    out = [sigma[0].inverse()]
    if len(sigma) > 1:
        out.append(left_product([sigma[0], sigma[0], sigma[1]]))
        out.extend(sigma[2:])
    return out


def is_regular_via_mix(G: PermGroup) -> bool:
    """True iff mapping each rotation generator of G to its mirror extends
    to a group automorphism, tested by the order of the diamond of the
    group with its mirrored self: the diamond projects onto G, and the
    map extends iff the projection is injective."""
    H = PermGroup(G.degree, enantiomorph_generators(G.generators))
    return diamond(G, H).order() == G.order()


def _enumerate_elements(gens, degree: int, cap: int):
    """All elements of the generated group, or None once past the cap."""
    ident = Perm.identity(degree)
    seen = {ident}
    reached = [ident]
    for p in reached:  # the growing list is the BFS queue
        for g in gens:
            q = p * g
            if q not in seen:
                if len(seen) >= cap:
                    return None
                seen.add(q)
                reached.append(q)
    return seen


def intersection_property_group(sigma, cap: int = 1_000_000) -> tuple[bool, tuple | None]:
    """Intersection property for a rotation-generator list.

    For every pair of index sets I, J (neither containing the other,
    the nested pairs being trivially correct) the subgroup generated by
    the tau elements of the smaller side is enumerated and its members
    sifted through the larger side's stabiliser chain; the member count
    must equal the order of the subgroup for the intersected index set.
    Raises if both sides of some pair exceed the enumeration cap.
    """
    sigma = tuple(sigma)
    degree = sigma[0].degree
    n = len(sigma) + 1  # rank of the would-be polytope
    subsets = []
    for size in range(n + 1):
        subsets.extend(combinations(range(n), size))
    groups: dict[tuple, PermGroup] = {}
    orders: dict[tuple, int] = {}

    def group_for(I) -> PermGroup:
        if I not in groups:
            gens = [tau(sigma, i, j) for i, j in combinations(I, 2)]
            groups[I] = PermGroup(degree, gens)
        return groups[I]

    def order_for(I) -> int:
        if I not in orders:
            orders[I] = group_for(I).order()
        return orders[I]

    elements: dict[tuple, set | None] = {}

    def elems(I):
        if I not in elements:
            elements[I] = _enumerate_elements(group_for(I).generators, degree, cap)
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


@dataclass
class MixExtensionResult:
    group: PermGroup
    schlafli: list[int]
    q: int  # last entry of the seed extension
    s: int
    report: Report = field(default_factory=Report)


def regular_quotient_extension(P: GprGraph, K: RootedManiplex,
                               R: RootedManiplex, s: int) -> MixExtensionResult:
    """Mix a chiral extension P of K with 2s^R for a regular quotient R
    of K; verifies every hypothesis and the lcm law for the last entry.

    P is given as its GPR-graph (labels 1..n with arrows sigma_1..sigma_n
    of the extension's rotation group). The mix is the diamond of the
    rotation groups of P and 2s^R, and it projects onto Gamma(P).

    Two verdicts are certified without the mix's stabiliser chain:

    - ``intersection-property`` for a rank-4 result (n == 3). Schulte and
      Weiss, *Chiral polytopes* (1991), reduce the intersection property
      at rank 4 to three meets: <s1> & <s2> = 1, <s2> & <s3> = 1 and
      <s1,s2> & <s2,s3> = <s2>. Gamma(P) satisfies them, since the
      extension criterion for P certifies that P is a chiral polytope; P
      keeps its report, so a P that extend_dually_bipartite verified is
      not checked again. Each meet of the mix lies in the facet subgroup
      <s1, s2>, where the projection onto Gamma(P) is injective
      (``facet-projection-collapses``), and it projects into the same
      meet of Gamma(P); so it is no larger there. Other ranks enumerate
      the subgroups (:func:`intersection_property_group`).
    - ``result-chiral``. A mirror automorphism of the mix sends s1 to
      s1^-1 and s2 to s1^2 s2, inside the facet subgroup, so it restricts
      to a mirror automorphism of that subgroup. So the diamond of the
      facet subgroup alone decides; the whole mix's diamond is never built.

    The group order of the mix is left to callers that report it
    (``result.group.order()``).
    """
    n = K.rank
    if P.rank != n:
        raise PreconditionError("extension graph labels must match the facet rank")
    if n < 2:
        raise PreconditionError("the extension needs at least two labels, got %d" % n)
    if R.rank != n:
        raise PreconditionError("quotient rank %d differs from the facet rank %d" % (R.rank, n))
    result = MixExtensionResult(group=None, schlafli=[], q=0, s=s)

    def check(name: str, ok: bool, detail: str = "") -> None:
        result.report.add(name, ok, "" if ok else detail)
        if not ok:
            raise VerificationError("%s: %s" % (name, detail or "failed"))

    result.report.add("facet-rank", True)  # a mismatch raised above
    check("quotient-regular", classify_symmetry(R) is Symmetry.REGULAR,
          "quotient is not regular")
    check("quotient-facets", len(facets(R.maniplex)) >= 2,
          "quotient has fewer than two facets")
    check("covers-quotient", covers(K, R) is not None,
          "the input does not cover the quotient")

    criterion = verify_extension_criterion(P, K)
    check("facets-of-extension", "facet-components-isomorphic" not in criterion.failing(),
          "a facet component of the extension is not the expected Cayley graph")
    check("extension-chiral-facets", classify_symmetry(K) is Symmetry.CHIRAL,
          "facet polytope is not chiral")

    tsm = build_two_s_m(R, s)
    check("twosm-regular", classify_symmetry(tsm.rooted) is Symmetry.REGULAR,
          "2s^R is not regular")
    rs2 = rotation_system(tsm.rooted)  # n generators on white flags

    q = criterion.data["last_entry"]  # the order of P's arrow n
    result.q = q
    paired = tuple(paired_perm(P.arrow(k), rs2.sigma[k - 1]) for k in range(1, n + 1))
    result.group = PermGroup(paired[0].degree, paired)

    # the mix projects onto <P.arrows>, so the projection is an isomorphism
    # on the facet subgroup iff the orders agree; by facets-of-extension P's
    # facet subgroup acts regularly on each copy of Cay(K) (gpr.FacetSubgroup)
    # and has order W, the white-flag count
    facet_group = PermGroup(paired[0].degree, paired[:-1])
    facet_order = facet_group.order()
    white_count = rotation_system(K).degree
    check("facet-projection-collapses", facet_order == white_count,
          "facet subgroup of the mix does not project isomorphically")
    check("facet-subgroup-order", facet_order == white_count,
          "facet subgroup order %d != white flag count %d" % (facet_order, white_count))
    result.report.data["facet_order"] = facet_order

    if n == 3:
        # a failing criterion leaves the property unproved, not disproved
        check("intersection-property", criterion.passed,
              "not certified: the extension criterion fails (%s), so P is not "
              "shown to be a chiral polytope" % ", ".join(criterion.failing()))
    else:
        ok, witness = intersection_property_group(paired)
        check("intersection-property", ok, "failing pair %s" % (witness,))

    last = paired[-1].order()
    expected = math.lcm(q, 2 * s)
    check("last-entry-lcm", last == expected,
          "last entry %d != lcm(%d, %d) = %d" % (last, q, 2 * s, expected))
    check("lcm-is-lcm-of-orders", last == math.lcm(q, rs2.sigma[n - 1].order()),
          "disjoint-support order law violated")

    check("result-chiral", not is_regular_via_mix(facet_group),
          "mirror map extends to an automorphism of the facet subgroup")

    result.schlafli = [p.order() for p in paired]
    return result
