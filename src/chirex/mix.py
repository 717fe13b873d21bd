"""Diamond (mix) products of permutation groups and the pipeline that
extends a chiral polytope through a regular quotient.

The diamond of two groups with paired generators acts on the disjoint
union of their point sets; its order against the factor orders decides
covering and homomorphism questions.

When the first group acts regularly on the orbit of one point, the same
question needs no order: the generator map extends to a homomorphism iff
one forced map per orbit of the second group succeeds
(:func:`extension_obstruction`).

The quotient pipeline takes rank-3 facets and proves its three expensive
claims about the rank-4 mix by certificate, building no stabiliser chain:

- the facet projection: P's facet subgroup acts regularly on the facet
  component of vertex 0, so the mix's facet subgroup projects onto it
  isomorphically iff the map to 2s^R's facet subgroup extends;
- chirality: a mirror automorphism of the mix restricts to one of the
  facet subgroup, which is isomorphic to P's, so a chiral facet subgroup
  of P certifies a chiral mix;
- the intersection property: it follows from the extension criterion for
  the chiral extension and the facet projection being injective
  (:func:`intersection_property_group`).

The group order of the mix is never computed by the pipeline; a caller
that reports it asks the result's group for it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .gpr import (GprGraph, cayley_gpr, facet_components_isomorphic, gpr_group,
                  verify_extension_criterion)
from .maniplex import (PreconditionError, Report, RootedManiplex, Symmetry,
                       VerificationError, classify_symmetry, covers, facets,
                       forced_map, rotation_system)
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


def extension_obstruction(G, H) -> int | None:
    """Whether the map G[i] -> H[i] of paired generators extends to a
    homomorphism <G> -> <H>, for permutation lists G and H of equal length
    where <G> acts regularly on the orbit of point 0: None if it extends,
    else a point y of H's at which the forced map 0 -> y fails.

    A success needs no hypothesis: a word trivial in <G> fixes 0, so if
    the forced map 0 -> y succeeds, the word in H's generators fixes y.
    Those words form a normal subgroup of <H>, so it fixes y's whole orbit,
    and one success per orbit of <H> certifies the homomorphism. A failure
    rests on the caller's word that only the identity of <G> fixes 0: a
    homomorphism then sends the one element taking 0 to x to an element
    taking y to one point, so no forced map fails. A success maps the
    orbit of 0 onto the orbit of y, so each orbit of <H> costs one map.
    """
    if not G or len(G) != len(H):
        raise PreconditionError("need equal, nonzero generator counts")
    rows_g = [g.images for g in G]
    rows_h = [h.images for h in H]
    image = [-1] * len(rows_g[0])
    covered = bytearray(len(rows_h[0]))
    for y in range(len(covered)):
        if covered[y]:
            continue
        reached = forced_map(rows_g, rows_h, 0, y, image)
        if reached is None:
            return y
        for a in reached:
            covered[image[a]] = 1
            image[a] = -1
    return None


def intersection_property_group(criterion: Report) -> tuple[bool, str]:
    """The intersection property of the rank-4 mix of P and 2s^R, certified
    from ``criterion``, the extension criterion's report for P.

    Schulte and Weiss, *Chiral polytopes* (1991), reduce the intersection
    property at rank 4 to three meets: <s1> & <s2> = 1, <s2> & <s3> = 1 and
    <s1,s2> & <s2,s3> = <s2>. Gamma(P) satisfies them, since the extension
    criterion for P certifies that P is a chiral polytope; P keeps its
    report, so a P that extend_dually_bipartite verified is not checked
    again. Each meet of the mix lies in the facet subgroup <s1, s2>, where
    the projection onto Gamma(P) is injective
    (``facet-projection-collapses``), and it projects into the same meet of
    Gamma(P); so it is no larger there. A failing criterion leaves the
    property unproved, not disproved.
    """
    if criterion.passed:
        return True, ""
    return False, ("not certified: the extension criterion fails (%s), so P is not "
                   "shown to be a chiral polytope" % ", ".join(criterion.failing()))


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

    K is a rank-3 map, so the result has rank 4; another rank is refused.
    P is given as its GPR-graph (labels 1..3 with arrows sigma_1..sigma_3
    of the extension's rotation group). The mix is the diamond of the
    rotation groups of P and 2s^R, and it projects onto Gamma(P): P's
    vertices are the points 0..V-1, on which Gamma(P) is transitive, so
    they are the orbit of point 0 and the mix's constituent there is
    Gamma(P), whose order is ``result.group.orbit_order()``.

    No verdict of the mix builds a stabiliser chain. P's criterion would
    build one for its cyclic meet when P's facet components are not copies
    of Cay(K), so ``facets-of-extension`` decides that first, by
    :func:`facet_components_isomorphic`, and refuses P before the criterion
    runs; when the criterion has already run on P and K (as after
    ``extend_dually_bipartite``), it reads that check's verdict from P's
    stored report instead. With that check passed, P's
    facet subgroup F_P = <s1, s2> acts regularly on C0, the component of
    vertex 0, so only its identity fixes 0, and its order is W, K's
    white-flag count. Three verdicts rest on that:

    - ``facet-projection-collapses`` (and ``facet-subgroup-order``, which
      reads the same certificate). The mix's facet subgroup projects onto
      F_P, injectively iff s_i -> t_i extends to a homomorphism onto
      2s^R's facet subgroup <t1, t2>; then its order is W. That holds iff
      the forced map of C0 succeeds from one point of each orbit of
      <t1, t2> (:func:`extension_obstruction`), and, once
      ``twosm-regular`` has passed, iff the one map 0 -> white flag 0
      succeeds: the orientation-preserving automorphisms of 2s^R commute
      with t1 and t2 and are transitive on its white flags, so composed
      with them that map reaches every other orbit. A failure names
      white flag 0, the point ``extension_obstruction`` tries first.
    - ``result-chiral``. A mirror automorphism of the mix sends s1 to
      s1^-1 and s2 to s1^2 s2, inside the facet subgroup, so it restricts
      to a mirror automorphism of that subgroup, which is isomorphic to
      F_P. So the mix is chiral if the mirror map of F_P does not extend,
      decided by the forced maps of C0 into P's vertices under the mirror
      generators.
    - ``intersection-property``, from P's extension criterion and the
      injective facet projection (:func:`intersection_property_group`).

    The group order of the mix is left to callers that report it
    (``result.group.order()``).
    """
    n = K.rank
    if P.rank != n:
        raise PreconditionError("extension graph labels must match the facet rank")
    if n != 3:
        raise PreconditionError("the mix is certified for rank-3 facets only, got rank %d" % n)
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

    known = P.criterion_reports.get(K)  # the criterion's report, if it has run on P and K
    if known is None:
        facets_ok = facet_components_isomorphic(P, cayley_gpr(K))
    else:
        facets_ok = "facet-components-isomorphic" not in known.failing()
    check("facets-of-extension", facets_ok,
          "a facet component of the extension is not the expected Cayley graph")
    criterion = verify_extension_criterion(P, K)
    check("extension-chiral-facets", classify_symmetry(K) is Symmetry.CHIRAL,
          "facet polytope is not chiral")

    tsm = build_two_s_m(R, s)
    check("twosm-regular", classify_symmetry(tsm.rooted) is Symmetry.REGULAR,
          "2s^R is not regular")
    rs2 = rotation_system(tsm.rooted)  # n generators on white flags

    q = criterion.data["last_entry"]  # the order of P's arrow n
    result.q = q
    result.group = diamond(gpr_group(P), PermGroup(rs2.degree, rs2.sigma))
    gens = result.group.generators

    facet_arrows = P.arrows[:-1]
    # 2s^R is regular, so one forced map decides for every orbit of <t1, t2>
    y = 0 if forced_map([a.images for a in facet_arrows], [t.images for t in rs2.sigma[:-1]],
                        0, 0, [-1] * P.num_vertices) is None else None
    white_count = rotation_system(K).degree
    check("facet-projection-collapses", y is None,
          "facet subgroup of the mix does not project isomorphically: the forced "
          "map of vertex 0 to 2s^R's white flag %s fails" % y)
    check("facet-subgroup-order", y is None,
          "facet subgroup order exceeds the white flag count %d" % white_count)
    result.report.data["facet_order"] = white_count

    check("intersection-property", *intersection_property_group(criterion))

    last = gens[-1].order()
    expected = math.lcm(q, 2 * s)
    check("last-entry-lcm", last == expected,
          "last entry %d != lcm(%d, %d) = %d" % (last, q, 2 * s, expected))
    check("lcm-is-lcm-of-orders", last == math.lcm(q, rs2.sigma[n - 1].order()),
          "disjoint-support order law violated")

    mirror = enantiomorph_generators(facet_arrows)
    check("result-chiral", extension_obstruction(facet_arrows, mirror) is not None,
          "mirror map extends to an automorphism of the facet subgroup")

    result.schlafli = [g.order() for g in gens]
    return result
