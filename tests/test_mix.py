import functools
import math
import time
from collections import Counter

import pytest

from chirex import cli, gpr, maniplex, mix, permcore
from chirex.extend_db import extend_dually_bipartite
from chirex.gpr import VerificationError, cayley_gpr
from chirex.maniplex import (PreconditionError, Report, Symmetry,
                             classify_symmetry, rotation_system)
from chirex.mix import (diamond, enantiomorph_generators,
                        intersection_property_group, is_regular_via_mix,
                        paired_perm, regular_quotient_extension)
from chirex.permcore import Perm, PermGroup, left_product
from chirex.toroidal import TorusParams, build_toroidal_map, regular_quotient

from helpers import cube, intersection_property_orbits, polygon


class TestDiamond:
    def test_paired_perm(self):
        g = Perm.from_cycles(3, [(0, 1)])
        h = Perm.from_cycles(2, [(0, 1)])
        p = paired_perm(g, h)
        assert p.degree == 5
        assert p(0) == 1 and p(3) == 4

    def test_isomorphic_pairing_keeps_order(self):
        c4 = Perm.from_cycles(4, [(0, 1, 2, 3)])
        G = PermGroup(4, [c4])
        H = PermGroup(4, [c4.inverse()])
        assert diamond(G, H).order() == 4

    def test_incompatible_pairing_grows(self):
        c3 = Perm.from_cycles(3, [(0, 1, 2)])
        c2 = Perm.from_cycles(2, [(0, 1)])
        # no homomorphism sends an order-3 generator to an order-2 one
        assert diamond(PermGroup(3, [c3]), PermGroup(2, [c2])).order() == 6

    def test_pairing_validation(self):
        # generators pair by position, so the counts must agree
        t = Perm.from_cycles(3, [(0, 1)])
        with pytest.raises(PreconditionError):
            diamond(PermGroup(3, [t]), PermGroup(3, [t, t]))


class TestEnantiomorph:
    def test_generator_shape(self):
        rs = rotation_system(cube())
        mirror = enantiomorph_generators(rs.sigma)
        assert len(mirror) == len(rs.sigma)
        assert mirror[0] == rs.sigma[0].inverse()
        assert mirror[1] == left_product([rs.sigma[0], rs.sigma[0], rs.sigma[1]])
        with pytest.raises(PreconditionError):
            enantiomorph_generators([])

    def test_mirror_generates_the_same_group(self):
        rs = rotation_system(build_toroidal_map(TorusParams("44", 2, 1)))
        G = PermGroup(rs.degree, rs.sigma)
        H = PermGroup(rs.degree, enantiomorph_generators(rs.sigma))
        assert G.order() == H.order()
        assert all(h in G for h in H.generators)


class TestRegularViaMix:
    @pytest.mark.parametrize("family,b,c,regular", [
        ("44", 2, 0, True), ("44", 1, 1, True), ("44", 2, 1, False),
        ("44", 3, 1, False), ("36", 1, 2, False), ("63", 2, 0, True),
    ])
    def test_toroidal(self, family, b, c, regular):
        rooted = build_toroidal_map(TorusParams(family, b, c))
        G = rotation_system(rooted).group()
        assert is_regular_via_mix(G) is regular
        D = diamond(G, PermGroup(G.degree, enantiomorph_generators(G.generators)))
        # the diamond's order grows past |G| iff the mirror map does not extend
        assert (D.order() > G.order()) is not regular

    def test_criterion_5_mix_against_full_order(self):
        K = build_toroidal_map(TorusParams("44", 4, 2))
        P = extend_dually_bipartite(K, 1).graph
        R = regular_quotient(TorusParams("44", 4, 2)).rooted
        G = regular_quotient_extension(P, K, R, 2).group
        D = diamond(G, PermGroup(G.degree, enantiomorph_generators(G.generators)))
        assert not is_regular_via_mix(G)
        assert D.order() > G.order()


class TestIntersectionPropertyGroup:
    def test_regular_torus_rotations(self):
        rs = rotation_system(build_toroidal_map(TorusParams("44", 2, 0)))
        ok, witness = intersection_property_group(rs.sigma)
        assert ok and witness is None

    def test_chiral_torus_rotations(self):
        rs = rotation_system(build_toroidal_map(TorusParams("44", 2, 1)))
        ok, _ = intersection_property_group(rs.sigma)
        assert ok

    def test_cap_exhaustion_raises(self):
        rs = rotation_system(build_toroidal_map(TorusParams("44", 2, 0)))
        with pytest.raises(VerificationError):
            intersection_property_group(rs.sigma, cap=1)

    def test_failure_detected(self):
        # sigma_1, sigma_2 of equal order with <s1> = <s1 s2>: the pair
        # ({0,1},{1,2}) then meets in more than the <tau_02>-trivial part
        a = Perm.from_cycles(4, [(0, 1, 2, 3)])
        ok, witness = intersection_property_group([a, a])
        assert not ok
        assert witness is not None

    @pytest.mark.parametrize("name", [
        "cube", "polygon5", "44-2-0", "44-2-1", "44-3-1", "36-1-2", "63-2-0", "cyclic-pair",
    ])
    def test_matches_orbit_oracle(self, name):
        # every input is a polytope's rotation group except the cyclic pair
        if name == "cube":
            sigma = rotation_system(cube()).sigma
        elif name == "polygon5":
            sigma = rotation_system(polygon(5)).sigma
        elif name == "cyclic-pair":
            a = Perm.from_cycles(4, [(0, 1, 2, 3)])
            sigma = [a, a]
        else:
            family, b, c = name.split("-")
            sigma = rotation_system(build_toroidal_map(TorusParams(family, int(b), int(c)))).sigma
        verdict = intersection_property_group(sigma)
        assert verdict == intersection_property_orbits(sigma)
        assert verdict[0] is (name != "cyclic-pair")


def count_criterion_evaluations(monkeypatch) -> Counter:
    """Evaluations of the extension criterion per (graph, facet map),
    counted at its condition 1, which every evaluation runs once."""
    evaluations = Counter()
    real = gpr.facet_components_isomorphic

    def counting(G, cay):
        evaluations[tuple(a.images for a in G.arrows), tuple(a.images for a in cay.arrows)] += 1
        return real(G, cay)

    monkeypatch.setattr(gpr, "facet_components_isomorphic", counting)
    return evaluations


class TestRegularQuotientExtension:
    def test_each_chain_built_once(self, monkeypatch):
        K = build_toroidal_map(TorusParams("44", 3, 1))
        P = extend_dually_bipartite(K, 1).graph
        R = regular_quotient(TorusParams("44", 3, 1)).rooted
        built = Counter()
        init = permcore._Chain.__init__

        def counting_init(chain, gens, degree):
            gens = [tuple(g) for g in gens]
            if gens:
                built[degree, tuple(gens)] += 1
            init(chain, gens, degree)

        monkeypatch.setattr(permcore._Chain, "__init__", counting_init)
        result = regular_quotient_extension(P, K, R, 2)
        assert result.report.passed
        repeated = [count for count in built.values() if count > 1]
        assert built and repeated == []

    def test_each_fact_computed_once(self, monkeypatch):
        # K's rotation system serves the matching, the extension and the
        # criterion, and 2s^R's serves twosm-regular and the mix; the
        # criterion runs once, in the extension, and the mix reads its report
        rotations, partitions = Counter(), Counter()
        real_orientable, real_partition = maniplex.is_orientable, maniplex.orbit_partition
        evaluations = count_criterion_evaluations(monkeypatch)

        def counting_orientable(M, base_flag=0):
            rotations[M, base_flag] += 1
            return real_orientable(M, base_flag)

        def counting_partition(perms, degree):
            partitions[tuple(p.images for p in perms)] += 1
            return real_partition(perms, degree)

        monkeypatch.setattr(maniplex, "is_orientable", counting_orientable)
        monkeypatch.setattr(maniplex, "orbit_partition", counting_partition)
        K = build_toroidal_map(TorusParams("44", 3, 1))
        R = regular_quotient(TorusParams("44", 3, 1)).rooted
        P = extend_dually_bipartite(K, 2).graph
        assert regular_quotient_extension(P, K, R, 2).report.passed
        assert len(rotations) == 2 and (K.maniplex, K.base_flag) in rotations
        assert set(rotations.values()) == {1}
        facets_of = {tuple(r.images for r in M.maniplex.adjacency[:-1]) for M in (K, R)}
        assert set(partitions) == facets_of and set(partitions.values()) == {1}
        assert list(evaluations.values()) == [1]

    def test_pipeline_runs_the_criterion_once(self, monkeypatch, capsys):
        evaluations = count_criterion_evaluations(monkeypatch)
        assert cli.main(["pipeline", "--family", "44", "--b", "3", "--c", "1",
                         "--db-s", "2", "--mix-s", "2"]) == 0
        assert "stage mix-extend" in capsys.readouterr().out
        assert list(evaluations.values()) == [1]

    def test_rank_mismatch_rejected(self):
        K = build_toroidal_map(TorusParams("44", 3, 1))
        P = extend_dually_bipartite(K, 1).graph
        with pytest.raises(PreconditionError):
            regular_quotient_extension(P, polygon(4),
                                       build_toroidal_map(TorusParams("44", 2, 0)), 2)
        # a quotient of the wrong rank is a precondition too, like the facet's
        with pytest.raises(PreconditionError, match="quotient rank 2"):
            regular_quotient_extension(P, K, polygon(4), 2)

    def test_non_regular_quotient_rejected(self):
        K = build_toroidal_map(TorusParams("44", 3, 1))
        P = extend_dually_bipartite(K, 1).graph
        chiral_r = build_toroidal_map(TorusParams("44", 2, 1))
        with pytest.raises(VerificationError):
            regular_quotient_extension(P, K, chiral_r, 2)

    def test_non_covering_quotient_rejected(self):
        K = build_toroidal_map(TorusParams("44", 3, 1))
        P = extend_dually_bipartite(K, 1).graph
        # {4,4}_(2,0) is regular but (3,1) does not cover it
        R = build_toroidal_map(TorusParams("44", 2, 0))
        with pytest.raises(VerificationError) as err:
            regular_quotient_extension(P, K, R, 2)
        assert "covers-quotient" in str(err.value)


@functools.cache
def _seed(b: int, c: int, db_s: int):
    """{4,4}_(b,c), its dually-bipartite extension at db_s and its regular quotient."""
    K = build_toroidal_map(TorusParams("44", b, c))
    R = regular_quotient(TorusParams("44", b, c)).rooted
    return K, extend_dually_bipartite(K, db_s).graph, R


class TestCertifiedVerdicts:
    """``intersection-property`` and ``result-chiral`` come from
    certificates; the direct checks on the whole mix are the oracle."""

    CASES = ([(3, 1, db_s, s) for db_s in (1, 2) for s in range(2, 9)]
             + [(b, c, 1, s) for b, c in ((4, 2), (5, 1)) for s in (2, 3)])

    @pytest.mark.parametrize("b,c,db_s,s", CASES)
    def test_against_direct_checks(self, b, c, db_s, s):
        K, P, R = _seed(b, c, db_s)
        result = regular_quotient_extension(P, K, R, s)
        verdict = dict((name, ok) for name, ok, _ in result.report.verdicts)
        assert result.report.passed
        assert verdict["intersection-property"] is intersection_property_group(
            result.group.generators)[0]
        assert verdict["result-chiral"] is not is_regular_via_mix(result.group)

    def test_rank_4_skips_the_whole_mix(self, monkeypatch):
        def no_enumeration(sigma, cap=None):
            raise AssertionError("the rank-4 path enumerated subgroups")

        widths = []
        real_diamond = mix.diamond

        def counting_diamond(G, H):
            widths.append(len(G.generators))
            return real_diamond(G, H)

        monkeypatch.setattr(mix, "intersection_property_group", no_enumeration)
        monkeypatch.setattr(mix, "diamond", counting_diamond)
        K, P, R = _seed(3, 1, 1)
        result = regular_quotient_extension(P, K, R, 4)
        assert result.report.passed
        assert widths == [2]  # one diamond, of the facet subgroup only
        assert result.group._chain is None  # nor the mix's order

    def test_failing_criterion_fails_the_intersection_property(self, monkeypatch):
        def failing_criterion(G, K):
            real = real_criterion(G, K)
            return Report([(name, ok and name != "cyclic-meet-trivial", detail)
                           for name, ok, detail in real.verdicts], real.data)

        real_criterion = mix.verify_extension_criterion
        monkeypatch.setattr(mix, "verify_extension_criterion", failing_criterion)
        K, P, R = _seed(3, 1, 1)
        with pytest.raises(VerificationError, match="intersection-property: not certified.*cyclic-meet-trivial"):
            regular_quotient_extension(P, K, R, 2)


@pytest.mark.parametrize("b,c,db_s", [(3, 1, 1), (3, 1, 2), (4, 2, 1), (5, 1, 1)])
def test_facet_subgroup_order_is_the_white_flag_count(b, c, db_s):
    # facet-projection-collapses compares the mix's facet order with W,
    # the order the extension's facet subgroup has by condition 1; the
    # chain order on every extension the mix tests use
    K, P, _ = _seed(b, c, db_s)
    W = rotation_system(K).degree
    assert PermGroup(P.num_vertices, P.arrows[:-1]).order() == W


class TestLargeS:
    """The lcm law at the paper's scale, on the {4,4}_(4,2) extension
    at db-s 1 (q = 18), without the mix's group order."""

    @pytest.mark.parametrize("b,c,s,last", [(1, 1, 1024, 18432), (2, 0, 8, 144)])
    def test_last_entry(self, b, c, s, last):
        K, P, _ = _seed(4, 2, 1)
        R = build_toroidal_map(TorusParams("44", b, c))
        t0 = time.perf_counter()
        result = regular_quotient_extension(P, K, R, s)
        elapsed = time.perf_counter() - t0
        assert result.report.passed, result.report.failing()
        assert result.q == 18
        assert result.schlafli == [4, 4, last] and last == math.lcm(18, 2 * s)
        assert result.group._chain is None
        assert elapsed < 5, "mix at s = %d took %.1fs" % (s, elapsed)
