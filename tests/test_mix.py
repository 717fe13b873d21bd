import functools
import math
import time
from collections import Counter

import pytest

from chirex import cli, gpr, maniplex, mix, toroidal
from chirex.extend_db import extend_dually_bipartite
from chirex.gpr import GprGraph, VerificationError, cayley_gpr, gpr_group
from chirex.maniplex import (PreconditionError, Report, Symmetry,
                             classify_symmetry, rotation_system)
from chirex.mix import (diamond, enantiomorph_generators, extension_obstruction,
                        is_regular_via_mix, paired_perm, regular_quotient_extension)
from chirex.permcore import Perm, PermGroup, left_product, orbit_partition
from chirex.toroidal import TorusParams, build_toroidal_map, regular_quotient
from chirex.two_s_m import build_two_s_m

from helpers import (count_chains, cube, intersection_property_by_enumeration,
                     intersection_property_orbits, polygon)


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
        rs = rotation_system(rooted)
        G = PermGroup(rs.degree, rs.sigma)
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


class TestExtensionObstruction:
    C4 = Perm.from_cycles(4, [(0, 1, 2, 3)])

    def test_cyclic_images(self):
        # C4 maps onto a product of 2-cycles, not onto an element of order 6;
        # the orbit {0, 1} passes and the forced map fails on {2, 3, 4}
        assert extension_obstruction([self.C4], [Perm.from_cycles(4, [(0, 1), (2, 3)])]) is None
        assert extension_obstruction([self.C4], [Perm.from_cycles(5, [(0, 1), (2, 3, 4)])]) == 2
        assert extension_obstruction([self.C4], [self.C4.inverse()]) is None

    def test_generator_counts(self):
        with pytest.raises(PreconditionError):
            extension_obstruction([self.C4], [self.C4, self.C4])
        with pytest.raises(PreconditionError):
            extension_obstruction([], [])


class TestIntersectionPropertyGroup:
    """The rank-free enumeration oracle that the rank-4 certificate is
    compared with, against the orbit oracle."""

    def test_regular_torus_rotations(self):
        rs = rotation_system(build_toroidal_map(TorusParams("44", 2, 0)))
        ok, witness = intersection_property_by_enumeration(rs.sigma)
        assert ok and witness is None

    def test_chiral_torus_rotations(self):
        rs = rotation_system(build_toroidal_map(TorusParams("44", 2, 1)))
        ok, _ = intersection_property_by_enumeration(rs.sigma)
        assert ok

    def test_cap_exhaustion_raises(self):
        rs = rotation_system(build_toroidal_map(TorusParams("44", 2, 0)))
        with pytest.raises(VerificationError):
            intersection_property_by_enumeration(rs.sigma, cap=1)

    def test_failure_detected(self):
        # sigma_1, sigma_2 of equal order with <s1> = <s1 s2>: the pair
        # ({0,1},{1,2}) then meets in more than the <tau_02>-trivial part
        a = Perm.from_cycles(4, [(0, 1, 2, 3)])
        ok, witness = intersection_property_by_enumeration([a, a])
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
        verdict = intersection_property_by_enumeration(sigma)
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
    def test_builds_no_chain(self, monkeypatch):
        # every verdict is a certificate, so neither a passing mix nor a
        # failing one builds a stabiliser chain; the failures are doctored
        # past the checks before them and still reach the real forced maps
        K = build_toroidal_map(TorusParams("44", 3, 1))
        P = extend_dually_bipartite(K, 1).graph
        R = regular_quotient(TorusParams("44", 3, 1)).rooted
        built = count_chains(monkeypatch)
        result = regular_quotient_extension(P, K, R, 2)
        assert result.report.passed and result.report.data["facet_order"] == 40
        # {4,4}_(2,0) is not covered by (3,1): the facet projection fails
        monkeypatch.setattr(mix, "covers", lambda M, N: True)
        with pytest.raises(VerificationError, match="facet-projection-collapses: .*"
                                                    "white flag 0 fails"):
            regular_quotient_extension(P, K, build_toroidal_map(TorusParams("44", 2, 0)), 2)
        # the identity in place of the mirror map always extends
        monkeypatch.setattr(mix, "enantiomorph_generators", list)
        with pytest.raises(VerificationError, match="result-chiral: mirror map extends"):
            regular_quotient_extension(P, K, R, 2)
        assert built == []

    def test_foreign_facets_refused_before_any_chain(self, monkeypatch, tmp_path, capsys):
        # the facets of the {4,4}_(5,1) extension are not copies of Cay(K)
        # for K = {4,4}_(3,1): facets-of-extension refuses P before the
        # criterion, whose cyclic meet would sift through a stabiliser
        # chain of P's facet subgroup, both in the library and the CLI
        k31, r11, ext = (tmp_path / name for name in ("k31.json", "r11.json", "ext.json"))
        for path, b, c in ((k31, 3, 1), (r11, 1, 1), (tmp_path / "k51.json", 5, 1)):
            assert cli.main(["build-map", "--family", "44", "--b", str(b), "--c", str(c),
                             "-o", str(path)]) == 0
        assert cli.main(["extend-db", str(tmp_path / "k51.json"), "--s", "1",
                         "-o", str(ext)]) == 0
        K = build_toroidal_map(TorusParams("44", 3, 1))
        R = regular_quotient(TorusParams("44", 3, 1)).rooted
        P = extend_dually_bipartite(build_toroidal_map(TorusParams("44", 5, 1)), 1).graph
        capsys.readouterr()
        built = count_chains(monkeypatch)
        with pytest.raises(VerificationError, match="^facets-of-extension: a facet component"):
            regular_quotient_extension(P, K, R, 2)
        assert cli.main(["mix-extend", "--extension", str(ext), "--facet", str(k31),
                         "--quotient", str(r11), "--s", "2"]) == 2
        assert "facets-of-extension" in capsys.readouterr().err
        assert built == []

    def test_each_fact_computed_once(self, monkeypatch):
        # K's rotation system serves the matching, the extension and the
        # criterion, and 2s^R's serves twosm-regular and the mix; the
        # criterion runs once, in the extension, and the mix reads its report.
        # R must be built here: an earlier test may have memoised it
        toroidal._verified_quotient.cache_clear()
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

    def test_facet_check_read_from_the_criterion_report(self, monkeypatch):
        # after extend_dually_bipartite, P keeps K's criterion report and the
        # mix reads facets-of-extension from it; a copy of P without the
        # report runs the forced maps, with the same verdicts and data
        K = build_toroidal_map(TorusParams("44", 3, 1))
        R = regular_quotient(TorusParams("44", 3, 1)).rooted
        P = extend_dually_bipartite(K, 1).graph
        calls = []
        real = mix.facet_components_isomorphic
        monkeypatch.setattr(mix, "facet_components_isomorphic",
                            lambda G, cay: calls.append(G) or real(G, cay))
        known = regular_quotient_extension(P, K, R, 2).report
        assert calls == []
        fresh = GprGraph(P.rank, P.arrows)
        computed = regular_quotient_extension(fresh, K, R, 2).report
        assert calls == [fresh]
        assert (known.verdicts, known.data) == (computed.verdicts, computed.data)
        assert ("facets-of-extension", True, "") in known.verdicts
        # a stored failing verdict is what the mix reports
        failing = Report()
        failing.add("facet-components-isomorphic", False, "doctored")
        fresh.criterion_reports[K] = failing
        with pytest.raises(VerificationError, match="^facets-of-extension: a facet component"):
            regular_quotient_extension(fresh, K, R, 2)
        assert calls == [fresh]

    def test_rank_mismatch_rejected(self):
        K = build_toroidal_map(TorusParams("44", 3, 1))
        P = extend_dually_bipartite(K, 1).graph
        with pytest.raises(PreconditionError):
            regular_quotient_extension(P, polygon(4),
                                       build_toroidal_map(TorusParams("44", 2, 0)), 2)
        # a quotient of the wrong rank is a precondition too, like the facet's
        with pytest.raises(PreconditionError, match="quotient rank 2"):
            regular_quotient_extension(P, K, polygon(4), 2)

    def test_rank_4_facets_rejected(self):
        # the intersection property is certified at rank 4 only, so K must
        # be a map; a rank-4 K is refused before any verdict is taken
        K = build_two_s_m(build_toroidal_map(TorusParams("44", 2, 0)), 2).rooted
        P = GprGraph(4, tuple(Perm.identity(1) for _ in range(4)))
        with pytest.raises(PreconditionError, match="rank-3 facets only, got rank 4"):
            regular_quotient_extension(P, K, K, 2)

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
        assert verdict["intersection-property"] is intersection_property_by_enumeration(
            result.group.generators)[0]
        assert verdict["result-chiral"] is not is_regular_via_mix(result.group)
        # the facet certificate against the chain order of the mix's facet subgroup
        facet_group = PermGroup(result.group.degree, result.group.generators[:-1])
        order = facet_group.order()
        assert verdict["facet-projection-collapses"] is (order == rotation_system(K).degree)
        assert result.report.data["facet_order"] == order

    def test_one_facet_map_decides_every_orbit(self, monkeypatch):
        # facet-projection-collapses runs the one forced map 0 -> white flag
        # 0 of 2s^R; extension_obstruction, one map per orbit of <t1, t2>,
        # gives the same verdict and the same failing point, also where
        # covers-quotient is doctored so that the map fails
        cases = [_seed(3, 1, 1) + (s,) for s in (2, 3)] + [_seed(4, 2, 1) + (2,)]
        K31, P31, _ = cases[0][:3]
        cases.append((K31, P31, build_toroidal_map(TorusParams("44", 2, 0)), 2))
        monkeypatch.setattr(mix, "covers", lambda M, N: True)
        for K, P, R, s in cases:
            t = rotation_system(build_two_s_m(R, s).rooted).sigma[:-1]
            assert len(orbit_partition(t, t[0].degree)[0]) > 1
            y = extension_obstruction(P.arrows[:-1], t)
            if y is None:
                assert regular_quotient_extension(P, K, R, s).report.passed
            else:
                with pytest.raises(VerificationError, match="facet-projection-collapses: .*"
                                                            "white flag %d fails" % y):
                    regular_quotient_extension(P, K, R, s)
        assert y == 0

    def test_rank_4_skips_the_whole_mix(self, monkeypatch):
        calls = []
        real_diamond = mix.diamond

        def counting_diamond(G, H):
            calls.append((len(G.generators), G.degree))
            return real_diamond(G, H)

        monkeypatch.setattr(mix, "diamond", counting_diamond)
        K, P, R = _seed(3, 1, 1)
        result = regular_quotient_extension(P, K, R, 4)
        assert result.report.passed
        # the mix itself, from Gamma(P), and no mirror diamond at all
        assert calls == [(3, P.num_vertices)]
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


class TestMixChain:
    """The mix's chain takes the orbit of point 0, P's vertices, first; its
    image levels give Gamma(P)'s order and its order is unchanged from when
    the base took the mix's moved points in ascending order."""

    ORDERS = {
        (1, 1, 2): 693604852510910054400000000,
        (1, 1, 3): 1040407278766365081600000000,
        (1, 1, 4): 1387209705021820108800000000,
        (1, 1, 5): 1734012131277275136000000000,
        (2, 0, 2): 2774419410043640217600000000,
        (2, 0, 3): 9363665508897285734400000000,
        (2, 0, 4): 22195355280349121740800000000,
        (2, 0, 5): 43350303281931878400000000000,
    }

    @staticmethod
    def check_orbit_first(G: PermGroup, P: GprGraph) -> None:
        V = P.num_vertices
        assert G.orbit_order() == gpr_group(P).order()
        base, split = G.base(), G.chain.split
        assert len(G.chain.orbit0) == V
        assert all(x < V for x in base[:split]) and all(x >= V for x in base[split:])

    @pytest.mark.parametrize("b,c,s", sorted(ORDERS))
    def test_quotients_of_4_2(self, b, c, s):
        K, P, _ = _seed(4, 2, 1)
        G = regular_quotient_extension(P, K, build_toroidal_map(TorusParams("44", b, c)), s).group
        assert G.order() == self.ORDERS[b, c, s]
        self.check_orbit_first(G, P)

    @pytest.mark.parametrize("family,b,c", [("44", 3, 1), ("44", 5, 1), ("36", 2, 1)])
    def test_other_maps(self, family, b, c):
        params = TorusParams(family, b, c)
        K = build_toroidal_map(params)
        P = extend_dually_bipartite(K, 1).graph
        G = regular_quotient_extension(P, K, regular_quotient(params).rooted, 4).group
        self.check_orbit_first(G, P)


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
