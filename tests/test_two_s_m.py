import pytest

from chirex.maniplex import (PreconditionError, Symmetry, classify_symmetry,
                             covers, facets, schlafli, validate)
from chirex.maniplex import Maniplex, RootedManiplex
from chirex import two_s_m
from chirex.permcore import Perm
from chirex.toroidal import TorusParams, build_toroidal_map
from chirex.two_s_m import (build_two_s_m, every_ridge_in_two_facets,
                            verify_aut_structure)

from helpers import (cube, decode, flag_id, lift_automorphism, num_u, polygon,
                     translation_chi_automorphisms, triangular_prism,
                     two_s_m_adjacency_by_decoding, two_s_m_type, u_index, u_vector)


def m20():
    return build_toroidal_map(TorusParams("44", 2, 0))


class TestCoordinates:
    def test_round_trips(self):
        tsm = build_two_s_m(polygon(4), 3)
        assert tsm.m == 4
        for u in range(num_u(tsm)):
            vec = u_vector(tsm, u)
            assert len(vec) == tsm.m
            assert sum(vec) % tsm.s == 0
            assert u_index(tsm, vec) == u
        for v in (0, 5, tsm.maniplex.num_flags - 1):
            flag, u, delta = decode(tsm, v)
            assert flag_id(tsm, flag, u, delta) == v

    def test_u_index_rejects_bad_sum(self):
        tsm = build_two_s_m(polygon(4), 3)
        with pytest.raises(ValueError):
            u_index(tsm, (1, 0, 0, 0))


class TestBuild:
    def test_polygon_source(self):
        tsm = build_two_s_m(polygon(4), 2)
        big = tsm.maniplex
        assert big.rank == 3
        assert big.num_flags == 8 * 2 ** 3 * 2 == 128
        assert validate(big).passed
        assert schlafli(tsm.rooted) == [4, 4]
        assert classify_symmetry(tsm.rooted) is Symmetry.REGULAR

    def test_torus_source_counts_and_type(self):
        M = m20()
        tsm = build_two_s_m(M, 2)
        assert tsm.m == 4
        assert tsm.maniplex.num_flags == 32 * 2 ** 3 * 2 == 512
        symbol, ridge_ok = two_s_m_type(M, 2)
        assert symbol == [4, 4, 4] and ridge_ok
        symbol3, _ = two_s_m_type(M, 3)
        assert symbol3 == [4, 4, 6]

    def test_facets_are_copies_of_the_source(self):
        M = m20()
        tsm = build_two_s_m(M, 2)
        big = tsm.maniplex
        blocks = facets(big)
        assert all(len(b) == M.maniplex.num_flags for b in blocks)
        base_block = next(b for b in blocks if tsm.base_flag in b)
        pos = {f: i for i, f in enumerate(base_block)}
        sub = Maniplex(big.rank - 1, tuple(
            Perm(pos[big.adjacency[i].images[f]] for f in base_block)
            for i in range(big.rank - 1)))
        rooted_sub = RootedManiplex(sub, pos[tsm.base_flag])
        assert covers(rooted_sub, M) is not None
        assert covers(M, rooted_sub) is not None

    def test_last_colour_changes_facet_and_flips_delta(self):
        tsm = build_two_s_m(m20(), 3)
        big = tsm.maniplex
        last = big.adjacency[-1]
        for v in range(0, big.num_flags, 17):
            flag, u, delta = decode(tsm, v)
            flag2, u2, delta2 = decode(tsm, last.images[v])
            assert flag2 == flag and delta2 == 1 - delta

    def test_s_must_be_at_least_two(self):
        with pytest.raises(PreconditionError):
            build_two_s_m(m20(), 1)

    def test_flag_limit(self, monkeypatch):
        # m20 at s = 2 has 512 flags: allowed at the limit, refused above it
        monkeypatch.setattr(two_s_m, "MAX_FLAGS", 512)
        assert build_two_s_m(m20(), 2).maniplex.num_flags == 512
        monkeypatch.setattr(two_s_m, "MAX_FLAGS", 511)
        with pytest.raises(PreconditionError, match="512 flags"):
            build_two_s_m(m20(), 2)


# sources of the oracle test: polygons, the cube, the prism and small tori
ORACLE_SOURCES = {
    **{"%d-gon" % p: (lambda p=p: polygon(p)) for p in range(3, 7)},
    "cube": cube,
    "prism": triangular_prism,
    **{"{%s,%s}_(%d,%d)" % (f[0], f[1], b, c): (lambda f=f, b=b, c=c:
                                                build_toroidal_map(TorusParams(f, b, c)))
       for f, pairs in (("44", ((1, 1), (2, 0), (2, 1))), ("36", ((1, 0), (1, 1), (2, 0))),
                        ("63", ((1, 1), (2, 0), (2, 1))))
       for b, c in pairs},
}


class TestOracle:
    @pytest.mark.parametrize("name", sorted(ORACLE_SOURCES))
    def test_matches_the_decoding_builder(self, name):
        # every s in 2..5 whose 2s^M has at most 2^14 flags, which keeps the
        # per-flag oracle fast; two base flags, so the facet labels differ
        man = ORACLE_SOURCES[name]().maniplex
        m = len(facets(man))
        checked = 0
        for base in (0, man.num_flags - 1):
            R = RootedManiplex(man, base)
            for s in range(2, 6):
                if man.num_flags * s ** (m - 1) * 2 > 2 ** 14:
                    break
                got = tuple(r.images for r in build_two_s_m(R, s).maniplex.adjacency)
                assert got == two_s_m_adjacency_by_decoding(R, s), (name, base, s)
                checked += 1
        assert checked >= 2


class TestRidges:
    def test_torus_and_polygon(self):
        assert every_ridge_in_two_facets(m20().maniplex)
        assert every_ridge_in_two_facets(polygon(4).maniplex)


class TestAutomorphisms:
    def test_translations_and_chi(self):
        tsm = build_two_s_m(m20(), 2)
        gens = translation_chi_automorphisms(tsm)
        assert len(gens) == tsm.m  # m-1 translations plus chi
        chi = gens[-1]
        assert (chi * chi).is_identity()
        for t in gens[:-1]:
            assert t.order() == tsm.s
            # chi conjugates each translation to its inverse
            assert chi * t * chi == t.inverse()
        # translations commute with each other
        for a in gens[:-1]:
            for b in gens[:-1]:
                assert a * b == b * a

    def test_lift_of_identity(self):
        tsm = build_two_s_m(m20(), 2)
        ident = Perm.identity(m20().maniplex.num_flags)
        assert lift_automorphism(tsm, ident).is_identity()

    def test_lift_of_nontrivial_automorphism(self):
        from chirex.maniplex import find_rooted_automorphism
        M = m20()
        man = M.maniplex
        target = man.adjacency[0].images[M.base_flag]
        gamma = find_rooted_automorphism(man, M.base_flag, target)
        assert gamma is not None
        tsm = build_two_s_m(M, 2)
        lifted = lift_automorphism(tsm, gamma)
        for r in tsm.maniplex.adjacency:
            assert lifted * r == r * lifted

    def test_lift_rejects_non_automorphism(self):
        tsm = build_two_s_m(m20(), 2)
        with pytest.raises(PreconditionError):
            lift_automorphism(tsm, Perm.from_cycles(32, [(0, 1)]))

    def test_aut_count_formula_small(self):
        report = verify_aut_structure(polygon(4), 2)
        assert report.passed
        assert report.expected == 8 * 2 * 2 ** 3 == 128

    @pytest.mark.parametrize("b,c,s,count", [(2, 0, 2, 512), (2, 0, 3, 1728),
                                             (2, 0, 4, 4096), (2, 0, 5, 8000),
                                             (2, 2, 2, 16384)])
    def test_aut_count_with_few_forced_maps(self, b, c, s, count):
        report = verify_aut_structure(build_toroidal_map(TorusParams("44", b, c)), s)
        assert report.passed
        assert report.automorphism_count == report.expected == report.flags == count
        assert report.generators <= report.forced_maps <= 16

    def test_aut_count_needs_regular(self):
        with pytest.raises(PreconditionError):
            verify_aut_structure(build_toroidal_map(TorusParams("44", 2, 1)), 2)
