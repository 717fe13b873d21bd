import pytest

from chirex.extend_db import (build_matching, extend_dually_bipartite,
                              facet_word, rho_bar)
from chirex.gpr import VerificationError, gpr_group
from chirex.maniplex import (PreconditionError, dually_bipartite_colouring,
                             rotation_system)
from chirex.permcore import GroupWord, orbit_of
from chirex.toroidal import TorusParams, build_toroidal_map

from helpers import evaluate_word, polygon, word_action


def k31():
    return build_toroidal_map(TorusParams("44", 3, 1))


class TestFacetWord:
    def test_round_trip(self):
        K = k31()
        rs = rotation_system(K)
        comp = orbit_of(rs.base, rs.sigma[: K.rank - 2])
        for phi in comp:
            w = facet_word(rs, rs.base, phi)
            assert word_action(rs.sigma, w, rs.degree)(rs.base) == phi

    def test_precomputed_inverses(self):
        K = k31()
        rs = rotation_system(K)
        inverses = [g.inverse().images for g in rs.sigma[: K.rank - 2]]
        for phi in orbit_of(rs.base, rs.sigma[: K.rank - 2]):
            assert facet_word(rs, rs.base, phi, inverses) == facet_word(rs, rs.base, phi)

    def test_unreachable_flag(self):
        K = k31()
        rs = rotation_system(K)
        comp = set(orbit_of(rs.base, rs.sigma[: K.rank - 2]))
        outside = next(v for v in range(rs.degree) if v not in comp)
        with pytest.raises(PreconditionError):
            facet_word(rs, rs.base, outside)

    def test_identity_word(self):
        rs = rotation_system(k31())
        assert len(facet_word(rs, rs.base, rs.base)) == 0


class TestRhoBar:
    def test_involutive_on_the_group(self):
        K = k31()
        rs = rotation_system(K)
        n = K.rank
        words = [GroupWord(((0, 1),)), GroupWord(((0, -1), (0, 1), (0, -1))),
                 GroupWord(((0, 1), (0, 1), (0, -1)))]
        for w in words:
            twice = rho_bar(rho_bar(w, n), n)
            assert evaluate_word(rs.sigma, twice) == evaluate_word(rs.sigma, w)

    def test_homomorphism_on_words(self):
        K = k31()
        rs = rotation_system(K)
        n = K.rank
        w1 = GroupWord(((0, 1), (0, 1)))
        w2 = GroupWord(((0, -1),))
        lhs = evaluate_word(rs.sigma, rho_bar(w1 + w2, n))
        rhs = evaluate_word(rs.sigma, rho_bar(w1, n) + rho_bar(w2, n))
        assert lhs == rhs

    def test_top_generator_inverts(self):
        # rank 4: letters 0,1 with s_2 the top facet generator
        w = GroupWord(((1, 1), (0, 1), (1, -1)))
        out = rho_bar(w, 4)
        assert out.letters == ((1, -1), (0, 1), (1, 1), (1, 1), (1, 1))

    def test_rejects_out_of_range_letters(self):
        with pytest.raises(PreconditionError):
            rho_bar(GroupWord(((5, 1),)), 3)


class TestPreconditions:
    def test_regular_input_rejected(self):
        with pytest.raises(PreconditionError):
            extend_dually_bipartite(build_toroidal_map(TorusParams("44", 2, 0)), 1)

    def test_not_dually_bipartite_rejected(self):
        with pytest.raises(PreconditionError):
            extend_dually_bipartite(build_toroidal_map(TorusParams("44", 2, 1)), 1)

    def test_low_rank_rejected(self):
        with pytest.raises(PreconditionError):
            extend_dually_bipartite(polygon(4), 1)

    def test_bad_s_rejected(self):
        K = k31()
        colouring = dually_bipartite_colouring(K.maniplex, K.base_flag)
        with pytest.raises(PreconditionError):
            build_matching(K, colouring, 0)


class TestMatching:
    def test_perfect_and_parity(self):
        K = k31()
        colouring = dually_bipartite_colouring(K.maniplex, K.base_flag)
        W = rotation_system(K).degree
        for s in (1, 2):
            matching = build_matching(K, colouring, s)
            assert matching.is_perfect()
            assert matching.num_copies == 2 * s
            assert len(matching.edges) == W * s
            for v, p in enumerate(matching.partner):
                assert (v // W) % 2 != (p // W) % 2

    def test_seed_is_reproducible(self):
        K = k31()
        colouring = dually_bipartite_colouring(K.maniplex, K.base_flag)
        a = build_matching(K, colouring, 2, seed=7)
        b = build_matching(K, colouring, 2, seed=7)
        assert a == b


class TestExtension:
    def test_last_entries_and_divisibility(self):
        K = k31()
        entries = {}
        for s in (1, 2, 3):
            result = extend_dually_bipartite(K, s)
            assert result.report.passed
            assert result.last_entry % (2 * s) == 0
            assert len(orbit_of(result.base_vertex, [result.graph.arrow(K.rank)])) == 2 * s
            entries[s] = result.last_entry
        assert entries == {1: 8, 2: 8, 3: 24}

    def test_new_generator_factorisation(self):
        K = k31()
        result = extend_dually_bipartite(K, 1)
        n = K.rank
        # s_n = s_{n-1}^{-1} t with t applied first
        widened_inv = result.graph.arrow(n - 1).inverse()
        assert result.graph.arrow(n) == result.t * widened_inv

    def test_graph_size(self):
        K = k31()
        result = extend_dually_bipartite(K, 2)
        assert result.graph.num_vertices == 4 * 40  # 2s copies of the white flags
        assert gpr_group(result.graph).order() % result.last_entry == 0

    def test_seeded_run_verifies_too(self):
        K = k31()
        result = extend_dually_bipartite(K, 1, seed=123)
        assert result.report.passed

    def test_large_last_entry_verified(self):
        # q = 576576 = 2^6 3^2 7 11 13: the cyclic meet takes a sift per
        # prime power, not q - 1 of them
        K = build_toroidal_map(TorusParams("44", 6, 2))
        result = extend_dually_bipartite(K, 4, seed=1)
        assert result.report.passed
        assert result.last_entry == 576576
        assert result.last_entry % (2 * result.s) == 0
