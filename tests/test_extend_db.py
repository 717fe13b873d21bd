import hashlib
import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from chirex import extend_db, gpr
from chirex.extend_db import build_matching, extend_dually_bipartite
from chirex.gpr import VerificationError, gpr_group
from chirex.maniplex import (PreconditionError, Symmetry, classify_symmetry,
                             dually_bipartite_colouring, rotation_system)
from chirex.permcore import Perm, left_product, orbit_of
from chirex.toroidal import TorusParams, build_toroidal_map
from chirex.two_s_m import build_two_s_m

from helpers import (GroupWord, check_spread_by_words, cross_check_maps, evaluate_word,
                     facet_word, facets_regular_by_submaniplex, polygon, rho_bar,
                     word_action)

# Step-3 seeds of the benchmark's seeded-extend workload, keyed 44_b_c_sS_qQ
SEED_POOLS = json.loads(
    (Path(__file__).resolve().parents[1] / "perfbench" / "expected.json").read_text())["pools"]
# the {4,4} maps of the benchmark's construct-verify extensions
CONSTRUCT_MAPS = [(3, 1), (5, 1), (7, 1), (4, 2), (6, 2), (5, 3), (9, 1)]


def matching_for(b: int, c: int, s: int, seed=None):
    K = build_toroidal_map(TorusParams("44", b, c))
    colouring = dually_bipartite_colouring(K.maniplex, K.base_flag)
    return K, build_matching(K, colouring, s, seed)


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

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 4).flatmap(
        lambda m: st.lists(st.permutations(range(6)).map(Perm), min_size=m, max_size=m)))
    def test_permutation_form_matches_words(self, gens):
        # gpr.rho_bar of s_1..s_m equals the word form, letter by letter, read
        # as a left action as Step 4 applies it, for the rank n = m + 2 whose
        # facet group these generate: lengths 3 and 4 reach the generators
        # that rho fixes
        n = len(gens) + 2
        images = gpr.rho_bar(gens)
        assert len(images) == len(gens)
        for idx, image in enumerate(images):
            assert image == word_action(gens, rho_bar(GroupWord(((idx, 1),)), n))
            assert image.inverse() == word_action(gens, rho_bar(GroupWord(((idx, -1),)), n))


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

    def test_vertex_limit(self, monkeypatch):
        # {4,4}_(3,1) at s = 1 has 2 * 40 vertices: allowed at the limit,
        # refused above it before the partner list is allocated
        K = k31()
        colouring = dually_bipartite_colouring(K.maniplex, K.base_flag)
        monkeypatch.setattr(extend_db, "MAX_FLAGS", 80)
        assert extend_dually_bipartite(K, 1).graph.num_vertices == 80
        monkeypatch.setattr(extend_db, "MAX_FLAGS", 79)
        with pytest.raises(PreconditionError, match="80 vertices, more than the 79 allowed"):
            build_matching(K, colouring, 1)

    def test_regular_facets_against_the_sub_maniplex(self, monkeypatch):
        # the regular-facet check alone, past stubbed chiral and colouring
        # checks, on inputs whose facets are rotary: one forced map on K's
        # own rows against the base facet copied out and classified. 2s^K
        # for the chiral K = {4,4}_(2,1) has chiral facets.
        monkeypatch.setattr(extend_db, "classify_symmetry", lambda K: Symmetry.CHIRAL)
        monkeypatch.setattr(extend_db, "dually_bipartite_colouring", lambda M, base: [1])

        def passes(K) -> bool:
            try:
                extend_db._check_preconditions(K)
            except PreconditionError as exc:
                assert "facets of the input are not regular" in str(exc)
                return False
            return True

        chiral = build_two_s_m(build_toroidal_map(TorusParams("44", 2, 1)), 2).rooted
        inputs = [K for K in cross_check_maps() if K.rank >= 3] + [chiral]
        found = [passes(K) for K in inputs]
        assert found == [facets_regular_by_submaniplex(K) for K in inputs]
        assert found == [True] * (504 + 3 + 2) + [False]

    def test_chiral_facets_rejected(self, monkeypatch):
        # 2s^K for the chiral K = {4,4}_(3,1) at s = 2 (81920 flags) is
        # dually bipartite and its facets are copies of K; it classifies
        # as Other, so only a stubbed classification reaches the facets
        tsm = build_two_s_m(k31(), 2).rooted
        assert classify_symmetry(tsm) is Symmetry.OTHER
        assert not facets_regular_by_submaniplex(tsm)
        monkeypatch.setattr(extend_db, "classify_symmetry", lambda K: Symmetry.CHIRAL)
        with pytest.raises(PreconditionError, match="facets of the input are not regular"):
            extend_dually_bipartite(tsm, 1)


class TestMatching:
    def test_perfect_and_parity(self):
        K = k31()
        colouring = dually_bipartite_colouring(K.maniplex, K.base_flag)
        W = rotation_system(K).degree
        for s in (1, 2):
            matching = build_matching(K, colouring, s)
            assert matching.is_perfect()
            assert matching.num_copies == 2 * s
            assert len(matching.partner) // 2 == W * s  # the report's edge_count
            for v, p in enumerate(matching.partner):
                assert (v // W) % 2 != (p // W) % 2

    def test_seed_is_reproducible(self):
        K = k31()
        colouring = dually_bipartite_colouring(K.maniplex, K.base_flag)
        a = build_matching(K, colouring, 2, seed=7)
        b = build_matching(K, colouring, 2, seed=7)
        assert a == b


class TestStep4Spread:
    @pytest.mark.parametrize("b,c", CONSTRUCT_MAPS)
    def test_matches_words_on_every_flag(self, b, c):
        for s in (1, 2):
            K, matching = matching_for(b, c, s)
            assert check_spread_by_words(K, matching) == len(matching.partner)

    @pytest.mark.parametrize("key", sorted(SEED_POOLS))
    def test_matches_words_on_seeded_pools(self, key):
        b, c, s, _ = (int(part.lstrip("sq")) for part in key.split("_")[1:])
        for step3 in SEED_POOLS[key]:
            K, matching = matching_for(b, c, s, step3)
            assert check_spread_by_words(K, matching) == len(matching.partner)

    @pytest.mark.parametrize("b,c,s,seed,sha", [
        (3, 1, 1, None, "2672e06dea1ab762ef5ef0e055294a2370a172d423105e6cb7b9cb78a8f1e306"),
        (3, 1, 2, None, "1780f40e61ad94f99a8c72052207ae42e26057361a91d5253073aece1bc1512b"),
        (3, 1, 3, 7, "cfffc9c7089124b4a47ab4b8ca075352522e763b588d0b738f21b8ac2152c348"),
        (5, 1, 2, 11, "0704eb9bfef1c573072aa134bba2eff07cd7f40f354d142373138973aedd65c3"),
        (4, 2, 1, None, "74a3a957ccbbc996277700c889397803cc0457b6c020886d80d7eb1b7abcb608"),
        (6, 2, 4, 1, "6125daa75cb4505b5d5fffd8300cdd5796e1bc5ef512e17c9d4f8629ad1da953"),
        (9, 1, 2, 5, "8586ff1f8cfc4a56f3f82e57461246706fa741cfde1fc4a86c33ca61d3543821"),
    ])
    def test_partners_are_unchanged(self, b, c, s, seed, sha):
        # SHA-256 of the partner list as JSON, recorded with the per-flag
        # facet_word path and the s_{n-1}^j powers of Steps 1-2
        _, matching = matching_for(b, c, s, seed)
        assert hashlib.sha256(json.dumps(list(matching.partner)).encode()).hexdigest() == sha

    def test_inconsistent_rho_is_rejected(self, monkeypatch):
        # s_1 (order 4) sent to s_1 s_2^-1 (order 10) is no homomorphism of
        # the facet group: the two BFS paths to s_1^2 v disagree
        K = k31()
        s1, s2 = rotation_system(K).sigma
        bad = left_product([s1, s2.inverse()])
        assert s1.order() == 4 and bad.order() == 10
        monkeypatch.setattr(extend_db, "rho_bar", lambda facet_gens: [bad])
        colouring = dually_bipartite_colouring(K.maniplex, K.base_flag)
        with pytest.raises(VerificationError, match="rho is not consistent"):
            build_matching(K, colouring, 1)


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

    @pytest.mark.parametrize("s,q", [(256, 512), (1024, 2048)])
    def test_last_entry_at_large_s(self, s, q):
        # 2s copies of the 40 white flags: 81920 vertices at s = 1024
        result = extend_dually_bipartite(k31(), s)
        assert result.report.passed
        assert result.graph.num_vertices == 2 * s * 40
        assert result.last_entry == q
        assert result.last_entry % (2 * s) == 0
