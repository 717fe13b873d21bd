import json
import random
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from chirex import permcore
from chirex.extend_db import extend_dually_bipartite
from chirex.gpr import (FacetSubgroup, GprGraph, cayley_gpr, check_tau_relations,
                        components, cyclic_meet_order, facet_components_isomorphic,
                        gpr_group, rooted_digraph_isomorphic, unmatched_component_level,
                        verify_extension_criterion)
from chirex.maniplex import PreconditionError, rotation_system
from chirex.permcore import DegreeMismatch, Perm, PermGroup, disjoint_union, orbit_of
from chirex.toroidal import TorusParams, build_toroidal_map

from helpers import (brute_force_closure, brute_force_isomorphic, components_union_find,
                     cube, cyclic_meet_by_loop, facet_components_by_every_root,
                     unmatched_level_by_partitions)

# Step-3 seeds of the benchmark's seeded-extend workload, keyed 44_b_c_sS_qQ
SEED_POOLS = json.loads(
    (Path(__file__).resolve().parents[1] / "perfbench" / "expected.json").read_text())["pools"]


# the maps of the benchmark's construct-verify workload, {4,4}_(b,c)
CONSTRUCT_MAPS = [(3, 1), (5, 1), (7, 1), (4, 2), (6, 2), (5, 3), (9, 1)]


def perms(degree):
    return st.permutations(range(degree)).map(Perm)


@lru_cache(maxsize=None)
def torus(b, c):
    return build_toroidal_map(TorusParams("44", b, c))


@lru_cache(maxsize=None)
def extension(b, c, s):
    return extend_dually_bipartite(torus(b, c), s).graph


def conjugate(G: GprGraph, shuffle: Perm) -> GprGraph:
    """G with its vertices relabelled by shuffle."""
    return GprGraph(G.rank, tuple(shuffle.inverse() * a * shuffle for a in G.arrows))


def swap_heads(G: GprGraph, k: int, u: int, v: int) -> GprGraph:
    """G with its label-k arrows out of u and out of v exchanged."""
    images = list(G.arrow(k).images)
    images[u], images[v] = images[v], images[u]
    return GprGraph(G.rank, G.arrows[:k - 1] + (Perm(images),) + G.arrows[k:])


def merged_copies(b, c, s) -> GprGraph:
    """An extension with one label-1 arrow out of vertex 0 exchanged with
    the one out of the least vertex of the second facet component."""
    G = extension(b, c, s)
    blocks, _ = components(G, range(1, G.rank))
    return swap_heads(G, 1, 0, blocks[1][0])


def meet_detail(G: GprGraph) -> str:
    """The criterion's cyclic-meet detail from the loop oracle."""
    n, sn = G.rank, G.arrow(G.rank)
    m = cyclic_meet_by_loop(sn, facet_subgroup(G))
    return "" if m == 1 else "s_%d^%d lies in the facet subgroup" % (n, sn.order() // m)


def cover_graph() -> GprGraph:
    """Facet arrows: the Cayley graph of {4,4}_(3,1) on vertices 0..39
    beside that of its 4-fold cover {4,4}_(6,2) on 40..199. The forced map
    from the cover's least vertex is consistent but not injective, and the
    facet subgroup (that of the cover) holds elements trivial on 0..39.
    The last arrow is the least such element, of order 2, so <s_3> lies in
    the facet subgroup although s_3 fixes vertex 0."""
    small, big = cayley_gpr(torus(3, 1)), cayley_gpr(torus(6, 2))
    facet = [Perm(disjoint_union(a.images, b.images)) for a, b in zip(small.arrows, big.arrows)]
    kernel = [g for g in brute_force_closure(facet, 200)
              if g(0) == 0 and not g.is_identity()]
    return GprGraph(3, tuple(facet) + (min(kernel, key=lambda g: g.images),))


class TestGprGraph:
    def test_shape(self):
        with pytest.raises(ValueError):
            GprGraph(2, (Perm.identity(3),))
        with pytest.raises(ValueError):
            GprGraph(2, (Perm.identity(3), Perm.identity(4)))

    def test_arrow_labels_are_one_based(self):
        G = GprGraph(2, (Perm.from_cycles(3, [(0, 1)]), Perm.from_cycles(3, [(1, 2)])))
        assert G.arrow(1)(0) == 1
        assert G.arrow(2)(1) == 2
        with pytest.raises(IndexError):
            G.arrow(0)
        with pytest.raises(IndexError):
            G.arrow(3)


class TestComponents:
    def test_blocks(self):
        G = GprGraph(2, (Perm.from_cycles(4, [(0, 1)]), Perm.from_cycles(4, [(2, 3)])))
        blocks, block_of = components(G, (1,))
        assert blocks == [(0, 1), (2,), (3,)]
        assert block_of == [0, 0, 1, 2]
        assert len(components(G, (1, 2))[0]) == 2

    @settings(max_examples=60, deadline=None)
    @given(st.lists(perms(7), min_size=1, max_size=3))
    def test_union_find_cross_check(self, arrows):
        G = GprGraph(len(arrows), tuple(arrows))
        labels = tuple(range(1, len(arrows) + 1))
        for chosen in (labels, labels[:1]):
            blocks, block_of = components_union_find([G.arrow(k) for k in chosen], 7)
            assert components(G, chosen) == (blocks, block_of)


class TestCayley:
    def test_chiral_torus(self):
        rooted = build_toroidal_map(TorusParams("44", 2, 1))
        G = cayley_gpr(rooted)
        assert G.num_vertices == 20
        assert G.rank == 2
        assert gpr_group(G).order() == 20  # free and transitive
        assert G.arrows == rotation_system(rooted).sigma

    def test_needs_rotary(self):
        from chirex.maniplex import Symmetry, classify_symmetry, validate
        from helpers import triangular_prism
        prism = triangular_prism()
        assert validate(prism.maniplex).passed
        assert classify_symmetry(prism) is Symmetry.OTHER
        with pytest.raises(PreconditionError):
            cayley_gpr(prism)


class TestIsomorphism:
    def test_self_isomorphic(self):
        G = cayley_gpr(build_toroidal_map(TorusParams("44", 2, 1)))
        assert rooted_digraph_isomorphic(G, G)

    def test_conjugate_is_isomorphic(self):
        G = cayley_gpr(build_toroidal_map(TorusParams("44", 2, 1)))
        shuffle = Perm.from_cycles(20, [(0, 7, 3), (1, 12)])
        H = GprGraph(G.rank, tuple(shuffle.inverse() * a * shuffle for a in G.arrows))
        assert rooted_digraph_isomorphic(G, H)

    def test_distinguishes_sizes_and_labels(self):
        G = cayley_gpr(build_toroidal_map(TorusParams("44", 2, 1)))
        H = cayley_gpr(build_toroidal_map(TorusParams("44", 2, 0)))
        assert not rooted_digraph_isomorphic(G, H)
        # label swap changes arrow orders (3 vs 6), so no isomorphism
        T = cayley_gpr(build_toroidal_map(TorusParams("36", 1, 1)))
        swapped = GprGraph(T.rank, tuple(reversed(T.arrows)))
        assert not rooted_digraph_isomorphic(T, swapped)

    def test_restriction_to_component(self):
        # two disjoint copies restricted to one copy
        G = cayley_gpr(cube())
        double = GprGraph(G.rank, tuple(
            Perm(list(a.images) + [x + 24 for x in a.images]) for a in G.arrows))
        blk = components(double, (1, 2))[0][0]
        assert rooted_digraph_isomorphic(double, G, vertices=blk)
        with pytest.raises(ValueError):
            rooted_digraph_isomorphic(double, G, vertices=range(5))

    def test_consistent_but_not_injective_map_rejected(self):
        # folding the 4-cycle onto two 2-cycles respects every arrow but
        # sends two vertices to each image
        cycle = GprGraph(1, (Perm.from_cycles(4, [(0, 1, 2, 3)]),))
        two_cycles = GprGraph(1, (Perm.from_cycles(4, [(0, 1), (2, 3)]),))
        assert not rooted_digraph_isomorphic(cycle, two_cycles)

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_against_brute_force(self, data):
        V = data.draw(st.integers(1, 5))
        k = data.draw(st.integers(1, 2))
        arrows = data.draw(st.lists(perms(V), min_size=k, max_size=k))
        if data.draw(st.booleans()):
            shuffle = data.draw(perms(V))
            other = [shuffle.inverse() * a * shuffle for a in arrows]
        else:
            other = data.draw(st.lists(perms(V), min_size=k, max_size=k))
        G, H = GprGraph(k, tuple(arrows)), GprGraph(k, tuple(other))
        # forced extension from vertex 0 only reaches all of a connected G
        connected = len(orbit_of(0, G.arrows)) == V
        assert rooted_digraph_isomorphic(G, H) == (connected and brute_force_isomorphic(G, H))


class TestExtensionCriterion:
    def _extension(self, s=1):
        from chirex.extend_db import extend_dually_bipartite
        K = build_toroidal_map(TorusParams("44", 3, 1))
        return K, extend_dually_bipartite(K, s)

    def test_real_extension_passes(self):
        K, result = self._extension()
        report = verify_extension_criterion(result.graph, K)
        assert report.passed
        assert report.failing() == []
        names = [n for n, _, _ in report.verdicts]
        assert names == ["facet-components-isomorphic", "suffix-products-involutory",
                         "cyclic-meet-trivial", "component-intersection"]

    def test_identity_last_arrow_fails(self):
        K, result = self._extension()
        G = result.graph
        bad = GprGraph(G.rank, G.arrows[:-1] + (Perm.identity(G.num_vertices),))
        report = verify_extension_criterion(bad, K)
        assert "suffix-products-involutory" in report.failing()

    def test_repeated_generator_fails_meet(self):
        K, result = self._extension()
        G = result.graph
        bad = GprGraph(G.rank, G.arrows[:-1] + (G.arrows[-2],))
        report = verify_extension_criterion(bad, K)
        assert "cyclic-meet-trivial" in report.failing()

    def test_rank_mismatch(self):
        from helpers import polygon
        K, result = self._extension()
        with pytest.raises(PreconditionError):
            verify_extension_criterion(result.graph, polygon(4))

    def test_degenerate_graphs_rejected(self):
        from chirex.maniplex import Maniplex, RootedManiplex
        from helpers import polygon
        segment = RootedManiplex(Maniplex(1, (Perm([1, 0]),)), 0)
        with pytest.raises(PreconditionError, match="two labels"):
            verify_extension_criterion(GprGraph(1, (Perm([0]),)), segment)
        empty = GprGraph(2, (Perm([]), Perm([])))
        with pytest.raises(PreconditionError, match="no vertices"):
            verify_extension_criterion(empty, polygon(4))


def unmatched_level(G: GprGraph) -> int | None:
    return unmatched_component_level(G, *components(G, range(1, G.rank)))


def random_gpr(rnd: random.Random, rank: int, degree: int) -> GprGraph:
    arrows = []
    for _ in range(rank):
        images = list(range(degree))
        rnd.shuffle(images)
        arrows.append(Perm(images))
    return GprGraph(rank, tuple(arrows))


class TestComponentIntersection:
    """Condition 4 against the three-partition oracle in helpers."""

    @pytest.mark.parametrize("s", [1, 2])
    @pytest.mark.parametrize("b,c", CONSTRUCT_MAPS)
    def test_real_extensions(self, b, c, s):
        G = extension(b, c, s)
        shuffled = conjugate(G, Perm(random.Random(b * 100 + c * 10 + s).sample(
            range(G.num_vertices), G.num_vertices)))
        assert unmatched_level(G) is unmatched_level(shuffled) is None
        assert unmatched_level_by_partitions(shuffled) is None
        merged = merged_copies(b, c, s)
        assert unmatched_level(merged) == unmatched_level_by_partitions(merged)

    def test_random_graphs_that_fail(self):
        # random arrows on few vertices fail at some k far more often than
        # not; both outcomes occur, at every k of rank 4
        levels = []
        rnd = random.Random(13)
        for _ in range(400):
            G = random_gpr(rnd, rnd.choice([3, 4]), rnd.randint(1, 12))
            level = unmatched_level(G)
            assert level == unmatched_level_by_partitions(G)
            levels.append((G.rank, level))
        assert {(3, None), (3, 2), (4, None), (4, 2), (4, 3)} <= set(levels)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(2, 5), st.integers(1, 10), st.randoms(use_true_random=False))
    def test_random_graphs(self, rank, degree, rnd):
        G = random_gpr(rnd, rank, degree)
        assert unmatched_level(G) == unmatched_level_by_partitions(G)


def facet_subgroup(G: GprGraph, *extra) -> PermGroup:
    return PermGroup(G.num_vertices, G.arrows[:-1] + extra)


class TestFacetComponents:
    @pytest.mark.parametrize("s", [1, 2])
    @pytest.mark.parametrize("b,c", CONSTRUCT_MAPS)
    def test_matches_every_root(self, b, c, s):
        cay = cayley_gpr(torus(b, c))
        G = extension(b, c, s)
        assert facet_components_isomorphic(G, cay) is True
        assert facet_components_by_every_root(G, cay)
        merged = merged_copies(b, c, s)
        assert facet_components_isomorphic(merged, cay) is False
        assert not facet_components_by_every_root(merged, cay)

    def test_consistent_cover_is_not_a_copy(self):
        # the forced map from the cover's least vertex respects every arrow
        # but sends four vertices to each vertex of the Cayley graph
        cay = cayley_gpr(torus(3, 1))
        G = cover_graph()
        assert facet_components_isomorphic(G, cay) is False
        assert not facet_components_by_every_root(G, cay)
        cover_only = GprGraph(3, tuple(Perm([x - 40 for x in a.images[40:]]) for a in G.arrows))
        assert facet_components_isomorphic(cover_only, cay) is False

    def test_consistent_fold_of_the_right_size_is_not_a_copy(self):
        # a 4-cycle folds onto two 2-cycles consistently, with as many
        # vertices as the target but two of them on each image
        cycle = GprGraph(2, (Perm.from_cycles(4, [(0, 1, 2, 3)]), Perm.identity(4)))
        two_cycles = GprGraph(1, (Perm.from_cycles(4, [(0, 1), (2, 3)]),))
        assert facet_components_isomorphic(cycle, two_cycles) is False

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_random_unions_match_every_root(self, data):
        # unions of relabelled Cayley graphs of the cube and the chiral
        # {4,4}_(2,1), some with two arrow heads exchanged
        K = data.draw(st.sampled_from([cube(), torus(2, 1)]))
        cay = cayley_gpr(K)
        W = cay.num_vertices
        rows = [[] for _ in range(cay.rank + 1)]
        for part in range(data.draw(st.integers(1, 3))):
            shuffle = Perm(data.draw(st.permutations(range(W))))
            copy = conjugate(GprGraph(cay.rank, cay.arrows), shuffle)
            if data.draw(st.booleans()):
                k = data.draw(st.integers(1, cay.rank))
                u, v = data.draw(st.lists(st.integers(0, W - 1), min_size=2, max_size=2,
                                          unique=True))
                copy = swap_heads(copy, k, u, v)
            for k, a in enumerate(copy.arrows):
                rows[k] += [x + part * W for x in a.images]
            rows[-1] += [x + part * W for x in range(W)]  # the last label plays no part
        G = GprGraph(cay.rank + 1, tuple(Perm(r) for r in rows))
        assert facet_components_isomorphic(G, cay) == facet_components_by_every_root(G, cay)


class TestFacetSubgroup:
    @pytest.mark.parametrize("s", [1, 2])
    @pytest.mark.parametrize("b,c", CONSTRUCT_MAPS)
    def test_meet_and_membership_match_chain(self, b, c, s):
        G = extension(b, c, s)
        sn, H, F = G.arrow(G.rank), facet_subgroup(G), FacetSubgroup(G.arrows[:-1])
        assert cyclic_meet_order(sn, F) == cyclic_meet_order(sn, H) \
            == (sn.order(), cyclic_meet_by_loop(sn, H))
        power = Perm.identity(G.num_vertices)
        for j in range(sn.order()):
            assert (power in F) == (power in H) == (j == 0)
            power = power * sn

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from([(3, 1, 1), (4, 2, 2), (5, 3, 1)]),
           st.lists(st.integers(0, 1), max_size=16), st.integers(0, 3))
    def test_words_match_chain(self, case, letters, j):
        # every word in the facet arrows lies in the facet subgroup; times a
        # power of s_n it does exactly when the chain says so
        G = extension(*case)
        F, H = FacetSubgroup(G.arrows[:-1]), facet_subgroup(G)
        word = Perm.identity(G.num_vertices)
        for k in letters:
            word = word * G.arrows[k]
        assert word in F
        moved = word * G.arrow(G.rank) ** j
        assert (moved in F) == (moved in H)

    def test_degree_mismatch(self):
        F = FacetSubgroup(extension(3, 1, 1).arrows[:-1])
        with pytest.raises(DegreeMismatch):
            Perm.identity(3) in F


class TestCyclicMeet:
    @pytest.mark.parametrize("key", sorted(SEED_POOLS))
    def test_seeded_pools_match_loop(self, key):
        b, c, s, q = (int(part.lstrip("sq")) for part in key.split("_")[1:])
        assert q <= 30000 and SEED_POOLS[key]
        K = build_toroidal_map(TorusParams("44", b, c))
        for step3 in SEED_POOLS[key]:
            G = extend_dually_bipartite(K, s, seed=step3).graph
            sn, H, F = G.arrow(G.rank), facet_subgroup(G), FacetSubgroup(G.arrows[:-1])
            assert sn.order() == q
            assert cyclic_meet_order(sn, F) == cyclic_meet_order(sn, H) == (q, 1)
            assert cyclic_meet_by_loop(sn, H) == 1

    @pytest.mark.parametrize("b,c,s", [(3, 1, 1), (3, 1, 2), (3, 1, 3), (4, 2, 1)])
    def test_nontrivial_meets_match_loop(self, b, c, s):
        # H = <facet generators, s_n^k> meets <s_n> in at least <s_n^k>;
        # a chain for such an H on a seeded extension is far larger
        G = extend_dually_bipartite(build_toroidal_map(TorusParams("44", b, c)), s).graph
        sn = G.arrow(G.rank)
        q = sn.order()
        meets = []
        for k in range(1, q + 1):
            if q % k == 0:
                H = facet_subgroup(G, sn ** k)
                assert cyclic_meet_order(sn, H)[0] == q
                m = cyclic_meet_order(sn, H)[1]
                assert m == cyclic_meet_by_loop(sn, H)
                assert m % (q // k) == 0
                meets.append(m)
        assert meets[0] == q and meets[-1] == 1

    @settings(max_examples=80, deadline=None)
    @given(perms(8), st.lists(perms(8), min_size=0, max_size=2), st.integers(0, 6))
    def test_random_groups_match_loop(self, s, gens, k):
        # a power of s among the generators makes the meet nontrivial
        H = PermGroup(8, gens + [s ** k] * (k > 0))
        assert cyclic_meet_order(s, H) == (s.order(), cyclic_meet_by_loop(s, H))

    def test_failure_detail_is_least_power(self):
        # the last arrow is s_2 beside a 3-cycle on three added points: s_2
        # has order 4, so <s_3> meets the facet subgroup in order 4, first
        # at s_3^3
        K = build_toroidal_map(TorusParams("44", 3, 1))
        G = extend_dually_bipartite(K, 1).graph
        pad = (0, 1, 2)
        arrows = tuple(Perm(disjoint_union(a.images, pad)) for a in G.arrows[:-1])
        last = Perm(disjoint_union(G.arrows[-2].images, (1, 2, 0)))
        bad = GprGraph(G.rank, arrows + (last,))
        H = facet_subgroup(bad)
        assert cyclic_meet_order(last, H) == (12, 4)
        assert cyclic_meet_by_loop(last, H) == 4
        report = verify_extension_criterion(bad, K)
        detail = dict((name, d) for name, _, d in report.verdicts)["cyclic-meet-trivial"]
        assert detail == "s_3^3 lies in the facet subgroup"
        assert "cyclic-meet-trivial" in report.failing()


class TestCriterionFacetSubgroup:
    """Condition 1 selects the facet subgroup's membership test: the path
    word when every facet component is a copy of the Cayley graph, the
    stabiliser chain otherwise."""

    @pytest.mark.parametrize("b,c,s", [(3, 1, 1), (3, 1, 2), (4, 2, 1)])
    def test_merged_copies_report_exact_meet(self, b, c, s):
        G = merged_copies(b, c, s)
        report = verify_extension_criterion(G, torus(b, c))
        verdicts = {name: (ok, detail) for name, ok, detail in report.verdicts}
        assert verdicts["facet-components-isomorphic"][0] is False
        assert verdicts["cyclic-meet-trivial"][1] == meet_detail(G)

    def test_cover_reports_exact_meet(self):
        # a path word would read s_3 as the identity, since s_3 fixes 0
        G = cover_graph()
        report = verify_extension_criterion(G, torus(3, 1))
        assert report.verdicts[0] == ("facet-components-isomorphic", False,
                                      "2 components of size [40, 160]")
        assert report.verdicts[2] == ("cyclic-meet-trivial", False,
                                      "s_3^1 lies in the facet subgroup")
        assert meet_detail(G) == "s_3^1 lies in the facet subgroup"

    def test_only_the_fallback_builds_a_chain(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise RuntimeError("stabiliser chain built")

        report = verify_extension_criterion(extension(9, 1, 2), torus(9, 1))
        failing = merged_copies(3, 1, 1)
        monkeypatch.setattr(permcore._Chain, "__init__", refuse)
        assert verify_extension_criterion(extension(9, 1, 2), torus(9, 1)).verdicts \
            == report.verdicts
        assert report.passed
        with pytest.raises(RuntimeError, match="chain built"):
            verify_extension_criterion(failing, torus(3, 1))

    @settings(max_examples=20, deadline=None)
    @given(st.sampled_from(["extension", "merged", "cover"]), st.randoms(use_true_random=False))
    def test_relabelling_keeps_every_verdict(self, which, rnd):
        K = torus(3, 1)
        G = {"extension": lambda: extension(3, 1, 2), "merged": lambda: merged_copies(3, 1, 1),
             "cover": cover_graph}[which]()
        images = list(range(G.num_vertices))
        rnd.shuffle(images)
        before = verify_extension_criterion(G, K)
        after = verify_extension_criterion(conjugate(G, Perm(images)), K)
        assert after.verdicts == before.verdicts
        assert after.data == before.data


class TestTauRelations:
    def test_real_matching_involution(self):
        from chirex.extend_db import extend_dually_bipartite
        K = build_toroidal_map(TorusParams("44", 3, 1))
        result = extend_dually_bipartite(K, 2)
        assert check_tau_relations(result.graph, result.t)

    def test_non_involution_rejected(self):
        from chirex.extend_db import extend_dually_bipartite
        K = build_toroidal_map(TorusParams("44", 3, 1))
        result = extend_dually_bipartite(K, 1)
        not_inv = Perm.from_cycles(result.graph.num_vertices, [(0, 1, 2)])
        assert not check_tau_relations(result.graph, not_inv)

    def test_identity_violates_relations(self):
        from chirex.extend_db import extend_dually_bipartite
        K = build_toroidal_map(TorusParams("44", 3, 1))
        result = extend_dually_bipartite(K, 1)
        ident = Perm.identity(result.graph.num_vertices)
        # conjugation by the identity fixes s_{n-2}, which has order > 2
        assert not check_tau_relations(result.graph, ident)

    def test_degree_mismatch(self):
        from chirex.extend_db import extend_dually_bipartite
        K = build_toroidal_map(TorusParams("44", 3, 1))
        result = extend_dually_bipartite(K, 1)
        with pytest.raises(PreconditionError):
            check_tau_relations(result.graph, Perm.identity(3))
