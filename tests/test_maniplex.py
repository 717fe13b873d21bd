import random

import pytest

from chirex.maniplex import (Maniplex, PreconditionError, RootedManiplex,
                             Symmetry, automorphism_orbit, classify_symmetry,
                             covers, dually_bipartite_colouring, facets,
                             find_rooted_automorphism, forced_map, is_orientable,
                             rotation_rows, rotation_system, schlafli, validate)
from chirex.permcore import Perm, PermGroup, disjoint_union, left_product, orbit_partition
from chirex.toroidal import TorusParams, build_toroidal_map
from chirex.two_s_m import build_two_s_m

from helpers import (aut_count_by_scan, automorphism_orbit_by_closure, colouring_by_facet_bfs,
                     cross_check_maps, cube, hemicube, mirror_sensitive_maniplex,
                     orientable_by_deque, polygon, random_rank3_maniplex, rotary_by_flag_maps,
                     schlafli_by_orders, symmetry_by_flag_maps, tau, triangular_prism,
                     validate_by_loops)


class TestValidate:
    def test_polygon_and_cube_pass(self):
        assert validate(polygon(5).maniplex).passed
        assert validate(cube().maniplex).passed
        assert validate(hemicube().maniplex).passed

    def test_fixed_point_fails_involution(self):
        r0 = Perm.from_cycles(4, [(0, 1)])  # fixes 2 and 3
        r1 = Perm.from_cycles(4, [(0, 1), (2, 3)])
        report = validate(Maniplex(2, (r0, r1)))
        assert not report.passed
        assert any(name == "involution" and not ok for name, ok, _ in report.verdicts)

    def test_shared_neighbour_fails(self):
        r = Perm.from_cycles(4, [(0, 1), (2, 3)])
        report = validate(Maniplex(2, (r, r)))
        assert "distinct-neighbours" in report.failing()

    def test_far_commutation_fails(self):
        # r_0 and r_2 must commute; a 6-cycle square of involutions does not
        r0 = Perm.from_cycles(6, [(0, 1), (2, 3), (4, 5)])
        r1 = Perm.from_cycles(6, [(1, 2), (3, 4), (5, 0)])
        r2 = Perm.from_cycles(6, [(0, 3), (1, 4), (2, 5)])
        report = validate(Maniplex(3, (r0, r1, r2)))
        assert "far-commutation" in report.failing()

    def test_disconnected_fails_transitivity(self):
        r0 = Perm.from_cycles(8, [(0, 1), (2, 3), (4, 5), (6, 7)])
        r1 = Perm.from_cycles(8, [(1, 2), (3, 0), (5, 6), (7, 4)])
        report = validate(Maniplex(2, (r0, r1)))
        assert "transitivity" in report.failing()

    def test_against_the_flag_loop(self):
        # passing maps and broken copies of them: one image swapped in r_i,
        # r_i given to another colour, r_i replaced by a random involution
        # or permutation, every r_i random, and two maps side by side; every
        # verdict and detail, first failing flag included, is the flag loop's
        rng = random.Random(3)
        cases, failing = [], set()
        for M in list(cross_check_maps())[::9]:
            man = M.maniplex
            rows, n = [list(r.images) for r in man.adjacency], man.num_flags
            cases += [man, Maniplex(man.rank, tuple(
                Perm(disjoint_union(r.images, r.images)) for r in man.adjacency))]
            for kind in range(5):
                broken, i = [r[:] for r in rows], rng.randrange(man.rank)
                if kind == 0:
                    a, b = rng.sample(range(n), 2)
                    broken[i][a], broken[i][b] = broken[i][b], broken[i][a]
                elif kind == 1:
                    broken[(i + rng.randrange(1, man.rank)) % man.rank] = broken[i][:]
                elif kind == 2:
                    points, broken[i] = rng.sample(range(n), n), list(range(n))
                    for a, b in zip(points[::2], points[1::2]):
                        broken[i][a], broken[i][b] = b, a
                elif kind == 3:
                    broken[i] = rng.sample(range(n), n)
                else:
                    broken = [rng.sample(range(n), n) for _ in rows]
                cases.append(Maniplex(man.rank, tuple(Perm(r) for r in broken)))
        for man in cases:
            report = validate(man)
            assert report.verdicts == validate_by_loops(man).verdicts
            failing.update(report.failing())
        assert failing == {"involution", "distinct-neighbours", "far-commutation", "transitivity"}

    def test_shape_errors(self):
        with pytest.raises(ValueError):
            Maniplex(2, (Perm.identity(4),))
        with pytest.raises(ValueError):
            Maniplex(2, (Perm.identity(4), Perm.identity(6)))
        with pytest.raises(ValueError):
            RootedManiplex(polygon(3).maniplex, 99)


class TestOrientation:
    def test_cube_is_orientable(self):
        man = cube().maniplex
        white = is_orientable(man)
        assert white is not None
        assert len(white) == 24  # half of the 48 flags
        assert 0 in white
        # rooted at a neighbour of flag 0, the other class is white
        assert is_orientable(man, man.adjacency[0](0)) == frozenset(range(48)) - white

    def test_hemicube_is_not(self):
        assert is_orientable(hemicube().maniplex) is None


class TestSymmetry:
    def test_classification(self):
        assert classify_symmetry(cube()) is Symmetry.REGULAR
        assert classify_symmetry(polygon(6)) is Symmetry.REGULAR
        assert classify_symmetry(hemicube()) is Symmetry.REGULAR

    def test_schlafli(self):
        assert schlafli(cube()) == [4, 3]
        assert schlafli(polygon(7)) == [7]
        assert schlafli(hemicube()) == [4, 3]

    def test_schlafli_matches_orders_on_the_sweep(self):
        # every toroidal map of the benchmark's sweep: -6 <= b, c <= 6
        count = 0
        for family in ("44", "36", "63"):
            for b in range(-6, 7):
                for c in range(-6, 7):
                    if (b, c) != (0, 0):
                        rooted = build_toroidal_map(TorusParams(family, b, c))
                        assert schlafli(rooted) == schlafli_by_orders(rooted), (family, b, c)
                        count += 1
        assert count == 504

    def test_schlafli_matches_orders_on_two_s_m(self):
        for source, s in ((build_toroidal_map(TorusParams("44", 2, 0)), 3), (cube(), 2)):
            rooted = build_two_s_m(source, s).rooted
            assert schlafli(rooted) == schlafli_by_orders(rooted) == schlafli(source) + [2 * s]

    def test_schlafli_rejects_non_rotary(self):
        # the prism's faces are triangles and squares: the base flag's
        # cycles would give a symbol that the other flags contradict
        prism = triangular_prism()
        for base in range(prism.maniplex.num_flags):
            with pytest.raises(PreconditionError, match="not rotary"):
                schlafli(RootedManiplex(prism.maniplex, base))

    def test_one_classification_per_rooted_maniplex(self, monkeypatch):
        # schlafli reuses the rotations classify_symmetry found: two
        # rotations and one reflection, not the rotations a second time
        from chirex import maniplex
        calls = []
        real = maniplex.forced_map
        monkeypatch.setattr(maniplex, "forced_map", lambda *a: calls.append(a) or real(*a))
        chiral = torus("44", 3, 1)
        assert classify_symmetry(chiral) is Symmetry.CHIRAL
        assert schlafli(chiral) == [4, 4]
        assert classify_symmetry(chiral) is Symmetry.CHIRAL
        assert len(calls) == 3
        # the cache belongs to the object: a new root classifies afresh
        assert classify_symmetry(RootedManiplex(chiral.maniplex, 1)) is Symmetry.CHIRAL
        assert len(calls) == 6
        prism = triangular_prism()
        assert classify_symmetry(prism) is Symmetry.OTHER
        with pytest.raises(PreconditionError, match="not rotary"):
            schlafli(prism)

    def test_rooted_automorphism(self):
        man = cube().maniplex
        g = find_rooted_automorphism(man, 0, man.adjacency[0].images[0])
        assert g is not None
        for r in man.adjacency:
            assert g * r == r * g
        assert find_rooted_automorphism(man, 0, 0) == Perm.identity(48)


def torus(family, b, c):
    return build_toroidal_map(TorusParams(family, b, c))


class TestRotaryOnEvenWords:
    """``rotary`` maps over the rotations s_1..s_{n-1}; every verdict is the
    flag-graph forced maps' (``helpers.rotary_by_flag_maps``)."""

    def check(self, man: Maniplex, bases) -> tuple[int, int, int]:
        # (rotary, non-bipartite, all) counts of the bases checked
        rotary = non_bipartite = checked = 0
        for base in bases:
            rooted = RootedManiplex(man, base)
            assert rooted.rotary == rotary_by_flag_maps(rooted), base
            assert rooted.symmetry is symmetry_by_flag_maps(rooted), base
            rotary += rooted.rotary
            non_bipartite += is_orientable(man, base) is None
            checked += 1
        return rotary, non_bipartite, checked

    def test_rotation_rows_are_r_i_first(self):
        for rooted in (cube(), torus("36", 2, 1), build_two_s_m(polygon(4), 2).rooted):
            man, rows = rooted.maniplex, rotation_rows(rooted.maniplex)
            assert len(rows) == man.rank - 1
            for i, s in enumerate(rows, start=1):
                assert s == left_product([man.adjacency[i - 1], man.adjacency[i]]).images

    def test_matches_flag_maps_on_the_cross_check_maps(self):
        # every flag of the small maps, the base flag and flag 1 of the rest
        rotary, non_bipartite, checked = 0, 0, 0
        for rooted in cross_check_maps():
            man = rooted.maniplex
            bases = range(man.num_flags) if man.num_flags <= 64 else {rooted.base_flag, 1}
            r, b, c = self.check(man, bases)
            rotary, non_bipartite, checked = rotary + r, non_bipartite + b, checked + c
        assert 0 < rotary < checked and non_bipartite > 0

    def test_two_copies_side_by_side(self):
        # disconnected flag graphs: the maps see the base flag's copy only,
        # a bipartite one and one on which the r_0 comparison decides
        for rooted, symmetry in ((torus("44", 3, 1), Symmetry.CHIRAL),
                                 (mirror_sensitive_maniplex(), Symmetry.OTHER)):
            man = rooted.maniplex
            n = man.num_flags
            twice = Maniplex(3, tuple(Perm(disjoint_union(r.images, r.images))
                                      for r in man.adjacency))
            for base in (rooted.base_flag, n + rooted.base_flag):
                assert RootedManiplex(twice, base).symmetry is symmetry
            self.check(twice, range(0, 2 * n, 1 + n // 16))

    def test_non_bipartite_graphs(self):
        # r_0(base) is reached, so beta must also commute with r_0
        man = hemicube().maniplex
        assert self.check(man, range(man.num_flags)) == (24, 24, 24)
        sensitive = mirror_sensitive_maniplex()
        man, base = sensitive.maniplex, sensitive.base_flag
        rows = rotation_rows(man)
        # every even-word map succeeds, yet no flag map does for some s_i
        assert is_orientable(man) is None
        assert all(forced_map(rows, rows, base, s[base], [-1] * man.num_flags) is not None
                   for s in rows)
        assert not sensitive.rotary and sensitive.symmetry is Symmetry.OTHER
        self.check(man, range(man.num_flags))

    def test_random_rank3_graphs(self):
        rng = random.Random(11)
        drawn = [random_rank3_maniplex(rng, rng.randrange(2, 9)) for _ in range(300)]
        drawn = [man for man in drawn if man is not None]
        rotary, non_bipartite, checked = map(sum, zip(*(self.check(man, range(man.num_flags))
                                                        for man in drawn)))
        assert len(drawn) > 50 and 0 < rotary < checked and non_bipartite > 0


class TestAutomorphismOrbit:
    def check_against_scan(self, M: Maniplex, base: int):
        found = automorphism_orbit(M, base)
        assert len(found.orbit) == len(set(found.orbit)) == aut_count_by_scan(M, base)
        assert found.orbit[0] == base
        members = set(found.orbit)
        for g in found.generators:
            assert all(g[r[f]] == r[g[f]] for r in (a.images for a in M.adjacency)
                       for f in range(M.num_flags))
            assert members == {g[f] for f in members}
        return found

    def test_regular_graphs_and_their_two_s_m(self):
        for rooted in (polygon(4), cube(), hemicube(), torus("44", 2, 0),
                       build_two_s_m(polygon(4), 2).rooted,
                       build_two_s_m(torus("44", 2, 0), 2).rooted):
            M = rooted.maniplex
            found = self.check_against_scan(M, rooted.base_flag)
            assert len(found.orbit) == M.num_flags
            assert found.forced_maps == len(found.generators)

    @pytest.mark.parametrize("family,b,c", [("44", 2, 1), ("44", 3, 1),
                                            ("36", 2, 1), ("63", 1, 2)])
    def test_chiral_maps_exclude_the_other_flag_orbit(self, family, b, c):
        M = torus(family, b, c).maniplex
        for base in (0, 7):
            found = self.check_against_scan(M, base)
            assert 2 * len(found.orbit) == M.num_flags
            assert found.forced_maps <= 6

    def test_non_rotary_graph(self):
        M = triangular_prism().maniplex
        for base in range(0, M.num_flags, 5):
            found = self.check_against_scan(M, base)
            assert len(found.orbit) < M.num_flags

    def test_orbit_of_closures_match_the_hand_written_ones(self):
        # the 504 sweep maps (the chiral ones exercise the exclusion) at two
        # base flags, and 2s^R for R = {4,4}_(2,0) at s = 2, 3, 4: the same
        # scan finds the same generators, so the orbit and both counts agree
        sweep = [torus(family, b, c) for family in ("44", "36", "63")
                 for b in range(-6, 7) for c in range(-6, 7) if (b, c) != (0, 0)]
        R = torus("44", 2, 0)
        maps = sweep + [build_two_s_m(R, s).rooted for s in (2, 3, 4)]
        excluded = 0
        for rooted in maps:
            M = rooted.maniplex
            aut_count = M.num_flags // (1 if classify_symmetry(rooted) is Symmetry.REGULAR else 2)
            for base in (0, M.num_flags // 2 + 1):
                found, oracle = automorphism_orbit(M, base), automorphism_orbit_by_closure(M, base)
                assert found.orbit[0] == oracle.orbit[0] == base
                assert len(found.orbit) == len(set(found.orbit)) == aut_count
                assert set(found.orbit) == set(oracle.orbit)
                assert found.generators == oracle.generators
                assert found.forced_maps == oracle.forced_maps
                excluded += found.forced_maps - len(found.generators)
                if M.num_flags <= 100:
                    assert aut_count == aut_count_by_scan(M, base)
        assert excluded > 0

    def test_disconnected_graph_raises(self):
        M = polygon(4).maniplex
        twice = Maniplex(2, tuple(Perm(disjoint_union(r.images, r.images))
                                  for r in M.adjacency))
        for base in (0, 8):
            with pytest.raises(PreconditionError):
                automorphism_orbit(twice, base)


class TestRotationSystem:
    def test_cube(self):
        rs = rotation_system(cube())
        assert rs.degree == 24
        assert rs.rank == 3
        assert [g.order() for g in rs.sigma] == [4, 3]
        assert PermGroup(rs.degree, rs.sigma).order() == 24  # free and transitive on white flags

    def test_sigma_matches_connections(self):
        rooted = cube()
        man = rooted.maniplex
        rs = rotation_system(rooted)
        for i in range(1, man.rank):
            s = left_product([man.adjacency[i - 1], man.adjacency[i]])
            for wi, f in enumerate(rs.white_flags):
                assert rs.white_flags[rs.sigma[i - 1](wi)] == s(f)

    def test_needs_orientable(self):
        with pytest.raises(PreconditionError):
            rotation_system(hemicube())

    def test_tau_conventions(self):
        rs = rotation_system(cube())
        ident = Perm.identity(rs.degree)
        assert tau(rs.sigma, 1, 1) == ident
        assert tau(rs.sigma, -1, 2) == ident
        assert tau(rs.sigma, 0, 3) == ident
        assert tau(rs.sigma, 0, 2) == left_product([rs.sigma[0], rs.sigma[1]])
        assert tau(rs.sigma, 2, 0) == tau(rs.sigma, 0, 2).inverse()
        with pytest.raises(IndexError):
            tau(rs.sigma, -2, 1)


class TestComponents:
    def test_cube_facets(self):
        blocks = facets(cube().maniplex)
        assert len(blocks) == 6
        assert all(len(b) == 8 for b in blocks)

    def test_vertices_and_edges(self):
        r0, r1, r2 = cube().maniplex.adjacency
        vertices, _ = orbit_partition([r1, r2], 48)
        edges, _ = orbit_partition([r0, r2], 48)
        assert len(vertices) == 8 and len(edges) == 12

    def test_empty_colour_set(self):
        assert orbit_partition([], 6)[0] == [(i,) for i in range(6)]


class TestCovers:
    def test_cube_covers_hemicube(self):
        mapping = covers(cube(), hemicube())
        assert mapping is not None
        assert sorted(set(mapping)) == list(range(24))

    def test_hemicube_does_not_cover_cube(self):
        assert covers(hemicube(), cube()) is None

    def test_rank_mismatch(self):
        with pytest.raises(PreconditionError):
            covers(cube(), polygon(4))

    def test_map_must_reach_every_flag(self):
        # from the base flag the forced map reaches one of two triangles;
        # the target's extra fixed flag makes its flag count equal the
        # number of distinct entries, unset ones included
        tri = polygon(3).maniplex
        twice = Maniplex(2, tuple(Perm(disjoint_union(r.images, r.images))
                                  for r in tri.adjacency))
        padded = Maniplex(2, tuple(Perm(r.images + (6,)) for r in tri.adjacency))
        assert covers(RootedManiplex(twice, 0), RootedManiplex(padded, 0)) is None
        assert covers(RootedManiplex(tri, 0), RootedManiplex(tri, 0)) == list(range(6))


class TestColouringsAgainstOracles:
    def test_forced_maps_match_the_deque_bfs(self):
        # orientability and the facet colouring, each one forced map onto
        # the two-point graph, against the deque BFS they replaced, rooted
        # at the base flag and at its 0-neighbour
        orientable, bipartite = [], []
        for rooted in cross_check_maps():
            man = rooted.maniplex
            for base in (rooted.base_flag, man.adjacency[0](rooted.base_flag)):
                white = is_orientable(man, base)
                assert white == orientable_by_deque(man, base)
                colouring = dually_bipartite_colouring(man, base)
                assert colouring == colouring_by_facet_bfs(man, base)
                orientable.append(white is not None)
                bipartite.append(colouring is not None)
        for found in (orientable, bipartite):
            assert len(found) == 2 * 515 and 0 < sum(found) < len(found)


class TestDuallyBipartite:
    def test_even_polygon(self):
        colouring = dually_bipartite_colouring(polygon(4).maniplex)
        assert colouring is not None and sorted(set(colouring)) == [-1, 1]
        assert dually_bipartite_colouring(polygon(6).maniplex) is not None

    def test_odd_polygon(self):
        assert dually_bipartite_colouring(polygon(5).maniplex) is None

    def test_cube_faces_are_not_two_colourable(self):
        assert dually_bipartite_colouring(cube().maniplex) is None

    def test_a_colouring_forces_an_even_last_entry(self):
        # the proof in dually_bipartite_colouring's docstring, which stands
        # in for a runtime check of the product's order
        found = 0
        for rooted in cross_check_maps():
            man = rooted.maniplex
            if dually_bipartite_colouring(man, rooted.base_flag) is not None:
                assert (man.adjacency[-1] * man.adjacency[-2]).order() % 2 == 0
                found += 1
        assert found > 100
