import hashlib
import json
import math
import mmap
import os
import random
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chirex import permcore
from chirex.permcore import (DegreeMismatch, Perm, PermGroup, PreconditionError, _Chain,
                             left_product, orbit_of, orbit_partition, repeated)

from helpers import (CursorChain, GroupWord, brute_force_closure, components_union_find,
                     evaluate_word, orbit_by_deque, power_by_squaring, word_action)


def perms(degree):
    return st.permutations(range(degree)).map(Perm)


# (degree, permutation list) with degree 0..8 and 0..4 permutations
perm_lists = st.integers(0, 8).flatmap(
    lambda d: st.tuples(st.just(d), st.lists(perms(d), max_size=4)))


class TestPerm:
    def test_composition_convention(self):
        # (p * q)(x) == q(p(x)): p first, then q
        p = Perm.from_cycles(3, [(0, 1)])
        q = Perm.from_cycles(3, [(1, 2)])
        assert (p * q)(0) == 2
        assert (q * p)(0) == 1

    def test_left_product_convention(self):
        a = Perm.from_cycles(3, [(0, 1)])
        b = Perm.from_cycles(3, [(1, 2)])
        # left_product([a, b]) applies b first
        assert left_product([a, b])(2) == a(b(2)) == 0
        with pytest.raises(ValueError):
            left_product([])

    def test_not_a_bijection(self):
        with pytest.raises(ValueError):
            Perm([0, 0, 1])
        with pytest.raises(ValueError):
            Perm([0, 0])

    @pytest.mark.parametrize("images", [[1.0, 0.0], [1, 0.0], ["1", "0"], "10"])
    def test_images_that_are_not_integers(self, images):
        # floats compare equal to 0..n-1 but cannot index a tuple
        with pytest.raises(ValueError, match="images are not integers"):
            Perm(images)

    def test_numpy_scalars_become_ints(self):
        p = Perm([np.int64(1), np.uint8(2), np.intp(0)])
        assert p.images == (1, 2, 0) and all(type(x) is int for x in p.images)
        assert (p * p).images == (2, 0, 1)

    @given(st.integers(0, 9).flatmap(lambda d: st.tuples(perms(d), perms(d))),
           st.integers(-6, 6))
    def test_unchecked_results_are_bijections(self, pq, k):
        # products, inverses, powers and identities skip the bijection
        # check, so compare each with a plain list computation
        p, q = pq
        a, b = p.images, q.images
        d = len(a)
        inv = [0] * d
        for x, y in enumerate(a):
            inv[y] = x
        power, step = list(range(d)), a if k >= 0 else inv
        for _ in range(abs(k)):
            power = [step[x] for x in power]
        for result, plain in ((p * q, [b[x] for x in a]), (p.inverse(), inv),
                              (p ** k, power), (Perm.identity(d), list(range(d)))):
            assert type(result.images) is tuple
            assert sorted(result.images) == list(range(d))
            assert list(result.images) == plain

    def test_degree_mismatch(self):
        with pytest.raises(DegreeMismatch):
            Perm.identity(3) * Perm.identity(4)

    @given(perms(6), perms(6), perms(6))
    def test_associativity(self, p, q, r):
        assert (p * q) * r == p * (q * r)

    @given(perms(7))
    def test_inverse_and_order(self, p):
        assert p * p.inverse() == Perm.identity(7)
        assert p ** p.order() == Perm.identity(7)
        if not p.is_identity():
            assert p ** (p.order() - 1) != Perm.identity(7)

    @given(perms(7), st.integers(-20, 20))
    def test_power_against_repeated_product(self, p, k):
        expected = Perm.identity(7)
        step = p if k >= 0 else p.inverse()
        for _ in range(abs(k)):
            expected = expected * step
        assert p ** k == expected

    @given(st.integers(0, 60).flatmap(perms), st.integers(-10**6, 10**6))
    def test_power_against_square_and_multiply(self, p, k):
        assert p ** k == power_by_squaring(p, k)

    @given(perms(8))
    def test_cycles_round_trip(self, p):
        assert Perm.from_cycles(8, [list(c) for c in p.cycles()]) == p

    @given(perms(7))
    def test_order_against_repeated_products(self, p):
        # the least k >= 1 with p^k == 1; test_inverse_and_order alone would
        # pass a multiple of it
        power, k = p, 1
        while not power.is_identity():
            power, k = power * p, k + 1
        assert p.order() == k

    @given(perms(5), st.integers(0, 4))
    def test_repeated_equals_the_checked_constructor(self, p, copies):
        wide = repeated(p, copies)
        assert wide == Perm([ell * 5 + x for ell in range(copies) for x in p.images])
        assert sorted(wide.images) == list(range(5 * copies))

    @pytest.mark.parametrize("cycles,message", [
        ([(0, 5)], "point 5 is outside 0..2"), ([(0, -2), (1, 0)], "point -2 is outside 0..2"),
        ([(3,)], "point 3 is outside 0..2"), ([(0, 1.0)], "not integers: 'float'"),
        ([(1.0, 0)], "not integers: 'float'"), ([(0, "1")], "not integers: 'str'"),
    ], ids=["cycles%d" % k for k in range(6)])
    def test_from_cycles_refuses_points_out_of_range(self, cycles, message):
        # a negative point would otherwise index the image list from its end,
        # and a float or string one raise TypeError
        with pytest.raises(ValueError, match=message):
            Perm.from_cycles(3, cycles)

    def test_repr(self):
        assert repr(Perm.identity(3)) == "Perm.identity(3)"
        assert repr(Perm([1, 2, 0, 3])) == "Perm[4: (0 1 2)]"

    def test_cycles_include_fixed(self):
        p = Perm.from_cycles(4, [(0, 1)])
        assert p.cycles() == [(0, 1)]


class TestFromArray:
    @pytest.mark.parametrize("images", [[0, 0, 1], [0, 3, 1], [1, -1, 0], [2, 0, 2]])
    def test_not_a_bijection_gives_perms_message(self, images):
        with pytest.raises(ValueError) as listed:
            Perm(images)
        with pytest.raises(ValueError) as array:
            Perm.from_array(np.array(images))
        assert str(array.value) == str(listed.value) == "images are not a bijection on 0..2"

    @pytest.mark.parametrize("arr", [np.array([1.0, 0.0]), np.array([[0, 1], [1, 0]]),
                                     np.array([True, False])])
    def test_refuses_arrays_that_are_not_1d_integer(self, arr):
        with pytest.raises(ValueError, match="1-D integer array"):
            Perm.from_array(arr)

    def test_empty_array_gives_degree_0(self):
        p = Perm.from_array(np.array([], dtype=np.int64))
        assert p.degree == 0 and p == Perm([]) and p.is_identity()

    @given(st.integers(0, 12).flatmap(lambda d: st.permutations(range(d))),
           st.sampled_from([np.int32, np.int64, np.uint16, np.intp]))
    def test_equals_the_checked_constructor(self, images, dtype):
        arr = np.array(images, dtype=dtype)
        p = Perm.from_array(arr)
        assert p == Perm(arr.tolist())
        # Python ints, not numpy scalars: JSON output and hashes unchanged
        assert type(p.images) is tuple
        assert all(type(x) is int for x in p.images)
        assert hash(p) == hash(tuple(images))


class TestGroupWord:
    def test_letter_validation(self):
        with pytest.raises(ValueError):
            GroupWord(((0, 2),))
        with pytest.raises(ValueError):
            GroupWord(((-1, 1),))

    def test_evaluate_and_inverse(self):
        gens = [Perm.from_cycles(4, [(0, 1, 2, 3)]), Perm.from_cycles(4, [(0, 1)])]
        w = GroupWord(((0, 1), (1, 1), (0, -1)))
        p = evaluate_word(gens, w)
        assert p == gens[0] * gens[1] * gens[0].inverse()
        assert evaluate_word(gens, w.inverse()) == p.inverse()
        assert evaluate_word(gens, w + w.inverse()).is_identity()

    def test_word_action_reverses(self):
        gens = [Perm.from_cycles(4, [(0, 1, 2, 3)]), Perm.from_cycles(4, [(0, 1)])]
        w = GroupWord(((0, 1), (1, 1)))
        # read as a left action the leftmost letter applies last
        assert word_action(gens, w) == gens[1] * gens[0]

    def test_empty_word(self):
        assert evaluate_word([], GroupWord(), degree=5).is_identity()
        with pytest.raises(ValueError):
            evaluate_word([], GroupWord())

    def test_index_out_of_range(self):
        with pytest.raises(IndexError):
            evaluate_word([Perm.identity(3)], GroupWord(((4, 1),)))


class TestPermGroup:
    def test_symmetric_group(self):
        gens = [Perm.from_cycles(4, [(0, 1)]), Perm.from_cycles(4, [(0, 1, 2, 3)])]
        G = PermGroup(4, gens)
        assert G.order() == 24
        assert Perm.from_cycles(4, [(1, 3)]) in G

    def test_alternating_membership(self):
        gens = [Perm.from_cycles(4, [(0, 1, 2)]), Perm.from_cycles(4, [(1, 2, 3)])]
        G = PermGroup(4, gens)
        assert G.order() == 12
        assert Perm.from_cycles(4, [(0, 1)]) not in G

    def test_base_is_deterministic(self):
        gens = [Perm.from_cycles(5, [(1, 2)]), Perm.from_cycles(5, [(3, 4)])]
        G = PermGroup(5, gens)
        assert G.base() == PermGroup(5, gens).base()
        assert list(G.base()) == sorted(G.base())

    def test_orbit_partition(self):
        perms = [Perm.from_cycles(6, [(4, 1)]), Perm.from_cycles(6, [(1, 5, 3)])]
        blocks, block_of = orbit_partition(perms, 6)
        assert blocks == [(0,), (1, 3, 4, 5), (2,)]
        assert block_of == [0, 1, 2, 1, 1, 1]
        empty = ([(0,), (1,), (2,)], [0, 1, 2])
        assert orbit_partition([], 3) == components_union_find([], 3) == empty

    @settings(max_examples=100, deadline=None)
    @given(perm_lists)
    def test_orbit_partition_against_union_find(self, case):
        degree, gens = case
        assert orbit_partition(gens, degree) == components_union_find(gens, degree)

    @settings(max_examples=100, deadline=None)
    @given(perm_lists, st.data())
    def test_orbit_of_against_deque_bfs(self, case, data):
        degree, gens = case
        if degree:
            x = data.draw(st.integers(0, degree - 1))
            # the same points in the same BFS discovery order
            assert orbit_of(x, gens) == orbit_by_deque(x, gens)

    def test_orbit_helpers_edge_cases(self):
        assert orbit_partition([], 0) == ([], [])
        assert orbit_partition([Perm([])], 0) == ([], [])
        assert orbit_of(0, []) == [0]
        assert orbit_of(0, [Perm([0])]) == [0]
        cycle = Perm.from_cycles(5, [(0, 3, 1, 4, 2)])
        assert orbit_of(0, [cycle]) == [0, 3, 1, 4, 2]
        assert orbit_of(0, [cycle, cycle.inverse()]) == [0, 3, 2, 1, 4]

    @pytest.mark.parametrize("degree", [0, 1, 2])
    def test_trivial_group(self, degree):
        G = PermGroup(degree, [])
        assert G.order() == 1
        assert Perm.identity(degree) in G

    def test_degenerate_degrees(self):
        assert Perm([1, 0]) not in PermGroup(2, [])
        assert Perm.identity(0).order() == 1

    def test_generator_degree_check(self):
        with pytest.raises(DegreeMismatch):
            PermGroup(4, [Perm.identity(3)])
        with pytest.raises(DegreeMismatch):
            Perm.identity(3) in PermGroup(4, [Perm.identity(4)])

    @settings(max_examples=40, deadline=None)
    @given(st.lists(perms(6), min_size=1, max_size=3))
    def test_order_and_membership_against_closure(self, gens):
        closure = brute_force_closure(gens, 6)
        assert closure is not None
        G = PermGroup(6, gens)
        assert G.order() == len(closure)
        for p in list(closure)[:50]:
            assert p in G

    @settings(max_examples=40, deadline=None)
    @given(st.lists(perms(6), min_size=1, max_size=2), perms(6))
    def test_membership_negative_against_closure(self, gens, probe):
        closure = brute_force_closure(gens, 6)
        G = PermGroup(6, gens)
        assert (probe in G) == (probe in closure)


EXTENSIONS = [(3, 1, 1), (3, 1, 2), (3, 1, 3), (4, 2, 1), (5, 1, 1)]


@pytest.fixture(scope="module")
def extension_groups():
    from chirex.extend_db import extend_dually_bipartite
    from chirex.gpr import gpr_group
    from chirex.toroidal import TorusParams, build_toroidal_map

    return {(b, c, s): gpr_group(extend_dually_bipartite(
                build_toroidal_map(TorusParams("44", b, c)), s).graph)
            for b, c, s in EXTENSIONS}


def check_bsgs(G: PermGroup) -> None:
    """The stabiliser chain's invariants, read off its stored levels and
    the one table of their inverse coset representatives."""
    chain = G.chain
    base = chain.base
    sizes = chain.stats()["orbit_sizes"]
    table_rows = []
    for i, ids in enumerate(chain.gens):
        gens = chain.strong[ids]
        for h in gens:
            assert all(h[b] == b for b in base[:i])
        pts = chain.pts[i]
        # the stored orbit is the orbit of base[i] under the level's generators
        perms_i = [Perm(h.tolist()) for h in gens]
        assert sorted(pts) == sorted(orbit_of(base[i], perms_i))
        assert len(pts) == sizes[i] <= chain.charged[i] <= max(1, 1.25 * len(pts))
        assert chain.orbit[i][:len(pts)].tolist() == pts
        assert (chain.row_of[i] >= 0).sum() == len(pts)
        for p in pts:
            table_rows.append(int(chain.row_of[i][p]))
            assert chain.uinv[table_rows[-1]][p] == base[i]
    # the levels' rows are the table's rows in use: row 0, the identity,
    # for every base point and each other row for one level's point
    assert sorted(table_rows) == [0] * len(base) + list(range(1, chain.nrows))
    assert chain.nrows <= len(chain.uinv) <= max(1, 1.25 * chain.nrows)
    assert math.prod(sizes) == G.order()
    assert chain.stats()["base_length"] == len(base)


class TestChainInvariants:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(perms(7), min_size=1, max_size=3))
    def test_random_groups(self, gens):
        G = PermGroup(7, gens)
        check_bsgs(G)
        assert G.order() == len(brute_force_closure(gens, 7))

    def test_large_random_groups(self):
        rng = random.Random(5)
        for degree in (12, 20, 31):
            for count in (1, 2, 3):
                gens = []
                for _ in range(count):
                    images = list(range(degree))
                    rng.shuffle(images)
                    gens.append(Perm(images))
                check_bsgs(PermGroup(degree, gens))

    def test_extension_5_1(self, extension_groups):
        G = extension_groups[(5, 1, 1)]
        check_bsgs(G)
        stats = G.chain.stats()
        # appending every residue to all levels 0..j and re-sifting from
        # scratch reached 2053 strong generators here; residues joining
        # levels 0..j instead of i+1..j take the sifts from about 3.6k to 26k
        assert stats["strong_generators"] < 500
        assert 0 < stats["schreier_sifts"] < 10_000


class TestChainPins:
    """Orders and bases recorded before the input generators, the Schreier
    batches and membership shared one sift routine; the counters, which
    the sha also covers, since each Schreier generator is sifted once and
    the pending ones go in rounds."""

    @pytest.mark.parametrize("b,c,s,seed,order,sifts,sha", [
        (3, 1, 1, None, 414720000, 304,
         "fdc9ecb8887352e7f0fbd6c3806630b2f3ce7248be8090e9be3ed3895736c068"),
        (3, 1, 2, None, 414720000, 341,
         "60355776ca6663656cd47075acffdad51e1333dc6db0de9e6047c4f8d30c3809"),
        (3, 1, 3, None, 1244160000, 544,
         "0a4efd1297ce3807782a44738859b01685778896fea74c0d8ed1015087024113"),
        (4, 2, 1, None, 346802426255455027200000000, 1479,
         "a679d220ea1c7d6b26585628816b8fd1feae045e2e5d1573e738e19866a65cb8"),
        (5, 1, 1, None, 3007123476809447997888894546739200000000, 2988,
         "8e31d467475cfdfbede8f90d7f389d2c055ae13c9e75d3b95219d72f5a6639e2"),
        (3, 1, 2, 7, 4414470040173601417374086055489297098873239184215996534673238279585792
         * 10 ** 32, 24157, "a5919d10cce6897415919416801975f85030dbae5d675ec3f471f47cf41161e6"),
    ], ids=["3_1_s1", "3_1_s2", "3_1_s3", "4_2_s1", "5_1_s1", "3_1_s2_seed7"])
    def test_order_base_and_stats(self, extension_groups, b, c, s, seed, order, sifts, sha):
        from chirex.extend_db import extend_dually_bipartite
        from chirex.gpr import gpr_group
        from chirex.toroidal import TorusParams, build_toroidal_map

        if seed is None:
            G = extension_groups[(b, c, s)]
        else:
            K = build_toroidal_map(TorusParams("44", b, c))
            G = gpr_group(extend_dually_bipartite(K, s, seed=seed).graph)
        self.check(G, order, sifts, sha)

    def test_intransitive_mix(self):
        # the s = 12 mix, mix-pipeline's largest group: 272 points, 13
        # image levels ahead of one kernel level
        G = mix_group(12)
        assert (G.degree, G.chain.split, len(G.base())) == (272, 13, 14)
        self.check(G, 2488320000, 305,
                   "7741424ea24c50c59b3dd8d1008e9fb24d139fca65947bc8838204ff8717fc5a")

    @staticmethod
    def check(G, order, sifts, sha):
        stats = G.chain.stats()
        assert (G.order(), stats["schreier_sifts"]) == (order, sifts)
        blob = json.dumps({"base": list(G.base()), "stats": stats}, sort_keys=True)
        assert hashlib.sha256(blob.encode()).hexdigest() == sha

    def test_level_budget(self, extension_groups, monkeypatch):
        # level 0 of the (3,1) s = 1 chain is 80 rows of 80 points in the
        # chain's row width, two bytes a point
        gens = [g.images for g in extension_groups[(3, 1, 1)].generators]
        level = _Chain([], 80).dtype.itemsize * 80 * 80
        monkeypatch.setattr(permcore, "MAX_LEVEL_BYTES", level)
        assert _Chain(gens, 80).order() == 414720000
        monkeypatch.setattr(permcore, "MAX_LEVEL_BYTES", level - 1)
        with pytest.raises(PreconditionError, match="would map 12800 bytes, more than the 12799"):
            _Chain(gens, 80)


class TestFlatGathers:
    def test_gather_matches_2d_indexing(self):
        rng = np.random.default_rng(3)
        chain = _Chain([], 13)
        chain.uinv = table = rng.integers(0, 13, size=(7, 13), dtype=np.int32)
        rows = rng.integers(0, 7, size=5, dtype=np.int32)
        cols = rng.integers(0, 13, size=(5, 13), dtype=np.int32)
        assert (chain._gather(rows, cols) == table[rows[:, None], cols]).all()

    def test_row_offsets_do_not_wrap(self):
        # at 20480 points (s = 256) a row index past 2**31 // degree has a
        # flat offset past 2**31, which int32 arithmetic would wrap
        degree = 20480
        rows = np.array([0, 2**31 // degree + 1, 2**31 - 1], dtype=np.int32)
        offsets = _Chain([], degree)._offsets(rows)
        assert offsets.dtype == np.intp
        assert offsets.tolist() == [r * degree for r in rows.tolist()]
        assert offsets[1] > 2**31 and (rows * np.int32(degree))[1] != offsets[1]


class TestForm:
    """One ``_form`` call over positions of several levels, in any order,
    writes exactly the nontrivial Schreier generators u_p s u_q^{-1} to the
    slots it is given, in the order of their positions."""

    @pytest.mark.parametrize("step", [None, 5])
    def test_positions_on_several_levels(self, extension_groups, step):
        G = extension_groups[(3, 1, 1)]
        chain = _Chain([g.images for g in G.generators], G.degree)
        if step is not None:
            chain.step = step  # several gathers, each over several levels
        levels = [i for i in range(len(chain.base)) if len(chain.pts[i]) > 1]
        assert len(levels) >= 3
        positions = [(i, g, r) for i in levels for g in chain.gens[i][:2]
                     for r in range(len(chain.pts[i]))]
        rng = random.Random(8)
        rng.shuffle(positions)
        slots = np.array(rng.sample(range(len(positions) + 7), len(positions)))
        out = np.zeros((len(positions) + 7, G.degree), chain.dtype)
        mask = chain._form(np.array(positions, np.intp).T, out, slots)

        def coset(i, p):  # u_p, which maps base[i] to p
            return Perm(chain.uinv[chain.row_of[i][p]].tolist()).inverse()

        expected = []
        for i, g, r in positions:
            p, s = chain.pts[i][r], Perm(chain.strong[g].tolist())
            u_p = coset(i, p)
            assert u_p(chain.base[i]) == p
            expected.append(u_p * s * coset(i, s(p)).inverse())
        assert mask.tolist() == [not e.is_identity() for e in expected]
        assert 0 < mask.sum() < len(mask)
        nontrivial = [e for e in expected if not e.is_identity()]
        assert [Perm(out[k].tolist()) for k in slots[:len(nontrivial)]] == nontrivial


def random_groups():
    """Generator lists on 20..40 points: random pairs, which mostly give
    S_d or A_d, and maps permuting blocks of 4 or 5 points, whose groups
    are imprimitive and have deeper chains."""
    rng = random.Random(12)
    groups = []
    for degree in (20, 26):
        pair = []
        for _ in range(2):
            images = list(range(degree))
            rng.shuffle(images)
            pair.append(Perm(images))
        groups.append(pair)
    for degree, size in ((20, 4), (30, 5), (40, 4)):
        gens = []
        for _ in range(3):
            blocks = list(range(degree // size))
            rng.shuffle(blocks)
            images = []
            for b in blocks:
                inside = list(range(size))
                if rng.random() < 0.5:
                    rng.shuffle(inside)
                images += [b * size + x for x in inside]
            gens.append(Perm(images))
        groups.append(gens)
    return groups


class TestSmallBatches:
    """Pools of 1 and 3 rows split orbits, so residues land mid-round; at 3
    rows most rounds start with rows waiting, never more than two (the pool
    never fills): the chain still matches sympy."""

    @staticmethod
    def check_against_sympy(gens, degree, rng):
        combinatorics = pytest.importorskip("sympy.combinatorics")
        G = PermGroup(degree, gens)
        H = combinatorics.PermutationGroup(
            [combinatorics.Permutation(list(g.images)) for g in gens])
        check_bsgs(G)
        assert G.order() == H.order()
        for _ in range(6):
            word = Perm.identity(degree)
            for _ in range(rng.randrange(1, 30)):
                word = word * rng.choice(gens)
            assert word in G
            images = list(range(degree))
            rng.shuffle(images)
            probe = Perm(images)
            assert (probe in G) == H.contains(combinatorics.Permutation(images))

    @pytest.mark.parametrize("rows", [1, 3])
    @pytest.mark.parametrize("case", EXTENSIONS)
    def test_extensions(self, extension_groups, case, rows, monkeypatch):
        G = extension_groups[case]
        monkeypatch.setattr(_Chain, "BATCH", rows * G.degree)
        self.check_against_sympy(G.generators, G.degree, random.Random(sum(case)))

    @pytest.mark.parametrize("rows", [1, 3])
    def test_random_groups(self, rows, monkeypatch):
        rng = random.Random(rows)
        for gens in random_groups():
            monkeypatch.setattr(_Chain, "BATCH", rows * gens[0].degree)
            self.check_against_sympy(gens, gens[0].degree, rng)

    @pytest.mark.parametrize("degree", [12, 20])
    def test_full_pool_raises(self, degree, monkeypatch):
        # a chain that, while any row is unformed, reports the next unformed
        # one ahead of every waiting row never inserts one; as it also forms
        # level 0's rows while deeper ones wait, each round forms rows until
        # the pool fills
        class NeverInserts(_Chain):
            def _take(self, room, deep):
                make, nxt = super()._take(room, False)
                return make, None if nxt is None else (len(self.base), 0, 0)

        rng = random.Random(degree)
        gens = [rng.sample(range(degree), degree) for _ in range(2)]
        monkeypatch.setattr(_Chain, "BATCH", 3 * degree)
        assert _Chain(gens, degree).order() > 1
        with pytest.raises(RuntimeError, match="a round started with all 3 pool slots waiting"):
            NeverInserts(gens, degree)

    def test_stalled_round_raises(self):
        # a chain that reports the next unformed row ahead of every waiting
        # one but keeps the level-0 rule holds level 0's rows behind a
        # waiting deeper row it never inserts, so a round forms, sifts and
        # inserts nothing; in its own interpreter with a timeout, a chain
        # that repeats that round forever fails the test instead of hanging
        script = textwrap.dedent("""
            import random
            from chirex.permcore import _Chain

            class Stalls(_Chain):
                def _take(self, room, deep):
                    make, nxt = super()._take(room, deep)
                    return make, None if nxt is None else (len(self.base), 0, 0)

            rng = random.Random(12)
            gens = [rng.sample(range(12), 12) for _ in range(2)]
            _Chain.BATCH = 3 * 12
            Stalls(gens, 12)
        """)
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, timeout=60)
        assert done.returncode == 1, done.stderr
        assert done.stderr.splitlines()[-1] == \
            "RuntimeError: a round formed, sifted and inserted no row while 1 waited"


def mapped(a) -> bool:
    """Whether the memory of array a, through its views, is an mmap."""
    while isinstance(a, np.ndarray):
        a = a.base
    return isinstance(a, memoryview) and isinstance(a.obj, mmap.mmap)


class TestRowWidth:
    """Rows are int16 up to 32768 points and int32 above; a table of
    ``MAP_LEVEL_BYTES`` or more lies in its own mapping, a smaller one on
    the heap."""

    @staticmethod
    def s4_on_the_last_point(degree):
        # (0 d-1) and (0 1 2) generate the symmetric group on {0, 1, 2, d-1}
        return PermGroup(degree, [Perm.from_cycles(degree, [(0, degree - 1)]),
                                  Perm.from_cycles(degree, [(0, 1, 2)])])

    @pytest.mark.parametrize("degree,dtype", [(32768, np.int16), (32769, np.int32)])
    def test_last_point(self, degree, dtype):
        G = self.s4_on_the_last_point(degree)
        last = degree - 1
        assert G.order() == 24
        check_bsgs(G)
        chain = G.chain
        assert chain.dtype == dtype and chain.identity.dtype == dtype
        assert chain.uinv.dtype == dtype
        assert last in chain.pts[0]
        assert int(chain.uinv[chain.row_of[0][chain.pts[0]]].max()) == last
        for cycles in ([(1, last)], [(0, 1, 2, last)], [(0, last), (1, 2)]):
            assert Perm.from_cycles(degree, cycles) in G
        for cycles in ([(2, last - 1)], [(last - 1, last)], [(0, 3)]):
            assert Perm.from_cycles(degree, cycles) not in G

    @pytest.mark.parametrize("degree,is_mapped", [(32767, False), (32768, True)])
    def test_mapped_from_map_level_bytes(self, degree, is_mapped):
        # the table of <(0 d-1)> holds level 0's two rows: 131068 bytes at
        # 32767 points, one row short of MAP_LEVEL_BYTES, and 131072 at 32768
        chain = _Chain([Perm.from_cycles(degree, [(0, degree - 1)]).images], degree)
        inv = chain.uinv
        assert inv.shape == (2, degree)
        assert (inv.nbytes >= permcore.MAP_LEVEL_BYTES) == is_mapped == mapped(inv)

    def test_levels_of_an_extension(self):
        # the {4,4}_(3,1) extension at s = 8: level 0 is 640 rows of 640
        # points (819200 bytes), the eleven others at most 6400 bytes; the
        # table of all twelve is one mapping, grown in place as levels gain
        # rows, with every row where it was written
        from chirex.extend_db import extend_dually_bipartite
        from chirex.gpr import gpr_group
        from chirex.toroidal import TorusParams, build_toroidal_map

        K = build_toroidal_map(TorusParams("44", 3, 1))
        G = gpr_group(extend_dually_bipartite(K, 8).graph)
        chain = G.chain
        level_bytes = [len(pts) * 640 * chain.dtype.itemsize for pts in chain.pts]
        assert [size >= permcore.MAP_LEVEL_BYTES for size in level_bytes] == [True] + [False] * 11
        assert mapped(chain.uinv) and chain.uinv.nbytes >= permcore.MAP_LEVEL_BYTES
        check_bsgs(G)


@pytest.mark.parametrize("s", [8, 16, 32])
def test_order_at_large_s(s):
    # the {4,4}_(3,1) extension: 80s vertices, vertex stabiliser of order
    # 2592000 at every s
    from chirex.extend_db import extend_dually_bipartite
    from chirex.gpr import gpr_group
    from chirex.toroidal import TorusParams, build_toroidal_map

    K = build_toroidal_map(TorusParams("44", 3, 1))
    assert gpr_group(extend_dually_bipartite(K, s).graph).order() == 80 * s * 2592000


class TestSympyOracle:
    @pytest.mark.parametrize("case", EXTENSIONS)
    def test_order_and_membership(self, extension_groups, case):
        combinatorics = pytest.importorskip("sympy.combinatorics")
        G = extension_groups[case]
        H = combinatorics.PermutationGroup(
            [combinatorics.Permutation(list(g.images)) for g in G.generators])
        assert G.order() == H.order()
        rng = random.Random(sum(case))
        gens = list(G.generators) + [g.inverse() for g in G.generators]
        for _ in range(10):
            word = Perm.identity(G.degree)
            for _ in range(rng.randrange(1, 40)):
                word = word * rng.choice(gens)
            assert word in G
            assert H.contains(combinatorics.Permutation(list(word.images)))
        outside = 0
        for _ in range(10):
            images = list(range(G.degree))
            rng.shuffle(images)
            probe = Perm(images)
            expected = H.contains(combinatorics.Permutation(images))
            assert (probe in G) == expected
            outside += not expected
        assert outside > 0


def intransitive_groups(count):
    """Generator lists on 6..24 points cut into two or three parts:
    disjoint products, where each generator moves one part, and diagonal
    products, where each moves every part at once, so the kernel of the
    action on the orbit of point 0 ranges from trivial to a direct factor."""
    rng = random.Random(21)
    groups = []
    for n in range(count):
        degree = rng.randrange(6, 25)
        points = list(range(degree))
        rng.shuffle(points)
        cuts = sorted(rng.sample(range(1, degree), rng.choice((1, 2))))
        parts = [points[a:b] for a, b in zip([0] + cuts, cuts + [degree])]
        gens = []
        for _ in range(rng.randrange(1, 4)):
            images = list(range(degree))
            for part in (parts if n % 2 else [rng.choice(parts)]):
                moved = part[:]
                rng.shuffle(moved)
                for x, y in zip(part, moved):
                    images[x] = y
            gens.append(Perm(images))
        groups.append(gens)
    return groups


class TestOrbitFirst:
    """The levels whose base points lie in the orbit of point 0 come first,
    and their orbit lengths multiply to the order of the action there."""

    @staticmethod
    def orbit_first(G: PermGroup) -> tuple[int, ...]:
        orbit = set(orbit_of(0, G.generators))
        base, split = G.base(), G.chain.split
        assert all(b in orbit for b in base[:split])
        assert not any(b in orbit for b in base[split:])
        return tuple(sorted(orbit))

    def test_against_sympy(self):
        combinatorics = pytest.importorskip("sympy.combinatorics")
        rng = random.Random(4)
        kernels = 0
        for gens in intransitive_groups(160):
            degree = gens[0].degree
            G = PermGroup(degree, gens)
            H = combinatorics.PermutationGroup(
                [combinatorics.Permutation(list(g.images)) for g in gens])
            check_bsgs(G)
            orbit = self.orbit_first(G)
            index = {x: k for k, x in enumerate(orbit)}
            image = combinatorics.PermutationGroup(
                [combinatorics.Permutation([index[g(x)] for x in orbit]) for g in gens])
            assert (G.order(), G.orbit_order()) == (H.order(), image.order())
            kernels += G.order() > G.orbit_order() > 1
            outside = [x for x in range(degree) if x not in index]
            for _ in range(4):
                word = Perm.identity(degree)
                for _ in range(rng.randrange(1, 20)):
                    word = word * rng.choice(gens)
                assert word in G
                if outside:  # a member followed by a swap across the orbit's edge
                    swap = Perm.from_cycles(degree, [(rng.choice(orbit), rng.choice(outside))])
                    assert word * swap not in G
                    assert not H.contains(combinatorics.Permutation(list((word * swap).images)))
                images = list(range(degree))
                rng.shuffle(images)
                assert (Perm(images) in G) == H.contains(combinatorics.Permutation(images))
        assert kernels > 20

    @pytest.mark.parametrize("degree,cycles,orders", [
        (10, ([(1, 2), (5, 9)], [(0, 3, 7, 8, 6), (1, 2, 9, 4, 5)]), (50, 5)),
        (9, ([(1, 5, 6), (2, 8, 7)], [(0, 3), (2, 4, 8, 7, 5, 6)]), (5040, 2)),
    ])
    def test_image_level_opened_above_a_kernel_level(self, degree, cycles, orders):
        # the first generator fixes the orbit of 0 pointwise and opens a
        # kernel level; the image level the second one opens above it takes
        # the kernel level's generators, without which their conjugates are
        # never formed (orders 10 and 336); the orders are sympy's
        G = PermGroup(degree, [Perm.from_cycles(degree, c) for c in cycles])
        check_bsgs(G)
        self.orbit_first(G)
        assert (G.order(), G.orbit_order()) == orders and G.chain.split == 1

    def test_transitive_chains_have_no_kernel_level(self, extension_groups):
        for G in extension_groups.values():
            assert self.orbit_first(G) == tuple(range(G.degree))
            assert G.chain.split == len(G.base()) and G.orbit_order() == G.order()

    def test_point_0_fixed(self):
        G = PermGroup(5, [Perm.from_cycles(5, [(1, 2)]), Perm.from_cycles(5, [(3, 4)])])
        assert (G.order(), G.orbit_order(), G.base()) == (4, 1, (1, 3))
        assert Perm.from_cycles(5, [(0, 1)]) not in G

    def test_inserted_level_budget(self, monkeypatch):
        # the first generator fixes the orbit {0..6} of point 0 and makes a
        # kernel level of 5 rows; the 7-cycle then inserts an image level
        # of 7 rows ahead of it, 7 * 12 points in the chain's row width that
        # the budget refuses
        gens = [tuple(range(7)) + (8, 9, 10, 11, 7), (1, 2, 3, 4, 5, 6, 0) + tuple(range(7, 12))]
        level = _Chain([], 12).dtype.itemsize * 7 * 12
        monkeypatch.setattr(permcore, "MAX_LEVEL_BYTES", level)
        chain = _Chain(gens, 12)
        assert (chain.base, chain.split, chain.order(), chain.orbit_order()) == ([0, 7], 1, 35, 7)
        monkeypatch.setattr(permcore, "MAX_LEVEL_BYTES", level - 1)
        with pytest.raises(PreconditionError, match="would map 168 bytes, more than the 167"):
            _Chain(gens, 12)


class TestRoundsOracle:
    """Rounds insert the residues that verifying one batch at a time from
    per-generator cursors inserts, in the same order, so both chains agree
    level by level, at the default pool and at pools of 1 and 3 rows."""

    @staticmethod
    def check(gens, degree, monkeypatch):
        images = [g.images for g in gens]
        for rows in (None, 1, 3):
            if rows is not None:
                monkeypatch.setattr(_Chain, "BATCH", rows * degree)
            ours, theirs = _Chain(images, degree), CursorChain(images, degree)
            assert (ours.base, ours.split, ours.pts, ours.order()) == \
                (theirs.base, theirs.split, theirs.pts, theirs.order())
            assert ours.gens == theirs.gens
            assert ours.strong.tolist() == theirs.strong.tolist()
            monkeypatch.undo()

    @pytest.mark.parametrize("b,c,s,seed", [(3, 1, 1, None), (3, 1, 2, None), (3, 1, 3, None),
                                            (4, 2, 1, None), (5, 1, 1, None), (3, 1, 2, 7)])
    def test_chain_pin_inputs(self, extension_groups, b, c, s, seed, monkeypatch):
        from chirex.extend_db import extend_dually_bipartite
        from chirex.gpr import gpr_group
        from chirex.toroidal import TorusParams, build_toroidal_map

        if seed is None:
            G = extension_groups[(b, c, s)]
        else:
            K = build_toroidal_map(TorusParams("44", b, c))
            G = gpr_group(extend_dually_bipartite(K, s, seed=seed).graph)
        self.check(G.generators, G.degree, monkeypatch)

    def test_intransitive_and_random_groups(self, monkeypatch):
        for gens in intransitive_groups(160) + random_groups():
            self.check(gens, gens[0].degree, monkeypatch)

    @pytest.mark.parametrize("s", [2, 3, 4])
    def test_mixes(self, s, monkeypatch):
        G = mix_group(s)
        self.check(G.generators, G.degree, monkeypatch)


class TestSiftStart:
    """A row that fixes base[:i], and past split the orbit of point 0
    pointwise, as level i's strong generators do, passes levels 0..i-1 as
    it is: sifting it from level 0 or from level i gives the same stop
    level and the same row. So a round sifts its rows from the shallowest
    of their levels; rows not listed are left as they are."""

    @staticmethod
    def check(chain, rng):
        degree, top = chain.degree, len(chain.base)
        for i in range(top + 1):
            fixed = set(chain.base[:i]) | set(chain.orbit0.tolist() if i > chain.split else [])
            moved = [x for x in range(degree) if x not in fixed]
            rows = list(chain.strong[chain.gens[i]]) if i < top else []
            for _ in range(3):  # most lie outside the group and stop partly sifted
                images = np.arange(degree, dtype=np.int32)
                images[moved] = rng.permutation(moved)
                rows.append(images)
            from_0, from_i = np.array(rows, np.int32), np.array(rows, np.int32)
            stop = chain._sift(from_i, i)
            assert (chain._sift(from_0, 0) == stop).all() and (from_0 == from_i).all()
            others = np.array([rng.permutation(degree) for _ in range(2)], np.int32)
            batch = np.concatenate((others, rows))
            listed = np.arange(len(others), len(batch))
            got = chain._sift(batch, i, listed)
            assert (got[listed] == stop).all() and (batch[listed] == from_i).all()
            assert (got[:len(others)] == -1).all() and (batch[:len(others)] == others).all()

    def test_extensions(self, extension_groups):
        rng = np.random.default_rng(1)
        for G in extension_groups.values():
            self.check(G.chain, rng)

    def test_mix(self):
        chain = mix_group(3).chain
        assert 0 < chain.split < len(chain.base)
        self.check(chain, np.random.default_rng(2))

    def test_intransitive_groups(self):
        rng = np.random.default_rng(3)
        for gens in intransitive_groups(160):
            self.check(PermGroup(gens[0].degree, gens).chain, rng)


def mix_group(s: int) -> PermGroup:
    """The diamond of the {4,4}_(3,1) s = 1 extension and 2s^R, whose order
    regular_quotient_extension reports."""
    from chirex.extend_db import extend_dually_bipartite
    from chirex.gpr import gpr_group
    from chirex.maniplex import rotation_system
    from chirex.mix import diamond
    from chirex.toroidal import TorusParams, build_toroidal_map, regular_quotient
    from chirex.two_s_m import build_two_s_m

    params = TorusParams("44", 3, 1)
    P = extend_dually_bipartite(build_toroidal_map(params), 1).graph
    rs2 = rotation_system(build_two_s_m(regular_quotient(params).rooted, s).rooted)
    return diamond(gpr_group(P), PermGroup(rs2.degree, rs2.sigma))
