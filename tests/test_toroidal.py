import hashlib

import pytest
from hypothesis import given, strategies as st

from chirex import toroidal
from chirex.maniplex import (PreconditionError, Symmetry, VerificationError, classify_symmetry,
                             covers, facets, is_orientable, schlafli, validate)
from chirex.serial import canonical_dumps, maniplex_to_json
from chirex.toroidal import (TorusParams, Lattice2D, build_toroidal_map,
                             lattice_for, regular_quotient)

from helpers import (expected_flag_count, is_chiral_params, lattice_contains,
                     regular_quotient_by_scan, toroidal_adjacency_by_cells)

SYMBOL = {"44": [4, 4], "36": [3, 6], "63": [6, 3]}


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            TorusParams("55", 1, 0)
        with pytest.raises(ValueError):
            TorusParams("44", 0, 0)

    def test_str(self):
        assert str(TorusParams("36", 2, -1)) == "{3,6}_(2,-1)"

    def test_chirality_condition(self):
        assert not is_chiral_params(TorusParams("44", 2, 0))
        assert not is_chiral_params(TorusParams("44", 2, 2))
        assert is_chiral_params(TorusParams("44", 2, 1))


class TestLattice:
    @given(st.sampled_from(["44", "36"]), st.integers(-5, 5), st.integers(-5, 5),
           st.integers(-30, 30), st.integers(-30, 30))
    def test_canonical_representatives(self, family, b, c, x, y):
        if (b, c) == (0, 0):
            return
        lat = lattice_for(TorusParams(family, b, c))
        cx, cy = lat.canon(x, y)
        assert lattice_contains(lat, (x - cx, y - cy))
        # regular_quotient tests containment by canon(v) == (0, 0)
        assert ((cx, cy) == (0, 0)) == lattice_contains(lat, (x, y))
        assert (cx, cy) in set(lat.cells())
        assert len(lat.cells()) == lat.index

    def test_degenerate_basis(self):
        with pytest.raises(ValueError):
            Lattice2D((1, 2), (2, 4))

    def test_generators_canonical_to_origin(self):
        lat = lattice_for(TorusParams("36", 3, 1))
        assert lat.canon(*lat.g1) == (0, 0)
        assert lat.canon(*lat.g2) == (0, 0)


class TestBuild:
    @pytest.mark.parametrize("family,b,c", [
        ("44", 2, 0), ("44", 2, 1), ("44", 3, 1), ("44", 1, 1),
        ("36", 1, 1), ("36", 1, 2), ("63", 1, 2), ("63", 2, 0),
    ])
    def test_axioms_and_counts(self, family, b, c):
        p = TorusParams(family, b, c)
        rooted = build_toroidal_map(p)
        man = rooted.maniplex
        assert validate(man).passed
        assert man.num_flags == expected_flag_count(p)
        assert is_orientable(man) is not None
        assert schlafli(rooted) == SYMBOL[family]
        expected = Symmetry.CHIRAL if is_chiral_params(p) else Symmetry.REGULAR
        assert classify_symmetry(rooted) is expected

    def test_dual_swaps_faces_and_vertices(self):
        p36 = build_toroidal_map(TorusParams("36", 2, 1))
        p63 = build_toroidal_map(TorusParams("63", 2, 1))
        assert p36.maniplex.num_flags == p63.maniplex.num_flags
        assert len(facets(p36.maniplex)) == 2 * lattice_for(TorusParams("36", 2, 1)).index
        assert len(facets(p63.maniplex)) == lattice_for(TorusParams("63", 2, 1)).index

    def test_flag_limit(self, monkeypatch):
        # {4,4}_(3,1) has 80 flags: allowed at the limit, refused above it
        # before the cell list is allocated, which for (100000, 0) is 10^10
        monkeypatch.setattr(toroidal, "MAX_FLAGS", 80)
        assert build_toroidal_map(TorusParams("44", 3, 1)).maniplex.num_flags == 80
        monkeypatch.setattr(toroidal, "MAX_FLAGS", 79)
        with pytest.raises(PreconditionError, match=r"\{4,4\}_\(3,1\) would have 80 flags"):
            build_toroidal_map(TorusParams("44", 3, 1))
        monkeypatch.undo()
        with pytest.raises(PreconditionError, match="80000000000 flags"):
            build_toroidal_map(TorusParams("44", 100000, 0))

    def test_negative_params_same_size(self):
        a = build_toroidal_map(TorusParams("44", -2, 1))
        b = build_toroidal_map(TorusParams("44", 2, -1))
        assert a.maniplex.num_flags == b.maniplex.num_flags == 40


# maps outside the sweep whose lattice has e != 0 and f > 1, so that
# canon's y-step moves both coordinates
BEYOND_THE_SWEEP = {"44": [(-16, 4), (-15, -10)], "36": [(-16, 12), (-15, -6)],
                    "63": [(-16, 8), (-15, -5)]}


class TestOracle:
    @pytest.mark.parametrize("family", toroidal.FAMILIES)
    def test_matches_the_cell_by_cell_builder(self, family):
        # the 168 maps of the sweep -6 <= b, c <= 6 in each family, and two more
        extra = BEYOND_THE_SWEEP[family]
        for b, c in extra:
            lat = lattice_for(TorusParams(family, b, c))
            assert lat.e != 0 and lat.f > 1, (b, c)
        for b, c in [(b, c) for b in range(-6, 7) for c in range(-6, 7)] + extra:
            if (b, c) != (0, 0):
                p = TorusParams(family, b, c)
                rooted = build_toroidal_map(p)
                got = tuple(r.images for r in rooted.maniplex.adjacency)
                assert got == toroidal_adjacency_by_cells(p), p
                lat = lattice_for(p)
                per_cell = rooted.maniplex.num_flags // lat.index
                assert rooted.base_flag == lat.cells().index(lat.canon(0, 0)) * per_cell, p


class TestTileTables:
    def test_shared_arrays_are_read_only(self):
        for family in toroidal.FAMILIES:
            tables = toroidal._tile_tables(family)
            assert tables is toroidal._tile_tables(family)
            for arr in tables:
                with pytest.raises(ValueError, match="read-only"):
                    arr[0] = 0

    def test_broken_tile_table_raises_and_is_not_cached(self, monkeypatch):
        # edge 0 of the square glued to edge 1 of the one below: corner 0
        # meets that square at corner 3, whose edges are 2 and 3
        offsets, neighbours = toroidal._SQUARES
        broken = ((((0, -1, 0, 1),) + neighbours[0][1:]),)
        monkeypatch.setattr(toroidal, "_SQUARES", (offsets, broken))
        toroidal._tile_tables.cache_clear()
        try:
            for _ in range(2):
                with pytest.raises(VerificationError, match="tile edges 1 and 3 do not meet"):
                    build_toroidal_map(TorusParams("44", 3, 1))
            assert toroidal._tile_tables.cache_info().currsize == 0
        finally:
            monkeypatch.undo()
            toroidal._tile_tables.cache_clear()
        assert validate(build_toroidal_map(TorusParams("44", 3, 1)).maniplex).passed


# SHA-256 of the canonical JSON of each map: stored maps, extensions and
# reports depend on the flag numbering, so every label must stay as recorded
GOLDEN = {
    ("44", 3, 1): "e12aaf30fa1b736e725fce6da7fd4d383b885b88c6f3ee92d9e7f014d55b6d94",
    ("44", 2, 0): "56bdb0cacd2fe361b7af5c856505381d4646057b404bc0c247ecb22ce25b6bc2",
    ("36", 2, 1): "47ec37ff17053531d8c652ae91f7ebddb770780e481cbc3a06291fbde6747334",
    ("63", 1, 2): "9f34cfa24e3d4a5e125f53d984d55a8d1c5a8f40767cc529e55f386368441e2e",
}


class TestLabels:
    @pytest.mark.parametrize("family,b,c", sorted(GOLDEN))
    def test_flag_numbering_is_unchanged(self, family, b, c):
        text = canonical_dumps(maniplex_to_json(build_toroidal_map(TorusParams(family, b, c))))
        assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN[family, b, c]


class TestRegularQuotient:
    def test_found(self):
        result = regular_quotient(TorusParams("44", 4, 2))
        assert result is not None
        assert (result.params.b, result.params.c) == (2, 0)
        big = build_toroidal_map(TorusParams("44", 4, 2))
        assert covers(big, result.rooted) is not None
        assert classify_symmetry(result.rooted) is Symmetry.REGULAR

    def test_diagonal_form(self):
        result = regular_quotient(TorusParams("44", 3, 1))
        assert result is not None
        assert (result.params.b, result.params.c) == (1, 1)
        assert covers(build_toroidal_map(TorusParams("44", 3, 1)),
                      result.rooted) is not None

    def test_none_when_lattice_is_primitive(self):
        assert regular_quotient(TorusParams("44", 2, 1)) is None

    @pytest.mark.parametrize("family", ["44", "36", "63"])
    def test_matches_scan_of_built_candidates(self, family):
        # containment by Cramer's rule and facet counts of the built maps
        for b in range(6):
            for c in range(6):
                if (b, c) != (0, 0):
                    p = TorusParams(family, b, c)
                    got = regular_quotient(p)
                    assert (got and got.params) == regular_quotient_by_scan(p), p


def sweep_params():
    """The 504 maps of the sweep -6 <= b, c <= 6 in the three families."""
    return [TorusParams(family, b, c) for family in toroidal.FAMILIES
            for b in range(-6, 7) for c in range(-6, 7) if (b, c) != (0, 0)]


class TestQuotientMemo:
    def test_memoised_map_equals_a_fresh_build(self):
        params = sweep_params()
        assert len(params) == 504
        for p in params:
            result = regular_quotient(p)
            if result is None:
                continue
            fresh = build_toroidal_map(result.params)
            got = result.rooted
            assert got.base_flag == fresh.base_flag, p
            assert ([r.images for r in got.maniplex.adjacency]
                    == [r.images for r in fresh.maniplex.adjacency]), p

    def test_same_candidate_shares_one_map(self):
        a = regular_quotient(TorusParams("44", 3, 1))
        b = regular_quotient(TorusParams("44", 1, 3))
        again = regular_quotient(TorusParams("44", 3, 1))
        assert a.params == b.params == TorusParams("44", 1, 1)
        assert a.rooted is b.rooted is again.rooted
        assert again is not a and again == a

    def test_failed_verification_is_not_cached(self, monkeypatch):
        toroidal._verified_quotient.cache_clear()
        monkeypatch.setattr(toroidal, "classify_symmetry", lambda M: Symmetry.CHIRAL)
        for _ in range(2):
            with pytest.raises(VerificationError, match=r"quotient \{4,4\}_\(1,1\) is not regular"):
                regular_quotient(TorusParams("44", 3, 1))
        assert toroidal._verified_quotient.cache_info().currsize == 0

    def test_cache_stays_bounded(self):
        # the sweep, then the forms (d,0) and (d,d) themselves: more
        # candidates than the cache holds
        toroidal._verified_quotient.cache_clear()
        bound = toroidal.QUOTIENT_CACHE_SIZE
        params = sweep_params() + [TorusParams(family, d, e) for family in toroidal.FAMILIES
                                   for d in range(1, 13) for e in (0, d)]
        candidates = set()
        for p in params:
            result = regular_quotient(p)
            if result is not None:
                candidates.add(result.params)
            assert toroidal._verified_quotient.cache_info().currsize <= bound
        assert len(candidates) > bound
        assert toroidal._verified_quotient.cache_info().currsize == bound
