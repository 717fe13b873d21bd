import hashlib

import pytest
from hypothesis import given, strategies as st

from chirex import toroidal
from chirex.maniplex import (PreconditionError, Symmetry, classify_symmetry, covers, facets,
                             is_orientable, schlafli, validate)
from chirex.serial import canonical_dumps, maniplex_to_json
from chirex.toroidal import (TorusParams, Lattice2D, build_toroidal_map,
                             lattice_for, regular_quotient)

from helpers import expected_flag_count, is_chiral_params

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
    @given(st.integers(-5, 5), st.integers(-5, 5),
           st.integers(-30, 30), st.integers(-30, 30))
    def test_canonical_representatives(self, b, c, x, y):
        if (b, c) == (0, 0):
            return
        lat = lattice_for(TorusParams("44", b, c))
        cx, cy = lat.canon(x, y)
        assert lat.contains((x - cx, y - cy))
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
