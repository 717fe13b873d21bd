"""End-to-end acceptance checks, one per headline claim.

Each test finishes by printing a single pass line so a transcript of
the run doubles as a checklist. The tests share the expensive builds
through module-scoped fixtures.
"""

import math
import time

import pytest

from chirex.extend_db import extend_dually_bipartite
from chirex.gpr import cayley_gpr, components, rooted_digraph_isomorphic
from chirex.maniplex import (Symmetry, classify_symmetry, covers,
                             dually_bipartite_colouring, rotation_system,
                             schlafli)
from chirex.mix import (diamond, enantiomorph_generators, extension_obstruction,
                        is_regular_via_mix, regular_quotient_extension)
from chirex.permcore import PermGroup, orbit_of
from chirex.toroidal import TorusParams, build_toroidal_map, regular_quotient
from chirex.two_s_m import build_two_s_m, verify_aut_structure

from helpers import (HEADLINE_MAPS, brute_force_closure, cube, expected_flag_count,
                     is_chiral_params, polygon)

SWEEP = [(b, c) for b in range(-4, 5) for c in range(-4, 5) if (b, c) != (0, 0)]
SYMBOL = {"44": [4, 4], "36": [3, 6], "63": [6, 3]}


def _announce(number: int, name: str) -> None:
    print("[acceptance] criterion %d (%s): PASS" % (number, name))


@pytest.fixture(scope="module")
def db_extensions():
    """Seed extensions of {4,4}_(3,1) for s = 1, 2, 3 with timings."""
    K = build_toroidal_map(TorusParams("44", 3, 1))
    out = {}
    for s in (1, 2, 3):
        t0 = time.time()
        out[s] = (extend_dually_bipartite(K, s), time.time() - t0)
    return K, out


def test_criterion_1_toroidal_ground_truth():
    t0 = time.time()
    for family in ("44", "36", "63"):
        for b, c in SWEEP:
            p = TorusParams(family, b, c)
            rooted = build_toroidal_map(p)
            assert rooted.maniplex.num_flags == expected_flag_count(p), p
            assert schlafli(rooted) == SYMBOL[family], p
            want = Symmetry.CHIRAL if is_chiral_params(p) else Symmetry.REGULAR
            assert classify_symmetry(rooted) is want, p
    elapsed = time.time() - t0
    assert elapsed < 10, "sweep took %.1fs" % elapsed
    _announce(1, "toroidal ground truth")


def test_criterion_2_dually_bipartite_detection():
    t0 = time.time()
    for b, c in SWEEP:
        rooted = build_toroidal_map(TorusParams("44", b, c))
        found = dually_bipartite_colouring(rooted.maniplex, rooted.base_flag)
        assert (found is not None) == ((b - c) % 2 == 0), (b, c)
    for b, c in SWEEP:
        rooted = build_toroidal_map(TorusParams("63", b, c))
        assert dually_bipartite_colouring(rooted.maniplex, rooted.base_flag) is None, (b, c)
    elapsed = time.time() - t0
    assert elapsed < 10, "sweep took %.1fs" % elapsed
    _announce(2, "dually-bipartite detection")


def test_criterion_3_matching_extension(db_extensions):
    K, results = db_extensions
    cay = cayley_gpr(K)
    for s, (result, elapsed) in results.items():
        assert elapsed < 60, "s=%d took %.1fs" % (s, elapsed)
        assert result.report.passed, result.report.failing()
        G = result.graph
        blocks, _ = components(G, range(1, G.rank))
        facet_part = type(G)(G.rank - 1, G.arrows[:-1])
        assert all(rooted_digraph_isomorphic(facet_part, cay, vertices=blk)
                   for blk in blocks)
        assert result.matching.is_perfect()
        assert (result.t * result.t).is_identity()
        orbit = orbit_of(result.base_vertex, [G.arrow(G.rank)])
        assert len(orbit) == 2 * s
        assert result.last_entry % (2 * s) == 0
    _announce(3, "dually-bipartite chiral extension")


def test_criterion_4_two_s_m_structure():
    t0 = time.time()
    M = build_toroidal_map(TorusParams("44", 2, 0))
    for s in (2, 3):
        tsm = build_two_s_m(M, s)
        expected_flags = M.maniplex.num_flags * s ** (tsm.m - 1) * 2
        assert tsm.maniplex.num_flags == expected_flags
        assert schlafli(tsm.rooted) == [4, 4, 2 * s]
        assert classify_symmetry(tsm.rooted) is Symmetry.REGULAR
        report = verify_aut_structure(M, s)
        assert report.passed
        assert report.automorphism_count == M.maniplex.num_flags * 2 * s ** (tsm.m - 1)
    elapsed = time.time() - t0
    assert elapsed < 120, "structure checks took %.1fs" % elapsed
    _announce(4, "2s^M structure")


def test_criterion_5_regular_quotient_pipeline():
    t0 = time.time()
    K = build_toroidal_map(TorusParams("44", 4, 2))
    seed = extend_dually_bipartite(K, 1)
    q = seed.last_entry
    quotient = regular_quotient(TorusParams("44", 4, 2))
    assert quotient is not None and (quotient.params.b, quotient.params.c) == (2, 0)
    white_count = rotation_system(K).degree
    assert white_count == 80  # |Aut+(K)| for the free rotation action
    for s in (2, 3):
        result = regular_quotient_extension(seed.graph, K, quotient.rooted, s)
        assert result.report.passed, result.report.failing()
        assert result.report.data["facet_order"] == 80
        assert dict((n, ok) for n, ok, _ in result.report.verdicts)["intersection-property"]
        assert not is_regular_via_mix(result.group)
        assert result.schlafli[-1] == math.lcm(q, 2 * s)
    # beyond {4,4}: on {3,6}_(2,1) the mix with {3,6}_(1,0) raises q = 30
    K = build_toroidal_map(TorusParams("36", 2, 1))
    seed = extend_dually_bipartite(K, 1)
    quotient = regular_quotient(TorusParams("36", 2, 1))
    assert seed.last_entry == 30 and str(quotient.params) == "{3,6}_(1,0)"
    result = regular_quotient_extension(seed.graph, K, quotient.rooted, 4)
    assert result.report.passed, result.report.failing()
    assert result.schlafli == [3, 6, 120]  # lcm(30, 8)
    elapsed = time.time() - t0
    assert elapsed < 600, "pipeline took %.1fs" % elapsed
    _announce(5, "regular-quotient extension pipeline")


def _corpus():
    maps = [cube(), polygon(5), polygon(6)]
    for family, b, c in [("44", 2, 0), ("44", 1, 1), ("44", 2, 1), ("44", 3, 1),
                         ("44", 2, 2), ("36", 1, 1), ("36", 1, 2),
                         ("63", 1, 2), ("63", 2, 0)]:
        maps.append(build_toroidal_map(TorusParams(family, b, c)))
    return maps


def test_criterion_6_cross_validation():
    corpus = _corpus()

    for rooted in corpus:
        rs = rotation_system(rooted)
        mirror_regular = is_regular_via_mix(PermGroup(rs.degree, rs.sigma))
        assert mirror_regular == (classify_symmetry(rooted) is Symmetry.REGULAR)
        # a rotation group acts regularly on the white flags, so one forced
        # map per orbit of the mirror generators decides the same
        mirror = enantiomorph_generators(rs.sigma)
        assert (extension_obstruction(rs.sigma, mirror) is None) == mirror_regular

    # flag-level covering agrees with the diamond-order homomorphism test,
    # and with the forced-map certificate, on covering pairs and others
    outcomes = set()
    for M in corpus:
        for N in corpus:
            if M.rank != N.rank:
                continue
            rs, rt = rotation_system(M), rotation_system(N)
            G, H = PermGroup(rs.degree, rs.sigma), PermGroup(rt.degree, rt.sigma)
            hom_exists = diamond(G, H).order() == G.order()
            assert (covers(M, N) is not None) == hom_exists, (M, N)
            assert (extension_obstruction(rs.sigma, rt.sigma) is None) == hom_exists, (M, N)
            outcomes.add(hom_exists)
    assert outcomes == {True, False}

    # stabiliser chain vs brute-force closure on every small group
    for rooted in corpus:
        rs = rotation_system(rooted)
        G = PermGroup(rs.degree, rs.sigma)
        closure = brute_force_closure(G.generators, G.degree)
        if closure is None:
            continue
        assert G.order() == len(closure)
        for p in list(closure)[:100]:
            assert p in G
    _announce(6, "cross-validation properties")


HEADLINE_S = (1, 2, 4, 8, 16, 32, 64)
# every chiral {3,6}_(b,c) is dually bipartite; the window b <= 6, s <= 16
# takes about 1 s (b <= 9 takes about 6 s)
HEADLINE_MAPS_36 = [(b, c) for b in range(2, 7) for c in range(1, b)]
HEADLINE_S_36 = (1, 2, 4, 8, 16)


def test_criterion_7_distinct_extensions_note():
    """The headline claim on a window of maps: for each of the 16 {4,4}
    and 15 {3,6} maps and each s, the extension's report passes and 2s
    divides its last entry q, so q is unbounded in s. The larger cases
    stay with their own tests: s = 1024 and the seeded q = 576576 in
    tests/test_extend_db.py, the mix at large s in
    tests/test_mix.py::TestLargeS."""
    assert len(HEADLINE_MAPS) == 16 and len(HEADLINE_MAPS_36) == 15
    t0 = time.time()
    for family, maps, svalues in (("44", HEADLINE_MAPS, HEADLINE_S),
                                  ("36", HEADLINE_MAPS_36, HEADLINE_S_36)):
        for b, c in maps:
            K = build_toroidal_map(TorusParams(family, b, c))
            assert classify_symmetry(K) is Symmetry.CHIRAL, (family, b, c)
            for s in svalues:
                result = extend_dually_bipartite(K, s)
                assert result.report.passed, (family, b, c, s, result.report.failing())
                assert result.last_entry % (2 * s) == 0, (family, b, c, s, result.last_entry)
    elapsed = time.time() - t0
    assert elapsed < 60, "sweep took %.1fs" % elapsed
    _announce(7, "2s divides the last entry on 16 {4,4} maps up to s = 64 "
                 "and 15 {3,6} maps up to s = 16")
