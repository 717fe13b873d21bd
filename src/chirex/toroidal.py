"""Toroidal maps as lattice quotients of the three regular tessellations.

A map {4,4}_(b,c), {3,6}_(b,c) or {6,3}_(b,c) is the quotient of the
corresponding tessellation of the plane by the translation lattice
spanned by (b, c) and its rotated image. Flags are enumerated as
(fundamental cell, local flag) with cells reduced to a canonical coset
representative, so labels are deterministic across runs.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .maniplex import (Maniplex, PreconditionError, RootedManiplex, Symmetry,
                       VerificationError, classify_symmetry, facets)
from .permcore import MAX_FLAGS, Perm

FAMILIES = ("44", "36", "63")


@dataclass(frozen=True)
class TorusParams:
    family: str
    b: int
    c: int

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError("family must be one of %s" % (FAMILIES,))
        if (self.b, self.c) == (0, 0):
            raise ValueError("translation vector (0,0) does not span a lattice")

    def __str__(self) -> str:
        return "{%s,%s}_(%d,%d)" % (self.family[0], self.family[1], self.b, self.c)


def _egcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, u, v) with g = gcd(a,b) >= 0 and u*a + v*b = g."""
    old_r, r = a, b
    old_u, u = 1, 0
    old_v, v = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_u, u = u, old_u - q * u
        old_v, v = v, old_v - q * v
    if old_r < 0:
        old_r, old_u, old_v = -old_r, -old_u, -old_v
    return old_r, old_u, old_v


class Lattice2D:
    """Full-rank sublattice of Z^2 with canonical coset representatives."""

    def __init__(self, g1: tuple[int, int], g2: tuple[int, int]):
        det = g1[0] * g2[1] - g1[1] * g2[0]
        if det == 0:
            raise ValueError("degenerate lattice basis")
        self.g1, self.g2 = g1, g2
        self.index = abs(det)
        # lower-triangular basis (a, 0), (e, f): reps live in [0,a) x [0,f)
        f, u, v = _egcd(g1[1], g2[1])
        row2 = (u * g1[0] + v * g2[0], f)
        a = abs((g2[1] // f) * g1[0] - (g1[1] // f) * g2[0])
        self.a, self.f = a, f
        self.e = row2[0] % a

    def canon(self, x: int, y: int) -> tuple[int, int]:
        t = y // self.f
        return ((x - t * self.e) % self.a, y - t * self.f)

    def cells(self) -> list[tuple[int, int]]:
        return [(x, y) for y in range(self.f) for x in range(self.a)]


def lattice_for(p: TorusParams) -> Lattice2D:
    if p.family == "44":
        return Lattice2D((p.b, p.c), (-p.c, p.b))
    # triangular basis for both {3,6} and {6,3}
    return Lattice2D((p.b, p.c), (-p.c, p.b + p.c))


# A tile table gives, for each tile type t of a fundamental cell, the
# offsets of its corners (edge k joins corners k and k+1) and, for each
# edge, the tile across it as (dx, dy, t', edge k') of the cell at (dx, dy).
_SQUARES = (
    (((0, 0), (1, 0), (1, 1), (0, 1)),),
    (((0, -1, 0, 2), (1, 0, 0, 3), (0, 1, 0, 0), (-1, 0, 0, 1)),),
)
# up triangle (t=0) and down triangle (t=1) of a rhombic cell
_TRIANGLES = (
    (((0, 0), (1, 0), (0, 1)), ((1, 0), (1, 1), (0, 1))),
    (((0, -1, 1, 1), (0, 0, 1, 2), (-1, 0, 1, 0)),
     ((1, 0, 0, 2), (0, 1, 0, 0), (0, 0, 0, 1))),
)


@functools.cache
def _tile_tables(family: str):
    """Per local flag (t*K + k)*2 + which of a cell: ``local_r0``, which
    swaps the two corners of an edge within the tile, and r_2 as the
    neighbouring cell's step ``dx``, ``dy`` and the local flag ``f2`` there.
    The arrays are shared by every build, so they are read-only."""
    import numpy as np
    offsets, neighbours = _SQUARES if family == "44" else _TRIANGLES
    T, K = len(offsets), len(offsets[0])
    local_r0, across = [], []
    for t in range(T):
        for k in range(K):
            local_r0 += [(t * K + (k + 1) % K) * 2 + 1, (t * K + (k - 1) % K) * 2]
            for which in range(2):
                dx, dy, t2, j2 = neighbours[t][k if which == 0 else (k - 1) % K]
                k2 = offsets[t2].index((offsets[t][k][0] - dx, offsets[t][k][1] - dy))
                which2 = 0 if j2 == k2 else 1
                if which2 == 1 and j2 != (k2 - 1) % K:
                    raise VerificationError("tile edges %d and %d do not meet" % (j2, k2))
                across.append((dx, dy, (t2 * K + k2) * 2 + which2))
    tables = (np.array(local_r0), *np.array(across).T)
    for arr in tables:
        arr.setflags(write=False)
    return tables


def build_toroidal_map(p: TorusParams) -> RootedManiplex:
    """Flag graph of the map; flag ((cell*T + t)*K + k)*2 + which is corner
    k of tile t in the cell, on edge k (which 0) or on edge k-1 (which 1).
    Cell (x, y) of ``lat.cells()`` has index y*a + x; each colour is one
    array expression over (cell, local flag)."""
    import numpy as np
    local_r0, dx, dy, f2 = _tile_tables(p.family)
    lat = lattice_for(p)
    L = len(local_r0)
    N = lat.index * L
    if N > MAX_FLAGS:
        raise PreconditionError("%s would have %d flags, more than the %d allowed"
                                % (p, N, MAX_FLAGS))
    a = lat.a
    cell = np.arange(lat.index)[:, None]
    r0 = cell * L + local_r0
    # r_2: each neighbouring cell's canonical one; numpy's // and % round down as Python's
    X, Y = lat.canon(cell % a + dx, cell // a + dy)
    r2 = (Y * a + X) * L + f2
    adjacency = (Perm.from_array(r0.ravel()), Perm.from_array(np.arange(N) ^ 1),
                 Perm.from_array(r2.ravel()))
    if p.family == "63":
        # {6,3} is the dual of {3,6}: reverse the colour roles
        adjacency = adjacency[::-1]
    man = Maniplex(rank=3, adjacency=adjacency)
    x0, y0 = lat.canon(0, 0)
    return RootedManiplex(man, base_flag=(y0 * a + x0) * L)


@dataclass(frozen=True)
class QuotientResult:
    params: TorusParams
    rooted: RootedManiplex


# bound on the verified quotient maps kept by _verified_quotient: the
# -6 <= b, c <= 6 sweep of all three families names 34 candidates
QUOTIENT_CACHE_SIZE = 64


@functools.lru_cache(maxsize=QUOTIENT_CACHE_SIZE)
def _verified_quotient(cand: TorusParams) -> RootedManiplex:
    """The candidate's map, built once and checked regular with at least two
    facets; a failed check raises and is not cached."""
    rooted = build_toroidal_map(cand)
    if classify_symmetry(rooted) is not Symmetry.REGULAR:
        raise VerificationError("quotient %s is not regular" % cand)
    if len(facets(rooted.maniplex)) < 2:
        raise VerificationError("quotient %s has fewer than two facets" % cand)
    return rooted


def regular_quotient(p: TorusParams) -> QuotientResult | None:
    """Largest regular toroidal quotient with at least two facets.

    Candidates are the reflexible parameter forms (d,0) and (d,d); the
    quotient exists when the given lattice is contained in theirs. The
    lattice search runs on every call, but the chosen candidate's map is
    built and verified once: it is memoised by the candidate's
    ``TorusParams``, at most ``QUOTIENT_CACHE_SIZE`` of them, so calls that
    reach the same candidate share one ``RootedManiplex``, which callers
    must treat as read-only.
    """
    lat = lattice_for(p)
    best: tuple[int, TorusParams] | None = None
    dmax = math.isqrt(lat.index) + 1
    for d in range(1, dmax + 1):
        for form in ((d, 0), (d, d)):
            try:
                cand = TorusParams(p.family, *form)
            except ValueError:
                continue
            clat = lattice_for(cand)
            if clat.canon(*lat.g1) != (0, 0) or clat.canon(*lat.g2) != (0, 0):
                continue
            # a cell holds one square, two triangles or one hexagon
            nfacets = 2 * clat.index if p.family == "36" else clat.index
            if nfacets < 2:
                continue
            if best is None or nfacets > best[0]:
                best = (nfacets, cand)
    if best is None:
        return None
    return QuotientResult(params=best[1], rooted=_verified_quotient(best[1]))
