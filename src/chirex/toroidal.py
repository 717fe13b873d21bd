"""Toroidal maps as lattice quotients of the three regular tessellations.

A map {4,4}_(b,c), {3,6}_(b,c) or {6,3}_(b,c) is the quotient of the
corresponding tessellation of the plane by the translation lattice
spanned by (b, c) and its rotated image. Flags are enumerated as
(fundamental cell, local flag) with cells reduced to a canonical coset
representative, so labels are deterministic across runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .maniplex import (MAX_FLAGS, Maniplex, PreconditionError, RootedManiplex, Symmetry,
                       VerificationError, classify_symmetry, facets)
from .permcore import Perm

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
        self.det = det
        self.index = abs(det)
        # lower-triangular basis (a, 0), (e, f): reps live in [0,a) x [0,f)
        f, u, v = _egcd(g1[1], g2[1])
        row2 = (u * g1[0] + v * g2[0], f)
        a = abs((g2[1] // f) * g1[0] - (g1[1] // f) * g2[0])
        self.a, self.f = a, f
        self.e = row2[0] % a

    def canon(self, x: int, y: int) -> tuple[int, int]:
        t = y // self.f
        x -= t * self.e
        y -= t * self.f
        return (x % self.a, y)

    def contains(self, v: tuple[int, int]) -> bool:
        alpha = v[0] * self.g2[1] - v[1] * self.g2[0]
        beta = self.g1[0] * v[1] - self.g1[1] * v[0]
        return alpha % self.det == 0 and beta % self.det == 0

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


def build_toroidal_map(p: TorusParams) -> RootedManiplex:
    """Flag graph of the map; flag ((cell*T + t)*K + k)*2 + which is corner
    k of tile t in the cell, on edge k (which 0) or on edge k-1 (which 1)."""
    offsets, neighbours = _SQUARES if p.family == "44" else _TRIANGLES
    T, K = len(offsets), len(offsets[0])
    # r_2 of each local flag (t*K + k)*2 + which: the neighbouring cell's
    # step (dx, dy) and the local flag there
    across = []
    for t in range(T):
        for k in range(K):
            for which in range(2):
                dx, dy, t2, j2 = neighbours[t][k if which == 0 else (k - 1) % K]
                k2 = offsets[t2].index((offsets[t][k][0] - dx, offsets[t][k][1] - dy))
                which2 = 0 if j2 == k2 else 1
                if which2 == 1 and j2 != (k2 - 1) % K:
                    raise VerificationError("tile edges %d and %d do not meet" % (j2, k2))
                across.append((dx, dy, (t2 * K + k2) * 2 + which2))
    lat = lattice_for(p)
    L = T * K * 2
    if lat.index * L > MAX_FLAGS:
        raise PreconditionError("%s would have %d flags, more than the %d allowed"
                                % (p, lat.index * L, MAX_FLAGS))
    cells = lat.cells()
    cell_index = {c: i for i, c in enumerate(cells)}
    r0, r1, r2 = [], [], []
    for ci, (x, y) in enumerate(cells):
        for t in range(T):
            tile = ci * T + t
            for k in range(K):
                # r_0 swaps the two corners of an edge within the tile
                r0 += [(tile * K + (k + 1) % K) * 2 + 1, (tile * K + (k - 1) % K) * 2]
                v = (tile * K + k) * 2
                r1 += [v + 1, v]
        for dx, dy, f2 in across:
            r2.append(cell_index[lat.canon(x + dx, y + dy)] * L + f2)
    adjacency = (Perm(r0), Perm(r1), Perm(r2))
    if p.family == "63":
        # {6,3} is the dual of {3,6}: reverse the colour roles
        adjacency = adjacency[::-1]
    man = Maniplex(rank=3, adjacency=adjacency)
    return RootedManiplex(man, base_flag=cell_index[lat.canon(0, 0)] * L)


@dataclass(frozen=True)
class QuotientResult:
    params: TorusParams
    rooted: RootedManiplex


def _facet_count(p: TorusParams) -> int:
    index = lattice_for(p).index
    if p.family == "44":
        return index
    if p.family == "36":
        return 2 * index
    return index  # hexagonal faces of {6,3}


def regular_quotient(p: TorusParams) -> QuotientResult | None:
    """Largest regular toroidal quotient with at least two facets.

    Candidates are the reflexible parameter forms (d,0) and (d,d); the
    quotient exists when the given lattice is contained in theirs.
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
            if not (clat.contains(lat.g1) and clat.contains(lat.g2)):
                continue
            nfacets = _facet_count(cand)
            if nfacets < 2:
                continue
            if best is None or nfacets > best[0]:
                best = (nfacets, cand)
    if best is None:
        return None
    rooted = build_toroidal_map(best[1])
    if classify_symmetry(rooted) is not Symmetry.REGULAR:
        raise VerificationError("quotient %s is not regular" % best[1])
    if len(facets(rooted.maniplex)) < 2:
        raise VerificationError("quotient %s has fewer than two facets" % best[1])
    return QuotientResult(params=best[1], rooted=rooted)
