"""Edge-coloured flag graphs and their symmetry machinery.

A maniplex of rank n is stored as n involutions r_0..r_{n-1} on the
flag set. Connection elements act on the left: the word ``r_i r_j``
moves a flag by applying r_j first.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations

from .permcore import Perm, PermGroup, left_product, orbit_of, orbit_partition


class PreconditionError(ValueError):
    """An operation was called on input outside its contract."""


class VerificationError(RuntimeError):
    """A construction failed one of its verified conditions."""


# The most flags (or GPR-graph vertices) a construction builds, checked
# before it allocates: 64 times the largest 2s^M of the tests and the
# benchmark (16384 flags), and small enough that the adjacency tuples fit
# in a few hundred MB.
MAX_FLAGS = 1 << 20


@dataclass(frozen=True)
class Maniplex:
    rank: int
    adjacency: tuple[Perm, ...]  # r_0 .. r_{rank-1}

    def __post_init__(self):
        if self.rank != len(self.adjacency):
            raise ValueError("rank %d needs %d adjacency permutations" % (self.rank, self.rank))
        degs = {r.degree for r in self.adjacency}
        if len(degs) > 1:
            raise ValueError("adjacency permutations disagree on flag count")

    @property
    def num_flags(self) -> int:
        return self.adjacency[0].degree

    @cached_property
    def facet_partition(self) -> tuple[list[tuple[int, ...]], list[int]]:
        """Facet flag-orbits (all colours but the last) as orbit_partition's
        (blocks, block_of) pair; computed once per object, read-only."""
        return orbit_partition(self.adjacency[:-1], self.num_flags)


@dataclass(frozen=True)
class RootedManiplex:
    maniplex: Maniplex
    base_flag: int = 0

    def __post_init__(self):
        if not 0 <= self.base_flag < self.maniplex.num_flags:
            raise ValueError("base flag %d out of range" % self.base_flag)

    @property
    def rank(self) -> int:
        return self.maniplex.rank

    # Computed once per object: classify_symmetry, schlafli and
    # rotation_system read these, so each pass over the flags runs once.
    @cached_property
    def rotary(self) -> bool:
        """True iff, for every i, some automorphism sends the base flag to
        s_i(base) = r_{i-1} r_i (base)."""
        rows, base = [r.images for r in self.maniplex.adjacency], self.base_flag
        return all(forced_map(rows, rows, base, rows[i - 1][rows[i][base]], [-1] * len(rows[0]))
                   is not None for i in range(1, len(rows)))

    @cached_property
    def symmetry(self) -> Symmetry:
        if not self.rotary:
            return Symmetry.OTHER
        rows, base = [r.images for r in self.maniplex.adjacency], self.base_flag
        if forced_map(rows, rows, base, rows[0][base], [-1] * len(rows[0])) is not None:
            return Symmetry.REGULAR
        return Symmetry.CHIRAL

    @cached_property
    def rotation(self) -> RotationSystem:
        """The rotation system on the white flags, the base flag's colour class."""
        man = self.maniplex
        white = is_orientable(man, self.base_flag)
        if white is None:
            raise PreconditionError("maniplex is not orientable")
        white = tuple(sorted(white))
        windex = {f: i for i, f in enumerate(white)}
        sigma = []
        for i in range(1, man.rank):
            ra, rb = man.adjacency[i - 1].images, man.adjacency[i].images
            # s_i = r_{i-1} r_i as a left action: apply r_i first
            sigma.append(Perm(windex[ra[rb[f]]] for f in white))
        return RotationSystem(white_flags=white, sigma=tuple(sigma), base=windex[self.base_flag])


@dataclass
class Report:
    """Named verdicts (condition, passed, detail) of a check, plus the
    numbers it measured on the way."""

    verdicts: list[tuple[str, bool, str]] = field(default_factory=list)
    data: dict = field(default_factory=dict)

    def add(self, condition: str, ok: bool, detail: str = "") -> None:
        self.verdicts.append((condition, ok, detail))

    @property
    def passed(self) -> bool:
        return all(ok for _, ok, _ in self.verdicts)

    def failing(self) -> list[str]:
        return [name for name, ok, _ in self.verdicts if not ok]


class Symmetry(enum.Enum):
    REGULAR = "Regular"
    CHIRAL = "Chiral"
    OTHER = "Other"


def validate(M: Maniplex) -> Report:
    """Check the four flag-graph axioms plus connectivity."""
    report = Report()
    N = M.num_flags
    ok = True
    for i, r in enumerate(M.adjacency):
        for x, y in enumerate(r.images):
            if y == x or r.images[y] != x:
                ok = False
                report.add("involution", False, "r_%d fails at flag %d" % (i, x))
                break
        if not ok:
            break
    if ok:
        report.add("involution", True, "all r_i fixed-point-free involutions")

    distinct = True
    for i, j in combinations(range(M.rank), 2):
        ri, rj = M.adjacency[i].images, M.adjacency[j].images
        for x in range(N):
            if ri[x] == rj[x]:
                distinct = False
                report.add("distinct-neighbours", False,
                           "r_%d and r_%d agree at flag %d" % (i, j, x))
                break
        if not distinct:
            break
    if distinct:
        report.add("distinct-neighbours", True, "")

    commuting = True
    for i, j in combinations(range(M.rank), 2):
        if j - i < 2:
            continue
        ri, rj = M.adjacency[i], M.adjacency[j]
        if ri * rj != rj * ri:
            commuting = False
            report.add("far-commutation", False, "r_%d and r_%d do not commute" % (i, j))
            break
    if commuting:
        report.add("far-commutation", True, "")

    reached = orbit_of(0, M.adjacency) if N else []
    report.add("transitivity", len(reached) == N,
               "" if len(reached) == N else "%d of %d flags reachable" % (len(reached), N))
    return report


def is_orientable(M: Maniplex, base_flag: int = 0) -> frozenset[int] | None:
    """The white flags of a 2-colouring of the flag graph with the base
    flag white, or None if the graph is not bipartite: one forced map onto
    the two-point graph in which every colour swaps the points, the white
    flags being those sent to 0."""
    image = [-1] * M.num_flags
    if forced_map([r.images for r in M.adjacency], [(1, 0)] * M.rank,
                  base_flag, 0, image) is None:
        return None
    return frozenset(x for x, c in enumerate(image) if c == 0)


@dataclass(frozen=True)
class RotationSystem:
    """Restriction of the even connection elements s_i = r_{i-1} r_i to
    white flags; sigma[i-1] is s_i acting on the white-flag list."""

    white_flags: tuple[int, ...]
    sigma: tuple[Perm, ...]
    base: int  # index of the base flag within white_flags

    @property
    def rank(self) -> int:
        return len(self.sigma) + 1

    @property
    def degree(self) -> int:
        return len(self.white_flags)

    def group(self) -> PermGroup:
        return PermGroup(self.degree, self.sigma)


def rotation_system(M: RootedManiplex) -> RotationSystem:
    """The rotation system of M; cached on M (``M.rotation``)."""
    return M.rotation


def tau(sigma, i: int, j: int) -> Perm:
    """The element tau_{i,j} = sigma_{i+1} ... sigma_j of the rank-n
    rotation generators sigma = (sigma_1, ..., sigma_{n-1}), with the
    usual conventions: identity when i == j or when i < j touches the
    ends, and tau_{i,j} = tau_{j,i}^{-1} when i > j."""
    n = len(sigma) + 1
    if not (-1 <= i <= n and -1 <= j <= n):
        raise IndexError("tau indices out of range")
    degree = sigma[0].degree
    if i == j:
        return Perm.identity(degree)
    if i > j:
        return tau(sigma, j, i).inverse()
    if i == -1 or j == n:
        return Perm.identity(degree)
    return left_product(sigma[i:j], degree=degree)


def forced_map(rows_a, rows_b, src: int, dst: int, image: list[int]) -> list[int] | None:
    """Extend the label-preserving map src -> dst from graph a to graph b.

    rows_a and rows_b are matching lists of image tuples. The map is
    written into ``image`` (one entry per point of a, -1 for unset)
    along forward arrows, breadth first; the points reached, src first,
    are returned, or None once an arrow disagrees with the map. The
    arrows are permutations, so the reached points are src's whole
    component, and a map consistent on an arrow is consistent on its
    inverse.
    """
    pairs = list(zip(rows_a, rows_b))
    image[src] = dst
    reached = [src]
    for a in reached:  # the growing list is the BFS queue
        b = image[a]
        for ra, rb in pairs:
            a2, b2 = ra[a], rb[b]
            m = image[a2]
            if m == -1:
                image[a2] = b2
                reached.append(a2)
            elif m != b2:
                return None
    return reached


def find_rooted_automorphism(M: Maniplex, phi: int, psi: int) -> Perm | None:
    """Colour-preserving flag-graph automorphism sending phi to psi."""
    rows = [r.images for r in M.adjacency]
    image = [-1] * M.num_flags
    reached = forced_map(rows, rows, phi, psi, image)
    if reached is None or len(reached) != M.num_flags:
        return None
    return Perm(image)


@dataclass(frozen=True)
class AutomorphismOrbit:
    orbit: list[int]  # the base flag first, then its images in discovery order
    generators: list[tuple[int, ...]]  # image lists of the certified automorphisms
    forced_maps: int


def automorphism_orbit(M: Maniplex, base: int) -> AutomorphismOrbit:
    """Orbit of the base flag under the automorphisms of a connected
    flag graph; its size is |Aut(M)|, since automorphisms act freely.

    Every flag psi not yet classified gets one forced map base -> psi.
    A found automorphism is kept as a generator, and the orbit becomes
    orbit_of(base) under all generators. A failure excludes orbit_of(psi)
    under the generators kept so far: an automorphism a with
    base -> h(psi) would make h^-1 a one with base -> psi.
    """
    N = M.num_flags
    if len(orbit_of(base, M.adjacency)) != N:
        raise PreconditionError("automorphism orbit needs a connected flag graph")
    IMAGE, EXCLUDED = 1, 2  # 0 marks a flag not yet classified
    state = bytearray(N)
    state[base] = IMAGE
    orbit, gens, forced_maps = [base], [], 0
    for psi in range(N):
        if state[psi]:
            continue
        forced_maps += 1
        aut = find_rooted_automorphism(M, base, psi)
        if aut is not None:
            gens.append(aut)
            orbit = closed = orbit_of(base, gens)
            mark = IMAGE
        else:
            closed, mark = orbit_of(psi, gens), EXCLUDED
        for q in closed:
            if state[q] not in (0, mark):
                raise VerificationError("flag %d is excluded and an image" % q)
            state[q] = mark
    return AutomorphismOrbit(orbit=orbit, generators=[g.images for g in gens],
                             forced_maps=forced_maps)


def classify_symmetry(M: RootedManiplex) -> Symmetry:
    """Regular, chiral or neither; cached on M (``M.symmetry``)."""
    return M.symmetry


def schlafli(M: RootedManiplex) -> list[int]:
    """Schlafli symbol [p_1..p_{n-1}] with p_i = order of r_{i-1} r_i.

    p_i is read as the length of the cycle of c = r_{i-1} r_i through the
    base flag. On a rotary maniplex every cycle of c has that length:
    automorphisms commute with c and carry the base flag to every flag an
    even word reaches, and r_i c r_i = c^{-1} covers the other flags.
    """
    if not M.rotary:
        raise PreconditionError("Schlafli symbol undefined: maniplex is not rotary")
    base = M.base_flag
    rows = [r.images for r in M.maniplex.adjacency]
    symbol = []
    for i in range(1, len(rows)):
        a, b = rows[i - 1], rows[i]
        length, x = 1, a[b[base]]
        while x != base:
            length, x = length + 1, a[b[x]]
        symbol.append(length)
    return symbol


def facets(M: Maniplex) -> list[tuple[int, ...]]:
    """Facet flag-orbits: drop the last colour, order by least flag."""
    return M.facet_partition[0]


def covers(M: RootedManiplex, N: RootedManiplex) -> list[int] | None:
    """Rooted colour-preserving covering M -> N as a flag surjection."""
    if M.rank != N.rank:
        raise PreconditionError("rank mismatch %d vs %d" % (M.rank, N.rank))
    image = [-1] * M.maniplex.num_flags
    reached = forced_map([r.images for r in M.maniplex.adjacency],
                         [r.images for r in N.maniplex.adjacency],
                         M.base_flag, N.base_flag, image)
    if reached is None or len(reached) != len(image) or len(set(image)) != N.maniplex.num_flags:
        return None
    return image


def dually_bipartite_colouring(M: Maniplex, base_flag: int = 0) -> list[int] | None:
    """2-colouring of facets so that facets sharing an (n-2)-face get
    opposite colours; the base facet gets colour 1. None if impossible.

    One forced map onto the two-point graph in which r_0..r_{n-2} fix both
    points and r_{n-1} swaps them: it is constant on each facet, sends the
    base facet to 0 and must reach every flag."""
    image = [-1] * M.num_flags
    reached = forced_map([r.images for r in M.adjacency],
                         [(0, 1)] * (M.rank - 1) + [(1, 0)], base_flag, 0, image)
    if reached is None or len(reached) != M.num_flags:
        return None
    if M.rank >= 2:
        p_last = (M.adjacency[-1] * M.adjacency[-2]).order()
        if p_last % 2 != 0:
            raise VerificationError("dually bipartite forces an even last entry")
    return [1 - 2 * image[blk[0]] for blk in M.facet_partition[0]]
