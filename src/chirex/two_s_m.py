"""The 2s^M maniplex: rank n+1, facets isomorphic to M, last entry 2s.

Flags are triples (flag of M, x, delta) where x runs over the
zero-sum vectors mod s indexed by the facets of M and delta is a bit.
The first n connection colours act on the M coordinate only; the new
colour n moves x by +-(e_j - e_0) (j the facet of the flag) and flips
delta.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .maniplex import (Maniplex, PreconditionError, RootedManiplex, Symmetry,
                       automorphism_orbit, classify_symmetry, schlafli, validate)
from .permcore import MAX_FLAGS, Perm


@dataclass(frozen=True)
class TwoSM:
    maniplex: Maniplex
    base_flag: int
    m: int  # number of facets of the source
    s: int
    source: RootedManiplex
    facet_of_source: tuple[int, ...]  # flag of M -> facet label j (base facet = 0)

    @cached_property
    def rooted(self) -> RootedManiplex:
        return RootedManiplex(self.maniplex, self.base_flag)


def _facet_labels(M: RootedManiplex) -> tuple[int, tuple[int, ...]]:
    """Facet count and flag -> facet label, base facet relabelled to 0."""
    blocks, block_of = M.maniplex.facet_partition
    base_idx = block_of[M.base_flag]
    # the base facet becomes 0 and the facets before it move up by one
    relabel = [j + 1 if j < base_idx else j for j in range(len(blocks))]
    relabel[base_idx] = 0
    return len(blocks), tuple(relabel[j] for j in block_of)


def every_ridge_in_two_facets(M: Maniplex) -> bool:
    """True iff no (n-2)-face lies in a single facet, i.e. the last
    colour always changes the facet."""
    _, facet_of = M.facet_partition
    last = M.adjacency[-1].images
    return all(facet_of[f] != facet_of[last[f]] for f in range(M.num_flags))


def build_two_s_m(M: RootedManiplex, s: int) -> TwoSM:
    if s < 2:
        raise PreconditionError("s must be at least 2")
    man = M.maniplex
    if not validate(man).passed:
        raise PreconditionError("input maniplex is invalid")
    m, facet_of = _facet_labels(M)
    # flag (flag of M, x, delta) is (flag * num_u + u) * 2 + delta, where u
    # holds x_1..x_{m-1} in mixed radix base s (x_0 makes the sum vanish)
    num_u = s ** (m - 1)
    N = man.num_flags * num_u * 2
    if N > MAX_FLAGS:
        raise PreconditionError("2s^M would have %d flags, more than the %d allowed"
                                % (N, MAX_FLAGS))
    # colour i < n moves the flag of M and keeps (u, delta)
    adjacency = [Perm([(r * num_u + u) * 2 + d for r in ri.images
                       for u in range(num_u) for d in (0, 1)]) for ri in man.adjacency]

    def move(j: int, e: int) -> list[int]:
        # u after x_j += e: free digit j-1 moves mod s (x_0 absorbs -e)
        step = s ** (j - 1)
        return [u + ((u // step + e) % s - u // step % s) * step for u in range(num_u)]

    # colour n adds (-1)^delta (e_j - e_0), j the facet, and flips delta;
    # moves[j][delta] is that move on u, the identity for j = 0
    moves = [(range(num_u),) * 2] + [(move(j, 1), move(j, -1)) for j in range(1, m)]
    adjacency.append(Perm([(f * num_u + moves[j][d][u]) * 2 + 1 - d
                           for f, j in enumerate(facet_of)
                           for u in range(num_u) for d in (0, 1)]))

    big = Maniplex(rank=man.rank + 1, adjacency=tuple(adjacency))
    result = TwoSM(maniplex=big, base_flag=M.base_flag * num_u * 2, m=m, s=s, source=M,
                   facet_of_source=facet_of)
    if not validate(big).passed:
        raise PreconditionError("constructed maniplex failed validation")
    return result


@dataclass
class AutStructureReport:
    automorphism_count: int
    expected: int
    flags: int
    symbol: list[int]
    forced_maps: int  # forced maps run to find the automorphisms
    generators: int  # automorphisms kept to close the base-flag orbit

    @property
    def passed(self) -> bool:
        return self.automorphism_count == self.expected


def verify_aut_structure(M: RootedManiplex, s: int) -> AutStructureReport:
    """Count automorphisms of 2s^M and compare with |Aut(M)| * 2 * s^(m-1).

    The count is the size of the base flag's orbit under the
    automorphisms that forced maps certify (:func:`automorphism_orbit`).

    Requires M regular (so |Aut(M)| equals the flag count) with every
    (n-2)-face in two facets.
    """
    if classify_symmetry(M) is not Symmetry.REGULAR:
        raise PreconditionError("automorphism count formula needs a regular input")
    if not every_ridge_in_two_facets(M.maniplex):
        raise PreconditionError("an (n-2)-face lies in a single facet")
    tsm = build_two_s_m(M, s)
    found = automorphism_orbit(tsm.maniplex, tsm.base_flag)
    expected = M.maniplex.num_flags * 2 * s ** (tsm.m - 1)
    return AutStructureReport(automorphism_count=len(found.orbit), expected=expected,
                              flags=tsm.maniplex.num_flags, symbol=schlafli(tsm.rooted),
                              forced_maps=found.forced_maps,
                              generators=len(found.generators))
