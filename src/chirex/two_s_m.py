"""The 2s^M maniplex: rank n+1, facets isomorphic to M, last entry 2s.

Flags are triples (flag of M, x, delta) where x runs over the
zero-sum vectors mod s indexed by the facets of M and delta is a bit.
The first n connection colours act on the M coordinate only; the new
colour n moves x by +-(e_j - e_0) (j the facet of the flag) and flips
delta.
"""

from __future__ import annotations

from dataclasses import dataclass

from .maniplex import (Maniplex, PreconditionError, RootedManiplex, Symmetry,
                       automorphism_orbit, classify_symmetry, schlafli, validate)
from .permcore import Perm, orbit_partition


@dataclass(frozen=True)
class TwoSM:
    maniplex: Maniplex
    base_flag: int
    m: int  # number of facets of the source
    s: int
    source: RootedManiplex
    facet_of_source: tuple[int, ...]  # flag of M -> facet label j (base facet = 0)

    @property
    def rooted(self) -> RootedManiplex:
        return RootedManiplex(self.maniplex, self.base_flag)

    @property
    def num_u(self) -> int:
        return self.s ** (self.m - 1)

    # x is stored as the free coordinates x_1..x_{m-1} in mixed radix
    # base s; x_0 is determined by the zero-sum constraint
    def flag_id(self, flag: int, u: int, delta: int) -> int:
        return (flag * self.num_u + u) * 2 + delta

    def decode(self, v: int) -> tuple[int, int, int]:
        v, delta = divmod(v, 2)
        flag, u = divmod(v, self.num_u)
        return flag, u, delta

    def u_vector(self, u: int) -> tuple[int, ...]:
        coords = []
        for _ in range(self.m - 1):
            u, d = divmod(u, self.s)
            coords.append(d)
        x0 = (-sum(coords)) % self.s
        return (x0, *coords)

    def u_index(self, vector) -> int:
        if sum(vector) % self.s != 0:
            raise ValueError("coordinate sum must vanish mod s")
        u = 0
        for d in reversed(vector[1:]):
            u = u * self.s + (d % self.s)
        return u


def _facet_labels(M: RootedManiplex) -> tuple[int, tuple[int, ...]]:
    """Facet count and flag -> facet label, base facet relabelled to 0."""
    man = M.maniplex
    blocks, block_of = orbit_partition(man.adjacency[:-1], man.num_flags)
    base_idx = block_of[M.base_flag]
    # the base facet becomes 0 and the facets before it move up by one
    relabel = [j + 1 if j < base_idx else j for j in range(len(blocks))]
    relabel[base_idx] = 0
    return len(blocks), tuple(relabel[j] for j in block_of)


def every_ridge_in_two_facets(M: Maniplex) -> bool:
    """True iff no (n-2)-face lies in a single facet, i.e. the last
    colour always changes the facet."""
    _, facet_of = orbit_partition(M.adjacency[:-1], M.num_flags)
    last = M.adjacency[-1].images
    return all(facet_of[f] != facet_of[last[f]] for f in range(M.num_flags))


def build_two_s_m(M: RootedManiplex, s: int) -> TwoSM:
    if s < 2:
        raise PreconditionError("s must be at least 2")
    man = M.maniplex
    if not validate(man).passed:
        raise PreconditionError("input maniplex is invalid")
    m, facet_of = _facet_labels(M)
    num_u = s ** (m - 1)
    pow_s = [s ** i for i in range(m)]
    N = man.num_flags * num_u * 2

    adjacency = []
    for i in range(man.rank):
        ri = man.adjacency[i].images
        imgs = [0] * N
        for v in range(N):
            rest, delta = divmod(v, 2)
            flag, u = divmod(rest, num_u)
            imgs[v] = (ri[flag] * num_u + u) * 2 + delta
        adjacency.append(Perm(imgs))

    imgs = [0] * N
    for v in range(N):
        rest, delta = divmod(v, 2)
        flag, u = divmod(rest, num_u)
        j = facet_of[flag]
        if j == 0:
            u2 = u  # moving by a_0 = 0 in free coordinates
        else:
            # add (-1)^delta * (e_j - e_0): only free coordinate j moves
            step = pow_s[j - 1]
            d = (u // step) % s
            d2 = (d + (1 if delta == 0 else -1)) % s
            u2 = u + (d2 - d) * step
        imgs[v] = (flag * num_u + u2) * 2 + (1 - delta)
    adjacency.append(Perm(imgs))

    big = Maniplex(rank=man.rank + 1, adjacency=tuple(adjacency))
    base = (M.base_flag * num_u + 0) * 2 + 0
    result = TwoSM(maniplex=big, base_flag=base, m=m, s=s, source=M,
                   facet_of_source=facet_of)
    if not validate(big).passed:
        raise PreconditionError("constructed maniplex failed validation")
    return result


def two_s_m_type(M: RootedManiplex, s: int):
    """Schlafli symbol of 2s^M, computed from the built maniplex.

    Returns (symbol, ridge_ok): when some (n-2)-face of M lies in only
    one facet the last entry need not be 2s, and ridge_ok is False.
    """
    ridge_ok = every_ridge_in_two_facets(M.maniplex)
    tsm = build_two_s_m(M, s)
    return schlafli(tsm.rooted), ridge_ok


def lift_automorphism(tsm: TwoSM, gamma: Perm) -> Perm:
    """Lift an automorphism of M to 2s^M:
    (flag, x, delta) -> (flag gamma, x gamma + delta a_{0 gamma}, delta)."""
    man = tsm.source.maniplex
    if gamma.degree != man.num_flags:
        raise PreconditionError("degree mismatch with the source maniplex")
    for r in man.adjacency:
        if gamma * r != r * gamma:
            raise PreconditionError("not an automorphism of the source maniplex")
    m, s = tsm.m, tsm.s
    facet_of = tsm.facet_of_source
    # facet permutation induced by gamma
    fperm = [-1] * m
    for f in range(man.num_flags):
        j, j2 = facet_of[f], facet_of[gamma.images[f]]
        if fperm[j] == -1:
            fperm[j] = j2
        elif fperm[j] != j2:
            raise PreconditionError("flag map does not induce a facet permutation")
    a0g = [0] * m
    if fperm[0] != 0:
        a0g[fperm[0]] = 1
        a0g[0] = -1
    N = tsm.maniplex.num_flags
    imgs = [0] * N
    for v in range(N):
        flag, u, delta = tsm.decode(v)
        vec = tsm.u_vector(u)
        out = [0] * m
        for j in range(m):
            out[fperm[j]] = vec[j]
        if delta:
            for j in range(m):
                out[j] = (out[j] + a0g[j]) % s
        imgs[v] = tsm.flag_id(gamma.images[flag], tsm.u_index(out), delta)
    lifted = Perm(imgs)
    for r in tsm.maniplex.adjacency:
        if lifted * r != r * lifted:
            raise PreconditionError("lift is not an automorphism")
    return lifted


def translation_chi_automorphisms(tsm: TwoSM) -> list[Perm]:
    """Generators tau_{a_j} (j = 1..m-1) translating x, plus chi which
    negates x and flips delta; each verified to be an automorphism."""
    m, s = tsm.m, tsm.s
    N = tsm.maniplex.num_flags
    out = []
    for j in range(1, m):
        imgs = [0] * N
        for v in range(N):
            flag, u, delta = tsm.decode(v)
            vec = list(tsm.u_vector(u))
            vec[j] = (vec[j] + 1) % s
            vec[0] = (vec[0] - 1) % s
            imgs[v] = tsm.flag_id(flag, tsm.u_index(vec), delta)
        out.append(Perm(imgs))
    imgs = [0] * N
    for v in range(N):
        flag, u, delta = tsm.decode(v)
        vec = [(-x) % s for x in tsm.u_vector(u)]
        imgs[v] = tsm.flag_id(flag, tsm.u_index(vec), 1 - delta)
    out.append(Perm(imgs))
    for g in out:
        for r in tsm.maniplex.adjacency:
            if g * r != r * g:
                raise PreconditionError("claimed symmetry is not an automorphism")
    return out


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
