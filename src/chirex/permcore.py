"""Permutations, generator words, and finite permutation groups.

Conventions used everywhere in this package:

* permutations act on the points 0..d-1 and are stored as image tuples;
* products read left to right, so ``(p * q)(x) == q(p(x))``;
* formulas that multiply generators as left-acting functions (where
  ``g1 g2`` means "apply g2 first") go through :func:`left_product`.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from functools import reduce


class DegreeMismatch(ValueError):
    """Raised when permutations on different point sets are combined."""


class Perm:
    """A permutation of {0, ..., d-1} stored as its image tuple."""

    __slots__ = ("images",)

    def __init__(self, images):
        images = tuple(images)
        if sorted(images) != list(range(len(images))):
            raise ValueError("images are not a bijection on 0..%d" % (len(images) - 1))
        self.images = images

    @classmethod
    def identity(cls, degree: int) -> "Perm":
        return cls(range(degree))

    @classmethod
    def from_cycles(cls, degree: int, cycles) -> "Perm":
        images = list(range(degree))
        for cyc in cycles:
            for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                images[a] = b
        return cls(images)

    @property
    def degree(self) -> int:
        return len(self.images)

    def apply(self, x: int) -> int:
        return self.images[x]

    __call__ = apply

    def __mul__(self, other: "Perm") -> "Perm":
        # left-to-right: apply self first, then other
        if other.degree != self.degree:
            raise DegreeMismatch("cannot compose degree %d with %d" % (self.degree, other.degree))
        oi = other.images
        return Perm(oi[x] for x in self.images)

    def inverse(self) -> "Perm":
        inv = [0] * len(self.images)
        for x, y in enumerate(self.images):
            inv[y] = x
        return Perm(inv)

    def __pow__(self, k: int) -> "Perm":
        if k < 0:
            return self.inverse() ** (-k)
        result = Perm.identity(self.degree)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def cycles(self, include_fixed: bool = False):
        """Cycle decomposition, cycles listed by least element."""
        seen = [False] * self.degree
        out = []
        for start in range(self.degree):
            if seen[start]:
                continue
            cyc = [start]
            seen[start] = True
            x = self.images[start]
            while x != start:
                seen[x] = True
                cyc.append(x)
                x = self.images[x]
            if len(cyc) > 1 or include_fixed:
                out.append(tuple(cyc))
        return out

    def order(self) -> int:
        return reduce(math.lcm, (len(c) for c in self.cycles()), 1)

    def is_identity(self) -> bool:
        return all(y == x for x, y in enumerate(self.images))

    def __eq__(self, other) -> bool:
        return isinstance(other, Perm) and self.images == other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def __repr__(self) -> str:
        cycs = self.cycles()
        if not cycs:
            return "Perm.identity(%d)" % self.degree
        text = "".join("(" + " ".join(map(str, c)) + ")" for c in cycs)
        return "Perm[%d: %s]" % (self.degree, text)


def left_product(perms, degree: int | None = None) -> Perm:
    """Product of left-acting maps: left_product([a, b])(x) == a(b(x)).

    This is the adapter for products written in "apply the rightmost
    factor first" order, which is how connection elements act on flags.
    """
    perms = list(perms)
    if not perms:
        if degree is None:
            raise ValueError("degree required for an empty product")
        return Perm.identity(degree)
    return reduce(lambda acc, p: p * acc, perms[1:], perms[0])


@dataclass(frozen=True)
class GroupWord:
    """A word in abstract generators: letters are (index, exponent) pairs."""

    letters: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        for idx, exp in self.letters:
            if exp not in (1, -1):
                raise ValueError("word exponents must be +1 or -1")
            if idx < 0:
                raise ValueError("negative generator index")

    def __len__(self) -> int:
        return len(self.letters)

    def inverse(self) -> "GroupWord":
        return GroupWord(tuple((i, -e) for i, e in reversed(self.letters)))

    def reversed(self) -> "GroupWord":
        """Letters in reverse order, exponents kept."""
        return GroupWord(tuple(reversed(self.letters)))

    def __add__(self, other: "GroupWord") -> "GroupWord":
        return GroupWord(self.letters + other.letters)


def evaluate_word(gens, word: GroupWord, degree: int | None = None) -> Perm:
    """Left-to-right product of the word's letters over the generator list."""
    if degree is None:
        if not gens:
            raise ValueError("degree required when there are no generators")
        degree = gens[0].degree
    acc = Perm.identity(degree)
    for idx, exp in word.letters:
        if idx >= len(gens):
            raise IndexError("generator index %d out of range" % idx)
        p = gens[idx] if exp == 1 else gens[idx].inverse()
        acc = acc * p
    return acc


def word_action(gens, word: GroupWord, degree: int | None = None) -> Perm:
    """The word read as a left action (leftmost letter applied last)."""
    return evaluate_word(gens, word.reversed(), degree)


class _Chain:
    """Deterministic Schreier-Sims stabiliser chain.

    Permutations are kept as numpy index arrays internally so that
    composition is a single fancy-indexing operation; degrees in the
    thousands with group orders far beyond 64 bits stay tractable.
    """

    def __init__(self, gens, degree: int):
        import numpy as np

        self._np = np
        self.degree = degree
        self.identity = np.arange(degree, dtype=np.int32)
        self.base: list[int] = []
        self.level_gens: list[list] = []
        # level i: point -> (u, u_inv) with u mapping base[i] to point
        self.transversals: list[dict[int, tuple]] = []
        for g in gens:
            self._add(np.array(g, dtype=np.int32))
        self._verify()

    def _is_identity(self, g) -> bool:
        return bool((g == self.identity).all())

    def _inv(self, g):
        inv = self._np.empty(self.degree, dtype=self._np.int32)
        inv[g] = self.identity
        return inv

    def _extend_base(self, g) -> None:
        moved = self._np.nonzero(g != self.identity)[0]
        x = int(moved[0])
        self.base.append(x)
        self.level_gens.append([])
        self.transversals.append({x: (self.identity, self.identity)})

    def _rebuild_transversal(self, i: int) -> None:
        tr = {self.base[i]: (self.identity, self.identity)}
        queue = deque([self.base[i]])
        gens = self.level_gens[i]
        while queue:
            p = queue.popleft()
            u = tr[p][0]
            for s in gens:
                q = int(s[p])
                if q not in tr:
                    v = s[u]  # apply u, then s
                    tr[q] = (v, self._inv(v))
                    queue.append(q)
        self.transversals[i] = tr

    def _strip(self, g, start: int = 0):
        for i in range(start, len(self.base)):
            entry = self.transversals[i].get(int(g[self.base[i]]))
            if entry is None:
                return g, i
            g = entry[1][g]  # g * u^{-1}
        return g, len(self.base)

    def _insert(self, h, j: int) -> None:
        # h is a new strong generator fixing base[:j]
        if j == len(self.base):
            self._extend_base(h)
        for lev in range(j + 1):
            self.level_gens[lev].append(h)
        for lev in range(j, -1, -1):
            self._rebuild_transversal(lev)

    def _add(self, g) -> None:
        h, j = self._strip(g)
        if not self._is_identity(h):
            self._insert(h, j)

    def _verify(self) -> None:
        # check every Schreier generator sifts to the identity, deepest
        # level first; a failure adds a strong generator and resumes there
        i = len(self.base) - 1
        while i >= 0:
            dirty = False
            tr = self.transversals[i]
            gens = self.level_gens[i]
            for p in list(tr):
                u = tr[p][0]
                for s in gens:
                    q = int(s[p])
                    sch = tr[q][1][s[u]]  # u * s * u_q^{-1}
                    if self._is_identity(sch):
                        continue
                    h, j = self._strip(sch, i + 1)
                    if not self._is_identity(h):
                        self._insert(h, j)
                        i = j
                        dirty = True
                        break
                if dirty:
                    break
            if not dirty:
                i -= 1

    def order(self) -> int:
        n = 1
        for tr in self.transversals:
            n *= len(tr)
        return n

    def contains(self, g) -> bool:
        h, _ = self._strip(self._np.array(g, dtype=self._np.int32))
        return self._is_identity(h)


class PermGroup:
    """Finite permutation group given by generators.

    Order and membership queries go through a cached stabiliser chain;
    the base is chosen deterministically (ascending moved points).
    """

    def __init__(self, degree: int, generators, names=None):
        self.degree = degree
        self.generators: tuple[Perm, ...] = tuple(generators)
        for g in self.generators:
            if g.degree != degree:
                raise DegreeMismatch("generator degree %d != group degree %d" % (g.degree, degree))
        if names is None:
            names = tuple("g%d" % i for i in range(len(self.generators)))
        else:
            names = tuple(names)
            if len(names) != len(self.generators):
                raise ValueError("one name per generator required")
        self.generator_names = names
        self._chain: _Chain | None = None

    @property
    def chain(self) -> _Chain:
        if self._chain is None:
            self._chain = _Chain([g.images for g in self.generators], self.degree)
        return self._chain

    def order(self) -> int:
        return self.chain.order()

    def base(self) -> tuple[int, ...]:
        return tuple(self.chain.base)

    def __contains__(self, p: Perm) -> bool:
        if p.degree != self.degree:
            raise DegreeMismatch("element degree %d != group degree %d" % (p.degree, self.degree))
        return self.chain.contains(p.images)

    def orbit(self, x: int) -> list[int]:
        """Orbit of x under the generators, in BFS discovery order."""
        if not 0 <= x < self.degree:
            raise IndexError("point %d out of range" % x)
        return orbit_of(x, self.generators)

    def orbits(self) -> list[list[int]]:
        """All orbits, each sorted, ordered by least point."""
        return [list(b) for b in orbit_partition(self.generators, self.degree)[0]]


def orbit_of(x: int, perms) -> list[int]:
    """BFS closure of {x} under the given permutations."""
    seen = {x}
    order = [x]
    queue = deque([x])
    while queue:
        p = queue.popleft()
        for g in perms:
            q = g.images[p]
            if q not in seen:
                seen.add(q)
                order.append(q)
                queue.append(q)
    return order


def orbit_partition(perms, degree: int) -> tuple[list[tuple[int, ...]], list[int]]:
    """Orbits of 0..degree-1 under the given permutations.

    Returns (blocks, block_of): each block sorted, blocks ordered by their
    least point, and block_of[x] the index of the block holding x. With
    no permutations every point is its own block.
    """
    blocks: list[tuple[int, ...]] = []
    block_of = [-1] * degree
    for x in range(degree):
        if block_of[x] == -1:
            orb = sorted(orbit_of(x, perms))
            index = len(blocks)
            for y in orb:
                block_of[y] = index
            blocks.append(tuple(orb))
    return blocks, block_of


def disjoint_union(a, b) -> tuple[int, ...]:
    """Image tuples a and b acting side by side on the disjoint union of
    their point sets, b's points shifted past a's."""
    d = len(a)
    return tuple(a) + tuple(x + d for x in b)
