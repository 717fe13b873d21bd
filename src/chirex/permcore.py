"""Permutations and finite permutation groups.

Conventions used everywhere in this package:

* permutations act on the points 0..d-1 and are stored as image tuples;
* products read left to right, so ``(p * q)(x) == q(p(x))``;
* formulas that multiply generators as left-acting functions (where
  ``g1 g2`` means "apply g2 first") go through :func:`left_product`.
"""

from __future__ import annotations

import math
import mmap
import operator
from functools import reduce


class DegreeMismatch(ValueError):
    """Raised when permutations on different point sets are combined."""


class PreconditionError(ValueError):
    """An operation was called on input outside its contract."""


# The most flags (or GPR-graph vertices) a construction builds, checked
# before it allocates: 64 times the largest 2s^M of the tests and the
# benchmark (16384 flags), and small enough that the adjacency tuples fit
# in a few hundred MB.
MAX_FLAGS = 1 << 20
# The most bytes one stabiliser-chain level (orbit x degree int32) maps,
# checked before it maps them. The {4,4}_(3,1) extension on 80s points maps
# 100 MB at s = 64, the largest order of the tests and the benchmark, and
# 400 MB at s = 128; 1.6 GB at s = 256 is refused, as 4 TB at MAX_FLAGS is.
MAX_LEVEL_BYTES = 1 << 30


class Perm:
    """A permutation of {0, ..., d-1} stored as its image tuple.

    ``Perm(images)`` stores the images as Python ints and checks that they
    are integers forming a bijection, and ``Perm.from_array`` does so for
    a numpy array in linear time. Products, inverses, powers and
    identities are bijections by construction and are built unchecked.
    """

    __slots__ = ("images",)

    def __init__(self, images):
        try:
            images = tuple(map(operator.index, images))
        except TypeError as exc:
            raise ValueError("images are not integers: %s" % exc) from None
        if sorted(images) != list(range(len(images))):
            raise ValueError("images are not a bijection on 0..%d" % (len(images) - 1))
        self.images = images

    @classmethod
    def from_array(cls, arr) -> "Perm":
        """``Perm(arr.tolist())`` for a 1-D integer numpy array, with the
        bijection checked in linear time by counting each image once."""
        import numpy as np
        if arr.ndim != 1 or arr.dtype.kind not in "iu":
            raise ValueError("images must be a 1-D integer array, not %d-D %s"
                             % (arr.ndim, arr.dtype))
        n = len(arr)
        if n and (arr.min() < 0 or arr.max() >= n or np.count_nonzero(
                np.bincount(arr.astype(np.intp, copy=False), minlength=n)) < n):
            raise ValueError("images are not a bijection on 0..%d" % (n - 1))
        return _unchecked(tuple(arr.tolist()))

    @classmethod
    def identity(cls, degree: int) -> "Perm":
        return _unchecked(tuple(range(degree)))

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
        return _unchecked(tuple([oi[x] for x in self.images]))

    def inverse(self) -> "Perm":
        inv = [0] * len(self.images)
        for x, y in enumerate(self.images):
            inv[y] = x
        return _unchecked(tuple(inv))

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

    def cycle_lengths(self) -> set[int]:
        """The distinct cycle lengths, fixed points counting as length 1."""
        images = self.images
        seen = bytearray(len(images))
        lengths = set()
        for start in range(len(images)):
            if not seen[start]:
                n, x = 0, start
                while not seen[x]:
                    seen[x] = 1
                    x = images[x]
                    n += 1
                lengths.add(n)
        return lengths

    def order(self) -> int:
        return math.lcm(*self.cycle_lengths())

    def is_identity(self) -> bool:
        return self.images == tuple(range(len(self.images)))

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


def _unchecked(images: tuple) -> Perm:
    """A Perm over an image tuple that is known to be a bijection."""
    p = object.__new__(Perm)
    p.images = images
    return p


def left_product(perms) -> Perm:
    """Product of left-acting maps: left_product([a, b])(x) == a(b(x)).

    This is the adapter for products written in "apply the rightmost
    factor first" order, which is how connection elements act on flags.
    An empty product has no degree and raises ValueError.
    """
    perms = list(perms)
    if not perms:
        raise ValueError("an empty product has no degree")
    return reduce(lambda acc, p: p * acc, perms[1:], perms[0])


class _Chain:
    """Certified, deterministic incremental Schreier-Sims stabiliser chain.

    Permutations are numpy int32 image arrays. Level i keeps base[i], its
    strong generators S_i (fixing base[:i]) and one array of inverse coset
    representatives that only gains rows (row r of ``uinv[i]`` maps
    ``pts[i][r]`` to base[i]; ``row_of[i][p]`` is p's row or -1), with at
    most 25 % spare rows, in an anonymous mapping (a freed large malloc
    block raises glibc's mmap threshold and leaves a fragmented heap).
    Input generators join S_0..S_j; a residue found at level i lies in
    <S_i>, so it joins S_{i+1}..S_j only. A per-level, per-generator cursor
    marks verified rows, so no Schreier generator is sifted twice; they go
    in batches of at most ``BATCH`` entries, first residue inserted. One
    routine, ``_sift``, sifts input generators, batches and membership
    probes; every product and sift step is one ``take`` on (or one
    assignment to) the flat view of a level's rows, at np.intp row offsets.

    An intransitive group keeps the levels whose base point lies in orbit0,
    the orbit of point 0, ahead of the rest: the first ``split`` levels are
    a chain of the action on orbit0 and the others one of its kernel. A row
    that passes the image levels but still moves a point of orbit0 is a
    residue at level ``split``, which becomes a new image level; it also
    takes the first kernel level's generators, which fix orbit0 pointwise,
    so every level stays inside the one above it (Seress, *Permutation
    Group Algorithms*, 2003, ch. 5). A transitive group has no kernel level.
    """

    BATCH = 1 << 14

    def __init__(self, gens, degree: int):
        import numpy as np
        self._np = np
        self.degree = degree
        self.identity = np.arange(degree, dtype=np.int32)
        self.base, self.gens, self.cursor = [], [], []  # one entry per level
        self.pts, self.uinv, self.row_of = [], [], []
        self.sifts = self.split = 0
        # sorted(), not np.sort: the first np.sort call adds about 0.4 MB to peak RSS
        self.orbit0 = np.array(sorted(orbit_of(0, [_unchecked(tuple(g)) for g in gens]))
                               if degree else [], dtype=np.intp)
        for g in gens:
            h = np.array([g], dtype=np.int32)
            bad, j = self._sift(h, 0)
            if not bad:
                self._insert(h[0], 0, j)
        i = len(self.base) - 1
        while i >= 0:
            i = self._check(i)

    def _insert(self, h, lo: int, j: int) -> None:
        # h fixes base[:j] and joins S_lo..S_j, whose orbits are closed again
        np = self._np
        image = j == self.split and (h[self.orbit0] != self.orbit0).any()
        if image or j == len(self.base):
            # an image level goes at split, ahead of the kernel levels, and
            # takes the first one's generators; its base point lies in orbit0
            pts = self.orbit0 if image else self.identity
            b = int(pts[np.flatnonzero(h[pts] != pts)[0]])
            self.split += bool(image)
            kernel = self.gens[j] if j < len(self.base) else []
            row_of = (self.identity == b).astype(np.int32) - 1  # b is row 0, the rest -1
            for store, item in zip((self.base, self.gens, self.cursor, self.pts, self.uinv,
                                    self.row_of), (b, list(kernel), [0] * len(kernel), [b],
                                                   self.identity[None], row_of)):
                store.insert(j, item)
        for lev in range(lo, j + 1):
            gens, pts, row_of = self.gens[lev], self.pts[lev], self.row_of[lev]
            gens.append(h)
            self.cursor[lev].append(0)
            # old rows are closed under the older generators, new rows under none
            edges = [(r, h) for r in np.flatnonzero(row_of[h[pts]] < 0).tolist()]
            new = []  # the edge (row r, generator s) reaching each new point
            for r, s in edges:
                q = int(s[pts[r]])
                if row_of[q] < 0:
                    row_of[q] = len(pts)
                    edges += [(len(pts), t) for t in gens]
                    new.append((r, s))
                    pts.append(q)
            inv, old = self.uinv[lev], len(pts) - len(new)
            if len(pts) > len(inv):  # a quarter more rows at least, old rows copied once
                size = 4 * max(len(pts), len(inv) + len(inv) // 4) * self.degree
                if size > MAX_LEVEL_BYTES:
                    raise PreconditionError("a stabiliser chain level would map %d bytes, more "
                                            "than the %d allowed" % (size, MAX_LEVEL_BYTES))
                inv = np.frombuffer(mmap.mmap(-1, size), np.int32).reshape(-1, self.degree)
                inv[:old], self.uinv[lev] = self.uinv[lev][:old], inv
            for k, (r, s) in enumerate(new, old):
                inv[k, s] = inv[r]  # u_k = u_r * s, so u_k^{-1}[s[y]] = u_r^{-1}[y]

    def _check(self, i: int) -> int:
        """Resume verifying level i; the next level to verify (i - 1 when done)."""
        np = self._np
        inv, row_of, pts = self.uinv[i], self.row_of[i], self.pts[i]
        for k, s in enumerate(self.gens[i]):
            while self.cursor[i][k] < len(pts):
                a = self.cursor[i][k]
                b = min(len(pts), a + max(1, self.BATCH // self.degree))
                w = self._gather(inv, row_of[s[pts[a:b]]], s)  # s * u_q^{-1}
                rows = a + np.flatnonzero((w != inv[a:b]).any(axis=1))
                g = np.empty((len(rows), self.degree), dtype=np.int32)
                to = self._offsets(np.arange(len(rows)))[:, None] + inv[rows]
                g.reshape(-1)[to] = w[rows - a]  # u_p * s * u_q^{-1}
                self.sifts += len(rows)
                bad, j = self._sift(g, i + 1)
                self.cursor[i][k] = b if bad == len(rows) else int(rows[bad]) + 1
                if bad < len(rows):
                    self._insert(g[bad].copy(), i + 1, j)
                    return j
        return i - 1

    def _sift(self, g, start: int) -> tuple[int, int]:
        """Sift the rows of g in place from level start. Returns the first
        row that leaves an orbit or ends as a non-identity residue, and the
        level where it did; (len(g), len(base)) if every row sifts out. A row
        still moving a point of orbit0 past the image levels ends at split."""
        bad, j = len(g), len(self.base)
        for lev in range(start, len(self.base) + 1):
            if lev == len(self.base) or lev == self.split:
                # past the image levels a row moves no point of orbit0, past all none
                pts = self.orbit0 if lev < len(self.base) else slice(None)
                moved = (g[:bad, pts] != self.identity[pts]).any(axis=1).nonzero()[0]
                if len(moved):
                    bad, j = int(moved[0]), lev
                if lev == len(self.base) or not bad:
                    return bad, j
            at = self.row_of[lev][g[:bad, self.base[lev]]]
            mv = at.nonzero()[0]  # a row fixing the base point stays as it is
            if not len(mv):
                continue
            out = (at[mv] < 0).nonzero()[0]
            if len(out):
                bad, j, mv = int(mv[out[0]]), lev, mv[:out[0]]
                if not bad:
                    return 0, lev
            g[mv] = self._gather(self.uinv[lev], at[mv], g[mv])  # g * u^{-1}

    def _offsets(self, rows):
        # in int32, rows * degree would wrap once a row passes 2**31 // degree
        return rows.astype(self._np.intp) * self.degree

    def _gather(self, table, rows, cols):
        """table[rows[k], cols[k, x]], one take on the flat view of table."""
        return table.reshape(-1).take(self._offsets(rows)[:, None] + cols)

    def order(self) -> int:
        return math.prod(len(p) for p in self.pts)

    def orbit_order(self) -> int:
        """The order of the group's action on orbit0, from the image levels."""
        return math.prod(len(p) for p in self.pts[:self.split])

    def contains(self, g) -> bool:
        return self._sift(self._np.array([g], self._np.int32), 0)[0] == 1

    def stats(self) -> dict:
        """Base length, strong generators, Schreier generators sifted, orbit lengths."""
        strong = {id(h) for gens in self.gens for h in gens}
        return {"base_length": len(self.base), "strong_generators": len(strong),
                "schreier_sifts": self.sifts, "orbit_sizes": [len(p) for p in self.pts]}


class PermGroup:
    """Finite permutation group given by generators.

    Order and membership queries go through a cached stabiliser chain
    with a deterministic base, whose points in the orbit of point 0 come
    first: a new level's base point is the least point of that orbit that
    the element opening the level moves, or, once every element left fixes
    the orbit pointwise, the least point it moves. So the chain also gives
    the order of the group's action on that orbit (:meth:`orbit_order`).
    """

    def __init__(self, degree: int, generators):
        self.degree = degree
        self.generators: tuple[Perm, ...] = tuple(generators)
        for g in self.generators:
            if g.degree != degree:
                raise DegreeMismatch("generator degree %d != group degree %d" % (g.degree, degree))
        self._chain: _Chain | None = None

    @property
    def chain(self) -> _Chain:
        if self._chain is None:
            self._chain = _Chain([g.images for g in self.generators], self.degree)
        return self._chain

    def order(self) -> int:
        return self.chain.order()

    def orbit_order(self) -> int:
        """The order of the group's action on the orbit of point 0."""
        return self.chain.orbit_order()

    def base(self) -> tuple[int, ...]:
        return tuple(self.chain.base)

    def __contains__(self, p: Perm) -> bool:
        if p.degree != self.degree:
            raise DegreeMismatch("element degree %d != group degree %d" % (p.degree, self.degree))
        return self.chain.contains(p.images)


def orbit_of(x: int, perms) -> list[int]:
    """BFS closure of {x} under the given permutations, in discovery order."""
    rows = [g.images for g in perms]
    order = [x]
    if rows:
        seen = bytearray(len(rows[0]))
        seen[x] = 1
        for p in order:  # the growing list is the BFS queue
            for row in rows:
                q = row[p]
                if not seen[q]:
                    seen[q] = 1
                    order.append(q)
    return order


def orbit_partition(perms, degree: int) -> tuple[list[tuple[int, ...]], list[int]]:
    """Orbits of 0..degree-1 under the given permutations.

    Returns (blocks, block_of): each block sorted, blocks ordered by their
    least point, and block_of[x] the index of the block holding x. With
    no permutations every point is its own block.
    """
    rows = [g.images for g in perms]
    blocks: list[tuple[int, ...]] = []
    block_of = [-1] * degree  # doubles as the visited mark
    for x in range(degree):
        if block_of[x] == -1:
            index = len(blocks)
            block_of[x] = index
            orb = [x]
            for p in orb:
                for row in rows:
                    q = row[p]
                    if block_of[q] == -1:
                        block_of[q] = index
                        orb.append(q)
            orb.sort()
            blocks.append(tuple(orb))
    return blocks, block_of


def disjoint_union(a, b) -> tuple[int, ...]:
    """Image tuples a and b acting side by side on the disjoint union of
    their point sets, b's points shifted past a's."""
    d = len(a)
    return tuple(a) + tuple(x + d for x in b)
