"""Permutations and finite permutation groups.

Conventions used everywhere in this package:

* permutations act on the points 0..d-1 and are stored as image tuples;
* products read left to right, so ``(p * q)(x) == q(p(x))``;
* formulas that multiply generators as left-acting functions (where
  ``g1 g2`` means "apply g2 first") go through :func:`left_product`.
"""

from __future__ import annotations

import itertools
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
                if not 0 <= a < degree:  # a negative point would index from the end
                    raise ValueError("cycle point %r is outside 0..%d" % (a, degree - 1))
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
    """Certified, deterministic Schreier-Sims stabiliser chain, verified in rounds.

    Permutations are numpy int32 image arrays. Level i keeps base[i], its
    strong generators S_i (fixing base[:i]) and one array of inverse coset
    representatives that only gains rows (row r of ``uinv[i]`` maps
    ``pts[i][r]`` to base[i]; ``row_of[i][p]`` is p's row or -1), with at
    most 25 % spare rows, in an anonymous mapping (a freed large malloc
    block raises glibc's mmap threshold and leaves a fragmented heap).
    Input generators join S_0..S_j; a residue found at level i lies in
    <S_i>, so it joins S_{i+1}..S_j only.

    The Schreier generators u_p s u_q^{-1} are verified in rounds, in
    deepest-first order (level, generator, row); ``formed[i][k]`` counts
    the rows of S_i's k-th generator formed so far. A round forms the next
    pending ones into a pool of at most ``BATCH // degree`` rows and sifts
    them with the pool's waiting rows as one batch, each from its own level.
    A row that sifts out is verified for good, since levels only gain rows.
    The first row in that order that does not is inserted, once every
    pending row before it has sifted out: it is the residue that sifting one
    Schreier generator at a time inserts, so base, strong generators and
    orbits do not depend on the pool size. Every other failing row waits,
    partly sifted, at the level where it stopped, and is sifted on only once
    that level gains points. Level 0's rows, the last in the order and the
    ones every level sifts, are formed only once no row of a deeper level is
    pending, as the pool has room. The pool never fills: a round starting
    with u < size rows waiting forms at most size - u, all before the next
    unformed row N; either the first failing row precedes N (or no N is
    left) and is inserted, or every row formed sifted out, so at most
    max(u, size - 1) rows wait after it. A round the level-0 rule leaves
    nothing to form inserts or sifts out a waiting deeper row, which comes
    before every level-0 row. ``_verify`` raises RuntimeError if it fills.

    One routine, ``_sift``, sifts input generators, rounds and membership
    probes. Every product and sift step is a ``take`` on (or an assignment
    to) the flat view of a level's rows, at np.intp row offsets, over at most
    ``BATCH // 8`` elements at a time, so the offsets of a take stay within
    a quarter of the pool's bytes.

    An intransitive group keeps the levels whose base point lies in orbit0,
    the orbit of point 0, ahead of the rest: the first ``split`` levels are
    a chain of the action on orbit0 and the others one of its kernel. A row
    that passes the image levels but still moves a point of orbit0 is a
    residue at level ``split``, which becomes a new image level; it also
    takes the first kernel level's generators, which fix orbit0 pointwise,
    so every level stays inside the one above it. Opening a level moves the
    waiting rows' levels from it on down one. A transitive group has no
    kernel level (Seress, *Permutation Group Algorithms*, 2003, ch. 4-5).
    """

    BATCH = 1 << 17

    def __init__(self, gens, degree: int):
        import numpy as np
        self._np = np
        self.degree = degree
        self.identity = np.arange(degree, dtype=np.int32)
        # one entry per level; to_form[i] is False once every row of level i is formed
        self.base, self.gens, self.formed, self.to_form = [], [], [], []
        self.pts, self.uinv, self.row_of = [], [], []
        self.sifts = self.rounds = self.split = 0
        # sorted(), not np.sort: the first np.sort call adds about 0.4 MB to peak RSS
        self.orbit0 = np.array(sorted(orbit_of(0, [_unchecked(tuple(g)) for g in gens]))
                               if degree else [], dtype=np.intp)
        for g in gens:
            h = np.array([g], dtype=np.int32)
            j = int(self._sift(h, 0)[0])
            if j >= 0:
                self._insert(h[0], 0, j)
        self._verify()

    def _insert(self, h, lo: int, j: int) -> tuple[list[int], bool]:
        """h fixes base[:j] and joins S_lo..S_j, whose orbits are closed
        again. Returns the levels that gained points and whether level j is
        new, which moves the levels from j on down one."""
        np = self._np
        image = j == self.split and (h[self.orbit0] != self.orbit0).any()
        opened = image or j == len(self.base)
        if opened:
            # an image level goes at split, ahead of the kernel levels, and
            # takes the first one's generators; its base point lies in orbit0
            pts = self.orbit0 if image else self.identity
            b = int(pts[np.flatnonzero(h[pts] != pts)[0]])
            self.split += bool(image)
            kernel = self.gens[j] if j < len(self.base) else []
            row_of = (self.identity == b).astype(np.int32) - 1  # b is row 0, the rest -1
            for store, item in zip((self.base, self.gens, self.formed, self.to_form, self.pts,
                                    self.uinv, self.row_of),
                                   (b, list(kernel), [0] * len(kernel), True, [b],
                                    self.identity[None], row_of)):
                store.insert(j, item)
        grown = [j] if opened else []
        for lev in range(lo, j + 1):
            gens, pts, row_of = self.gens[lev], self.pts[lev], self.row_of[lev]
            gens.append(h)
            self.formed[lev].append(0)
            self.to_form[lev] = True
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
            if new:
                grown.append(lev)
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
        return grown, opened

    def _verify(self) -> None:
        """Verify every Schreier generator, one round at a time."""
        np = self._np
        size = max(1, self.BATCH // max(1, self.degree))
        # the pool's slots, grown as needed: waiting rows' partly sifted
        # images, positions (level, generator, row) and stop levels, which
        # slots are in use and which to sift on
        buf = np.empty((size, self.degree), np.int32)  # its pages are touched as used
        pos, at = np.empty((3, 0), np.intp), np.empty(0, np.intp)
        used = todo = np.empty(0, bool)
        while True:
            slots = used.nonzero()[0]
            room = size - len(slots)
            if not room:  # never: see "The pool never fills" above
                raise RuntimeError("a round started with all %d pool slots waiting" % size)
            # in deepest-first order, the rows to form and the next unformed one
            ranges = self._unformed(room + 1)
            lens = [b - a for _, _, a, b in ranges]
            cand = np.array([(lev, k, a - n) for (lev, k, a, _), n in
                             zip(ranges, itertools.accumulate([0] + lens))],
                            np.intp).reshape(-1, 3).repeat(lens, axis=0).T
            cand[2] += np.arange(cand.shape[1])
            if not len(slots) and not cand.shape[1]:
                return
            if (cand[0] > 0).any() or (pos[0, slots] > 0).any():
                # level 0's rows, the last in the order and those every level sifts,
                # are formed only once no row of a deeper level is pending
                room = min(room, int((cand[0] > 0).sum()))
            make = cand[:, :room]
            taken = make.shape[1]
            for lev, k, a, b in ranges:
                self.formed[lev][k] = a + min(taken, b - a)
                taken -= min(taken, b - a)
            if len(slots) + make.shape[1] > len(used):
                grow = min(size, max(len(slots) + make.shape[1], 2 * len(used))) - len(used)
                pos = np.concatenate((pos, np.zeros((3, grow), np.intp)), axis=1)
                at, used, todo = (np.concatenate((x, np.zeros(grow, x.dtype)))
                                  for x in (at, used, todo))
            # form them into free slots; trivial ones are verified
            if make.shape[1]:
                free = (~used).nonzero()[0]
                nontrivial = self._form(make, buf, free)
                free = free[:int(nontrivial.sum())]
                pos[:, free] = make[:, nontrivial]
                at[free] = pos[0, free] + 1
                used[free] = todo[free] = True
            if todo.any():
                stop = self._sift(buf[:len(todo)], np.where(todo, at, len(self.base) + 1))
                at[todo] = stop[todo]
                self.sifts += int((todo & (stop < 0)).sum())
                used &= ~todo | (stop >= 0)
                todo[:] = False
                self.rounds += 1
            slots = used.nonzero()[0]
            if not len(slots):
                continue
            # the first failure in deepest-first order is inserted, unless the
            # next row without an image comes before it; the others wait
            first = slots[np.lexsort((pos[2, slots], pos[1, slots], -pos[0, slots]))[0]]
            if cand.shape[1] > make.shape[1]:
                nxt = cand[:, make.shape[1]]
                if (-nxt[0], nxt[1], nxt[2]) < (-pos[0, first], pos[1, first], pos[2, first]):
                    continue
            used[first] = False
            self.sifts += 1
            j = int(at[first])
            grown, opened = self._insert(buf[first].copy(), int(pos[0, first]) + 1, j)
            if opened:  # the waiting rows come after first, so their own levels lie above j
                at += at > j
            mark = np.zeros(len(self.base) + 1, bool)
            mark[grown] = True
            todo[:] = used & mark[at]

    def _unformed(self, size: int) -> list[tuple[int, int, int, int]]:
        """The first ``size`` Schreier generators not formed yet, in
        deepest-first order, as (level, generator, first row, end row)."""
        ranges, n = [], 0
        for lev in range(len(self.base) - 1, -1, -1):
            if not self.to_form[lev]:
                continue
            total = len(self.pts[lev])
            for k, a in enumerate(self.formed[lev]):
                if a < total:
                    b = min(total, a + size - n)
                    ranges.append((lev, k, a, b))
                    n += b - a
                    if n == size:
                        return ranges
            if not ranges or ranges[-1][0] != lev:
                self.to_form[lev] = False
        return ranges

    def _form(self, where, out, slots):
        """Write the nontrivial Schreier generators u_p s u_q^{-1} at the
        positions (level, generator, row) in where, grouped by level (s is
        the level's generator, p the row's point), to the rows slots[0], ...
        of out. Returns the mask of the positions that gave them."""
        np = self._np
        n, step = where.shape[1], max(1, self.BATCH // 8 // max(1, self.degree))
        levs = where[0].tolist()
        cuts = [0] + [k for k in range(1, n) if levs[k] != levs[k - 1] or k % step == 0] + [n]
        nontrivial, done = np.empty(n, bool), 0
        for a, b in itertools.pairwise(cuts):
            lev, gen, row = levs[a], where[1, a:b], where[2, a:b]
            inv, pts = self.uinv[lev], self.pts[lev]
            s = np.array([self.gens[lev][k] for k in gen.tolist()])
            q = self.row_of[lev][s[np.arange(b - a), [pts[r] for r in row.tolist()]]]
            w, up = self._gather(inv, q, s), inv[row]  # s * u_q^{-1}, u_p^{-1}
            nontrivial[a:b] = keep = (w != up).any(axis=1)
            if not keep.all():
                w, up = w[keep], up[keep]
            # u_p * s * u_q^{-1} maps u_p^{-1}[y] to w[y]
            out.reshape(-1)[self._offsets(slots[done:done + len(w)])[:, None] + up] = w
            done += len(w)
        return nontrivial

    def _sift(self, g, start):
        """Sift the rows of g in place, each from its own level (``start``
        holds one level, or one per row). Returns, per row, the level where
        it left an orbit or ended as a non-identity residue (len(base)), or
        -1 where it sifted out. A row still moving a point of orbit0 past
        the image levels stops at split."""
        np = self._np
        top = len(self.base)
        stop = np.full(len(g), -1, np.intp)
        step = max(1, self.BATCH // 8 // max(1, self.degree))  # rows per gather
        if not len(g):
            return stop
        if isinstance(start, int):
            first, joins, joined = start, [len(g)] * (top + 1 - start), len(g)
            # act None: every row of a small g, in order, is still going
            act = None if len(g) <= step else np.arange(len(g))
        else:
            order = np.argsort(start, kind="stable")
            first = int(start[order[0]])
            joins = np.searchsorted(start[order], np.arange(first + 1, top + 2)).tolist()
            act, joined = order[:0], 0  # the rows still going, and order[:joined] started
        for lev, hi in enumerate(joins, first):
            if hi > joined:
                act, joined = np.concatenate((act, order[joined:hi])), hi
            if act is not None and not len(act):
                if joined == joins[-1]:
                    break
                continue
            if lev == top or lev == self.split:
                # past the image levels a row moves no point of orbit0, past all none
                pts = self.orbit0 if lev < top else slice(None)
                out = (g[:, pts] != self.identity[pts]).any(axis=1) if act is None else \
                    np.concatenate([(g[act[c:c + step]][:, pts] != self.identity[pts])
                                    .any(axis=1) for c in range(0, len(act), step)])
                if out.any():
                    live = np.arange(len(g)) if act is None else act
                    stop[live[out]] = lev
                    act = live[~out]
                if lev == top or act is not None and not len(act):
                    continue
            at = self.row_of[lev][g[:, self.base[lev]] if act is None else g[act, self.base[lev]]]
            if at.min() < 0:
                live = np.arange(len(g)) if act is None else act
                stop[live[at < 0]] = lev
                keep = (at >= 0).nonzero()[0]
                if not len(keep) and joined == joins[-1]:
                    return stop
                act, at = live[keep], at[keep]
            mv = at.nonzero()[0]  # a row fixing the base point stays as it is
            if act is None and len(mv) == len(g):
                g[:] = self._gather(self.uinv[lev], at, g)  # g * u^{-1}
                continue
            for c in range(0, len(mv), step):
                part = mv[c:c + step]
                rows = part if act is None else act[part]
                g[rows] = self._gather(self.uinv[lev], at[part], g[rows])
        return stop

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
        return self._sift(self._np.array([g], self._np.int32), 0)[0] < 0

    def stats(self) -> dict:
        """Base length, strong generators, nontrivial Schreier generators
        sifted (each once), sift rounds, orbit lengths."""
        strong = {id(h) for gens in self.gens for h in gens}
        return {"base_length": len(self.base), "strong_generators": len(strong),
                "schreier_sifts": self.sifts, "sift_rounds": self.rounds,
                "orbit_sizes": [len(p) for p in self.pts]}


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


def repeated(p: Perm, copies: int) -> Perm:
    """p acting on each of ``copies`` consecutive blocks of p.degree
    points: copy ell maps ell * degree + x to ell * degree + p(x). A
    bijection by construction, so it skips Perm's check."""
    d = p.degree
    return _unchecked(tuple(ell * d + x for ell in range(copies) for x in p.images))
