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
# The most bytes one stabiliser-chain level (orbit x degree image rows, two
# bytes a point up to 32768 points and four above, a quarter more rows at
# least each time it grows) counts in the chain's one table, checked before
# the table grows. The {4,4}_(3,1) extension on 80s points takes 50 MB at
# s = 64, the largest order of the tests and the benchmark, 200 MB at
# s = 128 and 840 MB at s = 256; 6.7 GB at s = 512 is refused, as 4 TB at
# MAX_FLAGS is.
MAX_LEVEL_BYTES = 1 << 30
# A chain's table of at least this many bytes is its own anonymous mapping,
# a smaller one a heap block: glibc's default M_MMAP_THRESHOLD, below which
# malloc serves a block from the heap anyway (a freed larger block would
# raise that threshold and leave a fragmented heap).
MAP_LEVEL_BYTES = 1 << 17


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
            try:
                cyc = list(map(operator.index, cyc))
            except TypeError as exc:
                raise ValueError("cycle points are not integers: %s" % exc) from None
            for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                if not 0 <= a < degree:  # a negative point would index from the end
                    raise ValueError("cycle point %r is outside 0..%d" % (a, degree - 1))
                images[a] = b
        return cls(images)

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, x: int) -> int:
        return self.images[x]

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
        return cycle_power(self.degree, self.cycles(), k)

    def _walk(self):
        """Each cycle of length 2 or more, from its least point, as a list:
        the one cycle walk of :meth:`cycles` and :meth:`order`."""
        images, seen = self.images, [False] * len(self.images)
        for start, x in enumerate(images):
            if not seen[start] and x != start:
                cyc = [start]
                while x != start:
                    seen[x] = True
                    cyc.append(x)
                    x = images[x]
                yield cyc

    def cycles(self):
        """Cycles of length 2 or more, each listed from its least point."""
        return [tuple(cyc) for cyc in self._walk()]

    def order(self) -> int:
        # the distinct lengths only: no cycle outlives the step that reads it
        return math.lcm(*{len(cyc) for cyc in self._walk()})

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


def cycle_power(degree: int, cycles, k: int) -> Perm:
    """s^k for the permutation s of the given degree whose cycles of
    length 2 or more are ``cycles``, as :meth:`Perm.cycles` lists them.

    Each cycle turns by k modulo its length, so every exponent, negative
    included, costs one pass over the points; a caller that takes several
    powers of one s decomposes it once.
    """
    images = list(range(degree))
    for cyc in cycles:
        r = k % len(cyc)
        if r:
            for a, b in zip(cyc, cyc[r:] + cyc[:r]):
                images[a] = b
    return _unchecked(tuple(images))


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

    Permutations are numpy image arrays of ``dtype``: int16 up to 32768
    points, int32 above. Level i keeps base[i] and its strong generators S_i
    (fixing base[:i]), listed in ``gens[i]`` as rows of ``strong``, which
    holds each once. The inverse coset representatives of all levels lie in
    one table, ``uinv``, which only gains rows: ``row_of[i][p]`` is the row
    mapping p to base[i] (row 0, the identity, for p = base[i]) or -1, and
    ``orbit[i]`` lists the orbit's points in row order. The table keeps at
    most 25 % spare rows; from ``MAP_LEVEL_BYTES`` on it is a private
    anonymous mapping, which grows by mremap without copying a row, below
    that a heap block. Input generators join S_0..S_j; a residue found at
    level i lies in <S_i>, so it joins S_{i+1}..S_j only.

    The Schreier generators u_p s u_q^{-1} are verified in rounds, in
    deepest-first order (level, generator's row of ``strong``, row);
    ``formed[i][k]`` counts the rows of S_i's k-th generator formed so far.
    A round forms the next pending ones into a pool of at most
    ``BATCH // degree`` rows and sifts them with the pool's waiting rows as
    one batch, from the shallowest of their levels: a Schreier generator of
    level i and a row that stopped at level i both fix base[:i], so the
    levels above i leave them as they are. A row that sifts out is verified
    for good, since levels only gain rows. The first row in that order that
    does not is inserted, once every pending row before it has sifted out:
    it is the residue that sifting one Schreier generator at a time inserts,
    so base, strong generators and orbits do not depend on the pool size.
    Every other failing row waits, partly sifted, at the level where it
    stopped, and is sifted on only once that level gains points. Level 0's
    rows, the last in the order and the ones every level sifts, are formed
    only once no row of a deeper level is pending, as the pool has room. The
    pool never fills: a round starting with u < size rows waiting forms at
    most size - u, all before the next unformed row N; either the first
    failing row precedes N (or no N is left) and is inserted, or every row
    formed sifted out, so at most max(u, size - 1) rows wait after it. A
    round the level-0 rule leaves nothing to form inserts or sifts out a
    waiting deeper row, which comes before every level-0 row. ``_verify``
    raises RuntimeError if the pool fills, or if a round forms, sifts and
    inserts nothing while rows wait, which would repeat forever.

    One routine with one loop, ``_sift``, sifts input generators, rounds
    and membership probes (one row, a few numpy calls per level it passes):
    it carries the indices of the rows still going, every row of its input
    unless the caller lists some. Every product is a ``take`` on (or an
    assignment to) the table's flat view at np.intp row offsets, over at
    most ``BATCH // 8`` elements (``step`` rows) at a time, so the offsets
    of a take stay within a quarter of the pool's bytes (``size`` rows):
    ``_form`` builds a round's Schreier generators over all its levels in
    one gather per ``step`` rows, and ``_insert`` writes a BFS layer's new
    rows in one assignment.

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
        self.dtype = np.dtype(np.int16 if degree <= 1 << 15 else np.int32)  # holds every point
        self.identity = np.arange(degree, dtype=self.dtype)
        # the pool's rows, and the rows of one gather: BATCH // 8 elements
        self.size = max(1, self.BATCH // max(1, degree))
        self.step = max(1, self.BATCH // 8 // max(1, degree))
        # per level; to_form[i] is False once level i is formed, charged[i] its budgeted rows
        self.base, self.gens, self.formed, self.to_form, self.pts, self.charged = \
            [], [], [], [], [], []
        self.strong, self.uinv, self.nrows, self._map = \
            np.empty((0, degree), self.dtype), self.identity[None].copy(), 1, None
        self.orbit, self.row_of = self.levels = np.empty((2, 0, degree), np.int32)
        self.sifts = self.rounds = self.split = 0
        # sorted(), not np.sort: the first np.sort call adds about 0.4 MB to peak RSS
        self.orbit0 = np.array(sorted(orbit_of(0, [_unchecked(tuple(g)) for g in gens]))
                               if degree else [], dtype=np.intp)
        for g in gens:
            h = np.array([g], dtype=self.dtype)
            j = int(self._sift(h, 0)[0])
            if j >= 0:
                self._insert(h[0], 0, j)
        self._verify()

    def _insert(self, h, lo: int, j: int):
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
            self.orbit, self.row_of = self.levels = np.concatenate((self.levels[:, :j], np.full(
                (2, 1, self.degree), -1, np.int32), self.levels[:, j:]), axis=1)
            self.orbit[j, 0], self.row_of[j, b] = b, 0
            for store, item in zip((self.base, self.gens, self.formed, self.to_form, self.pts,
                                    self.charged),
                                   (b, list(kernel), [0] * len(kernel), True, [b], 1)):
                store.insert(j, item)
        self.strong = np.concatenate((self.strong, h[None]))
        held = self.row_of[lo:j + 1] >= 0
        leave = held > held.take(h, axis=1)  # the points that h maps out of their orbit
        grows = leave.any(axis=1)
        for lev in range(lo, j + 1):
            pts, row_of = self.pts[lev], self.row_of[lev]
            self.gens[lev].append(len(self.strong) - 1)
            self.formed[lev].append(0)
            self.to_form[lev] = True
            if not grows[lev - lo]:
                continue
            # breadth first, old rows (in row order) under h and new ones under
            # every generator, along edges (point, its table row, generator)
            gens, out = list(self.strong[self.gens[lev]]), self.orbit[lev, :len(pts)]
            out = out[leave[lev - lo, out]]  # no argsort: the first sort adds 0.4 MB to peak RSS
            edges = list(zip(out.tolist(), row_of[out].tolist(), [h] * len(out)))
            new, ends, old = [], [], len(pts)
            while edges:
                top = len(pts)
                for p, t, s in edges:
                    q = int(s[p])
                    if row_of[q] < 0:
                        row_of[q] = self.nrows + len(new)
                        new.append((t, s))  # the edge reaching q
                        pts.append(q)
                edges = [(q, self.nrows + k, s) for k, q in enumerate(pts[top:], top - old)
                         for s in gens]
                ends.append(len(new))
            if len(pts) > self.charged[lev]:  # a quarter more rows at least, as its own array
                self.charged[lev] = max(len(pts), self.charged[lev] + self.charged[lev] // 4)
                size = self.charged[lev] * self.degree * self.dtype.itemsize
                if size > MAX_LEVEL_BYTES:
                    raise PreconditionError("a stabiliser chain level would map %d bytes, more "
                                            "than the %d allowed" % (size, MAX_LEVEL_BYTES))
            table = self.uinv
            if self.nrows + len(new) > len(table):  # a quarter more rows at least
                shape = (max(self.nrows + len(new), len(table) + len(table) // 4), self.degree)
                size = shape[0] * shape[1] * self.dtype.itemsize
                if size < MAP_LEVEL_BYTES:
                    self.uinv = np.empty(shape, self.dtype)
                    self.uinv[:len(table)] = table
                else:
                    if self._map is None:
                        self._map = mmap.mmap(-1, size, flags=mmap.MAP_PRIVATE)
                        self._map.write(table.tobytes())
                    else:  # mremap copies no page; a view left alive would raise BufferError
                        self.uinv = table = None
                        self._map.resize(size)
                    self.uinv = np.frombuffer(self._map, self.dtype).reshape(shape)
            self.orbit[lev, old:len(pts)] = pts[old:]
            for a, b in itertools.pairwise([0] + ends[:-1]):  # a BFS layer; the last found none
                for c in range(a, b, self.step):  # u_k = u_t * s: u_k^{-1}[s[y]] = u_t^{-1}[y]
                    t, s = zip(*new[c:min(b, c + self.step)])
                    k = self.nrows + c
                    if len(t) == 1:  # most layers: a row assignment costs a third as much
                        self.uinv[k, s[0]] = self.uinv[t[0]]
                    else:
                        k = np.arange(k, k + len(t))[:, None] * self.degree + np.array(s)
                        self.uinv.reshape(-1)[k] = self.uinv.take(t, axis=0)
            self.nrows += len(new)
        return lo + grows.nonzero()[0], opened

    def _verify(self) -> None:
        """Verify every Schreier generator, one round at a time."""
        np, size = self._np, self.size
        # the pool's slots: waiting rows' partly sifted images, positions
        # (level, generator, row) and stop levels, which slots are in use and
        # which to sift on
        buf = np.empty((size, self.degree), self.dtype)  # its pages are touched as used
        pos, at = np.zeros((3, size), np.intp), np.zeros(size, np.intp)
        used, todo = np.zeros(size, bool), np.zeros(size, bool)
        while True:
            room = size - int(used.sum())
            if not room:  # never: see "The pool never fills" above
                raise RuntimeError("a round started with all %d pool slots waiting" % size)
            make, nxt = self._take(room, bool((pos[0, used] > 0).any()))
            if room == size and not make.shape[1]:
                return
            # form them into free slots; trivial ones are verified
            if make.shape[1]:
                free = (~used).nonzero()[0]
                nontrivial = self._form(make, buf, free)
                free = free[:int(nontrivial.sum())]
                pos[:, free] = make[:, nontrivial]
                at[free] = pos[0, free] + 1
                used[free] = todo[free] = True
            rows = todo.nonzero()[0]
            if len(rows):  # a row fixes base[:at], so the levels above its own pass it as it is
                stop = self._sift(buf, int(at[rows].min()), rows)[rows]
                at[rows] = stop
                self.sifts += int((stop < 0).sum())
                used[rows[stop < 0]] = todo[rows] = False
                self.rounds += 1
            slots = used.nonzero()[0]
            if not len(slots):
                continue
            # the first failure in deepest-first order is inserted, unless the
            # next row without an image comes before it; the others wait
            first = slots[np.lexsort((pos[2, slots], pos[1, slots], -pos[0, slots]))[0]]
            if nxt is not None and \
                    (-nxt[0], nxt[1], nxt[2]) < (-pos[0, first], pos[1, first], pos[2, first]):
                if not make.shape[1] and not len(rows):  # never: see "The pool never fills"
                    raise RuntimeError("a round formed, sifted and inserted no row while %d "
                                       "waited" % len(slots))
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

    def _take(self, room: int, deep: bool):
        """Mark the next at most ``room`` Schreier generators not formed yet,
        in deepest-first order, as formed. Level 0's, the last in the order
        and those every level sifts, are taken only once no row of a deeper
        level is pending (``deep``: one waits in the pool). Returns their
        positions (level, generator, row) as columns, and the next unformed
        position or None."""
        np = self._np
        ranges, nxt = [], None
        for lev in range(len(self.base) - 1, -1, -1):
            if not self.to_form[lev]:
                continue
            total, hold = len(self.pts[lev]), lev == 0 and (deep or bool(ranges))
            for k, a in enumerate(self.formed[lev]):
                if a < total:
                    b = a if hold else min(total, a + room)
                    if b > a:
                        ranges.append((lev, self.gens[lev][k], a, b))
                        self.formed[lev][k], room = b, room - (b - a)
                    if b < total:  # held, or cut short by the pool: the next is inside
                        nxt = (lev, self.gens[lev][k], b)
                        break
            if nxt is not None:
                break
            self.to_form[lev] = False
        lens = [b - a for _, _, a, b in ranges]
        make = np.array([(lev, k, a - n) for (lev, k, a, _), n in
                         zip(ranges, itertools.accumulate([0] + lens))],
                        np.intp).reshape(-1, 3).repeat(lens, axis=0).T
        make[2] += np.arange(make.shape[1])
        return make, nxt

    def _form(self, where, out, slots):
        """Write the nontrivial Schreier generators u_p s u_q^{-1} at the
        positions (level, s's row of strong, row of p) in where to the rows
        slots[0], ... of out, ``step`` positions of any levels at a time.
        Returns the mask of the positions that gave them."""
        np = self._np
        lev, gen, p = where[0], where[1], self.orbit[where[0], where[2]]
        # the table rows of u_q^{-1}, q = s(p), and of u_p^{-1}
        q, up = self.row_of[lev, self.strong[gen, p]], self.row_of[lev, p]
        nontrivial, done, to = np.empty(len(lev), bool), 0, self._offsets(slots)
        for a in range(0, len(lev), self.step):
            b = slice(a, a + self.step)
            w = self._gather(q[b], self.strong.take(gen[b], axis=0))
            u = self.uinv.take(up[b], axis=0)
            nontrivial[b] = keep = (w != u).any(axis=1)  # w = s * u_q^{-1}
            if not keep.all():
                w, u = w[keep], u[keep]
            # u_p * s * u_q^{-1} maps u_p^{-1}[y] to w[y]
            out.reshape(-1)[to[done:done + len(w), None] + u] = w
            done += len(w)
        return nontrivial

    def _sift(self, g, start: int, rows=None):
        """Sift the rows of g listed in ``rows``, or every row, in place from
        level ``start``. Returns, per row of g, the level where it left an
        orbit or ended as a non-identity residue (len(base)), or -1 where it
        sifted out or is not listed. A row still moving a point of orbit0
        past the image levels stops at split. A row that fixes base[:i], as
        a Schreier generator of level i and a row that stopped at level i
        do, passes the levels start..i-1 unchanged, so rows fixing different
        prefixes sift together from the shallowest of their levels."""
        np = self._np
        top, step = len(self.base), self.step
        stop = np.full(len(g), -1, np.intp)
        act = np.arange(len(g)) if rows is None else rows  # the rows still going
        for lev in range(start, top + 1):
            if lev == top or lev == self.split:
                # past the image levels a row moves no point of orbit0, past all none
                pts = self.orbit0 if lev < top else slice(None)
                out = np.empty(len(act), bool)
                for c in range(0, len(act), step):
                    part = g.take(act[c:c + step], axis=0)[:, pts]
                    out[c:c + step] = (part != self.identity[pts]).any(axis=1)
                stop[act[out]] = lev
                act = act[~out]
            if lev == top or not len(act):
                break
            at = self.row_of[lev][g[:, self.base[lev]].take(act)]
            if at.min() < 0:
                keep = at >= 0
                stop[act[~keep]] = lev
                act, at = act[keep], at[keep]
            mv = at.nonzero()[0]  # a row fixing the base point stays as it is
            for c in range(0, len(mv), step):
                part = mv[c:c + step]
                sub = act[part]
                g[sub] = self._gather(at[part], g.take(sub, axis=0))
        return stop

    def _offsets(self, rows):
        # in int32, rows * degree would wrap once a row passes 2**31 // degree
        return rows.astype(self._np.intp) * self.degree

    def _gather(self, rows, cols):
        """uinv[rows[k], cols[k, x]], one take on the flat view of the table."""
        return self.uinv.reshape(-1).take(self._offsets(rows)[:, None] + cols)

    def order(self) -> int:
        return math.prod(len(p) for p in self.pts)

    def orbit_order(self) -> int:
        """The order of the group's action on orbit0, from the image levels."""
        return math.prod(len(p) for p in self.pts[:self.split])

    def contains(self, g) -> bool:
        return self._sift(self._np.array([g], self.dtype), 0)[0] < 0

    def stats(self) -> dict:
        """Base length, strong generators, nontrivial Schreier generators
        sifted (each once), sift rounds, orbit lengths."""
        return {"base_length": len(self.base), "strong_generators": len(self.strong),
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
