"""Permutations as image tuples, groups via deterministic Schreier-Sims chains.

A permutation on n points is a tuple p with p[i] the image of i; group
generators, strong generators and group elements are such tuples.
Groups carry a base-and-orbit stabilizer chain built with a
deterministic base (forced prefix first, then smallest moved point) and
breadth-first transversals, so orders and stabilizers are exact and
reproducible.

Inside the chain a level's strong generators and transversal are numpy
rows (int16 below 2^15 points, else int32).  A row t applied first and a
row g second give the row ``g[t]``.  Schreier generators are built and
sifted in chunks of orbit points, and the first one in (orbit point,
generator) order whose residue is not the identity is installed, as a
one-at-a-time loop would do.

Orbits of points and of ordered pairs come from one primitive,
``_orbit_minima``, which labels each with the least element of its orbit.
"""

from math import gcd, prod

import numpy as np

from .errors import UsageError

CHUNK = 64   # orbit points whose Schreier generators are sifted together


def identity(n):
    return tuple(range(n))


def check_permutation(p, n):
    if len(p) != n or sorted(p) != list(range(n)):
        raise UsageError("not a permutation of 0..n-1")


def perm_order(p):
    seen = [False] * len(p)
    order = 1
    for i in range(len(p)):
        if seen[i]:
            continue
        length, j = 0, i
        while not seen[j]:
            seen[j] = True
            j = p[j]
            length += 1
        order = order * length // gcd(order, length)
    return order


def _gather(table, which, rows):
    """Row r of the result is ``table[which[r]][rows[r]]``, as one flat
    gather (``which`` broadcasts against the leading axes of ``rows``)."""
    offsets = np.multiply(which, table.shape[1], dtype=np.intp)
    return table.ravel().take(rows + offsets[..., None])


def _transversal(point, gens, ident):
    """Breadth-first transversal of the orbit of ``point`` under the rows
    ``gens``, as ``(lookup, T, Tinv)``: ``T[lookup[gamma]]`` maps point to
    gamma (``lookup`` is -1 off the orbit) and ``Tinv`` holds the inverse
    rows.  Each layer keeps the first image of each new point in
    (gamma ascending, generator) order, and its representative is the
    generator applied after gamma's."""
    m = len(gens)
    lookup = np.full(ident.size, -1, dtype=ident.dtype)
    lookup[point] = 0
    blocks = [ident[None, :]]
    frontier = np.array([point])
    size = 1
    while m:
        cand = gens.T[frontier].ravel()
        fresh = (lookup[cand] < 0).nonzero()[0]
        if not fresh.size:
            break
        new, first = np.unique(cand[fresh], return_index=True)
        pos = fresh[first]
        lookup[new] = np.arange(size, size + new.size)
        size += new.size
        src, g = np.divmod(pos, m)
        blocks.append(_gather(gens, g, blocks[-1][src]))
        frontier = new
    T = np.concatenate(blocks)
    Tinv = np.empty_like(T)
    Tinv[np.arange(len(T))[:, None], T] = ident
    return lookup, T, Tinv


def _orbit_minima(n, generators, ndim):
    """Least element of each point's orbit (``ndim=1``), or of each ordered
    pair's orbit (``ndim=2``, cells in row-major order), under the group
    generated by ``generators``; int32 (int64 past 2^31 elements).

    Min-label propagation with hooking and shortcutting (Shiloach and
    Vishkin, J. Algorithms 3, 1982): a round lowers the root each element
    points to, and the element, to the least label of its images under
    the generators and their inverses, then pointer-jumps until every
    element points to a root.  Labels never exceed their element and stay
    in its orbit, so when no image lowers a label each is its orbit's
    least element.  Without the root hook a relabelled cycle of 10^5
    points takes tens of thousands of rounds; with it, about a dozen.
    """
    size, shape = n ** ndim, (n,) * ndim
    least = np.arange(size, dtype=np.int32 if size < 2 ** 31 else np.int64)
    gens = np.array(generators, dtype=np.intp).reshape(len(generators), n)
    inverses = np.empty_like(gens)
    inverses[np.arange(len(gens))[:, None], gens] = np.arange(n)
    # Every round reuses these buffers.  take writes into out directly
    # only in a mode other than "raise"; all indices are in range, so
    # "clip" changes nothing else.
    low, spare, image = (np.empty_like(least) for _ in range(3))
    while True:
        np.copyto(low, least)
        for g in (*gens, *inverses):
            labels = least.reshape(shape)
            for axis, out in enumerate((spare, image)[-ndim:]):
                labels = np.take(labels, g, axis=axis, out=out.reshape(shape), mode="clip")
            np.minimum(low, image, out=low)
        if np.array_equal(low, least):
            return least
        np.copyto(spare, least)   # the root each element points to
        np.minimum.at(least, spare, low)
        np.minimum(least, low, out=least)
        while True:
            np.take(least, least, out=spare, mode="clip")
            if np.array_equal(spare, least):
                break
            least, spare = spare, least


class PermGroup:
    """Group generated by permutations, with a stabilizer chain.

    ``base_prefix`` forces the first base points (used for point and pair
    stabilizers); further base points are the smallest points moved by a
    remaining strong generator.
    """

    def __init__(self, degree, generators=(), base_prefix=()):
        self.degree = degree
        one = identity(degree)
        gens = []
        for g in generators:
            g = tuple(g)
            check_permutation(g, degree)
            if g != one and g not in gens:
                gens.append(g)
        self.generators = gens
        self._base = []
        self._level_gens = []   # level i: rows of strong generators fixing base[:i]
        self._transversals = []
        self._chain_ready = False
        for b in base_prefix:
            if not 0 <= b < degree:
                raise UsageError("base point out of range")
            self._base.append(b)

    # chain construction (lazy: orbit and orbital queries never need it)

    def _ensure_chain(self):
        if not self._chain_ready:
            self._build_chain()
            self._chain_ready = True

    def _build_chain(self):
        n = self.degree
        self._ident = np.arange(n, dtype=np.int16 if n < 2 ** 15 else np.int32)
        base, levels = self._base, self._level_gens
        levels[:] = [np.array(self.generators, dtype=self._ident.dtype)
                     .reshape(len(self.generators), n)]
        for b in base:
            levels.append(levels[-1][levels[-1][:, b] == b])
        while len(levels[-1]):
            moved = int(np.argmax((levels[-1] != self._ident).any(axis=0)))
            base.append(moved)
            levels.append(levels[-1][levels[-1][:, moved] == moved])
        # levels has len(base)+1 entries; the last one is empty
        levels.pop()
        self._transversals = [None] * len(base)
        for i in range(len(base)):
            self._rebuild(i)
        self._complete()

    def _rebuild(self, i):
        self._transversals[i] = _transversal(
            self._base[i], self._level_gens[i], self._ident)

    def _sift(self, rows, start=0):
        """Sift each row through levels >= start.  Returns (level, residue)
        for the first row whose residue is not the identity, or None.  A
        row leaves at the level whose base image has no representative;
        rows after the first to leave are dropped."""
        found = None
        for k in range(start, len(self._base)):
            lookup, _, tinv = self._transversals[k]
            reps = lookup[rows[:, self._base[k]]]
            out = (reps < 0).nonzero()[0]
            if out.size:
                r = int(out[0])
                found = (k, rows[r])
                rows, reps = rows[:r], reps[:r]
            rows = _gather(tinv, reps, rows)
        moved = (rows != self._ident).any(axis=1).nonzero()[0]
        if moved.size:
            return len(self._base), rows[moved[0]]
        return found

    def _complete(self):
        """Deterministic Schreier-Sims: verify levels bottom-up."""
        i = len(self._base) - 1
        while i >= 0:
            restart = self._close_level(i)
            i = i - 1 if restart is None else restart

    def _close_level(self, i):
        """Sift all Schreier generators of level i.

        Returns None when the level is complete, else the level to
        re-verify after new strong generators were installed.  The
        Schreier generator of orbit point gamma and generator g is
        ``Tinv[g[gamma]][g[T[gamma]]]``.
        """
        lookup, T, tinv = self._transversals[i]
        gens = self._level_gens[i]
        orbit = (lookup >= 0).nonzero()[0]
        for start in range(0, orbit.size, CHUNK):
            gamma = orbit[start:start + CHUNK]
            images = _gather(gens, np.arange(len(gens)),
                             T[lookup[gamma]][:, None, :])
            rows = _gather(tinv, lookup[gens.T[gamma].ravel()],
                           images.reshape(-1, self.degree))
            found = self._sift(rows, i + 1)
            if found is None:
                continue
            j, h = found
            if j == len(self._base):
                self._base.append(int(np.argmax(h != self._ident)))
                self._level_gens.append(gens[:0])
                self._transversals.append(None)
            for k in range(i + 1, j + 1):
                self._level_gens[k] = np.vstack([self._level_gens[k], h])
                self._rebuild(k)
            return j
        return None

    # queries

    def order(self):
        self._ensure_chain()
        return prod(len(T) for _, T, _ in self._transversals)

    def contains(self, g):
        g = tuple(g)
        check_permutation(g, self.degree)
        self._ensure_chain()
        return self._sift(np.array([g], dtype=self._ident.dtype)) is None

    def strong_generators(self, level=0):
        self._ensure_chain()
        if level >= len(self._level_gens):
            return []
        # an installed residue is never already a generator of its levels
        return list(map(tuple, self._level_gens[level].tolist()))

    def stabilizer_prefix(self, points):
        """Pointwise stabilizer of the listed points, as a new group."""
        points = tuple(points)
        for a in points:
            if not 0 <= a < self.degree:
                raise UsageError("point out of range")
        chain = PermGroup(self.degree, self.generators, base_prefix=points)
        k = len(points)
        stab = PermGroup(self.degree, chain.strong_generators(k))
        # the prefix chain's levels from k down are a complete chain of stab
        stab._ident = chain._ident
        stab._base = chain._base[k:]
        stab._level_gens = chain._level_gens[k:]
        stab._transversals = chain._transversals[k:]
        stab._chain_ready = True
        return stab

    def point_stabilizer(self, alpha):
        return self.stabilizer_prefix((alpha,))

    def orbit_minima(self):
        """Least point of each point's orbit, as an int32 array."""
        return _orbit_minima(self.degree, self.generators, 1)

    def orbit_layers(self):
        """The least point of each orbit, ascending, and a breadth-first
        spanning forest of the orbits grown from those points, as layers
        ``(points, parents, k)``: generator k maps each parent to its
        point, and every parent lies in an earlier layer or among the
        least points.  A Schreier vector kept by layers, O(n) entries in
        all (Seress, "Permutation Group Algorithms", Cambridge 2003,
        ch. 4)."""
        n = self.degree
        reached = self.orbit_minima() == np.arange(n)
        reps = np.flatnonzero(reached)
        gens = np.array(self.generators, dtype=np.intp).reshape(-1, n)
        layers, frontier = [], reps
        while frontier.size:
            grown = []
            for k, g in enumerate(gens):
                image = g[frontier]
                fresh = ~reached[image]
                if fresh.any():
                    reached[image[fresh]] = True
                    layers.append((image[fresh], frontier[fresh], k))
                    grown.append(image[fresh])
            frontier = np.concatenate(grown) if grown else reps[:0]
        return reps, layers

    def orbital_count(self):
        """Number of orbits on ordered pairs, the rank of `orbitals()`,
        counted without an n^2 array.  A group of at most n elements
        counts by Burnside's lemma, as the mean of fix(g)^2 over its
        elements; a larger one sums, over the least point r of each orbit,
        the number of orbits of G_r on points, G_r read off a chain with
        base prefix (r,)."""
        n = self.degree
        order = self.order()
        if order <= n:
            fixed = sum(int(np.square(np.count_nonzero(block == self._ident, axis=1)).sum())
                        for block in self._element_blocks())
            return fixed // order
        least = self.orbit_minima()
        return sum(int(np.count_nonzero(self.point_stabilizer(r).orbit_minima() == np.arange(n)))
                   for r in np.flatnonzero(least == np.arange(n)).tolist())

    def orbit(self, point):
        """Sorted orbit of one point."""
        if not 0 <= point < self.degree:
            raise UsageError("point out of range")
        least = self.orbit_minima()
        return np.flatnonzero(least == least[point]).tolist()

    def elements(self):
        """Iterate all elements as tuples; intended for small groups only.

        An element is a product of one representative per level, the
        deeper levels applied first; the top level varies fastest.
        """
        return (g for block in self._element_blocks() for g in map(tuple, block.tolist()))

    def _element_blocks(self):
        """The elements in the order of `elements`, as blocks of rows, one
        block per product of the deeper levels' representatives."""
        self._ensure_chain()
        reps = [T[lookup[(lookup >= 0).nonzero()[0]]]
                for lookup, T, _ in self._transversals]
        rows = self._ident[None, :]
        for T in reversed(reps[1:]):
            rows = T[:, rows].transpose(1, 0, 2).reshape(-1, self.degree)
        top = reps[0] if reps else rows
        return (top[:, h] for h in rows)

    def orbitals(self):
        """Partition of point pairs into orbits, as a CoherentConfiguration.

        Orbits are numbered in row-major order of their least cell: a
        cell's raw id counts the cells before its orbit's least cell that
        are the least cells of their own orbits.
        """
        from .cc import CoherentConfiguration

        n = self.degree
        least = _orbit_minima(n, self.generators, 2)
        ids = np.cumsum(least == np.arange(least.size), dtype=least.dtype)
        ids -= 1
        return CoherentConfiguration(ids[least].reshape(n, n))

    def __repr__(self):
        return (f"PermGroup(degree={self.degree}, "
                f"gens={len(self.generators)}, order={self.order()})")
