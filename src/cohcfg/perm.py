"""Permutations as image tuples, groups via deterministic Schreier-Sims chains.

A permutation on n points is a tuple p with p[i] the image of i.
``compose(p, q)`` applies p first, then q.  Groups carry a base-and-orbit
stabilizer chain built with a deterministic base (forced prefix first,
then smallest moved point) and breadth-first transversals, so orders and
stabilizers are exact and reproducible.
"""

from math import gcd

import numpy as np

from .errors import UsageError


def identity(n):
    return tuple(range(n))


def compose(p, q):
    """Apply p, then q."""
    return tuple(q[i] for i in p)


def inverse(p):
    out = [0] * len(p)
    for i, j in enumerate(p):
        out[j] = i
    return tuple(out)


def is_identity(p):
    return all(i == j for i, j in enumerate(p))


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


def _orbit_transversal(point, gens, degree):
    """Breadth-first transversal {gamma: perm with perm[point] == gamma}."""
    trans = {point: identity(degree)}
    frontier = [point]
    while frontier:
        new = []
        for gamma in frontier:
            t = trans[gamma]
            for g in gens:
                delta = g[gamma]
                if delta not in trans:
                    trans[delta] = compose(t, g)
                    new.append(delta)
        frontier = sorted(new)
    return trans


class PermGroup:
    """Group generated by permutations, with a stabilizer chain.

    ``base_prefix`` forces the first base points (used for point and pair
    stabilizers); further base points are the smallest points moved by a
    remaining strong generator.
    """

    def __init__(self, degree, generators=(), base_prefix=()):
        self.degree = degree
        gens = []
        for g in generators:
            g = tuple(g)
            check_permutation(g, degree)
            if not is_identity(g) and g not in gens:
                gens.append(g)
        self.generators = gens
        self._base = []
        self._level_gens = []   # level i: strong generators fixing base[:i]
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
        base, levels = self._base, self._level_gens
        levels.clear()
        levels.append(list(self.generators))
        for i, b in enumerate(base):
            levels.append([g for g in levels[i] if g[b] == b])
        while any(not is_identity(g) for g in levels[-1]):
            moved = min(i for g in levels[-1] for i in range(self.degree)
                        if g[i] != i)
            base.append(moved)
            levels.append([g for g in levels[-1] if g[moved] == moved])
        # levels has len(base)+1 entries; the last one holds only identities
        levels.pop()
        self._transversals = [None] * len(base)
        for i in range(len(base)):
            self._rebuild(i)
        self._complete()

    def _rebuild(self, i):
        self._transversals[i] = _orbit_transversal(
            self._base[i], self._level_gens[i], self.degree)

    def _sift(self, g, start=0):
        """Reduce g through levels >= start; returns (level, residue)."""
        for i in range(start, len(self._base)):
            img = g[self._base[i]]
            rep = self._transversals[i].get(img)
            if rep is None:
                return i, g
            g = compose(g, inverse(rep))
        return len(self._base), g

    def _complete(self):
        """Deterministic Schreier-Sims: verify levels bottom-up."""
        i = len(self._base) - 1
        while i >= 0:
            restart = self._close_level(i)
            if restart is None:
                i -= 1
            else:
                i = restart

    def _close_level(self, i):
        """Sift all Schreier generators of level i.

        Returns None when the level is complete, else the level to
        re-verify after new strong generators were installed.
        """
        self._rebuild(i)
        trans = self._transversals[i]
        for gamma in sorted(trans):
            t = trans[gamma]
            for g in self._level_gens[i]:
                u = compose(compose(t, g), inverse(trans[g[gamma]]))
                if is_identity(u):
                    continue
                j, h = self._sift(u, i + 1)
                if is_identity(h):
                    continue
                if j == len(self._base):
                    moved = min(x for x in range(self.degree) if h[x] != x)
                    self._base.append(moved)
                    self._level_gens.append([])
                    self._transversals.append(None)
                for k in range(i + 1, j + 1):
                    self._level_gens[k].append(h)
                for k in range(i + 1, j + 1):
                    self._rebuild(k)
                return j
        return None

    # queries

    def order(self):
        self._ensure_chain()
        n = 1
        for trans in self._transversals:
            n *= len(trans)
        return n

    def contains(self, g):
        g = tuple(g)
        check_permutation(g, self.degree)
        self._ensure_chain()
        _, h = self._sift(g)
        return is_identity(h)

    def base(self):
        self._ensure_chain()
        return tuple(self._base)

    def strong_generators(self, level=0):
        self._ensure_chain()
        if level >= len(self._level_gens):
            return []
        out = []
        for g in self._level_gens[level]:
            if g not in out:
                out.append(g)
        return out

    def stabilizer_prefix(self, points):
        """Pointwise stabilizer of the listed points, as a new group."""
        points = tuple(points)
        for a in points:
            if not 0 <= a < self.degree:
                raise UsageError("point out of range")
        chain = PermGroup(self.degree, self.generators, base_prefix=points)
        gens = chain.strong_generators(len(points))
        return PermGroup(self.degree, gens)

    def point_stabilizer(self, alpha):
        return self.stabilizer_prefix((alpha,))

    def orbit(self, point):
        """Sorted orbit of one point, closed under the generator images."""
        seen = {point}
        todo = [point]
        while todo:
            gamma = todo.pop()
            for g in self.generators:
                delta = g[gamma]
                if delta not in seen:
                    seen.add(delta)
                    todo.append(delta)
        return sorted(seen)

    def orbit_of_pair(self, pair):
        """BFS closure of one ordered pair under the generator images."""
        a, b = pair
        if not (0 <= a < self.degree and 0 <= b < self.degree):
            raise UsageError("pair out of range")
        seen = {(a, b)}
        frontier = [(a, b)]
        while frontier:
            new = []
            for x, y in frontier:
                for g in self.generators:
                    img = (g[x], g[y])
                    if img not in seen:
                        seen.add(img)
                        new.append(img)
            frontier = new
        return seen

    def elements(self):
        """Iterate all elements; intended for small groups only."""
        self._ensure_chain()

        def walk(level):
            if level == len(self._base):
                yield identity(self.degree)
                return
            for h in walk(level + 1):
                for gamma in sorted(self._transversals[level]):
                    yield compose(h, self._transversals[level][gamma])
        return walk(0)

    def is_transitive(self):
        return len(self.orbit(0)) == self.degree if self.degree else True

    def orbitals(self):
        """Partition of point pairs into orbits, as a CoherentConfiguration.

        Orbits are numbered in row-major order of their least cell.  Each
        row is scanned once for unpainted cells, skipping those painted
        since, and each orbit is painted breadth first from that cell.
        """
        from .cc import CoherentConfiguration

        n = self.degree
        gens = [np.asarray(g, dtype=np.int64) for g in self.generators]
        colors = np.full((n, n), -1, dtype=np.int64)
        color = 0
        for a in range(n):
            row = colors[a]
            for b in np.flatnonzero(row < 0).tolist():
                if row[b] >= 0:
                    continue
                colors[a, b] = color
                fa = np.array([a], dtype=np.int64)
                fb = np.array([b], dtype=np.int64)
                while fa.size:
                    parts = []
                    for g in gens:
                        ia, ib = g[fa], g[fb]
                        fresh = colors[ia, ib] < 0
                        if fresh.any():
                            ia, ib = ia[fresh], ib[fresh]
                            colors[ia, ib] = color
                            parts.append((ia, ib))
                    if parts:
                        fa = np.concatenate([p[0] for p in parts])
                        fb = np.concatenate([p[1] for p in parts])
                    else:
                        fa = fb = np.empty(0, dtype=np.int64)
                color += 1
        return CoherentConfiguration(colors)

    def __repr__(self):
        return (f"PermGroup(degree={self.degree}, "
                f"gens={len(self.generators)}, order={self.order()})")
