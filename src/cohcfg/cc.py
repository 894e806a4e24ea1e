"""Coherent configurations as dense color matrices.

A configuration on n points is an n x n integer matrix assigning each
ordered pair a color (basis relation id).  Canonical ids sort classes by
(reflexive first, valency ascending, least cell in row-major order).  The
key depends on the partition only, so two constructions of the same
partition give equal arrays and serialize identically; the f classes
that meet the diagonal get ids 0..f-1.  The canonicalization hands its
by-products to `CoherentConfiguration`: the least cell and valency of
every class, from which it reads transposes and fibers.

Every grouping of the n**2 cells by color goes through `cells_by_color`,
a stable sort of the ids in linear time (radix passes of 16 bits), and
`color_classes`, the (values, first cell, inverse) triple built on it.
"""

import numpy as np

from .errors import UsageError, IntegrityError, ColorActionError, require_memory
from .perm import PermGroup
from .report import VerificationReport


def _block(size):
    """Cells per block of a pass over sorted cells: a 32nd of them, so
    that a block's temporaries hold a quarter byte per cell each."""
    return max(1 << 12, size >> 5)


def cells_by_color(flat):
    """Stable argsort of a flat array of integer ids, in linear time.

    One LSD radix pass per 16 bits of the largest id: numpy's stable
    sort of uint16 keys is a counting sort.  Negative ids are shifted
    by the minimum first.  The digits of the later passes are gathered
    in blocks into one uint16 array, and each pass's order is written
    over its sort permutation: 18 bytes per cell above the input.
    """
    flat = np.asarray(flat).ravel()
    if flat.size and flat.min() < 0:
        flat = flat - flat.min()
    top = int(flat.max()) if flat.size else 0
    digit = flat.astype(np.uint16)
    block = _block(flat.size)
    order = np.argsort(digit, kind="stable")
    for shift in range(16, top.bit_length(), 16):
        for s in range(0, flat.size, block):
            digit[s:s + block] = flat[order[s:s + block]] >> shift
        step = np.argsort(digit, kind="stable")
        # out= the indices: each entry is read before it is written
        order = np.take(order, step, out=step, mode="clip")
    return order


def color_classes(flat):
    """``np.unique(flat, return_index=True, return_inverse=True)`` in
    linear time: the sorted distinct ids, the first index of each, and
    the class number of every entry.

    The inverse is ``flat`` itself when the ids are already 0..r-1, a
    lookup table when the largest id is below the cell count, and a
    running count over the sorted cells otherwise (a table that size
    could exhaust memory), made in blocks.
    """
    flat = np.asarray(flat).ravel()
    order = cells_by_color(flat)
    change = _class_starts(flat, order)
    r = int(np.count_nonzero(change))
    low, high = (int(flat[order[0]]), int(flat[order[-1]])) if r else (0, -1)
    ranks = low == 0 and high == r - 1
    count = not ranks and (low < 0 or high >= flat.size)
    first = np.empty(r, dtype=np.int64)
    inverse = np.empty(flat.size, dtype=np.int64) if count else None
    _scan_classes(order, change, first, inverse)
    del order, change
    values = flat[first]
    if ranks:
        inverse = flat
    elif not count:
        table = np.empty(high + 1, dtype=np.int64)
        table[values] = np.arange(r)
        inverse = table[flat]
    return values, first, inverse


def _class_starts(flat, order):
    """Boolean mask of the sorted cells that start a class."""
    change = np.ones(flat.size, dtype=bool)
    block = _block(flat.size)
    for s in range(0, flat.size, block):      # sorted ids in blocks, no copy
        keys = flat[order[s:s + block + 1]]
        np.not_equal(keys[1:], keys[:-1], out=change[s + 1:s + keys.size])
    return change


def _scan_classes(order, change, first, inverse):
    """Write the first cell of each class into ``first`` and, unless
    ``inverse`` is None, the class of each cell into ``inverse``, a block
    of the sorted cells at a time (``change`` marks the first of each)."""
    j = 0                                   # the classes that start before the block
    block = _block(order.size)
    for s in range(0, order.size, block):
        cells, new = order[s:s + block], change[s:s + block]
        starts = cells[new]
        first[j:j + starts.size] = starts
        if inverse is not None:
            ids = np.cumsum(new, dtype=np.int64)
            ids += j - 1
            inverse[cells] = ids
        j += starts.size


def first_occurrence_relabel(colors):
    """Relabel classes by order of first appearance (row-major scan).

    Two matrices describe the same partition of the cells exactly when
    their relabelings are equal arrays.
    """
    colors = np.asarray(colors)
    first, inv = color_classes(colors)[1:]
    rank = np.empty(len(first), dtype=np.int64)
    rank[np.argsort(first)] = np.arange(len(first))
    return rank[inv].reshape(colors.shape)


def same_partition(a, b):
    a, b = np.asarray(a), np.asarray(b)
    if a.shape != b.shape:
        return False
    return np.array_equal(first_occurrence_relabel(a), first_occurrence_relabel(b))


def canonicalize_colors(colors):
    """Canonical ids: reflexive classes first, then valency, then least cell.

    Returns (ids, first, valency): the canonical matrix and, indexed by
    canonical id, the flat index of each class's least cell and the
    count of the class in that cell's row.
    """
    colors = np.asarray(colors)
    n = colors.shape[0]
    first, inv = color_classes(colors)[1:]
    M = inv.reshape(n, n)
    r = len(first)
    reflexive = np.zeros(r, dtype=bool)
    reflexive[M[np.arange(n), np.arange(n)]] = True
    valency = _first_row_counts(M, first // n)
    # lexsort uses the last key as primary: (reflexive first, valency, first cell)
    order = np.lexsort((first, valency, (~reflexive).astype(np.int64)))
    first, valency = first[order], valency[order]
    rank = np.empty(r, dtype=np.int64)
    rank[order] = np.arange(r)
    del order   # before the cell-sized gather
    return rank[M], first, valency


def _first_row_counts(M, first_rows):
    """How often each class s occurs in row first_rows[s] of M, the first
    row containing s; on a coherent M this is the valency of s."""
    rows = np.arange(M.shape[0])[:, None]
    return np.bincount(M[first_rows[M] == rows], minlength=len(first_rows))


def checked_colors(colors):
    """The color matrix as an array; UsageError unless it is square with
    nonnegative integer ids."""
    colors = np.asarray(colors)
    if colors.ndim != 2 or colors.shape[0] != colors.shape[1]:
        raise UsageError("color matrix must be square")
    if not np.issubdtype(colors.dtype, np.integer):
        raise UsageError(f"color ids must be integers, not {colors.dtype}")
    if colors.size and colors.min() < 0:
        raise UsageError("color ids must be nonnegative")
    return colors


class CoherentConfiguration:
    """Color-matrix rainbow with its class table: the least cell (row,
    column), valency and transpose of every color, stored at
    construction; the fibers of a color's ends are read from its least
    cell.  The reflexive colors are 0..f-1.

    Immutable after construction; the tensor and the fibers' point lists
    are computed on first use.  Construction canonicalizes ids but does
    not prove coherence; use ``validate`` for that.
    """

    def __init__(self, colors):
        colors, first, valency = canonicalize_colors(checked_colors(colors))
        n = colors.shape[0]
        self.colors = colors
        self.degree = n
        self.rank = len(first)
        # a two-point extension has about n^2 / 2 classes, so the table
        # takes the narrowest type that holds every id: int32 below 2^31
        index = np.int32 if n * n <= 1 << 31 else np.int64
        self.first_rows, self.first_cols = np.divmod(first.astype(index), n)
        del first
        self._reflexive_count = int(colors.diagonal().max()) + 1 if n else 0
        self._valency = valency.astype(index)
        self._transposed = colors[self.first_cols, self.first_rows].astype(index)
        for table in (colors, self.first_rows, self.first_cols, self._valency,
                      self._transposed):
            table.setflags(write=False)
        self._tensor = None
        self._fibers = None

    def first_pair(self, s):
        return int(self.first_rows[s]), int(self.first_cols[s])

    def reflexive_colors(self):
        return list(range(self._reflexive_count))

    def is_reflexive(self, s):
        return self.first_rows[s] == self.first_cols[s]

    def fibers(self):
        if self._fibers is None:
            diag = self.colors.diagonal()
            self._fibers = [np.flatnonzero(diag == c)
                            for c in self.reflexive_colors()]
        return self._fibers

    def valencies(self):
        """n_s for every color (out-degree within the source fiber)."""
        return self._valency

    def transpose_map(self):
        """t with t[s] = s* (well defined only on valid rainbows)."""
        return self._transposed

    def fiber_colors(self):
        """(source, target): for every color, the reflexive color of the
        fiber its cells start in and of the fiber they end in."""
        diag = self.colors.diagonal()
        return diag[self.first_rows], diag[self.first_cols]

    # validation

    def validate(self, level="axioms"):
        """Check rainbow axioms, and with level="full" exact coherence."""
        if level not in ("axioms", "full"):
            raise UsageError(f"unknown validation level {level!r}")
        rep = VerificationReport(claim="validate", params={"level": level})
        # the n diagonal cells carry ids below f; no other cell may
        rep.require("diagonal-classes-pure",
                    np.count_nonzero(self.colors < self._reflexive_count) == self.degree)
        # transpose of every class is a class
        t = self.transpose_map()
        trans_ok = np.array_equal(t[self.colors], self.colors.T)
        if not trans_ok:
            cell = np.argwhere(t[self.colors] != self.colors.T)[0]
            rep.require("transpose-closed", False, witness=tuple(int(x) for x in cell))
        else:
            rep.require("transpose-closed", True)
        rep.witnesses["degree"] = self.degree
        rep.witnesses["rank"] = self.rank
        if level == "full" and rep.passed:
            from .wl import coherence_violations
            bad = coherence_violations(self.colors)
            if bad:
                rep.require("coherent", False, witness=bad[0])
                rep.failures.extend(bad[1:])
            else:
                rep.require("coherent", True)
        return rep

    # intersection numbers

    def tensor(self, *, seed=0):
        """Exact intersection tensor c[t, r, s], computed once.

        Computed from one representative pair per color and re-verified
        by the composition kernel of `wl`: every pair when the degree is
        at most 100, else ceil(log2 n) seeded random pairs per color,
        each color's representative listed first.  A mismatch means the
        matrix was not coherent and raises IntegrityError naming the
        triple.  ``validate("full")`` checks every pair at any degree.
        The r^3 int32 values are checked against the budget first.
        """
        if seed < 0:
            raise UsageError("seed must be nonnegative")
        if self._tensor is not None:
            return self._tensor
        require_memory(self.rank ** 3 * 4, f"tensor of rank {self.rank}")
        from .wl import _composition_mismatches
        n, r = self.degree, self.rank
        M = self.colors
        fr, fc = self.first_rows, self.first_cols
        values = np.zeros((r, r, r), dtype=np.int32)
        for t in range(r):
            codes = M[fr[t], :] * r + M[:, fc[t]]
            values[t] = np.bincount(codes, minlength=r * r).reshape(r, r)
        flat = M.ravel()
        cells = cells_by_color(flat)
        if n > 100:
            rng = np.random.default_rng(seed)
            k = max(1, int(np.ceil(np.log2(max(n, 2)))))
            bounds = np.searchsorted(flat[cells], np.arange(r + 1))
            listed = []
            for lo, hi in zip(bounds[:-1], bounds[1:]):
                sample = rng.choice(cells[lo:hi], size=min(hi - lo, k), replace=False)
                listed += [cells[lo:lo + 1], sample]
            cells = np.concatenate(listed)
        bad = next(_composition_mismatches(M, cells), None)
        if bad is not None:
            raise IntegrityError(
                f"intersection number not constant on color {bad[2]}",
                triple=bad)
        self._tensor = IntersectionTensor(values, self.valencies().copy())
        return self._tensor

    def indistinguishing_numbers(self):
        """Per-color c(s) for irreflexive s, and the maximum c(X).

        c(s) counts the points relating identically to both ends of a
        pair of s; by coherence one representative pair suffices.  For
        small ranks the tensor route (sum of c_{r r*}^s) is cross-checked
        against the direct count.
        """
        M = self.colors
        fr, fc = self.first_rows, self.first_cols
        per_color = {}
        for s in range(self.rank):
            a, b = int(fr[s]), int(fc[s])
            if a == b:
                continue
            per_color[s] = int(np.count_nonzero(M[a, :] == M[b, :]))
        if self.rank <= 64 and self.degree > 1:
            tensor = self.tensor()
            tmap = self.transpose_map()
            for s, direct in per_color.items():
                via_tensor = int(values_sum_rr(tensor.values, tmap, s))
                if via_tensor != direct:
                    raise IntegrityError(
                        f"indistinguishing mismatch on color {s}: "
                        f"tensor {via_tensor} vs direct {direct}")
        overall = max(per_color.values()) if per_color else 0
        return per_color, overall

    # predicates

    def is_homogeneous(self):
        return self._reflexive_count == 1

    def is_symmetric(self):
        t = self.transpose_map()
        return bool(np.array_equal(t, np.arange(self.rank)))

    def is_pseudocyclic(self):
        """(flag, k): all irreflexive valencies equal k and c(s) = k - 1."""
        if not self.is_homogeneous():
            raise UsageError("pseudocyclicity is defined for homogeneous configurations")
        if self.rank == 1:
            return True, 1
        v = self.valencies()
        irref = [s for s in range(self.rank) if not self.is_reflexive(s)]
        k = int(v[irref[0]])
        if any(int(v[s]) != k for s in irref):
            return False, None
        per_color, _ = self.indistinguishing_numbers()
        if any(per_color[s] != k - 1 for s in irref):
            return False, None
        return True, k

    def regular_points(self):
        """Points seeing every color at most once."""
        rows = np.sort(self.colors, axis=1)
        repeats = (rows[:, 1:] == rows[:, :-1]).any(axis=1)
        return np.flatnonzero(~repeats).tolist()

    def is_partly_regular(self):
        pts = self.regular_points()
        return (len(pts) > 0, pts)

    def is_semiregular(self):
        return bool((self.valencies() == 1).all())

    def is_discrete(self):
        return self.rank == self.degree * self.degree

    def is_trivial_scheme(self):
        return self.is_homogeneous() and self.rank <= 2

    # constructions

    def restriction(self, points):
        """Induced configuration on a union of fibers."""
        points = np.asarray(sorted(set(int(p) for p in points)), dtype=np.int64)
        if points.size and (points.min() < 0 or points.max() >= self.degree):
            raise UsageError("restriction points out of range")
        chosen = set(points.tolist())
        for fiber in self.fibers():
            got = chosen.intersection(fiber.tolist())
            if got and len(got) != len(fiber):
                raise UsageError("restriction set is not a union of fibers")
        sub = self.colors[np.ix_(points, points)]
        return CoherentConfiguration(sub)

    def matchings_between(self, fiber_i, fiber_j):
        """Colors of valency 1 in both directions from fiber i to fiber j."""
        fibers = self.fibers()
        if not (0 <= fiber_i < len(fibers) and 0 <= fiber_j < len(fibers)):
            raise UsageError("fiber index out of range")
        v = self.valencies()
        source, target = self.fiber_colors()
        # the reflexive color of fiber i is i
        match = ((source == fiber_i) & (target == fiber_j)
                 & (v == 1) & (v[self._transposed] == 1))
        return np.flatnonzero(match).tolist()

    def m_t(self, t):
        """Largest intersection number with target color t."""
        if self.is_reflexive(t):
            raise UsageError("m_t is defined for irreflexive colors")
        return int(self.tensor().values[t].max())

    def same_partition(self, other):
        """Canonical ids depend on the partition only: equal partitions
        are equal arrays.  Their memoryviews compare shapes and values
        without a cell-sized temporary."""
        return self.colors.data == other.colors.data

    def __repr__(self):
        return f"CoherentConfiguration(degree={self.degree}, rank={self.rank})"


def values_sum_rr(values, transpose, s):
    """Sum of c_{r r*}^s over colors r."""
    r = values.shape[0]
    idx = np.arange(r)
    return values[s][idx, transpose[idx]].sum()


class IntersectionTensor:
    """Dense intersection numbers c[t, r, s] with the valency vector."""

    def __init__(self, values, valencies):
        self.values = values
        self.valencies = valencies

    def row_sums_ok(self):
        """Sum over s of c_{rs}^t equals n_r whenever the fibers compose;
        else the first failing (t, r) in row-major order."""
        sums = self.values.astype(np.int64).sum(axis=2)  # [t, r]
        return _zero_or_expected(sums, self.valencies.astype(np.int64))

    def product_identity_ok(self):
        """Sum over t of c_{rs}^t n_t equals n_r n_s on composing fibers;
        else the first failing (r, s) in row-major order."""
        v = self.values.astype(np.int64)
        nt = self.valencies.astype(np.int64)
        lhs = np.tensordot(nt, v, axes=(0, 0))  # [r, s]
        return _zero_or_expected(lhs, nt[:, None] * nt)


def _zero_or_expected(got, expect):
    """(True, None) if each entry is 0 or expected, else (False, index)."""
    bad = np.flatnonzero((got != 0) & (got != expect))
    if bad.size == 0:
        return True, None
    return False, divmod(int(bad[0]), got.shape[1])


def tensor_bijections(A, B, allowed):
    """Bijections phi of range(r) carrying tensor A onto tensor B.

    Yields, in lexicographic order, every phi with allowed[k, phi[k]] for
    all k and A[c, a, b] == B[phi[c], phi[a], phi[b]] for every triple.
    Index k is assigned after 0..k-1, and each candidate image is checked
    on the three slices of triples whose largest index is k, so a branch
    compares every triple once.
    """
    allowed = np.asarray(allowed, dtype=bool)
    r = allowed.shape[0]
    image = np.zeros(r, dtype=np.int64)
    used = np.zeros(r, dtype=bool)

    def extend(k):
        if k == r:
            yield tuple(image.tolist())
            return
        p = image[:k + 1]
        q = p[:, None]
        for cand in np.flatnonzero(allowed[k] & ~used):
            image[k] = cand
            if (np.array_equal(A[k, :k + 1, :k + 1], B[cand, q, p])
                    and np.array_equal(A[:k + 1, k, :k + 1], B[q, cand, p])
                    and np.array_equal(A[:k + 1, :k + 1, k], B[q, p, cand])):
                used[cand] = True
                yield from extend(k + 1)
                used[cand] = False

    yield from extend(0)


def algebraic_fusion(cfg, phi_generators):
    """Merge colors along orbits of tensor-preserving color permutations.

    Every generator must fix the reflexive classes setwise and preserve
    the intersection tensor; a violating generator is rejected with the
    offending triple.  Returns the fused configuration and the fusion map.
    """
    r = cfg.rank
    tensor = cfg.tensor()
    refl = set(cfg.reflexive_colors())
    gens = []
    for phi in phi_generators:
        phi = tuple(int(x) for x in phi)
        if sorted(phi) != list(range(r)):
            raise UsageError("fusion generator is not a permutation of colors")
        if any((c in refl) != (phi[c] in refl) for c in range(r)):
            raise UsageError("fusion generator does not fix reflexive classes setwise")
        idx = np.asarray(phi)
        permuted = tensor.values[np.ix_(idx, idx, idx)]
        if not np.array_equal(permuted, tensor.values):
            bad = np.argwhere(permuted != tensor.values)[0]
            raise UsageError(
                "fusion generator does not preserve the tensor; "
                f"triple {tuple(int(x) for x in bad)}")
        gens.append(phi)
    fused = CoherentConfiguration(PermGroup(r, gens).orbit_minima()[cfg.colors])
    fmap = FusionMap(tuple(fused.colors[cfg.first_rows, cfg.first_cols].tolist()), gens)
    return fused, fmap


class FusionMap:
    """Color partition induced by a group of algebraic automorphisms."""

    def __init__(self, color_to_fused, generators):
        self.color_to_fused = color_to_fused
        self.generators = generators

    @property
    def order(self):
        """Order of the color group the generators span."""
        return PermGroup(len(self.color_to_fused), self.generators).order()


def induced_color_action(cfg, g):
    """Color permutation induced by a point permutation, if any.

    Raises ColorActionError with a witness cell when g maps some color
    onto a set that is not a color.
    """
    g = np.asarray(tuple(g), dtype=np.int64)
    if g.shape[0] != cfg.degree or sorted(g.tolist()) != list(range(cfg.degree)):
        raise UsageError("not a permutation of the point set")
    M = cfg.colors
    P = M[np.ix_(g, g)]   # P[a, b] = color of (g a, g b)
    phi = P[cfg.first_rows, cfg.first_cols]
    if not np.array_equal(phi[M], P):
        cell = np.argwhere(phi[M] != P)[0]
        raise ColorActionError(
            "point map does not permute the colors",
            witness=tuple(int(x) for x in cell))
    if sorted(phi.tolist()) != list(range(cfg.rank)):
        raise ColorActionError("point map collapses colors", witness=None)
    return tuple(int(x) for x in phi)
