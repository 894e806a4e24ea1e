"""Coherent closure: 2-dimensional Weisfeiler-Leman stabilization.

Each round recolors every pair (a, b) by its old color and the multiset
of color pairs (c(a, g), c(g, b)) over all points g.  `stabilize` first
numbers the cells by (color, transposed color, diagonal flag) and by
labels of their row and column points (`_normalize`), the point split:
the label of a point names its fiber (diagonal color class) and hashes
the multisets of (c(a, g), fiber(g)) and of (c(g, a), fiber(g)) over
all g (`_point_labels`).  This is the color refinement that
individualization-refinement runs after each individualized point
(McKay and Piperno, "Practical graph isomorphism, II", J. Symb. Comput.
60 (2014)), in O(n^2) work where a hash round does O(n^3).
- It is no finer than two exact rounds.  Exact round 1 names the fibers
  of a and b: its term g = a is (c(a, a), c(a, b)), and a diagonal code
  occurs nowhere off the diagonal.  So after it the color of (a, g)
  names (c(a, g), c(g, a), fiber(g)), and the multisets of round 2 at
  (a, b) project onto those of the row label of a (first coordinates)
  and of the column label of b (second coordinates).  A hash collision
  only makes a label coarser.
- It equals two exact rounds on a coherent configuration with a
  few points individualized as singleton fibers, as in a point extension
  or at a node of the automorphism search: round 1 then splits only the
  cells of the new fibers' rows and columns, and round 2 adds the colors
  from a and b to each new point, which the labels name.  Such a call
  thus needs two hash rounds fewer.
Then it runs in two phases.

1. Hash rounds.  The multiset of a cell is replaced by three bilinear
   hashes H = A[M] @ B[M], with A and B seeded random integer weights
   per color below a modulus p with n * p**2 <= 2**53: every partial
   sum of the float64 product is then an exact integer, whatever order
   the BLAS adds in.  Cells are grouped by one 64-bit key holding the
   old color exactly and a fold of the three hashes, and renumbered by
   first appearance in row-major order.  Rounds repeat until the rank
   stops growing.  The round that splits nothing is recognized before
   the sort: every cell's key equals that of one cell of its old class,
   and the matrix is returned as it is.
2. Exact certificate (`_is_coherent`).  A matrix with r colors is
   coherent when the transpose of every class is a class and every
   product A_s A_t of adjacency matrices is constant on each class.
   Once the transposes are checked, one of two exact routes decides.
   If it rejects, fresh weights are drawn and phase 1 resumes.  The
   automorphism search skips this phase (``certify=False``): it needs
   invariant partitions, not closures.
   - Products, where r^2 <= n (`products.certificate`).  If the
     products A_s A_t of a few colors s of least valency are constant
     on every class and generate an algebra of dimension r, the span of
     all colors is closed under products.  The proof, the computation
     modulo a prime and the fallbacks are in `products`.  Where it
     cannot decide, the sorted codes do.  Where r^2 > n (point
     extensions, and the claims' certificates on at most 17 points), the
     sorted codes are cheaper.
   - Sorted codes.  The cells are visited in color order; each cell's
     sorted composition codes are compared with those of the previous
     cell of the same color (one cell of each transposed pair
     suffices).

The comparison of sorted composition codes is one batched kernel,
`_composition_mismatches`; `coherence_violations` and the tensor
re-verification of `CoherentConfiguration` use it too.  Two cells are
only compared within one color, and all cells of a color lie in one
fiber pair X x Y, so the code of (c(a, g), c(g, b)) numbers the pair
within the fiber Z of g (`_code_tables`): its range is the sum over Z
of the most colors in any X x Z times the most in any Z x Y, not r**2.
The codes of the 496-point extensions fit 16 bits where c * r + c'
needs 32 or 64; the narrowest integer type that holds them is sorted.

Equal multisets hash equal, so every hash round is no finer than the
exact round, and the point split is no finer than two exact rounds; by
induction the hash partition is never finer than the exact WL
partition.  A certified partition is coherent and refines the input, so
it is also no coarser than the coarsest coherent refinement; the two
are equal.  First-appearance ids depend on the partition only, so the
returned ids are those of exact WL rounds.  Where the point split
splits nothing, the normalized ids are those of the untagged code, as
in an exact run whose first rounds split nothing; the label values,
which depend on the weights, never reach the output.  Where it splits a
class, `_normalize` numbers the classes by first appearance, as the
exact rounds would have done; a later hash round then draws each
class's weights by that number, which can only matter where a hash
collides.

The group route (``stabilize(..., group=H)``, a `PermGroup`).  Let H be a
group whose elements preserve the input colors.  The hashes read color
ids only, so every key is H-invariant and every hash class a union of
H-orbits on cells.  The hash partition is no finer than the closure
(above), and the closure is no finer than the H-orbitals, which are
coherent and refine the input: the closure's rank lies between the
hash rank and the number of H-orbits on cells, and where these two are
equal the three partitions are equal (the schurity view of Evdokimov
and Ponomarenko, "Separability number and schurity number of coherent
configurations", Electron. J. Combin. 7 (2000), R31).  So the loop
stops as soon as the rank reaches the orbit count, with neither a
confirming round nor the certificate.
- Rows.  The rows containing a class form a union of H-orbits on
  points, so every class meets the rows R of the least point of each
  orbit, first of all in row-major order.  A round hashes only those
  rows, A[M[R]] @ B[M], sorts |R| n keys and numbers the classes by
  first appearance in R, which is first appearance in the matrix.  Row
  x = h(y) is row y read through h^-1; breadth-first layers of the
  generators from R (a Schreier vector, Seress, "Permutation Group
  Algorithms", Cambridge 2003, ch. 4; O(n) entries) rebuild the matrix.
- Count.  `PermGroup.orbital_count` counts the H-orbits on cells without
  an n^2 array.
- Fallback.  A round that splits nothing below the count goes to the
  exact certificate, and a rejection redraws the weights, as without a
  group: the count then exceeds the closure's rank (H is smaller than
  the automorphism group of the closure).
- Raw ids.  Each round's keys, and so each round's matrix, equal those
  of the same round without the group, and the result is the closure in
  both: the ids are by first appearance if any class split, otherwise
  `_normalize`'s.

Memory.  A phase frees each temporary after its last read and holds,
above its input, per-color arrays and at most three of 8 bytes per cell:
the code, its order and the ids (`_normalize`, whose labels take row
blocks and whose renumbering by first appearance writes over the ids);
the key, B[M] and row blocks, then the key, its order and the sorted
key, then the order, new ids and new matrix (`_hash_round`); listed
cells, code tables (the sorted codes of `_is_coherent`); for the
products, see `products`.
`stabilize` drops its input once `_normalize` has read it; `extend_points`
makes its recolored copy in the call, so that reference is the last.
"""

import math
import numbers
from collections import namedtuple

import numpy as np

from .cc import (CoherentConfiguration, cells_by_color, checked_colors,
                 color_classes, integer_colors)
from .errors import UsageError, require_memory

# estimated bytes per cell of a stabilization: about 35 for a whole 496-point
# extension, about 86 for the automorphism search on its double
_CELL_BYTES = 128

# code space sizes up to which the narrower integer types hold every code
_UINT16_CODES = 1 << 16
_INT32_CODES = 1 << 31
# odd multipliers that fold the three hashes into one 64-bit key
_MIX = (np.uint64(0x9E3779B97F4A7C15), np.uint64(0xC2B2AE3D27D4EB4F),
        np.uint64(0x165667B19E3779F9))
_BATCH_BYTES = 1 << 19  # a certificate batch stays in a core's L2 cache
_MAX_REPORT = 5  # distinct violated triples coherence_violations returns

_LABEL_SEED = 0x1ABE1                # the weights of `_point_labels`
_Route = namedtuple("_Route", "reps layers count")   # see `_group_route`


def _normalize(colors):
    """Contiguous ids refined by (color, transposed color, diagonal flag,
    label of the row point, label of the column point).

    Enforces the rainbow preconditions: the diagonal is separated from
    off-diagonal cells and every class has a well defined transpose.
    The point labels are those of `_point_labels`.  Ids outside
    0..n^2 - 1 are first compacted in order, so r <= n^2 and the code
    c * r + c' stays below 2 * n^4, within int64 up to n = 46340 (a 17 GB
    matrix).  The code is compacted again before the labels widen it k^2
    times (k labels): through a table where that table is small, and by
    a sort where the widened code could pass 2^63.
    Where the labels split nothing, the ids number the codes in
    increasing order: they are the ids of the untagged code.  Where they
    split a class, the classes are numbered by first appearance in
    row-major order, from the first cells the grouping returns.
    """
    c = np.asarray(colors, dtype=np.int64)
    n = c.shape[0]
    if n == 0:
        return c.reshape(0, 0)
    if c.min() < 0 or c.max() >= n * n:
        c = color_classes(c)[2].reshape(n, n)
    r = int(c.max()) + 1
    point, k = _point_labels(c, r)
    code = c * r
    code += c.T
    del c
    code *= 2
    code.ravel()[::n + 1] += 1                 # the diagonal flag
    size = 2 * r * r
    if 8 * size <= code.size:                  # a table of at most 1 byte per cell
        table = np.zeros(size, dtype=bool)
        table[code] = True
        table = np.cumsum(table, dtype=np.int64)
        table -= 1
        np.take(table, code, out=code, mode="clip")     # each read before its write
    elif size * k * k > 1 << 63:
        code = color_classes(code)[2].reshape(n, n)
    code *= k
    code += point[:, None]
    code *= k
    code += point
    values, first, ids = color_classes(code)
    del code
    untagged = values // (k * k)
    split = np.any(untagged[1:] == untagged[:-1])
    del values, untagged
    if split:
        # ids by first appearance, as after the exact rounds that the
        # point split stands for
        rank = np.empty_like(first)
        rank[np.argsort(first)] = np.arange(first.size)
        del first
        np.take(rank, ids, out=ids, mode="clip")      # each read before its write
    return ids.reshape(n, n)


def _point_labels(c, r):
    """(labels, k): ids 0..k-1 of the points by their fiber and a hash of
    the multisets of (c(a, g), fiber(g)) and of (c(g, a), fiber(g)) over
    all points g.

    The fibers are the diagonal color classes.  The two hashes of point a
    are the exact float64 products sum over g of (A[c(a, g)] + B[c(g, a)])
    Z[fiber(g)], one row block of the matrix times two weight columns,
    with seeded weights below the bound p of `_hash_modulus` for 2n
    terms, so every partial sum is an exact integer; they are folded
    into one 64-bit key whose low bits hold the fiber.  A collision can
    only give two points of one fiber one label.
    """
    n = c.shape[0]
    fiber = np.unique(np.diagonal(c), return_inverse=True)[1]
    f = int(fiber.max()) + 1
    p = _hash_modulus(2 * n)
    rng = np.random.default_rng(_LABEL_SEED)
    w = rng.integers(1, p, size=2 * (r + f)).astype(np.float64)
    A, B, Z = w[:r], w[r:2 * r], w[2 * r:].reshape(f, 2)[fiber]
    h = np.empty((n, 2))
    rows = max(1, _BATCH_BYTES // (16 * n), n // 8)
    for s in range(0, n, rows):
        h[s:s + rows] = (A[c[s:s + rows]] + B[c.T[s:s + rows]]) @ Z
    key = h[:, 0].astype(np.uint64) * _MIX[0] + h[:, 1].astype(np.uint64) * _MIX[-1]
    key <<= np.uint64(max(1, (f - 1).bit_length()))
    key |= fiber.view(np.uint64)
    values, labels = np.unique(key, return_inverse=True)
    return labels, values.size


def _hash_modulus(n):
    """Largest weight bound p <= 2^22 with n * p^2 <= 2^53, so that n
    products of weights below p sum to an exact float64 integer."""
    return min(1 << 22, math.isqrt((1 << 53) // max(n, 1)))


def _hash_round(M, r, rng, route=None):
    """Regroup the cells by (color, hashes); returns (new matrix, new rank).

    The three exact hashes are folded into one 64-bit key whose low bits
    hold the old color: a collision can keep together cells of one old
    class that the exact round would split, but never joins two classes.
    A round that splits nothing returns M itself, found without a sort:
    every cell's key then equals the key of one cell of its old class.
    With a `_group_route`, only the rows of its orbit representatives are
    hashed and numbered, and `_expand` reads the others off them.
    """
    n = M.shape[0]
    block = M if route is None else M[route.reps]     # the rows hashed
    p = _hash_modulus(n)
    key = np.zeros(block.shape, dtype=np.uint64)
    rows = max(1, _BATCH_BYTES // (16 * n), n // 8)   # >= n/8 rows: fast BLAS
    for mix in _MIX:
        BM = None                       # freed before the next weights are drawn
        A, B = rng.integers(1, p, size=(2, r)).astype(np.float64)
        BM = B[M]
        for s in range(0, len(block), rows):    # row blocks: every partial sum is exact
            key[s:s + rows] += (A[block[s:s + rows]] @ BM).astype(np.uint64) * mix
        del A, B
    key <<= np.uint64(max(1, (r - 1).bit_length()))
    key |= block.view(np.uint64)
    class_key = np.empty(r, dtype=np.uint64)
    class_key[block] = key                      # the key of one cell per class
    # the last B[M] is read: it takes each cell's class key
    held = BM.view(np.uint64)[:len(block)]
    if np.array_equal(key, np.take(class_key, block, out=held, mode="clip")):
        return M, r
    del class_key, BM, held
    order = np.argsort(key, axis=None)
    key = key.ravel()[order]                    # the sorted key replaces it
    starts = np.flatnonzero(np.concatenate(([True], key[1:] != key[:-1])))
    del key
    # new ids by first appearance in row-major order: rank the first cells
    rank_of = np.minimum.reduceat(order, starts)
    counts = np.diff(starts, append=order.size)
    del starts
    rank_of[np.argsort(rank_of)] = np.arange(rank_of.size)
    ids, rank = np.repeat(rank_of, counts), rank_of.size
    del rank_of, counts
    new = np.empty(order.size, dtype=np.int64)
    new[order] = ids
    new = new.reshape(block.shape)
    return (new if route is None else _expand(new, route)), rank


def _group_route(M, H):
    """The orbit rows of the `PermGroup` H, as a `_Route` (reps, layers,
    count): the least point of each H-orbit on points, ascending;
    breadth-first layers (points, parents, inverse) that reach every
    other point x from a parent y with g(y) = x, ``inverse`` being g^-1;
    and the number of H-orbits on cells.  Raises
    UsageError unless H acts on the points of M and every generator g
    preserves M, M[g(a), g(b)] = M[a, b] (checked in row blocks).  O(n)
    entries per generator; the count reads H's own stabilizer chain, so
    a group from `PermGroup.stabilizer_prefix` builds none.
    The normalized ids are a one-to-one function of the colors of (a, b),
    (b, a), (a, a) and (b, b) and of whether a = b, so a permutation
    preserves M exactly when it preserves the input colors.
    """
    n = M.shape[0]
    if H.degree != n:
        raise UsageError(f"the group acts on {H.degree} points, not {n}")
    gens = np.array(H.generators, dtype=np.intp).reshape(-1, n)
    rows = max(1, n // 8)
    for g in gens:
        for s in range(0, n, rows):
            if not np.array_equal(M[g[s:s + rows, None], g], M[s:s + rows]):
                raise UsageError("a group generator does not preserve the colors")
    inverses = np.empty_like(gens)
    inverses[np.arange(len(gens))[:, None], gens] = np.arange(n)
    reps, layers = H.orbit_layers()
    layers = [(points, parents, inverses[k]) for points, parents, k in layers]
    return _Route(reps, layers, H.orbital_count())


def _expand(block, route):
    """The H-invariant matrix whose rows at the representatives of
    `_group_route` are ``block``: M[g(y), b] = M[y, g^-1(b)], so row x is
    the row of its parent y read through the inverse generator."""
    n = block.shape[1]
    full = np.empty((n, n), dtype=block.dtype)
    full[route.reps] = block
    for points, parents, inverse in route.layers:
        full[points] = full[parents[:, None], inverse]
    return full


def _code_tables(M):
    """Fiber-local composition codes: (R, C, decode).

    The fibers are the diagonal color classes.  For a point g in fiber Z
    the code of (c(a, g), c(g, b)) is base[Z] + i * K[Z] + j, with i the
    index of c(a, g) among the colors of X x Z, j that of c(g, b) among
    the colors of Z x Y, K[Z] the most colors in any Z x Y, and base[Z]
    the sum of max_X |X x Z'| * K[Z'] over the fibers Z' before Z.
    R[a] + C[b] lists the codes of cell (a, b) over all g; within one
    fiber pair X x Y, hence within one color, they are injective, and
    ``decode(t, code)`` returns the pair (r', s') for a cell of color t.
    If a diagonal color lies off the diagonal or a color leaves its
    fiber pair, all points form one fiber and the codes are c * r + c'.
    The tables use the narrowest integer type that holds every code.
    """
    n = M.shape[0]
    r = int(M.max()) + 1
    diag = np.diagonal(M)
    on_diag = np.zeros(r, dtype=bool)
    on_diag[diag] = True
    f = int(np.count_nonzero(on_diag))
    pair = np.zeros(r, dtype=np.int32)      # fiber pair X * f + Y of a color
    if f > 1:
        fiber = np.cumsum(on_diag, dtype=np.int32)[diag] - 1
        pair[M] = fiber[:, None] * f + fiber
        if not (np.count_nonzero(on_diag[M]) == n
                and np.array_equal(pair[M], fiber[:, None] * f + fiber)):
            pair[:] = 0
            f = 1
    by_pair = np.argsort(pair, kind="stable")
    count = np.bincount(pair, minlength=f * f)
    start = np.cumsum(count) - count
    count = count.reshape(f, f)
    K = count.max(axis=1)
    base = np.concatenate([[0], np.cumsum(count.max(axis=0) * K)])
    del count
    size = int(base[-1])
    dtype = (np.uint16 if size <= _UINT16_CODES else
             np.int32 if size <= _INT32_CODES else np.int64)
    index = np.empty(r, dtype=np.int64)
    index[by_pair] = np.arange(r)
    index -= start[pair]
    C = np.ascontiguousarray(index.astype(dtype)[M.T])
    index *= K[pair % f]                    # pair % f: fiber Z of g for c(a, g)
    index += base[pair % f]
    R = index.astype(dtype)[M]

    def decode(t, code):
        X, Y = divmod(int(pair[t]), f)
        Z = int(np.searchsorted(base, code, side="right")) - 1
        i, j = divmod(code - int(base[Z]), int(K[Z]))
        return int(by_pair[start[X * f + Z] + i]), int(by_pair[start[Z * f + Y] + j])

    return R, C, decode


def _composition_mismatches(M, cells):
    """Yield (r', s', t) for every listed cell whose sorted composition
    codes differ from those of the previous listed cell of its color t:
    the intersection number of (r', s', t) is then not constant.

    ``cells`` are flat cell indices grouped by color; they are processed
    in batches of rows R[a] + C[b] of `_code_tables`, carrying the last
    row of each batch into the next.  The first position where two
    sorted code rows differ holds, as the smaller of the two values
    there, a code whose multiplicity differs between the rows; the codes
    of one color are injective, so decoding it names (r', s').
    """
    if cells.size == 0:
        return
    n = M.shape[0]
    R, C, decode = _code_tables(M)
    flat = M.ravel()
    batch = max(1, _BATCH_BYTES // (n * R.itemsize))
    last_color, last_row = -1, None
    for start in range(0, cells.size, batch):
        chunk = cells[start:start + batch]
        rows, cols = np.divmod(chunk, n)
        block = R[rows]
        block += C[cols]
        block.sort(axis=1)
        color = flat[chunk]
        if color[0] == last_color and not np.array_equal(block[0], last_row):
            t = int(color[0])
            yield *decode(t, _first_difference(last_row, block[0])), t
        same = color[1:] == color[:-1]
        for i in np.flatnonzero(same & (block[1:] != block[:-1]).any(axis=1)):
            t = int(color[i + 1])
            yield *decode(t, _first_difference(block[i], block[i + 1])), t
        last_color, last_row = color[-1], block[-1]


def _first_difference(x, y):
    i = np.argmax(x != y)
    return int(min(x[i], y[i]))


def _is_coherent(M):
    """Exact check: every color has one transpose color, and all cells of
    one color have equal multisets of composition pairs.

    Where r^2 <= n, `products.certificate` decides if it can.  Otherwise
    the sorted codes do: cell (b, a) has the pairs of (a, b), swapped and
    transposed, so it suffices to compare the cells of colors t < t' (t'
    the transpose of t), the cells a <= b of symmetric colors, and the
    transpose of one such cell of each symmetric color.  These go to the
    composition kernel in color order.
    """
    n = M.shape[0]
    if n == 0:
        return True
    r = int(M.max()) + 1
    flat = M.ravel()
    tau = np.zeros(r, dtype=np.int64)
    tau[M] = M.T
    tau_cell = tau[M]
    if not np.array_equal(tau_cell, M.T):
        return False
    if r * r <= n:
        # imported here: a process that never takes the route never
        # compiles it (see `products`)
        from . import products
        del tau_cell            # the products hold a packed matrix instead
        verdict = products.certificate(M, r, tau)
        if verdict is not None:
            return verdict
        tau_cell = tau[M]
    cells = np.flatnonzero((M < tau_cell) | np.triu(M == tau_cell))
    del tau_cell
    # one cell a <= b of each symmetric color, whose transpose is added
    cell = np.full(r, -1, dtype=np.int64)
    cell[flat[cells]] = cells
    a, b = np.divmod(cell[(tau == np.arange(r)) & (cell >= 0)], n)
    del tau, cell
    cells = np.concatenate([cells, b * n + a])
    cells = cells[cells_by_color(flat[cells])]
    return next(_composition_mismatches(M, cells), None) is None


def require_stabilize_memory(n):
    """Raise ResourceLimitError if n^2 cells at `_CELL_BYTES` each exceed
    the memory budget; callers that build the input first call it too."""
    require_memory(n * n * _CELL_BYTES, f"stabilize on {n} points")


def stabilize(colors, *, certify=True, group=None):
    """Raw stable matrix of the coherent closure of the given partition.

    With ``certify=False`` the exact certificate is skipped and the first
    hash-stable matrix is returned.  Its partition refines the input, is
    no finer than the closure and equals it unless a hash collided; it
    depends on color ids only, so every bijection of the points that
    preserves the input colors preserves each of its classes.  First
    the memory is checked (`require_stabilize_memory`).

    ``group`` is a `PermGroup` H that preserves the input colors
    (UsageError otherwise).  Hash rounds then run on the rows of
    one point per H-orbit, and the loop stops once the rank reaches the
    number of H-orbits on cells: the hash partition is no finer than the
    closure, which is no finer than the H-orbitals, so the three are
    equal and no certificate is needed.  A round that splits nothing
    below that count goes to the certificate, as without a group.  The
    raw ids are the same with and without ``group``: by first appearance
    if any class split, in a hash round or in `_normalize`, which then
    renumbers them itself; else the ids of the untagged code.  The input
    is released once `_normalize` has read it.
    """
    n = len(colors)
    require_stabilize_memory(n)
    M = _normalize(colors)
    del colors
    if n == 0:
        return M
    route = None if group is None else _group_route(M, group)
    stop = n * n if route is None else route.count
    r = int(M.max()) + 1
    rng = np.random.default_rng(0x5EED)
    while r < stop:
        M2, r2 = _hash_round(M, r, rng, route)
        if r2 > r:
            M, r = M2, r2
        elif not certify or _is_coherent(M):
            break
    return M


def coherent_closure(colors):
    """Smallest coherent configuration refining the given color matrix,
    a square matrix of integer ids (UsageError otherwise), which may be
    negative."""
    return CoherentConfiguration(stabilize(integer_colors(colors)))


def extend_points(cfg, points, *, group=None):
    """Coherent closure with the listed points split off as singleton fibers.

    ``group``, a PermGroup that fixes each listed point and preserves cfg,
    goes to `stabilize`'s group route.  The recolored copy
    of cfg's colors is made in the call to `stabilize`, which thus holds
    its only reference and frees it after normalizing.
    """
    points = list(points)
    if any(isinstance(p, bool) or not isinstance(p, numbers.Integral) for p in points):
        raise UsageError("extension points must be integers")
    if len(set(points)) != len(points):
        raise UsageError("extension points must be distinct")
    if any(p < 0 or p >= cfg.degree for p in points):
        raise UsageError("extension point out of range")
    return CoherentConfiguration(stabilize(_with_singletons(cfg, points), group=group))


def _with_singletons(cfg, points):
    M = cfg.colors.copy()
    for i, p in enumerate(points):
        M[p, p] = cfg.rank + i
    return M


def two_extension(cfg):
    """Coherent closure on point pairs containing the Cartesian square.

    The diagonal of the squared point set is split off as a fiber union;
    the intersection numbers of the result are the 3-dimensional
    intersection numbers of the input, which count the points g by
    their colors to the three points of a triple.  Its n^4 cells are
    checked against the budget before the initial coloring is built.
    """
    n = cfg.degree
    require_stabilize_memory(n * n)
    M = cfg.colors
    p1, p2 = np.divmod(np.arange(n * n), n)
    init = (M * (4 * cfg.rank))[np.ix_(p1, p1)]
    init += (M * 4)[np.ix_(p2, p2)]
    init[::n + 1] += 2                  # the rows and columns of the pairs (a, a)
    init[:, ::n + 1] += 1
    return CoherentConfiguration(stabilize(init))


def coherence_violations(colors):
    """Exact coherence check; returns violating (r, s, t) triples.

    A coherent matrix is recognized by the exact certificate of
    `stabilize`, by either route.  Otherwise every cell, in color order,
    goes to the composition kernel, which names a violated triple for each cell
    whose codes differ from the previous cell of its color; the first
    five distinct triples are returned.  The matrix must be square with
    nonnegative ids (`CoherentConfiguration`'s conditions).  The kernel's
    tables are sized by the largest id, so ids at or above the cell count
    are first compacted in order; the triples name the caller's ids.
    """
    M = np.asarray(checked_colors(colors), dtype=np.int64)
    ids = None
    if M.size and M.max() >= M.size:
        ids, _, compact = color_classes(M)
        M = compact.reshape(M.shape)
    if _is_coherent(M):
        return []
    violations = []
    cells = cells_by_color(M)
    for triple in _composition_mismatches(M, cells):
        if ids is not None:
            triple = tuple(int(ids[c]) for c in triple)
        if triple not in violations:
            violations.append(triple)
            if len(violations) >= _MAX_REPORT:
                break
    return violations
