"""Exact coherence certificate from the products of a few colors.

`certificate` decides whether a color matrix M with r colors on n points,
whose transposes close, is coherent, without sorting composition codes.
`wl._is_coherent` asks it where r^2 <= n; the sort kernel of `wl` decides
where it answers None.  The two routes share no code.  `wl` imports this
module on first use: where no bytecode is cached, an import compiles the
module, and that compile's memory stays in the peak RSS of a process
that never takes the route.

The argument.  Let W be the span of the adjacency matrices A_u.  First
the diagonal must be pure, each color's rows and columns must lie in one
fiber each, and each color must have one row count on its fiber (the
diagonal of A_s A_s*).  Then irreflexive colors s are taken in ascending
valency, and A_s A_t is checked to be constant on every class, for all
t.  Let B be the algebra generated by the chosen colors and the
reflexive ones.  Each generator maps W into W, so B W ⊆ W, and B ⊆ W
because I ∈ W.  So if dim B = r, then B = W and W W ⊆ W: the matrix is
coherent (closure arguments as in Evdokimov and Ponomarenko,
"Separability number and schurity number of coherent configurations",
Electron. J. Combin. 7 (2000), R31).

The computation.  The values p^u_st of the products at each class's least
cell give the maps L_s of left multiplication in the basis A_u, and dim B
is the dimension of the span of the identity's coordinates closed under
the L_s (a Krylov space, `_Span`), computed modulo a prime.  A rank over
GF(p) is never above the rank over Q, so a deficit only means that the
next color is added; a color whose coordinates lie in the span already is
skipped.  A product that is not constant on a class rejects at once.  The
products are exact integer sums that pack several colors t into one
entry (`_left_products`); one t per s follows from the row sums.

Fallbacks.  Where the products' work would pass the sort kernel's
estimated cost, where the closure stays short of r, or where the
diagonal is not pure or an id is unused, the answer is None.  The
schemes of the paper have few colors on many points, and one or two
colors generate their algebras.  Where r^2 > n (point extensions, and the
claims' certificates on at most 17 points), the sorted codes are cheaper
and this module is not asked.

Memory.  Above its input the route holds per-color arrays, the counts of
every color in every row (n r entries), the packed matrix, each row's
cells of s and gathered row blocks.
"""

import math

import numpy as np

_PRIME = 8388593  # below 2^23: the modulus of the ranks
# bytes the products gather in the time the sort kernel spends on one code,
# per log2 n (single-threaded: 1.3-2.6 at 81-625 points, 1.7 at 496)
_CODE_WORK = 2
_BATCH_BYTES = 1 << 19  # a block of gathered rows stays in a core's L2 cache


def certificate(M, r, tau):
    """Coherence of M, whose transposes close (``tau[t]`` the transpose
    of t) and whose ids lie below r, from the products of a few colors:
    True or False, or None where the sorted codes must decide.  The proof
    is in the module docstring.

    Valencies, fibers and each class's least cell come from the counts
    of every color in every row; column b holds t where row b holds
    tau[t].  Irreflexive colors s are taken in ascending valency (then
    id); `_left_products` gives their maps L_s, and `_Span` closes the
    identity's coordinates under them and the fiber projections.  The
    work is counted in the bytes that the products gather, and the sort
    kernel's is estimated as `_CODE_WORK` log2 n for each of the n codes
    of the n^2 / 2 cells it lists: a route that falls back has spent
    about as long as the sort.
    """
    n = M.shape[0]
    diag = np.diagonal(M)
    reflexive = np.zeros(r, dtype=bool)
    reflexive[diag] = True
    counts = _line_counts(M, r)
    rows = counts > 0
    if not rows.any(axis=0).all() or counts[:, reflexive].sum() != n:
        return None             # an unused id, or a diagonal color off the diagonal
    cols = rows[:, tau]
    first_row = rows.argmax(axis=0)
    first = first_row, (M[first_row] == np.arange(r)[:, None]).argmax(axis=1)
    source, target = diag[first[0]], diag[first[1]]
    # A_x A_t and A_t A_x (x reflexive) are constant on t only if the rows
    # of t, and its columns, lie in one fiber
    if (rows & (diag[:, None] != source)).any() or (cols & (diag[:, None] != target)).any():
        return False
    # (A_s A_s*)[a, a] counts the cells of s in row a: it is constant on
    # the fiber where s starts, the valency of s
    valency = counts.max(axis=0)
    if (np.where(diag[:, None] == source, counts, valency) != valency).any():
        return False
    del counts, rows, cols
    span = _Span(reflexive.astype(np.int64), _PRIME)      # the identity
    for x in np.flatnonzero(reflexive):
        span.close(np.diag(source == x).astype(np.int64))
    budget, work = _CODE_WORK * math.log2(n) * n ** 3 / 2, 0
    for s in np.argsort(valency, kind="stable"):
        if reflexive[s] or span.holds(s):
            continue            # A_s lies in B already (modulo p)
        # the colors t that start where s ends; A_s A_t is 0 for the others
        colors = np.flatnonzero(~reflexive & (source == target[s]))
        colors, last = colors[:-1], colors[-1]
        fiber = np.flatnonzero(diag == source[s])
        cells = int(valency[s])
        digits = 1              # colors per product: (cells + 1)^digits <= 2^63
        while (cells + 1) ** (digits + 1) <= 1 << 63:
            digits += 1
        work += -(-colors.size // digits) * 8 * fiber.size * cells * n
        if work > budget:
            return None
        L = _left_products(M, s, colors, cells, digits, first, fiber)
        if L is None:
            return False
        # summed over those t and the reflexive x where s ends, A_s A_t is
        # n_s on the rows where s starts, and A_s A_x = A_s
        L[:, last] = cells * (source == source[s]) - L.sum(axis=1)
        L[s, last] -= 1
        L[s, target[s]] = 1
        if span.close(L) == r:
            return True
    return None                 # short of r modulo p


def _line_counts(M, r):
    """counts[a, t]: the cells of color t in row a, counted in row blocks."""
    n = M.shape[0]
    counts = np.empty((n, r), dtype=np.int64)
    step = max(1, n // 8)
    for a in range(0, n, step):
        block = M[a:a + step] + np.arange(min(step, n - a))[:, None] * r
        counts[a:a + step] = np.bincount(block.ravel(),
                                         minlength=block.size // n * r).reshape(-1, r)
    return counts


def _left_products(M, s, colors, cells, digits, first, fiber):
    """L[u, t] = p^u_st, the value of A_s A_t on class u, for the listed
    colors t, as an r x r int64 array with the other columns 0; None if
    one of these products is not constant on some class.

    Each product packs ``digits`` colors into W = w[M], w[t] = base^j
    for the j-th of them with base = ``cells`` + 1, and sums the rows
    W[g] over the cells (a, g) of s: row a of A_s W.  It adds at most
    ``cells`` powers below base^digits <= 2^63, so each entry holds the
    counts (A_s A_t)[a, b] as base-ary digits, exactly.  The sums are
    int64 gathers, not a BLAS product, whose work buffer would stay
    resident in a process that runs no other.  Rows outside the
    ``fiber`` where s starts are 0, as are the values of the classes
    there, so only the fiber's rows are formed, each listing its cells
    of s padded to ``cells`` with W's zero row n.  ``first`` holds each
    class's least cell, where the values are read.
    """
    n, r = M.shape[0], len(first[0])
    L = np.zeros((r, r), dtype=np.int64)
    if colors.size == 0:
        return L
    rows = max(1, n // 8)
    ends = np.full((fiber.size, cells), n, dtype=np.int32 if n < 1 << 31 else np.int64)
    for k in range(0, fiber.size, rows):
        a, g = np.nonzero(M[fiber[k:k + rows]] == s)
        start = np.searchsorted(a, a)           # the first cell of each row
        ends[k + a, np.arange(a.size) - start] = g
    step = max(1, _BATCH_BYTES // (8 * cells * n))
    W = np.zeros((n + 1, n), dtype=np.int64)
    for j in range(0, colors.size, digits):
        pack = colors[j:j + digits]
        w = np.zeros(r, dtype=np.int64)
        w[pack] = [(cells + 1) ** i for i in range(pack.size)]
        for a in range(0, n, rows):
            W[a:min(a + rows, n)] = w[M[a:a + rows]]
        value = ((M[first[0]] == s) * W[:n, first[1]].T).sum(axis=1)
        for k in range(0, fiber.size, step):
            product = W[ends[k:k + step]].sum(axis=1)
            if not np.array_equal(product, value[M[fiber[k:k + step]]]):
                return None
        for t in pack:
            value, L[:, t] = np.divmod(value, cells + 1)
    return L


class _Span:
    """A subspace of GF(p)^r grown from one vector and kept closed under
    the maps added to it, with a reduced echelon form for membership.
    Residues stay below p < 2^23, so r products of two sum below 2^63
    for r < 2^17."""

    def __init__(self, start, p):
        self.p = p
        self.echelon = np.zeros((0, start.size), dtype=np.int64)
        self.pivots = []
        self.basis = []         # [vector, number of maps applied to it]
        self.maps = []
        self._add(start)

    def _reduce(self, v):
        return (v - (v[self.pivots, None] * self.echelon).sum(axis=0)) % self.p

    def holds(self, k):
        """Whether the k-th unit vector lies in the span."""
        unit = np.zeros(self.echelon.shape[1], dtype=np.int64)
        unit[k] = 1
        return not self._reduce(unit).any()

    def _add(self, v):
        p = self.p
        v = self._reduce(v)
        nonzero = np.flatnonzero(v)
        if nonzero.size:
            c = int(nonzero[0])
            v = v * pow(int(v[c]), -1, p) % p
            self.echelon = np.vstack([(self.echelon - self.echelon[:, c, None] * v) % p, v])
            self.pivots.append(c)
            self.basis.append([v, 0])

    def close(self, L):
        """Add the map L and return the dimension of the closed span."""
        self.maps.append(L % self.p)
        for entry in self.basis:            # the list grows as it is read
            v, applied = entry
            for m in self.maps[applied:]:
                self._add((m * v).sum(axis=1) % self.p)
            entry[1] = len(self.maps)
        return len(self.basis)
