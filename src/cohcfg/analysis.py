"""Structural theorem checks: automorphisms, schurity, separability, bounds.

The generic automorphism engine refines a doubled structure: two copies
of the configuration share one color palette, all cross pairs get a
single fresh color, and a candidate correspondence u -> v is imposed by
giving the diagonal cells (u, u) and (v', v') one shared new color.  Any
consistent bijection f extends to a permutation of the double that fixes
every initial class setwise, hence fixes every stable class setwise, so
after each stabilization the cell counts of every class must agree
between the two within-copy blocks and between the two cross blocks;
an imbalance prunes the branch, and a fully matched diagonal forces f,
which is then verified cell by cell.  Individualization order branches
on the largest unmatched diagonal class, candidates in point order.

There is one search per kind of bijection.  Point bijections come from
the generator `_DoubledSearch.leaves`; the automorphism generators and
`find_inducing_bijection` take its first result.  Color bijections come
from `cc.tensor_bijections`, which `algebraic_automorphisms` lists in
full.

Search nodes stabilize without the exact coherence certificate
(``stabilize(..., certify=False)``).  As in the individualization-
refinement framework of McKay and Piperno, "Practical graph isomorphism,
II" (J. Symb. Comput. 60, 2014), the refinement only has to be
isomorphism-invariant, and it is: `_normalize`, whose point split
labels a cell's row and column points by their fibers and hashed
multisets of (color, fiber) pairs, and every hash round compute a cell's
new class from color ids alone, with one set of weights for all cells
and points, so a permutation of the double that preserves the input
colors maps each class onto itself, even a class that a hash collision
left coarser than the closure.  Renumbering the classes (by code value,
by label value or by first appearance) keeps each of them.  The balance
pruning and the candidate lists are therefore sound on the uncertified
partition; a collision can only make the search visit more nodes, and
every leaf bijection is still verified cell by cell.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .cc import tensor_bijections
from .errors import ResourceLimitError, UsageError
from .gf import Field
from .perm import PermGroup
from .report import VerificationReport
from .wl import extend_points, require_stabilize_memory, stabilize

# time guards; memory is budgeted where `stabilize` and `tensor` allocate
SEPARABILITY_RANK_LIMIT = 10
BASE_EXACT_DEPTH_LIMIT = 4


# ---------------------------------------------------------------------------
# matching graph on the trace-zero hyperplane

@dataclass
class MatchingGraph:
    d: int
    vertices: list
    adjacency: np.ndarray   # boolean, indexed like `vertices`

    @property
    def edge_count(self):
        return int(self.adjacency.sum()) // 2


def matching_graph(d):
    """Graph on nonzero trace-zero elements, x ~ y iff Tr(xy) = 0.

    Returns (graph, connected flag, list of components).  The result is
    computed, never presumed: for d = 3 the graph turns out edgeless.
    """
    if not 3 <= d <= 13:
        raise UsageError("matching graph supported for 3 <= d <= 13")
    field = Field(2, d)
    vertices = [x for x in field.trace_zero() if x != 0]
    m = len(vertices)
    idx = np.asarray(vertices)
    adjacency = np.zeros((m, m), dtype=bool)
    for i, x in enumerate(vertices):
        adjacency[i] = field._trace[field._mul[x, idx]] == 0
    np.fill_diagonal(adjacency, False)
    seen = np.zeros(m, dtype=bool)
    components = []
    for start in range(m):
        if seen[start]:
            continue
        comp = np.zeros(m, dtype=bool)
        comp[start] = True
        frontier = np.array([start])
        while frontier.size:
            reach = adjacency[frontier].any(axis=0) & ~comp
            comp |= reach
            frontier = np.flatnonzero(reach)
        seen |= comp
        components.append([vertices[j] for j in np.flatnonzero(comp)])
    graph = MatchingGraph(d, vertices, adjacency)
    return graph, len(components) == 1, components


# ---------------------------------------------------------------------------
# automorphism groups

@dataclass
class AutGroup:
    """Automorphism group with the path that produced it.

    ``order_hint`` short-circuits the stabilizer chain when the order is
    known in closed form (the full symmetric group of a trivial scheme).
    """

    group: PermGroup
    method: str
    generators: list = field(default_factory=list)
    order_hint: int = None

    @property
    def order(self):
        if self.order_hint is not None:
            return self.order_hint
        return self.group.order()


def _verify_automorphism(cfg, f):
    f = np.asarray(f, dtype=np.int64)
    return np.array_equal(cfg.colors[np.ix_(f, f)], cfg.colors)


def automorphism_group(cfg):
    """Exact automorphism group of a configuration.

    Fast paths: a partly regular configuration determines every
    automorphism from the image of a regular point by following the
    valency-1 rows; the trivial scheme has the full symmetric group
    (method "known-group-confirmed").  Otherwise the doubled-structure
    search runs, its memory checked by `stabilize` on 2n points.
    """
    n = cfg.degree
    if cfg.is_trivial_scheme() and n >= 2:
        gens = [tuple([1, 0] + list(range(2, n)))]
        if n > 2:
            gens.append(tuple(list(range(1, n)) + [0]))
        return AutGroup(PermGroup(n, gens), "known-group-confirmed", gens,
                        order_hint=math.factorial(n))
    flag, regulars = cfg.is_partly_regular()
    if flag:
        gens = _partly_regular_automorphisms(cfg, regulars[0])
        return AutGroup(PermGroup(n, gens), "partly-regular-fastpath", gens)
    gens = _generic_automorphism_generators(cfg)
    return AutGroup(PermGroup(n, gens), "individualization-refinement", gens)


def _partly_regular_automorphisms(cfg, alpha):
    """All automorphisms, via matching-following from a regular point.

    An automorphism f maps row alpha onto a permutation of itself in row
    f(alpha), and alpha sees each color once, so f is pinned down by
    that image: f[argsort(M[alpha])] = argsort(M[f(alpha)]).  Every point
    whose sorted row equals alpha's is tried as the image, and each
    candidate is verified cell-wise.
    """
    M = cfg.colors
    rows = np.sort(M, axis=1)
    order = np.argsort(M[alpha])
    out = []
    for seed in np.flatnonzero((rows == rows[alpha]).all(axis=1)):
        f = np.empty(cfg.degree, dtype=np.int64)
        f[order] = np.argsort(M[seed])
        if _verify_automorphism(cfg, f):
            out.append(tuple(f.tolist()))
    return out


class _DoubledSearch:
    """Backtracking over the doubled structure, shared by the
    automorphism and induced-isomorphism searches."""

    def __init__(self, cfg, phi=None):
        self.cfg = cfg
        self.n = n = cfg.degree
        require_stabilize_memory(2 * n)   # before the double is built
        M = cfg.colors
        r = cfg.rank
        self.phi = np.arange(r) if phi is None else np.asarray(phi, dtype=np.int64)
        U = np.full((2 * n, 2 * n), r, dtype=np.int64)
        U[:n, :n] = M
        U[n:, n:] = np.argsort(self.phi)[M]   # copy 2 colored by phi^-1
        self.root = stabilize(U, certify=False)

    def _balanced(self, U):
        n = self.n
        r = int(U.max()) + 1
        c11 = np.bincount(U[:n, :n].ravel(), minlength=r)
        c22 = np.bincount(U[n:, n:].ravel(), minlength=r)
        if not np.array_equal(c11, c22):
            return False
        c12 = np.bincount(U[:n, n:].ravel(), minlength=r)
        c21 = np.bincount(U[n:, :n].ravel(), minlength=r)
        return np.array_equal(c12, c21)

    def _branch_point(self, U):
        """Least point of the largest copy-1 diagonal class with at least
        two points, or None when every class is a singleton."""
        d1 = U.diagonal()[:self.n]
        classes, first, counts = np.unique(d1, return_index=True,
                                           return_counts=True)
        big = counts >= 2
        if not big.any():
            return None
        best = np.lexsort((classes[big], -counts[big]))[0]
        return int(first[big][best])

    def _extract(self, U):
        """Forced bijection when every copy-1 diagonal class is a
        singleton: balance and the pure diagonal classes make copy 2's
        diagonal a permutation of copy 1's."""
        n = self.n
        d1 = U.diagonal()[:n]
        d2 = U.diagonal()[n:]
        f = np.empty(n, dtype=np.int64)
        f[np.argsort(d1)] = np.argsort(d2)
        return f

    def _verified(self, f):
        M = self.cfg.colors
        return np.array_equal(M[np.ix_(f, f)], self.phi[M])

    def _individualize(self, U, u, v):
        n = self.n
        W = U.copy()
        c = int(W.max()) + 1
        W[u, u] = c
        W[n + v, n + v] = c
        return stabilize(W, certify=False)

    def candidates(self, U, u):
        n = self.n
        cls = int(U[u, u])
        d2 = U.diagonal()[n:]
        return [int(v) for v in np.flatnonzero(d2 == cls)]

    def leaves(self, U):
        """Verified bijections below U, depth first, candidates in point
        order."""
        if not self._balanced(U):
            return
        u = self._branch_point(U)
        if u is None:
            f = self._extract(U)
            if self._verified(f):
                yield f
            return
        for v in self.candidates(U, u):
            yield from self.leaves(self._individualize(U, u, v))

    def identity_path(self):
        """States and branch points along the all-identity descent."""
        states, points = [], []
        U = self.root
        while True:
            u = self._branch_point(U)
            if u is None:
                return states, points
            states.append(U)
            points.append(u)
            U = self._individualize(U, u, u)


def _generic_automorphism_generators(cfg):
    """Generator search along the identity descent, deepest level first.

    At level k the earlier branch points are fixed pointwise.  Every
    generator found so far was found at a level >= k, so it fixes those
    points too and the generators span a subgroup of their stabilizer:
    a candidate image v of the branch point u that already lies in the
    orbit of u under them is skipped.  Each remaining candidate
    contributes at most one new generator.  The orbit minima are
    computed once per level and again after each new generator.
    """
    search = _DoubledSearch(cfg)
    states, points = search.identity_path()
    n = cfg.degree
    gens = []
    for k in reversed(range(len(points))):
        U, u = states[k], points[k]
        least = PermGroup(n, gens).orbit_minima()
        for v in search.candidates(U, u):
            if least[v] == least[u]:
                continue
            f = next(search.leaves(search._individualize(U, u, v)), None)
            if f is not None:
                gens.append(tuple(f.tolist()))
                least = PermGroup(n, gens).orbit_minima()
    return gens


# ---------------------------------------------------------------------------
# schurity and separability

def is_schurian(cfg):
    """cfg is schurian when re-deriving orbitals of aut(cfg) returns cfg."""
    rep = VerificationReport(claim="schurian")
    aut = automorphism_group(cfg)
    rep.witnesses["aut_order"] = aut.order
    rep.witnesses["method"] = aut.method
    re_derived = aut.group.orbitals()
    rep.require("orbitals-match", re_derived.same_partition(cfg))
    return rep


def _require_enumerable(cfg):
    """The rank guard of `algebraic_automorphisms`, which bounds time."""
    if cfg.rank > SEPARABILITY_RANK_LIMIT:
        raise ResourceLimitError(
            "algebraic automorphism enumeration guard: "
            f"rank {cfg.rank} > {SEPARABILITY_RANK_LIMIT}")


def algebraic_automorphisms(cfg):
    """All color bijections preserving the intersection tensor.

    Enumerated by `tensor_bijections` in lexicographic order, each color
    allowed onto the colors of its reflexivity and valency.  The transpose
    pairing needs no check of its own: c_{s s'}^{1} is nonzero exactly
    when s' = s*, so a tensor-preserving bijection that keeps reflexive
    colors reflexive also keeps transposes.  Guarded by rank, for time.
    """
    _require_enumerable(cfg)
    values = cfg.tensor().values
    refl = cfg.first_rows == cfg.first_cols
    v = cfg.valencies()
    allowed = (refl[:, None] == refl) & (v[:, None] == v)
    return list(tensor_bijections(values, values, allowed))


def find_inducing_bijection(cfg, phi):
    """Point bijection f with color(f a, f b) = phi(color(a, b)), or None."""
    search = _DoubledSearch(cfg, phi=phi)
    f = next(search.leaves(search.root), None)
    return None if f is None else tuple(int(x) for x in f)


def is_separable_small(cfg):
    """Separability certificate at desk scale.

    Partly regular configurations are schurian and separable because
    they are the orbital configurations of groups with a faithful
    regular orbit; they short-circuit without search.  Otherwise every
    algebraic automorphism is enumerated and certified to be induced by
    a point bijection found by the doubled-structure search, under the
    rank guard of `algebraic_automorphisms` and the budget of `stabilize`.
    """
    rep = VerificationReport(claim="separable")
    flag, _ = cfg.is_partly_regular()
    if flag:
        rep.witnesses["route"] = "partly-regular"
        rep.require("separable", True)
        return rep
    rep.witnesses["route"] = "aaut-enumeration"
    aauts = algebraic_automorphisms(cfg)
    rep.witnesses["aaut_order"] = len(aauts)
    for phi in aauts:
        if find_inducing_bijection(cfg, phi) is None:
            rep.require("induced", False, witness=phi)
            return rep
    rep.require("separable", True)
    return rep


# ---------------------------------------------------------------------------
# bounds

def check_bound_201444a(cfg):
    """Not partly regular implies (2k-1) c >= n, k the largest fiber."""
    rep = VerificationReport(claim="201444a")
    n = cfg.degree
    k = max(len(f) for f in cfg.fibers())
    _, c = cfg.indistinguishing_numbers()
    flag, _ = cfg.is_partly_regular()
    rep.witnesses.update({"n": n, "k": k, "c": c, "partly_regular": flag})
    rep.require("bound", flag or (2 * k - 1) * c >= n)
    return rep


def check_cor_423939b(cfg, t):
    """If (2 m_t - 1) c < n, two-point extensions at pairs of t are
    partly regular; hypothesis failure is reported, not failed."""
    rep = VerificationReport(claim="423939b", params={"t": t})
    mt = cfg.m_t(t)
    _, c = cfg.indistinguishing_numbers()
    n = cfg.degree
    rep.witnesses.update({"m_t": mt, "c": c, "n": n})
    if (2 * mt - 1) * c >= n:
        rep.witnesses["hypothesis"] = "not-met"
        return rep
    rep.witnesses["hypothesis"] = "met"
    a, b = cfg.first_pair(t)
    ext = extend_points(cfg, [a, b])
    flag, _ = ext.is_partly_regular()
    rep.require("extension-partly-regular", flag, witness=(a, b))
    return rep


# ---------------------------------------------------------------------------
# base number

def base_number(cfg, mode="greedy"):
    """Fewest individualized points whose extension is discrete.

    greedy: repeatedly individualize the least point of a largest fiber;
    an upper bound.  exact: breadth-first over tuple sizes, one
    representative tuple per orbit of the automorphism group, whose
    search's ResourceLimitError propagates.
    """
    if mode not in ("greedy", "exact"):
        raise UsageError(f"unknown base number mode {mode!r}")
    if cfg.is_discrete():
        return 0
    if mode == "greedy":
        cur = cfg
        count = 0
        while not cur.is_discrete():
            fiber = max(cur.fibers(), key=len)
            cur = extend_points(cur, [int(fiber[0])])
            count += 1
        return count
    aut = automorphism_group(cfg).group
    for size in range(1, BASE_EXACT_DEPTH_LIMIT + 1):
        for tup in _tuple_representatives(aut, (), size):
            if extend_points(cfg, tup).is_discrete():
                return size
    raise ResourceLimitError(
        f"exact base number guard: base exceeds {BASE_EXACT_DEPTH_LIMIT}")


def _tuple_representatives(aut, prefix, size):
    if size == 0:
        yield prefix
        return
    stab = aut.stabilizer_prefix(prefix) if prefix else aut
    least = stab.orbit_minima()
    for p in range(aut.degree):
        if p in prefix or least[p] != p:
            continue
        yield from _tuple_representatives(aut, prefix + (p,), size - 1)
