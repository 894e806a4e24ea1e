"""Constructors for the concrete scheme families.

Two families act on the q(q-1)/2 unordered conjugate pairs {w, w^q} of
exterior points w in GF(q^2) \\ GF(q), q = 2^d: the fractional-linear
group generated by w -> w+1, w -> zw, w -> 1/w (z a primitive element of
GF(q)), and its extension by the Frobenius w -> w^2.  The third family
acts on the affine plane over GF(q), q odd, through maps
(x, y) -> (a x + b, y/a + c) together with the eight signed coordinate
permutations.

Every point map of the three families is one numpy gather over the
addition, product and inverse tables of GF(q): the image of every point
at once, then its index.  All point indexings are canonical in the
field element codes, so the emitted color matrices are bit-exact
across runs.  `hollmann_large` and `passman_scheme` build each q once
per process and share the result.  `hollmann_small` reuses the large
scheme and builds the rest on each call, so that its 496-point scheme
is freed with its caller.
"""

import functools

import numpy as np

from .cc import algebraic_fusion, induced_color_action, tensor_bijections
from .errors import UsageError
from .gf import Field
from .perm import PermGroup
from .report import VerificationReport


def _check_even_q(q):
    d = q.bit_length() - 1
    if q < 8 or q != 1 << d:
        raise UsageError(f"q = {q} must be a power of 2, at least 8")
    return d


class ExteriorPairPoints:
    """The q(q-1)/2 conjugate pairs {w, w^q}, canonically indexed.

    GF(q^2) is modeled as the pairs a + b x over GF(q) with x^2 = x + nu,
    nu the least code of trace 1: x^2 + x + c has a root in GF(q) exactly
    when Tr(c) = 0, so x^2 + x + nu is irreducible, and conjugation
    w -> w^q is (a, b) -> (a + b, b).  The exterior points are those with
    b != 0.  A pair {(a, b), (a + b, b)} is represented by the member
    with the smaller code of a, and points are sorted by (b, a) codes;
    ``a`` and ``b`` hold the representatives' codes, and ``point[b, a]``
    is the point of either member of a pair.  A point map is the image
    of every representative, gathered from the base field's tables, read
    through ``point``.
    """

    def __init__(self, q):
        self.field = Field(2, _check_even_q(q))
        add = self.field._add
        b, a = np.divmod(np.arange(q, q * q), q)
        keep = a <= add[a, b]
        self.a, self.b = a[keep], b[keep]
        self.point = np.zeros((q, q), np.intp)
        self.point[self.b, self.a] = np.arange(self.a.size)
        self.point[self.b, add[self.a, self.b]] = np.arange(self.a.size)
        self.nu = np.flatnonzero(self.field._trace == 1)[0]

    def __len__(self):
        return self.a.size

    def _permutation(self, a, b):
        """The point permutation sending each representative to the pair
        of a + b x."""
        return tuple(self.point[b, a].tolist())

    def moebius_generators(self):
        """w -> w + 1, w -> zeta w and w -> 1/w = conj(w) / N(w), with the
        norm N(a + b x) = a^2 + ab + nu b^2 in GF(q)."""
        add, mul, a, b = self.field._add, self.field._mul, self.a, self.b
        zeta = self.field.primitive_element()
        n_inv = self.field._inv[add[add[mul[a, a], mul[a, b]],
                                    mul[self.nu, mul[b, b]]]]
        return [self._permutation(add[a, 1], b),
                self._permutation(mul[zeta, a], mul[zeta, b]),
                self._permutation(mul[add[a, b], n_inv], mul[b, n_inv])]

    def frobenius_permutation(self):
        """w -> w^2, that is (a, b) -> (a^2 + nu b^2, b^2)."""
        add, mul, a, b = self.field._add, self.field._mul, self.a, self.b
        b2 = mul[b, b]
        return self._permutation(add[mul[a, a], mul[self.nu, b2]], b2)


@functools.cache
def hollmann_large(q):
    """Orbital scheme of the fractional-linear action on exterior pairs.

    Degree q(q-1)/2, rank q/2, symmetric, pseudocyclic of valency q+1;
    these are asserted on the constructed scheme.  Built once per q and
    shared by every caller, `hollmann_small` included.
    """
    points = ExteriorPairPoints(q)
    group = PermGroup(len(points), points.moebius_generators())
    cfg = group.orbitals()
    _assert_scheme(cfg, degree=q * (q - 1) // 2, rank=q // 2, valency=q + 1,
                   symmetric=True)
    return cfg, group


def hollmann_small(q):
    """Orbital scheme of the Frobenius-extended action, built two ways.

    Route (a): orbitals of the group with the Frobenius generator added.
    Route (b): algebraic fusion of the large scheme under the color
    action induced by the Frobenius point map.  Both must give the same
    partition; the fused route's map must have order d.
    """
    d = _check_even_q(q)
    if d not in (3, 5, 7):
        raise UsageError(f"small scheme needs prime degree d in (3, 5, 7); got d = {d}")
    large, moebius = hollmann_large(q)
    frob = ExteriorPairPoints(q).frobenius_permutation()
    group = PermGroup(large.degree, moebius.generators + [frob])
    cfg = group.orbitals()
    phi = induced_color_action(large, frob)
    fused, fmap = algebraic_fusion(large, [phi])
    if fmap.order != d:
        raise AssertionError(f"Frobenius color action has order {fmap.order}, expected {d}")
    if not cfg.same_partition(fused):
        raise AssertionError("orbital route and fusion route disagree")
    _assert_scheme(cfg, degree=q * (q - 1) // 2, rank=None,
                   valency=None, symmetric=None)
    return cfg, group


def _assert_scheme(cfg, degree, rank, valency, symmetric):
    if degree is not None and cfg.degree != degree:
        raise AssertionError(f"degree {cfg.degree}, expected {degree}")
    if rank is not None and cfg.rank != rank:
        raise AssertionError(f"rank {cfg.rank}, expected {rank}")
    if not cfg.is_homogeneous():
        raise AssertionError("scheme is not homogeneous")
    if valency is not None:
        v = cfg.valencies()
        irref = [s for s in range(cfg.rank) if not cfg.is_reflexive(s)]
        if any(int(v[s]) != valency for s in irref):
            raise AssertionError(f"valencies {sorted(set(int(v[s]) for s in irref))}, "
                                 f"expected all {valency}")
    if symmetric and not cfg.is_symmetric():
        raise AssertionError("scheme is not symmetric")
    ok, _ = cfg.is_pseudocyclic()
    if not ok:
        raise AssertionError("scheme is not pseudocyclic")


class AffinePlanePoints:
    """Points of the affine plane GF(q)^2, indexed by x*q + y codes."""

    def __init__(self, q):
        pe = None if q % 2 == 0 or q < 3 else _prime_power(q)
        if pe is None:
            raise UsageError(f"q = {q} must be an odd prime power, at least 3")
        self.field = Field(*pe)
        self.q = q

    def __len__(self):
        return self.q * self.q

    def affine_perm(self, m00, m01, m10, m11, b, c):
        """(x, y) -> (m00 x + m01 y + b, m10 x + m11 y + c) as a point
        permutation, gathered from the field tables over the whole plane."""
        add, mul, q = self.field._add, self.field._mul, self.q
        x, y = np.ogrid[:q, :q]
        u = add[add[mul[m00, x], mul[m01, y]], b].astype(np.int64)
        v = add[add[mul[m10, x], mul[m11, y]], c]
        return tuple((u * q + v).ravel().tolist())

    def frobenius_group_generators(self):
        """Generators of the one-parameter affine maps (x, y) -> (a x + b,
        y/a + c): (a, b, c) among (zeta, 0, 0), (1, 1, 0), (1, 0, 1)."""
        zeta = self.field.primitive_element()
        return [self.affine_perm(zeta, 0, 0, self.field.inv(zeta), 0, 0),
                self.affine_perm(1, 0, 0, 1, 1, 0),
                self.affine_perm(1, 0, 0, 1, 0, 1)]

    def signed_swap_generators(self):
        """Generators of the eight +-1 monomial matrices."""
        minus = self.field.neg(1)
        return [self.affine_perm(minus, 0, 0, 1, 0, 0),   # diag(-1, 1)
                self.affine_perm(0, 1, 1, 0, 0, 0)]       # antidiagonal swap


def _prime_power(q):
    """(p, e) with q = p^e for the least prime factor p of q >= 2, or None
    when q has a second prime factor."""
    p = next(p for p in range(2, q + 1) if q % p == 0)
    e = 0
    while q % p == 0:
        q //= p
        e += 1
    return (p, e) if q == 1 else None


@functools.cache
def passman_scheme(q):
    """Orbital scheme of the monomial affine action on GF(q)^2.

    Returns (scheme, group, one-parameter part): the scheme of the full
    group, the group itself, and the orbital scheme of its one-parameter
    (point-regular-stabilizer) subgroup.  Asserts valency 2(q-1),
    pseudocyclicity, and the fusion identity: merging the subgroup
    scheme's colors under the order-4 (Klein four) color action of the
    signed permutations reproduces the full scheme.
    """
    points = AffinePlanePoints(q)
    h_gens = points.frobenius_group_generators()
    d_gens = points.signed_swap_generators()
    H = PermGroup(len(points), h_gens)
    G = PermGroup(len(points), h_gens + d_gens)
    cfg = G.orbitals()
    frob_part = H.orbitals()
    _assert_scheme(cfg, degree=q * q, rank=None, valency=2 * (q - 1),
                   symmetric=None)
    phi_gens = [induced_color_action(frob_part, g) for g in d_gens]
    fused, fmap = algebraic_fusion(frob_part, phi_gens)
    # the diagonal sign flip negates the product invariant of the subgroup
    # orbitals and the coordinate swap exchanges the two axis classes, so
    # the induced color group is the Klein four-group
    if fmap.order != 4:
        raise AssertionError(f"signed-permutation color action has order "
                             f"{fmap.order}, expected 4")
    if not fused.same_partition(cfg):
        raise AssertionError("fusion identity failed: fused subgroup scheme "
                             "differs from the full scheme")
    return cfg, G, frob_part


def trace_label_check(q):
    """Search for a color labeling by trace-zero field elements.

    Looks for a bijection x -> s_x from the trace-zero hyperplane onto
    the colors of the large scheme on exterior pairs, with s_0 the
    reflexive color, such that for z != 0

        c_{s_x s_y}^{s_z} = 1  iff  Tr(x z) = 0 and x + y + z = 0.

    Triples with reflexive target are excluded from the biconditional:
    there c_{s_x s_y}^{s_0} is n_{s_x} [x = y], never 1, while the
    right-hand side holds at (x, x, 0); the check asserts that shape
    separately.  The labeling is the first bijection `tensor_bijections`
    yields between the 0/1 tensor of the right-hand side, indexed by the
    sorted trace-zero elements, and the tensor of "c = 1", both with the
    reflexive target cleared and 0 sent to the reflexive color.  Returns
    a report carrying the bijection found.
    """
    if q not in (8, 16, 32):
        raise UsageError("trace labeling is checked for q in (8, 16, 32)")
    rep = VerificationReport(claim="250720c", params={"q": q})
    cfg, _ = hollmann_large(q)
    values = cfg.tensor().values
    field = Field(2, q.bit_length() - 1)
    t0 = field.trace_zero()
    colors = list(range(cfg.rank))
    reflexive = [s for s in colors if cfg.is_reflexive(s)][0]
    irreflexive = [s for s in colors if s != reflexive]

    # reflexive-target shape: c_{s s'}^{1} = n_s [s' = s*], so it is never 1
    # here (valency q+1 > 1); recorded once, independent of the bijection
    k = q + 1
    transpose = cfg.transpose_map()
    refl_ok = all(
        int(values[reflexive, r, s]) == (k if s == transpose[r] else 0)
        for r in irreflexive for s in irreflexive)
    rep.require("reflexive-target-shape", refl_ok)

    # A[c, a, b]: the right-hand side for elements t0[a], t0[b], t0[c];
    # B[s, r, r']: c_{r r'}^{s} == 1; reflexive targets are left out of both
    t = np.asarray(t0)
    A = ((field._trace[field._mul[t[:, None], t]] == 0)[:, :, None]
         & ((t[:, None, None] ^ t[:, None] ^ t) == 0))
    A[0] = False
    B = values == 1
    B[reflexive] = False
    allowed = np.zeros((len(t0), cfg.rank), dtype=bool)
    allowed[0, reflexive] = True
    allowed[1:, irreflexive] = True
    phi = next(tensor_bijections(A, B, allowed), None)
    rep.require("bijection-found", phi is not None)
    if phi is not None:
        rep.witnesses["bijection"] = dict(zip(t0, phi))
    return rep

