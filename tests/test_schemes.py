from types import SimpleNamespace

import numpy as np
import pytest

from cohcfg.errors import UsageError
from cohcfg.gf import Field
from cohcfg.perm import PermGroup
from cohcfg.schemes import (AffinePlanePoints, ExteriorPairPoints,
                            hollmann_large, hollmann_small, passman_scheme,
                            trace_label_check)
from test_gf import QuadExtension, quad_elements, quad_mul


class ReferenceExteriorPairPoints:
    """Frozen reference: the exterior pair points as they were built from
    the scalar QuadExtension model, one Python call per point per map."""

    def __init__(self, q):
        d = q.bit_length() - 1
        self.d = d
        self.q = q
        self.base = Field(2, d)
        self.ext = QuadExtension(self.base)
        reps = []
        for b in range(1, q):
            for a in range(q):
                if a <= self.base.add(a, b):
                    reps.append((a, b))
        reps.sort(key=lambda ab: (ab[1], ab[0]))
        self.reps = reps
        self.index = {}
        for i, ab in enumerate(reps):
            self.index[ab] = i
            self.index[self.ext.conj(ab)] = i

    def __len__(self):
        return len(self.reps)

    def point_of(self, w):
        return self.index[w]

    def permutation_from_map(self, f):
        """Point permutation induced by a conjugation-equivariant map."""
        images = [self.point_of(f(w)) for w in self.reps]
        return tuple(images)

    def moebius_generators(self):
        ext, base = self.ext, self.base
        zeta = base.primitive_element()
        one = (1, 0)

        def shift(w):
            return ext.add(w, one)

        def scale(w):
            return ext.scalar_mul(zeta, w)

        def invert(w):
            return ext.inv(w)

        return [self.permutation_from_map(f) for f in (shift, scale, invert)]

    def frobenius_permutation(self):
        return self.permutation_from_map(self.ext.frob2)


def test_exterior_pair_model():
    pts = ReferenceExteriorPairPoints(8)
    assert len(pts) == 28
    # representatives are conjugation-canonical and sorted by (b, a)
    ext = pts.ext
    for i, w in enumerate(pts.reps):
        assert w[1] != 0
        assert pts.point_of(w) == i
        assert pts.point_of(ext.conj(w)) == i


@pytest.mark.parametrize("q", [8, 16, 32, 64, 128])
def test_exterior_pair_gathers_match_the_reference(q):
    pts, ref = ExteriorPairPoints(q), ReferenceExteriorPairPoints(q)
    assert len(pts) == len(ref)
    assert list(zip(pts.a.tolist(), pts.b.tolist())) == ref.reps
    got = pts.moebius_generators() + [pts.frobenius_permutation()]
    want = ref.moebius_generators() + [ref.frobenius_permutation()]
    assert got == want
    assert all(type(x) is int for g in got for x in g)


@pytest.mark.parametrize("q", [8, 16, 32])
def test_exterior_pair_maps_against_schoolbook_products(q):
    # GF(q^2) from the schoolbook product alone: nu by its trace
    # a + a^2 + ... + a^(q/2), zeta by its order, conjugation as w^q,
    # inverses by search
    F = Field(2, q.bit_length() - 1)

    def trace(a):
        out, x = 0, a
        for _ in range(F.d):
            out, x = F.add(out, x), F.mul(x, x)
        return out

    def order(a):
        k, x = 1, a
        while x != 1:
            k, x = k + 1, F.mul(x, a)
        return k

    Q = SimpleNamespace(base=F, q=q, nu=min(a for a in range(q) if trace(a) == 1))
    zeta = min(a for a in range(1, q) if order(a) == q - 1)

    def conj(w):
        for _ in range(F.d):
            w = quad_mul(Q, w, w)
        return w

    reps = [w for w in quad_elements(Q) if w[1] and w[0] < conj(w)[0]]
    point = {}
    for i, w in enumerate(reps):
        point[w] = point[conj(w)] = i
    nonzero = [v for v in quad_elements(Q) if v != (0, 0)]
    maps = [lambda w: (F.add(w[0], 1), w[1]),
            lambda w: quad_mul(Q, (zeta, 0), w),
            lambda w: next(v for v in nonzero if quad_mul(Q, w, v) == (1, 0)),
            lambda w: quad_mul(Q, w, w)]
    pts = ExteriorPairPoints(q)
    assert len(pts) == len(reps)
    assert pts.moebius_generators() + [pts.frobenius_permutation()] == \
        [tuple(point[f(w)] for w in reps) for f in maps]


def test_moebius_generators_act_on_exterior_points():
    pts = ExteriorPairPoints(16)
    for g in pts.moebius_generators() + [pts.frobenius_permutation()]:
        assert sorted(g) == list(range(len(pts)))


@pytest.mark.parametrize("q,degree,rank,valency",
                         [(8, 28, 4, 9), (16, 120, 8, 17), (32, 496, 16, 33)])
def test_hollmann_large_parameters(q, degree, rank, valency, hollmann8,
                                   hollmann16, hollmann32):
    cfg, G = {8: hollmann8, 16: hollmann16, 32: hollmann32}[q]
    assert cfg.degree == degree
    assert cfg.rank == rank
    assert cfg.is_symmetric()
    irref = [s for s in range(cfg.rank) if not cfg.is_reflexive(s)]
    assert all(int(cfg.valencies()[s]) == valency for s in irref)
    assert cfg.is_pseudocyclic() == (True, valency)
    assert G.order() == q * (q * q - 1)
    assert G.point_stabilizer(0).order() == 2 * (q + 1)


def test_hollmann_large_rejects_bad_q():
    for q in (4, 10, 12, 0):
        with pytest.raises(UsageError):
            hollmann_large(q)


def test_hollmann_small_d3_is_trivial(small8):
    cfg, G = small8
    assert cfg.degree == 28
    assert cfg.rank == 2
    assert cfg.is_trivial_scheme()
    assert G.order() == 3 * 504


def test_hollmann_small_d5(small32):
    cfg, G = small32
    assert cfg.degree == 496
    assert cfg.rank == 4
    assert cfg.is_pseudocyclic() == (True, 165)
    assert G.order() == 5 * 32 * (32 * 32 - 1)
    assert G.point_stabilizer(0).order() == 2 * 5 * 33


def test_hollmann_small_rejects_composite_degree():
    with pytest.raises(UsageError):
        hollmann_small(16)   # d = 4 is not prime
    with pytest.raises(UsageError):
        hollmann_small(10)


@pytest.mark.parametrize("q", [3, 5, 7, 9, 11, 13])
def test_passman_parameters(q, passman_schemes):
    cfg, G, Y = passman_schemes[q]
    assert cfg.degree == q * q
    assert cfg.rank == 1 + (q + 1) // 2
    assert cfg.is_pseudocyclic() == (True, 2 * (q - 1))
    assert cfg.indistinguishing_numbers()[1] == 2 * q - 3
    assert G.order() == 4 * q * q * (q - 1)
    assert G.point_stabilizer(0).order() == 4 * (q - 1)
    # the one-parameter subgroup scheme has all irreflexive valencies q-1
    irref = [s for s in range(Y.rank) if not Y.is_reflexive(s)]
    assert all(int(Y.valencies()[s]) == q - 1 for s in irref)
    assert Y.is_pseudocyclic() == (True, q - 1)


def test_passman_rejects_bad_q():
    for q in (2, 4, 8, 1, 15, 54):
        with pytest.raises(UsageError) as err:
            passman_scheme(q)
        assert str(err.value) == f"q = {q} must be an odd prime power, at least 3"


# reference point maps: the scalar double loops over the plane, x outer

def reference_affine_perm(F, q, a, b, c):
    """(x, y) -> (a x + b, y/a + c)."""
    a_inv = F.inv(a)
    images = []
    for x in range(q):
        base = F.add(F.mul(a, x), b) * q
        for y in range(q):
            images.append(base + F.add(F.mul(a_inv, y), c))
    return tuple(images)


def reference_linear_perm(F, q, m00, m01, m10, m11):
    """(x, y) -> (m00 x + m01 y, m10 x + m11 y)."""
    images = []
    for x in range(q):
        for y in range(q):
            u = F.add(F.mul(m00, x), F.mul(m01, y))
            v = F.add(F.mul(m10, x), F.mul(m11, y))
            images.append(u * q + v)
    return tuple(images)


@pytest.mark.parametrize("q", [3, 5, 7, 9, 11, 13, 25, 27])
def test_plane_generators_match_reference_loops(q):
    pts = AffinePlanePoints(q)
    F = pts.field
    zeta = F.primitive_element()
    minus = F.neg(1)
    expect_h = [reference_affine_perm(F, q, zeta, 0, 0),
                reference_affine_perm(F, q, 1, 1, 0),
                reference_affine_perm(F, q, 1, 0, 1)]
    expect_d = [reference_linear_perm(F, q, minus, 0, 0, 1),
                reference_linear_perm(F, q, 0, 1, 1, 0)]
    got_h = pts.frobenius_group_generators()
    got_d = pts.signed_swap_generators()
    assert got_h == expect_h
    assert got_d == expect_d
    for g in got_h + got_d:
        assert all(type(i) is int for i in g)


@pytest.mark.parametrize("q", [3, 5, 7, 9, 11, 13])
def test_one_parameter_group_is_frobenius(q):
    pts = AffinePlanePoints(q)
    H = PermGroup(len(pts), pts.frobenius_group_generators())
    assert H.order() == q * q * (q - 1)
    assert not H.orbit_minima().any()   # transitive
    stab = H.point_stabilizer(0)
    # semiregular away from the fixed point: only the identity fixes two points
    seen = {0}
    for p in range(1, len(pts)):
        if p in seen:
            continue
        orbit = stab.orbit(p)
        seen.update(orbit)
        assert len(orbit) == stab.order()


@pytest.mark.parametrize("q", [3, 5, 7, 9, 11, 13])
def test_passman_orbit_formulas_verbatim(q):
    pts = AffinePlanePoints(q)
    F = pts.field
    H = PermGroup(len(pts), pts.frobenius_group_generators())
    stab_origin = H.point_stabilizer(0)
    stab_ones = H.point_stabilizer(q + 1)
    rng = np.random.default_rng(q)
    for _ in range(5):
        gamma = int(rng.integers(0, q * q))
        x, y = gamma // q, gamma % q
        expect_origin = {F.mul(a, x) * q + F.mul(F.inv(a), y)
                         for a in range(1, q)}
        got = set(stab_origin.orbit(gamma))
        assert got == expect_origin
        one = 1
        expect_ones = set()
        for a in range(1, q):
            inv_a = F.inv(a)
            u = F.add(F.mul(a, x), F.add(one, F.neg(a)))
            v = F.add(F.mul(inv_a, y), F.add(one, F.neg(inv_a)))
            expect_ones.add(u * q + v)
        assert set(stab_ones.orbit(gamma)) == expect_ones


def test_trace_labeling(hollmann8, hollmann16, hollmann32):
    for q, fixture in ((8, hollmann8), (16, hollmann16), (32, hollmann32)):
        rep = trace_label_check(q)
        assert rep.passed
        bij = rep.witnesses["bijection"]
        cfg, _ = fixture
        field = Field(2, q.bit_length() - 1)
        t0 = field.trace_zero()
        assert sorted(bij) == t0
        assert bij[0] == 0   # zero labels the reflexive class
        # independent re-verification of the biconditional off the
        # reflexive target
        values = cfg.tensor().values
        for x in t0:
            for y in t0:
                for z in t0:
                    if z == 0:
                        continue
                    want = (field.trace(field.mul(x, z)) == 0
                            and field.add(field.add(x, y), z) == 0)
                    got = int(values[bij[z], bij[x], bij[y]]) == 1
                    assert want == got
        # reflexive target: a value of 1 would force y = x; here the value
        # is the valency q+1 when y = x and 0 otherwise, so no triple with
        # target s_0 ever has value 1
        for x in t0:
            for y in t0:
                if x == 0 or y == 0:
                    continue
                value = int(values[bij[0], bij[x], bij[y]])
                assert value == ((q + 1) if x == y else 0)
                assert value != 1


def test_trace_labeling_guard():
    with pytest.raises(UsageError):
        trace_label_check(64)


def test_hollmann_small_reuses_the_large_scheme(monkeypatch):
    hollmann_large(8)
    painted = []
    orbitals = PermGroup.orbitals

    def counted(group):
        painted.append(group.degree)
        return orbitals(group)

    monkeypatch.setattr(PermGroup, "orbitals", counted)
    hollmann_small(8)
    assert painted == [28]
    assert hollmann_large(8)[1].generators == ExteriorPairPoints(8).moebius_generators()
