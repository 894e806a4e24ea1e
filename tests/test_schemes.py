import numpy as np
import pytest

from cohcfg.errors import UsageError
from cohcfg.gf import Field
from cohcfg.perm import PermGroup
from cohcfg.schemes import (AffinePlanePoints, ExteriorPairPoints,
                            hollmann_large, hollmann_small, passman_scheme,
                            trace_label_check)


def test_exterior_pair_model():
    pts = ExteriorPairPoints(8)
    assert len(pts) == 28
    # representatives are conjugation-canonical and sorted by (b, a)
    ext = pts.ext
    for i, w in enumerate(pts.reps):
        assert w[1] != 0
        assert pts.point_of(w) == i
        assert pts.point_of(ext.conj(w)) == i


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
