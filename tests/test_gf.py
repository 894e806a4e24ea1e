import pytest

from cohcfg.errors import UsageError
from cohcfg.gf import Field, is_prime


# independent polynomial oracle: coefficient lists over GF(p), low degree
# first, reduction by long division

def oracle_mul(f, g, p):
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] = (out[i + j] + a * b) % p
    return out


def oracle_mod(f, m, p):
    f = list(f)
    while len(f) >= len(m):
        c = f[-1] % p
        if c:
            shift = len(f) - len(m)
            for i, mc in enumerate(m):
                f[shift + i] = (f[shift + i] - c * mc) % p
        f.pop()
    while len(f) < len(m) - 1:
        f.append(0)
    return [c % p for c in f]


def code_of(coeffs, p):
    out = 0
    for c in reversed(coeffs):
        out = out * p + c
    return out


def coeffs_of(code, p, d):
    out = []
    for _ in range(d):
        out.append(code % p)
        code //= p
    return out


def power(F, a, k):
    """a^k by repeated F.mul; a negative exponent goes through F.inv."""
    if k < 0:
        a, k = F.inv(a), -k
    out = 1
    for _ in range(k):
        out = F.mul(out, a)
    return out


ORACLE_FIELDS = ([(2, d) for d in range(1, 8)] + [(3, d) for d in range(1, 5)]
                 + [(5, 1), (5, 2), (7, 1), (7, 2), (11, 1), (13, 1)])


@pytest.mark.parametrize("p,d", ORACLE_FIELDS)
def test_tables_against_polynomial_oracle(p, d):
    F = Field(p, d)
    q, m = F.q, list(F.modulus)
    polys = [coeffs_of(a, p, d) for a in range(q)]
    plus = [[code_of([(x + y) % p for x, y in zip(fa, fb)], p) for fb in polys]
            for fa in polys]
    times = [[code_of(oracle_mod(oracle_mul(fa, fb, p), m, p), p) for fb in polys]
             for fa in polys]
    assert F._add.tolist() == plus
    assert F._mul.tolist() == times
    assert [F.neg(a) for a in range(q)] == [plus[a].index(0) for a in range(q)]
    assert [F.inv(a) for a in range(1, q)] == [times[a].index(1) for a in range(1, q)]
    pth = []
    for a in range(q):
        y = 1
        for _ in range(p):
            y = times[y][a]
        pth.append(y)
    assert F._frob.tolist() == pth
    for a in range(q):
        # a + a^p + ... + a^(p^(d-1)) lies in GF(p), the codes below p
        t, y = 0, a
        for _ in range(d):
            t, y = plus[t][y], pth[y]
        assert t < p and F.trace(a) == t

    def order(g):
        k, y = 1, g
        while y != 1:
            y, k = times[y][g], k + 1
        return k
    assert F.primitive_element() == min(g for g in range(1, q) if order(g) == q - 1)


def test_char2_addition_is_xor():
    F = Field(2, 3)
    alpha = 2
    assert F.add(alpha, alpha) == 0
    for a in range(F.q):
        for b in range(F.q):
            assert F.add(a, b) == a ^ b


def test_gf8_multiplication_against_polynomial_oracle():
    F = Field(2, 3)
    assert F.modulus == (1, 1, 0, 1)
    m = list(F.modulus)
    for a in range(F.q):
        for b in range(F.q):
            fa, fb = coeffs_of(a, 2, 3), coeffs_of(b, 2, 3)
            expect = code_of(oracle_mod(oracle_mul(fa, fb, 2), m, 2), 2)
            assert F.mul(a, b) == expect
    # alpha * alpha^2 reduces to alpha + 1
    assert F.mul(2, 4) == 3


def test_gf9_multiplicative_order():
    F = Field(3, 2)
    for g in range(1, 9):
        assert power(F, g, 8) == 1


def test_inverse_and_zero_division():
    for F in (Field(2, 4), Field(5, 1), Field(3, 2)):
        for a in range(1, F.q):
            assert F.mul(a, F.inv(a)) == 1
        with pytest.raises(ZeroDivisionError):
            F.inv(0)
        with pytest.raises(ZeroDivisionError):
            power(F, 0, -1)


def test_traces_gf8():
    F = Field(2, 3)
    assert F.trace(0) == 0
    assert F.trace(1) == 1
    # alpha + alpha^2 + alpha^4 via the oracle
    m = list(F.modulus)
    sq = lambda c: code_of(oracle_mod(oracle_mul(coeffs_of(c, 2, 3),
                                                 coeffs_of(c, 2, 3), 2), m, 2), 2)
    alpha = 2
    assert F.trace(alpha) == alpha ^ sq(alpha) ^ sq(sq(alpha))
    assert F.trace(alpha) == 0


def test_trace_frobenius_invariance_exhaustive():
    for d in range(1, 7):
        F = Field(2, d)
        for x in range(F.q):
            assert F.trace(F.mul(x, x)) == F.trace(x)


def test_trace_zero_hyperplane():
    sizes = {3: 4, 4: 8, 5: 16}
    for d, size in sizes.items():
        F = Field(2, d)
        t0 = F.trace_zero()
        assert len(t0) == size
        assert 0 in t0
        assert t0 == sorted(t0)
        # additive subgroup of index 2, closed under squaring
        for x in t0:
            for y in t0:
                assert F.add(x, y) in t0
            assert F.mul(x, x) in t0
    with pytest.raises(UsageError):
        Field(3, 2).trace_zero()


def test_gf8_trace_zero_exact():
    assert Field(2, 3).trace_zero() == [0, 2, 4, 6]


def test_trace_zero_matches_the_scalar_trace():
    for d in range(3, 11):
        F = Field(2, d)
        t0 = F.trace_zero()
        assert t0 == [a for a in range(F.q) if F.trace(a) == 0]
        assert all(type(a) is int for a in t0)


def test_frobenius_is_automorphism():
    for F in (Field(2, 3), Field(3, 2), Field(2, 5)):
        for a in range(F.q):
            for b in range(F.q):
                assert F._frob[F.add(a, b)] == F.add(F._frob[a], F._frob[b])
                assert F._frob[F.mul(a, b)] == F.mul(F._frob[a], F._frob[b])
        x = list(range(F.q))
        for a in x:
            y = a
            for _ in range(F.d):
                y = int(F._frob[y])
            assert y == a


def test_fixed_moduli_are_verified_irreducible():
    assert Field(2, 4).modulus == (1, 1, 0, 0, 1)
    assert Field(2, 5).modulus == (1, 0, 1, 0, 0, 1)
    assert Field(3, 2).modulus == (1, 0, 1)
    for p, d in ((2, 3), (2, 4), (2, 5), (3, 2)):
        m = list(Field(p, d).modulus)
        for deg in range(1, d // 2 + 1):
            for low in range(p ** deg):
                divisor = coeffs_of(low, p, deg) + [1]
                assert any(oracle_mod(m, divisor, p)), (m, divisor)
    with pytest.raises(UsageError):
        Field(4, 1)


def test_element_wrapper_arithmetic():
    F = Field(5, 1)
    assert F.add(2, 4) == 1
    assert F.mul(2, 4) == 3
    assert F.mul(2, F.inv(4)) == 3
    assert power(F, 2, 4) == 1
    assert F._frob[2] == 2


# Frozen reference: the scalar model of GF(q^2) that built the exterior
# pair maps before they became table gathers, kept as it was so that
# tests/test_schemes.py can compare the gathers with it.

class QuadExtension:
    """GF(q^2) over GF(q), q = 2^d, modeled as pairs a + b*x with x^2 = x + nu.

    nu is the least trace-1 element of the base field, which makes
    x^2 + x + nu irreducible and the q-power conjugation the O(1) map
    (a, b) -> (a + b, b).
    """

    def __init__(self, base):
        if base.p != 2:
            raise UsageError("quadratic extension model requires characteristic 2")
        self.base = base
        self.q = base.q
        nu = next(a for a in range(self.q) if base.trace(a) == 1)
        self.nu = nu

    def add(self, u, v):
        F = self.base
        return (F.add(u[0], v[0]), F.add(u[1], v[1]))

    def conj(self, u):
        """q-power Frobenius over the base field: (a, b) -> (a+b, b)."""
        a, b = u
        return (self.base.add(a, b), b)

    def norm(self, u):
        """u * conj(u), an element of the base field."""
        a, b = u
        F = self.base
        return F.add(F.add(F.mul(a, a), F.mul(a, b)),
                     F.mul(F.mul(b, b), self.nu))

    def inv(self, u):
        if u == (0, 0):
            raise ZeroDivisionError("inversion of zero field element")
        F = self.base
        n_inv = F.inv(self.norm(u))
        a, b = self.conj(u)
        return (F.mul(a, n_inv), F.mul(b, n_inv))

    def frob2(self, u):
        """Squaring map of GF(q^2): (a, b) -> (a^2 + nu b^2, b^2)."""
        F = self.base
        a, b = u
        b2 = F.mul(b, b)
        return (F.add(F.mul(a, a), F.mul(b2, self.nu)), b2)

    def scalar_mul(self, c, u):
        F = self.base
        return (F.mul(c, u[0]), F.mul(c, u[1]))


# QuadExtension oracle: schoolbook product with x^2 = x + nu, and every
# element (a, b) of GF(q^2) in (b, a) order

def quad_mul(Q, u, v):
    # (a+bx)(c+dx) = ac + bd*nu + (ad+bc+bd) x
    F = Q.base
    a, b = u
    c, d = v
    bd = F.mul(b, d)
    lo = F.add(F.mul(a, c), F.mul(bd, Q.nu))
    hi = F.add(F.add(F.mul(a, d), F.mul(b, c)), bd)
    return (lo, hi)


def quad_elements(Q):
    return ((a, b) for b in range(Q.q) for a in range(Q.q))


def test_quad_extension_conjugation_and_norm():
    for d in (3, 4, 5):
        F = Field(2, d)
        Q = QuadExtension(F)
        assert F.trace(Q.nu) == 1
        fixed = 0
        for w in quad_elements(Q):
            assert Q.conj(Q.conj(w)) == w
            s = Q.add(w, Q.conj(w))
            assert s[1] == 0               # w + conj(w) in the base field
            assert Q.norm(w) < F.q         # norm lands in the base field
            if Q.conj(w) == w:
                fixed += 1
            if w != (0, 0):
                assert quad_mul(Q, w, Q.inv(w)) == (1, 0)
        assert fixed == F.q                # fixed points are exactly the base


def test_quad_extension_squaring():
    F = Field(2, 3)
    Q = QuadExtension(F)
    for w in quad_elements(Q):
        assert Q.frob2(w) == quad_mul(Q, w, w)


def test_is_prime():
    assert [n for n in range(20) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]
