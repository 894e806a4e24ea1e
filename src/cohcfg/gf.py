"""Arithmetic in small finite fields GF(p^d), with trace maps.

Elements are canonical integer codes: the base-p digits of a code are the
coefficients of the residue polynomial, lowest degree first, so codes run
bijectively over 0..p^d-1.  Everything downstream indexes points by these
codes, which is what makes file outputs bit-exact.

Fields here are desk scale (p^d <= a few thousand), so add/mul tables are
built eagerly at construction.
"""

import numpy as np

from .errors import UsageError


def is_prime(n):
    if n < 2:
        return False
    i = 2
    while i * i <= n:
        if n % i == 0:
            return False
        i += 1
    return True


def _poly_trim(f):
    while f and f[-1] == 0:
        f = f[:-1]
    return f


def _poly_mul(f, g, p):
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] = (out[i + j] + a * b) % p
    return _poly_trim(tuple(out))


def _poly_mod(f, m, p):
    # m monic
    f = list(f)
    dm = len(m) - 1
    for i in range(len(f) - 1, dm - 1, -1):
        c = f[i] % p
        if c:
            for j in range(dm + 1):
                f[i - dm + j] = (f[i - dm + j] - c * m[j]) % p
    return _poly_trim(tuple(c % p for c in f[:dm]))


def _code_to_poly(code, p, d):
    coeffs = []
    for _ in range(d):
        coeffs.append(code % p)
        code //= p
    return tuple(coeffs)


def _poly_to_code(f, p):
    code = 0
    for c in reversed(f):
        code = code * p + c
    return code


def _is_irreducible(f, p):
    """Exhaustive check by trial division against all lower-degree monics."""
    d = len(f) - 1
    if d < 1 or f[-1] != 1:
        return False
    if d == 1:
        return True
    if f[0] == 0:  # divisible by x
        return False
    for deg in range(1, d // 2 + 1):
        for low in range(p ** deg):
            g = _code_to_poly(low, p, deg) + (1,)
            if not _poly_mod(f, g, p):
                return False
    return True


class Field:
    """GF(p^d) in a fixed polynomial basis.

    The modulus is the monic irreducible polynomial of degree d whose
    non-leading coefficient code (sum c_i p^i over i < d) is least, so
    the basis, and every code downstream, is reproducible.
    """

    def __init__(self, p, d):
        if not is_prime(p):
            raise UsageError(f"characteristic {p} is not prime")
        if d < 1:
            raise UsageError(f"extension degree {d} must be >= 1")
        self.p = p
        self.d = d
        self.q = p ** d
        self.modulus = self._least_irreducible(p, d)
        self._build_tables()

    @staticmethod
    def _least_irreducible(p, d):
        for low in range(p ** d):
            f = _code_to_poly(low, p, d) + (1,)
            if _is_irreducible(f, p):
                return f
        raise AssertionError("no irreducible polynomial found")

    def _build_tables(self):
        if self.p == 2:
            self._build_tables_char2()
        else:
            self._build_tables_generic()
        self._finish_tables()

    def _build_tables_char2(self):
        # codes ARE bit vectors: addition is xor, and multiplication rows
        # are xor-combinations of the shifted-and-reduced basis rows
        d, q = self.d, self.q
        mod_int = _poly_to_code(self.modulus, 2)
        cols = np.arange(q, dtype=np.int64)
        basis = np.empty((d, q), dtype=np.int64)
        basis[0] = cols
        for i in range(1, d):
            v = basis[i - 1] << 1
            v = np.where(v >= q, v ^ mod_int, v)
            basis[i] = v
        mul = np.zeros((q, q), dtype=np.int64)
        for a in range(q):
            acc = mul[a]
            bits = a
            i = 0
            while bits:
                if bits & 1:
                    acc ^= basis[i]
                bits >>= 1
                i += 1
        self._add = None
        self._neg = cols
        self._mul = mul

    def _build_tables_generic(self):
        p, d, q = self.p, self.d, self.q
        polys = [_code_to_poly(c, p, d) for c in range(q)]
        add = np.zeros((q, q), dtype=np.int64)
        mul = np.zeros((q, q), dtype=np.int64)
        for a in range(q):
            fa = polys[a]
            for b in range(a, q):
                fb = polys[b]
                s = tuple((x + y) % p for x, y in zip(fa, fb))
                add[a, b] = add[b, a] = _poly_to_code(s, p)
                m = _poly_mod(_poly_mul(fa, fb, p), self.modulus, p)
                mul[a, b] = mul[b, a] = _poly_to_code(m, p)
        self._add = add
        self._mul = mul
        neg = np.zeros(q, dtype=np.int64)
        for a in range(q):
            neg[a] = _poly_to_code(tuple((-c) % p for c in polys[a]), p)
        self._neg = neg

    def _finish_tables(self):
        d, q = self.d, self.q
        mul = self._mul
        inv = np.zeros(q, dtype=np.int64)
        ones = np.argwhere(mul == 1)
        inv[ones[:, 0]] = ones[:, 1]
        self._inv = inv
        if self.p == 2:
            frob = mul.diagonal().copy()
        else:
            frob = np.array([self.pow(a, self.p) for a in range(q)])
        self._frob = frob
        trace = np.zeros(q, dtype=np.int64)
        x = np.arange(q)
        for _ in range(d):
            if self.p == 2:
                trace ^= x
            else:
                trace = self._add[trace, x]
            x = frob[x]
        self._trace = trace

    # scalar operations on integer codes

    def add(self, a, b):
        if self.p == 2:
            return a ^ b
        return int(self._add[a, b])

    def neg(self, a):
        return int(self._neg[a])

    def mul(self, a, b):
        return int(self._mul[a, b])

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inversion of zero field element")
        return int(self._inv[a])

    def pow(self, a, k):
        if a == 0:
            if k < 0:
                raise ZeroDivisionError("inversion of zero field element")
            return 0 if k else 1
        k = k % (self.q - 1)
        out, base = 1, a
        while k:
            if k & 1:
                out = self.mul(out, base)
            base = self.mul(base, base)
            k >>= 1
        return out

    def trace(self, a):
        """Absolute trace a + a^p + ... + a^(p^(d-1)), a code in GF(p)."""
        return int(self._trace[a])

    def element_order(self, a):
        if a == 0:
            raise UsageError("zero has no multiplicative order")
        k, x = 1, a
        while x != 1:
            x = self.mul(x, a)
            k += 1
        return k

    def primitive_element(self):
        """Least code generating the multiplicative group."""
        for a in range(2, self.q):
            if self.element_order(a) == self.q - 1:
                return a
        if self.q == 2:
            return 1
        raise AssertionError("no primitive element found")

    def trace_zero(self):
        """All trace-zero elements, sorted by code.  Characteristic 2 only."""
        if self.p != 2:
            raise UsageError("trace-zero hyperplane is used in characteristic 2 only")
        return [a for a in range(self.q) if self._trace[a] == 0]

    def __repr__(self):
        return f"Field(p={self.p}, d={self.d}, modulus={self.modulus})"


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
