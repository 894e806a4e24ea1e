"""Arithmetic in small finite fields GF(p^d), with trace maps.

Elements are canonical integer codes: the base-p digits of a code are the
coefficients of the residue polynomial, lowest degree first, so codes run
bijectively over 0..p^d-1.  Everything downstream indexes points by these
codes, which is what makes file outputs bit-exact.

Fields here are desk scale (p^d <= a few thousand).  One builder tabulates
every field, whatever its characteristic: addition digit by digit, then
the exp/log tables of the least primitive element, from which products,
inverses, the Frobenius map and the trace are read off (the textbook
construction; Lidl & Niederreiter, *Finite Fields*, 2nd ed., 1997).
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

    Construction tabulates the field in int16 (int32 from 2^15 codes on).
    The addition table grows one digit position at a time (digitwise
    sums mod p, which is xor when p = 2).  Multiplying every code by x
    follows from the modulus, and the least code whose powers run
    through all q - 1 nonzero codes is the primitive element.
    Its exp/log tables give the product, inverse and Frobenius tables,
    and the trace sums the Frobenius orbit with the addition table.
    """

    def __init__(self, p, d):
        if not is_prime(p):
            raise UsageError(f"characteristic {p} is not prime")
        if d < 1:
            raise UsageError(f"extension degree {d} must be >= 1")
        self.p = p
        self.d = d
        self.q = q = p ** d
        self.modulus = self._least_irreducible(p, d)
        dtype = np.int16 if q < 2 ** 15 else np.int32

        # digit k of a code becomes the most significant one of the table
        # on p^(k+1) codes: add[(a, a'), (b, b')] = (a + b mod p, add[a', b'])
        digit_add = (np.add.outer(np.arange(p), np.arange(p)) % p).astype(dtype)
        add = digit_add
        for k in range(1, d):
            low = p ** k
            add = (digit_add[:, None, :, None] * low
                   + add[None, :, None, :]).reshape(p * low, p * low)

        # x c = (c without its top digit t) shifted up, plus -t times the
        # modulus below its leading term
        codes = np.arange(q)
        top, rest = np.divmod(codes, q // p)
        reduction = np.array([sum(-t * c % p * p ** i
                                  for i, c in enumerate(self.modulus[:d]))
                              for t in range(p)])
        times_x = add[rest * p, reduction[top]]

        def times(g):
            # c -> g c for all codes: the sum over g's digits g_i of g_i x^i c
            out, power = np.zeros(q, dtype), codes
            for g_i in _code_to_poly(g, p, d):
                for _ in range(g_i):
                    out = add[out, power]
                power = times_x[power]
            return out

        # powers g^0 .. g^(q-2) by doubling; g is primitive when 1 is
        # reached only at g^0
        for g in range(1, q):
            exp, step = np.ones(1, np.intp), times(g)
            while exp.size < q - 1:
                exp, step = np.concatenate([exp, step[exp]]), step[step]
            exp = exp[:q - 1]
            if np.count_nonzero(exp == 1) == 1:
                break
        self._primitive = g
        log = np.zeros(q, np.intp)
        log[exp] = np.arange(q - 1)
        exp = np.concatenate([exp, exp])   # exp of log sums below 2(q - 1)

        # row blocks keep the index temporaries near 2^20 entries
        mul = np.zeros((q, q), dtype)
        rows = max(1, 2 ** 20 // q)
        for r in range(1, q, rows):
            mul[r:r + rows, 1:] = exp[log[r:r + rows, None] + log[1:]]
        inv = np.zeros(q, dtype)
        inv[1:] = exp[q - 1 - log[1:]]
        frob = np.zeros(q, dtype)
        frob[1:] = exp[p * log[1:] % (q - 1)]
        trace, x = np.zeros(q, dtype), codes
        for _ in range(d):
            trace = add[trace, x]
            x = frob[x]
        self._add = add
        self._neg = mul[p - 1]   # p - 1 is the code of -1
        self._mul = mul
        self._inv = inv
        self._frob = frob
        self._trace = trace

    @staticmethod
    def _least_irreducible(p, d):
        for low in range(p ** d):
            f = _code_to_poly(low, p, d) + (1,)
            if _is_irreducible(f, p):
                return f
        raise AssertionError("no irreducible polynomial found")

    # scalar operations on integer codes

    def add(self, a, b):
        return int(self._add[a, b])

    def neg(self, a):
        return int(self._neg[a])

    def mul(self, a, b):
        return int(self._mul[a, b])

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inversion of zero field element")
        return int(self._inv[a])

    def trace(self, a):
        """Absolute trace a + a^p + ... + a^(p^(d-1)), a code in GF(p)."""
        return int(self._trace[a])

    def primitive_element(self):
        """Least code generating the multiplicative group."""
        return self._primitive

    def trace_zero(self):
        """All trace-zero elements, sorted by code.  Characteristic 2 only."""
        if self.p != 2:
            raise UsageError("trace-zero hyperplane is used in characteristic 2 only")
        return np.flatnonzero(self._trace == 0).tolist()

    def __repr__(self):
        return f"Field(p={self.p}, d={self.d}, modulus={self.modulus})"

