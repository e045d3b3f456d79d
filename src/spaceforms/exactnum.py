"""Exact arithmetic in the cyclotomic field Q(zeta_120).

Every character value, quaternion coordinate and inner product in this
package lives in Q(zeta) with zeta = exp(2*pi*i/120).  The conductor 120
is the lcm of all element orders occurring in the binary polyhedral
groups (1, 2, 3, 4, 5, 6, 8, 10), so a single field covers everything.

A value is stored as a residue modulo the irreducible polynomial
Phi_120(x) of degree phi(120) = 32, with one common integer denominator
for the whole coefficient vector.  The representation is always fully
reduced, so equality is plain coefficient comparison and hashing is
cheap.  Values add, subtract and multiply among themselves, but divide
by rationals (int or Fraction) only: nothing in the package needs the
inverse of an irrational value, so none is provided.  `trace_form`
evaluates the trace form Tr(conj(a) b) on the integer coefficients
alone, for sums that are known to be rational.  Floating point
only ever appears through `embed_float`, which is for display and
diagnostics.

`reduce_mod_p` maps Q(zeta) to GF(p), p = PRIME = 241, the smallest
prime with 120 | p - 1, by zeta -> z for a z of order exactly 120 mod p.
x^120 - 1 has 120 distinct roots mod p (p does not divide 120), and
those of order 120 are the roots of Phi_120, so the map is a ring
homomorphism on every value whose denominator p does not divide.
Complex conjugation, zeta -> zeta^-1, becomes z -> z^-1.  The character
tables are derived over GF(p), and the projector oracle counts there.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from math import gcd
from operator import mul

# The exact rational scalar type used throughout the package.
Rational = Fraction

CONDUCTOR = 120


def _cyclotomic_poly(n: int, _cache: dict = {}) -> list[int]:
    """Integer coefficient list of Phi_n(x), computed by exact division
    of x^n - 1 by the lower cyclotomic polynomials."""
    if n in _cache:
        return _cache[n]
    poly = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            poly = _int_polydiv(poly, _cyclotomic_poly(d))
    _cache[n] = poly
    return poly


def _int_polydiv(a: list[int], b: list[int]) -> list[int]:
    """Exact division of integer polynomials (remainder must be zero)."""
    a = list(a)
    db = len(b) - 1
    lead = b[-1]
    out = [0] * (len(a) - db)
    for i in range(len(a) - 1, db - 1, -1):
        c = a[i]
        if c == 0:
            continue
        q, r = divmod(c, lead)
        if r:
            raise ArithmeticError("non-exact polynomial division")
        out[i - db] = q
        for j in range(db + 1):
            a[i - db + j] -= q * b[j]
    if any(a[:db]):
        raise ArithmeticError("non-exact polynomial division")
    return out


_PHI = _cyclotomic_poly(CONDUCTOR)
DEGREE = len(_PHI) - 1
if DEGREE != 32:
    raise ArithmeticError(f"Phi_120 has degree {DEGREE}, expected 32")


def _power_rows() -> list[tuple[int, ...]]:
    """rows[k] = coefficient vector of x^k mod Phi_120, k = 0..119."""
    rows: list[list[int]] = []
    for k in range(DEGREE):
        r = [0] * DEGREE
        r[k] = 1
        rows.append(r)
    for k in range(DEGREE, CONDUCTOR):
        prev = rows[k - 1]
        r = [0] * DEGREE
        for i in range(DEGREE - 1):
            r[i + 1] = prev[i]
        top = prev[DEGREE - 1]
        if top:
            for i in range(DEGREE):
                r[i] -= top * _PHI[i]
        rows.append(r)
    return [tuple(r) for r in rows]


_ROWS = _power_rows()

# sanity: zeta^120 == 1 in the reduced representation
_check = list(_ROWS[CONDUCTOR - 1])
_top = _check[DEGREE - 1]
_check = [0] + _check[: DEGREE - 1]
if _top:
    for _i in range(DEGREE):
        _check[_i] -= _top * _PHI[_i]
if _check != [1] + [0] * (DEGREE - 1):
    raise ArithmeticError("power-row table is inconsistent")

_ZPOW = [cmath.exp(2j * cmath.pi * k / CONDUCTOR) for k in range(CONDUCTOR)]

# Tr(zeta^d) for |d| < DEGREE: the trace of multiplication by zeta^d on the
# power basis, whose column i is the row of zeta^(d+i).  It is the
# Ramanujan sum c_120(d), which vanishes unless 4 | d.
_TRACES = {d: sum(_ROWS[(d + i) % CONDUCTOR][i] for i in range(DEGREE))
           for d in range(1 - DEGREE, DEGREE)}
if any(t for d, t in _TRACES.items() if d % 4) or _TRACES[0] != DEGREE:
    raise ArithmeticError("trace table is inconsistent")
# _TRACE_ROWS[i][m] = Tr(zeta^(j - i)) for j = i % 4 + 4 m, the only j
# with a nonzero trace against zeta^-i
_TRACE_ROWS = tuple(tuple(_TRACES[j - i] for j in range(i % 4, DEGREE, 4))
                    for i in range(DEGREE))


def _normalized(num: list[int], den: int) -> tuple[tuple[int, ...], int]:
    if den < 0:
        num = [-x for x in num]
        den = -den
    g = den
    for x in num:
        g = gcd(g, x)
        if g == 1:
            break
    if g > 1:
        num = [x // g for x in num]
        den //= g
    if not any(num):
        den = 1
    return tuple(num), den


class CycloNum:
    """An element of Q(zeta_120), immutable and hashable.

    A length-32 integer vector `num` over a common positive denominator
    `den`: the coefficient of zeta^i is the Rational num[i]/den.
    """

    __slots__ = ("num", "den", "_hash")

    def __init__(self, num: tuple[int, ...], den: int = 1, _normalize: bool = True):
        if _normalize:
            num, den = _normalized(list(num), den)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):
        raise AttributeError("CycloNum is immutable")

    # -- constructors ------------------------------------------------

    @staticmethod
    def from_rational(q) -> "CycloNum":
        q = Fraction(q)
        num = [0] * DEGREE
        num[0] = q.numerator
        return CycloNum(tuple(num), q.denominator, _normalize=False)

    @staticmethod
    def zeta(k: int) -> "CycloNum":
        """zeta_120 ** k, already reduced."""
        return CycloNum(_ROWS[k % CONDUCTOR], 1, _normalize=False)

    # -- queries -----------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.num)

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        return Fraction(self.num[0], self.den)

    def as_integer(self) -> int:
        q = self.as_rational()
        if q.denominator != 1:
            raise ValueError(f"{self} is not an integer")
        return q.numerator

    # -- arithmetic --------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, CycloNum):
            return other
        if isinstance(other, (int, Fraction)):
            return CycloNum.from_rational(other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return other
        da, db = self.den, other.den
        num = [x * db + y * da for x, y in zip(self.num, other.num)]
        return CycloNum(tuple(num), da * db)

    __radd__ = __add__

    def __neg__(self):
        return CycloNum(tuple(-x for x in self.num), self.den, _normalize=False)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return other
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            q = Fraction(other)
            return CycloNum(tuple(x * q.numerator for x in self.num),
                            self.den * q.denominator)
        if not isinstance(other, CycloNum):
            return NotImplemented
        acc = [0] * (2 * DEGREE - 1)
        bnum = other.num
        for i, ai in enumerate(self.num):
            if ai:
                for j, bj in enumerate(bnum):
                    if bj:
                        acc[i + j] += ai * bj
        out = list(acc[:DEGREE])
        for k in range(DEGREE, 2 * DEGREE - 1):
            c = acc[k]
            if c:
                row = _ROWS[k]
                for i in range(DEGREE):
                    if row[i]:
                        out[i] += c * row[i]
        return CycloNum(tuple(out), self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            q = Fraction(other)
            if q == 0:
                raise ZeroDivisionError("division by zero")
            return CycloNum(tuple(x * q.denominator for x in self.num),
                            self.den * q.numerator)
        return NotImplemented

    # -- Galois action -----------------------------------------------

    def galois(self, k: int) -> "CycloNum":
        """Apply the automorphism zeta -> zeta^k; k must be a unit mod 120."""
        if gcd(k, CONDUCTOR) != 1:
            raise ValueError(f"zeta -> zeta^{k} is not an automorphism "
                             f"(gcd({k}, {CONDUCTOR}) != 1)")
        out = [0] * DEGREE
        for i, c in enumerate(self.num):
            if c:
                row = _ROWS[(i * k) % CONDUCTOR]
                for j in range(DEGREE):
                    if row[j]:
                        out[j] += c * row[j]
        return CycloNum(tuple(out), self.den)

    def conjugate(self) -> "CycloNum":
        return self.galois(-1)

    # -- embedding and display ---------------------------------------

    def to_complex(self) -> complex:
        z = 0j
        for i, c in enumerate(self.num):
            if c:
                z += c * _ZPOW[i]
        return z / self.den

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return other
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((self.num, self.den))
            object.__setattr__(self, "_hash", h)
        return h

    def __repr__(self):
        if self.is_rational():
            return str(Fraction(self.num[0], self.den))
        terms = []
        for i, c in enumerate(self.num):
            if not c:
                continue
            if i == 0:
                terms.append(str(c))
            elif c == 1:
                terms.append(f"z{i}")
            elif c == -1:
                terms.append(f"-z{i}")
            else:
                terms.append(f"{c}*z{i}")
        body = " + ".join(terms).replace("+ -", "- ")
        return body if self.den == 1 else f"({body})/{self.den}"


ZERO = CycloNum.from_rational(0)
ONE = CycloNum.from_rational(1)


def root_of_unity(m: int, k: int = 1) -> CycloNum:
    """zeta_m ** k as an element of Q(zeta_120); m must divide 120."""
    if m <= 0 or CONDUCTOR % m != 0:
        raise ValueError(f"conductor error: {m} does not divide {CONDUCTOR}")
    return CycloNum.zeta((CONDUCTOR // m) * (k % m))


def galois(a: CycloNum, k: int) -> CycloNum:
    return a.galois(k)


def trace_form(a: CycloNum, b: CycloNum) -> int:
    """a.den * b.den * Tr(conj(a) b), an integer, with no field product:
    Tr(conj(a) b) = sum_{i,j} a_i b_j Tr(zeta^(j - i)), and only the j
    with 4 | j - i contribute.  A rational x equals Tr(x) / DEGREE."""
    bnum = b.num
    total = 0
    for i, ai in enumerate(a.num):
        if ai:
            total += ai * sum(map(mul, _TRACE_ROWS[i], bnum[i & 3::4]))
    return total


PRIME = 241   # the smallest prime p with CONDUCTOR | p - 1


def _primitive_root_of_unity(p: int) -> int:
    """The first power x^((p-1)/CONDUCTOR) mod p of order exactly
    CONDUCTOR = 2^3 * 3 * 5."""
    powers = (pow(x, (p - 1) // CONDUCTOR, p) for x in range(2, p))
    return next(z for z in powers
                if all(pow(z, CONDUCTOR // f, p) != 1 for f in (2, 3, 5)))


# z^i mod PRIME for i < DEGREE, z = _primitive_root_of_unity(PRIME)
_ZPOW_MOD_P = tuple(pow(_primitive_root_of_unity(PRIME), i, PRIME) for i in range(DEGREE))


def reduce_mod_p(a: CycloNum) -> int:
    """The image of a in GF(PRIME) under zeta -> z (see the module
    docstring); ValueError, from `pow`, when PRIME divides a.den."""
    return sum(map(mul, a.num, _ZPOW_MOD_P)) * pow(a.den, -1, PRIME) % PRIME


def embed_float(a: CycloNum) -> complex:
    """Double precision image of `a` under zeta -> exp(2*pi*i/120)."""
    return a.to_complex()


def from_rational(q) -> CycloNum:
    return CycloNum.from_rational(q)


def format_value(a: CycloNum) -> str:
    """Compact display: exact for rationals, complex to 4 places otherwise."""
    if a.is_rational():
        return str(a.as_rational())
    z = a.to_complex()
    if a == a.conjugate():
        return f"{z.real:.4f}"
    return f"{z.real:.4f}{z.imag:+.4f}i"
