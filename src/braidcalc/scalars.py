"""Exact arithmetic in cyclotomic fields Q(zeta_m).

The whole workbench runs over one cyclotomic field fixed at configuration
time.  A scalar is a vector of rational coefficients in the power basis
1, z, ..., z^(phi(m)-1), reduced modulo the m-th cyclotomic polynomial, so
equality is coefficient-wise and every operation is exact.  No floating
point appears anywhere.

Coefficients are integer-first and canonical: after every constructor and
every +, -, *, /, inv and **, a coefficient that equals an integer is a
Python int (`canon`), so an integral Q never spreads into later sums, and
only a coefficient outside the integers is a rational Q (gmpy2.mpq when
available, fractions.Fraction otherwise; both arbitrary precision with
positive denominator).  Every division goes through Q, never int / int, so
no coefficient can become a float.  Products and inverses are closed forms
in degrees 1 and 2 (m = 1, 2, 3, 4, 6).  Inside the library vectors hold raw
coefficients (`CycloField.raw`): the rational in degree 1, the pair in
degree 2, the scalar above.  Each field interns its scalars
(`CycloField.box`): the constructors and `linalg` box through one table,
one object per integral coefficient tuple, a value with a fraction fresh.

The field order is capped at MAX_FIELD_ORDER, so that building a field
stays well under a second.

For exact linear algebra done modulo a prime first, `Reduction` maps a
scalar to F_p under each of the phi(m) embeddings zeta -> omega_j, p = 1
(mod m), and interpolates phi(m) residues back to power-basis coefficients
mod p; `crt` and `rational_lift` (Monagan's maximal-quotient rational
reconstruction, ISSAC 2004) take those coefficients back to Q.
"""

from __future__ import annotations

from math import gcd
from operator import add, neg

from .errors import BadParams, DivisionByZero, FieldMismatch, RootOrderMismatch

try:
    from gmpy2 import mpq as Q
except ImportError:  # pragma: no cover - exercised only without gmpy2
    from fractions import Fraction as Q

QZERO = 0
QONE = 1
_RATIONAL = (int, type(Q(1)))

# largest supported m; the slowest field up to it, m = 997 (degree 996),
# builds in about 0.05 s on a 2-core x86 machine
MAX_FIELD_ORDER = 1000


def canon(c):
    """c as an int when integral (an mpz or integral Q included), else c."""
    if c.__class__ is int:
        return c
    return int(c) if c.denominator == 1 else c


def euler_phi(m: int) -> int:
    n, result, p = m, m, 2
    while p * p <= n:
        if n % p == 0:
            while n % p == 0:
                n //= p
            result -= result // p
        p += 1
    if n > 1:
        result -= result // n
    return result


# -- dense polynomial helpers over Q, coefficient lists low -> high -----------

def _poly_trim(p):
    while p and p[-1] == 0:
        p.pop()
    return p


def _poly_mul(p, q):
    out = [QZERO] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a == 0:
            continue
        for j, b in enumerate(q):
            out[i + j] += a * b
    return _poly_trim(out)


def _poly_divmod(num, den):
    num = list(num)
    den = _poly_trim(list(den))
    if not den:
        raise DivisionByZero("polynomial division by zero")
    quot = [QZERO] * max(0, len(num) - len(den) + 1)
    inv_lead = canon(Q(1) / den[-1])
    for k in range(len(num) - len(den), -1, -1):
        coeff = num[k + len(den) - 1] * inv_lead
        if coeff != 0:
            quot[k] = coeff
            for j, b in enumerate(den):
                num[k + j] -= coeff * b
    return (_poly_trim([canon(c) for c in quot]),
            _poly_trim([canon(c) for c in num]))


_CYCLOTOMIC: dict[int, tuple] = {}


def cyclotomic_polynomial(m: int) -> tuple:
    """Phi_m over Q via the defining division (X^m - 1) / prod_{d|m, d<m} Phi_d.

    Memoized, so a field order reuses the polynomials of its divisors.
    """
    poly = _CYCLOTOMIC.get(m)
    if poly is None:
        num = [-QONE] + [QZERO] * (m - 1) + [QONE]
        den = [QONE]
        for d in range(1, m):
            if m % d == 0:
                den = _poly_mul(den, cyclotomic_polynomial(d))
        quot, rem = _poly_divmod(num, den)
        assert not rem, "X^m - 1 must be divisible by the proper cyclotomic factors"
        poly = _CYCLOTOMIC[m] = tuple(quot)
    return poly


class CycloField:
    """The field Q(zeta_m), presented as Q[X] / (Phi_m)."""

    def __init__(self, m: int):
        if m < 1:
            raise BadParams("field order must be a positive integer")
        if m > MAX_FIELD_ORDER:
            raise BadParams("field order %d exceeds the limit %d"
                            % (m, MAX_FIELD_ORDER))
        self.order = m
        poly = cyclotomic_polynomial(m)
        self.cyclotomic_polynomial = poly
        self.degree = len(poly) - 1
        assert self.degree == euler_phi(m)
        # reduction table: X^(degree + j) mod Phi_m for j = 0 .. degree - 2,
        # built by shifting and folding back the overflowing top coefficient
        self._reduction = []
        if self.degree > 1:
            table = [[-c for c in poly[:-1]]]
            for _ in range(self.degree - 2):
                prev = table[-1]
                top = prev[-1]
                row = [QZERO] + prev[:-1]
                if top != 0:
                    for i, c in enumerate(table[0]):
                        row[i] += top * c
                table.append(row)
            self._reduction = [tuple(r) for r in table]
        self._tail = (QZERO,) * (self.degree - 1)
        self.interned: dict[tuple, CycloScalar] = {}
        self.zero = self.box((QZERO,) * self.degree)
        self.one = self.from_rational(QONE)
        self.gen = self.scalar([QZERO, QONE])  # zeta_m: X mod Phi_m, so 1 or -1 if m <= 2
        self.raw_one = self.raw(self.one)

    def box(self, coeffs: tuple) -> "CycloScalar":
        """The scalar with these canonical coefficients: one interned object
        per integral tuple, a fresh one for a tuple holding a fraction."""
        for c in coeffs:
            if c.__class__ is not int:
                return CycloScalar(self, coeffs)
        s = self.interned.get(coeffs)
        if s is None:
            s = self.interned[coeffs] = CycloScalar(self, coeffs)
        return s

    def raw(self, s):
        """The raw coefficient of s: its rational, its pair in degree 2, s above."""
        if s.__class__ is not CycloScalar or s.field is not self:
            s = self.one._coerce(s)  # FieldMismatch from another field
        return s if self.degree > 2 else s.coeffs if self.degree == 2 else s.coeffs[0]

    # -- constructors -------------------------------------------------------

    def scalar(self, coeffs) -> "CycloScalar":
        coeffs = [c if type(c) is int else canon(Q(c)) for c in coeffs]
        if len(coeffs) > self.degree:
            coeffs = _poly_divmod(coeffs, self.cyclotomic_polynomial)[1]
        coeffs += [QZERO] * (self.degree - len(coeffs))
        return self.box(tuple(coeffs))

    def from_rational(self, value) -> "CycloScalar":
        if type(value) is not int:
            value = canon(Q(value))
        return self.box((value,) + self._tail)

    def from_fraction(self, num, den=1) -> "CycloScalar":
        return self.from_rational(Q(num, den))

    def root_of_unity(self, n: int, power: int = 1) -> "CycloScalar":
        """A primitive n-th root of unity (zeta_n^power with gcd(power, n) = 1).

        Requires n | m, except n <= 2 where +-1 always exist.
        """
        if n == 1:
            return self.one
        if n == 2:
            return self.from_rational(-QONE)
        if self.order % n:
            raise RootOrderMismatch("no primitive %d-th root of unity in Q(zeta_%d)"
                                    % (n, self.order))
        if gcd(power, n) != 1:
            raise BadParams("power %d is not coprime to %d" % (power, n))
        return self.gen ** ((self.order // n) * power)

    def primitive_roots(self, n: int):
        """All primitive n-th roots of unity available in the field."""
        return [self.root_of_unity(n, k) for k in range(1, max(n, 2)) if gcd(k, n) == 1]

    def __repr__(self):
        return "CycloField(m=%d, degree=%d)" % (self.order, self.degree)

    def __eq__(self, other):
        return isinstance(other, CycloField) and other.order == self.order

    def __hash__(self):
        return hash(("CycloField", self.order))


_FIELDS: dict[int, CycloField] = {}


def field_make(m: int) -> CycloField:
    """Return Q(zeta_m), cached so identical orders share one instance."""
    fld = _FIELDS.get(m)
    if fld is None:
        fld = _FIELDS[m] = CycloField(m)
    return fld


class CycloScalar:
    """An element of Q(zeta_m) in the power basis; immutable and hashable."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        self.field = field
        self.coeffs = coeffs

    # -- predicates ----------------------------------------------------------

    def is_zero(self):
        return not any(self.coeffs)

    def is_one(self):
        return self.coeffs[0] == 1 and not any(self.coeffs[1:])

    def is_rational(self):
        return not any(self.coeffs[1:])

    def __bool__(self):
        return not self.is_zero()

    # -- arithmetic ----------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, CycloScalar):
            if other.field.order != self.field.order:
                raise FieldMismatch("operands live in Q(zeta_%d) and Q(zeta_%d)"
                                    % (self.field.order, other.field.order))
            return other
        if isinstance(other, _RATIONAL):
            return self.field.from_rational(other)
        return NotImplemented

    # Same-field operands skip _coerce; anything else goes through it, which
    # keeps the FieldMismatch check.  Degree 1 tests for an int before calling
    # canon, so that all-int fields pay no call per operation.

    def __add__(self, other):
        if other.__class__ is not CycloScalar or other.field is not self.field:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) == 1:
            c = a[0] + b[0]
            return CycloScalar(self.field, (c if c.__class__ is int else canon(c),))
        return CycloScalar(self.field, tuple(map(canon, map(add, a, b))))

    __radd__ = __add__

    def __sub__(self, other):
        if other.__class__ is not CycloScalar or other.field is not self.field:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return self + -other

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __neg__(self):
        return CycloScalar(self.field, tuple(map(neg, self.coeffs)))

    def __mul__(self, other):
        if other.__class__ is not CycloScalar or other.field is not self.field:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        a, b = self.coeffs, other.coeffs
        fld, deg = self.field, self.field.degree
        if deg == 1:
            c = a[0] * b[0]
            return CycloScalar(fld, (c if c.__class__ is int else canon(c),))
        if deg == 2:
            # Phi_m = X^2 + c1 X + 1 (m = 3, 4, 6), so X^2 = -c1 X - 1
            (a0, a1), (b0, b1) = a, b
            # a rational factor takes two products and no reduction
            if not a1:
                return CycloScalar(fld, (canon(a0 * b0), canon(a0 * b1)))
            if not b1:
                return CycloScalar(fld, (canon(a0 * b0), canon(a1 * b0)))
            top, c1 = a1 * b1, fld.cyclotomic_polynomial[1]
            c = a0 * b1 + a1 * b0
            if c1:
                c = c - top if c1 == 1 else c + top
            return CycloScalar(fld, (canon(a0 * b0 - top), canon(c)))
        prod = [QZERO] * (2 * deg - 1)
        for i, x in enumerate(a):
            if x == 0:
                continue
            for j, y in enumerate(b):
                if y != 0:
                    prod[i + j] += x * y
        # fold each X^(deg + j) back through the reduction table
        out = prod[:deg]
        for j, c in enumerate(prod[deg:]):
            if c != 0:
                for i, r in enumerate(fld._reduction[j]):
                    if r != 0:
                        out[i] += c * r
        return CycloScalar(fld, tuple(map(canon, out)))

    __rmul__ = __mul__

    def inv(self):
        """Inverse: closed form in degree <= 2, else extended Euclid mod Phi_m."""
        if self.is_zero():
            raise DivisionByZero("inverse of zero")
        if self.is_rational():
            return self.field.from_rational(Q(1) / self.coeffs[0])
        if self.field.degree == 2:
            # (a0 + a1 X)(a0 - c1 a1 - a1 X) = a0^2 - c1 a0 a1 + a1^2 mod Phi_m
            (a0, a1), c1 = self.coeffs, self.field.cyclotomic_polynomial[1]
            norm = Q(a0 * a0 - c1 * a0 * a1 + a1 * a1)
            return CycloScalar(self.field, (canon((a0 - c1 * a1) / norm), canon(-a1 / norm)))
        # r0 = Phi, r1 = self; track s in r = s * self (mod Phi)
        r0 = list(self.field.cyclotomic_polynomial)
        r1 = _poly_trim(list(self.coeffs))
        s0, s1 = [], [QONE]
        while True:
            quot, rem = _poly_divmod(r0, r1)
            if not rem:
                break
            snew = list(s0)
            prod = _poly_mul(quot, s1)
            snew += [QZERO] * (len(prod) - len(snew))
            for i, c in enumerate(prod):
                snew[i] -= c
            r0, r1 = r1, rem
            s0, s1 = s1, _poly_trim(snew)
        # r1 is the gcd, a nonzero constant since Phi_m is irreducible
        assert len(r1) == 1, "cyclotomic polynomial must be irreducible over Q"
        inv_lead = Q(1) / r1[0]
        return self.field.scalar([c * inv_lead for c in s1])

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero():
            raise DivisionByZero("division by zero scalar")
        return self * other.inv()

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __pow__(self, n: int):
        if n < 0:
            return self.inv() ** (-n)
        result = self.field.one
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # -- comparison / hashing --------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, _RATIONAL):
            other = self.field.from_rational(other)
        if not isinstance(other, CycloScalar):
            return NotImplemented
        return self.field.order == other.field.order and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.field.order, self.coeffs))

    def __repr__(self):
        return "<%s in Q(zeta_%d)>" % (self, self.field.order)

    def __str__(self):
        terms = []
        for k, c in enumerate(self.coeffs):
            z = "z" if k == 1 else "z^%d" % k
            if c and not k:
                terms.append(str(c))
            elif c:
                terms.append(z if c == 1 else "-" + z if c == -1 else "%s*%s" % (c, z))
        # no term holds a "+", so each "+-" is a join before a negative term
        return "+".join(terms).replace("+-", "-") or "0"


def root_order(q: CycloScalar):
    """Least n with q^n = 1, or None.  In Q(zeta_m) torsion has order lcm(2, m)."""
    if q.is_zero():
        raise BadParams("0 is not a root of unity")
    bound = q.field.order if q.field.order % 2 == 0 else 2 * q.field.order
    power = q
    for n in range(1, bound + 1):
        if power.is_one():
            return n
        power = power * q
    return None


def is_regular_exact(q: CycloScalar) -> bool:
    """Decide regularity globally: (n)_q = 0 for some n >= 2 iff q is a
    primitive root of unity of order >= 2, and all torsion lives in degree
    <= lcm(2, m)."""
    if q.is_zero():
        raise BadParams("regularity is about nonzero scalars")
    order = root_order(q)
    return order is None or order == 1


# -- reduction modulo primes p = 1 (mod m), and the way back ------------------

def _is_prime(n: int) -> bool:
    """Miller-Rabin with the bases 2, 3, 5, 7, exact below 3215031751."""
    if n < 2:
        return False
    for b in (2, 3, 5, 7):
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while not d & 1:
        d, s = d >> 1, s + 1
    for b in (2, 3, 5, 7):
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# {m: the primes p = 1 (mod m) below 2^30 found so far, descending}
_PRIMES: dict[int, list] = {}


def _prime(m: int, index: int) -> int:
    """The index-th prime p = 1 (mod m) below 2^30, descending, so that every
    residue mod p is a one-digit Python int."""
    primes = _PRIMES.setdefault(m, [])
    step = m if m % 2 == 0 else 2 * m  # p = 1 (mod step) is odd
    p = primes[-1] if primes else ((1 << 30) - 2) // step * step + 1 + step
    while len(primes) <= index:
        p -= step
        while not _is_prime(p):
            p -= step
        primes.append(p)
    return primes[index]


class Reduction:
    """The phi(m) embeddings of Q(zeta_m) into F_p, zeta -> omega_j, for the
    index-th prime p = 1 (mod m) below 2^30; omega_j = omega^k runs over the
    primitive m-th roots mod p, k coprime to m ascending.  Residues are
    memoized per scalar for the life of the object."""

    __slots__ = ("p", "_roots", "_inverse", "_memo")

    def __init__(self, field: CycloField, index: int):
        m, deg = field.order, field.degree
        p = self.p = _prime(m, index)
        factors = [q for q in range(2, m + 1) if m % q == 0 and _is_prime(q)]
        h = 2
        while any(pow(h, (p - 1) // q, p) == 1 for q in factors):
            h += 1
        # omega = h^((p-1)/m) has order m; the omega^k with gcd(k, m) = 1 are
        # the primitive m-th roots, the roots of Phi_m mod p
        omega = pow(h, (p - 1) // m, p)
        self._roots = [pow(omega, k, p) for k in range(1, m + 1) if gcd(k, m) == 1]
        # inverse Vandermonde matrix, [k][j] = coefficient k of the Lagrange
        # polynomial Phi_m / ((X - omega_j) Phi_m'(omega_j)) mod p
        phi = [c % p for c in field.cyclotomic_polynomial]
        lagrange = []
        for r in self._roots:
            quot, acc = [0] * deg, 0  # synthetic division Phi_m / (X - r)
            for k in range(deg, 0, -1):
                acc = (phi[k] + r * acc) % p
                quot[k - 1] = acc
            scale = pow(_horner(quot, r, p), -1, p)  # quot(r) = Phi_m'(r)
            lagrange.append([q * scale % p for q in quot])
        self._inverse = list(zip(*lagrange))
        self._memo: dict = {}

    def __call__(self, s):
        """The tuple of s, a scalar or a raw coefficient, under each
        embedding, or None when p divides a denominator of s."""
        coeffs = s.coeffs if s.__class__ is CycloScalar else s if s.__class__ is tuple else (s,)
        try:
            return self._memo[coeffs]
        except KeyError:
            pass
        p, res = self.p, []
        for c in coeffs:
            if type(c) is int:
                res.append(c % p)
            elif c.denominator % p:
                res.append(int(c.numerator) * pow(int(c.denominator), -1, p) % p)
            else:
                res = None
                break
        if res is not None:
            res = tuple(_horner(res, r, p) for r in self._roots)
        self._memo[coeffs] = res
        return res

    def coefficients(self, values) -> tuple:
        """The power-basis coefficients mod p of the scalar whose images
        under the embeddings are values."""
        p = self.p
        return tuple(sum(map(int.__mul__, row, values)) % p for row in self._inverse)


def _horner(coeffs, r: int, p: int) -> int:
    """The polynomial with these coefficients, low to high, at r mod p."""
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * r + c) % p
    return acc


def crt(residue: int, modulus: int, other: int, p: int) -> int:
    """The x mod modulus * p with x = residue (mod modulus), x = other (mod p)."""
    return residue + modulus * ((other - residue) * pow(modulus, -1, p) % p)


def rational_lift(u: int, modulus: int):
    """The a/b = u (mod modulus) of Monagan's maximal-quotient rational
    reconstruction: the Euclidean remainder whose next quotient is the
    largest, once that quotient passes 2^10 times the modulus's bit length,
    else None.  An int when b = 1."""
    if not u:
        return 0
    top = modulus.bit_length() << 10
    num = den = 0
    r0, r1, t0, t1 = modulus, u, 0, 1
    while r1 and r0 > top:
        q = r0 // r1
        if q > top:
            num, den, top = r1, t1, q
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    if not den or gcd(num, den) != 1:
        return None
    if den < 0:
        num, den = -num, -den
    return num if den == 1 else Q(num, den)
