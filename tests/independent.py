"""Dense Gauss-Jordan elimination over Q(zeta_m) that shares no code with
braidcalc: it imports only the standard library.

An element of Q(zeta_m) is a tuple of phi(m) `Fraction`s, its coefficients
in the power basis 1, z, ..., z^(phi(m)-1), reduced modulo the m-th
cyclotomic polynomial Phi_m, which is found here by dividing X^m - 1 by the
Phi_d of the proper divisors d of m.  Inverses solve a x = 1 as a phi(m) by
phi(m) linear system over Q.  A matrix is a list of dense rows.

The tests convert the library's sparse vectors to dense rows of these
tuples and compare the library's RREF rows, remainders and kernels with
the ones computed here.
"""

from fractions import Fraction


def _poly_divmod(num, den):
    """Quotient and remainder of polynomials over Q, coefficients low to high."""
    num, quot = list(num), [Fraction(0)] * max(0, len(num) - len(den) + 1)
    for k in range(len(num) - len(den), -1, -1):
        q = num[k + len(den) - 1] / den[-1]
        quot[k] = q
        for j, b in enumerate(den):
            num[k + j] -= q * b
    return quot, num[:len(den) - 1]


def cyclotomic(m: int) -> list:
    """Phi_m, coefficients low to high."""
    poly = [Fraction(-1)] + [Fraction(0)] * (m - 1) + [Fraction(1)]
    for d in range(1, m):
        if m % d == 0:
            poly = _poly_divmod(poly, cyclotomic(d))[0]
    return poly


class Cyclotomic:
    """Q(zeta_m) on tuples of Fractions."""

    def __init__(self, m: int):
        self.phi = cyclotomic(m)
        self.degree = len(self.phi) - 1
        self.zero = (Fraction(0),) * self.degree
        self.one = (Fraction(1),) + self.zero[1:]

    def element(self, coeffs) -> tuple:
        return tuple(Fraction(c) for c in coeffs) + self.zero[len(coeffs):]

    def add(self, a, b):
        return tuple(x + y for x, y in zip(a, b))

    def sub(self, a, b):
        return tuple(x - y for x, y in zip(a, b))

    def mul(self, a, b):
        prod = [Fraction(0)] * (2 * self.degree - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                prod[i + j] += x * y
        if len(prod) <= self.degree:
            return tuple(prod) + self.zero[len(prod):]
        return tuple(_poly_divmod(prod, self.phi)[1])

    def inv(self, a):
        """The x with a x = 1: column j of multiplication by a is a z^j."""
        columns = [self.mul(a, self.element([0] * j + [1])) for j in range(self.degree)]
        system = [[columns[j][i] for j in range(self.degree)] + [self.one[i]]
                  for i in range(self.degree)]
        solved, pivots = _rref_rational(system, self.degree)
        assert pivots == list(range(self.degree)), "a is not invertible"
        return tuple(row[-1] for row in solved)


def _rref_rational(rows, ncols):
    """RREF over Q of dense rows whose first ncols columns are eliminated."""
    rows, pivots, r = [list(row) for row in rows], [], 0
    for c in range(ncols):
        k = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if k is None:
            continue
        rows[r], rows[k] = rows[k], rows[r]
        lead = rows[r][c]
        rows[r] = [x / lead for x in rows[r]]
        for i, row in enumerate(rows):
            if i != r and row[c]:
                f = row[c]
                rows[i] = [x - f * y for x, y in zip(row, rows[r])]
        pivots.append(c)
        r += 1
    return rows[:r], pivots


def rref(field: Cyclotomic, rows, ncols: int):
    """The RREF rows of the span of dense rows over the field, and their
    pivot columns."""
    rows, pivots, r = [list(row) for row in rows], [], 0
    for c in range(ncols):
        k = next((i for i in range(r, len(rows)) if rows[i][c] != field.zero), None)
        if k is None:
            continue
        rows[r], rows[k] = rows[k], rows[r]
        scale = field.inv(rows[r][c])
        rows[r] = [field.mul(scale, x) for x in rows[r]]
        for i, row in enumerate(rows):
            if i != r and row[c] != field.zero:
                f = row[c]
                rows[i] = [field.sub(x, field.mul(f, y)) for x, y in zip(row, rows[r])]
        pivots.append(c)
        r += 1
    return rows[:r], pivots


def nullspace(field: Cyclotomic, rows, ncols: int) -> list:
    """The RREF rows of {x : R x = 0}."""
    reduced, pivots = rref(field, rows, ncols)
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        vec = [field.zero] * ncols
        vec[f] = field.one
        for row, p in zip(reduced, pivots):
            vec[p] = field.sub(field.zero, row[f])
        basis.append(vec)
    return rref(field, basis, ncols)[0]


def remainder(field: Cyclotomic, rows, vec) -> list:
    """vec minus its combination of the span's RREF rows that clears every
    pivot column: the canonical remainder modulo the span."""
    reduced, pivots = rref(field, rows, len(vec))
    out = list(vec)
    for row, p in zip(reduced, pivots):
        f = out[p]
        if f != field.zero:
            out = [field.sub(x, field.mul(f, y)) for x, y in zip(out, row)]
    return out
