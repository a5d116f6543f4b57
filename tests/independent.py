"""Dense Gauss-Jordan elimination over Q(zeta_m) that shares no code with
braidcalc: it imports only the standard library.

An element of Q(zeta_m) is a tuple of phi(m) `Fraction`s, its coefficients
in the power basis 1, z, ..., z^(phi(m)-1), reduced modulo the m-th
cyclotomic polynomial Phi_m, which is found here by dividing X^m - 1 by the
Phi_d of the proper divisors d of m.  Inverses solve a x = 1 as a phi(m) by
phi(m) linear system over Q.  A matrix is a list of dense rows.

The tests convert the library's sparse vectors to dense rows of these
tuples and compare the library's RREF rows, remainders and kernels with
the ones computed here.  Read off a braiding's pair table, the braid
generators act here on words, the coproduct components are shuffle sums of
positive braid lifts, c^-1 is a matrix inverse, and dim B^n of the Nichols
algebra is the rank of the quantum symmetrizer, a sum over S_n.
"""

import itertools

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


# -- the braid action, the coproduct and the Nichols algebra from a pair table --
#
# A pair table is {(a, b): [((a2, b2), s), ...]}, c(x_a (x) x_b) = sum of
# s x_a2 (x) x_b2, with s an element of the field; vectors are dicts keyed by
# words, tuples of letters.


def generator(field: Cyclotomic, pairs, p: int, vec: dict) -> dict:
    """c acting on the letters at positions p - 1 and p (from 0) of each word."""
    out = {}
    for word, x in vec.items():
        for (a2, b2), s in pairs.get(word[p - 1:p + 1], ()):
            key = word[:p - 1] + (a2, b2) + word[p + 1:]
            out[key] = field.add(out.get(key, field.zero), field.mul(x, s))
    return {w: x for w, x in out.items() if x != field.zero}


def _add_into(field: Cyclotomic, total: dict, vec: dict) -> None:
    for w, x in vec.items():
        total[w] = field.add(total.get(w, field.zero), x)
        if total[w] == field.zero:
            del total[w]


def coproduct_component(field: Cyclotomic, pairs, word: tuple, a: int) -> dict:
    """Delta^(a, n-a) of a word, keyed by the concatenated words: the sum over
    the a-subsets S of positions of the positive braid that carries the
    letters at S, in order, to the front, each past the letters before it
    that stay behind."""
    total = {}
    for subset in itertools.combinations(range(len(word)), a):
        vec = {tuple(word): field.one}
        for k, s in enumerate(subset):
            for p in range(s, k, -1):
                vec = generator(field, pairs, p, vec)
        _add_into(field, total, vec)
    return total


def inverse_pairs(field: Cyclotomic, pairs, d: int) -> dict:
    """The pair table of c^-1, from the inverse of the d^2 x d^2 matrix of c
    by Gauss-Jordan on [C | I]."""
    size = d * d
    matrix = [[field.zero] * size + [field.one if r == c else field.zero for c in range(size)]
              for r in range(size)]
    for (a, b), images in pairs.items():
        for (a2, b2), s in images:
            matrix[a2 * d + b2][a * d + b] = field.add(matrix[a2 * d + b2][a * d + b], s)
    solved, pivots = rref(field, matrix, size)
    assert pivots == list(range(size)), "the braiding is singular"
    return {divmod(col, d): [(divmod(row, d), solved[row][size + col]) for row in range(size)
                             if solved[row][size + col] != field.zero]
            for col in range(size)}


def _reduced_word(sigma) -> list:
    """The positions p of the adjacent swaps (p - 1, p) that bubble sort
    makes on sigma, a reduced word of a permutation of the same length."""
    perm, swaps = list(sigma), []
    for end in range(len(perm) - 1, 0, -1):
        for p in range(1, end + 1):
            if perm[p - 1] > perm[p]:
                perm[p - 1], perm[p] = perm[p], perm[p - 1]
                swaps.append(p)
    return swaps


def symmetrizer_rank(field: Cyclotomic, pairs, d: int, n: int) -> int:
    """The rank of the quantum symmetrizer sum over S_n of the positive lifts
    on the degree-n words, which is dim B^n of the Nichols algebra."""
    words = list(itertools.product(range(d), repeat=n))
    lifts = [_reduced_word(sigma) for sigma in itertools.permutations(range(n))]
    images = []
    for word in words:
        total = {}
        for swaps in lifts:
            vec = {word: field.one}
            for p in swaps:
                vec = generator(field, pairs, p, vec)
            _add_into(field, total, vec)
        images.append(total)
    return sparse_rank(field, images)


def sparse_rank(field: Cyclotomic, rows) -> int:
    """The rank of sparse rows by elimination on pivot rows led by 1."""
    pivots = {}
    for row in rows:
        row = dict(row)
        while row:
            col = min(row)
            if col not in pivots:
                scale = field.inv(row[col])
                pivots[col] = {c: field.mul(scale, x) for c, x in row.items()}
                break
            lead = row[col]
            for c, x in pivots[col].items():
                row[c] = field.sub(row.get(c, field.zero), field.mul(lead, x))
                if row[c] == field.zero:
                    del row[c]
    return len(pivots)
