"""Independent references the tests check braidcalc against.

Permutations and their lengths, the (p, q)-shuffles, the rank of a family of
sparse rows, q-integers and q-binomials, and the d^n routes to the Nichols
algebra that the library no longer takes: the quantum symmetrizer Gamma_n by
the (n-1, 1) recursion and by the direct sum over S_n, the derivation
recursion over all degree-n words, and the quadratic closure of E_2 in
d^n.  The library computes Nichols dimensions and quadraticity by normal
words, so these stay here as plain oracles.
"""

import itertools

from braidcalc.errors import BadParams
from braidcalc.linalg import Echelon, matvec, vec_axpy, vec_eq
from braidcalc.spaces import matsumoto_lift
from braidcalc.tensorbialg import delta_columns, primitive_space
from braidcalc.tower import ideal_closure


def perm_length(sigma) -> int:
    """Number of inversions."""
    n = len(sigma)
    return sum(
        1 for i in range(n) for j in range(i + 1, n) if sigma[i] > sigma[j]
    )


def perm_inverse(sigma):
    inv = [0] * len(sigma)
    for i, v in enumerate(sigma):
        inv[v] = i
    return tuple(inv)


def perm_compose(sigma, tau):
    """(sigma tau)(i) = sigma(tau(i))."""
    return tuple(sigma[t] for t in tau)


def shuffles(p: int, q: int):
    """All (p,q)-shuffles with their lengths, ordered by the chosen p-subset.

    A shuffle is sigma with sigma(1) < ... < sigma(p) and
    sigma(p+1) < ... < sigma(p+q); there are binom(p+q, p) of them and the
    length is sum(S[i] - i) over the image subset S of the first block.
    """
    n = p + q
    out = []
    for subset in itertools.combinations(range(n), p):
        complement = [x for x in range(n) if x not in subset]
        sigma = tuple(list(subset) + complement)
        length = sum(s - i for i, s in enumerate(subset))
        out.append((sigma, length))
    return out


def rank_of_rows(rows, ncols: int) -> int:
    ech = Echelon(ncols)
    ech.add_rows(rows)
    return ech.rank


# -- q-combinatorics ----------------------------------------------------------

def q_int(n: int, q):
    """(n)_q = 1 + q + ... + q^(n-1)."""
    if n < 0:
        raise BadParams("q-integer needs n >= 0")
    acc = q.field.zero
    power = q.field.one
    for _ in range(n):
        acc = acc + power
        power = power * q
    return acc


def q_factorial(n: int, q):
    acc = q.field.one
    for k in range(1, n + 1):
        acc = acc * q_int(k, q)
    return acc


def q_binomial(n: int, i: int, q):
    """Gaussian binomial via the division-free q-Pascal recurrence.

    binom(n, i)_q = binom(n-1, i-1)_q + q^i binom(n-1, i)_q stays defined at
    roots of unity where the factorial quotient would divide by zero.
    """
    if not (0 <= i <= n):
        raise BadParams("q-binomial needs 0 <= i <= n")
    field = q.field
    row = [field.one]  # row for n = 0
    for _ in range(n):
        new = [field.one]
        for j in range(1, len(row)):
            new.append(row[j - 1] + (q ** j) * row[j])
        new.append(field.one)
        row = new
    return row[i]


def is_regular(q, upto: int) -> bool:
    """(n)_q != 0 for 2 <= n <= upto."""
    if q.is_zero():
        raise BadParams("regularity is about nonzero scalars")
    acc = q.field.one + q
    power = q
    for _ in range(2, upto + 1):
        if acc.is_zero():
            return False
        power = power * q
        acc = acc + power
    return True


# -- the d^n routes to the Nichols algebra --------------------------------------

def symmetrizer(space, n: int) -> list[dict]:
    """Columns of the degree-n quantum symmetrizer, by the recursion
    Gamma_n = (Gamma_(n-1) (x) Id) Delta^(n-1,1), Gamma_0 = Gamma_1 = Id."""
    one = space.field.one
    if n <= 1:
        return [{w: one} for w in range(space.power(n))]
    prev = symmetrizer(space, n - 1)
    d = space.dim
    # Gamma_(n-1) (x) Id, column u = (prefix, last letter)
    lifted = [{r * d + u % d: t for r, t in prev[u // d].items()}
              for u in range(space.power(n))]
    return [matvec(lifted, col) for col in delta_columns(space, n - 1, 1)]


def symmetrizer_direct(space, n: int) -> list[dict]:
    """The length-weighted sum over all of S_n."""
    one = space.field.one
    size = space.power(n)
    cols = [dict() for _ in range(size)]
    for sigma in itertools.permutations(range(n)):
        letters = matsumoto_lift(sigma).letters
        for w in range(size):
            vec_axpy(cols[w], one, space.apply_word(n, letters, {w: one}))
    return cols


def symmetrizer_rank(space, n: int) -> int:
    return rank_of_rows(symmetrizer(space, n), space.power(n))


def symmetrizer_factorization_check(space, a: int, b: int) -> bool:
    """Gamma_(a+b) = (Gamma_a (x) Gamma_b) . Delta^(a,b), exactly."""
    n = a + b
    whole = symmetrizer(space, n)
    ga = symmetrizer(space, a)
    gb = symmetrizer(space, b)
    delta = delta_columns(space, a, b)
    dim_b = space.power(b)
    # columns of Gamma_a (x) Gamma_b, word u = (hi, lo)
    kron = [{r1 * dim_b + r2: t1 * t2
             for r1, t1 in ga[u // dim_b].items()
             for r2, t2 in gb[u % dim_b].items()}
            for u in range(space.power(n))]
    return all(vec_eq(matvec(kron, delta[w]), whole[w])
               for w in range(space.power(n)))


def nichols_dims_dn(space, upto: int) -> list[int]:
    """dim B^n for n <= upto by the derivation recursion over all d^n words:
    ker Gamma_n = ker (pi_(n-1) (x) Id) Delta^(n-1,1), where pi_(n-1) keeps the
    pivot coordinates of the previous degree's images."""
    d = space.dim
    ranks, prev = [1], [{0: space.field.one}]
    for n in range(1, upto + 1):
        # pi_(n-1) (x) Id: key k * d + last letter
        lifted = [{k * d + u % d: t for k, t in prev[u // d].items()}
                  for u in range(space.power(n))]
        images = [matvec(lifted, col) for col in delta_columns(space, n - 1, 1)]
        ech = Echelon(ranks[-1] * d)
        ech.add_rows(m for m in images if m)
        # the leads of an echelon are the RREF pivot columns of the span, so
        # keeping only those coordinates is injective on it
        renumber = {p: i for i, p in enumerate(sorted(ech.pivot_rows))}
        prev = [{renumber[k]: v for k, v in m.items() if k in renumber}
                for m in images]
        ranks.append(ech.rank)
    return ranks


def is_quadratic_by_closure(space, cutoff: int) -> bool:
    """The ideal generated by E_2, closed in d^n, against I_n = d^n - dim B^n."""
    tower = ideal_closure(space, {2: primitive_space(space, 2)}, cutoff,
                          verify="off")
    dims = nichols_dims_dn(space, cutoff)
    return all(tower.components[n].dim == space.power(n) - dims[n]
               for n in range(2, cutoff + 1))
