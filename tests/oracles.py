"""Independent references the tests check braidcalc against.

Permutations and their lengths, the (p, q)-shuffles, and the rank of a
family of sparse rows.  The library needs none of them: it builds coproducts
by the multiplicative recursion and ranks by its own echelon routines, so
these stay here as plain oracles.
"""

import itertools

from braidcalc.linalg import Echelon


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
