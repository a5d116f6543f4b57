"""Independent references the tests check braidcalc against.

Permutations and their lengths, the (p, q)-shuffles, the rank of a family of
sparse rows, the sum and intersection of two subspaces, q-integers and q-binomials, and the d^n routes to the Nichols
algebra that the library no longer takes: the quantum symmetrizer Gamma_n by
the (n-1, 1) recursion and by the direct sum over S_n, the derivation
recursion over all degree-n words, and the quadratic closure of E_2 in
d^n.  The library computes Nichols dimensions and quadraticity by normal
words, so these stay here as plain oracles.

The d^n route to the symmetric-algebra tower is here too: a DnTower holds
its ideal components J_n as Subspaces of V^(x)n, reduces modulo
J_a (x) V^b + V^a (x) J_b factor by factor, closes generators by
concatenation in d^n and checks the coideal and braiding-stability
properties there.  The library holds each tower as its quotient by normal
words; its on-demand components must equal these.  `quotient_primitives`
reads a normal-word tower's primitives back in d^n, with J_n added, and
`quotient_primitive_rows` solves them over the normal words from every
coproduct component, where the library's step solves one component up to
the first degree with primitives.

`pi_zeta`, the symmetrization Pi applied to one zeta-space vector, is read
off the library's table of Pi on the zeta space's rows; the library itself
uses only that table and Pi's image.

The first Pareigis identity as defined, [sigma |> x] = [x] for all n!
permutations, is kept here against the library's check on the n - 1
Coxeter generators, with the twisted action `perm_act` of a whole
permutation.

The braid generator c_i is applied one word at a time, through the word's
letters and the field's operators (`apply_generator_entrywise`), against
the library's place-value tables and sparse accumulate kernel.

`coproduct_kernel` is the exact route to primitives and quotient
primitives: `stacked_kernel` on the coproduct components, cheapest first,
each reduced by a caller's map, the route the library's modular
`certified_kernel` falls back to.

The library solves every family of linear conditions map by map; the
all-at-once system it replaces (`all_at_once_kernel`, and the mixed zeta
space with every twisted conjugate applied to every carrier row) is kept
here, as is the braiding-stability check of an enveloping filtration's
ideal span, a theorem the library does not need to test.
"""

import itertools

from functools import cache, partial

from braidcalc.errors import (BadParams, DegreeBudgetExceeded,
                              InternalCheckError, NotACoideal)
from braidcalc.linalg import (Echelon, Subspace, apply_slot, boxed, left_kernel, matvec,
                              stacked_kernel, unboxed, vec_axpy)
from braidcalc.pareigis import _combine, _pi_rows, _twist, induced_bracket, zeta_space
from braidcalc.spaces import matsumoto_lift, word_index, word_letters
from braidcalc.tensorbialg import cheapest_first, delta_columns, primitive_space
from braidcalc.tower import _lifted_primitives


@cache
def boxed_delta(space, a: int, b: int) -> list[dict]:
    """The library's coproduct columns, which are raw coefficients, as
    scalars of the space's field."""
    return [boxed(col, space.field) for col in delta_columns(space, a, b)]


def coproduct_kernel(space, n: int, parts, dims, reduce=None, basis=None):
    """Basis of {x in span(basis) : reduce(Delta^(a, n-a) x, a, n-a) = 0,
    a in parts}, basis the unit vectors of V^(x)n by default, solved exactly
    one component at a time, cheapest first."""
    def component(a, cols, x):
        img = matvec(cols, x)
        return img if reduce is None else reduce(img, a, n - a)

    return stacked_kernel(space.power(n) if basis is None else basis,
                          (partial(component, a, boxed_delta(space, a, n - a))
                           for a in cheapest_first(parts, dims, n)), space.field.one)


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


class LeadOneEchelon:
    """The exact echelon as `linalg.Echelon` held it before its rows went
    raw: every pivot row scaled to lead 1 on entry, every elimination a
    `vec_axpy` on scalars, and a remainder completed by eliminating each
    later pivot column in ascending passes.  The reference for the raw,
    fraction-free echelon's rows, remainders, rank and partial
    back-substitution."""

    def __init__(self, ncols: int):
        self.ncols = ncols
        self.pivot_rows: dict = {}
        self._reduced_from = 0

    @property
    def rank(self) -> int:
        return len(self.pivot_rows)

    def reduce(self, row: dict) -> dict:
        row, pivots = dict(row), self.pivot_rows
        while row:
            lead = min(row)
            prow = pivots.get(lead)
            if prow is None:
                while cols := sorted(c for c in row if c in pivots):
                    for col in cols:
                        if col in row:
                            vec_axpy(row, -row[col], pivots[col])
                return row
            vec_axpy(row, -row[lead], prow)
        return row

    def add(self, row: dict) -> bool:
        row, pivots = dict(row), self.pivot_rows
        while row:
            lead = min(row)
            prow = pivots.get(lead)
            if prow is None:
                leadval = row.pop(lead)
                if leadval != leadval.field.one:
                    row = vec_axpy({}, leadval.inv(), row)
                row[lead] = leadval.field.one
                pivots[lead] = row
                self._reduced_from = float("inf")
                return True
            vec_axpy(row, -row[lead], prow)
        return False

    def add_rows(self, rows) -> int:
        return sum(self.add(row) for row in rows)

    def back_substitute(self, start: int = 0) -> None:
        if start >= self._reduced_from:
            return
        pivots = self.pivot_rows
        for pcol in sorted((c for c in pivots if start <= c < self._reduced_from),
                           reverse=True):
            row = pivots[pcol]
            for col in sorted(c for c in row if c in pivots and c != pcol):
                vec_axpy(row, -row[col], pivots[col])
        self._reduced_from = start

    def rows(self, start: int = 0) -> list[dict]:
        self.back_substitute(start)
        return [self.pivot_rows[c] for c in sorted(self.pivot_rows) if c >= start]


def kernel_basis(rows, ncols: int, one=None, *, p=None) -> list[dict]:
    """Basis of {x : R x = 0} given the constraint rows of R: the canonical
    free-column one (`Echelon.kernel`)."""
    ech = Echelon(ncols, p=p)
    ech.add_rows(rows)
    return ech.kernel(one)


def echelon_of(sub: Subspace) -> Echelon:
    """A fresh echelon, of scalars, holding the rows of sub."""
    ech = Echelon(sub.ncols)
    ech.add_rows(sub.rows)
    return ech


def rank_of_rows(rows, ncols: int) -> int:
    ech = Echelon(ncols)
    ech.add_rows(rows)
    return ech.rank


# -- q-combinatorics ----------------------------------------------------------

def subspace_sum(u: Subspace, w: Subspace) -> Subspace:
    if u.ncols != w.ncols:
        raise ValueError("subspace dimensions differ")
    ech = echelon_of(u)
    ech.add_rows(w.rows)
    return Subspace.from_echelon(ech)


def subspace_intersection(u: Subspace, w: Subspace) -> Subspace:
    """Combinations of u's rows that reduce to zero modulo w."""
    if u.dim == 0 or w.dim == 0:
        return Subspace.zero(u.ncols)
    reduced = [w.reduce(r) for r in u.rows]
    unit = next(iter(u.rows[0].values())).field.one
    combos = left_kernel(reduced, one=unit)
    return Subspace.from_rows(u.ncols, (matvec(u.rows, c) for c in combos))


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
    return [matvec(lifted, col) for col in boxed_delta(space, n - 1, 1)]


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
    delta = boxed_delta(space, a, b)
    dim_b = space.power(b)
    # columns of Gamma_a (x) Gamma_b, word u = (hi, lo)
    kron = [{r1 * dim_b + r2: t1 * t2
             for r1, t1 in ga[u // dim_b].items()
             for r2, t2 in gb[u % dim_b].items()}
            for u in range(space.power(n))]
    return all(matvec(kron, delta[w]) == whole[w]
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
        images = [matvec(lifted, col) for col in boxed_delta(space, n - 1, 1)]
        ech = Echelon(ranks[-1] * d)
        ech.add_rows(m for m in images if m)
        # the leads of an echelon are the RREF pivot columns of the span, so
        # keeping only those coordinates is injective on it
        renumber = {p: i for i, p in enumerate(ech.pivots)}
        prev = [{renumber[k]: v for k, v in m.items() if k in renumber}
                for m in images]
        ranks.append(ech.rank)
    return ranks


def is_quadratic_by_closure(space, cutoff: int) -> bool:
    """The ideal generated by E_2, closed in d^n, against I_n = d^n - dim B^n."""
    tower = ideal_closure_dn(space, {2: primitive_space(space, 2)}, cutoff,
                             verify="off")
    dims = nichols_dims_dn(space, cutoff)
    return all(tower.components[n].dim == space.power(n) - dims[n]
               for n in range(2, cutoff + 1))


# -- the d^n route to the symmetric-algebra tower ------------------------------

class DnTower:
    """A graded ideal held by its components J_n, Subspaces of V^(x)n."""

    def __init__(self, space, cutoff: int, components):
        self.space = space
        self.cutoff = cutoff
        self.components = components
        self.added = {}

    @classmethod
    def tensor_algebra(cls, space, cutoff: int) -> "DnTower":
        return cls(space, cutoff,
                   [Subspace.zero(space.power(n)) for n in range(cutoff + 1)])

    @property
    def dims(self):
        return [self.space.power(n) - c.dim for n, c in enumerate(self.components)]


def reduce_bidegree(tower, vec: dict, a: int, b: int) -> dict:
    """Canonical remainder of a degree-(a+b) vector modulo
    J_a (x) V^b + V^a (x) J_b, via the two quotient maps factor by factor.
    Reads only tower.components and tower.space, so it takes library towers
    too."""
    J_a = tower.components[a]
    J_b = tower.components[b]
    dim_b = tower.space.power(b)
    if J_b.dim:
        by_prefix: dict[int, dict] = {}
        for col, val in vec.items():
            u, s = divmod(col, dim_b)
            by_prefix.setdefault(u, {})[s] = val
        vec = {}
        for u, slice_vec in by_prefix.items():
            for s, val in J_b.reduce(slice_vec).items():
                vec[u * dim_b + s] = val
    if J_a.dim:
        by_suffix: dict[int, dict] = {}
        for col, val in vec.items():
            u, s = divmod(col, dim_b)
            by_suffix.setdefault(s, {})[u] = val
        vec = {}
        for s, slice_vec in by_suffix.items():
            for u, val in J_a.reduce(slice_vec).items():
                vec[u * dim_b + s] = val
    return dict(vec)


def row_tensor_basis_right(row: dict, d: int, letter: int) -> dict:
    """row (x) e_letter, for a row living in degree-n word coordinates."""
    return {col * d + letter: val for col, val in row.items()}


def row_tensor_basis_left(row: dict, d: int, letter: int, deg: int) -> dict:
    """e_letter (x) row, row in degree-`deg` coordinates."""
    shift = letter * d**deg
    return {shift + col: val for col, val in row.items()}


def _close_dn(space, generators, cutoff):
    comps = [Subspace.zero(space.power(n)) for n in range(min(2, cutoff + 1))]
    d = space.dim
    for n in range(2, cutoff + 1):
        ech = Echelon(space.power(n))
        prev = comps[n - 1]
        for row in prev.rows:
            for k in range(d):
                ech.add(row_tensor_basis_left(row, d, k, n - 1))
                ech.add(row_tensor_basis_right(row, d, k))
        ech.add_rows(generators.get(n, ()))
        comps.append(Subspace.from_echelon(ech))
    return comps


def _verify_coideal_dn(tower, check_rows, internal):
    for n, rows in check_rows.items():
        for a in range(1, n):
            cols = boxed_delta(tower.space, a, n - a)
            for row in rows:
                if reduce_bidegree(tower, matvec(cols, row), a, n - a):
                    if internal:
                        raise InternalCheckError("not a coideal (degree %d)" % n)
                    raise NotACoideal(n, row)


def _verify_braiding_stability_dn(space, check, cutoff, internal, max_pad):
    """c^{u,t}(V^u (x) J_t) inside J_t (x) V^u and the mirror inclusion, for
    each Subspace J_t of check = {t: J_t} and pad u <= max_pad."""
    for t, J_t in check.items():
        dim_t = space.power(t)
        for u in range(1, min(max_pad, cutoff - t) + 1):
            dim_u = space.power(u)
            for w in range(dim_u):
                for row in J_t.rows:
                    left = space.braiding_block_apply(
                        u, t, {w * dim_t + c: v for c, v in row.items()})
                    right = space.braiding_block_apply(
                        t, u, {c * dim_u + w: v for c, v in row.items()})
                    slices: dict = {}
                    for col, val in left.items():
                        hi, lo = divmod(col, dim_u)
                        slices.setdefault(("l", lo), {})[hi] = val
                    for col, val in right.items():
                        hi, lo = divmod(col, dim_t)
                        slices.setdefault(("r", hi), {})[lo] = val
                    if not all(J_t.contains(s) for s in slices.values()):
                        if internal:
                            raise InternalCheckError(
                                "braiding does not stabilise the ideal")
                        raise NotACoideal(t, row)


def ideal_closure_dn(space, generators, cutoff, verify="light", internal=False):
    """The closure in d^n, checked on the generators (verify="light", braiding
    pad 1), on every row of every component (verify="full", every pad), or
    not at all (verify="off")."""
    space.check_budget(cutoff)
    gen_rows = {}
    for n, gen in (generators or {}).items():
        if n < 2:
            raise BadParams("ideal generators must have degree >= 2")
        if n > cutoff:
            raise DegreeBudgetExceeded(n, cutoff)
        rows = gen.rows if isinstance(gen, Subspace) else list(gen)
        if rows:
            gen_rows[n] = rows
    tower = DnTower(space, cutoff, _close_dn(space, gen_rows, cutoff))
    if verify == "full":
        check = {n: c for n, c in enumerate(tower.components) if c.dim}
        _verify_coideal_dn(tower, {n: c.rows for n, c in check.items()}, internal)
        _verify_braiding_stability_dn(space, check, cutoff, internal, cutoff)
    elif verify == "light":
        _verify_coideal_dn(tower, gen_rows, internal)
        _verify_braiding_stability_dn(
            space, {n: Subspace.from_rows(space.power(n), rows)
                    for n, rows in gen_rows.items()}, cutoff, internal, 1)
    return tower


def quotient_primitives_dn(tower, n):
    """Lifted degree-n primitives of the quotient, containing J_n."""
    space = tower.space
    if n <= 1:
        return Subspace.zero(space.power(n))
    if all(tower.components[k].dim == 0 for k in range(2, n)):
        ech = echelon_of(tower.components[n])
        ech.add_rows(primitive_space(space, n).rows)
        return Subspace.from_echelon(ech)
    return Subspace.from_rows(space.power(n), coproduct_kernel(
        space, n, range(1, n), tower.dims, partial(reduce_bidegree, tower)))


def quotient_primitives(tower, n):
    """Lifted degree-n primitives of a normal-word tower's quotient, in d^n:
    all x in V^(x)n whose inner coproduct components land in
    J (x) T + T (x) J.  Contains J_n."""
    space = tower.space
    if n <= 1:
        return Subspace.zero(space.power(n))
    ech = echelon_of(tower.components[n])
    ech.add_rows(boxed(row, space.field) for row in _lifted_primitives(tower, n))
    return Subspace.from_echelon(ech)


def quotient_primitive_rows(tower, n):
    """The lifted degree-n primitives of a normal-word tower's quotient as
    canonical rows over its normal words N_n (every word while J_n = 0):
    the kernel of every component Delta^(a, n-a), 0 < a < n, reduced modulo
    J_a (x) V^b + V^a (x) J_b in d^n, with no shortcut below the first
    degree that has primitives."""
    space = tower.space
    basis = [{w: space.field.one} for w in tower._words(n)]
    return Subspace.from_rows(space.power(n), coproduct_kernel(
        space, n, range(1, n), tower.dims, partial(reduce_bidegree, tower), basis)).rows


def tower_iterates_dn(space, cutoff):
    """T, S(T), ... up to the fixpoint, each step closing the full lifted
    quotient primitives of every degree in d^n."""
    iterates = [DnTower.tensor_algebra(space, cutoff)]
    while True:
        tower = iterates[-1]
        gens, added = {}, {}
        for n in range(2, cutoff + 1):
            prims = quotient_primitives_dn(tower, n)
            if prims.dim:
                gens[n] = prims
            if prims.dim > tower.components[n].dim:
                added[n] = prims.dim - tower.components[n].dim
        if not added:
            return iterates
        nxt = ideal_closure_dn(space, gens, cutoff, internal=True)
        nxt.added = added
        iterates.append(nxt)


def delta_injectivity_ladder(tower, upto: int) -> dict:
    """Injectivity of the quotient coproduct components, bidegree by bidegree.

    Returns {(a, b): bool}; the k-th tower iterate must be injective for all
    a + b <= k + 1."""
    reduce = partial(reduce_bidegree, tower)
    out = {}
    for n in range(2, upto + 1):
        J_n = tower.components[n]
        for a in range(1, n):
            kernel = coproduct_kernel(tower.space, n, [a], tower.dims, reduce)
            out[(a, n - a)] = all(J_n.contains(v) for v in kernel)
    return out


def filtration_braiding_stable(fq) -> bool:
    """Whether the braiding carries (span (x) V) into (V (x) span) for the
    ideal span of a FilteredQuotient, checked row by row on its echelon:
    a theorem for the enveloping filtration, so a False is a bug."""
    space = fq.bracket.space
    d = space.dim
    for row in fq.echelon.rows():
        by_degree: dict = {}
        for col, val in row.items():
            # blocks of T_(top) run degree-descending from offset 0
            k = next(k for k in range(fq.top + 1) if col >= fq.offsets[k])
            by_degree.setdefault(k, {})[col - fq.offsets[k]] = val
        for j in range(d):
            # c(row (x) e_j) in V (x) T_(top), one block braiding per degree
            moved: dict = {}
            for k, part in by_degree.items():
                img = space.braiding_block_apply(
                    k, 1, {w * d + j: val for w, val in part.items()})
                moved.update(apply_slot(
                    img, space.power(k), 1,
                    lambda vec, k=k: {fq.offsets[k] + c: v for c, v in vec.items()},
                    fq.ncols))
            if apply_slot(moved, fq.ncols, 1, fq.reduce, fq.ncols):
                return False
    return True


def all_at_once_kernel(basis, maps):
    """{x in span(basis) : f(x) = 0 for every f in maps} from one left kernel
    of every map's images stacked, keyed (map, column): the single system
    that the library's `stacked_kernel` solves map by map."""
    stacked = [{(k, c): v for k, f in enumerate(maps) for c, v in f(b).items()}
               for b in basis]
    one = next(iter(basis[0].values())).field.one
    return [matvec(basis, c) for c in left_kernel(stacked, one=one)]


def mixed_zeta_space_all_at_once(space, n, zeta):
    """{x in V (x) V^(x)n(zeta) : zeta^(-2 l(s)) lift(s^(-1)) tau_1^2 lift(s) x = x
    for s = 1 x phi, phi in S_n}, every condition applied to every carrier
    row at once."""
    size_n, size = space.power(n), space.power(n + 1)
    carrier = Subspace.from_rows(size, (
        {j * size_n + c: v for c, v in row.items()}
        for j in range(space.dim)
        for row in zeta_space(space, n, zeta, require_primitive=False).rows))
    if carrier.dim == 0:
        return carrier
    zinv = zeta.inv()

    def condition(word, scale, row):
        diff = {c: -v for c, v in row.items()}
        vec_axpy(diff, scale, space.apply_word(n + 1, word, row))
        return diff

    conds = []
    for phi in itertools.permutations(range(n)):
        lifted = (0,) + tuple(p + 1 for p in phi)
        word = matsumoto_lift(lifted).letters
        back = matsumoto_lift(perm_inverse(lifted)).letters
        conds.append(partial(condition, back + (1, 1) + word,
                             zinv ** (2 * len(word))))
    return Subspace.from_rows(size, all_at_once_kernel(carrier.rows, conds))


def pi_zeta(space, n: int, zeta, vec: dict) -> dict:
    """The full symmetrization sum over S_n applied to a zeta-space vector."""
    return boxed(_combine(space, n, zeta, unboxed(vec, space.field), _pi_rows), space.field)


def perm_act(space, n: int, zeta, sigma, vec: dict) -> dict:
    """sigma |> x = zeta^(-l(sigma)) lift(sigma) x."""
    letters, fld = matsumoto_lift(sigma).letters, space.field
    scales = {len(letters): fld.raw(zeta.inv() ** len(letters))}
    return boxed(_twist(space, n, scales, letters, unboxed(vec, fld)), fld)


def pl1_all_permutations(bracket, n, zeta) -> bool:
    """[sigma |> x] = [x] for every sigma in S_n and every canonical row x of
    the degree-n zeta space: the first Pareigis identity over the whole
    group, one twisted action per permutation."""
    space = bracket.space
    for row in zeta_space(space, n, zeta).rows:
        base = induced_bracket(bracket, n, zeta, row)
        if any(induced_bracket(bracket, n, zeta, perm_act(space, n, zeta, sigma, row)) != base
               for sigma in itertools.permutations(range(n))):
            return False
    return True


def apply_generator_entrywise(space, n: int, i: int, vec: dict, inverse=False) -> dict:
    """c_i (or its inverse) on a degree-n vector: each word's letters i and
    i + 1 go through the pair map, summed with the field's operators."""
    table = space.inv_pairs if inverse else space.pairs
    out = {}
    for idx, coeff in vec.items():
        letters = list(word_letters(idx, n, space.dim))
        for (a2, b2), s in table.get((letters[i - 1], letters[i]), ()):
            tgt = word_index(letters[:i - 1] + [a2, b2] + letters[i + 1:], space.dim)
            out[tgt] = out.get(tgt, space.field.zero) + coeff * s
    return {k: v for k, v in out.items() if not v.is_zero()}
