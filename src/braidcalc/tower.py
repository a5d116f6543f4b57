"""Graded bialgebra quotients of the tensor algebra, held as quotients.

An IdealTower is the quotient A = T(V,c)/J held by normal words, as
`_nichols_levels` holds the Nichols algebra.  Degree n keeps a basis N_n of
A_n made of words and the right-multiplication tables R_x: A_(n-1) -> A_n
in those bases; the quotient map pi_n is read off the tables word by word,
pi_n(w x) = R_x(pi_(n-1)(w)), and memoized, in raw coefficients.  J stays
implicit: x lies in J_n iff pi_n(x) = 0.  The components J_n, canonical
Subspaces of V^(x)n, are built only when read, for the API and the tests.

The closure of homogeneous generators G is built degree by degree.  J_n is
J_(n-1) V + sum_k T_(n-k) G_k, and T_(n-k) = span N_(n-k) + J_(n-k) with
J_(n-k) G_k inside J_(n-1) V, so A_n is A_(n-1) (x) V modulo the images
(pi_(n-1) (x) Id)(u g), u in N_(n-k), g in G_k: one echelon in
dim A_(n-1) * d columns, whose non-pivot columns are N_n.  A generator that
adds no rank in its own degree lies in the ideal of the others.

The symmetric-algebra step adjoins the quotient's primitives of degree >= 2:
the kernel of (pi_a (x) pi_b) Delta^(a,n-a), 0 < a < n, on span N_n, well
defined because J is a braided coideal, solved by `primitive_kernel` on the
projected columns of the normal words.  Only the first step, on T(V), works
in d^n coordinates.  Up to the first degree with primitives one component
suffices: below it A_k = B^k (A_1 = V, then induction), so the primitives
are ker(A_n -> B^n), the kernel of (pi_(n-1) (x) Id) Delta^(n-1,1), which is
injective on B^n (Andruskiewitsch-Schneider 2002).  The new ideal
J' = J + (P) is checked on the new generators g alone:
(pi'_a (x) pi'_b) Delta(g) = 0, and (pi'_t (x) Id) c(x (x) g) = 0 and its
mirror for each letter x; J was checked when it was built, and Delta and c
are multiplicative, so J' is a braided coideal.  The theory guarantees it,
so a failure in the step is an InternalCheckError.  Iterating the step
yields the towers whose stabilisation count is the strongness degree
(combinatorial rank); degree n of the limit is exact after n-1 steps, so
the limit itself is never materialised.

Certification of a strongness-degree verdict at a degree cutoff D uses three
sound routes: a scalar braiding with regular mark is already strongly graded;
a Hecke braiding with regular mark has degree at most one; and a vanishing
graded component at some N <= D truncates everything above it (quotients of
the tensor algebra are strongly graded as algebras), making the cutoff
exhaustive.  Otherwise the verdict is a lower bound at the cutoff.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import BadParams, DegreeBudgetExceeded, InternalCheckError, NotACoideal
from .linalg import (Echelon, Subspace, boxed, holds_scalars, left_kernel, matvec, unboxed,
                     vec_axpy)
from .spaces import BraidedSpace
from .tensorbialg import (cheapest_first, delta_columns, nichols_dims, primitive_kernel,
                          primitive_space)


class IdealTower:
    """The graded quotient bialgebra T(V,c)/J in degrees 0..cutoff."""

    __slots__ = ("space", "cutoff", "levels", "generators", "added", "_pi",
                 "_components")

    def __init__(self, space: BraidedSpace, cutoff: int):
        self.space = space
        self.cutoff = cutoff
        # levels[n] is None while J vanishes up to degree n, else (words,
        # coords): the normal words N_n and coords[k * d + x] = R_x(e_k)
        self.levels = []
        self.generators = {}  # {degree: generators of J kept by the closure}
        self.added = {}  # {degree: dimension adjoined by the step that built it}
        self._pi = [{} for _ in range(cutoff + 1)]  # {word: pi_n(word)}
        self._components = None

    @classmethod
    def tensor_algebra(cls, space: BraidedSpace, cutoff: int) -> "IdealTower":
        space.check_budget(cutoff)
        tower = cls(space, cutoff)
        tower.levels = [None] * (cutoff + 1)
        return tower

    @property
    def dims(self):
        """Graded dimensions of the quotient bialgebra."""
        return [self.dim(n) for n in range(len(self.levels))]

    def dim(self, n: int) -> int:
        """The dimension of the quotient in degree n."""
        level = self.levels[n]
        return self.space.power(n) if level is None else len(level[0])

    def _words(self, n: int):
        level = self.levels[n]
        return range(self.space.power(n)) if level is None else level[0]

    def _pi_word(self, n: int, word: int) -> dict:
        """pi_n of a degree-n word, in N_n coordinates, raw."""
        if self.levels[n] is None:
            return {word: self.space.field.raw_one}
        vec = self._pi[n].get(word)
        if vec is None:
            d = self.space.dim
            prefix, x = divmod(word, d)
            vec = matvec(self.levels[n][1], {k * d + x: s for k, s in
                                             self._pi_word(n - 1, prefix).items()},
                         self.space.field)
            self._pi[n][word] = vec
        return vec

    @property
    def components(self) -> list[Subspace]:
        """The ideal components J_n = ker pi_n, n = 0..cutoff, as canonical
        Subspaces of V^(x)n, built on first read."""
        if self._components is None:
            self._components = [self._component(n) for n in range(self.cutoff + 1)]
        return self._components

    def _component(self, n: int) -> Subspace:
        size, fld = self.space.power(n), self.space.field
        if self.levels[n] is None:
            return Subspace.zero(size)
        # ker pi_n: the words whose projections cancel
        return Subspace(size, [boxed(row, fld) for row in left_kernel(
            [self._pi_word(n, w) for w in range(size)], field=fld)])

    def __eq__(self, other):
        return (
            isinstance(other, IdealTower)
            and self.cutoff == other.cutoff
            and self.levels == other.levels
        )

    def __repr__(self):
        return "IdealTower(cutoff=%d, dims=%r)" % (self.cutoff, self.dims)


class SdegVerdict(NamedTuple):
    value: int
    status: str  # "certified" | "lower_bound_at_cutoff"
    tower_trace: list
    certificate: str


def _project(tower: IdealTower, vec: dict, a: int, b: int) -> dict:
    """(pi_a (x) pi_b) of a raw degree-(a+b) vector, keyed i * dim A_b + j."""
    dim_b, width, fld = tower.space.power(b), tower.dim(b), tower.space.field
    right: dict[int, dict] = {}
    for t, s in vec.items():
        u, v = divmod(t, dim_b)
        vec_axpy(right.setdefault(u, {}), s, tower._pi_word(b, v), 0, fld)
    out: dict = {}
    for u, tail in right.items():
        for i, s in tower._pi_word(a, u).items():
            vec_axpy(out, s, tail, i * width, fld)
    return out


# -- ideal closure ------------------------------------------------------------

def _close_components(tower: IdealTower, generators, upto: int) -> None:
    """Extend the tower's normal words and tables to degree upto, adjoining
    the generators {degree: raw rows in word coordinates} and keeping those
    that add rank in their own degree."""
    space = tower.space
    d = space.dim
    levels, kept = tower.levels, tower.generators
    for n in range(len(levels), upto + 1):
        candidates = generators.get(n, ())
        if n < 2 or (levels[n - 1] is None and not candidates):
            levels.append(None)
            continue
        width = tower.dim(n - 1) * d
        ech = Echelon(width, space.field)

        def image(g, u, k):
            # (pi_(n-1) (x) Id)(u g) for u a normal word of degree n - k
            return _project(tower, {u * space.power(k) + w: s for w, s in g.items()},
                            n - 1, 1)

        for k, gens in kept.items():
            ech.add_rows(image(g, u, k) for g in gens for u in tower._words(n - k))
        for g in candidates:
            if ech.add(image(g, 0, n)):
                kept.setdefault(n, []).append(g)
        # column c is sum_i k_i[c] e_i over the kernel basis k_i, one per
        # free column, its last entry: minus its RREF row at a pivot column
        coords, free = [{} for _ in range(width)], []
        for i, vec in enumerate(ech.kernel()):
            free.append(max(vec))
            for c, v in vec.items():
                coords[c][i] = v
        prev = tower._words(n - 1)
        levels.append(([prev[c // d] * d + c % d for c in free], coords))


def _verify_coideal(tower: IdealTower, new) -> None:
    """(pi_a (x) pi_b) Delta^(a, n-a)(g) = 0 for every new generator g."""
    fld = tower.space.field
    for n, rows in new.items():
        for a in range(1, n):
            cols = delta_columns(tower.space, a, n - a)
            for row in rows:
                if _project(tower, matvec(cols, row, fld), a, n - a):
                    raise NotACoideal(n, boxed(row, fld))


def _verify_braiding_stability(tower: IdealTower, new) -> None:
    """(pi_t (x) Id) c(x (x) g) = 0 and (Id (x) pi_t) c(g (x) x) = 0 for every
    letter x and new generator g of degree t."""
    space = tower.space
    d = space.dim
    for t, rows in new.items():
        dim_t = space.power(t)
        for row in rows:
            for x in range(d):
                left = space.braiding_block_apply(1, t, {x * dim_t + w: s for w, s in row.items()})
                right = space.braiding_block_apply(t, 1, {w * d + x: s for w, s in row.items()})
                if _project(tower, left, t, 1) or _project(tower, right, 1, t):
                    raise NotACoideal(t, boxed(row, space.field))


def ideal_closure(space: BraidedSpace, generators, cutoff: int,
                  base: IdealTower | None = None) -> IdealTower:
    """The quotient of T(V,c) by the ideal the generators (Subspaces, or rows
    of scalars or raw coefficients) generate, together with the ideal of
    base (a tower checked when it was built), if given.  The new generators
    the closure keeps are checked to make the ideal a braided coideal;
    NotACoideal names the first that fails."""
    space.check_budget(cutoff)
    new: dict[int, list] = {}
    for n, gen in (generators or {}).items():
        if n < 2:
            raise BadParams("ideal generators must have degree >= 2")
        if n > cutoff:
            raise DegreeBudgetExceeded(n, cutoff)
        rows = gen.rows if isinstance(gen, Subspace) else list(gen)
        if rows:
            new[n] = [unboxed(row, space.field) if holds_scalars(row, space.field) else row
                      for row in rows]
    known = base.generators if base else {}
    candidates = {n: known.get(n, []) + new.get(n, []) for n in range(2, cutoff + 1)}
    tower = IdealTower(space, cutoff)
    _close_components(tower, candidates, cutoff)
    kept = {id(g) for rows in tower.generators.values() for g in rows}
    check = {n: [g for g in rows if id(g) in kept] for n, rows in new.items()}
    _verify_coideal(tower, check)
    _verify_braiding_stability(tower, check)
    return tower


# -- quotient primitives and the symmetric-algebra step -----------------------

def _lifted_primitives(tower: IdealTower, n: int, below_first: bool = False) -> list[dict]:
    """Degree-n primitives of the quotient lifted to the normal words N_n, raw;
    below_first (no degree 2..n-1 has any): from the component (n-1, 1) alone."""
    space = tower.space
    if tower.levels[n] is None:
        # T(V) up to degree n: the plain primitives
        return [unboxed(row, space.field) for row in primitive_space(space, n).rows]
    words = tower.levels[n][0]
    parts = [n - 1] if below_first else cheapest_first(range(1, n), tower.dims, n)
    rows = primitive_kernel(space, ([_project(tower, delta_columns(space, a, n - a)[w], a, n - a)
                                     for w in words] for a in parts), len(words))
    return [{words[i]: s for i, s in row.items()} for row in rows]


def symmetric_step(tower: IdealTower, _assert_no_new_below: int = 0) -> IdealTower:
    """Adjoin all quotient primitives of degree >= 2 and re-close the tower.

    Returns the tower itself when it is already a fixpoint at this cutoff.
    """
    new_gens = {}
    for n in range(2, tower.cutoff + 1):
        prims = _lifted_primitives(tower, n, below_first=not new_gens)
        if prims and n <= _assert_no_new_below:
            raise InternalCheckError(
                "iterate %d of the tower has primitives in degree %d, "
                "violating the step-count guarantee" % (_assert_no_new_below - 1, n)
            )
        if prims:
            new_gens[n] = prims
    if not new_gens:
        return tower
    try:
        closed = ideal_closure(tower.space, new_gens, tower.cutoff, base=tower)
    except NotACoideal as err:
        # the theory guarantees success: a failure here is a bug
        raise InternalCheckError("the ideal generated by primitives is not a "
                                 "coideal (degree %d)" % err.degree) from err
    closed.added = {n: len(rows) for n, rows in new_gens.items()}
    return closed


def tower_iterates(space: BraidedSpace, cutoff: int, max_steps=None):
    """The sequence T, S(T), S(S(T)), ... up to the fixpoint at this cutoff.

    Memoized per space as an immutable (iterates, at fixpoint) pair, which a
    later call replaces when it resumes from the last stored iterate."""
    key = ("tower", cutoff)
    iterates, done = space._memo.get(key) or (
        (IdealTower.tensor_algebra(space, cutoff),), False)
    while not done and (max_steps is None or len(iterates) <= max_steps):
        nxt = symmetric_step(iterates[-1], _assert_no_new_below=len(iterates))
        done = nxt is iterates[-1]
        if not done:
            iterates += (nxt,)
            if len(iterates) > cutoff + 3:
                raise InternalCheckError("tower failed to stabilise below the bound")
    space._memo[key] = (iterates, done)
    return list(iterates if max_steps is None else iterates[:max_steps + 1])


def sdeg(space: BraidedSpace, cutoff: int) -> SdegVerdict:
    """Strongness degree at the given cutoff, with a soundness certificate
    when one of the exhaustive criteria applies."""
    if cutoff < 2:
        raise BadParams("strongness degree needs a cutoff >= 2")
    iterates = tower_iterates(space, cutoff)
    value = len(iterates) - 1
    trace = [{"dims": it.dims, "added": dict(it.added)} for it in iterates]
    hecke = space.hecke_analysis()
    certificate = None
    scalar_like = len(space.min_poly) == 2
    if scalar_like and hecke and hecke["regular"]:
        certificate = "scalar braiding with regular mark: strongly graded at all degrees"
        if value != 0:
            raise InternalCheckError("scalar regular braiding must be a fixpoint")
    elif hecke and hecke["regular"]:
        if value > 1:
            raise InternalCheckError(
                "Hecke braiding with regular mark exceeded strongness degree 1"
            )
        certificate = "Hecke braiding with regular mark: degree at most one, attained"
    else:
        final_dims = iterates[-1].dims
        vanish = next((n for n in range(2, cutoff + 1) if final_dims[n] == 0), None)
        if vanish is not None:
            certificate = (
                "graded component %d of the final iterate vanishes; the quotient "
                "is strongly graded as an algebra, so all higher degrees vanish "
                "and the cutoff is exhaustive" % vanish
            )
    status = "certified" if certificate else "lower_bound_at_cutoff"
    return SdegVerdict(value, status, trace, certificate)


def nichols_via_tower(space: BraidedSpace, cutoff: int):
    """Graded dimensions of the stabilised tower: degree n is exact after
    n - 1 steps, so the cutoff run reads each dimension off the right iterate."""
    iterates = tower_iterates(space, cutoff, max_steps=max(cutoff - 1, 0))
    return [1] + [iterates[min(n - 1, len(iterates) - 1)].dim(n) for n in range(1, cutoff + 1)]


def is_quadratic(space: BraidedSpace, cutoff: int) -> bool:
    """Whether the degree-2 primitives already generate the Nichols ideal up
    to the cutoff.  E_2 = I_2 lies in I, so that holds iff dim A_n = dim B^n
    for A = T(V)/(E_2) and n <= cutoff; A is closed one degree at a time, up
    to the first degree that differs."""
    if cutoff < 3:
        raise BadParams("quadraticity needs a cutoff >= 3")
    space.check_budget(cutoff)
    quadratic = IdealTower(space, cutoff)
    relations = {2: [unboxed(row, space.field) for row in primitive_space(space, 2).rows]}
    for n in range(cutoff + 1):
        _close_components(quadratic, relations, n)
        if quadratic.dim(n) != nichols_dims(space, n)[n]:
            return False
    return True
