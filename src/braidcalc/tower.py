"""Graded bialgebra quotients of the tensor algebra as ideal towers.

A quotient T(V,c)/I is its IdealTower: the per-degree ideal components J_n
inside V^(x)n, each a canonical Subspace, and the quotient dimensions they
leave.  The symmetric-algebra step adjoins the quotient's primitives of
degree >= 2 and re-closes the ideal; iterating the step yields the sequence
of towers whose stabilisation count is the strongness degree (combinatorial
rank).  Every degree-n component of the limit is exact after n-1 steps, so
the limit itself is never materialised.

Certification of a strongness-degree verdict at a degree cutoff D uses three
sound routes: a scalar braiding with regular mark is already strongly graded;
a Hecke braiding with regular mark has degree at most one; and a vanishing
graded component at some N <= D truncates everything above it (quotients of
the tensor algebra are strongly graded as algebras), making the cutoff
exhaustive.  Otherwise the verdict is a lower bound at the cutoff.
"""

from __future__ import annotations

from functools import partial

from .errors import BadParams, DegreeBudgetExceeded, InternalCheckError, NotACoideal
from .linalg import (
    Echelon,
    Subspace,
    matvec,
    row_tensor_basis_left,
    row_tensor_basis_right,
)
from .spaces import BraidedSpace
from .tensorbialg import (coproduct_kernel, delta_columns, nichols_dims,
                          primitive_space, times_letter)


class IdealTower:
    """Per-degree components of a graded ideal I, presenting the quotient
    bialgebra T(V,c)/I."""

    __slots__ = ("space", "cutoff", "components", "added")

    def __init__(self, space: BraidedSpace, cutoff: int, components):
        self.space = space
        self.cutoff = cutoff
        self.components = components  # list[Subspace], degrees 0..cutoff
        self.added = {}  # {degree: dimension adjoined by the step that built it}

    @classmethod
    def tensor_algebra(cls, space: BraidedSpace, cutoff: int) -> "IdealTower":
        space.check_budget(cutoff)
        return cls(space, cutoff,
                   [Subspace.zero(space.power(n)) for n in range(cutoff + 1)])

    @property
    def dims(self):
        """Graded dimensions of the quotient bialgebra."""
        return [
            self.space.power(n) - self.components[n].dim
            for n in range(self.cutoff + 1)
        ]

    def __eq__(self, other):
        return (
            isinstance(other, IdealTower)
            and self.cutoff == other.cutoff
            and self.components == other.components
        )

    def __repr__(self):
        return "IdealTower(cutoff=%d, dims=%r)" % (self.cutoff, self.dims)


class SdegVerdict:
    __slots__ = ("value", "status", "tower_trace", "certificate")

    def __init__(self, value, status, tower_trace, certificate):
        self.value = value
        self.status = status  # "certified" | "lower_bound_at_cutoff"
        self.tower_trace = tower_trace
        self.certificate = certificate

    def __repr__(self):
        return "SdegVerdict(value=%d, status=%s)" % (self.value, self.status)


# ---------------------------------------------------------------------------
# quotient reductions
# ---------------------------------------------------------------------------

def reduce_bidegree(tower: IdealTower, vec: dict, a: int, b: int) -> dict:
    """Canonical remainder of a degree-(a+b) vector modulo
    J_a (x) V^b + V^a (x) J_b, via the two quotient maps factor by factor."""
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
            rem = J_b.reduce(slice_vec)
            base = u * dim_b
            for s, val in rem.items():
                vec[base + s] = val
    if J_a.dim:
        by_suffix: dict[int, dict] = {}
        for col, val in vec.items():
            u, s = divmod(col, dim_b)
            by_suffix.setdefault(s, {})[u] = val
        vec = {}
        for s, slice_vec in by_suffix.items():
            rem = J_a.reduce(slice_vec)
            for u, val in rem.items():
                vec[u * dim_b + s] = val
    return dict(vec)


# ---------------------------------------------------------------------------
# ideal closure
# ---------------------------------------------------------------------------

def _close_components(space, generators, cutoff):
    comps = [Subspace.zero(space.power(n)) for n in range(min(2, cutoff + 1))]
    d = space.dim
    for n in range(2, cutoff + 1):
        ech = Echelon(space.power(n))
        prev = comps[n - 1]
        for row in prev.rows:
            for k in range(d):
                ech.add(row_tensor_basis_left(row, d, k, n - 1))
        for row in prev.rows:
            for k in range(d):
                ech.add(row_tensor_basis_right(row, d, k))
        for row in generators.get(n, ()):
            ech.add(row)
        comps.append(Subspace.from_echelon(ech))
    return comps


def _verify_coideal(space, comps, check_rows, cutoff, internal):
    tower = IdealTower(space, cutoff, comps)
    for n, rows in check_rows.items():
        for a in range(1, n):
            b = n - a
            cols = delta_columns(space, a, b)
            for row in rows:
                image = matvec(cols, row)
                rem = reduce_bidegree(tower, image, a, b)
                if rem:
                    if internal:
                        raise InternalCheckError(
                            "ideal generated by primitives is not a coideal "
                            "(degree %d, bidegree (%d, %d))" % (n, a, b)
                        )
                    raise NotACoideal(n, row)


def _verify_braiding_stability(space, check, cutoff, internal, max_pad=None):
    """c^{u,t}(V^u (x) J_t) inside J_t (x) V^u and the mirror inclusion, for
    each Subspace J_t of check = {t: J_t}."""
    for t, J_t in check.items():
        pads = range(1, cutoff - t + 1) if max_pad is None else range(1, min(max_pad, cutoff - t) + 1)
        for u in pads:
            dim_u = space.power(u)
            for w in range(dim_u):
                for row in J_t.rows:
                    # left pad: e_w (x) row, then braid the block across
                    vec = {w * space.power(t) + c: v for c, v in row.items()}
                    image = space.braiding_block_apply(u, t, vec)
                    # expect membership in J_t (x) V^u: reduce prefix slices
                    by_suffix: dict[int, dict] = {}
                    for col, val in image.items():
                        hi, lo = divmod(col, dim_u)
                        by_suffix.setdefault(lo, {})[hi] = val
                    ok = all(J_t.contains(sl) for sl in by_suffix.values())
                    if ok:
                        vec2 = {c * dim_u + w: v for c, v in row.items()}
                        image2 = space.braiding_block_apply(t, u, vec2)
                        by_prefix: dict[int, dict] = {}
                        for col, val in image2.items():
                            hi, lo = divmod(col, space.power(t))
                            by_prefix.setdefault(hi, {})[lo] = val
                        ok = all(J_t.contains(sl) for sl in by_prefix.values())
                    if not ok:
                        if internal:
                            raise InternalCheckError(
                                "braiding does not stabilise the ideal "
                                "(degree %d, pad %d)" % (t, u)
                            )
                        raise NotACoideal(t, row)


def ideal_closure(space: BraidedSpace, generators, cutoff: int,
                  verify: str = "light", internal: bool = False) -> IdealTower:
    """Smallest per-degree tower containing the generators and closed under
    left/right concatenation, with the coideal and braiding-stability
    properties checked on the generators (verify="light"), on everything
    (verify="full"), or not at all (verify="off").

    Generator failures raise NotACoideal for user input and
    InternalCheckError when the generators came from a primitive-space
    computation, where the theory guarantees success.
    """
    space.check_budget(cutoff)
    gen_rows: dict[int, list] = {}
    for n, gen in (generators or {}).items():
        if n < 2:
            raise BadParams("ideal generators must have degree >= 2")
        if n > cutoff:
            raise DegreeBudgetExceeded(n, cutoff)
        rows = gen.rows if isinstance(gen, Subspace) else list(gen)
        if rows:
            gen_rows[n] = rows
    comps = _close_components(space, gen_rows, cutoff)
    if verify != "off":
        if verify == "full":
            check = {n: comps[n].rows for n in range(2, cutoff + 1) if comps[n].dim}
        else:
            check = gen_rows
        _verify_coideal(space, comps, check, cutoff, internal)
        _verify_braiding_stability(
            space,
            {n: comps[n] if verify == "full" else Subspace.from_rows(space.power(n), rows)
             for n, rows in check.items()},
            cutoff, internal,
            max_pad=None if verify == "full" else 1)
    return IdealTower(space, cutoff, comps)


# ---------------------------------------------------------------------------
# quotient primitives and the symmetric-algebra step
# ---------------------------------------------------------------------------

def quotient_primitives(tower: IdealTower, n: int) -> Subspace:
    """Lifted degree-n primitives of the quotient: all x in V^(x)n whose
    inner coproduct components land in J (x) V + V (x) J.  Contains J_n."""
    space = tower.space
    space.check_budget(n)
    if n > tower.cutoff:
        raise DegreeBudgetExceeded(n, tower.cutoff)
    size = space.power(n)
    if n <= 1:
        return Subspace.zero(size)
    if all(tower.components[k].dim == 0 for k in range(2, n)):
        # quotient maps are trivial below degree n: these are plain primitives
        prims = primitive_space(space, n)
        if tower.components[n].dim == 0:
            return prims
        ech = tower.components[n].echelon()
        ech.add_rows(prims.rows)
        return Subspace.from_echelon(ech)
    basis = coproduct_kernel(space, n, range(1, n), tower.dims,
                             partial(reduce_bidegree, tower))
    return Subspace.from_rows(size, basis)


def symmetric_step(tower: IdealTower, _assert_no_new_below: int = 0) -> IdealTower:
    """Adjoin all quotient primitives of degree >= 2 and re-close the tower.

    Returns the tower itself when it is already a fixpoint at this cutoff.
    """
    new_gens = {}
    added = {}
    for n in range(2, tower.cutoff + 1):
        prims = quotient_primitives(tower, n)
        extra = prims.dim - tower.components[n].dim
        if extra < 0:
            raise InternalCheckError("primitive space lost ideal vectors")
        if 2 <= n <= _assert_no_new_below and extra:
            raise InternalCheckError(
                "iterate %d of the tower has primitives in degree %d, "
                "violating the step-count guarantee" % (_assert_no_new_below - 1, n)
            )
        if prims.dim:
            # the full primitive space, not just the growth: degrees that did
            # not grow still carry the old ideal, which the closure must keep
            new_gens[n] = prims
        if extra:
            added[n] = extra
    if not added:
        return tower
    closed = ideal_closure(tower.space, new_gens, tower.cutoff, internal=True)
    closed.added = added
    return closed


def tower_iterates(space: BraidedSpace, cutoff: int, max_steps=None):
    """The sequence T, S(T), S(S(T)), ... up to the fixpoint at this cutoff.

    Memoized per space as an immutable (iterates, at fixpoint) pair, which a
    later call replaces when it resumes from the last stored iterate."""
    key = ("tower", cutoff)
    iterates, done = space._memo.get(key) or (
        (IdealTower.tensor_algebra(space, cutoff),), False)
    while not done and (max_steps is None or len(iterates) <= max_steps):
        tower = iterates[-1]
        nxt = symmetric_step(tower, _assert_no_new_below=len(iterates))
        done = nxt is tower
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
    out = [1]
    for n in range(1, cutoff + 1):
        idx = min(n - 1, len(iterates) - 1)
        out.append(iterates[idx].dims[n])
    return out


def quadratic_dims(space: BraidedSpace):
    """Yield dim A_n, n = 0, 1, 2, ..., of the quadratic algebra
    A = T(V)/(E_2), by normal words as in the Nichols recursion: A_n is
    A_(n-1) (x) V modulo the images sum r_yz R_y(u) (x) z of the products
    u r, u in N_(n-2) and r in E_2, and its normal words are the non-pivot
    columns of their echelon."""
    d, one = space.dim, space.field.one
    relations = primitive_space(space, 2).rows
    # coords[k * d + x] = R_x(e_k) from degree n - 2 to degree n - 1
    prev, rank, coords = 1, d, [{x: one} for x in range(d)]
    yield 1
    yield d
    while True:
        lifted = times_letter(coords, d)
        width = rank * d
        ech = Echelon(width)
        ech.add_rows(matvec(lifted, {k * d * d + w: v for w, v in r.items()})
                     for k in range(prev) for r in relations)
        ech.back_substitute()
        pivots = ech.pivot_rows
        index = {c: i for i, c in enumerate(c for c in range(width) if c not in pivots)}
        # a pivot column is minus the free part of its RREF row
        coords = [{index[c]: one} if c in index else
                  {index[f]: -v for f, v in pivots[c].items() if f != c}
                  for c in range(width)]
        prev, rank = rank, len(index)
        yield rank


def is_quadratic(space: BraidedSpace, cutoff: int) -> bool:
    """Whether the degree-2 primitives already generate the Nichols ideal up
    to the cutoff.  E_2 = I_2 lies in I, so that holds iff dim A_n = dim B^n
    for A = T(V)/(E_2) and n <= cutoff; checked up to the first degree that
    differs."""
    if cutoff < 3:
        raise BadParams("quadraticity needs a cutoff >= 3")
    space.check_budget(cutoff)
    return all(dim == nichols_dims(space, n)[n]
               for n, dim in zip(range(cutoff + 1), quadratic_dims(space)))


def delta_injectivity_ladder(tower: IdealTower, upto: int) -> dict:
    """Injectivity of the quotient coproduct components, bidegree by bidegree.

    Returns {(a, b): bool}; the k-th tower iterate must be injective for all
    a + b <= k + 1.
    """
    dims = tower.dims
    reduce = partial(reduce_bidegree, tower)
    out = {}
    for n in range(2, upto + 1):
        J_n = tower.components[n]
        for a in range(1, n):
            kernel = coproduct_kernel(tower.space, n, [a], dims, reduce)
            out[(a, n - a)] = all(J_n.contains(v) for v in kernel)
    return out
