"""Brackets, universal enveloping quotients and PBW verdicts.

A bracket assigns to each canonical basis vector of a degree-n primitive
space a value in V, compatibly with the braiding.  The enveloping algebra is
the quotient of the tensor algebra by the two-sided ideal generated by
u - b(u); since that ideal is inhomogeneous, everything is computed inside
the tensor-length filtration T_(m) = K + V + ... + V^(x)m.

The computed ideal is spanned by explicit products x (u - b(u)) y, so it is
always a subspace of the true ideal.  That makes negative verdicts sound
(a vector of V caught in the span is genuinely killed in the quotient), while
positive verdicts are reported relative to the degree budget and slack
window, never absolutely.

Filtration columns are ordered by degree, highest first, so the rows of the
echelon whose pivots sit in blocks of degree <= n form a basis of the span's
intersection with T_(n); dimensions of the standard filtration of U and of
its associated graded fall out by counting pivots.  Those rows have no entry
before their pivot, so the injectivity verdict back-substitutes only the
rows of T_(1), the ones it reads.  The primitive check solves on the normal
words, the free columns of T_(N), each its own remainder rho.  A span row is
x g y, g in the span G of the primitives u - b(u); a validated bracket gives
c(V (x) G) in G (x) V, so each term of Delta(x g y) has a spanned product in
one factor: (rho (x) rho) Delta-bar vanishes on the span, and rho maps the
solutions over all words onto those over the free words.  `Echelon.reduce`
gives rho on any echelon, so nothing is back-substituted.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import cache, cached_property, partial
from itertools import accumulate
from typing import NamedTuple

from .errors import BadParams, DomainMismatch, InternalCheckError, IrregularMark, NotABracket
from .linalg import (Echelon, Subspace, apply_slot, boxed, holds_scalars, left_kernel, matvec,
                     unboxed, vec_axpy)
from .spaces import BraidedSpace
from .tensorbialg import component_columns, has_primitives, primitive_space
from .tower import tower_iterates


class BracketTable:
    """Values of a bracket on the canonical bases of the primitive spaces.

    entries[n][k] is the value in V (sparse dict over 0..d-1) taken on the
    k-th canonical basis row of the degree-n primitive space.  Degrees above
    the cutoff are implicitly zero; the filtration machinery warns when such
    degrees carry nonzero primitives, because products of their generators
    are then left out of the computed ideal (unconstrained degrees).
    """

    def __init__(self, space: BraidedSpace, entries: dict, validated=False):
        self.space = space
        self.entries = {n: [dict(v) for v in vecs] for n, vecs in sorted(entries.items())}
        for n in self.entries:
            if n < 2:
                raise BadParams("brackets are defined on degrees >= 2")
        self.cutoff = max(self.entries, default=1)
        self.validated = validated

    @classmethod
    def zero(cls, space: BraidedSpace, cutoff: int) -> "BracketTable":
        entries = {n: [{} for _ in range(primitive_space(space, n).dim)]
                   for n in range(2, cutoff + 1)}
        table = cls(space, entries, validated=True)
        table.cutoff = cutoff
        return table

    def is_zero(self) -> bool:
        return all(not v for vecs in self.entries.values() for v in vecs)

    def value(self, n: int, coords: dict) -> dict:
        """b of an element of the degree-n primitive space given its
        coordinates {k: coefficient} over the canonical basis, of scalars or
        raw coefficients as the coordinates."""
        vecs, fld = self.entries.get(n), self.space.field
        if vecs is None or holds_scalars(coords, fld):
            return {} if vecs is None else matvec(vecs, coords)
        return matvec({k: unboxed(vecs[k], fld) for k in coords}, coords, fld)


def validate_bracket(space: BraidedSpace, table: BracketTable) -> BracketTable:
    """Check the braiding-compatibility law on every degree of the table.

    First asserts the theorem-level inclusion that block braidings carry
    E_n (x) V into V (x) E_n (and mirrored); its failure is a bug, not user
    error.  Then verifies c(b (x) V) = (V (x) b) c_{E,V} and the mirrored law
    on all basis pairs, raising NotABracket with a witness otherwise.
    """
    d = space.dim
    entries = {}
    for n, vecs in table.entries.items():
        prims = primitive_space(space, n)
        if len(vecs) != prims.dim:
            raise DomainMismatch("degree %d table has %d columns, primitive space has "
                                 "dimension %d" % (n, len(vecs), prims.dim))
        entries[n] = vecs
        if prims.dim == 0:
            continue
        dim_n = space.power(n)

        def bracket_of(where, sl):
            coords = prims.coordinates(sl)
            if coords is None:
                raise InternalCheckError("block braiding left the primitive space "
                                         "(degree %d%s)" % (n, where))
            return table.value(n, coords)

        for k, row in enumerate(prims.rows):
            for j in range(d):
                # (V (x) b) c_{E,V} (u (x) e_j) against c(b(u) (x) e_j)
                image = space.braiding_block_apply(
                    n, 1, {c * d + j: v for c, v in row.items()})
                rhs = apply_slot(image, dim_n, 1, partial(bracket_of, ""), d)
                lhs = space.apply_word(2, (1,), {v * d + j: val
                                                 for v, val in vecs[k].items()})
                if lhs != rhs:
                    raise NotABracket(n, (k, j), "left compatibility fails")
                # mirrored law: c(V (x) b) = (b (x) V) c_{V,E} on e_j (x) u
                image = space.braiding_block_apply(
                    1, n, {j * dim_n + c: v for c, v in row.items()})
                rhs = apply_slot(image, dim_n, d,
                                 partial(bracket_of, ", mirrored"), d)
                lhs = space.apply_word(2, (1,), {j * d + v: val
                                                 for v, val in vecs[k].items()})
                if lhs != rhs:
                    raise NotABracket(n, (k, j), "right compatibility fails")
    return BracketTable(space, entries, validated=True)


# -- the filtered enveloping quotient -----------------------------------------

class FilteredQuotient:
    """Span of the explicit ideal products inside T_(N + slack)."""

    def __init__(self, bracket: BracketTable, cutoff: int, slack: int):
        if not bracket.validated:
            raise BadParams("validate the bracket before building the filtration")
        space = bracket.space
        top = cutoff + slack
        space.check_budget(top)
        self.bracket = bracket
        self.cutoff = cutoff
        self.slack = slack
        self.top = top
        # column offsets of T_(top), blocks ordered degree-descending
        self.offsets = [0] * (top + 1)
        self.ncols = 0
        for k in range(top, -1, -1):
            self.offsets[k] = self.ncols
            self.ncols += space.power(k)
        self.echelon = Echelon(self.ncols, space.field)
        self.history = {n: [] for n in range(0, cutoff + 1)}
        self._build()

    # -- construction ----------------------------------------------------------

    def _build(self):
        space = self.bracket.space
        d, fld = space.dim, space.field
        gens = []  # (degree t, top part, minus the bracket part over V), raw
        for t in range(2, min(self.top, self.bracket.cutoff) + 1):
            prims = primitive_space(space, t)
            vecs = self.bracket.entries.get(t) or [{}] * prims.dim
            for k, row in enumerate(prims.rows):
                value = {j: -v for j, v in (vecs[k] if k < len(vecs) else {}).items()}
                gens.append((t, unboxed(row, fld), unboxed(value, fld)))
        for m in range(2, self.top + 1):
            for t, u_vec, b_vec in gens:
                if t > m:
                    continue
                for p in range(m - t + 1):
                    q = m - t - p
                    dim_t, dim_q = space.power(t), space.power(q)
                    top, low = self.offsets[m], self.offsets[p + 1 + q]
                    for x in range(space.power(p)):
                        for y in range(dim_q):
                            # x (u - b(u)) y, u the generator
                            row = {top + (x * dim_t + c) * dim_q + y: v for c, v in u_vec.items()}
                            for j, v in b_vec.items():
                                row[low + (x * d + j) * dim_q + y] = v
                            self.echelon.add(row)
            self._record_history()

    def _record_history(self):
        # the blocks run degree-descending from offset 0, so the pivots of
        # degree <= n are the ones from offsets[n] on
        pivots = self.echelon.pivots
        for n, hist in self.history.items():
            hist.append(len(pivots) - bisect_left(pivots, self.offsets[n]))

    # -- reported data ----------------------------------------------------------

    @cached_property
    def unconstrained(self) -> list:
        """The degrees above the bracket's cutoff, up to top, with nonzero
        primitives, whose products the span leaves out; decided on first read."""
        space = self.bracket.space
        return [t for t in range(self.bracket.cutoff + 1, self.top + 1) if has_primitives(space, t)]

    def ideal_dim(self, n: int) -> int:
        """Dimension of (computed ideal) intersect T_(n): its pivots from offsets[n] on."""
        pivots = self.echelon.pivots
        return len(pivots) - bisect_left(pivots, self.offsets[n])

    @property
    def dims_U(self):
        sizes = accumulate(map(self.bracket.space.power, range(self.cutoff + 1)))
        return [total - self.ideal_dim(n) for n, total in enumerate(sizes)]

    @property
    def stabilized(self):
        s = self.slack
        return {n: s > 0 and len(hist) > s and hist[-1] == hist[-1 - s]
                for n, hist in self.history.items()}

    def span_rows_in(self, n: int):
        """Echelon rows, raw, lying in T_(n) (pivot in a block of degree <= n)."""
        return self.echelon.rows(self.offsets[n])

    def reduce(self, mixed_vec: dict) -> dict:
        """The canonical remainder of a vector of T_(top) modulo the span, of
        scalars or of raw coefficients."""
        return self.echelon.reduce(mixed_vec)

    def primitives(self, n: int) -> list:
        """A basis of the primitives of T_(n) modulo the span in degrees >= 1,
        raw, over the normal words: the free columns, each its own remainder."""
        space, offsets = self.bracket.space, self.offsets
        fld, pivots = space.field, set(self.echelon.pivots)
        rho = cache(lambda col: self.reduce({col: fld.raw_one}))
        # unknowns: the free words of degrees 1..n, the last first, so that
        # `left_kernel` eliminates them from degree 1 up; the image of each is
        # its inner coproduct components pushed into quotient (x) quotient
        unknowns = [(k, w) for k in range(n, 0, -1) for w in reversed(range(space.power(k)))
                    if offsets[k] + w not in pivots]
        images = []
        for k, w in unknowns:
            img: dict = {}
            for a in range(1, k):
                b = k - a
                for col, val in component_columns(space, a, b, (w,))[0].items():
                    u, v = divmod(col, space.power(b))
                    rv = rho(offsets[b] + v)
                    for c1, s1 in vec_axpy({}, val, rho(offsets[a] + u), 0, fld).items():
                        vec_axpy(img, s1, rv, c1 * self.ncols, fld)
            images.append(img)
        return [{offsets[unknowns[i][0]] + unknowns[i][1]: v for i, v in sol.items()}
                for sol in left_kernel(images, field=fld)]

    def vector_in_V_cap_ideal(self):
        """A nonzero element of V caught in the computed ideal, if any."""
        for row in self.span_rows_in(1) if self.top else ():  # T_(0) holds no V
            off = self.offsets[1]
            vec = {c - off: v for c, v in row.items() if c >= off}
            if any(c < off for c in row):
                raise InternalCheckError("ideal row with constant term")
            if vec:
                return boxed(vec, self.bracket.space.field)
        return None


def enveloping_filtration(bracket: BracketTable, cutoff: int,
                          slack: int = 2) -> FilteredQuotient:
    return FilteredQuotient(bracket, cutoff, slack)


# -- verdicts -----------------------------------------------------------------

class PbwVerdict(NamedTuple):
    status: str  # pbw_consistent | fails_certified | inconclusive_at_cutoff
    cutoff: int
    slack: int
    gr_dims: list
    s_dims: list
    failure_degree: int = None
    theta_bound_ok: bool = True
    detail: str = ""


class LieVerdict(NamedTuple):
    status: str  # is_lie_up_to | fails_certified
    cutoff: int
    slack: int
    witness: dict = None


def symmetric_algebra_dims(space: BraidedSpace, cutoff: int):
    """Graded dimensions of the quotient by all primitives of degree >= 2:
    the first step of the tower, shared with sdeg and nichols_via_tower."""
    return tower_iterates(space, cutoff, max_steps=1)[-1].dims


def pbw_check(bracket: BracketTable, cutoff: int, slack: int = 2,
              filtration: FilteredQuotient = None) -> PbwVerdict:
    """Compare the associated graded of the standard filtration against the
    symmetric algebra.  A shortfall below the symmetric dimensions is a
    certified failure (the computed ideal only ever underestimates); equality
    with stable spans is consistency at this budget; an excess that refuses
    to stabilise is reported as inconclusive."""
    fq = filtration or enveloping_filtration(bracket, cutoff, slack)
    space = bracket.space
    s_dims = symmetric_algebra_dims(space, cutoff)
    sigma = list(accumulate(s_dims))
    dims_u = fq.dims_U
    gr_dims = [dims_u[0]] + [dims_u[n] - dims_u[n - 1] for n in range(1, cutoff + 1)]
    theta_ok = all(gr_dims[n] <= s_dims[n] for n in range(cutoff + 1))
    for n in range(1, cutoff + 1):
        if dims_u[n] < sigma[n]:
            return PbwVerdict(
                "fails_certified", cutoff, slack, gr_dims, s_dims,
                failure_degree=n, theta_bound_ok=theta_ok,
                detail="filtration dimension %d below the symmetric bound %d "
                       "in degree %d" % (dims_u[n], sigma[n], n))
    stab = fq.stabilized
    if all(dims_u[n] == sigma[n] for n in range(cutoff + 1)) and \
       all(stab[n] for n in range(2, cutoff + 1)):
        return PbwVerdict("pbw_consistent", cutoff, slack, gr_dims, s_dims,
                          theta_bound_ok=theta_ok)
    return PbwVerdict("inconclusive_at_cutoff", cutoff, slack, gr_dims, s_dims,
                      theta_bound_ok=theta_ok, detail="ideal spans not stabilised or above "
                      "the symmetric bound; raise the slack or the cutoff")


def lie_check(bracket: BracketTable, cutoff: int, slack: int = 2,
              filtration: FilteredQuotient = None) -> LieVerdict:
    """Injectivity of V into the truncated enveloping quotient."""
    fq = filtration or enveloping_filtration(bracket, cutoff, slack)
    witness = fq.vector_in_V_cap_ideal()
    return LieVerdict("is_lie_up_to" if witness is None else "fails_certified",
                      cutoff, slack, witness)


def primitive_check(bracket: BracketTable, cutoff: int, slack: int = 2,
                    filtration: FilteredQuotient = None) -> bool:
    """Whether the primitives of the truncated quotient are exactly the image
    of V: d of them, and no vector of V in the span, so that the words of V
    are free, hence d independent primitives among them."""
    fq = filtration or enveloping_filtration(bracket, cutoff, slack)
    return len(fq.primitives(cutoff)) == bracket.space.dim and fq.vector_in_V_cap_ideal() is None


class HeckePresentation(NamedTuple):
    mark: object
    relations: list
    induced_bracket_zero: bool


def hecke_presentation(bracket: BracketTable):
    """Quadratic-inhomogeneous presentation c(z) - q z - b(c(z) - q z) of the
    enveloping quotient, available exactly for Hecke braidings with regular
    mark.  Returns None for non-Hecke braidings."""
    space = bracket.space
    info = space.hecke_analysis()
    if info is None:
        return None
    if not info["regular"]:
        raise IrregularMark("Hecke mark %s is not regular" % (info["mark"],))
    for n, vecs in bracket.entries.items():
        if n > 2 and any(v for v in vecs):
            raise DomainMismatch("Hecke presentations need a bracket supported in degree 2")
    q = info["mark"]
    d = space.dim
    one = space.field.one
    prims = primitive_space(space, 2)
    # Im(c - q Id) must be the whole degree-2 primitive space
    image_rows = []
    size = d * d
    for z in range(size):
        img = space.apply_word(2, (1,), {z: one})
        vec_axpy(img, -q, {z: one})
        image_rows.append(img)
    image = Subspace.from_rows(size, (r for r in image_rows if r))
    if not (image == prims):
        raise InternalCheckError("image of (c - q Id) differs from the degree-2 primitives")
    relations = []
    for rel_top in image_rows:
        b_val = bracket.value(2, prims.coordinates(rel_top))
        relations.append({"quadratic": dict(rel_top),
                          "linear": {j: -v for j, v in b_val.items()}})
    return HeckePresentation(q, relations,
                             not any(rel["linear"] for rel in relations))
