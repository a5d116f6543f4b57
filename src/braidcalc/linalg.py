"""Sparse linear algebra over a cyclotomic field, exact or modulo a prime.

Vectors are dicts {column index: nonzero scalar}.  Subspaces are kept in
reduced row echelon form with a fixed ascending column order, so two equal
subspaces have literally identical representations and equality, membership
and inclusion tests are syntactic.

The echelon is built by forward reduction (each incoming row is reduced
against the pivots found so far) and back-substituted once at the end, all of
it or only the rows pivoting from a given column on, which meet no earlier
pivot; sparsity of the input rows is preserved as far as the fill-in pattern
of the pivot graph allows, which for the monomial and diagonal braidings that
dominate this workbench means eliminations never leave the orbit of words
a row touches.

One elimination serves two arithmetics: `Echelon`, `matvec`, `kernel_basis`,
`left_kernel` and `stacked_kernel` work on exact scalars, accumulated by
`vec_axpy`, or, given a keyword prime p, on ints mod p, accumulated by
`_axpy_mod`; only `certified_kernel` passes a prime.  Every kernel of a
family comes back in RREF: `left_kernel` eliminates the unknowns from the
last down, so each free unknown leads its free-column vector, the kernel's
RREF row at that pivot, and `stacked_kernel` keeps that shape when it
combines an RREF basis.  `enveloping.primitive_check` lists its unknowns in
reverse, because its elimination runs faster from degree 1 up.

This module is the one place that does sparse arithmetic.  Its kernels:

* `vec_axpy`, target[offset + col] += c * source[col], dropping cancelled
  entries: the one accumulate loop, which over fields of degree 1 and 2
  works on coefficient tuples (`scalars.coeff_axpy`);
* `matvec`, a sparse matrix given by its columns applied to a vector, which
  is also the linear combination sum_i c_i v_i of a family;
* `apply_slot`, Id (x) f (x) Id: a map applied to one tensor slot;
* `reduce_by_pivots`, the canonical remainder modulo pivot rows, shared by
  `Echelon.reduce` and `Subspace.reduce`;
* `kernel_basis`, the canonical free-column kernel of a set of constraint
  rows, and `left_kernel`, the RREF kernel of a family;
* `stacked_kernel`, the common kernel of a family of maps on a subspace,
  solved map by map on the basis the earlier maps leave, so that no map is
  applied to a vector an earlier one has ruled out;
* `Subspace.coordinates`, a member's coordinates over the canonical basis;
* `certified_kernel`, the RREF of the common kernel of exact sparse column
  maps by the modular route: the primitives E_n of T(V), the quotient
  primitives of a tower and the blocks that decide E_n != 0.

`certified_kernel` takes a prime p = 1 (mod m) below 2^30 that divides no
denominator of the columns, maps each coefficient to F_p under each of the
phi(m) embeddings zeta -> omega_j of Q(zeta_m) (`scalars.Reduction`), and
solves `stacked_kernel` mod p map by map in the order given, the first
embedding through every map before the others, drawing a map only while the
kernel is not empty: rank mod p is at most the rank over Q(zeta_m), so an
empty kernel under one embedding proves the kernel zero.  Otherwise every
embedding must give the same pivots; the entries are interpolated back to
power-basis coefficients mod p, combined over the primes so far by CRT, and
rationally reconstructed.  The lifted rows are certified exactly: M x = 0
for every map M and row x, they lead at distinct pivots, so they are
independent, and their number is the nullity mod p, which bounds the
nullity from above, so they are the RREF of the kernel.  Primes are added
while reconstruction fails or the lift changes; all but finitely many
primes give the true pivots, so the lift settles once the modulus is large
enough.  A lift that repeats on two primes in a row and fails the
certificate hands the same columns to `stacked_kernel`.
"""

from __future__ import annotations

import itertools

from functools import partial

from .scalars import CycloScalar, Reduction, coeff_axpy, crt, rational_lift


def vec_axpy(target: dict, coeff, source: dict, offset: int = 0) -> dict:
    """target[offset + col] += coeff * source[col], dropping cancelled entries;
    returns target.  Degrees 1 and 2 work on coefficient tuples (`coeff_axpy`)."""
    if coeff.__class__ is CycloScalar and coeff.field.degree < 3:
        coeff_axpy(target, coeff, source, offset)
    elif not coeff.is_zero():
        for col, val in source.items():
            tgt = offset + col if offset else col
            cur = target.get(tgt)
            new = coeff * val if cur is None else cur + coeff * val
            if new.is_zero():
                target.pop(tgt, None)
            else:
                target[tgt] = new
    return target


def _axpy_mod(p: int, target: dict, coeff: int, source: dict) -> dict:
    """target += coeff * source mod p, dropping entries that vanish; returns
    target.  The prime comes first, for `partial` to bind."""
    for col, val in source.items():
        new = (target.get(col, 0) + coeff * val) % p
        if new:
            target[col] = new
        else:
            del target[col]
    return target


def matvec(columns, vec: dict, *, p=None) -> dict:
    """sum_w vec[w] * columns[w]: the matrix with these sparse columns applied
    to vec, or equally the combination of a family with coefficients vec."""
    out: dict = {}
    axpy = vec_axpy if p is None else partial(_axpy_mod, p)
    for w, s in vec.items():
        axpy(out, s, columns[w])
    return out


def apply_slot(vec: dict, mid: int, right: int, f, width: int) -> dict:
    """(Id (x) f (x) Id) vec for keys (l * mid + m) * right + r: f takes each
    (l, r) slice, a vector over range(mid), to a vector over range(width)."""
    slices: dict = {}
    for col, val in vec.items():
        head, r = divmod(col, right)
        slices.setdefault((head // mid, r), {})[head % mid] = val
    return {(l * width + m) * right + r: v
            for (l, r), sl in slices.items() for m, v in f(sl).items()}


def reduce_by_pivots(row: dict, pivots: dict, axpy=vec_axpy) -> dict:
    """Remainder of row after eliminating every column of {pivot: row}."""
    row = dict(row)
    while row:
        lead = min(row)
        prow = pivots.get(lead)
        if prow is None:
            # then every later pivot column too, for a canonical remainder:
            # ascending, in passes until none is left, since an elimination
            # fills in only columns past its pivot and the pivot rows need
            # not be reduced
            while cols := sorted(c for c in row if c in pivots):
                for col in cols:
                    val = row.get(col)
                    if val is not None:
                        axpy(row, -val, pivots[col])
            return row
        axpy(row, -row[lead], prow)
    return row


class Echelon:
    """Mutable row echelon accumulator over a fixed column count, of exact
    scalars or, given a prime p, of ints mod p."""

    def __init__(self, ncols: int, *, p=None):
        self.ncols = ncols
        self.p = p
        self._axpy = vec_axpy if p is None else partial(_axpy_mod, p)
        self.pivot_rows: dict[int, dict] = {}
        self._reduced_from = 0  # the rows with pivot >= this are reduced

    @property
    def rank(self) -> int:
        return len(self.pivot_rows)

    def reduce(self, row: dict) -> dict:
        """Return the remainder of row after eliminating all pivot columns."""
        return reduce_by_pivots(row, self.pivot_rows, self._axpy)

    def add(self, row: dict) -> bool:
        """Insert a row; returns True when the rank grew."""
        row = dict(row)
        pivots, axpy, p = self.pivot_rows, self._axpy, self.p
        while row:
            lead = min(row)
            prow = pivots.get(lead)
            if prow is None:
                leadval = row.pop(lead)
                one = leadval.field.one if p is None else 1
                if leadval != one:
                    row = axpy({}, leadval.inv() if p is None else pow(leadval, -1, p), row)
                row[lead] = one
                pivots[lead] = row
                self._reduced_from = float("inf")
                return True
            axpy(row, -row[lead], prow)
        return False

    def add_rows(self, rows) -> int:
        added = 0
        for row in rows:
            if self.add(row):
                added += 1
        return added

    def back_substitute(self, start: int = 0) -> None:
        """Bring the rows whose pivot is >= start into fully reduced form: a
        row has no entry before its pivot, so it needs only those pivots."""
        done = self._reduced_from
        if start >= done:
            return
        pivots, axpy = self.pivot_rows, self._axpy
        for pcol in sorted((c for c in pivots if start <= c < done), reverse=True):
            # every row pivoting after pcol is reduced by now, so eliminating
            # its pivot fills in no pivot column: one pass clears the row
            row = pivots[pcol]
            for col in sorted(c for c in row if c in pivots and c != pcol):
                axpy(row, -row[col], pivots[col])
        self._reduced_from = start

    def rows(self) -> list[dict]:
        self.back_substitute()
        return [self.pivot_rows[c] for c in sorted(self.pivot_rows)]


class Subspace:
    """A subspace of a coordinate space, held canonically in RREF: rows are
    the RREF rows, ascending by pivot."""

    __slots__ = ("ncols", "rows", "pivots", "_index")

    def __init__(self, ncols: int, rows: list[dict]):
        self.ncols = ncols
        self.rows = rows
        self.pivots = tuple(map(min, rows))
        self._index = None

    @classmethod
    def from_rows(cls, ncols: int, rows) -> "Subspace":
        ech = Echelon(ncols)
        ech.add_rows(rows)
        return cls.from_echelon(ech)

    @classmethod
    def from_echelon(cls, ech: Echelon) -> "Subspace":
        return cls(ech.ncols, ech.rows())

    @classmethod
    def zero(cls, ncols: int) -> "Subspace":
        return cls(ncols, [])

    @property
    def dim(self) -> int:
        return len(self.rows)

    def is_zero(self) -> bool:
        return not self.rows

    def echelon(self) -> Echelon:
        ech = Echelon(self.ncols)
        for pcol, row in zip(self.pivots, self.rows):
            ech.pivot_rows[pcol] = dict(row)
        return ech

    def reduce(self, vector: dict) -> dict:
        """Canonical remainder of a vector modulo this subspace."""
        if self._index is None:
            self._index = dict(zip(self.pivots, self.rows))
        return reduce_by_pivots(vector, self._index)

    def coordinates(self, vector: dict):
        """{k: coefficient} over the canonical rows, or None outside."""
        if not self.contains(vector):
            return None
        return {k: vector[p] for k, p in enumerate(self.pivots) if p in vector}

    def contains(self, vector: dict) -> bool:
        return not self.reduce(vector)

    def contains_subspace(self, other: "Subspace") -> bool:
        return all(self.contains(r) for r in other.rows)

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.ncols == other.ncols
            and self.pivots == other.pivots
            and self.rows == other.rows
        )

    def __repr__(self):
        return "Subspace(dim=%d, ncols=%d)" % (self.dim, self.ncols)


def kernel_basis(rows, ncols: int, one=None, *, p=None) -> list[dict]:
    """Basis of {x : R x = 0} given the constraint rows of R.

    The basis is the canonical free-column one: for every non-pivot column f
    (ascending) the vector with 1 at f and -R[q][f] at each pivot column q.
    `one` supplies the unit scalar when the constraint set might be empty.
    """
    ech = Echelon(ncols, p=p)
    ech.add_rows(rows)
    ech.back_substitute()
    pivots = ech.pivot_rows
    for pcol, row in pivots.items():
        one = row[pcol]
        break
    if one is None:
        raise ValueError("kernel of an empty constraint set needs a unit hint")
    # collect, per free column, the pivot entries hitting it
    free_entries: dict[int, dict] = {}
    for pcol, row in pivots.items():
        for col, val in row.items():
            if col != pcol:
                free_entries.setdefault(col, {})[pcol] = -val if p is None else p - val
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        vec = dict(free_entries.get(f, {}))
        vec[f] = one
        basis.append(vec)
    return basis


def left_kernel(vectors: list[dict], one=None, *, p=None) -> list[dict]:
    """RREF basis of {lambda : sum_i lambda_i v_i = 0} for a list of sparse
    vectors, whose column keys may be any hashables: `kernel_basis` of the
    transposed family with the unknowns numbered from the last down."""
    last = len(vectors) - 1
    transposed: dict = {}
    for i, vec in enumerate(vectors):
        for col, val in vec.items():
            transposed.setdefault(col, {})[last - i] = val
    return [{last - c: v for c, v in vec.items()} for vec in
            reversed(kernel_basis(transposed.values(), len(vectors), one, p=p))]


def stacked_kernel(basis, maps, one=None, *, p=None) -> list[dict]:
    """Vectors spanning {x in span(basis) : f(x) = 0 for every f in maps},
    for linear maps given as callables from a vector to its image or as the
    lists of their sparse columns; its RREF basis when basis is an int or
    RREF rows.  An int basis n stands for the unit vectors {i: one}, i < n,
    whose kernel is then the `left_kernel` rows themselves.  The maps are
    solved one at a time: map k sees only the vectors that the maps before
    it leave, their combinations from the `left_kernel` of its images, and
    an empty kernel ends the loop before the next map is drawn."""
    units = basis.__class__ is int
    for f in maps if basis else ():
        if f.__class__ is list:  # the map's columns
            images = f if units else [matvec(f, b, p=p) for b in basis]
        else:
            images = [f({i: one}) for i in range(basis)] if units else [f(b) for b in basis]
        if any(images):
            kernel = left_kernel(images, p=p)
            basis = kernel if units else [matvec(basis, c, p=p) for c in kernel]
            units = False
            if not basis:
                break
    return [{i: one} for i in range(basis)] if units else basis


def certified_kernel(maps, count: int, field) -> list[dict]:
    """RREF rows of {x : M x = 0 for every M in maps}, x over count unknowns,
    each map a list of count exact sparse columns, drawn lazily and in order;
    by the modular route, or by `stacked_kernel` when that gives up."""
    drawn, source = [], iter(maps)

    def columns():
        yield from drawn
        for cols in source:
            drawn.append(cols)
            yield cols

    pivots = entries = modulus = previous = None
    for index in itertools.count():
        red = Reduction(field, index)
        p = red.p
        kernels = _kernels_mod(red, columns, count, field.degree)
        if kernels is None:
            continue  # p divides a denominator
        if not kernels:
            return []  # rank mod p <= rank over Q(zeta_m): the kernel is 0
        shape = [min(v) for v in kernels[0]]
        if any([min(v) for v in k] != shape for k in kernels[1:]):
            continue
        residues = {(i, c): red.coefficients([v.get(c, 0) for v in rows])
                    for i, rows in enumerate(zip(*kernels))
                    for c in set().union(*rows)}
        if shape != pivots:
            # the first pivots, or new ones, start afresh: a prime with the
            # wrong pivots costs primes only, as the certificate decides
            pivots, entries, modulus = shape, residues, p
        else:
            zero = (0,) * field.degree
            entries = {key: tuple(crt(r, modulus, s, p) for r, s in
                                  zip(entries.get(key, zero), residues.get(key, zero)))
                       for key in entries.keys() | residues.keys()}
            modulus *= p
        rows = _lift_rows(field, entries, modulus, len(pivots))
        if rows is None:
            continue  # the modulus is still too small to reconstruct
        if _annihilated(drawn, rows):
            return rows  # certified: the RREF of the kernel
        if rows == previous:
            break  # a wrong lift that more primes do not change
        previous = rows
    return stacked_kernel(count, drawn, field.one)


def _kernels_mod(red: Reduction, maps, count: int, degree: int):
    """The kernel mod red's prime under each of its embeddings in turn, each
    by `stacked_kernel` over maps(), so an empty kernel under the first ends
    the work: [] then, and None when the prime divides a denominator of an
    entry."""
    p, unreduced, kernels = red.p, [], []

    def reduced(j):
        for cols in maps():
            images = []
            for col in cols:
                img = {}
                for r, s in col.items():
                    res = red(s)
                    if res is None:
                        unreduced.append(s)
                        return
                    if res[j]:
                        img[r] = res[j]
                images.append(img)
            yield images

    for j in range(degree):
        kernel = stacked_kernel(count, reduced(j), 1, p=p)
        if unreduced:
            return None
        if not kernel:
            return []
        kernels.append(kernel)
    return kernels


def _annihilated(maps, rows) -> bool:
    """Whether M x = 0 exactly for every M in maps and x in rows."""
    return not any(matvec(cols, x) for cols in maps for x in rows)


def _lift_rows(field, entries, modulus: int, count: int):
    """Rows of scalars rebuilt from {(row, column): coefficient residues mod
    modulus}, or None when a coefficient has no rational reconstruction."""
    rows = [{} for _ in range(count)]
    lifted: dict = {}
    for (i, c), res in entries.items():
        s = lifted.get(res)
        if s is None:
            coeffs = [rational_lift(r, modulus) for r in res]
            if any(q is None for q in coeffs):
                return None
            s = lifted[res] = field.scalar(coeffs)
        rows[i][c] = s
    return rows
