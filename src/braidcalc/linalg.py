"""Sparse exact linear algebra over a cyclotomic field.

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

This module is the one place that does sparse arithmetic.  Its kernels:

* `vec_axpy`, target[offset + col] += c * source[col], dropping cancelled
  entries: the one accumulate loop, which over fields of degree 1 and 2
  works on coefficient tuples (`scalars.coeff_axpy`); and `vec_eq`;
* `matvec`, a sparse matrix given by its columns applied to a vector, which
  is also the linear combination sum_i c_i v_i of a family;
* `apply_slot`, Id (x) f (x) Id: a map applied to one tensor slot;
* `reduce_by_pivots`, the canonical remainder modulo pivot rows, shared by
  `Echelon.reduce` and `Subspace.reduce`;
* `kernel_basis`, the canonical free-column kernel of a set of constraint
  rows, and `left_kernel`, the same routine on a transposed family;
* `stacked_kernel`, the common kernel of a family of maps on a subspace,
  solved map by map on the basis the earlier maps leave, so that no map is
  applied to a vector an earlier one has ruled out;
* `Subspace.coordinates`, a member's coordinates over the canonical basis;
* `kernel_mod`, the same common kernel with raw ints modulo a prime p;
* `certified_kernel`, the RREF of the common kernel of exact sparse column
  maps by the modular route: the primitives E_n of T(V), the quotient
  primitives of a tower and the blocks that decide E_n != 0.

`certified_kernel` takes a prime p = 1 (mod m) below 2^30 that divides no
denominator of the columns, maps each coefficient to F_p under each of the
phi(m) embeddings zeta -> omega_j of Q(zeta_m) (`scalars.Reduction`), and
solves `kernel_mod` map by map in the order given, the first embedding
through every map before the others, drawing a map only while the kernel
is not empty: rank mod p is at most the rank over Q(zeta_m), so an empty
kernel under one embedding proves the kernel zero.  Otherwise every
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


def vec_eq(a: dict, b: dict) -> bool:
    if len(a) != len(b):
        return False
    for col, val in a.items():
        other = b.get(col)
        if other is None or not (val == other):
            return False
    return True


def matvec(columns, vec: dict) -> dict:
    """sum_w vec[w] * columns[w]: the matrix with these sparse columns applied
    to vec, or equally the combination of a family with coefficients vec."""
    out: dict = {}
    for w, s in vec.items():
        vec_axpy(out, s, columns[w])
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


def _clear_pivots(row: dict, pivots: dict, keep) -> None:
    """Eliminate from row every pivot column except keep, ascending, in passes
    until none is left: an elimination fills in only columns past its pivot."""
    while cols := sorted(c for c in row if c in pivots and c != keep):
        for col in cols:
            val = row.get(col)
            if val is not None:
                vec_axpy(row, -val, pivots[col])


def reduce_by_pivots(row: dict, pivots: dict) -> dict:
    """Remainder of row after eliminating every column of {pivot: row}."""
    row = dict(row)
    while row:
        lead = min(row)
        prow = pivots.get(lead)
        if prow is None:
            # eliminate any later pivot columns too, for a canonical remainder
            _clear_pivots(row, pivots, lead)
            return row
        vec_axpy(row, -row[lead], prow)
    return row


class Echelon:
    """Mutable row echelon accumulator over a fixed column count."""

    def __init__(self, ncols: int):
        self.ncols = ncols
        self.pivot_rows: dict[int, dict] = {}
        self._reduced_from = 0  # the rows with pivot >= this are reduced

    @property
    def rank(self) -> int:
        return len(self.pivot_rows)

    def reduce(self, row: dict) -> dict:
        """Return the remainder of row after eliminating all pivot columns."""
        return reduce_by_pivots(row, self.pivot_rows)

    def add(self, row: dict) -> bool:
        """Insert a row; returns True when the rank grew."""
        row = dict(row)
        pivots = self.pivot_rows
        while row:
            lead = min(row)
            prow = pivots.get(lead)
            if prow is None:
                leadval = row.pop(lead)
                if not leadval.is_one():
                    row = vec_axpy({}, leadval.inv(), row)
                row[lead] = leadval.field.one
                pivots[lead] = row
                self._reduced_from = float("inf")
                return True
            vec_axpy(row, -row[lead], prow)
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
        pivots = self.pivot_rows
        for pcol in sorted((c for c in pivots if start <= c < done), reverse=True):
            _clear_pivots(pivots[pcol], pivots, pcol)
        self._reduced_from = start

    def rows(self) -> list[dict]:
        self.back_substitute()
        return [self.pivot_rows[c] for c in sorted(self.pivot_rows)]


class Subspace:
    """A subspace of a coordinate space, held canonically in RREF."""

    __slots__ = ("ncols", "rows", "pivots", "_index")

    def __init__(self, ncols: int, rows: list[dict], pivots: tuple[int, ...]):
        self.ncols = ncols
        self.rows = rows
        self.pivots = pivots
        self._index = None

    @classmethod
    def from_rows(cls, ncols: int, rows) -> "Subspace":
        ech = Echelon(ncols)
        ech.add_rows(rows)
        return cls.from_echelon(ech)

    @classmethod
    def from_echelon(cls, ech: Echelon) -> "Subspace":
        rows = ech.rows()
        return cls(ech.ncols, rows, tuple(min(r) for r in rows))

    @classmethod
    def zero(cls, ncols: int) -> "Subspace":
        return cls(ncols, [], ())

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
            and all(vec_eq(a, b) for a, b in zip(self.rows, other.rows))
        )

    def __repr__(self):
        return "Subspace(dim=%d, ncols=%d)" % (self.dim, self.ncols)


def kernel_basis(rows, ncols: int, one=None) -> list[dict]:
    """Basis of {x : R x = 0} given the constraint rows of R.

    The basis is the canonical free-column one: for every non-pivot column f
    (ascending) the vector with 1 at f and -R[p][f] at each pivot column p.
    Returned rows are themselves in RREF.  `one` supplies the unit scalar when
    the constraint set might be empty.
    """
    ech = Echelon(ncols)
    ech.add_rows(rows)
    ech.back_substitute()
    pivots = ech.pivot_rows
    for row in pivots.values():
        one = next(iter(row.values())).field.one
        break
    if one is None:
        raise ValueError("kernel of an empty constraint set needs a unit hint")
    # collect, per free column, the pivot entries hitting it
    free_entries: dict[int, dict] = {}
    for pcol, row in pivots.items():
        for col, val in row.items():
            if col != pcol and col not in pivots:
                free_entries.setdefault(col, {})[pcol] = -val
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        vec = dict(free_entries.get(f, {}))
        vec[f] = one
        basis.append(vec)
    return basis


def left_kernel(vectors: list[dict], one=None) -> list[dict]:
    """Basis of {lambda : sum_i lambda_i v_i = 0} for a list of sparse vectors:
    the kernel of the transposed family.  Column keys may be any hashables."""
    transposed: dict = {}
    for i, vec in enumerate(vectors):
        for col, val in vec.items():
            transposed.setdefault(col, {})[i] = val
    return kernel_basis(transposed.values(), len(vectors), one=one)


def stacked_kernel(basis, maps, one=None) -> list[dict]:
    """Vectors spanning {x in span(basis) : f(x) = 0 for every f in maps},
    for linear maps given as callables from a vector to its image; a basis of
    it when basis is independent.  An int basis n stands for the unit vectors
    {i: one}, i < n, whose kernel is then the `left_kernel` rows themselves.
    The maps are solved one at a time: map k sees only the vectors that the
    maps before it leave, their combinations from the `left_kernel` of its
    images, and an empty kernel ends the loop before the next map is drawn."""
    units = basis.__class__ is int
    for f in maps if basis else ():
        images = [f({i: one}) for i in range(basis)] if units else [f(b) for b in basis]
        if any(images):
            kernel = left_kernel(images)
            basis = kernel if units else [matvec(basis, c) for c in kernel]
            units = False
            if not basis:
                break
    return [{i: one} for i in range(basis)] if units else basis


def _axpy_mod(target: dict, coeff: int, source: dict, p: int) -> None:
    """target += coeff * source mod p, dropping entries that vanish."""
    for col, val in source.items():
        new = (target.get(col, 0) + coeff * val) % p
        if new:
            target[col] = new
        else:
            del target[col]


def _rref_mod(rows, p: int) -> dict:
    """{pivot: row} of the reduced row echelon form mod p; consumes rows."""
    pivots: dict = {}
    for row in rows:
        while row:
            lead = min(row)
            prow = pivots.get(lead)
            if prow is None:
                inv = pow(row[lead], -1, p)
                pivots[lead] = {c: v * inv % p for c, v in row.items()}
                break
            _axpy_mod(row, p - row[lead], prow, p)
    for pcol in sorted(pivots, reverse=True):
        row = pivots[pcol]
        for col in sorted(c for c in row if c in pivots and c != pcol):
            if col in row:
                _axpy_mod(row, p - row[col], pivots[col], p)
    return pivots


def kernel_mod(maps, p: int, basis=None) -> list[dict]:
    """RREF basis, mod the prime p, of {x in span(basis) : M x = 0 for every
    M in maps}, each map given by its columns (dicts of ints) on the unit
    vectors; basis None means the unit vectors, and a given basis must be
    in RREF.

    The unknowns are eliminated from the last down, so each free unknown f
    leads its canonical free-column vector, which is then the RREF row of
    the kernel with pivot f; over an RREF basis the combinations keep that
    shape."""
    count = len(maps[0]) if basis is None else len(basis)
    last = count - 1
    rows: dict = {}
    for k, cols in enumerate(maps):
        images = cols if basis is None else (_combine_mod(cols, v, p) for v in basis)
        for i, img in enumerate(images):
            for r, v in img.items():
                rows.setdefault((k, r), {})[last - i] = v
    pivots = _rref_mod(rows.values(), p)
    free_entries: dict[int, dict] = {}
    for pcol, row in pivots.items():
        for col, val in row.items():
            if col != pcol:
                free_entries.setdefault(col, {})[last - pcol] = p - val
    kernel = [{**free_entries.get(f, {}), last - f: 1}
              for f in reversed(range(count)) if f not in pivots]
    return kernel if basis is None else [_combine_mod(basis, c, p) for c in kernel]


def _combine_mod(columns, vec: dict, p: int) -> dict:
    """sum_w vec[w] * columns[w] mod p."""
    out: dict = {}
    for w, s in vec.items():
        _axpy_mod(out, s, columns[w], p)
    return out


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
        kernels = _kernels_mod(red, columns, field.degree)
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
    return Subspace.from_rows(count, stacked_kernel(
        count, (partial(matvec, cols) for cols in drawn), field.one)).rows


def _kernels_mod(red: Reduction, maps, degree: int):
    """The kernel mod red's prime under each of its embeddings in turn, map by
    map over maps(), so an empty kernel under the first ends the work: []
    then, and None when the prime divides a denominator of an entry."""
    kernels = []
    for j in range(degree):
        kernel = None
        for cols in maps():
            reduced = []
            for col in cols:
                img = {}
                for r, s in col.items():
                    res = red(s)
                    if res is None:
                        return None
                    if res[j]:
                        img[r] = res[j]
                reduced.append(img)
            kernel = kernel_mod([reduced], red.p, kernel)
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
