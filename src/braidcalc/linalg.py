"""Sparse linear algebra over a cyclotomic field, exact or modulo a prime.

Vectors are dicts {column index: nonzero coefficient}.  Inside the library
a coefficient is raw: a rational (int, or Q off the integers) over Q, a pair
of them over Q(zeta_m), m = 3, 4, 6, and the `CycloScalar` itself over the
fields of degree >= 3.  Each kernel below takes the field as an argument and
checks it once per call, never per entry; without it, it takes scalars and
gives scalars, converting each family once.  Vectors leave the library as
scalars drawn from the field's intern table (`boxed`): as `Subspace` rows,
returned kernels and reports.  Subspaces are kept in reduced row echelon
form with a fixed ascending column order, so equal subspaces have literally
identical representations.

An `Echelon` is built by forward reduction and back-substituted once at the
end, all of it or only the rows pivoting from a given column on, which meet
no earlier pivot.  Over the fields of degree 1 and 2 its rows are
fraction-free, as in Bareiss (1968) and FLINT's `fmpq_mat_rref`: cleared of
denominators on entry, each pivot row divided by the gcd of its
coefficients and led by a positive integer, and a remainder divided once,
at exit.  Over fields of degree >= 3, and mod p, pivot rows lead with 1.
Every kernel comes back in RREF: `left_kernel` eliminates the unknowns from
the last down, so each free unknown leads its free-column vector, and
`stacked_kernel` keeps that shape when it combines an RREF basis.

This module is the one place that does sparse arithmetic.  Its kernels:

* `vec_axpy`, target[offset + col] += c * source[col], dropping cancelled
  entries, one loop for each field of degree 1 and 2, the operators above;
* `matvec`, a sparse matrix given by its columns applied to a vector, which
  is also the linear combination sum_i c_i v_i of a family;
* `apply_slot`, Id (x) f (x) Id: a map applied to one tensor slot;
* `Echelon.reduce`, the canonical remainder modulo the rows;
* `Echelon.kernel`, the free-column kernel of constraint rows, and
  `left_kernel`, the RREF kernel of a family;
* `stacked_kernel`, the common kernel of a family of maps on a subspace,
  solved map by map on the basis the earlier maps leave;
* `certified_kernel`, the same by the modular route, for the primitive
  kernels the braiding's shape sends mod p (`tensorbialg.primitive_kernel`);
  the only caller that passes the keyword prime p to the others.

`certified_kernel` takes a prime p = 1 (mod m) below 2^30 that divides no
denominator of the columns, maps each coefficient to F_p under each of the
phi(m) embeddings zeta -> omega_j (`scalars.Reduction`), and solves
`stacked_kernel` mod p, the first embedding through every map before the
others: rank mod p is at most the rank over Q(zeta_m), so an empty kernel
under one embedding proves the kernel zero.  Otherwise every embedding must
give the same pivots; the entries are interpolated back to coefficients mod
p, combined over the primes so far by CRT, and rationally reconstructed.
The lifted rows are certified exactly: M x = 0 for every map M and row x,
they lead at distinct pivots, and their number is the nullity mod p, an
upper bound, so they are the RREF of the kernel.  Primes are added while
reconstruction fails or the lift changes, up to MAX_PRIMES; a lift that
repeats on two primes in a row and fails the certificate, or the last
prime, hands the same columns to `stacked_kernel`.
"""

from __future__ import annotations

from math import gcd, lcm

from .scalars import CycloScalar, Q, Reduction, canon, crt, rational_lift

# the most primes the modular route draws before the exact route takes over;
# the test suite's kernels settle on at most 6 (entries near 2^160)
MAX_PRIMES = 32


def vec_axpy(target: dict, coeff, source: dict, offset: int = 0, field=None) -> dict:
    """target[offset + col] += coeff * source[col], dropping cancelled entries;
    returns target.  Given the field, on its raw coefficients: one loop for
    degree 1 and one for degree 2, the scalar operators above.  Without it,
    on scalars, through the operators (FieldMismatch from another field) and
    the field's intern table."""
    degree = 3 if field is None else field.degree
    if degree == 1:
        for col, val in source.items() if coeff else ():
            tgt = offset + col if offset else col
            cur = target.get(tgt)
            c = coeff * val if cur is None else cur + coeff * val
            if c:
                target[tgt] = c if c.__class__ is int else canon(c)
            else:
                del target[tgt]
    elif degree == 2:
        (a0, a1), c1 = coeff, field.cyclotomic_polynomial[1]  # Phi_m = X^2 + c1 X + 1
        for col, (b0, b1) in source.items() if a0 or a1 else ():
            tgt = offset + col if offset else col
            if not a1:
                p0, p1 = a0 * b0, a0 * b1
            elif not b1:
                p0, p1 = a0 * b0, a1 * b0
            else:  # X^2 = -c1 X - 1
                top = a1 * b1
                p0, p1 = a0 * b0 - top, a0 * b1 + a1 * b0 - c1 * top
            cur = target.get(tgt)
            if cur is not None:
                p0, p1 = cur[0] + p0, cur[1] + p1
            if p0.__class__ is not int or p1.__class__ is not int:
                p0, p1 = canon(p0), canon(p1)
            if p0 or p1:
                target[tgt] = (p0, p1)
            else:
                del target[tgt]
    elif not coeff.is_zero():
        box = None if field else coeff.field.box
        for col, val in source.items():
            tgt = offset + col if offset else col
            cur = target.get(tgt)
            new = coeff * val if cur is None else cur + coeff * val
            if new.is_zero():
                target.pop(tgt, None)
            else:
                target[tgt] = new if box is None else box(new.coeffs)
    return target


def boxed(vec: dict, field) -> dict:
    """vec's raw coefficients of field as scalars, through its intern table."""
    box, pairs = field.box, field.degree == 2
    return vec if field.degree > 2 else {c: box(x if pairs else (x,)) for c, x in vec.items()}


def unboxed(vec: dict, field) -> dict:
    """A fresh copy of vec with its scalars as raw coefficients of field."""
    raw = field.raw
    return {c: raw(s) for c, s in vec.items()}


def holds_scalars(vec: dict, field) -> bool:
    """Whether vec holds scalars of field, of degree < 3, not raw coefficients."""
    return field is not None and field.degree < 3 and \
        next(iter(vec.values()), None).__class__ is CycloScalar


def _axpy_mod(p: int, target: dict, coeff: int, source: dict) -> dict:
    """target += coeff * source mod p, dropping entries that vanish; returns
    target."""
    for col, val in source.items():
        new = (target.get(col, 0) + coeff * val) % p
        if new:
            target[col] = new
        else:
            del target[col]
    return target


def matvec(columns, vec: dict, field=None, *, p=None) -> dict:
    """sum_w vec[w] * columns[w]: the matrix with these sparse columns applied
    to vec, or equally the combination of a family with coefficients vec;
    raw coefficients of field, scalars without it, or ints mod p."""
    out: dict = {}
    if p is not None:
        for w, s in vec.items():
            _axpy_mod(p, out, s, columns[w])
        return out
    for w, s in vec.items():
        vec_axpy(out, s, columns[w], 0, field)
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


def _div(x: int, den: int):
    """x / den as a canonical coefficient: an int when it is one."""
    return x // den if x % den == 0 else Q(x, den)


class _Raw:
    """Fraction-free rows over Q (ints) or Q(zeta_m), Phi_m = X^2 + c1 X + 1
    (pairs of ints): row <- a row - b prow eliminates, and a pivot row over
    Q(zeta_m) is multiplied by the conjugate l0 - c1 l1 - l1 X of its lead,
    which makes the lead its norm, then divided by its content."""

    def __init__(self, field):
        self.field, self.one = field, field.raw_one
        self.pairs = field.degree == 2
        self.c1 = field.cyclotomic_polynomial[1] if self.pairs else 0
        self.eliminate = self._eliminate_pairs if self.pairs else self._eliminate_ints

    def load(self, row: dict):
        """The raw row cleared of denominators in place, and their lcm."""
        xs = [x for pair in row.values() for x in pair] if self.pairs else row.values()
        den = lcm(*[int(x.denominator) for x in xs if x.__class__ is not int])
        if den != 1:
            for c, x in row.items():
                row[c] = (int(x[0] * den), int(x[1] * den)) if self.pairs else int(x * den)
        return row, den

    @staticmethod
    def _eliminate_ints(row: dict, col, prow: dict) -> int:
        a, b = prow[col], row[col]
        g = gcd(a, b)
        if g != 1:
            a, b = a // g, b // g
        if a != 1:
            for c in row:
                row[c] *= a
        for c, v in prow.items():
            new = row.get(c, 0) - b * v
            if new:
                row[c] = new
            else:
                del row[c]
        return a

    def _eliminate_pairs(self, row: dict, col, prow: dict) -> int:
        a, (b0, b1), c1 = prow[col][0], row[col], self.c1
        g = gcd(a, b0, b1)
        if g != 1:
            a, b0, b1 = a // g, b0 // g, b1 // g
        if a != 1:
            for c, (x0, x1) in row.items():
                row[c] = (a * x0, a * x1)
        for c, (v0, v1) in prow.items():
            top = b1 * v1  # X^2 = -c1 X - 1
            x0, x1 = row.get(c, (0, 0))
            x0, x1 = x0 - b0 * v0 + top, x1 - b0 * v1 - b1 * v0 + c1 * top
            if x0 or x1:
                row[c] = (x0, x1)
            else:
                del row[c]
        row.pop(col, None)  # gone if prow leads with an integer; the loop ends even if not
        return a

    def normalize(self, row: dict, col) -> None:
        if self.pairs and row[col][1]:  # times the conjugate of the lead
            (l0, l1), c1 = row[col], self.c1
            k0, k1 = l0 - c1 * l1, -l1
            for c, (x0, x1) in row.items():
                top = x1 * k1
                row[c] = (x0 * k0 - top, x0 * k1 + x1 * k0 - c1 * top)
        g = gcd(*(x for xs in row.values() for x in xs)) if self.pairs else gcd(*row.values())
        g = -g if self.lead(row[col]) < 0 else g
        if g != 1:
            for c, x in row.items():
                row[c] = (x[0] // g, x[1] // g) if self.pairs else x // g

    def lead(self, x) -> int:
        """The integer a pivot row leads with, from its lead entry."""
        return x[0] if self.pairs else x

    def unload(self, row: dict, den: int) -> dict:
        """row / den, its coefficients canonical."""
        pairs = self.pairs
        return dict(row) if den == 1 else {c: (_div(x[0], den), _div(x[1], den)) if pairs
                                           else _div(x, den) for c, x in row.items()}


class _Monic:
    """Rows of scalars of a field of degree >= 3, or of ints mod p: pivot rows
    scaled to lead 1, a column eliminated by row <- row - b prow."""

    def __init__(self, field=None, p=None):
        self.field, self.p, self.one = field, p, field.one if p is None else 1

    @staticmethod
    def load(row: dict):
        return row, 1

    def eliminate(self, row: dict, col, prow: dict) -> int:
        if self.p is None:
            vec_axpy(row, -row[col], prow, 0, self.field)
        else:
            _axpy_mod(self.p, row, -row[col], prow)
        return 1

    def normalize(self, row: dict, col) -> None:
        lead, p = row[col], self.p
        if lead != self.one:
            inv = lead.inv() if p is None else pow(lead, -1, p)
            for c, v in row.items():
                row[c] = inv * v if p is None else inv * v % p

    @staticmethod
    def lead(x):
        return x

    def unload(self, row: dict, den) -> dict:
        """row / den for den = +-1: interned scalars, or ints mod p."""
        p = self.p
        if p is not None:
            return row if den == 1 else {c: p - v for c, v in row.items()}
        box, sign = self.field.box, 1 if den == 1 else -1
        return {c: box(tuple(sign * x for x in v.coeffs)) for c, v in row.items()}


def _ring(field):
    return (_Raw if field.degree < 3 else _Monic)(field)


class Echelon:
    """Mutable row echelon accumulator over a fixed column count: rows,
    remainders and kernels are raw coefficients of the field given, ints mod
    p, or, given neither, scalars of the first row's field.  A row of
    scalars is taken in any case, and its remainder comes back scalars."""

    def __init__(self, ncols: int, field=None, *, p=None):
        self.ncols = ncols
        self.field = field
        self.pivot_rows: dict[int, dict] = {}
        self._ring = _Monic(p=p) if p is not None else None if field is None else _ring(field)
        self._boxes = field is None and p is None
        self._reduced_from = 0  # the rows with pivot >= this are reduced

    @property
    def rank(self) -> int:
        return len(self.pivot_rows)

    @property
    def pivots(self) -> list[int]:
        """The pivot columns, ascending."""
        return sorted(self.pivot_rows)

    def _load(self, row: dict):
        """The row raw and fresh, the denominator it was multiplied by, and
        whether it held scalars; the first row fixes a field not given."""
        if self._ring is None:
            self._ring = _ring(next(iter(row.values())).field)
        ring = self._ring
        scalars = holds_scalars(row, ring.field)
        return (*ring.load(unboxed(row, ring.field) if scalars else dict(row)), scalars)

    def _out(self, vec: dict) -> dict:
        return boxed(vec, self._ring.field) if self._boxes else vec

    def _forward(self, raw: dict):
        """Eliminate the raw row's leading pivot columns until it leads at a
        free column or vanishes; returns that column (None once it vanished)
        and the factor the row was scaled by."""
        pivots, eliminate, scale = self.pivot_rows, self._ring.eliminate, 1
        while raw:
            lead = min(raw)
            prow = pivots.get(lead)
            if prow is None:
                return lead, scale
            scale *= eliminate(raw, lead, prow)
        return None, scale

    def _add(self, raw: dict) -> bool:
        lead = self._forward(raw)[0]
        if raw:
            self._ring.normalize(raw, lead)
            self.pivot_rows[lead] = raw
            self._reduced_from = float("inf")
        return bool(raw)

    def add(self, row: dict) -> bool:
        """Insert a row; returns True when the rank grew."""
        return bool(row) and self._add(self._load(row)[0])

    def add_rows(self, rows) -> int:
        return sum(map(self.add, rows))

    def reduce(self, row: dict, add_below: int = 0) -> dict:
        """The canonical remainder of row after eliminating every pivot
        column, divided once by what the elimination multiplied the row by;
        a remainder leading before column add_below joins the rows instead,
        and {} comes back."""
        if not row or not (self.pivot_rows or add_below):
            return dict(row)
        raw, den, scalars = self._load(row)
        ring, (lead, scale) = self._ring, self._forward(raw)
        if raw and lead < add_below:
            self._add(raw)
            return {}
        den *= scale
        # then every later pivot column too, for a canonical remainder:
        # ascending, in passes until none is left, since an elimination fills
        # in only columns past its pivot and the pivot rows need not be reduced
        pivots = self.pivot_rows
        while cols := sorted(c for c in raw if c in pivots):
            for col in cols:
                if col in raw:
                    den *= ring.eliminate(raw, col, pivots[col])
        rem = ring.unload(raw, den)
        return boxed(rem, ring.field) if scalars else rem

    def back_substitute(self, start: int = 0) -> None:
        """Bring the rows whose pivot is >= start into fully reduced form: a
        row has no entry before its pivot, so it needs only those pivots."""
        done = self._reduced_from
        if start >= done:
            return
        pivots, ring = self.pivot_rows, self._ring
        for pcol in sorted((c for c in pivots if start <= c < done), reverse=True):
            # every row pivoting after pcol is reduced by now, so eliminating
            # its pivot fills in no pivot column: one pass clears the row
            row = pivots[pcol]
            cols = sorted(c for c in row if c in pivots and c != pcol)
            for col in cols:
                ring.eliminate(row, col, pivots[col])
            if cols:
                ring.normalize(row, pcol)
        self._reduced_from = start

    def rows(self, start: int = 0) -> list[dict]:
        """The RREF rows, lead 1, of the pivots from column start on."""
        self.back_substitute(start)
        pivots, ring = self.pivot_rows, self._ring
        return [self._out(ring.unload(pivots[c], ring.lead(pivots[c][c])))
                for c in sorted(pivots) if c >= start]

    def kernel(self, one=None, last=None) -> list[dict]:
        """The canonical free-column basis of {x : R x = 0}, R the rows: for
        each free column f, ascending, one at f and -R[q][f] at each pivot q
        of the RREF; with last given, index c is written last - c and the
        vectors come by f descending.  `one` serves when no row was added."""
        self.back_substitute()
        pivots, ring = self.pivot_rows, self._ring
        if ring is not None:
            one = ring.one
        elif one is None:
            raise ValueError("kernel of an empty constraint set needs a unit hint")
        free: dict[int, dict] = {}
        for pcol, row in pivots.items():
            q = pcol if last is None else last - pcol
            for col, val in ring.unload(row, -ring.lead(row[pcol])).items():
                if col != pcol:
                    free.setdefault(col, {})[q] = val
        basis = []
        for f in range(self.ncols) if last is None else reversed(range(self.ncols)):
            if f not in pivots:
                vec = free.get(f, {})
                vec[f if last is None else last - f] = one
                basis.append(vec if ring is None else self._out(vec))
        return basis


class Subspace:
    """A subspace of a coordinate space, held canonically in RREF: rows are
    the RREF rows, ascending by pivot."""

    __slots__ = ("ncols", "rows", "pivots", "_echelon")

    def __init__(self, ncols: int, rows: list[dict]):
        self.ncols = ncols
        self.rows = rows
        self.pivots = tuple(map(min, rows))
        self._echelon = None

    @classmethod
    def from_rows(cls, ncols: int, rows, field=None) -> "Subspace":
        """The span of rows of scalars, or of raw coefficients of field."""
        ech = Echelon(ncols, field)
        ech.add_rows(rows)
        return cls.from_echelon(ech)

    @classmethod
    def from_echelon(cls, ech: Echelon) -> "Subspace":
        rows = ech.rows()
        return cls(ech.ncols, rows if ech.field is None else [boxed(r, ech.field) for r in rows])

    @classmethod
    def zero(cls, ncols: int) -> "Subspace":
        return cls(ncols, [])

    @property
    def dim(self) -> int:
        return len(self.rows)

    def is_zero(self) -> bool:
        return not self.rows

    def reduce(self, vector: dict) -> dict:
        """Canonical remainder modulo this subspace of a vector of scalars,
        or of raw coefficients of their field."""
        if self._echelon is None:
            field = next(iter(self.rows[0].values())).field if self.rows else None
            self._echelon = Echelon(self.ncols, field)
            self._echelon.add_rows(self.rows)
        return self._echelon.reduce(vector)

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
        return (isinstance(other, Subspace) and self.ncols == other.ncols
                and self.pivots == other.pivots and self.rows == other.rows)

    def __repr__(self):
        return "Subspace(dim=%d, ncols=%d)" % (self.dim, self.ncols)


def left_kernel(vectors: list[dict], one=None, field=None, *, p=None) -> list[dict]:
    """RREF basis of {lambda : sum_i lambda_i v_i = 0} for a list of sparse
    vectors, whose column keys may be any hashables: the kernel of the
    transposed family with the unknowns numbered from the last down."""
    last = len(vectors) - 1
    transposed: dict = {}
    for i, vec in enumerate(vectors):
        for col, val in vec.items():
            transposed.setdefault(col, {})[last - i] = val
    ech = Echelon(len(vectors), field, p=p)
    for row in transposed.values():
        ech._add(ech._load(row)[0])
    return ech.kernel(one, last)


def stacked_kernel(basis, maps, one=None, field=None, *, p=None) -> list[dict]:
    """Vectors spanning {x in span(basis) : f(x) = 0 for every f in maps},
    for linear maps given as callables from a vector to its image or as the
    lists of their sparse columns; its RREF basis when basis is an int or
    RREF rows.  An int basis n stands for the unit vectors {i: one}, i < n,
    whose kernel is then the `left_kernel` rows themselves.  Map k sees only
    the vectors the maps before it leave, their combinations from the
    `left_kernel` of its images, and an empty kernel ends the loop before
    the next map is drawn.  Raw coefficients of field, scalars, or mod p."""
    units = basis.__class__ is int
    one = one if field is None else field.raw_one
    for f in maps if basis else ():
        if f.__class__ is list:  # the map's columns
            images = f if units else [matvec(f, b, field, p=p) for b in basis]
        else:
            images = [f({i: one}) for i in range(basis)] if units else [f(b) for b in basis]
        if any(images):
            kernel = left_kernel(images, field=field, p=p)
            basis = kernel if units else [matvec(basis, c, field, p=p) for c in kernel]
            units = False
            if not basis:
                break
    return [{i: one} for i in range(basis)] if units else basis


def certified_kernel(maps, count: int, field) -> list[dict]:
    """RREF rows of {x : M x = 0 for every M in maps}, x over count unknowns,
    each map a list of count sparse columns of raw coefficients of field,
    drawn lazily and in order; by the modular route over at most MAX_PRIMES
    primes, or by `stacked_kernel` when that gives up."""
    drawn, source = [], iter(maps)

    def columns():
        yield from drawn
        for cols in source:
            drawn.append(cols)
            yield cols

    pivots = entries = modulus = previous = None
    for index in range(MAX_PRIMES):
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
        if _annihilated(drawn, rows, field):
            return rows  # certified: the RREF of the kernel
        if rows == previous:
            break  # a wrong lift that more primes do not change
        previous = rows
    return stacked_kernel(count, drawn, field=field)


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


def _annihilated(maps, rows, field) -> bool:
    """Whether M x = 0 exactly for every M in maps and x in rows."""
    return not any(matvec(cols, x, field) for cols in maps for x in rows)


def _lift_rows(field, entries, modulus: int, count: int):
    """Rows of raw coefficients rebuilt from {(row, column): coefficient
    residues mod modulus}, or None when one has no rational reconstruction."""
    rows = [{} for _ in range(count)]
    lifted: dict = {}
    for (i, c), res in entries.items():
        s = lifted.get(res)
        if s is None:
            coeffs = [rational_lift(r, modulus) for r in res]
            if any(q is None for q in coeffs):
                return None
            s = lifted[res] = field.raw(field.scalar(coeffs))
        rows[i][c] = s
    return rows
