"""Braided vector spaces and the braid-group action on tensor powers.

A braided vector space is a dimension d together with an invertible solution
c of the Yang-Baxter equation c1 c2 c1 = c2 c1 c2 on V (x) V (x) V.  The
d^2 x d^2 matrix acts in word coordinates: the basis of V^(x)n is indexed by
length-n words over {0..d-1} encoded big-endian as base-d integers.

The braiding is stored as a sparse "pair map" e_a (x) e_b -> sum of weighted
pairs, which keeps the action of the generators c_i = Id^(i-1) (x) c (x)
Id^(n-i-1) cheap for the monomial and diagonal braidings that dominate the
examples.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

from .errors import (BadParams, DegreeBudgetExceeded, DegreeMismatch, SingularBraiding,
                     YBENotSatisfied)
from .linalg import Echelon, boxed, holds_scalars, matvec, unboxed, vec_axpy
from .scalars import CycloField, CycloScalar, Q, is_regular_exact

DEFAULT_DEGREE_BUDGET = 8


# -- braid words and Matsumoto lifts ------------------------------------------

class BraidWord:
    """A word in the Artin generators; letters are signed 1-based indices."""

    __slots__ = ("strand_count", "letters")

    def __init__(self, strand_count: int, letters):
        letters = tuple(letters)
        for ell in letters:
            if ell == 0 or abs(ell) > strand_count - 1:
                raise BadParams(
                    "letter %d out of range for %d strands" % (ell, strand_count)
                )
        self.strand_count = strand_count
        self.letters = letters

    def __repr__(self):
        return "BraidWord(n=%d, %r)" % (self.strand_count, list(self.letters))


def matsumoto_lift(sigma) -> BraidWord:
    """The positive braid word over the canonical reduced decomposition.

    Deterministic: values n-1, n-2, ... are bubbled right into place, which
    realises the Lehmer-code reduced word; any reduced word lifts to the same
    braid-group element, which the tests verify rather than assume.
    """
    n = len(sigma)
    perm = list(sigma)
    swaps = []
    for target in range(n - 1, 0, -1):
        p = perm.index(target)
        for j in range(p, target):
            perm[j], perm[j + 1] = perm[j + 1], perm[j]
            swaps.append(j + 1)
    # the swaps compose right-to-left to rebuild sigma
    return BraidWord(max(n, 1), list(reversed(swaps)))


def word_index(letters, d: int) -> int:
    idx = 0
    for ell in letters:
        idx = idx * d + ell
    return idx


def word_letters(idx: int, n: int, d: int):
    out = [0] * n
    for k in range(n - 1, -1, -1):
        out[k] = idx % d
        idx //= d
    return tuple(out)


def word_name(idx: int, n: int, d: int) -> str:
    if n == 0:
        return "1"
    return ".".join("x%d" % ell for ell in word_letters(idx, n, d))


# -- the braided space proper -------------------------------------------------

class BraidedSpace:
    """Dimension, validated braiding, and lazily computed metadata."""

    def __init__(self, field: CycloField, dim: int, pairs, kind: str,
                 degree_budget: int = DEFAULT_DEGREE_BUDGET):
        if dim < 1:
            raise BadParams("dimension must be positive")
        self.field = field
        self.dim = dim
        self.kind = kind
        self.degree_budget = degree_budget
        # pairs: dict (a, b) -> tuple(((a2, b2), scalar), ...)
        self.pairs = {
            key: tuple((tgt, s) for tgt, s in val if not s.is_zero())
            for key, val in pairs.items()
        }
        self.pairs = {k: v for k, v in self.pairs.items() if v}
        self.monomial = all(len(v) == 1 for v in self.pairs.values())
        self._power_cache = [1]
        self._memo: dict = {}
        self.inv_pairs = self._invert_pairs()
        self._check_ybe()
        self._min_poly = None
        self._hecke = None

    # -- construction helpers -------------------------------------------------

    def _invert_pairs(self):
        d = self.dim
        D = d * d
        one = self.field.one
        # rows of [C^T | I] in pair coordinates, row r holding c(e_r), then
        # Gauss-Jordan: the row with pivot p ends in (C^T)^-1 e_p = c^-1(e_p)
        ech = Echelon(2 * D)
        for r in range(D):  # the targets of one pair are distinct
            ech.add({D + r: one, **{a2 * d + b2: s for (a2, b2), s in
                                    self.pairs.get(divmod(r, d), ())}})
        if ech.rank < D or ech.pivots[-1] >= D:
            raise SingularBraiding("the braiding matrix is not invertible")
        return {divmod(min(row), d): tuple((divmod(c2 - D, d), v) for c2, v in row.items() if c2 >= D)
                for row in ech.rows()}

    def _check_ybe(self):
        """c1 c2 c1 = c2 c1 c2 on the columns of the basis words, in order."""
        fld = self.field
        c1, c2 = ([self.apply_generator(3, i, {w: fld.raw_one}) for w in range(self.power(3))]
                  for i in (1, 2))
        for w, col in enumerate(c1):
            if matvec(c1, matvec(c2, col, fld), fld) != matvec(c2, matvec(c1, c2[w], fld), fld):
                raise YBENotSatisfied(word_letters(w, 3, self.dim))

    # -- basic structure -------------------------------------------------------

    def power(self, k: int) -> int:
        """d**k, cached."""
        while len(self._power_cache) <= k:
            self._power_cache.append(self._power_cache[-1] * self.dim)
        return self._power_cache[k]

    def check_budget(self, n: int):
        if n > self.degree_budget:
            raise DegreeBudgetExceeded(n, self.degree_budget)

    def apply_generator(self, n: int, i: int, vec: dict, inverse=False) -> dict:
        """Apply c_i (or its inverse) to a sparse degree-n vector of raw
        coefficients of the field, or of scalars, which come back scalars."""
        if not 1 <= i <= n - 1:
            raise DegreeMismatch("generator %d needs %d strands" % (i, i + 1))
        fld = self.field
        if holds_scalars(vec, fld):
            return boxed(self.apply_generator(n, i, unboxed(vec, fld), inverse), fld)
        lo = self.power(n - i - 1)  # place value of position i + 1
        top = lo * self.dim * self.dim
        # {a * hi + b * lo: {a2 * hi + b2 * lo: raw s}} for hi = lo * d, memoized
        key = ("shifted", lo, inverse)
        shifted = self._memo.get(key)
        if shifted is None:
            hi = top // self.dim
            shifted = self._memo[key] = {
                a * hi + b * lo: {a2 * hi + b2 * lo: fld.raw(s) for (a2, b2), s in images}
                for (a, b), images in (self.inv_pairs if inverse else self.pairs).items()}
        out: dict = {}
        for idx, coeff in vec.items():
            pair = idx % top - idx % lo  # a * hi + b * lo; c is invertible
            vec_axpy(out, coeff, shifted[pair], idx - pair, fld)
        return out

    def apply_word(self, n: int, letters, vec: dict) -> dict:
        """Apply the braid word (rightmost letter acts first), as `apply_generator`."""
        for ell in reversed(tuple(letters)):
            if not vec:
                return {}
            vec = self.apply_generator(n, abs(ell), vec, inverse=ell < 0)
        return dict(vec)

    def braiding_block_apply(self, p: int, q: int, vec: dict) -> dict:
        """c_T^{p,q}: V^(x)p (x) V^(x)q -> V^(x)q (x) V^(x)p on a sparse vector
        (the empty braid word when p or q is 0)."""
        word = self._memo.get(("block", p, q))
        if word is None:
            # one-line form: the first p positions map past the last q strands
            word = self._memo["block", p, q] = matsumoto_lift(tuple(
                pos + q if pos < p else pos - p for pos in range(p + q))).letters
        return self.apply_word(p + q, word, vec)

    def braiding_block_matrix(self, p: int):
        """Columns of c^(p,1), p >= 1, raw, memoized: c^(p,1) = c_1 (Id (x) c^(p-1,1)),
        so column y w (y a letter) is c_1 of y (x) column w of c^(p-1,1)."""
        mat = self._memo.get(("blockmat", p))
        if mat is None:
            size, one = self.power(p), self.field.raw_one
            tail = self.braiding_block_matrix(p - 1) if p > 1 else [{x: one} for x in range(size)]
            mat = self._memo["blockmat", p] = [
                self.apply_generator(p + 1, 1, {y * size + t: s for t, s in col.items()})
                for y in range(self.dim) for col in tail]
        return mat

    # -- lazily computed metadata ---------------------------------------------

    @property
    def min_poly(self):
        """Minimal polynomial of the braiding matrix, coefficients low -> high."""
        if self._min_poly is None:
            self._min_poly = self._compute_min_poly()
        return self._min_poly

    def _compute_min_poly(self):
        fld, D = self.field, self.dim * self.dim
        flat_cols, one = D * D, fld.raw_one
        ech = Echelon(flat_cols + D * D + 2, fld)
        # power k occupies augmented column flat_cols + k
        power = {w: {w: one} for w in range(D)}  # identity, column map
        k = 0
        while True:
            flat = {col * D + row: val for col, colvec in power.items()
                    for row, val in colvec.items()}
            flat[flat_cols + k] = one
            # a remainder without a matrix entry is a relation among the powers
            rem = boxed(ech.reduce(flat, add_below=flat_cols), fld)
            if rem:
                lead = rem[flat_cols + k]
                return tuple(rem.get(flat_cols + j, fld.zero) / lead
                             for j in range(k + 1))
            # multiply by c: pair coordinates are degree-2 word coordinates
            power = {col: self.apply_generator(2, 1, colvec)
                     for col, colvec in power.items()}
            k += 1

    def hecke_analysis(self):
        """Return {'mark': q, 'regular': bool} when the minimal polynomial
        divides (X+1)(X-q) for a nonzero q, else None."""
        if self._hecke is None:
            self._hecke = self._compute_hecke()
        return self._hecke if self._hecke != "none" else None

    def _compute_hecke(self):
        # X - q, or X^2 + aX + b = (X+1)(X-q) iff b = -q and a = 1 - q
        poly = self.min_poly
        q = -poly[0]
        if q.is_zero() or len(poly) > 3 or (len(poly) == 3 and poly[1] != self.field.one - q):
            return "none"
        return {"mark": q, "regular": is_regular_exact(q)}

    def __repr__(self):
        return "BraidedSpace(kind=%s, d=%d, m=%d)" % (
            self.kind, self.dim, self.field.order,
        )


# -- constructors and presets -------------------------------------------------

def _as_scalar(field, value):
    if isinstance(value, CycloScalar):
        if value.field.order != field.order:
            raise BadParams("scalar from a different field")
        return value
    try:
        return field.from_rational(Q(value))
    except (TypeError, ValueError) as exc:
        raise BadParams("cannot interpret %r as a scalar: %s" % (value, exc))


def _unit(field, value):
    q = _as_scalar(field, value)
    if q.is_zero():
        raise BadParams("a braiding needs nonzero scalars, not 0")
    return q


def _diagonal(field, rows):
    """The pair map of c(e_i (x) e_j) = q_ij e_j (x) e_i."""
    return {(i, j): (((j, i), _unit(field, qij)),) for i, row in enumerate(rows)
            for j, qij in enumerate(row)}


def _scalar_pairs(field, p):
    q, d = _unit(field, p["q"]), p["d"]
    return {(i, j): (((i, j), q),) for i in range(d) for j in range(d)}


def _explicit_pairs(field, p):
    matrix = p["matrix"]
    d = math.isqrt(len(matrix))
    if d * d != len(matrix) or p["d"] not in (None, d):
        raise BadParams("explicit braiding needs a d^2 x d^2 matrix")
    # columns are input pairs; BraidedSpace drops the zero entries
    return {divmod(col, d): tuple((divmod(row, d), _as_scalar(field, line[col]))
                                  for row, line in enumerate(matrix))
            for col in range(d * d)}


def _gurevich_pairs(field, p):
    q = _as_scalar(field, p["q"])
    ab = _as_scalar(field, p["alpha_over_beta"])
    if not (ab * ab == q):
        raise BadParams("gurevich preset needs (alpha/beta)^2 = q")
    if q.is_zero() or q.is_one() or not is_regular_exact(q):
        raise BadParams("gurevich preset needs a regular q != 1")
    m, one = -ab, field.one
    pairs = {(0, j): (((j, 0), one),) for j in range(3)}
    for i in (1, 2):
        pairs[(i, 0)] = (((0, i), one),)
        pairs[(i, i)] = (((i, i), q),)
    pairs[(2, 1)] = (((1, 2), m), ((2, 1), q - one))
    pairs[(1, 2)] = (((2, 1), q * m.inv()),)
    return pairs


def _cartan_pairs(field, p):
    n, one = p["n"], field.one
    q = field.root_of_unity(p["t"]) if p["q"] is None else \
        _unit(field, p["q"])
    qinv = q.inv()
    return _diagonal(field, [[q if i == j else qinv if j == i + 1 else one
                              for j in range(n)] for i in range(n)])


def _hecke_pairs(field, p):
    q, d, one = _unit(field, p["q"]), p["d"], field.one
    pairs = {}
    for i in range(d):
        pairs[(i, i)] = (((i, i), q),)
        for j in range(i + 1, d):
            pairs[(i, j)] = (((j, i), q),)
            pairs[(j, i)] = (((i, j), one), ((j, i), q - one))
    return pairs


# -- the kinds table -----------------------------------------------------------

def _count(value):
    if not isinstance(value, int) or value < 1:
        return "a positive integer"


def _scalar(value):
    if isinstance(value, (str, list, tuple)):
        return "a scalar"


def _square(value):
    if not (isinstance(value, list) and value and all(
            isinstance(row, list) and len(row) == len(value) and
            not any(_scalar(v) for v in row) for row in value)):
        return "a square matrix of scalars"


REQUIRED = object()  # the default of a parameter a job must give


class Param(NamedTuple):
    shape: Callable  # shape(value) -> what the value must be, or None
    default: object = REQUIRED  # None: optional, and absent when omitted


class Kind(NamedTuple):
    """One braided-space kind or preset.  A dimension that depends on a
    parameter is read from the first one."""
    label: str  # space.kind of what it builds
    params: dict  # name -> Param
    dim: Callable  # dim(params) -> generator count, read without building
    pairs: Callable  # pairs(field, params) -> pair map

    def complete(self, params: dict) -> dict:
        """params with every omitted parameter at its default."""
        return {key: params.get(key, spec.default)
                for key, spec in self.params.items()}


# keyed by kind, and by "preset:<name>" for kind = preset
KINDS = {
    "flip": Kind("flip", {"d": Param(_count)}, lambda p: p["d"],
                 lambda field, p: _diagonal(field, [[1] * p["d"]] * p["d"])),
    "scalar": Kind("scalar", {"d": Param(_count), "q": Param(_scalar)},
                   lambda p: p["d"], _scalar_pairs),
    "diagonal": Kind("diagonal", {"q": Param(_square)}, lambda p: len(p["q"]),
                     lambda field, p: _diagonal(field, p["q"])),
    "explicit": Kind("explicit", {"matrix": Param(_square),
                                  "d": Param(_count, None)},
                     lambda p: math.isqrt(len(p["matrix"])), _explicit_pairs),
    "preset:d4_rack": Kind("preset:d4_rack", {}, lambda p: 4, lambda field, p: (
        {(i, j): ((((2 * i - j) % 4, i), -field.one),)
         for i in range(4) for j in range(4)})),
    "preset:gurevich": Kind(
        "preset:gurevich", {"q": Param(_scalar, 4),
                            "alpha_over_beta": Param(_scalar, 2)},
        lambda p: 3, _gurevich_pairs),
    "preset:twodim_sdeg2": Kind(
        "preset:twodim_sdeg2", {}, lambda p: 2,
        lambda field, p: _diagonal(field, [[-1, 1], [-1, -1]])),
    "preset:cartan_An": Kind(
        "preset:cartan_An", {"n": Param(_count, 2), "t": Param(_count, 3),
                             "q": Param(_scalar, None)},
        lambda p: p["n"], _cartan_pairs),
    "preset:hecke_gl": Kind(
        "preset:hecke_gl", {"d": Param(_count, 2), "q": Param(_scalar, 4)},
        lambda p: p["d"], _hecke_pairs),
}
# the aliases: quantum_linear is diagonal, and the flip and scalar presets
# default to d = 2
KINDS["quantum_linear"] = KINDS["preset:quantum_linear"] = KINDS["diagonal"]
KINDS["preset:flip"] = KINDS["flip"]._replace(params={"d": Param(_count, 2)})
KINDS["preset:scalar"] = KINDS["scalar"]._replace(
    params={"d": Param(_count, 2), "q": Param(_scalar)})


def param_problems(key: str, params: dict):
    """(parameter or None, message) for each parameter KINDS[key] does not
    take or whose value fails its shape, then for each required one missing."""
    entry = KINDS[key]
    for name, value in params.items():
        spec = entry.params.get(name)
        if spec is None:
            yield name, "%s takes no parameter %s" % (key, name)
        elif spec.shape(value):
            yield name, "%s must be %s" % (name, spec.shape(value))
    for name, spec in entry.params.items():
        if spec.default is REQUIRED and name not in params:
            yield None, "%s needs %s = ..." % (key, name)


def make_braiding(kind: str, params: dict, field: CycloField,
                  degree_budget: int = DEFAULT_DEGREE_BUDGET) -> BraidedSpace:
    """Build and validate a braided vector space: kind is a key of KINDS,
    or preset with params["name"] naming a "preset:<name>" key."""
    params = dict(params or {})
    if kind == "preset":
        kind = "preset:%s" % params.pop("name", "")
    if kind not in KINDS:
        raise BadParams("unknown braiding kind %r" % kind)
    for _, problem in param_problems(kind, params):
        raise BadParams(problem)
    entry = KINDS[kind]
    params = entry.complete(params)
    return BraidedSpace(field, entry.dim(params), entry.pairs(field, params),
                        entry.label, degree_budget=degree_budget)


def make_preset(name: str, field: CycloField,
                degree_budget: int = DEFAULT_DEGREE_BUDGET, **params) -> BraidedSpace:
    return make_braiding("preset:%s" % name, params, field, degree_budget)
