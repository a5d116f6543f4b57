"""Root-of-unity eigenspaces of the braid action and symmetrized operators.

V^(x)n(zeta) is the largest subspace of the intersection of the eigenspaces
ker(c_i^2 - zeta^2) that is stable under every braid generator; since the
generators are invertible and generate the braid group, stability under them
is equivalent to the conjugation-invariance over the whole group that the
definition quantifies.  On it s_i = zeta^(-1) c_i satisfy the Coxeter
relations of S_n (s_i^2 = zeta^(-2) c_i^2 = 1, and both sides of a braid
relation scale by zeta^(-3)), so S_n acts by sigma |> x = zeta^(-l(sigma))
lift(sigma) x, s along any reduced word of sigma, and invariance under the
s_i is invariance under S_n.  Pi(x) = sum_sigma sigma |> x lands in the
degree-n primitives whenever zeta is a primitive n-th root of unity.  By the
cosets of S_k in S_(k+1), Pi = C_(n-1) ... C_1 (C_1 first) with
C_k = 1 + s_k + s_(k-1) s_k + ... + s_1 ... s_k: n(n-1)/2 generator steps
per vector, not n! braid words (the quantum-symmetrizer factorization of
Duchamp-Klyachko-Krob-Thibon 1997).

The eigenspace intersection, each pass of the stability loop and the mixed
space V (x) V^(x)n(zeta) of the third identity (fixed by the n! twisted
conjugates of tau_1^2) are common kernels of maps, solved on raw
coefficients by `stacked_kernel`.

A bracket then induces partial n-ary operations [x] = b_n(Pi(x)); the three
Pareigis identities for them are verified exactly on the computed bases.
The mixed space enumerates S_n, which caps the degree at 6; so does Pi.
Pi(r_k) and its coordinates over the canonical basis of E_n are memoized
for the RREF rows r_k of the zeta space, so Pi(x) and [x] are combinations
of these for x = sum_k x[p_k] r_k (p_k the pivots).
"""

from __future__ import annotations

import itertools

from functools import cache, partial

from .errors import (BadParams, DegreeBudgetExceeded, InternalCheckError, NotInZetaSpace,
                     RootOrderMismatch)
from .linalg import (Echelon, Subspace, apply_slot, boxed, holds_scalars, matvec, stacked_kernel,
                     unboxed, vec_axpy)
from .scalars import root_order
from .spaces import BraidedSpace, matsumoto_lift
from .tensorbialg import primitive_space
from .enveloping import BracketTable

FACTORIAL_CAP = 6


def _require_primitive_root(zeta, n):
    order = root_order(zeta)
    if order != n:
        raise RootOrderMismatch("zeta has multiplicative order %s, needed a primitive "
                                "%d-th root" % (order, n))


def _eigen_fixpoint(space: BraidedSpace, degree: int, zeta) -> Subspace:
    """Largest generator-stable subspace of the zeta^2-eigenspace intersection."""
    size, fld = space.power(degree), space.field
    minus_z2 = fld.raw(-zeta * zeta)

    def squared_minus_z2(i, vec):
        img = space.apply_word(degree, (i, i), vec)
        return vec_axpy(img, minus_z2, vec, 0, fld)

    def moved_out(current, i, vec):
        return current.reduce(space.apply_generator(degree, i, vec))

    rows = stacked_kernel(size, (partial(squared_minus_z2, i) for i in range(1, degree)),
                          field=fld)
    while rows:
        current = Echelon(size, fld)
        current.add_rows(rows)
        # the rows are independent, so the kernel keeps one vector per dimension
        kept = stacked_kernel(rows, (partial(moved_out, current, i) for i in range(1, degree)),
                              field=fld)
        if len(kept) == len(rows):
            break
        rows = kept
    return Subspace(size, [boxed(row, fld) for row in rows])


def zeta_space(space: BraidedSpace, n: int, zeta,
               require_primitive: bool = True) -> Subspace:
    """V^(x)n(zeta) as a fixpoint of the eigenspace-shrink iteration."""
    space.check_budget(n)
    if n < 2:
        raise BadParams("zeta spaces live in degree >= 2")
    if require_primitive:
        _require_primitive_root(zeta, n)
    key = ("zeta_space", n, zeta)
    cached = space._memo.get(key)
    if cached is None:
        cached = space._memo[key] = _eigen_fixpoint(space, n, zeta)
    return cached


def _twist(space: BraidedSpace, n: int, scales, word, vec: dict) -> dict:
    """zeta^(-len(word)) c_word x, scales[k] = zeta^(-k) raw: sigma |> x for
    a reduced word of sigma, raw."""
    return vec_axpy({}, scales[len(word)], space.apply_word(n, word, vec), 0, space.field)


def _pi_rows(space: BraidedSpace, n: int, zeta) -> list:
    """Pi(r_k) = C_(n-1) ... C_1 r_k for each RREF row r_k of the zeta space,
    raw."""
    key = ("pi_rows", n, zeta)
    images = space._memo.get(key)
    if images is None:
        if n > FACTORIAL_CAP:
            raise DegreeBudgetExceeded(n, FACTORIAL_CAP)
        fld = space.field
        scales = [fld.raw(zeta.inv() ** length) for length in range(n)]
        images = []
        for row in zeta_space(space, n, zeta, require_primitive=False).rows:
            acc = unboxed(row, fld)
            for k in range(1, n):
                # C_k acc: the terms s_j ... s_k acc for j = k, ..., 1
                term, acc = acc, dict(acc)
                for j in range(k, 0, -1):
                    term = space.apply_generator(n, j, term)
                    vec_axpy(acc, scales[k - j + 1], term, 0, fld)
            images.append(acc)
        space._memo[key] = images
    return images


def _pi_coords(space: BraidedSpace, n: int, zeta) -> list:
    """The coordinates of each Pi(r_k) over the canonical basis of E_n, raw."""
    key = ("pi_coords", n, zeta)
    coords = space._memo.get(key)
    if coords is None:
        prims = primitive_space(space, n)
        coords = [prims.coordinates(image) for image in _pi_rows(space, n, zeta)]
        if None in coords:
            raise InternalCheckError(
                "symmetrized vector escaped the primitive space (degree %d)" % n)
        space._memo[key] = coords
    return coords


def pi_image(space: BraidedSpace, n: int, zeta) -> Subspace:
    zeta_space(space, n, zeta)  # zeta must be a primitive n-th root here
    return Subspace.from_rows(space.power(n), _pi_rows(space, n, zeta), space.field)


def check_pi_in_E(space: BraidedSpace, n: int, zeta) -> bool:
    """Im Pi inside the degree-n primitives; a theorem, so failure is a bug."""
    prims = primitive_space(space, n)
    return prims.contains_subspace(pi_image(space, n, zeta))


def check_pi_su(space: BraidedSpace, n: int) -> bool:
    """Whether the images of Pi over all primitive n-th roots sum to the
    whole degree-n primitive space."""
    roots = space.field.primitive_roots(n)
    return Subspace.from_rows(space.power(n), (
        row for zeta in roots for row in pi_image(space, n, zeta).rows)) == \
        primitive_space(space, n)


def induced_bracket(bracket: BracketTable, n: int, zeta, vec: dict, zs=None,
                    table=None) -> dict:
    """[x] = b_n(Pi(x)), a vector in V, of scalars or raw coefficients as x.
    For x = sum_k x[p_k] r_k, r_k the RREF rows of the degree-n zeta space
    zs, Pi(x) has the coordinates sum_k x[p_k] table()[k] over E_n; zs and
    the table function are looked up unless given, and the table is read
    only once x is known to lie in zs."""
    space, fld = bracket.space, bracket.space.field
    if holds_scalars(vec, fld):
        return boxed(induced_bracket(bracket, n, zeta, unboxed(vec, fld), zs, table), fld)
    zs = zeta_space(space, n, zeta, require_primitive=False) if zs is None else zs
    coords = zs.coordinates(vec)
    if coords is None:
        raise NotInZetaSpace("vector is outside the degree-%d zeta-eigenspace" % n)
    pi = _pi_coords(space, n, zeta) if table is None else table()
    return bracket.value(n, matvec(pi, coords, fld))


def mixed_zeta_space(space: BraidedSpace, n: int, zeta) -> Subspace:
    """{x in V (x) V^(x)n(zeta) fixed by the twisted tau_1^2 conjugates}."""
    space.check_budget(n + 1)
    if n > FACTORIAL_CAP:
        raise DegreeBudgetExceeded(n, FACTORIAL_CAP)
    d, fld = space.dim, space.field
    size_n = space.power(n)
    size = space.power(n + 1)
    inner = zeta_space(space, n, zeta, require_primitive=False)
    # V (x) inner: the RREF rows of inner, shifted into each block j, stay RREF
    carrier = [unboxed({j * size_n + c: v for c, v in row.items()}, fld)
               for j in range(d) for row in inner.rows]
    if not carrier:
        return Subspace.zero(size)
    zinv, minus = zeta.inv(), fld.raw(-fld.one)

    def condition(word, scale, row):
        diff = vec_axpy({}, minus, row, 0, fld)
        return vec_axpy(diff, scale, space.apply_word(n + 1, word, row), 0, fld)

    conds = []
    for phi in itertools.permutations(range(n)):
        lifted = tuple([0] + [p + 1 for p in phi])
        word_in = matsumoto_lift(lifted).letters
        word_out = matsumoto_lift(tuple(lifted.index(k) for k in range(n + 1))).letters
        # the conjugate of tau_1^2 by the lift, rightmost letter first
        conds.append(partial(condition, word_out + (1, 1) + word_in,
                             fld.raw(zinv ** (2 * len(word_in)))))
    return Subspace(size, [boxed(row, fld) for row in stacked_kernel(carrier, conds, field=fld)])


# -- the Pareigis identities --------------------------------------------------

def _pair_bracket(bracket: BracketTable, vec: dict) -> dict:
    """[z] for z in V^(x)2 with c^2 z = z: b_2(z - c z), raw."""
    space, fld = bracket.space, bracket.space.field
    anti = vec_axpy(dict(vec), fld.raw(-fld.one), space.apply_word(2, (1,), vec), 0, fld)
    prims = primitive_space(space, 2)
    coords = prims.coordinates(anti)
    if coords is None:
        raise NotInZetaSpace(
            "pair outside the squared-braiding fixed space: the binary "
            "bracket is undefined on it")
    return bracket.value(2, coords)


def _apply_first_slice(space, bracket, n, zeta, vec, zs, table):
    """(V (x) [-]) on a vector of V^(x)(n+1): slice off the first letter."""
    def inner(sl):
        try:
            return induced_bracket(bracket, n, zeta, sl, zs, table)
        except NotInZetaSpace:
            raise NotInZetaSpace(
                "first-factor slice left the degree-%d zeta space; "
                "the identity precondition fails" % n)
    return apply_slot(vec, space.power(n), 1, inner, space.dim)


def verify_PL(bracket: BracketTable, n: int, zeta=None) -> dict:
    """Exact check of the three partial-bracket identities at arity n.

    Uses the canonical primitive n-th root when zeta is omitted.  The checks
    run over computed bases of the relevant eigenspaces; an identity that
    holds on every basis vector holds on the space.
    """
    space = bracket.space
    if zeta is None:
        zeta = space.field.root_of_unity(n)
    _require_primitive_root(zeta, n)
    space.check_budget(n + 1)
    zs = zeta_space(space, n, zeta)
    table = cache(partial(_pi_coords, space, n, zeta))  # read on first use
    fld = space.field
    one, scales = fld.raw_one, [fld.raw(zeta.inv() ** k) for k in range(n + 1)]

    # PL1: [s_i x] = [x] for the generators s_i = zeta^(-1) c_i, which is
    # invariance under the twisted symmetric-group action
    def pl1(row):
        base = induced_bracket(bracket, n, zeta, row, zs, table)
        for i in range(1, n):
            try:
                moved = _twist(space, n, scales, (i,), row)
                value = induced_bracket(bracket, n, zeta, moved, zs, table)
            except NotInZetaSpace:
                raise InternalCheckError(
                    "twisted action left the zeta space (degree %d)" % n)
            if value != base:
                return False
        return True

    # PL2: the cyclic sum of [ - , [ - ] ] vanishes on V^(x)(n+1)(zeta); the
    # cycle 1 -> 2 -> ... -> i -> 1 has the one reduced word s_1 ... s_(i-1)
    def pl2(row):
        total: dict = {}
        for i in range(1, n + 2):
            moved = _twist(space, n + 1, scales, tuple(range(1, i)), row)
            inner_val = _apply_first_slice(space, bracket, n, zeta, moved, zs, table)
            if inner_val:
                vec_axpy(total, one, _pair_bracket(bracket, inner_val), 0, fld)
        return not total

    # PL3: compatibility of the binary and n-ary brackets on the mixed space
    def pl3(row):
        inner_val = _apply_first_slice(space, bracket, n, zeta, row, zs, table)
        lhs = _pair_bracket(bracket, inner_val) if inner_val else {}
        rhs: dict = {}
        for i in range(1, n + 1):
            moved = space.apply_word(n + 1, tuple(range(i - 1, 0, -1)), row)
            # apply the binary bracket to tensor positions i, i+1
            collapsed = apply_slot(moved, d * d, space.power(n - i),
                                   lambda pair: _pair_bracket(bracket, pair), d)
            if not collapsed:
                continue
            try:
                value = induced_bracket(bracket, n, zeta, collapsed, zs, table)
            except NotInZetaSpace:
                raise NotInZetaSpace(
                    "middle-bracket image left the degree-%d zeta space" % n)
            vec_axpy(rhs, one, value, 0, fld)
        return lhs == rhs

    d = space.dim
    return {name: all(check(unboxed(row, fld)) for row in sub.rows) for name, check, sub in (
        ("pl1", pl1, zs), ("pl2", pl2, zeta_space(space, n + 1, zeta, require_primitive=False)),
        ("pl3", pl3, mixed_zeta_space(space, n, zeta)))}
