"""Graded structure of the braided tensor bialgebra.

The coproduct component from degree a+b to bidegree (a, b) acts in
concatenated word coordinates and is computed by the multiplicative
recursion Delta(w'x) = Delta(w') Delta(x); its columns, the braid action and
every vector below hold raw coefficients (`linalg`), boxed as scalars only
in the Subspaces and dims that leave the module.

The Nichols algebra B = T(V)/I is computed by normal words, in coordinates
of size dim B^n * d and never d^n.  The top degree n keeps a basis N_n of
B^n made of words, the right-multiplication tables R_x: B^(n-1) -> B^n, and
for each u in N_n its D-image D_n(u) = (pi_(n-1) (x) Id) Delta^(n-1,1)(u),
pi_k: T^k -> B^k the quotient map; lower degrees keep only r_n.  The
products u x, u in N_n, span B^(n+1) because I V lies in I, and their
D-images follow from Delta(u x) = Delta(u) Delta(x): the term u (x) x,
plus R_x'(p) (x) y' for each term p (x) y of D_n(u) and each term
x' (x) y' of c(y (x) x).  The map y -> (pi_n (x) Id) Delta^(n,1)(y) has
kernel exactly I_(n+1): by induction ker pi_n is the kernel of the quantum
symmetrizer Gamma_n, and Gamma_(n+1) = (Gamma_n (x) Id) Delta^(n,1).  So one
echelon of the D-images, each tagged with its product, gives r_(n+1) =
dim B^(n+1) from its pivots, picks N_(n+1), and leaves each other product
as its coordinates in N_(n+1): the tables R of the next degree.

Primitive spaces are the intersections of the kernels of all inner coproduct
components, solved one at a time and cheapest first (component a costs
dims[a] * dims[n-a] constraint rows), each on the kernel the ones before it
leave.  `primitive_kernel`, behind every primitive space here and in the
tower, reads the route off the braiding: exact on a monomial one over a
field of degree < 3, where it beats the modular detour; else mod p.
`has_primitives` decides E_n != 0 on blocks of words read off the pair table
alone: rewriting one adjacent pair (i, j) into a pair in the support of
c(x_i (x) x_j) stays in the block.  Each component is a sum of braid lifts,
so it maps a block's words into the block, and E_n is the direct sum of the
block kernels.  The blocks are solved smallest first up to the first
nonzero kernel, and only their words get columns, from the degree n-1 lists.
"""

from __future__ import annotations

from .errors import BadParams, InternalCheckError
from .linalg import Echelon, Subspace, boxed, certified_kernel, matvec, stacked_kernel, vec_axpy
from .spaces import BraidedSpace


def delta_columns(space: BraidedSpace, a: int, b: int):
    """Sparse columns of the (a, b) coproduct component, raw; memoized."""
    if a < 0 or b < 0:
        raise BadParams("coproduct bidegree must be nonnegative")
    n = a + b
    space.check_budget(n)
    key = ("delta", a, b)
    cols = space._memo.get(key)
    if cols is None:
        cols = space._memo[key] = (
            _delta_block(space, a, b, range(space.power(n)), space.braiding_block_matrix(b))
            if a and b else [{w: space.field.raw_one} for w in range(space.power(n))])
    return cols


def _delta_block(space: BraidedSpace, a: int, b: int, words, block) -> list[dict]:
    """Columns of Delta^(a,b), a, b > 0, for the given degree-n words: column
    w'x is column w' of Delta^(a,b-1) with x appended, plus column w' of
    Delta^(a-1,b) with x braided past its right factor by block[r] = c^(b,1) e_r."""
    d, fld = space.dim, space.field
    dim_b = space.power(b)
    dim_b1 = dim_b * d
    appended = delta_columns(space, a, b - 1)
    braided = delta_columns(space, a - 1, b)
    cols = []
    for w in words:
        prefix, x = divmod(w, d)
        acc = {t * d + x: s for t, s in appended[prefix].items()}
        for t, s in braided[prefix].items():
            u, v = divmod(t, dim_b)
            vec_axpy(acc, s, block[v * d + x], u * dim_b1, fld)
        cols.append(acc)
    return cols


def cheapest_first(parts, dims, n: int) -> list:
    """The parts by the dims[a] * dims[n-a] constraint rows of component a,
    dims[k] the dimension of the degree-k target, fewest first."""
    return sorted(parts, key=lambda a: dims[a] * dims[n - a])


def primitive_kernel(space: BraidedSpace, maps, count: int) -> list[dict]:
    """RREF rows, raw, of the common kernel of raw column maps over count
    unknowns, by the route the braiding's shape picks: exact on a monomial
    braiding over a field of degree < 3, modular otherwise."""
    if space.monomial and space.field.degree < 3:
        return stacked_kernel(count, maps, field=space.field)
    return certified_kernel(maps, count, space.field)


def primitive_space(space: BraidedSpace, n: int) -> Subspace:
    """Degree-n primitives: the intersection of ker Delta^(a, n-a), a = 1..n-1."""
    space.check_budget(n)
    size = space.power(n)
    if n <= 1:
        return Subspace.zero(size)
    key = ("primitives", n)
    cached = space._memo.get(key)
    if cached is None:
        dims = [space.power(k) for k in range(n + 1)]
        rows = primitive_kernel(space, (delta_columns(space, a, n - a) for a in
                                        cheapest_first(range(1, n), dims, n)), size)
        cached = space._memo[key] = Subspace(size, [boxed(r, space.field) for r in rows])
    return cached


def has_primitives(space: BraidedSpace, n: int) -> bool:
    """Whether E_n is nonzero, without a basis of E_n unless one is memoized:
    the blocks of `_pair_blocks`, smallest first, up to the first nonzero
    kernel, each with the columns of its own words only."""
    space.check_budget(n)
    if n <= 1:
        return False
    if ("primitives", n) in space._memo:
        return space._memo["primitives", n].dim > 0
    one = space.field.raw_one
    order = cheapest_first(range(1, n), [space.power(k) for k in range(n + 1)], n)

    def component(words, a):
        block = ({w: space.braiding_block_apply(n - 1, 1, {w: one}) for w in words}
                 if a == 1 else space.braiding_block_matrix(n - a))
        return _delta_block(space, a, n - a, words, block)

    return any(primitive_kernel(space, (component(words, a) for a in order), len(words))
               for words in _pair_blocks(space, n))


def _pair_blocks(space: BraidedSpace, n: int) -> list[list[int]]:
    """The degree-n words in blocks, smallest first: union-find joins each
    word to every word made by rewriting one adjacent pair (i, j) into a pair
    in the support of c(x_i (x) x_j)."""
    d = space.dim
    parent = list(range(space.power(n)))

    def root(w):
        while parent[w] != w:
            parent[w] = w = parent[parent[w]]
        return w

    for pos in range(n - 1):
        lo = space.power(pos)
        for w in range(len(parent)):
            i, j = divmod(w // lo % (d * d), d)
            for (k, l), _ in space.pairs.get((i, j), ()):
                parent[root(w + ((k - i) * d + l - j) * lo)] = root(w)
    blocks: dict[int, list] = {}
    for w in range(len(parent)):
        blocks.setdefault(root(w), []).append(w)
    return sorted(blocks.values(), key=len)


def _nichols_levels(space: BraidedSpace, upto: int) -> list:
    """The dims r_0..r_upto of B(V) by normal words, memoized as a list that
    grows, next to the top degree's (images, coords) alone, which is all the
    next degree reads: images[i] = D_n(u_i) for the i-th normal word, in
    dim B^(n-1) * d coordinates, and coords[k * d + x] = R_x(e_k), the
    degree-n coordinates of the k-th degree-(n-1) normal word times x."""
    memo = space._memo.setdefault("nichols", [[1], ([{}], [])])
    dims, fld = memo[0], space.field
    d, dd, one, minus = space.dim, space.dim * space.dim, fld.raw_one, fld.raw(-fld.one)
    block = space.braiding_block_matrix(1)
    while len(dims) <= upto:
        images, coords = memo[1]
        width = len(images) * d
        # R (x) Id_V on B^(n-1) (x) V (x) V: column (k * d + x) * d + y is
        # R_x(e_k) (x) y, in dim B^n * d coordinates
        lifted = [{j * d + y: v for j, v in col.items()} for col in coords for y in range(d)]
        # one augmented echelon: D-image coordinates, then a tag -1 per
        # product, so that a remainder's tags are its coordinates; taken in
        # descending order the products keep its scalars smaller (about 2x
        # faster than ascending on Aff(5, 2) and cartan_An n = 3)
        ech = Echelon(2 * width, fld)
        normal, rems = {}, {}
        for c in reversed(range(width)):
            i, x = divmod(c, d)
            braided: dict = {}
            for key, s in images[i].items():
                k, y = divmod(key, d)
                vec_axpy(braided, s, block[y * d + x], k * dd, fld)
            # Delta(u x) = Delta(u) Delta(x): e_u (x) x, plus p x' (x) y' for
            # each term p (x) y of D_n(u) and c(y (x) x) = x' (x) y'
            img = matvec(lifted, braided, fld)
            vec_axpy(img, one, {c: one}, 0, fld)
            # a remainder leading at an image column joins the echelon
            rem = ech.reduce({**img, width + c: minus}, add_below=width)
            if rem:
                rems[c] = rem
            else:
                normal[c] = img
        index = {c: j for j, c in enumerate(sorted(normal))}
        # a remainder holds only tags: c = sum of normal words mod I_(n+1)
        coords = [{index[c]: one} if c in index else
                  {index[t - width]: v for t, v in rems[c].items() if t != width + c}
                  for c in range(width)]
        memo[1] = ([normal[c] for c in sorted(normal)], coords)
        dims.append(len(normal))
    return dims


def _rigid(space: BraidedSpace) -> bool:
    """Whether c^flat: V* (x) V -> V (x) V*, f_i (x) x_j -> sum over m of
    c(x_j (x) x_m)_(i, l) x_l (x) f_m, is invertible."""
    d = space.dim
    flat: dict = {}
    for (j, m), images in space.pairs.items():
        for (i, l), s in images:
            flat.setdefault(i * d + j, {})[l * d + m] = s
    return Echelon(d * d).add_rows(flat.values()) == d * d


def nichols_dims(space: BraidedSpace, upto: int):
    """Graded dimensions r_n of the Nichols algebra, by normal words.

    A zero r_n proves B^m = 0 for all m >= n, as B is generated in degree 1,
    so the degrees above it are filled in.  The Hilbert series of a
    finite-dimensional Nichols algebra of a rigid braiding is palindromic
    (Andruskiewitsch-Schneider, "Pointed Hopf algebras", 2002), which is
    checked; c = q Id with d >= 2 is not rigid, and its series is not."""
    space.check_budget(upto)
    dims = []
    for n in range(upto + 1):
        dims.append(_nichols_levels(space, n)[n])
        if not dims[-1]:
            series = dims[:-1]
            if series != series[::-1] and _rigid(space):
                raise InternalCheckError(
                    "the Hilbert series %r of a finite-dimensional Nichols "
                    "algebra is not palindromic" % series)
            return dims + [0] * (upto - n)
    return dims
