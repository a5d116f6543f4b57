"""Graded structure of the braided tensor bialgebra.

The coproduct component from degree a+b to bidegree (a, b) acts in
concatenated word coordinates (an endomorphism matrix of V^(x)(a+b)) and is
computed by the multiplicative recursion Delta(w'x) = Delta(w') Delta(x), as
Delta is an algebra map into T(V) (x)_c T(V); the shuffle sum
sum_{sigma in (a|b)-shuffles} lift(sigma^(-1)) is the test reference.

The Nichols algebra B = T(V)/I is computed by normal words, in coordinates
of size dim B^n * d and never d^n.  Degree n keeps a basis N_n of B^n made
of words, the right-multiplication tables R_x: B^(n-1) -> B^n in those
bases, and for each u in N_n its D-image D_n(u) = (pi_(n-1) (x) Id)
Delta^(n-1,1)(u), where pi_k: T^k -> B^k is the quotient map.  The
products u x, u in N_n, span B^(n+1) because I V lies in I, and their
D-images follow from Delta(u x) = Delta(u) Delta(x): the term u (x) x,
plus R_x'(p) (x) y' for each term p (x) y of D_n(u) and each term
x' (x) y' of c(y (x) x).  The map y -> (pi_n (x) Id) Delta^(n,1)(y) has
kernel exactly I_(n+1): by induction ker pi_n is the kernel of the quantum
symmetrizer Gamma_n, and Gamma_(n+1) = (Gamma_n (x) Id) Delta^(n,1).  So one
echelon of the D-images, each tagged with its product, gives r_(n+1) =
dim B^(n+1) from its pivots, picks N_(n+1), and leaves each other product
as its coordinates in N_(n+1): the tables R of the next degree.  Gamma_n
and the direct sum over S_n are built only by the test oracles.

Primitive spaces are the intersections of the kernels of all inner coproduct
components; `coproduct_kernel` computes that kernel, optionally modulo a
quotient or inside a given span, for the primitives, their block scan and
the quotient primitives of a tower alike.  `has_primitives` decides
E_n != 0 by a block scan: the words that the columns of the components join
fall into connected blocks, each mapped into itself by every component.
The stacked system is therefore block-diagonal by construction, whatever the
braiding, and E_n is the direct sum of the block kernels, so the first
nonzero block kernel settles the question exactly.
"""

from __future__ import annotations

from .errors import BadParams, InternalCheckError
from .linalg import Echelon, Subspace, matvec, stacked_kernel, vec_axpy
from .spaces import BraidedSpace


def delta_columns(space: BraidedSpace, a: int, b: int):
    """Sparse columns of the (a, b) coproduct component; memoized.

    Column w'x is column w' of Delta^(a,b-1) with x appended on the right,
    plus column w' of Delta^(a-1,b) with x braided past the right factor."""
    if a < 0 or b < 0:
        raise BadParams("coproduct bidegree must be nonnegative")
    n = a + b
    space.check_budget(n)
    key = ("delta", a, b)
    cols = space._memo.get(key)
    if cols is not None:
        return cols
    if a == 0 or b == 0:
        cols = [{w: space.field.one} for w in range(space.power(n))]
    else:
        d = space.dim
        dim_b = space.power(b)
        dim_b1 = dim_b * d
        appended = delta_columns(space, a, b - 1)
        braided = delta_columns(space, a - 1, b)
        block = space.braiding_block_matrix(b, 1)
        cols = []
        for w in range(space.power(n)):
            prefix, x = divmod(w, d)
            acc = {t * d + x: s for t, s in appended[prefix].items()}
            for t, s in braided[prefix].items():
                u, v = divmod(t, dim_b)
                base = u * dim_b1
                for r, val in block[v * d + x].items():
                    tgt = base + r
                    cur = acc.get(tgt)
                    if cur is None:
                        acc[tgt] = s * val
                    else:
                        new = cur + s * val
                        if new.is_zero():
                            del acc[tgt]
                        else:
                            acc[tgt] = new
            cols.append(acc)
    space._memo[key] = cols
    return cols


def coproduct_kernel(space: BraidedSpace, n: int, parts, dims,
                     reduce=None, basis=None) -> list[dict]:
    """Basis of {x in span(basis) : reduce(Delta^(a, n-a) x, a, n-a) = 0,
    a in parts}, where basis defaults to the unit basis of V^(x)n.

    dims[k] is the dimension of the degree-k target, which prices component a
    at dims[a] * dims[n-a] constraint rows.  When all parts together cost at
    most twice as many rows as there are unknowns (d^n, or len(basis)) the
    stacked system is solved at once; otherwise the kernel is shrunk one
    component at a time, the cheapest first.
    """
    size = space.power(n)
    cost = {a: dims[a] * dims[n - a] for a in parts}
    if sum(cost.values()) <= 2 * (size if basis is None else len(basis)):
        groups = [list(parts)]
    else:
        groups = [[a] for a in sorted(parts, key=cost.get)]
    for group in groups:
        images = [_component_images(space, a, n - a, basis, reduce)
                  for a in group]
        basis = stacked_kernel(basis, images, size, space.field.one)
        if not basis:
            break
    return basis


def _component_images(space: BraidedSpace, a: int, b: int, basis, reduce):
    """reduce(Delta^(a, b) x, a, b) for x in basis; with no basis, the images
    of the unit vectors are the columns themselves."""
    cols = delta_columns(space, a, b)
    images = cols if basis is None else (matvec(cols, v) for v in basis)
    return images if reduce is None else (reduce(img, a, b) for img in images)


def primitive_space(space: BraidedSpace, n: int) -> Subspace:
    """Degree-n primitives: the intersection of ker Delta^(a, n-a), a = 1..n-1."""
    space.check_budget(n)
    size = space.power(n)
    if n <= 1:
        return Subspace.zero(size)
    key = ("primitives", n)
    cached = space._memo.get(key)
    if cached is not None:
        return cached
    dims = [space.power(k) for k in range(n + 1)]
    result = Subspace.from_rows(size, coproduct_kernel(space, n, range(1, n), dims))
    space._memo[key] = result
    return result


def has_primitives(space: BraidedSpace, n: int) -> bool:
    """Whether E_n is nonzero, without a basis of E_n unless one is memoized.

    Each degree-n word w is joined to every word in the support of its
    columns of Delta^(a, n-a), a = 1..n-1, by union-find; the blocks are
    solved smallest first, up to the first nonzero kernel."""
    space.check_budget(n)
    if n <= 1:
        return False
    cached = space._memo.get(("primitives", n))
    if cached is not None:
        return cached.dim > 0
    parent = list(range(space.power(n)))

    def root(w):
        while parent[w] != w:
            parent[w] = w = parent[parent[w]]
        return w

    for a in range(1, n):
        for w, col in enumerate(delta_columns(space, a, n - a)):
            for r in col:
                parent[root(r)] = root(w)
    blocks: dict[int, list] = {}
    for w in range(len(parent)):
        blocks.setdefault(root(w), []).append({w: space.field.one})
    dims = [space.power(k) for k in range(n + 1)]
    return any(coproduct_kernel(space, n, range(1, n), dims, basis=block)
               for block in sorted(blocks.values(), key=len))




def times_letter(coords, d: int) -> list[dict]:
    """Columns of R (x) Id_V on B^(n-1) (x) V (x) V, given the tables
    coords[k * d + x] = R_x(e_k): column (k * d + x) * d + y is R_x(e_k) (x) y,
    in dim B^n * d coordinates."""
    return [{j * d + y: v for j, v in col.items()} for col in coords for y in range(d)]


def _nichols_levels(space: BraidedSpace, upto: int) -> list:
    """Degrees 0..upto of B(V) by normal words, memoized as one growing list.

    Degree n is (images, coords): images[i] = D_n(u_i) for the i-th normal
    word, in dim B^(n-1) * d coordinates, and coords[k * d + x] = R_x(e_k),
    the degree-n coordinates of the k-th degree-(n-1) normal word times x."""
    levels = space._memo.setdefault("nichols", [([{}], [])])
    d, dd, one = space.dim, space.dim * space.dim, space.field.one
    block = space.braiding_block_matrix(1, 1)
    while len(levels) <= upto:
        images, coords = levels[-1]
        width = len(images) * d
        lifted = times_letter(coords, d)
        # one augmented echelon: D-image coordinates, then a tag per product;
        # taken in descending order the products keep its scalars smaller
        # (about 2x faster than ascending on Aff(5, 2) and cartan_An n = 3)
        ech = Echelon(2 * width)
        normal, rems = {}, {}
        for c in reversed(range(width)):
            i, x = divmod(c, d)
            braided: dict = {}
            for key, s in images[i].items():
                k, y = divmod(key, d)
                vec_axpy(braided, s, {k * dd + t: v for t, v in block[y * d + x].items()})
            # Delta(u x) = Delta(u) Delta(x): e_u (x) x, plus p x' (x) y' for
            # each term p (x) y of D_n(u) and c(y (x) x) = x' (x) y'
            img = matvec(lifted, braided)
            vec_axpy(img, one, {c: one})
            rem = ech.reduce({**img, width + c: one})
            if min(rem) < width:
                ech.add(rem)
                normal[c] = img
            else:
                rems[c] = rem
        index = {c: j for j, c in enumerate(sorted(normal))}
        # a remainder holds only tags: c = sum of normal words mod I_(n+1)
        coords = [{index[c]: one} if c in index else
                  {index[t - width]: -v for t, v in rems[c].items() if t != width + c}
                  for c in range(width)]
        levels.append(([normal[c] for c in sorted(normal)], coords))
    return levels


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
        dims.append(len(_nichols_levels(space, n)[n][0]))
        if not dims[-1]:
            series = dims[:-1]
            if series != series[::-1] and _rigid(space):
                raise InternalCheckError(
                    "the Hilbert series %r of a finite-dimensional Nichols "
                    "algebra is not palindromic" % series)
            return dims + [0] * (upto - n)
    return dims
