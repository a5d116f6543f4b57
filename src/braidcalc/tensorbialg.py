"""Graded structure of the braided tensor bialgebra.

The coproduct component from degree a+b to bidegree (a, b) acts in
concatenated word coordinates (an endomorphism matrix of V^(x)(a+b)) and is
computed by the multiplicative recursion Delta(w'x) = Delta(w') Delta(x), as
Delta is an algebra map into T(V) (x)_c T(V); the shuffle sum
sum_{sigma in (a|b)-shuffles} lift(sigma^(-1)) is the test reference.
The quantum symmetrizer in degree n satisfies the recursion

    Gamma_n = (Gamma_(n-1) (x) Id) . Delta^(n-1,1),      Gamma_0 = Gamma_1 = Id,

and its rank is dim B^n, a graded dimension of the Nichols algebra.  The
ranks come without Gamma_n, by the derivation recursion: if ker pi_(n-1) =
ker Gamma_(n-1), then ker Gamma_n = ker (pi_(n-1) (x) Id) . Delta^(n-1,1),
whose images have dim B^(n-1) * d coordinates; their echelon's pivot
coordinates are injective on their span and give pi_n.  Gamma_n and the
direct length-weighted sum over S_n are built only as independent oracles.
Primitive spaces are the intersections of the kernels of all inner coproduct
components; `coproduct_kernel` computes that kernel, optionally modulo a
quotient or inside a given span, for the primitives, the quotient primitives
of a tower and the injectivity ladder alike.  `has_primitives` decides
E_n != 0 by a block scan: the words that the columns of the components join
fall into connected blocks, each mapped into itself by every component.
The stacked system is therefore block-diagonal by construction, whatever the
braiding, and E_n is the direct sum of the block kernels, so the first
nonzero block kernel settles the question exactly.
"""

from __future__ import annotations

from .errors import BadParams
from .linalg import Echelon, Subspace, left_kernel, matvec, vec_axpy, vec_eq
from .spaces import BraidedSpace, matsumoto_lift


class Symmetrizer:
    __slots__ = ("n", "columns", "_rank")

    def __init__(self, n, columns):
        self.n = n
        self.columns = columns
        self._rank = None

    @property
    def rank(self) -> int:
        if self._rank is None:
            ncols = len(self.columns)
            ech = Echelon(ncols)
            # rank(M) = rank(M^T): feed the sparse columns directly
            ech.add_rows(col for col in self.columns if col)
            self._rank = ech.rank
        return self._rank


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


def symmetrizer(space: BraidedSpace, n: int) -> Symmetrizer:
    """The degree-n quantum symmetrizer, built by the (n-1, 1) recursion."""
    space.check_budget(n)
    key = ("gamma", n)
    sym = space._memo.get(key)
    if sym is not None:
        return sym
    one = space.field.one
    if n <= 1:
        cols = [{w: one} for w in range(space.power(n))]
        sym = Symmetrizer(n, cols)
    else:
        prev = symmetrizer(space, n - 1).columns
        d = space.dim
        delta = delta_columns(space, n - 1, 1)
        cols = []
        for w in range(space.power(n)):
            acc: dict = {}
            for u, s in delta[w].items():
                prefix, last = divmod(u, d)
                for r, t in prev[prefix].items():
                    tgt = r * d + last
                    cur = acc.get(tgt)
                    if cur is None:
                        acc[tgt] = s * t
                    else:
                        new = cur + s * t
                        if new.is_zero():
                            del acc[tgt]
                        else:
                            acc[tgt] = new
            cols.append(acc)
        sym = Symmetrizer(n, cols)
    space._memo[key] = sym
    return sym


def symmetrizer_direct(space: BraidedSpace, n: int):
    """Independent oracle: the length-weighted sum over all of S_n."""
    import itertools

    one = space.field.one
    size = space.power(n)
    cols = [dict() for _ in range(size)]
    for sigma in itertools.permutations(range(n)):
        letters = matsumoto_lift(sigma).letters
        for w in range(size):
            vec_axpy(cols[w], one, space.apply_word(n, letters, {w: one}))
    return cols


def symmetrizer_factorization_check(space: BraidedSpace, a: int, b: int) -> bool:
    """Gamma_(a+b) = (Gamma_a (x) Gamma_b) . Delta^(a,b), exactly."""
    n = a + b
    whole = symmetrizer(space, n).columns
    ga = symmetrizer(space, a).columns
    gb = symmetrizer(space, b).columns
    delta = delta_columns(space, a, b)
    dim_b = space.power(b)
    # columns of Gamma_a (x) Gamma_b, word u = (hi, lo)
    kron = [{r1 * dim_b + r2: t1 * t2
             for r1, t1 in ga[u // dim_b].items()
             for r2, t2 in gb[u % dim_b].items()}
            for u in range(space.power(n))]
    return all(vec_eq(matvec(kron, delta[w]), whole[w])
               for w in range(space.power(n)))


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
    # with no basis, the images of the unit vectors are the columns themselves
    for group in groups:
        stacked = [{} for _ in range(size if basis is None else len(basis))]
        for a in group:
            cols = delta_columns(space, a, n - a)
            images = cols if basis is None else [matvec(cols, v) for v in basis]
            for vec, img in zip(stacked, images):
                if reduce is not None:
                    img = reduce(img, a, n - a)
                # component a owns the key block [a d^n, (a + 1) d^n)
                vec.update({a * size + r: val for r, val in img.items()})
        combos = left_kernel(stacked, one=space.field.one)
        basis = combos if basis is None else [matvec(basis, c) for c in combos]
        if not basis:
            break
    return basis


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


def _nichols_images(space: BraidedSpace, n: int):
    """(r_n, images): r_n = dim B^n and, per degree-n word w, a vector
    pi_n(e_w) in r_n coordinates with ker pi_n = ker Gamma_n; memoized."""
    key = ("nichols", n)
    cached = space._memo.get(key)
    if cached is not None:
        return cached
    if n == 0:
        result = (1, [{0: space.field.one}])
    else:
        d = space.dim
        rank, prev = _nichols_images(space, n - 1)
        # pi_(n-1) (x) Id: key k * d + last letter
        lifted = [{k * d + u % d: t for k, t in prev[u // d].items()}
                  for u in range(space.power(n))]
        images = [matvec(lifted, col) for col in delta_columns(space, n - 1, 1)]
        ech = Echelon(rank * d)
        ech.add_rows(m for m in images if m)
        # the leads of an echelon are the RREF pivot columns of the span, so
        # keeping only those coordinates is injective on it
        renumber = {p: i for i, p in enumerate(sorted(ech.pivot_rows))}
        result = (ech.rank, [{renumber[k]: v for k, v in m.items()
                              if k in renumber} for m in images])
    space._memo[key] = result
    return result


def nichols_dims(space: BraidedSpace, upto: int):
    """Graded dimensions of the Nichols algebra: the ranks r_n of the
    derivation recursion, which equal the ranks of the symmetrizers."""
    space.check_budget(upto)
    return [_nichols_images(space, n)[0] for n in range(upto + 1)]
