"""Graded structure of the braided tensor bialgebra.

The coproduct component from degree a+b to bidegree (a, b) acts in
concatenated word coordinates (an endomorphism matrix of V^(x)(a+b)) and is
computed by the multiplicative recursion Delta(w'x) = Delta(w') Delta(x), as
Delta is an algebra map into T(V) (x)_c T(V); the shuffle sum
sum_{sigma in (a|b)-shuffles} lift(sigma^(-1)) is the test reference.
The quantum symmetrizer in degree n is built by the recursion

    Gamma_n = (Gamma_(n-1) (x) Id) . Delta^(n-1,1),      Gamma_0 = Gamma_1 = Id,

whose ranks are the graded dimensions of the Nichols algebra; the direct
length-weighted sum over all of S_n is kept as an independent test oracle.
Primitive spaces are the intersections of the kernels of all inner coproduct
components.
"""

from __future__ import annotations

from .errors import BadParams
from .linalg import Echelon, Subspace, kernel_basis, left_kernel
from .spaces import BraidedSpace, matsumoto_lift


class DeltaComponent:
    __slots__ = ("a", "b", "columns")

    def __init__(self, a, b, columns):
        self.a = a
        self.b = b
        self.columns = columns


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


def delta_component(space: BraidedSpace, a: int, b: int) -> DeltaComponent:
    return DeltaComponent(a, b, delta_columns(space, a, b))


def matvec(columns, vec: dict) -> dict:
    out: dict = {}
    for w, s in vec.items():
        for r, t in columns[w].items():
            cur = out.get(r)
            if cur is None:
                out[r] = s * t
            else:
                new = cur + s * t
                if new.is_zero():
                    del out[r]
                else:
                    out[r] = new
    return out


def transpose_columns(columns):
    rows: dict[int, dict] = {}
    for w, col in enumerate(columns):
        for r, val in col.items():
            rows.setdefault(r, {})[w] = val
    return rows


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


def symmetrizer_block(space: BraidedSpace, a: int, b: int):
    """Concatenation after the (a, b) coproduct component.

    In concatenated word coordinates the product map is the identity
    reindexing, so the block symmetrizer is the coproduct matrix itself.
    """
    return delta_columns(space, a, b)


def symmetrizer_direct(space: BraidedSpace, n: int):
    """Independent oracle: the length-weighted sum over all of S_n."""
    import itertools

    one = space.field.one
    size = space.power(n)
    cols = [dict() for _ in range(size)]
    for sigma in itertools.permutations(range(n)):
        letters = matsumoto_lift(sigma).letters
        for w in range(size):
            img = space.apply_word(n, letters, {w: one})
            col = cols[w]
            for r, val in img.items():
                cur = col.get(r)
                if cur is None:
                    col[r] = val
                else:
                    new = cur + val
                    if new.is_zero():
                        del col[r]
                    else:
                        col[r] = new
    return cols


def symmetrizer_factorization_check(space: BraidedSpace, a: int, b: int) -> bool:
    """Gamma_(a+b) = (Gamma_a (x) Gamma_b) . Delta^(a,b), exactly."""
    n = a + b
    whole = symmetrizer(space, n).columns
    ga = symmetrizer(space, a).columns
    gb = symmetrizer(space, b).columns
    delta = delta_columns(space, a, b)
    dim_b = space.power(b)
    for w in range(space.power(n)):
        acc: dict = {}
        for u, s in delta[w].items():
            hi, lo = divmod(u, dim_b)
            for r1, t1 in ga[hi].items():
                base = r1 * dim_b
                st1 = s * t1
                for r2, t2 in gb[lo].items():
                    tgt = base + r2
                    cur = acc.get(tgt)
                    if cur is None:
                        acc[tgt] = st1 * t2
                    else:
                        new = cur + st1 * t2
                        if new.is_zero():
                            del acc[tgt]
                        else:
                            acc[tgt] = new
        ref = whole[w]
        if len(acc) != len(ref):
            return False
        for rkey, val in ref.items():
            other = acc.get(rkey)
            if other is None or not (other == val):
                return False
    return True


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
    one = space.field.one
    # the (1, n-1) kernel first: highest expected rank, smallest carrier after
    rows = transpose_columns(delta_columns(space, 1, n - 1))
    basis = kernel_basis(rows.values(), size, one=one)
    for a in range(2, n - 1 + 1):
        if not basis:
            break
        if a == n - a and n - a == 1:
            continue
        cols = delta_columns(space, a, n - a)
        images = [matvec(cols, v) for v in basis]
        combos = left_kernel(images, one=one)
        new_basis = []
        for combo in combos:
            acc: dict = {}
            for i, coeff in combo.items():
                for c, v in basis[i].items():
                    cur = acc.get(c)
                    if cur is None:
                        acc[c] = coeff * v
                    else:
                        new = cur + coeff * v
                        if new.is_zero():
                            del acc[c]
                        else:
                            acc[c] = new
            if acc:
                new_basis.append(acc)
        basis = new_basis
    result = Subspace.from_rows(size, basis)
    space._memo[key] = result
    return result


def nichols_dims(space: BraidedSpace, upto: int):
    """Graded dimensions of the Nichols algebra: ranks of the symmetrizers."""
    space.check_budget(upto)
    return [symmetrizer(space, n).rank for n in range(upto + 1)]
