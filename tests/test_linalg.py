import random

from braidcalc.linalg import (
    Echelon,
    Subspace,
    kernel_basis,
    left_kernel,
    vec_axpy,
)
from braidcalc.scalars import Q, field_make
from oracles import rank_of_rows, row_tensor_basis_left, row_tensor_basis_right

F = field_make(1)


def s(x):
    return F.from_rational(Q(x))


def rows_from_dense(mat):
    out = []
    for row in mat:
        d = {j: s(v) for j, v in enumerate(row) if v}
        out.append(d)
    return out


def dense_matvec(mat, vec, ncols):
    out = []
    for row in mat:
        acc = F.zero
        for j in range(ncols):
            if row[j]:
                acc = acc + s(row[j]) * vec.get(j, F.zero)
        out.append(acc)
    return out


def test_rref_is_canonical():
    a = Subspace.from_rows(3, rows_from_dense([[1, 2, 3], [0, 1, 1]]))
    b = Subspace.from_rows(3, rows_from_dense([[2, 4, 6], [1, 3, 4], [3, 7, 10]]))
    assert a == b
    assert a.pivots == (0, 1)
    # pivot columns are 1 in their own row and 0 elsewhere
    for p, row in zip(a.pivots, a.rows):
        assert row[p].is_one()
        for other in a.rows:
            if other is not row:
                assert p not in other


def test_membership_and_reduce():
    sp = Subspace.from_rows(4, rows_from_dense([[1, 0, 1, 0], [0, 1, 1, 1]]))
    assert sp.contains({0: s(2), 1: s(-1), 2: s(1), 3: s(-1)})
    assert not sp.contains({0: s(1)})
    rem = sp.reduce({0: s(1), 2: s(1)})
    assert 0 not in rem and 1 not in rem  # pivot coordinates eliminated


def test_kernel_against_random_dense(seed=11):
    rng = random.Random(seed)
    for _ in range(40):
        nrows = rng.randint(1, 5)
        ncols = rng.randint(1, 6)
        mat = [[rng.randint(-3, 3) for _ in range(ncols)] for _ in range(nrows)]
        basis = kernel_basis(rows_from_dense(mat), ncols, one=F.one)
        rank = rank_of_rows(rows_from_dense(mat), ncols)
        assert len(basis) == ncols - rank
        for vec in basis:
            assert all(v.is_zero() for v in dense_matvec(mat, vec, ncols))
        # kernel basis itself is independent
        assert rank_of_rows(basis, ncols) == len(basis)


def test_left_kernel_combinations(seed=5):
    rng = random.Random(seed)
    for _ in range(30):
        count = rng.randint(1, 5)
        width = rng.randint(1, 5)
        vecs = []
        for _ in range(count):
            vecs.append({j: s(rng.randint(-2, 2))
                         for j in range(width) if rng.random() < 0.7})
            vecs[-1] = {k: v for k, v in vecs[-1].items() if not v.is_zero()}
        combos = left_kernel(vecs, one=F.one)
        span_rank = rank_of_rows([v for v in vecs if v], width) if any(vecs) else 0
        assert len(combos) == count - span_rank
        for combo in combos:
            acc = {}
            for i, coeff in combo.items():
                for c, v in vecs[i].items():
                    acc[c] = acc.get(c, F.zero) + coeff * v
            assert all(v.is_zero() for v in acc.values())


def test_sum_and_intersection():
    u = Subspace.from_rows(4, rows_from_dense([[1, 0, 0, 0], [0, 1, 0, 0]]))
    w = Subspace.from_rows(4, rows_from_dense([[0, 1, 0, 0], [0, 0, 1, 0]]))
    assert u.sum(w).dim == 3
    inter = u.intersection(w)
    assert inter.dim == 1
    assert inter.contains({1: F.one})
    assert u.contains_subspace(inter) and w.contains_subspace(inter)


def test_intersection_randomized(seed=23):
    rng = random.Random(seed)
    for _ in range(20):
        ncols = rng.randint(2, 6)
        mk = lambda: Subspace.from_rows(
            ncols,
            rows_from_dense([[rng.randint(-2, 2) for _ in range(ncols)]
                             for _ in range(rng.randint(1, 3))]))
        u, w = mk(), mk()
        inter = u.intersection(w)
        assert u.contains_subspace(inter)
        assert w.contains_subspace(inter)
        # dimension formula against the sum
        assert inter.dim == u.dim + w.dim - u.sum(w).dim


def test_tensor_reindexing():
    row = {0: s(1), 2: s(-1)}  # lives in degree 2 over d = 2 words
    right = row_tensor_basis_right(row, 2, 1)
    assert right == {1: s(1), 5: s(-1)}
    left = row_tensor_basis_left(row, 2, 1, 2)
    assert left == {4: s(1), 6: s(-1)}


def test_echelon_incremental_rank():
    ech = Echelon(3)
    assert ech.add({0: s(1), 1: s(1)})
    assert not ech.add({0: s(2), 1: s(2)})
    assert ech.add({1: s(1)})
    assert ech.rank == 2
    rows = ech.rows()
    assert rows[0] == {0: F.one} and rows[1] == {1: F.one}


def test_axpy_by_zero_stores_no_zero_entries():
    F4 = field_make(4)
    target = {0: F4.one}
    vec_axpy(target, F4.zero, {1: F4.gen, 2: F4.one})
    assert target == {0: F4.one}
    assert all(not v.is_zero() for v in target.values())
