import random

from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from braidcalc.linalg import (
    Echelon,
    Subspace,
    apply_slot,
    boxed,
    certified_kernel,
    left_kernel,
    matvec,
    stacked_kernel,
    unboxed,
    vec_axpy,
)
from braidcalc.scalars import Q, Reduction, field_make
from math import gcd

from oracles import (LeadOneEchelon, kernel_basis, rank_of_rows, row_tensor_basis_left,
                     row_tensor_basis_right, subspace_intersection, subspace_sum)

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
    assert subspace_sum(u, w).dim == 3
    inter = subspace_intersection(u, w)
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
        inter = subspace_intersection(u, w)
        assert u.contains_subspace(inter)
        assert w.contains_subspace(inter)
        # dimension formula against the sum
        assert inter.dim == u.dim + w.dim - subspace_sum(u, w).dim


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


def test_reduce_is_canonical_before_back_substitution():
    ech = Echelon(4)
    ech.add_rows([{1: s(1), 2: s(1)}, {2: s(1), 3: s(1)}])
    # eliminating column 1 fills in pivot column 2, which must go too
    before = ech.reduce({0: s(1), 1: s(1)})
    ech.back_substitute()
    assert before == ech.reduce({0: s(1), 1: s(1)}) == {0: s(1), 3: s(1)}


dense_rows = st.lists(st.lists(st.sampled_from((0, 0, 1, -1, 2, Q(1, 3))), min_size=6, max_size=6),
                      min_size=1, max_size=5)


@settings(max_examples=150, deadline=None)
@given(dense_rows, dense_rows)
def test_remainder_is_the_back_substituted_one(rows, vectors):
    # column 0 is free and leads every vector, so each remainder is formed by
    # clearing the later pivot columns
    ech = Echelon(7)
    ech.add_rows(rows_from_dense([[0] + r for r in rows]))
    vectors = rows_from_dense([[1] + v for v in vectors])
    before = [ech.reduce(v) for v in vectors]
    ech.back_substitute()
    assert before == [ech.reduce(v) for v in vectors]


def random_dense(rng, nrows, ncols, density=0.6):
    return [[rng.randint(-2, 2) if rng.random() < density else 0
             for _ in range(ncols)] for _ in range(nrows)]


def sparse_apply(mat, vec):
    """The dense matrix mat applied to a sparse vector, as a sparse vector."""
    out = {}
    for i, row in enumerate(mat):
        acc = F.zero
        for j, v in vec.items():
            if row[j]:
                acc = acc + s(row[j]) * v
        if not acc.is_zero():
            out[i] = acc
    return out


def test_apply_slot_against_dense_kronecker(seed=31):
    rng = random.Random(seed)
    for _ in range(40):
        left, mid, right, width = (rng.randint(1, 3) for _ in range(4))
        f = random_dense(rng, width, mid)
        ncols = left * mid * right
        dense = [rng.randint(-2, 2) if rng.random() < 0.5 else 0
                 for _ in range(ncols)]
        vec = {c: s(v) for c, v in enumerate(dense) if v}
        # Id_left (x) f (x) Id_right as one dense matrix, entry by entry
        kron = [[0] * ncols for _ in range(left * width * right)]
        for l in range(left):
            for w in range(width):
                for m in range(mid):
                    for r in range(right):
                        kron[(l * width + w) * right + r][(l * mid + m) * right + r] = \
                            f[w][m]
        got = apply_slot(vec, mid, right, lambda sl: sparse_apply(f, sl), width)
        assert got == sparse_apply(kron, vec)


def constraint_oracle(basis, maps, ncols):
    """{x in span(basis) : M x = 0 for every M in maps} from kernel_basis of
    every map's rows at once, over the coordinates of basis (unit vectors
    when basis is None)."""
    if basis is None:
        rows = rows_from_dense([row for mat in maps for row in mat])
        return Subspace.from_rows(ncols, kernel_basis(rows, ncols, one=F.one))
    # the rows of M B, one constraint per row of M, on the coefficients c
    rows = []
    for mat in maps:
        cols = [sparse_apply(mat, b) for b in basis]
        rows += [{i: col[w] for i, col in enumerate(cols) if w in col}
                 for w in range(len(mat))]
    combos = kernel_basis(rows, len(basis), one=F.one)
    vecs = []
    for c in combos:
        acc = {}
        for i, coeff in c.items():
            vec_axpy(acc, coeff, basis[i])
        vecs.append(acc)
    return Subspace.from_rows(ncols, vecs)


def test_stacked_kernel_against_all_constraint_rows(seed=37):
    rng = random.Random(seed)
    for trial in range(60):
        ncols = rng.randint(1, 6)
        width = rng.randint(1, 4)
        # every third family has a single map
        maps = [random_dense(rng, rng.randint(1, width), ncols)
                for _ in range(1 if trial % 3 == 0 else rng.randint(2, 4))]
        basis = None
        if trial % 2:
            basis = [v for v in rows_from_dense(random_dense(
                rng, rng.randint(1, ncols + 1), ncols)) if v] or [{0: F.one}]
        units = [{j: F.one} for j in range(ncols)]
        given = units if basis is None else basis
        before = [dict(b) for b in given]
        # the family arrives lazily, map by map
        got = stacked_kernel(given, (partial(sparse_apply, mat) for mat in maps))
        assert Subspace.from_rows(ncols, got) == \
            constraint_oracle(basis, maps, ncols), trial
        assert given == before  # the basis itself is left as it was


def test_each_map_sees_only_the_basis_left_by_the_maps_before_it(seed=41):
    rng = random.Random(seed)
    for trial in range(40):
        ncols = rng.randint(2, 6)
        maps = [random_dense(rng, rng.randint(1, 3), ncols)
                for _ in range(rng.randint(2, 5))]
        seen = [[] for _ in maps]

        def spy(k, vec):
            seen[k].append(dict(vec))
            return sparse_apply(maps[k], vec)

        units = [{j: F.one} for j in range(ncols)]
        drawn = []
        got = stacked_kernel(units, (drawn.append(k) or partial(spy, k)
                                     for k in range(len(maps))))
        assert Subspace.from_rows(ncols, got) == constraint_oracle(None, maps, ncols)
        assert seen[0] == units
        # the maps are drawn one at a time, and none after an empty kernel
        assert len(drawn) == next((k for k in range(1, len(maps)) if
                                   constraint_oracle(None, maps[:k], ncols).dim == 0),
                                  len(maps)), trial
        for k in range(1, len(maps)):
            left = constraint_oracle(None, maps[:k], ncols)
            if left.dim == 0:
                # an empty kernel ends the loop: no later map is called
                assert seen[k] == [], (trial, k)
            else:
                # map k gets one independent vector per dimension of the
                # kernel of maps 0..k-1, and nothing else
                assert len(seen[k]) == left.dim, (trial, k)
                assert Subspace.from_rows(ncols, seen[k]) == left, (trial, k)


def reduce_mod(row, p):
    """A row over Q, mod p."""
    return {c: int(v.coeffs[0].numerator) * pow(int(v.coeffs[0].denominator), -1, p) % p
            for c, v in row.items()}


def test_kernel_mod_is_the_exact_rref_reduced_mod_p(seed=43):
    p = (1 << 30) - 35
    rng = random.Random(seed)
    for trial in range(60):
        ncols = rng.randint(1, 6)
        maps = [random_dense(rng, rng.randint(1, 4), ncols)
                for _ in range(rng.randint(1, 3))]
        columns = [[{i: row[j] % p for i, row in enumerate(mat) if row[j]}
                    for j in range(ncols)] for mat in maps]
        basis = None
        if trial % 2:
            basis = Subspace.from_rows(ncols, rows_from_dense(random_dense(
                rng, rng.randint(1, ncols + 1), ncols))).rows or [{0: F.one}]
        exact = constraint_oracle(basis, maps, ncols).rows
        got = stacked_kernel(ncols if basis is None else [reduce_mod(b, p) for b in basis],
                             [partial(matvec, cols, p=p) for cols in columns], 1, p=p)
        assert got == [reduce_mod(row, p) for row in exact], trial


@pytest.mark.parametrize("m", [1, 3, 4, 5])
def test_every_kernel_comes_back_in_rref(m, seed=59):
    """left_kernel, stacked_kernel on an int, unit or RREF basis, and
    certified_kernel return the RREF rows of the kernel, ascending by pivot;
    mod p, stacked_kernel returns those rows reduced under each embedding."""
    field = field_make(m)
    red = Reduction(field, 0)
    rng = random.Random(seed + m)

    def scalar():
        return field.scalar([rng.randint(-2, 2) for _ in range(field.degree)])

    def mod(vec, j):
        return {c: red(v)[j] for c, v in vec.items() if red(v)[j]}

    for trial in range(24):
        ncols = rng.randint(1, 6)
        maps = [[{r: v for r in range(rng.randint(1, 4)) if (v := scalar())}
                 for _ in range(ncols)] for _ in range(rng.randint(1, 3))]
        if trial % 3 == 0:
            basis = ncols
        elif trial % 3 == 1:
            basis = [{j: field.one} for j in range(ncols)]
        else:
            basis = Subspace.from_rows(ncols, [{c: v for c in range(ncols) if (v := scalar())}
                                               for _ in range(rng.randint(1, ncols))]).rows
        first = left_kernel(maps[0], field.one)
        got = stacked_kernel(basis, [partial(matvec, cols) for cols in maps], field.one)
        assert stacked_kernel(basis, maps, field.one) == got, trial  # maps by columns
        assert first == Subspace.from_rows(ncols, first).rows, trial
        assert got == Subspace.from_rows(ncols, got).rows, trial
        if basis == ncols:  # the modular route takes and gives raw coefficients
            raw = [[unboxed(col, field) for col in cols] for cols in maps]
            assert [boxed(row, field) for row in certified_kernel(raw, ncols, field)] == got, trial
        for j in range(field.degree):
            given = basis if basis == ncols else [mod(b, j) for b in basis]
            assert stacked_kernel(given, [partial(matvec, [mod(col, j) for col in cols], p=red.p)
                                          for cols in maps], 1, p=red.p) == \
                [mod(row, j) for row in got], (trial, j)


def test_one_map_family_reaches_left_kernel_unchanged():
    images = [{(0, 1): s(1)}, {(0, 1): s(-1), "x": s(2)}, {}]
    units = [{i: F.one} for i in range(len(images))]
    assert stacked_kernel(units, [partial(matvec, images)]) == \
        left_kernel(images, one=F.one)


def items(vectors):
    return [list(v.items()) for v in vectors]


def test_an_int_basis_is_the_unit_basis_without_copies(seed=47):
    rng = random.Random(seed)
    for trial in range(40):
        ncols = rng.randint(1, 6)
        maps = [random_dense(rng, rng.randint(1, 3), ncols)
                for _ in range(rng.randint(1, 3))]
        if trial % 5 == 0:
            maps[0] = [[0] * ncols]  # a first map that sends every vector to 0
        units = [{j: F.one} for j in range(ncols)]
        family = [partial(sparse_apply, mat) for mat in maps]
        got = stacked_kernel(ncols, family, F.one)
        # the same vectors, entry for entry and in the same order
        assert items(got) == items(stacked_kernel(units, family)), trial
    images = [{(0, 1): s(1)}, {(0, 1): s(-1), "x": s(2)}, {}, {"x": s(3)}]
    kernel = left_kernel(images)
    assert items(stacked_kernel(len(images), [partial(matvec, images)], F.one)) == \
        items(kernel)
    assert stacked_kernel(3, [lambda vec: {}], F.one) == [{0: F.one}, {1: F.one}, {2: F.one}]
    assert stacked_kernel(0, [partial(matvec, images)], F.one) == []
    assert stacked_kernel([], (pytest.fail("a map was drawn") for _ in range(1))) == []


def test_back_substitute_from_a_column_reduces_only_the_rows_from_it(seed=53):
    rng = random.Random(seed)
    for _ in range(20):
        ncols = 9
        rows = rows_from_dense([[rng.choice((0, 0, 1, -1, 2, Q(1, 2))) for _ in range(ncols)]
                                for _ in range(7)])
        start = rng.randrange(ncols)
        partial_ech, full = Echelon(ncols), Echelon(ncols)

        def assert_reduced_from_start():
            partial_ech.back_substitute(start)
            reduced = dict(zip(full.pivots, full.rows()))
            pivots = partial_ech.pivots
            rows = partial_ech.rows(start)
            assert [min(row) for row in rows] == [c for c in pivots if c >= start]
            for row in rows:
                pcol = min(row)
                assert row == reduced[pcol]
                assert all(c == pcol or c not in pivots for c in row)

        partial_ech.add_rows(rows[:-1])
        full.add_rows(rows[:-1])
        assert_reduced_from_start()
        # a later add leaves the rows unreduced again, and the next call
        # reduces them against the new pivot too
        partial_ech.add(rows[-1])
        full.add(rows[-1])
        assert_reduced_from_start()
        assert partial_ech.rows() == full.rows()


RAW_ORDERS = (1, 3, 4, 5, 6)  # Q, the three fields of degree 2 (c1 = 1, 0, -1), degree 4
RAW_COEFFS = (0, 0, 0, 1, -1, 2, -3, 5, Q(1, 2), Q(-2, 3))


def typed(vec: dict) -> dict:
    """A vector's coefficients with the type of each: int or rational."""
    return {c: (v.coeffs, tuple(type(x).__name__ for x in v.coeffs)) for c, v in vec.items()}


@st.composite
def echelon_inputs(draw):
    m = draw(st.sampled_from(RAW_ORDERS))
    f = field_make(m)
    ncols = draw(st.integers(1, 7))
    scalar = st.lists(st.sampled_from(RAW_COEFFS), min_size=f.degree,
                      max_size=f.degree).map(f.scalar)
    vector = st.dictionaries(st.integers(0, ncols - 1), scalar, max_size=ncols).map(
        lambda vec: {c: s for c, s in vec.items() if s})
    return (ncols, draw(st.lists(vector, max_size=6)), draw(st.lists(vector, max_size=4)),
            draw(st.integers(0, ncols)))


def assert_primitive(ech):
    """Every raw pivot row over Q or a field of degree 2 holds ints (or pairs
    of ints) without a common factor, and leads with a positive integer."""
    for pcol, row in ech.pivot_rows.items():
        values = list(row.values())
        if values[0].__class__ is tuple:  # degree 2: coefficient pairs
            assert row[pcol][1] == 0
            lead, values = row[pcol][0], [x for pair in values for x in pair]
        elif values[0].__class__ is int:
            lead = row[pcol]
        else:
            continue  # degree 4: scalars scaled to lead 1
        assert all(x.__class__ is int for x in values)
        assert lead > 0 and gcd(*values) == 1


# before the reference comparison: a pivot row that breaks these invariants
# fails here as soon as it is inserted, before a row is eliminated against it
@settings(max_examples=150, deadline=None)
@given(echelon_inputs())
def test_raw_pivot_rows_are_primitive_with_a_positive_integer_lead(inputs):
    ncols, rows, _, start = inputs
    ech = Echelon(ncols)
    for row in rows:
        ech.add(row)
        assert_primitive(ech)
    ech.back_substitute(start)
    assert_primitive(ech)
    ech.back_substitute()
    assert_primitive(ech)


@settings(max_examples=300, deadline=None)
@given(echelon_inputs())
def test_raw_echelon_matches_the_lead_one_reference(inputs):
    ncols, rows, vectors, start = inputs
    raw, ref = Echelon(ncols), LeadOneEchelon(ncols)
    assert [raw.add(r) for r in rows] == [ref.add(r) for r in rows]
    assert raw.rank == ref.rank
    assert [typed(raw.reduce(v)) for v in vectors] == [typed(ref.reduce(v)) for v in vectors]
    # a partial back-substitution, then the remainders again and every row
    assert [typed(r) for r in raw.rows(start)] == [typed(r) for r in ref.rows(start)]
    assert [typed(raw.reduce(v)) for v in vectors] == [typed(ref.reduce(v)) for v in vectors]
    assert [typed(r) for r in raw.rows()] == [typed(r) for r in ref.rows()]
    # a remainder that leads before add_below joins the rows
    for v in vectors:
        expected = ref.reduce(v)
        if expected and min(expected) < start:
            ref.add(expected)
            expected = {}
        assert typed(raw.reduce(v, add_below=start)) == typed(expected)
    assert raw.rank == ref.rank
    assert [typed(r) for r in raw.rows()] == [typed(r) for r in ref.rows()]
