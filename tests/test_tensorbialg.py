import itertools
import random
import time
from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from braidcalc import linalg, tensorbialg
from braidcalc.errors import DegreeBudgetExceeded, InternalCheckError
from braidcalc.fixtures import CATALOG
from braidcalc.linalg import Subspace, boxed, unboxed
from braidcalc.scalars import Reduction, field_make
from braidcalc.spaces import (
    BraidedSpace,
    make_braiding,
    make_preset,
    matsumoto_lift,
    word_index,
)
from braidcalc.tensorbialg import (
    delta_columns,
    has_primitives,
    nichols_dims,
    primitive_space,
)
from braidcalc.tower import is_quadratic
from oracles import (
    apply_generator_entrywise,
    boxed_delta,
    kernel_basis,
    is_quadratic_by_closure,
    nichols_dims_dn,
    perm_inverse,
    q_factorial,
    q_int,
    rank_of_rows,
    shuffles,
    subspace_intersection,
    symmetrizer,
    symmetrizer_direct,
    symmetrizer_factorization_check,
    symmetrizer_rank,
)

F1 = field_make(1)
F3 = field_make(3)
F4 = field_make(4)


def rack_space(d, act, budget):
    """The rack braiding c(x_i (x) x_j) = -x_(i |> j) (x) x_i, cocycle -1."""
    minus = -F1.one
    pairs = {(i, j): (((act(i, j), i), minus),) for i in range(d) for j in range(d)}
    return BraidedSpace(F1, d, pairs, "rack", degree_budget=budget)


def vec(space, coeffs):
    out = {}
    for letters, c in coeffs.items():
        out[word_index(letters, space.dim)] = space.field.from_rational(c)
    return out


def compose_split(space, outer_cols, inner_cols, w, inner_on_left, dim_split):
    """Apply outer then refine one tensor leg with inner, for coassociativity."""
    acc = {}
    for u, s in outer_cols[w].items():
        hi, lo = divmod(u, dim_split)
        if inner_on_left:
            for r, t in inner_cols[hi].items():
                key = r * dim_split + lo
                cur = acc.get(key, space.field.zero) + s * t
                if cur.is_zero():
                    acc.pop(key, None)
                else:
                    acc[key] = cur
        else:
            for r, t in inner_cols[lo].items():
                key = hi * dim_split + r
                cur = acc.get(key, space.field.zero) + s * t
                if cur.is_zero():
                    acc.pop(key, None)
                else:
                    acc[key] = cur
    return acc


def test_delta_examples():
    fl = make_braiding("flip", {"d": 2}, F1)
    cols = boxed_delta(fl, 1, 1)
    assert cols[word_index((0, 1), 2)] == vec(fl, {(0, 1): 1, (1, 0): 1})
    # scalar braiding, d = 1: Delta^{1,1}(x (x) x) = (1 + q) x (x) x
    sc = make_braiding("scalar", {"d": 1, "q": 3}, F1)
    assert boxed_delta(sc, 1, 1)[0] == {0: F1.from_rational(4)}
    # Delta^{0,n} is the identity reindexing
    gu = make_preset("gurevich", F1)
    cols = boxed_delta(gu, 0, 3)
    assert all(cols[w] == {w: F1.one} for w in range(27))


def shuffle_sum_columns(space, a, b):
    """Delta^(a,b) as the sum of the lifts of the inverse (a, b)-shuffles."""
    n = a + b
    lifts = [matsumoto_lift(perm_inverse(sigma)).letters
             for sigma, _length in shuffles(a, b)]
    cols = []
    for w in range(space.power(n)):
        acc = {}
        for letters in lifts:
            for r, val in space.apply_word(n, letters, {w: space.field.one}).items():
                acc[r] = acc[r] + val if r in acc else val
        cols.append({r: v for r, v in acc.items() if not v.is_zero()})
    return cols


def test_delta_recursion_matches_shuffle_sum():
    for space in (make_braiding("flip", {"d": 2}, F1),
                  make_braiding("scalar", {"d": 2, "q": F4.gen}, F4),
                  make_preset("cartan_An", F3, n=2, t=3),
                  make_preset("d4_rack", F1),
                  make_preset("gurevich", F1),
                  make_preset("hecke_gl", F1, d=2)):
        for n in range(6):
            for a in range(n + 1):
                assert boxed_delta(space, a, n - a) == \
                    shuffle_sum_columns(space, a, n - a), (space.kind, a, n - a)


def test_coassociativity():
    for space in (make_braiding("flip", {"d": 2}, F1),
                  make_preset("gurevich", F1),
                  make_preset("d4_rack", F1),
                  make_braiding("scalar", {"d": 2, "q": F4.gen}, F4)):
        for (a, b, c) in ((1, 1, 1), (2, 1, 1), (1, 2, 1), (1, 1, 2)):
            n = a + b + c
            if space.power(n) > 300:
                continue
            left = compose_split(
                space, boxed_delta(space, a + b, c), boxed_delta(space, a, b),
                0, True, space.power(c))
            for w in range(space.power(n)):
                lhs = compose_split(
                    space, boxed_delta(space, a + b, c),
                    boxed_delta(space, a, b), w, True, space.power(c))
                rhs = compose_split(
                    space, boxed_delta(space, a, b + c),
                    boxed_delta(space, b, c), w, False, space.power(b + c))
                assert lhs == rhs, (space.kind, a, b, c, w)
        del left


def test_gamma_examples():
    fl = make_braiding("flip", {"d": 2}, F1)
    g2 = symmetrizer(fl, 2)
    for w in range(4):
        expected = {w: F1.one}
        img = fl.apply_word(2, (1,), {w: F1.one})
        for c, v in img.items():
            cur = expected.get(c, F1.zero) + v
            if cur.is_zero():
                expected.pop(c, None)
            else:
                expected[c] = cur
        assert g2[w] == expected
    # scalar braiding: Gamma_n = (n)_q! Id
    q = F1.from_rational(3)
    sc = make_braiding("scalar", {"d": 2, "q": 3}, F1)
    for n in (2, 3, 4):
        fact = q_factorial(n, q)
        cols = symmetrizer(sc, n)
        assert all(cols[w] == {w: fact} for w in range(sc.power(n)))


def test_gamma_block_for_scalar_is_qint():
    # with m (c - q Id) = 0 the (n,1) block acts as (n+1)_q
    q = F4.gen
    sc = make_braiding("scalar", {"d": 2, "q": q}, F4)
    for n in (1, 2, 3):
        block = boxed_delta(sc, n, 1)
        # the block symmetrizer is concatenation after the coproduct component;
        # for the scalar braiding every shuffle lift scales by q^length
        coeff = q_int(n + 1, q)
        for w in range(sc.power(n + 1)):
            if coeff.is_zero():
                assert block[w] == {}
            else:
                assert block[w] == {w: coeff}


def test_direct_symmetrizer_oracle():
    for space in (make_braiding("flip", {"d": 2}, F1),
                  make_preset("gurevich", F1),
                  make_preset("d4_rack", F1)):
        for n in (2, 3):
            rec = symmetrizer(space, n)
            direct = symmetrizer_direct(space, n)
            assert all(a == b for a, b in zip(rec, direct))


def test_gamma_factorization():
    fl = make_braiding("flip", {"d": 2}, F1)
    assert symmetrizer_factorization_check(fl, 1, 1)
    assert symmetrizer_factorization_check(fl, 0, 3)
    d4 = make_preset("d4_rack", F1)
    assert symmetrizer_factorization_check(d4, 2, 1)
    assert symmetrizer_factorization_check(d4, 2, 2)
    gu = make_preset("gurevich", F1)
    assert symmetrizer_factorization_check(gu, 1, 2)


def test_primitives_flip_free_lie_dims():
    fl = make_braiding("flip", {"d": 2}, F1)
    assert [primitive_space(fl, n).dim for n in (2, 3, 4, 5)] == [1, 2, 3, 6]
    assert primitive_space(fl, 2).rows[0] == vec(fl, {(0, 1): 1, (1, 0): -1})


def test_primitives_gurevich_basis():
    gu = make_preset("gurevich", F1)
    e2 = primitive_space(gu, 2)
    assert e2.dim == 3
    # the span of the three listed generators with m = -2
    gens = [
        vec(gu, {(1, 0): 1, (0, 1): -1}),
        vec(gu, {(2, 0): 1, (0, 2): -1}),
        vec(gu, {(2, 1): 1, (1, 2): 2}),
    ]
    assert Subspace.from_rows(9, gens) == e2


def test_primitives_d4():
    d4 = make_preset("d4_rack", F1)
    assert primitive_space(d4, 2).dim == 8
    e3 = primitive_space(d4, 3)
    assert e3.dim == 12
    # the seven elements listed for this example are primitive
    one = F1.one

    def w(*ls):
        return word_index(ls, 4)

    u7 = [
        {w(1, 1, 3): one, w(3, 1, 1): -one},
        {w(1, 3, 3): one, w(3, 3, 1): -one},
        {w(2, 2, 0): one, w(0, 2, 2): -one},
        {w(2, 0, 0): one, w(0, 0, 2): -one},
        {w(1, 0, 2): one, w(1, 2, 0): one, w(0, 2, 1): -one, w(2, 0, 1): -one},
        {w(3, 0, 2): one, w(3, 2, 0): one, w(0, 2, 3): -one, w(2, 0, 3): -one},
        {w(2, 1, 3): one, w(2, 3, 1): one, w(1, 3, 2): -one, w(3, 1, 2): -one},
    ]
    for u in u7:
        assert e3.contains(u)
    # degree 4, checked from the braiding alone: each x_i x_i is killed by
    # Delta_{1,1} = 1 + c, and c^2 fixes x_i x_i (x) x_j x_j, so the braided
    # commutator x_i x_i x_j x_j - x_j x_j x_i x_i is a degree-4 primitive
    for i in range(4):
        assert d4.apply_word(2, (1,), {w(i, i): one}) == {w(i, i): -one}
    for i, j in ((0, 2), (1, 3), (0, 1)):
        there = d4.braiding_block_apply(2, 2, {w(i, i, j, j): one})
        assert there == {w(j, j, i, i): one}
        assert d4.braiding_block_apply(2, 2, there) == {w(i, i, j, j): one}


def test_e2_is_kernel_of_one_plus_braiding():
    for space in (make_preset("d4_rack", F1), make_preset("gurevich", F1)):
        e2 = primitive_space(space, 2)
        for row in e2.rows:
            img = space.apply_word(2, (1,), row)
            total = dict(row)
            for c, v in img.items():
                cur = total.get(c, space.field.zero) + v
                if cur.is_zero():
                    total.pop(c, None)
                else:
                    total[c] = cur
            assert not total


def test_nichols_dims_examples():
    fl = make_braiding("flip", {"d": 2}, F1)
    assert nichols_dims(fl, 4) == [1, 2, 3, 4, 5]
    scz = make_braiding("scalar", {"d": 2, "q": F4.gen}, F4)
    assert nichols_dims(scz, 6) == [1, 2, 4, 8, 0, 0, 0]
    # quantum linear with both heights 2: Hilbert series (1 + x)^2
    F2 = field_make(2)
    ql = make_braiding(
        "diagonal", {"q": [[-1, 2], [F2.from_fraction(1, 2), -1]]}, F2)
    assert nichols_dims(ql, 3) == [1, 2, 1, 0]


def test_nichols_dims_oracle_direct_rank():
    d4 = make_preset("d4_rack", F1)
    dims = nichols_dims(d4, 4)
    assert dims == [1, 4, 8, 12, 14]
    # independent rank from the direct symmetrizer
    direct = symmetrizer_direct(d4, 3)
    assert rank_of_rows((c for c in direct if c), 64) == dims[3]


def _nichols_test_spaces():
    z = F4.gen
    return [
        make_braiding("flip", {"d": 2}, F1),
        make_braiding("scalar", {"d": 2, "q": z}, F4),
        make_preset("cartan_An", F3),
        make_preset("d4_rack", F1),
        make_preset("gurevich", F1),
        make_preset("hecke_gl", F1),
        make_preset("quantum_linear", F4,
                    q=[[z, 2], [F4.from_fraction(1, 2), -1]]),
    ]


def test_nichols_dims_equal_symmetrizer_ranks():
    for space in _nichols_test_spaces():
        top = 4 if space.dim >= 4 else 5
        assert nichols_dims(space, top) == \
            [symmetrizer_rank(space, n) for n in range(top + 1)], space.kind


def test_nichols_dims_equal_direct_symmetrizer_ranks():
    for space in _nichols_test_spaces():
        direct = [rank_of_rows((c for c in symmetrizer_direct(space, n) if c),
                               space.power(n)) for n in range(5)]
        assert nichols_dims(space, 4) == direct, space.kind


def test_nichols_dims_d4_rack_hilbert_series():
    # Hilbert series of B(d4_rack): (1 + t)^4 (1 + t^2)^2, top degree 8
    series = [1]
    for factor in [[1, 1]] * 4 + [[1, 0, 1]] * 2:
        out = [0] * (len(series) + len(factor) - 1)
        for i, a in enumerate(series):
            for j, b in enumerate(factor):
                out[i + j] += a * b
        series = out
    assert series == [1, 4, 8, 12, 14, 12, 8, 4, 1]
    d4 = make_preset("d4_rack", F1, degree_budget=8)
    assert nichols_dims(d4, 8) == series


def test_nichols_dims_build_no_coproduct_columns(monkeypatch):
    import braidcalc.tensorbialg as tb

    calls = []
    build = tb.delta_columns

    def counted(*args, **kwargs):
        calls.append(args)
        return build(*args, **kwargs)

    monkeypatch.setattr(tb, "delta_columns", counted)
    d4 = make_preset("d4_rack", F1)
    assert nichols_dims(d4, 6) == [1, 4, 8, 12, 14, 12, 8]
    assert calls == []


def test_has_primitives_builds_columns_only_for_the_blocks_it_solves(monkeypatch):
    # E_5 is the direct sum of the block kernels, so each row of its RREF
    # leads in the block it lies in: the first block with a row is the first
    # nonzero block kernel, the last block has_primitives solves
    blocks = tensorbialg._pair_blocks(make_preset("gurevich", F1), 5)
    owner = {w: k for k, block in enumerate(blocks) for w in block}
    last = min(owner[min(row)] for row in primitive_space(make_preset("gurevich", F1), 5).rows)
    lists, matrices, solved = [], [], set()
    build = tensorbialg.delta_columns
    block_matrix = BraidedSpace.braiding_block_matrix
    columns = tensorbialg._delta_block

    def counted_lists(space, a, b):
        lists.append(a + b)
        return build(space, a, b)

    def counted_matrices(space, p):
        matrices.append(p + 1)
        return block_matrix(space, p)

    def counted_columns(space, a, b, words, block):
        if a + b == 5:
            solved.update(words)
        return columns(space, a, b, words, block)

    monkeypatch.setattr(tensorbialg, "delta_columns", counted_lists)
    monkeypatch.setattr(BraidedSpace, "braiding_block_matrix", counted_matrices)
    monkeypatch.setattr(tensorbialg, "_delta_block", counted_columns)
    assert has_primitives(make_preset("gurevich", F1), 5)
    assert lists and 5 not in lists
    assert matrices and 5 not in matrices
    assert solved == set().union(*blocks[:last + 1])
    assert len(solved) < len(owner) // 10


def test_has_primitives_proves_zero_blocks_modulo_a_prime(monkeypatch):
    # hecke_gl d = 3, q = 2 has E_5 = 0, and every block kernel is already
    # empty modulo the first prime: no block is solved exactly
    seen = route_spy(monkeypatch)
    hecke = make_preset("hecke_gl", F1, d=3, q=2, degree_budget=5)
    assert not has_primitives(hecke, 5)
    assert seen and set(seen) == {Reduction(F1, 0).p}
    # a nonzero block is proved by its certified rows, with no exact solve
    assert has_primitives(make_preset("gurevich", F1), 3) and "exact" not in seen


def test_nichols_dims_fill_zeros_above_the_top_degree():
    d3 = rack_space(3, lambda i, j: (2 * i - j) % 3, budget=8)
    assert nichols_dims(d3, 8) == [1, 3, 4, 3, 1, 0, 0, 0, 0]
    # B is generated in degree 1: nothing above the first zero is computed
    assert len(d3._memo["nichols"][0]) == 6


def test_nichols_dims_check_the_hilbert_series_is_palindromic(monkeypatch):
    import braidcalc.tensorbialg as tb

    levels = tb._nichols_levels

    def one_rank_too_many(space, n):
        out = list(levels(space, n))
        if n == 3:
            out[3] += 1
        return out

    d4 = make_preset("d4_rack", F1, degree_budget=9)
    monkeypatch.setattr(tb, "_nichols_levels", one_rank_too_many)
    with pytest.raises(InternalCheckError, match="palindromic"):
        nichols_dims(d4, 9)
    # below the first zero nothing is known about the series, so no check
    assert nichols_dims(d4, 6)[3] == 13


def test_nichols_dims_skip_the_palindrome_check_without_rigidity():
    # c = q Id with q of order 4 is not rigid for d = 2 (c^flat has rank 1):
    # B = k + V + V^2 + V^3, finite and not palindromic
    scz = make_braiding("scalar", {"d": 2, "q": F4.gen}, F4)
    assert nichols_dims(scz, 5) == [1, 2, 4, 8, 0, 0]
    one = make_braiding("scalar", {"d": 1, "q": F4.gen}, F4)
    assert nichols_dims(one, 5) == [1, 1, 1, 1, 0, 0]


def test_delta_multiplicativity_spot_check(seed=17):
    # Delta^{a,b} of a concatenation agrees with the multiplicative rule,
    # checked through the braided product on T (x) T for random words
    rng = random.Random(seed)
    gu = make_preset("gurevich", F1)
    one = F1.one
    for _ in range(10):
        n = rng.randint(2, 4)
        word = tuple(rng.randrange(3) for _ in range(n))
        acc = {(0, 0): {0: one}}
        for letter in word:
            term = {(1, 0): {letter: one}, (0, 1): {letter: one}}
            out = {}
            for (p, q), xv in acc.items():
                for (r, s), yv in term.items():
                    for cx, vx in xv.items():
                        ax, bx = divmod(cx, gu.power(q))
                        for cy, vy in yv.items():
                            ay, by = divmod(cy, gu.power(s))
                            mid = gu.braiding_block_apply(
                                q, r, {bx * gu.power(r) + ay: vx * vy})
                            for cm, vm in mid.items():
                                a2, b2 = divmod(cm, gu.power(q))
                                left = ax * gu.power(r) + a2
                                right = b2 * gu.power(s) + by
                                key = (p + r, q + s)
                                tgt = left * gu.power(q + s) + right
                                dd = out.setdefault(key, {})
                                cur = dd.get(tgt, F1.zero) + vm
                                if cur.is_zero():
                                    dd.pop(tgt, None)
                                else:
                                    dd[tgt] = cur
            acc = {k: v for k, v in out.items() if v}
        for a in range(1, n):
            expected = acc.get((a, n - a), {})
            got = boxed_delta(gu, a, n - a)[word_index(word, 3)]
            assert got == expected


def test_budget_guard():
    fl = make_braiding("flip", {"d": 2}, F1, degree_budget=3)
    with pytest.raises(DegreeBudgetExceeded):
        delta_columns(fl, 2, 2)
    with pytest.raises(DegreeBudgetExceeded):
        nichols_dims(fl, 4)


def _component_kernel(space, a, n):
    """ker Delta^(a, n-a) from its constraint rows, the transposed columns."""
    rows = {}
    for word, col in enumerate(boxed_delta(space, a, n - a)):
        for r, val in col.items():
            rows.setdefault(r, {})[word] = val
    size = space.power(n)
    return Subspace.from_rows(
        size, kernel_basis(rows.values(), size, one=space.field.one))


def test_primitive_space_is_the_intersection_of_component_kernels():
    for space in (make_braiding("flip", {"d": 2}, F1),
                  make_preset("d4_rack", F1),
                  make_preset("gurevich", F1),
                  make_preset("cartan_An", F3, n=2, t=3)):
        for n in range(2, 5):
            expected = _component_kernel(space, 1, n)
            for a in range(2, n):
                expected = subspace_intersection(expected, _component_kernel(space, a, n))
            assert primitive_space(space, n) == expected, (space.kind, n)


ROOT_ORDERS = (1, 2, 3, 4, 6)


# q_12 = 2^40 + 1 puts -(2^40 + 1) into E_2 and -(2^40 + 1)^2 into E_3, past
# one prime's reconstruction bound; q_12 = 1/3 puts denominators 3 and 9
RATIONAL_MARKS = (2 ** 40 + 1, Fraction(1, 3))


@st.composite
def property_spaces(draw):
    """A diagonal braiding with root-of-unity entries (d <= 3), or over Q with
    q_11 = -1 and q_12 = 1/q_21 from RATIONAL_MARKS; d4_rack; or hecke_gl
    with a root of unity or a small integer as its mark."""
    kind = draw(st.sampled_from(("diagonal", "d4_rack", "hecke_gl", "rational")))
    if kind == "d4_rack":
        return make_preset("d4_rack", F1)
    if kind == "rational":
        return rational_space(draw(st.sampled_from(RATIONAL_MARKS)),
                              draw(st.sampled_from((-1, 1))))
    field = field_make(draw(st.sampled_from(ROOT_ORDERS)))
    if kind == "hecke_gl":
        q = draw(st.one_of(st.integers(0, field.order - 1).map(field.gen.__pow__),
                           st.sampled_from((2, 3, -2))))
        return make_preset("hecke_gl", field, d=2, q=q)
    d = draw(st.integers(1, 3))
    exps = draw(st.lists(st.integers(0, field.order - 1),
                         min_size=d * d, max_size=d * d))
    q = [[field.gen ** exps[i * d + j] for j in range(d)] for i in range(d)]
    return make_braiding("diagonal", {"q": q}, field)


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(property_spaces(), st.data())
def test_apply_generator_matches_the_entrywise_oracle(space, data):
    n = data.draw(st.integers(2, 4))
    field, size = space.field, space.power(n)
    words = data.draw(st.lists(st.integers(0, size - 1), min_size=1, max_size=8, unique=True))
    marks = st.sampled_from((1, -2, Fraction(1, 3)))
    vec = {w: field.gen ** data.draw(st.integers(0, 5)) * data.draw(marks) for w in words}
    for i in range(1, n):
        for inverse in (False, True):
            got = space.apply_generator(n, i, vec, inverse)
            expected = apply_generator_entrywise(space, n, i, vec, inverse)
            assert {k: v.coeffs for k, v in got.items()} == \
                {k: v.coeffs for k, v in expected.items()}, (space.kind, n, i, inverse)
            back = space.apply_generator(n, i, got, not inverse)
            assert {k: v.coeffs for k, v in back.items()} == \
                {k: v.coeffs for k, v in vec.items()}


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(property_spaces())
def test_has_primitives_decides_the_primitive_space(space):
    for n in range(2, 6):
        fresh = has_primitives(space, n)
        nonzero = primitive_space(space, n).dim > 0
        # the second call reads the memoized E_n
        assert fresh == nonzero == has_primitives(space, n), (space.kind, n)
    if space.kind == "diagonal":
        d, one = space.dim, space.field.one
        q = [[space.pairs[i, j][0][1] for j in range(d)] for i in range(d)]
        expected = sum(q[i][i] == -one for i in range(d)) + \
            sum(q[i][j] * q[j][i] == one
                for i in range(d) for j in range(i + 1, d))
        assert primitive_space(space, 2).dim == expected


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(property_spaces())
def test_pair_blocks_hold_the_support_of_every_column(space):
    for n in range(2, 6):
        blocks = tensorbialg._pair_blocks(space, n)
        owner = {w: k for k, block in enumerate(blocks) for w in block}
        assert sorted(owner) == list(range(space.power(n)))
        assert [len(block) for block in blocks] == sorted(map(len, blocks))
        for a in range(1, n):
            for w, col in enumerate(delta_columns(space, a, n - a)):
                assert {owner[r] for r in col} <= {owner[w]}, (space.kind, n, a, w)


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(property_spaces())
def test_columns_word_by_word_match_the_delta_lists(space):
    # the block braiding applied by its braid word to each unit vector, as
    # has_primitives does for the component it cannot read from degree n-1
    one = space.field.raw_one
    for n in range(2, 6):
        for a in range(1, n):
            braid = {r: space.braiding_block_apply(n - a, 1, {r: one})
                     for r in range(space.power(n - a + 1))}
            cols = delta_columns(space, a, n - a)
            assert [tensorbialg._delta_block(space, a, n - a, [w], braid)[0]
                    for w in range(len(cols))] == cols, (space.kind, n, a)


def common_kernel(space, n):
    """E_n by the oracle: every component's constraint rows in one system."""
    rows = {}
    for a in range(1, n):
        for word, col in enumerate(boxed_delta(space, a, n - a)):
            for r, val in col.items():
                rows.setdefault((a, r), {})[word] = val
    size = space.power(n)
    return Subspace.from_rows(
        size, kernel_basis(rows.values(), size, one=space.field.one))


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(property_spaces())
def test_primitive_space_is_the_common_kernel_of_all_components(space):
    for n in range(2, 5):
        assert primitive_space(space, n) == common_kernel(space, n), (space.kind, n)


# -- the modular route: primes, lifts, certificate and fallback -----------------

def rational_space(mark, q22=-1):
    q = [[-1, mark], [1 / Fraction(mark), q22]]
    return make_braiding("diagonal", {"q": [[F1.from_rational(c) for c in row]
                                            for row in q]}, F1)


def route_spy(monkeypatch):
    """The modulus of every kernel `linalg` and `tensorbialg` solve, in order:
    the prime of each modular one, and "exact" for each one of the exact
    route.  A call of `stacked_kernel` counts once its first map arrives, so
    a prime that fails to reduce the first map solves nothing."""
    seen = []
    stacked_kernel = linalg.stacked_kernel

    def spy(basis, maps, *args, p=None, **kwargs):
        def arriving():
            for k, f in enumerate(maps):
                if not k:
                    seen.append("exact" if p is None else p)
                yield f
        return stacked_kernel(basis, arriving(), *args, p=p, **kwargs)

    monkeypatch.setattr(linalg, "stacked_kernel", spy)
    monkeypatch.setattr(tensorbialg, "stacked_kernel", spy)
    return seen


def corrupt_lift(lift):
    """rational_lift with every value other than 0 and 1 tripled."""
    def corrupt(u, modulus):
        value = lift(u, modulus)
        return value if value in (None, 0, 1) else 3 * value
    return corrupt


def certified_primitives(space, n):
    """E_n by `linalg.certified_kernel` on the coproduct components, which
    `primitive_space` passes to the route rule in this order (on T(V) every
    component has d^n constraint rows), whichever route the rule picks."""
    size = space.power(n)
    return Subspace(size, [boxed(row, space.field) for row in linalg.certified_kernel(
        [delta_columns(space, a, n - a) for a in range(1, n)], size, space.field)])


def test_modular_route_lifts_past_one_prime_by_crt(monkeypatch):
    space = rational_space(2 ** 40 + 1)
    seen = route_spy(monkeypatch)
    big = F1.from_rational(-(2 ** 40 + 1))
    for n, coeff in ((2, big), (3, -big * big)):
        seen.clear()
        e_n = certified_primitives(space, n)
        assert e_n == common_kernel(space, n)
        assert any(coeff in row.values() for row in e_n.rows)
        assert "exact" not in seen and len(set(seen)) > 1, n


def test_modular_route_skips_a_prime_that_divides_a_denominator(monkeypatch):
    first, second = Reduction(F1, 0).p, Reduction(F1, 1).p
    space = rational_space(Fraction(1, first))
    assert Reduction(F1, 0)(space.pairs[0, 1][0][1]) is None
    seen = route_spy(monkeypatch)
    for n in (2, 3):
        assert certified_primitives(space, n) == common_kernel(space, n)
    assert first not in seen and second in seen and "exact" not in seen


def test_modular_route_adds_primes_until_the_lift_is_certified(monkeypatch):
    # entries up to (2^40 + 1)^4 need more than five 30-bit primes to lift
    space = rational_space(2 ** 40 + 1)
    seen = route_spy(monkeypatch)
    assert certified_primitives(space, 4) == common_kernel(space, 4)
    assert "exact" not in seen and len(set(seen)) > 5


def test_modular_route_stops_after_its_last_prime(monkeypatch):
    # a lift that never settles, as a fault in the CRT step would make it:
    # past MAX_PRIMES primes the exact route gives the rows, within seconds
    space = make_preset("gurevich", F1)
    expected = [common_kernel(space, n) for n in (2, 3)]
    primes, reduction = [], linalg.Reduction

    def counted(field, index):
        primes.append(index)
        assert len(primes) <= 4 * linalg.MAX_PRIMES, "the modular route does not stop"
        return reduction(field, index)

    monkeypatch.setattr(linalg, "Reduction", counted)
    monkeypatch.setattr(linalg, "rational_lift", lambda u, modulus: None)
    seen = route_spy(monkeypatch)
    start = time.perf_counter()
    for n, e_n in zip((2, 3), expected):
        primes.clear()
        seen.clear()
        assert e_n.dim and certified_primitives(space, n) == e_n
        assert len(primes) == linalg.MAX_PRIMES and seen[-1] == "exact", n
    assert time.perf_counter() - start < 5


def test_modular_route_falls_back_to_the_exact_route(monkeypatch):
    expected = [primitive_space(make_preset("d4_rack", F1), n) for n in (3, 4)]
    space = make_preset("d4_rack", F1)
    monkeypatch.setattr(linalg, "rational_lift", corrupt_lift(linalg.rational_lift))
    seen = route_spy(monkeypatch)
    for n, e_n in zip((3, 4), expected):
        seen.clear()
        assert e_n.dim and certified_primitives(space, n) == e_n
        # the same wrong lift on two primes in a row ends the modular route
        assert seen[-1] == "exact" and seen.count("exact") == 1, n
        assert len(set(seen) - {"exact"}) == 2, n


def test_certificate_rejects_a_corrupted_lift(monkeypatch):
    space, n = make_preset("gurevich", F1), 3
    maps = [delta_columns(space, a, n - a) for a in range(1, n)]
    rows = [unboxed(row, F1) for row in common_kernel(space, n).rows]
    assert linalg._annihilated(maps, rows, F1)
    col, val = next((c, v) for c, v in rows[0].items() if v != 1)
    rows[0][col] = val + val
    assert not linalg._annihilated(maps, rows, F1)

    # end to end: the first non-unit coefficient lifted is tripled once; the
    # certificate rejects that lift and the next prime's lift passes it
    lift, corrupted = linalg.rational_lift, []

    def corrupt_once(u, modulus):
        value = lift(u, modulus)
        if value is not None and value not in (0, 1) and not corrupted:
            corrupted.append(value)
            return 3 * value
        return value

    # E_2, which the degree-3 solve reads for its pivots, before the spies
    fresh = make_preset("gurevich", F1)
    primitive_space(fresh, 2)
    verdicts, annihilated = [], linalg._annihilated
    monkeypatch.setattr(linalg, "rational_lift", corrupt_once)
    monkeypatch.setattr(linalg, "_annihilated",
                        lambda *args: verdicts.append(annihilated(*args)) or verdicts[-1])
    seen = route_spy(monkeypatch)
    assert primitive_space(fresh, n) == common_kernel(space, n)
    assert corrupted and verdicts == [False, True] and "exact" not in seen


# -- literature dimensions of finite-dimensional Nichols algebras ---------------

def series_product(factors):
    """Coefficients of a product of polynomials given as coefficient lists."""
    def mul(a, b):
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] += x * y
        return out
    return reduce(mul, factors, [1])


def q_number(n, step=1):
    """[n]_(t^step) = 1 + t^step + ... + t^((n - 1) step), as coefficients."""
    return [int(k % step == 0) for k in range((n - 1) * step + 1)]


def f4_times_omega(a):
    """a * omega in F_4 = F_2[omega], a = a0 + a1 omega encoded as a0 + 2 a1."""
    lo, hi = a & 1, a >> 1
    return hi | ((lo ^ hi) << 1)


def tetrahedron(i, j):
    """Aff(F_4, omega): i |> j = omega j + (1 - omega) i, and 1 - omega = omega^2."""
    return f4_times_omega(j) ^ f4_times_omega(f4_times_omega(i))


TRANSPOSITIONS = list(itertools.combinations(range(4), 2))


def conjugate(s, t):
    """s |> t = s t s^-1 on the transpositions of S_4."""
    a, b = TRANSPOSITIONS[s]
    swap = {a: b, b: a}
    image = sorted(swap.get(k, k) for k in TRANSPOSITIONS[t])
    return TRANSPOSITIONS.index(tuple(image))


def assert_finite_nichols(space, series, budget_s):
    """B(V) has exactly this Hilbert series, and the run fits its budget."""
    top = len(series) - 1
    start = time.perf_counter()
    dims = nichols_dims(space, top + 1)
    elapsed = time.perf_counter() - start
    assert dims == series + [0]
    assert elapsed < budget_s, elapsed
    return elapsed


@pytest.mark.parametrize("name, d, act, series, total", [
    # Fomin-Kirillov; Milinski-Schneider
    ("dihedral D_3", 3, lambda i, j: (2 * i - j) % 3,
     series_product([q_number(2)] * 2 + [q_number(3)]), 12),
    ("transpositions of S_4", 6, conjugate,
     series_product([q_number(2)] * 2 + [q_number(3)] * 2 + [q_number(4)] * 2), 576),
    # Grana; Andruskiewitsch-Grana
    ("tetrahedron Aff(F_4, omega)", 4, tetrahedron,
     series_product([q_number(2)] * 2 + [q_number(3), q_number(6)]), 72),
])
def test_nichols_dims_of_racks_from_the_literature(name, d, act, series, total):
    assert sum(series) == total
    assert_finite_nichols(rack_space(d, act, len(series)), series, 3.0)


def test_nichols_dims_of_the_affine_racks_of_order_5():
    # Grana; Andruskiewitsch-Grana: dim 1280 = 4^4 * 5 for Aff(5, 2), Aff(5, 3)
    series = series_product([q_number(4)] * 4 + [q_number(5)])
    assert sum(series) == 1280
    elapsed = sum(assert_finite_nichols(
        rack_space(5, lambda i, j, w=w: (w * j + (1 - w) * i) % 5, len(series)),
        series, 10.0) for w in (2, 3))
    assert elapsed < 10.0, elapsed


@pytest.mark.parametrize("w, top", [(3, 8), (5, 7)], ids=["Aff(7, 3)", "Aff(7, 5)"])
def test_nichols_dims_of_the_affine_racks_of_order_7(w, top):
    # Grana; Andruskiewitsch-Grana: Aff(7, 3) and Aff(7, 5) share the series
    # [6]^6 [7] of total 326592 and top degree 36; its first degrees
    series = series_product([q_number(6)] * 6 + [q_number(7)])
    assert sum(series) == 326592 and len(series) == 37
    assert series[:9] == [1, 7, 28, 84, 210, 462, 918, 1673, 2828]
    space = rack_space(7, lambda i, j: (w * j + (1 - w) * i) % 7, top)
    start = time.perf_counter()
    assert nichols_dims(space, top) == series[:top + 1]
    assert time.perf_counter() - start < 5.0


def cartan_a_series(rank, order):
    """prod over the positive roots beta of A_rank of [order]_(t^ht(beta)):
    rank + 1 - h roots of each height h (Andruskiewitsch-Schneider)."""
    return series_product([q_number(order, h)
                           for h in range(1, rank + 1) for _ in range(rank + 1 - h)])


def test_nichols_dims_of_cartan_type_a_at_a_cube_root():
    F3 = field_make(3)
    a2 = make_preset("cartan_An", F3, n=2, t=3, degree_budget=9)
    series = cartan_a_series(2, 3)
    assert sum(series) == 27
    assert_finite_nichols(a2, series, 3.0)
    series = cartan_a_series(3, 3)
    assert sum(series) == 729
    a3 = make_preset("cartan_An", F3, n=3, t=3, degree_budget=12)
    start = time.perf_counter()
    assert nichols_dims(a3, 12) == series[:13]
    assert time.perf_counter() - start < 3.0


# -- the normal-word routes against the d^n routes --------------------------------

def catalog_space(entry):
    return make_preset(entry["preset"], field_make(entry["field_order"]),
                       **entry["params"])


@st.composite
def nichols_spaces(draw):
    """A diagonal braiding with root-of-unity entries (d <= 3), a rack with
    cocycle -1 (D_3, D_4 or trivial), gurevich, hecke_gl, or a catalog entry."""
    kind = draw(st.sampled_from(("diagonal", "rack", "gurevich", "hecke_gl",
                                 "catalog")))
    if kind == "rack":
        d, act = draw(st.sampled_from((
            (3, lambda i, j: (2 * i - j) % 3),
            (4, lambda i, j: (2 * i - j) % 4),
            (draw(st.integers(1, 3)), lambda i, j: j))))
        return rack_space(d, act, 5)
    if kind == "gurevich":
        return make_preset("gurevich", F1)
    if kind == "catalog":
        return catalog_space(draw(st.sampled_from(CATALOG)))
    field = field_make(draw(st.sampled_from(ROOT_ORDERS)))
    if kind == "hecke_gl":
        q = draw(st.one_of(st.integers(0, field.order - 1).map(field.gen.__pow__),
                           st.sampled_from((2, 3, -2))))
        return make_preset("hecke_gl", field, d=2, q=q)
    d = draw(st.integers(1, 3))
    exps = draw(st.lists(st.integers(0, field.order - 1),
                         min_size=d * d, max_size=d * d))
    q = [[field.gen ** exps[i * d + j] for j in range(d)] for i in range(d)]
    return make_braiding("diagonal", {"q": q}, field)


def assert_word_routes_agree(space):
    top = 4 if space.dim >= 4 else 5
    assert nichols_dims(space, top) == nichols_dims_dn(space, top), space.kind
    assert is_quadratic(space, top) == is_quadratic_by_closure(space, top), \
        space.kind


def test_normal_words_agree_with_the_word_routes_on_presets_and_catalog():
    for space in _nichols_test_spaces() + [catalog_space(e) for e in CATALOG] + \
            [make_preset("twodim_sdeg2", F1)]:
        assert_word_routes_agree(space)


@settings(derandomize=True, max_examples=50, deadline=None, database=None)
@given(nichols_spaces())
def test_normal_words_agree_with_the_word_routes(space):
    assert_word_routes_agree(space)
