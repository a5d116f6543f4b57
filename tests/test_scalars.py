import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from braidcalc import (BracketTable, enveloping_filtration, make_braiding, make_preset,
                       nichols_dims, preset_bracket, primitive_space, tower_iterates, zeta_space)
from braidcalc.errors import BadParams, DivisionByZero, FieldMismatch, RootOrderMismatch
from braidcalc.linalg import Echelon, left_kernel, matvec, vec_axpy
from braidcalc.pareigis import pi_image
from braidcalc.scalars import (
    MAX_FIELD_ORDER,
    CycloField,
    CycloScalar,
    Q,
    Reduction,
    _is_prime,
    _prime,
    _poly_divmod,
    _poly_mul,
    crt,
    cyclotomic_polynomial,
    euler_phi,
    field_make,
    is_regular_exact,
    rational_lift,
    root_order,
)
from oracles import is_regular, q_binomial, q_factorial, q_int


def test_field_construction_examples():
    f1 = field_make(1)
    assert f1.degree == 1 and f1.cyclotomic_polynomial == (Q(-1), Q(1))
    f4 = field_make(4)
    assert f4.degree == 2 and f4.cyclotomic_polynomial == (Q(1), Q(0), Q(1))
    f12 = field_make(12)
    assert f12.degree == euler_phi(12) == 4
    # divide X^12 - 1 by Phi_1 Phi_2 Phi_3 Phi_4 Phi_6 by hand: X^4 - X^2 + 1
    assert f12.cyclotomic_polynomial == (Q(1), Q(0), Q(-1), Q(0), Q(1))


def test_cyclotomic_polynomial_divides_x_m_minus_1():
    for m in (1, 2, 3, 4, 5, 6, 8, 9, 12, 15):
        f = field_make(m)
        z = f.gen
        assert (z ** m).is_one()
        assert f.degree == euler_phi(m)


def test_arithmetic_examples():
    f4 = field_make(4)
    z = f4.gen
    assert z * z == f4.from_rational(-1)
    assert f4.from_rational(2).inv() == f4.from_fraction(1, 2)
    f3 = field_make(3)
    w = f3.gen
    inv = (f3.one + w).inv()
    assert inv == -w
    assert ((f3.one + w) * inv).is_one()


def test_division_errors():
    f4 = field_make(4)
    with pytest.raises(DivisionByZero):
        f4.one / f4.zero
    with pytest.raises(DivisionByZero):
        f4.zero.inv()
    with pytest.raises(FieldMismatch):
        f4.one + field_make(3).one


def test_field_axioms_randomized():
    rng = random.Random(7)
    f = field_make(12)

    def rand_scalar():
        return f.scalar([Q(rng.randint(-4, 4), rng.randint(1, 3))
                         for _ in range(f.degree)])

    for _ in range(120):
        a, b, c = rand_scalar(), rand_scalar(), rand_scalar()
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a
        assert a * b == b * a
        if not a.is_zero():
            assert (a * a.inv()).is_one()
            assert a ** -2 == (a * a).inv()


def test_q_int_telescoping():
    f = field_make(12)
    rng = random.Random(3)
    candidates = [f.gen ** k for k in range(12)] + [f.from_rational(2),
                                                    f.from_fraction(-3, 2)]
    for q in candidates:
        if q.is_zero():
            continue
        for n in (1, 2, 3, 5, 8):
            assert q_int(n, q) * (q - f.one) == q ** n - f.one
    del rng


def test_q_int_values():
    f1 = field_make(1)
    assert q_int(3, f1.one) == f1.from_rational(3)
    f4 = field_make(4)
    assert q_int(2, f4.from_rational(-1)).is_zero()


def test_q_binomial_matches_factorial_quotient():
    f = field_make(12)
    for q in (f.from_rational(2), f.gen, f.gen ** 5, f.from_fraction(1, 2)):
        for n in range(7):
            for i in range(n + 1):
                denom = q_factorial(i, q) * q_factorial(n - i, q)
                if denom.is_zero():
                    continue
                assert q_binomial(n, i, q) == q_factorial(n, q) / denom


def test_q_binomial_at_root_of_unity():
    f4 = field_make(4)
    z = f4.gen
    assert q_binomial(4, 2, z).is_zero()
    # all inner Gaussian binomials at a primitive n-th root vanish
    f5 = field_make(5)
    for i in range(1, 5):
        assert q_binomial(5, i, f5.gen).is_zero()
    assert q_binomial(5, 0, f5.gen).is_one()


def test_regularity_and_root_order():
    f4 = field_make(4)
    assert is_regular(f4.one, 10)
    assert not is_regular(f4.gen, 10)
    assert root_order(f4.gen) == 4
    assert root_order(f4.from_rational(-1)) == 2
    assert root_order(f4.from_rational(2)) is None
    assert is_regular_exact(f4.from_rational(2))
    assert is_regular_exact(f4.one)
    assert not is_regular_exact(f4.from_rational(-1))
    # odd m still sees -1, whose order exceeds m
    f3 = field_make(3)
    assert root_order(f3.from_rational(-1)) == 2


def test_root_order_consistency():
    f12 = field_make(12)
    for k in range(12):
        q = f12.gen ** k
        n = root_order(q)
        assert n is not None
        assert (q ** n).is_one()
        if n > 1:
            assert q_int(n, q) * (q - f12.one) == f12.zero
            for j in range(1, n):
                assert not q_int(j, q).is_zero() or not is_regular_exact(q)


def test_primitive_roots_listing():
    f12 = field_make(12)
    roots = f12.primitive_roots(4)
    assert len(roots) == 2
    for r in roots:
        assert root_order(r) == 4
    with pytest.raises(RootOrderMismatch):
        f12.root_of_unity(5)
    assert f12.root_of_unity(2) == f12.from_rational(-1)
    f1 = field_make(1)
    assert f1.primitive_roots(2)[0] == f1.from_rational(-1)


# ---------------------------------------------------------------------------
# integer-first coefficients
# ---------------------------------------------------------------------------

ORDERS = (1, 2, 3, 4, 5, 6, 8, 12)  # 6: Phi_6 = X^2 - X + 1, the one c1 = -1
Q_TYPE = type(Q(1))

coefficient = st.one_of(
    st.integers(-6, 6),
    st.builds(Q, st.integers(-6, 6), st.integers(1, 4)),
)


@st.composite
def scalar_pairs(draw):
    f = field_make(draw(st.sampled_from(ORDERS)))
    a, b = (f.scalar(draw(st.lists(coefficient, min_size=f.degree,
                                   max_size=f.degree)))
            for _ in range(2))
    return f, a, b


def assert_exact(x):
    assert len(x.coeffs) == x.field.degree
    for c in x.coeffs:
        assert type(c) is int or type(c) is Q_TYPE, (x, type(c))


@settings(max_examples=150, deadline=None)
@given(scalar_pairs())
def test_product_matches_division_route(pair):
    f, a, b = pair
    _, rem = _poly_divmod(_poly_mul(list(a.coeffs), list(b.coeffs)),
                          list(f.cyclotomic_polynomial))
    assert (a * b).coeffs == tuple(rem) + (0,) * (f.degree - len(rem))
    if not a.is_zero():
        assert a * a.inv() == f.one
    if not b.is_zero():
        assert (a / b) * b == a


@settings(max_examples=150, deadline=None)
@given(scalar_pairs(), st.integers(-3, 3))
def test_no_coefficient_is_a_float(pair, k):
    f, a, b = pair
    results = [a + b, a - b, a * b, -a, 3 - a, a * 2, 2 * a, a + Q(1, 2)]
    if not b.is_zero():
        results += [b.inv(), a / b, 1 / b, a / 3, b ** k]
    for x in results:
        assert_exact(x)


def assert_canonical(x):
    """Every coefficient equal to an integer is an int, never an integral Q."""
    assert_exact(x)
    for c in x.coeffs:
        assert type(c) is int or c.denominator != 1, (x, type(c))


@settings(max_examples=200, deadline=None)
@given(scalar_pairs(), st.integers(-3, 3))
def test_every_integral_coefficient_is_an_int(pair, k):
    f, a, b = pair
    results = [a + b, a - b, a * b, -a, a * a, a ** abs(k), 3 - a, a * 2,
               a + Q(1, 2), a * Q(2, 3), b - Q(1, 3)]
    if not b.is_zero():
        results += [b.inv(), a / b, (a / b) * b, 1 / b, a / 3, b ** k]
    for x in results:
        assert_canonical(x)


# ---------------------------------------------------------------------------
# the sparse accumulate kernel, on coefficient tuples in degrees 1 and 2
# ---------------------------------------------------------------------------

@st.composite
def axpy_cases(draw):
    f = field_make(draw(st.sampled_from(ORDERS)))

    def scalar():
        return f.scalar(draw(st.lists(coefficient, min_size=f.degree, max_size=f.degree)))

    def vector():
        vec = {draw(st.integers(0, 6)): scalar() for _ in range(draw(st.integers(0, 5)))}
        return {k: v for k, v in vec.items() if not v.is_zero()}

    target, coeff = vector(), scalar()
    # sources that cancel part or all of the target, or that are unrelated
    source = draw(st.sampled_from((
        {k: -v for k, v in target.items()}, vector(),
        {k: -v / coeff for k, v in target.items()} if not coeff.is_zero() else {})))
    return target, coeff, source


def representation(vec):
    return {k: tuple((type(c), c) for c in v.coeffs) for k, v in vec.items()}


@settings(max_examples=300, deadline=None)
@given(axpy_cases(), st.sampled_from((0, 3)))
def test_vec_axpy_matches_the_operator_route(case, offset):
    target, coeff, source = case
    expected = dict(target)
    for col, val in source.items():
        new = expected.get(offset + col, coeff.field.zero) + coeff * val
        if new.is_zero():
            expected.pop(offset + col, None)
        else:
            expected[offset + col] = new
    got = vec_axpy(dict(target), coeff, source, offset)
    assert representation(got) == representation(expected)
    for val in got.values():
        assert_canonical(val)


def test_vec_axpy_cancels_to_an_empty_target():
    for m in ORDERS:
        f = field_make(m)
        x, y = f.gen + f.from_fraction(1, 3), f.from_rational(-2)
        assert vec_axpy({0: x, 1: y}, -f.one, {0: x, 1: y}) == {}
        assert vec_axpy({5: x, 6: y}, f.from_fraction(1, 2), {0: -2 * x, 1: -2 * y}, 5) == {}
        assert vec_axpy({}, f.zero, {0: x}) == {}


def test_vec_axpy_keys_and_fields():
    for m in ORDERS:
        f = field_make(m)
        x = f.gen * f.from_fraction(2, 3)
        # hashable non-int keys at offset 0, as in families keyed by words
        got = vec_axpy({("u", 1): f.one}, x, {("u", 1): f.one, ("v", 0): x})
        assert got == {("u", 1): f.one + x, ("v", 0): x * x}
        # a source built in a separately built field of the same order
        assert vec_axpy({}, x, {0: CycloField(m).gen}) == {0: x * f.gen}
        other = field_make(5 if m != 5 else 3)
        with pytest.raises(FieldMismatch):
            vec_axpy({0: f.one}, x, {0: other.one})
        with pytest.raises(FieldMismatch):  # a target entry from another field
            vec_axpy({0: other.one}, x, {0: f.one})
        # integral results are ints, from a product and from a sum
        half = f.from_fraction(1, 2)
        got = vec_axpy({1: half}, half, {0: f.from_rational(2), 1: f.one})
        assert got[0].coeffs == got[1].coeffs == f.one.coeffs
        assert all(type(c) is int for v in got.values() for c in v.coeffs)


def test_integral_products_of_rationals_are_ints():
    for m in ORDERS:
        f = field_make(m)
        half, third = f.from_fraction(1, 2), f.from_fraction(1, 3)
        for x in (half * 2, 2 * half, half + half, third + 2 * third,
                  half - (-half), third * 3 - f.one, f.scalar([Q(1, 2)] * f.degree) * 4,
                  (f.gen * half) * (f.gen ** -1 * 2), (half + f.gen) ** 2 - f.gen ** 2 - f.gen):
            assert_canonical(x)
        assert (half * 2).coeffs == f.one.coeffs
        assert (f.gen * half + f.gen * half) == f.gen


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(ORDERS),
       st.lists(st.integers(-9, 9), min_size=1, max_size=12),
       st.lists(st.integers(-9, 9), min_size=1, max_size=12))
def test_integral_coefficients_stay_ints(m, xs, ys):
    f = field_make(m)
    a, b = f.scalar(xs), f.scalar(ys)
    for x in (a, b, a + b, a - b, a * b, -a, a ** 3):
        assert all(type(c) is int for c in x.coeffs), x


def test_rational_inverse_and_representation():
    for m in ORDERS:
        f = field_make(m)
        assert f.from_rational(3).inv() == f.from_fraction(1, 3)
        # a division that lands back in the integers gives ints again
        for x in (f.from_fraction(6, 3), f.scalar([Q(4, 2)] * f.degree),
                  f.from_fraction(1, 3).inv(),
                  f.gen.inv()):  # z^(m-1), via the extended Euclidean route
            assert all(type(c) is int for c in x.coeffs), x
        assert f.zero.coeffs == (0,) * f.degree
        assert f.one.coeffs == (1,) + (0,) * (f.degree - 1)
        # int and Q coefficients agree on equality, hashing and str
        assert f.from_rational(Q(5)) == f.from_rational(5)
        assert hash(f.scalar([Q(2)] * f.degree)) == hash(f.scalar([2] * f.degree))
        assert str(f.scalar([Q(-2, 1)])) == str(f.from_rational(-2)) == "-2"


def test_field_mismatch_is_still_checked():
    a, b = field_make(3).gen, field_make(4).gen
    for op in (lambda: a + b, lambda: a - b, lambda: a * b, lambda: a / b,
               lambda: b + a, lambda: b * a):
        with pytest.raises(FieldMismatch):
            op()


def test_separately_built_field_interoperates():
    f3 = field_make(3)
    other = CycloField(3)
    assert other is not f3 and other == f3
    z, w = other.gen, f3.gen
    assert z == w and hash(z) == hash(w)
    assert z * w == w * w and (z * w).field is other
    assert z + w == w + w and z - w == f3.zero
    assert (z / w).is_one()


def test_field_order_cap():
    with pytest.raises(BadParams):
        CycloField(MAX_FIELD_ORDER + 1)
    with pytest.raises(BadParams):
        field_make(100000)
    # the slowest order under the cap (the largest prime) still builds fast
    start = time.perf_counter()
    f = CycloField(997)
    assert time.perf_counter() - start < 1.0
    assert f.degree == 996 and (f.gen ** 997).is_one()


def test_cyclotomic_polynomial_is_memoized():
    assert cyclotomic_polynomial(12) is cyclotomic_polynomial(12)
    assert field_make(12).cyclotomic_polynomial is cyclotomic_polynomial(12)


# -- reduction modulo primes and the way back ------------------------------------

def test_primes_are_one_mod_m_and_below_2_30():
    for m in (1, 2, 3, 4, 5, 12, 997):
        primes = [_prime(m, i) for i in range(3)]
        assert primes == sorted(set(primes), reverse=True)
        for p in primes:
            assert p < 2 ** 30 and p % m == 1 % m and p % 2
            assert all(p % k for k in range(2, 2000)) and _is_prime(p)
        assert Reduction(field_make(m), 0).p == primes[0]
    assert [n for n in range(60) if _is_prime(n)] == \
        [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]
    assert not _is_prime(25326001)  # a strong pseudoprime to the bases 2, 3, 5


def test_reduction_is_a_ring_map_and_interpolation_inverts_it(seed=41):
    rng = random.Random(seed)
    for m in (1, 2, 3, 4, 5, 8, 12):
        field = field_make(m)
        for index in (0, 1):
            red = Reduction(field, index)
            p = red.p
            for _ in range(20):
                a, b = (field.scalar([Q(rng.randint(-9, 9), rng.randint(1, 5))
                                      for _ in range(field.degree)])
                        for _ in range(2))
                ra, rb = red(a), red(b)
                assert len(ra) == field.degree
                assert red(a * b) == tuple(x * y % p for x, y in zip(ra, rb))
                assert red(a + b) == tuple((x + y) % p for x, y in zip(ra, rb))
                # back to the power-basis coefficients, mod p
                assert red.coefficients(ra) == tuple(
                    int(c.numerator) * pow(int(c.denominator), -1, p) % p
                    for c in map(Q, a.coeffs))
            assert red(field.gen ** m) == (1,) * field.degree


def test_reduction_refuses_a_prime_in_a_denominator():
    field = field_make(3)
    red = Reduction(field, 0)
    assert red(field.scalar([1, Q(1, red.p)])) is None
    assert red(field.scalar([1, Q(1, red.p + 2)])) is not None


def test_rational_lift_and_crt():
    p, r = Reduction(field_make(1), 0).p, Reduction(field_make(1), 1).p
    for value in (0, 1, -1, 7, -12, Q(1, 2), Q(-3, 7), Q(35, 64)):
        u = int(value.numerator) * pow(int(value.denominator), -1, p) % p
        assert rational_lift(u, p) == value
    # past one prime's bound: no answer from p alone, the right one mod p * r
    big = 2 ** 40 + 1
    assert rational_lift(big % p, p) != big
    joint = crt(big % p, p, big % r, r)
    assert joint == big % (p * r) and rational_lift(joint, p * r) == big
    assert rational_lift((-big) % (p * r), p * r) == -big


def integral_rationals(value) -> int:
    """The integral Q coefficients of the scalars and raw coefficients
    anywhere in a structure of tuples, lists and dicts (keys and values)."""
    if isinstance(value, CycloScalar):
        return sum(type(c) is not int and c.denominator == 1 for c in value.coeffs)
    if isinstance(value, Q):  # a raw coefficient
        return value.denominator == 1
    if isinstance(value, dict):
        return sum(integral_rationals(k) + integral_rationals(v)
                   for k, v in value.items())
    if isinstance(value, (list, tuple)):
        return sum(map(integral_rationals, value))
    return 0


def test_no_integral_rational_survives_a_run():
    # the Nichols tables of Cartan A_3 at a cube root of unity, whose remainders
    # come out of the fraction-free echelon divided by their denominator
    a3 = make_preset("cartan_An", field_make(3), n=3, t=3, degree_budget=8)
    assert nichols_dims(a3, 8) == [1, 3, 8, 14, 24, 34, 47, 57, 67]
    dims, top = a3._memo["nichols"]  # the top degree's raw images and tables
    assert len(dims) == 9 and integral_rationals(top) == 0
    gu = make_preset("gurevich", field_make(1))
    fq = enveloping_filtration(preset_bracket(gu, "gurevich"), 4, 1)
    rows = fq.echelon.rows()
    assert rows and integral_rationals(rows) == 0


def test_scalars_leave_the_kernel_layer_through_one_intern_table():
    for m in ORDERS:
        f = field_make(m)
        three, half = f.from_rational(3), f.from_fraction(1, 2)
        tail = (0,) * (f.degree - 1)
        # equal integral values come back as one object, fractional ones fresh
        assert f.box((3,) + tail) is three and f.scalar([3]) is three
        assert f.box((half.coeffs[0],) + tail) == half
        assert f.box((half.coeffs[0],) + tail) is not f.box((half.coeffs[0],) + tail)
        # through the echelon's rows and remainders and the accumulate kernel
        ech = Echelon(3)
        ech.add({0: f.from_rational(2), 1: f.from_rational(6)})
        assert ech.rows()[0][1] is three
        assert ech.reduce({0: f.one, 2: three})[2] is three
        assert left_kernel([{0: f.one}, {0: -f.one}])[0][1] is f.one
        if f.degree < 3:
            assert vec_axpy({}, f.one, {0: f.from_rational(3)})[0] is three
            assert vec_axpy({0: f.one}, f.one, {0: f.from_rational(2)})[0] is three
        # the table holds integral tuples only, also after a run
        assert all(type(c) is int for key in f.interned for c in key)
        assert all(s.coeffs == key for key, s in f.interned.items())
        # and a scalar of another field is still refused
        other = field_make(5 if m != 5 else 3)
        with pytest.raises(FieldMismatch):
            Echelon(2).add_rows([{0: f.one, 1: f.gen}, {0: other.one}])
        with pytest.raises(FieldMismatch):
            ech.reduce({0: other.one})
        with pytest.raises(FieldMismatch):
            vec_axpy({0: f.one}, half, {0: other.one})
    gu = make_preset("gurevich", field_make(1))
    enveloping_filtration(preset_bracket(gu, "gurevich"), 3, 1).span_rows_in(3)
    assert all(type(c) is int for key in field_make(1).interned for c in key)


def assert_boxed(field, values, where, interned=True):
    """Each value is a scalar of field, its coefficients canonical (an int,
    or a rational off the integers); over a field of degree < 3, whose raw
    coefficients are not scalars, an integral one is the intern table's."""
    for value in values:
        assert type(value) is CycloScalar and value.field is field, where
        assert all(type(c) is int or c.denominator != 1 for c in value.coeffs), where
        if interned and field.degree < 3 and all(type(c) is int for c in value.coeffs):
            assert field.interned[value.coeffs] is value, where


@st.composite
def boundary_spaces(draw):
    """A diagonal braiding with root-of-unity entries or a hecke_gl space,
    d <= 2, over Q(zeta_m), m = 1, 3, 4, 5; d4_rack over Q."""
    m = draw(st.sampled_from((1, 3, 4, 5)))
    field = field_make(m)
    kind = draw(st.sampled_from(("diagonal", "hecke_gl", "d4_rack" if m == 1 else "diagonal")))
    if kind == "d4_rack":
        return make_preset("d4_rack", field)
    if kind == "hecke_gl":
        q = draw(st.sampled_from((field.gen, field.from_fraction(-1, 2), field.from_rational(3))))
        return make_preset("hecke_gl", field, d=2, q=q)
    d = draw(st.integers(1, 2))
    exps = draw(st.lists(st.integers(0, m - 1), min_size=d * d, max_size=d * d))
    return make_braiding("diagonal", {"q": [[field.gen ** exps[i * d + j] for j in range(d)]
                                            for i in range(d)]}, field)


@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(boundary_spaces())
def test_public_returns_hold_the_fields_scalars(space):
    """Inside the library vectors hold raw coefficients; every public return
    holds the field's scalars, as before the raw representation."""
    field, top = space.field, 3 if space.dim > 2 else 4
    for n in range(2, top + 1):
        prims = primitive_space(space, n)
        assert_boxed(field, [v for row in prims.rows for v in row.values()], ("E", n))
        assert all(row[min(row)] is field.one for row in prims.rows)
    for k, tower in enumerate(tower_iterates(space, top)):
        rows = [row for component in tower.components for row in component.rows]
        assert_boxed(field, [v for row in rows for v in row.values()], ("tower", k))
    for n in sorted({2} | ({field.order} if 2 < field.order <= top else set())):
        zeta = field.root_of_unity(n)
        for sub in (zeta_space(space, n, zeta), pi_image(space, n, zeta)):
            assert_boxed(field, [v for row in sub.rows for v in row.values()], ("zeta", n))
    # the min poly is monic and kills c
    poly = space.min_poly
    assert_boxed(field, poly, "min_poly", interned=False)  # scalar arithmetic
    assert poly[-1] == field.one
    for w in range(space.power(2)):
        power, total = {w: field.one}, {}
        for coeff in poly:
            vec_axpy(total, coeff, power)
            power = space.apply_generator(2, 1, power)
        assert total == {}
    # a bracket table's values, for coordinates of scalars
    e2 = primitive_space(space, 2)
    entry = {0: field.gen, space.dim - 1: field.from_fraction(2, 3)}
    table = BracketTable(space, {2: [entry] * e2.dim})
    value = table.value(2, {k: field.from_fraction(k + 1, 2) for k in range(e2.dim)})
    assert_boxed(field, value.values(), "bracket")
    assert value == matvec(table.entries[2], {k: field.from_fraction(k + 1, 2)
                                              for k in range(e2.dim)})
