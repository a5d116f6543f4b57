import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from braidcalc.enveloping import BracketTable
from braidcalc.errors import RootOrderMismatch
from braidcalc.fixtures import preset_bracket
from braidcalc.pareigis import (
    check_pi_in_E,
    check_pi_su,
    induced_bracket,
    mixed_zeta_space,
    pi_image,
    verify_PL,
    zeta_space,
)
from braidcalc.scalars import field_make
from braidcalc.linalg import Subspace, vec_axpy
from braidcalc.spaces import (BraidedSpace, make_braiding, make_preset,
                              matsumoto_lift, word_index)
from braidcalc.tensorbialg import matvec, primitive_space
from oracles import (boxed_delta, mixed_zeta_space_all_at_once, perm_act, pi_zeta,
                     pl1_all_permutations, q_binomial)

F1 = field_make(1)
F3 = field_make(3)
F4 = field_make(4)


def minus_one(field):
    return field.from_rational(-1)


def test_degree_two_space_is_squared_braiding_fixed_space():
    for space in (make_braiding("flip", {"d": 2}, F1),
                  make_preset("gurevich", F1),
                  make_preset("d4_rack", F1)):
        zs = zeta_space(space, 2, minus_one(space.field))
        size = space.power(2)
        for w in range(size):
            vec = {w: space.field.one}
            sq = space.apply_word(2, (1, 1), vec)
            fixed = sq == vec
            assert zs.contains(vec) == fixed or not fixed
        # direct dimension: kernel of c^2 - Id
        from oracles import kernel_basis

        rows = {}
        for w in range(size):
            img = space.apply_word(2, (1, 1), {w: space.field.one})
            cur = img.get(w, space.field.zero) - space.field.one
            if cur.is_zero():
                img.pop(w, None)
            else:
                img[w] = cur
            for r, v in img.items():
                rows.setdefault(r, {})[w] = v
        expected = len(kernel_basis(rows.values(), size, one=space.field.one))
        assert zs.dim == expected


def test_flip_higher_zeta_spaces_vanish():
    # the involutive braiding has c_i^2 = Id, so a primitive cube root cannot
    # appear as an eigenvalue and the degree-3 eigenspaces are zero; the
    # degree-3 primitives are the free Lie component, which is nonzero, so
    # the image-sum identity genuinely fails at this arity
    fl = make_braiding("flip", {"d": 2}, F3)
    for zeta in F3.primitive_roots(3):
        assert zeta_space(fl, 3, zeta).dim == 0
    assert primitive_space(fl, 3).dim == 2
    assert not check_pi_su(fl, 3)


def test_scalar_zeta_space_all_or_nothing():
    scz = make_braiding("scalar", {"d": 2, "q": F4.gen}, F4)
    # c_i^2 = q^2 Id; the degree-2 space at zeta = -1 needs q^2 = 1: empty here
    assert zeta_space(scz, 2, minus_one(F4)).dim == 0
    sc1 = make_braiding("scalar", {"d": 2, "q": -1}, F1)
    assert zeta_space(sc1, 2, minus_one(F1)).dim == 4


def test_pi_formula_and_idempotency():
    for space in (make_braiding("flip", {"d": 2}, F1),
                  make_preset("gurevich", F1),
                  make_preset("d4_rack", F1)):
        m1 = minus_one(space.field)
        zs = zeta_space(space, 2, m1)
        for row in zs.rows:
            pi = pi_zeta(space, 2, m1, row)
            c_row = space.apply_word(2, (1,), row)
            expected = dict(row)
            for c, v in c_row.items():
                cur = expected.get(c, space.field.zero) - v
                if cur.is_zero():
                    expected.pop(c, None)
                else:
                    expected[c] = cur
            assert pi == expected
            # Pi Pi = 2 Pi on the fixed space
            twice = {c: v + v for c, v in pi.items()}
            assert pi_zeta(space, 2, m1, pi) == twice


def test_pi_image_is_degree_two_primitives():
    for space in (make_braiding("flip", {"d": 3}, F1),
                  make_preset("gurevich", F1),
                  make_preset("d4_rack", F1),
                  make_preset("twodim_sdeg2", F1)):
        assert check_pi_su(space, 2)
        assert check_pi_in_E(space, 2, minus_one(space.field))


def test_pi_lands_in_primitives_at_higher_arity():
    gu3 = make_preset("gurevich", F3)
    assert check_pi_in_E(gu3, 3, F3.gen)
    d43 = make_preset("d4_rack", F3)
    assert check_pi_in_E(d43, 3, F3.gen)


def test_twisted_action_is_an_action(seed=3):
    rng = random.Random(seed)
    gu = make_preset("gurevich", F1)
    m1 = minus_one(F1)
    zs = zeta_space(gu, 2, m1)
    perms = list(itertools.permutations(range(2)))
    for row in zs.rows:
        for sigma in perms:
            for tau in perms:
                combined = tuple(sigma[t] for t in tau)
                left = perm_act(gu, 2, m1, combined, row)
                right = perm_act(gu, 2, m1, sigma,
                                 perm_act(gu, 2, m1, tau, row))
                assert left == right
    # arity 3 where the eigenspace is everything: scalar braiding by the root
    z3 = F3.gen
    sc = make_braiding("scalar", {"d": 2, "q": z3}, F3)
    zs3 = zeta_space(sc, 3, z3)
    assert zs3.dim == 8
    perms = list(itertools.permutations(range(3)))
    for _ in range(10):
        sigma, tau = rng.choice(perms), rng.choice(perms)
        combined = tuple(sigma[t] for t in tau)
        vec = rng.choice(zs3.rows)
        assert perm_act(sc, 3, z3, combined, vec) == \
            perm_act(sc, 3, z3, sigma, perm_act(sc, 3, z3, tau, vec))


def test_binomial_vanishing_of_delta_on_pi_image():
    # Delta^{i, n-i} scales the symmetrized vector by the Gaussian binomial,
    # which vanishes at a primitive root for the inner components
    for space in (make_preset("gurevich", F1), make_preset("d4_rack", F1)):
        m1 = minus_one(space.field)
        zs = zeta_space(space, 2, m1)
        cols = boxed_delta(space, 1, 1)
        for row in zs.rows:
            assert not matvec(cols, pi_zeta(space, 2, m1, row))
    # arity 3: a scalar braiding by a cube root makes the whole space
    # eigenvalue-compatible, so the check is not vacuous
    f12 = field_make(12)
    z3 = f12.root_of_unity(3)
    sc = make_braiding("scalar", {"d": 2, "q": z3}, f12)
    zs = zeta_space(sc, 3, z3, require_primitive=True)
    assert zs.dim == 8
    for row in zs.rows:
        pi = pi_zeta(sc, 3, z3, row)
        for i in (1, 2):
            got = matvec(boxed_delta(sc, i, 3 - i), pi)
            coeff = q_binomial(3, i, z3)
            expected = {c: coeff * v for c, v in pi.items()} \
                if not coeff.is_zero() else {}
            assert got == expected


def test_root_order_guards():
    gu = make_preset("gurevich", F1)
    with pytest.raises(RootOrderMismatch):
        zeta_space(gu, 3, F1.one)
    with pytest.raises(RootOrderMismatch):
        F1.root_of_unity(3)


def test_induced_bracket_zero_bracket():
    gu = make_preset("gurevich", F1)
    table = BracketTable.zero(gu, 4)
    m1 = minus_one(F1)
    zs = zeta_space(gu, 2, m1)
    for row in zs.rows:
        assert induced_bracket(table, 2, m1, row) == {}
    assert verify_PL(table, 2) == {"pl1": True, "pl2": True, "pl3": True}


def test_induced_bracket_gurevich():
    gu = make_preset("gurevich", F1)
    table = preset_bracket(gu, "gurevich")
    m1 = minus_one(F1)
    # x = e1 (x) e0 - e0 (x) e1 is braiding-antisymmetric, so Pi(x) = 2x and
    # the induced value is 2 b(x) = 2 e1
    x = {word_index((1, 0), 3): F1.one, word_index((0, 1), 3): -F1.one}
    val = induced_bracket(table, 2, m1, x)
    assert val == {1: F1.from_rational(2)}


def test_verify_pl_fixtures_arity_two():
    gu = make_preset("gurevich", F1)
    assert verify_PL(preset_bracket(gu, "gurevich"), 2) == {
        "pl1": True, "pl2": True, "pl3": True}
    fl = make_braiding("flip", {"d": 3}, F1)
    assert verify_PL(preset_bracket(fl, "sl2_flip"), 2) == {
        "pl1": True, "pl2": True, "pl3": True}


def test_verify_pl_fixtures_arity_three():
    gu = make_preset("gurevich", F3)
    table = preset_bracket(gu, "gurevich")
    assert verify_PL(table, 3) == {"pl1": True, "pl2": True, "pl3": True}
    fl = make_braiding("flip", {"d": 3}, F3)
    table = preset_bracket(fl, "sl2_flip")
    assert verify_PL(table, 3) == {"pl1": True, "pl2": True, "pl3": True}


def test_pl2_detects_jacobi_violation():
    fl = make_braiding("flip", {"d": 3}, F1)
    one = F1.one
    from braidcalc.enveloping import validate_bracket

    bad = validate_bracket(
        fl, BracketTable(fl, {2: [{2: one}, {0: -one}, {0: one}]}))
    results = verify_PL(bad, 2)
    assert not results["pl2"]


def test_mixed_zeta_space_classical_is_everything():
    fl = make_braiding("flip", {"d": 2}, F1)
    mixed = mixed_zeta_space(fl, 2, minus_one(F1))
    # involutive braiding: all twisted conjugates act as the identity
    assert mixed.dim == 8


def test_pi_image_subspace_shape():
    d4 = make_preset("d4_rack", F1)
    img = pi_image(d4, 2, minus_one(F1))
    assert img == primitive_space(d4, 2)


# ---------------------------------------------------------------------------
# Pi and [x] from the per-(n, zeta) tables against the direct S_n sum
# ---------------------------------------------------------------------------

def _pi_cases():
    """(space, arity, zeta, bracket): the scalar braiding by z over Q(zeta_4)
    at both primitive fourth roots, gurevich at -1, cartan_An over Q(zeta_3)."""
    sc = make_braiding("scalar", {"d": 2, "q": F4.gen}, F4)
    gu = make_preset("gurevich", F1)
    ca = make_preset("cartan_An", F3)
    return ([(sc, 4, z, BracketTable.zero(sc, 4)) for z in F4.primitive_roots(4)]
            + [(gu, 2, minus_one(F1), preset_bracket(gu, "gurevich"))]
            + [(ca, 3, z, BracketTable.zero(ca, 4))
               for z in F3.primitive_roots(3)])


PI_CASES = _pi_cases()


def _direct_pi(space, n, zeta, vec):
    """sum_sigma zeta^(-l(sigma)) lift(sigma) vec, one braid word at a time."""
    acc = {}
    for sigma in itertools.permutations(range(n)):
        word = matsumoto_lift(sigma).letters
        vec_axpy(acc, zeta.inv() ** len(word), space.apply_word(n, word, vec))
    return acc


@pytest.mark.parametrize("case", range(len(PI_CASES)))
def test_pi_equals_the_direct_symmetrization_sum(case):
    space, n, zeta, _ = PI_CASES[case]
    rows = zeta_space(space, n, zeta, require_primitive=False).rows
    direct = [_direct_pi(space, n, zeta, r) for r in rows]
    assert [pi_zeta(space, n, zeta, r) for r in rows] == direct
    assert pi_image(space, n, zeta) == Subspace.from_rows(space.power(n), direct)


@settings(derandomize=True, max_examples=30, deadline=None)
@given(case=st.integers(0, len(PI_CASES) - 1),
       coeffs=st.lists(st.integers(-3, 3), min_size=32, max_size=32))
def test_pi_is_linear_on_zeta_space_combinations(case, coeffs):
    space, n, zeta, _ = PI_CASES[case]
    rows = zeta_space(space, n, zeta, require_primitive=False).rows
    x = {}
    for c, row in zip(coeffs, rows):
        if c:
            vec_axpy(x, space.field.from_rational(c), row)
    assert pi_zeta(space, n, zeta, x) == _direct_pi(space, n, zeta, x)


def test_pareigis_operators_reuse_their_tables(monkeypatch):
    calls = []
    apply_word = BraidedSpace.apply_word

    def counted(self, n, letters, vec):
        calls.append(n)
        return apply_word(self, n, letters, vec)

    monkeypatch.setattr(BraidedSpace, "apply_word", counted)
    for space, n, zeta, bracket in _pi_cases():
        rows = zeta_space(space, n, zeta, require_primitive=False).rows
        if not rows:
            continue
        induced_bracket(bracket, n, zeta, rows[0])  # warms the tables
        calls.clear()
        x = {}
        for row in rows:
            vec_axpy(x, space.field.from_rational(2), row)
            pi_zeta(space, n, zeta, row)
            induced_bracket(bracket, n, zeta, row)
        pi_zeta(space, n, zeta, x)
        induced_bracket(bracket, n, zeta, x)
        pi_image(space, n, zeta)
        assert calls == []


def test_verify_pl_results_on_the_differential_cases():
    for space, n, zeta, bracket in PI_CASES:
        assert verify_PL(bracket, n, zeta) == {
            "pl1": True, "pl2": True, "pl3": True}
    fl = make_braiding("flip", {"d": 3}, F1)
    one = F1.one
    from braidcalc.enveloping import validate_bracket

    bad = validate_bracket(
        fl, BracketTable(fl, {2: [{2: one}, {0: -one}, {0: one}]}))
    assert verify_PL(bad, 2) == {"pl1": True, "pl2": False, "pl3": False}


@pytest.mark.parametrize("case", range(len(PI_CASES)))
def test_pl1_on_the_generators_agrees_with_all_permutations(case):
    space, n, zeta, bracket = PI_CASES[case]
    assert verify_PL(bracket, n, zeta)["pl1"] == pl1_all_permutations(bracket, n, zeta)


def test_pl1_fails_on_a_corrupted_bracket_table():
    # gurevich at -1: Pi(e_1) = e_1 - e_3 and [e_1] = b(E_0) = -x_1, while
    # s_1 e_1 = -e_3; with row 1 of the coordinate table dropped, [e_1]
    # reads 0 and [s_1 e_1] still reads -x_1
    gu = make_preset("gurevich", F1)
    bracket, zeta = preset_bracket(gu, "gurevich"), minus_one(F1)
    assert verify_PL(bracket, 2, zeta)["pl1"] and pl1_all_permutations(bracket, 2, zeta)
    gu._memo["pi_coords", 2, zeta][1] = {}
    assert verify_PL(bracket, 2, zeta)["pl1"] is False
    assert pl1_all_permutations(bracket, 2, zeta) is False


def test_verify_pl_reduces_each_bracketed_vector_once(monkeypatch):
    # the membership check rides on the reduction that finds the coordinates
    import braidcalc.pareigis as pareigis

    space, n, zeta, bracket = PI_CASES[0]
    verify_PL(bracket, n, zeta)  # warms the tables
    zs = zeta_space(space, n, zeta)
    reductions, brackets = [], []
    reduce, bracket_of = Subspace.reduce, pareigis.induced_bracket

    def counted_reduce(self, vec):
        if self is zs:
            reductions.append(1)
        return reduce(self, vec)

    def counted_bracket(*args):
        brackets.append(1)
        return bracket_of(*args)

    monkeypatch.setattr(Subspace, "reduce", counted_reduce)
    monkeypatch.setattr(pareigis, "induced_bracket", counted_bracket)
    assert verify_PL(bracket, n, zeta) == {"pl1": True, "pl2": True, "pl3": True}
    assert len(reductions) == len(brackets) == 224


# ---------------------------------------------------------------------------
# the mixed zeta space, condition by condition, against all conditions at once
# ---------------------------------------------------------------------------

def test_mixed_zeta_space_against_all_conditions_at_once():
    sc = make_braiding("scalar", {"d": 2, "q": F4.gen}, F4)
    cases = [(make_preset("gurevich", F1), 2, minus_one(F1), 10),
             (make_braiding("flip", {"d": 3}, F1), 2, minus_one(F1), 27),
             (make_preset("d4_rack", F1), 2, minus_one(F1), 28),
             (make_preset("gurevich", F1), 3, minus_one(F1), 15),
             (make_preset("gurevich", F3), 3, F3.gen, 0),
             (make_braiding("flip", {"d": 3}, F3), 3, F3.gen, 0),
             (make_preset("gurevich", F1), 4, minus_one(F1), 21),
             (make_braiding("flip", {"d": 2}, F1), 4, minus_one(F1), 32)]
    cases += [(sc, 4, z, 0) for z in F4.primitive_roots(4)]
    for space, n, zeta, dim in cases:
        got = mixed_zeta_space(space, n, zeta)
        assert got.dim == dim, (space.kind, n)
        assert got == mixed_zeta_space_all_at_once(space, n, zeta), (space.kind, n)


def test_mixed_zeta_space_stops_at_the_first_empty_kernel(monkeypatch):
    # on the scalar braiding by z at arity 4 the first conjugate, tau_1^2
    # itself, already leaves no vector: no other condition is applied
    for zeta in F4.primitive_roots(4):
        space = make_braiding("scalar", {"d": 2, "q": F4.gen}, F4)
        rows = space.dim * zeta_space(space, 4, zeta).dim
        words, generators = [], []
        apply_word = space.apply_word
        apply_generator = space.apply_generator

        def word_spy(n, letters, vec):
            words.append((n, tuple(letters)))
            return apply_word(n, letters, vec)

        def generator_spy(*args, **kwargs):
            generators.append(args[1])
            return apply_generator(*args, **kwargs)

        monkeypatch.setattr(space, "apply_word", word_spy)
        monkeypatch.setattr(space, "apply_generator", generator_spy)
        assert mixed_zeta_space(space, 4, zeta).dim == 0
        assert rows == 32 and words == [(5, (1, 1))] * rows
        assert generators == [1] * (2 * rows)
