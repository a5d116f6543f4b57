"""Acceptance criteria, one test per criterion, each printing a verdict line.

Every assertion is exact (integer dimensions, canonical subspace equality);
the stated wall-clock budgets are asserted after the mathematics.  Criterion
3 checks the degree-4 primitives of the dihedral-rack space: they do not
vanish in T(V) -- x_i x_i x_j x_j - x_j x_j x_i x_i is primitive for every
i != j, since c^2 fixes x_i x_i (x) x_j x_j -- and an oracle independent of
braidcalc (perfbench/oracle.py, sympy ranks over QQ) gives dim 32.  They
vanish modulo the ideal generated by the degree-2 primitives, which is what
the test asserts alongside the exact dimension and the explicit witnesses.
"""

import random
import time
from contextlib import contextmanager

import pytest

from braidcalc.enveloping import (
    BracketTable,
    enveloping_filtration,
    lie_check,
    pbw_check,
    primitive_check,
    validate_bracket,
)
from braidcalc.errors import NotABracket, YBENotSatisfied
from braidcalc.fixtures import CATALOG, preset_bracket
from braidcalc.linalg import Subspace
from braidcalc.pareigis import check_pi_in_E, check_pi_su, zeta_space
from braidcalc.scalars import field_make
from braidcalc.spaces import (
    make_braiding,
    make_preset,
    word_index,
)
from braidcalc.tensorbialg import (
    nichols_dims,
    primitive_space,
)
from braidcalc.tower import (
    ideal_closure,
    is_quadratic,
    nichols_via_tower,
    sdeg,
    tower_iterates,
)
from oracles import (
    boxed_delta,
    delta_injectivity_ladder,
    pi_zeta,
    q_binomial,
    shuffles,
    symmetrizer_factorization_check,
)

F1 = field_make(1)
F2 = field_make(2)
F3 = field_make(3)
F4 = field_make(4)


@contextmanager
def criterion(number, label, budget_seconds):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print("[FAIL] criterion %d: %s (%.1fs)"
              % (number, label, time.monotonic() - start))
        raise
    elapsed = time.monotonic() - start
    print("[PASS] criterion %d: %s (%.1fs)" % (number, label, elapsed))
    assert elapsed < budget_seconds, (
        "criterion %d exceeded its %.0fs budget" % (number, budget_seconds))


def catalog_space(entry):
    field = field_make(entry["field_order"])
    return make_preset(entry["preset"], field, **entry["params"])


def test_criterion_1_scalar_braidings():
    with criterion(1, "scalar braidings: root-of-unity dims and regular fixpoint", 5):
        scz = make_braiding("scalar", {"d": 2, "q": F4.gen}, F4)
        assert nichols_dims(scz, 6) == [1, 2, 4, 8, 0, 0, 0]
        verdict = sdeg(scz, 6)
        assert verdict.value == 1 and verdict.status == "certified"
        sc2 = make_braiding("scalar", {"d": 2, "q": 2}, F1)
        verdict = sdeg(sc2, 5)
        assert verdict.value == 0 and verdict.status == "certified"


def test_criterion_2_hecke_flip():
    with criterion(2, "involutive flip: degree one, binomial dimensions", 30):
        from math import comb

        for d in (2, 3):
            fl = make_braiding("flip", {"d": d}, F1)
            verdict = sdeg(fl, 6)
            assert verdict.value <= 1
            assert primitive_space(fl, 2).dim == d * (d - 1) // 2
            assert nichols_dims(fl, 6) == [comb(n + d - 1, d - 1)
                                           for n in range(7)]


def _d4_listed_degree_two_generators(space):
    one = F1.one

    def w(*ls):
        return word_index(ls, 4)

    gens = [{w(i, i): one} for i in range(4)]
    gens.append({w(0, 2): one, w(2, 0): one})
    gens.append({w(1, 3): one, w(3, 1): one})
    gens.append({w(0, 1): one, w(1, 2): one, w(2, 3): one, w(3, 0): one})
    gens.append({w(0, 3): one, w(1, 0): one, w(2, 1): one, w(3, 2): one})
    return gens


def test_criterion_3_dihedral_rack():
    with criterion(3, "dihedral rack: primitives, ideal separation, degree 2", 600):
        d4 = make_preset("d4_rack", F1, degree_budget=6)
        one = F1.one
        e2 = primitive_space(d4, 2)
        assert e2.dim == 8
        assert Subspace.from_rows(16, _d4_listed_degree_two_generators(d4)) == e2
        quad = ideal_closure(d4, {2: e2}, 4)
        assert quad.components[3].contains_subspace(primitive_space(d4, 3))

        def w(*ls):
            return word_index(ls, 4)

        a_vec = {w(1, 2): one, w(0, 1): one}

        def cat(x, y):
            return {cx * 16 + cy: vx * vy
                    for cx, vx in x.items() for cy, vy in y.items()}

        assert not quad.components[4].contains(cat(a_vec, a_vec))
        verdict = sdeg(d4, 6)
        assert verdict.value == 2
        assert not is_quadratic(d4, 4)
        # The degree-4 primitives do not vanish in T(V).  Each x_i x_i is in
        # E_2 (c(x_i (x) x_i) = -x_i (x) x_i), and c^2 fixes
        # x_i x_i (x) x_j x_j (x_j crosses x_i x_i to 2i - (2i - j) = j, and
        # the four crossings flip the sign four times), so the braided
        # commutator x_i x_i x_j x_j - x_j x_j x_i x_i is primitive for every
        # i != j.
        # dim 32 is the independent oracle's: perfbench/oracle.py
        # rack_primitive_dim(4) builds the coproduct by the multiplicative
        # rule and takes sympy DomainMatrix ranks over QQ.  What vanishes is
        # E_4 modulo the quadratic ideal, as in degree 3 above.
        e4 = primitive_space(d4, 4)
        assert e4.dim == 32
        for i, j in ((0, 2), (1, 3), (0, 1)):
            assert e4.contains({w(i, i, j, j): one, w(j, j, i, i): -one}), (i, j)
        assert quad.components[4].contains_subspace(e4)


def test_criterion_4_twodim_example():
    with criterion(4, "two-dimensional diagonal example: degree 2", 60):
        tw = make_preset("twodim_sdeg2", F1)
        assert sdeg(tw, 6).value == 2


def test_criterion_5_cartan_a2():
    with criterion(5, "Cartan A2: cube root gives 2, generic gives 1", 300):
        ca = make_preset("cartan_An", F3, n=2, t=3)
        assert sdeg(ca, 6).value == 2
        generic = make_preset("cartan_An", F1, n=2, q=2)
        assert sdeg(generic, 5).value == 1


def test_criterion_6_gurevich_enveloping():
    with criterion(6, "three-dimensional quadratic enveloping algebra", 120):
        gu = make_preset("gurevich", F1)
        table = preset_bracket(gu, "gurevich")  # validates on construction
        fq = enveloping_filtration(table, 4, 2)
        lie = lie_check(table, 4, 2, filtration=fq)
        assert lie.status == "is_lie_up_to"
        pbw = pbw_check(table, 4, 2, filtration=fq)
        assert pbw.status == "pbw_consistent"
        assert pbw.gr_dims == [1, 3, 6, 10, 15]
        assert is_quadratic(gu, 4)
        assert primitive_check(table, 4, 2, filtration=fq)


def test_criterion_7_hecke_rigidity():
    with criterion(7, "Hecke rigidity: nonzero brackets always fail", 60):
        rng = random.Random(97)
        for d, q in ((2, 3), (2, -2), (3, 3)):
            hg = make_preset("hecke_gl", F1, d=d, q=q)
            e2 = primitive_space(hg, 2)
            trials = 0
            while trials < 8:
                rows = []
                nonzero = False
                for _ in range(e2.dim):
                    vec = {}
                    for j in range(d):
                        coeff = rng.randint(-2, 2)
                        if coeff:
                            vec[j] = F1.from_rational(coeff)
                            nonzero = True
                    rows.append(vec)
                if not nonzero:
                    continue
                trials += 1
                try:
                    table = validate_bracket(hg, BracketTable(hg, {2: rows}))
                except NotABracket:
                    continue  # rejected by the compatibility law: acceptable
                verdict = lie_check(table, 3, 2)
                assert verdict.status == "fails_certified"


def test_criterion_8_pareigis_suite():
    with criterion(8, "symmetrization operators and partial-bracket identities", 300):
        # Pi at arity 2 is Id - c on the fixed space, for every preset
        for entry in CATALOG:
            space = catalog_space(entry)
            m1 = space.field.from_rational(-1)
            zs = zeta_space(space, 2, m1)
            for row in zs.rows:
                pi = pi_zeta(space, 2, m1, row)
                expected = dict(row)
                for c, v in space.apply_word(2, (1,), row).items():
                    cur = expected.get(c, space.field.zero) - v
                    if cur.is_zero():
                        expected.pop(c, None)
                    else:
                        expected[c] = cur
                assert pi == expected
            assert check_pi_su(space, 2)
            assert check_pi_in_E(space, 2, m1)
        # shuffle-length generating function at every root available in m = 12
        f12 = field_make(12)
        for n in range(1, 7):
            for i in range(n + 1):
                for k in range(12):
                    zeta = f12.gen ** k
                    total = f12.zero
                    for _sigma, length in shuffles(i, n - i):
                        total = total + zeta ** length
                    assert total == q_binomial(n, i, zeta)
        # partial-bracket identities on both bracket fixtures at arity 2 and 3
        from braidcalc.pareigis import verify_PL

        gu = make_preset("gurevich", F3)
        assert verify_PL(preset_bracket(gu, "gurevich"), 2) == {
            "pl1": True, "pl2": True, "pl3": True}
        assert verify_PL(preset_bracket(gu, "gurevich"), 3) == {
            "pl1": True, "pl2": True, "pl3": True}
        fl = make_braiding("flip", {"d": 3}, F3)
        assert verify_PL(preset_bracket(fl, "sl2_flip"), 2) == {
            "pl1": True, "pl2": True, "pl3": True}
        assert verify_PL(preset_bracket(fl, "sl2_flip"), 3) == {
            "pl1": True, "pl2": True, "pl3": True}


def test_criterion_9_cross_algorithm_oracle():
    with criterion(9, "symmetrizer ranks equal stabilised tower components", 900):
        for entry in CATALOG:
            space = catalog_space(entry)
            upto = 5 if space.dim <= 3 else 5
            assert nichols_via_tower(space, upto) == nichols_dims(space, upto), \
                entry["preset"]
        rng = random.Random(1234)
        f12 = field_make(12)
        scalars = [f12.gen ** k for k in range(12)] + [
            f12.from_rational(2), f12.from_rational(-2), f12.from_fraction(1, 2),
            f12.from_fraction(-1, 3)]
        for trial in range(20):
            d = rng.randint(2, 3)
            upto = 5 if d == 2 else 4
            qmat = [[rng.choice(scalars) for _ in range(d)] for _ in range(d)]
            space = make_braiding("diagonal", {"q": qmat}, f12)
            assert nichols_via_tower(space, upto) == nichols_dims(space, upto), \
                (trial, [[str(q) for q in row] for row in qmat])


def test_criterion_10_structural_suites():
    with criterion(10, "structural property suites, exact throughout", 900):
        # construction-time braid-equation validation, with a failing witness
        for entry in CATALOG:
            catalog_space(entry)
        one = F1.one
        from braidcalc.spaces import BraidedSpace

        with pytest.raises(YBENotSatisfied):
            BraidedSpace(F1, 2, {
                (0, 0): (((0, 1), one),), (0, 1): (((0, 0), one),),
                (1, 0): (((1, 0), one),), (1, 1): (((1, 1), one),)}, "broken")
        # braid relations for random signed words
        rng = random.Random(5)
        for space in (make_preset("gurevich", F1), make_preset("d4_rack", F1)):
            for _ in range(6):
                prefix = tuple(rng.choice((1, -1)) * rng.randint(1, 3)
                               for _ in range(rng.randint(0, 2)))
                i = rng.randint(1, 2)
                left = prefix + (i, i + 1, i)
                right = prefix + (i + 1, i, i + 1)
                for w in range(space.power(4)):
                    vec = {w: space.field.one}
                    assert space.apply_word(4, left, vec) == \
                        space.apply_word(4, right, vec)
        # coassociativity of the coproduct components
        for space in (make_preset("gurevich", F1),
                      make_braiding("scalar", {"d": 2, "q": F4.gen}, F4)):
            dim_c = space.dim
            for (a, b, c) in ((1, 1, 1), (2, 1, 1), (1, 1, 2)):
                n = a + b + c
                for w in range(space.power(n)):
                    lhs = {}
                    for u, s in boxed_delta(space, a + b, c)[w].items():
                        hi, lo = divmod(u, space.power(c))
                        for r, t in boxed_delta(space, a, b)[hi].items():
                            key = r * space.power(c) + lo
                            cur = lhs.get(key, space.field.zero) + s * t
                            if cur.is_zero():
                                lhs.pop(key, None)
                            else:
                                lhs[key] = cur
                    rhs = {}
                    for u, s in boxed_delta(space, a, b + c)[w].items():
                        hi, lo = divmod(u, space.power(b + c))
                        for r, t in boxed_delta(space, b, c)[lo].items():
                            key = hi * space.power(b + c) + r
                            cur = rhs.get(key, space.field.zero) + s * t
                            if cur.is_zero():
                                rhs.pop(key, None)
                            else:
                                rhs[key] = cur
                    assert lhs == rhs
            del dim_c
        # injectivity ladder on every iterate of the towers that move
        for space, upto in ((make_preset("twodim_sdeg2", F1), 5),
                            (make_preset("cartan_An", F3, n=2, t=3), 5),
                            (make_braiding("flip", {"d": 2}, F1), 4)):
            for k, it in enumerate(tower_iterates(space, upto)):
                if k == 0:
                    continue
                ladder = delta_injectivity_ladder(it, min(k + 1, upto))
                assert all(ladder.values()), (space.kind, k)
        # symmetrizer factorization through every split of small degrees
        for space in (make_preset("gurevich", F1), make_preset("d4_rack", F1)):
            for a, b in ((1, 1), (1, 2), (2, 1), (2, 2), (0, 3)):
                assert symmetrizer_factorization_check(space, a, b)
        # associated-graded bound against the symmetric algebra on every
        # enveloping run of the bracket fixtures
        gu = make_preset("gurevich", F1)
        fl = make_braiding("flip", {"d": 3}, F1)
        runs = [
            (preset_bracket(gu, "gurevich"), 4),
            (preset_bracket(fl, "sl2_flip"), 4),
            (BracketTable.zero(gu, 5), 3),
        ]
        for table, cutoff in runs:
            verdict = pbw_check(table, cutoff, 2)
            assert verdict.theta_bound_ok
