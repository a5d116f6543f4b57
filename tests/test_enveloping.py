import random

import pytest

from braidcalc.enveloping import (
    BracketTable,
    FilteredQuotient,
    enveloping_filtration,
    hecke_presentation,
    lie_check,
    pbw_check,
    primitive_check,
    symmetric_algebra_dims,
    validate_bracket,
)
from braidcalc.errors import BadParams, DomainMismatch, IrregularMark, NotABracket
from braidcalc.fixtures import preset_bracket
from braidcalc.scalars import field_make
from braidcalc.spaces import make_braiding, make_preset, word_index
from braidcalc.linalg import Subspace
from braidcalc.tensorbialg import primitive_space
from oracles import filtration_braiding_stable, primitive_check_all_words

F1 = field_make(1)
F3 = field_make(3)
F4 = field_make(4)


def gurevich_with_bracket():
    gu = make_preset("gurevich", F1)
    return gu, preset_bracket(gu, "gurevich")


def sl2_with_bracket():
    fl = make_braiding("flip", {"d": 3}, F1)
    return fl, preset_bracket(fl, "sl2_flip")


def test_zero_bracket_is_always_valid():
    for space in (make_preset("d4_rack", F1), make_preset("gurevich", F1)):
        table = BracketTable.zero(space, 4)
        assert validate_bracket(space, table).is_zero()


def test_bracket_validation_examples():
    gu, table = gurevich_with_bracket()
    assert table.validated and not table.is_zero()
    fl, sl2 = sl2_with_bracket()
    assert sl2.validated
    # a wrong column count is a domain error
    with pytest.raises(DomainMismatch):
        validate_bracket(gu, BracketTable(gu, {2: [{0: F1.one}]}))


def test_bracket_validation_rejects_incompatible_values():
    hg = make_preset("hecke_gl", F1, d=2, q=3)
    assert primitive_space(hg, 2).dim == 1
    with pytest.raises(NotABracket):
        validate_bracket(hg, BracketTable(hg, {2: [{0: F1.one}]}))


def test_zero_bracket_reproduces_symmetric_algebra():
    # two independent code paths: homogeneous tower vs filtration spans
    for space, cutoff in ((make_braiding("flip", {"d": 2}, F1), 4),
                          (make_preset("gurevich", F1), 4),
                          (make_braiding("scalar", {"d": 2, "q": F4.gen}, F4), 5)):
        table = BracketTable.zero(space, cutoff + 2)
        fq = enveloping_filtration(table, cutoff, 2)
        s_dims = symmetric_algebra_dims(space, cutoff)
        sigma = []
        total = 0
        for s in s_dims:
            total += s
            sigma.append(total)
        assert fq.dims_U == sigma, space.kind
        assert not fq.unconstrained


def test_symmetric_dims_reuse_the_first_tower_step(monkeypatch):
    # the symmetric algebra is the tower's first iterate, which sdeg built
    import braidcalc.tower as tower_mod
    from braidcalc.tower import sdeg

    gu = make_preset("gurevich", F1)
    sdeg(gu, 4)
    calls = []
    real = tower_mod._lifted_primitives

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(tower_mod, "_lifted_primitives", counted)
    assert symmetric_algebra_dims(gu, 4) == [1, 3, 6, 10, 15]
    assert calls == []


def test_gurevich_enveloping_dims():
    gu, table = gurevich_with_bracket()
    fq = enveloping_filtration(table, 4, 2)
    # monomials e0^a e1^b e2^c of total degree <= n
    assert fq.dims_U == [1, 4, 10, 20, 35]
    assert fq.unconstrained == [3, 4, 5, 6]
    # degrees above the bracket's cutoff are decided without a basis of E_t
    assert ("primitives", 5) not in gu._memo
    assert ("primitives", 6) not in gu._memo
    verdict = pbw_check(table, 4, 2, filtration=fq)
    assert verdict.status == "pbw_consistent"
    assert verdict.gr_dims == [1, 3, 6, 10, 15]
    assert verdict.theta_bound_ok
    assert lie_check(table, 4, 2, filtration=fq).status == "is_lie_up_to"
    assert primitive_check(table, 4, 2, filtration=fq)


def test_unconstrained_degrees_skip_vanishing_primitives():
    # cartan_An n = 2 at t = 3: E_2 = E_5 = 0 while E_3, E_4, E_6 are not
    def space():
        return make_preset("cartan_An", field_make(3), n=2, t=3)

    fresh = space()
    assert [primitive_space(fresh, t).dim > 0 for t in range(2, 7)] == \
        [False, True, True, False, True]
    fq = enveloping_filtration(BracketTable.zero(space(), 2), 4, 2)
    assert fq.unconstrained == [3, 4, 6]


def test_filtration_decides_unconstrained_degrees_on_first_read(monkeypatch):
    import braidcalc.enveloping as enveloping_mod

    calls = []
    real = enveloping_mod.has_primitives

    def counted(space, t):
        calls.append(t)
        return real(space, t)

    monkeypatch.setattr(enveloping_mod, "has_primitives", counted)
    gu, table = gurevich_with_bracket()
    fq = enveloping_filtration(table, 4, 2)
    pbw_check(table, 4, 2, filtration=fq)
    primitive_check(table, 4, 2, filtration=fq)
    assert calls == []
    assert fq.unconstrained == [3, 4, 5, 6]
    assert calls == [3, 4, 5, 6]
    assert fq.unconstrained == [3, 4, 5, 6]
    assert calls == [3, 4, 5, 6]


def test_filtered_quotient_refuses_an_unvalidated_table():
    # the primitive check solves on the normal words, which needs the
    # braiding-compatibility law a validated table carries
    fl = make_braiding("flip", {"d": 3}, F1)
    table = BracketTable(fl, {2: [{1: F1.one}, {}, {}]})
    for build in (lambda: FilteredQuotient(table, 3, 1),
                  lambda: enveloping_filtration(table, 3, 1),
                  lambda: primitive_check(table, 3, 1)):
        with pytest.raises(BadParams, match="validate the bracket"):
            build()


def _zero_in_degree_2(space):
    return validate_bracket(space, BracketTable(
        space, {2: [{}] * primitive_space(space, 2).dim}))


def _primitive_check_cases():
    """(name, bracket, cutoff, slack, verdict): the Jacobi-breaking bracket
    on the flip, zero degree-2 tables that leave primitives of degree >= 3
    unconstrained, and the two Lie brackets, gurevich also at slack 0 with
    no product degree built."""
    fl = make_braiding("flip", {"d": 3}, F1)
    one = F1.one
    jacobi_breaking = validate_bracket(
        fl, BracketTable(fl, {2: [{2: one}, {0: -one}, {0: one}]}))
    return [
        ("flip_jacobi_breaking", jacobi_breaking, 4, 2, False),
        ("twodim_sdeg2_zero", _zero_in_degree_2(make_preset("twodim_sdeg2", F1)), 4, 1, False),
        ("cartan_An_zero", _zero_in_degree_2(make_preset("cartan_An", F3, n=2, t=3)), 4, 1,
         False),
        ("gurevich", gurevich_with_bracket()[1], 4, 2, True),
        ("sl2_flip", sl2_with_bracket()[1], 4, 2, True),
        ("gurevich_degree_1", gurevich_with_bracket()[1], 1, 0, True),
    ]


@pytest.mark.parametrize("case", range(6))
def test_primitive_check_solves_on_normal_words_as_on_all_words(case):
    # the span solved over the free words equals the remainders of the span
    # solved over every word, and the verdicts agree
    name, table, cutoff, slack, verdict = _primitive_check_cases()[case]
    fq = enveloping_filtration(table, cutoff, slack)
    span, oracle_verdict = primitive_check_all_words(fq, cutoff)
    solved = Subspace.from_rows(fq.ncols, fq.primitives(cutoff), table.space.field)
    assert solved == span, name
    assert primitive_check(table, cutoff, slack, filtration=fq) is oracle_verdict is verdict, name


def test_classical_sl2_pbw():
    fl, table = sl2_with_bracket()
    fq = enveloping_filtration(table, 4, 2)
    assert fq.dims_U == [1, 4, 10, 20, 35]
    assert pbw_check(table, 4, 2, filtration=fq).status == "pbw_consistent"
    assert lie_check(table, 4, 2, filtration=fq).status == "is_lie_up_to"
    assert primitive_check(table, 4, 2, filtration=fq)


def test_jacobi_violation_is_certified():
    fl = make_braiding("flip", {"d": 3}, F1)
    one = F1.one
    bad = validate_bracket(
        fl, BracketTable(fl, {2: [{2: one}, {0: -one}, {0: one}]}))
    fq = enveloping_filtration(bad, 4, 2)
    verdict = lie_check(bad, 4, 2, filtration=fq)
    assert verdict.status == "fails_certified"
    assert verdict.witness  # a nonzero vector of V inside the ideal
    pbw = pbw_check(bad, 4, 2, filtration=fq)
    assert pbw.status == "fails_certified"


def test_filtration_stabilization_flags():
    gu, table = gurevich_with_bracket()
    fq = enveloping_filtration(table, 4, 2)
    stab = fq.stabilized
    assert all(stab[n] for n in range(2, 5))
    fq0 = enveloping_filtration(table, 4, 0)
    assert not any(fq0.stabilized[n] for n in range(2, 5))


@pytest.mark.parametrize("cutoff, slack", [(c, s) for c in range(4) for s in range(3)])
def test_every_small_cutoff_and_slack_gives_a_verdict(cutoff, slack):
    # below top 2 the filtration records no history, and T_(0) has no
    # degree-1 block; the ideal dimensions are counted off the pivots
    for space, table in (gurevich_with_bracket(), sl2_with_bracket()):
        fq = enveloping_filtration(table, cutoff, slack)
        assert [fq.ideal_dim(n) for n in range(cutoff + 1)] == \
            [hist[-1] if hist else 0 for hist in fq.history.values()]
        pbw = pbw_check(table, cutoff, slack, filtration=fq)
        assert pbw.gr_dims == [1, 3, 6, 10][:cutoff + 1] == pbw.s_dims[:cutoff + 1]
        assert pbw.status == ("inconclusive_at_cutoff" if slack == 0 and cutoff >= 2
                              else "pbw_consistent")
        assert lie_check(table, cutoff, slack, filtration=fq).status == "is_lie_up_to"
        # T_(0) holds no vector of V, so none of its primitives is one
        assert primitive_check(table, cutoff, slack, filtration=fq) == (cutoff > 0)


def test_braiding_stability_of_the_ideal_spans():
    for space, table in (gurevich_with_bracket(), sl2_with_bracket()):
        fq = enveloping_filtration(table, 3, 1)
        assert filtration_braiding_stable(fq)


def test_bracket_recovered_from_multiplication():
    # inside the quotient, a degree-2 primitive equals its bracket value
    gu, table = gurevich_with_bracket()
    fq = enveloping_filtration(table, 4, 2)
    prims = primitive_space(gu, 2)
    for k, row in enumerate(prims.rows):
        mixed_u = {fq.offsets[2] + c: v for c, v in row.items()}
        value = table.entries[2][k]
        mixed_b = {fq.offsets[1] + c: v for c, v in value.items()}
        assert fq.reduce(mixed_u) == fq.reduce(mixed_b)


def test_reduce_is_canonical_however_far_the_echelon_is_reduced(seed=61):
    # a remainder by pivot rows not yet back-substituted can keep entries in
    # pivot columns; the filtration reduces the rows it needs first
    rng = random.Random(seed)
    for space, table in (gurevich_with_bracket(), sl2_with_bracket()):
        fq, full = enveloping_filtration(table, 3, 1), enveloping_filtration(table, 3, 1)
        full.echelon.rows()
        vecs = [{rng.randrange(fq.ncols): space.field.from_rational(rng.randint(1, 3))
                 for _ in range(rng.randint(1, 5))} for _ in range(60)]
        for vec in vecs[:30]:
            assert fq.reduce(vec) == full.reduce(vec)
        lie_check(table, 3, 1, filtration=fq)
        for vec in vecs[30:]:
            assert fq.reduce(vec) == full.reduce(vec)


def test_theta_bound_on_all_fixture_runs():
    for space, table in (gurevich_with_bracket(), sl2_with_bracket()):
        for cutoff in (3, 4):
            verdict = pbw_check(table, cutoff, 2)
            assert verdict.theta_bound_ok


def test_hecke_presentation_classical():
    fl, table = sl2_with_bracket()
    pres = hecke_presentation(table)
    assert pres.mark.is_one()
    assert not pres.induced_bracket_zero
    assert len(pres.relations) == 9
    # x y - y x - [x, y]: inspect the (0,1) relation
    rel = pres.relations[word_index((0, 1), 3)]
    assert rel["quadratic"] == {
        word_index((1, 0), 3): F1.one, word_index((0, 1), 3): -F1.one}
    # e h - h e + 2 e = 0, the classical [h, e] = 2e rewritten
    assert rel["linear"] == {1: F1.from_rational(2)}


def test_hecke_presentation_zero_bracket():
    hg = make_preset("hecke_gl", F1, d=2, q=3)
    table = BracketTable.zero(hg, 3)
    pres = hecke_presentation(table)
    assert pres.mark == F1.from_rational(3)
    assert pres.induced_bracket_zero
    for rel in pres.relations:
        assert rel["linear"] == {}


def test_hecke_presentation_none_for_non_hecke():
    d4 = make_preset("d4_rack", F1)
    assert hecke_presentation(BracketTable.zero(d4, 2)) is None


def test_hecke_presentation_irregular_mark():
    scz = make_braiding("scalar", {"d": 2, "q": F4.gen}, F4)
    with pytest.raises(IrregularMark):
        hecke_presentation(BracketTable.zero(scz, 2))


def test_hecke_rigidity_randomized(seed=13):
    # nonzero degree-2 bracket candidates on a Hecke braiding with regular
    # mark != 1 never yield a braided Lie algebra
    rng = random.Random(seed)
    for d, q in ((2, 3), (3, -2)):
        hg = make_preset("hecke_gl", F1, d=d, q=q)
        e2 = primitive_space(hg, 2)
        for _ in range(12):
            rows = []
            nonzero = False
            for _k in range(e2.dim):
                vec = {}
                for j in range(d):
                    coeff = rng.randint(-2, 2)
                    if coeff:
                        vec[j] = F1.from_rational(coeff)
                        nonzero = True
                rows.append(vec)
            if not nonzero:
                rows[0][0] = F1.one
            try:
                table = validate_bracket(hg, BracketTable(hg, {2: rows}))
            except NotABracket:
                continue
            verdict = lie_check(table, 3, 2)
            assert verdict.status == "fails_certified"


def test_primitive_check_scalar_root_of_unity():
    scz = make_braiding("scalar", {"d": 2, "q": F4.gen}, F4)
    table = BracketTable.zero(scz, 6)
    assert primitive_check(table, 5, 1)
