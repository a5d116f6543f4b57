import random

from functools import partial

import pytest
from hypothesis import assume, given, settings

from braidcalc.errors import BadParams, InternalCheckError, NotACoideal
from braidcalc import linalg, tensorbialg, tower as tower_mod
from braidcalc.linalg import Subspace, boxed, unboxed
from braidcalc.scalars import field_make
from braidcalc.spaces import make_braiding, make_preset, word_index
from braidcalc.tensorbialg import (
    component_columns,
    has_primitives,
    nichols_dims,
    primitive_kernel,
    primitive_space,
)
from braidcalc.tower import (
    IdealTower,
    _close_components,
    _lifted_primitives,
    _project,
    ideal_closure,
    is_quadratic,
    nichols_via_tower,
    sdeg,
    symmetric_step,
    tower_iterates,
)
from oracles import (
    all_at_once_kernel,
    boxed_delta,
    coproduct_kernel,
    delta_injectivity_ladder,
    ideal_closure_dn,
    quotient_primitive_rows,
    quotient_primitives,
    reduce_bidegree,
    symmetrizer_rank,
    tower_iterates_dn,
)
from test_tensorbialg import (certified_primitives, corrupt_lift, nichols_spaces,
                              property_spaces, route_spy)

F1 = field_make(1)
F3 = field_make(3)
F4 = field_make(4)
F6 = field_make(6)


def w(space, *letters):
    return word_index(letters, space.dim)


def test_closure_of_classical_commutator():
    fl = make_braiding("flip", {"d": 2}, F1)
    gen = {w(fl, 0, 1): F1.one, w(fl, 1, 0): -F1.one}
    tower = ideal_closure(fl, {2: [gen]}, 5)
    # the quotient is the polynomial algebra on two variables
    assert tower.dims == [1, 2, 3, 4, 5, 6]
    # the per-degree ideals are the symmetrizer kernels
    for n in range(2, 6):
        assert tower.components[n].dim == fl.power(n) - symmetrizer_rank(fl, n)


def test_closure_of_nothing_is_tensor_algebra():
    gu = make_preset("gurevich", F1)
    tower = ideal_closure(gu, {}, 4)
    assert tower.dims == [1, 3, 9, 27, 81]
    assert all(c.is_zero() for c in tower.components)


def test_closure_rejects_non_coideal_generators():
    fl = make_braiding("flip", {"d": 2}, F1)
    # a single monomial is not a coideal generator
    with pytest.raises(NotACoideal):
        ideal_closure(fl, {2: [{w(fl, 0, 1): F1.one}]}, 4)
    with pytest.raises(BadParams):
        ideal_closure(fl, {1: [{0: F1.one}]}, 4)


def test_symmetric_step_reaches_symmetric_algebra():
    gu = make_preset("gurevich", F1)
    first = symmetric_step(IdealTower.tensor_algebra(gu, 4))
    assert first.dims == [1, 3, 6, 10, 15]
    # a second step is a fixpoint here
    assert symmetric_step(first) is first


def test_quotient_primitives_match_plain_primitives_on_t():
    d4 = make_preset("d4_rack", F1)
    qb = IdealTower.tensor_algebra(d4, 4)
    for n in (2, 3, 4):
        assert quotient_primitives(qb, n) == primitive_space(d4, n)


@pytest.fixture(scope="module")
def d4_six():
    """d4_rack with the primitives of T(V) memoized up to degree 6: step 1 of
    its degree-6 tower, shared by the tests that need it."""
    d4 = make_preset("d4_rack", F1)
    for n in range(2, 7):
        primitive_space(d4, n)
    return d4


def test_d4_quartic_classes_are_quotient_primitives(d4_six):
    d4 = d4_six
    iterates = tower_iterates(d4, 6)
    s_one = iterates[1]
    prims4 = quotient_primitives(s_one, 4)
    one = F1.one
    a = {w(d4, 1, 2): one, w(d4, 0, 1): one}
    b = {w(d4, 1, 0): one, w(d4, 2, 1): one}

    def cat(x, y):
        out = {}
        for cx, vx in x.items():
            for cy, vy in y.items():
                out[cx * 16 + cy] = vx * vy
        return out

    def plus(x, y):
        out = dict(x)
        for c, v in y.items():
            cur = out.get(c, F1.zero) + v
            if cur.is_zero():
                out.pop(c, None)
            else:
                out[c] = cur
        return out

    a2, b2, abba = cat(a, a), cat(b, b), plus(cat(a, b), cat(b, a))
    J4 = s_one.components[4]
    for vec in (a2, b2, abba):
        assert prims4.contains(vec)
        assert not J4.contains(vec)  # nontrivial classes in the quotient


def test_primitive_degrees_live_inside_lower_ideal_for_d4():
    # degree-3 and degree-4 primitives add no generators beyond degree 2
    d4 = make_preset("d4_rack", F1)
    e2 = primitive_space(d4, 2)
    tower = ideal_closure(d4, {2: e2}, 4)
    assert tower.components[3].contains_subspace(primitive_space(d4, 3))
    assert tower.components[4].contains_subspace(primitive_space(d4, 4))
    # while the quartic relation classes stay outside
    one = F1.one
    a = {w(d4, 1, 2): one, w(d4, 0, 1): one}
    a2 = {}
    for cx, vx in a.items():
        for cy, vy in a.items():
            a2[cx * 16 + cy] = vx * vy
    assert not tower.components[4].contains(a2)


def test_sdeg_scalar_regular_certified():
    sc = make_braiding("scalar", {"d": 2, "q": 2}, F1)
    verdict = sdeg(sc, 5)
    assert verdict.value == 0
    assert verdict.status == "certified"


def test_sdeg_scalar_root_of_unity():
    scz = make_braiding("scalar", {"d": 2, "q": F4.gen}, F4)
    verdict = sdeg(scz, 6)
    assert verdict.value == 1
    assert verdict.status == "certified"
    assert verdict.tower_trace[-1]["dims"] == [1, 2, 4, 8, 0, 0, 0]


def test_sdeg_hecke_flip():
    for d in (2, 3):
        fl = make_braiding("flip", {"d": d}, F1)
        verdict = sdeg(fl, 5)
        assert verdict.value == 1
        assert verdict.status == "certified"


def test_sdeg_examples_kharchenko():
    tw = make_preset("twodim_sdeg2", F1)
    assert sdeg(tw, 6).value == 2
    ca = make_preset("cartan_An", F3, n=2, t=3)
    assert sdeg(ca, 6).value == 2
    ca_generic = make_preset("cartan_An", F1, n=2, q=2)
    verdict = sdeg(ca_generic, 5)
    assert verdict.value == 1
    assert verdict.status == "lower_bound_at_cutoff"


def test_sdeg_cartan_certifies_at_degree_nine():
    ca = make_preset("cartan_An", F3, n=2, t=3, degree_budget=9)
    verdict = sdeg(ca, 9)
    assert verdict.value == 2
    assert verdict.status == "certified"
    # the stabilised dimensions sum to t^(number of positive roots)
    assert sum(verdict.tower_trace[-1]["dims"]) == 27


def test_tower_monotonicity():
    tw = make_preset("twodim_sdeg2", F1)
    iterates = tower_iterates(tw, 6)
    for prev, nxt in zip(iterates, iterates[1:]):
        for n in range(7):
            assert prev.components[n].dim <= nxt.components[n].dim
            assert nxt.components[n].contains_subspace(
                prev.components[n])
            assert prev.dims[n] >= nxt.dims[n]
    for it in iterates:
        # one degree's dimension, read without building the list; it is the
        # codimension of the ideal component
        assert it.dims == [it.dim(n) for n in range(7)] == \
            [tw.power(n) - it.components[n].dim for n in range(7)]


def test_nichols_via_tower_cross_check():
    for space, upto in (
        (make_braiding("flip", {"d": 2}, F1), 5),
        (make_braiding("scalar", {"d": 2, "q": F4.gen}, F4), 6),
        (make_preset("gurevich", F1), 5),
        (make_preset("twodim_sdeg2", F1), 6),
        (make_preset("cartan_An", F3, n=2, t=3), 6),
    ):
        assert nichols_via_tower(space, upto) == nichols_dims(space, upto), space.kind


def test_nichols_via_tower_random_diagonal(seed=20):
    rng = random.Random(seed)
    F12 = field_make(12)
    scalars = [F12.gen ** k for k in range(12)] + [
        F12.from_rational(2), F12.from_fraction(1, 2), F12.from_rational(-2)]
    for _ in range(6):
        d = rng.randint(2, 3)
        qmat = [[rng.choice(scalars) for _ in range(d)] for _ in range(d)]
        space = make_braiding("diagonal", {"q": qmat}, F12)
        upto = 4
        assert nichols_via_tower(space, upto) == nichols_dims(space, upto)


def test_injectivity_ladder_on_iterates():
    tw = make_preset("twodim_sdeg2", F1)
    iterates = tower_iterates(tw, 5)
    for k, it in enumerate(iterates):
        if k == 0:
            continue
        ladder = delta_injectivity_ladder(it, min(k + 1, 5))
        assert all(ladder.values()), (k, ladder)
    ca = make_preset("cartan_An", F3, n=2, t=3)
    iterates = tower_iterates(ca, 6)
    for k, it in enumerate(iterates[1:], start=1):
        ladder = delta_injectivity_ladder(it, min(k + 1, 6))
        assert all(ladder.values())


def test_kernel_equality_across_bidegrees():
    # when all components one level down are injective, the inner kernels at
    # the next level coincide (and equal the primitives there)
    ca = make_preset("cartan_An", F3, n=2, t=3)
    iterates = tower_iterates(ca, 6)
    qb = iterates[1]
    space = qb.space
    level = 3
    if all(delta_injectivity_ladder(qb, level - 1).values()):
        kernels = []
        from oracles import kernel_basis

        for a in range(1, level):
            cols = boxed_delta(space, a, level - a)
            rows = {}
            for word in range(space.power(level)):
                red = reduce_bidegree(qb, cols[word], a, level - a)
                for r, val in red.items():
                    rows.setdefault(r, {})[word] = val
            kernels.append(Subspace.from_rows(
                space.power(level),
                kernel_basis(rows.values(), space.power(level),
                             one=space.field.one)))
        for other in kernels[1:]:
            assert other == kernels[0]


def test_is_quadratic_examples():
    fl = make_braiding("flip", {"d": 2}, F1)
    assert is_quadratic(fl, 4)
    gu = make_preset("gurevich", F1)
    assert is_quadratic(gu, 4)
    d4 = make_preset("d4_rack", F1)
    assert not is_quadratic(d4, 4)
    with pytest.raises(BadParams):
        is_quadratic(fl, 2)


def test_coideal_verification_full_mode():
    gu = make_preset("gurevich", F1)
    e2 = primitive_space(gu, 2)
    tower = ideal_closure_dn(gu, {2: e2}, 4, verify="full")
    assert tower.dims == [1, 3, 6, 10, 15]
    assert ideal_closure(gu, {2: e2}, 4).components == tower.components


def test_sdeg_cutoff_honesty_for_higher_root_orders():
    # at t = 4 the second tower step only appears at degree 2t = 8, so a
    # cutoff of 6 must report a lower bound of 1, never a certified 1
    ca4 = make_preset("cartan_An", F4, n=2, t=4)
    verdict = sdeg(ca4, 6)
    assert verdict.value == 1
    assert verdict.status == "lower_bound_at_cutoff"
    ca4_deep = make_preset("cartan_An", F4, n=2, t=4, degree_budget=8)
    deeper = sdeg(ca4_deep, 8)
    assert deeper.value == 2


def _counting_steps(monkeypatch):
    import braidcalc.tower as tower_mod

    calls = []
    real = tower_mod.symmetric_step

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(tower_mod, "symmetric_step", counted)
    return calls


def _verdict(v):
    return v.value, v.status, v.tower_trace, v.certificate


def test_tower_memo_serves_sdeg_after_nichols_via_tower(monkeypatch):
    calls = _counting_steps(monkeypatch)
    fresh = sdeg(make_preset("cartan_An", F3, n=2, t=3), 6)
    fresh_steps = len(calls)
    assert fresh_steps == fresh.value + 1
    ca = make_preset("cartan_An", F3, n=2, t=3)
    assert nichols_via_tower(ca, 6) == nichols_dims(ca, 6)
    before = len(calls)
    assert _verdict(sdeg(ca, 6)) == _verdict(fresh)
    assert len(calls) == before


def test_tower_memo_resumes_after_truncated_run(monkeypatch):
    calls = _counting_steps(monkeypatch)
    full = tower_iterates(make_preset("cartan_An", F3, n=2, t=3), 6)
    del calls[:]
    ca = make_preset("cartan_An", F3, n=2, t=3)
    head = tower_iterates(ca, 6, max_steps=1)
    assert len(head) == 2 and len(calls) == 1
    head.append(None)  # the caller's list is its own, not the memo
    resumed = tower_iterates(ca, 6)
    assert len(calls) == len(full)
    assert resumed == full
    assert tower_iterates(ca, 6, max_steps=1) == resumed[:2]
    assert tower_iterates(ca, 6, max_steps=1)[1] is resumed[1]
    assert len(calls) == len(full)
    assert _verdict(sdeg(ca, 6)) == _verdict(
        sdeg(make_preset("cartan_An", F3, n=2, t=3), 6))


def test_stacked_and_one_at_a_time_kernels_agree():
    from braidcalc.linalg import matvec

    for space in (make_preset("d4_rack", F1),
                  make_preset("cartan_An", F3, n=2, t=3)):
        qb = tower_iterates(space, 4, max_steps=1)[1]
        reduce = partial(reduce_bidegree, qb)
        for n in (3, 4):
            size = space.power(n)
            parts = range(1, n)
            # the library solves the components one at a time; the oracle
            # stacks every reduced component into one system
            shrunk = coproduct_kernel(space, n, parts, qb.dims, reduce)
            stacked = all_at_once_kernel(
                [{w: space.field.one} for w in range(size)],
                [lambda x, a=a: reduce(matvec(boxed_delta(space, a, n - a), x),
                                       a, n - a) for a in parts])
            assert Subspace.from_rows(size, stacked) == \
                Subspace.from_rows(size, shrunk) == \
                quotient_primitives(qb, n), (space.kind, n)


def test_closure_rejects_generators_that_are_not_braiding_stable():
    # one degree-2 primitive of the rack: the coideal half holds, but c moves
    # it to primitives outside the ideal it generates
    d4 = make_preset("d4_rack", F1)
    e2 = primitive_space(d4, 2)
    row = e2.rows[0]
    assert e2.contains(row)
    with pytest.raises(NotACoideal):
        ideal_closure(d4, {2: [row]}, 3)
    with pytest.raises(NotACoideal):
        ideal_closure_dn(d4, {2: [row]}, 3)
    # unchecked, the two closures of the row agree
    closed = IdealTower(d4, 3)
    _close_components(closed, {2: [unboxed(row, F1)]}, 3)  # the closure's raw rows
    assert closed.dims == ideal_closure_dn(d4, {2: [row]}, 3, verify="off").dims


def _mutation_cases():
    return ((make_preset("d4_rack", F1), 4),
            (make_preset("cartan_An", F3, n=2, t=3), 6))


def test_light_check_catches_a_non_primitive_word(monkeypatch):
    import braidcalc.tower as tower_mod

    real = tower_mod._lifted_primitives

    def mutated(tower, n):
        prims = real(tower, n)
        if prims and tower.generators:
            # add to the first primitive a normal word it lacks
            extra = next(w for w in tower.levels[n][0] if w not in prims[0])
            prims = [{**prims[0], extra: tower.space.field.raw_one}] + prims[1:]
        return prims

    for space, cutoff in _mutation_cases():
        first = symmetric_step(IdealTower.tensor_algebra(space, cutoff))
        monkeypatch.setattr(tower_mod, "_lifted_primitives", mutated)
        with pytest.raises(InternalCheckError, match="not a coideal"):
            symmetric_step(first)
        monkeypatch.undo()
        assert symmetric_step(first).added, space.kind


def test_a_primitive_at_or_below_the_step_count_bound_trips_the_check(monkeypatch):
    # iterate k has no primitives in degree <= k + 1, where the step reads
    # (n - 1, 1) alone; an extra row in such a degree must stop the step
    real = tower_mod._lifted_primitives
    for space, cutoff in _mutation_cases():
        tripped = []
        for k, tower in enumerate(tower_iterates(space, cutoff)[1:], 1):
            def mutated(tower, n):
                prims = real(tower, n)
                if n <= k + 1 and tower.levels[n] is not None:
                    prims = prims + [{tower.levels[n][0][0]: tower.space.field.raw_one}]
                return prims

            if all(tower.levels[n] is None for n in range(2, k + 2)):
                continue
            monkeypatch.setattr(tower_mod, "_lifted_primitives", mutated)
            with pytest.raises(InternalCheckError, match="step-count guarantee"):
                symmetric_step(tower, _assert_no_new_below=k + 1)
            monkeypatch.undo()
            symmetric_step(tower, _assert_no_new_below=k + 1)
            tripped.append(k)
        assert tripped, space.kind


def test_light_check_catches_a_dropped_lower_generator():
    # the step's new generators are primitive modulo J; without J's
    # lower-degree generators their coproducts leave J' (x) T + T (x) J'
    tw = make_preset("twodim_sdeg2", F1)
    for space, cutoff in _mutation_cases() + ((tw, 6),):
        first = symmetric_step(IdealTower.tensor_algebra(space, cutoff))
        lowest = min(first.generators)
        kept = first.generators[lowest]
        first.generators[lowest] = []
        with pytest.raises(InternalCheckError, match="not a coideal"):
            symmetric_step(first)
        # on twodim_sdeg2 each of the two quadratic generators is needed
        for j in range(len(kept) if space is tw else 0):
            first.generators[lowest] = kept[:j] + kept[j + 1:]
            with pytest.raises(InternalCheckError, match="not a coideal"):
                symmetric_step(first)


def test_tower_after_step_one_builds_no_word_space(d4_six, monkeypatch):
    # with step 1 memoized, every later iterate lives in quotient
    # coordinates: no Subspace of V^(x)n, n >= 3, is built
    d4_six._memo.pop(("tower", 6), None)
    ambient = []
    real = Subspace.__init__

    def counted(self, ncols, rows):
        ambient.append(ncols)
        real(self, ncols, rows)

    monkeypatch.setattr(Subspace, "__init__", counted)
    word_spaces = {d4_six.power(n) for n in range(3, 7)}
    verdict = sdeg(d4_six, 6)
    assert verdict.tower_trace[-1]["dims"] == [1, 4, 8, 12, 14, 12, 8]
    assert [c for c in ambient if c in word_spaces] == []
    # reading the components is what builds them
    assert tower_iterates(d4_six, 6)[2].components[3].dim == 64 - 12
    assert sorted(c for c in ambient if c in word_spaces) == sorted(word_spaces)


@settings(derandomize=True, max_examples=50, deadline=None, database=None)
@given(nichols_spaces())
def test_quotient_towers_agree_with_the_word_route(space):
    cutoff = 4 if space.dim >= 4 else 5
    iterates = tower_iterates(space, cutoff)
    oracle = tower_iterates_dn(space, cutoff)
    assert [(it.dims, it.added) for it in iterates] == \
        [(it.dims, it.added) for it in oracle], space.kind
    for it, dn in zip(iterates, oracle):
        assert it.components == dn.components, space.kind
    for prev, nxt in zip(iterates, iterates[1:]):
        for n in range(cutoff + 1):
            assert nxt.components[n].contains_subspace(prev.components[n])
            assert nxt.dims[n] <= prev.dims[n]
    if sdeg(space, cutoff).status == "certified":
        assert nichols_via_tower(space, cutoff) == nichols_dims(space, cutoff)


def assert_quotient_primitives_are_exact(space, cutoff):
    # every iterate's certified quotient primitives, read back in d^n with
    # J_n added, against the exact kernel of the components reduced modulo
    # J (x) T + T (x) J factor by factor
    for k, it in enumerate(tower_iterates(space, cutoff)):
        reduce = partial(reduce_bidegree, it)
        for n in range(2, cutoff + 1):
            exact = coproduct_kernel(space, n, range(1, n), it.dims, reduce)
            assert quotient_primitives(it, n) == \
                Subspace.from_rows(space.power(n), exact), (space.kind, k, n)


def test_quotient_primitives_match_the_exact_oracle():
    for space, cutoff in _mutation_cases():
        assert_quotient_primitives_are_exact(space, cutoff)


@settings(derandomize=True, max_examples=30, deadline=None, database=None)
@given(property_spaces())
def test_quotient_primitives_match_the_exact_oracle_on_drawn_spaces(space):
    assert_quotient_primitives_are_exact(space, 4 if space.dim >= 3 else 5)


def test_a_corrupted_quotient_lift_falls_back_to_the_same_trace(monkeypatch):
    import braidcalc.linalg as linalg

    # the rack's quotient primitives have only unit entries, which the
    # corruption keeps; cartan_An's (1, 2 and 3 z^2 over Q(zeta_12)) it does
    # not, and over a field of degree 4 its kernels take the modular route
    F12 = field_make(12)
    expected = sdeg(make_preset("cartan_An", F12, n=2, t=3), 6)
    space = make_preset("cartan_An", F12, n=2, t=3)
    # step 1 memoized first, so only the quotient primitives are corrupted
    for n in range(2, 7):
        primitive_space(space, n)
    seen = route_spy(monkeypatch)
    monkeypatch.setattr(linalg, "rational_lift", corrupt_lift(linalg.rational_lift))
    verdict = sdeg(space, 6)
    assert seen.count("exact") == 1 and set(seen) - {"exact"}
    assert (verdict.value, verdict.status, verdict.tower_trace) == \
        (expected.value, expected.status, expected.tower_trace)


# -- the route rule: exact on a monomial braiding over a field of degree < 3 --

def assert_the_route_changes_no_rows(space, cutoff):
    """The rule's rows are `certified_kernel`'s, for E_n, n <= 4, and for the
    quotient primitives of the first tower step up to the cutoff."""
    for n in range(2, 5):
        assert primitive_space(space, n).rows == certified_primitives(space, n).rows, n
    iterates = tower_iterates(space, cutoff, max_steps=1)
    for n in range(2, cutoff + 1) if len(iterates) > 1 else ():
        rows = _lifted_primitives(iterates[1], n)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(tensorbialg, "primitive_kernel", lambda space, maps, count:
                       linalg.certified_kernel(maps, count, space.field))
            assert _lifted_primitives(iterates[1], n) == rows, n


@settings(derandomize=True, max_examples=30, deadline=None, database=None)
@given(property_spaces())
def test_the_route_rule_changes_no_rows(space):
    assume(space.monomial)
    assert_the_route_changes_no_rows(space, 4 if space.dim >= 3 else 5)


def test_the_route_rule_changes_no_quotient_primitives():
    # monomial spaces whose first tower step leaves quotient primitives
    for space in (make_preset("cartan_An", F3, n=2, t=3), make_preset("twodim_sdeg2", F1)):
        assert tower_iterates(space, 6)[2].added  # the second step adjoins some
        assert_the_route_changes_no_rows(space, 6)


@pytest.mark.parametrize("build, exact", [
    (lambda: make_preset("d4_rack", F1), True),
    (lambda: make_braiding("diagonal", {"q": [[-F3.one, F3.gen], [F3.gen, -F3.one]]}, F3),
     True),
    (lambda: make_preset("hecke_gl", F1), False),
    (lambda: make_preset("gurevich", F1), False),
    (lambda: make_preset("cartan_An", field_make(5), n=2, t=5), False),
], ids=["d4_rack", "diagonal_zeta3", "hecke_gl", "gurevich", "cartan_An_zeta5"])
def test_the_route_rule_reads_the_braiding(monkeypatch, build, exact):
    # has_primitives, primitive_space and the quotient primitives of sdeg
    space = build()
    assert (space.monomial and space.field.degree < 3) == exact
    seen = route_spy(monkeypatch)
    has_primitives(space, 4)
    primitive_space(space, 3)
    sdeg(space, 4)
    assert seen and (set(seen) == {"exact"} if exact else "exact" not in seen)


def spy_on_the_rule(mp, module):
    """Patch module's `primitive_rows` to log, for each call, its degree n,
    the b of each component (n - b, b) it reads, in order, and its rows."""
    real, seen = tensorbialg.primitive_rows, []

    def spied(space, n, count, columns, pivots):
        read = []
        rows = real(space, n, count,
                    lambda a, b, keep: read.append(b) or columns(a, b, keep), pivots)
        seen.append((n, read, rows))
        return rows

    mp.setattr(module, "primitive_rows", spied)
    return seen


def assert_the_rule_reads(n, read, rows, nonzero):
    """The components read are (n - 1, 1), then (n - b, b) for each b in
    2..n-1 with P_b != 0 (nonzero(b)), up to the first that leaves no kernel."""
    expected = [1] + [b for b in range(2, n) if nonzero(b)]
    assert read == expected[:len(read)] and (read == expected or not rows), (n, read, expected)


def assert_the_step_rows_match_the_oracle(space, cutoff):
    """On T(V) and in every degree of every iterate: the rows are the
    all-components oracle's, and the components read follow the rule."""
    space._memo.clear()
    with pytest.MonkeyPatch.context() as mp:
        seen = spy_on_the_rule(mp, tensorbialg)
        for n in range(2, cutoff + 1):
            primitive_space(space, n)
    assert [n for n, *_ in seen] == list(range(2, cutoff + 1))
    tensor = IdealTower.tensor_algebra(space, cutoff)
    for n, read, rows in seen:
        assert_the_rule_reads(n, read, rows, lambda b: primitive_space(space, b).dim)
        assert [boxed(r, space.field) for r in rows] == quotient_primitive_rows(tensor, n), n

    real, steps = tower_mod._lifted_primitives, []
    iterates = tower_iterates(space, cutoff)
    with pytest.MonkeyPatch.context() as mp:
        seen = spy_on_the_rule(mp, tower_mod)

        def spied(tower, n):
            start = len(seen)
            rows = real(tower, n)
            steps.append((tower, n, [c for c in seen[start:] if c[0] == n], rows))
            return rows

        mp.setattr(tower_mod, "_lifted_primitives", spied)
        for tower in iterates:
            symmetric_step(tower)
    for tower in iterates:
        mine = [(n, calls, rows) for t, n, calls, rows in steps if t is tower]
        assert [n for n, *_ in mine] == list(range(2, cutoff + 1))
        for n, calls, rows in mine:
            if tower.levels[n] is not None:
                (_, read, raw), = calls
                assert_the_rule_reads(n, read, raw, lambda b: _lifted_primitives(tower, b))
            assert [boxed(r, space.field) for r in rows] == quotient_primitive_rows(tower, n), n


@settings(derandomize=True, max_examples=30, deadline=None, database=None)
@given(property_spaces())
def test_step_rows_match_the_all_components_oracle(space):
    assert_the_step_rows_match_the_oracle(space, 4 if space.dim >= 3 else 5)


def test_step_rows_match_the_oracle_above_a_later_iterates_primitives():
    # the second step adjoins primitives of degree 4 or 5 and solves the
    # degrees above from every component; on the Q(zeta_6) space the one
    # component (5, 1) alone has a kernel of dimension 1 in degree 6, where
    # the quotient has no primitives
    z = F6.gen
    for space, cutoff, added in (
            (make_preset("d4_rack", F1), 5, {4: 2}), (make_preset("twodim_sdeg2", F1), 6, {4: 1}),
            (make_braiding("diagonal", {"q": [[z ** 4, z], [z ** 2, z ** 3]]}, F6), 6, {5: 1})):
        iterates = tower_iterates(space, cutoff)
        assert iterates[2].added == added
        assert_the_step_rows_match_the_oracle(space, cutoff)
        if space.field is F6:
            # (5, 1) alone leaves a kernel of dimension 1 in degree 6, which
            # (1, 5), read at the pivots of iterate 1's P_5, removes
            tower = iterates[1]
            words = tower.levels[6][0]
            first = [_project(tower, col, 5, 1) for col in component_columns(space, 5, 1, words)]
            assert (len(_lifted_primitives(tower, 6)),
                    len(primitive_kernel(space, [first], len(words)))) == (0, 1)


@pytest.mark.parametrize("build, cutoff", [
    (lambda: make_preset("gurevich", F1), 5),
    (lambda: make_preset("hecke_gl", F4, d=3, q=F4.gen), 4),
], ids=["gurevich", "hecke_gl_zeta4"])
def test_step_rows_match_the_oracle_on_the_modular_route(monkeypatch, build, cutoff):
    space = build()
    seen = route_spy(monkeypatch)
    assert_the_step_rows_match_the_oracle(space, cutoff)
    assert seen and "exact" not in seen


def test_lifted_primitives_called_alone_read_the_lower_degrees_from_the_tower():
    # a fresh copy of an iterate has no memo: the top degree alone fills in
    # the pivots of each lower degree it reads, with the oracle's rows
    z = F6.gen
    for space, cutoff in ((make_preset("d4_rack", F1), 5), (make_preset("twodim_sdeg2", F1), 6),
                          (make_braiding("diagonal", {"q": [[z ** 4, z], [z ** 2, z ** 3]]}, F6), 6)):
        for tower in tower_iterates(space, cutoff)[1:]:
            fresh = ideal_closure(space, {}, cutoff, base=tower)
            assert fresh == tower and not fresh._pivots
            rows = _lifted_primitives(fresh, cutoff)
            assert [boxed(r, space.field) for r in rows] == \
                quotient_primitive_rows(tower, cutoff), space.kind
            assert set(fresh._pivots) <= {n for n in range(2, cutoff + 1)
                                          if tower.levels[n] is not None}
            assert rows == _lifted_primitives(tower, cutoff)
