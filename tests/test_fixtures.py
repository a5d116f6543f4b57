import pytest

from braidcalc.enveloping import lie_check, pbw_check
from braidcalc.errors import BadParams, NotInZetaSpace
from braidcalc.fixtures import CATALOG, preset_bracket
from braidcalc.pareigis import zeta_space
from braidcalc.scalars import field_make, is_regular_exact
from braidcalc.spaces import make_braiding, make_preset
from braidcalc.tensorbialg import nichols_dims, primitive_space
from braidcalc.tower import is_quadratic, sdeg, symmetric_step, IdealTower
from oracles import pi_zeta

F1 = field_make(1)


def catalog_space(entry):
    field = field_make(entry["field_order"])
    return make_preset(entry["preset"], field, **entry["params"])


def test_full_catalog_run():
    """Every preset reproduces its recorded invariants."""
    for entry in CATALOG:
        space = catalog_space(entry)
        label = entry["preset"], entry["params"]
        assert primitive_space(space, 2).dim == entry["e2_dim"], label
        assert nichols_dims(space, 4) == entry["nichols_upto_4"], label
        verdict = sdeg(space, 6)
        assert verdict.value == entry["sdeg"], label
        if "sdeg_status" in entry:
            assert verdict.status == entry["sdeg_status"], label
        if "quadratic_at_4" in entry:
            assert is_quadratic(space, 4) == entry["quadratic_at_4"], label


def test_gurevich_preset_with_cyclotomic_parameters():
    # alpha/beta = 1 + z over Q(zeta_8): q = (1 + z)^2 is regular and not 1
    f8 = field_make(8)
    ab = f8.one + f8.gen
    q = ab * ab
    assert is_regular_exact(q)
    gu = make_preset("gurevich", f8, q=q, alpha_over_beta=ab)
    assert primitive_space(gu, 2).dim == 3
    table = preset_bracket(gu, "gurevich")
    assert lie_check(table, 3, 2).status == "is_lie_up_to"
    assert pbw_check(table, 3, 2).status == "pbw_consistent"


def test_preset_bracket_rejects_wrong_space():
    fl = make_braiding("flip", {"d": 2}, F1)
    with pytest.raises(BadParams):
        preset_bracket(fl, "gurevich")
    with pytest.raises(BadParams):
        preset_bracket(fl, "sl2_flip")  # needs dimension 3
    with pytest.raises(BadParams):
        preset_bracket(fl, "nonsense")


def test_pi_zeta_rejects_vectors_outside_the_eigenspace():
    gu = make_preset("gurevich", F1)
    m1 = F1.from_rational(-1)
    zs = zeta_space(gu, 2, m1)
    outside = None
    for w in range(9):
        vec = {w: F1.one}
        if not zs.contains(vec):
            outside = vec
            break
    assert outside is not None
    with pytest.raises(NotInZetaSpace):
        pi_zeta(gu, 2, m1, outside)


def test_quotient_primitives_vanish_on_strongly_graded_quotient():
    # the symmetric algebra of a root-of-unity scalar braiding has no
    # primitives above degree 1
    f4 = field_make(4)
    scz = make_braiding("scalar", {"d": 2, "q": f4.gen}, f4)
    s_step = symmetric_step(IdealTower.tensor_algebra(scz, 6))
    from oracles import quotient_primitives

    for n in range(2, 7):
        prims = quotient_primitives(s_step, n)
        assert prims == s_step.components[n]


def test_fixpoint_iff_quotient_components_injective():
    # a tower iterate is a fixpoint at the cutoff exactly when all inner
    # quotient coproduct components are injective there
    from braidcalc.tower import tower_iterates
    from oracles import delta_injectivity_ladder

    tw = make_preset("twodim_sdeg2", F1)
    iterates = tower_iterates(tw, 5)
    final = iterates[-1]
    ladder = delta_injectivity_ladder(final, 5)
    assert all(ladder.values())
    moving = iterates[0]
    ladder = delta_injectivity_ladder(moving, 5)
    assert not all(ladder.values())
