import random

import pytest

from braidcalc.errors import (
    BadParams,
    DegreeBudgetExceeded,
    SingularBraiding,
    YBENotSatisfied,
)
from braidcalc.scalars import field_make
from braidcalc.cli import parse_spec, parse_value, run
from braidcalc.spaces import (
    KINDS,
    REQUIRED,
    BraidWord,
    make_braiding,
    make_preset,
    matsumoto_lift,
    word_index,
    word_letters,
)
from oracles import (perm_compose, perm_inverse, perm_length, q_binomial,
                     rank_of_rows, shuffles)

F1 = field_make(1)
F4 = field_make(4)


def basis(space, *letters):
    return {word_index(letters, space.dim): space.field.one}


def apply_on_all(space, n, letters_a, letters_b):
    for w in range(space.power(n)):
        va = space.apply_word(n, letters_a, {w: space.field.one})
        vb = space.apply_word(n, letters_b, {w: space.field.one})
        if va != vb:
            return False
    return True


def test_flip_is_valid_and_hecke():
    fl = make_braiding("flip", {"d": 2}, F1)
    assert fl.min_poly == (-F1.one, F1.zero, F1.one)  # X^2 - 1
    info = fl.hecke_analysis()
    assert info["mark"].is_one() and info["regular"]


def test_scalar_braiding_metadata():
    sc = make_braiding("scalar", {"d": 2, "q": 5}, F1)
    assert sc.min_poly == (F1.from_rational(-5), F1.one)
    assert sc.hecke_analysis()["mark"] == F1.from_rational(5)


def test_d4_preset_formula_and_no_hecke():
    d4 = make_preset("d4_rack", F1)
    # c(z_i (x) z_j) = -z_{2i-j} (x) z_i with indices mod 4
    for i in range(4):
        for j in range(4):
            img = d4.apply_word(2, (1,), basis(d4, i, j))
            assert img == {
                word_index(((2 * i - j) % 4, i), 4): -F1.one
            }
    assert len(d4.min_poly) > 3
    assert d4.hecke_analysis() is None


def test_gurevich_preset_not_hecke():
    gu = make_preset("gurevich", F1)
    assert gu.hecke_analysis() is None
    with pytest.raises(BadParams):
        make_preset("gurevich", F1, q=3, alpha_over_beta=2)


def test_ybe_failure_witness():
    # a permutation-flavoured map that is invertible but fails the braid relation
    one = F1.one
    pairs = {
        (0, 0): (((0, 1), one),),
        (0, 1): (((0, 0), one),),
        (1, 0): (((1, 0), one),),
        (1, 1): (((1, 1), one),),
    }
    from braidcalc.spaces import BraidedSpace

    with pytest.raises(YBENotSatisfied) as err:
        BraidedSpace(F1, 2, pairs, "explicit")
    assert err.value.witness == (0, 0, 0)
    # the witness is the lexicographically first failing basis triple: this
    # map, the flip of e1 (x) e0 and e1 (x) e1, satisfies it on 000 and 001
    pairs = {
        (0, 0): (((0, 0), one),),
        (0, 1): (((0, 1), one),),
        (1, 0): (((1, 1), one),),
        (1, 1): (((1, 0), one),),
    }
    with pytest.raises(YBENotSatisfied) as err:
        BraidedSpace(F1, 2, pairs, "explicit")
    assert err.value.witness == (0, 1, 0)


def test_singular_braiding_rejected():
    one = F1.one
    pairs = {
        (0, 0): (((0, 0), one),),
        (0, 1): (((0, 0), one),),
        (1, 0): (((1, 0), one),),
        (1, 1): (((1, 1), one),),
    }
    from braidcalc.spaces import BraidedSpace

    with pytest.raises(SingularBraiding):
        BraidedSpace(F1, 2, pairs, "explicit")


def test_matsumoto_examples():
    assert matsumoto_lift((0, 1, 2)).letters == ()
    assert matsumoto_lift((1, 0)).letters == (1,)
    w0 = matsumoto_lift((2, 1, 0))
    assert len(w0.letters) == 3 == perm_length((2, 1, 0))
    gu = make_preset("gurevich", F1)
    assert apply_on_all(gu, 3, w0.letters, (2, 1, 2)) or \
        apply_on_all(gu, 3, w0.letters, (1, 2, 1))


def test_matsumoto_length_is_inversion_count(seed=2):
    rng = random.Random(seed)
    for n in (2, 3, 4, 5):
        for _ in range(20):
            sigma = list(range(n))
            rng.shuffle(sigma)
            sigma = tuple(sigma)
            assert len(matsumoto_lift(sigma).letters) == perm_length(sigma)


def test_lift_multiplicativity_on_length_additive_pairs(seed=9):
    # lift(sigma tau) = lift(sigma) lift(tau) whenever lengths add
    rng = random.Random(seed)
    gu = make_preset("gurevich", F1)
    n = 4
    checked = 0
    perms = []
    for _ in range(40):
        p = list(range(n))
        rng.shuffle(p)
        perms.append(tuple(p))
    for sigma in perms[:12]:
        for tau in perms[12:24]:
            prod = perm_compose(sigma, tau)
            if perm_length(prod) != perm_length(sigma) + perm_length(tau):
                continue
            combined = matsumoto_lift(sigma).letters + matsumoto_lift(tau).letters
            assert apply_on_all(gu, n, matsumoto_lift(prod).letters, combined)
            checked += 1
    assert checked > 0


def test_braid_relations_on_random_words(seed=31):
    rng = random.Random(seed)
    for space in (make_preset("gurevich", F1), make_preset("d4_rack", F1)):
        n = 4
        for _ in range(10):
            prefix = tuple(rng.choice((1, -1)) * rng.randint(1, n - 1)
                           for _ in range(rng.randint(0, 2)))
            i = rng.randint(1, n - 2)
            a = prefix + (i, i + 1, i)
            b = prefix + (i + 1, i, i + 1)
            assert apply_on_all(space, n, a, b)
        # far-apart generators commute
        assert apply_on_all(space, n, (1, 3), (3, 1))


def test_braid_apply_interface():
    fl = make_braiding("flip", {"d": 2}, F1)
    word = BraidWord(2, [1])
    out = fl.apply_word(word.strand_count, word.letters, basis(fl, 0, 1))
    assert out == basis(fl, 1, 0)
    # negative letters invert
    gu = make_preset("gurevich", F1)
    v = basis(gu, 2, 1)
    roundtrip = gu.apply_word(2, (1, -1), v)
    assert roundtrip == v
    # scalar braiding: positive word of length k scales by q^k
    sc = make_braiding("scalar", {"d": 2, "q": 3}, F1)
    out = sc.apply_word(3, (1, 2, 1), basis(sc, 0, 1, 1))
    assert out == {word_index((0, 1, 1), 2): F1.from_rational(27)}


def test_negative_letters_invert_every_generator():
    # q_12 != q_21, and a rack braiding that is not an involution: in both,
    # c^-1 differs from the transpose of c^-1
    q = [[F4.one, F4.gen], [F4.one, -F4.one]]
    for space in (make_braiding("diagonal", {"q": q}, F4), make_preset("d4_rack", F1)):
        for w in range(space.power(3)):
            vec = {w: space.field.one}
            for i in (1, 2):
                assert space.apply_word(3, (i, -i), vec) == vec == \
                    space.apply_word(3, (-i, i), vec), (space.kind, w, i)


def test_bad_braid_word():
    with pytest.raises(BadParams):
        BraidWord(3, [3])
    with pytest.raises(BadParams):
        BraidWord(2, [0])


def test_shuffles_enumeration():
    assert [(s, l) for s, l in shuffles(1, 1)] == [((0, 1), 0), ((1, 0), 1)]
    two_one = shuffles(2, 1)
    assert len(two_one) == 3 and sorted(l for _, l in two_one) == [0, 1, 2]
    assert shuffles(0, 3) == [((0, 1, 2), 0)]
    for sigma, length in shuffles(3, 2):
        assert perm_length(sigma) == length
        assert list(sigma[:3]) == sorted(sigma[:3])
        assert list(sigma[3:]) == sorted(sigma[3:])


def test_shuffle_length_generating_function():
    f12 = field_make(12)
    roots = [f12.gen ** k for k in range(12)]
    for n in range(1, 7):
        for i in range(n + 1):
            for zeta in roots:
                total = f12.zero
                for _sigma, length in shuffles(i, n - i):
                    total = total + zeta ** length
                assert total == q_binomial(n, i, zeta)


def test_braiding_block_conventions():
    gu = make_preset("gurevich", F1)
    # p = q = 1 is the braiding itself
    for a in range(3):
        for b in range(3):
            assert gu.braiding_block_apply(1, 1, basis(gu, a, b)) == \
                gu.apply_word(2, (1,), basis(gu, a, b))
    # p = 0 or q = 0 is the identity
    v = basis(gu, 0, 2, 1)
    assert gu.braiding_block_apply(0, 3, v) == v
    assert gu.braiding_block_apply(3, 0, v) == v
    # the flip block rotation is the plain coordinate rotation
    fl = make_braiding("flip", {"d": 2}, F1)
    out = fl.braiding_block_apply(2, 1, basis(fl, 0, 1, 1))
    assert out == basis(fl, 1, 0, 1)


@pytest.mark.parametrize("build", [
    lambda: make_preset("gurevich", F1),
    lambda: make_preset("hecke_gl", F4, d=3, q=F4.gen),
    lambda: make_preset("hecke_gl", F1, d=2, q=3),
    lambda: make_preset("d4_rack", F1),
    lambda: make_preset("cartan_An", field_make(3), n=2, t=3),
], ids=["gurevich", "hecke_gl_zeta4", "hecke_gl_3", "d4_rack", "cartan_An"])
def test_block_matrix_columns_are_the_block_braiding_words(build):
    # c^(p,1) = c_1 (Id (x) c^(p-1,1)), one generator per column, against
    # the Matsumoto lift of the block permutation, in raw coefficients
    space = build()
    one = space.field.raw_one
    for p in range(1, 5):
        assert space.braiding_block_matrix(p) == [
            space.braiding_block_apply(p, 1, {w: one}) for w in range(space.power(p + 1))], p


def test_block_composition_is_bijective():
    for space in (make_preset("gurevich", F1), make_preset("d4_rack", F1)):
        for p, q in ((1, 2), (2, 1), (2, 2)):
            n = p + q
            size = space.power(n)
            seen = {}
            for w in range(size):
                img = space.braiding_block_apply(
                    q, p, space.braiding_block_apply(p, q, {w: space.field.one}))
                for c, v in img.items():
                    seen.setdefault(c, {})[w] = v
            assert rank_of_rows(seen.values(), size) == size


def test_degree_budget_guard():
    fl = make_braiding("flip", {"d": 2}, F1, degree_budget=3)
    with pytest.raises(DegreeBudgetExceeded):
        fl.check_budget(4)


def test_min_poly_annihilates():
    for space in (make_preset("d4_rack", F1),
                  make_preset("gurevich", F1),
                  make_braiding("scalar", {"d": 2, "q": F4.gen}, F4)):
        poly = space.min_poly
        size = space.power(2)
        for w in range(size):
            acc = {}
            vec = {w: space.field.one}
            for coeff in poly:
                if not coeff.is_zero():
                    for c, v in vec.items():
                        cur = acc.get(c, space.field.zero) + coeff * v
                        if cur.is_zero():
                            acc.pop(c, None)
                        else:
                            acc[c] = cur
                vec = space.apply_word(2, (1,), vec)
            assert not acc


def test_word_coding_roundtrip():
    for d in (2, 3, 4):
        for n in (1, 2, 3):
            for idx in range(d ** n):
                assert word_index(word_letters(idx, n, d), d) == idx
    assert perm_inverse((1, 2, 0)) == (2, 0, 1)


# space.kind of what each KINDS entry builds, as the ybe report prints it
LABELS = {
    "flip": "flip", "scalar": "scalar", "diagonal": "diagonal",
    "quantum_linear": "diagonal", "explicit": "explicit",
    "preset:d4_rack": "preset:d4_rack", "preset:gurevich": "preset:gurevich",
    "preset:twodim_sdeg2": "preset:twodim_sdeg2",
    "preset:cartan_An": "preset:cartan_An", "preset:quantum_linear": "diagonal",
    "preset:hecke_gl": "preset:hecke_gl", "preset:flip": "flip",
    "preset:scalar": "scalar",
}
# values for the required parameters: the first of each list that fits
SAMPLES = {"d": ["3"], "q": ["2", "[[-1, 1], [-1, -1]]"],
           "matrix": ["[[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]]"]}


def test_every_kind_has_a_pinned_label():
    assert sorted(KINDS) == sorted(LABELS)


@pytest.mark.parametrize("key", sorted(LABELS))
def test_size_rule_matches_the_builder(key):
    # defaults plus sample required values: the dimension the parser reads
    # is the one the built space has, and the label is today's
    entry = KINDS[key]
    kind, _, name = key.partition(":")
    lines = ["kind = " + kind] + (["name = " + name] if name else [])
    for param, spec in entry.params.items():
        if spec.default is REQUIRED:
            lines.append("%s = %s" % (param, next(
                text for text in SAMPLES[param]
                if spec.shape(parse_value(F4, text, 0)) is None)))
    job = parse_spec("[field]\nm = 3\n[space]\n%s\n[tasks]\nybe\n"
                     % "\n".join(lines))
    assert run(job).tasks[0]["result"] == {
        "valid": True, "dim": job.dim, "kind": LABELS[key]}
    assert job.dim == make_braiding(
        job.space_decl["kind"], job.space_decl["params"], field_make(3)).dim
