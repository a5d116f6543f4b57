"""The library against `independent.py`, which imports nothing from
braidcalc: RREF rows (`Subspace.from_rows`), canonical remainders
(`Echelon.reduce`), kernels of families (`left_kernel`), linear
combinations (`matvec`, the accumulate kernel) and E_2 = ker(1 + c) against
its dense Gauss-Jordan; and, read off the pair table alone, the coproduct
components (`delta_columns`), the inverse braiding (`inv_pairs`), and the
Nichols dimensions (`nichols_dims`, every `sdeg` tower iterate) against
shuffle sums of braid lifts, a matrix inverse and symmetrizer ranks."""

import ast
import pathlib

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from braidcalc.linalg import Echelon, Subspace, left_kernel, matvec
from braidcalc.scalars import field_make
from braidcalc.spaces import word_letters
from braidcalc.tensorbialg import delta_columns, nichols_dims, primitive_space
from braidcalc.tower import tower_iterates
from independent import (Cyclotomic, coproduct_component, inverse_pairs, nullspace, remainder,
                         rref, symmetrizer_rank)
from test_tensorbialg import property_spaces

ORDERS = (1, 3, 4, 5, 6)
COEFFS = (0, 0, 0, 1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3))


def dense(oracle, vec, ncols):
    return [oracle.element(vec[c].coeffs) if c in vec else oracle.zero
            for c in range(ncols)]


def plain(oracle, rows):
    """Dense rows of the oracle as {column: coefficient tuple}, zeros dropped."""
    return [{c: x for c, x in enumerate(row) if x != oracle.zero} for row in rows]


def library(oracle, rows):
    return [{c: oracle.element(v.coeffs) for c, v in row.items()} for row in rows]


@st.composite
def families(draw):
    """A field order, a column count and a few sparse vectors over it, with
    fractional coefficients among the integral ones."""
    m = draw(st.sampled_from(ORDERS))
    field = field_make(m)
    ncols = draw(st.integers(1, 6))
    scalar = st.lists(st.sampled_from(COEFFS), min_size=field.degree,
                      max_size=field.degree).map(field.scalar)
    vector = st.dictionaries(st.integers(0, ncols - 1), scalar, max_size=ncols).map(
        lambda vec: {c: s for c, s in vec.items() if s})
    rows = draw(st.lists(vector, max_size=5))
    combination = draw(st.lists(scalar, min_size=len(rows), max_size=len(rows)))
    return m, ncols, rows, draw(st.lists(vector, max_size=3)), combination


@settings(derandomize=True, max_examples=80, deadline=None, database=None)
@given(families())
def test_elimination_matches_the_independent_gauss_jordan(family):
    m, ncols, rows, vectors, combination = family
    oracle = Cyclotomic(m)
    grid = [dense(oracle, row, ncols) for row in rows]
    expected = [oracle.zero] * ncols
    for s, row in zip(combination, grid):
        scale = oracle.element(s.coeffs)
        expected = [oracle.add(x, oracle.mul(scale, y)) for x, y in zip(expected, row)]
    assert library(oracle, [matvec(rows, {i: s for i, s in enumerate(combination) if s})]) == \
        plain(oracle, [expected])
    assert library(oracle, Subspace.from_rows(ncols, rows).rows) == \
        plain(oracle, rref(oracle, grid, ncols)[0])
    ech = Echelon(ncols)
    ech.add_rows(rows)
    for vec in vectors:
        expected = remainder(oracle, grid, dense(oracle, vec, ncols))
        assert library(oracle, [ech.reduce(vec)]) == plain(oracle, [expected])
    # the kernel of the family: the columns of the matrix are its vectors
    if rows:
        matrix = [[grid[i][c] for i in range(len(rows))] for c in range(ncols)]
        assert library(oracle, left_kernel(rows, field_make(m).one)) == \
            plain(oracle, nullspace(oracle, matrix, len(rows)))


@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(property_spaces())
def test_second_primitives_match_the_kernel_of_one_plus_c(space):
    oracle, d = Cyclotomic(space.field.order), space.dim
    size = d * d
    # 1 + c on V (x) V, column a * d + b holding c(x_a (x) x_b) from the pair table
    matrix = [[oracle.one if r == col else oracle.zero for col in range(size)]
              for r in range(size)]
    for (a, b), images in space.pairs.items():
        for (a2, b2), s in images:
            r = a2 * d + b2
            matrix[r][a * d + b] = oracle.add(matrix[r][a * d + b], oracle.element(s.coeffs))
    assert library(oracle, primitive_space(space, 2).rows) == \
        plain(oracle, nullspace(oracle, matrix, size))


def test_the_independent_oracle_imports_nothing_from_braidcalc():
    source = (pathlib.Path(__file__).parent / "independent.py").read_text(encoding="utf-8")
    modules = {alias.name for node in ast.walk(ast.parse(source))
               if isinstance(node, ast.Import) for alias in node.names}
    modules |= {node.module for node in ast.walk(ast.parse(source))
                if isinstance(node, ast.ImportFrom)}
    assert modules == {"fractions", "itertools"}


def element_of(oracle, value):
    """The oracle's element for a scalar or a raw coefficient: a rational, or
    a pair of them in degree 2."""
    coeffs = getattr(value, "coeffs", value)
    return oracle.element(coeffs if isinstance(coeffs, tuple) else (coeffs,))


def oracle_pairs(oracle, table):
    """A pair table of the library, its scalars as the oracle's elements."""
    return {key: [(tgt, oracle.element(s.coeffs)) for tgt, s in images]
            for key, images in table.items()}


def small_degrees(space, top=4, words=81):
    """The degrees n <= top with at most that many words."""
    return [n for n in range(2, top + 1) if space.power(n) <= words]


@settings(derandomize=True, max_examples=30, deadline=None, database=None)
@given(property_spaces())
def test_coproduct_columns_are_shuffle_sums_of_braid_lifts(space):
    oracle, d = Cyclotomic(space.field.order), space.dim
    pairs = oracle_pairs(oracle, space.pairs)
    for n in small_degrees(space):
        for a in range(1, n):
            for w, col in enumerate(delta_columns(space, a, n - a)):
                got = {word_letters(c, n, d): element_of(oracle, v) for c, v in col.items()}
                assert got == coproduct_component(oracle, pairs, word_letters(w, n, d), a), \
                    (space.kind, n, a, w)


@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(property_spaces())
def test_inverse_braiding_is_the_inverse_matrix(space):
    oracle = Cyclotomic(space.field.order)
    expected = inverse_pairs(oracle, oracle_pairs(oracle, space.pairs), space.dim)
    got = oracle_pairs(oracle, space.inv_pairs)
    assert {k: sorted(v) for k, v in got.items()} == {k: sorted(v) for k, v in expected.items()}


@settings(derandomize=True, max_examples=30, deadline=None, database=None)
@given(property_spaces())
def test_nichols_and_tower_dims_are_symmetrizer_ranks(space):
    oracle, d = Cyclotomic(space.field.order), space.dim
    pairs = oracle_pairs(oracle, space.pairs)
    degrees = small_degrees(space, words=27)
    top = degrees[-1] if degrees else 1
    ranks = [1, d] + [symmetrizer_rank(oracle, pairs, d, n) for n in degrees]
    assert nichols_dims(space, top) == ranks
    if top < 2:
        return
    # iterate k of the tower agrees with B(V) up to degree k + 1 and lies
    # above it; the last, at its fixpoint, is B(V) up to the cutoff
    iterates = tower_iterates(space, top)
    assert iterates[0].dims == [space.power(n) for n in range(top + 1)]
    for k, tower in enumerate(iterates):
        assert all(dim >= rank for dim, rank in zip(tower.dims, ranks)), (space.kind, k)
        assert tower.dims[:k + 2] == ranks[:k + 2], (space.kind, k)
    assert iterates[-1].dims == ranks
