"""The sparse fraction-free eliminator against a plain Gaussian oracle."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sunisb.linalg import nullspace, rank


def gauss_rank(rows, ncols):
    """Classic Gaussian elimination over Fraction, written independently."""
    mat = [[Fraction(x) for x in row] for row in rows]
    r = 0
    for col in range(ncols):
        pivot = next((i for i in range(r, len(mat)) if mat[i][col]), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        inv = 1 / mat[r][col]
        mat[r] = [x * inv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][col]:
                factor = mat[i][col]
                mat[i] = [x - factor * y for x, y in zip(mat[i], mat[r])]
        r += 1
    return r


matrices = st.integers(1, 5).flatmap(
    lambda ncols: st.tuples(
        st.just(ncols),
        st.lists(
            st.lists(
                st.integers(-5, 5) | st.fractions(-5, 5, max_denominator=4),
                min_size=ncols,
                max_size=ncols,
            ),
            min_size=0,
            max_size=6,
        ),
    )
)


def columns(rows, ncols):
    """The matrix's columns as sparse vectors keyed by row index, zeros dropped."""
    return [{i: row[j] for i, row in enumerate(rows) if row[j]} for j in range(ncols)]


@given(matrices)
def test_rank_matches_gaussian_oracle(data):
    ncols, rows = data
    assert rank(columns(rows, ncols)) == gauss_rank(rows, ncols)


@given(matrices)
def test_nullspace_properties(data):
    ncols, rows = data
    relations = nullspace(columns(rows, ncols))
    assert len(relations) == ncols - gauss_rank(rows, ncols)
    for rel in relations:
        assert rel and all(0 <= j < ncols for j in rel)
        assert all(type(x) is int and x for x in rel.values())
        assert gcd(*rel.values()) == 1
        assert rel[min(rel)] > 0
        for row in rows:
            assert sum(Fraction(row[j]) * x for j, x in rel.items()) == 0
    # one relation per dependent vector, each ending at its own position
    assert len({max(rel) for rel in relations}) == len(relations)
    # mutual independence
    assert rank(relations) == len(relations)


def test_hand_built_pivots():
    vectors = [{2: 1}, {0: 1, 1: 2}, {0: 2, 1: 4}]
    assert nullspace(vectors) == [{1: 2, 2: -1}]
    assert nullspace(iter(vectors)) == nullspace(vectors)
    assert rank(vectors) == 2


def test_empty_and_zero_vectors():
    assert nullspace([]) == []
    assert nullspace([{}, {0: 1}, {}]) == [{0: 1}, {2: 1}]


@pytest.mark.parametrize("solve", [rank, nullspace])
def test_float_entry_raises_value_error(solve):
    with pytest.raises(ValueError, match="^vector 1 has an entry that is not an int or Fraction$"):
        solve([{0: 1}, {1: 0.5}])


@pytest.mark.parametrize("solve", [rank, nullspace])
def test_bool_entry_raises_value_error(solve):
    # a bool is an int subclass with a denominator, so only its type tells it apart
    with pytest.raises(ValueError, match="^vector 1 has an entry that is not an int or Fraction$"):
        solve([{0: 1}, {0: True}])
