import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ckdual import zlinalg
from ckdual.zlinalg import (
    FGAbelianGroup,
    IntMatrix,
    SmithForm,
    _eliminate,
    cokernel,
    determinant,
    kernel_basis,
    smith_normal_form,
)

from helpers import all_valid_matrices, identity_matrix, zero_matrix
from oracles import matmul, one_minus


def check_smith(m: IntMatrix):
    snf = smith_normal_form(m)
    assert matmul(matmul(snf.U, m), snf.V).entries == snf.S.entries
    assert abs(determinant(snf.U)) == 1
    assert abs(determinant(snf.V)) == 1
    diag = snf.diagonal()
    for i in range(m.rows):
        for j in range(m.cols):
            if i != j:
                assert snf.S.entry(i, j) == 0
    prev = None
    for d in diag:
        assert d >= 0
        if prev not in (None, 0):
            assert d % prev == 0 or d == 0
        if prev == 0:
            assert d == 0
        prev = d
    return snf


def test_transpose_is_an_involution_and_keeps_empty_shapes():
    rng = random.Random(2929)
    for _ in range(50):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        m = IntMatrix.from_rows([[rng.randint(-5, 5) for _ in range(cols)] for _ in range(rows)])
        t = m.transpose()
        assert (t.rows, t.cols) == (cols, rows)
        assert all(t.entry(j, i) == m.entry(i, j) for i in range(rows) for j in range(cols))
        assert t.transpose() == m
    for rows, cols in ((0, 3), (3, 0)):
        m = zero_matrix(rows, cols)
        t = m.transpose()
        assert (t.rows, t.cols, len(t.entries)) == (cols, rows, cols)
        assert t.transpose() == m


def test_snf_examples():
    # off-diagonal -1s: unimodular, so the form is the identity
    assert check_smith(IntMatrix.from_rows([[0, -1], [-1, 0]])).diagonal() == [1, 1]
    snf = check_smith(zero_matrix(2, 2))
    assert snf.diagonal() == [0, 0]
    assert snf.U.entries == identity_matrix(2).entries
    assert snf.V.entries == identity_matrix(2).entries
    assert check_smith(IntMatrix.from_rows([[2, 0], [0, 3]])).diagonal() == [1, 6]


def test_snf_one_minus_all_ones_3x3():
    m = IntMatrix.from_rows([[0, -1, -1], [-1, 0, -1], [-1, -1, 0]])
    assert check_smith(m).diagonal() == [1, 1, 2]


def test_snf_deterministic():
    # two fresh eliminations each way: the memoised entry point would return one
    # object twice
    m = IntMatrix.from_rows([[6, 4, 2], [4, 8, 2], [2, 2, 10]])
    a, b = _eliminate(m, True), _eliminate(m, True)
    assert a == b and a[0] is not b[0]
    assert _eliminate(m, False) == (a[0], None, None)


def test_snf_rectangular():
    check_smith(IntMatrix.from_rows([[2, 4, 6]]))
    check_smith(IntMatrix.from_rows([[2], [4], [6]]))
    check_smith(IntMatrix.from_rows([[1, 2], [3, 4], [5, 6]]))


def test_snf_random_200():
    rng = random.Random(14401)
    for _ in range(200):
        rows = rng.randint(1, 10)
        cols = rng.randint(1, 10)
        m = IntMatrix.from_rows(
            [[rng.randint(-20, 20) for _ in range(cols)] for _ in range(rows)]
        )
        check_smith(m)


def test_snf_large_entries():
    # intermediate entries blow far past machine words; exactness must survive
    rng = random.Random(2024)
    for _ in range(40):
        rows, cols = rng.randint(2, 8), rng.randint(2, 8)
        m = IntMatrix.from_rows(
            [[rng.randint(-10**9, 10**9) for _ in range(cols)] for _ in range(rows)]
        )
        check_smith(m)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    st.lists(
        st.lists(st.integers(min_value=-9, max_value=9), min_size=1, max_size=4),
        min_size=1,
        max_size=4,
    ).filter(lambda rows: len({len(r) for r in rows}) == 1)
)
def test_snf_properties_hypothesis(rows):
    check_smith(IntMatrix.from_rows(rows))


@st.composite
def _int_matrices(draw):
    """Integer matrices of every shape up to 5 x 5, 0 x c and r x 0 included."""
    rows, cols = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    line = st.lists(st.integers(min_value=-9, max_value=9), min_size=cols, max_size=cols)
    return IntMatrix(rows, cols, tuple(tuple(draw(line)) for _ in range(rows)))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_int_matrices())
def test_transforms_read_after_the_fact_fit_the_eager_diagonal(m):
    zlinalg._pair_forms.clear()
    snf = smith_normal_form(m)
    assert "_transforms" not in snf.__dict__  # S came from the transform-free run
    s, u, v = _eliminate(m, True)
    assert snf.S == s
    assert (snf.U, snf.V) == (u, v)
    assert matmul(matmul(snf.U, m), snf.V) == snf.S
    assert abs(determinant(snf.U)) == abs(determinant(snf.V)) == 1


def _transposes_agree(m: IntMatrix) -> None:
    """Two independent transform-free eliminations, of m and of m^T, give
    Smith forms that are transposes of each other (they are unique)."""
    s, _, _ = _eliminate(m, False)
    st, _, _ = _eliminate(m.transpose(), False)
    assert (st.rows, st.cols) == (m.cols, m.rows)
    assert st == s.transpose()


def test_transpose_eliminates_to_the_transposed_form_on_small_presentations():
    # 1 - A for all valid 2 x 2 and 3 x 3 matrices, then non-square and empty shapes
    for a in all_valid_matrices(2) + all_valid_matrices(3):
        _transposes_agree(one_minus(a))
    for rows in ([[2, 4, 6]], [[1, 2], [3, 4], [5, 6]], [[0, 3, 0, 0], [0, 0, 0, 6]]):
        _transposes_agree(IntMatrix.from_rows(rows))
    for rows, cols in ((0, 0), (0, 3), (3, 0), (1, 1)):
        _transposes_agree(zero_matrix(rows, cols))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_int_matrices())
def test_transpose_eliminates_to_the_transposed_form(m):
    _transposes_agree(m)


def test_memoised_transpose_reads_the_transposed_form():
    # non-square, so a derived S that is not transposed has the wrong shape
    m = IntMatrix.from_rows([[2, 4, 6], [0, 3, 9]])
    mt = m.transpose()
    zlinalg._pair_forms.clear()
    a, b = smith_normal_form(m), smith_normal_form(mt)
    assert smith_normal_form(m) is a  # one miss holds the forms of both
    assert b.S == a.S.transpose()
    assert (a.S, b.S) == (_eliminate(m, False)[0], _eliminate(mt, False)[0])
    assert b.S.entries == ((1, 0), (0, 6), (0, 0))


def test_comparing_smith_forms_builds_no_transform():
    m = IntMatrix.from_rows([[2, 4, 4], [-6, 6, 12], [10, -4, -16]])
    a, b, i = (SmithForm(x, _eliminate(x, False)[0]) for x in (m, m, identity_matrix(3)))
    assert a == b and hash(a) == hash(b)
    assert a != i
    assert "_transforms" not in a.__dict__ and "_transforms" not in b.__dict__


def test_kernel_examples():
    assert kernel_basis(identity_matrix(2)) == []
    assert kernel_basis(IntMatrix.from_rows([[0]])) == [(1,)]
    basis = kernel_basis(IntMatrix.from_rows([[1, -1], [-1, 1]]))
    assert len(basis) == 1
    v = basis[0]
    assert v[0] == v[1] and abs(v[0]) == 1  # primitive multiple of (1, 1)


def test_kernel_vectors_annihilate_and_count():
    rng = random.Random(5)
    for _ in range(40):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        m = IntMatrix.from_rows(
            [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rows)]
        )
        basis = kernel_basis(m)
        rank = sum(1 for d in smith_normal_form(m).diagonal() if d)
        assert len(basis) == cols - rank
        for v in basis:
            assert all(
                sum(m.entry(i, j) * v[j] for j in range(cols)) == 0 for i in range(rows)
            )
            from math import gcd
            g = 0
            for e in v:
                g = gcd(g, e)
            assert g == 1


def test_cokernel_examples():
    assert cokernel(identity_matrix(2)) == FGAbelianGroup(0, ())
    assert cokernel(IntMatrix.from_rows([[2]])) == FGAbelianGroup(0, (2,))
    m = IntMatrix.from_rows([[0, -1, -1], [-1, 0, -1], [-1, -1, 0]])
    assert cokernel(m) == FGAbelianGroup(0, (2,))
    assert cokernel(zero_matrix(3, 2)) == FGAbelianGroup(3, ())


def test_group_canonical_form_and_str():
    with pytest.raises(ValueError):
        FGAbelianGroup(0, (1,))
    with pytest.raises(ValueError):
        FGAbelianGroup(0, (4, 2))
    with pytest.raises(ValueError):
        FGAbelianGroup(-1, ())
    g = FGAbelianGroup(2, (2, 6))
    assert str(g) == "Z^2 + Z/2 + Z/6"
    assert str(FGAbelianGroup(0, ())) == "0"
    assert str(FGAbelianGroup(1, ())) == "Z"
    assert g.to_json() == {"free_rank": 2, "torsion": [2, 6]}


def test_cokernel_finite_iff_full_rank():
    rng = random.Random(99)
    for _ in range(30):
        n = rng.randint(1, 5)
        m = IntMatrix.from_rows([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
        grp = cokernel(m)
        assert (grp.free_rank == 0) == (determinant(m) != 0)
        if grp.free_rank == 0:
            assert math.prod(grp.torsion) == abs(determinant(m))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    st.integers(min_value=1, max_value=6).flatmap(
        lambda cols: st.lists(
            st.lists(st.integers(min_value=-9, max_value=9), min_size=cols, max_size=cols),
            min_size=1,
            max_size=6,
        )
    )
)
def test_invariants_match_sympy_oracle(rows):
    # an independent implementation: sympy's invariant factors over ZZ
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import invariant_factors

    m = IntMatrix.from_rows(rows)
    factors = [abs(int(d)) for d in invariant_factors(sympy.Matrix(rows), domain=sympy.ZZ)]
    rank = sum(1 for d in factors if d)
    assert cokernel(m) == FGAbelianGroup(
        m.rows - rank, tuple(d for d in factors if d >= 2)
    )
    assert len(kernel_basis(m)) == m.cols - rank
