"""The amalgamated presentation against the unreduced one.

``ktheory`` reads every group off 1 - B, where B is A with its equal columns
and equal rows merged (``ktheory._amalgamate``).  The unreduced 1 - A, the
dense ``oracles.one_minus``, is the reference here: both must give the same
cokernels of 1 - A and 1 - A^T, the same kernel ranks and the same
det(1 - A), which ``zlinalg.determinant`` computes by Bareiss elimination,
not by the Smith form.  The size and relabelling tests pin what B is, so
that a reduction that merges nothing, or returns B^T for B, cannot pass on
the invariants alone.
"""

from __future__ import annotations

import random
from itertools import permutations

from hypothesis import given, settings

from ckdual.ktheory import _amalgamate, presentation_pair
from ckdual.sft import MatrixValidationError, validate_matrix
from ckdual.zlinalg import cokernel, determinant, kernel_basis

from helpers import FIB, MIXED4, SPARSE3, all_valid_matrices, higher_block, ones, relation_family
from oracles import one_minus
from test_ktheory import _split_of_valid_matrix


def _assert_same_invariants(a):
    pres, pres_t = presentation_pair(a)
    ref = one_minus(a)
    ref_t = ref.transpose()
    assert cokernel(pres) == cokernel(ref)
    assert cokernel(pres_t) == cokernel(ref_t)
    assert len(kernel_basis(pres)) == len(kernel_basis(ref))
    assert len(kernel_basis(pres_t)) == len(kernel_basis(ref_t))
    assert determinant(pres) == determinant(ref)
    return pres.rows


def test_exhaustive_families():
    family = all_valid_matrices(2) + all_valid_matrices(3)
    sizes = [_assert_same_invariants(a) for a in family]
    # the 92 with two equal rows or two equal columns merge, the others cannot
    assert sum(m < a.n for m, a in zip(sizes, family)) == 92


@settings(max_examples=120, deadline=None, derandomize=True)
@given(_split_of_valid_matrix())
def test_state_splittings(pair):
    # a split state has two copies with equal columns (out-split) or equal rows
    # (in-split), so every split merges at least once
    a, b = pair
    assert _assert_same_invariants(b) <= a.n


def test_higher_blocks_of_the_relation_family():
    for a in relation_family():
        for block in (2, 3):
            assert _assert_same_invariants(higher_block(a, block)) <= a.n


def _planted(rng: random.Random):
    """A random valid matrix with some columns, then some rows, copied over others."""
    while True:
        n = rng.randint(3, 8)
        rows = [[int(rng.random() < 0.45) for _ in range(n)] for _ in range(n)]
        for _ in range(rng.randint(1, n - 1)):
            src, dst = rng.sample(range(n), 2)
            for r in rows:
                r[dst] = r[src]
        for _ in range(rng.randint(0, n - 2)):
            src, dst = rng.sample(range(n), 2)
            rows[dst] = list(rows[src])
        try:
            return validate_matrix(rows)
        except MatrixValidationError:
            continue


def test_planted_equal_columns_and_rows():
    rng = random.Random(1117)
    multiplied = 0
    for _ in range(300):
        a = _planted(rng)
        m = _assert_same_invariants(a)
        # a copied column stays equal to its source through the row copies
        assert m < a.n
        multiplied += any(e > 1 for row in _amalgamate(a.succ) for e in row.values())
    # most reductions leave multiplicities above 1, where the oracle must bite too
    assert multiplied > 250


def test_amalgamation_sizes():
    # a reduction that silently merges nothing passes every invariant above
    cases = ([(MIXED4, b, 4) for b in (2, 3, 4, 5)] + [(FIB, b, 2) for b in range(6, 11)]
             + [(ones(3), b, 1) for b in (3, 4)])
    for base, block, size in cases:
        assert presentation_pair(higher_block(base, block))[0].rows == size
    a = higher_block(ones(3), 3)
    assert _amalgamate(a.succ) == [{0: 3}]


def _is_relabelling(b: list, a) -> bool:
    """Whether the multigraph b (rows {j: multiplicity}) is A up to relabelling."""
    rows = [dict.fromkeys(s, 1) for s in a.succ]
    return any(all(b[p[i]] == {p[j]: m for j, m in rows[i].items()} for i in range(a.n))
               for p in permutations(range(a.n)))


def test_higher_block_amalgamates_to_its_base():
    # SPARSE3 has out-degrees 3, 1, 1 and in-degrees 2, 2, 1, so no relabelling
    # of it is its transpose: a B returned transposed fails here
    assert not _is_relabelling([dict.fromkeys(p, 1) for p in SPARSE3.pred], SPARSE3)
    for base in (FIB, MIXED4, SPARSE3):
        for block in (2, 3, 4):
            pres, _ = presentation_pair(higher_block(base, block))
            b = [{j: (i == j) - e for j, e in enumerate(row) if (i == j) - e}
                 for i, row in enumerate(pres.entries)]
            assert _is_relabelling(b, base)


def test_input_without_equal_rows_or_columns_is_its_own_amalgamation():
    # nothing merges, so the amalgamation is A itself
    rng = random.Random(64)
    family = all_valid_matrices(3) + [
        validate_matrix([[int(rng.random() < 0.45 or i == j) for j in range(n)] for i in range(n)])
        for n in (24, 48, 64)]
    distinct = [a for a in family if len(set(a.succ)) == len(set(a.pred)) == a.n]
    assert len(distinct) > 50
    for a in distinct:
        # B's rows are A's, read through ``entry``, each edge once
        rows = [{j: 1 for j in range(a.n) if a.entry(i, j)} for i in range(a.n)]
        assert _amalgamate(a.succ) == rows
        assert presentation_pair(a)[0] == one_minus(a)
