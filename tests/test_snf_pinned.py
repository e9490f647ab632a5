"""Pin the exact Smith-form transforms (U, S, V), not just their postconditions.

The pivot rule of ``smith_normal_form`` (smallest nonzero absolute value,
row-major tie-break) fixes the whole sequence of elementary operations, so
every speed-up of its inner loops must reproduce U, S and V bit for bit.  The
digests below were recorded by running ``_digest`` on these inputs with the
straightforward implementation that rescanned the full trailing submatrix at
every pivot search and applied each row and column operation to whole dense
rows, before those loops were tightened.  A changed digest means the pivot
sequence drifted, which would also change coefficient growth in U and V.
"""

from __future__ import annotations

import hashlib
import random

import pytest

from ckdual.zlinalg import IntMatrix, _eliminate, smith_normal_form
from helpers import FIB, MIXED4, higher_block, random_valid_matrix
from oracles import one_minus


def _digest(matrices) -> str:
    h = hashlib.sha256()
    for m in matrices:
        snf = smith_normal_form(m)
        h.update(repr((snf.U.entries, snf.S.entries, snf.V.entries)).encode())
    return h.hexdigest()


def _random_200():
    # the same 200 matrices as test_snf_random_200 and acceptance criterion 3
    rng = random.Random(14401)
    out = []
    for _ in range(200):
        rows, cols = rng.randint(1, 10), rng.randint(1, 10)
        out.append(IntMatrix.from_rows(
            [[rng.randint(-20, 20) for _ in range(cols)] for _ in range(rows)]
        ))
    return out


def _presentations(a):
    return [one_minus(a), one_minus(a.transpose())]


PINNED = {
    "MIXED4^[3]": (lambda: _presentations(higher_block(MIXED4, 3)),
        "0c413bcfc6798bd724a8f5e4c41b78c7ec2a07e1608c99b970aa94ff2281ea0f"),
    "FIB^[5]": (lambda: _presentations(higher_block(FIB, 5)),
        "1fe3a8124064842ef515d46464850cef458f93add84cfe8385a30e8f35ac8730"),
    "dense32": (lambda: [one_minus(random_valid_matrix(random.Random(3232), 32))],
        "2056db306ff6c4da094cbc28771ec8e96857e923db49399235c07d2a3c7e1abb"),
    "random200": (_random_200,
        "1b1329ceb9a14ce4b0a145a8f87998ffbb3c1843b7466a269ab83e2a1db16f11"),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_snf_transforms_pinned(name):
    build, expected = PINNED[name]
    assert _digest(build()) == expected


@pytest.mark.parametrize("name", sorted(PINNED))
def test_memoised_form_equals_fresh_elimination(name):
    # _eliminate runs past both memos, so the memoised S (read transposed off
    # the other matrix of its pair, for one of the two) meets a fresh one
    for m in PINNED[name][0]():
        memo = smith_normal_form(m)
        assert smith_normal_form(m) is memo
        assert memo.S == _eliminate(m, False)[0]
        assert (memo.S, memo.U, memo.V) == _eliminate(m, True)
