"""Shared fixtures: matrix families, random generators, and the constructors
that only tests build with (the word-model oracle is in ``oracles``)."""

from __future__ import annotations

import random
from fractions import Fraction

from ckdual import ckalg, duality
from ckdual.fock import FockBasis, FockOperator
from ckdual.sft import ZeroOneMatrix, enumerate_words, validate_matrix
from ckdual.zlinalg import IntMatrix


def ones(n: int) -> ZeroOneMatrix:
    return validate_matrix([[1] * n for _ in range(n)])


FIB = validate_matrix([[1, 1], [1, 0]])
SWAP = validate_matrix([[0, 1], [1, 0]])
IDENT2 = validate_matrix([[1, 0], [0, 1]])
CYCLE3 = validate_matrix([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
CHORD3 = validate_matrix([[1, 1, 0], [0, 1, 1], [1, 0, 1]])
SPARSE3 = validate_matrix([[1, 1, 1], [1, 0, 0], [0, 1, 0]])
RING4 = validate_matrix([[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1], [1, 0, 0, 1]])
MIXED4 = validate_matrix([[1, 1, 1, 0], [1, 0, 0, 1], [0, 1, 1, 1], [1, 0, 1, 0]])


def all_valid_matrices(n: int) -> list:
    """Every valid n x n 0/1 matrix (feasible for n <= 3: 7 and 265 of them)."""
    import itertools

    patterns = [p for p in itertools.product((0, 1), repeat=n) if any(p)]
    out = []
    for rows in itertools.product(patterns, repeat=n):
        if all(any(r[j] for r in rows) for j in range(n)):
            out.append(validate_matrix([list(r) for r in rows]))
    return out


def all_valid_2x2() -> list:
    out = all_valid_matrices(2)
    assert len(out) == 7
    return out


def relation_family() -> list:
    """The fixed matrix family used for relation and lemma verification."""
    return all_valid_2x2() + [ones(3), CYCLE3, CHORD3, SPARSE3, ones(4), RING4, MIXED4]


def higher_block(a: ZeroOneMatrix, block: int) -> ZeroOneMatrix:
    """The higher-block presentation A^[N], a conjugacy of the shift of A.

    Vertices are the admissible N-words in lexicographic order, with an edge
    u -> v iff u[1:] == v[:-1].
    """
    words = enumerate_words(a, block)
    by_prefix = {}
    for j, v in enumerate(words):
        by_prefix.setdefault(v[:-1], []).append(j)
    rows = []
    for u in words:
        row = [0] * len(words)
        for j in by_prefix.get(u[1:], ()):
            row[j] = 1
        rows.append(row)
    return validate_matrix(rows)


def out_split(a: ZeroOneMatrix, state: int, first) -> ZeroOneMatrix:
    """Out-split ``state``, a conjugacy of the shift of A.

    ``state`` keeps the edges to the successors in ``first`` and a new last
    state n takes its other out-edges; both copies inherit every edge into
    ``state``.  ``first`` must be a nonempty proper subset of the successors.
    """
    n = a.n
    succ = {j for j in range(n) if a.entry(state, j)}
    first = set(first)
    if not first or not first < succ:
        raise ValueError("first must be a nonempty proper subset of the successors")
    rows = [[a.entry(i, j) for j in range(n)] + [a.entry(i, state)] for i in range(n)]
    rows.append(list(rows[state]))
    for j in succ:
        drop = n if j in first else state
        rows[drop][j] = 0
        if j == state:
            rows[drop][n] = 0
    return validate_matrix(rows)


def in_split(a: ZeroOneMatrix, state: int, first) -> ZeroOneMatrix:
    """In-split ``state``: the out-split of A^T at it, transposed back.

    ``state`` keeps the edges from the predecessors in ``first`` and a new
    last state n takes its other in-edges; both copies inherit every edge out
    of ``state``.
    """
    return out_split(a.transpose(), state, first).transpose()


def random_valid_matrix(rng: random.Random, n: int) -> ZeroOneMatrix:
    """A valid n x n 0/1 matrix (zero rows/columns repaired, then revalidated)."""
    rows = [[1 if rng.random() < 0.45 else 0 for _ in range(n)] for _ in range(n)]
    for i in range(n):
        if not any(rows[i]):
            rows[i][rng.randrange(n)] = 1
    for j in range(n):
        if not any(r[j] for r in rows):
            rows[rng.randrange(n)][j] = 1
    return validate_matrix(rows)


def random_aperiodic_matrices(seed: int, count: int, n_max: int = 8) -> list:
    from ckdual.sft import is_aperiodic

    rng = random.Random(seed)
    out = []
    while len(out) < count:
        a = random_valid_matrix(rng, rng.randint(2, n_max))
        if is_aperiodic(a):
            out.append(a)
    return out


def random_word(rng: random.Random, a: ZeroOneMatrix, max_len: int):
    """A random admissible word of length 0..max_len (random walk on the graph)."""
    length = rng.randint(0, max_len)
    word = ()
    for _ in range(length):
        if not word:
            word = (rng.randrange(a.n),)
        else:
            succ = [j for j in range(a.n) if a.entry(word[-1], j)]
            word = word + (rng.choice(succ),)
    return word


def random_ck(rng: random.Random, tag: ckalg.AlgebraTag, max_terms: int = 3, max_len: int = 3):
    coeffs = [Fraction(c) for c in (-2, -1, 1, 2)] + [Fraction(1, 2), Fraction(-3, 2)]
    x = ckalg.tensor_zero((tag,))
    for _ in range(rng.randint(1, max_terms)):
        mu = random_word(rng, tag.matrix, max_len)
        nu = random_word(rng, tag.matrix, max_len)
        x = x + ck_monomial(tag, mu, nu, rng.choice(coeffs))
    return x


# ---------------------------------------------------------------------------
# constructors that no CLI command needs


def is_admissible(a: ZeroOneMatrix, word) -> bool:
    """Every two consecutive letters of the word are an edge of A (read
    through ``entry``)."""
    return all(a.entry(u, v) for u, v in zip(word, word[1:]))


def ck_monomial(tag: ckalg.AlgebraTag, mu, nu, coeff=1) -> ckalg.TensorElement:
    """coeff * s_mu s_nu* with 0-based admissible words."""
    mu, nu = tuple(mu), tuple(nu)
    assert all(is_admissible(tag.matrix, w) for w in (mu, nu)), (mu, nu)
    return ckalg.tensor_elem((tag,), ((mu, nu),), coeff)


def z_power(factors, pos: int, d: int, coeff=1) -> ckalg.TensorElement:
    """coeff * z^d in the circle factor at ``pos``: the pair (0^d, ()) of
    O_[1] for d >= 0, and ((), 0^-d) for d < 0."""
    key = ((0,) * d, ()) if d >= 0 else ((), (0,) * -d)
    return ckalg.embed_ck(factors, pos, ckalg.tensor_elem((ckalg.LAURENT,), (key,), coeff))


def forget_grading(x: ckalg.TensorElement) -> ckalg.TensorElement:
    """Evaluation z -> 1 on O_A (x) C(S^1): the circle factor collapsed."""
    out = {}
    for (pair, _z), c in x.terms.items():
        out[(pair,)] = out.get((pair,), 0) + c
    return ckalg.TensorElement(x.factors[:1], out)


def verify_w(a: ZeroOneMatrix) -> bool:
    """w*w = ww* = sum_{i,j} A[i][j] s_j s_j* (x) t_i t_i*."""
    w, p = ckalg.w_element(a), ckalg.w_range_projection(a)
    return (ckalg.tensor_equal(ckalg.ck_multiply(w.adjoint(), w), p)
            and ckalg.tensor_equal(ckalg.ck_multiply(w, w.adjoint()), p))


def fock_identity(basis: FockBasis) -> FockOperator:
    """The identity operator on the basis."""
    every = basis.positions
    return FockOperator(basis, dict(zip(every, every)), {}, 0, 0)


def hybrid_unit(basis: FockBasis) -> duality.HybridElement:
    """I (x) 1, with the quotient image 1 (x) 1."""
    a = basis.matrix
    return duality.hybrid(basis, [(fock_identity(basis), ckalg.ck_unit(ckalg.o_a(a)))],
                          [ckalg.tensor_unit((ckalg.o_a(a), ckalg.o_at(a)))])


def basis_words(b: FockBasis) -> list:
    """The words of the basis in order, enumerated afresh: independent of the
    basis's own ranking."""
    return enumerate_words(b.matrix, 0, b.m_max)


def word_positions(b: FockBasis) -> dict:
    """Word -> basis position, read off ``basis_words``."""
    return {w: i for i, w in enumerate(basis_words(b))}


def zero_matrix(rows: int, cols: int) -> IntMatrix:
    return IntMatrix(rows, cols, ((0,) * cols,) * rows)


def identity_matrix(n: int) -> IntMatrix:
    return IntMatrix.from_rows([[int(i == j) for j in range(n)] for i in range(n)])
