"""Shared fixtures: matrix families and random generators (the word-model
oracle is in ``oracles``)."""

from __future__ import annotations

import random
from fractions import Fraction

from ckdual import ckalg
from ckdual.sft import ZeroOneMatrix, enumerate_words, validate_matrix


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
        x = x + ckalg.ck_monomial(tag, mu, nu, rng.choice(coeffs))
    return x
