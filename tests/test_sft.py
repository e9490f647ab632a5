import time

import pytest

from ckdual.sft import (
    MatrixFormatError,
    NonBinaryEntryError,
    NotSquareError,
    ZeroColumnError,
    ZeroRowError,
    count_letters,
    count_words,
    enumerate_words,
    is_aperiodic,
    is_irreducible,
    load_matrix,
    parse_matrix_json,
    parse_matrix_text,
    satisfies_cantor_condition,
    validate_matrix,
    word_str,
)

from helpers import FIB, IDENT2, SWAP, all_valid_matrices, is_admissible, ones, relation_family


def test_validate_accepts_fibonacci_and_identity():
    assert validate_matrix([[1, 1], [1, 0]]).rows == ((1, 1), (1, 0))
    assert validate_matrix([[1, 0], [0, 1]]).n == 2


def test_validate_rejections():
    with pytest.raises(ZeroRowError) as err:
        validate_matrix([[1, 1], [0, 0]])
    assert err.value.index == 2
    with pytest.raises(ZeroColumnError) as err:
        validate_matrix([[1, 0], [1, 0]])
    assert err.value.index == 2
    with pytest.raises(NotSquareError):
        validate_matrix([[1, 1], [1]])
    with pytest.raises(NotSquareError):
        validate_matrix([])
    with pytest.raises(NonBinaryEntryError):
        validate_matrix([[1, 2], [1, 1]])
    with pytest.raises(NonBinaryEntryError):
        validate_matrix([[1, True], [1, 1]])


def _aperiodic_by_powers(a, max_power=64):
    # independent oracle: some power of A is entrywise positive
    rows = [list(r) for r in a.rows]
    cur = rows
    for _ in range(max_power):
        if all(all(e > 0 for e in r) for r in cur):
            return True
        cur = [
            [sum(cur[i][k] * rows[k][j] for k in range(a.n)) for j in range(a.n)]
            for i in range(a.n)
        ]
        # keep entries bounded; positivity pattern is all that matters
        cur = [[min(e, 1) for e in r] for r in cur]
    return False


def test_aperiodicity_examples():
    assert is_aperiodic(ones(2))
    assert is_aperiodic(FIB)  # A^3 is entrywise positive
    assert not is_aperiodic(SWAP)  # powers alternate between I and the swap
    assert not is_aperiodic(IDENT2)  # reducible


def test_aperiodicity_matches_power_oracle():
    for a in relation_family() + [SWAP, IDENT2] + all_valid_matrices(3):
        assert is_aperiodic(a) == _aperiodic_by_powers(a)


def _irreducible_by_powers(a):
    # independent oracle: (I + A)^(n-1) is entrywise positive
    step = [[int(i == j or a.entry(i, j)) for j in range(a.n)] for i in range(a.n)]
    cur = [[int(i == j) for j in range(a.n)] for i in range(a.n)]
    for _ in range(a.n - 1):
        cur = [
            [min(1, sum(cur[i][k] * step[k][j] for k in range(a.n))) for j in range(a.n)]
            for i in range(a.n)
        ]
    return all(all(r) for r in cur)


def test_adjacency_views_and_graph_predicates_match_dense_oracles():
    for a in relation_family() + all_valid_matrices(3):
        n = a.n
        assert a.succ == tuple(tuple(j for j in range(n) if a.entry(i, j)) for i in range(n))
        assert a.pred == tuple(tuple(i for i in range(n) if a.entry(i, j)) for j in range(n))
        assert a.pred == a.transpose().succ
        assert is_irreducible(a) == _irreducible_by_powers(a)
        permutation = all(sum(r) == 1 for r in a.rows) and all(
            sum(r[j] for r in a.rows) == 1 for j in range(n)
        )
        assert satisfies_cantor_condition(a) == (is_irreducible(a) and not permutation)


def test_cantor_condition():
    assert satisfies_cantor_condition(ones(2))
    assert not satisfies_cantor_condition(SWAP)  # two-point shift
    assert not satisfies_cantor_condition(IDENT2)  # two fixed points
    assert satisfies_cantor_condition(FIB)


def test_cantor_false_means_bounded_word_growth():
    # brute force: the irreducible matrices failing the Cantor check are the
    # permutations, whose shift spaces are finite orbits; word counts stall.
    for a in (SWAP, validate_matrix([[0, 1, 0], [0, 0, 1], [1, 0, 0]])):
        assert count_words(a, 12) == count_words(a, 1)
    assert count_words(ones(2), 12) == 2**12


def test_enumerate_words_examples():
    assert enumerate_words(ones(2), 2) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert enumerate_words(FIB, 2) == [(0, 0), (0, 1), (1, 0)]  # 22 excluded
    assert enumerate_words(FIB, 0) == [()]


def test_word_counts_fibonacci():
    assert [count_words(FIB, m) for m in range(1, 6)] == [2, 3, 5, 8, 13]
    assert count_words(ones(2), 3) == 8
    assert count_words(FIB, 0) == 1


def test_count_matches_enumeration_up_to_8():
    for a in relation_family() + all_valid_matrices(3):
        for m in range(0, 9):
            words = enumerate_words(a, m)
            assert count_words(a, m) == len(words)
            assert all(is_admissible(a, w) for w in words)
            assert words == sorted(words)


def test_count_letters_matches_word_counts_and_stops_past_the_limit():
    for a in relation_family():
        for lo, hi in [(0, 0), (3, 3), (0, 6), (2, 7)]:
            exact = sum(count_words(a, m) * m for m in range(lo, hi + 1))
            assert count_letters(a, lo, hi, 10**9) == exact
            for limit in (exact - 1, exact, exact // 3):
                got = count_letters(a, lo, hi, limit)
                # exact up to the limit; past it, a lower bound that passes it
                assert got == exact if exact <= limit else limit < got <= exact


def _words_step_by_step(a, m):
    """The admissible words of length m, one letter appended per step."""
    if m == 0:
        return [()]
    words = [(i,) for i in range(a.n)]
    for _ in range(m - 1):
        words = [w + (j,) for w in words for j in range(a.n) if a.entry(w[-1], j)]
    return words


def test_enumeration_matches_step_by_step_reference_on_all_3x3():
    for a in all_valid_matrices(3):
        ref = [_words_step_by_step(a, m) for m in range(9)]
        for m in range(9):
            assert enumerate_words(a, m) == ref[m], (a.rows, m)
        for lo, hi in [(0, 8), (1, 1), (2, 7), (5, 8)]:
            assert enumerate_words(a, lo, hi) == [w for m in range(lo, hi + 1) for w in ref[m]]


def test_enumerate_words_rejects_a_bad_range():
    for lo, hi in [(-1, 2), (3, 2)]:
        with pytest.raises(ValueError, match="0 <= lo <= hi"):
            enumerate_words(FIB, lo, hi)


def test_count_letters_is_exact_at_once_when_the_count_stops_growing():
    # the row sums of a permutation matrix never change, so the total is summed
    # in closed form; one step per length took 18 s on [[1]] at 2^24
    one, budget = validate_matrix([[1]]), 1 << 24
    cases = [
        (one, budget, budget, budget),
        (one, 0, 5792, sum(range(5793))),
        (SWAP, budget // 2, budget // 2, budget),
        (SWAP, budget, budget, 2 * budget),
        (IDENT2, 3, budget // 4, 2 * sum(range(3, budget // 4 + 1))),
    ]
    start = time.perf_counter()
    for a, lo, hi, exact in cases:
        assert count_letters(a, lo, hi, budget) == exact
    assert time.perf_counter() - start < 1.0


def test_count_letters_rejects_a_length_over_the_limit_without_counting():
    assert count_letters(SWAP, 10**9, 10**9, 1 << 24) == 10**9


@pytest.mark.parametrize(
    "text", ['{"n": 2, "rows": [[1, 1], [1, 0]]}', "1 1\n1 0\n"], ids=["json", "text"]
)
def test_load_matrix_skips_a_byte_order_mark(tmp_path, text):
    p = tmp_path / "m"
    p.write_text("\ufeff" + text, encoding="utf-8")
    assert load_matrix(str(p)) == FIB


def test_transpose_involution_and_aperiodicity_invariance():
    for a in relation_family():
        assert a.transpose().transpose() == a
        assert is_aperiodic(a) == is_aperiodic(a.transpose())


def test_transpose_examples():
    assert FIB.transpose() == FIB  # symmetric
    a = validate_matrix([[0, 1], [1, 1]])
    assert a.transpose() == a  # also symmetric
    b = validate_matrix([[1, 1, 0], [0, 1, 1], [1, 0, 1]])
    assert b.transpose().rows == ((1, 0, 1), (1, 1, 0), (0, 1, 1))
    for a in all_valid_matrices(3):
        assert a.transpose().rows == tuple(tuple(a.entry(i, j) for i in range(3)) for j in range(3))


def test_word_str_rendering():
    assert word_str((0, 1)) == "12"
    assert word_str(()) == ""
    assert word_str((0, 9)) == "1.10"


def test_parse_json_rejects_garbage_and_mismatch():
    assert parse_matrix_json('{"n": 2, "rows": [[1,1],[1,0]]}') == FIB
    with pytest.raises(MatrixFormatError):
        parse_matrix_json('{"n": 2, "rows": [[1,1],[1,0]]} trailing')
    with pytest.raises(MatrixFormatError):
        parse_matrix_json('{"n": 3, "rows": [[1,1],[1,0]]}')
    with pytest.raises(MatrixFormatError):
        parse_matrix_json('{"rows": [[1,1],[1,0]]}')


def test_parse_json_rejects_boolean_n():
    # bool is a subclass of int, so True would otherwise pass as n = 1
    for text in ('{"n": true, "rows": [[1]]}', '{"n": false, "rows": []}'):
        with pytest.raises(MatrixFormatError, match='"n" must be an integer'):
            parse_matrix_json(text)


def test_parse_text_rejects_garbage():
    assert parse_matrix_text("1 1\n1 0\n") == FIB
    with pytest.raises(MatrixFormatError):
        parse_matrix_text("1 1\n1 0\nleftover\n")
    with pytest.raises(MatrixFormatError):
        parse_matrix_text("1 2\n1 0\n")
    with pytest.raises(MatrixFormatError):
        parse_matrix_text("")
