import contextlib
import io
import json
import math
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ckdual import cli, ktheory, zlinalg
from ckdual.ktheory import duality_report, k_groups
from ckdual.sft import validate_matrix
from ckdual.zlinalg import (
    FGAbelianGroup,
    cokernel,
    determinant,
    kernel_basis,
    smith_normal_form,
)

from helpers import (
    FIB,
    MIXED4,
    SWAP,
    all_valid_matrices,
    higher_block,
    in_split,
    ones,
    out_split,
    random_aperiodic_matrices,
    random_valid_matrix,
    relation_family,
)
from oracles import one_minus


def _ktheory_json(tmp_path, a) -> str:
    """The stdout of ``ckdual ktheory --duality --json`` on a, run in process."""
    path = tmp_path / "a.json"
    path.write_text(json.dumps(a.to_json()))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["ktheory", "--duality", "--json", "--matrix", str(path)]) == 0
    return out.getvalue()


def test_cuntz_algebra_family():
    # O_n has K0 = Z/(n-1) and K1 = 0
    for n in range(2, 7):
        rep = k_groups(ones(n))
        expected = FGAbelianGroup(0, ()) if n == 2 else FGAbelianGroup(0, (n - 1,))
        assert rep.o_a.k0 == expected
        assert rep.o_a.k1 == FGAbelianGroup(0, ())


def test_fibonacci_trivial_groups():
    rep = k_groups(FIB)
    assert rep.o_a.k0 == FGAbelianGroup(0, ())  # det(1 - A^T) = -1
    assert rep.o_a.k1 == FGAbelianGroup(0, ())


def test_k1_and_khom0_are_free():
    for a in relation_family():
        rep = k_groups(a)
        for alg in (rep.o_a, rep.o_at):
            assert alg.k1.torsion == ()
            assert alg.khom0.torsion == ()


def test_rank_nullity_symmetry():
    for a in relation_family():
        rep = k_groups(a)
        n = a.n
        rank = n - len(kernel_basis(one_minus(a.transpose())))
        assert rep.o_a.k1.free_rank == n - rank
        assert rep.o_a.k0.free_rank == n - rank


def test_higher_block_conjugacy_invariance():
    # A^[N] presents a shift conjugate to that of A, so all eight groups agree
    for a in (FIB, ones(3), MIXED4):
        base = k_groups(a)
        for block in (2, 3, 4):
            rep = k_groups(higher_block(a, block))
            assert (rep.o_a, rep.o_at) == (base.o_a, base.o_at)
    assert k_groups(MIXED4).o_a.k0 == FGAbelianGroup(0, (2,))
    # sizes: admissible words of length N
    assert [higher_block(MIXED4, b).n for b in (2, 3, 4)] == [10, 26, 67]


def test_bowen_franks():
    # the Bowen-Franks group coker(1 - A)
    assert cokernel(one_minus(ones(2))) == FGAbelianGroup(0, ())  # det(1 - A) = -1
    assert cokernel(one_minus(ones(3))) == FGAbelianGroup(0, (2,))
    # defined for every valid matrix, including ones the Cantor check rejects
    assert cokernel(one_minus(SWAP)) == FGAbelianGroup(1, ())


def test_duality_presentations_and_abstract_iso():
    for a in relation_family():
        d = duality_report(a)
        assert d.presentation_match_K0_Khom1
        assert d.presentation_match_K1_Khom0
        assert d.abstract_iso_cokernels


def test_duality_random_aperiodic_50():
    for a in random_aperiodic_matrices(seed=715, count=50, n_max=8):
        d = duality_report(a)
        assert d.presentation_match_K0_Khom1
        assert d.presentation_match_K1_Khom0
        assert d.abstract_iso_cokernels
        # the identification is only abstract: equal invariant factors
        assert d.invariant_factors_A == d.invariant_factors_AT


def test_duality_example_matrices():
    d = duality_report(ones(3))
    assert list(d.invariant_factors_A) == [2]
    assert list(d.invariant_factors_AT) == [2]
    from ckdual.sft import validate_matrix

    a = validate_matrix([[1, 1, 0], [0, 1, 1], [1, 0, 1]])
    d = duality_report(a)
    assert d.abstract_iso_cokernels
    assert d.invariant_factors_A == d.invariant_factors_AT


def _presentation_family() -> list:
    rng = random.Random(2464)
    return (all_valid_matrices(3) + [random_valid_matrix(rng, n) for n in range(24, 65, 8)]
            + [higher_block(MIXED4, 4)])


def test_presenting_matrices():
    m = one_minus(FIB.transpose())
    assert m.entries == ((0, -1), (-1, 1))
    m = one_minus(FIB)
    assert m.entries == ((0, -1), (-1, 1))
    # the oracle against sympy's 1 - A
    import sympy

    for a in _presentation_family():
        m = one_minus(a)
        assert (m.rows, m.cols) == (a.n, a.n)
        assert sympy.Matrix(m.to_lists()) == sympy.eye(a.n) - sympy.Matrix(a.rows)


def test_one_minus_of_the_transpose_is_the_transpose():
    # the presentation flags of the duality report are this identity: 1 - A^T
    # read off the transposed matrix is the transpose that the report reads
    for a in _presentation_family():
        assert one_minus(a.transpose()) == one_minus(a).transpose()


def test_o_at_is_o_a_of_the_transpose():
    # k_groups reads O_{A^T} off the pair of O_A with the roles swapped
    for a in _presentation_family():
        rep, rep_t = k_groups(a), k_groups(a.transpose())
        assert (rep.o_at, rep.o_a) == (rep_t.o_a, rep_t.o_at)


def test_report_json_schema_roundtrip(tmp_path):
    # each part the command prints is a dict equal to its JSON round trip
    for out in (k_groups(ones(3)).to_json(), duality_report(ones(3)).to_json()):
        assert json.loads(json.dumps(out)) == out
    back = json.loads(_ktheory_json(tmp_path, ones(3)))
    assert set(back) == {"matrix", "O_A", "O_AT", "duality"}
    assert set(back["O_A"]) == {"K0", "K1", "K^0", "K^1"}
    assert back["O_A"]["K0"] == {"free_rank": 0, "torsion": [2]}
    assert set(back["duality"]) == {
        "presentation_match_K0_Khom1",
        "presentation_match_K1_Khom0",
        "abstract_iso_cokernels",
        "invariant_factors_A",
        "invariant_factors_AT",
    }


def _memo_work(report, a):
    smith_normal_form.cache_clear()
    report(a)
    info = smith_normal_form.cache_info()
    return info.misses, info.hits


def test_memo_factors_each_presentation_once(tmp_path):
    # 1 - A and 1 - A^T differ for MIXED4, so each report factors exactly two
    # matrices however often it asks for them
    a = higher_block(MIXED4, 2)
    assert one_minus(a) != one_minus(a.transpose())
    assert _memo_work(lambda m: _ktheory_json(tmp_path, m), a) == (2, 8)
    assert _memo_work(k_groups, a) == (2, 6)
    assert _memo_work(duality_report, a) == (2, 0)


def test_memo_holds_at_most_two_forms(tmp_path):
    smith_normal_form.cache_clear()
    for a in (FIB, MIXED4, higher_block(FIB, 3)):
        _ktheory_json(tmp_path, a)
    assert smith_normal_form.cache_info().currsize <= 2


def test_memo_alternating_reports_match_fresh_eliminations(monkeypatch, tmp_path):
    # equal n, so a memo keyed on the shape alone would mix the two up
    rng = random.Random(808)
    a, b = random_valid_matrix(rng, 7), random_valid_matrix(rng, 7)
    order = [a, b, a, b, b, a]
    smith_normal_form.cache_clear()
    memoised = [_ktheory_json(tmp_path, m) for m in order]
    monkeypatch.setattr(zlinalg, "smith_normal_form", smith_normal_form.__wrapped__)
    fresh = [_ktheory_json(tmp_path, m) for m in order]
    assert memoised == fresh
    assert memoised[0] != memoised[1]


@pytest.mark.parametrize("a, presentations, singular", [
    # no two equal rows or columns, so B = A, and 1 - A is not symmetric
    (MIXED4, 2, False),
    (SWAP, 1, True),  # 1 - A is symmetric, so 1 - A^T is the same matrix
    (validate_matrix([[1, 1], [0, 1]]), 2, True),
], ids=["MIXED4", "2-cycle", "upper-triangular"])
def test_transforms_built_once_per_singular_presentation(monkeypatch, tmp_path, a, presentations,
                                                        singular):
    # only kernel_basis reads V, and only at a zero diagonal entry; the memoised
    # form keeps the transforms once built, so its repeated calls do not redo them
    runs, kernel_calls = [], []
    eliminate, kernel = zlinalg._eliminate, ktheory.kernel_basis

    def spy_eliminate(m, transforms):
        runs.append(transforms)
        return eliminate(m, transforms)

    def spy_kernel(m):
        kernel_calls.append(m)
        return kernel(m)

    monkeypatch.setattr(zlinalg, "_eliminate", spy_eliminate)
    monkeypatch.setattr(ktheory, "kernel_basis", spy_kernel)
    smith_normal_form.cache_clear()
    _ktheory_json(tmp_path, a)
    assert len(kernel_calls) == 4
    assert runs.count(False) == presentations
    assert runs.count(True) == (presentations if singular else 0)


def test_k_groups_reads_each_group_from_its_presentation(monkeypatch):
    # coker(1 - A) and coker(1 - A^T) are isomorphic, so the report cannot show
    # which one a group was read from; the spies answer with distinct ranks.
    # k_groups reads the amalgamated pair (1 - B, 1 - B^T), so the spies key
    # on it; test_amalgamate checks that 1 - B presents what 1 - A does.
    a = higher_block(MIXED4, 2)
    pres, pres_t = ktheory.presentation_pair(a)
    assert pres != pres_t
    assert pres.rows < a.n
    assert pres_t == pres.transpose()
    # (cokernel rank, kernel rank) answered for each presenting matrix
    ranks = {pres.entries: (1, 3), pres_t.entries: (2, 4)}
    monkeypatch.setattr(ktheory, "cokernel", lambda m: FGAbelianGroup(ranks[m.entries][0], ()))
    monkeypatch.setattr(ktheory, "kernel_basis", lambda m: [()] * ranks[m.entries][1])
    report = k_groups(a)

    def read(g):
        return tuple(x.free_rank for x in (g.k0, g.k1, g.khom0, g.khom1))

    # K_0, K_1 of O_A from 1 - A^T and K^0, K^1 from 1 - A; swapped for O_{A^T}
    assert read(report.o_a) == (2, 4, 3, 1)
    assert read(report.o_at) == (1, 3, 4, 2)


@st.composite
def _split_of_valid_matrix(draw):
    """A valid 0/1 matrix with n <= 5 and one in- or out-splitting of it."""
    n = draw(st.integers(min_value=1, max_value=5))
    rows = [draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)) for _ in range(n)]
    for i in range(n):
        if not any(rows[i]) or not any(r[i] for r in rows):
            rows[i][i] = 1
    a = validate_matrix(rows)
    split, m = draw(st.sampled_from([(out_split, a), (in_split, a.transpose())]))
    states = [i for i in range(n) if sum(m.entry(i, j) for j in range(n)) >= 2]
    assume(states)
    state = draw(st.sampled_from(states))
    ends = [j for j in range(n) if m.entry(state, j)]
    first = draw(st.sets(st.sampled_from(ends), min_size=1, max_size=len(ends) - 1))
    return a, split(a, state, first)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(_split_of_valid_matrix())
def test_state_splitting_preserves_k_theory(pair):
    # in- and out-splittings are conjugacies: all eight groups and det(1 - A)
    # are those of the base
    a, b = pair
    base, split = k_groups(a), k_groups(b)
    assert (split.o_a, split.o_at) == (base.o_a, base.o_at)
    det = determinant(one_minus(b))
    assert det == determinant(one_minus(a))
    # |det(1 - A)| is the order of K^1(O_A) = coker(1 - A), or 0 if it is infinite
    khom1 = split.o_a.khom1
    assert abs(det) == (math.prod(khom1.torsion) if khom1.free_rank == 0 else 0)
