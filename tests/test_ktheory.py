import json

from ckdual.ktheory import (
    bowen_franks,
    duality_report,
    k_groups,
    one_minus,
    report_json,
)
from ckdual.zlinalg import FGAbelianGroup, kernel_basis

from helpers import (
    FIB,
    MIXED4,
    SWAP,
    higher_block,
    ones,
    random_aperiodic_matrices,
    relation_family,
)


def test_cuntz_algebra_family():
    # O_n has K0 = Z/(n-1) and K1 = 0
    for n in range(2, 7):
        rep = k_groups(ones(n))
        expected = FGAbelianGroup(0, ()) if n == 2 else FGAbelianGroup(0, (n - 1,))
        assert rep.o_a.k0 == expected
        assert rep.o_a.k1 == FGAbelianGroup(0, ())


def test_fibonacci_trivial_groups():
    rep = k_groups(FIB)
    assert rep.o_a.k0.is_trivial()  # det(1 - A^T) = -1
    assert rep.o_a.k1.is_trivial()


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
    assert bowen_franks(ones(2)).is_trivial()  # det(1 - A) = -1
    assert bowen_franks(ones(3)) == FGAbelianGroup(0, (2,))
    # defined for every valid matrix, including ones the Cantor check rejects
    assert bowen_franks(SWAP) == FGAbelianGroup(1, ())


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


def test_presenting_matrices():
    m = one_minus(FIB.transpose())
    assert m.entries == ((0, -1), (-1, 1))
    m = one_minus(FIB)
    assert m.entries == ((0, -1), (-1, 1))


def test_report_json_schema_roundtrip():
    out = report_json(ones(3), include_duality=True)
    text = json.dumps(out)
    back = json.loads(text)
    assert back == out
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
