import json
import random

import pytest

from ckdual import ckalg
from ckdual.duality import (
    BasisMismatchError,
    build_W,
    hybrid,
    hybrid_defects,
    hybrid_mul,
    hybrid_unit,
    hybrid_zero,
    left_creation_tensor_unit,
    quotient_image,
    vacuum_tensor,
    verify_lemma_V,
    verify_lemma_W,
    verify_lemmas,
    verify_toeplitz_untwist,
)
from ckdual.fock import FockBasis, build_creation

from helpers import FIB, all_valid_matrices, ones, random_ck, relation_family


def one_letter():
    from ckdual.sft import validate_matrix

    return validate_matrix([[1]])


def holds_map(report):
    return [(item.item_id, item.holds) for item in report.items]


def test_build_W_shape():
    b = FockBasis(ones(2), 4)
    w = build_W(b)
    assert len(w.terms) == 2
    syms = sorted(str(ck) for _op, ck in w.terms)
    assert syms == ["s[1]*", "s[2]*"]


def test_vacuum_kills_W():
    for a in (ones(2), FIB):
        b = FockBasis(a, 4)
        w = build_W(b)
        p1 = vacuum_tensor(b, ckalg.ck_unit(ckalg.o_a(a)))
        prod = hybrid_mul(p1, w)
        assert not prod.terms  # P R_i = 0 matrixwise


def test_single_letter_W():
    b = FockBasis(one_letter(), 4)
    w = build_W(b)
    assert len(w.terms) == 1
    rep = verify_toeplitz_untwist(b)
    assert rep.holds


def test_hybrid_merges_terms_by_operator_value():
    b = FockBasis(FIB, 4)
    tag = ckalg.o_a(FIB)
    l1, l1_again = build_creation(b, "left", 1), build_creation(b, "left", 1)
    s1, s2 = ckalg.ck_generator(tag, 1), ckalg.ck_generator(tag, 2)
    x = hybrid(b, [(l1, s1), (l1_again, s2)])
    assert len(x.terms) == 1
    op, ck = x.terms[0]
    assert op is l1
    assert ck == s1 + s2
    proj = l1 @ l1.adjoint()
    assert hybrid(b, [(proj, s1), (l1_again @ l1_again.adjoint(), -s1)]).terms == ()


def test_lemma_coefficients_stay_integers():
    for a in (ones(2), FIB):
        w = build_W(FockBasis(a, 4))
        coeffs = [c for _op, ck in hybrid_mul(w.adjoint(), w).terms for c in ck.terms.values()]
        coeffs += list(quotient_image(w).terms.values())
        assert coeffs
        assert all(type(c) is int for c in coeffs)


def test_unit_law_in_hybrid():
    b = FockBasis(FIB, 4)
    w = build_W(b)
    one = hybrid_unit(b)
    _valid, defects = hybrid_defects(hybrid_mul(one, w), w)
    assert not defects


def test_w_star_w_expansion_all_ones():
    # for the full 2-shift W*W acts as the unit on the valid domain
    b = FockBasis(ones(2), 5)
    w = build_W(b)
    _valid, defects = hybrid_defects(hybrid_mul(w.adjoint(), w), hybrid_unit(b))
    assert not defects


def test_commutator_with_left_creation_vanishes():
    for a in (ones(2), FIB):
        b = FockBasis(a, 5)
        w = build_W(b)
        for k in range(1, a.n + 1):
            lk = left_creation_tensor_unit(b, k)
            _valid, defects = hybrid_defects(
                hybrid_mul(w, lk) - hybrid_mul(lk, w), hybrid_zero(b)
            )
            assert not defects


def test_lemma_W_all_ones_holds():
    for n, m_max in ((2, 5), (3, 5), (4, 4)):
        rep = verify_lemma_W(FockBasis(ones(n), m_max))
        assert rep.holds, holds_map(rep)
        assert all(not item.defects for item in rep.items)


def test_lemma_W_fibonacci_defect():
    rep = verify_lemma_W(FockBasis(FIB, 5))
    failing = [item for item in rep.items if not item.holds]
    assert [item.item_id for item in failing] == ["vi(k=2)"]
    (item,) = failing
    assert len(item.defects) == 1
    d = item.defects[0]
    assert (d.column, d.length) == ("2", 1)
    assert d.entries == (("2", "-s[2]"),)


def test_lemma_W_item_iii_exact_for_fibonacci():
    rep = verify_lemma_W(FockBasis(FIB, 5))
    item = next(i for i in rep.items if i.item_id == "iii")
    assert item.holds


def test_lemma_W_defects_match_row_zeros():
    # item vi(k) fails exactly on columns i with A[k][i] = 0, entry -s[i]
    for a in relation_family():
        rep = verify_lemma_W(FockBasis(a, 4))
        for k in range(1, a.n + 1):
            item = next(i for i in rep.items if i.item_id == f"vi(k={k})")
            zeros = [i for i in range(a.n) if not a.entry(k - 1, i)]
            assert item.holds == (not zeros)
            got = {d.column: d.entries for d in item.defects}
            expected = {
                str(i + 1): ((str(k), f"-s[{i + 1}]"),) for i in zeros
            }
            assert got == expected


def test_lemma_V_holds_everywhere_on_family():
    for a in relation_family():
        rep = verify_lemma_V(FockBasis(a, 4))
        assert rep.holds, (a.rows, holds_map(rep))


def test_toeplitz_untwist_family():
    for a in relation_family():
        rep = verify_toeplitz_untwist(FockBasis(a, 4))
        assert rep.holds, (a.rows, holds_map(rep))


def test_defect_locality():
    # every defect on the family sits on Fock columns of length <= 1
    for a in relation_family():
        for which in ("W", "V", "toeplitz"):
            rep = verify_lemmas(FockBasis(a, 4), which)
            for item in rep.items:
                for d in item.defects:
                    assert d.length <= 1, (a.rows, which, item.item_id, d)


def test_truncation_stability_of_lemmas():
    for a in (ones(2), FIB):
        for which in ("W", "V", "toeplitz"):
            small = verify_lemmas(FockBasis(a, 5), which)
            large = verify_lemmas(FockBasis(a, 7), which)
            assert holds_map(small) == holds_map(large)
            for s, l in zip(small.items, large.items):
                assert s.defects == l.defects


def test_lemmas_exhaustive_over_all_3x3():
    # every valid 3x3 matrix: V and Toeplitz relations hold outright; the W
    # items fail only at vi(k) for rows with zeros, with the exact rank-one
    # defects, and everything stays vacuum-adjacent
    for a in all_valid_matrices(3):
        b = FockBasis(a, 4)
        repw = verify_lemma_W(b)
        for item in repw.items:
            if item.item_id.startswith("vi(k="):
                k = int(item.item_id[5:-1])
                zeros = [i for i in range(a.n) if not a.entry(k - 1, i)]
                assert item.holds == (not zeros), (a.rows, item.item_id)
                got = {d.column: d.entries for d in item.defects}
                expected = {str(i + 1): ((str(k), f"-s[{i + 1}]"),) for i in zeros}
                assert got == expected, (a.rows, item.item_id)
            else:
                assert item.holds, (a.rows, item.item_id, item.defects)
            for d in item.defects:
                assert d.length <= 1
        assert verify_lemma_V(b).holds, a.rows
        assert verify_toeplitz_untwist(b).holds, a.rows


def test_adjoint_coherence_random_hybrids():
    rng = random.Random(21)
    for a in (ones(2), FIB):
        b = FockBasis(a, 5)
        tag = ckalg.o_a(a)
        atoms = [build_creation(b, "left", k) for k in range(1, a.n + 1)]
        atoms += [build_creation(b, "right", k) for k in range(1, a.n + 1)]
        for _ in range(10):
            x = hybrid(b, [(rng.choice(atoms), random_ck(rng, tag, 2, 2))])
            y = hybrid(b, [(rng.choice(atoms).adjoint(), random_ck(rng, tag, 2, 2))])
            lhs = hybrid_mul(x, y).adjoint()
            rhs = hybrid_mul(y.adjoint(), x.adjoint())
            _valid, defects = hybrid_defects(lhs, rhs)
            assert not defects


def test_quotient_image_of_W():
    for a in (ones(2), FIB):
        b = FockBasis(a, 4)
        w = build_W(b)
        assert ckalg.tensor_equal(quotient_image(w), ckalg.alpha_z(a))


def test_hybrid_reads_an_iterator_of_pairs_once():
    a = FIB
    b = FockBasis(a, 4)
    tag = ckalg.o_a(a)
    pairs = [(build_creation(b, "right", i), ckalg.ck_generator(tag, i).adjoint())
             for i in range(1, a.n + 1)]
    w = hybrid(b, iter(pairs))
    assert len(w.terms) == len(w.prov) == 2
    assert ckalg.tensor_equal(quotient_image(w), ckalg.alpha_z(a))


def test_quotient_kills_vacuum_terms():
    a = ones(2)
    b = FockBasis(a, 4)
    p1 = vacuum_tensor(b, ckalg.ck_unit(ckalg.o_a(a)))
    assert ckalg.ck_is_zero(quotient_image(p1))


def test_quotient_of_V_is_adjoint_transport():
    # the quotient sends W* to alpha_z*, so V_k = W*(L_k x 1) lands on
    # alpha_z* (s_k x 1 x 1); the unstarred transport differs
    a = ones(2)
    b = FockBasis(a, 4)
    w = build_W(b)
    v1 = hybrid_mul(w.adjoint(), left_creation_tensor_unit(b, 1))
    gen = ckalg.tensor_elem(ckalg.triple_factors(a), ((((0,), ()), ((), ()), ((), ()))))
    starred = ckalg.ck_multiply(ckalg.alpha_z(a).adjoint(), gen)
    unstarred = ckalg.ck_multiply(ckalg.alpha_z(a), gen)
    q = quotient_image(v1)
    assert ckalg.tensor_equal(q, starred)
    assert not ckalg.tensor_equal(q, unstarred)


def test_lemma_report_json():
    rep = verify_lemma_W(FockBasis(FIB, 5))
    out = rep.to_json()
    assert set(out) == {"lemma", "items", "m_max", "matrix"}
    assert out["lemma"] == "W"
    assert out["m_max"] == 5
    assert out["matrix"] == {"n": 2, "rows": [[1, 1], [1, 0]]}
    bad = next(i for i in out["items"] if i["id"] == "vi(k=2)")
    assert bad["holds"] is False
    assert bad["defects"] == [{"column": "2", "length": 1, "entries": {"2": "-s[2]"}}]
    assert json.loads(json.dumps(out)) == out


def test_quotient_requires_signature():
    b = FockBasis(ones(2), 4)
    w = build_W(b)
    with pytest.raises(ValueError):
        verify_lemmas(b, "X")
    assert quotient_image(w).factors == ckalg.triple_factors(ones(2))


def test_basis_mismatch_rejected():
    w1 = build_W(FockBasis(ones(2), 4))
    w2 = build_W(FockBasis(ones(2), 5))
    with pytest.raises(BasisMismatchError):
        hybrid_mul(w1, w2)
