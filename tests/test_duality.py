import json
import random

import pytest

from ckdual import ckalg, cli
from ckdual.duality import (
    BasisMismatchError,
    build_W,
    hybrid,
    hybrid_defects,
    hybrid_mul,
    hybrid_zero,
    left_creation_tensor_unit,
    quotient_image,
    vacuum_tensor,
    verify_lemma_V,
    verify_lemma_W,
    verify_lemmas,
    verify_toeplitz_untwist,
)
from ckdual.fock import DefectColumn, FockBasis, FockOperator, build_creation, vacuum_projection
from ckdual.sft import word_str

from helpers import (
    CHORD3,
    FIB,
    MIXED4,
    all_valid_matrices,
    basis_words,
    fock_identity,
    hybrid_unit,
    ones,
    random_ck,
    relation_family,
)


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
    factors = (ckalg.o_a(a), ckalg.o_at(a))
    images = [ckalg.tensor_elem(factors, (((), ()), ((i,), ()))) for i in range(a.n)]
    w = hybrid(b, iter(pairs), iter(images))
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


def _generator_atoms(b):
    """W, W*, L_k (x) 1, its adjoint, P (x) s_k and the unit on the basis b."""
    tag = ckalg.o_a(b.matrix)
    w = build_W(b)
    atoms = [w, w.adjoint(), hybrid_unit(b)]
    for k in range(1, b.matrix.n + 1):
        lk = left_creation_tensor_unit(b, k)
        atoms += [lk, lk.adjoint(), vacuum_tensor(b, ckalg.ck_generator(tag, k))]
    return atoms


def test_quotient_image_laws_on_random_words():
    # the quotient map is additive, multiplicative, *-preserving and linear
    # on seeded random words over the hybrid generators
    rng = random.Random(4242)
    nonzero = 0
    for a in (FIB, CHORD3, MIXED4):
        triple = ckalg.triple_factors(a)
        for m in range(3, 6):
            b = FockBasis(a, m)
            atoms = _generator_atoms(b)
            for k in range(1, a.n + 1):
                gen = ckalg.tensor_elem(triple, ((((k - 1,), ()), ((), ()), ((), ()))))
                assert ckalg.tensor_equal(quotient_image(atoms[3 * k]), gen)

            def word():
                x = rng.choice(atoms)
                for _ in range(rng.randint(0, 2)):
                    x = hybrid_mul(x, rng.choice(atoms))
                return x

            for _ in range(10):
                x, y = word(), word()
                qx, qy = quotient_image(x), quotient_image(y)
                c = rng.choice((-3, -1, 2, 5))
                assert ckalg.tensor_equal(quotient_image(x + y), qx + qy)
                assert ckalg.tensor_equal(quotient_image(hybrid_mul(x, y)),
                                          ckalg.ck_multiply(qx, qy))
                assert ckalg.tensor_equal(quotient_image(x.adjoint()), qx.adjoint())
                assert ckalg.tensor_equal(quotient_image(x.scale(c)), qx.scale(c))
                nonzero += not ckalg.ck_is_zero(ckalg.ck_multiply(qx, qy))
    assert nonzero > 20, nonzero


def test_quotient_keeps_the_image_of_an_empty_term():
    # (L_1 (x) 1)^3 at m_max = 2 has no term left, but its image s_1^3 (x) 1 (x) 1
    # is not zero
    b = FockBasis(ones(2), 2)
    l1 = left_creation_tensor_unit(b, 1)
    cube = hybrid_mul(hybrid_mul(l1, l1), l1)
    assert cube.terms == ()
    s1 = ckalg.tensor_elem(ckalg.triple_factors(b.matrix), ((((0,), ()), ((), ()), ((), ()))))
    s1_cubed = ckalg.ck_multiply(ckalg.ck_multiply(s1, s1), s1)
    assert not ckalg.ck_is_zero(s1_cubed)
    assert ckalg.tensor_equal(quotient_image(cube), s1_cubed)


def test_quotient_of_raw_operators_raises():
    b = FockBasis(FIB, 3)
    raw = hybrid(b, [(build_creation(b, "left", 1), ckalg.ck_unit(ckalg.o_a(FIB)))])
    with pytest.raises(ValueError, match="no quotient image"):
        quotient_image(raw)
    with pytest.raises(ValueError, match="no quotient image"):
        quotient_image(hybrid_mul(build_W(b), raw.adjoint()).scale(2) + hybrid_unit(b))


def test_lemma_report_json(capsys, tmp_path):
    rep = verify_lemma_W(FockBasis(FIB, 5))
    out = rep.to_json()
    assert set(out) == {"lemma", "items", "m_max"}
    assert out["lemma"] == "W"
    assert out["m_max"] == 5
    bad = next(i for i in out["items"] if i["id"] == "vi(k=2)")
    assert bad["holds"] is False
    assert bad["defects"] == [{"column": "2", "length": 1, "entries": {"2": "-s[2]"}}]
    assert json.loads(json.dumps(out)) == out
    # the command echoes the matrix after the report's own keys
    path = tmp_path / "fib.json"
    path.write_text(json.dumps(FIB.to_json()))
    code = cli.main(["lemma-verify", "--which", "W", "--max-length", "5", "--json",
                     "--matrix", str(path)])
    echoed = json.loads(capsys.readouterr().out)
    assert code == 1
    assert list(echoed) == ["lemma", "items", "m_max", "matrix"]
    assert echoed["matrix"] == {"n": 2, "rows": [[1, 1], [1, 0]]}
    assert {k: echoed[k] for k in out} == out


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
    with pytest.raises(BasisMismatchError):
        hybrid_defects(w1, w2)
    with pytest.raises(BasisMismatchError):
        w1 + w2


def test_hybrid_domain_counts_cancelled_and_empty_terms():
    b = FockBasis(ones(2), 2)
    one = ckalg.ck_unit(ckalg.o_a(b.matrix))
    l1 = build_creation(b, "left", 1)
    # L_1^3 xi_() = xi_111 leaves the window, so the truncated matrix is 0
    # but the element is exact on no column at all
    cube = hybrid(b, [(l1 @ l1 @ l1, one)])
    assert cube.terms == ()
    assert cube.valid_up_to == -1
    assert hybrid_defects(cube, hybrid_zero(b)) == (-1, ())
    # L_1 (x) 1 is exact up to length 1, and so is l - l although it is empty
    l = left_creation_tensor_unit(b, 1)
    assert (l - l).terms == ()
    assert l.valid_up_to == (l - l).valid_up_to == (l - l).scale(3).valid_up_to == 1
    assert hybrid_mul(l, l).valid_up_to == 0
    l_star = l.adjoint()
    assert (l_star.raise_len, l_star.lower_len, l_star.valid_up_to) == (0, 1, 2)
    assert (l_star + l).valid_up_to == hybrid_mul(l_star, l).valid_up_to == 1


def _dense_defects(x, y):
    """Reference scan: x - y built densely from ``op.cols``, one column of
    the shared valid domain at a time, with ``ck_is_zero`` on each entry."""
    basis = x.basis
    zero = ckalg.tensor_zero((ckalg.o_a(basis.matrix),))
    words = basis_words(basis)
    valid = min(x.valid_up_to, y.valid_up_to)
    terms = [(op.cols, ck.scale(sign)) for sign, side in ((1, x), (-1, y)) for op, ck in side.terms]
    defects = []
    for j in range(basis.end_of_length(valid)):
        col = {}
        for cols, ck in terms:
            for i, v in cols.get(j, {}).items():
                col[i] = col.get(i, zero) + ck.scale(v)
        entries = tuple((word_str(words[i]), str(e))
                        for i, e in sorted(col.items()) if not ckalg.ck_is_zero(e))
        if entries:
            w = words[j]
            defects.append(DefectColumn(word_str(w), len(w), entries))
    return valid, tuple(defects)


def test_defect_scan_matches_dense_reference():
    rng = random.Random(808)
    seen_defects = seen_clean = 0
    for a in (FIB, CHORD3, MIXED4):
        tag = ckalg.o_a(a)
        for m in range(1, 6):
            b = FockBasis(a, m)
            atoms = [fock_identity(b), vacuum_projection(b)]
            for k in range(1, a.n + 1):
                for side in ("left", "right"):
                    op = build_creation(b, side, k)
                    atoms += [op, op.adjoint()]

            def pair():
                op = rng.choice(atoms)
                if rng.random() < 0.5:
                    op = op @ rng.choice(atoms)
                if rng.random() < 0.5:
                    op = op.scale(rng.choice((-2, -1, 2, 3)))
                return op, random_ck(rng, tag, 2, 2)

            for _ in range(6):
                pairs = [pair() for _ in range(rng.randint(1, 3))]
                x = hybrid(b, pairs)
                # y repeats x with equal operators built anew, some symbolic
                # factors split in two, a pair that cancels, and mostly a
                # term of its own
                y_pairs = []
                for op, ck in pairs:
                    op = fock_identity(b) @ op
                    if rng.random() < 0.3:
                        part = random_ck(rng, tag, 1, 2)
                        y_pairs += [(op, part), (op, ck - part)]
                    else:
                        y_pairs.append((op, ck))
                if rng.random() < 0.5:
                    op, ck = pair()
                    y_pairs += [(op, ck), (op, -ck)]
                if rng.random() < 0.7:
                    y_pairs.append(pair())
                y = hybrid(b, y_pairs)
                for lhs, rhs in ((x, y), (y, x), (hybrid_mul(x, y), hybrid_mul(y, x))):
                    got = hybrid_defects(lhs, rhs)
                    assert got == _dense_defects(lhs, rhs), (a.rows, m)
                    seen_defects += bool(got[1])
                    seen_clean += not got[1]
    assert seen_defects > 50 and seen_clean > 20, (seen_defects, seen_clean)


def test_defect_scan_keys_entries_by_terms_and_weights():
    """The scan renders each distinct entry once, keyed by the (term,
    weight) pairs that reach it: cells with the same terms but other
    weights, or the same weights on other terms, are other entries."""
    b = FockBasis(ones(2), 2)  # words (), 1, 2, 11, 12, 21, 22
    tag = ckalg.o_a(b.matrix)
    s1, s2 = ckalg.ck_generator(tag, 1), ckalg.ck_generator(tag, 2)

    def to_vacuum(j, k, weight_k):
        """Columns j and k to the vacuum, with weight 1 at j and weight_k at k."""
        return FockOperator(b, {j: 0, k: 0}, {} if weight_k == 1 else {k: weight_k}, 0, 0)

    # columns 1 and 2 read the same two terms with weights (1, 1) and (1, -1),
    # columns 3 and 4 the same weights on two other terms, with s_2 in place of s_1
    x = hybrid(b, [(to_vacuum(1, 2, 1), s1), (to_vacuum(1, 2, -1), s1),
                   (to_vacuum(3, 4, 1), s2), (to_vacuum(3, 4, -1), s2)])
    assert len(x.terms) == 4
    assert hybrid_defects(x, hybrid_zero(b)) == (2, (
        DefectColumn("1", 1, (("", "2 s[1]"),)),
        DefectColumn("11", 2, (("", "2 s[2]"),)),
    ))
