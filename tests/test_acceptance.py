"""Acceptance suite: one test (and one printed pass/fail line) per criterion.

Every comparison is exact - the engine is integer/rational arithmetic
throughout - so the stated tolerances are equalities; the only numeric
budgets are the wall-clock limits stated inline.
"""

import random
import time

from ckdual import ckalg
from ckdual.duality import verify_lemmas
from ckdual.fock import (
    FockBasis,
    build_creation,
    rotation_operator,
    vacuum_projection,
    verify_creation_relations,
    verify_relation,
    zero,
)
from ckdual.ktheory import duality_report, k_groups
from ckdual.zlinalg import FGAbelianGroup, IntMatrix, determinant, smith_normal_form

from helpers import (
    CHORD3,
    FIB,
    MIXED4,
    RING4,
    all_valid_matrices,
    basis_words,
    ones,
    random_aperiodic_matrices,
    random_ck,
    relation_family,
    word_positions,
    z_power,
)
from oracles import matmul, one_minus, product_matches_composition


def report(num: int, name: str, failures, elapsed: float):
    status = "PASS" if not failures else "FAIL"
    print(f"ACCEPTANCE {num} [{name}]: {status} ({elapsed:.2f}s)")
    assert not failures, failures[:5]


def test_criterion_1_cuntz_family_k_theory():
    start = time.perf_counter()
    failures = []
    for n in range(2, 7):
        rep = k_groups(ones(n))
        expected = FGAbelianGroup(0, ()) if n == 2 else FGAbelianGroup(0, (n - 1,))
        if rep.o_a.k0 != expected:
            failures.append(f"K0(O_{n}) = {rep.o_a.k0}, expected {expected}")
        if rep.o_a.k1 != FGAbelianGroup(0, ()):
            failures.append(f"K1(O_{n}) = {rep.o_a.k1}, expected 0")
    elapsed = time.perf_counter() - start
    if elapsed >= 1.0:
        failures.append(f"runtime {elapsed:.2f}s >= 1s")
    report(1, "K-theory of the full-shift family", failures, elapsed)


def test_criterion_2_duality_diagram_random():
    start = time.perf_counter()
    failures = []
    matrices = random_aperiodic_matrices(seed=715, count=50, n_max=8)
    for a in matrices:
        d = duality_report(a)
        if one_minus(a.transpose()) != one_minus(a).transpose():
            failures.append(f"presentation mismatch for {a.rows}")
        if not (d.presentation_match_K0_Khom1 and d.presentation_match_K1_Khom0):
            failures.append(f"presentation flags false for {a.rows}")
        if not d.abstract_iso_cokernels or d.invariant_factors_A != d.invariant_factors_AT:
            failures.append(f"cokernel invariants differ for {a.rows}")
    elapsed = time.perf_counter() - start
    if elapsed >= 5.0:
        failures.append(f"runtime {elapsed:.2f}s >= 5s")
    report(2, "duality diagram on 50 random aperiodic matrices", failures, elapsed)


def test_criterion_3_smith_form_postconditions():
    start = time.perf_counter()
    failures = []
    rng = random.Random(14401)
    for trial in range(200):
        rows, cols = rng.randint(1, 10), rng.randint(1, 10)
        m = IntMatrix.from_rows(
            [[rng.randint(-20, 20) for _ in range(cols)] for _ in range(rows)]
        )
        snf = smith_normal_form(m)
        if matmul(matmul(snf.U, m), snf.V).entries != snf.S.entries:
            failures.append(f"trial {trial}: U M V != S")
        if abs(determinant(snf.U)) != 1 or abs(determinant(snf.V)) != 1:
            failures.append(f"trial {trial}: transforms not unimodular")
        diag = snf.diagonal()
        for i in range(len(diag) - 1):
            if diag[i] < 0 or (diag[i] and diag[i + 1] % diag[i]) or (not diag[i] and diag[i + 1]):
                failures.append(f"trial {trial}: divisibility chain broken: {diag}")
                break
    elapsed = time.perf_counter() - start
    report(3, "Smith form on 200 random matrices", failures, elapsed)


def test_criterion_4_creation_relations():
    # exhaustive over every valid matrix for n <= 3; fixed family at n = 4
    start = time.perf_counter()
    failures = []
    matrices = all_valid_matrices(2) + all_valid_matrices(3) + [ones(4), RING4, MIXED4]
    for a in matrices:
        basis = FockBasis(a, 6)
        words, position = basis_words(basis), word_positions(basis)
        for which in ("i", "ii", "iii"):
            for rep in verify_creation_relations(basis, which):
                if not rep.holds:
                    failures.append(f"{a.rows}: {rep.relation} has defects")
        p = vacuum_projection(basis)
        ls = [build_creation(basis, "left", k) for k in range(1, a.n + 1)]
        rs = [build_creation(basis, "right", k) for k in range(1, a.n + 1)]
        for k in range(a.n):
            for l in range(a.n):
                lhs = ls[k].adjoint() @ rs[l] - rs[l] @ ls[k].adjoint()
                rhs = p if k == l else zero(basis)
                rep = verify_relation("iv", lhs, rhs)
                if a.entry(k, l):
                    if not rep.holds:
                        failures.append(f"{a.rows}: iv(k={k+1},l={l+1}) should be exact")
                else:
                    # brute-force oracle: defect must be (A[k][l]-1)|xi_l><xi_k|
                    diff = lhs - rhs
                    got = {
                        j: col
                        for j, col in diff.cols.items()
                        if len(words[j]) <= rep.valid_up_to
                    }
                    expected = {
                        position[(k,)]: {position[(l,)]: a.entry(k, l) - 1}
                    }
                    if got != expected:
                        failures.append(
                            f"{a.rows}: iv(k={k+1},l={l+1}) defect {got} != {expected}"
                        )
    elapsed = time.perf_counter() - start
    if elapsed >= 10.0:
        failures.append(f"runtime {elapsed:.2f}s >= 10s")
    report(4, "creation-operator relations, m_max=6", failures, elapsed)


def test_criterion_5_lemma_suite():
    start = time.perf_counter()
    failures = []
    for n in (2, 3):
        for which in ("W", "V"):
            rep = verify_lemmas(FockBasis(ones(n), 5), which)
            for item in rep.items:
                if not item.holds or item.defects:
                    failures.append(f"full shift n={n}: lemma {which} item {item.item_id}")
    for which in ("W", "V", "toeplitz"):
        rep = verify_lemmas(FockBasis(FIB, 5), which)
        for item in rep.items:
            for d in item.defects:
                if d.length > 1:
                    failures.append(
                        f"Fibonacci lemma {which} item {item.item_id}: deep defect at {d.column}"
                    )
    for a in (ones(2), FIB):
        for which in ("W", "V", "toeplitz"):
            small = verify_lemmas(FockBasis(a, 5), which)
            large = verify_lemmas(FockBasis(a, 7), which)
            svm = [(i.item_id, i.holds, i.defects) for i in small.items]
            lvm = [(i.item_id, i.holds, i.defects) for i in large.items]
            if svm != lvm:
                failures.append(f"{a.rows}: lemma {which} unstable under m_max 5 -> 7")
    elapsed = time.perf_counter() - start
    report(5, "W/V lemma suite with truncation stability", failures, elapsed)


def test_criterion_6_w_element_identity():
    start = time.perf_counter()
    failures = []
    for a in relation_family():
        w = ckalg.w_element(a)
        p = ckalg.w_range_projection(a)
        if not ckalg.tensor_equal(ckalg.ck_multiply(w.adjoint(), w), p):
            failures.append(f"{a.rows}: w*w mismatch")
        if not ckalg.tensor_equal(ckalg.ck_multiply(w, w.adjoint()), p):
            failures.append(f"{a.rows}: ww* mismatch")
    for n in (2, 3, 4):
        w = ckalg.w_element(ones(n))
        if not ckalg.tensor_equal(
            ckalg.ck_multiply(w.adjoint(), w), ckalg.tensor_unit(w.factors)
        ):
            failures.append(f"full shift n={n}: w*w is not the unit")
    elapsed = time.perf_counter() - start
    report(6, "w*w = ww* identity", failures, elapsed)


def test_criterion_7_circle_twist_automorphism():
    start = time.perf_counter()
    failures = []
    rng = random.Random(777)
    for a in (ones(2), FIB, CHORD3):
        fac = (ckalg.o_a(a), ckalg.LAURENT)
        n = a.n
        gens = [ckalg.theta(ckalg.embed_ck(fac, 0, ckalg.ck_generator(ckalg.o_a(a), k)))
                for k in range(1, n + 1)]
        total = ckalg.tensor_zero(fac)
        for g in gens:
            total = total + ckalg.ck_multiply(g, g.adjoint())
        if not ckalg.tensor_equal(total, ckalg.tensor_unit(fac)):
            failures.append(f"{a.rows}: twisted ranges do not sum to 1")
        for k in range(n):
            lhs = ckalg.ck_multiply(gens[k].adjoint(), gens[k])
            rhs = ckalg.tensor_zero(fac)
            for i in range(n):
                if a.entry(k, i):
                    rhs = rhs + ckalg.ck_multiply(gens[i], gens[i].adjoint())
            if not ckalg.tensor_equal(lhs, rhs):
                failures.append(f"{a.rows}: twisted range relation fails at k={k+1}")
        for trial in range(25):
            x = ckalg.embed_ck(fac, 0, random_ck(rng, ckalg.o_a(a), 3, 3))
            x = ckalg.ck_multiply(x, z_power(fac, 1, rng.randint(-2, 2)))
            y = ckalg.embed_ck(fac, 0, random_ck(rng, ckalg.o_a(a), 3, 3))
            if not ckalg.tensor_equal(
                ckalg.theta(ckalg.ck_multiply(x, y)),
                ckalg.ck_multiply(ckalg.theta(x), ckalg.theta(y)),
            ):
                failures.append(f"{a.rows} trial {trial}: theta not multiplicative")
            if not ckalg.tensor_equal(ckalg.theta(x.adjoint()), ckalg.theta(x).adjoint()):
                failures.append(f"{a.rows} trial {trial}: theta not star-preserving")
            balanced = ckalg.TensorElement(
                (ckalg.o_a(a),),
                {key: c for key, c in random_ck(rng, ckalg.o_a(a), 3, 3).terms.items()
                 if len(key[0][0]) == len(key[0][1])},
            )
            emb = ckalg.embed_ck(fac, 0, balanced)
            if ckalg.theta(emb) != emb:
                failures.append(f"{a.rows} trial {trial}: degree-0 element moved")
    elapsed = time.perf_counter() - start
    report(7, "circle-twist automorphism properties", failures, elapsed)


def test_criterion_8_symbolic_vs_word_model_500():
    start = time.perf_counter()
    failures = []
    rng = random.Random(31337)
    plan = [(ones(2), 3, 175), (FIB, 3, 175), (ones(3), 2, 75), (CHORD3, 2, 75)]
    total = 0
    for a, max_len, count in plan:
        tag = ckalg.o_a(a)
        for trial in range(count):
            x = random_ck(rng, tag, max_terms=3, max_len=max_len)
            y = random_ck(rng, tag, max_terms=3, max_len=max_len)
            total += 1
            if not product_matches_composition(x, y):
                failures.append(f"{a.rows} trial {trial}: product disagrees with word model")
    assert total >= 500
    elapsed = time.perf_counter() - start
    report(8, f"word-model cross-validation on {total} products", failures, elapsed)


def test_criterion_9_rotation_index():
    start = time.perf_counter()
    failures = []
    matrices = all_valid_matrices(3) + relation_family()
    for a in matrices:
        _x, rep = rotation_operator(FockBasis(a, 6))
        if rep.vacuum_eigenvalue != a.n:
            failures.append(f"{a.rows}: X vacuum eigenvalue {rep.vacuum_eigenvalue} != {a.n}")
        for s in rep.sectors:
            if s.index != 0:
                failures.append(f"{a.rows}: sector {s.sector} index {s.index}")
    # sector-1 kernel counts the diagonal zeros
    _x, rep = rotation_operator(FockBasis(FIB, 5))
    if rep.sectors[0].dim_ker != 1:
        failures.append("Fibonacci sector-1 kernel should be 1")
    elapsed = time.perf_counter() - start
    report(9, "rotation-operator sector indices", failures, elapsed)
