import random
from fractions import Fraction

import pytest

from ckdual import ckalg
from ckdual.ckalg import (
    LAURENT,
    SignatureMismatchError,
    UnsupportedGeneratorError,
    alpha_bar,
    alpha_z,
    ck_generator,
    ck_is_zero,
    ck_multiply,
    ck_unit,
    embed_ck,
    o_a,
    tensor_equal,
    tensor_unit,
    theta,
    triple_factors,
    w_element,
    w_range_projection,
)
from ckdual.sft import enumerate_words

from helpers import (
    CHORD3,
    FIB,
    all_valid_matrices,
    ck_monomial,
    forget_grading,
    ones,
    random_ck,
    relation_family,
    verify_w,
    z_power,
)
from oracles import (
    ck_action_on_word,
    ck_compose_on_word,
    max_nu_len,
    oracle_confirms_equality_verdict,
    product_matches_composition,
)


def s(a, k):
    return ck_generator(o_a(a), k)


def test_distinct_range_orthogonality():
    x = ck_multiply(s(ones(2), 1).adjoint(), s(ones(2), 2))
    assert not x.terms


def test_s1_star_s1_is_unit_in_o2():
    a = ones(2)
    x = ck_multiply(s(a, 1).adjoint(), s(a, 1))
    assert tensor_equal(x, ck_unit(o_a(a)))


def test_unit_laws():
    a = FIB
    one = ck_unit(o_a(a))
    rng = random.Random(3)
    for _ in range(10):
        x = random_ck(rng, o_a(a))
        assert ck_multiply(one, x) == x
        assert ck_multiply(x, one) == x


def test_adjoint_examples():
    a = ones(2)
    x = ck_multiply(s(a, 1), s(a, 2).adjoint())
    assert x.adjoint() == ck_multiply(s(a, 2), s(a, 1).adjoint())
    assert x.adjoint().adjoint() == x
    assert ck_unit(o_a(a)).adjoint() == ck_unit(o_a(a))


def test_ck_equal_examples():
    a = ones(2)
    total = ck_multiply(s(a, 1), s(a, 1).adjoint()) + ck_multiply(s(a, 2), s(a, 2).adjoint())
    assert tensor_equal(total, ck_unit(o_a(a)))
    assert not tensor_equal(
        ck_multiply(s(a, 1), s(a, 1).adjoint()),
        ck_multiply(s(a, 2), s(a, 2).adjoint()),
    )
    x = ck_monomial(o_a(a), (0, 0), ())
    assert tensor_equal(x, x)


def test_projection_shrinks_with_forbidden_transition():
    # in the Fibonacci algebra s_2 s_2* = s_21 s_21* because row 2 allows only 1
    lhs = ck_monomial(o_a(FIB), (1,), (1,))
    rhs = ck_monomial(o_a(FIB), (1, 0), (1, 0))
    assert tensor_equal(lhs, rhs)
    assert oracle_confirms_equality_verdict(lhs, rhs, True)


def test_equality_oracle_skips_vacuum_corrections():
    # letters 2 and 3 of SPARSE3 have no common successor, so s_2 s_3* is 0 in
    # O_A, although it maps the length-1 column xi_3 to xi_2
    from helpers import SPARSE3

    tag = o_a(SPARSE3)
    x = ck_monomial(tag, (1,), (2,))
    assert ck_is_zero(x)
    assert oracle_confirms_equality_verdict(x, ckalg.tensor_zero((tag,)), True)


def test_tag_mismatch_rejected():
    with pytest.raises(SignatureMismatchError):
        ck_multiply(s(ones(2), 1), s(FIB, 1))


def test_associativity_random():
    rng = random.Random(11)
    for a in (ones(2), FIB, CHORD3):
        tag = o_a(a)
        for _ in range(25):
            x, y, z = (random_ck(rng, tag, max_terms=2, max_len=3) for _ in range(3))
            lhs = ck_multiply(ck_multiply(x, y), z)
            rhs = ck_multiply(x, ck_multiply(y, z))
            assert tensor_equal(lhs, rhs)


def test_star_antihomomorphism():
    rng = random.Random(12)
    for a in (ones(2), FIB):
        tag = o_a(a)
        for _ in range(25):
            x = random_ck(rng, tag)
            y = random_ck(rng, tag)
            lhs = ck_multiply(x, y).adjoint()
            rhs = ck_multiply(y.adjoint(), x.adjoint())
            assert tensor_equal(lhs, rhs)


def test_equality_verdicts_cross_checked_against_word_model():
    from helpers import SPARSE3

    rng = random.Random(13)
    # SPARSE3 has rows with a single allowed continuation, exercising the
    # forced-extension degeneracies in the zero-prune; LAURENT is the circle
    # C(S^1) = O_[1], where the word model is the unilateral shift
    tags = [(o_a(a), max_len) for a, max_len in ((ones(2), 2), (FIB, 3), (CHORD3, 2), (SPARSE3, 2))]
    for tag, max_len in tags + [(LAURENT, 3)]:
        for _ in range(30):
            x = random_ck(rng, tag, max_terms=2, max_len=max_len)
            y = random_ck(rng, tag, max_terms=2, max_len=max_len)
            verdict = tensor_equal(x, y)
            assert oracle_confirms_equality_verdict(x, y, verdict)


def test_vacuum_corrections_bound_the_comparison_window():
    # s_2 s_2* squared reduces to s_21 s_21*; composing the word-model actions
    # instead leaves an extra |xi_2><xi_2| because the intermediate hits the
    # vacuum.  The discrepancy is confined to columns of length
    # <= max_nu(x) + max_nu(y), which is why the oracle window starts above it.
    x = ck_monomial(o_a(FIB), (1,), (1,))
    prod = ck_multiply(x, x)
    assert prod == ck_monomial(o_a(FIB), (1, 0), (1, 0))
    w = (1,)
    assert ck_compose_on_word([x, x], w) == {(1,): 1}
    assert ck_action_on_word(prod, w) == {}
    assert product_matches_composition(x, x)  # window starts at length 3


def test_products_match_word_model_composition():
    rng = random.Random(14)
    for tag in (o_a(ones(2)), o_a(FIB), LAURENT):
        for _ in range(30):
            x = random_ck(rng, tag, max_terms=2, max_len=2)
            y = random_ck(rng, tag, max_terms=2, max_len=2)
            assert product_matches_composition(x, y)


def test_circle_zero_test_matches_z_degree_oracle():
    # in C(S^1) = O_[1] the pair (0^p, 0^q) is z^(p - q), so two elements are
    # equal exactly when their coefficients summed by degree p - q agree
    def by_degree(x):
        out = {}
        for ((p, q),), c in x.terms.items():
            out[len(p) - len(q)] = out.get(len(p) - len(q), 0) + c
        return {d: c for d, c in out.items() if c}

    rng = random.Random(19)
    verdicts = set()
    for _ in range(200):
        x = random_ck(rng, LAURENT, max_terms=3, max_len=3)
        y = random_ck(rng, LAURENT, max_terms=3, max_len=3)
        for u in (x, ck_multiply(x, y)):
            v = ck_multiply(y, x)
            verdict = tensor_equal(u, v)
            assert verdict == (by_degree(u) == by_degree(v))
            verdicts.add(verdict)
    assert verdicts == {True, False}


def test_circle_generator_is_unitary():
    # z z* and z* z are stored as s_1 s_1*, which is 1 only after expansion
    z = ck_generator(LAURENT, 1)
    one = ck_unit(LAURENT)
    for p in (ck_multiply(z, z.adjoint()), ck_multiply(z.adjoint(), z)):
        assert p != one
        assert tensor_equal(p, one)
        assert oracle_confirms_equality_verdict(p, one, True)
    fac = (o_a(FIB), LAURENT)
    assert tensor_equal(ck_multiply(z_power(fac, 1, 2), z_power(fac, 1, -2)), tensor_unit(fac))
    assert not tensor_equal(z_power(fac, 1, 1), tensor_unit(fac))


def _zero_past_vacuum(x) -> bool:
    """Word model: x kills every column one letter longer than its longest nu.

    Beyond that length each column is nu w' with w' nonempty, and appending a
    letter to the column appends it to every image, so this one length
    decides every longer one."""
    a = x.factors[0].matrix
    return all(not ck_action_on_word(x, w) for w in enumerate_words(a, max_nu_len(x) + 1))


def test_continuations_match_word_model_on_all_2x2_and_3x3():
    # Every s_mu s_nu* with |mu|, |nu| <= 2.  The zero test prunes pairs
    # whose ends have no common continuation.  x x* expands the middle
    # projection s_nu* s_nu against both outer words (x* x is x x* of the
    # swapped pair); it is compared one letter past mu, where the
    # intermediate column keeps a nonempty tail and so meets no vacuum
    # correction.  x - sum_i x s_i s_i* expands x one level and must cancel.
    for a in all_valid_matrices(2) + all_valid_matrices(3):
        tag = o_a(a)
        words = [w for m in range(3) for w in enumerate_words(a, m)]
        ranges = [ck_monomial(tag, (i,), (i,)) for i in range(a.n)]
        for mu in words:
            for nu in words:
                x = ck_monomial(tag, mu, nu)
                assert ck_is_zero(x) == _zero_past_vacuum(x), (a.rows, mu, nu)
                assert product_matches_composition(x, x.adjoint(), (len(mu) + 1,)), (a.rows, mu, nu)
                split = x - sum((ck_multiply(x, r) for r in ranges), ckalg.tensor_zero((tag,)))
                assert ck_is_zero(split), (a.rows, mu, nu)


# ---------------------------------------------------------------------------
# tensor layer


def test_w_element_shape():
    w = w_element(ones(2))
    assert str(w) == "s[1]* ⊗ t[1] + s[2]* ⊗ t[2]"


def test_w_identities_all_family():
    for a in relation_family():
        assert verify_w(a)


def test_w_star_w_displayed_formula():
    for a in (ones(2), FIB, CHORD3):
        w = w_element(a)
        assert tensor_equal(ck_multiply(w.adjoint(), w), w_range_projection(a))
        assert tensor_equal(ck_multiply(w, w.adjoint()), w_range_projection(a))


def test_w_star_w_is_unit_for_full_shift():
    w = w_element(ones(2))
    assert tensor_equal(ck_multiply(w.adjoint(), w), tensor_unit(w.factors))


def test_w_partial_isometry():
    for a in (ones(2), FIB):
        w = w_element(a)
        www = ck_multiply(ck_multiply(w, w.adjoint()), w)
        assert tensor_equal(www, w)


def test_tensor_unit_law_and_signature():
    a = ones(2)
    w = w_element(a)
    assert tensor_equal(ck_multiply(tensor_unit(w.factors), w), w)
    with pytest.raises(SignatureMismatchError):
        ck_multiply(w, tensor_unit(triple_factors(a)))


# ---------------------------------------------------------------------------
# the circle twist


def test_theta_on_generators():
    a = ones(2)
    fac = (o_a(a), LAURENT)
    s1 = embed_ck(fac, 0, s(a, 1))
    assert theta(s1) == ck_multiply(s1, z_power(fac, 1, 1))
    z = z_power(fac, 1, 1)
    assert theta(z) == z
    p = embed_ck(fac, 0, ck_multiply(s(a, 1), s(a, 1).adjoint()))
    assert theta(p) == p  # degree 0


def test_theta_multiplicative_and_star():
    rng = random.Random(15)
    for a in (ones(2), FIB):
        fac = (o_a(a), LAURENT)
        for _ in range(25):
            x = embed_ck(fac, 0, random_ck(rng, o_a(a))) * z_power(fac, 1, rng.randint(-2, 2))
            y = embed_ck(fac, 0, random_ck(rng, o_a(a))) * z_power(fac, 1, rng.randint(-2, 2))
            assert tensor_equal(theta(ck_multiply(x, y)), ck_multiply(theta(x), theta(y)))
            assert tensor_equal(theta(x.adjoint()), theta(x).adjoint())


def test_theta_fixes_degree_zero_terms():
    rng = random.Random(16)
    a = FIB
    fac = (o_a(a), LAURENT)
    for _ in range(20):
        x = random_ck(rng, o_a(a))
        balanced = ckalg.TensorElement(
            x.factors, {((mu, nu),): c for ((mu, nu),), c in x.terms.items() if len(mu) == len(nu)}
        )
        emb = embed_ck(fac, 0, balanced)
        assert theta(emb) == emb


def test_theta_preserves_relations():
    for a in (ones(2), FIB, CHORD3):
        fac = (o_a(a), LAURENT)
        n = a.n
        unit = tensor_unit(fac)
        total = ckalg.tensor_zero(fac)
        gens = [theta(embed_ck(fac, 0, s(a, k))) for k in range(1, n + 1)]
        for g in gens:
            total = total + ck_multiply(g, g.adjoint())
        assert tensor_equal(total, unit)  # ranges still sum to the identity
        for k in range(n):
            lhs = ck_multiply(gens[k].adjoint(), gens[k])
            rhs = ckalg.tensor_zero(fac)
            for i in range(n):
                if a.entry(k, i):
                    rhs = rhs + ck_multiply(gens[i], gens[i].adjoint())
            assert tensor_equal(lhs, rhs)


def test_forget_grading_is_theta_invariant():
    rng = random.Random(17)
    a = FIB
    fac = (o_a(a), LAURENT)
    for _ in range(20):
        x = embed_ck(fac, 0, random_ck(rng, o_a(a))) * z_power(fac, 1, rng.randint(-2, 2))
        assert forget_grading(theta(x)) == forget_grading(x)


# ---------------------------------------------------------------------------
# the generator transport


def test_alpha_bar_on_circle_generator():
    a = ones(2)
    fac = (o_a(a), LAURENT)
    az = alpha_bar(z_power(fac, 1, 1))
    assert az == alpha_z(a)
    # z^2 z^-1 is stored as the pair (0^2, 0^1), which is z in O_[1]
    assert alpha_bar(ck_multiply(z_power(fac, 1, 2), z_power(fac, 1, -1))) == az
    assert str(az) == "1 ⊗ t[1] ⊗ s[1]* + 1 ⊗ t[2] ⊗ s[2]*"


def test_alpha_bar_on_isometry_generators():
    for a in (ones(2), FIB):
        fac = (o_a(a), LAURENT)
        z, z_inv = z_power(fac, 1, 1), z_power(fac, 1, -1)
        for k in range(1, a.n + 1):
            img = alpha_bar(embed_ck(fac, 0, s(a, k)))
            gen = ckalg.tensor_elem(
                triple_factors(a), ((((k - 1,), ()), ((), ()), ((), ())))
            )
            assert tensor_equal(img, ck_multiply(alpha_z(a), gen))
            assert alpha_bar(embed_ck(fac, 0, s(a, k)) * z * z_inv) == img


@pytest.mark.parametrize("signature", [
    lambda a: (LAURENT, o_a(a)),
    lambda a: (o_a(a), o_a(a)),
    lambda a: (LAURENT, LAURENT),
    lambda a: (o_a(a),),
    lambda a: (o_a(a), LAURENT, o_a(a)),
], ids=["circle-first", "two-algebras", "two-circles", "one-factor", "three-factors"])
def test_circle_maps_reject_other_signatures(signature):
    fac = signature(ones(2))
    x = ckalg.tensor_elem(fac, (((0,), ()),) + (((), ()),) * (len(fac) - 1))
    with pytest.raises(SignatureMismatchError):
        theta(x)
    with pytest.raises(UnsupportedGeneratorError):
        alpha_bar(x)


def test_alpha_bar_rejects_non_generators():
    a = ones(2)
    fac = (o_a(a), LAURENT)
    with pytest.raises(UnsupportedGeneratorError):
        alpha_bar(z_power(fac, 1, 2))
    with pytest.raises(UnsupportedGeneratorError):
        alpha_bar(embed_ck(fac, 0, s(a, 1)) + z_power(fac, 1, 1))
    with pytest.raises(UnsupportedGeneratorError):
        alpha_bar(embed_ck(fac, 0, s(a, 1).adjoint()))


def test_tensor_is_zero_needs_relations():
    # sum_k s_k s_k* (x) 1 - 1 (x) 1 vanishes only via the range relation
    a = CHORD3
    fac = (o_a(a), LAURENT)
    total = ckalg.tensor_zero(fac)
    for k in range(1, 4):
        g = embed_ck(fac, 0, s(a, k))
        total = total + ck_multiply(g, g.adjoint())
    assert ck_is_zero(total - tensor_unit(fac))


def test_rational_coefficients_survive():
    a = ones(2)
    x = ck_monomial(o_a(a), (0,), (0,), Fraction(1, 2))
    y = x + x
    assert tensor_equal(y, ck_multiply(s(a, 1), s(a, 1).adjoint()))


def test_zero_test_cache_is_bounded():
    maxsize = ckalg._is_zero_cached.cache_info().maxsize
    assert maxsize is not None and maxsize > 0
