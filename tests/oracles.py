"""Reference paths the tests compare ckdual's verdicts against.

The word model evaluates symbolic O_A elements on plain words with no
truncation: each normal-form pair is applied one generator at a time through
the displayed creation and annihilation rules, so the evaluation is
independent of the symbolic reduction rules it is used to check.  The
word-model functions, from ``_annihilate`` to ``ck_compose_on_word``, read
adjacency through ``entry`` only: they must never read ``ZeroOneMatrix.succ``
or ``pred``, nor call anything in ``ckdual.ckalg``, because they are the
check on ``succ`` and on ``ckalg._continuations``.  ``test_oracles.py``
parses this file and enforces that rule.

The oracle wrappers below compare the word model with the symbolic layer,
and ``orbit_spans`` checks that the creation operators reach the whole
truncated basis.

``matmul`` multiplies two integer matrices entry by entry, the check of
U M V = S for the Smith form.

``one_minus`` is the dense 1 - A, the unreduced presentation that
``ktheory`` amalgamates away.  It too reads adjacency through ``entry``
alone and calls nothing in ``ckdual.ktheory``, which ``test_oracles.py``
enforces in the same way.

``det_one_minus_from_periodic_points`` is a dynamical oracle for the
K-theory: it reads det(1 - A) off the periodic points of the shift, with no
linear algebra.  It reads adjacency through ``entry`` alone and uses
nothing of ``ckdual.zlinalg`` or ``ckdual.ktheory``, which
``test_oracles.py`` enforces too.

``has_isolated_point`` is the topological oracle for Cuntz-Krieger
condition (I), which ``sft.satisfies_cantor_condition`` tests as "every
cycle has an exit": it looks for a point of the shift space that is alone in
a cylinder.  It reads adjacency through ``entry`` alone, which
``test_oracles.py`` enforces.
"""

from __future__ import annotations

from fractions import Fraction

from ckdual import ckalg
from ckdual.fock import FockBasis, build_creation
from ckdual.sft import ZeroOneMatrix, enumerate_words
from ckdual.zlinalg import IntMatrix


def _annihilate(k0: int, w):
    return w[1:] if w and w[0] == k0 else None


def _create(a: ZeroOneMatrix, k0: int, w):
    if w and not a.entry(k0, w[0]):
        return None
    return (k0,) + w


def pair_action_on_word(a: ZeroOneMatrix, mu, nu, w):
    """Apply L_mu L_nu* to xi_w; returns the image word or None."""
    for k0 in nu:
        w = _annihilate(k0, w)
        if w is None:
            return None
    for k0 in reversed(mu):
        w = _create(a, k0, w)
        if w is None:
            return None
    return w


def ck_action_on_word(x, w) -> dict:
    """Image of xi_w under the word-model evaluation of the O_A element x (a
    one-factor tensor element), as {word: coeff}."""
    a = x.factors[0].matrix
    out = {}
    for ((mu, nu),), c in x.terms.items():
        img = pair_action_on_word(a, mu, nu, w)
        if img is not None:
            t = out.get(img, 0) + c
            if t:
                out[img] = t
            else:
                del out[img]
    return out


def ck_compose_on_word(elems, w) -> dict:
    """Apply a composition x_1 ∘ ... ∘ x_m (rightmost first) to xi_w."""
    vec = {tuple(w): 1}
    for x in reversed(list(elems)):
        nxt = {}
        for word, c in vec.items():
            for img, c2 in ck_action_on_word(x, word).items():
                t = nxt.get(img, 0) + c * c2
                if t:
                    nxt[img] = t
                else:
                    del nxt[img]
        vec = nxt
    return vec


def one_minus(a: ZeroOneMatrix) -> IntMatrix:
    """The dense 1 - A, entry by entry."""
    n = a.n
    return IntMatrix.from_rows([[int(i == j) - a.entry(i, j) for j in range(n)] for i in range(n)])


def matmul(x: IntMatrix, y: IntMatrix) -> IntMatrix:
    """The product x y, entry by entry."""
    if x.cols != y.rows:
        raise ValueError("dimension mismatch")
    return IntMatrix(x.rows, y.cols, tuple(
        tuple(sum(x.entries[i][k] * y.entries[k][j] for k in range(x.cols)) for j in range(y.cols))
        for i in range(x.rows)))


def periodic_point_counts(a: ZeroOneMatrix, k_max: int) -> list:
    """[p_1, ..., p_k_max]: p_k counts the admissible words w of length k with
    A[w_k][w_1] = 1, the points of period k of the shift, which is tr(A^k).
    The words are grown one letter at a time, depth first."""
    n = a.n
    counts = [0] * k_max
    stack = [(i,) for i in range(n)]
    while stack:
        w = stack.pop()
        counts[len(w) - 1] += a.entry(w[-1], w[0])
        if len(w) < k_max:
            stack += [w + (j,) for j in range(n) if a.entry(w[-1], j)]
    return counts


def det_one_minus_from_periodic_points(a: ZeroOneMatrix) -> int:
    """det(1 - A) from p_1..p_n alone.

    det(I - tA) = c_0 + c_1 t + ... + c_n t^n has c_0 = 1, and its
    logarithm is -sum_k p_k t^k / k, so Newton's identities give
    k c_k = -(p_1 c_{k-1} + ... + p_k c_0) (Lind & Marcus 1995, sec. 6.4).
    At t = 1 this is det(1 - A) = c_0 + ... + c_n.
    """
    p = periodic_point_counts(a, a.n)
    c = [Fraction(1)]
    for k in range(1, a.n + 1):
        c.append(-sum(p[i - 1] * c[k - i] for i in range(1, k + 1)) / k)
    det = sum(c)
    assert det.denominator == 1
    return int(det)


def has_isolated_point(a: ZeroOneMatrix) -> bool:
    """Whether the one-sided shift space of A has an isolated point.

    A valid matrix has no zero row, so every letter starts an infinite
    path.  The cylinder of a word is then one point exactly when every
    letter reachable from its last letter, that letter included, has one
    successor; so look for a letter whose forward closure has out-degree 1
    everywhere, following the one successor until a letter repeats.
    """
    for start in range(a.n):
        v, seen = start, set()
        while v not in seen:
            seen.add(v)
            successors = [j for j in range(a.n) if a.entry(v, j)]
            if len(successors) != 1:
                break
            v = successors[0]
        else:
            return True
    return False


# ---------------------------------------------------------------------------
# the word model against the symbolic layer


def max_nu_len(x) -> int:
    return max((len(nu) for ((_mu, nu),) in x.terms), default=0)


def max_word_len(x) -> int:
    return max((max(len(mu), len(nu)) for ((mu, nu),) in x.terms), default=0)


def word_model_images_agree(x, y, length: int) -> bool:
    """Word-model images of x and y agree on every column of the given length."""
    a = x.factors[0].matrix
    return all(
        ck_action_on_word(x, w) == ck_action_on_word(y, w)
        for w in enumerate_words(a, length)
    )


def oracle_confirms_equality_verdict(x, y, verdict: bool) -> bool:
    """Double-entry check of a symbolic equality verdict against the word model.

    A column no longer than the longest nu can still carry a vacuum
    correction: s_2 s_3* is 0 in O_A for SPARSE3, yet maps xi_3 to xi_2.  So
    the window starts one letter past the longest nu of either side.  There
    elements equal in the algebra have identical word-model images, and
    unequal elements must differ on some column of length at most 2D+1,
    where D bounds the word lengths.
    """
    lo = max(max_nu_len(x), max_nu_len(y)) + 1
    d = max(max_word_len(x), max_word_len(y), 1)
    agree = all(word_model_images_agree(x, y, length) for length in range(lo, 2 * d + 2))
    return agree == verdict


def product_matches_composition(x, y, lengths=None) -> bool:
    """Word-model check that the symbolic product x*y composes correctly.

    Vacuum-sector corrections to composition live on columns of length at
    most max_nu(x) + max_nu(y); beyond that the composed action of y then x
    must match the action of the reduced product exactly.
    """
    a = x.factors[0].matrix
    prod = ckalg.ck_multiply(x, y)
    lo = max_nu_len(x) + max_nu_len(y) + 1
    if lengths is None:
        lengths = (lo, lo + 1)
    for length in lengths:
        for w in enumerate_words(a, length):
            if ck_compose_on_word([x, y], w) != ck_action_on_word(prod, w):
                return False
    return True


# ---------------------------------------------------------------------------
# the creation operators against the truncated basis


def orbit_spans(basis: FockBasis) -> bool:
    """True iff words reachable from the vacuum under {L_k, R_k, adjoints}
    exhaust the truncated basis."""
    n = basis.matrix.n
    ops = []
    for k in range(1, n + 1):
        for side in ("left", "right"):
            op = build_creation(basis, side, k)
            ops.append(op)
            ops.append(op.adjoint())
    seen = {0}
    frontier = [0]
    while frontier:
        nxt = []
        for j in frontier:
            for op in ops:
                for i in op.column(j):
                    if i not in seen:
                        seen.add(i)
                        nxt.append(i)
        frontier = nxt
    return len(seen) == basis.size
