"""Hybrid model of (Fock-operator algebra) tensor O_A and its lemma checks.

Elements are finite sums of pairs (concrete truncated Fock operator, symbolic
Cuntz-Krieger element).  The operator factor is an exact integer matrix; the
symbolic factor stays in normal form because O_A admits no faithful
finite-dimensional representation, so identities involving it are exact
statements rather than approximations.

The distinguished element is

    W = sum_i R_i (x) s_i*

and the verified identities are: the quotient image of W (under R_i -> 1 (x)
t_i, L_i -> s_i (x) 1, compacts -> 0) equals the circle-generator transport
alpha_z; W*W expands as sum_{i,j} A[j][i] R_j R_j* (x) s_i s_i* plus the
vacuum term; [W*, W] is the vacuum projection; W commutes with every
L_k (x) 1 while [W*, L_k (x) 1] is P (x) s_k up to an explicit rank-one
defect when row k of A has zeros; and V_k = W*(L_k (x) 1) satisfies the
shift/isometry relations that present the Toeplitz algebra tensor O_A.

The quotient map is carried by the elements, not by the Fock operators: the
hybrid generators supply the image of their operator in O_A (x) O_{A^T}
(R_i -> 1 (x) t_i, L_k -> s_k (x) 1, P -> 0).  Every element keeps one
image, an element of O_A (x) O_{A^T} (x) O_A: the sum over its terms as
written of the operator's image tensored with the symbolic factor.  The
algebra acts on that image alongside the terms (a sum adds the two images,
a product multiplies them once, the adjoint takes the image's adjoint), and
the quotient image is the image itself.

Truncation is carried as on a ``FockOperator``: every element has
``raise_len`` and ``lower_len``, bounds over every operator it was built
from, including terms that cancel in a sum or are empty after truncation, so
``valid_up_to = m_max - raise_len`` is sound for the element as written.
A comparison merges the terms of one side with the negated terms of the
other, builds no element for their difference, and makes one pass over the
partial maps of the merged terms inside the two sides' shared valid domain;
each distinct entry is zero-tested and rendered once per scan, however many
cells hold it, and every discrepancy is reported as a ``fock.DefectColumn``
whose entries are rendered symbolic factors - a defect is a first-class
output, not a failure of the engine.
Words are rendered in ``ckdual.fock``; this module handles basis positions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, groupby
from operator import itemgetter

from . import ckalg
from .ckalg import TensorElement, ck_is_zero, ck_unit
from .fock import BasisMismatchError, FockBasis, build_creation, defect_column, vacuum_projection


class HybridElement:
    """Sum of (FockOperator, one-factor TensorElement) pairs over a shared basis.

    ``terms`` is merged by operator value (``FockOperator`` equality is by
    matrix, and its hash is the support size), in order of first appearance.
    ``prov`` is the quotient image of the element as written, one
    ``TensorElement`` over O_A (x) O_{A^T} (x) O_A: the sum of q (x) ck over
    its terms, with q the image of a term's operator in O_A (x) O_{A^T} and
    ck its symbolic factor.  It is summed before merging and truncation,
    which can empty a term whose image is not zero.  ``raise_len`` and
    ``lower_len`` are fixed before merging, as the maximum over every
    constituent operator: ``+`` takes the maximum, ``hybrid_mul`` adds and
    ``adjoint`` swaps them, so a cancelled or empty term still narrows
    ``valid_up_to``.
    """

    __slots__ = ("basis", "terms", "prov", "raise_len", "lower_len")

    def __init__(self, basis: FockBasis, terms, prov: TensorElement, raise_len: int,
                 lower_len: int):
        self.basis = basis
        self.terms = _merge_terms(terms)
        self.prov = prov
        self.raise_len = raise_len
        self.lower_len = lower_len

    @property
    def valid_up_to(self) -> int:
        """Columns of words of length <= valid_up_to are exact."""
        return max(self.basis.m_max - self.raise_len, -1)

    def __add__(self, other):
        self._compatible(other)
        return HybridElement(self.basis, self.terms + other.terms, self.prov + other.prov,
                             max(self.raise_len, other.raise_len),
                             max(self.lower_len, other.lower_len))

    def adjoint(self) -> "HybridElement":
        return HybridElement(
            self.basis,
            [(op.adjoint(), ck.adjoint()) for op, ck in self.terms],
            self.prov.adjoint(),
            self.lower_len,
            self.raise_len,
        )

    def _compatible(self, other: "HybridElement"):
        if self.basis is not other.basis:
            raise BasisMismatchError("hybrid elements live on different bases")


def _merge_terms(terms):
    """The (operator, ck) pairs summed by operator value, in order of first
    appearance, with empty operators and zero sums dropped."""
    merged = {}
    for op, ck in terms:
        if not op.tgt or not ck.terms:
            continue
        prev = merged.get(op)
        merged[op] = ck if prev is None else prev + ck
    return tuple((op, ck) for op, ck in merged.items() if ck.terms)


def hybrid(basis: FockBasis, pairs, images) -> HybridElement:
    """The sum of the (operator, ck) pairs.  ``images`` gives the quotient
    image q of each operator in O_A (x) O_{A^T}, in order, and the element's
    image is the sum of q (x) ck over the pairs."""
    pairs = list(pairs)  # read three times: image, terms and bounds
    prov = {}
    for q, (_op, ck) in zip(images, pairs, strict=True):
        for qk, c in q.terms.items():
            for k, c2 in ck.terms.items():
                prov[qk + k] = prov.get(qk + k, 0) + c * c2
    return HybridElement(basis, pairs, TensorElement(ckalg.triple_factors(basis.matrix), prov),
                         max((op.raise_len for op, _ in pairs), default=0),
                         max((op.lower_len for op, _ in pairs), default=0))


def _pair_factors(basis: FockBasis):
    """O_A (x) O_{A^T}, where the quotient images of operators live."""
    return (ckalg.o_a(basis.matrix), ckalg.o_at(basis.matrix))


def hybrid_mul(x: HybridElement, y: HybridElement) -> HybridElement:
    """xy.  A pair of terms whose symbolic product has no terms is skipped
    before its Fock product is built, as the merge would drop it.  The two
    images are multiplied once, and the bounds still add over every pair."""
    x._compatible(y)
    terms = [(op1 @ op2, ck) for op1, ck1 in x.terms for op2, ck2 in y.terms
             if (ck := ck1 * ck2).terms]
    return HybridElement(x.basis, terms, x.prov * y.prov, x.raise_len + y.raise_len,
                         x.lower_len + y.lower_len)


def build_W(basis: FockBasis) -> HybridElement:
    """W = sum_i R_i (x) s_i*, with R_i -> 1 (x) t_i."""
    tag, factors, n = ckalg.o_a(basis.matrix), _pair_factors(basis), basis.matrix.n
    pairs = [(build_creation(basis, "right", i + 1), ckalg.ck_generator(tag, i + 1).adjoint())
             for i in range(n)]
    images = [ckalg.tensor_elem(factors, (((), ()), ((i,), ()))) for i in range(n)]
    return hybrid(basis, pairs, images)


def left_creation_tensor_unit(basis: FockBasis, k: int) -> HybridElement:
    """L_k (x) 1, with L_k -> s_k (x) 1."""
    image = ckalg.tensor_elem(_pair_factors(basis), (((k - 1,), ()), ((), ())))
    return hybrid(basis, [(build_creation(basis, "left", k), ck_unit(ckalg.o_a(basis.matrix)))],
                  [image])


def vacuum_tensor(basis: FockBasis, ck: TensorElement) -> HybridElement:
    """P (x) ck for the vacuum projection P, with the compact P -> 0."""
    return hybrid(basis, [(vacuum_projection(basis), ck)],
                  [ckalg.tensor_zero(_pair_factors(basis))])


def hybrid_zero(basis: FockBasis) -> HybridElement:
    return HybridElement(basis, [], ckalg.tensor_zero(ckalg.triple_factors(basis.matrix)), 0, 0)


# ---------------------------------------------------------------------------
# defect scan


def hybrid_defects(x: HybridElement, y: HybridElement):
    """Columns of the shared valid domain where x and y differ; exact entries.

    The terms of x and the negated terms of y are merged by operator in one
    ``_merge_terms`` call, with cancelled terms dropped, so a term that
    cancels between the two sides is never scanned; no difference element,
    second merge or quotient image is built.  The domain is the smaller of
    the two valid domains.  One pass over the ``tgt``/``coef`` maps of the
    merged terms keys each entry inside the domain by the (term index,
    weight) pairs of the terms that map its column to its row, in term
    order.  The entry is the sum of weight times symbolic factor over those
    pairs, so the key determines it, and each distinct key is summed,
    zero-tested and rendered once per scan.  The nonzero entries are
    emitted in basis order, columns first, then rows, as
    ``fock.DefectColumn`` values with the symbolic factor as a string.
    """
    x._compatible(y)
    basis, valid = x.basis, min(x.valid_up_to, y.valid_up_to)
    end, size = basis.end_of_length(valid), basis.size
    terms = _merge_terms(chain(x.terms, [(op, -ck) for op, ck in y.terms]))
    # cell j * size + i (column j, row i) -> key (term index, weight, ...);
    # weight 1 shares one (t, 1) per term, so a one-term cell allocates no key
    cells = {}
    for t, (op, _ck) in enumerate(terms):
        coef, unit = op.coef, (t, 1)
        for j, i in op.tgt.items():
            if j < end:
                w = coef.get(j)
                cell = j * size + i
                cells[cell] = cells.get(cell, ()) + (unit if w is None else (t, w))
    factors = (ckalg.o_a(basis.matrix),)
    rendered = {}  # key -> the rendered entry, "" when it is zero
    nonzero = []  # (column, row, rendered entry) in basis order
    for cell, key in sorted(cells.items()):
        text = rendered.get(key)
        if text is None:
            entry = {}
            for t, w in zip(key[::2], key[1::2]):
                for k, c in terms[t][1].terms.items():
                    entry[k] = entry.get(k, 0) + c * w
            entry = TensorElement(factors, entry)
            text = rendered[key] = "" if ck_is_zero(entry) else str(entry)
        if text:
            nonzero.append((*divmod(cell, size), text))
    return valid, tuple(defect_column(basis, j, [(i, text) for _j, i, text in col])
                        for j, col in groupby(nonzero, itemgetter(0)))


# ---------------------------------------------------------------------------
# the quotient map (carried by the images the generators supply)


def quotient_image(x: HybridElement) -> TensorElement:
    """Image in O_A (x) O_{A^T} (x) O_A under R_i -> 1 (x) t_i, L_i -> s_i (x) 1,
    vacuum projection -> 0, with the symbolic factor carried to the third leg:
    ``x.prov``, which every element carries."""
    return x.prov


# ---------------------------------------------------------------------------
# lemma reports


@dataclass(frozen=True)
class LemmaItem:
    item_id: str
    holds: bool
    defects: tuple = ()
    note: str = ""

    def to_json(self) -> dict:
        out = {
            "id": self.item_id,
            "holds": self.holds,
            "defects": [{"column": d.column, "length": d.length, "entries": dict(d.entries)}
                        for d in self.defects],
        }
        if self.note:
            out["note"] = self.note
        return out


@dataclass(frozen=True)
class LemmaReport:
    lemma: str
    m_max: int
    items: tuple = field(default_factory=tuple)

    @property
    def holds(self) -> bool:
        return all(item.holds for item in self.items)

    def to_json(self) -> dict:
        return {
            "lemma": self.lemma,
            "items": [item.to_json() for item in self.items],
            "m_max": self.m_max,
        }


def _hybrid_item(item_id: str, lhs: HybridElement, rhs: HybridElement) -> LemmaItem:
    _valid, defects = hybrid_defects(lhs, rhs)
    return LemmaItem(item_id, not defects, defects)


def _symbolic_item(item_id: str, lhs: TensorElement, rhs: TensorElement, note: str = "") -> LemmaItem:
    if ckalg.tensor_equal(lhs, rhs):
        return LemmaItem(item_id, True, (), note)
    diff = lhs - rhs
    return LemmaItem(item_id, False, (), (note + "; " if note else "") + f"difference: {diff}")


def _w_w_expansion(basis: FockBasis, w: HybridElement, w_star: HybridElement) -> HybridElement:
    """sum_{i,j} A[j][i] R_j R_j* (x) s_i s_i* + P (x) 1, with R_j and R_j*
    read off term j of W and of W* (every R_j is nonzero and distinct), with
    R_j R_j* -> 1 (x) t_j t_j* and P -> 0."""
    a = basis.matrix
    tag, factors = ckalg.o_a(a), _pair_factors(basis)
    pairs, images = [], []
    for j, ((r, _), (r_star, _)) in enumerate(zip(w.terms, w_star.terms)):
        ck = TensorElement((tag,), {(((i,), (i,)),): 1 for i in a.succ[j]})
        pairs.append((r @ r_star, ck))
        images.append(ckalg.tensor_elem(factors, (((), ()), ((j,), (j,)))))
    pairs.append((vacuum_projection(basis), ck_unit(tag)))
    images.append(ckalg.tensor_zero(factors))
    return hybrid(basis, pairs, images)


def verify_lemma_W(basis: FockBasis) -> LemmaReport:
    """The six identities for W = sum_i R_i (x) s_i*.

    Items ii)-v) hold exactly for every valid matrix; item vi) compares
    [W*, L_k (x) 1] against P (x) s_k and, whenever A[k][i] = 0, reports the
    exact rank-one defect -|xi_k><xi_i| (x) s_i on the length-1 column i.
    """
    a = basis.matrix
    tag = ckalg.o_a(a)
    w = build_W(basis)
    w_star = w.adjoint()
    w_star_w = hybrid_mul(w_star, w)
    p1 = vacuum_tensor(basis, ck_unit(tag))
    items = [
        _symbolic_item("i", quotient_image(w), ckalg.alpha_z(a)),
        _hybrid_item("ii", w_star_w, _w_w_expansion(basis, w, w_star)),
        _hybrid_item("iii", w_star_w, hybrid_mul(w, w_star) + p1),
        _hybrid_item("iv", hybrid_mul(p1, w), hybrid_zero(basis)),
    ]
    del w_star_w  # large; no later item needs it
    v_items, vi_items = [], []
    for k in range(1, a.n + 1):
        lk = left_creation_tensor_unit(basis, k)
        v_items.append(_hybrid_item(f"v(k={k})", hybrid_mul(w, lk), hybrid_mul(lk, w)))
        vi_items.append(_hybrid_item(f"vi(k={k})", hybrid_mul(w_star, lk),
                                     hybrid_mul(lk, w_star)
                                     + vacuum_tensor(basis, ckalg.ck_generator(tag, k))))
    return LemmaReport("W", basis.m_max, tuple(items + v_items + vi_items))


def _w_and_v(basis: FockBasis):
    """W, W*, the V_k = W* (L_k (x) 1), their adjoints and the range
    projections V_k V_k*, each built once (k = 1..n in list order)."""
    w = build_W(basis)
    w_star = w.adjoint()
    vs = [hybrid_mul(w_star, left_creation_tensor_unit(basis, k))
          for k in range(1, basis.matrix.n + 1)]
    vs_star = [v.adjoint() for v in vs]
    ranges = [hybrid_mul(v, v_star) for v, v_star in zip(vs, vs_star)]
    return w, w_star, vs, vs_star, ranges


def _range_items(basis: FockBasis, label: str, vs, vs_star, ranges) -> list:
    """V_k* V_k = sum_j A[k][j] V_j V_j*, one item per k."""
    return [
        _hybrid_item(f"{label}(k={k + 1})", hybrid_mul(vs_star[k], vs[k]),
                     sum((ranges[j] for j in succ), hybrid_zero(basis)))
        for k, succ in enumerate(basis.matrix.succ)
    ]


def verify_lemma_V(basis: FockBasis) -> LemmaReport:
    """The identities for V_k = W* (L_k (x) 1).

    Item i compares the quotient image of V_k with alpha_z(A)* (s_k (x) 1 (x) 1):
    the quotient of W* is the adjoint of the circle transport, so V_k lands on
    the conjugate-generator transport.
    """
    a = basis.matrix
    w, w_star, vs, vs_star, ranges = _w_and_v(basis)
    alpha_conj = ckalg.alpha_z(a).adjoint()
    triple, tag = ckalg.triple_factors(a), ckalg.o_a(a)
    items = [_symbolic_item(f"i(k={k})", quotient_image(v_k),
                            ckalg.ck_multiply(alpha_conj,
                                              ckalg.embed_ck(triple, 0, ckalg.ck_generator(tag, k))),
                            note="compared against the adjoint circle transport")
             for k, v_k in enumerate(vs, 1)]
    items.append(_hybrid_item("ii", sum(ranges, hybrid_zero(basis)), hybrid_mul(w_star, w)))
    items += _range_items(basis, "iii", vs, vs_star, ranges)
    del vs_star, ranges  # large; no later item needs them
    items += [_hybrid_item(f"iv(k={k})", hybrid_mul(w, v_k), hybrid_mul(v_k, w))
              for k, v_k in enumerate(vs, 1)]
    items += [_hybrid_item(f"v(k={k})", hybrid_mul(w_star, v_k), hybrid_mul(v_k, w_star))
              for k, v_k in enumerate(vs, 1)]
    return LemmaReport("V", basis.m_max, tuple(items))


def verify_toeplitz_untwist(basis: FockBasis) -> LemmaReport:
    """Relations presenting the Toeplitz algebra tensor O_A on {W, V_k}.

    W*W acts as the unit on every V_k and is an idempotent; the commutator
    W*W - WW* is exactly the vacuum term P (x) 1; and the V_k satisfy the
    defining range relations relative to that unit.
    """
    w, w_star, vs, vs_star, ranges = _w_and_v(basis)
    unit = hybrid_mul(w_star, w)
    items = [_hybrid_item(f"unit(k={k})", hybrid_mul(unit, v_k), v_k)
             for k, v_k in enumerate(vs, 1)]
    items += _range_items(basis, "range", vs, vs_star, ranges)
    del vs_star, ranges  # large; no later item needs them
    p1 = vacuum_tensor(basis, ck_unit(ckalg.o_a(basis.matrix)))
    items.append(_hybrid_item("shift", unit, hybrid_mul(w, w_star) + p1))
    items.append(_hybrid_item("idempotent", hybrid_mul(unit, unit), unit))
    return LemmaReport("toeplitz", basis.m_max, tuple(items))


def verify_lemmas(basis: FockBasis, which: str = "W"):
    if which == "W":
        return verify_lemma_W(basis)
    if which == "V":
        return verify_lemma_V(basis)
    if which == "toeplitz":
        return verify_toeplitz_untwist(basis)
    raise ValueError(f"unknown lemma selector {which!r}")
