import copy
import json
import operator
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ckdual import ckalg, fock
from ckdual.fock import (
    FockBasis,
    FockOperator,
    RelationDefect,
    build_creation,
    commutator,
    creation_relations,
    identity,
    rotation_operator,
    vacuum_projection,
    verify_creation_relations,
    verify_relation,
    zero,
)
from ckdual.sft import enumerate_words, is_admissible, word_str

from helpers import (
    CHORD3,
    FIB,
    MIXED4,
    all_valid_matrices,
    ones,
    random_valid_matrix,
    relation_family,
)
from oracles import ck_action_on_word, orbit_spans, pair_action_on_word


def basis(a, m=5):
    return FockBasis(a, m)


def test_basis_order_and_index():
    b = basis(FIB, 3)
    assert b.words[0] == ()
    assert b.words[1:3] == [(0,), (1,)]
    lengths = [len(w) for w in b.words]
    assert lengths == sorted(lengths)
    assert all(b.index[w] == i for i, w in enumerate(b.words))


def test_basis_enumerates_its_words_in_one_call(monkeypatch):
    # one call for all lengths 0..m_max: a call per length would rebuild every
    # shorter length each time
    calls = []
    enumerate_words = fock.enumerate_words

    def spy(*args):
        calls.append(args[1:])
        return enumerate_words(*args)

    monkeypatch.setattr(fock, "enumerate_words", spy)
    for a in (FIB, ones(3)):
        calls.clear()
        FockBasis(a, 6)
        assert calls == [(0, 6)]


def test_basis_words_and_sectors_are_the_per_length_lists():
    for a in relation_family():
        for m_max in (1, 2, 5):
            b = FockBasis(a, m_max)
            words, bounds = [], []
            for m in range(m_max + 1):
                start = len(words)
                words += enumerate_words(a, m)
                bounds.append((start, len(words)))
            assert b.words == words
            assert b.sector_bounds == bounds


def test_creation_vacuum_rule():
    b = basis(ones(2))
    for side in ("left", "right"):
        op = build_creation(b, side, 1)
        assert op.column(0) == {b.index[(0,)]: 1}


def test_creation_examples():
    b = basis(FIB)
    l2 = build_creation(b, "left", 2)
    assert l2.column(b.index[(1,)]) == {}  # A[2][2] = 0
    b2 = basis(ones(2))
    r2 = build_creation(b2, "right", 2)
    assert r2.column(b2.index[(0,)]) == {b2.index[(0, 1)]: 1}


def test_adjoint_examples():
    b = basis(ones(2))
    l1 = build_creation(b, "left", 1)
    assert l1.adjoint().column(b.index[(0,)]) == {0: 1}  # L1* xi_1 = vacuum
    assert l1.adjoint().column(b.index[(1, 0)]) == {}  # first letter is 2
    r2 = build_creation(b, "right", 2)
    assert r2.adjoint().column(b.index[(0, 1)]) == {b.index[(0,)]: 1}


def test_adjoint_is_delta_not_matrix_coefficient():
    # the adjoint is the transpose, so (L_2)* xi_{21} = xi_1 even though
    # prepending 2 to 1 is admissible both ways in the Fibonacci graph
    b = basis(FIB)
    l1 = build_creation(b, "left", 1)
    # adjoint pairing: column w maps to w[1:] exactly when w starts with 1
    for j, w in enumerate(b.words):
        col = l1.adjoint().column(j)
        if w and w[0] == 0:
            assert col == {b.index[w[1:]]: 1}
        else:
            assert col == {}


def test_valid_up_to_bookkeeping():
    b = basis(ones(2), 4)
    l1 = build_creation(b, "left", 1)
    assert l1.valid_up_to == 3  # creation loses the top layer
    assert l1.adjoint().valid_up_to == 4  # annihilation is truncation-safe
    prod = l1.adjoint() @ l1
    assert prod.valid_up_to == 3
    assert (prod @ l1).valid_up_to == 2
    assert vacuum_projection(b).valid_up_to == 4
    assert (l1 @ l1.adjoint() + vacuum_projection(b)).valid_up_to == 3
    assert l1.adjoint().adjoint().valid_up_to == 3
    deep = l1 @ l1 @ l1 @ l1 @ l1 @ l1  # raises length by 6 > m_max: clamped
    assert deep.valid_up_to == -1 and deep.adjoint().adj_valid == -1
    assert deep.adj_valid == deep.adjoint().valid_up_to == 4


def test_equal_operators_hash_equal():
    b = basis(FIB, 4)
    l1, l1_again = build_creation(b, "left", 1), build_creation(b, "left", 1)
    proj = l1 @ l1.adjoint()
    proj_again = l1_again @ l1_again.adjoint()
    for x, y in ((l1, l1_again), (proj, proj_again)):
        assert x is not y
        assert x == y
        assert hash(x) == hash(y)
        assert len({x, y}) == 1
    assert l1 != build_creation(b, "left", 2)
    assert len({l1, proj, build_creation(b, "right", 1)}) == 3


def test_operator_entries_are_partial_permutations():
    for a in (ones(2), FIB, ones(3)):
        b = basis(a, 4)
        for side in ("left", "right"):
            for k in range(1, a.n + 1):
                op = build_creation(b, side, k)
                for col in op.cols.values():
                    assert len(col) == 1
                    assert set(col.values()) == {1}
                adj = op.adjoint()
                for col in adj.cols.values():
                    assert len(col) == 1
                    assert set(col.values()) == {1}


def test_creation_targets_match_word_positions():
    # the arithmetic index of every k w and w k against the word list itself
    for a in all_valid_matrices(2) + all_valid_matrices(3):
        for m in range(2, 7):
            b = FockBasis(a, m)
            position = {w: i for i, w in enumerate(b.words)}  # b.words.index, in O(1)
            assert len(position) == b.size
            for side in ("left", "right"):
                for k0 in range(a.n):
                    expected = {}
                    for j, w in enumerate(b.words[:b.end_of_length(m - 1)]):
                        new = (k0,) + w if side == "left" else w + (k0,)
                        if is_admissible(a, new):
                            expected[j] = {position[new]: 1}
                    assert build_creation(b, side, k0 + 1).cols == expected, (a, m, side, k0)


def test_vacuum_projection():
    b = basis(ones(2))
    p = vacuum_projection(b)
    assert p.column(0) == {0: 1}
    assert p.column(1) == {}
    assert (p @ p).cols == p.cols


def test_relations_i_to_iii_hold_on_family():
    for a in relation_family():
        b = FockBasis(a, 4)
        for which in ("i", "ii", "iii"):
            for rep in verify_creation_relations(b, which):
                assert rep.holds, (a, rep.relation, rep.defects)


def test_relation_iv_defect_structure():
    for a in relation_family():
        b = FockBasis(a, 4)
        p = vacuum_projection(b)
        for k in range(a.n):
            lk = build_creation(b, "left", k + 1)
            for l in range(a.n):
                rl = build_creation(b, "right", l + 1)
                lhs = commutator(lk.adjoint(), rl)
                rhs = p if k == l else zero(b)
                rep = verify_relation("iv", lhs, rhs)
                if a.entry(k, l):
                    assert rep.holds
                else:
                    # brute-force oracle: the defect is (A[k][l]-1)|xi_l><xi_k|
                    expected = {b.index[(k,)]: {b.index[(l,)]: a.entry(k, l) - 1}}
                    diff = lhs - rhs
                    got = {
                        j: col
                        for j, col in diff.cols.items()
                        if len(b.words[j]) <= rep.valid_up_to
                    }
                    assert got == expected
                    assert not rep.holds
                    assert len(rep.defects) == 1
                    d = rep.defects[0]
                    assert d.length == 1


def _attempt(op, *args):
    """op(*args), or None where the result would hold two entries in a column."""
    try:
        return op(*args)
    except ValueError:
        return None


def test_operations_never_mutate_shared_columns():
    # operators share maps (``scale`` keeps ``tgt``), so no operation may
    # write into an operand's maps, not even one that raises; every operand
    # must keep a deep-copied snapshot
    b = basis(MIXED4, 4)
    l1, r2 = build_creation(b, "left", 1), build_creation(b, "right", 2)
    l1_star = l1.adjoint()
    proj = l1 @ l1_star
    total = proj + vacuum_projection(b) - r2 @ r2.adjoint()  # cancels on the words 1...2
    operands = [l1, r2, l1_star, proj, total]
    assert all(x.scale(-2).tgt is x.tgt for x in (l1, r2, l1_star, proj))
    disjoint = proj + vacuum_projection(b)
    assert disjoint.tgt == {**proj.tgt, 0: 0}
    snapshots = [copy.deepcopy(op.cols) for op in operands]
    binary = (operator.add, operator.sub, operator.matmul, commutator)
    results = []
    for x in operands:
        results += [x.scale(3), x.scale(-1), _attempt(FockOperator.adjoint, x)]
        for y in operands:
            results += [_attempt(f, x, y) for f in binary]
    results = [x for x in results if x is not None]
    result_snapshots = [copy.deepcopy(op.cols) for op in results]
    for x in results:
        _attempt(FockOperator.adjoint, x)
        x.scale(-2)
        for y in operands:
            for f in binary:
                _attempt(f, x, y), _attempt(f, y, x)
    for op, snap in zip(operands + results, snapshots + result_snapshots):
        assert op.cols == snap


def test_two_entries_in_a_column_raise():
    b = basis(FIB, 3)
    l1, l2 = build_creation(b, "left", 1), build_creation(b, "left", 2)
    # L_1 xi_1 = xi_11 and L_1* xi_1 = vacuum
    with pytest.raises(ValueError, match=r"the sum has two entries in column 1 \(word '1'\)"):
        l1 + l1.adjoint()
    # L_1* and L_2* both send xi_1 and xi_2 to the vacuum
    fold = l1.adjoint() + l2.adjoint()
    with pytest.raises(ValueError, match=r"the adjoint has two entries in column 0 \(word ''\)"):
        fold.adjoint()


# ---------------------------------------------------------------------------
# operations against a plain dict-of-dicts reference


def _ref_prune(cols):
    cols = {j: {i: v for i, v in col.items() if v} for j, col in cols.items()}
    return {j: col for j, col in cols.items() if col}


def _ref_sum(x, y, sign=1):
    out = {j: dict(col) for j, col in x.items()}
    for j, col in y.items():
        dst = out.setdefault(j, {})
        for i, v in col.items():
            dst[i] = dst.get(i, 0) + sign * v
    return _ref_prune(out)


def _ref_product(x, y):
    out = {}
    for j, ycol in y.items():
        dst = out.setdefault(j, {})
        for mid, v in ycol.items():
            for i, w in x.get(mid, {}).items():
                dst[i] = dst.get(i, 0) + w * v
    return _ref_prune(out)


def _ref_adjoint(x):
    out = {}
    for j, col in x.items():
        for i, v in col.items():
            out.setdefault(i, {})[j] = v
    return out


_REFERENCE = {
    "+": lambda x, y, c: _ref_sum(x, y),
    "-": lambda x, y, c: _ref_sum(x, y, -1),
    "@": lambda x, y, c: _ref_product(x, y),
    "scale": lambda x, y, c: _ref_prune({j: {i: c * v for i, v in col.items()}
                                         for j, col in x.items()}),
    "adjoint": lambda x, y, c: _ref_adjoint(x),
    "commutator": lambda x, y, c: _ref_sum(_ref_product(x, y), _ref_product(y, x), -1),
}

_OPERATION = {
    "+": lambda x, y, c: x + y,
    "-": lambda x, y, c: x - y,
    "@": lambda x, y, c: x @ y,
    "scale": lambda x, y, c: x.scale(c),
    "adjoint": lambda x, y, c: x.adjoint(),
    "commutator": lambda x, y, c: commutator(x, y),
}


def _bounds(valid, adj, up, down):
    """Reference (valid_up_to, adj_valid, raise_len, lower_len), clamped at -1."""
    return (max(valid, -1), max(adj, -1), up, down)


def _bounds_sum(x, y):
    return _bounds(min(x[0], y[0]), min(x[1], y[1]), max(x[2], y[2]), max(x[3], y[3]))


def _bounds_product(x, y):
    return _bounds(min(y[0], x[0] - y[2]), min(x[1], y[1] - x[3]), x[2] + y[2], x[3] + y[3])


def _bounds_adjoint(x):
    return (x[1], x[0], x[3], x[2])


_BOUNDS = {
    "+": _bounds_sum,
    "-": _bounds_sum,
    "@": _bounds_product,
    "scale": lambda x, y: x,
    "adjoint": lambda x, y: _bounds_adjoint(x),
    "commutator": lambda x, y: _bounds_sum(_bounds_product(x, y), _bounds_product(y, x)),
}


def _operator_pool(a, m):
    """Generators, adjoints, P, 1, 0 and a map that is not injective, each
    with its reference bounds."""
    b = FockBasis(a, m)
    gens = [build_creation(b, side, k) for side in ("left", "right") for k in range(1, a.n + 1)]
    fold = gens[0].adjoint() + gens[1].adjoint()
    gen, flat = _bounds(m - 1, m, 1, 0), _bounds(m, m, 0, 0)
    gen_star = _bounds_adjoint(gen)
    ops = gens + [g.adjoint() for g in gens] + [vacuum_projection(b), identity(b), zero(b), fold]
    bounds = [gen] * len(gens) + [gen_star] * len(gens) + [flat] * 3 + [_bounds_sum(gen_star, gen_star)]
    return ops, bounds


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    a=st.sampled_from([FIB, CHORD3, MIXED4]),
    m=st.integers(2, 5),
    steps=st.lists(
        st.tuples(st.sampled_from(sorted(_OPERATION)), st.integers(0, 999),
                  st.integers(0, 999), st.integers(-3, 3).filter(bool)),
        min_size=1, max_size=10,
    ),
)
def test_operations_match_dict_of_dicts_reference(a, m, steps):
    pool, bounds = _operator_pool(a, m)
    refs = [copy.deepcopy(op.cols) for op in pool]
    for op, bound in zip(pool, bounds):
        assert (op.valid_up_to, op.adj_valid, op.raise_len, op.lower_len) == bound
    for kind, i, j, c in steps:
        i, j = i % len(pool), j % len(pool)
        ref = _REFERENCE[kind](refs[i], refs[j], c)
        crowded = [col for col, entries in ref.items() if len(entries) > 1]
        if crowded:
            with pytest.raises(ValueError, match="two entries in column") as err:
                _OPERATION[kind](pool[i], pool[j], c)
            assert int(re.search(r"column (\d+)", str(err.value)).group(1)) in crowded
            continue
        got = _OPERATION[kind](pool[i], pool[j], c)
        bound = _BOUNDS[kind](bounds[i], bounds[j])
        assert got.cols == ref, (kind, i, j, c)
        assert (got.valid_up_to, got.adj_valid, got.raise_len, got.lower_len) == bound
        for op, op_ref in zip(pool, refs):
            assert (got == op) == (ref == op_ref)
            if ref == op_ref:
                assert hash(got) == hash(op)
        pool.append(got)
        refs.append(ref)
        bounds.append(bound)


def _reference_defects(lhs, rhs):
    # the former construction: walk the columns of lhs - rhs in the valid domain
    b = lhs.basis
    valid = min(lhs.valid_up_to, rhs.valid_up_to)
    out = []
    for j, col in sorted((lhs - rhs).cols.items()):
        w = b.words[j]
        if len(w) <= valid:
            delta = tuple((word_str(b.words[i]), v) for i, v in sorted(col.items()))
            out.append(RelationDefect(word_str(w), len(w), delta))
    return tuple(out)


def test_verify_relation_matches_difference_oracle():
    mats = [MIXED4] + [random_valid_matrix(random.Random(seed), 3) for seed in (31, 32, 33)]
    seen_defects = 0
    for a in mats:
        for m in range(3, 7):
            b = FockBasis(a, m)
            for label, lhs, rhs in creation_relations(b):
                for x, y in ((lhs, rhs), (rhs, lhs), (lhs, rhs.scale(2))):
                    rep = verify_relation(label, x, y)
                    expected = _reference_defects(x, y)
                    assert rep.defects == expected, (a, m, label)
                    assert rep.holds == (not expected)
                    assert rep.valid_up_to == min(x.valid_up_to, y.valid_up_to)
                    seen_defects += len(expected)
    assert seen_defects


def test_verify_relation_reports_columns_in_basis_order():
    # the sum stores the columns of the words 1... before those of the words 2...
    b = basis(ones(2), 3)
    l1, l2 = build_creation(b, "left", 1), build_creation(b, "left", 2)
    lhs = l1 @ l1.adjoint() + l2 @ l2.adjoint()
    assert list(lhs.tgt) != sorted(lhs.tgt)
    rep = verify_relation("ranges", lhs, zero(b))
    assert [d.column for d in rep.defects] == ["1", "2", "11", "12", "21", "22"]


def test_relation_report_json():
    b = basis(FIB)
    rep = next(
        r for r in verify_creation_relations(b, "iv") if r.relation == "iv(k=2,l=2)"
    )
    out = rep.to_json()
    assert out == {
        "relation": "iv(k=2,l=2)",
        "holds": False,
        "defects": [{"column": "2", "delta": {"2": -1}}],
    }
    assert json.loads(json.dumps(out)) == out


def test_truncation_stability_of_relations():
    for a in (ones(2), FIB):
        small = verify_creation_relations(FockBasis(a, 4))
        large = verify_creation_relations(FockBasis(a, 6))
        for rs, rl in zip(small, large):
            assert rs.relation == rl.relation
            assert rs.holds == rl.holds
            # defects agree on the smaller shared valid domain
            shared = {d.column: d.delta for d in rl.defects if d.length <= rs.valid_up_to}
            assert {d.column: d.delta for d in rs.defects} == shared


def test_orbit_spans_family():
    for a in relation_family():
        assert orbit_spans(FockBasis(a, 4))


def test_single_letter_reachability():
    b = basis(ones(2), 2)
    l1 = build_creation(b, "left", 1)
    assert l1.column(0) == {b.index[(0,)]: 1}


def test_rotation_operator():
    for a in relation_family():
        b = FockBasis(a, 5)
        x, rep = rotation_operator(b)
        assert rep.vacuum_eigenvalue == a.n
        assert rep.holds
        for s in rep.sectors:
            assert s.index == 0
        # sector 1: X xi_j = A[j][j] xi_j
        ker1 = sum(1 for j in range(a.n) if not a.entry(j, j))
        assert rep.sectors[0].dim_ker == ker1


def test_rotation_rotates_words():
    b = basis(FIB, 4)
    x, _rep = rotation_operator(b)
    w = (0, 1)  # 12; rotation gives 21, allowed since A[2][1] = 1
    assert x.column(b.index[w]) == {b.index[(1, 0)]: 1}
    w = (1, 0)  # 21 -> 12 needs A[1][2] = 1
    assert x.column(b.index[w]) == {b.index[(0, 1)]: 1}


def test_index_report_json_roundtrip():
    b = basis(FIB)
    _x, rep = rotation_operator(b)
    out = rep.to_json()
    assert json.loads(json.dumps(out)) == out
    assert out["vacuum_eigenvalue"] == 2
    assert all(s["index"] == 0 for s in out["sectors"])


def test_word_model_matches_truncated_matrices():
    # the untruncated word model and the truncated matrices agree wherever
    # the matrix columns are valid
    a = FIB
    b = basis(a, 5)
    tag = ckalg.o_a(a)
    elems = [
        ckalg.ck_monomial(tag, (0, 1), (0,)),
        ckalg.ck_monomial(tag, (), (1, 0)),
        ckalg.ck_monomial(tag, (1,), (1,)),
    ]
    for x in elems:
        # build L_mu L_nu* from atoms: L_mu = L_{mu_1} ... L_{mu_m}
        op = zero(b)
        for ((mu, nu),), c in x.terms.items():
            term = identity(b)
            for k0 in mu:
                term = term @ build_creation(b, "left", k0 + 1)
            adj = identity(b)
            for k0 in nu:
                adj = adj @ build_creation(b, "left", k0 + 1)
            term = term @ adj.adjoint()
            op = op + term.scale(int(c))
        for j, w in enumerate(b.words):
            if len(w) > op.valid_up_to:
                continue
            expected = {
                b.index[img]: int(coeff)
                for img, coeff in ck_action_on_word(x, w).items()
                if len(img) <= b.m_max
            }
            assert op.column(j) == expected


def test_pair_action_on_word():
    a = FIB
    assert pair_action_on_word(a, (0,), (), (1,)) == (0, 1)
    assert pair_action_on_word(a, (1,), (), (1,)) is None  # A[2][2] = 0
    assert pair_action_on_word(a, (), (0,), (0, 1)) == (1,)
    assert pair_action_on_word(a, (), (0,), (1, 0)) is None
