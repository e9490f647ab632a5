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
    BasisMismatchError,
    FockBasis,
    FockOperator,
    DefectColumn,
    build_creation,
    creation_relations,
    rotation_operator,
    vacuum_projection,
    verify_creation_relations,
    verify_relation,
    zero,
)
from ckdual.sft import enumerate_words, word_str

from helpers import (
    CHORD3,
    FIB,
    MIXED4,
    all_valid_matrices,
    basis_words,
    ck_monomial,
    fock_identity,
    is_admissible,
    ones,
    random_valid_matrix,
    relation_family,
    word_positions,
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
    assert b.words == enumerate_words(FIB, 0, 3)


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
    position = word_positions(b)
    for side in ("left", "right"):
        op = build_creation(b, side, 1)
        assert op.column(0) == {position[(0,)]: 1}


def test_creation_examples():
    b = basis(FIB)
    l2 = build_creation(b, "left", 2)
    assert l2.column(word_positions(b)[(1,)]) == {}  # A[2][2] = 0
    b2 = basis(ones(2))
    position = word_positions(b2)
    r2 = build_creation(b2, "right", 2)
    assert r2.column(position[(0,)]) == {position[(0, 1)]: 1}


def test_adjoint_examples():
    b = basis(ones(2))
    position = word_positions(b)
    l1 = build_creation(b, "left", 1)
    assert l1.adjoint().column(position[(0,)]) == {0: 1}  # L1* xi_1 = vacuum
    assert l1.adjoint().column(position[(1, 0)]) == {}  # first letter is 2
    r2 = build_creation(b, "right", 2)
    assert r2.adjoint().column(position[(0, 1)]) == {position[(0,)]: 1}


def test_adjoint_is_delta_not_matrix_coefficient():
    # the adjoint is the transpose, so (L_2)* xi_{21} = xi_1 even though
    # prepending 2 to 1 is admissible both ways in the Fibonacci graph
    b = basis(FIB)
    l1 = build_creation(b, "left", 1)
    # adjoint pairing: column w maps to w[1:] exactly when w starts with 1
    position = word_positions(b)
    for w, j in position.items():
        col = l1.adjoint().column(j)
        if w and w[0] == 0:
            assert col == {position[w[1:]]: 1}
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
    assert deep.valid_up_to == -1 and deep.adjoint().adjoint().valid_up_to == -1
    assert _adj_valid(deep) == deep.adjoint().valid_up_to == 4


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
            words, position = basis_words(b), word_positions(b)
            assert len(position) == b.size
            for side in ("left", "right"):
                for k0 in range(a.n):
                    expected = {}
                    for j, w in enumerate(words[:b.end_of_length(m - 1)]):
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
        words, position = basis_words(b), word_positions(b)
        p = vacuum_projection(b)
        for k in range(a.n):
            lk = build_creation(b, "left", k + 1)
            for l in range(a.n):
                rl = build_creation(b, "right", l + 1)
                lhs = lk.adjoint() @ rl - rl @ lk.adjoint()
                rhs = p if k == l else zero(b)
                rep = verify_relation("iv", lhs, rhs)
                if a.entry(k, l):
                    assert rep.holds
                else:
                    # brute-force oracle: the defect is (A[k][l]-1)|xi_l><xi_k|
                    expected = {position[(k,)]: {position[(l,)]: a.entry(k, l) - 1}}
                    diff = lhs - rhs
                    got = {
                        j: col
                        for j, col in diff.cols.items()
                        if len(words[j]) <= rep.valid_up_to
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
    binary = (operator.add, operator.sub, operator.matmul, lambda x, y: x @ y - y @ x)
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


def test_operands_on_two_bases_raise_basis_mismatch():
    l4 = build_creation(basis(FIB, 4), "left", 1)
    l5 = build_creation(basis(FIB, 5), "left", 1)
    for f in (operator.matmul, operator.add, lambda x, y: verify_relation("mixed", x, y)):
        with pytest.raises(BasisMismatchError, match="operators live on different bases"):
            f(l4, l5)


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
    "commutator": lambda x, y, c: x @ y - y @ x,
}


def _adj_valid(x):
    """``valid_up_to`` of the adjoint, also of a map that is not injective:
    ``upto(-1)`` drops every column and keeps the bounds."""
    return x.upto(-1).adjoint().valid_up_to


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
    ops = gens + [g.adjoint() for g in gens] + [vacuum_projection(b), fock_identity(b), zero(b), fold]
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
        assert (op.valid_up_to, _adj_valid(op), op.raise_len, op.lower_len) == bound
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
        assert (got.valid_up_to, _adj_valid(got), got.raise_len, got.lower_len) == bound
        for op, op_ref in zip(pool, refs):
            assert (got == op) == (ref == op_ref)
            if ref == op_ref:
                assert hash(got) == hash(op)
        pool.append(got)
        refs.append(ref)
        bounds.append(bound)


# ---------------------------------------------------------------------------
# the canonical form: unit weights implicit, position integers shared


def _word_model_generators(b):
    """Dense {column: {row: 1}} of L_1..L_n, R_1..R_n, computed from the words."""
    a, position = b.matrix, word_positions(b)
    out = []
    for side in ("left", "right"):
        for k0 in range(a.n):
            cols = {}
            for w, j in position.items():
                new = (k0,) + w if side == "left" else w + (k0,)
                if new in position and is_admissible(a, new):
                    cols[j] = {position[new]: 1}
            out.append(cols)
    return out


def _assert_canonical(x, ref):
    assert x.coef.keys() <= x.tgt.keys()
    assert all(v not in (0, 1) for v in x.coef.values()), x.coef
    assert x.cols == ref
    twice = x.scale(-1).scale(-1)
    assert twice == x and hash(twice) == hash(x)


def test_every_expression_keeps_the_canonical_form():
    # expressions over L_k, R_k, their adjoints, P and 1 on every valid 2x2
    # and 3x3 matrix; a result with two entries in a column is skipped
    for a in SMALL:
        for m in range(2, 5):
            b = FockBasis(a, m)
            words = basis_words(b)
            gens = [build_creation(b, side, k) for side in ("left", "right")
                    for k in range(1, a.n + 1)]
            gen_refs = _word_model_generators(b)
            pool = gens + [g.adjoint() for g in gens] + [vacuum_projection(b), fock_identity(b)]
            refs = gen_refs + [_ref_adjoint(r) for r in gen_refs]
            refs += [{0: {0: 1}}, {j: {j: 1} for j in range(b.size)}]
            for x, ref in zip(pool, refs):
                assert not x.coef
                _assert_canonical(x, ref)
            rng = random.Random(f"{a.rows} {m}")
            for _ in range(24):
                kind = rng.choice(("+", "-", "@", "scale", "adjoint", "upto"))
                i, j = rng.randrange(len(pool)), rng.randrange(len(pool))
                c, d = rng.choice((-2, -1, 1, 2)), rng.randrange(-1, m + 1)
                x, y = pool[i], pool[j]
                if kind == "upto":
                    ref = {col: e for col, e in refs[i].items() if len(words[col]) <= d}
                else:
                    ref = _REFERENCE[kind](refs[i], refs[j], c)
                if any(len(e) > 1 for e in ref.values()):
                    continue
                got = x.upto(d) if kind == "upto" else _OPERATION[kind](x, y, c)
                _assert_canonical(got, ref)
                pool.append(got)
                refs.append(ref)


def test_weights_cancelling_to_one_give_the_unit_operator():
    for a in SMALL:
        for m in range(2, 5):
            b = FockBasis(a, m)
            ls = [build_creation(b, "left", k) for k in range(1, a.n + 1)]
            rs = [build_creation(b, "right", k) for k in range(1, a.n + 1)]
            p, one, y = vacuum_projection(b), fock_identity(b), ls[-1].adjoint()
            units = [ls[0], rs[-1], ls[0].adjoint(), ls[0] @ rs[-1].adjoint(), p, one]
            for x in units:
                cancelled = [
                    x.scale(2) + x.scale(-1),
                    x.scale(2) - x,
                    x + x - x,
                    x.scale(-2) + x.scale(2) + x,
                    x.scale(-1).scale(-1),
                    x.scale(-1) @ one.scale(-1),
                    one.scale(-1) @ x.scale(-1),
                ]
                for got in cancelled:
                    assert got == x and hash(got) == hash(x), (a, m)
                    assert got.coef == {}
                assert x.scale(-1) @ y.scale(-1) == x @ y
                assert (x.scale(-1) @ y.scale(-1)).coef == {}
                assert (x.scale(2) @ y).upto(m - 1).scale(-1).scale(-1) == (x @ y).scale(2).upto(m - 1)
                # only one factor weighted: the weights of the product are read
                assert x @ y.scale(2) == (x @ y).scale(2)
                assert x.scale(-2) @ y == (x @ y).scale(-2)


def test_operators_share_the_basis_position_integers():
    b = FockBasis(ones(3), 5)
    positions = b.positions
    assert positions == list(range(b.size)) and b.size > 256  # past the small-int cache
    assert b.positions is positions
    gens = [build_creation(b, side, k) for side in ("left", "right") for k in (1, 2, 3)]
    adjoints = [x.adjoint() for x in gens]
    ops = gens + adjoints + [
        gens[0] @ adjoints[0],
        gens[0] @ adjoints[0] + gens[4] @ adjoints[4],
        adjoints[2].upto(3),
        fock_identity(b),
    ]
    for x in ops:
        assert x.tgt
        assert all(j is positions[j] and i is positions[i] for j, i in x.tgt.items())


def _reference_defects(lhs, rhs):
    # the former construction: walk the columns of lhs - rhs in the valid domain
    words = basis_words(lhs.basis)
    valid = min(lhs.valid_up_to, rhs.valid_up_to)
    out = []
    for j, col in sorted((lhs - rhs).cols.items()):
        w = words[j]
        if len(w) <= valid:
            delta = tuple((word_str(words[i]), v) for i, v in sorted(col.items()))
            out.append(DefectColumn(word_str(w), len(w), delta))
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
            shared = {d.column: d.entries for d in rl.defects if d.length <= rs.valid_up_to}
            assert {d.column: d.entries for d in rs.defects} == shared


# ---------------------------------------------------------------------------
# each creation relation built on its checked domain only


SMALL = all_valid_matrices(2) + all_valid_matrices(3)


def _uncompressed_relations(b):
    """The creation relations as full products, commutators and full range
    sums over the whole basis: the reference for ``creation_relations``."""
    a, n = b.matrix, b.matrix.n
    ls = [build_creation(b, "left", k) for k in range(1, n + 1)]
    rs = [build_creation(b, "right", k) for k in range(1, n + 1)]
    ls_star, rs_star = [x.adjoint() for x in ls], [x.adjoint() for x in rs]
    p = vacuum_projection(b)
    for label, xs, xs_star, adjacent in (("i", ls, ls_star, a.succ), ("ii", rs, rs_star, a.pred)):
        for k in range(n):
            rhs = p
            for i in adjacent[k]:
                rhs = rhs + xs[i] @ xs_star[i]
            yield f"{label}(k={k + 1})", xs_star[k] @ xs[k], rhs
    for k in range(n):
        for l in range(n):
            yield f"iii(k={k + 1},l={l + 1})", ls[k] @ rs[l] - rs[l] @ ls[k], zero(b)
    for k in range(n):
        for l in range(n):
            yield (f"iv(k={k + 1},l={l + 1})", ls_star[k] @ rs[l] - rs[l] @ ls_star[k],
                   p if k == l else zero(b))


def _cols_upto(x, m):
    words = basis_words(x.basis)
    return {j: col for j, col in x.cols.items() if len(words[j]) <= m}


def test_basis_letter_lists():
    for a in (FIB, MIXED4):
        b = FockBasis(a, 4)
        words = basis_words(b)
        assert b.first_letters == [w[0] for w in words[1:]]
        assert b.last_letters == [w[-1] for w in words[1:]]
        assert b.first_letters is b.first_letters  # built once per basis


def test_upto_keeps_bounds_and_commutes_with_products():
    for a in (FIB, CHORD3, MIXED4):
        for m in range(2, 6):
            pool, _ = _operator_pool(a, m)
            pool += [x @ y for x, y in zip(pool, pool[1:] + pool[:1])]
            for d in range(-1, m + 2):
                for x in pool:
                    xd = x.upto(d)
                    assert (xd.raise_len, xd.lower_len, xd.valid_up_to, _adj_valid(xd)) == (
                        x.raise_len, x.lower_len, x.valid_up_to, _adj_valid(x))
                    assert xd.cols == _cols_upto(x, d)
                for x, y in zip(pool, pool[3:] + pool[:3]):
                    assert x @ y.upto(d) == (x @ y).upto(d), (a, m, d)


def test_creation_relations_match_uncompressed_reference():
    # equal on every column the check reads, and no column beyond it built
    for a in SMALL:
        for m in range(2, 6):
            b = FockBasis(a, m)
            got = list(creation_relations(b))
            ref = list(_uncompressed_relations(b))
            assert [g[0] for g in got] == [r[0] for r in ref]
            for (label, lhs, rhs), (_label, lhs_ref, rhs_ref) in zip(got, ref):
                assert lhs.valid_up_to == lhs_ref.valid_up_to, (a, m, label)
                assert rhs.valid_up_to == rhs_ref.valid_up_to, (a, m, label)
                valid = min(lhs_ref.valid_up_to, rhs_ref.valid_up_to)
                for x, x_ref in ((lhs, lhs_ref), (rhs, rhs_ref)):
                    assert _cols_upto(x, valid) == _cols_upto(x_ref, valid), (a, m, label)
                    assert x.cols == _cols_upto(x, valid), (a, m, label)


def test_verify_creation_relations_matches_uncompressed_reports():
    for a in SMALL:
        for m in range(2, 6):
            b = FockBasis(a, m)
            ref = [verify_relation(label, lhs, rhs) for label, lhs, rhs in _uncompressed_relations(b)]
            assert verify_creation_relations(b) == ref, (a, m)
            for which in ("i", "ii", "iii", "iv"):
                assert verify_creation_relations(b, which) == [
                    r for r in ref if r.relation.startswith(which + "(")], (a, m, which)


def test_orbit_spans_family():
    for a in relation_family():
        assert orbit_spans(FockBasis(a, 4))


def test_single_letter_reachability():
    b = basis(ones(2), 2)
    l1 = build_creation(b, "left", 1)
    assert l1.column(0) == {word_positions(b)[(0,)]: 1}


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
        assert x.column(0) == {0: a.n}
        for s in rep.sectors:
            cols = [x.column(j) for j in range(*b.sector_bounds[s.sector])]
            rows = {i for col in cols for i in col}
            assert (s.dimension, s.dim_ker, s.dim_coker) == (
                len(cols), cols.count({}), len(cols) - len(rows))


def test_rotation_rotates_words():
    b = basis(FIB, 4)
    x, _rep = rotation_operator(b)
    position = word_positions(b)
    w = (0, 1)  # 12; rotation gives 21, allowed since A[2][1] = 1
    assert x.column(position[w]) == {position[(1, 0)]: 1}
    w = (1, 0)  # 21 -> 12 needs A[1][2] = 1
    assert x.column(position[w]) == {position[(0, 1)]: 1}


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
        ck_monomial(tag, (0, 1), (0,)),
        ck_monomial(tag, (), (1, 0)),
        ck_monomial(tag, (1,), (1,)),
    ]
    for x in elems:
        # build L_mu L_nu* from atoms: L_mu = L_{mu_1} ... L_{mu_m}
        op = zero(b)
        for ((mu, nu),), c in x.terms.items():
            term = fock_identity(b)
            for k0 in mu:
                term = term @ build_creation(b, "left", k0 + 1)
            adj = fock_identity(b)
            for k0 in nu:
                adj = adj @ build_creation(b, "left", k0 + 1)
            term = term @ adj.adjoint()
            op = op + term.scale(int(c))
        position = word_positions(b)
        for w, j in position.items():
            if len(w) > op.valid_up_to:
                continue
            expected = {
                position[img]: int(coeff)
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
