"""Exact truncated model of the restricted Fock space of a shift of finite type.

The basis consists of the vacuum followed by all admissible words of length
1..m_max (length-major, lexicographic within a length).  Left and right
creation operators act by

    L_k vacuum = xi_k = R_k vacuum
    L_k xi_w = A[k][w_1] xi_{k w}        R_k xi_w = A[w_end][k] xi_{w k}

and the adjoint of an operator is its honest matrix transpose, so

    L_k* xi_w = [w_1 = k] xi_{w_2..}     R_k* xi_w = [w_end = k] xi_{w_1..w_end-1}

with Kronecker deltas (the coefficients are forced by the inner product).

Truncation is explicit: every operator carries ``raise_len`` and
``lower_len``, bounds on how much it can lengthen and shorten a word, which
sums, products and adjoints propagate.  No intermediate word of a column of
length <= ``valid_up_to = m_max - raise_len`` (clamped at -1) leaves the
window, so those columns are exact.  An adjoint swaps the two bounds, so its
columns of length <= m_max - lower_len are exact.  Relation checks compare
two operators on the intersection of their valid domains and report exact
defect columns.
A creation relation is checked as ``lhs Q = rhs Q``, where Q projects onto
the words of the relation's exact domain.  Q sits on the rightmost factor of
every product (``x @ y.upto(d) == (x @ y).upto(d)``), so no product, sum or
range projection builds a column the check does not read.

Defects.  A ``DefectColumn`` is one column where two sides differ: its word,
the word's length, and the (row word, value) pairs of the difference, with
the value an int here and a rendered symbolic factor in the lemma checks of
``ckdual.duality``.  ``defect_column`` builds one from basis positions; it
and ``FockOperator``'s error messages are the only code that renders a
basis word.  The reports write the columns to JSON, each in its own shape.

Storage.  Every operator ckdual builds (the creation operators, their
adjoints, the range projections, their products, and the sums in the
relations and in the rotation X) sends each basis word to at most one word.
So an operator is a weighted partial map: ``tgt`` (column -> row) over its
nonzero columns, and ``coef`` (column -> int) over only the columns whose
weight is not 1, which readers take as ``coef.get(j, 1)``.  The creation
operators, P, their adjoints and every product of them carry an empty
``coef``.  The form is canonical (the keys of ``coef`` lie in
``tgt``, and no stored weight is 0 or 1), so equality and hash compare the
two maps.  A result with two entries in one column (a sum whose operands
send a column to different rows, or the adjoint of a map that is not
injective) raises ``ValueError`` naming the column.  Every column and row
integer is the entry of ``FockBasis.positions``, one int object per basis
position shared by every operator on the basis: the creation operators
draw them from it, and products, sums, adjoints and ``upto`` only move
their operands' integers.  Operators are immutable and ``scale`` shares
``tgt``: no map reached through an operator (``tgt``, ``coef``, ``cols`` or
``column``) may be mutated.  An operator records nothing of how it was
built; the quotient map onto O_A (x) O_{A^T} lives on the hybrid elements
of ``ckdual.duality``.

Creation operators are indexed arithmetically, with no word built or looked
up.  L_k maps its sources, the vacuum and the words w of length < m_max with
A[k][w_1] = 1, bijectively onto its targets, the words of length 1..m_max
that begin with k.  The bijection w -> k w is strictly increasing in the
basis order: it raises every length by one, and within one length
k w < k w' exactly when w < w'.  So the i-th source in basis order maps to
the i-th target, and both lists are read off the first letters of the
words.  R_k is the same with last letters (w -> w k, A[w_end][k] = 1,
targets ending in k).

This module holds only the Fock model.  The word-model oracle that checks
the symbolic layer, and the orbit check of the creation operators, are
reference paths and live with the tests (``tests/oracles.py``).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, compress, islice
from operator import itemgetter

from .sft import ZeroOneMatrix, enumerate_words, word_str


class BasisMismatchError(ValueError):
    """Two operands of a product, sum or comparison live on different bases."""


class FockBasis:
    """Ordered basis of the truncated restricted Fock space.

    ``words`` lists the basis in order, so position j holds ``words[j]``; the
    library reads it for the letter lists, the sector bounds and the words
    of rendered defects.  No word is looked up by value: operators are
    indexed arithmetically (module docstring).
    """

    def __init__(self, matrix: ZeroOneMatrix, m_max: int):
        if m_max < 1:
            raise ValueError("m_max must be >= 1")
        self.matrix = matrix
        self.m_max = m_max
        self.words = enumerate_words(matrix, 0, m_max)
        ends = [bisect_right(self.words, m, key=len) for m in range(m_max + 1)]
        self.sector_bounds = list(zip([0] + ends, ends))  # (start, end) per word length

    @cached_property
    def first_letters(self) -> list:
        """The first letter of each word 1, 2, ... (the vacuum has none)."""
        return list(map(itemgetter(0), islice(self.words, 1, None)))

    @cached_property
    def last_letters(self) -> list:
        """The last letter of each word 1, 2, ..."""
        return list(map(itemgetter(-1), islice(self.words, 1, None)))

    @cached_property
    def positions(self) -> list:
        """The basis positions 0, 1, ..., one int object each, from which every
        operator on this basis draws its columns and rows."""
        return list(range(self.size))

    @property
    def size(self) -> int:
        return len(self.words)

    def end_of_length(self, m: int) -> int:
        """Index one past the last word of length <= m (0 when m < 0)."""
        return self.sector_bounds[min(m, self.m_max)][1] if m >= 0 else 0


class FockOperator:
    """Weighted partial map on a FockBasis (module docstring): ``tgt`` over
    the nonzero columns (its keys are the support), ``coef`` over only the
    columns whose weight is not 1 (an absent weight is 1), the length bounds
    ``raise_len`` and ``lower_len``, and the valid domains derived from them.
    The integers in ``tgt`` are the basis's shared ``positions``.  Equality
    and hash are by matrix on the same basis, whatever the bounds; the hash
    is cached on first use.
    """

    __slots__ = ("basis", "tgt", "coef", "raise_len", "lower_len", "_hash")

    def __init__(self, basis, tgt, coef, raise_len, lower_len):
        self.basis = basis
        self.tgt = tgt
        self.coef = coef
        self.raise_len = raise_len
        self.lower_len = lower_len
        self._hash = None

    @property
    def valid_up_to(self) -> int:
        """Columns of words of length <= valid_up_to are exact."""
        return max(self.basis.m_max - self.raise_len, -1)

    @property
    def cols(self) -> dict:
        """The matrix as {column: {row: coeff}}, built on every access (hot
        paths read ``tgt`` and ``coef``)."""
        get = self.coef.get
        return {j: {i: get(j, 1)} for j, i in self.tgt.items()}

    def column(self, j: int) -> dict:
        i = self.tgt.get(j)
        return {} if i is None else {i: self.coef.get(j, 1)}

    def _same_basis(self, other):
        if self.basis is not other.basis:
            raise BasisMismatchError("operators live on different bases")

    def _two_entries(self, what: str, j: int) -> ValueError:
        w = word_str(self.basis.words[j], self.basis.matrix.n)
        return ValueError(f"{what} has two entries in column {j} (word {w!r}); "
                          "a Fock operator holds at most one entry per column")

    def __add__(self, other: "FockOperator") -> "FockOperator":
        self._same_basis(other)
        xtgt, ytgt = self.tgt, other.tgt
        tgt, coef = xtgt | ytgt, self.coef | other.coef
        if len(tgt) < len(xtgt) + len(ytgt):
            xget, yget = self.coef.get, other.coef.get
            for j in xtgt.keys() & ytgt.keys():
                if xtgt[j] != ytgt[j]:
                    raise self._two_entries("the sum", j)
                v = xget(j, 1) + yget(j, 1)
                if v == 1:
                    coef.pop(j, None)
                elif v:
                    coef[j] = v
                else:
                    del tgt[j]
                    coef.pop(j, None)
        return FockOperator(self.basis, tgt, coef, max(self.raise_len, other.raise_len),
                            max(self.lower_len, other.lower_len))

    def __sub__(self, other: "FockOperator") -> "FockOperator":
        return self + other.scale(-1)

    def scale(self, c: int) -> "FockOperator":
        if not isinstance(c, int):
            raise TypeError("Fock operators are integer matrices; scale by int")
        if c == 0:
            return zero(self.basis)
        get = self.coef.get
        coef = {j: v for j in self.tgt if (v := c * get(j, 1)) != 1}
        return FockOperator(self.basis, self.tgt, coef, self.raise_len, self.lower_len)

    def __matmul__(self, other: "FockOperator") -> "FockOperator":
        self._same_basis(other)
        atgt, btgt, acoef, bcoef = self.tgt, other.tgt, self.coef, other.coef
        tgt = {j: i for j, mid in btgt.items() if (i := atgt.get(mid)) is not None}
        coef = {}
        if acoef or bcoef:
            coef = {j: v for j in tgt if (v := acoef.get(btgt[j], 1) * bcoef.get(j, 1)) != 1}
        return FockOperator(self.basis, tgt, coef, self.raise_len + other.raise_len,
                            self.lower_len + other.lower_len)

    def upto(self, m: int) -> "FockOperator":
        """This operator times the projection onto the words of length <= m:
        the columns past ``basis.end_of_length(m)`` dropped and the bounds
        kept, so ``x @ y.upto(m) == (x @ y).upto(m)``."""
        end = self.basis.end_of_length(m)
        tgt = {j: i for j, i in self.tgt.items() if j < end}
        coef = {j: v for j, v in self.coef.items() if j < end}
        return FockOperator(self.basis, tgt, coef, self.raise_len, self.lower_len)

    def adjoint(self) -> "FockOperator":
        """The transpose: the inverse partial map, defined when ``tgt`` is injective."""
        src = self.tgt
        tgt = {i: j for j, i in src.items()}
        if len(tgt) < len(src):
            raise self._two_entries("the adjoint", next(i for j, i in src.items() if tgt[i] != j))
        coef = {src[j]: v for j, v in self.coef.items()}
        return FockOperator(self.basis, tgt, coef, self.lower_len, self.raise_len)

    def __eq__(self, other):
        return (
            isinstance(other, FockOperator)
            and self.basis is other.basis
            and self.tgt == other.tgt
            and self.coef == other.coef
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((frozenset(self.tgt.items()), frozenset(self.coef.items())))
        return self._hash


def zero(basis: FockBasis) -> FockOperator:
    return FockOperator(basis, {}, {}, 0, 0)


def vacuum_projection(basis: FockBasis) -> FockOperator:
    return FockOperator(basis, {0: 0}, {}, 0, 0)


def build_creation(basis: FockBasis, side: str, k: int) -> FockOperator:
    """The creation operator L_k ("left") or R_k ("right"), k 1-based.

    The i-th source maps to the i-th target in basis order, by the indexing
    rule of the module docstring.

    Length-raising operators lose the top layer: columns of length m_max map
    out of the window, so raise_len = 1 gives valid_up_to = m_max - 1.
    """
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    a = basis.matrix
    if not 1 <= k <= a.n:
        raise ValueError(f"letter {k} out of range 1..{a.n}")
    k0 = k - 1
    if side == "left":
        letters, fits = basis.first_letters, frozenset(a.succ[k0])
    else:
        letters, fits = basis.last_letters, frozenset(a.pred[k0])
    is_k = [c == k0 for c in range(a.n)]
    pos = basis.positions
    sources = chain((0,), compress(islice(pos, 1, basis.end_of_length(basis.m_max - 1)),
                                   map(fits.__contains__, letters)))
    targets = compress(islice(pos, 1, None), map(is_k.__getitem__, letters))
    return FockOperator(basis, dict(zip(sources, targets)), {}, 1, 0)


# ---------------------------------------------------------------------------
# relation verification


@dataclass(frozen=True)
class DefectColumn:
    column: str
    length: int
    entries: tuple  # ((row word string, value), ...)


def defect_column(basis: FockBasis, j: int, rows) -> DefectColumn:
    """The defect at basis position j, with the (row position, value) pairs
    ``rows`` rendered as (row word, value)."""
    words, n = basis.words, basis.matrix.n
    w = words[j]
    return DefectColumn(word_str(w, n), len(w), tuple((word_str(words[i], n), v) for i, v in rows))


@dataclass(frozen=True)
class RelationReport:
    relation: str
    holds: bool
    valid_up_to: int
    defects: tuple

    def to_json(self) -> dict:
        return {
            "relation": self.relation,
            "holds": self.holds,
            "defects": [{"column": d.column, "delta": dict(d.entries)} for d in self.defects],
        }


def verify_relation(relation: str, lhs: FockOperator, rhs: FockOperator) -> RelationReport:
    """Compare two operators on the intersection of their valid domains.

    The columns that differ are those in the symmetric difference of the
    two ``tgt`` item sets or of the two ``coef`` item sets, taken in C on
    the dict item views.  The form is canonical (an absent weight is 1, and
    ``coef`` keys lie in ``tgt``), so two columns with the same target
    differ exactly where their stored weights do.  The exact delta is
    computed only for those columns inside the domain, in basis order, so
    no ``lhs - rhs`` operator is built.  Each side has at most one entry in
    a column, and the two differ there, so no row of its delta is zero.
    """
    lhs._same_basis(rhs)
    basis = lhs.basis
    valid = min(lhs.valid_up_to, rhs.valid_up_to)
    end = basis.end_of_length(valid)
    changed = chain(lhs.tgt.items() ^ rhs.tgt.items(), lhs.coef.items() ^ rhs.coef.items())
    defects = []
    for j in sorted({j for j, _ in changed if j < end}):
        delta = lhs.column(j)
        for i, v in rhs.column(j).items():
            delta[i] = delta.get(i, 0) - v
        defects.append(defect_column(basis, j, sorted(delta.items())))
    return RelationReport(relation, not defects, valid, tuple(defects))


def _domain(basis: FockBasis, *families) -> int:
    """The widest exact domain of a product with one factor from each family:
    m_max minus each family's smallest ``raise_len``.  A shared right factor
    compressed to it keeps every column that a check of such a product reads."""
    return basis.m_max - sum(min(x.raise_len for x in xs) for xs in families)


def creation_relations(basis: FockBasis, which: str = "all"):
    """The four families of creation-operator relations, yielded as
    (label, lhs, rhs) one at a time, so a caller that checks each relation
    as it comes keeps only the shared operators below alive.

    i)   L_k* L_k = sum_i A[k][i] L_i L_i* + P
    ii)  R_k* R_k = sum_i A[i][k] R_i R_i* + P
    iii) [L_k, R_l] = 0
    iv)  [L_k*, R_l] = delta_kl P

    Each family is built on its checked domain only (module docstring): the
    right factors L_i*, R_i* of the range projections, L_k and R_l in iii
    and L_k* in R_l L_k* are compressed once per family with ``upto``.  The
    other right factors, L_k, R_k and R_l, are creation operators, whose
    columns already end at that domain.  L_k* is built once for i and iv;
    R_k* and each family's range projections are dropped with the family.
    """
    a = basis.matrix
    n = a.n
    ls = [build_creation(basis, "left", k) for k in range(1, n + 1)]
    rs = [build_creation(basis, "right", k) for k in range(1, n + 1)]
    ls_star = [x.adjoint() for x in ls] if which in ("all", "i", "iv") else []
    p = vacuum_projection(basis)
    # i) sums over the successors i of k, ii) over its predecessors
    for label, xs, adjacent in (("i", ls, a.succ), ("ii", rs, a.pred)):
        if which not in ("all", label):
            continue
        xs_star = ls_star if label == "i" else [x.adjoint() for x in rs]
        d = _domain(basis, xs, xs_star)
        ranges = [x @ x_star.upto(d) for x, x_star in zip(xs, xs_star)]
        for k in range(n):
            rhs = p
            for i in adjacent[k]:
                rhs = rhs + ranges[i]
            yield f"{label}(k={k + 1})", xs_star[k] @ xs[k], rhs
        del xs_star, ranges, rhs
    if which in ("all", "iii"):
        d = _domain(basis, ls, rs)
        ls_d, rs_d = [x.upto(d) for x in ls], [y.upto(d) for y in rs]
        for k in range(n):
            for l in range(n):
                yield f"iii(k={k + 1},l={l + 1})", ls[k] @ rs_d[l] - rs[l] @ ls_d[k], zero(basis)
        del ls_d, rs_d
    if which in ("all", "iv"):
        d = _domain(basis, ls_star, rs)
        ls_star_d = [x.upto(d) for x in ls_star]
        for k in range(n):
            for l in range(n):
                rhs = p if k == l else zero(basis)
                yield f"iv(k={k + 1},l={l + 1})", ls_star[k] @ rs[l] - rs[l] @ ls_star_d[k], rhs


def verify_creation_relations(basis: FockBasis, which: str = "all"):
    return [verify_relation(label, lhs, rhs) for label, lhs, rhs in creation_relations(basis, which)]


# ---------------------------------------------------------------------------
# the rotation operator X = sum_i L_i* R_i and its per-sector index


@dataclass(frozen=True)
class SectorIndex:
    sector: int
    dimension: int
    dim_ker: int
    dim_coker: int

    @property
    def index(self) -> int:
        return self.dim_ker - self.dim_coker

    def to_json(self) -> dict:
        return {
            "sector": self.sector,
            "dimension": self.dimension,
            "dim_ker": self.dim_ker,
            "dim_coker": self.dim_coker,
            "index": self.index,
        }


@dataclass(frozen=True)
class IndexReport:
    sectors: tuple
    vacuum_eigenvalue: int
    expected_vacuum: int

    @property
    def holds(self) -> bool:
        return self.vacuum_eigenvalue == self.expected_vacuum and all(
            s.index == 0 for s in self.sectors
        )

    def to_json(self) -> dict:
        return {
            "sectors": [s.to_json() for s in self.sectors],
            "vacuum_eigenvalue": self.vacuum_eigenvalue,
            "expected_vacuum": self.expected_vacuum,
            "holds": self.holds,
        }


def rotation_operator(basis: FockBasis):
    """X = sum_i L_i* R_i: fixes each word-length sector, rotates words left.

    On the vacuum X acts as multiplication by n.  On a sector of length >= 1
    it maps xi_w to A[w_end][w_1] xi_{w_2..w_end w_1}, a partial bijection of
    the sector basis, so kernel and cokernel dimensions agree sector by
    sector.
    """
    n = basis.matrix.n
    x = zero(basis)
    for k in range(1, n + 1):
        x = x + build_creation(basis, "left", k).adjoint() @ build_creation(basis, "right", k)
    tgt = x.tgt
    vacuum = x.coef.get(0, 1) if tgt.get(0) == 0 else 0
    sectors = []
    for m in range(1, x.valid_up_to + 1):
        idxs = range(*basis.sector_bounds[m])
        rows = [tgt[j] for j in idxs if j in tgt]  # one per nonzero column
        dim = len(idxs)
        sectors.append(SectorIndex(m, dim, dim - len(rows), dim - len(set(rows))))
    return x, IndexReport(tuple(sectors), vacuum, n)
