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
length <= ``valid_up_to = m_max - raise_len`` leaves the window, so those
columns are exact (``adj_valid = m_max - lower_len`` does the same for the
adjoint; both are clamped at -1).  Relation checks compare two operators on
the intersection of their valid domains and report exact defect columns.

Storage.  Every operator ckdual builds (the creation operators, their
adjoints, the range projections, their products, and the sums in the
relations and in the rotation X) sends each basis word to at most one word.
So an operator is a weighted partial map, two maps over its nonzero columns:
``tgt`` (column -> row) and ``coef`` (column -> nonzero int).  A result with
two entries in one column (a sum whose operands send a column to different
rows, or the adjoint of a map that is not injective) raises ``ValueError``
naming the column.  Equality and hash compare the two maps.  Operators are
immutable and ``scale`` shares ``tgt``: no map reached through an operator
(``tgt``, ``coef``, ``cols`` or ``column``) may be mutated.  An operator
records nothing of how it was built; the quotient map onto O_A (x) O_{A^T}
lives on the hybrid elements of ``ckdual.duality``.

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
from itertools import chain, compress
from operator import itemgetter

from .sft import ZeroOneMatrix, enumerate_words, word_str


class FockBasis:
    """Ordered basis of the truncated restricted Fock space."""

    def __init__(self, matrix: ZeroOneMatrix, m_max: int):
        if m_max < 1:
            raise ValueError("m_max must be >= 1")
        self.matrix = matrix
        self.m_max = m_max
        self.words = enumerate_words(matrix, 0, m_max)
        ends = [bisect_right(self.words, m, key=len) for m in range(m_max + 1)]
        self.sector_bounds = list(zip([0] + ends, ends))  # (start, end) per word length

    @cached_property
    def index(self) -> dict:
        """Word -> basis position, built on first use (no operator needs it)."""
        return {w: i for i, w in enumerate(self.words)}

    @property
    def size(self) -> int:
        return len(self.words)

    def sector(self, m: int):
        start, end = self.sector_bounds[m]
        return range(start, end)

    def end_of_length(self, m: int) -> int:
        """Index one past the last word of length <= m (0 when m < 0)."""
        return self.sector_bounds[min(m, self.m_max)][1] if m >= 0 else 0


class FockOperator:
    """Weighted partial map on a FockBasis (module docstring): ``tgt`` and
    ``coef`` over the nonzero columns (the keys of ``tgt`` are the support),
    the length bounds ``raise_len`` and ``lower_len``, and the valid domains
    derived from them.  Equality and hash are by matrix on the same basis,
    whatever the bounds; the hash is cached on first use.
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
    def adj_valid(self) -> int:
        """``valid_up_to`` of the adjoint."""
        return max(self.basis.m_max - self.lower_len, -1)

    @property
    def cols(self) -> dict:
        """The matrix as {column: {row: coeff}}, built on every access (hot
        paths read ``tgt`` and ``coef``)."""
        coef = self.coef
        return {j: {i: coef[j]} for j, i in self.tgt.items()}

    def column(self, j: int) -> dict:
        i = self.tgt.get(j)
        return {} if i is None else {i: self.coef[j]}

    def _same_basis(self, other):
        if self.basis is not other.basis:
            raise ValueError("operators live on different bases")

    def _two_entries(self, what: str, j: int) -> ValueError:
        w = word_str(self.basis.words[j])
        return ValueError(f"{what} has two entries in column {j} (word {w!r}); "
                          "a Fock operator holds at most one entry per column")

    def __add__(self, other: "FockOperator") -> "FockOperator":
        self._same_basis(other)
        xtgt, ytgt = self.tgt, other.tgt
        tgt, coef = xtgt | ytgt, self.coef | other.coef
        if len(tgt) < len(xtgt) + len(ytgt):
            xcoef = self.coef
            for j in xtgt.keys() & ytgt.keys():
                if xtgt[j] != ytgt[j]:
                    raise self._two_entries("the sum", j)
                v = xcoef[j] + coef[j]
                if v:
                    coef[j] = v
                else:
                    del tgt[j], coef[j]
        return FockOperator(self.basis, tgt, coef, max(self.raise_len, other.raise_len),
                            max(self.lower_len, other.lower_len))

    def __sub__(self, other: "FockOperator") -> "FockOperator":
        return self + other.scale(-1)

    def scale(self, c: int) -> "FockOperator":
        if not isinstance(c, int):
            raise TypeError("Fock operators are integer matrices; scale by int")
        if c == 0:
            return zero(self.basis)
        coef = {j: c * v for j, v in self.coef.items()}
        return FockOperator(self.basis, self.tgt, coef, self.raise_len, self.lower_len)

    def __matmul__(self, other: "FockOperator") -> "FockOperator":
        self._same_basis(other)
        atgt, acoef, bcoef = self.tgt, self.coef, other.coef
        tgt, coef = {}, {}
        for j, mid in other.tgt.items():
            i = atgt.get(mid)
            if i is not None:
                tgt[j] = i
                coef[j] = acoef[mid] * bcoef[j]
        return FockOperator(self.basis, tgt, coef, self.raise_len + other.raise_len,
                            self.lower_len + other.lower_len)

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


def identity(basis: FockBasis) -> FockOperator:
    every = range(basis.size)
    return FockOperator(basis, dict(zip(every, every)), dict.fromkeys(every, 1), 0, 0)


def vacuum_projection(basis: FockBasis) -> FockOperator:
    return FockOperator(basis, {0: 0}, {0: 1}, 0, 0)


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
        end, fits = itemgetter(0), frozenset(a.succ[k0])
    else:
        end, fits = itemgetter(-1), frozenset(a.pred[k0])
    is_k = [c == k0 for c in range(a.n)]
    letters = list(map(end, basis.words[1:]))  # of the words 1, 2, ...
    sources = chain((0,), compress(range(1, basis.end_of_length(basis.m_max - 1)),
                                   map(fits.__contains__, letters)))
    targets = compress(range(1, basis.size), map(is_k.__getitem__, letters))
    tgt = dict(zip(sources, targets))
    return FockOperator(basis, tgt, dict.fromkeys(tgt, 1), 1, 0)


def commutator(x: FockOperator, y: FockOperator) -> FockOperator:
    return x @ y - y @ x


# ---------------------------------------------------------------------------
# relation verification


@dataclass(frozen=True)
class RelationDefect:
    column: str
    length: int
    delta: tuple  # ((row word string, int), ...)

    def to_json(self) -> dict:
        return {"column": self.column, "delta": {w: v for w, v in self.delta}}


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
            "defects": [d.to_json() for d in self.defects],
        }


def verify_relation(relation: str, lhs: FockOperator, rhs: FockOperator) -> RelationReport:
    """Compare two operators on the intersection of their valid domains.

    Only the columns of either support inside the domain are visited; the
    exact delta is computed only for columns that differ, in basis order, so
    no ``lhs - rhs`` operator is built.
    """
    lhs._same_basis(rhs)
    basis = lhs.basis
    valid = min(lhs.valid_up_to, rhs.valid_up_to)
    end = basis.end_of_length(valid)
    lt, lc, rt, rc = lhs.tgt, lhs.coef, rhs.tgt, rhs.coef
    differ = [j for j, i in lt.items() if j < end and (rt.get(j) != i or rc.get(j) != lc[j])]
    differ += [j for j in rt if j < end and j not in lt]
    differ.sort()
    defects = []
    for j in differ:
        delta = lhs.column(j)
        for i, v in rhs.column(j).items():
            delta[i] = delta.get(i, 0) - v
        w = basis.words[j]
        rows = tuple((word_str(basis.words[i]), v) for i, v in sorted(delta.items()) if v)
        defects.append(RelationDefect(word_str(w), len(w), rows))
    return RelationReport(relation, not defects, valid, tuple(defects))


def creation_relations(basis: FockBasis, which: str = "all"):
    """The four families of creation-operator relations, yielded as
    (label, lhs, rhs) one at a time, so a caller that checks each relation
    as it comes keeps only the shared operators below alive.

    i)   L_k* L_k = sum_i A[k][i] L_i L_i* + P
    ii)  R_k* R_k = sum_i A[i][k] R_i R_i* + P
    iii) [L_k, R_l] = 0
    iv)  [L_k*, R_l] = delta_kl P

    Each adjoint L_k*, R_k* and each range projection L_i L_i*, R_i R_i* is
    built once and shared by every relation that uses it.
    """
    a = basis.matrix
    n = a.n
    ls = [build_creation(basis, "left", k) for k in range(1, n + 1)]
    rs = [build_creation(basis, "right", k) for k in range(1, n + 1)]
    ls_star = [x.adjoint() for x in ls] if which in ("all", "i", "iv") else []
    rs_star = [x.adjoint() for x in rs] if which in ("all", "ii") else []
    p = vacuum_projection(basis)
    # i) sums over the successors i of k, ii) over its predecessors
    for label, xs, xs_star, adjacent in (("i", ls, ls_star, a.succ), ("ii", rs, rs_star, a.pred)):
        if which not in ("all", label):
            continue
        ranges = [x @ x_star for x, x_star in zip(xs, xs_star)]
        for k in range(n):
            rhs = p
            for i in adjacent[k]:
                rhs = rhs + ranges[i]
            yield f"{label}(k={k + 1})", xs_star[k] @ xs[k], rhs
    if which in ("all", "iii"):
        for k in range(n):
            for l in range(n):
                yield f"iii(k={k + 1},l={l + 1})", commutator(ls[k], rs[l]), zero(basis)
    if which in ("all", "iv"):
        for k in range(n):
            for l in range(n):
                rhs = p if k == l else zero(basis)
                yield f"iv(k={k + 1},l={l + 1})", commutator(ls_star[k], rs[l]), rhs


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
    vacuum = x.column(0).get(0, 0)
    sectors = []
    for m in range(1, x.valid_up_to + 1):
        idxs = list(basis.sector(m))
        dim = len(idxs)
        hit_rows = set()
        ker = 0
        for j in idxs:
            col = x.column(j)
            if not col:
                ker += 1
            else:
                hit_rows.update(col)
        sectors.append(SectorIndex(m, dim, ker, dim - len(hit_rows)))
    return x, IndexReport(tuple(sectors), vacuum, n)
