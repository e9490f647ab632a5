"""Exact truncated model of the restricted Fock space of a shift of finite type.

The basis consists of the vacuum followed by all admissible words of length
1..m_max (length-major, lexicographic within a length).  Left and right
creation operators act by

    L_k vacuum = xi_k = R_k vacuum
    L_k xi_w = A[k][w_1] xi_{k w}        R_k xi_w = A[w_end][k] xi_{w k}

and the adjoint of an operator is its honest matrix transpose, so

    L_k* xi_w = [w_1 = k] xi_{w_2..}     R_k* xi_w = [w_end = k] xi_{w_1..w_end-1}

with Kronecker deltas (the coefficients are forced by the inner product).

Truncation is handled explicitly rather than silently: every operator carries
``valid_up_to``, the largest column word length on which its stored matrix
agrees with the untruncated operator, and products, sums and adjoints
propagate it.  Relation checks compare two operators only on the intersection
of their valid domains and report exact defect columns instead of a bare
boolean.

Operators are immutable and share column dicts with each other: ``+`` keeps
every column the other operand does not touch and copies a column only when
it writes to it, and ``@`` reuses the left factor's column as the product
column wherever the right factor's column is a single entry 1.  A column
dict reached through ``cols`` or ``column`` must therefore never be mutated.
"""

from __future__ import annotations

from dataclasses import dataclass

from .sft import ZeroOneMatrix, enumerate_words, word_str


class FockBasis:
    """Ordered basis of the truncated restricted Fock space."""

    def __init__(self, matrix: ZeroOneMatrix, m_max: int):
        if m_max < 1:
            raise ValueError("m_max must be >= 1")
        self.matrix = matrix
        self.m_max = m_max
        self.words = []
        self.sector_bounds = []  # (start, end) per word length
        for m in range(m_max + 1):
            start = len(self.words)
            self.words.extend(enumerate_words(matrix, m))
            self.sector_bounds.append((start, len(self.words)))
        self.index = {w: i for i, w in enumerate(self.words)}

    @property
    def size(self) -> int:
        return len(self.words)

    def sector(self, m: int):
        start, end = self.sector_bounds[m]
        return range(start, end)

    def end_of_length(self, m: int) -> int:
        """Index one past the last word of length <= m (0 when m < 0)."""
        return self.sector_bounds[min(m, self.m_max)][1] if m >= 0 else 0


def _star_expr(expr):
    head = expr[0]
    if head in ("L", "R"):
        return (head + "*", expr[1])
    if head in ("L*", "R*"):
        return (head[0], expr[1])
    if head in ("P", "I", "0"):
        return expr
    if head == "sum":
        return ("sum", tuple(_star_expr(e) for e in expr[1]))
    if head == "prod":
        return ("prod", tuple(_star_expr(e) for e in reversed(expr[1])))
    if head == "scale":
        return ("scale", expr[1], _star_expr(expr[2]))
    raise ValueError(f"unknown operator expression {expr!r}")


class FockOperator:
    """Sparse exact-integer matrix on a FockBasis with truncation bounds.

    ``valid_up_to``: columns indexed by words of length <= valid_up_to equal
    the untruncated operator's columns.  ``raise_len``/``lower_len`` bound how
    much the operator can lengthen/shorten a word; products adjust the valid
    domain by the inner factor's raise.  ``expr`` records how the operator was
    assembled from generators (used by the hybrid quotient map).

    Operators are immutable.  Equality and hash are by matrix on the same
    basis, whatever the bounds or ``expr``; the hash is cached on first use.
    No stored column or entry is zero.

    Column dicts are shared between operators and must never be mutated:
    ``+`` shares every column of either operand that the sum leaves unchanged
    and copies a column only when it writes to it, and ``@`` shares the left
    factor's column for each single-entry column of the right factor (scaled
    into a new dict unless the entry is 1).
    """

    __slots__ = ("basis", "cols", "valid_up_to", "adj_valid", "raise_len", "lower_len", "expr",
                 "_hash")

    def __init__(self, basis, cols, valid_up_to, adj_valid, raise_len, lower_len, expr):
        self.basis = basis
        self.cols = cols
        self.valid_up_to = max(valid_up_to, -1)
        self.adj_valid = max(adj_valid, -1)
        self.raise_len = raise_len
        self.lower_len = lower_len
        self.expr = expr
        self._hash = None

    def column(self, j: int) -> dict:
        return self.cols.get(j, {})

    def _same_basis(self, other):
        if self.basis is not other.basis:
            raise ValueError("operators live on different bases")

    def __add__(self, other: "FockOperator") -> "FockOperator":
        self._same_basis(other)
        cols = dict(self.cols)
        for j, col in other.cols.items():
            dst = cols.get(j)
            if dst is None:
                cols[j] = col
                continue
            dst = dict(dst)
            for i, v in col.items():
                w = dst.get(i, 0) + v
                if w:
                    dst[i] = w
                else:
                    del dst[i]
            if dst:
                cols[j] = dst
            else:
                del cols[j]
        return FockOperator(
            self.basis,
            cols,
            min(self.valid_up_to, other.valid_up_to),
            min(self.adj_valid, other.adj_valid),
            max(self.raise_len, other.raise_len),
            max(self.lower_len, other.lower_len),
            ("sum", (self.expr, other.expr)),
        )

    def __neg__(self) -> "FockOperator":
        return self.scale(-1)

    def __sub__(self, other: "FockOperator") -> "FockOperator":
        return self + (-other)

    def scale(self, c: int) -> "FockOperator":
        if not isinstance(c, int):
            raise TypeError("Fock operators are integer matrices; scale by int")
        if c == 0:
            return zero(self.basis)
        cols = {j: {i: c * v for i, v in col.items()} for j, col in self.cols.items()}
        return FockOperator(
            self.basis, cols, self.valid_up_to, self.adj_valid,
            self.raise_len, self.lower_len, ("scale", c, self.expr),
        )

    def __matmul__(self, other: "FockOperator") -> "FockOperator":
        self._same_basis(other)
        acols = self.cols
        cols = {}
        for j, bcol in other.cols.items():
            if len(bcol) == 1:
                ((mid, v),) = bcol.items()
                acol = acols.get(mid)
                if acol:
                    cols[j] = acol if v == 1 else {i: v * w for i, w in acol.items()}
                continue
            out = {}
            for mid, v in bcol.items():
                acol = acols.get(mid)
                if not acol:
                    continue
                for i, w in acol.items():
                    t = out.get(i, 0) + v * w
                    if t:
                        out[i] = t
                    else:
                        del out[i]
            if out:
                cols[j] = out
        return FockOperator(
            self.basis,
            cols,
            min(other.valid_up_to, self.valid_up_to - other.raise_len),
            min(self.adj_valid, other.adj_valid - self.lower_len),
            self.raise_len + other.raise_len,
            self.lower_len + other.lower_len,
            ("prod", (self.expr, other.expr)),
        )

    def adjoint(self) -> "FockOperator":
        cols = {}
        for j, col in self.cols.items():
            for i, v in col.items():
                cols.setdefault(i, {})[j] = v
        return FockOperator(
            self.basis, cols, self.adj_valid, self.valid_up_to,
            self.lower_len, self.raise_len, _star_expr(self.expr),
        )

    def __eq__(self, other):
        return (
            isinstance(other, FockOperator)
            and self.basis is other.basis
            and self.cols == other.cols
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(frozenset((j, frozenset(c.items())) for j, c in self.cols.items()))
        return self._hash


def zero(basis: FockBasis) -> FockOperator:
    return FockOperator(basis, {}, basis.m_max, basis.m_max, 0, 0, ("0",))


def identity(basis: FockBasis) -> FockOperator:
    cols = {j: {j: 1} for j in range(basis.size)}
    return FockOperator(basis, cols, basis.m_max, basis.m_max, 0, 0, ("I",))


def vacuum_projection(basis: FockBasis) -> FockOperator:
    return FockOperator(basis, {0: {0: 1}}, basis.m_max, basis.m_max, 0, 0, ("P",))


def build_creation(basis: FockBasis, side: str, k: int) -> FockOperator:
    """The creation operator L_k ("left") or R_k ("right"), k 1-based.

    Length-raising operators lose the top layer: columns of length m_max map
    out of the window, so valid_up_to = m_max - 1.
    """
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    a = basis.matrix
    if not 1 <= k <= a.n:
        raise ValueError(f"letter {k} out of range 1..{a.n}")
    k0 = k - 1
    cols = {}
    for j, w in enumerate(basis.words):
        if len(w) >= basis.m_max:
            continue
        if not w:
            new = (k0,)
        elif side == "left":
            if not a.entry(k0, w[0]):
                continue
            new = (k0,) + w
        else:
            if not a.entry(w[-1], k0):
                continue
            new = w + (k0,)
        cols[j] = {basis.index[new]: 1}
    head = "L" if side == "left" else "R"
    return FockOperator(basis, cols, basis.m_max - 1, basis.m_max, 1, 0, (head, k0))


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

    Columns are compared as stored; the exact delta is computed only for
    columns that differ (nonzero, since no stored entry is zero), so no
    ``lhs - rhs`` operator is built.
    """
    lhs._same_basis(rhs)
    basis = lhs.basis
    valid = min(lhs.valid_up_to, rhs.valid_up_to)
    lcols, rcols = lhs.cols, rhs.cols
    defects = []
    for j in range(basis.end_of_length(valid)):
        lcol, rcol = lcols.get(j), rcols.get(j)
        if lcol == rcol:
            continue
        delta = dict(lcol) if lcol else {}
        for i, v in (rcol or {}).items():
            t = delta.get(i, 0) - v
            if t:
                delta[i] = t
            else:
                del delta[i]
        w = basis.words[j]
        rows = tuple((word_str(basis.words[i]), v) for i, v in sorted(delta.items()))
        defects.append(RelationDefect(word_str(w), len(w), rows))
    return RelationReport(relation, not defects, valid, tuple(defects))


def creation_relations(basis: FockBasis, which: str = "all"):
    """The four families of creation-operator relations, as (label, lhs, rhs).

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
    out = []
    if which in ("all", "i"):
        ranges = [x @ x_star for x, x_star in zip(ls, ls_star)]
        for k in range(n):
            rhs = p
            for i in range(n):
                if a.entry(k, i):
                    rhs = rhs + ranges[i]
            out.append((f"i(k={k + 1})", ls_star[k] @ ls[k], rhs))
    if which in ("all", "ii"):
        ranges = [x @ x_star for x, x_star in zip(rs, rs_star)]
        for k in range(n):
            rhs = p
            for i in range(n):
                if a.entry(i, k):
                    rhs = rhs + ranges[i]
            out.append((f"ii(k={k + 1})", rs_star[k] @ rs[k], rhs))
    if which in ("all", "iii"):
        for k in range(n):
            for l in range(n):
                out.append((f"iii(k={k + 1},l={l + 1})", commutator(ls[k], rs[l]), zero(basis)))
    if which in ("all", "iv"):
        for k in range(n):
            for l in range(n):
                rhs = p if k == l else zero(basis)
                out.append((f"iv(k={k + 1},l={l + 1})", commutator(ls_star[k], rs[l]), rhs))
    return out


def verify_creation_relations(basis: FockBasis, which: str = "all"):
    return [verify_relation(label, lhs, rhs) for label, lhs, rhs in creation_relations(basis, which)]


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
    for m in range(1, min(x.valid_up_to, basis.m_max) + 1):
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


# ---------------------------------------------------------------------------
# word-model evaluation of symbolic elements (the independent oracle)
#
# These act on plain words with no truncation: each normal-form pair is
# applied one generator at a time via the displayed creation/annihilation
# rules, so the evaluation is independent of the symbolic reduction rules it
# is used to check.


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
