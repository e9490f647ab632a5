"""Exact integer linear algebra: Smith normal form, kernels, cokernels.

Everything here runs over Python's arbitrary-precision integers; there is no
floating point in this module.  Intermediate Smith-form entries can grow far
beyond machine words, and a silent overflow would corrupt the K-groups
computed from these presentations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import compress, count
from operator import itemgetter


@dataclass(frozen=True)
class IntMatrix:
    """A rectangular matrix of exact integers."""

    rows: int
    cols: int
    entries: tuple

    @classmethod
    def from_rows(cls, rows) -> "IntMatrix":
        data = tuple(tuple(map(int, r)) for r in rows)
        ncols = len(data[0]) if data else 0
        if any(len(r) != ncols for r in data):
            raise ValueError("ragged rows")
        return cls(len(data), ncols, data)

    def entry(self, i: int, j: int) -> int:
        return self.entries[i][j]

    def transpose(self) -> "IntMatrix":
        # zip of no rows yields no columns, so a 0 x c matrix needs its c empty rows
        entries = tuple(zip(*self.entries)) if self.rows else ((),) * self.cols
        return IntMatrix(self.cols, self.rows, entries)

    def to_lists(self) -> list:
        return [list(r) for r in self.entries]


@dataclass(frozen=True)
class SmithForm:
    """U * M * V = S with U, V unimodular and S diagonal with a divisibility chain.

    S is given when the form is built: ``smith_normal_form`` eliminates one
    matrix of a transpose pair and builds the forms of both, one with S and
    one with S transposed.  U and V are built only when one of them is first
    read, by one more elimination of M bordered by identities that carry
    the transforms, and the form keeps them.  That elimination's S is S
    again: the Smith form is unique (``smith_normal_form``), whether S came
    from M or, transposed, from M^T.  Equality and hash are the
    generated ones on (M, S), and comparing two forms never builds a
    transform: U and V are functions of M, so equal (M, S) means equal
    (U, S, V).
    """

    M: IntMatrix
    S: IntMatrix

    @cached_property
    def _transforms(self) -> tuple:
        _, u, v = _eliminate(self.M, True)
        return u, v

    @property
    def U(self) -> IntMatrix:
        return self._transforms[0]

    @property
    def V(self) -> IntMatrix:
        return self._transforms[1]

    def diagonal(self) -> list:
        return [self.S.entry(i, i) for i in range(min(self.S.rows, self.S.cols))]


@dataclass(frozen=True)
class FGAbelianGroup:
    """A finitely generated abelian group in invariant-factor form.

    free_rank copies of Z plus Z/d_1 + ... + Z/d_t with every d_i >= 2 and
    d_i | d_{i+1}.  Factors equal to 1 are never stored.
    """

    free_rank: int
    torsion: tuple = field(default_factory=tuple)

    def __post_init__(self):
        if self.free_rank < 0:
            raise ValueError("free_rank must be non-negative")
        prev = 1
        for d in self.torsion:
            if d < 2:
                raise ValueError("torsion factors must be >= 2")
            if d % prev != 0:
                raise ValueError("torsion factors must form a divisibility chain")
            prev = d

    def to_json(self) -> dict:
        return {"free_rank": self.free_rank, "torsion": list(self.torsion)}

    def __str__(self) -> str:
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{d}" for d in self.torsion)
        return " + ".join(parts) if parts else "0"


def _identity_lists(n: int) -> list:
    return [[0] * i + [1] + [0] * (n - 1 - i) for i in range(n)]


def _pivot(s, t, rows, cols):
    """Smallest nonzero absolute value in the trailing submatrix, row-major tie-break.

    Returns at the first entry of absolute value 1: no nonzero entry is
    smaller, so the full scan would pick that same entry.
    """
    best, best_abs = None, 0
    for i in range(t, rows):
        row = s[i]
        for j in compress(range(t, cols), row[t:cols]):
            a = abs(row[j])
            if a == 1:
                return i, j
            if best is None or a < best_abs:
                best, best_abs = (i, j), a
    return best


def _nonzeros(row, start, stop=None):
    """(j, row[j]) for the nonzero entries with start <= j < stop (no stop: to the
    end of the row); zeros are skipped in C."""
    return [(j, row[j]) for j in compress(count(start), row[start:stop])]


def _move_pivot(s, t, piv):
    """Swap the pivot to (t, t): one row swap and one column swap."""
    a, b = piv
    if a != t:
        s[a], s[t] = s[t], s[a]
    if b != t:
        for row in s[t:]:
            row[b], row[t] = row[t], row[b]


def _fold_into_pivot_row(s, t, src):
    # row t += row src; both rows are zero left of column t
    st = s[t]
    for j, x in _nonzeros(s[src], t):
        st[j] += x


def _clear_below(s, t, rows):
    """Row operations row i -= (s[i][t] // p) * row t for every i > t.

    None of them writes row t, so its nonzeros are collected once.  Returns
    whether a nonzero remainder is left in column t.
    """
    p = s[t][t]
    terms = None
    dirty = False
    for i in compress(range(t + 1, rows), map(itemgetter(t), s[t + 1:rows])):
        si = s[i]
        q = si[t] // p
        if q:
            if terms is None:
                terms = _nonzeros(s[t], t)
            for j, x in terms:
                si[j] -= q * x
        if si[t]:
            dirty = True
    return dirty


def _clear_right(s, t, cols):
    """Column operations col j -= (s[t][j] // p) * col t for every t < j < cols.

    Each reads only column t and none writes it, so they commute and are
    applied in one sweep over the rows.  Returns whether a nonzero remainder
    is left in row t.
    """
    p = s[t][t]
    ops = []
    dirty = False
    for j, x in _nonzeros(s[t], t + 1, cols):
        q = x // p
        if q:
            ops.append((j, q))
        if x - q * p:
            dirty = True
    if ops:
        trailing = s[t:]
        for row in compress(trailing, map(itemgetter(t), trailing)):
            c = row[t]
            for j, q in ops:
                row[j] -= q * c
    return dirty


def _first_indivisible_row(s, t, rows, cols):
    p = s[t][t]
    for i in range(t + 1, rows):
        row = s[i]
        for j in range(t + 1, cols):
            if row[j] % p:
                return i
    return None


def _eliminate(m: IntMatrix, transforms: bool) -> tuple:
    """(S, U, V) of the Smith form of m; U and V are None unless ``transforms``.

    Deterministic: the pivot is always the entry of smallest nonzero absolute
    value in the active submatrix, ties broken in row-major order.  The
    diagonal is made non-negative and satisfies d_i | d_{i+1}.

    With ``transforms`` the elimination runs on m bordered by identities,
    ``[[m, I_rows], [I_cols, 0]]``: a row operation on the rows of m carries
    on into the columns past ``m.cols``, which end up holding U, and a column
    operation on the columns of m carries on into the rows past ``m.rows``,
    which end up holding V.  Every pivot scan, divisibility scan, quotient
    and remainder test reads the m block only, so which operations run is
    decided by m alone and S is the same with or without the border; the
    border only ever receives updates.

    At step t every row and column of m before t is already cleared except
    for its diagonal entry, and no later operation mixes them back in: row
    operations combine rows >= t and column operations combine columns >= t.
    So row operations touch only columns >= t, column operations only rows
    >= t, and both skip zero source entries.  The column operations of one
    reduction pass all read column t and none writes it, so they are applied
    together in a single sweep over rows >= t.  A pivot of absolute value 1
    divides everything, so the divisibility scan is skipped for it.  None of
    this changes which operations run, and the arithmetic is exact, so U, S
    and V are exactly those of the plain entry-by-entry elimination.  S is
    diagonal at the end and is read off the diagonal.
    """
    rows, cols = m.rows, m.cols
    s = m.to_lists()
    if transforms:
        for row, e in zip(s, _identity_lists(rows)):
            row += e
        s += [e + [0] * rows for e in _identity_lists(cols)]
    t = 0
    while t < min(rows, cols):
        piv = _pivot(s, t, rows, cols)
        if piv is None:
            break
        _move_pivot(s, t, piv)
        # run both passes every round: the column pass reads the remainders
        # the row pass leaves in column t
        while _clear_below(s, t, rows) | _clear_right(s, t, cols):
            # leftover remainders are strictly smaller than the pivot; re-center
            _move_pivot(s, t, _pivot(s, t, rows, cols))
        if abs(s[t][t]) != 1:
            bad = _first_indivisible_row(s, t, rows, cols)
            if bad is not None:
                # fold the offending row into row t so the next pivot divides it
                _fold_into_pivot_row(s, t, bad)
                continue
        st = s[t]
        if st[t] < 0:
            # the rest of row t of m is already zero; U's row is negated with it
            st[t] = -st[t]
            st[cols:] = [-x for x in st[cols:]]
        t += 1
    zero = (0,) * cols
    out = IntMatrix(rows, cols, tuple(
        zero[:i] + (s[i][i],) + zero[i + 1:] if i < cols else zero for i in range(rows)))
    if not transforms:
        return out, None, None
    return (out, IntMatrix(rows, rows, tuple(tuple(r[cols:]) for r in s[:rows])),
            IntMatrix(cols, cols, tuple(tuple(r[:cols]) for r in s[rows:])))


# the Smith forms of the most recent transpose pair {M, M^T}, keyed by matrix
_pair_forms: dict = {}


def smith_normal_form(m: IntMatrix) -> SmithForm:
    """Diagonalize over Z by elementary (unimodular) row and column operations.

    S is eliminated eagerly, transform-free, and for only one matrix of each
    transpose pair: the canonical one, whichever of m and m^T has the
    smaller ``entries``.  The other one reads S transposed.  That is its
    Smith form.  If U M V = S, then V^T M^T U^T = S^T, which is diagonal
    with the same divisibility chain; and the Smith form is unique, since
    d_1 ... d_i is the gcd of the i x i minors, and M^T has the minors of M.
    U and V are built when a caller first reads one of them, by a second
    elimination of the matrix itself bordered by identities (see
    ``SmithForm`` and ``_eliminate``), so they equal those of one
    transform-carrying elimination bit for bit.  A K-theory report reads
    only diagonals, plus V when a presentation is singular, so a
    nonsingular report never builds a transform.

    Memoised on the matrix's value, for the most recent transpose pair: a
    miss eliminates the canonical matrix once and stores the forms of both
    m and m^T in ``_pair_forms``, replacing the previous pair.  A K-theory
    report factors only the amalgamated pair 1 - B and 1 - B^T
    (``ktheory.presentation_pair``; B = A when no two rows or columns of A
    are equal), but asks for them ten times through ``cokernel`` and
    ``kernel_basis`` (four per algebra in ``k_groups`` and two in
    ``duality_report``).  So ten requests get two forms and run one
    elimination.  Every caller of the same matrix gets the same
    ``SmithForm`` object, transforms included once built; it and its
    ``IntMatrix`` fields are frozen and hold only tuples, so sharing it is
    safe.  ``_pair_forms.clear()`` empties the memo, and
    ``SmithForm(m, _eliminate(m, False)[0])`` is a fresh form.
    """
    form = _pair_forms.get(m)
    if form is None:
        mt = m.transpose()
        c, ct = (m, mt) if m.entries <= mt.entries else (mt, m)
        s, _, _ = _eliminate(c, False)
        _pair_forms.clear()
        # a symmetric m is its own transpose: one key, one form
        _pair_forms[ct] = SmithForm(ct, s.transpose())
        _pair_forms[c] = SmithForm(c, s)
        form = _pair_forms[m]
    return form


def determinant(m: IntMatrix) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    if m.rows != m.cols:
        raise ValueError("determinant of a non-square matrix")
    n = m.rows
    if n == 0:
        return 1
    a = m.to_lists()
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def kernel_basis(m: IntMatrix) -> list:
    """A Z-basis of the integer kernel {v : Mv = 0}, as tuples.

    Basis vectors are the columns of V (from the Smith form) that pair with a
    zero diagonal entry; each is primitive because V is unimodular.  Empty
    list when the kernel is trivial, and then V is never read, so never built.
    """
    snf = smith_normal_form(m)
    diag = snf.diagonal()
    basis = []
    for j in range(m.cols):
        d = diag[j] if j < len(diag) else 0
        if d == 0:
            basis.append(tuple(snf.V.entry(i, j) for i in range(m.cols)))
    return basis


def cokernel(m: IntMatrix) -> FGAbelianGroup:
    """The group Z^rows / image(M) via the invariant factors of the Smith form."""
    diag = smith_normal_form(m).diagonal()
    nonzero = [d for d in diag if d]
    torsion = tuple(d for d in nonzero if d >= 2)
    return FGAbelianGroup(m.rows - len(nonzero), torsion)
