"""K-theory and K-homology of the Cuntz-Krieger algebras O_A and O_{A^T}.

For an n x n defining matrix A the four groups of O_A are presented by the
integer matrices 1 - A^T and 1 - A:

    K_0(O_A)  = Z^n / (1 - A^T) Z^n      K_1(O_A)  = ker(1 - A^T)
    K^0(O_A)  = ker(1 - A)               K^1(O_A)  = Z^n / (1 - A) Z^n

and the groups of O_{A^T} are these four with 1 - A and 1 - A^T swapped, so
``k_groups`` reads both algebras off one pair.  That pair is 1 - B and its
``IntMatrix`` transpose, where B is the amalgamation of A (``_amalgamate``):
states with equal columns or equal rows merged until none are equal.  The
merges are conjugacies that keep coker(1 - A), coker(1 - A^T) and
det(1 - A); each matrix is square, so the free rank of each cokernel is the
rank of the matching kernel, and those are kept too.  A higher-block
presentation A^[N] amalgamates back to the size of A (MIXED4^[5]: 172
states to 4), and a matrix with no two equal rows and no two equal columns
is its own amalgamation, B = A.  ``presentation_pair`` builds the pair the
same way for every input, from ``succ``; ``ckdual ktheory`` builds it once
and hands it to ``k_groups`` and ``duality_report``, and renders that one
result as JSON or as text.  K_0(O_A) and K^1(O_{A^T}) are presented by
the one matrix 1 - B^T (likewise K_1(O_A) and K^0(O_{A^T}) share its
kernel), so the report states those matches as identities.  coker(1 - A)
and coker(1 - A^T) are only abstractly isomorphic - equal invariant
factors, no preferred map - so the report compares their Smith forms and
never identifies them entrywise.

A ``ktheory --duality`` report asks for a Smith form ten times (four per
algebra in ``k_groups``, two in ``duality_report``; six through
``cokernel`` and four through ``kernel_basis``) but of only the two
matrices of the amalgamated pair, 1 - B and 1 - B^T; the two-entry memo on
``smith_normal_form`` makes that two eliminations, both transform-free.
Only ``kernel_basis`` reads a transform (V, at the zero diagonal entries),
so the transforms of a presentation are built, once, only when it is
singular: det(1 - A) = 0.
"""

from __future__ import annotations

from dataclasses import dataclass

from .sft import ZeroOneMatrix
from .zlinalg import FGAbelianGroup, IntMatrix, cokernel, kernel_basis


def _one_minus_multigraph(b: list) -> IntMatrix:
    """1 - B for the multigraph B whose row i is ``{j: multiplicity}``."""
    n = len(b)
    rows = []
    for i, succ in enumerate(b):
        row = [0] * n
        row[i] = 1
        for j, m in succ.items():
            row[j] -= m
        rows.append(tuple(row))
    return IntMatrix(n, n, tuple(rows))


def _merge_equal_columns(rows: dict) -> dict:
    """One out-amalgamation pass, returned transposed: the rows of B^T.

    ``rows`` maps each state to its row ``{j: multiplicity}`` in a matrix A.
    Columns are keyed by their (state, multiplicity) pairs, because merged
    rows are sums and entries may exceed 1.  B is A with each group of
    equal columns merged into its first state, which takes the sum of the
    group's rows; the other rows and columns of the group are deleted.  So
    row k of B^T, for a kept state k, is column k of A with each entry
    added onto the first state of its group.
    """
    cols = _transpose(rows)
    groups = {}
    for j, col in cols.items():
        groups.setdefault(frozenset(col.items()), []).append(j)
    if len(groups) == len(cols):
        return cols
    first = {j: g[0] for g in groups.values() for j in g}
    merged = {}
    for k, *_ in groups.values():
        row = merged[k] = {}
        for i, m in cols[k].items():
            row[first[i]] = row.get(first[i], 0) + m
    return merged


def _transpose(rows: dict) -> dict:
    cols = {j: {} for j in rows}
    for i, row in rows.items():
        for j, m in row.items():
            cols[j][i] = m
    return cols


def _amalgamate(succ: tuple) -> list:
    """The rows ``{j: multiplicity}`` of B, the amalgamation of the 0/1
    matrix A with the given ``succ``, relabelled 0..m-1.

    Each round merges every group of equal columns (``_merge_equal_columns``),
    then every group of equal rows, as equal columns of the transpose that
    the first half returns; the second half transposes back, so a round
    ends on B, not B^T.  The rounds repeat until one merges nothing, so no
    two rows and no two columns of B are equal, and a matrix with none to
    begin with is its own amalgamation, B = A.

    B keeps the three invariants the K-theory reads:

        coker(1 - B) = coker(1 - A),  coker(1 - B^T) = coker(1 - A^T),
        det(1 - B) = det(1 - A),

    the cokernels up to isomorphism.  Proof, for one merge.  Let A be an
    n x n integer matrix whose columns i and j are equal, i != j; nothing
    below uses that entries are 0 or 1, so it holds at every multiplicity.
    Let A' be A with row j added to row i and with row and column j
    deleted, which is what the merge builds.  Take T = 1 - e_i e_j^T,
    unimodular with inverse 1 + e_i e_j^T.  As A e_j = A e_i, AT is A with
    column j zeroed, and C = T^-1 A T is AT with row j added to row i.  With
    state j listed last,

        C = [[A', 0], [r, 0]],    1 - C = [[1 - A', 0], [-r, 1]],

    where r is row j of A without its entry j.  Now 1 - C = T^-1 (1 - A) T
    and 1 - C^T = T^T (1 - A^T) T^-T are unimodular equivalences, so
    coker(1 - A) = coker(1 - C), coker(1 - A^T) = coker(1 - C^T) and
    det(1 - A) = det(1 - C).  Adding r_k times the last column of 1 - C to
    its column k clears -r, and the same steps as row operations clear -r^T
    from 1 - C^T = [[1 - A'^T, -r^T], [0, 1]].  So 1 - C is equivalent to
    diag(1 - A', 1) and 1 - C^T to diag(1 - A'^T, 1), which gives
    coker(1 - C) = coker(1 - A'), coker(1 - C^T) = coker(1 - A'^T) and
    det(1 - C) = det(1 - A').  Hence:

    - Merging equal columns is an out-amalgamation.  States i and j have
      the same predecessors, with multiplicity, and the merged state takes
      the out-edges of both: the inverse of out-splitting a state into two
      copies that share its in-edges (Williams 1973, Ann. of Math. 98; Lind
      & Marcus 1995, section 2.4).  It keeps all three invariants, by the
      proof above.
    - Merging equal rows is its transpose, an in-amalgamation.  Rows i and
      j of A are columns of A^T, and the merge of A^T above transposes to A
      with column j added to column i and row and column j deleted.  Applied
      to A^T, the proof keeps coker(1 - A^T), coker(1 - A) and
      det(1 - A^T) = det(1 - A).
    - A whole group merges at once.  Merging j into i changes only row i,
      by adding row j, and two columns k, l that were equal have equal
      entries in row j, so they stay equal; the same holds for the groups
      of other keys.  So one pass is a sequence of single merges, and the
      invariants hold after every pass, at every multiplicity.
    """
    rows = {i: dict.fromkeys(s, 1) for i, s in enumerate(succ)}
    size = 0
    while len(rows) != size:  # until a round merges nothing
        size = len(rows)
        rows = _merge_equal_columns(_merge_equal_columns(rows))
    index = {s: k for k, s in enumerate(rows)}
    return [{index[j]: m for j, m in row.items()} for row in rows.values()]


def presentation_pair(a: ZeroOneMatrix) -> tuple:
    """(1 - B, 1 - B^T) for the amalgamation B of A (``_amalgamate``)."""
    pres = _one_minus_multigraph(_amalgamate(a.succ))
    return pres, pres.transpose()


@dataclass(frozen=True)
class AlgebraKTheory:
    k0: FGAbelianGroup
    k1: FGAbelianGroup
    khom0: FGAbelianGroup
    khom1: FGAbelianGroup

    def to_json(self) -> dict:
        return {
            "K0": self.k0.to_json(),
            "K1": self.k1.to_json(),
            "K^0": self.khom0.to_json(),
            "K^1": self.khom1.to_json(),
        }


@dataclass(frozen=True)
class KTheoryReport:
    matrix: ZeroOneMatrix
    o_a: AlgebraKTheory
    o_at: AlgebraKTheory

    def to_json(self) -> dict:
        return {
            "matrix": self.matrix.to_json(),
            "O_A": self.o_a.to_json(),
            "O_AT": self.o_at.to_json(),
        }


@dataclass(frozen=True)
class DualityReport:
    # identities of the one presentation pair (``duality_report``)
    presentation_match_K0_Khom1 = True
    presentation_match_K1_Khom0 = True

    abstract_iso_cokernels: bool
    invariant_factors_A: tuple
    invariant_factors_AT: tuple

    def to_json(self) -> dict:
        return {
            "presentation_match_K0_Khom1": self.presentation_match_K0_Khom1,
            "presentation_match_K1_Khom0": self.presentation_match_K1_Khom0,
            "abstract_iso_cokernels": self.abstract_iso_cokernels,
            "invariant_factors_A": list(self.invariant_factors_A),
            "invariant_factors_AT": list(self.invariant_factors_AT),
        }


def _algebra_groups(pres_t: IntMatrix, pres: IntMatrix) -> AlgebraKTheory:
    """The four groups of O_B, given pres_t = 1 - B^T and pres = 1 - B."""
    return AlgebraKTheory(
        k0=cokernel(pres_t),
        k1=FGAbelianGroup(len(kernel_basis(pres_t)), ()),
        khom0=FGAbelianGroup(len(kernel_basis(pres)), ()),
        khom1=cokernel(pres),
    )


def k_groups(a: ZeroOneMatrix, pair: tuple | None = None) -> KTheoryReport:
    """All eight K/K-homology groups of O_A and O_{A^T}, from one pair.

    ``pair`` is ``presentation_pair(a)``, built here unless the caller
    already holds it.
    """
    pres, pres_t = presentation_pair(a) if pair is None else pair
    return KTheoryReport(matrix=a, o_a=_algebra_groups(pres_t, pres),
                         o_at=_algebra_groups(pres, pres_t))


def duality_report(a: ZeroOneMatrix, pair: tuple | None = None) -> DualityReport:
    """The duality identities of the presentation pair, and the cokernels compared.

    The report reads the pair that ``k_groups`` reads, ``presentation_pair(a)``
    (passed in as ``pair`` when the caller already holds it): 1 - B for the
    amalgamation B of A, and 1 - B^T as its ``IntMatrix`` transpose.
    K_0(O_A) and K^1(O_{A^T}) are both quotients by 1 - B^T, and K_1(O_A)
    and K^0(O_{A^T}) are both kernels of it, because ``k_groups`` reads them
    off that one matrix.  So the two ``presentation_match_*`` flags are
    identities, true for every matrix, and the report states them rather
    than compares anything.  ``abstract_iso_cokernels`` compares the two
    Smith forms computed here, but it is a theorem as well: a matrix and its
    transpose have the same invariant factors.  So ``ckdual duality`` cannot
    exit 1.  The independent checks of the Smith form are its transform
    postconditions and the invariance of K-theory under conjugacy
    (higher-block presentations).
    """
    pres, pres_t = presentation_pair(a) if pair is None else pair
    coker_a = cokernel(pres)
    coker_at = cokernel(pres_t)
    return DualityReport(
        abstract_iso_cokernels=(
            coker_a.free_rank == coker_at.free_rank and coker_a.torsion == coker_at.torsion
        ),
        invariant_factors_A=coker_a.torsion,
        invariant_factors_AT=coker_at.torsion,
    )
