"""K-theory and K-homology of the Cuntz-Krieger algebras O_A and O_{A^T}.

For an n x n defining matrix A the four groups of O_A are presented by the
integer matrices 1 - A^T and 1 - A:

    K_0(O_A)  = Z^n / (1 - A^T) Z^n      K_1(O_A)  = ker(1 - A^T)
    K^0(O_A)  = ker(1 - A)               K^1(O_A)  = Z^n / (1 - A) Z^n

and the groups of O_{A^T} are these four with 1 - A and 1 - A^T swapped, so
``k_groups`` reads both algebras off one pair built once from ``succ``.  The duality
report compares presentations: K_0(O_A) and K^1(O_{A^T}) are presented by the
same matrix 1 - A^T (likewise K_1(O_A) and K^0(O_{A^T}) share the kernel of
1 - A^T), while coker(1 - A) and coker(1 - A^T) are only abstractly
isomorphic - equal invariant factors, no preferred map - so the report never
identifies them entrywise.

A ``ktheory --duality`` report asks for a Smith form ten times (four per
algebra in ``k_groups``, two in ``duality_report``) but of only two
matrices, 1 - A and 1 - A^T; the two-entry memo on ``smith_normal_form``
makes that two eliminations, both transform-free.  Only ``kernel_basis``
reads a transform (V, at the zero diagonal entries), so the transforms of
a presentation are built, once, only when it is singular: det(1 - A) = 0.
"""

from __future__ import annotations

from dataclasses import dataclass

from .sft import ZeroOneMatrix
from .zlinalg import FGAbelianGroup, IntMatrix, cokernel, kernel_basis


def one_minus(a: ZeroOneMatrix) -> IntMatrix:
    """1 - A: row i is e_i minus the e_j for the letters j in ``succ[i]``."""
    n = a.n
    rows = []
    for i, succ in enumerate(a.succ):
        row = [0] * n
        row[i] = 1
        for j in succ:
            row[j] -= 1
        rows.append(tuple(row))
    return IntMatrix(n, n, tuple(rows))


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
    presentation_match_K0_Khom1: bool
    presentation_match_K1_Khom0: bool
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


def k_groups(a: ZeroOneMatrix) -> KTheoryReport:
    """All eight K/K-homology groups of O_A and O_{A^T}, from one pair."""
    pres = one_minus(a)
    pres_t = pres.transpose()
    return KTheoryReport(matrix=a, o_a=_algebra_groups(pres_t, pres),
                         o_at=_algebra_groups(pres, pres_t))


def bowen_franks(a: ZeroOneMatrix) -> FGAbelianGroup:
    """The Bowen-Franks group coker(1 - A)."""
    return cokernel(one_minus(a))


def duality_report(a: ZeroOneMatrix) -> DualityReport:
    """Presentation-level duality identities plus the abstract cokernel comparison.

    K_0(O_A) and K^1(O_{A^T}) are both quotients by 1 - A^T; K_1(O_A) and
    K^0(O_{A^T}) are both kernels of it.  The report compares the presenting
    matrix ``one_minus(a.transpose())`` entrywise with
    ``one_minus(a).transpose()``; the two routes agree for every valid
    matrix, so both presentation flags hold by construction.
    ``abstract_iso_cokernels`` is a theorem as well: a matrix and its
    transpose have the same invariant factors.  The
    report therefore records derived identities rather than checks that can
    fail, and ``ckdual duality`` cannot exit 1.  The independent checks of
    the Smith form are its transform postconditions and the invariance of
    K-theory under conjugacy (higher-block presentations).
    """
    pres = one_minus(a)
    pres_t = one_minus(a.transpose())
    match = pres_t.entries == pres.transpose().entries
    coker_a = cokernel(pres)
    coker_at = cokernel(pres_t)
    return DualityReport(
        presentation_match_K0_Khom1=match,
        presentation_match_K1_Khom0=match,
        abstract_iso_cokernels=(
            coker_a.free_rank == coker_at.free_rank and coker_a.torsion == coker_at.torsion
        ),
        invariant_factors_A=coker_a.torsion,
        invariant_factors_AT=coker_at.torsion,
    )


def report_json(a: ZeroOneMatrix, include_duality: bool = False) -> dict:
    out = k_groups(a).to_json()
    if include_duality:
        out["duality"] = duality_report(a).to_json()
    return out
