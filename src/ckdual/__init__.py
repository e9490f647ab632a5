"""Exact invariants and operator-identity verification for shifts of finite type.

Given a 0/1 defining matrix with no zero row or column, this package computes
the K-theory and K-homology of the associated Cuntz-Krieger algebras O_A and
O_{A^T} by exact integer linear algebra, and mechanically verifies the
operator identities of the restricted Fock space model (creation relations,
the intertwining element W, the isometries V_k, and the Toeplitz-type
relations they satisfy), reporting exact defects where an identity only holds
up to vacuum-sector corrections.
"""

from .ckalg import (
    AlgebraTag,
    LAURENT,
    TensorElement,
    alpha_bar,
    ck_generator,
    ck_multiply,
    ck_unit,
    o_a,
    o_at,
    tensor_equal,
    theta,
    w_element,
)
from .duality import (
    HybridElement,
    LemmaReport,
    build_W,
    hybrid_mul,
    quotient_image,
    verify_lemma_V,
    verify_lemma_W,
    verify_toeplitz_untwist,
)
from .fock import (
    FockBasis,
    FockOperator,
    build_creation,
    rotation_operator,
    vacuum_projection,
    verify_creation_relations,
    verify_relation,
)
from .ktheory import KTheoryReport, duality_report, k_groups
from .sft import (
    ZeroOneMatrix,
    count_words,
    enumerate_words,
    is_aperiodic,
    load_matrix,
    satisfies_cantor_condition,
    validate_matrix,
)
from .zlinalg import FGAbelianGroup, IntMatrix, SmithForm, cokernel, kernel_basis, smith_normal_form

__version__ = "0.1.0"
