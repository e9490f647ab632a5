"""Exact invariants and operator-identity verification for shifts of finite type.

Given a 0/1 defining matrix with no zero row or column, this package computes
the K-theory and K-homology of the associated Cuntz-Krieger algebras O_A and
O_{A^T} by exact integer linear algebra, and mechanically verifies the
operator identities of the restricted Fock space model (creation relations,
the intertwining element W, the isometries V_k, and the Toeplitz-type
relations they satisfy), reporting exact defects where an identity only holds
up to vacuum-sector corrections.
"""

__version__ = "0.1.0"
