"""Exact singular vectors in vacuum modules over affine Lie algebras.

The package builds symplectic (type C) and special linear (type A) structure
tables from an oscillator realization, straightens words of affine modes
acting on the vacuum, constructs determinant-shaped singular vectors, and
verifies their expected properties with exact rational arithmetic: the
annihilation conditions, the lowering-factor identity, the projection onto
the enveloping algebra, the oscillator image, and the sp_6 top-level
classification.
"""

from .category_o import classify_sp6
from .determinants import DeterminantSpec, determinant_vector, lowering_factor_check, verify_singular
from .liealg import build_algebra
from .weights import weyl_dim
from .zhu import verify_weyl_vanishing, verify_zhu_generator

__version__ = "0.1.0"

__all__ = [
    "DeterminantSpec", "build_algebra", "classify_sp6", "determinant_vector",
    "lowering_factor_check", "verify_singular", "verify_weyl_vanishing",
    "verify_zhu_generator", "weyl_dim",
]
