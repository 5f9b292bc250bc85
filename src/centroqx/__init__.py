"""Thin QX factorization of centrosymmetric matrices.

Structured factors (perplectic-orthogonal Q, double-cone X), rigorous
perturbation bounds for both factors under normwise and entrywise
perturbation models, mixed/component-wise condition numbers, and a
deterministic experiment harness exposed through the ``centroqx`` CLI.
"""

from .centro import (
    centro_from_free_entries,
    fold,
    free_entry_count,
    is_centrosymmetric,
    random_centro,
    random_centro_perturbation,
    toeplitz_centro,
    unfold,
)
from .qx import QxFactors, conditioning, qx_decompose, verify_qx, x_inverse
from .xops import scaling_candidates, support_mask, upx, varsigma, xvec

__version__ = "0.1.0"

__all__ = [
    "QxFactors",
    "centro_from_free_entries",
    "conditioning",
    "fold",
    "free_entry_count",
    "is_centrosymmetric",
    "qx_decompose",
    "random_centro",
    "random_centro_perturbation",
    "scaling_candidates",
    "support_mask",
    "toeplitz_centro",
    "unfold",
    "upx",
    "varsigma",
    "verify_qx",
    "x_inverse",
    "xvec",
]
