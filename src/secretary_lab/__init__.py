"""Optimal thresholds, dual certificates, finite LPs and simulation for
multi-choice multi-best online selection."""

from .dual import (
    ClosedForm12,
    ClosedForm22,
    DualCertificateJK,
    ThresholdMatrix,
    closed_form_12,
    closed_form_22,
    construct_dual,
    lambert_w_principal,
    payoff_jk,
    verify_certificate,
)
from .theta import (
    ThetaSequence,
    generate_thetas,
    payoff_k1,
    thresholds,
)

__all__ = [
    "ClosedForm12",
    "ClosedForm22",
    "DualCertificateJK",
    "ThetaSequence",
    "ThresholdMatrix",
    "closed_form_12",
    "closed_form_22",
    "construct_dual",
    "generate_thetas",
    "lambert_w_principal",
    "payoff_jk",
    "payoff_k1",
    "thresholds",
    "verify_certificate",
]

__version__ = "0.1.0"
