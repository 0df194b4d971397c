"""Optimal thresholds, dual certificates, finite LPs and simulation for
multi-choice multi-best online selection."""

from .dual import (
    DualCertificateJK,
    construct_dual,
    payoff_jk,
    verify_certificate,
)
from .theta import (
    ThetaSequence,
    generate_thetas,
    payoff_k1,
    thresholds,
)
from .value import ThresholdMatrix

__all__ = [
    "DualCertificateJK",
    "ThetaSequence",
    "ThresholdMatrix",
    "construct_dual",
    "generate_thetas",
    "payoff_jk",
    "payoff_k1",
    "thresholds",
    "verify_certificate",
]

__version__ = "0.1.0"
