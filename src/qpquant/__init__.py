"""Numerical geometric quantization on quaternion projective spaces.

A numpy library that implements the model spaces of the punctured
cotangent bundle of the quaternion projective space, the maps between
them, the Kaehler/symplectic structures with their pairing constants, the
spectral data of the Laplacian, the quantization operators with their
closed-form constants and Monte Carlo / quadrature oracles, and the
reproducing kernel of the associated Hilbert space.

The ``qpquant`` command line runs the verification suites; see the README
for the acceptance criteria and known source discrepancies.
"""

from . import algebra, geometry, numerics, quantization, spaces, spectral
from .numerics import MCConfig, MCEstimate
from .spaces import AMatrix, BTuple, CotangentPointH, SphereCovector

__version__ = "0.1.0"

__all__ = [
    "AMatrix",
    "BTuple",
    "CotangentPointH",
    "MCConfig",
    "MCEstimate",
    "SphereCovector",
    "algebra",
    "geometry",
    "numerics",
    "quantization",
    "spaces",
    "spectral",
]
