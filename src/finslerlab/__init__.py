"""finslerlab: numerical laboratory for Finsler metrics.

Curvature tensors, geodesic flow, volume measures and comparison checks for
built-in and user-supplied Finsler metrics, driven by truncated Taylor (jet)
arithmetic and checked against independent identities and Monte-Carlo
oracles.
"""

from .jets import Jet, JetSpec, derivative_tensor, lift

__all__ = [
    "Jet",
    "JetSpec",
    "derivative_tensor",
    "lift",
]

__version__ = "0.1.0"
