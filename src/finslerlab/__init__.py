"""finslerlab: numerical laboratory for Finsler metrics.

Curvature tensors, geodesic flow, volume measures and comparison checks for
built-in and user-supplied Finsler metrics, driven by truncated Taylor (jet)
arithmetic with independent finite-difference and Monte-Carlo oracles.
"""

from .jets import Jet, JetSpec, FdScheme, derivative_tensor, fd_oracle, lift

__all__ = [
    "Jet",
    "JetSpec",
    "FdScheme",
    "derivative_tensor",
    "fd_oracle",
    "lift",
]

__version__ = "0.1.0"
