"""Fractional diffusion on towers of p-adic field extensions.

Exact spectra, hypersingular kernel actions, jump-measure and heat-measure
computations for the power-of-norm multiplier operator on cylindrical
functions over an increasing tower of finite extensions of Q_p.
"""

from .padic import (
    ExtElement,
    Level,
    base_level,
    frac_part,
    pairing_angle,
    project_T,
    trace,
    vp,
)

__version__ = "0.1.0"

__all__ = [
    "ExtElement",
    "Level",
    "base_level",
    "frac_part",
    "pairing_angle",
    "project_T",
    "trace",
    "vp",
    "__version__",
]
