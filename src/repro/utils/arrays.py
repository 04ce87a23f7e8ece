"""Shared :mod:`numpy.typing` aliases for the strictly-typed signal core.

The MUSIC/P-MUSIC chain is precise about what flows where: snapshots and
covariances are complex, spectra and angle grids are real.  These
aliases give every signature in ``dsp/``, ``rf/`` and ``utils/`` one
vocabulary for that distinction, so a covariance silently cast to real
(reprolint rule RL003) also reads wrong in the type signature.
"""

from __future__ import annotations

import numpy as np
from numpy.typing import ArrayLike, NDArray

#: Real-valued arrays: angle grids, spectra, phase offsets, statistics.
FloatArray = NDArray[np.float64]

#: Complex-valued arrays: snapshots, covariances, subspaces, steering.
ComplexArray = NDArray[np.complex128]

#: Integer index arrays (peak indices, grid cells).
IntArray = NDArray[np.int64]

#: Boolean masks (per-item validity, filled cells).
BoolArray = NDArray[np.bool_]

__all__ = ["ArrayLike", "BoolArray", "ComplexArray", "FloatArray", "IntArray"]
