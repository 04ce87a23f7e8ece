"""Array covariance estimation (the ``R`` of the paper's Eq. 5)."""

from __future__ import annotations

import numpy as np

from repro.analysis.contracts import check_shapes, ensure_finite
from repro.dsp.batch import batched_sample_covariance
from repro.errors import EstimationError
from repro.utils.arrays import ArrayLike, ComplexArray


@check_shapes(returns="complex:M,M", snapshots="M,N")
@ensure_finite
def sample_covariance(snapshots: ArrayLike) -> ComplexArray:
    """Sample covariance ``R = X X^H / N`` of array snapshots.

    A one-item call of :func:`repro.dsp.batch.batched_sample_covariance`.

    Parameters
    ----------
    snapshots:
        Complex array of shape ``(M, N)``: ``M`` antennas, ``N``
        temporal snapshots.

    Returns
    -------
    numpy.ndarray
        Hermitian ``(M, M)`` covariance estimate.
    """
    x = np.asarray(snapshots, dtype=np.complex128)
    if x.ndim != 2:
        raise EstimationError(f"snapshots must be 2-D (M, N), got shape {x.shape}")
    return batched_sample_covariance(x[None])[0]


def is_hermitian(matrix: ArrayLike, tolerance: float = 1e-10) -> bool:
    """Whether ``matrix`` is Hermitian within ``tolerance``."""
    arr = np.asarray(matrix)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        return False
    return bool(np.allclose(arr, arr.conj().T, atol=tolerance))
