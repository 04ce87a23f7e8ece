"""Uniform linear arrays and steering vectors.

Conventions match the paper's Section 2.2: for an ``M``-element ULA with
spacing ``d`` and a plane wave arriving at angle ``theta`` (measured from
the array axis, so ``theta`` lives in ``[0, pi]``), the phase lag of
element ``m`` relative to element 1 is ``omega(m, theta) =
(m - 1) * (2*pi*d/lambda) * cos(theta)`` and the steering vector is
``a(theta)_m = exp(-j * omega(m, theta))``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.analysis.contracts import check_shapes
from repro.constants import DEFAULT_NUM_ANTENNAS, DEFAULT_WAVELENGTH_M
from repro.errors import ConfigurationError
from repro.geometry.point import Point
from repro.utils.angles import wrap_to_pi
from repro.utils.arrays import ArrayLike, ComplexArray


def steering_vector(
    theta: float, num_antennas: int, spacing_m: float, wavelength_m: float
) -> ComplexArray:
    """Steering vector ``a(theta)`` of an ``M``-element ULA (shape ``(M,)``)."""
    if num_antennas < 1:
        raise ConfigurationError("array needs at least one antenna")
    m = np.arange(num_antennas)
    omega = m * (2.0 * math.pi * spacing_m / wavelength_m) * math.cos(theta)
    return np.exp(-1j * omega)


def steering_matrix(
    thetas: Sequence[float], num_antennas: int, spacing_m: float, wavelength_m: float
) -> ComplexArray:
    """Steering matrix ``A = [a(theta_1) ... a(theta_P)]``, shape ``(M, P)``.

    Computed as one outer-product exponential: the estimators call this
    for every (reader, tag) pair on a several-hundred-point grid, so
    the vectorized form is the pipeline's single hottest win.
    """
    angles = np.asarray(list(thetas), dtype=np.float64)
    if num_antennas < 1:
        raise ConfigurationError("array needs at least one antenna")
    if angles.size == 0:
        return np.zeros((num_antennas, 0), dtype=np.complex128)
    m = np.arange(num_antennas)[:, None]
    omega = m * (2.0 * math.pi * spacing_m / wavelength_m) * np.cos(angles)[None, :]
    return np.exp(-1j * omega)


#: Small cache for repeated scans of an identical angle grid — the
#: estimators evaluate the same grid for every (reader, tag) pair.
_CacheKey = Tuple[int, float, float, int, Tuple[float, float, float, float]]
_STEERING_CACHE: Dict[_CacheKey, ComplexArray] = {}
_STEERING_CACHE_LIMIT = 16


@check_shapes(returns="complex:*,G", angles="G")
def cached_steering_matrix(
    angles: ArrayLike, num_antennas: int, spacing_m: float, wavelength_m: float
) -> ComplexArray:
    """Like :func:`steering_matrix`, memoized on the grid's fingerprint.

    The returned array is read-only; copy before mutating.
    """
    arr = np.asarray(angles, dtype=np.float64)
    probes = (
        (float(arr[0]), float(arr[-1]), float(arr[arr.size // 3]),
         float(arr[(2 * arr.size) // 3]))
        if arr.size
        else (0.0, 0.0, 0.0, 0.0)
    )
    key = (
        num_antennas,
        round(spacing_m, 12),
        round(wavelength_m, 12),
        arr.size,
        probes,
    )
    cached = _STEERING_CACHE.get(key)
    if cached is not None and cached.shape[1] == arr.size:
        return cached
    matrix = steering_matrix(arr, num_antennas, spacing_m, wavelength_m)
    matrix.setflags(write=False)
    if len(_STEERING_CACHE) >= _STEERING_CACHE_LIMIT:
        _STEERING_CACHE.clear()
    _STEERING_CACHE[key] = matrix
    return matrix


@dataclass(frozen=True)
class UniformLinearArray:
    """An ``M``-element uniform linear array placed in the monitoring plane.

    Parameters
    ----------
    reference:
        Position of element 1 (the phase reference).
    orientation:
        Direction of the array axis in radians; elements are laid out
        along this direction at multiples of ``spacing_m``.
    num_antennas:
        Element count ``M`` (the paper uses 8, and sweeps 4/6/8).
    spacing_m:
        Inter-element spacing ``d`` (half a wavelength by default).
    wavelength_m:
        Carrier wavelength used for steering computations.
    name:
        Label used in scene descriptions.
    """

    reference: Point
    orientation: float = 0.0
    num_antennas: int = DEFAULT_NUM_ANTENNAS
    spacing_m: float = DEFAULT_WAVELENGTH_M / 2.0
    wavelength_m: float = DEFAULT_WAVELENGTH_M
    name: str = field(default="array")

    def __post_init__(self) -> None:
        if self.num_antennas < 2:
            raise ConfigurationError("an AoA array needs at least two antennas")
        if self.spacing_m <= 0.0:
            raise ConfigurationError("element spacing must be positive")
        if self.wavelength_m <= 0.0:
            raise ConfigurationError("wavelength must be positive")

    @cached_property
    def axis(self) -> Point:
        """Unit vector along the array axis (computed once per array)."""
        return Point(math.cos(self.orientation), math.sin(self.orientation))

    def element_positions(self) -> List[Point]:
        """Positions of all ``M`` elements, element 1 first."""
        return [
            self.reference + self.axis * (m * self.spacing_m)
            for m in range(self.num_antennas)
        ]

    @cached_property
    def centroid(self) -> Point:
        """Geometric centre of the array (used as "the array position").

        Computed once per array: the localizers read it per reader per
        scoring call.
        """
        half_span = (self.num_antennas - 1) * self.spacing_m / 2.0
        return self.reference + self.axis * half_span

    def angle_to(self, point: Point) -> float:
        """AoA (in ``[0, pi]``) at which ``point`` is seen by this array.

        This is the angle between the array axis and the direction from
        the array centroid to ``point`` — the quantity the steering model
        calls ``theta``.
        """
        bearing = self.centroid.angle_to(point)
        return abs(wrap_to_pi(bearing - self.orientation))

    def steering_vector(self, theta: float) -> ComplexArray:
        """Steering vector for arrival angle ``theta`` (radians)."""
        return steering_vector(
            theta, self.num_antennas, self.spacing_m, self.wavelength_m
        )

    def steering_matrix(self, thetas: Sequence[float]) -> ComplexArray:
        """Steering matrix for a list of arrival angles."""
        return steering_matrix(
            thetas, self.num_antennas, self.spacing_m, self.wavelength_m
        )

    def with_antennas(self, num_antennas: int) -> "UniformLinearArray":
        """A copy of this array with a different element count."""
        return UniformLinearArray(
            reference=self.reference,
            orientation=self.orientation,
            num_antennas=num_antennas,
            spacing_m=self.spacing_m,
            wavelength_m=self.wavelength_m,
            name=self.name,
        )
