"""Bearing-only triangulation by weighted non-linear least squares.

The dense likelihood grid and consensus find the right mode; this
module polishes it.  Given the consistent blocked angles (one or more
per reader), the position minimizing the weighted squared angular
residuals is found with Gauss-Newton — a few iterations converge far
below the grid resolution, and the residual covariance doubles as an
uncertainty estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Mapping, Sequence, Tuple

import numpy as np

from repro.core.likelihood import Events
from repro.errors import EstimationError
from repro.geometry.point import Point
from repro.rf.array import UniformLinearArray
from repro.rfid.reader import Reader
from repro.utils.angles import wrap_to_pi


@dataclass(frozen=True)
class Bearing:
    """One angular observation from one array."""

    array: UniformLinearArray
    angle: float
    weight: float = 1.0


@dataclass(frozen=True)
class TriangulationResult:
    """A refined position with residual statistics."""

    position: Point
    rms_residual_rad: float
    iterations: int


def _jacobian_row(
    array: UniformLinearArray, position: Point
) -> Tuple[float, float]:
    """d theta / d(x, y) of the ULA angle at ``position``.

    theta = |wrap(atan2(dy, dx) - orientation)|; the derivative of the
    bearing is the standard (-dy, dx)/r^2 row, sign-flipped when the
    wrap folds the angle.
    """
    centroid = array.centroid
    dx = position.x - centroid.x
    dy = position.y - centroid.y
    r2 = dx * dx + dy * dy
    if r2 < 1e-12:
        raise EstimationError("cannot triangulate onto an array centroid")
    bearing = math.atan2(dy, dx)
    folded = wrap_to_pi(bearing - array.orientation)
    sign = 1.0 if folded >= 0 else -1.0
    return (-dy / r2 * sign, dx / r2 * sign)


def triangulate(
    bearings: Sequence[Bearing],
    initial: Point,
    max_iterations: int = 12,
    tolerance: float = 1e-6,
    damping: float = 1e-9,
) -> TriangulationResult:
    """Gauss-Newton refinement of a position from angular observations.

    Parameters
    ----------
    bearings:
        Angular observations (at least two, from non-collinear arrays).
    initial:
        Starting point — the grid/consensus estimate.
    damping:
        Levenberg-style diagonal loading for near-degenerate geometry.

    Raises
    ------
    EstimationError
        On fewer than two bearings or a degenerate normal matrix.
    """
    if len(bearings) < 2:
        raise EstimationError("triangulation needs at least two bearings")
    position = initial
    iterations = 0
    for iterations in range(1, max_iterations + 1):
        rows = []
        residuals = []
        weights = []
        for bearing in bearings:
            predicted = bearing.array.angle_to(position)
            residual = bearing.angle - predicted
            rows.append(_jacobian_row(bearing.array, position))
            residuals.append(residual)
            weights.append(max(bearing.weight, 1e-6))
        jacobian = np.asarray(rows)
        r = np.asarray(residuals)
        w = np.asarray(weights)
        jtw = jacobian.T * w
        normal = jtw @ jacobian + damping * np.eye(2)
        try:
            step = np.linalg.solve(normal, jtw @ r)
        except np.linalg.LinAlgError as exc:
            raise EstimationError("degenerate triangulation geometry") from exc
        position = Point(position.x + float(step[0]), position.y + float(step[1]))
        if float(np.hypot(*step)) < tolerance:
            break
    final_residuals = np.asarray(
        [
            bearing.angle - bearing.array.angle_to(position)
            for bearing in bearings
        ]
    )
    rms = float(np.sqrt(np.mean(final_residuals**2)))
    return TriangulationResult(
        position=position, rms_residual_rad=rms, iterations=iterations
    )


def bearings_from_evidence(
    events: Events,
    readers: Mapping[str, Reader],
    consistent: np.ndarray,
) -> List[Bearing]:
    """Bearings for the events consistent with an estimate.

    ``consistent`` is the estimate's row of :meth:`Events.within`, so a
    reader's wrong-angle events are excluded by the same rule the
    consensus scorer uses.  One bearing per consistent event, weighted
    by the event's stability-weighted drop.
    """
    return [
        Bearing(array=readers[events.names[column]].array, angle=angle, weight=weight)
        for column, angle, weight in zip(
            events.column[consistent].tolist(),
            events.angle[consistent].tolist(),
            events.weight[consistent].tolist(),
        )
    ]
