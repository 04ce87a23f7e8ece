"""D-Watch's wireless phase calibration (Section 4.1).

The measured array signal is ``X = Gamma * A * S + n`` where ``Gamma``
is the unknown per-chain offset matrix.  The noise subspace ``U_N`` of
the *measured* covariance is orthogonal to ``Gamma * a(theta_LoS)``, so
for a tag whose LoS angle is known,

    || a(theta_LoS)^H Gamma^H U_N ||^2  ->  0

when the candidate offsets match the truth.  Summing the residual over
K tags (Eq. 10-11) and minimizing over the offset vector recovers
``Gamma`` — entirely over the air, during normal communication.

The objective is non-convex (each term is a product of complex
exponentials), so the solver follows the paper: a genetic algorithm
proposes candidates globally and gradient descent (L-BFGS-B here)
polishes the winner into its local minimum.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy import optimize

from repro import obs
from repro.calibration.ga import GeneticMinimizer
from repro.calibration.offsets import PhaseOffsets
from repro.dsp.batch import batched_eigendecompose, batched_estimate_num_sources
from repro.dsp.covariance import sample_covariance
from repro.errors import CalibrationError
from repro.rf.array import steering_vector
from repro.utils.rng import RngLike, ensure_rng


@dataclass(frozen=True)
class CalibrationObservation:
    """Everything calibration needs from one reference tag.

    Attributes
    ----------
    los_angle:
        The tag's known LoS arrival angle (radians).  Tag and antenna
        locations are known *for calibration only* (paper footnote 2).
    noise_subspace:
        ``U_N`` of the measured (offset-corrupted) covariance, shape
        ``(M, M - P)``.
    """

    los_angle: float
    noise_subspace: np.ndarray


def observation_from_snapshots(
    snapshots: np.ndarray,
    los_angle: float,
    num_sources: Optional[int] = None,
    source_threshold_ratio: float = 0.03,
) -> CalibrationObservation:
    """Build a calibration observation from raw measured snapshots.

    Spatial smoothing must NOT be applied here: smoothing mixes
    subarrays with different offset patterns and destroys the
    ``Gamma * a(theta)`` structure the calibration relies on.  With a
    single backscatter source the measured covariance is (near) rank-1,
    which leaves a rich ``M - 1`` dimensional noise subspace.
    """
    covariance = sample_covariance(snapshots)
    eigenvalues, eigenvectors = batched_eigendecompose(covariance[None])
    p = num_sources
    if p is None:
        p = int(
            batched_estimate_num_sources(
                eigenvalues, source_threshold_ratio, covariance.shape[0] - 1
            )[0]
        )
    return CalibrationObservation(
        los_angle=float(los_angle), noise_subspace=eigenvectors[0][:, p:]
    )


def subspace_cost(
    offsets: np.ndarray,
    observations: Sequence[CalibrationObservation],
    spacing_m: float,
    wavelength_m: float,
) -> float:
    """The Eq. 11 objective ``sum_k ||a_k^H Gamma^H U_N^(k)||^2``.

    ``offsets`` holds the ``M - 1`` unknown phases for antennas 2..M;
    antenna 1 is the zero reference.
    """
    if not observations:
        raise CalibrationError("at least one calibration observation required")
    m = observations[0].noise_subspace.shape[0]
    beta = np.concatenate(([0.0], np.asarray(offsets, dtype=float)))
    if beta.size != m:
        raise CalibrationError(
            f"expected {m - 1} unknown offsets, got {len(offsets)}"
        )
    gamma_h_diag = np.exp(-1j * beta)
    total = 0.0
    for obs in observations:
        a = steering_vector(obs.los_angle, m, spacing_m, wavelength_m)
        weighted = a.conj() * gamma_h_diag  # row vector a^H Gamma^H
        residual = weighted @ obs.noise_subspace
        total += float(np.sum(np.abs(residual) ** 2))
    return total


@dataclass
class WirelessCalibrator:
    """The GA + gradient-descent hybrid solver for Eq. 11.

    Parameters
    ----------
    spacing_m, wavelength_m:
        Array geometry.
    ga:
        Optional pre-configured :class:`GeneticMinimizer`; a sensible
        default covering ``[-pi, pi]`` per unknown is built lazily.
    restarts:
        Number of independent GA runs; the best polished result wins.
    """

    spacing_m: float
    wavelength_m: float
    ga: Optional[GeneticMinimizer] = None
    restarts: int = 2

    def estimate(
        self,
        observations: Sequence[CalibrationObservation],
        rng: RngLike = None,
    ) -> PhaseOffsets:
        """Estimate the offset vector from K tag observations.

        Raises
        ------
        CalibrationError
            If no observations are supplied or array sizes disagree.
        """
        if not observations:
            raise CalibrationError("cannot calibrate without observations")
        sizes = {obs.noise_subspace.shape[0] for obs in observations}
        if len(sizes) != 1:
            raise CalibrationError(f"inconsistent array sizes {sizes}")
        m = sizes.pop()
        generator = ensure_rng(rng)

        def objective(offsets: np.ndarray) -> float:
            return subspace_cost(
                offsets, observations, self.spacing_m, self.wavelength_m
            )

        ga = self.ga or GeneticMinimizer(bounds=[(-np.pi, np.pi)] * (m - 1))
        best_vector, best_cost = None, np.inf
        with obs.span(
            "calibration.solve", antennas=m, observations=len(observations)
        ) as sp:
            for restart in range(max(1, self.restarts)):
                with obs.span("calibration.ga", restart=restart) as ga_span:
                    ga_result = ga.minimize(objective, rng=generator)
                    ga_span.set(cost=ga_result.best_cost)
                with obs.span("calibration.polish", restart=restart):
                    polished = optimize.minimize(
                        objective,
                        ga_result.best,
                        method="L-BFGS-B",
                        bounds=[(-np.pi - 0.5, np.pi + 0.5)] * (m - 1),
                    )
                obs.count("calibration.restarts")
                if polished.fun < best_cost:
                    best_vector, best_cost = polished.x, float(polished.fun)
            obs.observe("calibration.residual", best_cost)
            sp.set(residual=best_cost)
        return PhaseOffsets.referenced(np.concatenate(([0.0], best_vector)))
