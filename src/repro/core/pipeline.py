"""The D-Watch facade: calibrate, baseline, localize (Section 4.4).

The four workflow steps map to four methods:

1. **Data collection** — the caller captures measurements (simulated
   via :class:`~repro.sim.measurement.MeasurementSession`, or rebuilt
   from LLRP reports in a physical deployment).
2. **Pre-processing** — :meth:`DWatch.calibrate` estimates each
   reader's phase offsets over the air; a once-per-power-cycle task.
3. **Target angle estimation** — :meth:`DWatch.collect_baseline` and
   the internal evidence computation compare P-MUSIC spectra.
4. **Target localization** — :meth:`DWatch.localize` runs the
   likelihood grid with outlier rejection, single- or multi-target.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional

if TYPE_CHECKING:
    from typing import Sequence


from repro import obs
from repro.calibration.offsets import PhaseOffsets
from repro.calibration.wireless import (
    WirelessCalibrator,
    observation_from_snapshots,
)
from repro.constants import ROOM_GRID_CELL_M
from repro.core.baseline import SpectrumSet, compute_spectra
from repro.core.detector import AngleEvidence, DropDetector
from repro.core.likelihood import LikelihoodMap, LocationEstimate
from repro.core.localizer import DWatchLocalizer
from repro.core.multitarget import MultiTargetLocalizer
from repro.errors import CalibrationError, LocalizationError
from repro.sim.measurement import Measurement, MeasurementConfig, MeasurementSession
from repro.sim.scene import Scene
from repro.utils.rng import RngLike, ensure_rng
from repro.utils.angles import deg2rad


def calibrate_readers(
    scene: Scene,
    num_snapshots: int = 60,
    snr_db: float = 25.0,
    tags_per_reader: int = 6,
    rng: RngLike = None,
) -> Dict[str, PhaseOffsets]:
    """Wireless phase calibration for every reader in a scene.

    Tag locations are used *here and only here* (the paper's footnote
    2): each reader takes its ``tags_per_reader`` nearest tags — the
    ones whose LoS dominates — computes their known direct-path angles,
    and solves Eq. 11 for its offset vector.
    """
    generator = ensure_rng(rng)
    with obs.span("pipeline.calibrate", readers=len(scene.readers)):
        session = MeasurementSession(
            scene,
            MeasurementConfig(num_snapshots=num_snapshots, snr_db=snr_db),
            rng=generator,
        )
        capture = session.capture()
        result: Dict[str, PhaseOffsets] = {}
        for reader in scene.readers:
            in_range = scene.tags_in_range(reader)
            if not in_range:
                raise CalibrationError(
                    f"reader {reader.name!r} hears no tags; cannot calibrate"
                )
            nearest = sorted(
                in_range,
                key=lambda tag: reader.array.centroid.distance_to(tag.position),
            )[:tags_per_reader]
            with obs.span(
                "calibration.reader", reader=reader.name, tags=len(nearest)
            ):
                observations = []
                for tag in nearest:
                    snapshots = capture.matrix(reader.name, tag.epc)
                    los_angle = reader.array.angle_to(tag.position)
                    observations.append(
                        observation_from_snapshots(snapshots, los_angle)
                    )
                calibrator = WirelessCalibrator(
                    spacing_m=reader.array.spacing_m,
                    wavelength_m=reader.array.wavelength_m,
                )
                result[reader.name] = calibrator.estimate(
                    observations, rng=generator
                )
    return result


@dataclass
class DWatch:
    """The end-to-end D-Watch system over one deployment scene.

    Parameters
    ----------
    scene:
        The deployment (room, readers, tags, reflectors).  Tag
        *positions* inside the scene are used only by
        :meth:`calibrate`; localization runs purely on spectra.
    cell_size:
        Likelihood grid cell (5 cm rooms / 2 cm table, per footnote 3).
    detector:
        Drop detector; defaults mirror the paper's setup.
    consistency_tolerance:
        Angular agreement (radians) between a blocked angle and a
        candidate position.  Defaults by deployment scale: 6 degrees in
        rooms, 3 degrees on sub-4 m deployments where the same angular
        slack would span tens of centimetres of the monitored area.
    """

    scene: Scene
    cell_size: float = ROOM_GRID_CELL_M
    detector: Optional[DropDetector] = None
    consistency_tolerance: Optional[float] = None

    def __post_init__(self) -> None:
        self.readers = {reader.name: reader for reader in self.scene.readers}
        self.detector = self.detector or DropDetector()
        self.likelihood_map = LikelihoodMap(
            room=self.scene.room, readers=self.readers, cell_size=self.cell_size
        )
        if self.consistency_tolerance is None:
            room = self.scene.room
            diagonal = math.hypot(room.width, room.height)
            self.consistency_tolerance = deg2rad(
                6.0 if diagonal > 4.0 else 3.0
            )
        self.localizer = DWatchLocalizer(
            likelihood_map=self.likelihood_map,
            consistency_tolerance=self.consistency_tolerance,
        )
        self.multi_localizer = MultiTargetLocalizer(
            localizer=self.localizer,
            explain_tolerance=self.consistency_tolerance + deg2rad(1.0),
        )
        self.calibration: Dict[str, PhaseOffsets] = {}
        self.baseline: Optional[List[SpectrumSet]] = None

    def calibrate(self, rng: RngLike = None, **kwargs) -> Dict[str, PhaseOffsets]:
        """Run wireless phase calibration and store the offsets."""
        self.calibration = calibrate_readers(self.scene, rng=rng, **kwargs)
        return self.calibration

    def set_calibration(self, calibration: Dict[str, PhaseOffsets]) -> None:
        """Install externally computed offsets (e.g. wired ground truth)."""
        self.calibration = dict(calibration)

    def collect_baseline(
        self, measurements: "Measurement | Sequence[Measurement]"
    ) -> List[SpectrumSet]:
        """Compute and store the empty-area baseline spectra (Step 1).

        Passing several consecutive empty-area captures (2-3 suffice and
        still "take a few seconds", per the paper) enables the peak
        stability screen: spectrally unstable baseline peaks are excluded
        from monitoring instead of raining false blocking events.

        Raises
        ------
        CalibrationError
            If called before calibration; uncalibrated spectra are
            systematically wrong and would poison every later fix.
        """
        self._require_calibration()
        if isinstance(measurements, Measurement):
            measurements = [measurements]
        if not measurements:
            raise LocalizationError("at least one baseline capture is required")
        with obs.span("pipeline.baseline", captures=len(measurements)):
            self.baseline = [
                compute_spectra(m, self.readers, self.calibration)
                for m in measurements
            ]
        return self.baseline

    def evidence(self, measurement: Measurement) -> List[AngleEvidence]:
        """Per-reader blocking evidence of an online capture (Step 3)."""
        if self.baseline is None:
            raise LocalizationError("collect_baseline() must run before localization")
        with obs.span("pipeline.evidence"):
            online = compute_spectra(measurement, self.readers, self.calibration)
            return self.evidence_from_spectra(online)

    def evidence_from_spectra(
        self, online: SpectrumSet, missing: str = "error"
    ) -> List[AngleEvidence]:
        """Blocking evidence from already-computed online spectra.

        The spectra-domain entry point of Step 3, for callers that do
        not hold raw snapshots — the streaming engine maintains
        incremental covariances and derives its spectra from those.
        ``missing`` is the absent-reader policy forwarded to
        :meth:`DropDetector.evidence`: the streaming engine passes
        ``"skip"`` so a reader outage degrades the fix instead of
        crashing the loop.
        """
        if self.baseline is None:
            raise LocalizationError("collect_baseline() must run before localization")
        return self.detector.evidence(self.baseline, online, missing=missing)

    def localize(
        self, measurement: Measurement, max_targets: int = 1
    ) -> List[LocationEstimate]:
        """Locate the target(s) present in an online capture (Step 4).

        Returns an empty list when nothing blocks any path (the target
        is absent or inside a global deadzone).
        """
        with obs.span("pipeline.localize", max_targets=max_targets) as sp:
            obs.count("pipeline.fixes")
            evidence = self.evidence(measurement)
            return self._finish_localize(evidence, max_targets, sp)

    def localize_from_evidence(
        self, evidence: List[AngleEvidence], max_targets: int = 1
    ) -> List[LocationEstimate]:
        """Step 4 alone, over externally computed evidence.

        Shares the grid search, outlier rejection and outcome
        accounting with :meth:`localize`; used by the streaming engine,
        whose evidence comes from :meth:`evidence_from_spectra`.
        """
        with obs.span("pipeline.localize", max_targets=max_targets) as sp:
            obs.count("pipeline.fixes")
            return self._finish_localize(evidence, max_targets, sp)

    def _finish_localize(
        self, evidence: List[AngleEvidence], max_targets: int, sp
    ) -> List[LocationEstimate]:
        if not any(item.has_detection for item in evidence):
            obs.count("pipeline.empty_fixes")
            sp.set(outcome="empty")
            return []
        try:
            if max_targets <= 1:
                estimates = [self.localizer.localize(evidence)]
            else:
                estimates = self.multi_localizer.localize(evidence, max_targets)
        except LocalizationError:
            # Too few readers saw the target: an uncovered location,
            # counted against the coverage rate rather than accuracy.
            obs.count("pipeline.uncovered_fixes")
            sp.set(outcome="uncovered")
            return []
        sp.set(outcome="ok", targets=len(estimates))
        return estimates

    def _require_calibration(self) -> None:
        if not self.calibration:
            raise CalibrationError(
                "readers are uncalibrated; run calibrate() or set_calibration()"
            )
