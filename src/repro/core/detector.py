"""Blocked-path detection by comparing P-MUSIC spectra.

For every baseline peak (one per propagation path) the detector reads
the online power at the same angle; a relative power drop beyond the
threshold means a target is shadowing that path.  Per reader, the
detected ``(angle, strength)`` events are folded into a smooth angular
evidence function ``delta Omega_i(theta)`` — the quantity the
likelihood combiner (Eq. 15) consumes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.core.baseline import SpectrumSet
from repro.dsp.peaks import find_spectrum_peaks
from repro.dsp.spectrum import AngularSpectrum, SpectrumPeak, default_angle_grid
from repro.errors import LocalizationError
from repro.utils.angles import deg2rad


#: Standard deviation (radians) of the Gaussian kernel that turns
#: discrete blocking events into a smooth evidence function; on the
#: order of the array's angular resolution.  One width for every
#: evidence build, so evidence rebuilt after outlier rejection or
#: multi-target splitting keeps the detector's kernels.
EVIDENCE_KERNEL_WIDTH = deg2rad(2.0)


@dataclass(frozen=True)
class BlockedPath:
    """One detected blocking event on one (reader, tag) pair.

    ``confidence`` reflects the spectral stability of the underlying
    baseline peak: 1.0 for a peak that held its power across every
    empty-area confirmation capture, linearly down to 0.0 for one that
    "dropped" on its own (an unresolved multi-path lobe whose apparent
    power wanders between captures).
    """

    reader_name: str
    epc: str
    angle: float
    relative_drop: float
    baseline_power: float
    online_power: float
    confidence: float = 1.0

    @property
    def weight(self) -> float:
        """Evidence weight: drop magnitude discounted by stability."""
        return self.relative_drop * self.confidence


@dataclass
class AngleEvidence:
    """Aggregated angular evidence of one reader.

    ``drop`` is the smooth ``delta Omega_i(theta)`` built from all of
    the reader's blocking events; ``events`` keeps the underlying
    detections for outlier analysis.
    """

    reader_name: str
    drop: AngularSpectrum
    events: List[BlockedPath] = field(default_factory=list)

    @property
    def has_detection(self) -> bool:
        """Whether this reader saw at least one blocked path."""
        return bool(self.events)


@dataclass(frozen=True)
class _ScreenedPeak:
    """One baseline peak that survived the static screening steps.

    ``lo``/``hi`` bound the grid slice within ``comparison_window`` of
    the peak (empty slice when no grid point falls inside), so the
    per-fix online read is a contiguous-slice max instead of a fresh
    boolean mask.
    """

    peak: SpectrumPeak
    confidence: float
    lo: int
    hi: int


@dataclass
class _PairScreen:
    """Cached screening result of one (reader, tag) baseline.

    Everything :meth:`DropDetector.detect_pair` derives from the
    *baseline* side — peak detection, endfire rejection, stability
    confidence, comparison-window bounds — is static until the baseline
    (or a confirmation capture) is replaced, which drift blending does
    by installing a **new** values array.  Validity is therefore checked
    by object identity of the spectra and their value arrays, plus the
    detector knobs that entered the screening.
    """

    baseline: AngularSpectrum
    baseline_values: np.ndarray
    confirmations: Tuple[Tuple[AngularSpectrum, np.ndarray], ...]
    params: Tuple[float, float, float, float]
    grid: np.ndarray
    screened: List[_ScreenedPeak]

    def matches(
        self,
        baseline: AngularSpectrum,
        confirmations: Sequence[AngularSpectrum],
        params: Tuple[float, float, float, float],
    ) -> bool:
        """Whether this cache entry still describes the given inputs."""
        if self.baseline is not baseline or self.baseline_values is not baseline.values:
            return False
        if self.params != params:
            return False
        if len(self.confirmations) != len(confirmations):
            return False
        return all(
            cached is spec and values is spec.values
            for (cached, values), spec in zip(self.confirmations, confirmations)
        )


@dataclass
class DropDetector:
    """Turns baseline/online spectrum sets into per-reader evidence.

    Parameters
    ----------
    relative_threshold:
        Minimum fractional power drop ``(P_base - P_online) / P_base``
        at a baseline peak to declare the path blocked.  With ~ -17 dB
        body shadowing, genuine blocks have drops near 0.98, so 0.5 is
        conservative but robust to noise.
    min_peak_relative_height:
        Baseline peaks weaker than this fraction of the tag's strongest
        peak are ignored (too noisy to judge a drop reliably).
    comparison_window:
        Half-width (radians) of the angular window around a baseline
        peak searched for the matching online peak.  P-MUSIC lobes are
        sharp, so finite-snapshot jitter moves peaks by a fraction of a
        degree between captures; comparing the baseline peak against
        the *windowed maximum* of the online spectrum measures the true
        per-path power change instead of that jitter.
    """

    relative_threshold: float = 0.5
    min_peak_relative_height: float = 0.12
    comparison_window: float = deg2rad(2.5)
    #: Peaks this close (radians) to endfire (0 or pi) are discarded: a
    #: ULA's resolution collapses at endfire (d theta / d cos theta
    #: diverges) and its spectra spike there spuriously.
    endfire_margin: float = deg2rad(4.0)

    _screen_cache: Dict[Tuple[str, str], _PairScreen] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def detect_pair(
        self,
        reader_name: str,
        epc: str,
        baseline: AngularSpectrum,
        online: AngularSpectrum,
        confirmations: Sequence[AngularSpectrum] = (),
    ) -> List[BlockedPath]:
        """Blocking events on one (reader, tag) pair.

        ``confirmations`` are additional *empty-area* captures of the
        same pair; a baseline peak that already "drops" in one of them
        is spectrally unstable (typically several unresolved paths
        merged into one wandering lobe) and is excluded from
        monitoring, killing its false-positive events.

        The baseline-side screening (peak detection, endfire rejection,
        stability confidence) is cached per pair — it is identical
        every fix until the baseline itself changes — so the per-fix
        work reduces to one windowed online read per monitored peak.
        """
        params = (
            self.relative_threshold,
            self.min_peak_relative_height,
            self.comparison_window,
            self.endfire_margin,
        )
        key = (reader_name, epc)
        screen = self._screen_cache.get(key)
        if screen is None or not screen.matches(baseline, confirmations, params):
            screen = self._build_screen(baseline, confirmations, params)
            self._screen_cache[key] = screen
        # The cached window bounds describe the baseline's angle axis;
        # the online spectrum shares it in every production path, but
        # fall back to the mask-based read when it does not.
        shared_axis = online.angles is screen.grid or np.array_equal(
            online.angles, screen.grid
        )
        events: List[BlockedPath] = []
        for item in screen.screened:
            peak = item.peak
            if shared_axis:
                if item.lo < item.hi:
                    online_power = float(online.values[item.lo : item.hi].max())
                else:
                    online_power = online.value_at(peak.angle)
            else:
                online_power = _windowed_max(
                    online, peak.angle, self.comparison_window
                )
            drop = (peak.value - online_power) / peak.value
            if drop >= self.relative_threshold:
                events.append(
                    BlockedPath(
                        reader_name=reader_name,
                        epc=epc,
                        angle=peak.angle,
                        relative_drop=float(drop),
                        baseline_power=float(peak.value),
                        online_power=float(online_power),
                        confidence=item.confidence,
                    )
                )
        return events

    def _build_screen(
        self,
        baseline: AngularSpectrum,
        confirmations: Sequence[AngularSpectrum],
        params: Tuple[float, float, float, float],
    ) -> _PairScreen:
        """Run the static screening steps once for a baseline spectrum."""
        screened: List[_ScreenedPeak] = []
        for peak in find_spectrum_peaks(
            baseline, min_relative_height=self.min_peak_relative_height
        ):
            if (
                peak.angle < self.endfire_margin
                or peak.angle > math.pi - self.endfire_margin
            ):
                continue
            if peak.value <= 0.0:
                continue
            confidence = self._peak_confidence(peak, confirmations)
            if confidence <= 0.0:
                continue
            # Bounds of the same boolean window max_in_window builds; the
            # angle axis is sorted, so the selection is one contiguous run.
            mask = np.abs(baseline.angles - peak.angle) <= self.comparison_window
            indices = np.nonzero(mask)[0]
            if indices.size:
                lo, hi = int(indices[0]), int(indices[-1]) + 1
            else:
                lo, hi = 0, 0
            screened.append(
                _ScreenedPeak(peak=peak, confidence=confidence, lo=lo, hi=hi)
            )
        return _PairScreen(
            baseline=baseline,
            baseline_values=baseline.values,
            confirmations=tuple((c, c.values) for c in confirmations),
            params=params,
            grid=baseline.angles,
            screened=screened,
        )

    def evidence(
        self,
        baseline: "SpectrumSet | Sequence[SpectrumSet]",
        online: SpectrumSet,
        missing: str = "error",
    ) -> List[AngleEvidence]:
        """Per-reader aggregated evidence.

        ``baseline`` may be a single spectrum set or several captured
        in succession; extra captures feed the peak-stability screen of
        :meth:`detect_pair`.

        ``missing`` picks the policy for a baseline reader absent from
        the online capture: ``"error"`` (default) raises
        :class:`~repro.errors.LocalizationError` — the batch contract,
        where a vanished reader means a broken capture — while
        ``"skip"`` contributes no evidence for it, which is how the
        streaming engine degrades gracefully through a reader outage.
        A skipped reader shrinks the Eq. 15 product to the surviving
        subset rather than zeroing or poisoning it.
        """
        if missing not in ("error", "skip"):
            raise LocalizationError(
                f"unknown missing-reader policy {missing!r}; "
                "pick 'error' or 'skip'"
            )
        baselines = (
            [baseline] if isinstance(baseline, SpectrumSet) else list(baseline)
        )
        if not baselines:
            raise LocalizationError("at least one baseline capture is required")
        reference = baselines[0]
        with obs.span("detector.evidence", readers=len(reference.readers())):
            result = self._evidence_per_reader(baselines, reference, online, missing)
        return result

    def _evidence_per_reader(
        self,
        baselines: "List[SpectrumSet]",
        reference: SpectrumSet,
        online: SpectrumSet,
        missing: str = "error",
    ) -> List[AngleEvidence]:
        result: List[AngleEvidence] = []
        for reader_name in reference.readers():
            if reader_name not in online.spectra:
                if missing == "skip":
                    obs.count("detector.missing_readers")
                    continue
                raise LocalizationError(
                    f"online capture is missing reader {reader_name!r}"
                )
            events: List[BlockedPath] = []
            grid: Optional[np.ndarray] = None
            for epc, base_spec in reference.spectra[reader_name].items():
                if epc not in online.spectra[reader_name]:
                    # Tag fell silent (deep shadowing can do that); treat
                    # every baseline peak of this tag as fully blocked.
                    obs.count("detector.silent_tags")
                    for peak in find_spectrum_peaks(
                        base_spec,
                        min_relative_height=self.min_peak_relative_height,
                    ):
                        if (
                            peak.angle < self.endfire_margin
                            or peak.angle > math.pi - self.endfire_margin
                        ):
                            continue
                        events.append(
                            BlockedPath(
                                reader_name=reader_name,
                                epc=epc,
                                angle=peak.angle,
                                relative_drop=1.0,
                                baseline_power=float(peak.value),
                                online_power=0.0,
                            )
                        )
                    continue
                online_spec = online.spectra[reader_name][epc]
                confirmations = [
                    extra.spectra[reader_name][epc]
                    for extra in baselines[1:]
                    if epc in extra.spectra.get(reader_name, {})
                ]
                events.extend(
                    self.detect_pair(
                        reader_name, epc, base_spec, online_spec, confirmations
                    )
                )
                grid = base_spec.angles
            if grid is None:
                grid = default_angle_grid()
            obs.count("detector.events", len(events))
            result.append(
                _evidence_from_events(reader_name, events, grid)
            )
        return result


    def _peak_confidence(
        self, peak, confirmations: Sequence[AngularSpectrum]
    ) -> float:
        """Stability confidence of a baseline peak in [0, 1].

        The peak's worst apparent drop across empty-area confirmation
        captures, scaled against the detection threshold: no drift
        yields 1.0; a self-inflicted drop at the detection threshold
        yields 0.0.
        """
        worst = 0.0
        for spectrum in confirmations:
            power = _windowed_max(spectrum, peak.angle, self.comparison_window)
            worst = max(worst, (peak.value - power) / peak.value)
        return max(0.0, 1.0 - worst / self.relative_threshold)


def _windowed_max(spectrum: AngularSpectrum, angle: float, window: float) -> float:
    """Maximum spectrum value within ``angle +/- window``."""
    return spectrum.max_in_window(angle, window)


def _evidence_from_events(
    reader_name: str,
    events: List[BlockedPath],
    grid: np.ndarray,
) -> AngleEvidence:
    """Fold events into a smooth evidence spectrum via Gaussian kernels.

    Each event contributes a kernel centred on its angle with amplitude
    equal to its stability-weighted drop; overlapping kernels take the
    pointwise maximum so several tags confirming the same angle do not
    inflate the evidence beyond 1.
    """
    values = np.zeros_like(np.asarray(grid, dtype=float))
    for event in events:
        kernel = event.weight * np.exp(
            -0.5 * ((grid - event.angle) / EVIDENCE_KERNEL_WIDTH) ** 2
        )
        values = np.maximum(values, kernel)
    return AngleEvidence(
        reader_name=reader_name,
        drop=AngularSpectrum(np.asarray(grid, dtype=float), values),
        events=list(events),
    )
