"""D-Watch's core: baseline spectra, drop detection, localization."""

from repro.core.baseline import SpectrumSet, compute_spectra
from repro.core.detector import AngleEvidence, BlockedPath, DropDetector
from repro.core.likelihood import LikelihoodMap, LocationEstimate
from repro.core.localizer import DWatchLocalizer
from repro.core.multitarget import MultiTargetLocalizer
from repro.core.tracker import KalmanTracker, TrackPoint
from repro.core.pipeline import DWatch, calibrate_readers

__all__ = [
    "SpectrumSet",
    "compute_spectra",
    "AngleEvidence",
    "BlockedPath",
    "DropDetector",
    "LikelihoodMap",
    "LocationEstimate",
    "DWatchLocalizer",
    "MultiTargetLocalizer",
    "KalmanTracker",
    "TrackPoint",
    "DWatch",
    "calibrate_readers",
]
