"""The typed events flowing through the streaming engine.

A :class:`TagRead` is the ingest-side atom: one complex baseband sample
of one tag heard by one reader during one TDM antenna slot.  It is the
streaming twin of :class:`repro.rfid.llrp.TagReportData`, stripped to
the fields the online pipeline consumes — the active antenna is not
carried but derived from the event time via the reader's
:class:`~repro.rfid.hub.TdmSchedule`, exactly as a server reconstructs
it from LLRP timestamps.

A :class:`TrackFix` is the output-side atom: the localization result of
one snapshot window, smoothed through the constant-velocity tracker.
Every field is deterministic — wall-clock latency lives only in the
observability layer, so streaming output stays byte-identical whether
or not tracing is enabled.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional, Tuple

from repro.core.likelihood import LocationEstimate
from repro.geometry.point import Point

if TYPE_CHECKING:  # avoid the provenance -> events import cycle
    from repro.stream.provenance import FixProvenance


@dataclass(frozen=True)
class TagRead:
    """One backscatter sample from the endless read stream.

    Attributes
    ----------
    reader_name:
        The reader that heard the tag.
    epc:
        The tag's EPC identifier.
    time_s:
        Event time in seconds since the stream epoch.  Sweep index and
        antenna slot are both derived from this via the reader's TDM
        schedule.
    iq:
        The complex baseband sample (carrying RSSI and phase).
    """

    reader_name: str
    epc: str
    time_s: float
    iq: complex


#: The degradation ladder, healthiest first.  ``full`` — every reader
#: contributed healthy evidence; ``degraded`` — quarantined or missing
#: readers forced the likelihood product onto a surviving subset;
#: ``insufficient`` — fewer detecting readers than the configured
#: minimum-evidence threshold, so no position was attempted.
QUALITY_LEVELS: Tuple[str, ...] = ("full", "degraded", "insufficient")


@dataclass(frozen=True)
class FixQuality:
    """How trustworthy one fix is, given the fleet's health.

    Attributes
    ----------
    level:
        One of :data:`QUALITY_LEVELS`.
    confidence:
        Scalar in ``[0, 1]``: the healthy-reader fraction scaled by the
        evidence strength (the geometric-mean likelihood of the best
        estimate; halved when the fix is prediction-only, zero when no
        position was produced).
    active_readers:
        Readers whose evidence actually entered the likelihood product.
    healthy_readers:
        Readers not quarantined when the window closed.
    total_readers:
        Deployment size the two counts are measured against.
    quarantined:
        Names of the readers excluded from this fix, sorted.
    """

    level: str = "full"
    confidence: float = 1.0
    active_readers: int = 0
    healthy_readers: int = 0
    total_readers: int = 0
    quarantined: Tuple[str, ...] = ()

    @property
    def degraded(self) -> bool:
        """Whether this fix ran on anything less than the full fleet."""
        return self.level != "full"


@dataclass(frozen=True)
class TrackFix:
    """The localization output of one snapshot window.

    Attributes
    ----------
    index:
        The window's sequence number (event-time order).
    time_s:
        The window's closing edge in event time.
    position:
        The tracker-smoothed position, or ``None`` while no target has
        been acquired yet.
    raw_estimates:
        The unsmoothed per-window estimates (empty when nothing blocked
        a monitored path — target absent or inside a deadzone).
    predicted_only:
        ``True`` when this fix is carried purely by the tracker's
        motion model through a deadzone window.
    sweeps:
        Complete snapshot columns that fed the window's spectra.
    reads:
        Raw tag reads the window consumed.
    quality:
        Health-aware trust stamp (see :class:`FixQuality`); defaults to
        a full-quality stamp so replays of healthy streams stay
        unchanged.
    provenance:
        Optional audit record of what produced this fix (contributing
        readers, active faults, checkpoint lineage; see
        :class:`repro.stream.provenance.FixProvenance`).  Metadata
        only: excluded from equality and repr so fixes compare by
        their observable output alone.
    """

    index: int
    time_s: float
    position: Optional[Point]
    raw_estimates: Tuple[LocationEstimate, ...] = ()
    predicted_only: bool = False
    sweeps: int = 0
    reads: int = 0
    quality: FixQuality = FixQuality()
    provenance: Optional["FixProvenance"] = field(
        default=None, compare=False, repr=False
    )

    @property
    def located(self) -> bool:
        """Whether this fix carries a usable position."""
        return self.position is not None
