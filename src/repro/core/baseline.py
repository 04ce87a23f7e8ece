"""Per-(reader, tag) P-MUSIC spectra from raw measurements.

Step 1 and 3 of the paper's workflow (Section 4.4): compute a set of
AoA spectra from the baseline (empty-area) capture and from each online
capture, after removing the readers' phase offsets estimated during
calibration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.calibration.offsets import PhaseOffsets
from repro.dsp.batch import BatchPMusicConfig, batched_pmusic_spectra
from repro.dsp.spectrum import AngularSpectrum
from repro.errors import LocalizationError
from repro.rfid.reader import Reader
from repro.sim.measurement import Measurement


@dataclass
class SpectrumSet:
    """P-MUSIC spectra organised by reader then tag EPC."""

    spectra: Dict[str, Dict[str, AngularSpectrum]] = field(default_factory=dict)

    def readers(self) -> List[str]:
        """Reader names covered by this set."""
        return list(self.spectra)

    def for_pair(self, reader_name: str, epc: str) -> AngularSpectrum:
        """The spectrum of one (reader, tag) pair."""
        try:
            return self.spectra[reader_name][epc]
        except KeyError as exc:
            raise LocalizationError(
                f"no spectrum for reader {reader_name!r} / tag {epc!r}"
            ) from exc


def compute_spectra(
    measurement: Measurement,
    readers: Mapping[str, Reader],
    calibration: Optional[Mapping[str, PhaseOffsets]] = None,
) -> SpectrumSet:
    """P-MUSIC spectra for every (reader, tag) pair in a measurement.

    Parameters
    ----------
    measurement:
        The raw capture.
    readers:
        Reader objects by name (for array geometry).
    calibration:
        Estimated phase offsets by reader name; applied to the raw
        snapshots before spectral estimation.  Omitting calibration on
        offset-corrupted data produces garbage AoA — which is exactly
        what the no-calibration baseline of Fig. 10 shows.

    Pairs are grouped *across* readers by array geometry and snapshot
    shape (the usual deployment has one geometry fleet-wide), so the
    whole capture runs as one or two
    :func:`~repro.dsp.batch.batched_pmusic_spectra` calls.
    """
    corrected_all: Dict[str, Dict[str, np.ndarray]] = {}
    # (config, snapshot shape) -> (reader, epc) pairs, in reader-major
    # then tag order.
    groups: Dict[Tuple[BatchPMusicConfig, Tuple[int, ...]], List[Tuple[str, str]]] = {}
    for reader_name in measurement.readers():
        if reader_name not in readers:
            raise LocalizationError(f"unknown reader {reader_name!r} in measurement")
        array = readers[reader_name].array
        config = BatchPMusicConfig(
            spacing_m=array.spacing_m, wavelength_m=array.wavelength_m
        )
        offsets = calibration.get(reader_name) if calibration else None
        corrected: Dict[str, np.ndarray] = {}
        for epc in measurement.tags_for(reader_name):
            snapshots = measurement.matrix(reader_name, epc)
            if offsets is not None:
                snapshots = offsets.apply_correction(snapshots)
            corrected[epc] = np.asarray(snapshots)
            key = (config, corrected[epc].shape)
            groups.setdefault(key, []).append((reader_name, epc))
        corrected_all[reader_name] = corrected
    computed: Dict[Tuple[str, str], AngularSpectrum] = {}
    for (config, _), pairs in groups.items():
        stack = np.stack([corrected_all[name][epc] for name, epc in pairs])
        computed.update(zip(pairs, batched_pmusic_spectra(stack, config)))
    result = SpectrumSet()
    for reader_name, corrected in corrected_all.items():
        result.spectra[reader_name] = {
            epc: computed[(reader_name, epc)] for epc in corrected
        }
    return result
