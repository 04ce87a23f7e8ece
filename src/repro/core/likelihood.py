"""Likelihood-grid localization (Eq. 15) on one dense surface per fix.

For a candidate position ``O``, each reader contributes the evidence at
the angle under which it would see ``O``; the paper combines readers
multiplicatively: ``L(O) = prod_i delta Omega_i(theta_i(O))``.  The
monitoring area is evaluated on a dense grid (5 cm for rooms, 2 cm for
the table) once per evidence set.  Modes are peeled off that surface,
each steps to a local maximum of the grid, and a lattice at an eighth
of a cell around every mode is scored exactly in one vectorized
evaluation for sub-cell precision.  The paper hill-climbs from a coarse
scan because its full-grid evaluation is expensive; ours is not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.constants import ROOM_GRID_CELL_M
from repro.core.detector import AngleEvidence
from repro.errors import LocalizationError
from repro.geometry.point import Point
from repro.geometry.shapes import Rectangle
from repro.rfid.reader import Reader


#: An :meth:`LikelihoodMap.evaluate` result: ``(xs, ys, L)``.
Surface = Tuple[np.ndarray, np.ndarray, np.ndarray]


def _square(half: int, step: float) -> np.ndarray:
    """``(dx, dy)`` offsets of a square lattice, nearest first.

    ``(2 half + 1)^2`` points ``step`` apart; the centre comes first,
    so an ``argmax`` over the lattice resolves ties towards it.
    """
    span = range(-half, half + 1)
    offsets = [(dx * step, dy * step) for dy in span for dx in span]
    return np.array(sorted(offsets, key=lambda o: o[0] ** 2 + o[1] ** 2))


#: A grid cell's 3x3 neighbourhood, in cells.
_NEIGHBOURS = _square(1, 1)
#: The sub-cell refinement lattice, in cells: 9x9 points an eighth of a
#: cell apart, spanning one cell around its centre.
_LATTICE = _square(4, 1.0 / 8.0)


@dataclass(frozen=True)
class _InterpTable:
    """Precomputed ``np.interp`` geometry for one reader's grid angles.

    ``np.interp(theta, xp, fp)`` over the (static) grid angles does a
    per-cell binary search every fix.  Everything except the ``fp``
    gathers depends only on ``theta`` and the spectrum's angle axis
    ``xp`` — both fixed for the map's lifetime — so the bin indices,
    in-bin offsets and boundary masks are computed once; a fix reduces
    to two gathers and a fused multiply-add, bit-identical to
    ``np.interp`` (same slope expression, same boundary semantics).
    """

    xp: np.ndarray  #: the angle axis the table was built against
    j: np.ndarray  #: left bin index per cell, clipped to [0, G - 2]
    j1: np.ndarray  #: ``j + 1``, precomputed for the right-edge gather
    dx: np.ndarray  #: ``theta - xp[j]`` per cell
    dxp: np.ndarray  #: ``xp[j + 1] - xp[j]`` per cell
    lo: np.ndarray  #: indices of cells with ``theta < xp[0]``
    hi: np.ndarray  #: indices of cells with ``theta >= xp[-1]``


@dataclass(frozen=True)
class LocationEstimate:
    """A localization result with its supporting evidence."""

    position: Point
    likelihood: float
    per_reader_angles: Dict[str, float] = field(default_factory=dict)

    @property
    def num_readers(self) -> int:
        """How many readers' evidence entered the likelihood product."""
        return len(self.per_reader_angles)

    @property
    def normalized_likelihood(self) -> float:
        """The likelihood renormalized over its contributing readers.

        The geometric mean of the per-reader factors of Eq. 15:
        ``L(O) ** (1 / n)`` for ``n`` contributing readers.  The raw
        product shrinks with every extra factor, so fixes computed over
        different surviving subsets (a quarantined reader, a deadzone)
        are not comparable; the geometric mean is, which is what the
        streaming engine's confidence stamp uses.
        """
        if not self.per_reader_angles:
            return 0.0
        return float(self.likelihood ** (1.0 / len(self.per_reader_angles)))


@dataclass
class LikelihoodMap:
    """Grid evaluation of the Eq. 15 likelihood over a room.

    Parameters
    ----------
    room:
        The monitoring-area footprint to scan.
    readers:
        Reader objects by name; their arrays define ``theta_i(O)``.
    cell_size:
        Grid cell edge (metres).
    floor:
        Small evidence floor ``epsilon`` added to every factor so a
        reader that saw nothing (deadzone for that vantage point) does
        not zero out the whole product; it merely contributes no
        discrimination.
    """

    room: Rectangle
    readers: Mapping[str, Reader]
    cell_size: float = ROOM_GRID_CELL_M
    floor: float = 0.02

    def __post_init__(self) -> None:
        if self.cell_size <= 0.0:
            raise LocalizationError("grid cell size must be positive")
        if not self.readers:
            raise LocalizationError("likelihood map needs at least one reader")
        # The grid and each reader's angle-to-cell map are static for
        # the map's lifetime; caching them keeps the per-fix cost at
        # "one interp per active reader" instead of recomputing
        # trigonometry over tens of thousands of cells.
        self._grid_cache: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self._angle_cache: Dict[str, np.ndarray] = {}
        self._interp_cache: Dict[str, _InterpTable] = {}

    def grid_points(self) -> Tuple[np.ndarray, np.ndarray]:
        """The ``(xs, ys)`` axes of the evaluation grid."""
        if self._grid_cache is None:
            xs = np.arange(
                self.room.min_x, self.room.max_x + 1e-9, self.cell_size
            )
            ys = np.arange(
                self.room.min_y, self.room.max_y + 1e-9, self.cell_size
            )
            self._grid_cache = (xs, ys)
        return self._grid_cache

    def _angles_for(self, reader_name: str) -> np.ndarray:
        """Cached ``theta_i(O)`` over the whole grid for one reader."""
        if reader_name not in self._angle_cache:
            xs, ys = self.grid_points()
            grid_x, grid_y = np.meshgrid(xs, ys)
            self._angle_cache[reader_name] = _angles_to_grid(
                self._reader_for(reader_name), grid_x, grid_y
            )
        return self._angle_cache[reader_name]

    def _table_for(self, reader_name: str, xp: np.ndarray) -> _InterpTable:
        """Cached interpolation table of one reader against axis ``xp``.

        Keyed on the axis *content*: drop spectra are rebuilt every fix
        but always sample the same angle grid, so the table survives;
        an axis change (different grid in a test) rebuilds it.
        """
        entry = self._interp_cache.get(reader_name)
        if entry is not None and np.array_equal(entry.xp, xp):
            return entry
        theta = self._angles_for(reader_name).ravel()
        axis = xp.copy()
        j = np.clip(
            np.searchsorted(axis, theta, side="right") - 1, 0, axis.size - 2
        )
        entry = _InterpTable(
            xp=axis,
            j=j,
            j1=j + 1,
            dx=theta - axis[j],
            dxp=axis[j + 1] - axis[j],
            # Index arrays, not boolean masks: the boundary cells are a
            # handful, and flat-index assignment skips the full-grid
            # mask scan every fix would otherwise pay.
            lo=np.flatnonzero(theta < axis[0]),
            hi=np.flatnonzero(theta >= axis[-1]),
        )
        self._interp_cache[reader_name] = entry
        return entry

    def evaluate(self, evidence: Sequence[AngleEvidence]) -> Surface:
        """Likelihood over the grid: ``(xs, ys, L)`` with L shaped (len(ys), len(xs)).

        Readers without any detection are skipped entirely — they carry
        no angle information, and multiplying their flat floor in would
        only rescale the surface.
        """
        active = [e for e in evidence if e.has_detection]
        xs, ys = self.grid_points()
        likelihood = np.ones((ys.size, xs.size), dtype=float)
        if not active:
            return xs, ys, np.zeros_like(likelihood)
        with obs.span(
            "grid.evaluate", cells=int(likelihood.size), readers=len(active)
        ):
            for item in active:
                theta = self._angles_for(item.reader_name)
                # Precomputed-table equivalent of
                # np.interp(theta.ravel(), item.drop.angles, item.drop.values):
                # same slope expression and boundary semantics, so the
                # factors are bit-identical while the per-fix work drops
                # to two gathers and a fused multiply-add.
                table = self._table_for(item.reader_name, item.drop.angles)
                fp = item.drop.values
                left = fp[table.j]
                factor = (fp[table.j1] - left) / table.dxp * table.dx + left
                factor[table.hi] = fp[-1]
                factor[table.lo] = fp[0]
                # In-place floor add: same values as `floor + factor`,
                # one fewer full-grid temporary.
                factor += self.floor
                likelihood *= factor.reshape(theta.shape)
            obs.count("grid.cells_evaluated", likelihood.size * len(active))
        return xs, ys, likelihood

    def best_estimate(self, evidence: Sequence[AngleEvidence]) -> LocationEstimate:
        """The maximum-likelihood position, refined below the grid cell.

        Raises
        ------
        LocalizationError
            If no reader produced any detection (target in a global
            deadzone or no target present).
        """
        if not any(e.has_detection for e in evidence):
            raise LocalizationError("no blocking evidence: nothing to localize")
        with obs.span("grid.search"):
            return self.peel_modes(self.evaluate(evidence), evidence, max_modes=1)[0]

    def top_modes(
        self,
        evidence: Sequence[AngleEvidence],
        max_modes: int = 5,
        min_separation: float = 0.5,
    ) -> List[LocationEstimate]:
        """The strongest local maxima of the likelihood surface.

        :meth:`peel_modes` on a fresh :meth:`evaluate` surface; callers
        that need the surface again (for :meth:`refine`) evaluate it
        themselves and call :meth:`peel_modes`.
        """
        return self.peel_modes(
            self.evaluate(evidence), evidence, max_modes, min_separation
        )

    def peel_modes(
        self,
        surface: Surface,
        evidence: Sequence[AngleEvidence],
        max_modes: int = 5,
        min_separation: float = 0.5,
    ) -> List[LocationEstimate]:
        """Greedy modes of an :meth:`evaluate` surface, refined.

        Up to ``max_modes`` times, the highest remaining cell is taken
        and every cell within ``min_separation`` of it is zeroed; the
        taken cells are then refined together (:meth:`refine`).
        """
        xs, ys, likelihood = surface
        working = likelihood.copy()
        threshold = min_separation**2
        # Suppression only reaches min_separation, so the distance test
        # runs on the cell's bounding-box window, not the whole grid.
        reach = int(min_separation / self.cell_size) + 1
        cells: List[Point] = []
        with obs.span("grid.modes", max_modes=max_modes):
            for _ in range(max_modes):
                iy, ix = np.unravel_index(int(np.argmax(working)), working.shape)
                if working[iy, ix] <= 0.0:
                    break
                x, y = float(xs[ix]), float(ys[iy])
                cells.append(Point(x, y))
                iy0, ix0 = max(iy - reach, 0), max(ix - reach, 0)
                window = working[iy0 : iy + reach + 1, ix0 : ix + reach + 1]
                rows, cols = window.shape
                suppress = (xs[ix0 : ix0 + cols] - x) ** 2 + (
                    ys[iy0 : iy0 + rows, None] - y
                ) ** 2 < threshold
                window[suppress] = 0.0
            return self.refine(surface, evidence, cells)

    def refine(
        self,
        surface: Surface,
        evidence: Sequence[AngleEvidence],
        positions: Sequence[Point],
    ) -> List[LocationEstimate]:
        """Sub-cell likelihood maxima near each of ``positions``.

        Each position snaps to its nearest grid node, then steps to the
        best of its 3x3 neighbours on the surface until its node is a
        local maximum.  A 9x9 lattice at an eighth of a cell, spanning
        the node's cell, is laid around every node and scored exactly
        in one evaluation; each position becomes its lattice's best
        point (ties go to the point nearest the node).
        """
        if not positions:
            return []
        xs, ys, likelihood = surface
        cell = self.cell_size
        ix = np.rint((np.array([p.x for p in positions]) - xs[0]) / cell)
        iy = np.rint((np.array([p.y for p in positions]) - ys[0]) / cell)
        ix = np.clip(ix.astype(int), 0, xs.size - 1)
        iy = np.clip(iy.astype(int), 0, ys.size - 1)
        modes = np.arange(len(positions))
        while True:
            cols = np.clip(ix[:, None] + _NEIGHBOURS[:, 0], 0, xs.size - 1)
            rows = np.clip(iy[:, None] + _NEIGHBOURS[:, 1], 0, ys.size - 1)
            best = likelihood[rows, cols].argmax(axis=1)
            if not best.any():  # every node is its neighbourhood's max
                break
            ix, iy = cols[modes, best], rows[modes, best]
        room = self.room
        px = np.clip(xs[ix, None] + _LATTICE[:, 0] * cell, room.min_x, room.max_x)
        py = np.clip(ys[iy, None] + _LATTICE[:, 1] * cell, room.min_y, room.max_y)
        active = [e for e in evidence if e.has_detection]
        values = self._likelihood_points(px, py, active)
        best = values.argmax(axis=1)
        return [
            self._estimate(
                Point(float(px[k, b]), float(py[k, b])), float(values[k, b]), active
            )
            for k, b in enumerate(best)
        ]

    def crossing_candidates(
        self,
        evidence: Sequence[AngleEvidence],
        modes: Sequence[LocationEstimate],
        radius: float,
    ) -> List[LocationEstimate]:
        """Scored :meth:`ray_intersections` that the modes do not cover.

        A crossing within ``radius`` of a mode or of an earlier kept
        crossing is skipped; the rest are scored in one exact
        evaluation.  Used by the consensus localizers to make sure the
        true triangulated position is a candidate even when ghost modes
        dominate the surface.
        """
        covered = [mode.position for mode in modes]
        fresh: List[Point] = []
        for crossing in self.ray_intersections(evidence):
            if any(crossing.distance_to(p) < radius for p in covered):
                continue
            covered.append(crossing)
            fresh.append(crossing)
        return self._score(fresh, [e for e in evidence if e.has_detection])

    def estimate_at(
        self, position: Point, evidence: Sequence[AngleEvidence]
    ) -> LocationEstimate:
        """Build a :class:`LocationEstimate` for an explicit candidate.

        Scores a position that does not come from the grid (e.g. a
        triangulated fix) exactly, without moving it.
        """
        return self._score([position], [e for e in evidence if e.has_detection])[0]

    def _score(
        self, points: Sequence[Point], active: Sequence[AngleEvidence]
    ) -> List[LocationEstimate]:
        values = self._likelihood_points(
            np.array([p.x for p in points]), np.array([p.y for p in points]), active
        )
        return [
            self._estimate(point, float(value), active)
            for point, value in zip(points, values)
        ]

    def _estimate(
        self, position: Point, value: float, active: Sequence[AngleEvidence]
    ) -> LocationEstimate:
        angles = {
            item.reader_name: self._reader_for(item.reader_name).array.angle_to(
                position
            )
            for item in active
        }
        return LocationEstimate(
            position=position, likelihood=value, per_reader_angles=angles
        )

    #: Bearing quantum (radians) for ray deduplication.  Far below the
    #: 0.5-degree spectrum grid that blocked angles snap to, so only
    #: genuinely identical rays merge — several tags confirming the
    #: same blocked path produce events at the *same* grid angle, and
    #: each duplicate ray used to re-cross every other ray in the O(n^2)
    #: loop without ever adding a new candidate (identical crossings are
    #: discarded by the consensus coverage check anyway).
    _RAY_BEARING_QUANTUM = 1e-6

    #: Upper bound on rays entering the pairwise crossing loop; beyond
    #: this the O(n^2) cost outweighs any candidate a further (mostly
    #: redundant) ray could contribute.
    _MAX_RAYS = 64

    def ray_intersections(
        self, evidence: Sequence[AngleEvidence], min_range: float = 0.3
    ) -> List[Point]:
        """In-room intersections of blocked-angle rays across readers.

        Every pair of events from two different readers defines (up to
        four) ray crossings — a ULA angle maps to two mirror bearings
        about the array axis, and only crossings inside the room at a
        sensible range survive.  These are exactly the triangulation
        candidates of the paper's Section 4.3, and they guarantee the
        true position enters the consensus scoring even when ghost
        modes dominate the likelihood surface.

        Rays are deduplicated by (reader, quantized bearing) and capped
        at ``_MAX_RAYS`` before the pairwise loop; see the class
        attributes for why neither changes the candidate set.
        """
        rays: List[Tuple[str, Point, Point]] = []  # (reader, origin, direction)
        seen: set = set()
        for item in evidence:
            if not item.has_detection:
                continue
            reader = self._reader_for(item.reader_name)
            origin = reader.array.centroid
            for event in item.events:
                for sign in (1.0, -1.0):
                    bearing = reader.array.orientation + sign * event.angle
                    key = (
                        item.reader_name,
                        round(bearing / self._RAY_BEARING_QUANTUM),
                    )
                    if key in seen:
                        continue
                    seen.add(key)
                    direction = Point(math.cos(bearing), math.sin(bearing))
                    probe = origin + direction * min_range
                    if self.room.contains(probe):
                        rays.append((item.reader_name, origin, direction))
        if len(rays) > self._MAX_RAYS:
            obs.count("grid.rays_capped", len(rays) - self._MAX_RAYS)
            rays = rays[: self._MAX_RAYS]
        intersections: List[Point] = []
        for i, (name_a, origin_a, dir_a) in enumerate(rays):
            for name_b, origin_b, dir_b in rays[i + 1 :]:
                if name_a == name_b:
                    continue
                crossing = _ray_crossing(
                    origin_a, dir_a, origin_b, dir_b, min_range
                )
                if crossing is not None and self.room.contains(crossing):
                    intersections.append(crossing)
        return intersections

    def likelihood_at(
        self, position: Point, evidence: Sequence[AngleEvidence]
    ) -> float:
        """Point evaluation of the Eq. 15 product.

        Exactly equal to :meth:`evaluate`'s cell when ``position`` is a
        grid node.
        """
        active = [e for e in evidence if e.has_detection]
        value = self._likelihood_points(
            np.array([position.x]), np.array([position.y]), active
        )
        return float(value[0])

    def _likelihood_points(
        self, px: np.ndarray, py: np.ndarray, active: Sequence[AngleEvidence]
    ) -> np.ndarray:
        """Eq. 15 at arbitrary points: ``np.interp`` on each drop spectrum.

        The same angle expression, interpolation and factor order as
        :meth:`evaluate` (whose interpolation table reproduces
        ``np.interp`` bit for bit), so a grid node scores exactly its
        cell; like :meth:`evaluate`, no detecting reader means zero.
        """
        if not active:
            return np.zeros(px.shape)
        value = np.ones(px.shape)
        for item in active:
            theta = _angles_to_grid(self._reader_for(item.reader_name), px, py)
            value *= np.interp(theta, item.drop.angles, item.drop.values) + self.floor
        return value

    def _reader_for(self, name: str) -> Reader:
        try:
            return self.readers[name]
        except KeyError as exc:
            raise LocalizationError(f"evidence references unknown reader {name!r}") from exc


def _ray_crossing(
    origin_a: Point,
    dir_a: Point,
    origin_b: Point,
    dir_b: Point,
    min_range: float,
) -> Optional[Point]:
    """Intersection of two forward rays, or ``None``.

    Crossings closer than ``min_range`` to either origin are rejected:
    they correspond to near-degenerate geometry where a small angle
    error moves the fix by metres.
    """
    denom = dir_a.cross(dir_b)
    if abs(denom) < 1e-9:
        return None
    delta = origin_b - origin_a
    t = delta.cross(dir_b) / denom
    s = delta.cross(dir_a) / denom
    if t < min_range or s < min_range:
        return None
    return origin_a + dir_a * t


def _angles_to_grid(reader: Reader, grid_x: np.ndarray, grid_y: np.ndarray) -> np.ndarray:
    """Vectorized ``theta_i(O)`` for every grid point."""
    centroid = reader.array.centroid
    bearing = np.arctan2(grid_y - centroid.y, grid_x - centroid.x)
    relative = bearing - reader.array.orientation
    wrapped = np.mod(relative + math.pi, 2.0 * math.pi) - math.pi
    return np.abs(wrapped)
