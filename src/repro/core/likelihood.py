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


@dataclass(frozen=True)
class Events:
    """The events of an evidence set, flattened once, in evidence order.

    ``names`` are the readers of the detecting evidence items, and
    ``column[e]`` is the item event ``e`` belongs to: its column in a
    :class:`Candidates` angle matrix.
    """

    names: Tuple[str, ...]
    column: np.ndarray
    angle: np.ndarray
    weight: np.ndarray
    drop: np.ndarray
    confidence: np.ndarray

    @classmethod
    def of(cls, evidence: Sequence[AngleEvidence]) -> "Events":
        active = _detecting(evidence)
        table = np.array(
            [
                (column, e.angle, e.weight, e.relative_drop, e.confidence)
                for column, item in enumerate(active)
                for e in item.events
            ],
            dtype=float,
        ).reshape(-1, 5)
        return cls(
            tuple(item.reader_name for item in active),
            table[:, 0].astype(int),
            *np.ascontiguousarray(table[:, 1:].T),
        )

    def spans(self) -> List[slice]:
        """Each detecting item's events, as slices of the flat arrays."""
        bounds = np.searchsorted(self.column, np.arange(len(self.names) + 1))
        return [slice(a, b) for a, b in zip(bounds.tolist(), bounds[1:].tolist())]

    def within(self, angles: np.ndarray, tolerance: float) -> np.ndarray:
        """``(K, E)``: which events agree with which candidates.

        Event ``e`` agrees with candidate ``k`` when its angle is within
        ``tolerance`` of ``angles[k, column[e]]``, the angle at which its
        reader sees the candidate.  This is the consistency rule of the
        paper's Sections 4.3 and 6.7; consensus support, outlier
        rejection, multi-target explanation and the triangulation
        bearings are all reductions or rows of this matrix.
        """
        return np.abs(self.angle - angles[:, self.column]) <= tolerance


@dataclass(frozen=True)
class Candidates:
    """Candidate positions scored against one evidence set, as arrays.

    ``positions`` is ``(K, 2)``, ``likelihood`` the exact Eq. 15 value
    ``(K,)``, and ``angles`` ``(K, R)``: the angle at which the reader of
    each detecting evidence item (``readers``, in evidence order) sees
    each position.
    """

    positions: np.ndarray
    likelihood: np.ndarray
    angles: np.ndarray
    readers: Tuple[str, ...]

    def __len__(self) -> int:
        return len(self.likelihood)

    def __getitem__(self, rows: np.ndarray) -> "Candidates":
        """The candidates at ``rows``: an index array or a boolean mask."""
        return Candidates(
            self.positions[rows], self.likelihood[rows], self.angles[rows], self.readers
        )

    def __add__(self, other: "Candidates") -> "Candidates":
        return Candidates(
            np.concatenate([self.positions, other.positions]),
            np.concatenate([self.likelihood, other.likelihood]),
            np.concatenate([self.angles, other.angles]),
            self.readers,
        )

    def estimates(self) -> List[LocationEstimate]:
        """One :class:`LocationEstimate` per candidate."""
        return [
            LocationEstimate(Point(x, y), value, dict(zip(self.readers, angles)))
            for (x, y), value, angles in zip(
                self.positions.tolist(),
                self.likelihood.tolist(),
                self.angles.tolist(),
            )
        ]


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
        active = _detecting(evidence)
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
            modes = self.peel_modes(self.evaluate(evidence), evidence, max_modes=1)
            return modes.estimates()[0]

    def peel_modes(
        self,
        surface: Surface,
        evidence: Sequence[AngleEvidence],
        max_modes: int = 5,
        min_separation: float = 0.5,
    ) -> Candidates:
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
        cells: List[Tuple[float, float]] = []
        with obs.span("grid.modes", max_modes=max_modes):
            for _ in range(max_modes):
                iy, ix = np.unravel_index(int(np.argmax(working)), working.shape)
                if working[iy, ix] <= 0.0:
                    break
                x, y = float(xs[ix]), float(ys[iy])
                cells.append((x, y))
                iy0, ix0 = max(iy - reach, 0), max(ix - reach, 0)
                window = working[iy0 : iy + reach + 1, ix0 : ix + reach + 1]
                rows, cols = window.shape
                suppress = (xs[ix0 : ix0 + cols] - x) ** 2 + (
                    ys[iy0 : iy0 + rows, None] - y
                ) ** 2 < threshold
                window[suppress] = 0.0
            return self.refine(surface, evidence, np.array(cells).reshape(-1, 2))

    def refine(
        self,
        surface: Surface,
        evidence: Sequence[AngleEvidence],
        positions: np.ndarray,
    ) -> Candidates:
        """Sub-cell likelihood maxima near each of ``positions`` (``(K, 2)``).

        Each position snaps to its nearest grid node, then steps to the
        best of its 3x3 neighbours on the surface until its node is a
        local maximum.  A 9x9 lattice at an eighth of a cell, spanning
        the node's cell, is laid around every node and scored exactly
        in one evaluation; each position becomes its lattice's best
        point (ties go to the point nearest the node).
        """
        xs, ys, likelihood = surface
        cell = self.cell_size
        ix = np.clip(np.rint((positions[:, 0] - xs[0]) / cell).astype(int), 0, xs.size - 1)
        iy = np.clip(np.rint((positions[:, 1] - ys[0]) / cell).astype(int), 0, ys.size - 1)
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
        best = self._scored(px, py, _detecting(evidence))[1].argmax(axis=1)
        return self.score(np.stack([px[modes, best], py[modes, best]], axis=1), evidence)

    def crossing_candidates(
        self,
        evidence: Sequence[AngleEvidence],
        modes: Candidates,
        radius: float,
    ) -> Candidates:
        """Scored :meth:`ray_intersections` that the modes do not cover.

        Greedily, in crossing order, a crossing within ``radius`` of a
        mode or of an earlier kept crossing is skipped; each kept one
        closes its neighbourhood in one distance row.  Used by the
        consensus localizers to make sure the true triangulated position
        is a candidate even when ghost modes dominate the surface.
        """
        crossings = self.ray_intersections(evidence)
        x, y = crossings[:, 0], crossings[:, 1]
        near = np.hypot(
            x[:, None] - modes.positions[:, 0], y[:, None] - modes.positions[:, 1]
        ) < radius
        open_ = ~near.any(axis=1)
        kept: List[int] = []
        while open_.any():
            first = int(np.argmax(open_))
            kept.append(first)
            open_ &= np.hypot(x - x[first], y - y[first]) >= radius
            open_[first] = False
        return self.score(crossings[kept], evidence)

    def score(
        self, positions: np.ndarray, evidence: Sequence[AngleEvidence]
    ) -> Candidates:
        """Exact :class:`Candidates` at ``positions`` (``(K, 2)``), unmoved."""
        active = _detecting(evidence)
        angles, values = self._scored(positions[:, 0], positions[:, 1], active)
        return Candidates(
            positions, values, angles, tuple(item.reader_name for item in active)
        )

    def estimate_at(
        self, position: Point, evidence: Sequence[AngleEvidence]
    ) -> LocationEstimate:
        """Build a :class:`LocationEstimate` for an explicit candidate.

        Scores a position that does not come from the grid (e.g. a
        triangulated fix) exactly, without moving it.
        """
        return self.score(np.array([[position.x, position.y]]), evidence).estimates()[0]

    #: Bearing quantum (radians) for ray deduplication.  Far below the
    #: 0.5-degree spectrum grid that blocked angles snap to, so only
    #: genuinely identical rays merge — several tags confirming the
    #: same blocked path produce events at the *same* grid angle, and
    #: each duplicate ray would re-cross every other ray without ever
    #: adding a new candidate (identical crossings are discarded by the
    #: consensus coverage check anyway).
    _RAY_BEARING_QUANTUM = 1e-6

    #: Upper bound on rays entering the pairwise crossing; beyond this
    #: the O(n^2) cost outweighs any candidate a further (mostly
    #: redundant) ray could contribute.
    _MAX_RAYS = 64

    def ray_intersections(
        self, evidence: Sequence[AngleEvidence], min_range: float = 0.3
    ) -> np.ndarray:
        """In-room intersections of blocked-angle rays across readers, ``(N, 2)``.

        Every pair of events from two different readers defines (up to
        four) ray crossings — a ULA angle maps to two mirror bearings
        about the array axis, and only crossings inside the room at a
        sensible range survive.  These are exactly the triangulation
        candidates of the paper's Section 4.3, and they guarantee the
        true position enters the consensus scoring even when ghost
        modes dominate the likelihood surface.

        Rays are deduplicated by (reader, quantized bearing), then those
        whose first ``min_range`` leaves the room are dropped, then the
        list is capped at ``_MAX_RAYS``; see the class attributes for
        why neither changes the candidate set.  All ray pairs are then
        intersected in one vectorized step, in nested-loop order.
        """
        events = Events.of(evidence)
        arrays = [self._reader_for(name).array for name in events.names]
        # Both mirror bearings of every event, in event order.  A ray's
        # reader is the first evidence item of its name: two items may
        # share a reader, and a reader's rays never cross each other.
        ray = np.repeat(events.column, 2)
        reader = np.array([events.names.index(name) for name in events.names], dtype=int)[ray]
        origin = np.array([tuple(array.centroid) for array in arrays]).reshape(-1, 2)[ray]
        orientation = np.array([array.orientation for array in arrays])[events.column]
        bearing = (orientation[:, None] + np.array([1.0, -1.0]) * events.angle[:, None]).ravel()
        quantized = np.rint(bearing / self._RAY_BEARING_QUANTUM).tolist()
        first: Dict[Tuple[int, float], int] = {}
        for index, key in enumerate(zip(reader.tolist(), quantized)):
            first.setdefault(key, index)
        fresh = np.zeros(ray.size, dtype=bool)
        fresh[list(first.values())] = True
        direction = np.stack([np.cos(bearing), np.sin(bearing)], axis=1)
        rays = np.flatnonzero(fresh & _inside(self.room, origin + direction * min_range))
        if rays.size > self._MAX_RAYS:
            obs.count("grid.rays_capped", rays.size - self._MAX_RAYS)
            rays = rays[: self._MAX_RAYS]
        a, b = (rays[index] for index in np.triu_indices(rays.size, 1))
        across = reader[a] != reader[b]
        a, b = a[across], b[across]
        denom = _cross(direction[a], direction[b])
        proper = np.abs(denom) >= 1e-9  # near-parallel rays cross nowhere useful
        a, b, denom = a[proper], b[proper], denom[proper]
        delta = origin[b] - origin[a]
        t = _cross(delta, direction[b]) / denom
        s = _cross(delta, direction[a]) / denom
        crossing = origin[a] + direction[a] * t[:, None]
        # Crossings closer than min_range to either origin are rejected:
        # near-degenerate geometry, where a small angle error moves the
        # fix by metres.
        return crossing[(t >= min_range) & (s >= min_range) & _inside(self.room, crossing)]

    def likelihood_at(
        self, position: Point, evidence: Sequence[AngleEvidence]
    ) -> float:
        """Point evaluation of the Eq. 15 product.

        Exactly equal to :meth:`evaluate`'s cell when ``position`` is a
        grid node.
        """
        return self.estimate_at(position, evidence).likelihood

    def _scored(
        self, px: np.ndarray, py: np.ndarray, active: Sequence[AngleEvidence]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Reader angles and Eq. 15 at arbitrary points.

        The angles ``theta_i(O)`` of each active reader, shaped
        ``px.shape + (R,)``, and the likelihood, ``np.interp`` on each
        drop spectrum.  The same angle expression, interpolation and
        factor order as :meth:`evaluate` (whose interpolation table
        reproduces ``np.interp`` bit for bit), so a grid node scores
        exactly its cell; like :meth:`evaluate`, no detecting reader
        means zero.
        """
        angles = np.empty(px.shape + (len(active),))
        value = np.ones(px.shape) if active else np.zeros(px.shape)
        for column, item in enumerate(active):
            theta = _angles_to_grid(self._reader_for(item.reader_name), px, py)
            angles[..., column] = theta
            value *= np.interp(theta, item.drop.angles, item.drop.values) + self.floor
        return angles, value

    def _reader_for(self, name: str) -> Reader:
        try:
            return self.readers[name]
        except KeyError as exc:
            raise LocalizationError(f"evidence references unknown reader {name!r}") from exc


def _detecting(evidence: Sequence[AngleEvidence]) -> List[AngleEvidence]:
    """The evidence items with at least one blocking event."""
    return [item for item in evidence if item.has_detection]


def ordered_sum(values: np.ndarray) -> np.ndarray:
    """Row sums of ``values``, added left to right as Python's ``sum``
    adds, so a sum never depends on how a reduction is split."""
    return np.cumsum(values, axis=-1)[..., -1]


def _cross(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Row-wise 2-D cross product of ``(N, 2)`` vectors (:meth:`Point.cross`)."""
    return u[:, 0] * v[:, 1] - u[:, 1] * v[:, 0]


def _inside(room: Rectangle, points: np.ndarray) -> np.ndarray:
    """:meth:`Rectangle.contains` of every row of ``points`` (``(N, 2)``)."""
    x, y = points[:, 0], points[:, 1]
    return (room.min_x <= x) & (x <= room.max_x) & (room.min_y <= y) & (y <= room.max_y)


def _angles_to_grid(reader: Reader, grid_x: np.ndarray, grid_y: np.ndarray) -> np.ndarray:
    """Vectorized ``theta_i(O)`` for every grid point."""
    centroid = reader.array.centroid
    bearing = np.arctan2(grid_y - centroid.y, grid_x - centroid.x)
    relative = bearing - reader.array.orientation
    wrapped = np.mod(relative + math.pi, 2.0 * math.pi) - math.pi
    return np.abs(wrapped)
