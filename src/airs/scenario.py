"""Urban grid geometry: building placement, line-of-sight tests, road mobility.

The city is a square area split into a grid of building cells separated by
straight road strips.  Buildings are axis-aligned boxes confined to their
cell, so they never overlap a road.  Ground users walk along road centerlines
at constant speed and pick a random continuation at each intersection.
"""

from bisect import bisect_left, bisect_right
from dataclasses import dataclass

import numpy as np

from .rng import STREAM_CITY, substream

# Building footprint sides are drawn uniformly from this fraction of the cell
# side, which keeps layouts feasible at any map scale.
FOOTPRINT_FRACTION = (0.10, 0.30)
_PLACEMENT_ATTEMPTS = 200


class ScenarioError(ValueError):
    """Raised when a scenario configuration cannot be realized."""


@dataclass(frozen=True)
class Building:
    """Axis-aligned box: footprint [x0,x1]x[y0,y1], solid from z=0 to height."""

    x0: float
    y0: float
    x1: float
    y1: float
    height: float

    def __post_init__(self):
        if self.height <= 0:
            raise ScenarioError("building height must be positive")
        if self.x1 <= self.x0 or self.y1 <= self.y0:
            raise ScenarioError("building footprint must have positive area")

    def contains(self, p) -> bool:
        return (
            self.x0 <= p[0] <= self.x1
            and self.y0 <= p[1] <= self.y1
            and 0.0 <= p[2] <= self.height
        )


@dataclass(frozen=True)
class ScenarioConfig:
    """Declarative description of the area, city grid, radio head and users.

    The area must tile exactly: cells_per_side * cell_side plus the road
    strips between cells spans the whole area on each axis.
    """

    area_x_min: float = 0.0
    area_x_max: float = 620.0
    area_y_min: float = 0.0
    area_y_max: float = 620.0
    alt_min: float = 80.0
    alt_max: float = 120.0
    grid_cells_per_side: int = 3
    cell_side: float = 200.0
    road_width: float = 10.0
    buildings_per_cell: int = 8
    building_height_range: tuple = (20.0, 70.0)
    su_position: tuple = (-200.0, 0.0, 25.0)
    user_initial_positions: tuple = ((305.0, 205.0, 0.0),)
    user_speed: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if not (self.area_x_min < self.area_x_max and self.area_y_min < self.area_y_max):
            raise ScenarioError("area bounds must satisfy min < max")
        if not self.alt_min < self.alt_max:
            raise ScenarioError("alt_min must be below alt_max")
        if self.grid_cells_per_side < 1:
            raise ScenarioError("grid_cells_per_side must be >= 1")
        if self.buildings_per_cell < 0:
            raise ScenarioError("buildings_per_cell must be >= 0")
        if self.road_width <= 0 or self.cell_side <= 0:
            raise ScenarioError("road_width and cell_side must be positive")
        lo, hi = self.building_height_range
        if not (0 < lo <= hi):
            raise ScenarioError("building_height_range must be 0 < low <= high")
        n = self.grid_cells_per_side
        span = n * self.cell_side + (n - 1) * self.road_width
        for lo_b, hi_b, axis in (
            (self.area_x_min, self.area_x_max, "x"),
            (self.area_y_min, self.area_y_max, "y"),
        ):
            if abs((hi_b - lo_b) - span) > 1e-6:
                raise ScenarioError(
                    f"{axis}-extent {hi_b - lo_b} does not match "
                    f"{n} cells of {self.cell_side} m plus {n - 1} roads of "
                    f"{self.road_width} m (= {span} m)"
                )
        network = RoadNetwork(self)
        for pos in self.user_initial_positions:
            if len(pos) != 3 or pos[2] != 0.0:
                raise ScenarioError(f"user position {pos} must be a ground point (z=0)")
            if not network.on_road(pos[0], pos[1]):
                raise ScenarioError(f"user position {pos} is not on a road")


class RoadNetwork:
    """Road strips between cells plus the graph of their centerlines."""

    def __init__(self, config: ScenarioConfig):
        self.x_min, self.x_max = config.area_x_min, config.area_x_max
        self.y_min, self.y_max = config.area_y_min, config.area_y_max
        self.half_width = config.road_width / 2.0
        n = config.grid_cells_per_side
        pitch = config.cell_side + config.road_width
        # Centerline k sits half a road width past the k-th cell.
        self.centers_x = [
            config.area_x_min + k * pitch - self.half_width for k in range(1, n)
        ]
        self.centers_y = [
            config.area_y_min + k * pitch - self.half_width for k in range(1, n)
        ]
        # Graph node coordinates along each axis: borders and centerlines.
        self.nodes_x = sorted({self.x_min, self.x_max, *self.centers_x})
        self.nodes_y = sorted({self.y_min, self.y_max, *self.centers_y})
        self._graph = self._build_graph()

    def _build_graph(self):
        graph = {}

        def add_edge(a, b):
            graph.setdefault(a, set()).add(b)
            graph.setdefault(b, set()).add(a)

        for cy in self.centers_y:
            for a, b in zip(self.nodes_x, self.nodes_x[1:]):
                add_edge(self._key(a, cy), self._key(b, cy))
        for cx in self.centers_x:
            for a, b in zip(self.nodes_y, self.nodes_y[1:]):
                add_edge(self._key(cx, a), self._key(cx, b))
        return graph

    @staticmethod
    def _key(x, y):
        return (round(float(x), 6), round(float(y), 6))

    def on_road(self, x: float, y: float) -> bool:
        """True when (x, y) lies inside some road strip."""
        in_x = self.x_min - 1e-9 <= x <= self.x_max + 1e-9
        in_y = self.y_min - 1e-9 <= y <= self.y_max + 1e-9
        if not (in_x and in_y):
            return False
        near_v = any(abs(x - cx) <= self.half_width + 1e-9 for cx in self.centers_x)
        near_h = any(abs(y - cy) <= self.half_width + 1e-9 for cy in self.centers_y)
        return near_v or near_h

    def snap_to_centerline(self, x: float, y: float):
        """Nearest point on any centerline; the entry point for user tracks."""
        best = None
        best_d = np.inf
        for cy in self.centers_y:
            px = min(max(x, self.x_min), self.x_max)
            d = abs(y - cy)
            if d < best_d:
                best, best_d = (px, cy), d
        for cx in self.centers_x:
            py = min(max(y, self.y_min), self.y_max)
            d = abs(x - cx)
            if d < best_d:
                best, best_d = (cx, py), d
        if best is None:
            raise ScenarioError("road network has no centerlines")
        return best

    def neighbors(self, node):
        return self._graph.get(self._key(*node), set())

    def random_heading(self, x: float, y: float, rng) -> np.ndarray:
        """Uniform choice among directions compatible with the roads at (x, y)."""
        options = []
        if any(abs(y - cy) <= 1e-6 for cy in self.centers_y):
            options += [(1.0, 0.0), (-1.0, 0.0)]
        if any(abs(x - cx) <= 1e-6 for cx in self.centers_x):
            options += [(0.0, 1.0), (0.0, -1.0)]
        if not options:
            raise ScenarioError(f"({x}, {y}) is not on a centerline")
        return np.array(options[int(rng.integers(len(options)))])

    def next_node_along(self, x, y, heading):
        """First graph node strictly ahead of (x, y) in direction `heading`."""
        if abs(heading[0]) > 0.5:  # moving along x on a horizontal centerline
            nx = _next_ahead(self.nodes_x, x, heading[0])
            return None if nx is None else (nx, y)
        ny = _next_ahead(self.nodes_y, y, heading[1])
        return None if ny is None else (x, ny)


def _next_ahead(nodes, v, direction):
    """The nearest of the sorted `nodes` more than 1e-9 past v in `direction`."""
    if direction > 0:
        i = bisect_right(nodes, v + 1e-9)
        return nodes[i] if i < len(nodes) else None
    i = bisect_left(nodes, v - 1e-9)
    return nodes[i - 1] if i > 0 else None


@dataclass
class UserTrack:
    """A ground user walking the road network at constant speed."""

    position: np.ndarray
    heading: np.ndarray
    speed: float

    @staticmethod
    def spawn(position, network: RoadNetwork, speed: float, rng) -> "UserTrack":
        x, y = network.snap_to_centerline(position[0], position[1])
        heading = network.random_heading(x, y, rng)
        return UserTrack(np.array([x, y, 0.0]), heading, float(speed))


def step_user(track: UserTrack, dt: float, rng, network: RoadNetwork) -> UserTrack:
    """Advance a track by speed*dt along its road, turning randomly at nodes.

    Immediate U-turns are excluded unless the walker hits a dead end (an area
    border).  The returned track is a new object; the input is untouched.
    """
    remaining = track.speed * dt
    x, y = track.position.tolist()[:2]
    hx, hy = track.heading.tolist()
    while remaining > 1e-12:
        node = network.next_node_along(x, y, (hx, hy))
        if node is None:
            # Standing exactly on a border node: treat as dead end, turn back.
            hx, hy = -hx, -hy
            continue
        dist = abs(node[0] - x) + abs(node[1] - y)
        if remaining < dist - 1e-12:
            x += hx * remaining
            y += hy * remaining
            remaining = 0.0
            break
        x, y = node
        remaining -= dist
        options = sorted(
            (float((nx > x) - (nx < x)), float((ny > y) - (ny < y)))
            for nx, ny in network.neighbors((x, y))
        )
        # Exclude the reversal unless nothing else connects (dead end).
        reverse = (-hx, -hy)
        forward = [d for d in options if d != reverse]
        if not forward:
            hx, hy = reverse
        else:
            hx, hy = forward[int(rng.integers(len(forward)))]
    return UserTrack(np.array([x, y, 0.0]), np.array([hx, hy]), track.speed)


def generate_city(config: ScenarioConfig) -> list:
    """Place buildings cell by cell with non-overlapping random footprints.

    Deterministic for a fixed config seed.  Raises ScenarioError when a cell
    cannot fit the requested number of buildings.
    """
    rng = substream(config.seed, STREAM_CITY)
    buildings = []
    n = config.grid_cells_per_side
    pitch = config.cell_side + config.road_width
    h_lo, h_hi = config.building_height_range
    side_lo = FOOTPRINT_FRACTION[0] * config.cell_side
    side_hi = FOOTPRINT_FRACTION[1] * config.cell_side
    for row in range(n):
        for col in range(n):
            ox = config.area_x_min + col * pitch
            oy = config.area_y_min + row * pitch
            placed = []
            for _ in range(config.buildings_per_cell):
                box = _place_one(rng, ox, oy, config.cell_side, side_lo, side_hi, placed)
                if box is None:
                    raise ScenarioError(
                        f"cell ({row},{col}) of side {config.cell_side} m cannot fit "
                        f"{config.buildings_per_cell} buildings"
                    )
                placed.append(box)
                height = float(rng.uniform(h_lo, h_hi))
                buildings.append(Building(box[0], box[1], box[2], box[3], height))
    return buildings


def _place_one(rng, ox, oy, cell, side_lo, side_hi, placed):
    for _ in range(_PLACEMENT_ATTEMPTS):
        w = float(rng.uniform(side_lo, side_hi))
        d = float(rng.uniform(side_lo, side_hi))
        if w >= cell or d >= cell:
            continue
        x0 = ox + float(rng.uniform(0.0, cell - w))
        y0 = oy + float(rng.uniform(0.0, cell - d))
        box = (x0, y0, x0 + w, y0 + d)
        if all(
            box[2] <= p[0] or p[2] <= box[0] or box[3] <= p[1] or p[3] <= box[1]
            for p in placed
        ):
            return box
    return None


class BuildingIndex:
    """Building boxes packed as arrays for vectorized occlusion tests.

    `lo` and `hi` are the (n, 3) lower and upper box corners and the source of
    truth; assigning either one rebuilds `slabs` on its next use, and the
    stored arrays are read-only, so an in-place edit cannot leave it stale.
    """

    def __init__(self, buildings):
        self.buildings = list(buildings)
        self.lo = [[b.x0, b.y0, 0.0] for b in self.buildings]
        self.hi = [[b.x1, b.y1, b.height] for b in self.buildings]

    @property
    def lo(self):
        return self._lo

    @lo.setter
    def lo(self, value):
        self._lo = _corners(value)
        self._slabs = None

    @property
    def hi(self):
        return self._hi

    @hi.setter
    def hi(self, value):
        self._hi = _corners(value)
        self._slabs = None

    @property
    def slabs(self):
        """(8, 6, n) entry then exit faces of every box, per direction octant.

        Rows 0-2 of octant k are the faces through which a segment enters the
        x, y and z slabs, rows 3-5 those through which it leaves them.  Octant
        k holds the segments whose direction component j is negative exactly
        when bit j of k is set; such a segment enters the slab of axis j
        through `hi` and leaves it through `lo`.
        """
        if self._slabs is None:
            negative = (np.arange(8)[:, None, None] >> np.arange(3)[:, None]) & 1 == 1
            lo, hi = self._lo.T, self._hi.T
            # C order keeps each face row contiguous for the reductions in `_clear`.
            self._slabs = np.ascontiguousarray(np.concatenate(
                (np.where(negative, hi, lo), np.where(negative, lo, hi)), axis=1
            ))
        return self._slabs

    def __len__(self):
        return len(self.buildings)


def _corners(value) -> np.ndarray:
    corners = np.array(value, dtype=float).reshape(-1, 3)
    corners.flags.writeable = False
    return corners


def is_los(a, b, buildings, then=None) -> bool:
    """True when the open segment (a, b) misses every building box.

    With `then`, the path a -> b -> then is tested, and the call equals
    `is_los(a, b, buildings) and is_los(b, then, buildings)`, including
    which coincident endpoints raise: those of the second segment only when
    the first is clear.

    Slab test per axis; a box counts as hit only when the segment spends a
    positive-length parameter interval inside it, so surface grazes do not
    block.  Endpoints are ordered canonically, which makes the test exactly
    symmetric in its arguments.
    """
    index = buildings if isinstance(buildings, BuildingIndex) else BuildingIndex(buildings)
    points = (a, b) if then is None else (a, b, then)
    path = [np.asarray(p, dtype=float).tolist() for p in points]
    segments = []
    for p, q in zip(path, path[1:]):
        if p == q:
            if segments and not _clear(index, segments):
                return False
            raise ScenarioError("is_los requires distinct endpoints")
        segments.append((q, p) if q < p else (p, q))
    return _clear(index, segments)


def _clear(index: BuildingIndex, segments) -> bool:
    """True when no segment (start, end) spends a positive-length parameter
    interval inside a box."""
    octants, starts, steps = [], [], []
    flat = False
    for (x0, y0, z0), (x1, y1, z1) in segments:
        # Adding 0.0 turns a -0.0 difference into 0.0: a flat axis takes the
        # lo-face octant and divides by +0.0, where -0.0 would flip the signs
        # of its infinities.
        d = [x1 - x0 + 0.0, y1 - y0 + 0.0, z1 - z0 + 0.0]
        flat = flat or 0.0 in d
        octants.append((d[0] < 0.0) + 2 * (d[1] < 0.0) + 4 * (d[2] < 0.0))
        starts += [x0, y0, z0] * 2
        steps += d * 2
    start, step = np.array(starts + steps).reshape(2, len(segments), 6, 1)
    offsets = index.slabs.take(octants, axis=0) - start
    if flat:
        # On a flat axis the slab parameter is +-inf, or nan when the start
        # lies on that face; fmax/fmin below skip nan, so a face counts as
        # inside the slab, as it does for a grazing segment.
        with np.errstate(divide="ignore", invalid="ignore"):
            t = offsets / step
    else:
        t = offsets / step
    enter = np.fmax.reduce(t[:, :3], axis=1, initial=0.0)
    leave = np.fmin.reduce(t[:, 3:], axis=1, initial=1.0)
    return not (leave > enter).any()
