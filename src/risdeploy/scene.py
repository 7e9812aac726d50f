"""3D urban scene: buildings, grids, line of sight and RIS region selection.

Buildings are vertical prisms (simple polygon footprint extruded from the
ground to a flat roof). The scene is immutable after construction and all
queries are pure.
"""

import json
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from . import schema
from .errors import InfeasibleCoverageError, InvalidInputError, SceneFormatError


def _segments_intersect_2d(p1, p2, q1, q2) -> bool:
    "Proper intersection test for open 2D segments (shared endpoints ignored)."
    def cross2(a, b):
        return a[0] * b[1] - a[1] * b[0]

    d1 = cross2(q2 - q1, p1 - q1)
    d2 = cross2(q2 - q1, p2 - q1)
    d3 = cross2(p2 - p1, q1 - p1)
    d4 = cross2(p2 - p1, q2 - p1)
    return bool((d1 * d2 < 0) and (d3 * d4 < 0))


def point_in_polygon(point, polygon) -> bool:
    "Ray-casting point-in-polygon test; points on the boundary count as inside."
    x, y = float(point[0]), float(point[1])
    poly = np.asarray(polygon, dtype=float)
    n = len(poly)
    inside = False
    x1, y1 = poly[-1]
    for i in range(n):
        x2, y2 = poly[i]
        # boundary check
        if abs((x2 - x1) * (y - y1) - (y2 - y1) * (x - x1)) < 1e-12:
            if min(x1, x2) - 1e-12 <= x <= max(x1, x2) + 1e-12 and min(y1, y2) - 1e-12 <= y <= max(y1, y2) + 1e-12:
                return True
        if (y1 > y) != (y2 > y):
            xc = x1 + (y - y1) * (x2 - x1) / (y2 - y1)
            if x < xc:
                inside = not inside
        x1, y1 = x2, y2
    return inside


@dataclass(frozen=True)
class Face:
    "One vertical face of a prism: its base edge's frame, outward normal and height."
    origin: np.ndarray  # (3,) first base vertex, on the ground
    u_hat: np.ndarray  # (3,) unit vector along the base edge
    length: float  # base edge length, meters
    normal: np.ndarray  # (3,) outward unit normal, in the xy-plane
    height: float  # meters


@dataclass(frozen=True)
class Building:
    footprint: np.ndarray  # (V, 2) vertices, meters
    height: float
    faces: tuple = field(init=False, repr=False, compare=False)  # V Face, face f on edge f

    def __post_init__(self):
        fp = np.asarray(self.footprint, dtype=float)
        object.__setattr__(self, "footprint", fp)
        if fp.ndim != 2 or fp.shape[0] < 3 or fp.shape[1] != 2:
            raise SceneFormatError("buildings.footprint", "need at least 3 [x, y] vertices")
        if self.height <= 0:
            raise SceneFormatError("buildings.height", "must be > 0")
        self._check_simple(fp)
        object.__setattr__(self, "faces", tuple(
            self._face(fp[f], fp[(f + 1) % len(fp)]) for f in range(len(fp))))

    def _face(self, p1, p2) -> Face:
        edge = np.array([p2[0] - p1[0], p2[1] - p1[1], 0.0])
        length = float(np.linalg.norm(edge))
        n = np.array([edge[1], -edge[0]]) / np.linalg.norm(p2 - p1)
        if point_in_polygon((p1 + p2) / 2.0 + 1e-6 * n, self.footprint):
            n = -n
        return Face(origin=np.array([p1[0], p1[1], 0.0]), u_hat=edge / length, length=length,
                    normal=np.array([n[0], n[1], 0.0]), height=self.height)

    @staticmethod
    def _check_simple(fp):
        n = len(fp)
        for i in range(n):
            a1, a2 = fp[i], fp[(i + 1) % n]
            for j in range(i + 1, n):
                if j == i or (j + 1) % n == i or (i + 1) % n == j:
                    continue
                b1, b2 = fp[j], fp[(j + 1) % n]
                if _segments_intersect_2d(a1, a2, b1, b2):
                    raise SceneFormatError("buildings.footprint", "self-intersecting polygon")

    @classmethod
    def box(cls, xmin, xmax, ymin, ymax, height) -> "Building":
        return cls(np.array([[xmin, ymin], [xmax, ymin], [xmax, ymax], [xmin, ymax]]), height)


@dataclass(frozen=True)
class Bounds:
    lo: np.ndarray  # (3,)
    hi: np.ndarray  # (3,)

    def __post_init__(self):
        object.__setattr__(self, "lo", np.asarray(self.lo, dtype=float))
        object.__setattr__(self, "hi", np.asarray(self.hi, dtype=float))
        if np.any(self.hi <= self.lo):
            raise SceneFormatError("bounds", "hi must exceed lo in every axis")

    def contains(self, p) -> bool:
        p = np.asarray(p, dtype=float)
        return bool(np.all(p >= self.lo - 1e-9) and np.all(p <= self.hi + 1e-9))


@dataclass(frozen=True)
class Rect:
    "Axis-aligned ground rectangle (xmin, ymin, xmax, ymax)."
    xmin: float
    ymin: float
    xmax: float
    ymax: float
    key: str = field(default="rect", compare=False, repr=False)  # the scene key it came from

    def __post_init__(self):
        if self.xmax <= self.xmin or self.ymax <= self.ymin:
            raise SceneFormatError(self.key, "max must exceed min")

    @property
    def width(self) -> float:
        return self.xmax - self.xmin

    @property
    def depth(self) -> float:
        return self.ymax - self.ymin


_BOX_PAD = 1e-6  # m; far above the exact test's 1e-9 and 1e-12 tolerances


@dataclass(frozen=True)
class Scene:
    buildings: tuple
    bs_position: np.ndarray
    bounds: Bounds
    ue_areas: tuple = ()
    uav_area: Rect | None = None

    def __post_init__(self):
        object.__setattr__(self, "buildings", tuple(self.buildings))
        object.__setattr__(self, "bs_position", np.asarray(self.bs_position, dtype=float))
        object.__setattr__(self, "ue_areas", tuple(self.ue_areas))
        if not self.bounds.contains(self.bs_position):
            raise SceneFormatError("bs", "BS position outside scene bounds")
        # Axis-aligned box of each prism (footprint bounds x [0, height]),
        # widened so that rounding never drops a prism the exact test hits.
        lo = [[*b.footprint.min(axis=0), 0.0] for b in self.buildings]
        hi = [[*b.footprint.max(axis=0), b.height] for b in self.buildings]
        object.__setattr__(self, "_box_lo", np.array(lo).reshape(-1, 3) - _BOX_PAD)
        object.__setattr__(self, "_box_hi", np.array(hi).reshape(-1, 3) + _BOX_PAD)


@dataclass(frozen=True)
class GridSet:
    """Uniform set of rectangular cells at a fixed height."""

    centers: np.ndarray  # (M, 3)
    extent: np.ndarray  # (2,) cell width/depth in meters

    def __post_init__(self):
        object.__setattr__(self, "centers", np.asarray(self.centers, dtype=float).reshape(-1, 3))
        object.__setattr__(self, "extent", np.asarray(self.extent, dtype=float))

    def __len__(self) -> int:
        return len(self.centers)

    @property
    def cell_area(self) -> float:
        return float(self.extent[0] * self.extent[1])


def line_of_sight(scene: Scene, a, b) -> bool:
    """True iff the open segment (a, b) intersects no building prism."""
    b = np.asarray(b, dtype=float)
    return bool(segments_clear(scene, a, b[None, :])[0])


def segments_clear(scene: Scene, a, ends) -> np.ndarray:
    """Line of sight of the K open segments from a to the rows of `ends`, shape (K,).

    One slab test culls the (segment, prism) pairs for all K segments; only
    the pairs whose bounding box a segment enters go through the exact prism
    test.
    """
    a = np.asarray(a, dtype=float)
    ends = np.asarray(ends, dtype=float)
    if np.any(np.linalg.norm(ends - a, axis=1) < 1e-9):
        raise InvalidInputError("degenerate segment: a == b")
    clear = np.ones(len(ends), dtype=bool)
    for k, i in zip(*np.nonzero(_boxes_entered(scene._box_lo, scene._box_hi, a, ends))):
        if clear[k] and _segment_hits_prism(a, ends[k], scene.buildings[i]):
            clear[k] = False
    return clear


def _boxes_entered(lo, hi, a, ends) -> np.ndarray:
    """Which boxes (rows of lo, hi) each closed segment from a to a row of
    `ends` meets, shape (K, boxes).

    Slab test (Williams et al. 2005, "An efficient and robust ray-box
    intersection algorithm"): per axis, the parameter interval inside the
    slab is [(lo - a) / d, (hi - a) / d] in either order; the segment meets
    the box when the intersection of the three intervals and [0, 1] is not
    empty. On an axis the segment does not move along, 1 / d is infinite, so
    the interval is everything or nothing; fmin and fmax drop the NaN of a
    segment lying exactly in a slab's bounding plane. A subnormal component
    of d overflows the same way, to an interval of the same meaning.
    """
    d = (ends - a)[:, None, :]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        t1 = (lo - a) / d
        t2 = (hi - a) / d
    t_in = np.max(np.fmin(t1, t2), axis=2)
    t_out = np.min(np.fmax(t1, t2), axis=2)
    return (t_in <= t_out) & (t_in <= 1.0) & (t_out >= 0.0)


def _segment_hits_prism(a, b, building: Building, eps: float = 1e-9) -> bool:
    """Does the open segment pass through the solid prism?

    Works for non-convex footprints: collect the parameter values where the
    2D projection crosses the footprint boundary, then test each sub-interval
    whose midpoint lies inside the footprint for overlap with the z-slab.
    """
    a2, b2 = a[:2], b[:2]
    d2 = b2 - a2
    fp = building.footprint
    ts = [0.0, 1.0]
    n = len(fp)
    planar = np.linalg.norm(d2) < 1e-12
    if not planar:
        for i in range(n):
            q1, q2 = fp[i], fp[(i + 1) % n]
            e = q2 - q1
            denom = d2[0] * e[1] - d2[1] * e[0]
            if abs(denom) < 1e-15:
                continue
            rel = q1 - a2
            t = (rel[0] * e[1] - rel[1] * e[0]) / denom
            s = (rel[0] * d2[1] - rel[1] * d2[0]) / denom
            if -1e-12 <= s <= 1 + 1e-12 and eps < t < 1 - eps:
                ts.append(float(t))
    ts = sorted(set(ts))
    za, zb = a[2], b[2]
    for t0, t1 in zip(ts[:-1], ts[1:]):
        if t1 - t0 < 2 * eps:
            continue
        tm = (t0 + t1) / 2.0
        mid2 = a2 + tm * d2
        if not point_in_polygon(mid2, fp):
            continue
        z0 = za + (zb - za) * (t0 + eps)
        z1 = za + (zb - za) * (t1 - eps)
        if min(z0, z1) < building.height - eps and max(z0, z1) > eps:
            return True
    return False


def build_grids(scene: Scene, cell_size, height: float, area: Rect | None = None) -> GridSet:
    """Tile a rectangular area with uniform cells at the given height.

    Cells whose centers fall inside a building footprint are excluded.
    If no area is given, the full scene bounds are tiled.
    """
    cell = np.asarray(cell_size, dtype=float).ravel()
    if cell.size == 1:
        cell = np.repeat(cell, 2)
    if np.any(cell <= 0):
        raise InvalidInputError("cell_size components must be > 0")
    if area is None:
        area = Rect(scene.bounds.lo[0], scene.bounds.lo[1], scene.bounds.hi[0], scene.bounds.hi[1])
    nx = int(np.floor(area.width / cell[0] + 1e-9))
    ny = int(np.floor(area.depth / cell[1] + 1e-9))
    if nx < 1 or ny < 1:
        raise InvalidInputError("cell_size larger than the requested area")
    centers = []
    for ix in range(nx):
        for iy in range(ny):
            cx = area.xmin + (ix + 0.5) * cell[0]
            cy = area.ymin + (iy + 0.5) * cell[1]
            if any(point_in_polygon((cx, cy), blg.footprint) for blg in scene.buildings):
                continue
            centers.append((cx, cy, height))
    return GridSet(np.array(centers).reshape(-1, 3), cell)


PATCH_MARGIN = 0.5  # m; a mounting patch's inset from its face's sides and roof
PATCH_FLOOR = 2.0  # m; a mounting patch's lowest height above ground


@dataclass
class DeployableRegion:
    """Feasible mounting surface for one RIS plus the UE cells it serves.

    The mounting patch is the face inset by PATCH_MARGIN on the sides and the
    roof, from PATCH_FLOOR above ground. Patch coordinates: u runs along the
    base edge in [u_min, u_max] meters, v is height above ground in
    [v_min, v_max] meters.
    """

    covered_cells: list
    coverage_area: float
    building: int | None = None  # index of the building the face belongs to
    face: Face | None = field(repr=False, default=None)  # the face the patch lies on

    u_min = PATCH_MARGIN
    v_min = PATCH_FLOOR

    @property
    def u_max(self) -> float:
        return self.face.length - PATCH_MARGIN

    @property
    def v_max(self) -> float:
        return self.face.height - PATCH_MARGIN

    def point_at(self, u: float, v: float, standoff: float = 1e-3) -> np.ndarray:
        "3D mounting point at patch coordinates (u, v), nudged off the wall."
        face = self.face
        return face.origin + u * face.u_hat + np.array([0.0, 0.0, v]) + standoff * face.normal

    def clamp(self, u: float, v: float):
        return (float(np.clip(u, self.u_min, self.u_max)),
                float(np.clip(v, self.v_min, self.v_max)))

    def sample(self, rng: np.random.Generator):
        return (float(rng.uniform(self.u_min, self.u_max)),
                float(rng.uniform(self.v_min, self.v_max)))

    def reference_point(self) -> np.ndarray:
        return self.point_at((self.u_min + self.u_max) / 2, (self.v_min + self.v_max) / 2)


def select_ris_regions(
    uncovered_cells: Iterable[int],
    candidates: Sequence[DeployableRegion],
) -> list:
    """Greedy set cover over candidate deployable regions.

    Each iteration picks the candidate covering the most still-uncovered
    cells, ties broken by lowest candidate index. Raises
    InfeasibleCoverageError naming orphan cells when the union of all
    candidates cannot cover the universe.
    """
    remaining = set(uncovered_cells)
    all_covered = set()
    for cand in candidates:
        all_covered.update(cand.covered_cells)
    orphans = remaining - all_covered
    if orphans:
        raise InfeasibleCoverageError(orphans)
    chosen = []
    while remaining:
        best_idx, best_gain = None, 0
        for idx, cand in enumerate(candidates):
            gain = len(remaining & set(cand.covered_cells))
            if gain > best_gain:
                best_idx, best_gain = idx, gain
        chosen.append(candidates[best_idx])
        remaining -= set(candidates[best_idx].covered_cells)
    return chosen


def candidate_regions(scene: Scene, ue_grid: GridSet, uncovered: Iterable[int],
                      uav_grid: GridSet, prop_cfg) -> list:
    """Enumerate candidate deployable regions, one per valid building face.

    A face qualifies when its reference point sees the BS and every UAV cell
    (one batched test) and reaches an uncovered UE cell; the candidate covers
    every uncovered UE cell reachable under pl_max.
    """
    from . import propagation

    uncovered = list(uncovered)
    cells = ue_grid.centers[uncovered]
    bs_and_uavs = np.vstack([scene.bs_position, uav_grid.centers])
    out = []
    for b_idx, building in enumerate(scene.buildings):
        for face in building.faces:
            if face.length < 2 * PATCH_MARGIN + 0.5 or building.height <= PATCH_FLOOR + 0.5:
                continue
            region = DeployableRegion(covered_cells=[], coverage_area=0.0, building=b_idx,
                                      face=face)
            point = region.reference_point()
            if not np.all(segments_clear(scene, point, bs_and_uavs)):
                continue
            covered = [cell for cell, ok in zip(
                uncovered, propagation.reachable_from(scene, prop_cfg, point, cells)) if ok]
            if not covered:
                continue
            region.covered_cells = covered
            region.coverage_area = len(covered) * ue_grid.cell_area
            out.append(region)
    return out


def load_scene(path) -> Scene:
    """Load a scene from the documented JSON schema."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise SceneFormatError("scene", f"cannot read: {exc}") from exc
    except ValueError as exc:  # not JSON, or not UTF-8
        raise SceneFormatError("<root>", f"invalid JSON: {exc}") from exc
    return scene_from_dict(raw)


def scene_from_dict(raw: dict) -> Scene:
    "A scene from its JSON object, checked against scene.schema.json first."
    raw = schema.conform(raw, schema.load("scene"))
    return Scene(
        buildings=tuple(Building(b["footprint"], float(b["height"])) for b in raw["buildings"]),
        bs_position=raw["bs"],
        bounds=Bounds(raw["bounds"]["lo"], raw["bounds"]["hi"]),
        ue_areas=tuple(Rect(*a, "ue_areas") for a in raw["ue_areas"]),
        uav_area=Rect(*raw["uav_area"], "uav_area") if "uav_area" in raw else None,
    )
