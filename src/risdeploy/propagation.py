"""Deterministic path enumeration: LoS and first-order specular reflections.

Stand-in for a full ray launcher. Reflections are computed with the image
method against every vertical building face plus the ground plane z = 0,
each bounce costing a fixed configurable loss. Diffraction and dielectric
materials are out of scope.

Conventions: a path is a straight leg from its first endpoint to an apparent
far end (the far end for LoS, its image in the reflecting plane for a
reflection) times a bounce amplitude (1, or the reflection-loss amplitude).
Attenuation is the free-space amplitude ``lambda / (4 pi d)`` over that leg's
length (the unfolded length) times the bounce amplitude; ``depart_dir`` is the
leg's direction, which passes through the specular point.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, NoPathError
from .scene import Face, Scene, line_of_sight, segments_clear
from .units import wavelength


@dataclass(frozen=True)
class PathRecord:
    kind: str  # "los" or "reflection"
    attenuation: float  # linear amplitude
    length: float  # meters
    depart_dir: np.ndarray  # unit 3-vector at endpoint a
    apparent: np.ndarray  # apparent far end: b, or its image in the reflecting plane
    bounce_amp: float  # 1, or the reflection-loss amplitude


@dataclass(frozen=True)
class PropagationConfig:
    carrier_freq: float
    reflection_loss_db: float
    pl_max_db: float

    def __post_init__(self):
        if self.carrier_freq <= 0:
            raise InvalidInputError("carrier_freq must be > 0")
        if self.reflection_loss_db < 0:
            raise InvalidInputError("reflection_loss_db must be >= 0")

    @property
    def wavelength(self) -> float:
        return wavelength(self.carrier_freq)


def fspl_amplitude(distance: float, lam: float) -> float:
    "Free-space amplitude attenuation at the given distance."
    return lam / (4.0 * np.pi * distance)


def path_loss_db(path: PathRecord) -> float:
    "Path loss in dB (positive number) of a single path."
    return float(-20.0 * np.log10(path.attenuation))


def leg_geometry(a, ends) -> tuple:
    """Length (K,) and unit direction (K, 3) of each leg from a to a row of
    `ends`. Each length is the bits of np.linalg.norm of its own leg, and each
    direction those of the leg divided by its length: np.vecdot forms every
    leg's sum of squares with the dot product np.linalg.norm uses."""
    d = np.asarray(ends, dtype=float) - np.asarray(a, dtype=float)
    length = np.sqrt(np.vecdot(d, d))
    return length, d / length[:, None]


def _los_clear(scene: Scene, a, b, pullback: float = 1e-6) -> bool:
    "LoS test with endpoints nudged toward each other (for points on walls)."
    d = b - a
    if np.linalg.norm(d) < 1e-6:  # coincident endpoints obstruct nothing
        return True
    return line_of_sight(scene, a + pullback * d, b - pullback * d)


def _leg_path(kind: str, a, apparent, bounce_amp: float, lam) -> PathRecord:
    "The path that is a straight leg from a to its apparent far end, times the bounce amplitude."
    length, unit = leg_geometry(a, apparent[None, :])
    d = float(length[0])
    return PathRecord(kind=kind, attenuation=fspl_amplitude(d, lam) * bounce_amp, length=d,
                      depart_dir=unit[0], apparent=apparent, bounce_amp=bounce_amp)


def _los_path(a, b, lam) -> PathRecord:
    "The direct path between two points that see each other."
    return _leg_path("los", a, b, 1.0, lam)


def _reflection_path(scene: Scene, a, b, plane_point, plane_normal, on_face, lam, loss_amp,
                     pl_max_db):
    """Image-method reflection against one plane; None when invalid or over
    the path-loss budget.

    The path is the leg from a to b's image in the plane, which crosses the
    plane at the specular point. `on_face` checks that the specular point lies
    inside the reflecting rectangle/half-plane. The budget is tested before
    the two visibility tests, which a path over it does not need.
    """
    n = plane_normal
    ha = float(np.dot(a - plane_point, n))
    hb = float(np.dot(b - plane_point, n))
    if ha <= 1e-9 or hb <= 1e-9:  # both endpoints must face the reflecting side
        return None
    image_b = b - 2.0 * hb * n
    seg = image_b - a
    denom = float(np.dot(seg, n))
    if abs(denom) < 1e-15:
        return None
    t = float(np.dot(plane_point - a, n)) / denom
    if not (1e-9 < t < 1.0 - 1e-9):
        return None
    spec = a + t * seg
    if not on_face(spec):
        return None
    rec = _leg_path("reflection", a, image_b, loss_amp, lam)
    if path_loss_db(rec) > pl_max_db:
        return None
    if not (_los_clear(scene, a, spec) and _los_clear(scene, spec, b)):
        return None
    return rec


def _face_checker(face: Face):
    "Test of whether a point lies inside the face's rectangle, 1e-9 in from its edges."
    def on_face(point):
        rel = point - face.origin
        u = float(np.dot(rel, face.u_hat))
        return 1e-9 < u < face.length - 1e-9 and 1e-9 < point[2] < face.height - 1e-9

    return on_face


# Rounding room of the reflection-loss floor in enumerate_paths: a reflection's
# computed loss can fall below the floor by a few ulps, never by this much.
FLOOR_SLACK_DB = 1e-9


def _coincident(a, b):
    """np.allclose(a, b) at its default tolerances, without its generic
    overhead; one answer per row when b holds several points."""
    return (np.abs(a - b) <= 1e-8 + 1e-5 * np.abs(b)).all(axis=-1)


def enumerate_paths(scene: Scene, cfg: PropagationConfig, a, b, *, los=None) -> list:
    """All modeled paths between two points, strongest first.

    Includes the LoS path when unobstructed and one specular reflection per
    visible building face and the ground. The list drops paths over
    ``pl_max_db`` total path loss and is sorted by attenuation descending
    (ties: shorter first). A caller that has already tested the direct leg
    passes its answer as `los`, which then replaces the line-of-sight test.

    Every reflection is at least as long as the direct leg and pays the bounce
    loss on top, so when the direct leg's free-space loss plus the bounce loss
    exceeds the budget (by more than FLOOR_SLACK_DB), no reflection is formed.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if _coincident(a, b):
        raise InvalidInputError("degenerate link: a == b")
    lam = cfg.wavelength
    loss_amp = 10.0 ** (-cfg.reflection_loss_db / 20.0)
    paths = []
    if los is None:
        los = line_of_sight(scene, a, b)
    if los:
        paths.append(_los_path(a, b, lam))
    floor_db = -20.0 * np.log10(fspl_amplitude(float(np.linalg.norm(b - a)), lam) * loss_amp)
    if floor_db > cfg.pl_max_db + FLOOR_SLACK_DB:
        return [p for p in paths if path_loss_db(p) <= cfg.pl_max_db]
    for building in scene.buildings:
        for face in building.faces:
            rec = _reflection_path(scene, a, b, face.origin, face.normal, _face_checker(face),
                                   lam, loss_amp, cfg.pl_max_db)
            if rec is not None:
                paths.append(rec)
    rec = _reflection_path(scene, a, b, np.zeros(3), np.array([0.0, 0.0, 1.0]),
                           lambda p: True, lam, loss_amp, cfg.pl_max_db)
    if rec is not None:
        paths.append(rec)
    paths = [p for p in paths if path_loss_db(p) <= cfg.pl_max_db]
    paths.sort(key=lambda p: (-p.attenuation, p.length))
    return paths


def _legs_clear(scene: Scene, starts, ends) -> np.ndarray:
    """One batched line-of-sight test of the legs from `starts` (one point, or
    one per leg) to the rows of `ends`; a leg whose ends coincide counts as
    blocked, so enumerate_paths rejects it."""
    near = _coincident(starts, ends)
    clear = np.zeros(len(ends), dtype=bool)
    clear[~near] = segments_clear(scene, starts if starts.ndim == 1 else starts[~near],
                                  ends[~near])
    return clear


def _blocked_leg(scene: Scene, cfg: PropagationConfig, a, b) -> PathRecord:
    "Dominant path of a leg without line of sight; NoPathError when it has none."
    paths = enumerate_paths(scene, cfg, a, b, los=False)
    if not paths:
        raise NoPathError("no propagation path on this link")
    return paths[0]


def dominant_legs(scene: Scene, cfg: PropagationConfig, a, ends) -> tuple:
    """Apparent far end (K, 3) and bounce amplitude (K,) of the dominant path
    of each leg from a to a row of `ends`: the leg's attenuation and departure
    direction are those of the straight leg to its apparent end
    (leg_geometry) times its bounce amplitude.

    A clear leg's dominant path is its LoS path whatever its loss, (end, 1):
    every reflection is both longer and attenuated by the bounce loss, so none
    is stronger or within a budget the LoS path exceeds. Each other leg takes
    the first of enumerate_paths, in order, and NoPathError is raised at the
    first leg without a path, before any later blocked leg is formed.
    """
    a = np.asarray(a, dtype=float)
    ends = np.asarray(ends, dtype=float)
    apparent, bounce = ends.copy(), np.ones(len(ends))
    for k in np.flatnonzero(~_legs_clear(scene, a, ends)):
        path = _blocked_leg(scene, cfg, a, ends[k])
        apparent[k], bounce[k] = path.apparent, path.bounce_amp
    return apparent, bounce


def dominant_path_between(scene: Scene, cfg: PropagationConfig, a, b) -> PathRecord:
    """Dominant path of the link from a to b, by the rule of dominant_legs;
    NoPathError when it has none."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if not _coincident(a, b) and line_of_sight(scene, a, b):
        return _los_path(a, b, cfg.wavelength)
    return _blocked_leg(scene, cfg, a, b)


def reachable_from(scene: Scene, cfg: PropagationConfig, starts, ends) -> np.ndarray:
    """Whether enumerate_paths(scene, cfg, a, b) is non-empty for each leg
    from a row a of `starts` (or from one start point a) to the row b of
    `ends`: a dominant path within pl_max_db."""
    ends = np.asarray(ends, dtype=float)
    starts = np.broadcast_to(np.asarray(starts, dtype=float), ends.shape)
    clear = _legs_clear(scene, starts, ends)
    reach = np.empty(len(ends), dtype=bool)
    length, _ = leg_geometry(starts[clear], ends[clear])
    reach[clear] = -20.0 * np.log10(fspl_amplitude(length, cfg.wavelength)) <= cfg.pl_max_db
    reach[~clear] = [bool(enumerate_paths(scene, cfg, a, b, los=False))
                     for a, b in zip(starts[~clear], ends[~clear])]
    return reach
