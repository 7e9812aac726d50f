"""Deterministic path enumeration: LoS and first-order specular reflections.

Stand-in for a full ray launcher. Reflections are computed with the image
method against every vertical building face plus the ground plane z = 0,
each bounce costing a fixed configurable loss. Diffraction and dielectric
materials are out of scope.

Conventions: attenuation is a linear amplitude factor (free-space amplitude
``lambda / (4 pi d)`` over the total unfolded length times the bounce loss).
``depart_dir`` points from the first endpoint along the outgoing ray.
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


def _unit(v):
    return v / np.linalg.norm(v)


def _los_clear(scene: Scene, a, b, pullback: float = 1e-6) -> bool:
    "LoS test with endpoints nudged toward each other (for points on walls)."
    d = b - a
    if np.linalg.norm(d) < 1e-6:  # coincident endpoints obstruct nothing
        return True
    return line_of_sight(scene, a + pullback * d, b - pullback * d)


def _los_path(a, b, lam) -> PathRecord:
    "The direct path between two points that see each other."
    d = float(np.linalg.norm(b - a))
    return PathRecord(kind="los", attenuation=fspl_amplitude(d, lam), length=d,
                      depart_dir=_unit(b - a))


def _reflection_path(scene: Scene, a, b, plane_point, plane_normal, on_face, lam, loss_amp,
                     pl_max_db):
    """Image-method reflection against one plane; None when invalid or over
    the path-loss budget.

    `on_face` checks that the specular point lies inside the reflecting
    rectangle/half-plane. The budget is tested before the two visibility
    tests, which a path over it does not need.
    """
    n = plane_normal
    ha = float(np.dot(a - plane_point, n))
    hb = float(np.dot(b - plane_point, n))
    if ha <= 1e-9 or hb <= 1e-9:  # both endpoints must face the reflecting side
        return None
    image_a = a - 2.0 * ha * n
    seg = b - image_a
    denom = float(np.dot(seg, n))
    if abs(denom) < 1e-15:
        return None
    t = float(np.dot(plane_point - image_a, n)) / denom
    if not (1e-9 < t < 1.0 - 1e-9):
        return None
    spec = image_a + t * seg
    if not on_face(spec):
        return None
    length = float(np.linalg.norm(image_a - b))
    rec = PathRecord(kind="reflection", attenuation=fspl_amplitude(length, lam) * loss_amp,
                     length=length, depart_dir=_unit(spec - a))
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
    return np.all(np.abs(a - b) <= 1e-8 + 1e-5 * np.abs(b), axis=-1)


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


def _dominant_legs(scene: Scene, cfg: PropagationConfig, a, ends):
    """Dominant path of each leg from a to a row of `ends`, in order; None for
    a leg without one.

    One batched line-of-sight test covers every leg. A clear leg yields its
    LoS path whatever its loss: every reflection is both longer and
    attenuated by the bounce loss, so none is stronger or within a budget the
    LoS path exceeds. Every other leg yields the first of enumerate_paths; a
    leg whose ends coincide counts as blocked, so enumerate_paths rejects it.
    """
    a = np.asarray(a, dtype=float)
    ends = np.asarray(ends, dtype=float)
    near = _coincident(a, ends)
    clear = np.zeros(len(ends), dtype=bool)
    clear[~near] = segments_clear(scene, a, ends[~near])
    lam = cfg.wavelength
    for b, seen in zip(ends, clear):
        if seen:
            yield _los_path(a, b, lam)
        else:
            paths = enumerate_paths(scene, cfg, a, b, los=False)
            yield paths[0] if paths else None


def dominant_paths_from(scene: Scene, cfg: PropagationConfig, a, ends) -> list:
    """Dominant path of each leg from a to a row of `ends`, in order.
    NoPathError at the first leg without a path, before any later leg is formed."""
    paths = []
    for path in _dominant_legs(scene, cfg, a, ends):
        if path is None:
            raise NoPathError("no propagation path on this link")
        paths.append(path)
    return paths


def dominant_path_between(scene: Scene, cfg: PropagationConfig, a, b) -> PathRecord:
    "Dominant path of the link from a to b; NoPathError when it has none."
    return dominant_paths_from(scene, cfg, a, np.asarray(b, dtype=float)[None, :])[0]


def reachable_from(scene: Scene, cfg: PropagationConfig, a, ends) -> np.ndarray:
    """Whether enumerate_paths(scene, cfg, a, b) is non-empty for each row b
    of `ends`: a dominant path within pl_max_db."""
    return np.array([path is not None and path_loss_db(path) <= cfg.pl_max_db
                     for path in _dominant_legs(scene, cfg, a, ends)], dtype=bool)
