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
from .scene import Building, Scene, line_of_sight
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
    reflection_loss_db: float = 10.0
    pl_max_db: float = 160.0

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


def _reflection_path(scene: Scene, a, b, plane_point, plane_normal, on_face, lam, loss_amp):
    """Image-method reflection against one plane; None when invalid.

    `on_face` checks that the specular point lies inside the reflecting
    rectangle/half-plane.
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
    if not (_los_clear(scene, a, spec) and _los_clear(scene, spec, b)):
        return None
    length = float(np.linalg.norm(image_a - b))
    return PathRecord(kind="reflection", attenuation=fspl_amplitude(length, lam) * loss_amp,
                      length=length, depart_dir=_unit(spec - a))


def _face_checker(building: Building, face: int):
    origin, u_hat, length = building.face_frame(face)

    def on_face(point):
        rel = point - origin
        u = float(np.dot(rel, u_hat))
        return 1e-9 < u < length - 1e-9 and 1e-9 < point[2] < building.height - 1e-9

    return origin, on_face


def _coincident(a, b) -> bool:
    "np.allclose(a, b) at its default tolerances, without its generic overhead."
    return bool(np.all(np.abs(a - b) <= 1e-8 + 1e-5 * np.abs(b)))


def enumerate_paths(scene: Scene, cfg: PropagationConfig, a, b) -> list:
    """All modeled paths between two points, strongest first.

    Includes the LoS path when unobstructed and one specular reflection per
    visible building face and the ground. The list drops paths over
    ``pl_max_db`` total path loss and is sorted by attenuation descending
    (ties: shorter first).
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if _coincident(a, b):
        raise InvalidInputError("degenerate link: a == b")
    lam = cfg.wavelength
    loss_amp = 10.0 ** (-cfg.reflection_loss_db / 20.0)
    paths = []
    if line_of_sight(scene, a, b):
        paths.append(_los_path(a, b, lam))
    for building in scene.buildings:
        for face in range(building.num_faces):
            origin, on_face = _face_checker(building, face)
            normal = building.face_normal(face)
            rec = _reflection_path(scene, a, b, origin, normal, on_face, lam, loss_amp)
            if rec is not None:
                paths.append(rec)
    rec = _reflection_path(scene, a, b, np.zeros(3), np.array([0.0, 0.0, 1.0]),
                           lambda p: True, lam, loss_amp)
    if rec is not None:
        paths.append(rec)
    paths = [p for p in paths if path_loss_db(p) <= cfg.pl_max_db]
    paths.sort(key=lambda p: (-p.attenuation, p.length))
    return paths


def dominant_path_between(scene: Scene, cfg: PropagationConfig, a, b) -> PathRecord:
    """Dominant path of a link: the first of enumerate_paths, with a LoS
    fast path. NoPathError when the link has no path.

    A LoS path, when present, always dominates: every reflection is both
    longer and attenuated by the bounce loss.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if _coincident(a, b):
        raise InvalidInputError("degenerate link: a == b")
    if line_of_sight(scene, a, b):
        return _los_path(a, b, cfg.wavelength)
    paths = enumerate_paths(scene, cfg, a, b)
    if not paths:
        raise NoPathError("no propagation path on this link")
    return paths[0]
