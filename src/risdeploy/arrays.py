"""Panel orientation: rotations, orientation bounds and the panel normal.

Panels (RIS) lie in their local yz-plane with the normal along +x, so the
cosine of a direction's boresight angle is its local x component.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np


@dataclass(frozen=True)
class Orientation:
    """Panel orientation: rotation theta_r about y after psi_r about z."""

    theta_r: float
    psi_r: float

    @cached_property
    def normal(self) -> np.ndarray:
        "Global panel normal, formed once per orientation (do not modify it)."
        return panel_normal(self.theta_r, self.psi_r)


@dataclass(frozen=True)
class OrientationBounds:
    theta_low: float
    theta_high: float
    psi_low: float
    psi_high: float


def rotation_matrix(o: Orientation) -> np.ndarray:
    """Rotation R_z(psi_r) @ R_y(theta_r) taking the local frame to global."""
    ct, st = np.cos(o.theta_r), np.sin(o.theta_r)
    cp, sp = np.cos(o.psi_r), np.sin(o.psi_r)
    rz = np.array([[cp, -sp, 0.0], [sp, cp, 0.0], [0.0, 0.0, 1.0]])
    ry = np.array([[ct, 0.0, st], [0.0, 1.0, 0.0], [-st, 0.0, ct]])
    return rz @ ry


def panel_normal(theta_r, psi_r) -> np.ndarray:
    """Global panel normal (local +x) for orientation angles, elementwise.

    Equals the first column of ``rotation_matrix``; the result has the
    broadcast shape of the angles plus a trailing axis of length 3, so a
    column of thetas and a row of psis give the whole grid from one cosine
    and sine per angle.
    """
    return np.stack(np.broadcast_arrays(np.cos(psi_r) * np.cos(theta_r),
                                        np.sin(psi_r) * np.cos(theta_r), -np.sin(theta_r)),
                    axis=-1)
