"""RIS panel layout and L-bit phase quantization."""

import numpy as np

from .arrays import Orientation, rotation_matrix
from .errors import InvalidInputError


def ris_cell_positions(count_side: int, spacing: float, center, orientation: Orientation) -> np.ndarray:
    """Global positions of a square RIS's unit cells, shape (M, 3).

    Cells live on a centered grid in the panel's local yz-plane, in y-major,
    z-minor order.
    """
    idx_y = np.arange(count_side) - (count_side - 1) / 2.0
    idx_z = np.arange(count_side) - (count_side - 1) / 2.0
    yy, zz = np.meshgrid(idx_y, idx_z, indexing="ij")
    local = np.stack([np.zeros(count_side**2), yy.ravel() * spacing, zz.ravel() * spacing])
    return np.asarray(center, dtype=float) + (rotation_matrix(orientation) @ local).T


def quantize_phases(ideal: np.ndarray, bits: int) -> np.ndarray:
    """Map each phase to the nearest L-bit codeword on the circle.

    Codebook {2 pi l / 2^L}; exact midpoints resolve to the lower codeword.
    """
    if bits < 1:
        raise InvalidInputError("bits must be >= 1")
    n = 2**bits
    step = 2.0 * np.pi / n
    x = np.asarray(ideal, dtype=float) % (2.0 * np.pi)
    lower = np.floor(x / step)
    frac = x / step - lower
    idx = np.where(frac > 0.5, lower + 1, lower) % n
    return idx * step


def quantization_efficiency(bits: int) -> float:
    """Coherent power loss factor of uniform L-bit phase quantization.

    sinc^2(2^-L) with the normalized sinc; ~0.81 at L = 2, (2/pi)^2 at L = 1.
    """
    if bits < 1:
        raise InvalidInputError("bits must be >= 1")
    return float(np.sinc(2.0**-bits) ** 2)

