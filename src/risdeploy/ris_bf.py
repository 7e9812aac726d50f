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


def _check_bits(bits: int):
    if bits < 1:
        raise InvalidInputError("bits must be >= 1")


def codeword_index(angle: np.ndarray, bits: int) -> np.ndarray:
    """Index k of the nearest L-bit codeword 2 pi k / 2^L to each angle in
    [-pi, pi], as from np.angle; exact midpoints resolve to the lower codeword.

    The angle is first taken onto [0, 2 pi] as angle + 2 pi where negative,
    which is bit for bit np.mod(angle, 2 pi) on that domain (-0.0 included);
    the mask then folds the index of an exact 2 pi onto codeword 0.
    """
    _check_bits(bits)
    step = 2.0 * np.pi / 2**bits
    t = angle + (angle < 0.0) * (2.0 * np.pi)
    t /= step
    lower = np.floor(t)
    t -= lower
    return (lower + (t > 0.5)).astype(np.intp) & (2**bits - 1)


def codeword_phasors(bits: int) -> np.ndarray:
    "exp(j 2 pi k / 2^L) for each L-bit codeword k, shape (2^L,), indexed by codeword_index."
    _check_bits(bits)
    return np.exp(1j * (np.arange(2**bits) * (2.0 * np.pi / 2**bits)))


def quantization_efficiency(bits: int) -> float:
    """Coherent power loss factor of uniform L-bit phase quantization.

    sinc^2(2^-L) with the normalized sinc; ~0.81 at L = 2, (2/pi)^2 at L = 1.
    """
    _check_bits(bits)
    return float(np.sinc(2.0**-bits) ** 2)

