"""Link budget and the per-cell RIS gain shared by sizing and closure.

Channel amplitudes use the square root of linear power gains so that
``|h|^2`` reproduces the standard link budget Pr/Pt = Gt*Gr*(lambda/4 pi d)^2.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .units import db2lin, dbm2watt


@dataclass(frozen=True)
class LinkBudget:
    tx_power_dbm: float
    noise_psd_dbm_hz: float
    bandwidth_hz: float
    snr_threshold_db: float

    def __post_init__(self):
        if self.bandwidth_hz <= 0:
            raise InvalidInputError("bandwidth must be > 0")
        if self.snr_threshold_linear <= 0:  # a finite dB value can underflow
            raise InvalidInputError("SNR threshold must be positive")

    @property
    def tx_power_w(self) -> float:
        return float(dbm2watt(self.tx_power_dbm))

    @property
    def noise_power_w(self) -> float:
        "Full-band noise power: PSD integrated over the bandwidth."
        return float(dbm2watt(self.noise_psd_dbm_hz) * self.bandwidth_hz)

    @property
    def noise_psd_w_hz(self) -> float:
        return float(dbm2watt(self.noise_psd_dbm_hz))

    @property
    def snr_threshold_linear(self) -> float:
        return float(db2lin(self.snr_threshold_db))


# Panel field of view: directions further off boresight contribute nothing.
# Near grazing the effective aperture collapses and practical unit-cell
# patterns have rolled off, so the panel cannot serve such directions.
PANEL_FOV_RAD = np.deg2rad(80.0)


def unit_cell_amplitude_gain(boresight_angle, cell_area: float, lam: float):
    """Amplitude gain of one RIS cell toward a direction off its normal.

    From the effective aperture ``A_u cos(angle)``: power gain
    4 pi A_u cos / lambda^2. Two traversals of the panel multiply two of
    these, so M coherent cells at efficiency eta give the aperture gain
    eta * cos(in) * cos(out) * (M A_u)^2 * (4 pi / lambda^2)^2. Zero at or
    beyond the panel field of view. Elementwise over array angles.
    """
    angle = np.asarray(boresight_angle, dtype=float)
    c = np.where(angle < PANEL_FOV_RAD, np.cos(angle), 0.0)
    return np.sqrt(4.0 * np.pi * cell_area * c / lam**2)
