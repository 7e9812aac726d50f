"""Link budget and the per-cell RIS gain shared by sizing and closure.

Channel amplitudes use the square root of linear power gains so that
``|h|^2`` reproduces the standard link budget Pr/Pt = Gt*Gr*(lambda/4 pi d)^2.
"""

from dataclasses import dataclass
from functools import cached_property

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
        # a finite dB value can overflow to inf or underflow to 0 in linear units
        with np.errstate(over="ignore", under="ignore"):
            linear = [("tx_power_dbm", self.tx_power_w), ("noise_psd_dbm_hz", self.noise_psd_w_hz),
                      ("noise_psd_dbm_hz", self.noise_power_w),
                      ("snr_threshold_db", self.snr_threshold_linear)]
        for name, value in linear:
            if not 0.0 < value < np.inf:
                raise InvalidInputError(
                    f"{name} = {getattr(self, name)!r} has no finite positive linear value")

    @cached_property
    def tx_power_w(self) -> float:
        return float(dbm2watt(self.tx_power_dbm))

    @cached_property
    def noise_power_w(self) -> float:
        "Full-band noise power: PSD integrated over the bandwidth."
        return float(dbm2watt(self.noise_psd_dbm_hz) * self.bandwidth_hz)

    @cached_property
    def noise_psd_w_hz(self) -> float:
        return float(dbm2watt(self.noise_psd_dbm_hz))

    @cached_property
    def snr_threshold_linear(self) -> float:
        return float(db2lin(self.snr_threshold_db))


# Panel field of view: directions further than 80 degrees off boresight
# contribute nothing. Near grazing the effective aperture collapses and
# practical unit-cell patterns have rolled off, so the panel cannot serve such
# directions. A direction is in view when its cosine to the normal exceeds this.
PANEL_FOV_COS = float(np.cos(np.deg2rad(80.0)))


def cell_amplitude_gain(cos, cell_area: float, lam: float):
    """Amplitude gain of one RIS cell toward a direction at cosine `cos` to
    its normal.

    From the effective aperture ``A_u cos``: power gain 4 pi A_u cos /
    lambda^2. Two traversals of the panel multiply two of these, so M
    coherent cells at efficiency eta give the aperture gain eta * cos(in) *
    cos(out) * (M A_u)^2 * (4 pi / lambda^2)^2. Zero at or beyond the panel
    field of view (cos <= PANEL_FOV_COS). Elementwise over array cosines.
    """
    c = np.asarray(cos, dtype=float)
    return np.sqrt(4.0 * np.pi * cell_area * np.where(c > PANEL_FOV_COS, c, 0.0) / lam**2)
