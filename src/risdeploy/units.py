"""Physical constants and unit helpers."""

import numpy as np

SPEED_OF_LIGHT = 299792458.0
"Speed of light in m/s."


def db2lin(x):
    "Power ratio from dB."
    return 10.0 ** (np.asarray(x, dtype=float) / 10.0)


def lin2db(x):
    "dB from linear power ratio."
    return 10.0 * np.log10(x)


def dbm2watt(x):
    "Watts from dBm."
    return 10.0 ** ((np.asarray(x, dtype=float) - 30.0) / 10.0)


def wavelength(carrier_freq_hz: float) -> float:
    "Carrier wavelength in meters."
    return SPEED_OF_LIGHT / carrier_freq_hz
