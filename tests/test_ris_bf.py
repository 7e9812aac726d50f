import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from risdeploy.arrays import Orientation, rotation_matrix
from risdeploy.errors import InvalidInputError
from risdeploy.evaluation import _dual_beam_profile
from risdeploy.ris_bf import (quantization_efficiency, quantize_phases,
                              ris_cell_positions)
from risdeploy.units import wavelength

LAM = wavelength(28e9)
SPC = LAM / 2


def test_ris_cell_positions_layout():
    center = np.array([10.0, 20.0, 5.0])
    cells = ris_cell_positions(4, SPC, center, Orientation(0.0, 0.0))
    assert cells.shape == (16, 3)
    np.testing.assert_allclose(cells.mean(axis=0), center, atol=1e-12)
    # identity orientation: cells lie in the x = center_x plane
    np.testing.assert_allclose(cells[:, 0], 10.0, atol=1e-12)
    # y-major order: first 4 cells share y, step over z
    np.testing.assert_allclose(np.diff(cells[:4, 2]), SPC, atol=1e-12)
    np.testing.assert_allclose(cells[:4, 1], cells[0, 1], atol=1e-12)
    # neighbor spacing
    assert np.linalg.norm(cells[1] - cells[0]) == pytest.approx(SPC)
    assert np.linalg.norm(cells[4] - cells[0]) == pytest.approx(SPC)


def test_ris_cell_positions_rotation():
    center = np.zeros(3)
    orient = Orientation(0.4, 1.1)
    cells = ris_cell_positions(3, SPC, center, orient)
    # rotated cells live in the plane orthogonal to the panel normal
    normal = rotation_matrix(orient)[:, 0]
    assert np.max(np.abs(cells @ normal)) < 1e-12


def test_quantize_phases_oracle():
    # L = 2: codebook {0, pi/2, pi, 3pi/2}; exact midpoints round down
    ideal = np.array([0.0, 1.0, np.pi / 4, 2 * np.pi - 0.1, 3.2])
    np.testing.assert_allclose(quantize_phases(ideal, 2),
                               [0.0, np.pi / 2, 0.0, 0.0, np.pi])
    with pytest.raises(InvalidInputError):
        quantize_phases(ideal, 0)


@settings(max_examples=100, deadline=None)
@given(st.floats(0.0, 4 * np.pi), st.integers(1, 6))
def test_quantize_phase_error_bound(phase, bits):
    q = quantize_phases(np.array([phase]), bits)[0]
    step = 2 * np.pi / 2**bits
    err = abs((phase - q + np.pi) % (2 * np.pi) - np.pi)
    assert err <= step / 2 + 1e-9
    assert q in set(np.arange(2**bits) * step) | {0.0}


def test_quantization_efficiency_values():
    assert quantization_efficiency(1) == pytest.approx((2 / np.pi) ** 2)
    assert quantization_efficiency(2) == pytest.approx(0.8105694691387023)
    assert quantization_efficiency(8) == pytest.approx(1.0, abs=1e-4)
    # monotone in bits
    vals = [quantization_efficiency(b) for b in range(1, 8)]
    assert all(b > a for a, b in zip(vals, vals[1:]))


# Focused dual-beam profile of the closure: a 16 x 16 panel at the origin with
# its normal along +x, fed from the BS and serving one UE and one UAV point.
BS = np.array([50.0, 20.0, 5.0])
UE = np.array([40.0, -20.0, -3.0])
UAV = np.array([30.0, 0.0, 25.0])


def _focus_distances():
    cells = ris_cell_positions(16, SPC, np.zeros(3), Orientation(0.0, 0.0))
    return cells, *(np.linalg.norm(cells - p, axis=1) for p in (BS, UE, UAV))


def test_dual_beam_single_beam_limit():
    ctx = types.SimpleNamespace(wavelength=LAM, cfg=types.SimpleNamespace(bits=2))
    _, d_b, d_ue, d_uav = _focus_distances()
    comm = quantize_phases(np.mod(2 * np.pi / LAM * (d_b + d_ue), 2 * np.pi), 2)
    np.testing.assert_allclose(_dual_beam_profile(ctx, d_b, d_ue, d_uav, 1.0),
                               comm, atol=1e-12)
    np.testing.assert_allclose(_dual_beam_profile(ctx, d_b, d_ue, None, 0.4),
                               comm, atol=1e-12)


def test_dual_beam_splits_coherent_power():
    ctx = types.SimpleNamespace(wavelength=LAM, cfg=types.SimpleNamespace(bits=8))
    cells, d_b, d_ue, d_uav = _focus_distances()
    m = len(cells)
    kappa = 2 * np.pi / LAM

    def gains(beta):
        phi = _dual_beam_profile(ctx, d_b, d_ue, d_uav, beta)
        return tuple(abs(np.sum(np.exp(1j * (phi - kappa * (d_b + d))))) ** 2
                     for d in (d_ue, d_uav))

    # equal weights give a near-symmetric split with substantial gain on both beams
    g_ue, g_uav = gains(0.5)
    assert g_ue == pytest.approx(g_uav, rel=0.01)
    assert 0.3 * m**2 < g_ue < 0.5 * m**2
    # shifting weight toward the UE beam moves power toward it monotonically
    curve = [gains(b) for b in (0.5, 0.6, 0.7, 0.8, 0.9, 1.0)]
    assert all(b[0] > a[0] and b[1] < a[1] for a, b in zip(curve, curve[1:]))
    assert curve[-1][0] == pytest.approx(m**2, rel=1e-3)
