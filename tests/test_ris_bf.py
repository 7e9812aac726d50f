import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from risdeploy.arrays import Orientation, rotation_matrix
from risdeploy.errors import InvalidInputError
from risdeploy.evaluation import Panel, _leg, _panel_sum
from risdeploy.ris_bf import (codeword_index, codeword_phasors, quantization_efficiency,
                              ris_cell_positions)
from risdeploy.units import wavelength

from _oracles import quantize_phases_mod, same_bits

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
    # L = 2: codebook {0, pi/2, pi, 3pi/2}; exact midpoints round down; angles
    # below 0 count from 2 pi, and the codeword at 2 pi is codeword 0
    ideal = np.array([0.0, 1.0, np.pi / 4, -0.1, 3.2 - 2 * np.pi, -np.pi / 4, np.pi,
                      -np.pi])
    np.testing.assert_array_equal(codeword_index(ideal, 2), [0, 1, 0, 0, 2, 3, 2, 2])
    assert codeword_index(ideal, 2).dtype == np.intp
    with pytest.raises(InvalidInputError):
        codeword_index(ideal, 0)


@settings(max_examples=100, deadline=None)
@given(st.floats(-np.pi, np.pi), st.integers(1, 6))
def test_quantize_phase_error_bound(phase, bits):
    k = codeword_index(np.array([phase]), bits)[0]
    assert 0 <= k < 2**bits
    step = 2 * np.pi / 2**bits
    err = abs((phase - k * step + np.pi) % (2 * np.pi) - np.pi)
    assert err <= step / 2 + 1e-9


def _hard_angles(bits):
    """Angles in [-pi, pi] where the codeword rule can tip: signed zeros, +-pi,
    tiny negatives and both neighbours of every codeword midpoint."""
    step = 2 * np.pi / 2**bits
    mids = (np.arange(2**bits) + 0.5) * step
    mids = np.concatenate([mids, mids - 2 * np.pi])
    mids = mids[np.abs(mids) <= np.pi]
    near = np.concatenate([mids, np.nextafter(mids, np.inf), np.nextafter(mids, -np.inf)])
    # a tiny negative angle plus 2 pi rounds to exactly 2 pi
    edges = [0.0, -0.0, np.pi, -np.pi, np.nextafter(np.pi, 0), np.nextafter(-np.pi, 0),
             -1e-17, -5e-324, 5e-324, -1e-300, -np.finfo(float).eps]
    return np.clip(np.concatenate([near, edges]), -np.pi, np.pi)


@pytest.mark.parametrize("bits", range(1, 9))
def test_codeword_index_is_the_np_mod_rule(bits):
    angles = np.concatenate([
        _hard_angles(bits),
        np.angle([1, 1j] @ np.random.default_rng(bits).standard_normal((2, 10**6)))])
    step = 2 * np.pi / 2**bits
    old = quantize_phases_mod(np.mod(angles, 2 * np.pi), bits)
    index = codeword_index(angles, bits)
    assert same_bits(index * step, old)
    # the phasor table holds the exp of the old rule's phases
    assert same_bits(codeword_phasors(bits)[index], np.exp(1j * old))


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


def _focus(bits):
    """A panel with unit BS-leg amplitudes, and the traversal weights and
    focusing phasor of its comm (UE) and sense (UAV) legs."""
    ctx = types.SimpleNamespace(wavelength=LAM, cell_area=SPC**2,
                                cfg=types.SimpleNamespace(bits=bits))
    cells = ris_cell_positions(16, SPC, np.zeros(3), Orientation(0.0, 0.0))
    panel = Panel(index=0, cells=cells, axis=np.array([1.0, 0.0, 0.0]),
                  d_b=np.linalg.norm(cells - BS, axis=1), amp_b=np.ones(len(cells)),
                  ue_ends=UE[None, :], ue_bounce=np.ones(1))
    return panel, _leg(ctx, panel, UE, 1.0), _leg(ctx, panel, UAV, 1.0)


def test_dual_beam_single_beam_limit():
    panel, (_, comm), (_, sense) = _focus(2)
    d_ue = np.linalg.norm(panel.cells - UE, axis=1)
    rng = np.random.default_rng(2)
    weights = rng.standard_normal(len(panel.cells)) + 1j * rng.standard_normal(len(panel.cells))
    # the dual beam at beta = 1 is the comm beam, quantized through np.mod
    beam = np.sqrt(1.0) * comm + np.sqrt(0.0) * sense
    assert same_bits(beam, comm)
    quantized = np.exp(1j * quantize_phases_mod(2 * np.pi / LAM * (panel.d_b + d_ue), 2))
    h = _panel_sum(weights, beam, codeword_phasors(2), 2)
    np.testing.assert_allclose(h, np.sum(weights * quantized), rtol=1e-12)


def test_dual_beam_splits_coherent_power():
    panel, (_, comm), (_, sense) = _focus(8)
    m = len(panel.cells)

    def gains(beta):
        beam = np.sqrt(beta) * comm + np.sqrt(1.0 - beta) * sense
        # equal-amplitude weights: the conjugates of the two focusing phasors
        return tuple(abs(_panel_sum(np.conj(phasor), beam, codeword_phasors(8), 8)) ** 2
                     for phasor in (comm, sense))

    # equal weights give a near-symmetric split with substantial gain on both beams
    g_ue, g_uav = gains(0.5)
    assert g_ue == pytest.approx(g_uav, rel=0.01)
    assert 0.3 * m**2 < g_ue < 0.5 * m**2
    # shifting weight toward the UE beam moves power toward it monotonically
    curve = [gains(b) for b in (0.5, 0.6, 0.7, 0.8, 0.9, 1.0)]
    assert all(b[0] > a[0] and b[1] < a[1] for a, b in zip(curve, curve[1:]))
    assert curve[-1][0] == pytest.approx(m**2, rel=1e-3)
