import numpy as np
import pytest
from hypothesis import given, strategies as st

from risdeploy.arrays import (Orientation, OrientationBounds, panel_normal,
                              rotation_matrix)
from risdeploy.optimizer import orientation_search

angles = st.floats(min_value=-np.pi, max_value=np.pi)


@given(angles, angles)
def test_rotation_matrix_orthonormal(theta, psi):
    r = rotation_matrix(Orientation(theta, psi))
    np.testing.assert_allclose(r @ r.T, np.eye(3), atol=1e-12)
    assert np.linalg.det(r) == pytest.approx(1.0, abs=1e-12)


def test_rotation_matrix_identity_and_axis():
    np.testing.assert_allclose(rotation_matrix(Orientation(0.0, 0.0)), np.eye(3), atol=1e-15)
    # psi_r = pi/2 turns the panel normal from +x to +y
    r = rotation_matrix(Orientation(0.0, np.pi / 2))
    np.testing.assert_allclose(r[:, 0], [0.0, 1.0, 0.0], atol=1e-12)
    # theta_r > 0 tilts the normal downward
    r = rotation_matrix(Orientation(np.pi / 6, 0.0))
    np.testing.assert_allclose(r[:, 0], [np.cos(np.pi / 6), 0.0, -np.sin(np.pi / 6)], atol=1e-12)


@given(angles, angles)
def test_panel_normal_is_rotated_x_axis(theta, psi):
    np.testing.assert_allclose(panel_normal(theta, psi),
                               rotation_matrix(Orientation(theta, psi))[:, 0], atol=1e-12)


def test_panel_normal_elementwise():
    tg, pg = np.meshgrid([-0.5, 0.0, 0.7], [0.1, 2.0], indexing="ij")
    axes = panel_normal(tg, pg)
    assert axes.shape == (3, 2, 3)
    for i in range(3):
        for j in range(2):
            np.testing.assert_array_equal(axes[i, j], panel_normal(tg[i, j], pg[i, j]))


def test_orientation_bounds():
    # BS and UE mirrored about +x: the unconstrained optimum is boresight on
    # +x (psi_r = 0), which these bounds exclude, so the search stops at the
    # nearest edge and never leaves the bounds
    ris = np.zeros(3)
    bs = np.array([100.0, 30.0, 0.0])
    ue = np.array([[100.0, -30.0, 0.0]])
    b = OrientationBounds(-0.5, 0.5, 0.2, 1.0)
    o = orientation_search(ris, bs, ue, None, b)
    assert b.theta_low <= o.theta_r <= b.theta_high
    assert b.psi_low <= o.psi_r <= b.psi_high
    assert o.psi_r == pytest.approx(0.2, abs=1e-9)
    assert abs(o.theta_r) < np.deg2rad(0.2)
