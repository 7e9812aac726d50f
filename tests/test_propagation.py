import numpy as np
import pytest

from risdeploy.errors import InvalidInputError, NoPathError
from risdeploy.propagation import (PathRecord, PropagationConfig, _coincident,
                                   dominant_path_between, enumerate_paths, fspl_amplitude)
from risdeploy.scene import Bounds, Building, Scene
from risdeploy.units import lin2db, wavelength

CFG = PropagationConfig(carrier_freq=28e9)
LAM = wavelength(28e9)


def open_scene(buildings=()):
    return Scene(buildings=tuple(buildings), bs_position=np.array([0.0, 0.0, 10.0]),
                 bounds=Bounds(np.array([-200.0, -200.0, 0.0]), np.array([200.0, 200.0, 100.0])))


def test_fspl_amplitude_frozen():
    # lambda / (4 pi d) at 28 GHz, d = 100 m
    assert fspl_amplitude(100.0, LAM) == pytest.approx(8.520259212923112e-06, rel=1e-12)
    # power law: amplitude falls as 1/d
    assert fspl_amplitude(200.0, LAM) == pytest.approx(fspl_amplitude(100.0, LAM) / 2.0)
    # 1 m at 28 GHz is about -61.4 dB path loss
    assert lin2db(fspl_amplitude(1.0, LAM) ** 2) == pytest.approx(-61.391, abs=2e-3)


def test_los_path_geometry():
    scn = open_scene()
    a = np.array([0.0, 0.0, 10.0])
    b = np.array([100.0, 0.0, 10.0])
    paths = enumerate_paths(scn, CFG, a, b)
    los = paths[0]
    assert los.kind == "los"
    assert los.length == pytest.approx(100.0)
    assert los.attenuation == pytest.approx(fspl_amplitude(100.0, LAM))
    np.testing.assert_allclose(los.depart_dir, [1.0, 0.0, 0.0], atol=1e-12)


def test_ground_reflection_length():
    scn = open_scene()
    a = np.array([0.0, 0.0, 10.0])
    b = np.array([100.0, 0.0, 10.0])
    paths = enumerate_paths(scn, CFG, a, b)
    ground = [p for p in paths if p.kind == "reflection"]  # no building to reflect off
    assert len(ground) == 1
    expected = np.hypot(100.0, 20.0)  # image of a at z = -10
    assert ground[0].length == pytest.approx(expected)
    assert ground[0].attenuation == pytest.approx(
        fspl_amplitude(expected, LAM) * 10 ** (-CFG.reflection_loss_db / 20.0))
    # the outgoing leg heads down to the bounce point midway, at ground level
    d = ground[0].depart_dir
    assert d[2] < 0
    np.testing.assert_allclose(a + (a[2] / -d[2]) * d, [50.0, 0.0, 0.0], atol=1e-9)


def test_wall_reflection_image_method():
    # wall at y = 10 facing -y; both endpoints at y = 0
    b = Building.box(-50.0, 50.0, 10.0, 20.0, 30.0)
    scn = open_scene([b])
    a = np.array([-30.0, 0.0, 5.0])
    c = np.array([30.0, 0.0, 5.0])
    paths = enumerate_paths(scn, CFG, a, c)
    reflections = [p for p in paths if p.kind == "reflection"]
    # the ground bounce heads down; the wall bounce stays level and heads for the wall
    wall = [p for p in reflections if p.depart_dir[2] == pytest.approx(0.0, abs=1e-12)]
    assert len(reflections) == 2 and len(wall) == 1
    # image of a across y = 10 is (-30, 20, 5); length via the image
    expected = np.linalg.norm(c - np.array([-30.0, 20.0, 5.0]))
    assert wall[0].length == pytest.approx(expected)
    # bounce point by symmetry is x = 0, y = 10: the outgoing leg points at it
    d = wall[0].depart_dir
    assert d[1] > 0
    np.testing.assert_allclose(a + (10.0 / d[1]) * d, [0.0, 10.0, 5.0], atol=1e-9)


def test_paths_sorted_and_truncated():
    scn = open_scene()
    a = np.array([0.0, 0.0, 10.0])
    b = np.array([100.0, 0.0, 10.0])
    paths = enumerate_paths(scn, CFG, a, b)
    atts = [p.attenuation for p in paths]
    assert atts == sorted(atts, reverse=True)


def test_pl_max_cutoff():
    scn = open_scene()
    a = np.array([0.0, 0.0, 10.0])
    b = np.array([100.0, 0.0, 10.0])
    # LoS at 100 m is ~101.4 dB; set the cap below that
    tight = PropagationConfig(carrier_freq=28e9, pl_max_db=95.0)
    assert enumerate_paths(scn, tight, a, b) == []
    blocked = open_scene([Building.box(45.0, 55.0, -5.0, 5.0, 30.0)])
    with pytest.raises(NoPathError):
        dominant_path_between(blocked, tight, a, b)


def test_blocked_los_falls_back_to_reflection():
    blocker = Building.box(45.0, 55.0, -5.0, 5.0, 30.0)
    wall = Building.box(-50.0, 150.0, 40.0, 50.0, 30.0)
    scn = open_scene([blocker, wall])
    a = np.array([0.0, 0.0, 10.0])
    b = np.array([100.0, 0.0, 10.0])
    best = dominant_path_between(scn, CFG, a, b)
    assert best.kind == "reflection"
    assert all(p.kind != "los" for p in enumerate_paths(scn, CFG, a, b))


def test_dominant_path_is_strongest():
    scn = open_scene()
    a = np.array([0.0, 0.0, 10.0])
    b = np.array([100.0, 0.0, 10.0])
    best = dominant_path_between(scn, CFG, a, b)
    assert best.kind == "los"
    assert best.attenuation == max(p.attenuation for p in enumerate_paths(scn, CFG, a, b))


def test_path_record_immutable():
    p = PathRecord("los", 1e-6, 10.0, np.ones(3) / np.sqrt(3))
    with pytest.raises(AttributeError):
        p.length = 5.0


def test_coincident_agrees_with_allclose():
    rng = np.random.default_rng(3)
    for scale in (0.0, 1.0, 150.0):
        b = rng.uniform(-1.0, 1.0, 3) * scale
        tol = 1e-8 + 1e-5 * np.abs(b)
        for axis in range(3):
            for factor in (0.0, 0.5, 0.999, 1.0, 1.001, 3.0):
                for sign in (1.0, -1.0):
                    a = b.copy()
                    a[axis] += sign * factor * tol[axis]
                    assert _coincident(a, b) == np.allclose(a, b)
    far = np.array([50.0, 0.0, 10.0])
    for fn in (enumerate_paths, dominant_path_between):
        with pytest.raises(InvalidInputError):
            fn(open_scene(), CFG, far, far + 1e-9)
