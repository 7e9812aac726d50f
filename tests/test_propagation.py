import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from test_scene import _scene_and_fan, _scene_and_fans

from risdeploy import cli, propagation
from risdeploy.errors import InvalidInputError, NoPathError
from risdeploy.propagation import (PathRecord, PropagationConfig, _coincident, dominant_legs,
                                   dominant_path_between, enumerate_paths, fspl_amplitude,
                                   leg_geometry, reachable_from)
from risdeploy.scene import Bounds, Building, Scene, line_of_sight
from risdeploy.units import lin2db, wavelength

from _oracles import enumerate_paths_every_face, same_bits
from conftest import bench_city_config

CFG = PropagationConfig(carrier_freq=28e9, reflection_loss_db=10.0, pl_max_db=160.0)
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
    # the path is the straight leg to c's image (30, 20, 5) times the bounce
    # amplitude, and the LoS path the leg to c itself times 1
    loss = 10 ** (-CFG.reflection_loss_db / 20.0)
    assert wall[0].apparent.tolist() == [30.0, 20.0, 5.0] and wall[0].bounce_amp == loss
    length, unit = leg_geometry(a, wall[0].apparent[None, :])
    assert wall[0].length == length[0]
    assert wall[0].attenuation == fspl_amplitude(length[0], LAM) * loss
    assert same_bits(wall[0].depart_dir, unit[0])
    los = paths[0]
    assert los.kind == "los" and same_bits(los.apparent, c) and los.bounce_amp == 1.0


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
    tight = PropagationConfig(carrier_freq=28e9, reflection_loss_db=10.0, pl_max_db=95.0)
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


def test_leg_geometry_keeps_the_per_vector_rounding():
    # each leg's length, unit direction and cosine to an axis have the bits of
    # np.linalg.norm, d / norm and np.dot on that leg alone: 100,000 seeded
    # legs at scales from 1e-100 m to 1e100 m, a tenth of them along an axis
    rng = np.random.default_rng(17)
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    for scale in (1e-100, 1e-6, 1.0, 1e3, 1e100):
        a = rng.uniform(-1.0, 1.0, 3) * scale
        ends = a + rng.normal(size=(20_000, 3)) * scale
        for k in range(0, len(ends), 10):
            ends[k, np.arange(3) != k % 3] = a[np.arange(3) != k % 3]
        length, unit = leg_geometry(a, ends)
        norms = [np.linalg.norm(b - a) for b in ends]
        units = [(b - a) / norm for b, norm in zip(ends, norms)]
        assert same_bits(length, np.array(norms))
        assert same_bits(unit, np.array(units))
        assert same_bits(np.vecdot(unit, axis), np.array([np.dot(u, axis) for u in units]))


def test_path_record_immutable():
    p = PathRecord("los", 1e-6, 10.0, np.ones(3) / np.sqrt(3), np.ones(3), 1.0)
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


def _fields(paths):
    return [(p.kind, p.attenuation, p.length, tuple(p.depart_dir)) for p in paths]


def _same_legs(a, legs, paths) -> bool:
    """dominant_legs' arrays hold each path's apparent end and bounce amplitude,
    and the straight legs to them each path's attenuation and depart_dir, bit
    for bit, in order."""
    apparent, bounce = legs
    length, dirs = leg_geometry(a, apparent)
    return (same_bits(apparent, np.reshape([p.apparent for p in paths], (-1, 3)))
            and same_bits(bounce, np.array([p.bounce_amp for p in paths], dtype=float))
            and same_bits(fspl_amplitude(length, LAM) * bounce,
                          np.array([p.attenuation for p in paths], dtype=float))
            and same_bits(dirs, np.reshape([p.depart_dir for p in paths], (-1, 3))))


def test_enumerate_paths_takes_a_known_los_answer(monkeypatch):
    # the known answer replaces the direct leg's test and nothing else: the
    # reflections still test their own legs
    scn = open_scene([Building.box(45.0, 55.0, -5.0, 5.0, 30.0),
                      Building.box(-50.0, 150.0, 40.0, 50.0, 30.0)])
    a = np.array([0.0, 0.0, 10.0])
    ends = np.array([[100.0, 0.0, 10.0], [30.0, 20.0, 10.0]])
    assert [line_of_sight(scn, a, b) for b in ends] == [False, True]
    tests = []

    def counted(*args):
        tests.append(args)
        return line_of_sight(*args)

    monkeypatch.setattr(propagation, "line_of_sight", counted)
    reflection_tests = []
    for b in ends:
        del tests[:]
        want = _fields(enumerate_paths(scn, CFG, a, b))
        tested = len(tests)
        del tests[:]
        assert _fields(enumerate_paths(scn, CFG, a, b, los=line_of_sight(scn, a, b))) == want
        assert len(tests) == tested - 1
        reflection_tests.append(tested - 1)
    # the batched legs: the batch tests each direct leg, and the blocked leg
    # pays only for its reflections; each row has the bits of the leg's own
    # dominant_path_between
    want = [dominant_path_between(scn, CFG, a, b) for b in ends]
    del tests[:]
    assert _same_legs(a, dominant_legs(scn, CFG, a, ends), want)
    assert len(tests) == reflection_tests[0] > 0


@st.composite
def _fan_and_budget(draw):
    """A fan of legs from one point (test_scene) and a path-loss budget. Half
    the scenes gain a tall pillar in the middle, which blocks many legs, and a
    long wall beside the fan for them to reflect off. On legs of up to ~20 m
    at 28 GHz, 70 dB leaves long clear legs over budget and cuts every
    reflection; 160 dB keeps every path."""
    scn, a, ends = draw(_scene_and_fan())
    assume(not np.any(_coincident(a, ends)))
    if draw(st.booleans()):
        scn = dataclasses.replace(scn, buildings=scn.buildings + (
            Building.box(4.0, 6.0, 4.0, 6.0, 30.0), Building.box(-20.0, 30.0, 13.0, 14.0, 30.0)))
    pl_max_db = draw(st.sampled_from([70.0, 160.0]))
    return scn, PropagationConfig(28e9, reflection_loss_db=10.0, pl_max_db=pl_max_db), a, ends


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_fan_and_budget())
def test_leg_queries_are_one_pass_over_enumerate_paths(case):
    # a clear leg's dominant path is its LoS path, within budget or not; any
    # other leg's is the first of enumerate_paths, or none
    scn, cfg, a, ends = case
    want = []
    for b in ends:
        if line_of_sight(scn, a, b):
            los = enumerate_paths(scn, dataclasses.replace(cfg, pl_max_db=np.inf), a, b)[0]
            assert los.kind == "los"
            want.append(los)
        else:
            paths = enumerate_paths(scn, cfg, a, b)
            want.append(paths[0] if paths else None)
    assert reachable_from(scn, cfg, a, ends).tolist() == [
        bool(enumerate_paths(scn, cfg, a, b)) for b in ends]
    for b, path in zip(ends, want):
        if path is None:
            with pytest.raises(NoPathError):
                dominant_path_between(scn, cfg, a, b)
        else:
            assert _fields([dominant_path_between(scn, cfg, a, b)]) == _fields([path])
    first_none = next((k for k, path in enumerate(want) if path is None), None)
    formed = []

    def counted(scene, cfg, a, b, **kwargs):
        formed.append(b)
        return enumerate_paths(scene, cfg, a, b, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(propagation, "enumerate_paths", counted)
        if first_none is None:
            assert _same_legs(a, dominant_legs(scn, cfg, a, ends), want)
        else:  # the legs after the first without a path are never formed
            with pytest.raises(NoPathError):
                dominant_legs(scn, cfg, a, ends)
    blocked = [b for b in ends[:len(ends) if first_none is None else first_none + 1]
               if not line_of_sight(scn, a, b)]
    assert np.array_equal(np.reshape(formed, (-1, 3)), np.reshape(blocked, (-1, 3)))


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_scene_and_fans(), st.sampled_from([70.0, 160.0]))
def test_reachable_from_takes_a_start_per_leg(case, pl_max_db):
    # legs from many starts in one call answer as each leg on its own; the
    # legs from the first start answer the same from that point alone
    scn, starts, ends = case
    assume(not np.any(_coincident(starts, ends)))
    cfg = dataclasses.replace(CFG, pl_max_db=pl_max_db)
    reach = reachable_from(scn, cfg, starts, ends)
    assert reach.tolist() == [bool(enumerate_paths(scn, cfg, a, b)) for a, b in zip(starts, ends)]
    same = np.all(starts == starts[0], axis=1)
    assert reachable_from(scn, cfg, starts[0], ends[same]).tolist() == reach[same].tolist()


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_scene_and_fan(), st.integers(0, 6), st.sampled_from([0.0, 1e-9]))
def test_leg_queries_reject_coincident_ends(case, k, offset):
    scn, a, ends = case
    assume(not np.any(_coincident(a, ends)))
    b = a + offset
    k = min(k, len(ends))
    fan = np.insert(ends, k, b, axis=0)
    with pytest.raises(InvalidInputError):
        dominant_path_between(scn, CFG, a, b)
    with pytest.raises(InvalidInputError):
        reachable_from(scn, CFG, a, fan)
    # the legs before it come first: one without a path raises on its own
    earlier_ok = all(line_of_sight(scn, a, e) or enumerate_paths(scn, CFG, a, e)
                     for e in ends[:k])
    with pytest.raises(InvalidInputError if earlier_ok else NoPathError):
        dominant_legs(scn, CFG, a, fan)


def _floor_db(cfg, a, b) -> float:
    "Loss of the direct leg from a to b plus the bounce loss: no reflection loses less."
    return float(-20.0 * np.log10(fspl_amplitude(float(np.linalg.norm(b - a)), cfg.wavelength)
                                  * 10.0 ** (-cfg.reflection_loss_db / 20.0)))


@st.composite
def _legs_near_the_floor(draw):
    """Legs from one point, each with a budget offset from its floor: within
    1e-6 dB of it, or below the leg's LoS loss. The legs are a fan
    (_fan_and_budget) or one leg just above the ground, whose ground bounce
    is longer than the leg by so little that its loss lies within 1e-6 dB of
    the floor."""
    if draw(st.booleans()):
        scn, cfg, a, ends = draw(_fan_and_budget())
    else:
        height = st.floats(1e-4, 3e-3)
        scn, cfg, a = open_scene(), CFG, np.array([0.0, 0.0, draw(height)])
        ends = np.array([[draw(st.floats(5.0, 50.0)), draw(st.floats(-5.0, 5.0)), draw(height)]])
    offset = st.one_of(st.floats(-1e-6, 1e-6), st.floats(-15.0, -10.01))  # -10 dB: LoS loss
    return scn, cfg, a, ends, draw(st.lists(offset, min_size=len(ends), max_size=len(ends)))


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_legs_near_the_floor())
def test_reflection_loss_floor_keeps_every_path(case):
    # at budgets around the floor, and below an LoS leg's loss, the floor drops
    # nothing the every-face loop keeps, and keeps nothing over the budget
    scn, cfg, a, ends, offsets = case
    for b, offset in zip(ends, offsets):
        leg = dataclasses.replace(cfg, pl_max_db=_floor_db(cfg, a, b) + offset)
        for los in (None, line_of_sight(scn, a, b)):
            assert (_fields(enumerate_paths(scn, leg, a, b, los=los))
                    == _fields(enumerate_paths_every_face(scn, leg, a, b, los=los)))


def test_reflection_loss_floor_answers_the_bench_city(tmp_path, monkeypatch):
    # building the bench city's context and planning it: the floor answers
    # at least 461 of the enumerate_paths calls (464 at this writing), which
    # then form no reflection
    faces = []
    walk, enumerate_all = propagation._reflection_path, propagation.enumerate_paths

    def reflection(*args):
        faces[-1] += 1
        return walk(*args)

    def counted(*args, **kwargs):
        faces.append(0)
        return enumerate_all(*args, **kwargs)

    monkeypatch.setattr(propagation, "_reflection_path", reflection)
    monkeypatch.setattr(propagation, "enumerate_paths", counted)
    cli.optimize(cli.build_context(cli.load_config(bench_city_config(tmp_path))))
    answered = faces.count(0)
    assert answered >= 461, (answered, len(faces))
