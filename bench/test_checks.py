"""Each benchmark check must reject a corrupted artifact.

Run from the repository root: python3 -m pytest bench -q

The deployment checks start from the artifacts of one real demo `run`
(about 8 s); the comparison check starts from a table with the demo's
shape.
"""

import copy
import json
import shutil
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
SCHEMAS = SRC / "risdeploy" / "schemas"
DEMO_CONFIG = SRC / "risdeploy" / "data" / "demo_config.json"

import checks  # noqa: E402
import city  # noqa: E402


@pytest.fixture(scope="module")
def demo(tmp_path_factory):
    "One full-isac demo run: its output directory, config and scene."
    sys.path.insert(0, str(SRC))
    from risdeploy import cli

    out = tmp_path_factory.mktemp("demo")
    assert cli.main(["run", "--config", str(DEMO_CONFIG), "--out", str(out),
                     "--mode", "full-isac"]) == 0
    cfg = json.loads(DEMO_CONFIG.read_text())
    scene = json.loads((DEMO_CONFIG.parent / cfg["scene"]).read_text())
    return out, cfg, scene


def _copy(demo, tmp_path) -> Path:
    out = tmp_path / "run"
    shutil.copytree(demo[0], out)
    return out


def test_pristine_run_passes(demo):
    out, cfg, scene = demo
    dep = checks.check_run_dir(out, cfg, scene, SCHEMAS)
    assert dep["converged"]


def test_infinity_in_gain_gap_rejected(demo, tmp_path):
    out = _copy(demo, tmp_path)
    dep = json.loads((out / "deployment.json").read_text())
    dep["gain_gap_db"][0] = float("inf")
    (out / "deployment.json").write_text(json.dumps(dep))  # writes Infinity
    assert "Infinity" in (out / "deployment.json").read_text()
    with pytest.raises(checks.CheckError, match="non-finite"):
        checks.check_run_dir(out, demo[1], demo[2], SCHEMAS)


def test_objective_disagreeing_with_sizes_rejected(demo, tmp_path):
    out = _copy(demo, tmp_path)
    dep = json.loads((out / "deployment.json").read_text())
    dep["objective"] *= 1.001
    (out / "deployment.json").write_text(json.dumps(dep))
    with pytest.raises(checks.CheckError, match="objective"):
        checks.check_run_dir(out, demo[1], demo[2], SCHEMAS)


def test_position_off_its_wall_rejected(demo, tmp_path):
    out = _copy(demo, tmp_path)
    dep = json.loads((out / "deployment.json").read_text())
    dep["positions"][0][1] -= 0.5  # half a metre in front of the face
    (out / "deployment.json").write_text(json.dumps(dep))
    with pytest.raises(checks.CheckError, match="mounting patch"):
        checks.check_run_dir(out, demo[1], demo[2], SCHEMAS)


def test_position_outside_patch_rejected(demo):
    dep = json.loads((demo[0] / "deployment.json").read_text())
    building = demo[2]["buildings"][dep["coverage"][0]["building"]]
    on_wall = dep["positions"][0]
    checks.check_on_wall(on_wall, building)
    with pytest.raises(checks.CheckError):
        checks.check_on_wall([on_wall[0], on_wall[1], 1.0], building)  # below the patch


def test_direct_range_off_by_a_bin_rejected(demo, tmp_path):
    out = _copy(demo, tmp_path)
    det = json.loads((out / "detections.json").read_text())
    for d in det["detections"]:
        if d["path_index_hypothesis"] == 0:
            d["range_est"] += 0.3  # two range bins
    (out / "detections.json").write_text(json.dumps(det))
    with pytest.raises(checks.CheckError, match="direct-path range"):
        checks.check_run_dir(out, demo[1], demo[2], SCHEMAS)


def test_estimate_missing_without_a_missed_path_rejected(demo, tmp_path):
    out = _copy(demo, tmp_path)
    (out / "positions.json").write_text(json.dumps(
        {"true_position": checks.uav_truth(demo[1], demo[2]),
         "error": "not all paths detected"}))
    with pytest.raises(checks.CheckError, match="no position estimate"):
        checks.check_run_dir(out, demo[1], demo[2], SCHEMAS)
    det = json.loads((out / "detections.json").read_text())
    det["detections"] = [d for d in det["detections"] if d["path_index_hypothesis"] != 1]
    (out / "detections.json").write_text(json.dumps(det))
    checks.check_run_dir(out, demo[1], demo[2], SCHEMAS)  # a reported partial detection


COMPARE = [
    {"mode": "full-isac", "status": "ok", "sizes_m": [0.8489, 0.5208],
     "total_area_m2": 0.991807, "coverage_pct": 100.0, "sensing": "satisfied",
     "objective": 0.0018762147257317865},
    {"mode": "comm-only", "status": "ok", "sizes_m": [0.2962, 0.2127],
     "total_area_m2": 0.132979, "coverage_pct": 100.0, "sensing": "not available",
     "objective": 0.0002603},
    {"mode": "pathloss-baseline", "status": "ok", "sizes_m": [0.9, 0.6],
     "total_area_m2": 1.17, "coverage_pct": 100.0, "sensing": "satisfied",
     "objective": 0.0022},
    {"mode": "passive-orientation", "status": "ok", "sizes_m": [0.9, 0.6],
     "total_area_m2": 1.17, "coverage_pct": 62.5, "sensing": "satisfied",
     "objective": 0.0022},
]


def test_pristine_comparison_passes():
    checks.validate(COMPARE, SCHEMAS, "comparison")
    checks.check_comparison(COMPARE, COMPARE[0]["objective"])


def test_comm_only_larger_than_full_isac_rejected():
    rows = copy.deepcopy(COMPARE)
    rows[1]["sizes_m"][0] = rows[0]["sizes_m"][0] + 0.1
    with pytest.raises(checks.CheckError, match="comm-only"):
        checks.check_comparison(rows)


def test_full_isac_row_disagreeing_with_run_rejected():
    with pytest.raises(checks.CheckError, match="run's"):
        checks.check_comparison(COMPARE, COMPARE[0]["objective"] * (1 + 1e-12))


def test_city_is_deterministic_and_valid():
    sys.path.insert(0, str(SRC))
    from risdeploy.scene import scene_from_dict

    assert city.make_scene(3) == city.make_scene(3)
    assert city.make_scene(3) != city.make_scene(4)
    scene = city.make_scene(3)
    checks.validate(scene, SCHEMAS, "scene")
    assert len(scene_from_dict(scene).buildings) == 2 * city.BLOCKS + city.FILLERS
