import ast
import contextlib
import dataclasses
import io
import json
import logging
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
from importlib import resources
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from risdeploy import cli, evaluation, optimizer, radar
from risdeploy.errors import (RisDeployError, SceneFormatError, SizeCapError,
                              UnreachableTargetsError)

from conftest import demo_config_path, load_strict
from test_scene import _footprints


def _schema(name):
    path = resources.files("risdeploy").joinpath(f"schemas/{name}.schema.json")
    with open(str(path)) as fh:
        return json.load(fh)


def _validate(instance, name):
    jsonschema.validate(instance, _schema(name),
                        format_checker=jsonschema.FormatChecker())


def _as_json(cfg: cli.Config) -> dict:
    "A config as the JSON object it was read from (tuples become lists)."
    return json.loads(json.dumps(dataclasses.asdict(cfg)))


def test_load_config_defaults_and_overrides(tmp_path):
    scene = {"buildings": [], "bs": [1, 1, 1],
             "bounds": {"lo": [0, 0, 0], "hi": [10, 10, 10]}}
    (tmp_path / "scene.json").write_text(json.dumps(scene))
    (tmp_path / "cfg.json").write_text(json.dumps({"scene": "scene.json", "bits": 3}))
    cfg = cli.load_config(tmp_path / "cfg.json")
    assert cfg.bits == 3
    assert cfg.carrier_hz == 28e9  # default retained
    assert Path(cfg.scene).is_absolute()  # relative path resolved
    _validate(_as_json(cfg), "config")


def test_load_config_env_override(tmp_path, monkeypatch):
    (tmp_path / "cfg.json").write_text(json.dumps({"scene": "s.json"}))
    monkeypatch.setenv("RISDEPLOY_SEED", "42")
    monkeypatch.setenv("RISDEPLOY_PL_MAX_DB", "111.5")
    cfg = cli.load_config(tmp_path / "cfg.json")
    assert cfg.seed == 42
    assert cfg.pl_max_db == 111.5


def test_env_override_invalid_json_is_bad_input(tmp_path, monkeypatch, capsys):
    (tmp_path / "cfg.json").write_text(json.dumps({"scene": "s.json"}))
    monkeypatch.setenv("RISDEPLOY_SEED", "abc")
    code = cli.main(["run", "--config", str(tmp_path / "cfg.json"),
                     "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_BAD_INPUT
    err = json.loads(capsys.readouterr().out)
    assert err["error"] == "SceneFormatError"
    assert "RISDEPLOY_SEED" in err["message"]


def test_load_config_rejects_unknown_and_bad_mode(tmp_path):
    (tmp_path / "bad.json").write_text(json.dumps({"scene": "s.json", "toggle": 1}))
    with pytest.raises(SceneFormatError):
        cli.load_config(tmp_path / "bad.json")
    (tmp_path / "mode.json").write_text(json.dumps({"scene": "s.json", "mode": "x"}))
    with pytest.raises(SceneFormatError):
        cli.load_config(tmp_path / "mode.json")
    (tmp_path / "noscene.json").write_text(json.dumps({"bits": 2}))
    with pytest.raises(SceneFormatError):
        cli.load_config(tmp_path / "noscene.json")
    (tmp_path / "garbage.json").write_text("{not json")
    with pytest.raises(SceneFormatError):
        cli.load_config(tmp_path / "garbage.json")
    (tmp_path / "list.json").write_text("[1]")
    with pytest.raises(SceneFormatError):
        cli.load_config(tmp_path / "list.json")


def test_demo_config_valid_against_schema(demo_cfg):
    _validate(_as_json(demo_cfg), "config")
    with open(demo_cfg.scene) as fh:
        _validate(json.load(fh), "scene")


def test_build_context_structure(ctx_full):
    assert len(ctx_full.regions) >= 1
    covered = set()
    for region in ctx_full.regions:
        covered.update(region.covered_cells)
    uncovered = [i for i, c in enumerate(ctx_full.ue_grid.centers)
                 if not __import__("risdeploy.scene", fromlist=["line_of_sight"])
                 .line_of_sight(ctx_full.scene, ctx_full.scene.bs_position, c)]
    assert covered == set(uncovered)
    assert len(ctx_full.uav_grid) >= 1


def test_run_pipeline_artifacts(run_dir, ctx_full):
    expected = {"deployment.json", "convergence.csv", "run.log",
                "detections.json", "positions.json", "rv_map.csv"}
    names = {p.name for p in run_dir.iterdir()}
    assert expected <= names
    assert any(n.startswith("snr_map_") for n in names)
    dep = load_strict(run_dir / "deployment.json")
    _validate(dep, "deployment")
    assert dep["mode"] == "full-isac"
    assert dep["converged"] is True
    assert len(dep["positions"]) == len(ctx_full.regions)
    _validate(load_strict(run_dir / "detections.json"), "detections")
    pos = load_strict(run_dir / "positions.json")
    _validate(pos, "positions")
    assert "estimate" in pos
    assert pos["error_m"] < 1.0
    # convergence trace: header plus one row per iteration, objective column
    lines = (run_dir / "convergence.csv").read_text().strip().splitlines()
    assert lines[0].startswith("iteration,best_objective")
    assert len(lines) - 1 == dep["iterations"]


def test_run_pipeline_deterministic_deployment(run_dir, demo_cfg, tmp_path):
    code = cli.run_pipeline(dataclasses.replace(demo_cfg, mode="full-isac"), tmp_path / "again")
    assert code == cli.EXIT_OK
    with open(run_dir / "deployment.json") as fh:
        first = json.load(fh)
    with open(tmp_path / "again" / "deployment.json") as fh:
        second = json.load(fh)
    assert first == second


def test_compare_modes_artifacts(compare_rows):
    assert [r["mode"] for r in compare_rows] == list(cli.MODES)
    assert all(r["status"] == "ok" for r in compare_rows)
    _validate(compare_rows, "comparison")
    comm = next(r for r in compare_rows if r["mode"] == "comm-only")
    assert comm["sensing"] == "not available"


def test_compare_builds_one_context_and_one_frame(compare_run):
    _, calls = compare_run
    assert calls == {"build_context": 1, "qpsk_symbols": 1}


def test_run_draws_one_frame(pipeline_run):
    # the radar stage reuses the context's frame
    _, calls = pipeline_run
    assert calls == {"build_context": 1, "qpsk_symbols": 1}


def test_run_log_has_stage_timings(run_dir):
    log = (run_dir / "run.log").read_text()
    for stage in ("context", "optimize", "closure", "radar"):
        assert re.search(rf"INFO stage {stage}: \d+\.\d{{3}} s$", log, re.MULTILINE), stage
    mb = []  # each timing line is followed by the peak RSS so far and the stage's minor faults
    for stage in ("context", "optimize", "closure", "radar"):
        found = re.search(rf"INFO stage {stage}: \d+\.\d{{3}} s\n"
                          rf"\S+ \S+ INFO stage {stage} peak_rss: (\d+\.\d) MB, "
                          rf"minor faults: (\d+)$", log, re.MULTILINE)
        assert found, stage
        mb.append(float(found[1]))
        assert int(found[2]) > 0, stage
    assert mb == sorted(mb) and mb[0] > 0.0
    # after the optimize stage, the optimizer's evaluation and failure counts
    counts = re.search(r"INFO stage optimize peak_rss: \d+\.\d MB, minor faults: \d+\n"
                       r"\S+ \S+ INFO optimizer: "
                       r"(\d+) placements evaluated, (\d+) unreachable "
                       r"\((\d+) over size_cap\)$", log, re.MULTILINE)
    assert counts, "optimizer counts"
    assert 0 <= int(counts[3]) <= int(counts[2]) < int(counts[1])
    # after the closure stage, one line per RIS with the size of its synthesis
    with open(run_dir / "deployment.json") as fh:
        dep = json.load(fh)
    closure = log[log.index("INFO stage closure peak_rss"):]
    lines = re.findall(r"INFO closure RIS (\d+): (\d+) panel cells, (\d+) cells x (\d+) UAV "
                       r"columns synthesised in \d+\.\d{3} s$", closure, re.MULTILINE)
    n_uav = len(dep["omega_per_uav"])
    assert [tuple(map(int, line)) for line in lines] == [
        (n, size["cells_per_side"] ** 2, len(cov["covered_cells"]), n_uav)
        for n, (size, cov) in enumerate(zip(dep["sizes"], dep["coverage"]))]


def test_run_log_reports_the_cfar_work(run_dir, demo_cfg):
    # within the radar stage, how much of the map the CFAR judged: on the demo
    # the paths are the strongest local maxima, so it judges one per path and
    # forms the range pass only for the rows their blocks reach
    log = (run_dir / "run.log").read_text()
    found = re.search(r"INFO radar CFAR: judged (\d+) of (\d+) local maxima, (\d+) of (\d+) "
                      r"row blocks, range prefix (\d+) of (\d+) rows$", log, re.MULTILINE)
    assert found and found.start() < log.index("INFO stage radar:")
    judged, maxima, blocks_judged, blocks, prefix, rows = map(int, found.groups())
    detections = load_strict(run_dir / "detections.json")
    assert detections["warning"] is None
    assert judged == len(detections["detections"]) == len(detections["expected_ranges_m"])
    assert rows == demo_cfg.subcarriers and blocks == -(-rows // radar.ROW_BLOCK)
    assert judged < maxima and 1 <= blocks_judged <= judged
    assert prefix % radar.ROW_BLOCK == 0 and 0 < prefix < rows


def test_compare_log_has_stage_timings(compare_dir):
    # one context stage, then per mode a mode line and its optimize and closure stages
    log = (compare_dir / "run.log").read_text()
    stage = (r"INFO stage (?P<stage>\w+): \d+\.\d{3} s\n"
             r"\S+ \S+ INFO stage (?P=stage) peak_rss: \d+\.\d MB, minor faults: \d+$")
    stages = re.findall(rf"INFO mode ([\w-]+)$|{stage}", log, re.MULTILINE)
    expected = [("", "context")]
    for mode in cli.MODES:
        expected += [(mode, ""), ("", "optimize"), ("", "closure")]
    assert stages == expected


def test_optimizer_counts_are_the_step1_calls(ctx_full, monkeypatch):
    # the counts run.log reports are the step-1 evaluations the search made
    # (resampled initial vertices included) and the ones that raised
    calls = {"evaluated": 0, "unreachable": 0}
    step1_evaluate = optimizer.step1_evaluate

    def counting(*args, **kwargs):
        calls["evaluated"] += 1
        try:
            return step1_evaluate(*args, **kwargs)
        except UnreachableTargetsError:
            calls["unreachable"] += 1
            raise

    monkeypatch.setattr(optimizer, "step1_evaluate", counting)
    result = cli.optimize(ctx_full)
    assert (result.evaluations, result.unreachable) == (calls["evaluated"],
                                                        calls["unreachable"])
    assert calls["unreachable"] > 0


def test_importing_the_cli_loads_no_scipy():
    src = Path(cli.__file__).resolve().parents[1]
    code = ("import sys, risdeploy.cli; "
            "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, env={**os.environ, "PYTHONPATH": str(src)})
    assert done.stdout.strip() == "[]"


def test_radar_stage_holds_at_most_two_and_a_half_frames(demo_cfg, tmp_path, monkeypatch):
    # tracing starts before build_context, so the context's probing frame counts;
    # the echo frame, the float32 map and the CFAR's local maxima and range means
    frame_bytes = 8 * demo_cfg.subcarriers * demo_cfg.symbols  # one complex64 frame
    peaks = []
    radar_stage = cli.radar_stage

    def traced(*args, **kwargs):
        tracemalloc.reset_peak()
        radar_stage(*args, **kwargs)
        peaks.append(tracemalloc.get_traced_memory()[1])

    monkeypatch.setattr(cli, "radar_stage", traced)
    tracemalloc.start()
    try:  # one iteration: the radar stage is the same at any plan
        code = cli.run_pipeline(
            dataclasses.replace(demo_cfg, max_iterations=1, mode="full-isac"), tmp_path)
    finally:
        tracemalloc.stop()
    assert code in (cli.EXIT_OK, cli.EXIT_NOT_CONVERGED)
    assert len(peaks) == 1
    assert peaks[0] <= 2.5 * frame_bytes, peaks[0] / frame_bytes


def test_radar_json_refuses_non_finite_values(ctx_full, nm_result, tmp_path, monkeypatch):
    # a residual is finite by construction; were it not, the stage would fail
    # typed instead of writing NaN into positions.json, or part of it
    solve = cli.radar.ls_position
    monkeypatch.setattr(cli.radar, "ls_position",
                        lambda *a, **kw: (solve(*a, **kw)[0], float("nan")))
    with pytest.raises(RisDeployError, match="^positions.json: .*JSON compliant"):
        cli.radar_stage(ctx_full, nm_result.step1, tmp_path, logging.getLogger("test"))
    load_strict(tmp_path / "detections.json")
    assert not (tmp_path / "positions.json").exists()


@pytest.mark.parametrize("name, value", [("SEED", '"x"'), ("SEED", "true"), ("SEED", "-1"),
                                         ("BETA_GRID", "[]"), ("BETA_GRID", "0.5"),
                                         ("BETA_GRID", "[0.5, 1.0]"), ("SCENE", "5"),
                                         ("EFFICIENCY", '"x"'), ("UAV_VELOCITY", "[1,2]"),
                                         ("UE_HEIGHT", "null"), ("BITS", "2.7"),
                                         ("REF_CELLS_PER_SIDE", "20.5"), ("BITS", '"2"'),
                                         ("BS_ARRAY", "4"), ("RADAR_NOISE", '"no"'),
                                         ("DETECTION_THRESHOLD_DB", '"12"'), ("M_S", "-1"),
                                         ("M_S", "0"), ("EFFICIENCY", "5"),
                                         ("EFFICIENCY", "0"), ("BITS", "0"),
                                         ("REF_CELLS_PER_SIDE", "0"), ("D_MIN", "-1"),
                                         ("MAX_ITERATIONS", "0"), ("RCS", "-1"),
                                         ("SIZE_CAP", "-1"), ("TX_POWER_DBM", "NaN"),
                                         ("UE_HEIGHT", "NaN"), ("CARRIER_HZ", "Infinity"),
                                         ("UAV_VELOCITY", "[NaN,0,0]"),
                                         ("NOISE_PSD_DBM_HZ", "-1e400"),
                                         ("UE_CELL_SIZE", "-1"), ("SYMBOLS", "0"),
                                         ("REFLECTION_LOSS_DB", "-1")])
def test_bad_config_value_is_bad_input(name, value, monkeypatch, capsys, tmp_path):
    monkeypatch.setenv("RISDEPLOY_" + name, value)
    # comm-only: the mode in which a wrong EFFICIENCY or UE_HEIGHT used to fail untyped
    monkeypatch.setenv("RISDEPLOY_MODE", '"comm-only"')
    for command in (["run"], ["compare", "--modes", *cli.MODES]):
        out = tmp_path / command[0]
        code = cli.main([*command, "--config", demo_config_path(), "--out", str(out)])
        assert code == cli.EXIT_BAD_INPUT
        err = json.loads(capsys.readouterr().out)
        assert err["error"] == "SceneFormatError" and err["field"] == name.lower()
        assert err["message"].startswith(name.lower() + ":")
        _assert_left(out, command, err)


def _assert_left(out, command, record):
    "The record printed on stdout is error.json (run), or each mode's failed row (compare)."
    if command[0] == "run":
        assert load_strict(out / "error.json") == record
    else:
        rows = load_strict(out / "comparison.json")
        _validate(rows, "comparison")
        assert rows == [{"mode": m, "status": "failed", **record} for m in command[2:]]


# what Python's JSON parser can return for a scalar, NaN and the infinities included
_JSON_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(),
                          st.sampled_from([float("nan"), float("inf"), float("-inf")]),
                          st.text(max_size=12))


@settings(max_examples=400, deadline=None)
@given(name=st.sampled_from([f.name for f in dataclasses.fields(cli.Config)]),
       value=st.one_of(_JSON_SCALARS, st.lists(_JSON_SCALARS, max_size=4)))
def test_config_takes_a_json_value_or_names_its_field(name, value):
    # any JSON value of any field builds a Config or is rejected as that field's
    try:
        cfg = cli.Config(**{"scene": "s.json", name: value})
    except SceneFormatError as exc:
        assert exc.field == name
    else:  # which holds finite numbers only
        json.dumps(dataclasses.asdict(cfg), allow_nan=False)


def test_config_agrees_with_schema(tmp_path):
    schema = _schema("config")
    fields = {f.name: f for f in dataclasses.fields(cli.Config)}
    assert list(schema["properties"]) == list(fields)
    assert schema["required"] == ["scene"]
    assert all(f.default is not dataclasses.MISSING for name, f in fields.items()
               if name != "scene")
    _validate(_as_json(cli.Config(scene="s.json")), "config")
    with open(demo_config_path()) as fh:
        _validate(json.load(fh), "config")
    # the config accepts a value exactly when jsonschema does, types and bounds alike
    mismatches = []
    for name, prop in schema["properties"].items():
        for probe in ("x", True, None, [], 1.5, 2, 0, -1, [0.5], [0]):
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps({"scene": "s.json", name: probe}))
            try:
                cli.load_config(path)
                loaded = True
            except SceneFormatError as exc:
                assert exc.field == name
                loaded = False
            valid = jsonschema.Draft202012Validator(prop).is_valid(probe)
            if loaded != valid:
                mismatches.append((name, probe, loaded, valid))
    assert mismatches == []


@pytest.mark.parametrize("name, value", [("SNR_THRESHOLD_DB", "-4000"),
                                         ("SNR_THRESHOLD_DB", "1e5"), ("TX_POWER_DBM", "1e5"),
                                         ("NOISE_PSD_DBM_HZ", "1e5")])
def test_value_the_context_rejects_is_bad_input(name, value, monkeypatch, tmp_path):
    monkeypatch.setenv("RISDEPLOY_" + name, value)
    code = cli.main(["run", "--config", demo_config_path(), "--out", str(tmp_path / "run")])
    assert code == cli.EXIT_BAD_INPUT
    assert load_strict(tmp_path / "run" / "error.json")["error"] == "InvalidInputError"
    code = cli.main(["compare", "--config", demo_config_path(), "--out", str(tmp_path / "cmp"),
                     "--modes", *cli.MODES])
    assert code == cli.EXIT_BAD_INPUT
    rows = load_strict(tmp_path / "cmp" / "comparison.json")
    assert [r["mode"] for r in rows] == list(cli.MODES)
    assert {(r["status"], r["error"]) for r in rows} == {("failed", "InvalidInputError")}


@pytest.mark.parametrize("command", [["run"], ["compare", "--modes", *cli.MODES]])
def test_negative_seed_flag_is_bad_input(command, capsys, tmp_path):
    # the flag is checked against the config schema's seed minimum, like RISDEPLOY_SEED
    code = cli.main([*command, "--config", demo_config_path(), "--out", str(tmp_path),
                     "--seed", "-1"])
    assert code == cli.EXIT_BAD_INPUT
    err = json.loads(capsys.readouterr().out)
    assert (err["error"], err["field"]) == ("SceneFormatError", "seed")
    _assert_left(tmp_path, command, err)


def test_compare_needs_two_modes(demo_cfg, tmp_path, capsys):
    assert cli.compare_modes(demo_cfg, ["full-isac"], tmp_path) == cli.EXIT_BAD_INPUT
    capsys.readouterr()
    # on the command line too: one JSON record and no file, as one mode is not a comparison
    out = tmp_path / "cmp"
    code = cli.main(["compare", "--config", demo_config_path(), "--out", str(out),
                     "--modes", "full-isac"])
    assert code == cli.EXIT_BAD_INPUT
    record = json.loads(capsys.readouterr().out)
    assert record == {"error": "InvalidInputError", "message": "compare needs at least two modes"}
    assert not list(tmp_path.rglob("*.json"))


@pytest.mark.parametrize("modes", [["full-isac"], ["full-isac", "comm-only"]],
                         ids=["one-mode", "two-modes"])
@pytest.mark.parametrize("env", [{}, {"RISDEPLOY_BITS": "0"}, {"RISDEPLOY_SIZE_CAP": "0.3"}],
                         ids=["demo", "bad-config", "size-cap"])
def test_every_comparison_json_compare_leaves_matches_its_schema(modes, env, tmp_path,
                                                                 monkeypatch, capsys):
    # a compare of two modes or more leaves a comparison.json its schema
    # accepts, failed rows included; one mode leaves none and prints its record
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    out = tmp_path / "cmp"
    code = cli.main(["compare", "--config", demo_config_path(), "--out", str(out),
                     "--modes", *modes])
    printed = capsys.readouterr().out
    if len(modes) < 2:
        assert code == cli.EXIT_BAD_INPUT and not (out / "comparison.json").exists()
        assert json.loads(printed)["error"] in ("InvalidInputError", "SceneFormatError")
        return
    rows = load_strict(out / "comparison.json")
    _validate(rows, "comparison")
    assert [r["mode"] for r in rows] == modes
    assert (code == cli.EXIT_OK) == all(r["status"] == "ok" for r in rows)
    if "RISDEPLOY_SIZE_CAP" in env:  # each mode fails on the cap after the context is built
        assert code == cli.EXIT_ERROR
        assert {(r["status"], r["error"]) for r in rows} == {("failed", "SizeCapError")}


@pytest.mark.parametrize("cap", [0.3, 0.5, 0.75])
def test_size_cap_is_a_constraint(cap, tmp_path, monkeypatch):
    # a plan whose panels cannot fit size_cap is infeasible (exit 3, naming the
    # cap); a plan that exits 0 fits the cap and passes its closure
    monkeypatch.setenv("RISDEPLOY_SIZE_CAP", str(cap))
    out = tmp_path / "out"
    code = cli.main(["run", "--config", demo_config_path(), "--out", str(out), "--seed", "1"])
    if cap < 0.75:
        assert code == cli.EXIT_INFEASIBLE
    if code == cli.EXIT_INFEASIBLE:
        err = load_strict(out / "error.json")
        assert err["error"] == "SizeCapError" and f"size_cap {cap:g} m" in err["message"]
        return
    assert code == cli.EXIT_OK
    dep = load_strict(out / "deployment.json")
    assert max(s["side_m"] for s in dep["sizes"]) <= cap
    assert min(dep["snr_margin_db"], dep["crb_range_margin_db"],
               dep["crb_velocity_margin_db"]) >= 0.0


def test_run_log_names_the_placements_over_size_cap(tmp_path, monkeypatch):
    # demo, seed 1, size_cap 0.9: some placements fail only on the cap; run.log
    # counts them among the unreachable ones and says how many they are
    over = []
    step1_evaluate = optimizer.step1_evaluate

    def counting(*args, **kwargs):
        try:
            return step1_evaluate(*args, **kwargs)
        except SizeCapError:
            over.append(1)
            raise

    monkeypatch.setattr(optimizer, "step1_evaluate", counting)
    monkeypatch.setenv("RISDEPLOY_SIZE_CAP", "0.9")
    out = tmp_path / "out"
    assert cli.main(["run", "--config", demo_config_path(), "--out", str(out),
                     "--seed", "1"]) == cli.EXIT_OK
    counts = re.search(r"INFO optimizer: (\d+) placements evaluated, (\d+) unreachable "
                       r"\((\d+) over size_cap\)$", (out / "run.log").read_text(), re.MULTILINE)
    assert counts, "optimizer counts"
    assert int(counts[3]) == len(over) > 0 and int(counts[3]) < int(counts[2])


def test_main_validate_scene(capsys, demo_cfg, tmp_path):
    assert cli.main(["validate-scene", demo_cfg.scene]) == cli.EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert out["status"] == "ok" and out["buildings"] >= 1
    bad = tmp_path / "bad_scene.json"
    bad.write_text(json.dumps({"buildings": []}))
    assert cli.main(["validate-scene", str(bad)]) == cli.EXIT_BAD_INPUT
    err = json.loads(capsys.readouterr().out)
    assert err["error"] == "SceneFormatError"


def test_missing_scene_file_is_bad_input_to_validate_scene(capsys, tmp_path):
    assert cli.main(["validate-scene", str(tmp_path / "nope.json")]) == cli.EXIT_BAD_INPUT
    err = json.loads(capsys.readouterr().out)
    assert (err["error"], err["field"]) == ("SceneFormatError", "scene")


def _config_for_scene(tmp_path, scene) -> str:
    "A config file over the demo values for `scene` (a dict written next to it, or a path)."
    if isinstance(scene, dict):
        (tmp_path / "scene.json").write_text(json.dumps(scene))
        scene = "scene.json"
    with open(demo_config_path()) as fh:
        values = {**json.load(fh), "scene": scene}
    (tmp_path / "cfg.json").write_text(json.dumps(values))
    return str(tmp_path / "cfg.json")


_NULL_HEIGHT = {"buildings": [{"footprint": [[0, 0], [10, 0], [10, 10]], "height": None}],
                "bs": [50, 50, 10], "bounds": {"lo": [0, 0, 0], "hi": [100, 100, 50]},
                "ue_areas": [[20, 20, 40, 40]]}


@pytest.mark.parametrize("scene, field", [("nope.json", "scene"),
                                          (_NULL_HEIGHT, "buildings.height")],
                         ids=["missing", "null-height"])
def test_bad_scene_is_bad_input_to_run(scene, field, tmp_path):
    code = cli.main(["run", "--config", _config_for_scene(tmp_path, scene),
                     "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_BAD_INPUT
    err = load_strict(tmp_path / "out" / "error.json")
    assert err["error"] == "SceneFormatError" and err["message"].startswith(field + ":")


def test_missing_scene_file_is_bad_input_to_compare(tmp_path):
    code = cli.main(["compare", "--config", _config_for_scene(tmp_path, "nope.json"),
                     "--out", str(tmp_path / "cmp"), "--modes", *cli.MODES])
    assert code == cli.EXIT_BAD_INPUT
    rows = load_strict(tmp_path / "cmp" / "comparison.json")
    _validate(rows, "comparison")
    assert [r["mode"] for r in rows] == list(cli.MODES)
    assert {(r["status"], r["error"]) for r in rows} == {("failed", "SceneFormatError")}


def test_main_bad_config_path(capsys, tmp_path):
    for command in (["run"], ["compare", "--modes", *cli.MODES]):
        out = tmp_path / command[0]
        code = cli.main([*command, "--config", str(tmp_path / "missing.json"),
                         "--out", str(out)])
        assert code == cli.EXIT_BAD_INPUT
        err = json.loads(capsys.readouterr().out)
        assert (err["error"], err["field"]) == ("SceneFormatError", "config")
        _assert_left(out, command, err)


def test_pipeline_infeasible_coverage(capsys, tmp_path):
    # a UE area fully behind a closed courtyard no RIS face can reach
    scene = {
        "buildings": [{"footprint": [[40, 40], [60, 40], [60, 60], [40, 60]],
                       "height": 30}],
        "bs": [10.0, 10.0, 10.0],
        "bounds": {"lo": [0, 0, 0], "hi": [100, 100, 60]},
        "ue_areas": [[45.0, 61.0, 55.0, 66.0]],
        "uav_area": [20.0, 20.0, 30.0, 30.0],
    }
    (tmp_path / "scene.json").write_text(json.dumps(scene))
    # everything out of budget: no candidate regions
    (tmp_path / "cfg.json").write_text(json.dumps({"scene": "scene.json", "pl_max_db": 62.0}))
    for command in (["run"], ["compare", "--modes", *cli.MODES]):  # both exit 3
        out = tmp_path / command[0]
        code = cli.main([*command, "--config", str(tmp_path / "cfg.json"), "--out", str(out)])
        assert code == cli.EXIT_INFEASIBLE
        err = json.loads(capsys.readouterr().out)
        assert err["error"] == "InfeasibleCoverageError"
        _assert_left(out, command, err)


def test_passive_run_deployment_is_strict_json(demo_cfg, tmp_path):
    # grazing cells the sizing model does not serve must not turn the closure
    # margins or gaps into Infinity/NaN
    cfg = dataclasses.replace(demo_cfg, max_iterations=1, mode="passive-orientation")
    code = cli.run_pipeline(cfg, tmp_path)
    assert code in (cli.EXIT_OK, cli.EXIT_NOT_CONVERGED)
    dep = load_strict(tmp_path / "deployment.json")
    _validate(dep, "deployment")
    assert dep["mode"] == "passive-orientation"


def test_run_log_counts_distinct_uncovered_cells(demo_cfg, tmp_path):
    cfg = dataclasses.replace(demo_cfg, pl_max_db=100.0, max_iterations=1, mode="comm-only")
    code = cli.run_pipeline(cfg, tmp_path)
    assert code in (cli.EXIT_OK, cli.EXIT_NOT_CONVERGED)
    with open(tmp_path / "deployment.json") as fh:
        covered = [c["covered_cells"] for c in json.load(fh)["coverage"]]
    distinct = len(set().union(*covered))
    assert sum(map(len, covered)) > distinct  # the chosen regions overlap
    assert f"({distinct} uncovered universe)" in (tmp_path / "run.log").read_text()


def test_zero_bits_fails_typed_naming_bits(demo_cfg):
    # a bad phase resolution is an input error, raised where the config is made
    with pytest.raises(SceneFormatError) as exc:
        dataclasses.replace(demo_cfg, bits=0, mode="comm-only")
    assert exc.value.field == "bits"


def _demo_scene() -> dict:
    with open(resources.files("risdeploy").joinpath("data/demo_scene.json")) as fh:
        return json.load(fh)


def test_scene_without_ue_areas_is_bad_input(tmp_path, capsys):
    scene = {k: v for k, v in _demo_scene().items() if k != "ue_areas"}
    config = _config_for_scene(tmp_path, scene)
    assert cli.main(["validate-scene", str(tmp_path / "scene.json")]) == cli.EXIT_BAD_INPUT
    err = json.loads(capsys.readouterr().out)
    assert (err["error"], err["field"]) == ("SceneFormatError", "ue_areas")
    code = cli.main(["run", "--config", config, "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_BAD_INPUT
    assert load_strict(tmp_path / "out" / "error.json") == err


@pytest.mark.parametrize("key, value, kind", [("uav_area", [45, 95, 70, 115], "UAV"),
                                              ("ue_areas", [[45, 95, 70, 115]], "UE")])
def test_area_without_a_cell_outside_the_buildings_is_bad_input(key, value, kind,
                                                                 tmp_path, capsys):
    # the area is building 2's footprint, so every cell centre lies inside it
    config = _config_for_scene(tmp_path, {**_demo_scene(), key: value})
    for mode in cli.MODES:
        code = cli.main(["run", "--config", config, "--out", str(tmp_path / mode),
                         "--mode", mode])
        assert code == cli.EXIT_BAD_INPUT
        err = json.loads(capsys.readouterr().out)
        assert err["error"] == "InvalidInputError" and f"no {kind} cell" in err["message"]
        assert load_strict(tmp_path / mode / "error.json") == err


# Two boxes for which sizing serves RIS 0's UE cells by a reflection off the
# taller box, whose straight legs the panel sees beyond its field of view
# (ROADMAP item 4's scene). The closure synthesises the reflected legs that
# sized the plan, so every mode closes on it.
_TWO_BOXES = json.loads((Path(__file__).parent / "data" / "two_boxes_scene.json").read_text())


def _two_boxes_config(tmp_path) -> str:
    (tmp_path / "scene.json").write_text(json.dumps(_TWO_BOXES))
    (tmp_path / "cfg.json").write_text(json.dumps({"scene": "scene.json", "symbols": 256}))
    return str(tmp_path / "cfg.json")


@pytest.mark.parametrize("mode", cli.MODES)
def test_two_box_plan_closes_on_the_legs_that_sized_it(mode, tmp_path):
    # every closure margin holds and the synthesis agrees with the scaling
    # model, though RIS 0 serves cells through a reflection
    config = _two_boxes_config(tmp_path)
    out = tmp_path / "out"
    assert cli.main(["run", "--config", config, "--out", str(out), "--mode", mode,
                     "--seed", "1"]) == 0
    plan = load_strict(out / "deployment.json")
    margins = [plan["snr_margin_db"]]
    if mode != "comm-only":
        margins += [plan["crb_range_margin_db"], plan["crb_velocity_margin_db"]]
    assert min(margins) >= 0.0, margins
    assert max(plan["gain_gap_db"]) <= 0.3, plan["gain_gap_db"]
    ctx = cli.build_context(cli.load_config(config))
    bounce = optimizer.ris_paths(ctx, 0, plan["positions"][0])[3]
    assert np.any(bounce[1:] < 1.0)  # a UE leg is a reflection


def test_non_finite_artifact_fails_typed_and_is_not_written(tmp_path, capsys, monkeypatch):
    # a panel sum of zero gives a zero synthesized SNR and an SNR margin of
    # -inf; in comm-only mode no CRB check meets the zero cascade first
    monkeypatch.setattr(evaluation, "_panel_sum", lambda *args: 0j)
    out = tmp_path / "out"
    code = cli.main(["run", "--config", _two_boxes_config(tmp_path), "--out", str(out),
                     "--mode", "comm-only", "--seed", "1"])
    assert code == cli.EXIT_ERROR
    err = json.loads(capsys.readouterr().out)
    assert err["error"] == "RisDeployError"
    assert re.match(r"deployment\.json: .*JSON compliant", err["message"])
    assert load_strict(out / "error.json") == err
    assert not (out / "deployment.json").exists()


def test_no_module_calls_json_dump():
    # every artifact goes through cli._write_json, which serialises before it opens the file
    package = Path(cli.__file__).parent
    calls = [f"{path.name}:{node.lineno}" for path in sorted(package.rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Attribute) and node.attr == "dump"
             and isinstance(node.value, ast.Name) and node.value.id == "json"]
    assert calls == []


def _metres(draw, lo, hi):
    "A coordinate in [lo, hi] at 0.1 m resolution."
    return draw(st.integers(round(lo * 10), round(hi * 10))) / 10


def _span(draw, least, most):
    "An interval of [0, 140] m with a length in [least, most]."
    length = _metres(draw, least, most)
    start = _metres(draw, 0.0, 140.0 - length)
    return start, round(start + length, 1)


@st.composite
def _box_scenes(draw):
    """A small random scene in a 140 x 140 x 80 m box: 1-6 box or L-shaped
    buildings, a BS, 1-3 UE areas of at least 8 x 8 m and, nine times in
    ten, a UAV area."""
    buildings = []
    for _ in range(draw(st.integers(1, 6))):  # up to 40 m across
        corner = [_metres(draw, 0, 100), _metres(draw, 0, 100)]
        buildings.append({"footprint": (4 * draw(_footprints()) + corner).tolist(),
                          "height": _metres(draw, 5, 60)})
    ue_areas = []
    for _ in range(draw(st.integers(1, 3))):
        (x0, x1), (y0, y1) = _span(draw, 8, 40), _span(draw, 8, 40)
        ue_areas.append([x0, y0, x1, y1])
    scene = {"buildings": buildings, "ue_areas": ue_areas,
             "bs": [_metres(draw, 1, 139), _metres(draw, 1, 139), _metres(draw, 2, 40)],
             "bounds": {"lo": [0, 0, 0], "hi": [140, 140, 80]}}
    if draw(st.integers(0, 9)):
        (x0, x1), (y0, y1) = _span(draw, 10, 40), _span(draw, 10, 40)
        scene["uav_area"] = [x0, y0, x1, y1]
    return scene


@settings(max_examples=60, deadline=None, derandomize=True)
@given(scene=_box_scenes(), command=st.sampled_from([*cli.MODES, "compare"]))
def test_random_scene_ends_in_a_documented_exit(scene, command):
    # whatever the scene, the command ends in a documented exit code with
    # strict JSON artifacts, and a failure leaves the record it prints
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "scene.json").write_text(json.dumps(scene))
        (tmp / "cfg.json").write_text(json.dumps(
            {"scene": "scene.json", "symbols": 256, "max_iterations": 30}))
        argv = (["compare", "--modes", *cli.MODES] if command == "compare"
                else ["run", "--mode", command])
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = cli.main([*argv, "--config", str(tmp / "cfg.json"), "--out", str(tmp / "out")])
        assert code in range(5)
        artifacts = {path.name: load_strict(path) for path in (tmp / "out").glob("*.json")}
        printed = stdout.getvalue()
        if command == "compare":
            rows = artifacts["comparison.json"]
            _validate(rows, "comparison")
            if printed:  # the command failed before its rows
                _assert_left(tmp / "out", argv, json.loads(printed))
            else:  # a failed mode row gives 1
                assert (code == cli.EXIT_ERROR) == any(r["status"] == "failed" for r in rows)
        elif code in (cli.EXIT_OK, cli.EXIT_NOT_CONVERGED):
            assert printed == "" and "error.json" not in artifacts
            _validate(artifacts["deployment.json"], "deployment")
        else:
            assert artifacts["error.json"] == json.loads(printed)
