import dataclasses
import json
import os
import re
import subprocess
import sys
import tracemalloc
from importlib import resources
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from risdeploy import cli, optimizer
from risdeploy.errors import SceneFormatError, UnreachableTargetsError

from conftest import demo_config_path


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
    with open(run_dir / "deployment.json") as fh:
        dep = json.load(fh)
    _validate(dep, "deployment")
    assert dep["mode"] == "full-isac"
    assert dep["converged"] is True
    assert len(dep["positions"]) == len(ctx_full.regions)
    with open(run_dir / "detections.json") as fh:
        _validate(json.load(fh), "detections")
    with open(run_dir / "positions.json") as fh:
        pos = json.load(fh)
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
    mb = []  # each timing line is followed by the peak RSS so far
    for stage in ("context", "optimize", "closure", "radar"):
        found = re.search(rf"INFO stage {stage}: \d+\.\d{{3}} s\n"
                          rf"\S+ \S+ INFO stage {stage} peak_rss: (\d+\.\d) MB$", log, re.MULTILINE)
        assert found, stage
        mb.append(float(found[1]))
    assert mb == sorted(mb) and mb[0] > 0.0
    # after the optimize stage, the optimizer's evaluation and failure counts
    counts = re.search(r"INFO stage optimize peak_rss: \d+\.\d MB\n\S+ \S+ INFO optimizer: "
                       r"(\d+) placements evaluated, (\d+) unreachable$", log, re.MULTILINE)
    assert counts, "optimizer counts"
    assert 0 <= int(counts[2]) < int(counts[1])
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


def test_radar_stage_holds_at_most_four_and_a_half_frames(demo_cfg, tmp_path, monkeypatch):
    # tracing starts before build_context, so the context's probing frame counts
    frame_bytes = 16 * demo_cfg.subcarriers * demo_cfg.symbols  # one complex frame
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
    assert peaks[0] <= 4.5 * frame_bytes, peaks[0] / frame_bytes


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
                                         ("NOISE_PSD_DBM_HZ", "-1e400")])
def test_bad_config_value_is_bad_input(name, value, monkeypatch, capsys, tmp_path):
    monkeypatch.setenv("RISDEPLOY_" + name, value)
    # comm-only: the mode in which a wrong EFFICIENCY or UE_HEIGHT used to fail untyped
    monkeypatch.setenv("RISDEPLOY_MODE", '"comm-only"')
    for command in (["run"], ["compare", "--modes", *cli.MODES]):
        code = cli.main([*command, "--config", demo_config_path(), "--out", str(tmp_path)])
        assert code == cli.EXIT_BAD_INPUT
        err = json.loads(capsys.readouterr().out)
        assert err["error"] == "SceneFormatError"
        assert err["message"].startswith(name.lower() + ":")


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


_BOUND_KEYS = ("minimum", "maximum", "exclusiveMinimum", "exclusiveMaximum")
_CONTEXT_CHECKED = ("ue_cell_size", "symbols")  # bounds the context build checks


def _without_bounds(schema):
    "The schema with its numeric bounds removed, at every depth."
    if isinstance(schema, dict):
        return {k: _without_bounds(v) for k, v in schema.items() if k not in _BOUND_KEYS}
    return schema


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
    # the config's table of ranges is the schema's, on the value or on each item
    for name, prop in schema["properties"].items():
        stated = {k: v for k, v in prop.get("items", prop).items() if k in _BOUND_KEYS}
        expected = {} if name in _CONTEXT_CHECKED else stated
        assert cli._RANGES.get(name, {}) == expected, name
    # the types agree, and so do the ranges outside those the context build checks
    mismatches = []
    for name, prop in schema["properties"].items():
        prop = _without_bounds(prop) if name in _CONTEXT_CHECKED else prop
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


@pytest.mark.parametrize("name, value", [("UE_CELL_SIZE", "-1"), ("SYMBOLS", "0"),
                                         ("SNR_THRESHOLD_DB", "-4000")])
def test_value_the_context_rejects_is_bad_input(name, value, monkeypatch, tmp_path):
    monkeypatch.setenv("RISDEPLOY_" + name, value)
    code = cli.main(["run", "--config", demo_config_path(), "--out", str(tmp_path / "run")])
    assert code == cli.EXIT_BAD_INPUT
    with open(tmp_path / "run" / "error.json") as fh:
        assert json.load(fh)["error"] == "InvalidInputError"
    code = cli.main(["compare", "--config", demo_config_path(), "--out", str(tmp_path / "cmp"),
                     "--modes", *cli.MODES])
    assert code == cli.EXIT_BAD_INPUT
    with open(tmp_path / "cmp" / "comparison.json") as fh:
        rows = json.load(fh)
    assert [r["mode"] for r in rows] == list(cli.MODES)
    assert {(r["status"], r["error"]) for r in rows} == {("failed", "InvalidInputError")}


@pytest.mark.parametrize("command", [["run"], ["compare", "--modes", *cli.MODES]])
def test_negative_seed_flag_is_bad_input(command, capsys, tmp_path):
    with pytest.raises(SystemExit) as exc:
        cli.main([*command, "--config", demo_config_path(), "--out", str(tmp_path),
                  "--seed", "-1"])
    assert exc.value.code == cli.EXIT_BAD_INPUT
    assert "--seed" in capsys.readouterr().err


def test_compare_needs_two_modes(demo_cfg, tmp_path, capsys):
    assert cli.compare_modes(demo_cfg, ["full-isac"], tmp_path) == cli.EXIT_BAD_INPUT


def test_main_validate_scene(capsys, demo_cfg, tmp_path):
    assert cli.main(["validate-scene", demo_cfg.scene]) == cli.EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert out["status"] == "ok" and out["buildings"] >= 1
    bad = tmp_path / "bad_scene.json"
    bad.write_text(json.dumps({"buildings": []}))
    assert cli.main(["validate-scene", str(bad)]) == cli.EXIT_BAD_INPUT
    err = json.loads(capsys.readouterr().out)
    assert err["error"] == "SceneFormatError"


def test_main_bad_config_path(capsys, tmp_path):
    code = cli.main(["run", "--config", str(tmp_path / "missing.json"),
                     "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_BAD_INPUT


def test_pipeline_infeasible_coverage(tmp_path):
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
    cfg = cli.Config(scene=str(tmp_path / "scene.json"), pl_max_db=62.0)
    code = cli.run_pipeline(cfg, tmp_path / "out")
    assert code == cli.EXIT_INFEASIBLE
    with open(tmp_path / "out" / "error.json") as fh:
        err = json.load(fh)
    assert err["error"] == "InfeasibleCoverageError"


def _reject_constant(token):
    raise ValueError(f"non-finite JSON number {token}")


def test_passive_run_deployment_is_strict_json(demo_cfg, tmp_path):
    # grazing cells the sizing model does not serve must not turn the closure
    # margins or gaps into Infinity/NaN
    cfg = dataclasses.replace(demo_cfg, max_iterations=1, mode="passive-orientation")
    code = cli.run_pipeline(cfg, tmp_path)
    assert code in (cli.EXIT_OK, cli.EXIT_NOT_CONVERGED)
    with open(tmp_path / "deployment.json") as fh:
        dep = json.load(fh, parse_constant=_reject_constant)
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
