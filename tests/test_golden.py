"""Golden artifacts: each artifact but `run.log` of a fixed set of runs, held
to its SHA-256.

The set is the demo `run` at the demo config's seed (the `pipeline_run`
fixture) and in all four modes at seed 1, pathloss-baseline at seeds 12 and
108, full-isac at seed 108 (a partial detection, so the CFAR judges every row
block), the four-mode `compare` (the `compare_run` fixture) and the bench city
(`bench/city.py`, city seed 1, planner seed 0). `golden.json` also keeps the
parsed `deployment.json` and `comparison.json` of each run. So a failure
names the artifacts that moved and says whether their numbers are still
within 1e-12 relative, which a reordering of float operations gives, or
beyond it, which means the plan moved.

A change that moves an artifact on purpose regenerates the file with
``PYTHONPATH=src python tests/test_golden.py`` and says which artifacts moved
and why.
"""

import dataclasses
import hashlib
import json
import math
from pathlib import Path

from risdeploy import cli

from conftest import bench_city_config, demo_config_path

GOLDEN = Path(__file__).with_name("golden.json")
NUMBERS = ("deployment.json", "comparison.json")  # kept parsed as well as hashed
REL = 1e-12


def extra_runs(base: Path) -> dict:
    "The runs the session fixtures do not make: name -> (exit code, artifact directory)."
    cfg = cli.load_config(demo_config_path())
    runs = {}
    for mode, seed in [(m, 1) for m in cli.MODES] + [("pathloss-baseline", 12),
                                                     ("pathloss-baseline", 108),
                                                     ("full-isac", 108)]:
        name = f"run {mode} seed {seed}"
        out = base / name.replace(" ", "-")
        runs[name] = (cli.run_pipeline(dataclasses.replace(cfg, mode=mode, seed=seed), out), out)
    city_cfg = bench_city_config(base / "city-inputs")
    out = base / "city"
    runs["city seed 1"] = (cli.main(["run", "--config", str(city_cfg), "--out", str(out)]), out)
    return runs


def record(code: int, out: Path) -> dict:
    "Exit code, the digest of every artifact but run.log, and the parsed number files."
    files = sorted(p for p in out.iterdir() if p.is_file() and p.name != "run.log")
    return {"exit": code,
            "sha256": {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in files},
            "numbers": {p.name: json.loads(p.read_text()) for p in files if p.name in NUMBERS}}


def _first_difference(a, b, where=""):
    "Path and values of the first leaf where a and b differ beyond REL; None if none does."
    if isinstance(a, dict) and isinstance(b, dict):
        if a.keys() != b.keys():
            return where or "<root>", sorted(a), sorted(b)
        pairs = [(f"{where}.{k}", a[k], b[k]) for k in a]
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            return where or "<root>", len(a), len(b)
        pairs = [(f"{where}[{i}]", x, y) for i, (x, y) in enumerate(zip(a, b))]
    elif (isinstance(a, (int, float)) and isinstance(b, (int, float))
          and not isinstance(a, bool) and not isinstance(b, bool)):
        return None if math.isclose(a, b, rel_tol=REL, abs_tol=0.0) else (where, a, b)
    else:
        return None if a == b else (where, a, b)
    for path, x, y in pairs:
        found = _first_difference(x, y, path)
        if found is not None:
            return found
    return None


def compare(got: dict, want: dict) -> list:
    "One line per moved artifact of each run, with the number check for the number files."
    lines = []
    for name in sorted(want.keys() | got.keys()):
        if name not in got or name not in want:
            lines.append(f"{name}: run {'missing' if name not in got else 'not in golden.json'}")
            continue
        g, w = got[name], want[name]
        if g["exit"] != w["exit"]:
            lines.append(f"{name}: exit {g['exit']}, golden {w['exit']}")
        for file in sorted(w["sha256"].keys() | g["sha256"].keys()):
            if g["sha256"].get(file) == w["sha256"].get(file):
                continue
            line = f"{name}/{file} moved"
            if file in NUMBERS and file in g["numbers"] and file in w["numbers"]:
                found = _first_difference(g["numbers"][file], w["numbers"][file])
                line += (f"; its numbers are within {REL:g} relative" if found is None else
                         f"; beyond {REL:g} relative at {found[0]}: {found[1]!r} "
                         f"(golden {found[2]!r})")
            lines.append(line)
    return lines


def fixture_runs(run_dir: Path, compare_dir: Path) -> dict:
    "The two exit-0 runs the session fixtures make, named like extra_runs' runs."
    seed = cli.load_config(demo_config_path()).seed
    return {f"run full-isac seed {seed}": (cli.EXIT_OK, run_dir),
            f"compare seed {seed}": (cli.EXIT_OK, compare_dir)}


def test_artifacts_match_golden(pipeline_run, compare_run, tmp_path_factory):
    runs = {**fixture_runs(pipeline_run[0], compare_run[0]),
            **extra_runs(tmp_path_factory.mktemp("golden"))}
    got = {name: record(*run) for name, run in runs.items()}
    moved = compare(got, json.loads(GOLDEN.read_text()))
    assert not moved, "artifacts differ from tests/golden.json:\n" + "\n".join(moved)


if __name__ == "__main__":  # regenerate golden.json
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        base = Path(tmp)
        cfg = cli.load_config(demo_config_path())
        assert cli.run_pipeline(dataclasses.replace(cfg, mode="full-isac"), base / "run") == 0
        assert cli.compare_modes(cfg, list(cli.MODES), base / "compare") == 0
        runs = {**fixture_runs(base / "run", base / "compare"), **extra_runs(base)}
        GOLDEN.write_text(json.dumps({name: record(*run) for name, run in runs.items()},
                                     indent=1, sort_keys=True) + "\n")
