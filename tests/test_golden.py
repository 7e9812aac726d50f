"""Golden artifacts: each artifact but `run.log` of a fixed set of runs, held
to its SHA-256.

The set is the demo `run` at the demo config's seed and in all four modes at
seed 1, pathloss-baseline at seeds 12 and 108, full-isac at seed 108 (a
partial detection, so the CFAR judges every row block), the four-mode
`compare` at the demo config's seed and the bench city (`bench/city.py`, city
seed 1, planner seed 0). `golden.json` also keeps the parsed
`deployment.json` and `comparison.json` of each run. So a failure names the
artifacts that moved and says whether their numbers are still within 1e-12
relative, which a reordering of float operations gives, or beyond it, which
means the plan moved.

The runs are made in one child process on NumPy's and OpenBLAS's AVX2 kernels
(`TIER`, which the child sets before it imports NumPy). The kernels
the libraries pick for a CPU move the last bits of float results, so the
hashes hold on every x86-64 CPU with AVX2, whatever newer kernels it has.

A change that moves an artifact on purpose regenerates the file with
``PYTHONPATH=src python tests/test_golden.py``, which records through the
same child, and says which artifacts moved and why.
"""

import hashlib
import importlib.util
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

GOLDEN = Path(__file__).with_name("golden.json")
NUMBERS = ("deployment.json", "comparison.json")  # kept parsed as well as hashed
REL = 1e-12
# NumPy without its AVX-512 dispatch targets, OpenBLAS on its Haswell (AVX2) kernels
TIER = {"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR",
        "OPENBLAS_CORETYPE": "Haswell"}


def golden_runs(base: Path) -> dict:
    "Make every golden run under base: name -> (exit code, artifact directory)."
    # imported here, not at the top: the child sets TIER before NumPy loads
    import dataclasses

    from risdeploy import cli

    from conftest import bench_city_config, demo_config_path

    cfg = cli.load_config(demo_config_path())
    runs = {}
    out = base / "run"
    runs[f"run full-isac seed {cfg.seed}"] = (
        cli.run_pipeline(dataclasses.replace(cfg, mode="full-isac"), out), out)
    out = base / "compare"
    runs[f"compare seed {cfg.seed}"] = (cli.compare_modes(cfg, list(cli.MODES), out), out)
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


def tier_records(base: Path) -> dict:
    "The records of every golden run, made by this file's child on the AVX2 tier."
    src = Path(importlib.util.find_spec("risdeploy").submodule_search_locations[0]).parent
    path = [str(src)] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    child = subprocess.run([sys.executable, __file__, "--child", str(base)], env=env,
                           capture_output=True, text=True)
    assert child.returncode == 0, f"golden child failed:\n{child.stderr}"
    return json.loads((base / "records.json").read_text())


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


def test_artifacts_match_golden(tmp_path):
    moved = compare(tier_records(tmp_path), json.loads(GOLDEN.read_text()))
    assert not moved, "artifacts differ from tests/golden.json:\n" + "\n".join(moved)


if __name__ == "__main__":
    if sys.argv[1:2] == ["--child"]:  # make the runs on the AVX2 tier
        import warnings

        os.environ.update(TIER)  # before golden_runs first imports NumPy
        warnings.simplefilter("error", RuntimeWarning)  # as pyproject's filterwarnings
        base = Path(sys.argv[2])
        records = {name: record(*run) for name, run in golden_runs(base).items()}
        (base / "records.json").write_text(json.dumps(records))
    else:  # regenerate golden.json
        with tempfile.TemporaryDirectory() as tmp:
            GOLDEN.write_text(json.dumps(tier_records(Path(tmp)), indent=1, sort_keys=True)
                              + "\n")
