"""risdeploy benchmark: end-to-end and per-layer metrics of the planner.

Usage (from the repository root):

    python3 bench/run.py --workload demo-run --seed 1 --seconds 10 --trace 0

Workloads:
  demo-run      `risdeploy run` (full-isac) on the bundled demo config
  demo-compare  `risdeploy compare` over all four modes on the same config
  city-run      `risdeploy run` (full-isac) on a city generated from the seed

A run plans at one or more plan seeds derived from `--seed` (city-run: the
seed builds the city and the planner seed is fixed). Each round runs one
command through `cli.main` in a fresh child process (bench/child.py), one at a
time, with BLAS pinned to one thread. Rounds cycle through the plan seeds
until the workload's least number of rounds has run and `--seconds` have
passed. Every round's artifacts
are checked (bench/checks.py), and rounds at the same plan seed must write
byte-identical results. With `--trace 0` the last stdout line reports the
end-to-end metrics: per plan seed the median over its rounds, then the median
over plan seeds. With `--trace 1` rounds come in untraced/traced pairs, and it
reports the per-layer metrics of the traced rounds (bench/tracer.py) and the
tracing overhead. Outputs and a run record go to bench/out/<workload>/seed<n>/.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
PACKAGE = SRC / "risdeploy"
DEMO_CONFIG = PACKAGE / "data" / "demo_config.json"
SCHEMAS = PACKAGE / "schemas"
OUT = BENCH / "out"

sys.path.insert(0, str(BENCH))
import checks  # noqa: E402
import city  # noqa: E402

MODES = ["full-isac", "comm-only", "pathloss-baseline", "passive-orientation"]
# workload -> (plans per command, plan seeds per run, least rounds per run).
# demo-run plans at three seeds derived from its workload seed, so that one
# seed's Nelder-Mead path does not set the run's figures alone. compare runs
# three Nelder-Mead searches per round, and one round costs as much as two
# plans. city-run's seed only places geometry and its plan repeats exactly, so
# two rounds of it also check that the artifacts repeat byte for byte.
WORKLOADS = {"demo-run": (1, 3, 3), "demo-compare": (len(MODES), 1, 1),
             "city-run": (1, 1, 2)}
PLAN_SEED_STRIDE = 1_000_003
BLAS_THREADS = "1"
DEADLINE_S = 170.0  # a run must end within 180 s

# Functions every round of a workload must call; zero calls fails the traced run.
REQUIRED = [
    "cli.main", "cli.build_context", "scene.line_of_sight", "scene.point_in_polygon",
    "scene.build_grids", "scene.candidate_regions", "scene.select_ris_regions",
    "propagation.dominant_path_between", "propagation.enumerate_paths",
    "optimizer.step1_evaluate", "optimizer.orientation_search",
    "optimizer.reference_comm_snr", "optimizer.reference_sensing_crbs",
    "optimizer.direct_power_share", "optimizer.initial_simplex",
    "optimizer.nelder_mead_run", "sensing.qpsk_symbols", "sensing.OfdmWaveform.moments",
    "sensing.fim", "evaluation.closure_report", "evaluation.explicit_ue_snr",
    "evaluation.explicit_sensing_crb",
]
REQUIRED_RUN = ["cli.radar_stage", "cli.write_rv_map_csv", "evaluation.demo_sensing_paths",
                "radar.synthesize_returns", "radar.range_velocity_map",
                "radar.detect_paths", "radar.ls_position"]
REQUIRED_COMPARE = ["optimizer.pathloss_baseline"]

# Traced function -> the per-layer metrics taken from its spans.
LAYER_METRICS = {
    "cli.build_context": ("calls", "s"), "cli.radar_stage": ("s",),
    "cli.write_rv_map_csv": ("s",),
    "scene.line_of_sight": ("calls", "s"), "scene.point_in_polygon": ("calls", "s"),
    "scene.build_grids": ("s",), "scene.candidate_regions": ("s",),
    "scene.select_ris_regions": ("s",),
    "propagation.dominant_path_between": ("calls", "s"),
    "propagation.enumerate_paths": ("calls", "s"),
    "optimizer.step1_evaluate": ("calls", "s"), "optimizer.orientation_search": ("calls", "s"),
    "optimizer.reference_comm_snr": ("calls", "s"),
    "optimizer.reference_sensing_crbs": ("calls", "s"),
    "optimizer.direct_power_share": ("calls", "s"), "optimizer.initial_simplex": ("s",),
    "optimizer.nelder_mead_run": ("s",), "optimizer.pathloss_baseline": ("s",),
    "sensing.qpsk_symbols": ("calls", "s"), "sensing.OfdmWaveform.moments": ("calls", "s"),
    "sensing.fim": ("calls", "s"),
    "evaluation.closure_report": ("s",), "evaluation.explicit_ue_snr": ("calls", "s"),
    "evaluation.explicit_sensing_crb": ("calls", "s"),
    "evaluation.demo_sensing_paths": ("s",),
    "radar.synthesize_returns": ("s",), "radar.range_velocity_map": ("s",),
    "radar.detect_paths": ("s",), "radar.ls_position": ("s",),
}


class BenchError(Exception):
    "The benchmark cannot produce a result."


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(PACKAGE.rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _version(dist: str):
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return None


def cpu_reference() -> float:
    "Seconds for a fixed pure-Python loop, to tell machine drift from program change."
    t0 = time.perf_counter()
    acc = 0
    for i in range(2_000_000):
        acc += (i * i) % 7
    return time.perf_counter() - t0


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("RISDEPLOY_")}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


class Runner:
    "Runs one invocation's rounds and keeps its deadline."

    def __init__(self, t0: float):
        self.t0 = t0
        self.env = child_env()

    def remaining(self) -> float:
        left = DEADLINE_S - (time.perf_counter() - self.t0)
        if left <= 1.0:
            raise BenchError("out of time before the round could start")
        return left

    def call(self, argv: list) -> subprocess.CompletedProcess:
        return subprocess.run([sys.executable, *argv], cwd=ROOT, env=self.env,
                              capture_output=True, text=True, timeout=self.remaining())

    def command(self, cli_args: list, out: Path, traced: bool) -> dict:
        "One risdeploy command in a fresh child; returns its timing record."
        result = out.with_suffix(".result.json")
        argv = [str(BENCH / "child.py"), "--result", str(result)]
        if traced:
            argv += ["--spans", str(out.with_suffix(".spans.npz"))]
        proc = self.call(argv + ["--", *cli_args])
        if proc.returncode != 0 or not result.exists():
            raise BenchError(f"child failed ({proc.returncode}): {proc.stderr[-2000:]}")
        with open(result) as fh:
            return json.load(fh)


def validate_scene(runner: Runner, scene_path: Path):
    proc = runner.call(["-m", "risdeploy.cli", "validate-scene", str(scene_path)])
    if proc.returncode != 0 or json.loads(proc.stdout).get("status") != "ok":
        raise BenchError(f"validate-scene rejected {scene_path}: {proc.stdout}")


def prepare(workload: str, seed: int, work: Path, runner: Runner):
    "Config path, loaded config and scene for one plan seed's inputs."
    if workload == "city-run":
        cfg_path = city.write(work, seed, DEMO_CONFIG)
    else:
        cfg_path = DEMO_CONFIG
    with open(cfg_path) as fh:
        cfg = json.load(fh)
    if workload != "city-run":
        cfg["seed"] = seed
    scene_path = (cfg_path.parent / cfg["scene"]).resolve()
    validate_scene(runner, scene_path)
    with open(scene_path) as fh:
        scene = json.load(fh)
    return cfg_path, cfg, scene


def cli_args(workload: str, cfg_path: Path, seed: int, out: Path) -> list:
    if workload == "demo-compare":
        return ["compare", "--config", str(cfg_path), "--out", str(out),
                "--seed", str(seed), "--modes", *MODES]
    return ["run", "--config", str(cfg_path), "--out", str(out), "--mode", "full-isac",
            "--seed", str(seed)]


def check_round(workload, out, rec, cfg, scene, reference_objective):
    "Checks one round; returns (artifact bytes, total area, objective)."
    if workload == "demo-compare":
        rows = checks.check_compare_dir(out, SCHEMAS, reference_objective)
        full = next(r for r in rows if r["mode"] == "full-isac")
        return (out / "comparison.json").read_bytes(), full["total_area_m2"], full["objective"]
    dep = checks.check_run_dir(out, cfg, scene, SCHEMAS)
    (out / "rv_map.csv").unlink()  # 2.7 MB per round and not checked; keep the outputs small
    total_area = sum(s["area_m2"] for s in dep["sizes"])
    return (out / "deployment.json").read_bytes(), total_area, dep["objective"]


def per_layer(traced: list, untraced: list, workload: str) -> dict:
    "Per-layer metrics: medians over the traced rounds."
    required = REQUIRED + (REQUIRED_COMPARE if workload == "demo-compare" else REQUIRED_RUN)
    rounds = []
    for rec in traced:
        fn = rec["trace"]["functions"]
        missing = [name for name in required if fn[name]["calls"] == 0]
        if missing:
            raise BenchError(f"traced functions never called: {missing}")
        step1 = sorted(rec["trace"]["step1_ms"])
        n = len(step1)
        dpb, s1 = fn["propagation.dominant_path_between"], fn["optimizer.step1_evaluate"]
        m = {"cli.import_s": (rec["import_s"], "s")}
        for name, kinds in LAYER_METRICS.items():
            for kind in kinds:
                m[f"{name}.{kind}"] = (fn[name][kind], "count" if kind == "calls" else "s")
        m["propagation.dominant_path_between.los_ratio"] = (dpb["los"] / dpb["calls"], "ratio")
        m["optimizer.step1_evaluate.median_ms"] = (statistics.median(step1), "ms")
        # the highest percentile with ten samples beyond it; the median below 40 samples
        m["optimizer.step1_evaluate.tail_ms"] = (step1[n - 11] if n >= 40
                                                 else statistics.median(step1), "ms")
        m["optimizer.step1_evaluate.tail_pct"] = (100.0 * (n - 10) / n if n >= 40 else 50.0,
                                                  "%")
        m["optimizer.step1_evaluate.failed"] = (s1["raised"], "count")
        m["optimizer.step1_evaluate.useful_ratio"] = ((s1["calls"] - s1["raised"])
                                                      / s1["calls"], "ratio")
        m["optimizer.iterations"] = (rec["trace"]["iterations"], "count")
        for layer, value in rec["trace"]["layer_self_s"].items():
            m[f"{layer}.self_s"] = (value, "s")
        m["trace.spans"] = (rec["trace"]["spans"], "count")
        rounds.append(m)
    metrics = {key: {"value": statistics.median(r[key][0] for r in rounds),
                     "unit": unit} for key, (_, unit) in rounds[0].items()}
    overhead = (statistics.median(r["plan_s"] for r in traced)
                - statistics.median(r["plan_s"] for r in untraced))
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    return metrics


def plan_seeds(workload: str, seed: int) -> list:
    "The run's plan seeds: the workload seed first, then strided ones."
    return [seed + j * PLAN_SEED_STRIDE for j in range(WORKLOADS[workload][1])]


def median_over_plans(by_plan: dict, key: str) -> float:
    "Median over plan seeds of each plan seed's median over its rounds."
    return statistics.median(statistics.median(r[key] for r in recs)
                             for recs in by_plan.values())


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    t0 = time.perf_counter()
    runner = Runner(t0)
    work = OUT / workload / f"seed{seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "git_sha": git_sha(), "source_sha256": source_digest(),
              "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
              "python": platform.python_version(), "numpy": _version("numpy"),
              "scipy": _version("scipy"), "blas_threads": BLAS_THREADS,
              "plan_seeds": plan_seeds(workload, seed),
              "cpu_reference_before_s": cpu_reference()}
    inputs = [prepare(workload, p, work / f"inputs{j}", runner)
              for j, p in enumerate(record["plan_seeds"])]

    reference_objective = None
    if workload == "demo-compare":  # the full-isac row must match `run` at this seed
        out = work / "reference"
        cfg_path, cfg, scene = inputs[0]
        runner.command(cli_args("demo-run", cfg_path, seed, out), out, traced=False)
        reference_objective = checks.check_run_dir(out, cfg, scene, SCHEMAS)["objective"]

    plans, _, min_rounds = WORKLOADS[workload]
    kinds = [False, True] if trace else [False]
    if trace:
        min_rounds = len(kinds)  # one untraced/traced pair
    untraced, traced = {}, []  # plan index -> untraced records; traced records
    outputs = {}  # plan index -> [(artifact bytes, total area, objective)]
    correct, failed, attempted, problems = True, 0, 0, []
    t_measure = time.perf_counter()
    rounds = 0
    while rounds < min_rounds or time.perf_counter() - t_measure < seconds:
        j = (rounds // len(kinds)) % len(inputs)
        cfg_path, cfg, scene = inputs[j]
        for traced_round in kinds:
            out = work / f"r{rounds}"
            rounds += 1
            rec = runner.command(cli_args(workload, cfg_path, cfg["seed"], out), out,
                                 traced_round)
            attempted += plans
            if rec["exit_code"] != 0:
                failed += plans
                problems.append(f"{out.name}: risdeploy exited {rec['exit_code']}")
                continue
            try:
                checked = check_round(workload, out, rec, cfg, scene, reference_objective)
            except (checks.CheckError, OSError, KeyError, ValueError) as exc:
                correct = False
                problems.append(f"{out.name}: {exc}")
                continue
            outputs.setdefault(j, []).append(checked)
            if traced_round:
                traced.append(rec)
            else:
                untraced.setdefault(j, []).append(rec)
    for j, outs in outputs.items():
        if len({blob for blob, _, _ in outs}) > 1:
            correct = False
            problems.append(f"plan seed {record['plan_seeds'][j]}: artifacts differ "
                            "between rounds at the same seed")
    if not untraced or (trace and not traced):
        raise BenchError("no round passed its checks: " + "; ".join(problems))
    if any(r["build_context_calls"] == 0 for recs in untraced.values() for r in recs):
        raise BenchError("cli.build_context was never called")

    if trace:
        metrics = per_layer(traced, [r for recs in untraced.values() for r in recs],
                            workload)
    else:
        metrics = {
            "plan_s": {"value": median_over_plans(untraced, "plan_s"), "unit": "s"},
            "setup_s": {"value": median_over_plans(untraced, "setup_s"), "unit": "s"},
            "peak_rss_mb": {"value": median_over_plans(untraced, "peak_rss_mb"),
                            "unit": "MB"},
            "total_area_m2": {"value": statistics.median(o[0][1] for o in outputs.values()),
                              "unit": "m2"},
            "objective": {"value": statistics.median(o[0][2] for o in outputs.values()),
                          "unit": "ratio"},
        }
    record.update({"rounds": rounds,
                   "measure_s": time.perf_counter() - t_measure,
                   "cpu_reference_after_s": cpu_reference(),
                   "plan_s_rounds": {j: [r["plan_s"] for r in recs]
                                     for j, recs in untraced.items()},
                   "setup_s_rounds": {j: [r["setup_s"] for r in recs]
                                      for j, recs in untraced.items()},
                   "objectives": {j: o[0][2] for j, o in outputs.items()},
                   "problems": problems, "metrics": metrics})
    if traced:
        record["bindings"] = traced[0]["trace"]["bindings"]
    with open(work / "record.json", "w") as fh:
        json.dump(record, fh, indent=1)
    print("run record: " + json.dumps({k: record[k] for k in (
        "git_sha", "nproc", "python", "numpy", "scipy", "blas_threads", "plan_seeds",
        "cpu_reference_before_s", "cpu_reference_after_s", "rounds")}))
    for problem in problems:
        print("check failed: " + problem)
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (PACKAGE / "cli.py").is_file():
        print(f"bench: no risdeploy sources under {SRC}", file=sys.stderr)
        return 2
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, checks.CheckError, subprocess.TimeoutExpired, OSError) as exc:
        print(f"bench: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
