"""Batch entry point: scene preprocessing, optimization, closure, radar demo.

Subcommands: ``run`` (full pipeline to an artifact directory), ``compare``
(one row per mode, Table-style), ``validate-scene``. All randomness hangs off
a single seed; artifacts are deterministic for a fixed config + seed, with
timestamps confined to run.log.
"""

import argparse
import contextlib
import csv
import dataclasses
import json
import logging
import os
import resource
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import evaluation, optimizer, radar, schema, scene as scene_mod
from .channel import LinkBudget
from .errors import (InfeasibleCoverageError, InfeasiblePowerError, InvalidInputError,
                     RisDeployError, SceneFormatError, SizeCapError)
from .propagation import PropagationConfig
from .sensing import OfdmParams, OfdmWaveform
from .units import lin2db

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_BAD_INPUT = 2
EXIT_INFEASIBLE = 3
EXIT_NOT_CONVERGED = 4

CONFIG_SCHEMA = schema.load("config")
MODES = tuple(CONFIG_SCHEMA["properties"]["mode"]["enum"])

ENV_PREFIX = "RISDEPLOY_"


@dataclass(frozen=True)
class Config:
    """The parameters of one run: one field per property of
    config.schema.json, with its default.

    Construction conforms each value to its schema property
    (`schema.conform`): a list becomes a tuple and an integral float for an
    integer field an int, and a violation raises SceneFormatError naming the
    field.
    """

    scene: str
    carrier_hz: float = 28e9
    bandwidth_hz: float = 1e9
    subcarriers: int = 2560
    symbols: int = 2048
    tx_power_dbm: float = 43.0
    noise_psd_dbm_hz: float = -165.0
    snr_threshold_db: float = 20.0
    range_crb_max: float = 4e-4
    velocity_crb_max: float = 1e-2
    d_min: float = 0.3
    max_iterations: int = 500
    m_s: int | None = None
    beta_grid: tuple[float, ...] = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
    bits: int = 2
    efficiency: float = 0.3
    ref_cells_per_side: int = 20
    rcs: float = 0.04
    ue_height: float = 1.5
    uav_height: float = 50.0
    ue_cell_size: float = 5.0
    uav_cell_size: float = 10.0
    pl_max_db: float = 120.0
    reflection_loss_db: float = 10.0
    bs_array: tuple[int, int] = (4, 4)
    bs_gain_dbi: float = 3.0
    mode: str = "full-isac"
    seed: int = 0
    size_margin_db: float = 1.0
    size_cap: float = 20.0
    uav_velocity: tuple[float, float, float] = (4.0, 2.0, 0.0)
    radar_noise: bool = True
    detection_threshold_db: float = 12.0

    def __post_init__(self):
        for f in dataclasses.fields(self):
            value = schema.conform(getattr(self, f.name), CONFIG_SCHEMA["properties"][f.name],
                                   f.name)
            object.__setattr__(self, f.name, value)


def load_config(path) -> Config:
    "Config JSON over the defaults, then RISDEPLOY_* environment overrides."
    try:
        with open(path) as fh:
            values = json.load(fh)
    except OSError as exc:
        raise SceneFormatError("config", f"cannot read: {exc}") from exc
    except ValueError as exc:  # not JSON, or not UTF-8
        raise SceneFormatError("<root>", f"invalid JSON: {exc}") from exc
    for key in CONFIG_SCHEMA["properties"]:
        name = ENV_PREFIX + key.upper()
        env = os.environ.get(name)
        if env is not None and isinstance(values, dict):
            try:
                values[key] = json.loads(env)
            except json.JSONDecodeError as exc:
                raise SceneFormatError(name, f"invalid JSON: {exc}") from exc
    cfg = Config(**schema.conform(values, CONFIG_SCHEMA))
    scene_path = Path(cfg.scene)
    if scene_path.is_absolute():
        return cfg
    return dataclasses.replace(cfg, scene=str((Path(path).parent / scene_path).resolve()))


def build_context(cfg: Config) -> optimizer.OptimizerContext:
    """Scene preprocessing: grids, coverage universe, greedy region selection,
    the probing waveform and its moments, and the immutable optimizer context.

    Nothing here depends on the mode, so one context serves every mode
    through `dataclasses.replace` of its config."""
    scn = scene_mod.load_scene(cfg.scene)
    ofdm = OfdmParams(cfg.carrier_hz, cfg.bandwidth_hz, cfg.subcarriers, cfg.symbols)
    link = LinkBudget(cfg.tx_power_dbm, cfg.noise_psd_dbm_hz, cfg.bandwidth_hz,
                      cfg.snr_threshold_db)
    prop = PropagationConfig(carrier_freq=cfg.carrier_hz,
                             reflection_loss_db=cfg.reflection_loss_db,
                             pl_max_db=cfg.pl_max_db)
    ue_grids = [scene_mod.build_grids(scn, cfg.ue_cell_size, cfg.ue_height, area)
                for area in scn.ue_areas]
    centers = np.vstack([g.centers for g in ue_grids])
    ue_grid = scene_mod.GridSet(centers, ue_grids[0].extent)
    uav_grid = scene_mod.build_grids(scn, cfg.uav_cell_size, cfg.uav_height, scn.uav_area)
    for name, grid in (("UE", ue_grid), ("UAV", uav_grid)):
        if not len(grid):
            raise InvalidInputError(f"no {name} cell centre lies outside the buildings")
    uncovered = np.flatnonzero(
        ~scene_mod.segments_clear(scn, scn.bs_position, ue_grid.centers)).tolist()
    candidates = scene_mod.candidate_regions(scn, ue_grid, uncovered, uav_grid, prop)
    regions = scene_mod.select_ris_regions(uncovered, candidates)
    waveform = OfdmWaveform(ofdm, seed=cfg.seed)
    return optimizer.OptimizerContext(
        scene=scn, regions=regions, ue_grid=ue_grid, uav_grid=uav_grid, link=link,
        prop=prop, ofdm=ofdm, waveform=waveform, moments=waveform.moments(), cfg=cfg)


def optimize(ctx: optimizer.OptimizerContext) -> optimizer.OptimizationResult:
    cfg = ctx.cfg
    if cfg.mode == "pathloss-baseline":
        return optimizer.pathloss_baseline(ctx, seed=cfg.seed)
    n_vertices = None if cfg.m_s is None else cfg.m_s + 1
    simplex = optimizer.initial_simplex(ctx, seed=cfg.seed, n_vertices=n_vertices)
    return optimizer.nelder_mead_run(simplex, ctx)


def deployment_dict(ctx, result, report) -> dict:
    mode = ctx.cfg.mode
    plan = result.step1
    out = {
        "mode": mode,
        "objective": plan.objective,
        "converged": bool(result.converged),
        "iterations": int(result.iterations),
        "positions": [list(map(float, p)) for p in plan.positions],
        "orientations": [{"theta_r": o.theta_r, "psi_r": o.psi_r}
                         for o in plan.orientations],
        "sizes": [{"area_m2": s.area, "side_m": s.side,
                   "cells_per_side": s.cells_per_side} for s in plan.sizes],
        "coverage": [{"ris_index": n, "building": r.building,
                      "covered_cells": list(map(int, r.covered_cells)),
                      "coverage_area_m2": r.coverage_area} for n, r in enumerate(ctx.regions)],
        "omega_per_uav": plan.omega_per_uav.tolist(),
        "snr_margin_db": report.snr_margin_db,
        "gain_gap_db": [float(g) for g in report.gain_gap_db],
    }
    if mode != "comm-only":
        out["beta_per_uav"] = plan.beta_per_uav.tolist()
        out["crb_range"] = report.crb_range.tolist()
        out["crb_velocity"] = report.crb_velocity.tolist()
        out["crb_range_margin_db"] = report.crb_range_margin_db
        out["crb_velocity_margin_db"] = report.crb_velocity_margin_db
    return out


def write_convergence_csv(path, trace):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iteration", "best_objective", "mean_spread_m",
                         "std_spread_m", "max_spread_m"])
        for rec in trace:
            writer.writerow([rec.iteration, repr(rec.best_objective),
                             repr(rec.mean_spread), repr(rec.std_spread),
                             repr(rec.max_spread)])


def write_snr_maps(out_dir: Path, ctx, report):
    for n, region in enumerate(ctx.regions):
        with open(out_dir / f"snr_map_{n}.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["cell_index", "x", "y", "snr_db"])
            for cell, snr in zip(region.covered_cells, report.snr_db[n]):
                x, y = ctx.ue_grid.centers[cell][:2]
                writer.writerow([cell, repr(float(x)), repr(float(y)), repr(float(snr))])


def write_rv_map_csv(path, rv: radar.RangeVelocityMap, max_range: float,
                     vel_window: int = 32):
    """Crop the map to the ranges of interest and a velocity window, then dump
    the crop's power in float64 dB."""
    keep_r = min(len(rv.range_axis), int(np.searchsorted(rv.range_axis, max_range)) + 32)
    mid = len(rv.velocity_axis) // 2
    lo, hi = max(0, mid - vel_window), min(len(rv.velocity_axis), mid + vel_window + 1)
    velocities = [f",{v!r}," for v in rv.velocity_axis[lo:hi].tolist()]
    crop_db = radar.power_db(rv.power[:keep_r, lo:hi]).tolist()
    lines = []
    for r, powers in zip(rv.range_axis[:keep_r].tolist(), crop_db):
        # the rows csv.writer would write: repr of each float, \r\n terminated
        head = repr(r)
        lines.extend(f"{head}{v}{p!r}\r\n" for v, p in zip(velocities, powers))
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["# range_resolution_m", rv.resolution[0]])
        writer.writerow(["# velocity_resolution_mps", rv.resolution[1]])
        writer.writerow(["range_m", "velocity_mps", "power_db"])
        fh.write("".join(lines))


def radar_stage(ctx, plan: optimizer.Step1Result, out_dir: Path, log):
    "Exemplary UAV through the sized plan: synthesize returns, map, CFAR, LS position."
    cfg = ctx.cfg
    uav = np.asarray(ctx.uav_grid.centers[0], dtype=float)
    vel = np.asarray(cfg.uav_velocity, dtype=float)
    paths = evaluation.demo_sensing_paths(ctx, plan, uav, vel)
    noise = ctx.link.noise_psd_w_hz if cfg.radar_noise else 0.0
    received = radar.synthesize_returns(ctx.waveform, paths, noise_psd=noise,
                                        seed=cfg.seed + 1)
    rv = radar.range_velocity_map(received, ctx.waveform)
    del received  # one frame less alive while the CFAR works
    expected_ranges = [p.range for p in paths]
    report = radar.detect_paths(rv, expected=len(paths),
                                threshold_db=cfg.detection_threshold_db)
    work = report.cfar
    log.info("radar CFAR: judged %d of %d local maxima, %d of %d row blocks, "
             "range prefix %d of %d rows", work.judged, work.local_maxima,
             work.blocks_judged, work.blocks, work.prefix_rows, work.rows)
    detections = radar.associate_paths(report.detections, expected_ranges)
    write_rv_map_csv(out_dir / "rv_map.csv", rv, max(expected_ranges))
    _write_json(out_dir / "detections.json",
                {"expected_ranges_m": expected_ranges, "warning": report.warning,
                 "detections": [dataclasses.asdict(d) for d in detections]})
    positions_out = {"true_position": uav.tolist()}
    by_path = {d.path_index_hypothesis: d.range_est for d in detections}
    if all(i in by_path for i in range(len(paths))):
        ranges = [by_path[0]] + [by_path[i + 1] for i in range(len(ctx.regions))]
        try:
            est, residual = radar.ls_position(ctx.scene.bs_position, plan.positions,
                                              ranges, uav_height=float(uav[2]))
            positions_out.update({
                "estimate": est.tolist(), "residual_m": residual,
                "error_m": float(np.linalg.norm(est - uav)),
                "ranges_m": [float(r) for r in ranges],
            })
            log.info("LS position error %.3f m (residual %.4f m)",
                     positions_out["error_m"], residual)
        except RisDeployError as exc:
            positions_out["error"] = str(exc)
            log.warning("LS positioning failed: %s", exc)
    else:
        positions_out["error"] = "not all paths detected"
        log.warning("radar stage: %s", positions_out["error"])
    _write_json(out_dir / "positions.json", positions_out)


def run_pipeline(cfg: Config, out_dir: Path) -> int:
    ctx = None
    with _run_log(out_dir) as log:
        try:
            t0 = time.time()
            ctx = _logged_context(cfg, log)
            result, report = _logged_plan(ctx, log)
            _write_json(out_dir / "deployment.json", deployment_dict(ctx, result, report))
            write_convergence_csv(out_dir / "convergence.csv", result.trace)
            write_snr_maps(out_dir, ctx, report)
            if cfg.mode != "comm-only":
                with _stage(log, "radar"):
                    radar_stage(ctx, result.step1, out_dir, log)
            log.info("done in %.1f s", time.time() - t0)
            return EXIT_OK if result.converged else EXIT_NOT_CONVERGED
        except RisDeployError as exc:
            log.error("%s: %s", type(exc).__name__, exc)
            return _failed(exc, ctx is None, out_dir)


@contextlib.contextmanager
def _run_log(out_dir: Path):
    "The risdeploy logger writing to out_dir/run.log for the block."
    out_dir.mkdir(parents=True, exist_ok=True)
    log = logging.getLogger("risdeploy")
    handler = logging.FileHandler(out_dir / "run.log", mode="w")
    handler.setFormatter(logging.Formatter("%(asctime)s %(levelname)s %(message)s"))
    log.addHandler(handler)
    log.setLevel(logging.INFO)
    try:
        yield log
    finally:
        log.removeHandler(handler)
        handler.close()


def _logged_context(cfg: Config, log) -> optimizer.OptimizerContext:
    "build_context as a logged stage, then the scene's counts."
    with _stage(log, "context"):
        ctx = build_context(cfg)
    log.info("scene: %d buildings, %d UE cells (%d uncovered universe), "
             "%d UAV cells, %d RIS regions", len(ctx.scene.buildings),
             len(ctx.ue_grid), len(set().union(*(r.covered_cells for r in ctx.regions))),
             len(ctx.uav_grid), len(ctx.regions))
    return ctx


def _logged_plan(ctx: optimizer.OptimizerContext, log):
    "One mode's plan and its closure as logged stages, each followed by its summary."
    with _stage(log, "optimize"):
        result = optimize(ctx)
    log.info("optimizer: %d placements evaluated, %d unreachable (%d over size_cap)",
             result.evaluations, result.unreachable, result.over_cap)
    log.info("optimizer (%s): objective %.6g, converged=%s after %d iterations",
             ctx.cfg.mode, result.step1.objective, result.converged, result.iterations)
    with _stage(log, "closure"):
        report = evaluation.closure_report(ctx, result.step1)
    for n, record in enumerate(report.synthesis):
        log.info("closure RIS %d: %d panel cells, %d cells x %d UAV columns "
                 "synthesised in %.3f s", n, *record)
    log.info("closure: SNR margin %.2f dB, scaling-vs-synthesis gap per RIS %s dB",
             report.snr_margin_db, np.round(report.gain_gap_db, 2).tolist())
    if ctx.cfg.mode != "comm-only":
        log.info("closure: CRB margins %.2f dB (range), %.2f dB (velocity)",
                 report.crb_range_margin_db, report.crb_velocity_margin_db)
    return result, report


@contextlib.contextmanager
def _stage(log, name: str):
    """Log the wall time of one pipeline stage to run.log, then the process's
    peak RSS after it and the minor page faults the stage took."""
    faults0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    t0 = time.perf_counter()
    yield
    log.info("stage %s: %.3f s", name, time.perf_counter() - t0)
    usage = resource.getrusage(resource.RUSAGE_SELF)
    log.info("stage %s peak_rss: %.1f MB, minor faults: %d", name,
             usage.ru_maxrss / 1024.0, usage.ru_minflt - faults0)  # ru_maxrss is KiB on Linux


def _write_json(path: Path, obj):
    "Write `obj` as strict JSON; a non-finite value fails typed before the file is touched."
    try:
        text = json.dumps(obj, indent=2, allow_nan=False)
    except ValueError as exc:
        raise RisDeployError(f"{path.name}: {exc}") from exc
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def _record(exc: RisDeployError) -> dict:
    field = {"field": exc.field} if isinstance(exc, SceneFormatError) else {}
    return {"error": type(exc).__name__, "message": str(exc), **field}


def _failed(exc: RisDeployError, in_build: bool, out_dir: Path | None = None,
            modes=None) -> int:
    """The one way out of a failed command: print its record as one JSON line,
    leave it in `out_dir` (error.json, or with two `modes` or more a failed row
    per mode; one mode is not a comparison and leaves nothing) and return the
    exit code. Bad input exits 2: a format error, or a value rejected
    `in_build` (while the input is read and the context built)."""
    record = _record(exc)
    print(json.dumps(record))
    if modes is not None:
        if len(modes) > 1:
            _write_comparison(out_dir, [{"mode": m, "status": "failed", **record} for m in modes])
    elif out_dir is not None:
        _write_json(out_dir / "error.json", record)
    if isinstance(exc, SceneFormatError) or (in_build and isinstance(exc, InvalidInputError)):
        return EXIT_BAD_INPUT
    if isinstance(exc, (InfeasibleCoverageError, InfeasiblePowerError, SizeCapError)):
        return EXIT_INFEASIBLE
    return EXIT_ERROR


def compare_modes(cfg: Config, modes: list, out_dir: Path) -> int:
    "One comparison row per mode: sizes, coverage %, sensing feasibility."
    if len(modes) < 2:  # a comparison has two rows or more
        return _failed(InvalidInputError("compare needs at least two modes"), True, out_dir, modes)

    def one(ctx, log):
        mode = ctx.cfg.mode
        log.info("mode %s", mode)
        try:
            result, report = _logged_plan(ctx, log)
        except RisDeployError as exc:
            log.error("%s: %s", type(exc).__name__, exc)
            return {"mode": mode, "status": "failed", **_record(exc)}
        plan = result.step1
        total = sum(len(r.covered_cells) for r in ctx.regions)
        served = sum(int(np.sum(s >= lin2db(ctx.link.snr_threshold_linear) - 3.0))
                     for s in report.snr_db)
        sensing_ok = (mode != "comm-only"
                      and report.crb_range_margin_db >= -3.0
                      and report.crb_velocity_margin_db >= -3.0)
        return {
            "mode": mode, "status": "ok",
            "sizes_m": [round(s.side, 4) for s in plan.sizes],
            "total_area_m2": round(sum(s.area for s in plan.sizes), 6),
            "coverage_pct": round(100.0 * served / total, 2),
            "sensing": "satisfied" if sensing_ok else "not available",
            "objective": plan.objective,
        }

    base = None
    with _run_log(out_dir) as log:
        try:
            base = _logged_context(cfg, log)
            rows = [one(dataclasses.replace(base, cfg=dataclasses.replace(cfg, mode=m)), log)
                    for m in modes]
            _write_comparison(out_dir, rows)
        except RisDeployError as exc:
            log.error("%s: %s", type(exc).__name__, exc)
            return _failed(exc, base is None, out_dir, modes)
    return EXIT_OK if all(r["status"] == "ok" for r in rows) else EXIT_ERROR


def _write_comparison(out_dir: Path, rows: list):
    _write_json(out_dir / "comparison.json", rows)
    cols = ["mode", "status", "sizes_m", "total_area_m2", "coverage_pct",
            "sensing", "objective"]
    with open(out_dir / "comparison.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(cols)
        for row in rows:
            writer.writerow([row.get(c, "") for c in cols])


def validate_scene(path) -> int:
    try:
        scn = scene_mod.load_scene(path)
    except RisDeployError as exc:
        return _failed(exc, True)
    print(json.dumps({"status": "ok", "buildings": len(scn.buildings),
                      "ue_areas": len(scn.ue_areas)}))
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="risdeploy",
                                     description="RIS deployment planner for "
                                                 "mmWave ISAC networks")
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="full pipeline into an output directory")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out", required=True)
    p_run.add_argument("--mode", choices=MODES)
    p_run.add_argument("--seed", type=int)
    p_cmp = sub.add_parser("compare", help="run several modes, emit a table")
    p_cmp.add_argument("--config", required=True)
    p_cmp.add_argument("--out", required=True)
    p_cmp.add_argument("--modes", nargs="+", required=True, choices=MODES)
    p_cmp.add_argument("--seed", type=int)
    p_val = sub.add_parser("validate-scene", help="check a scene JSON file")
    p_val.add_argument("scene")
    args = parser.parse_args(argv)
    if args.command == "validate-scene":
        return validate_scene(args.scene)
    modes = args.modes if args.command == "compare" else None
    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg = dataclasses.replace(cfg, seed=args.seed)
        if modes is None and args.mode:
            cfg = dataclasses.replace(cfg, mode=args.mode)
    except RisDeployError as exc:
        return _failed(exc, True, Path(args.out), modes)
    if modes is None:
        return run_pipeline(cfg, Path(args.out))
    return compare_modes(cfg, modes, Path(args.out))


if __name__ == "__main__":
    sys.exit(main())
