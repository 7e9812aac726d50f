"""Output checks for the benchmark's risdeploy runs.

Every check recomputes what it can from the inputs (config and scene JSON)
with code of its own, or tests a property the method must have, and raises
CheckError on the first violation. None of them imports risdeploy.
"""

import csv
import json
import math
from pathlib import Path

import jsonschema

SPEED_OF_LIGHT = 299792458.0
STANDOFF_M = 1e-3  # mounting points sit this far off the wall
PATCH_MARGIN_M = 0.5  # mounting patch inset from the face's sides and top
PATCH_MIN_HEIGHT_M = 2.0  # mounting patch starts this high above ground
CLOSURE_FLOOR_DB = -3.0


class CheckError(Exception):
    "An artifact contradicts the inputs or a property of the method."


def _close(a: float, b: float, rel: float = 1e-9, abs_tol: float = 1e-12) -> bool:
    return math.isclose(a, b, rel_tol=rel, abs_tol=abs_tol)


def _reject_constant(token):
    raise CheckError(f"non-finite JSON number {token}")


def load_strict(path: Path):
    "Parse JSON that must not hold NaN or Infinity."
    with open(path) as fh:
        return json.load(fh, parse_constant=_reject_constant)


def validate(instance, schema_dir: Path, name: str):
    with open(schema_dir / f"{name}.schema.json") as fh:
        schema = json.load(fh)
    try:
        jsonschema.validate(instance, schema)
    except jsonschema.ValidationError as exc:
        raise CheckError(f"{name}: schema violation: {exc.message}") from exc


def _point_in_polygon(x: float, y: float, poly) -> bool:
    inside = False
    for (x1, y1), (x2, y2) in zip(poly, poly[1:] + poly[:1]):
        if (y1 > y) != (y2 > y) and x < x1 + (y - y1) * (x2 - x1) / (y2 - y1):
            inside = not inside
    return inside


def uav_truth(cfg: dict, scene: dict):
    "First UAV grid centre (x-major tiling, centres inside buildings skipped)."
    xmin, ymin, xmax, ymax = scene["uav_area"]
    cell = cfg["uav_cell_size"]
    for ix in range(int(math.floor((xmax - xmin) / cell + 1e-9))):
        for iy in range(int(math.floor((ymax - ymin) / cell + 1e-9))):
            x, y = xmin + (ix + 0.5) * cell, ymin + (iy + 0.5) * cell
            if not any(_point_in_polygon(x, y, b["footprint"]) for b in scene["buildings"]):
                return [x, y, float(cfg["uav_height"])]
    raise CheckError("scene has no UAV cell")


def check_on_wall(position, building: dict):
    "The point sits STANDOFF_M off one face of the building, inside its mounting patch."
    fp = building["footprint"]
    x, y, z = position
    for (x1, y1), (x2, y2) in zip(fp, fp[1:] + fp[:1]):
        length = math.hypot(x2 - x1, y2 - y1)
        ux, uy = (x2 - x1) / length, (y2 - y1) / length
        nx, ny = uy, -ux
        mx, my = (x1 + x2) / 2.0, (y1 + y2) / 2.0
        if _point_in_polygon(mx + 1e-6 * nx, my + 1e-6 * ny, fp):
            nx, ny = -nx, -ny  # outward normal
        off = (x - x1) * nx + (y - y1) * ny
        along = (x - x1) * ux + (y - y1) * uy
        if (abs(off - STANDOFF_M) <= 1e-6
                and PATCH_MARGIN_M - 1e-9 <= along <= length - PATCH_MARGIN_M + 1e-9
                and PATCH_MIN_HEIGHT_M - 1e-9 <= z
                <= building["height"] - PATCH_MARGIN_M + 1e-9):
            return
    raise CheckError(f"position {position} is not on a mounting patch of its building")


def check_deployment(dep: dict, cfg: dict, scene: dict):
    "Sizing arithmetic, coverage areas, wall positions, power and beta rows, closure."
    spacing = SPEED_OF_LIGHT / cfg["carrier_hz"] / 2.0
    cell_area = cfg["ue_cell_size"] ** 2
    if not (len(dep["sizes"]) == len(dep["coverage"]) == len(dep["positions"]) > 0):
        raise CheckError("sizes, coverage and positions differ in length")
    total = 0.0
    for size, cov, pos in zip(dep["sizes"], dep["coverage"], dep["positions"]):
        if not _close(size["area_m2"], size["side_m"] ** 2):
            raise CheckError(f"area {size['area_m2']} != side^2 {size['side_m'] ** 2}")
        if size["cells_per_side"] != math.ceil(size["side_m"] / spacing):
            raise CheckError(f"cells_per_side {size['cells_per_side']} != "
                             f"ceil({size['side_m']} / {spacing})")
        if not _close(cov["coverage_area_m2"], len(cov["covered_cells"]) * cell_area):
            raise CheckError(f"coverage_area_m2 {cov['coverage_area_m2']} != "
                             f"{len(cov['covered_cells'])} cells x {cell_area} m2")
        check_on_wall(pos, scene["buildings"][cov["building"]])
        total += size["area_m2"] / cov["coverage_area_m2"]
    if not _close(dep["objective"], total):
        raise CheckError(f"objective {dep['objective']} != sum area/coverage {total}")
    for row in dep["omega_per_uav"]:
        if not _close(sum(row), 1.0):
            raise CheckError(f"power shares {row} sum to {sum(row)}, not 1")
    for row in dep.get("beta_per_uav", []):
        for beta in row:
            if not any(_close(beta, b, abs_tol=1e-12) for b in cfg["beta_grid"]):
                raise CheckError(f"beta {beta} not in beta_grid")
    margins = ["snr_margin_db"]
    if dep["mode"] != "comm-only":
        margins += ["crb_range_margin_db", "crb_velocity_margin_db"]
    for key in margins:
        if not dep[key] >= CLOSURE_FLOOR_DB:
            raise CheckError(f"closure {key} {dep[key]} dB < {CLOSURE_FLOOR_DB} dB")


def check_convergence(rows: list, dep: dict, cfg: dict):
    "Best objective never rises, the final simplex spread is within d_min."
    if not dep["converged"] or not rows:
        raise CheckError("plan did not converge")
    best = [float(r["best_objective"]) for r in rows]
    if any(b > a for a, b in zip(best, best[1:])):
        raise CheckError("best objective increases in convergence.csv")
    if float(rows[-1]["max_spread_m"]) > cfg["d_min"]:
        raise CheckError(f"final spread {rows[-1]['max_spread_m']} m > d_min {cfg['d_min']}")
    if best[-1] != dep["objective"]:
        raise CheckError(f"last best objective {best[-1]} != objective {dep['objective']}")


def check_radar(positions: dict, detections: dict, cfg: dict, scene: dict):
    """Direct range within one range bin of |UAV - BS|; error_m is |estimate - truth|.

    When some modelled path has no detection tagged with its index, the radar
    stage reports "not all paths detected" and makes no estimate; that
    documented outcome passes, an estimate missing for any other reason does not.
    """
    truth = uav_truth(cfg, scene)
    if positions["true_position"] != truth:
        raise CheckError(f"true_position {positions['true_position']} != {truth}")
    tagged = {d["path_index_hypothesis"] for d in detections["detections"]}
    missing = set(range(len(detections["expected_ranges_m"]))) - tagged
    if "estimate" not in positions and not (
            missing and positions.get("error") == "not all paths detected"):
        raise CheckError(f"no position estimate: {positions.get('error')}")
    direct = math.dist(truth, scene["bs"])
    bin_m = SPEED_OF_LIGHT / (2.0 * cfg["bandwidth_hz"])
    hits = [d["range_est"] for d in detections["detections"]
            if d["path_index_hypothesis"] == 0]
    if not hits or abs(hits[0] - direct) > bin_m:
        raise CheckError(f"direct-path range {hits} not within {bin_m} m of {direct}")
    if "estimate" not in positions:
        return
    if abs(positions["ranges_m"][0] - direct) > bin_m:
        raise CheckError(f"direct range {positions['ranges_m'][0]} not within {bin_m} m")
    error = math.dist(positions["estimate"], truth)
    if not _close(positions["error_m"], error):
        raise CheckError(f"error_m {positions['error_m']} != |estimate - truth| {error}")


def check_run_dir(out: Path, cfg: dict, scene: dict, schema_dir: Path) -> dict:
    "All checks on one `run` output directory; returns the deployment."
    if (out / "error.json").exists():
        raise CheckError(f"error.json written: {(out / 'error.json').read_text()}")
    dep = load_strict(out / "deployment.json")
    validate(dep, schema_dir, "deployment")
    check_deployment(dep, cfg, scene)
    with open(out / "convergence.csv", newline="") as fh:
        check_convergence(list(csv.DictReader(fh)), dep, cfg)
    if dep["mode"] != "comm-only":
        positions = load_strict(out / "positions.json")
        detections = load_strict(out / "detections.json")
        validate(positions, schema_dir, "positions")
        validate(detections, schema_dir, "detections")
        check_radar(positions, detections, cfg, scene)
    return dep


def check_comparison(rows: list, reference_objective: float | None = None):
    "The mode-comparison directions (A7) and agreement with a `run` of full-isac."
    by_mode = {r["mode"]: r for r in rows}
    failed = [r["mode"] for r in rows if r["status"] != "ok"]
    if failed:
        raise CheckError(f"compare modes failed: {failed}")
    full, comm = by_mode["full-isac"], by_mode["comm-only"]
    base, passive = by_mode["pathloss-baseline"], by_mode["passive-orientation"]
    if len(comm["sizes_m"]) != len(full["sizes_m"]) or not all(
            c < f for c, f in zip(comm["sizes_m"], full["sizes_m"])):
        raise CheckError(f"comm-only sizes {comm['sizes_m']} not below full-isac "
                         f"{full['sizes_m']}")
    if comm["sensing"] != "not available":
        raise CheckError("comm-only claims sensing")
    if not all(b >= f for b, f in zip(base["sizes_m"], full["sizes_m"])):
        raise CheckError(f"pathloss-baseline sizes {base['sizes_m']} below full-isac")
    if not passive["coverage_pct"] < 100.0:
        raise CheckError("passive-orientation covers every cell")
    if reference_objective is not None and full["objective"] != reference_objective:
        raise CheckError(f"full-isac objective {full['objective']} != run's "
                         f"{reference_objective}")


def check_compare_dir(out: Path, schema_dir: Path, reference_objective=None) -> list:
    rows = load_strict(out / "comparison.json")
    validate(rows, schema_dir, "comparison")
    check_comparison(rows, reference_objective)
    return rows
