"""Seeded box-building city for the ``city-run`` workload.

The city is a row of street blocks, one per RIS the plan needs, around a base
station that looks down the blocks (+y). Each block has a low front building
that shadows a UE street area from the BS and a tall back building whose
south face can see the BS over the front building, the UAV volume and the
street. The blocks are far enough apart that no face serves two streets, so
greedy set cover picks one RIS per block. Filler buildings behind and beside
the blocks add geometry (line of sight and image-method reflections test
every building) without changing which cells need a RIS.

The seed places the filler buildings (position, size, height); the same seed
always gives the same city. The street blocks and the planner seed are fixed:
on three RISs the Nelder-Mead path length varies from 71 to 245 iterations
between seeds (a 12-27 s run), which swamped the geometry signal this
workload exists for. Planner-seed variation is measured by demo-run instead.
The fillers never change the plan, only the cost of every geometry query.
"""

import json
import math
from pathlib import Path

import numpy as np

BLOCKS = 3  # street blocks, one RIS each
BLOCK_PITCH = 90.0  # m between block centres along x
FILLERS = 6  # extra buildings that add geometry only
STREET_M = (25.0, 15.0)  # UE street area per block (x, y); 5 m cells give 5 x 3
WIDTH = 340.0  # scene extent along x, m
DEPTH = 260.0  # scene extent along y, m
PL_MAX_DB = 97.0  # the demo value; set cover is feasible with it
PLAN_SEED = 0  # planner seed of every city plan


def _box(xmin, ymin, xmax, ymax, height) -> dict:
    return {"footprint": [[xmin, ymin], [xmax, ymin], [xmax, ymax], [xmin, ymax]],
            "height": round(float(height), 3)}


def _overlaps(a, b, gap) -> bool:
    return not (a[2] + gap <= b[0] or b[2] + gap <= a[0]
                or a[3] + gap <= b[1] or b[3] + gap <= a[1])


def make_scene(seed: int) -> dict:
    "Scene JSON (the repo's scene schema) for one seed."
    rng = np.random.default_rng([seed, 0xC17])
    mid = WIDTH / 2.0
    buildings, ue_areas, rects = [], [], []
    for k in range(BLOCKS):
        xc = mid + (k - (BLOCKS - 1) / 2.0) * BLOCK_PITCH
        front = (xc - 27.0, 60.0, xc + 27.0, 70.0)
        back = (xc - 13.0, 95.0, xc + 13.0, 115.0)
        buildings.append(_box(*front, 16.0))
        buildings.append(_box(*back, 40.0))
        street = (xc - STREET_M[0] / 2, 82.5 - STREET_M[1] / 2,
                  xc + STREET_M[0] / 2, 82.5 + STREET_M[1] / 2)
        ue_areas.append(list(street))
        rects += [front, back, street]
    uav = [mid - 15.0, 25.0, mid + 15.0, 45.0]
    rects.append((mid - 20.0, 0.0, mid + 20.0, 50.0))  # BS and UAV volume stay clear
    placed = 0
    while placed < FILLERS:
        w, d = rng.uniform(12.0, 30.0, size=2)
        x0 = rng.uniform(5.0, WIDTH - 5.0 - w)
        y0 = rng.uniform(125.0, DEPTH - 5.0 - d)
        rect = (round(x0, 2), round(y0, 2), round(x0 + w, 2), round(y0 + d, 2))
        if any(_overlaps(rect, r, 4.0) for r in rects):
            continue
        rects.append(rect)
        buildings.append(_box(*rect, rng.uniform(10.0, 45.0)))
        placed += 1
    return {"buildings": buildings, "bs": [mid, 10.0, 30.0],
            "bounds": {"lo": [0.0, 0.0, 0.0], "hi": [WIDTH, DEPTH, 80.0]},
            "ue_areas": ue_areas, "uav_area": uav, "bs_orientation_psi": math.pi / 2.0}


def make_config(demo_config: dict, scene_name: str) -> dict:
    "The demo radio parameters with the city scene, its pl_max_db and PLAN_SEED."
    cfg = dict(demo_config)
    cfg.update({"scene": scene_name, "pl_max_db": PL_MAX_DB, "seed": PLAN_SEED})
    return cfg


def write(out_dir: Path, seed: int, demo_config_path: Path) -> Path:
    "Write city_scene.json and city_config.json; return the config path."
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(demo_config_path) as fh:
        demo = json.load(fh)
    (out_dir / "city_scene.json").write_text(json.dumps(make_scene(seed), indent=1))
    cfg_path = out_dir / "city_config.json"
    cfg_path.write_text(json.dumps(make_config(demo, "city_scene.json"), indent=1))
    return cfg_path
