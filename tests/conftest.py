"""Shared fixtures: the bundled demo scene context and one converged run.

The full-ISAC Nelder-Mead run is expensive (seconds), so it is computed once
per session and shared by the optimizer, evaluation and acceptance tests.
"""

import json
import sys
from collections import Counter
from dataclasses import replace
from importlib import resources
from pathlib import Path

import pytest

from risdeploy import cli, sensing
from risdeploy.propagation import fspl_amplitude, leg_geometry

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import city  # noqa: E402

VERDICTS = []


def record_verdict(line: str):
    "Collect acceptance verdicts for the end-of-run summary."
    VERDICTS.append(line)


def pytest_terminal_summary(terminalreporter):
    if VERDICTS:
        terminalreporter.section("acceptance criteria")
        for line in VERDICTS:
            terminalreporter.write_line(line)


def demo_config_path() -> str:
    return str(resources.files("risdeploy").joinpath("data/demo_config.json"))


def bench_city_config(out_dir: Path) -> Path:
    "Write the bench's city (city seed 1, planner seed 0) into out_dir; its config path."
    return city.write(out_dir, 1, Path(demo_config_path()))


def bs_leg(ctx, position) -> tuple:
    """Attenuation and departure direction of the straight BS leg of a RIS at
    a position: the leg of reference_sensing_crbs_per_cell, and ris_paths'
    row 0 wherever the RIS sees the BS."""
    length, unit = leg_geometry(position, ctx.scene.bs_position[None, :])
    return fspl_amplitude(length[0], ctx.wavelength), unit[0]


def load_strict(path):
    "Parse a JSON artifact that must hold no NaN or Infinity."
    def reject(constant):
        raise ValueError(f"{path.name} holds {constant}")

    with open(path) as fh:
        return json.load(fh, parse_constant=reject)


@pytest.fixture(scope="session")
def demo_cfg():
    return cli.load_config(demo_config_path())


@pytest.fixture(scope="session")
def ctx_full(demo_cfg):
    return cli.build_context(replace(demo_cfg, mode="full-isac"))


@pytest.fixture(scope="session")
def nm_result(ctx_full):
    return cli.optimize(ctx_full)


def _counted(command, *args):
    "Run a cli command; return its exit code and its calls to build_context and qpsk_symbols."
    calls = Counter()

    def counting(name, fn):
        def wrapper(*a, **kw):
            calls[name] += 1
            return fn(*a, **kw)
        return wrapper

    with pytest.MonkeyPatch.context() as mp:
        for module, name in ((cli, "build_context"), (sensing, "qpsk_symbols")):
            mp.setattr(module, name, counting(name, getattr(module, name)))
        code = command(*args)
    return code, calls


@pytest.fixture(scope="session")
def pipeline_run(demo_cfg, tmp_path_factory):
    "Artifact directory of one full-isac pipeline run, and the run's call counts."
    out = tmp_path_factory.mktemp("run")
    code, calls = _counted(cli.run_pipeline, replace(demo_cfg, mode="full-isac"), out)
    assert code == cli.EXIT_OK
    return out, calls


@pytest.fixture(scope="session")
def run_dir(pipeline_run):
    "Artifacts of one full-isac pipeline run."
    return pipeline_run[0]


@pytest.fixture(scope="session")
def compare_run(demo_cfg, tmp_path_factory):
    "Artifacts of a comparison across all four modes (one optimization per mode), and call counts."
    out = tmp_path_factory.mktemp("compare")
    code, calls = _counted(cli.compare_modes, demo_cfg, list(cli.MODES), out)
    assert code == cli.EXIT_OK
    return out, calls


@pytest.fixture(scope="session")
def compare_dir(compare_run):
    "Artifacts of the comparison across all four modes."
    return compare_run[0]


@pytest.fixture(scope="session")
def compare_rows(compare_dir):
    "Comparison table across all four modes."
    return load_strict(compare_dir / "comparison.json")
