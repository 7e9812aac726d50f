"""Span tracing of risdeploy's layers from outside the program.

Each traced public function is replaced by a timing wrapper at every name it
is bound to: the defining module's attribute and every ``from ... import``
copy in another risdeploy module (``line_of_sight`` lives in ``scene`` and
``propagation``, ``fim`` in ``sensing``, ``optimizer`` and ``evaluation``).
Methods are wrapped on their class. Spans (name, start, end, parent, flag)
stay in compact in-memory arrays and are written out once, after the command
returns. One command is one request, so every span of a file shares it.
"""

import functools
import sys
import time
from array import array

import numpy as np

# (module, attribute) of every traced public function, grouped by layer.
TARGETS = (
    ("cli", "main"), ("cli", "build_context"), ("cli", "optimize"),
    ("cli", "radar_stage"), ("cli", "write_rv_map_csv"),
    ("scene", "load_scene"), ("scene", "line_of_sight"), ("scene", "point_in_polygon"),
    ("scene", "build_grids"), ("scene", "candidate_regions"),
    ("scene", "select_ris_regions"),
    ("propagation", "dominant_path_between"), ("propagation", "enumerate_paths"),
    ("optimizer", "step1_evaluate"), ("optimizer", "orientation_search"),
    ("optimizer", "reference_comm_snr"), ("optimizer", "reference_sensing_crbs"),
    ("optimizer", "direct_power_share"), ("optimizer", "initial_simplex"),
    ("optimizer", "nelder_mead_run"), ("optimizer", "pathloss_baseline"),
    ("sensing", "qpsk_symbols"), ("sensing", "OfdmWaveform.moments"), ("sensing", "fim"),
    ("evaluation", "closure_report"), ("evaluation", "explicit_ue_snr"),
    ("evaluation", "explicit_sensing_crb"), ("evaluation", "demo_sensing_paths"),
    ("radar", "synthesize_returns"), ("radar", "range_velocity_map"),
    ("radar", "detect_paths"), ("radar", "ls_position"),
)
LAYERS = ("cli", "scene", "propagation", "optimizer", "sensing", "evaluation", "radar")

FLAG_RAISED = 1
FLAG_LOS = 2


def _los_flag(path) -> int:
    "dominant_path_between answered from its line-of-sight fast path."
    return FLAG_LOS if path.kind == "los" else 0


class Tracer:
    """Owns the span arrays and the wrappers installed into risdeploy."""

    def __init__(self):
        self.names = [f"{mod}.{attr}" for mod, attr in TARGETS]
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.flag = array("b")
        self.stack = []
        self.bindings = {}
        self.iterations = 0  # Nelder-Mead iterations, read off returned results

    def _wrap(self, nid: int, fn, on_result=None):
        tracer = self
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(tracer.start)
            tracer.name_id.append(nid)
            tracer.parent.append(tracer.stack[-1] if tracer.stack else -1)
            tracer.start.append(0.0)
            tracer.end.append(0.0)
            tracer.flag.append(0)
            tracer.stack.append(idx)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                tracer.flag[idx] = FLAG_RAISED
                raise
            finally:
                t1 = clock()
                tracer.stack.pop()
                tracer.start[idx] = t0
                tracer.end[idx] = t1
            if on_result is not None:
                tracer.flag[idx] = on_result(out)
            return out

        return functools.wraps(fn)(traced)

    def _count_iterations(self, result) -> int:
        self.iterations += int(result.iterations)
        return 0

    def install(self):
        "Wrap every target at every name bound to it in the loaded risdeploy modules."
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "risdeploy" or name.startswith("risdeploy.")}
        hooks = {"propagation.dominant_path_between": _los_flag,
                 "optimizer.nelder_mead_run": self._count_iterations}
        for nid, (mod, attr) in enumerate(TARGETS):
            name = self.names[nid]
            owner = modules[f"risdeploy.{mod}"]
            if "." in attr:  # a method: wrap it once, on its class
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, meth, self._wrap(nid, getattr(cls, meth)))
                self.bindings[name] = [f"risdeploy.{mod}.{attr}"]
                continue
            orig = getattr(owner, attr)
            wrapper = self._wrap(nid, orig, hooks.get(name))
            bound = []
            for mod_name, module in modules.items():
                for key, value in list(vars(module).items()):
                    if value is orig:
                        setattr(module, key, wrapper)
                        bound.append(f"{mod_name}.{key}")
            self.bindings[name] = sorted(bound)

    def arrays(self):
        "Spans as NumPy arrays: name id, parent index, start, end, flag."
        return (np.frombuffer(self.name_id, dtype=np.int32).copy(),
                np.frombuffer(self.parent, dtype=np.int32).copy(),
                np.frombuffer(self.start, dtype=np.float64).copy(),
                np.frombuffer(self.end, dtype=np.float64).copy(),
                np.frombuffer(self.flag, dtype=np.int8).copy())

    def write(self, path):
        name_id, parent, start, end, flag = self.arrays()
        np.savez_compressed(path, names=np.array(self.names), name_id=name_id,
                            parent=parent, start=start, end=end, flag=flag)

    def summary(self) -> dict:
        "Per-function calls/time/self time/failures, per-layer self time, step-1 samples."
        name_id, parent, start, end, flag = self.arrays()
        dur = end - start
        has_parent = parent >= 0
        child_time = np.bincount(parent[has_parent], weights=dur[has_parent],
                                 minlength=len(dur))
        self_time = dur - child_time
        functions = {}
        for nid, name in enumerate(self.names):
            sel = name_id == nid
            functions[name] = {
                "calls": int(np.count_nonzero(sel)),
                "s": float(np.sum(dur[sel])),
                "self_s": float(np.sum(self_time[sel])),
                "raised": int(np.count_nonzero(sel & (flag == FLAG_RAISED))),
                "los": int(np.count_nonzero(sel & (flag == FLAG_LOS))),
            }
        layer_self = {layer: 0.0 for layer in LAYERS}
        for name, rec in functions.items():
            layer_self[name.split(".")[0]] += rec["self_s"]
        step1 = self.names.index("optimizer.step1_evaluate")
        return {"functions": functions, "layer_self_s": layer_self,
                "step1_ms": (dur[name_id == step1] * 1e3).tolist(),
                "iterations": self.iterations, "spans": int(len(dur)),
                "bindings": self.bindings}
