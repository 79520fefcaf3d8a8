"""The benchmark tracer's meters must keep matching lsalab's signatures.

``perfbench/spans.py`` wraps public lsalab functions and calls each meter as
``meter(result, *args, **kwargs)`` with the arguments of the wrapped call, so
a meter names the function's positional parameters after its first one
(``r``, the result).  A renamed, reordered or added positional parameter
makes the meter raise in a traced run; this test catches it first.
``perfbench/layers.py`` looks some functions up by name with
``names.index``, which raises in a traced run if the function is gone or
renamed.  Only metered public functions count trajectory steps, so a traced
run of tiny configs must count exactly the units, rows and steps that
``perfbench/workloads.py`` derives from them; a stepping path the tracer
does not meter fails that check.  The perfbench modules are read and
executed from their source, never imported as packages or written to.
"""

from __future__ import annotations

import ast
import importlib
import inspect
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
SPANS = PERFBENCH / "spans.py"
LAYERS = PERFBENCH / "layers.py"


def _exec_source(path: Path, name: str) -> types.ModuleType:
    module = types.ModuleType(name)
    module.__file__ = str(path)
    # registered while it executes: dataclasses look their module up
    sys.modules[name] = module
    try:
        exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), module.__dict__)
    finally:
        del sys.modules[name]
    return module


SPANS_MODULE = _exec_source(SPANS, "perfbench_spans")
METERS = SPANS_MODULE.METERS
WORKLOADS = _exec_source(PERFBENCH / "workloads.py", "perfbench_workloads")


def _exec_layers() -> types.ModuleType:
    # layers.py imports its sibling as ``spans``
    saved = sys.modules.get("spans")
    sys.modules["spans"] = SPANS_MODULE
    try:
        return _exec_source(LAYERS, "perfbench_layers")
    finally:
        if saved is None:
            del sys.modules["spans"]
        else:
            sys.modules["spans"] = saved


_POSITIONAL = (inspect.Parameter.POSITIONAL_ONLY, inspect.Parameter.POSITIONAL_OR_KEYWORD)


def _positional_names(fn) -> list[str]:
    return [p.name for p in inspect.signature(fn).parameters.values() if p.kind in _POSITIONAL]


def _target(qualname: str):
    layer, name = qualname.split(".")
    module = importlib.import_module(f"lsalab.{layer}")
    if hasattr(module, name):
        return getattr(module, name)
    # the tracer wraps this one on the model class, not the module
    return getattr(module.LsaModel, name)


@pytest.mark.parametrize(
    "qualname",
    [
        name
        for name, meter in METERS.items()
        if not any(
            p.kind is inspect.Parameter.VAR_POSITIONAL
            for p in inspect.signature(meter).parameters.values()
        )
    ],
)
def test_meter_names_the_positional_parameters(qualname):
    meter_names = _positional_names(METERS[qualname])
    assert meter_names[0] == "r"
    assert _positional_names(_target(qualname)) == meter_names[1:]


def test_every_metered_function_exists():
    for qualname in METERS:
        assert callable(_target(qualname)), qualname


def _names_looked_up_by_index() -> set[str]:
    """Every function name ``layers.py`` passes to ``names.index``.

    A literal argument is read directly; an argument bound by an unfiltered
    comprehension is evaluated over the comprehension's iterable in the
    executed module.  Lookups guarded by ``if m in names`` tolerate absence
    and are skipped.
    """
    layers = _exec_layers()

    def is_lookup(node) -> bool:
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "index"
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "names"
        )

    found = set()
    tree = ast.parse(LAYERS.read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if is_lookup(node) and isinstance(node.args[0], ast.Constant):
            found.add(node.args[0].value)
        if isinstance(node, (ast.SetComp, ast.ListComp, ast.GeneratorExp)) and is_lookup(node.elt):
            (gen,) = node.generators
            if not gen.ifs:
                found.update(eval(ast.unparse(gen.iter), layers.__dict__))
    return found


def test_functions_layers_looks_up_by_name_exist():
    found = _names_looked_up_by_index()
    assert found >= {
        "experiments.run", "cli.main", "experiments.config_from_dict", "experiments.resolve",
        "experiments.validate", "noise.sample_path", "rng.uniform_open01",
        "linalg.solve_lyapunov", "linalg.solve_sigma", "linalg.solve_riccati",
    }
    for qualname in sorted(found):
        assert not qualname.split(".")[1].startswith("_"), qualname
        assert callable(_target(qualname)), qualname


# Tiny configs of every experiment that steps trajectories.
_TRACED = {
    "bounds": {"alphas": [0.1], "ns": [10, 20], "ps": [2.0], "n_traj": 50},
    "simulate": {"alphas": [0.1, 0.05], "ns": [20], "n_traj": 30},
    "simulate-d8": {"model": WORKLOADS.MODEL_D8, "alphas": [0.1], "ns": [15], "n_traj": 10},
    "clt": {"alphas": [0.1], "n_traj": 50},
    "wasserstein": {"alphas": [0.1], "ns": [10, 20], "n_traj": 50},
}


@pytest.mark.parametrize("label", sorted(_TRACED))
def test_traced_counts_match_the_config(label, tmp_path):
    experiment = label.split("-")[0]
    inv = WORKLOADS.Invocation(label, experiment, _TRACED[label])
    config = tmp_path / "config.json"
    config.write_text(json.dumps(inv.config), encoding="utf-8")
    prefix = tmp_path / label
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(PERFBENCH / "child.py"), "run", f"{prefix}.timing.json",
         f"{prefix}.spans", experiment, "--seed", "3", "--out", str(prefix),
         "--config", str(config)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300, check=False,
    )
    assert done.returncode in (0, 3), done.stderr
    traced = _exec_layers().analyze(f"{prefix}.spans")
    assert traced["meter_errors"] == 0
    seen = (traced["experiments.units"], traced["rows"], traced["engine.traj_steps"])
    assert seen == WORKLOADS.expected_counts(inv)
