"""The benchmark tracer's meters must keep matching lsalab's signatures.

``perfbench/spans.py`` wraps public lsalab functions and calls each meter as
``meter(result, *args, **kwargs)`` with the arguments of the wrapped call, so
a meter names the function's positional parameters after its first one
(``r``, the result).  A renamed, reordered or added positional parameter
makes the meter raise in a traced run; this test catches it first.  The
tracer module is read and executed from its source, never imported as a
package or written to.
"""

from __future__ import annotations

import importlib
import inspect
import types
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_meters() -> dict:
    module = types.ModuleType("perfbench_spans")
    module.__file__ = str(SPANS)
    exec(compile(SPANS.read_text(encoding="utf-8"), str(SPANS), "exec"), module.__dict__)
    return module.METERS


METERS = _load_meters()

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
