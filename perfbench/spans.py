"""In-process span recorder for one traced ``lsalab`` invocation.

``Recorder.install`` wraps every public function of each lsalab module (the
layers) and rebinds the wrapper wherever the module namespaces hold the
original, i.e. at every import site and for same-module calls.  Nothing
under ``src/`` changes; the untraced program runs with no wrapper at all.

Each call records one span: name, start, end, the enclosing span, an
optional work count and dimension taken from its arguments or result, and
the kind of exception it raised.  Spans are kept in flat typed arrays and
written once, at exit, as ``<prefix>.json`` (name table and length) plus
``<prefix>.bin`` (the arrays back to back in ``FIELDS`` order).
"""

from __future__ import annotations

import inspect
import json
import math
import os
import sys
import time
from array import array

LAYERS = ("cli", "experiments", "rng", "noise", "engine", "linalg", "bounds", "rosenthal")

# (field, array typecode), in file order.
FIELDS = (
    ("start", "d"), ("end", "d"), ("parent", "q"), ("name", "q"),
    ("work", "d"), ("dim", "q"), ("err", "b"),
)

# Exception kinds recorded per span; anything else raised is ERR_OTHER.
ERR_NONE, ERR_BLOWUP, ERR_RESIDUAL, ERR_OTHER = 0, 1, 2, 3
_ERR_KINDS = {"TrajectoryBlowup": ERR_BLOWUP, "SolverResidualError": ERR_RESIDUAL}


def _words(size) -> int:
    return math.prod(size) if isinstance(size, tuple) else int(size)


# Work and dimension of a call, from its result (None if it raised) and its
# arguments, spelled with the wrapped function's own signature.
METERS = {
    "rng.uniform_open01": lambda r, gen, size: (_words(size), 0),
    "noise.sample_path": lambda r, self, gen, n: (n, self.dim),
    # Trajectory steps: n per trajectory.
    "engine.run_trajectory": lambda r, model, alpha, theta0, n, gen: (n, model.dim),
    "engine.run_decomposed": lambda r, model, alpha, theta0, n, gen: (n, model.dim),
    "engine.product": lambda r, model, alpha, n, gen: (n, model.dim),
    "engine.final_errors": (
        lambda r, model, alpha, theta0, n, n_traj, seed: (n * n_traj, model.dim)
    ),
    "engine.mc_norm_moment": lambda r, model, alpha, n, p, n_traj, seed: (n * n_traj, model.dim),
    "engine.coupled_w2": (
        lambda r, model, alpha, n, theta0_a, theta0_b, n_traj, seed: (n * n_traj, model.dim)
    ),
    "linalg.solve_lyapunov": lambda r, abar: (0, len(abar)),
    "linalg.solve_sigma": lambda r, abar, sigma_eps: (0, len(abar)),
    "linalg.solve_riccati": lambda r, abar, sigma_eps, alpha: (0, len(abar)),
    "experiments.run_unit": lambda r, config, index: (len(r) if r is not None else 0, 0),
    "experiments.write_outputs": (
        lambda r, config, rows, wall_time_s:
        (sum(os.path.getsize(p) for p in r) if r is not None else 0, 0)
    ),
    "rosenthal.attach_wasserstein": (
        lambda r, *args, **kwargs: (int(r is not None and r.delta_alpha is None), 0)
    ),
}


class Recorder:
    """Collects spans of the wrapped lsalab functions in this process."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.arrays = {name: array(code) for name, code in FIELDS}
        self.stack: list[int] = []
        self.meter_errors = 0

    def wrap(self, qualname: str, fn, meter=None):
        name_id = len(self.names)
        self.names.append(qualname)
        a = self.arrays
        start, end, parent, name = a["start"], a["end"], a["parent"], a["name"]
        work, dim, err = a["work"], a["dim"], a["err"]
        stack = self.stack
        clock = time.monotonic
        recorder = self

        def traced(*args, **kwargs):
            idx = len(start)
            parent.append(stack[-1] if stack else -1)
            name.append(name_id)
            work.append(0.0)
            dim.append(0)
            err.append(ERR_NONE)
            end.append(0.0)
            stack.append(idx)
            result = None
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                err[idx] = _ERR_KINDS.get(type(exc).__name__, ERR_OTHER)
                raise
            finally:
                end[idx] = clock()
                stack.pop()
                if meter is not None:
                    try:
                        w, d = meter(result, *args, **kwargs)
                        work[idx] = w
                        dim[idx] = d
                    except (TypeError, AttributeError, ValueError, OSError):
                        recorder.meter_errors += 1

        traced.__wrapped__ = fn
        for attr in ("__module__", "__name__", "__qualname__", "__doc__"):
            setattr(traced, attr, getattr(fn, attr))
        return traced

    def install(self) -> None:
        """Wrap every public lsalab function and rebind it at its import sites."""
        import lsalab  # noqa: F401  (loads every layer module)
        import lsalab.cli  # noqa: F401

        wrappers: dict[int, object] = {}
        for layer in LAYERS:
            module = sys.modules[f"lsalab.{layer}"]
            for attr, obj in vars(module).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                ):
                    qualname = f"{layer}.{attr}"
                    wrappers[id(obj)] = self.wrap(qualname, obj, METERS.get(qualname))
        package = [m for n, m in sys.modules.items() if n == "lsalab" or n.startswith("lsalab.")]
        for module in package:
            for attr, obj in list(vars(module).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    setattr(module, attr, wrapper)
        model_cls = sys.modules["lsalab.noise"].LsaModel
        model_cls.sample_path = self.wrap(
            "noise.sample_path", model_cls.sample_path, METERS["noise.sample_path"]
        )

    def dump(self, prefix: str) -> None:
        """Write the recorded spans to ``<prefix>.json`` and ``<prefix>.bin``."""
        with open(prefix + ".bin", "wb") as handle:
            for field, _ in FIELDS:
                self.arrays[field].tofile(handle)
        header = {
            "names": self.names,
            "count": len(self.arrays["start"]),
            "meter_errors": self.meter_errors,
        }
        with open(prefix + ".json", "w", encoding="utf-8") as handle:
            json.dump(header, handle)


def load(prefix: str) -> tuple[list[str], dict[str, array], int]:
    """Read spans written by ``Recorder.dump``: (names, arrays, meter errors)."""
    with open(prefix + ".json", encoding="utf-8") as handle:
        header = json.load(handle)
    count = header["count"]
    arrays = {}
    with open(prefix + ".bin", "rb") as handle:
        for field, code in FIELDS:
            arr = array(code)
            arr.fromfile(handle, count)
            arrays[field] = arr
    return header["names"], arrays, header["meter_errors"]
