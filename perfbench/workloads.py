"""Benchmark workloads and the counts each invocation must produce.

A workload is an ordered list of ``lsalab <experiment>`` invocations that run
one after another (a closed loop with one client).  Every invocation gets the
benchmark seed as ``--seed``; nothing else about it depends on the seed.

The expected unit, row and trajectory-step counts are derived here from the
resolved configs, independently of the program, so the benchmark can check
the program's CSV files and the counts the tracer sees at the public-function
boundary against them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

EXPERIMENTS = (
    "lyapunov", "bounds", "simulate", "rademacher", "clt", "wasserstein", "rosenthal",
)

# Experiments whose rows are exact checks (solver residuals, proved
# inequalities, closed-form identities) with no Monte Carlo in them: a failing
# row there is a wrong result, not sampling noise.
EXACT_EXPERIMENTS = ("lyapunov", "rosenthal")

_SCALAR_FACTOR = {
    "kind": "bounded_factor", "abar": [[1.0]], "bbar": [0.0], "m": [[1.0]],
    "eta": 0.5, "sigma": 1.0,
}

# The program's documented defaults (lsalab.experiments), resolved.  A default
# that changes shows up as a count mismatch in the benchmark's checks.
DEFAULTS = {
    "lyapunov": {"n_traj": 1000},
    "bounds": {"alphas": [0.1], "ns": [10, 50, 200], "ps": [2.0], "n_traj": 1000},
    "simulate": {"alphas": [0.1, 0.05], "ns": [200], "n_traj": 1000, "model": _SCALAR_FACTOR},
    "rademacher": {"alphas": [0.1], "ns": [400, 1000], "deltas": [0.1, 0.05]},
    "clt": {"alphas": [0.1, 0.05], "n_traj": 1000, "model": _SCALAR_FACTOR},
    "wasserstein": {"alphas": [0.1], "ns": [50, 100, 200], "n_traj": 1000},
    "rosenthal": {"alphas": [0.25, 0.9], "qs": [2, 3, 4], "rhos": [0.5], "n_traj": 1000},
}


def _band_matrix(d: int, diag: float, upper: float, lower: float) -> list[list[float]]:
    return [
        [diag if i == j else upper if j == i + 1 else lower if j == i - 1 else 0.0
         for j in range(d)]
        for i in range(d)
    ]


# Fixed 8-dimensional bounded-factor model: abar = I + 0.25 (super - sub),
# m = 0.5 I + 0.25 (super + sub).  Its d > 1 paths take the per-trajectory,
# per-step Python loops in the engine.
MODEL_D8 = {
    "kind": "bounded_factor",
    "abar": _band_matrix(8, 1.0, 0.25, -0.25),
    "bbar": [1.0] * 8,
    "m": _band_matrix(8, 0.5, 0.25, 0.25),
    "eta": 0.5,
    "sigma": 1.0,
}


@dataclass(frozen=True)
class Invocation:
    """One ``lsalab <experiment>`` process: config file contents and flags."""

    label: str
    experiment: str
    config: dict = field(default_factory=dict)
    workers: int = 1
    format: str = "csv"

    def resolved(self) -> dict:
        return {**DEFAULTS[self.experiment], **self.config}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    invocations: tuple[Invocation, ...]


WORKLOADS = {
    "mc-loop": Workload(
        "mc-loop",
        "d=1 and d=8 simulate plus d=8 wasserstein: per-trajectory, per-step "
        "Python loops in the engine",
        (
            Invocation("simulate-d1", "simulate", {"n_traj": 300}),
            Invocation("simulate-d8", "simulate",
                       {"model": MODEL_D8, "alphas": [0.1, 0.05], "ns": [200], "n_traj": 100}),
            Invocation("wasserstein-d8", "wasserstein",
                       {"model": MODEL_D8, "alphas": [0.1, 0.05], "ns": [50, 100, 200],
                        "n_traj": 600}),
        ),
    ),
    "mc-batch": Workload(
        "mc-batch",
        "scalar chunked Monte Carlo (bounds, clt, wasserstein): one Philox "
        "stream per trajectory, vectorized stepping",
        (
            Invocation("bounds-batch", "bounds", {"n_traj": 20000}),
            Invocation("clt-batch", "clt", {"n_traj": 10000}),
            Invocation("wasserstein-batch", "wasserstein", {"n_traj": 20000}),
        ),
    ),
    "many-units": Workload(
        "many-units",
        "thousands of ms-scale units (lyapunov, rosenthal) on a 2-worker "
        "pool: solves, norms, per-unit planning, emission",
        (
            Invocation("lyapunov-units", "lyapunov", {"n_traj": 3000}, workers=2, format="both"),
            Invocation("rosenthal-units", "rosenthal", {"n_traj": 3000}, workers=2, format="both"),
        ),
    ),
}

DEFAULT_RUNS = tuple(Invocation(f"default-{name}", name) for name in EXPERIMENTS)


def _rosenthal_units(cfg: dict) -> int:
    per_q = sum(q - 1 for q in cfg["qs"])
    return per_q * len(cfg["rhos"]) + per_q + 2 * len(cfg["alphas"]) + cfg["n_traj"]


def _clt_horizon(model: dict, alpha: float) -> int:
    """Burn-in length of a scalar model (lsalab.engine.stationary_horizon).

    For a 1x1 mean matrix abar the Lyapunov solution is q = 1/(2 abar), so the
    contraction rate a equals abar and kappa_q = 1.
    """
    abar = model["abar"][0][0]
    theta_star = model["bbar"][0] / abar
    tol = 1e-8 * (1.0 + abs(theta_star))
    rate = 1.0 - abar * alpha / 2.0
    if tol >= 1.0:
        return 1
    return max(1, math.ceil(2.0 * math.log(tol) / math.log(rate)))


def expected_counts(inv: Invocation) -> tuple[int, int, int]:
    """(units, rows, trajectory steps) that ``inv`` must produce."""
    cfg = inv.resolved()
    exp = inv.experiment
    if exp == "lyapunov":
        return cfg["n_traj"], 2 * cfg["n_traj"], 0
    if exp == "rosenthal":
        units = _rosenthal_units(cfg)
        return units, units, 0
    if exp == "rademacher":
        units = len(cfg["alphas"]) * len(cfg["ns"]) * len(cfg["deltas"])
        return units, 2 * units, 0
    if exp in ("bounds", "simulate"):
        ps = cfg["ps"] if exp == "bounds" else [None]
        units = len(cfg["alphas"]) * len(cfg["ns"]) * len(ps)
        steps = len(cfg["alphas"]) * len(ps) * sum(cfg["ns"]) * cfg["n_traj"]
        return units, units, steps
    if exp == "clt":
        model = cfg["model"]
        steps = sum(_clt_horizon(model, al) for al in cfg["alphas"]) * cfg["n_traj"]
        return len(cfg["alphas"]), 3 * len(cfg["alphas"]), steps
    if exp == "wasserstein":
        if not cfg["ns"]:
            return 0, 0, 0
        units = len(cfg["alphas"])
        return units, units * len(cfg["ns"]), units * max(cfg["ns"]) * cfg["n_traj"]
    raise ValueError(f"unknown experiment {exp!r}")
