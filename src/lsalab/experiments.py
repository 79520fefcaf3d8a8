"""Experiment drivers: validated configs, grid fan-out, rows with verdicts.

Each experiment is one record in ``_EXPERIMENTS``: its parameter columns,
default grids and model, its unit plan, the coordinates of each unit's rows,
its runner and the runner's exact halves, which ``validate`` dry-runs, so
the function that computes with a precondition is the one that checks it.
Adding an experiment means adding a record and a runner; the driver reads
everything else from the table.  A runner returns one verdict per row
(value, pass, error, oracle, bound, note); ``run_unit`` is the one place
that pairs the verdicts with the record's coordinates and builds the rows.

Each experiment orders its work into units: the explicit units of its
parameter grid, in row order, then, for ``lyapunov`` and ``rosenthal``,
n_traj trials, each computed from its number, so a run never holds its
trials and plans in time linear in its unit count.  Unit i draws randomness
only from streams keyed by its unit seed ``(config.seed + i) mod 2**64``, so
a unit is a pure function of ``(config, i)``; ``_unit_seed`` is the one
place that rule is written, and blocked units read their seeds from it too.
A pool run hands the units to its workers in contiguous chunks and
reassembles them in index order, so a full run produces identical rows
whatever the worker count, the chunk layout or the order in which workers
finish.  An experiment may compute its trials in blocks: ``lyapunov`` solves
256 trials at a time, those of each dimension in one call of
``lsalab.linalg``'s stacked kernels on one shared Kronecker sum, and
``rosenthal`` draws its ``bsum`` trials 512 at a time and checks those of
each length in one stacked call; the units read their rows from the block.
A pool chunk is a whole number of blocks, and a unit's rows are the same
bits at any block size.  Failures inside a unit (simulation blow-ups, solver
breakdowns) are recorded in the affected rows themselves -- empirical = nan,
pass = false, with the message kept on the row's ``note`` field -- and never
abort the run.

Emission: ``csv_text`` renders the fixed column schema

    experiment,<param keys>,empirical,std_err,oracle,bound,pass,seed

with every float at 17 significant digits; ``json_text`` mirrors the same
rows as objects plus a metadata header (package version, a hash of the
scientific config fields, wall time), with null for a nan or infinite cell.
``note`` is an in-memory diagnostic only and appears in neither format.
One renderer serves both texts and ``write_outputs``: it renders the rows
``_BATCH_ROWS`` at a time into pieces (the head, one joined batch each, the
tail), which the texts join and the writer streams to its file, so a run
holds one batch's text rather than a whole file's.  A row whose ``params``
are the experiment's keys in order has its cells read by position and is
written through a printf template cached per row shape, the tuple of its
cells' types, so a row is one ``%`` operation; bool cells are passed as
"true"/"false" and JSON strings already escaped, so a template holds no
cell's value.  Any other row, and one holding a numpy scalar or, in JSON, a
non-finite float, is written cell by cell by ``_fmt_cell`` or
``_json_cell``: the reference path, whose bytes the templates reproduce.
"""

from __future__ import annotations

import copy
import functools
import hashlib
import itertools
import json
import math
import os
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass, fields, replace
from itertools import repeat
from json.encoder import encode_basestring_ascii
from typing import NamedTuple

import numpy as np

from lsalab.bounds import product_moment_bound, rademacher_tail_thresholds, sigma_gap_bound
from lsalab.engine import (
    _decomposed_errors,
    _decomposition_residuals,
    _mean_var,
    coupled_exact_sq,
    coupled_w2,
    empirical_ks,
    exact_product_moment,
    final_errors,
    mc_norm_moment,
    rademacher_exact_tail,
    sample_stationary,
)
from lsalab.linalg import (
    SolverResidualError,
    _geometry,
    _kron,
    _kron_sum,
    _lyapunov_q,
    _norms,
    _require_finite,
    _require_hurwitz,
    _solve_stationary,
    _t,
    solve_riccati,
    solve_sigma,
    spectral_profile,
)
from lsalab.noise import (
    LsaModel,
    biased_rademacher_model,
    bounded_factor_model,
    exact_stationary_cov,
    lyapunov_witness,
    rademacher_gaussian_model,
    td_zero_model,
)
from lsalab.rng import _normals, _seed_uniforms, _special
from lsalab.rosenthal import (
    B_UQ_EXACT_MAX_Q,
    ROOT_RESIDUAL_TOL,
    _delta_gap,
    attach_wasserstein,
    b_uq_exact,
    b_uq_upper,
    composition_count,
    contraction_horizon,
    geometric_sum_check,
    v_geometric_constants,
)

_CSV_TAIL = ("empirical", "std_err", "oracle", "bound", "pass", "seed")

# Verdict tolerances of the deterministic checks: rounding allowances of the
# solves, sums and identities they compare.
SOLVER_RESIDUAL_TOL = 1e-10
CONTRACTION_SLACK = 1e-12
DECOMPOSITION_TOL = 1e-9
GEOMETRIC_SUM_TOL = 1e-10
# relative to the oracle or bound: the rounding allowance of _band and _dominates
REL_SLACK = 1e-12
# The Monte Carlo verdict band: SE_MULT standard errors, applied by _band
# alone, and KS_TOL, the cap on the systematic part of clt's KS distance.
SE_MULT = 4.0
KS_TOL = 0.02
_LYAPUNOV_MAX_DIM = 8
# numpy's error state for the runners and their exact halves: an overflow
# reaches the row and its note, not stderr
_QUIET = {"over": "ignore", "invalid": "ignore", "divide": "ignore"}
# the tails each rademacher unit checks, one row each
_SIDES = ("upper", "lower")


class ConfigError(ValueError):
    """Raised when a config fails validation; carries the full error list."""

    def __init__(self, errors: list[str]):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment run: grids, model, sampling effort, output shape.

    Grid fields left as ``None`` take the experiment's documented defaults;
    an explicit empty list stays empty and yields header-only output files.
    Every run is judged at the Monte Carlo band ``SE_MULT`` and ``KS_TOL``.
    """

    experiment: str
    model: dict | None = None
    alphas: tuple[float, ...] | None = None
    ns: tuple[int, ...] | None = None
    deltas: tuple[float, ...] | None = None
    ps: tuple[float, ...] | None = None
    qs: tuple[int, ...] | None = None
    rhos: tuple[float, ...] | None = None
    n_traj: int = 1000
    seed: int = 0
    workers: int = 1
    out: str = "lsalab_results"
    format: str = "csv"


@dataclass(frozen=True)
class ResultRow:
    """One grid point's verdict.

    ``params`` is an ordered (key, value) tuple matching the experiment's
    fixed column order, with "" for coordinates the row does not use.
    ``passed`` is computed when the row is built, from quantities stored on
    the row.  ``note`` carries failure messages and side facts; it is kept
    in memory for callers but excluded from file output.
    """

    experiment: str
    params: tuple[tuple[str, object], ...]
    empirical: float
    std_err: float
    oracle: float | None
    bound: float | None
    passed: bool
    seed: int
    note: str = ""

    @property
    def param_dict(self) -> dict:
        return dict(self.params)


class _Verdict(NamedTuple):
    """What a runner finds for one row; ``run_unit`` builds the row from it.

    ``params`` is set only where a unit draws a row coordinate itself
    (lyapunov's alpha); ``run_unit`` then prefers it to the record's.
    """

    empirical: float
    passed: bool
    std_err: float = 0.0
    oracle: float | None = None
    bound: float | None = None
    note: str = ""
    params: tuple | None = None


# ---------------------------------------------------------------------------
# Config construction, resolution, validation.
# ---------------------------------------------------------------------------

_GRID_FIELDS = ("alphas", "ns", "deltas", "ps", "qs", "rhos")
_INT_GRIDS = ("ns", "qs")

# What every entry of each grid must satisfy, whichever experiment reads it.
_GRID_WINDOWS = {
    "alphas": ("must be positive and finite", lambda v: math.isfinite(v) and v > 0.0),
    "ns": ("must be >= 0", lambda v: v >= 0),
    "deltas": ("must lie in (0, 1)", lambda v: math.isfinite(v) and 0.0 < v < 1.0),
    "ps": ("must be >= 2", lambda v: math.isfinite(v) and v >= 2.0),
    # B_UQ_EXACT_MAX_Q ends b_uq_exact's integer range and bounds a count unit's brute force
    "qs": (f"must be >= 2 and within the exact-integer range (q <= {B_UQ_EXACT_MAX_Q})",
           lambda v: 2 <= v <= B_UQ_EXACT_MAX_Q),
    "rhos": ("must lie in (0, 1)", lambda v: math.isfinite(v) and 0.0 < v < 1.0),
}


def _coerce_int(value) -> int:
    if isinstance(value, bool):
        raise TypeError("expected an integer, got a boolean")
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise TypeError(f"expected an integer, got {value!r}")


def _coerce_float(value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise TypeError(f"expected a number, got {value!r}")
    return float(value)


def config_from_dict(data: dict) -> tuple[ExperimentConfig, list[str]]:
    """Build a config from a plain dict (e.g. a parsed JSON file).

    Structural problems -- unknown keys, wrong types, non-numeric grid
    entries -- are all collected and returned alongside the best-effort
    config; broken fields fall back to their defaults so later semantic
    validation can still report everything else.
    """
    errors: list[str] = []
    known = {f.name for f in fields(ExperimentConfig)}
    values: dict = {}
    for key in sorted(set(data) - known):
        errors.append(f"unknown config key {key!r}")
    exp = data.get("experiment")
    if not isinstance(exp, str):
        errors.append("config must name an experiment (string field 'experiment')")
        exp = ""
    values["experiment"] = exp
    if "model" in data:
        if data["model"] is None or isinstance(data["model"], dict):
            values["model"] = data["model"]
        else:
            errors.append("model must be an object of model parameters")
    for name in _GRID_FIELDS:
        if name not in data:
            continue
        raw = data[name]
        if raw is None:
            continue
        if not isinstance(raw, (list, tuple)):
            errors.append(f"{name} must be a list of numbers")
            continue
        coerce = _coerce_int if name in _INT_GRIDS else _coerce_float
        items = []
        ok = True
        for i, entry in enumerate(raw):
            try:
                items.append(coerce(entry))
            except TypeError as exc:
                errors.append(f"{name}[{i}]: {exc}")
                ok = False
        if ok:
            values[name] = tuple(items)
    for name in ("n_traj", "seed", "workers"):
        if name in data:
            try:
                values[name] = _coerce_int(data[name])
            except TypeError as exc:
                errors.append(f"{name}: {exc}")
    for name in ("out", "format"):
        if name in data:
            if isinstance(data[name], str):
                values[name] = data[name]
            else:
                errors.append(f"{name} must be a string")
    return ExperimentConfig(**values), errors


def resolve(config: ExperimentConfig) -> ExperimentConfig:
    """Fill None fields with the experiment's defaults (idempotent).

    Unknown experiment names resolve trivially so that validation can
    report them.
    """
    exp = _EXPERIMENTS.get(config.experiment)
    if exp is None:
        return config
    updates: dict = {
        name: exp.grids.get(name, ()) for name in _GRID_FIELDS if getattr(config, name) is None
    }
    if config.model is None and exp.model is not None:
        # a deep copy: the default's nested lists must not be shared with
        # a caller that edits the resolved model in place
        updates["model"] = copy.deepcopy(exp.model)
    return replace(config, **updates) if updates else config


# Each model kind's builder, called with the spec's other keys.  The lambdas
# look the builder up when called, so they see the rebinding of module-level
# names that tracing uses.
_MODEL_KINDS = {
    "biased_rademacher": lambda **kw: biased_rademacher_model(**kw),
    "rademacher_gaussian": lambda **kw: rademacher_gaussian_model(**kw),
    "bounded_factor": lambda **kw: bounded_factor_model(**kw),
    "td_zero": lambda **kw: td_zero_model(**kw),
}


def _build_model(spec: dict) -> LsaModel:
    """Instantiate a simulation model from its config dict."""
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ValueError("model must be an object with a 'kind' field")
    kind = spec["kind"]
    # a kind that is not a string (a list, say) may not even be hashable
    builder = _MODEL_KINDS.get(kind) if isinstance(kind, str) else None
    if builder is None:
        raise ValueError(
            f"unknown model kind {kind!r}; expected one of " + ", ".join(_MODEL_KINDS)
        )
    try:
        return builder(**{k: v for k, v in spec.items() if k != "kind"})
    except (TypeError, ValueError) as exc:
        raise ValueError(f"model kind {kind!r}: {exc}") from exc


_DRIFT_KEYS = ("lambda", "b", "m", "epsilon", "d_level", "abar", "c_a")


def _drift_spec(spec: dict) -> tuple:
    """Validate and normalize the drift-parameter dict of the rosenthal runs;
    returns its values in ``_DRIFT_KEYS`` order."""
    if not isinstance(spec, dict) or spec.get("kind") != "drift":
        raise ValueError("rosenthal model must be an object with kind='drift'")
    out = []
    extra = sorted(set(spec) - {"kind", *_DRIFT_KEYS})
    if extra:
        raise ValueError(f"unknown drift parameter(s): {', '.join(extra)}")
    for key in _DRIFT_KEYS:
        if key not in spec:
            raise ValueError(f"drift model is missing {key!r}")
        try:
            out.append(_coerce_int(spec[key]) if key == "m" else _coerce_float(spec[key]))
        except TypeError as exc:
            raise ValueError(f"drift parameter {key!r}: {exc}") from exc
    return tuple(out)


def validate(config: ExperimentConfig) -> list[str]:
    """Exhaustive semantic validation of a resolved config.

    Returns every problem found, so a failing config can be fixed in one
    pass.  The grid points are checked by a dry run of the runner's exact
    halves: ``law`` once, whose ``ValueError`` or ``SolverResidualError``
    ends validation, then ``exact`` on each explicit unit, whose
    ``ValueError`` is reported after the coordinates its rows share.
    """
    errors: list[str] = []
    exp = _EXPERIMENTS.get(config.experiment)
    if exp is None:
        errors.append(
            f"unknown experiment {config.experiment!r}; expected one of "
            + ", ".join(EXPERIMENT_NAMES)
        )
        return errors
    if config.format not in ("csv", "json", "both"):
        errors.append(f"format must be csv, json or both, got {config.format!r}")
    if config.workers < 1:
        errors.append(f"workers must be >= 1, got {config.workers}")
    if config.n_traj < 2:
        errors.append(f"n_traj must be >= 2, got {config.n_traj}")
    if not 0 <= config.seed < 2**64:
        errors.append(f"seed must be a 64-bit unsigned integer, got {config.seed}")
    if not config.out:
        errors.append("out must be a non-empty path prefix")
    elif os.path.basename(_out_base(config.out)) in ("", ".", ".."):
        # the files would be hidden dot-files such as "<dir>/.csv"
        errors.append(f"out {config.out!r} names a directory, not a file prefix")

    # a grid or model the experiment does not read is an error, not a silent
    # ignore
    for name in _GRID_FIELDS:
        grid = getattr(config, name)
        if grid is None:
            errors.append(f"{name} is unresolved; pass the config through resolve()")
        elif grid and name not in exp.grids:
            errors.append(f"{config.experiment} takes no {name} grid")
    if exp.model is None and config.model is not None:
        errors.append(f"{config.experiment} takes no model")
    for name, (window, inside) in _GRID_WINDOWS.items():
        for i, value in enumerate(getattr(config, name) or ()):
            if not inside(value):
                errors.append(f"{name}[{i}] {window}, got {value}")
    if errors:
        # Broken scalars or grid entries make the per-point checks below
        # meaningless; report what we have.
        return errors
    if exp.special:
        # load scipy.special's ufuncs (about 0.03 s; not the package, see
        # lsalab.rng) here, so the CLI pays for them before the timed run
        # and a pool's workers fork with them instead of each loading them
        _special()
    if exp.law is None:
        return errors
    with np.errstate(**_QUIET):
        try:
            law = exp.law(config)
        except (ValueError, SolverResidualError) as exc:
            return [str(exc)]
        except Exception:  # noqa: BLE001 - every unit's rows report it
            return errors
        for unit in _plan(config)[1] if exp.exact else ():
            try:
                exp.exact(config, law, unit)
            except ValueError as exc:
                coords = zip(exp.keys, *exp.params(config, unit))
                shared = [f"{k}={v}" for k, v, *vs in coords if v != "" and vs.count(v) == len(vs)]
                errors.append(f"{', '.join(shared)}: {exc}")
            except Exception:  # noqa: BLE001 - stays the unit's failing row
                pass
    return errors


# ---------------------------------------------------------------------------
# Work units.
# ---------------------------------------------------------------------------


def _unit_seed(seed: int, index: int) -> int:
    """The seed of unit ``index`` of a run with seed ``seed``."""
    return (seed + index) % 2**64


def _rosenthal_units(config: ExperimentConfig) -> list[tuple]:
    """The closed-form units that precede the n_traj ``bsum`` trials.

    Each is its row's ``(check, q, u, rho, alpha, trial)`` coordinates, with
    "" for those its check does not use.
    """
    units: list[tuple] = [
        ("buq", q, u, rho, "", "") for q in config.qs for u in range(1, q) for rho in config.rhos
    ]
    units += [("count", q, u, "", "", "") for q in config.qs for u in range(1, q)]
    for al in config.alphas:
        units += [("delta_root", "", "", "", al, ""), ("horizon", "", "", "", al, "")]
    return units


_LAST_PLAN: list = [None, None, ()]  # config, record, explicit units


def _plan(config: ExperimentConfig) -> tuple[_Experiment, tuple]:
    """The record and the explicit units of a resolved config.

    The last plan is kept, by identity of the config and record it reads (of
    the config, only immutable fields), as every unit of a run plans.
    """
    exp = _EXPERIMENTS.get(config.experiment)
    if exp is None:
        raise ValueError(f"unknown experiment {config.experiment!r}")
    if _LAST_PLAN[0] is not config or _LAST_PLAN[1] is not exp:
        _LAST_PLAN[:] = config, exp, tuple(exp.units(config))
    return exp, _LAST_PLAN[2]


def unit_count(config: ExperimentConfig) -> int:
    """Number of work units of a resolved config."""
    exp, units = _plan(config)
    return len(units) + (config.n_traj if exp.trial else 0)


def _unit(config: ExperimentConfig, index: int) -> tuple:
    """Descriptor of unit ``index``; unit i of a run is row source i.

    A trial's descriptor is computed from its number, so a run of n_traj
    trials never holds them all.
    """
    exp, units = _plan(config)
    if 0 <= index < len(units):
        return units[index]
    if exp.trial and 0 <= index - len(units) < config.n_traj:
        return exp.trial(index - len(units))
    raise IndexError(f"unit index {index} out of range for {config.experiment}")


def _band(value: float, std_err: float, oracle: float) -> bool:
    """Whether a Monte Carlo estimate lies within SE_MULT finite standard errors of its oracle.

    A non-finite standard error or oracle fails.  The band is widened by
    REL_SLACK of the oracle, a rounding allowance: the estimate of a law
    without randomness has a standard error of about 0, and it and the
    oracle are one number computed by different arithmetic.
    """
    allowed = SE_MULT * std_err + REL_SLACK * abs(oracle)
    return math.isfinite(allowed) and abs(value - oracle) <= allowed


def _band_note(value: float, std_err: float, oracle: float) -> str:
    """Why a band row's Monte Carlo statistics are unusable, or "" if they are not.

    Names each of the estimate, its standard error and the oracle that is
    not finite; otherwise, an estimate of 0 against a nonzero oracle has
    underflowed, and the note names the statistics that are 0.
    """
    named = {"empirical": value, "std_err": std_err, "oracle": oracle}
    overflowed = [f"{name}={v}" for name, v in named.items() if not math.isfinite(v)]
    if overflowed:
        return f"non-finite statistics: {', '.join(overflowed)}"
    if value == 0.0 and oracle != 0.0:
        zero = " and ".join(name for name in ("empirical", "std_err") if named[name] == 0.0)
        return f"Monte Carlo {zero} underflowed to 0 against oracle {oracle:.6g}"
    return ""


def _dominates(value: float, bound: float) -> bool:
    return value <= bound * (1.0 + REL_SLACK)


def _lyapunov_dim(trial: int) -> int:
    """The dimension of lyapunov trial ``trial``: 1, 2, ..., 8, 1, 2, ..."""
    return 1 + trial % _LYAPUNOV_MAX_DIM


def _lyapunov_params(config: ExperimentConfig, unit: tuple) -> list[tuple]:
    # alpha is drawn inside the unit, so the failure rows leave it nan
    (trial,) = unit
    dim = _lyapunov_dim(trial)
    return [("residuals", trial, dim, math.nan), ("contraction", trial, dim, math.nan)]


def _lyapunov_verdicts(seeds: list[int], trials: range) -> list[tuple]:
    """(alpha, worst residual, contraction, contraction cap) of each trial.

    Trial ``trials[k]`` has the unit seed ``seeds[k]``: its words are the
    leading words of ``stream(seeds[k], 0)``.  The trials of each dimension
    are computed together, through the stacked kernels behind the public
    solves and geometry, which make every check of those calls per matrix and
    give each matrix the bits the public calls give it.  Raises what the
    first failing check raises.
    """
    out: list = [None] * len(trials)
    groups: dict[int, list[int]] = {}
    for i, trial in enumerate(trials):
        groups.setdefault(_lyapunov_dim(trial), []).append(i)
    for dim, at in sorted(groups.items()):
        n = len(at)
        words = _seed_uniforms([seeds[i] for i in at], 3 * dim * dim + 1)
        g, r, w = _normals(words[:, :-1]).reshape(n, 3, dim, dim).transpose(1, 0, 2, 3)
        eye = np.eye(dim)
        # positive-definite symmetric part keeps the spectrum in the right half
        # plane for any skew part, so every draw is a valid mean matrix
        abar = g @ _t(g) / dim + 0.1 * eye + 0.5 * (r - _t(r))
        sigma_eps = w @ _t(w) / dim + 0.1 * eye
        # spectral_profile(abar, 1.5 * ||abar||), with ||abar|| taken once
        abar_norm = _norms(abar)
        _require_hurwitz(_require_finite(abar, "abar"))
        # one Kronecker sum serves Q (on its transposed view), Sigma and S^alpha
        ksum = _kron_sum(abar)
        q, q_rel = _lyapunov_q(abar, ksum)
        a, alpha_inf, root, inv_root = _geometry(abar, q, 1.5 * abar_norm, abar_norm)
        alpha = words[:, -1] * alpha_inf
        # Q's residual is its solve's own gate residual, and so is Sigma's;
        # S^alpha's is recomputed in matmul form, independently of the
        # Kronecker form it solved.
        sigma_norm = _norms(sigma_eps)
        _, sig_rel = _solve_stationary(abar, sigma_eps, 0.0, None, "sigma solve", ksum, sigma_norm)
        sig_a, _ = _solve_stationary(
            abar, sigma_eps, alpha, _kron(abar, abar), "riccati solve", ksum, sigma_norm
        )
        al = alpha[:, None, None]
        lhs = abar @ sig_a + sig_a @ _t(abar) - al * (abar @ sig_a @ _t(abar))
        s_rel = _norms(lhs - sigma_eps) / (1.0 + sigma_norm)
        step = _require_finite(eye - al * abar, "m")
        contraction = _norms(root @ step @ inv_root)
        for k, i in enumerate(at):
            # Python floats throughout, as the one-unit arithmetic was:
            # max() keeps its nan handling and ** 2 its rounding
            out[i] = (
                float(alpha[k]),
                max(float(q_rel[k]), float(sig_rel[k]), float(s_rel[k])),
                float(contraction[k]) ** 2,
                1.0 - float(a[k]) * float(alpha[k]) + CONTRACTION_SLACK,
            )
    return out


@functools.lru_cache(maxsize=1)
def _block(verdicts: Callable, seed: int, lo: int, hi: int) -> list:
    """``verdicts(seeds, range(lo, hi))`` with those units' seeds in a run
    with seed ``seed``, or an exception per unit.

    Cached, because every unit of the block reads it; the pool hands out
    whole blocks, so each process computes a block once.  If the block
    raises, each unit is computed as a block of one, so a failing unit
    carries exactly the exception it raises alone and no other unit fails
    with it.
    """
    seeds = [_unit_seed(seed, index) for index in range(lo, hi)]
    try:
        return verdicts(seeds, range(lo, hi))
    except Exception:  # noqa: BLE001 - narrowed to the failing unit below
        out: list = []
        for unit_seed, index in zip(seeds, range(lo, hi)):
            try:
                out += verdicts([unit_seed], range(index, index + 1))
            except Exception as exc:  # noqa: BLE001 - becomes the unit's failure rows
                out.append(exc)
        return out


def _block_verdict(config: ExperimentConfig, verdicts: Callable, trial: int):
    """The verdict of trial ``trial``, read from its block.

    ``verdicts(seeds, units)`` computes the units whose indices are in the
    range ``units``, with the unit seeds ``seeds``; the trials are computed
    in blocks.  Blocks are aligned to unit indices, as pool chunks are, and
    leave out the explicit units of the first block.  Raises what the unit
    raises alone.
    """
    exp, units = _plan(config)
    first = len(units)
    index = first + trial
    lo = index - index % exp.block
    lo, hi = max(lo, first), min(lo + exp.block, first + config.n_traj)
    verdict = _block(verdicts, config.seed, lo, hi)[index - lo]
    if isinstance(verdict, Exception):
        raise verdict.with_traceback(None)
    return verdict


def _run_lyapunov_unit(config: ExperimentConfig, unit: tuple, seed: int) -> list[_Verdict]:
    (trial,) = unit
    alpha, worst, contraction, cap = _block_verdict(config, _lyapunov_verdicts, trial)
    # positional (empirical, passed, std_err, oracle, bound, note, params), as
    # in run_unit: thousands of these units run, and keywords cost each 3 %
    tol = SOLVER_RESIDUAL_TOL
    residuals, contracts = (c[:-1] + (alpha,) for c in _lyapunov_params(config, unit))
    return [
        _Verdict(worst, worst <= tol, 0.0, 0.0, tol, "", residuals),
        _Verdict(contraction, contraction <= cap, 0.0, None, cap, "", contracts),
    ]


def _model_law(config: ExperimentConfig) -> LsaModel:
    """The law of simulate and wasserstein: the config's model.  Any positive
    stepsize suits them: the residual identity is scale-free and the coupled
    curve oracle is exact for all alpha; instability shows up in the rows."""
    return _build_model(config.model)


def _bounds_law(config: ExperimentConfig) -> tuple:
    """The law of bounds: a one-dimensional model and its Lyapunov witness."""
    model = _build_model(config.model)
    if model.dim != 1:
        raise ValueError(f"{config.experiment} needs a one-dimensional model, got dim={model.dim}")
    return model, lyapunov_witness(model)


def _bounds_exact(config: ExperimentConfig, law: tuple, unit: tuple) -> tuple[float, float]:
    """A bounds unit's oracle, the exact p-th moment's p-th root, and its
    bound, which raises first past alpha_inf or the float range."""
    model, profile = law
    alpha, n, p = unit
    bound = product_moment_bound(profile, p, alpha, n)
    return exact_product_moment(model, alpha, p, n) ** (1.0 / p), bound


def _run_bounds_unit(config: ExperimentConfig, unit: tuple, seed: int) -> list[_Verdict]:
    alpha, n, p = unit
    model, _ = law = _bounds_law(config)
    oracle, bound = _bounds_exact(config, law, unit)
    mc = mc_norm_moment(model, alpha, n, p, config.n_traj, seed)
    passed = _band(mc.value, mc.std_err, oracle) and _dominates(oracle, bound)
    note = _band_note(mc.value, mc.std_err, oracle)
    return [_Verdict(mc.value, passed, mc.std_err, oracle, bound, note)]


def _run_simulate_unit(config: ExperimentConfig, unit: tuple, seed: int) -> list[_Verdict]:
    """One (alpha, n) row over n_traj decomposed trajectories.

    ``empirical`` is the worst relative residual of the identity
    theta_err = gamma_term + j0 + j1 + h1.  The row passes only if that, and
    the worst gap between theta_err and ``final_errors`` (the recursion as
    written, on the same streams) relative to the unit's error scale, are
    both within DECOMPOSITION_TOL.
    """
    alpha, n = unit
    model = _model_law(config)
    theta0 = model.theta_star + 1.0
    terms = _decomposed_errors(model, alpha, theta0, n, config.n_traj, seed)
    # np.max, not max(): a NaN residual must fail the row, not be skipped
    worst = float(np.max(_decomposition_residuals(terms)))
    # The decomposition's theta_err against the recursion as written, which
    # carries theta_n and subtracts theta_star at the end.  Its rounding
    # scales with the unit's largest error or with theta_star, not with a
    # single trajectory's error, which can pass arbitrarily close to zero.
    errs = final_errors(model, alpha, theta0, n, config.n_traj, seed)
    gap = np.linalg.norm(errs - terms[:, 0], axis=1)
    scale = max(
        float(np.max(np.linalg.norm(terms[:, 0], axis=1))),
        float(np.linalg.norm(model.theta_star)),
        1e-30,
    )
    mismatch = float(np.max(gap)) / scale
    agrees = mismatch <= DECOMPOSITION_TOL
    return [
        _Verdict(
            worst,
            worst <= DECOMPOSITION_TOL and agrees,
            oracle=0.0,
            bound=DECOMPOSITION_TOL,
            note="" if agrees else f"theta_err differs from the recursion by {mismatch:.3e}",
        )
    ]


def _rademacher_law(config: ExperimentConfig) -> float:
    """The law of rademacher: q_a of the +-1 chain, the model whose tails
    have closed-form thresholds."""
    _build_model(config.model)
    if config.model["kind"] != "biased_rademacher":
        raise ValueError(
            "rademacher needs the two-point factor model with exact closed-form "
            f"oracles (kind biased_rademacher), got {config.model['kind']}"
        )
    return config.model["q_a"]


def _rademacher_exact(config: ExperimentConfig, q_a: float, unit: tuple) -> list[float]:
    """A rademacher unit's tail threshold on each of ``_SIDES``."""
    alpha, n, delta = unit
    return [rademacher_tail_thresholds(q_a, alpha, n, delta, side) for side in _SIDES]


def _run_rademacher_unit(config: ExperimentConfig, unit: tuple, seed: int) -> list[_Verdict]:
    q_a = _rademacher_law(config)
    alpha, n, delta = unit
    verdicts = []
    for side, t in zip(_SIDES, _rademacher_exact(config, q_a, unit)):
        tail = rademacher_exact_tail(q_a, alpha, n, t)
        passed = tail <= delta if side == "upper" else tail >= delta
        verdicts.append(_Verdict(tail, passed, oracle=delta, bound=t))
    return verdicts


def _clt_law(config: ExperimentConfig) -> tuple:
    """The law of clt: the law of bounds and the limit Sigma."""
    model, profile = _bounds_law(config)
    if model.sigma_eps_exact[0, 0] == 0.0:
        # the KS row's normal law would have scale sqrt(S^alpha) = 0
        raise ValueError("clt needs a model whose effective noise is not zero")
    return model, profile, solve_sigma(model.abar, model.sigma_eps_exact)


def _clt_exact(config: ExperimentConfig, law: tuple, unit: tuple) -> tuple[float, float, float]:
    """A clt unit's exact variance of the scaled error, S^alpha and the cap
    on their gap."""
    model, profile, sig = law
    (alpha,) = unit
    v_exact = exact_stationary_cov(model, alpha)[0, 0] / alpha
    sig_alpha = solve_riccati(model.abar, model.sigma_eps_exact, alpha)[0, 0]
    return v_exact, sig_alpha, sigma_gap_bound(model.abar, sig, profile, alpha)


def _run_clt_unit(config: ExperimentConfig, unit: tuple, seed: int) -> list[_Verdict]:
    (alpha,) = unit
    model, _, sig = law = _clt_law(config)
    v_exact, sig_alpha, gap_cap = _clt_exact(config, law, unit)
    samples = sample_stationary(model, alpha, config.n_traj, seed)
    x = (samples[:, 0] - model.theta_star[0]) / math.sqrt(alpha)
    n_s = x.size
    _, v_hat = _mean_var(x)
    v_se = v_hat * math.sqrt(2.0 / (n_s - 1))
    sig_limit = sig[0, 0]
    gap = abs(sig_alpha - sig_limit)
    scale = math.sqrt(sig_alpha)
    ndtr = _special().ndtr
    ks = empirical_ks(x, lambda t: ndtr(t / scale))
    # KS_TOL caps the systematic distribution distance; the 1.36/sqrt(N)
    # term is the 95% Kolmogorov quantile of pure sampling fluctuation, so
    # the verdict does not hinge on noise at small sample counts.
    ks_cap = KS_TOL + 1.36 / math.sqrt(n_s)
    return [
        _Verdict(
            v_hat, _band(v_hat, v_se, v_exact), v_se, v_exact,
            note=_band_note(v_hat, v_se, v_exact),
        ),
        _Verdict(gap, _dominates(gap, gap_cap), oracle=sig_limit, bound=gap_cap),
        _Verdict(ks, ks <= ks_cap, oracle=0.0, bound=ks_cap),
    ]


def _wasserstein_exact(config: ExperimentConfig, model: LsaModel, unit: tuple) -> tuple:
    """A wasserstein unit's two coupled starts, and their exact distance at
    n = 0, ..., max(ns)."""
    (alpha,) = unit
    theta_a, theta_b = model.theta_star + 1.0, model.theta_star - 1.0
    exact = np.sqrt(coupled_exact_sq(model, alpha, max(config.ns), theta_a - theta_b))
    return theta_a, theta_b, exact.tolist()


def _run_wasserstein_unit(config: ExperimentConfig, unit: tuple, seed: int) -> list[_Verdict]:
    (alpha,) = unit
    model = _model_law(config)
    theta_a, theta_b, exact = _wasserstein_exact(config, model, unit)
    draws = coupled_w2(model, alpha, max(config.ns), theta_a, theta_b, config.n_traj, seed)
    value, std_err = (curve.tolist() for curve in draws)
    return [
        _Verdict(
            value[n], _band(value[n], std_err[n], exact[n]), std_err[n], exact[n],
            note=_band_note(value[n], std_err[n], exact[n]),
        )
        for n in config.ns
    ]


def _count_compositions(total: int, parts: int) -> int:
    """Number of ways to write ``total`` as an ordered sum of ``parts`` >= 1."""
    if parts == 0:
        return 1 if total == 0 else 0
    table = [1] + [0] * total
    for _ in range(parts):
        nxt = [0] * (total + 1)
        for s in range(total + 1):
            if table[s] == 0:
                continue
            for step in range(1, total - s + 1):
                nxt[s + step] += table[s]
        table = nxt
    return table[total]


def _bsum_verdicts(seeds: list[int], units: range) -> list[float]:
    """The geometric-sum residual of each ``bsum`` unit in ``units``.

    Unit ``units[k]`` reads only the leading words of ``stream(seeds[k], 0)``:
    three give its sequence's length (5 to 64), ``a`` and first stepsize, and
    the next length - 1 its decay factors.  The units of each length are
    checked in one stacked ``geometric_sum_check`` call, which gives each row
    the bits of its own 1-D call.  Raises what the first failing check raises.
    """
    words = _seed_uniforms(seeds, 3 + 63)
    length = 5 + (words[:, 0] * 60.0).astype(int)
    a_val = 0.5 + 3.5 * words[:, 1]
    start = 0.9 * words[:, 2] / a_val
    out = np.empty(len(units))
    # np.unique would import numpy.ma mid-run; these are the same sorted lengths
    for size in np.flatnonzero(np.bincount(length)):
        at = np.flatnonzero(length == size)
        steps = np.ones((at.size, size))
        steps[:, 1:] = np.cumprod(0.8 + 0.2 * words[at, 3 : size + 2], axis=1)
        steps *= start[at, None]
        out[at] = geometric_sum_check(steps, a_val[at])
    return out.tolist()


def _rosenthal_law(config: ExperimentConfig) -> tuple:
    """The law of rosenthal: the drift model's block constants and the
    spectral profile of its mean matrix."""
    lambda_, b, m, epsilon, d_level, abar, c_a = _drift_spec(config.model)
    constants = v_geometric_constants(lambda_, b, m, epsilon, d_level)
    return constants, spectral_profile(np.array([[abar]]), c_a)


def _rosenthal_exact(config: ExperimentConfig, law: tuple, unit: tuple) -> list[_Verdict]:
    """The verdict of a closed-form unit, every rosenthal unit but a bsum trial."""
    kind, q, u, rho, alpha, _ = unit
    if kind == "buq":
        exact = b_uq_exact(u, q, rho)
        upper = b_uq_upper(u, q, rho)
        return [_Verdict(exact, _dominates(exact, upper), bound=upper)]
    if kind == "count":
        brute = _count_compositions(2 * q - u, u)
        closed = composition_count(u, q)
        return [_Verdict(brute, brute == closed, oracle=closed)]
    constants, profile = law
    if kind == "horizon":
        m_h = contraction_horizon(profile, alpha, constants.epsilon)
        rate = 1.0 - alpha * profile.a / 2.0
        reached = profile.kappa_q * rate ** (m_h / 2.0)
        target = 1.0 - constants.epsilon
        minimal = m_h == 1 or profile.kappa_q * rate ** ((m_h - 1) / 2.0) > target
        return [
            _Verdict(reached, reached <= target and minimal, bound=target, note=f"horizon={m_h}")
        ]
    # delta_root
    full = attach_wasserstein(constants, alpha, c_a=profile.c_a)
    delta = full.delta_alpha
    if delta is None:
        residual, passed = math.nan, True
        note = "no positive root; contraction rates undefined at this alpha"
    else:
        gap = _delta_gap(delta, full.lambda_bar_m, full.b_m, full.d_bar, full.epsilon, alpha)
        residual = abs(gap)
        passed = residual <= ROOT_RESIDUAL_TOL and 0.0 < full.rho_alpha < 1.0
        note = f"delta_alpha={delta:.9g}, rho_alpha={full.rho_alpha:.9g}"
    return [_Verdict(residual, passed, oracle=0.0, bound=ROOT_RESIDUAL_TOL, note=note)]


def _run_rosenthal_unit(config: ExperimentConfig, unit: tuple, seed: int) -> list[_Verdict]:
    kind, *_, trial = unit
    if kind == "bsum":
        # no law: a many-units run has thousands of these trials
        res = _block_verdict(config, _bsum_verdicts, trial)
        return [_Verdict(res, res <= GEOMETRIC_SUM_TOL, oracle=0.0, bound=GEOMETRIC_SUM_TOL)]
    return _rosenthal_exact(config, _rosenthal_law(config), unit)


# ---------------------------------------------------------------------------
# The experiments.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Experiment:
    """Everything the driver knows about one experiment.

    ``keys`` is the fixed parameter-column order; blanks render as empty
    cells.  ``grids`` holds the default of every grid the experiment reads,
    and ``model`` its default model, or None if it takes none; a config that
    supplies anything else is rejected.  ``special`` marks experiments whose
    units call scipy.special's ufuncs, which validate loads for them and
    every other run never imports.

    The units of a run are the descriptors ``units(config)``, in row order,
    followed, if ``trial`` is set, by the n_traj trials ``trial(0)``,
    ``trial(1)``, ...  ``params(config, unit)`` gives the coordinate tuples
    of the unit's rows, success and failure rows alike (by default the unit
    itself); ``runner(config, unit, seed)`` returns one ``_Verdict`` per
    tuple, in the same order, and ``run_unit`` builds the rows.  A verdict's
    own ``params`` replaces a coordinate tuple where the unit draws a
    coordinate itself.  The runner calls its exact halves, which draw
    nothing and raise ``ValueError`` at a bad point, and ``validate``
    dry-runs them: ``law(config)``, the model and what every unit shares,
    and ``exact(config, law, unit)``, a unit's oracles and bounds.
    ``block`` is the number of consecutive trials the runner computes
    together; a pool chunk is a whole number of blocks.

    Records hold private functions only: a public lsalab function stored
    here would escape the rebinding of module-level names that tracing uses.
    """

    keys: tuple[str, ...]
    grids: dict
    model: dict | None
    special: bool
    units: Callable[[ExperimentConfig], Iterable[tuple]]
    runner: Callable[[ExperimentConfig, tuple, int], list[_Verdict]]
    params: Callable[[ExperimentConfig, tuple], list[tuple]] = lambda config, unit: [unit]
    law: Callable[[ExperimentConfig], object] | None = None
    exact: Callable[[ExperimentConfig, object, tuple], object] | None = None
    trial: Callable[[int], tuple] | None = None
    block: int = 1


_TWO_POINT = {"kind": "biased_rademacher", "q_a": 0.75}
_SCALAR_FACTOR = {
    "kind": "bounded_factor", "abar": [[1.0]], "bbar": [0.0], "m": [[1.0]],
    "eta": 0.5, "sigma": 1.0,
}

_EXPERIMENTS = {
    "lyapunov": _Experiment(
        keys=("check", "trial", "dim", "alpha"),
        grids={},
        model=None,
        special=True,  # Gaussian random matrices
        units=lambda c: (),
        trial=lambda t: (t,),
        params=_lyapunov_params,
        runner=_run_lyapunov_unit,
        block=256,
    ),
    "bounds": _Experiment(
        keys=("alpha", "n", "p"),
        grids={"alphas": (0.1,), "ns": (10, 50, 200), "ps": (2.0,)},
        model=_TWO_POINT,
        special=False,
        units=lambda c: itertools.product(c.alphas, c.ns, c.ps),
        runner=_run_bounds_unit,
        law=_bounds_law,
        exact=_bounds_exact,
    ),
    "simulate": _Experiment(
        keys=("alpha", "n"),
        grids={"alphas": (0.1, 0.05), "ns": (200,)},
        model=_SCALAR_FACTOR,
        special=True,  # Gaussian b noise
        units=lambda c: itertools.product(c.alphas, c.ns),
        runner=_run_simulate_unit,
        law=_model_law,
    ),
    "rademacher": _Experiment(
        keys=("q_a", "alpha", "n", "delta", "side"),
        grids={"alphas": (0.1,), "ns": (400, 1000), "deltas": (0.1, 0.05)},
        model=_TWO_POINT,
        special=False,
        units=lambda c: itertools.product(c.alphas, c.ns, c.deltas),
        params=lambda c, unit: [(c.model["q_a"], *unit, side) for side in _SIDES],
        runner=_run_rademacher_unit,
        law=_rademacher_law,
        exact=_rademacher_exact,
    ),
    "clt": _Experiment(
        keys=("check", "alpha"),
        grids={"alphas": (0.1, 0.05)},
        model=_SCALAR_FACTOR,
        special=True,  # Gaussian b noise and the normal CDF
        units=lambda c: itertools.product(c.alphas),
        params=lambda c, unit: [(check, *unit) for check in ("variance", "gap", "ks")],
        runner=_run_clt_unit,
        law=_clt_law,
        exact=_clt_exact,
    ),
    "wasserstein": _Experiment(
        keys=("alpha", "n"),
        grids={"alphas": (0.1,), "ns": (50, 100, 200)},
        model=_TWO_POINT,
        special=False,
        # one unit emits the rows of every n, so no ns means no units
        units=lambda c: itertools.product(c.alphas if c.ns else ()),
        params=lambda c, unit: [(*unit, n) for n in c.ns],
        runner=_run_wasserstein_unit,
        law=_model_law,
        exact=_wasserstein_exact,
    ),
    "rosenthal": _Experiment(
        keys=("check", "q", "u", "rho", "alpha", "trial"),
        grids={"alphas": (0.25, 0.9), "qs": (2, 3, 4), "rhos": (0.5,)},
        model={
            "kind": "drift", "lambda": 0.52, "b": 0.1, "m": 5, "epsilon": 0.1,
            "d_level": 9.0, "abar": 1.0, "c_a": 1.0,
        },
        special=False,
        units=_rosenthal_units,
        # a trial's coordinates, padded as the closed-form units' are
        trial=lambda t: ("bsum", "", "", "", "", t),
        runner=_run_rosenthal_unit,
        law=_rosenthal_law,
        exact=_rosenthal_exact,
        block=512,
    ),
}

EXPERIMENT_NAMES = tuple(_EXPERIMENTS)
PARAM_KEYS = {name: exp.keys for name, exp in _EXPERIMENTS.items()}


def run_unit(config: ExperimentConfig, index: int) -> list[ResultRow]:
    """Execute one work unit; failures become failed rows.

    The one place a row is built: the record's ``params`` gives each row's
    coordinates and the runner its verdict, in the same order.  The broad
    catch is deliberate: a grid row whose computation breaks (simulation
    blow-up, solver failure) must be reported as a failing row while the
    rest of the run continues.  A runner that returns the wrong number of
    verdicts is a bug, and raises rather than drop or invent rows.
    """
    unit = _unit(config, index)
    seed = _unit_seed(config.seed, index)
    exp = _EXPERIMENTS[config.experiment]
    coords = exp.params(config, unit)
    try:
        with np.errstate(**_QUIET):
            verdicts = exp.runner(config, unit, seed)
    except Exception as exc:  # noqa: BLE001 - unit failures become rows
        failed = _Verdict(math.nan, False, math.nan, note=f"{type(exc).__name__}: {exc}")
        verdicts = [failed] * len(coords)
    # positional, in field order: keywords cost a lyapunov unit about 10 %
    return [
        ResultRow(
            config.experiment,
            tuple(zip(exp.keys, v.params or params)),
            float(v.empirical),
            float(v.std_err),
            None if v.oracle is None else float(v.oracle),
            None if v.bound is None else float(v.bound),
            bool(v.passed),
            seed,
            v.note,
        )
        for params, v in zip(coords, verdicts, strict=True)
    ]


def run(config: ExperimentConfig) -> list[ResultRow]:
    """Resolve, validate and execute a config; rows come back in grid order.

    Raises ConfigError (with the full problem list) on an invalid config.
    The row list is a pure function of the resolved config: worker count
    only changes how units are scheduled, not what they compute.
    """
    cfg = resolve(config)
    errors = validate(cfg)
    if errors:
        raise ConfigError(errors)
    count = unit_count(cfg)
    # a pool forks all its workers at once, so never more than there are
    # units or CPUs this process may run on
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = min(cfg.workers, count, cpus or 1)
    if workers <= 1:
        units = [run_unit(cfg, i) for i in range(count)]
    else:
        # the pool's import costs every process about 20 ms; only a pool
        # run pays it
        from concurrent.futures import ProcessPoolExecutor

        # contiguous chunks, about four per worker, amortize the pool's
        # per-task round trip; map still returns units in index order.  A
        # chunk is a whole number of the experiment's blocks, so no block
        # is computed by two workers.
        block = _EXPERIMENTS[cfg.experiment].block
        chunksize = max(1, count // (4 * workers))
        chunksize = block * max(1, round(chunksize / block))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            units = list(pool.map(run_unit, repeat(cfg), range(count), chunksize=chunksize))
    return [row for unit in units for row in unit]


# ---------------------------------------------------------------------------
# Emission.
# ---------------------------------------------------------------------------


def _fmt_cell(value) -> str:
    """A row cell as the CSV writes it; the reference that
    ``_rendered_rows``' templates reproduce."""
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    return str(value)


def _cells(row: ResultRow, keys: tuple[str, ...]) -> list:
    """A row's cells in column order: ``experiment``, its coordinates under
    ``keys`` ("" where it has none), then the ``_CSV_TAIL`` fields."""
    pd = row.param_dict
    return [
        row.experiment, *map(pd.get, keys, repeat("")),
        row.empirical, row.std_err, row.oracle, row.bound, row.passed, row.seed,
    ]


_BOOL_TEXT = ("false", "true")
# Per built-in cell type: its printf conversion, and the function that turns
# the cell into the text the conversion takes (None: the cell itself).  A
# template holds no cell's value: bools and JSON strings are passed as text.
# None is a literal; its "%.0s" takes the cell and prints nothing of it.
_CSV_CELLS = {
    float: ("%.17g", None),
    int: ("%d", None),
    str: ("%s", None),
    bool: ("%s", _BOOL_TEXT.__getitem__),
    type(None): ("%.0s", None),
}
_JSON_CELLS = {
    float: ("%r", None),
    int: ("%d", None),
    str: ("%s", encode_basestring_ascii),
    bool: ("%s", _BOOL_TEXT.__getitem__),
    type(None): ("null%.0s", None),
}
# Rows rendered at a time: a writer holds one batch's text, not the file's.
_BATCH_ROWS = 512


def _rendered_rows(
    rows: list[ResultRow],
    keys: tuple[str, ...],
    table: dict,
    frame: Callable[[list[str]], str],
    reference: Callable[[object], str],
    finite_only: bool,
) -> Iterator[list[str]]:
    """Each row's text, ``frame`` of its cells rendered as ``reference``
    renders them, in lists of up to ``_BATCH_ROWS`` rows.

    A row whose ``params`` name ``keys`` in order has its cells read by
    position.  Its shape is the tuple of its cells' types.  Each shape seen
    gets one printf template, ``frame`` of its cells' conversions in
    ``table``, and its rows are then one ``%`` each.  Any other row, and a
    row holding a type ``table`` lacks (a numpy scalar) or, with
    ``finite_only``, a non-finite float, is rendered cell by cell with
    ``reference``.
    """
    by_cell = frame(["%s"] * (1 + len(keys) + len(_CSV_TAIL)))
    plans: dict[tuple, tuple] = {}
    for lo in range(0, len(rows), _BATCH_ROWS):
        texts = []
        for row in rows[lo : lo + _BATCH_ROWS]:
            names, values = zip(*row.params) if row.params else ((), ())
            if names != keys:
                texts.append(by_cell % tuple(map(reference, _cells(row, keys))))
                continue
            cells = [
                row.experiment, *values,
                row.empirical, row.std_err, row.oracle, row.bound, row.passed, row.seed,
            ]
            shape = tuple(map(type, cells))
            plan = plans.get(shape)
            if plan is None:
                plan = plans[shape] = _template(shape, table, frame, finite_only)
            template, floats, texted = plan
            # a sum of floats is finite only if each is; one that overflows
            # merely takes the per-cell path
            if template is None or (
                floats and not math.isfinite(sum(map(cells.__getitem__, floats)))
            ):
                texts.append(by_cell % tuple(map(reference, cells)))
                continue
            for i, text in texted:
                cells[i] = text(cells[i])
            texts.append(template % tuple(cells))
        yield texts


def _joined(
    head: str, batches: Iterator[list[str]], sep: str, tail: str, empty: str
) -> Iterator[str]:
    """``head + sep.join(texts) + tail`` over every batch's texts, or
    ``empty`` if there are none, as one piece per batch.

    A batch's row texts are freed once joined, and its piece once it has
    been taken, so a writer holds one batch's text at a time.
    """
    seen = False
    for texts in batches:
        if seen:
            texts.insert(0, "")  # the separator after the previous batch
        else:
            yield head
            seen = True
        piece = sep.join(texts)
        texts.clear()
        yield piece
        del piece
    yield tail if seen else empty


def _template(shape: tuple, table: dict, frame: Callable, finite_only: bool) -> tuple:
    """``(template, float positions to check, (position, text) pairs)`` for
    rows of ``shape``; the template is None where ``table`` lacks a type."""
    if not all(kind in table for kind in shape):
        return None, (), ()
    template = frame([table[kind][0] for kind in shape])
    floats = tuple(i for i, kind in enumerate(shape) if kind is float) if finite_only else ()
    texted = tuple((i, table[kind][1]) for i, kind in enumerate(shape) if table[kind][1])
    return template, floats, texted


def _csv_pieces(experiment: str, rows: list[ResultRow]) -> Iterator[str]:
    keys = PARAM_KEYS[experiment]
    header = ",".join(("experiment",) + keys + _CSV_TAIL) + "\n"
    batches = _rendered_rows(rows, keys, _CSV_CELLS, ",".join, _fmt_cell, finite_only=False)
    return _joined(header, batches, "\n", "\n", header)


def csv_text(experiment: str, rows: list[ResultRow]) -> str:
    """Render rows in the fixed CSV schema, floats at 17 significant digits."""
    return "".join(_csv_pieces(experiment, rows))


def _json_cell(value) -> str:
    """A row cell as ``json.dumps`` writes it: numpy scalars as Python ones,
    nan and +-inf as null.  The reference that ``_rendered_rows``' templates
    reproduce."""
    if isinstance(value, np.generic):
        value = value.item()
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return float.__repr__(value) if math.isfinite(value) else "null"
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    raise TypeError(f"row cell {value!r} is not JSON serializable")


def config_hash(config: ExperimentConfig) -> str:
    """Hash of the scientific fields of the resolved config.

    Output location, format and worker count do not affect results, so they
    are excluded: two runs with equal hashes produce identical rows.
    """
    cfg = resolve(config)
    payload = {
        "experiment": cfg.experiment,
        "model": cfg.model,
        **{name: list(getattr(cfg, name) or ()) for name in _GRID_FIELDS},
        "n_traj": cfg.n_traj,
        "seed": cfg.seed,
        # the band stays in the payload: changing it changes every hash
        "se_mult": SE_MULT,
        "ks_tol": KS_TOL,
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _json_pieces(
    experiment: str, rows: list[ResultRow], config: ExperimentConfig, wall_time_s: float
) -> Iterator[str]:
    from lsalab import __version__

    keys = PARAM_KEYS[experiment]
    metadata = {
        "version": __version__,
        "experiment": experiment,
        "config_hash": config_hash(config),
        "wall_time_s": wall_time_s,
    }
    # json.dumps(..., indent=2) of the whole payload, whose indented form
    # runs CPython's pure-Python encoder: the metadata goes through
    # json.dumps, and each row cell is written after its key's prefix (a
    # printf literal, so any % in it is doubled)
    head = json.dumps({"metadata": metadata}, indent=2, allow_nan=False)[:-2]
    prefixes = [
        f"      {encode_basestring_ascii(name)}: ".replace("%", "%%")
        for name in ("experiment",) + keys + _CSV_TAIL
    ]

    def entry(cells: list[str]) -> str:
        return "    {\n" + ",\n".join(map(str.__add__, prefixes, cells)) + "\n    }"

    batches = _rendered_rows(rows, keys, _JSON_CELLS, entry, _json_cell, finite_only=True)
    return _joined(
        head + ',\n  "rows": [\n', batches, ",\n", "\n  ]\n}\n", head + ',\n  "rows": []\n}\n'
    )


def json_text(
    experiment: str,
    rows: list[ResultRow],
    config: ExperimentConfig,
    wall_time_s: float,
) -> str:
    """Render rows plus metadata as JSON mirroring the CSV columns."""
    return "".join(_json_pieces(experiment, rows, config, wall_time_s))


def _out_base(out: str) -> str:
    """The output prefix ``out`` without a ``.csv`` or ``.json`` suffix."""
    for suffix in (".csv", ".json"):
        if out.endswith(suffix):
            out = out[: -len(suffix)]
    return out


def output_paths(config: ExperimentConfig) -> list[str]:
    """File paths a run will write: ``<prefix>.csv`` / ``<prefix>.json``."""
    base = _out_base(config.out)
    paths = []
    if config.format in ("csv", "both"):
        paths.append(base + ".csv")
    if config.format in ("json", "both"):
        paths.append(base + ".json")
    return paths


def write_outputs(
    config: ExperimentConfig, rows: list[ResultRow], wall_time_s: float
) -> list[str]:
    """Write the configured output files; returns the paths written.

    Each file is written a batch of rows at a time, as ``csv_text`` and
    ``json_text`` join it.  A file whose rendering raises is removed.
    """
    cfg = resolve(config)
    written = []
    for path in output_paths(cfg):
        if path.endswith(".csv"):
            pieces = _csv_pieces(cfg.experiment, rows)
        else:
            pieces = _json_pieces(cfg.experiment, rows, cfg, wall_time_s)
        handle = open(path, "w", encoding="utf-8", newline="")
        try:
            with handle:
                # each piece is freed before the next is rendered
                handle.writelines(pieces)
        except BaseException:
            # a partial file would pass for a whole one
            os.remove(path)
            raise
        written.append(path)
    return written
