"""Experiment driver: config pipeline, unit scheduling, verdict rows,
serialization, and scheduling-independence of results."""

from __future__ import annotations

import ast
import concurrent.futures
import gc
import itertools
import json
import math
import os
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import lsalab
import lsalab.engine as engine
import lsalab.experiments as experiments
import lsalab.linalg as linalg
from lsalab.cli import main
from lsalab.engine import final_errors, run_decomposed
from lsalab.experiments import (
    EXPERIMENT_NAMES,
    _build_model,
    _unit,
    _unit_seed,
    PARAM_KEYS,
    ConfigError,
    ExperimentConfig,
    ResultRow,
    config_from_dict,
    config_hash,
    csv_text,
    json_text,
    output_paths,
    resolve,
    run,
    run_unit,
    unit_count,
    validate,
    write_outputs,
)
from lsalab.linalg import (
    q_norm_mat,
    solve_lyapunov,
    solve_riccati,
    solve_sigma,
    spectral_norm,
    spectral_profile,
)
from lsalab.noise import lyapunov_witness
from lsalab.rng import _normals, stream, uniform_open01
from lsalab.rosenthal import geometric_sum_check


@pytest.fixture(autouse=True)
def _fresh_blocks():
    """Every test starts and ends with an empty block cache, so no test reads
    a block that an earlier test computed, perhaps under a patch."""
    experiments._block.cache_clear()
    yield
    experiments._block.cache_clear()


def tiny_config(experiment: str, **kw) -> ExperimentConfig:
    """Smallest-effort config per experiment, for fast driver tests."""
    small = {
        "lyapunov": dict(n_traj=3),
        "bounds": dict(alphas=(0.1,), ns=(10,), ps=(2.0,), n_traj=2000),
        "simulate": dict(alphas=(0.1,), ns=(50,), n_traj=20),
        "rademacher": dict(alphas=(0.1,), ns=(400,), deltas=(0.1,)),
        "clt": dict(alphas=(0.1,), n_traj=2000),
        "wasserstein": dict(alphas=(0.1,), ns=(20,), n_traj=300),
        "rosenthal": dict(alphas=(0.25,), qs=(2,), rhos=(0.5,), n_traj=3),
    }
    base = dict(small[experiment])
    base.update(kw)
    return ExperimentConfig(experiment=experiment, **base)


def _assert_built_in_cells(rows: list[ResultRow]) -> None:
    """Every cell is a str, int, float, bool or None: the types the
    renderer's templates take, so no row falls to its per-cell path."""
    built_in = (str, int, float, bool, type(None))
    for row in rows:
        cells = experiments._cells(row, PARAM_KEYS[row.experiment])
        assert [type(c) for c in cells if type(c) not in built_in] == [], row


class TestConfigFromDict:
    def test_collects_every_structural_error(self):
        cfg, errors = config_from_dict(
            {
                "experiment": "bounds",
                "bogus_key": 1,
                "alphas": [0.1, "x"],
                "ns": [3.5],
                "n_traj": True,
                "out": 7,
            }
        )
        joined = "\n".join(errors)
        assert "unknown config key 'bogus_key'" in joined
        assert "alphas[1]" in joined
        assert "ns[0]" in joined
        assert "n_traj" in joined
        assert "out must be a string" in joined
        # broken fields fall back to defaults so the config is still usable
        assert cfg.experiment == "bounds"
        assert cfg.n_traj == 1000

    def test_integral_floats_accepted_in_int_grids(self):
        cfg, errors = config_from_dict({"experiment": "bounds", "ns": [10.0, 50]})
        assert errors == []
        assert cfg.ns == (10, 50)

    def test_booleans_never_pass_as_numbers(self):
        _, errors = config_from_dict({"experiment": "bounds", "alphas": [True]})
        assert any("alphas[0]" in e for e in errors)

    def test_missing_experiment_reported(self):
        _, errors = config_from_dict({"alphas": [0.1]})
        assert any("must name an experiment" in e for e in errors)

    def test_scalar_passthrough(self):
        cfg, errors = config_from_dict(
            {
                "experiment": "clt",
                "seed": 9,
                "workers": 4,
                "format": "both",
                "out": "here",
            }
        )
        assert errors == []
        assert (cfg.seed, cfg.workers) == (9, 4)
        assert (cfg.format, cfg.out) == ("both", "here")

    @pytest.mark.parametrize("key", ["se_mult", "ks_tol"])
    def test_the_monte_carlo_band_is_not_a_config_key(self, key, tmp_path, capsys):
        # the band is the program's: SE_MULT and KS_TOL, set by no config
        _, errors = config_from_dict({"experiment": "clt", key: 4.0})
        assert errors == [f"unknown config key {key!r}"]
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"experiment": "clt", key: 4.0}))
        assert main(["clt", "--config", str(path), "--out", str(tmp_path / "r")]) == 2
        assert f"unknown config key {key!r}" in capsys.readouterr().err
        assert not (tmp_path / "r.csv").exists()
        with pytest.raises(TypeError):
            ExperimentConfig("clt", **{key: 4.0})


class TestResolve:
    def test_fills_documented_defaults(self):
        cfg = resolve(ExperimentConfig(experiment="rademacher"))
        assert cfg.alphas == (0.1,)
        assert cfg.ns == (400, 1000)
        assert cfg.deltas == (0.1, 0.05)
        assert cfg.model == {"kind": "biased_rademacher", "q_a": 0.75}

    def test_explicit_empty_grid_stays_empty(self):
        cfg = resolve(ExperimentConfig(experiment="rademacher", alphas=()))
        assert cfg.alphas == ()

    def test_idempotent(self):
        cfg = resolve(ExperimentConfig(experiment="clt"))
        assert resolve(cfg) == cfg

    def test_unknown_experiment_resolves_trivially(self):
        cfg = ExperimentConfig(experiment="nope")
        assert resolve(cfg) == cfg

    def test_editing_a_resolved_model_leaves_the_defaults_alone(self):
        default = json.loads(json.dumps(experiments._SCALAR_FACTOR))
        hashes = {name: config_hash(ExperimentConfig(name)) for name in EXPERIMENT_NAMES}
        cfg = resolve(ExperimentConfig("simulate"))
        cfg.model["abar"][0][0] = 9.0
        cfg.model["bbar"].append(1.0)
        cfg.model["eta"] = 0.0
        assert experiments._SCALAR_FACTOR == default
        assert resolve(ExperimentConfig("clt")).model == default
        assert {name: config_hash(ExperimentConfig(name)) for name in EXPERIMENT_NAMES} == hashes


class TestValidate:
    def test_clean_defaults_validate_everywhere(self):
        for name in EXPERIMENT_NAMES:
            cfg = resolve(ExperimentConfig(experiment=name))
            assert validate(cfg) == [], name

    def test_unknown_experiment(self):
        errors = validate(ExperimentConfig(experiment="zzz"))
        assert len(errors) == 1
        assert "unknown experiment" in errors[0]

    def test_scalar_field_errors(self):
        cfg = resolve(
            tiny_config(
                "simulate", n_traj=1, workers=0, format="xml", out="",
            )
        )
        joined = "\n".join(validate(cfg))
        for frag in ("format", "workers", "n_traj", "out"):
            assert frag in joined

    def test_unused_grid_is_an_error(self):
        cfg = resolve(tiny_config("clt", ns=(5,)))
        assert "clt takes no ns grid" in validate(cfg)

    def test_model_is_an_error_where_none_is_taken(self):
        cfg = resolve(ExperimentConfig(experiment="lyapunov", model={"kind": "martian"}))
        assert validate(cfg) == ["lyapunov takes no model"]

    def test_grid_element_windows(self):
        cfg = resolve(tiny_config("bounds", alphas=(-0.1,), ps=(1.0,)))
        joined = "\n".join(validate(cfg))
        assert "alphas" in joined
        assert "ps" in joined

    def test_bounds_takes_any_one_dimensional_model(self):
        # the exact moment reads the atom table of any scalar law
        square = {
            "kind": "bounded_factor", "abar": np.eye(2).tolist(), "bbar": [0.0, 0.0],
            "m": np.eye(2).tolist(), "eta": 0.5, "sigma": 1.0,
        }
        cfg = resolve(ExperimentConfig(experiment="bounds", model=square))
        assert validate(cfg) == ["bounds needs a one-dimensional model, got dim=2"]
        scalar = experiments._EXPERIMENTS["simulate"].model
        for seed in range(10):
            rows = run(resolve(ExperimentConfig(experiment="bounds", model=scalar, seed=seed)))
            assert len(rows) == 3
            for row in rows:
                assert row.passed, (seed, row)

    def test_clt_needs_scalar_model(self):
        cfg = resolve(
            tiny_config(
                "clt",
                model={
                    "kind": "bounded_factor",
                    "abar": [[1.0, 0.0], [0.0, 2.0]],
                    "bbar": [0.0, 0.0],
                    "m": [[1.0, 0.0], [0.0, 1.0]],
                    "eta": 0.1,
                    "sigma": 1.0,
                },
            )
        )
        assert any("one-dimensional" in e or "dim" in e for e in validate(cfg))

    def test_clt_stepsizes_past_the_gap_bounds_range_exit_two(self, tmp_path, capsys):
        # past alpha_inf the gap bound does not hold: at alpha = 1.5 its row
        # failed and the run exited 3
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"alphas": [1.5]}))
        assert main(["clt", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "config error: alpha=1.5: alpha=1.5 outside [0, alpha_inf=1]" in err

    @pytest.mark.parametrize("model", [
        {"kind": "biased_rademacher", "q_a": 0.75},
        {"kind": "bounded_factor", "abar": [[1.0]], "bbar": [0.0], "m": [[0.5]],
         "eta": 0.5, "sigma": 0.0},
    ], ids=["biased_rademacher", "bounded_factor"])
    def test_clt_without_effective_noise_exits_two(self, model, tmp_path, capsys):
        # with Sigma_eps = 0 the KS row's normal law has scale 0: both ks rows
        # read nan and failed with no note, and the run exited 3
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"model": model, "n_traj": 200}))
        assert main(["clt", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        assert "clt needs a model whose effective noise is not zero" in capsys.readouterr().err

    def test_clt_takes_its_gap_bounds_largest_stepsize(self):
        # at alpha_inf the gap row passes with equality, 0.5 <= 0.5
        model = _build_model(experiments._EXPERIMENTS["clt"].model)
        alpha_inf = lyapunov_witness(model).alpha_inf
        cfg = resolve(tiny_config("clt", alphas=(alpha_inf,), n_traj=50))
        assert validate(cfg) == []
        gap = run(cfg)[1]
        assert gap.params == (("check", "gap"), ("alpha", alpha_inf))
        assert gap.passed and gap.empirical == gap.bound == 0.5

    def test_rademacher_window_errors_name_the_grid_point(self):
        cfg = resolve(tiny_config("rademacher", ns=(10,), deltas=(0.1,)))
        errors = validate(cfg)
        assert errors
        assert any("n=10" in e or "window" in e for e in errors)

    def test_rosenthal_needs_fractional_alpha(self):
        cfg = resolve(tiny_config("rosenthal", alphas=(1.5,)))
        assert any("alpha" in e for e in validate(cfg))

    def test_broken_model_spec_reported(self):
        cfg = resolve(tiny_config("simulate", model={"kind": "martian"}))
        assert any("model" in e for e in validate(cfg))

    @pytest.mark.parametrize("contractive", [True, False])
    @pytest.mark.parametrize("dim", [1, 2])
    def test_a_contractive_witness_is_a_config_error(self, dim, contractive):
        # a key bounded_factor_model does not take is an unknown argument,
        # whatever its value
        model = {
            "kind": "bounded_factor", "abar": np.eye(dim).tolist(), "bbar": [0.0] * dim,
            "m": np.eye(dim).tolist(), "eta": 0.5, "sigma": 1.0, "contractive": contractive,
        }
        cfg = resolve(tiny_config("simulate", model=model))
        assert validate(cfg) == [
            "model kind 'bounded_factor': bounded_factor_model() got an unexpected "
            "keyword argument 'contractive'"
        ]

    def test_a_non_string_model_kind_is_a_config_error(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"model": {"kind": ["bounded_factor"]}}))
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        assert "unknown model kind ['bounded_factor']" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "model,reason",
        [
            (
                {"kind": "bounded_factor", "bbar": [0.0], "m": [[1.0]], "eta": 0.5, "sigma": 1.0},
                "model kind 'bounded_factor': bounded_factor_model() missing 1 required "
                "positional argument: 'abar'",
            ),
            (
                {"kind": "td_zero", "p": [[0.5, 0.5], [0.5, 0.5]], "rewards": [1.0, 0.0],
                 "gamma": 0.9},
                "model kind 'td_zero': td_zero_model() missing 1 required positional "
                "argument: 'phi'",
            ),
            ({"kind": ["x"]}, "unknown model kind ['x']"),
        ],
        ids=["no-abar", "no-phi", "list-kind"],
    )
    def test_a_broken_model_spec_exits_two_with_its_reason(self, tmp_path, capsys, model, reason):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"model": model}))
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        assert reason in capsys.readouterr().err


class TestRun:
    @pytest.mark.parametrize("name", EXPERIMENT_NAMES)
    def test_small_run_passes_and_matches_schema(self, name):
        cfg = tiny_config(name)
        rows = run(cfg)
        assert rows
        keys = PARAM_KEYS[name]
        for row in rows:
            assert isinstance(row, ResultRow)
            assert row.experiment == name
            assert tuple(k for k, _ in row.params) == keys
            assert row.passed, (row.params, row.note)
            assert 0 <= row.seed < 2**64

    @pytest.mark.parametrize("name", EXPERIMENT_NAMES)
    def test_rows_hold_only_built_in_cells(self, name):
        _assert_built_in_cells(run(tiny_config(name)))

    def test_invalid_config_raises_with_full_list(self):
        cfg = tiny_config("clt", ns=(5,), workers=0)
        with pytest.raises(ConfigError) as info:
            run(cfg)
        assert len(info.value.errors) >= 2

    def test_worker_count_does_not_change_rows(self):
        base = tiny_config("rademacher", seed=5)
        rows_serial = run(base)
        rows_parallel = run(
            ExperimentConfig(**{**base.__dict__, "workers": 4})
        )
        assert rows_serial == rows_parallel

    def test_seed_moves_every_unit_stream(self):
        a = run(tiny_config("wasserstein", seed=1))
        b = run(tiny_config("wasserstein", seed=2))
        assert [r.seed for r in a] != [r.seed for r in b]
        assert any(
            ra.empirical != rb.empirical for ra, rb in zip(a, b)
        )

    def test_unit_failure_becomes_failed_rows_not_crash(self):
        # a stepsize this large blows the trajectory up; the unit reports
        # planned rows with nan empiricals and the exception in the note
        cfg = resolve(tiny_config("simulate", alphas=(10.0,), ns=(400,)))
        assert validate(cfg) == []
        with np.errstate(all="ignore"):
            rows = run(cfg)
        assert rows
        for row in rows:
            assert not row.passed
            assert math.isnan(row.empirical)
            assert "TrajectoryBlowup" in row.note or ":" in row.note

    def test_unit_count_matches_grid(self):
        cfg = resolve(tiny_config("bounds", alphas=(0.1,), ns=(10, 50), ps=(2.0,)))
        assert unit_count(cfg) == 2
        rows0 = run_unit(cfg, 0)
        assert rows0[0].param_dict["n"] == 10

    @pytest.mark.parametrize("workers", [2, 3])
    def test_chunk_layout_does_not_change_rows(self, workers, monkeypatch):
        # 41 rosenthal and 29 lyapunov units are not multiples of the chunk
        # sizes at 2 or 3 workers, so the last chunk of each run is short;
        # the pool has that many workers whatever the host's CPU count
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: range(workers), raising=False)
        for cfg in (
            tiny_config("rosenthal", n_traj=37, seed=11),
            tiny_config("lyapunov", n_traj=29, seed=11),
        ):
            serial = run(cfg)
            assert len(serial) == (41 if cfg.experiment == "rosenthal" else 58)
            assert run(ExperimentConfig(**{**cfg.__dict__, "workers": workers})) == serial

    def test_pool_never_outnumbers_the_units(self, monkeypatch):
        # a fork pool starts all of its workers at the first submit
        started = []
        cpus = 64
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: range(cpus), raising=False)

        class InlinePool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                return False

            def map(self, fn, *iterables, chunksize=1):
                return map(fn, *iterables)

        # run imports the pool class from concurrent.futures when it needs one
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
        cfg = ExperimentConfig(experiment="rademacher", seed=2)
        serial = run(cfg)
        assert started == []
        for workers, pool_size in ((64, 4), (3, 3), (4, 4)):
            assert run(replace(cfg, workers=workers)) == serial
            assert started[-1] == pool_size
        run(ExperimentConfig(experiment="lyapunov", n_traj=3, workers=8))
        assert started[-1] == 3
        cpus = 3
        assert run(replace(cfg, workers=64)) == serial
        assert started[-1] == 3

    @pytest.mark.parametrize("experiment", ["lyapunov", "rosenthal"])
    def test_last_unit_of_a_huge_run_plans_in_constant_space(self, experiment):
        # materializing these trials would need tens of GiB; the descriptor
        # of the last one is computed from its number
        cfg = resolve(tiny_config(experiment, n_traj=10**9))
        rows = run_unit(cfg, unit_count(cfg) - 1)
        checks = {"lyapunov": ["residuals", "contraction"], "rosenthal": ["bsum"]}
        assert [row.param_dict["check"] for row in rows] == checks[experiment]
        for row in rows:
            assert row.param_dict["trial"] == 10**9 - 1
            assert row.passed, row.note


# Small configs of several units, covering every kind of row.
_FAILING = {
    "lyapunov": dict(n_traj=3),
    "bounds": dict(alphas=(0.1,), ns=(10, 20), ps=(2.0, 3.0), n_traj=20),
    "simulate": dict(alphas=(0.1, 0.05), ns=(20,), n_traj=5),
    "rademacher": dict(alphas=(0.1,), ns=(400, 1000), deltas=(0.1,)),
    "clt": dict(alphas=(0.1, 0.05), n_traj=20),
    "wasserstein": dict(alphas=(0.1, 0.05), ns=(20, 30), n_traj=10),
    "rosenthal": dict(alphas=(0.25, 0.9), qs=(2, 3), rhos=(0.5, 0.25), n_traj=2),
}


@pytest.mark.parametrize("name", EXPERIMENT_NAMES)
def test_failure_rows_carry_the_success_rows_params(name, monkeypatch):
    cfg = resolve(ExperimentConfig(experiment=name, seed=3, **_FAILING[name]))
    succeeded = [run_unit(cfg, index) for index in range(unit_count(cfg))]

    def broken(config, unit, seed):
        raise RuntimeError("forced")

    record = experiments._EXPERIMENTS[name]
    monkeypatch.setitem(experiments._EXPERIMENTS, name, replace(record, runner=broken))
    for index, rows in enumerate(succeeded):
        failed = run_unit(cfg, index)
        assert len(failed) == len(rows)
        for ok, bad in zip(rows, failed):
            assert (bad.passed, bad.oracle, bad.bound, bad.seed) == (False, None, None, ok.seed)
            assert math.isnan(bad.empirical) and math.isnan(bad.std_err)
            assert bad.note == "RuntimeError: forced"
            assert [key for key, _ in bad.params] == [key for key, _ in ok.params]
            expected, seen = ok.param_dict, bad.param_dict
            if name == "lyapunov":
                # alpha is drawn inside the unit, so a failed unit has none
                assert math.isnan(seen.pop("alpha"))
                expected.pop("alpha")
            assert seen == expected


def _top_level_nodes():
    """(qualified top-level name, node) for every node of lsalab's modules."""
    for path in sorted(Path(lsalab.__file__).parent.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            for node in ast.walk(top):
                yield f"{path.stem}.{getattr(top, 'name', '<module>')}", node


def test_only_run_unit_builds_rows():
    # runners return verdicts; a second place that builds a row would be a
    # second place to pair coordinates with verdicts and coerce the cells
    builders = {
        name for name, node in _top_level_nodes()
        if isinstance(node, ast.Call)
        and (getattr(node.func, "id", None) or getattr(node.func, "attr", None)) == "ResultRow"
    }
    assert builders == {"experiments.run_unit"}


def test_only_the_band_reads_se_mult():
    # one Monte Carlo band: a runner that wrote |v - oracle| <= SE_MULT * se
    # itself would be a second place to change it.  config_hash records the
    # band's value, so that changing it changes every hash, and applies it nowhere.
    readers = {
        name for name, node in _top_level_nodes()
        if isinstance(node, ast.Name) and node.id == "SE_MULT" and isinstance(node.ctx, ast.Load)
    }
    assert readers == {"experiments._band", "experiments.config_hash"}


def test_one_product_kernel():
    # a function that drives A's words alone beside engine._products would be
    # a second factor table and a second set of checks to keep in step
    callers = {
        name for name, node in _top_level_nodes()
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_drive"
        and any(
            kw.arg == "with_b" and isinstance(kw.value, ast.Constant) and kw.value.value is False
            for kw in node.keywords
        )
    }
    assert callers == {"engine._products"}


def test_the_band_fails_a_non_finite_se():
    assert experiments._band(1.0, 0.25, 2.0)
    assert not experiments._band(1.0, math.inf, 2.0)
    assert not experiments._band(1.0, math.nan, 2.0)
    assert not experiments._band(1.0, 0.25, math.inf)
    assert not experiments._band(1.0, 0.25, math.nan)


def test_the_band_allows_the_rounding_of_its_oracle_and_no_more():
    # an SE of 0 leaves REL_SLACK of the oracle, the allowance _dominates uses
    oracle = 0.34867844010000004
    assert experiments._band(0.34867844010000021, 0.0, oracle)
    assert experiments._band(oracle * (1.0 + 0.9e-12), 0.0, oracle)
    assert not experiments._band(oracle * (1.0 + 1.1e-12), 0.0, oracle)
    # an estimate that underflowed to 0 against a nonzero oracle still fails
    assert not experiments._band(0.0, 0.0, 1.5e-8)
    assert experiments._band(0.0, 0.0, 0.0)


def test_an_overflowing_coupling_row_fails():
    # the squared norms reach 1e170, so the SE's squared deviations overflow
    # while the estimate stays finite; |v - oracle| <= SE_MULT * inf passed it
    with np.errstate(over="ignore", invalid="ignore"):
        (row,) = run(resolve(ExperimentConfig("wasserstein", alphas=(50.0,), ns=(50,), n_traj=5)))
    assert math.isfinite(row.empirical) and math.isfinite(row.oracle)
    assert row.std_err == math.inf
    assert not row.passed


def test_the_band_note_names_what_overflowed_or_underflowed():
    assert experiments._band_note(1.0, 0.25, 2.0) == ""
    assert experiments._band_note(0.0, 0.0, 0.0) == ""
    assert experiments._band_note(1.0, math.inf, 2.0) == "non-finite statistics: std_err=inf"
    assert experiments._band_note(math.inf, math.nan, math.inf) == (
        "non-finite statistics: empirical=inf, std_err=nan, oracle=inf"
    )
    assert experiments._band_note(0.0, 0.0, 1.5e-8) == (
        "Monte Carlo empirical and std_err underflowed to 0 against oracle 1.5e-08"
    )
    assert experiments._band_note(0.0, 0.5, 1.5e-8) == (
        "Monte Carlo empirical underflowed to 0 against oracle 1.5e-08"
    )


@pytest.mark.parametrize("config,notes", [
    # the coupled squared norms overflow: first the SE, then every statistic
    (
        {"experiment": "wasserstein", "alphas": [50], "ns": [50, 100], "n_traj": 5},
        ["non-finite statistics: std_err=inf",
         "non-finite statistics: empirical=inf, std_err=nan, oracle=inf"],
    ),
    # the coupled squared norms underflow, the exact curve does not
    (
        {"experiment": "wasserstein", "alphas": [0.9], "ns": [400], "n_traj": 2},
        ["Monte Carlo empirical and std_err underflowed to 0 against oracle 1.2862e-08"],
    ),
    # every product moment underflows: mc_norm_moment's zero-mean estimate
    (
        {"experiment": "bounds", "alphas": [0.9], "ns": [400], "n_traj": 4},
        ["Monte Carlo empirical and std_err underflowed to 0 against oracle 6.431e-09"],
    ),
], ids=["wasserstein-overflow", "wasserstein-underflow", "bounds-underflow"])
def test_rows_whose_statistics_overflow_or_underflow_carry_a_note(config, notes):
    cfg, errors = config_from_dict(dict(config, seed=0))
    assert errors == []
    rows = run(cfg)
    assert [row.note for row in rows] == notes
    assert not any(row.passed for row in rows)


def test_an_overflowing_exact_curve_stays_inf():
    # the transfer matrix of a diagonal model has zero entries, and zero
    # times an overflowed state entry would make every later trace nan
    model = {"kind": "bounded_factor", "abar": [[1, 0], [0, 1]], "bbar": [0, 0],
             "m": [[0.9, 0], [0, 0.9]], "eta": 1.0, "sigma": 0.0}
    cfg, errors = config_from_dict({"experiment": "wasserstein", "model": model, "alphas": [50],
                                    "ns": [50, 100, 200], "n_traj": 5, "seed": 0})
    assert errors == []
    rows = run(cfg)
    oracles = [line.split(",")[5] for line in csv_text("wasserstein", rows).splitlines()[1:]]
    assert math.isfinite(float(oracles[0]))
    assert oracles[1:] == ["inf", "inf"]
    assert [row.note.rsplit(", ", 1)[-1] for row in rows[1:]] == ["oracle=inf"] * 2


# Configs at the edges of the stepsize and horizon grids: coupled copies that
# overflow, n = 0, the gap bound's largest stepsize, a diverging simulation,
# an n = 0 moment and a stepsize just below rosenthal's cap.
_EDGE_CONFIGS = {
    "wasserstein-overflow": {"experiment": "wasserstein", "alphas": [50], "ns": [50, 100],
                             "n_traj": 5},
    "wasserstein-n0": {"experiment": "wasserstein", "ns": [0, 0]},
    "clt-alpha-inf": {"experiment": "clt", "alphas": [1.0], "n_traj": 50},
    "simulate-diverging": {"experiment": "simulate", "alphas": [5.0], "n_traj": 5},
    "bounds-n0": {"experiment": "bounds", "ns": [0]},
    "rosenthal-alpha-near-1": {"experiment": "rosenthal", "alphas": [0.999999], "n_traj": 2},
}


@pytest.mark.parametrize("name", sorted(_EDGE_CONFIGS))
def test_edge_configs_pass_only_finite_rows(name):
    cfg, errors = config_from_dict(dict(_EDGE_CONFIGS[name], seed=0))
    assert errors == []
    with np.errstate(over="ignore", invalid="ignore"):
        rows = run(cfg)
    for row in rows:
        values = [row.empirical, row.std_err] + [v for v in (row.oracle, row.bound) if v is not None]
        assert not row.passed or all(map(math.isfinite, values)), row
        # validation dry-ran every exact half a unit computes
        assert not row.note.startswith("ValueError"), row


def test_only_the_rademacher_law_reads_q_a():
    # every other experiment reads its oracle from the model's law, not from
    # a parameter of one kind of model
    held = {
        f"experiments.{fn.__name__}"
        for exp in experiments._EXPERIMENTS.values()
        for fn in (exp.runner, exp.law, exp.exact) if fn is not None
    }
    readers = {
        name for name, node in _top_level_nodes()
        if isinstance(node, ast.Constant) and node.value == "q_a"
    }
    assert readers & held == {"experiments._rademacher_law"}


def test_each_precondition_has_one_home():
    # validate dry-runs the exact halves the runners call: a hand-written
    # check beside them, or a runner that computes its model, oracles or
    # bounds itself, would be a second home for a precondition
    tree = ast.parse(Path(experiments.__file__).read_text(encoding="utf-8"))
    defs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    assert [name for name in defs if name.startswith("_check")] == []
    for name, exp in experiments._EXPERIMENTS.items():
        called = {
            node.func.id for node in ast.walk(defs[exp.runner.__name__])
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        }
        halves = {fn.__name__ for fn in (exp.law, exp.exact) if fn is not None}
        assert halves <= called, name
    assert {name for name, exp in experiments._EXPERIMENTS.items() if exp.law is None} == {
        "lyapunov"
    }


@pytest.mark.parametrize("change", [-1, 1], ids=["one_too_few", "one_too_many"])
def test_a_runner_with_the_wrong_verdict_count_raises(change, monkeypatch):
    # a row must never be dropped, or made up, silently
    record = experiments._EXPERIMENTS["rademacher"]

    def miscounted(config, unit, seed):
        verdicts = record.runner(config, unit, seed)
        return verdicts[:-1] if change < 0 else verdicts + verdicts[:1]

    monkeypatch.setitem(experiments._EXPERIMENTS, "rademacher", replace(record, runner=miscounted))
    with pytest.raises(ValueError, match="zip"):
        run_unit(resolve(tiny_config("rademacher")), 0)


# Small configs on which the layout varies: the budgets below split every
# chunked Monte Carlo unit into several chunks (wasserstein's 600
# trajectories into whole granules of 256), lyapunov's 20 trials and
# rosenthal's 600 into blocks (rosenthal's 4 head units and 600 trials fill
# one block of 512 and part of a second, and a block of 3 units holds the
# last head unit and two trials), and all but rademacher's and wasserstein's
# units over two workers.
_LAYOUT = {
    "lyapunov": dict(n_traj=20),
    "bounds": dict(alphas=(0.1,), ns=(10, 50), ps=(2.0,), n_traj=300),
    "simulate": dict(alphas=(0.1, 0.05), ns=(50,), n_traj=150),
    "rademacher": dict(alphas=(0.1,), ns=(400,), deltas=(0.1,)),
    "clt": dict(alphas=(0.1, 0.2), n_traj=30),
    "wasserstein": dict(alphas=(0.1,), ns=(10, 20), n_traj=600),
    "rosenthal": dict(alphas=(0.25,), qs=(2,), rhos=(0.5,), n_traj=600),
}


@pytest.mark.parametrize("name", EXPERIMENT_NAMES)
def test_csv_bytes_do_not_depend_on_chunk_block_or_worker_layout(name, monkeypatch):
    # the reproducibility contract: chunk size, draw windows, block size and
    # worker count
    # schedule the work and never change what it computes.  Two workers run
    # before one, and block sizes alternate, so no run finds a block it needs
    # in the cache the run before it left: a pool forks with the parent's
    # cache, which then holds a block of the other size.
    cfg = resolve(ExperimentConfig(experiment=name, seed=1, **_LAYOUT[name]))
    record = experiments._EXPERIMENTS[name]
    blocks = (record.block, 3) if record.block > 1 else (1,)
    expected = None
    chunking = ((engine._CHUNK_FLOAT_BUDGET, engine._CHUNK_ROWS), (20_000, 7), (3_000, 3))
    for (budget, rows), block, workers in itertools.product(chunking, blocks, (2, 1)):
        monkeypatch.setattr(engine, "_CHUNK_FLOAT_BUDGET", budget)
        monkeypatch.setattr(engine, "_CHUNK_ROWS", rows)
        monkeypatch.setitem(experiments._EXPERIMENTS, name, replace(record, block=block))
        text = csv_text(name, run(replace(cfg, workers=workers)))
        expected = expected or text
        assert text == expected, (budget, rows, block, workers)


_D2_FACTOR = {
    "kind": "bounded_factor", "abar": [[1.0, 0.3], [-0.2, 0.8]], "bbar": [1.0, -0.5],
    "m": [[0.5, 0.1], [0.1, 0.4]], "eta": 0.5, "sigma": 1.0,
}


class TestSimulateUnit:
    @pytest.mark.parametrize("model", [None, _D2_FACTOR], ids=["default", "d2"])
    def test_row_equals_a_per_trajectory_reference(self, model):
        cfg = resolve(tiny_config("simulate", alphas=(0.1, 0.05), ns=(30,), n_traj=15,
                                  **({"model": model} if model else {})))
        for index in range(unit_count(cfg)):
            alpha, n = _unit(cfg, index)
            seed = _unit_seed(cfg.seed, index)
            built = _build_model(cfg.model)
            theta0 = built.theta_star + 1.0
            worst = 0.0
            for j in range(cfg.n_traj):
                dec = run_decomposed(built, alpha, theta0, n, stream(seed, j))
                worst = max(worst, dec.residual)
            expected = ResultRow(
                experiment="simulate", params=(("alpha", alpha), ("n", n)), empirical=worst,
                std_err=0.0, oracle=0.0, bound=1e-9, passed=worst <= 1e-9, seed=seed,
            )
            (row,) = run_unit(cfg, index)
            assert row == expected
            assert csv_text("simulate", [row]) == csv_text("simulate", [expected])

    def test_disagreement_with_the_recursion_fails_the_row(self, monkeypatch):
        cfg = resolve(tiny_config("simulate"))
        (clean,) = run_unit(cfg, 0)
        assert clean.passed
        monkeypatch.setattr(
            experiments, "final_errors", lambda *args: final_errors(*args) + 1e-6
        )
        (row,) = run_unit(cfg, 0)
        assert not row.passed
        assert row.empirical == clean.empirical
        assert "differs from the recursion" in row.note

    def test_nan_residual_fails_the_row(self, monkeypatch):
        # h1 of one trajectory overflows while theta_err stays finite
        def with_nan_h1(*args):
            terms = engine._decomposed_errors(*args)
            terms[3, 2] = math.nan
            return terms

        monkeypatch.setattr(experiments, "_decomposed_errors", with_nan_h1)
        (row,) = run_unit(resolve(tiny_config("simulate")), 0)
        assert math.isnan(row.empirical)
        assert not row.passed

    def test_noise_free_model_with_a_nonzero_target_passes(self):
        # every theta_err shrinks to 0.9**200 while the recursion carries
        # theta_n near theta_star = 2: its rounding is relative to 2
        model = {"kind": "bounded_factor", "abar": [[1.0]], "bbar": [2.0], "m": [[1.0]],
                 "eta": 0.0, "sigma": 0.0}
        rows = run(resolve(tiny_config("simulate", ns=(200,), model=model)))
        assert all(row.passed for row in rows), [row.note for row in rows]


def _lyapunov_draws(cfg: ExperimentConfig, index: int):
    """Unit ``index``'s seed, generator, mean matrix and noise covariance."""
    (trial,) = _unit(cfg, index)
    seed = _unit_seed(cfg.seed, index)
    gen = stream(seed, 0)
    dim = 1 + trial % 8
    g, r, w = (_normals(uniform_open01(gen, (dim, dim))) for _ in range(3))
    abar = g @ g.T / dim + 0.1 * np.eye(dim) + 0.5 * (r - r.T)
    sigma_eps = w @ w.T / dim + 0.1 * np.eye(dim)
    return seed, gen, abar, sigma_eps


def _lyapunov_reference(cfg: ExperimentConfig, index: int) -> list[ResultRow]:
    """A lyapunov unit's rows from the public solves, one call each, in order."""
    (trial,) = _unit(cfg, index)
    dim = 1 + trial % 8
    seed, gen, abar, sigma_eps = _lyapunov_draws(cfg, index)
    profile = spectral_profile(abar, 1.5 * spectral_norm(abar))
    alpha = float(uniform_open01(gen, 1)[0]) * profile.alpha_inf
    eye = np.eye(dim)

    def rel(lhs, rhs):
        return spectral_norm(lhs - rhs) / (1.0 + spectral_norm(rhs))

    q = profile.q
    sig = solve_sigma(abar, sigma_eps)
    sig_a = solve_riccati(abar, sigma_eps, alpha)
    worst = max(
        rel(abar.T @ q + q @ abar, eye),
        rel(abar @ sig + sig @ abar.T, sigma_eps),
        rel(abar @ sig_a + sig_a @ abar.T - alpha * (abar @ sig_a @ abar.T), sigma_eps),
    )
    contraction = q_norm_mat(eye - alpha * abar, q) ** 2
    cap = 1.0 - profile.a * alpha + experiments.CONTRACTION_SLACK
    tol = experiments.SOLVER_RESIDUAL_TOL

    def row(check, empirical, oracle, bound, passed):
        return ResultRow(
            experiment="lyapunov",
            params=(("check", check), ("trial", trial), ("dim", dim), ("alpha", alpha)),
            empirical=empirical, std_err=0.0, oracle=oracle, bound=bound, passed=passed,
            seed=seed,
        )

    return [
        row("residuals", worst, 0.0, tol, worst <= tol),
        row("contraction", contraction, None, cap, contraction <= cap),
    ]


class TestLyapunovUnit:
    # 24 units: dimensions 1..8, three times each
    CFG = resolve(tiny_config("lyapunov", n_traj=24, seed=5))

    def test_rows_equal_the_public_call_reference(self):
        for index in range(unit_count(self.CFG)):
            expected = _lyapunov_reference(self.CFG, index)
            rows = run_unit(self.CFG, index)
            assert rows == expected
            assert csv_text("lyapunov", rows) == csv_text("lyapunov", expected)

    def test_per_unit_call_budget(self, monkeypatch):
        # a block makes one stacked call of each kind per dimension group:
        # the 24 units share one block of eight groups, and with blocks of
        # one each unit is its own group
        counts: dict[str, int] = {}

        def counting(owner, name):
            original = getattr(owner, name)

            def wrapper(*args, **kwargs):
                counts[name] = counts.get(name, 0) + 1
                return original(*args, **kwargs)

            monkeypatch.setattr(owner, name, wrapper)

        for name in ("eigvals", "eigh", "svd", "solve"):
            counting(np.linalg, name)
        record = experiments._EXPERIMENTS["lyapunov"]
        for size, groups in ((256, 8), (1, 1)):
            monkeypatch.setitem(experiments._EXPERIMENTS, "lyapunov", replace(record, block=size))
            for index in range(unit_count(self.CFG)):
                counts.clear()
                run_unit(self.CFG, index)
                if index % size:
                    assert counts == {}, counts
                    continue
                assert counts.get("eigvals") == groups, counts
                assert counts.get("eigh") == groups, counts
                assert counts.get("svd", 0) <= 10 * groups, counts
                assert counts.get("solve") == 3 * groups, counts

    def test_rows_do_not_depend_on_block_or_worker_layout(self, monkeypatch):
        # 600 units: two full blocks of 256 and a partial one, whose edges
        # equal the reference in the default layout and in blocks of 7 over
        # two workers; the layout grid itself is pinned for every experiment
        # by test_csv_bytes_do_not_depend_on_chunk_block_or_worker_layout
        cfg = resolve(tiny_config("lyapunov", n_traj=600, seed=9))
        expected = [row for index in (0, 255, 256, 599) for row in _lyapunov_reference(cfg, index)]
        record = experiments._EXPERIMENTS["lyapunov"]
        # two workers even on a one-CPU host
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: range(2), raising=False)
        for size, workers in ((record.block, 1), (7, 2)):
            monkeypatch.setitem(experiments._EXPERIMENTS, "lyapunov", replace(record, block=size))
            rows = run(replace(cfg, workers=workers))
            assert len(rows) == 1200
            assert [rows[i] for i in (0, 1, 510, 511, 512, 513, 1198, 1199)] == expected

    def test_a_failing_trial_fails_only_its_own_rows(self, monkeypatch):
        target = 13
        # the public-call reference, so that no block is cached before the
        # solve is perturbed
        succeeded = [_lyapunov_reference(self.CFG, i) for i in range(unit_count(self.CFG))]
        _, _, abar, _ = _lyapunov_draws(self.CFG, target)
        d = len(abar)
        # the Kronecker matrix of target's Lyapunov solve; np.kron has its bits
        k_target = np.kron(np.eye(d), abar.T) + np.kron(abar.T, np.eye(d))
        original = np.linalg.solve

        def perturbed(a, b):
            x = original(a, b)
            if a.shape[-2:] == k_target.shape:
                x[np.all(a == k_target, axis=(-2, -1))] += 1.0
            return x

        monkeypatch.setattr(np.linalg, "solve", perturbed)
        with pytest.raises(linalg.SolverResidualError) as info:
            solve_lyapunov(abar)
        note = f"SolverResidualError: {info.value}"
        for index, ok in enumerate(succeeded):
            rows = run_unit(self.CFG, index)
            if index != target:
                assert rows == ok
                continue
            assert [row.note for row in rows] == [note, note]
            assert not any(row.passed for row in rows)
            assert all(math.isnan(row.empirical) for row in rows)
            _assert_built_in_cells(rows)


def _bsum_reference(cfg: ExperimentConfig, index: int) -> ResultRow:
    """A ``bsum`` unit's row from its own stream and one 1-D check call."""
    trial = _unit(cfg, index)[-1]
    seed = _unit_seed(cfg.seed, index)
    gen = stream(seed, 0)
    draws = uniform_open01(gen, 3)
    length = 5 + int(draws[0] * 60.0)
    a_val = 0.5 + 3.5 * draws[1]
    start = 0.9 * draws[2] / a_val
    decay = 0.8 + 0.2 * uniform_open01(gen, length - 1)
    residual = geometric_sum_check(start * np.concatenate(([1.0], np.cumprod(decay))), a_val)
    params = dict.fromkeys(PARAM_KEYS["rosenthal"], "")
    params.update(check="bsum", trial=trial)
    tol = experiments.GEOMETRIC_SUM_TOL
    return ResultRow(
        experiment="rosenthal", params=tuple(params.items()), empirical=residual, std_err=0.0,
        oracle=0.0, bound=tol, passed=residual <= tol, seed=seed,
    )


class TestBsumUnit:
    # the default grid's 16 head units and 1100 trials: block 0 holds the
    # head and trials 0..495, block 1 trials 496..1007, and the partial
    # block 2 the rest
    CFG = resolve(ExperimentConfig(experiment="rosenthal", n_traj=1100, seed=9))
    HEAD = 16

    def test_rows_equal_the_per_unit_reference(self):
        rows = run(self.CFG)
        assert len(rows) == self.HEAD + 1100
        for index in range(self.HEAD, len(rows)):
            assert rows[index] == _bsum_reference(self.CFG, index), index
        assert experiments._EXPERIMENTS["rosenthal"].block == 512
        edges = [self.HEAD + t for t in (0, 495, 496, 1007, 1008, 1099)]
        assert [index % 512 for index in edges] == [16, 511, 0, 511, 0, 91]
        text = csv_text("rosenthal", [rows[i] for i in edges])
        assert text == csv_text("rosenthal", [_bsum_reference(self.CFG, i) for i in edges])

    @pytest.mark.parametrize("seed", [7, 2**64 - 300])
    def test_seeds_wrap_as_the_unit_seeds_do(self, seed):
        cfg = resolve(ExperimentConfig(experiment="rosenthal", n_traj=400, seed=seed))
        rows = run(cfg)
        for index in range(self.HEAD, len(rows)):
            assert rows[index] == _bsum_reference(cfg, index), index

    def test_a_failing_trial_fails_only_its_own_row(self, monkeypatch):
        target = self.HEAD + 700
        # the head units read no block, and the trials are checked against
        # their references, so that no block is cached before the patch
        head = [row for index in range(self.HEAD) for row in run_unit(self.CFG, index)]
        seed = _unit_seed(self.CFG.seed, target)
        a_target = 0.5 + 3.5 * float(uniform_open01(stream(seed, 0), 2)[1])
        original = experiments.geometric_sum_check

        def too_large_first_step(steps, a):
            # the target trial's sequence starts above 1/a
            steps = np.array(steps)
            steps[np.asarray(a) == a_target, 0] = 10.0
            return original(steps, a)

        monkeypatch.setattr(experiments, "geometric_sum_check", too_large_first_step)
        note = f"ValueError: largest stepsize 10.0 must stay below 1/a = {1.0 / a_target:.6g}"
        rows = run(self.CFG)
        assert len(rows) == self.HEAD + 1100
        assert rows[: self.HEAD] == head
        for index in range(self.HEAD, len(rows)):
            row = rows[index]
            if index != target:
                assert row == _bsum_reference(self.CFG, index), index
                continue
            assert row.note == note
            assert not row.passed and math.isnan(row.empirical)
            _assert_built_in_cells([row])


@pytest.mark.parametrize("name", ["lyapunov", "rosenthal"])
def test_blocked_units_read_their_seeds_from_unit_seed(name, monkeypatch):
    # under another bijection of the unit index, each blocked unit's rows are
    # still its reference's at the seed its own rows carry: 300 trials span
    # two blocks
    def rule(seed, index):
        return (seed + 2 * index + 1) % 2**64

    # the references read the rule bound at this file's import, not the patch
    monkeypatch.setattr(experiments, "_unit_seed", rule)
    cfg = resolve(ExperimentConfig(experiment=name, n_traj=300, seed=2**64 - 400))
    rows = run(cfg)
    per_unit = 2 if name == "lyapunov" else 1
    head = len(rows) - 300 * per_unit
    assert [row.seed for row in rows[::per_unit]] == [
        rule(cfg.seed, index) for index in range(unit_count(cfg))
    ]
    reference = _lyapunov_reference if name == "lyapunov" else _bsum_reference
    for index in range(head, unit_count(cfg)):
        unit_rows = rows[index * per_unit : (index + 1) * per_unit]
        # a config whose seed puts the reference's own seed arithmetic on
        # the seed of this unit's rows
        at_seed = replace(cfg, seed=(unit_rows[0].seed - index) % 2**64)
        expected = reference(at_seed, index)
        assert unit_rows == (expected if name == "lyapunov" else [expected]), index


@pytest.mark.parametrize("seed, index", [(0, 0), (9, 700), (2**64 - 1, 1), (2**64 - 400, 599)])
def test_unit_seed_is_the_run_seed_plus_the_unit_index(seed, index):
    # the one test that pins the rule; the references above call _unit_seed
    assert _unit_seed(seed, index) == (seed + index) % 2**64


def _materialized_units(cfg: ExperimentConfig) -> list[tuple]:
    """The run's units as the fully enumerated grid, in row order."""
    exp = cfg.experiment
    if exp == "lyapunov":
        return [(t,) for t in range(cfg.n_traj)]
    if exp == "bounds":
        return list(itertools.product(cfg.alphas, cfg.ns, cfg.ps))
    if exp == "simulate":
        return list(itertools.product(cfg.alphas, cfg.ns))
    if exp == "rademacher":
        return list(itertools.product(cfg.alphas, cfg.ns, cfg.deltas))
    if exp == "clt":
        return [(al,) for al in cfg.alphas]
    if exp == "wasserstein":
        return [(al,) for al in cfg.alphas] if cfg.ns else []
    # each rosenthal unit is its row's (check, q, u, rho, alpha, trial)
    units: list[tuple] = []
    for q in cfg.qs:
        for u in range(1, q):
            for rho in cfg.rhos:
                units.append(("buq", q, u, rho, "", ""))
    for q in cfg.qs:
        for u in range(1, q):
            units.append(("count", q, u, "", "", ""))
    for al in cfg.alphas:
        units.append(("delta_root", "", "", "", al, ""))
        units.append(("horizon", "", "", "", al, ""))
    units.extend(("bsum", "", "", "", "", t) for t in range(cfg.n_traj))
    return units


class TestUnitDescriptors:
    @pytest.mark.parametrize(
        "cfg",
        [ExperimentConfig(experiment=name) for name in EXPERIMENT_NAMES]
        + [
            ExperimentConfig(experiment="lyapunov", n_traj=2),
            ExperimentConfig(
                experiment="bounds", alphas=(0.1, 0.2), ns=(10, 50, 200), ps=(2.0, 4.0)
            ),
            ExperimentConfig(experiment="bounds", ps=()),
            ExperimentConfig(experiment="simulate", alphas=(0.1, 0.05, 0.02), ns=(7, 9)),
            ExperimentConfig(
                experiment="rademacher", alphas=(0.1, 0.2), ns=(400, 500, 1000), deltas=(0.1,)
            ),
            ExperimentConfig(experiment="rademacher", alphas=()),
            ExperimentConfig(experiment="clt", alphas=(0.1, 0.05, 0.02)),
            ExperimentConfig(experiment="wasserstein", alphas=(0.1, 0.2), ns=(5,)),
            ExperimentConfig(experiment="wasserstein", ns=()),
            ExperimentConfig(
                experiment="rosenthal", qs=(2, 3, 5), rhos=(0.5, 0.25), n_traj=7
            ),
            ExperimentConfig(experiment="rosenthal", qs=(), alphas=(), n_traj=3),
        ],
        ids=lambda cfg: cfg.experiment,
    )
    def test_descriptors_match_the_enumerated_grid(self, cfg):
        cfg = resolve(cfg)
        expected = _materialized_units(cfg)
        assert unit_count(cfg) == len(expected)
        assert [_unit(cfg, i) for i in range(len(expected))] == expected
        for index in (-1, len(expected)):
            with pytest.raises(IndexError):
                _unit(cfg, index)


def _clean(value):
    """A cell as ``json.dumps`` takes it: numpy scalars as Python ones, nan
    and +-inf as None."""
    if isinstance(value, np.generic):
        value = value.item()
    return None if isinstance(value, float) and not math.isfinite(value) else value


def _standard_json(rows: list[ResultRow], cfg: ExperimentConfig, wall_time_s: float) -> str:
    """What ``json_text`` must write for rosenthal ``rows``: the payload
    through ``json.dumps(indent=2)``."""
    from lsalab import __version__

    keys = PARAM_KEYS["rosenthal"]
    payload = {
        "metadata": {
            "version": __version__, "experiment": "rosenthal",
            "config_hash": config_hash(cfg), "wall_time_s": wall_time_s,
        },
        "rows": [
            dict(zip(("experiment",) + keys + experiments._CSV_TAIL,
                     map(_clean, experiments._cells(r, keys))))
            for r in rows
        ],
    }
    return json.dumps(payload, indent=2, allow_nan=False) + "\n"


class TestCsvText:
    def test_header_and_formats(self):
        row = ResultRow(
            experiment="bounds",
            params=(("alpha", 0.1), ("n", 10), ("p", 2.0)),
            empirical=1 / 3,
            std_err=0.0,
            oracle=None,
            bound=2.0,
            passed=True,
            seed=7,
            note="hidden",
        )
        text = csv_text("bounds", [row])
        lines = text.splitlines()
        assert lines[0] == "experiment,alpha,n,p,empirical,std_err,oracle,bound,pass,seed"
        cells = lines[1].split(",")
        assert cells[0] == "bounds"
        assert cells[1] == format(0.1, ".17g")
        assert cells[2] == "10"
        assert float(cells[4]) == 1 / 3  # 17 significant digits round-trip
        assert cells[6] == ""  # None renders empty
        assert cells[8] == "true"
        assert cells[9] == "7"
        assert "hidden" not in text  # notes are in-memory only

    def test_numpy_bool_renders_as_bool(self):
        # a numpy bool is written as CSV and JSON write a Python one
        row = ResultRow(
            experiment="bounds", params=(("alpha", 0.1), ("n", 10), ("p", np.bool_(True))),
            empirical=0.5, std_err=0.0, oracle=None, bound=1.0, passed=np.bool_(False), seed=7,
        )
        plain = replace(row, params=(("alpha", 0.1), ("n", 10), ("p", True)), passed=False)
        cells = csv_text("bounds", [row]).splitlines()[1].split(",")
        assert [cells[3], cells[8]] == ["true", "false"]
        assert csv_text("bounds", [row]) == csv_text("bounds", [plain])
        cfg = tiny_config("bounds")
        (entry,) = json.loads(json_text("bounds", [row], cfg, 0.0))["rows"]
        assert [entry["p"], entry["pass"]] == [True, False]
        assert json_text("bounds", [row], cfg, 0.0) == json_text("bounds", [plain], cfg, 0.0)

    def test_empty_rows_give_header_only(self):
        text = csv_text("clt", [])
        assert text == "experiment,check,alpha,empirical,std_err,oracle,bound,pass,seed\n"


class TestJsonText:
    def test_mirrors_rows_and_carries_metadata(self):
        cfg = tiny_config("rademacher")
        rows = run(cfg)
        payload = json.loads(json_text("rademacher", rows, cfg, 1.25))
        meta = payload["metadata"]
        assert meta["experiment"] == "rademacher"
        assert meta["wall_time_s"] == 1.25
        assert meta["config_hash"] == config_hash(cfg)
        from lsalab import __version__

        assert meta["version"] == __version__
        assert len(payload["rows"]) == len(rows)
        first = payload["rows"][0]
        assert first["pass"] == rows[0].passed
        assert first["empirical"] == rows[0].empirical
        assert set(first) == {
            "experiment", *PARAM_KEYS["rademacher"],
            "empirical", "std_err", "oracle", "bound", "pass", "seed",
        }

    def test_non_finite_cells_are_null(self):
        # the CSV keeps nan and inf; strict JSON has no such constants
        row = ResultRow(
            experiment="bounds",
            params=(("alpha", 0.1), ("n", 10), ("p", np.float64(2.0))),
            empirical=math.nan,
            std_err=math.inf,
            oracle=np.float64(-math.inf),
            bound=2.0,
            passed=False,
            seed=7,
        )
        cfg = tiny_config("bounds")
        assert csv_text("bounds", [row]).splitlines()[1].split(",")[4:8] == [
            "nan", "inf", "-inf", "2"
        ]
        (entry,) = json.loads(json_text("bounds", [row], cfg, 0.0))["rows"]
        assert [entry[k] for k in ("p", "empirical", "std_err", "oracle", "bound")] == [
            2.0, None, None, None, 2.0
        ]

    def test_equals_the_standard_encoder(self):
        # json_text writes rows line by line; the bytes must be those of
        # json.dumps(payload, indent=2) with nan and inf as null
        def row(params, **cells):
            keys = PARAM_KEYS["rosenthal"]
            return ResultRow(experiment="rosenthal", params=tuple(zip(keys, params)), **cells)

        rows = [
            row(("bsum", "", np.int64(3), 0.5, "", 7), empirical=math.nan, std_err=math.inf,
                oracle=None, bound=-math.inf, passed=True, seed=2**64 - 1),
            row(("ünï €", 2, 1, np.float64(1e-300), 'tab\t"q"\\', 0), empirical=-0.0,
                std_err=0.1, oracle=np.float64(-math.inf), bound=1e300, passed=False, seed=0),
        ]
        cfg = tiny_config("rosenthal")
        for chosen in (rows, rows[:1], []):
            assert json_text("rosenthal", chosen, cfg, 0.25) == _standard_json(chosen, cfg, 0.25)

    def test_agreement_with_csv_values(self):
        cfg = tiny_config("bounds")
        rows = run(cfg)
        payload = json.loads(json_text("bounds", rows, cfg, 0.0))
        csv_lines = csv_text("bounds", rows).splitlines()[1:]
        for entry, line in zip(payload["rows"], csv_lines):
            cells = line.split(",")
            assert float(cells[4]) == entry["empirical"]
            assert (cells[9]) == str(entry["seed"])


# Cells of every type a row may hold, numpy scalars included, with the
# edges of each: unicode, quotes, % and tabs in strings, the largest seed,
# signed zero, +-1e+-300 and the non-finite floats.
_CELLS = st.one_of(
    st.none(),
    st.booleans(),
    st.text(),
    st.integers(min_value=-(2**64), max_value=2**64 - 1),
    st.floats(),
    st.sampled_from(
        [2**64 - 1, -0.0, 1e300, -1e300, 1e-300, -1e-300, math.nan, math.inf, -math.inf,
         "%s", "100 %", 'tab\t"q"\\ ünï €']
    ),
    st.floats().map(np.float64),
    st.floats(width=32).map(np.float32),
    st.integers(min_value=-(2**63), max_value=2**63 - 1).map(np.int64),
    st.booleans().map(np.bool_),
)


@st.composite
def _rosenthal_rows(draw):
    """A rosenthal row of arbitrary cells; its params may skip columns."""
    keys = PARAM_KEYS["rosenthal"]
    used = draw(st.lists(st.booleans(), min_size=len(keys), max_size=len(keys)))
    return ResultRow(
        experiment=draw(st.sampled_from(["rosenthal"]) | st.text()),
        params=tuple((k, draw(_CELLS)) for k, u in zip(keys, used) if u),
        empirical=draw(_CELLS), std_err=draw(_CELLS), oracle=draw(_CELLS),
        bound=draw(_CELLS), passed=draw(_CELLS), seed=draw(_CELLS),
    )


def _edge_rows() -> list[ResultRow]:
    """Rows of one shape whose bools differ, a bool param beside ``pass``,
    and rows that leave the templates for the per-cell path."""
    keys = PARAM_KEYS["rosenthal"]

    def row(params, passed, **cells):
        return ResultRow("rosenthal", tuple(zip(keys, params)), passed=passed, seed=2**64 - 1,
                         **{"empirical": 0.5, "std_err": -0.0, "oracle": None, "bound": 1e300,
                            **cells})

    return [
        row(("bsum", "", "", "", "", 3), True),
        row(("bsum", "", "", "", "", 4), False),
        row(("b%s", True, 1, 0.5, 'tab\t"q"\\ ünï €', False), True),
        row(("b%s", False, 1, 0.5, 'tab\t"q"\\ ünï €', True), False),
        row(("bsum", "", "", "", "", 5), True, empirical=math.nan),
        row(("bsum", "", "", "", "", np.int64(6)), np.bool_(True)),
        row(("bsum", "", "", "", "", 7), True, bound=-math.inf),
    ]


class TestTemplates:
    """The per-shape templates write the bytes of the per-cell path, which
    is the reference: ``_fmt_cell`` for CSV, ``_json_cell`` for JSON."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(_rosenthal_rows(), max_size=8))
    @example(_edge_rows())
    def test_rows_render_as_their_cells(self, rows):
        keys = PARAM_KEYS["rosenthal"]
        columns = ("experiment",) + keys + experiments._CSV_TAIL
        cells = [experiments._cells(row, keys) for row in rows]
        lines = [",".join(columns)] + [",".join(map(experiments._fmt_cell, c)) for c in cells]
        assert csv_text("rosenthal", rows) == "".join(line + "\n" for line in lines)

        prefixes = [f"      {json.dumps(k)}: " for k in columns]
        entries = [
            "    {\n" + ",\n".join(p + experiments._json_cell(v) for p, v in zip(prefixes, c))
            + "\n    }"
            for c in cells
        ]
        body = "[\n" + ",\n".join(entries) + "\n  ]" if entries else "[]"
        cfg = tiny_config("rosenthal")
        text = json_text("rosenthal", rows, cfg, 0.25)
        assert text.endswith('"rows": ' + body + "\n}\n")
        assert text == _standard_json(rows, cfg, 0.25)


class TestConfigHash:
    def test_ignores_presentation_fields(self):
        base = tiny_config("clt")
        same = ExperimentConfig(
            **{**base.__dict__, "out": "elsewhere", "format": "both", "workers": 8}
        )
        assert config_hash(base) == config_hash(same)

    def test_sensitive_to_science_fields(self):
        base = tiny_config("clt")
        assert config_hash(base) != config_hash(
            ExperimentConfig(**{**base.__dict__, "seed": 1})
        )
        assert config_hash(base) != config_hash(
            ExperimentConfig(**{**base.__dict__, "alphas": (0.05,)})
        )

    @pytest.mark.parametrize(
        "name, digest",
        [
            ("lyapunov", "4b72193dbdf1809210f0ed8415f20727d8005c1977ca8f442a3f2e7090d38414"),
            ("bounds", "b16562e76d6a1a6aeb4715cbdd64f301e02d15d85fd444f82c208ce7af730a3d"),
            ("simulate", "2da70dec1886b840c9841e0ee686c37e4ed691c501578c7dd791c4198306c258"),
            ("rademacher", "b3e18ae3296fd16d8b0aa0f4548dd75ff6a95687a5b4c06917f65d918c6c5d76"),
            ("clt", "664598c4b7e8a80a0052a96ce3991b9cdf7c8ad76e763add9a3e47356cd2043f"),
            ("wasserstein", "f7bbcb74eb7c4e0c746b1cf9dd87811244545fc8e65f6c25359b1f714c7ef67e"),
            ("rosenthal", "93580dd1e3810f46258d0dc0233a330a917ccac4dbd438e3a92dfe85f1ec0e93"),
        ],
    )
    def test_default_config_hashes_are_pinned(self, name, digest):
        # reruns are matched across machines and versions by this digest
        assert config_hash(ExperimentConfig(experiment=name)) == digest

    def test_equals_resolved_hash(self):
        sparse = ExperimentConfig(experiment="rademacher")
        assert config_hash(sparse) == config_hash(resolve(sparse))


class TestOutputs:
    def test_paths_strip_known_suffixes(self):
        cfg = tiny_config("clt", out="results.csv", format="both")
        assert output_paths(cfg) == ["results.csv", "results.json"]
        cfg = tiny_config("clt", out="r.json", format="json")
        assert output_paths(cfg) == ["r.json"]

    def test_write_outputs_round_trip(self, tmp_path):
        out = str(tmp_path / "w")
        cfg = tiny_config("wasserstein", out=out, format="both")
        rows = run(cfg)
        written = write_outputs(cfg, rows, 0.5)
        assert written == [out + ".csv", out + ".json"]
        csv_body = (tmp_path / "w.csv").read_text()
        assert csv_body == csv_text("wasserstein", rows)
        payload = json.loads((tmp_path / "w.json").read_text())
        assert len(payload["rows"]) == len(rows)

    @pytest.mark.parametrize("fmt", ["csv", "json", "both"])
    def test_files_are_the_texts_at_every_batch_edge(self, tmp_path, fmt):
        # a numpy scalar row takes the per-cell path, and in JSON so does a
        # non-finite one; one of each sits on either side of every batch
        # boundary
        batch = experiments._BATCH_ROWS
        keys = PARAM_KEYS["rosenthal"]
        rows = [
            ResultRow("rosenthal", tuple(zip(keys, ("bsum", "", "", "", "", i))),
                      i / 7, 0.0, 0.0, 1e-10, i % 3 > 0, i)
            for i in range(2 * batch + 1)
        ]
        for i in (0, batch - 1, 2 * batch - 1):
            rows[i] = replace(rows[i], empirical=np.float64(rows[i].empirical))
        for i in (1, batch, 2 * batch):
            rows[i] = replace(rows[i], std_err=math.inf)
        out = str(tmp_path / "w")
        cfg = tiny_config("rosenthal", out=out, format=fmt)
        for count in (0, 1, batch - 1, batch, batch + 1, 2 * batch + 1):
            chosen = rows[:count]
            expected = {
                out + ".csv": csv_text("rosenthal", chosen),
                out + ".json": json_text("rosenthal", chosen, cfg, 0.5),
            }
            written = write_outputs(cfg, chosen, 0.5)
            assert written == output_paths(cfg)
            for path in written:
                assert Path(path).read_bytes() == expected[path].encode("utf-8"), (path, count)

    def test_writing_holds_a_few_batches_of_text(self, tmp_path):
        # the writer's peak above what its caller holds, on JSON, the larger
        # text: built whole, 6000 rows' JSON peaked at about 3.9 MB
        import tracemalloc

        keys = PARAM_KEYS["lyapunov"]
        cfg = tiny_config("lyapunov", out=str(tmp_path / "w"), format="json")
        rng = np.random.default_rng(0)
        rows = [
            ResultRow("lyapunov", tuple(zip(keys, ("residuals", i, 1 + i % 8, alpha))),
                      err, 0.0, 0.0, 1e-10, True, i)
            for i, (alpha, err) in enumerate(rng.random((24000, 2)).tolist())
        ]
        batch_text = len(json_text("lyapunov", rows[: experiments._BATCH_ROWS], cfg, 0.5))
        # a first write fills the interpreter's tuple free lists, which
        # tracemalloc counts as held, and a full collection empties them: so
        # collect, fill them with a write as large as the first measured one
        # and let no collection run in the measured writes, whose peaks then
        # do not depend on what earlier tests left
        gc.collect()
        write_outputs(cfg, rows[:6000], 0.5)
        peaks = []
        gc.disable()
        try:
            for chosen in (rows[:6000], rows):
                tracemalloc.start()
                try:
                    held = tracemalloc.get_traced_memory()[0]
                    write_outputs(cfg, chosen, 0.5)
                    peaks.append(tracemalloc.get_traced_memory()[1] - held)
                finally:
                    tracemalloc.stop()
        finally:
            gc.enable()
        assert max(peaks) < 3 * batch_text, (peaks, batch_text)
        assert peaks[1] < 1.1 * peaks[0], peaks

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_a_render_error_leaves_no_file(self, tmp_path, fmt):
        class Unwritable:
            def __str__(self):
                raise RuntimeError("no text")

        keys = PARAM_KEYS["rosenthal"]
        rows = [
            ResultRow("rosenthal", tuple(zip(keys, ("bsum", "", "", "", "", i))),
                      0.5, 0.0, 0.0, 1e-10, True, i)
            for i in range(experiments._BATCH_ROWS + 2)
        ]
        # after a whole batch, so the file has been written to
        rows[-1] = replace(rows[-1], oracle=Unwritable())
        cfg = tiny_config("rosenthal", out=str(tmp_path / "w"), format=fmt)
        with pytest.raises((RuntimeError, TypeError)):
            write_outputs(cfg, rows, 0.5)
        assert list(tmp_path.iterdir()) == []

    def test_rows_out_of_column_order_render_by_name(self):
        # a row whose params are not the columns in order takes the
        # per-cell path, which reads them by name
        keys = PARAM_KEYS["lyapunov"]
        ordered = ResultRow("lyapunov", tuple(zip(keys, ("residuals", 3, 4, 0.25))),
                            1e-12, 0.0, 0.0, 1e-10, True, 9)
        reordered = replace(ordered, params=ordered.params[::-1])
        partial = replace(ordered, params=ordered.params[:2])
        assert csv_text("lyapunov", [reordered]) == csv_text("lyapunov", [ordered])
        assert csv_text("lyapunov", [partial]).splitlines()[1] == (
            "lyapunov,residuals,3,,,9.9999999999999998e-13,0,0,1e-10,true,9"
        )
        cfg = tiny_config("lyapunov")
        entries = [
            json.loads(json_text("lyapunov", [row], cfg, 0.0))["rows"][0]
            for row in (ordered, reordered, partial)
        ]
        assert entries[0] == entries[1]
        assert json_text("lyapunov", [reordered], cfg, 0.0) == json_text(
            "lyapunov", [ordered], cfg, 0.0
        )
        assert entries[2] == {**entries[0], "dim": "", "alpha": ""}
