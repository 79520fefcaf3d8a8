"""Command-line driver: exit codes, overrides, outputs, and diagnostics."""

from __future__ import annotations

import gc
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import lsalab
import lsalab.cli as cli
from lsalab.cli import build_parser, main
from lsalab.experiments import EXPERIMENT_NAMES


@pytest.fixture(autouse=True)
def _unfreeze():
    """``main`` freezes the heap it runs on; each test hands those objects
    back to the collector, so the suite does not pin its cyclic garbage."""
    yield
    gc.unfreeze()


_MAIN = "import sys; from lsalab.cli import main; sys.exit(main())"
# rosenthal's default drift model
_DRIFT = {"kind": "drift", "lambda": 0.52, "b": 0.1, "m": 5, "epsilon": 0.1, "d_level": 9.0,
          "abar": 1.0, "c_a": 1.0}


def write_config(tmp_path, name="cfg.json", **fields):
    path = tmp_path / name
    path.write_text(json.dumps(fields))
    return str(path)


class TestParser:
    def test_every_experiment_is_a_subcommand(self):
        parser = build_parser()
        for name in EXPERIMENT_NAMES:
            args = parser.parse_args([name, "--seed", "3"])
            assert args.experiment == name
            assert args.seed == 3

    def test_missing_subcommand_exits_with_usage_error(self, capsys):
        with pytest.raises(SystemExit) as info:
            build_parser().parse_args([])
        assert info.value.code == 2


class TestExitCodes:
    def test_clean_run_exits_zero(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            alphas=[0.25], qs=[2], rhos=[0.5], n_traj=3,
            out=str(tmp_path / "r"),
        )
        assert main(["rosenthal", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert "rosenthal:" in out
        assert "0 failed" in out
        assert str(tmp_path / "r.csv") in out

    def test_config_errors_exit_two_and_list_all(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            junk=True,          # structural: unknown key
            ns=[5],             # semantic: clt takes no ns grid
            workers=0,          # semantic: worker window
            out=str(tmp_path / "r"),
        )
        assert main(["clt", "--config", cfg]) == 2
        err = capsys.readouterr().err
        lines = [l for l in err.splitlines() if l.startswith("config error: ")]
        assert len(lines) >= 3
        assert any("junk" in l for l in lines)

    def test_a_bad_format_is_reported_beside_every_other_problem(self, tmp_path, capsys):
        # validate, not the parser, rejects the format, so the seed is
        # reported in the same pass
        argv = ["rademacher", "--format", "xml", "--seed", "-1", "--out", str(tmp_path / "r")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "format must be csv, json or both" in err
        assert "seed must be a 64-bit unsigned integer" in err

    def test_a_non_integer_seed_is_reported_beside_every_other_problem(self, tmp_path, capsys):
        argv = ["rademacher", "--seed", "x", "--format", "xml", "--out", str(tmp_path / "r")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "config error: seed: expected an integer, got 'x'" in err
        assert "format must be csv, json or both" in err
        assert not (tmp_path / "r.csv").exists()

    def test_failed_rows_exit_three(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            alphas=[10.0], ns=[400], n_traj=20,
            out=str(tmp_path / "boom"),
        )
        with np.errstate(all="ignore"):
            assert main(["simulate", "--config", cfg]) == 3
        captured = capsys.readouterr()
        assert "note [" in captured.err
        assert "failed" in captured.out

    def test_a_bound_past_the_float_range_exits_two_naming_n(self, tmp_path, capsys):
        # validation evaluates the bound at every (alpha, n, p) a unit uses
        cfg = write_config(tmp_path, ps=[3], ns=[50000], out=str(tmp_path / "b"))
        assert main(["bounds", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert "config error: alpha=0.1, n=50000, p=3.0: bound at n=50000" in err
        assert not (tmp_path / "b.csv").exists()

    @pytest.mark.parametrize("experiment,fields,reason", [
        ("rademacher", {"model": {"kind": "rademacher_gaussian", "q_a": 0.75, "sigma": 1.0}},
         "kind biased_rademacher"),
        ("rademacher", {"deltas": [0.6]}, "needs delta in (0, 0.5]"),
        # past the exact integer range even where no buq unit reads q: the
        # brute-force count of a count unit grows without bound in q
        ("rosenthal", {"qs": [13]}, "exact-integer range (q <= 12)"),
        ("rosenthal", {"qs": [13], "rhos": []}, "exact-integer range (q <= 12)"),
        ("rosenthal", {"model": {**_DRIFT, "lambda": 0.9, "b": 1.0}}, "admissibility violated"),
        ("rosenthal", {"model": {**_DRIFT, "c_a": 0.5}}, "c_a=0.5 must be finite"),
        ("rosenthal", {"model": {**_DRIFT, "b": 0.0, "m": 1, "epsilon": 0.01, "d_level": 0.5,
                                 "abar": 0.1, "c_a": 0.5}},
         "drift model's block rate rho_m = 1.2527025325512666 is not in (0,1)"),
        # log(1 - eps) + log(lambda_bar) - log(b_bar) = 0: rho_m's exponent divides by 0
        ("rosenthal", {"model": {**_DRIFT, "lambda": 0.5, "b": 0.0, "m": 1, "epsilon": 0.5,
                                 "d_level": 0.25, "abar": 0.1, "c_a": 0.5}},
         "drift model's block rate rho_m = inf is not in (0,1)"),
        # 1 - a*alpha/2 rounds to 1, whose log the contraction horizon divides by
        ("rosenthal", {"alphas": [1e-17]}, "alpha=1e-17: need 0 < 1 - a*alpha/2 < 1, got 1.0"),
        ("rosenthal", {"rhos": [1e-30], "qs": [2, 12]},
         "q=12, u=11, rho=1e-30: B_{11,12}(1e-30) overflows the float range"),
        ("bounds", {"model": {"kind": "bounded_factor", "abar": [[1e200]], "bbar": [0.0],
                              "m": [[1e199]], "eta": 0.5, "sigma": 1.0}},
         "||abar||_q = 1e+200 squared overflows the float range"),
    ], ids=["rademacher-gaussian", "rademacher-delta", "rosenthal-q", "rosenthal-q-no-rhos",
            "drift-inadmissible", "drift-c-a", "drift-block-rate", "drift-block-rate-gap-zero",
            "horizon-rate-one", "buq-overflow", "profile-overflow"])
    def test_a_config_its_units_cannot_compute_exits_two(
        self, tmp_path, capsys, experiment, fields, reason
    ):
        cfg = write_config(tmp_path, out=str(tmp_path / "r"), **fields)
        assert main([experiment, "--config", cfg]) == 2
        assert reason in capsys.readouterr().err
        assert not (tmp_path / "r.csv").exists()

    def test_overflowing_rows_print_no_numpy_warnings(self, tmp_path):
        # the rows fail with inf and nan cells, in pool workers too, but
        # numpy's overflow warnings stay off stderr
        csvs = set()
        for workers in (1, 2):
            out = tmp_path / f"w{workers}"
            cfg = write_config(tmp_path, alphas=[50], ns=[50, 100], n_traj=5, out=str(out))
            done = _fresh_process(_MAIN, "wasserstein", "--config", cfg, "--workers", str(workers))
            assert done.returncode == 3
            assert "RuntimeWarning" not in done.stderr
            assert all(line.startswith("note [") for line in done.stderr.splitlines())
            csvs.add(out.with_suffix(".csv").read_bytes())
        assert len(csvs) == 1

    @pytest.mark.parametrize("experiment,fields", [
        ("wasserstein", {"eta": 0.0, "sigma": 0.0, "abar": [[0.7]], "ns": [20], "n_traj": 50}),
        ("bounds", {"eta": 0.0, "sigma": 1.0, "abar": [[1.0]]}),
    ], ids=["wasserstein-sigma0", "bounds-eta0"])
    def test_band_rows_of_a_law_without_randomness_pass(
        self, tmp_path, capsys, experiment, fields
    ):
        # with eta = 0 the products are deterministic, so the Monte Carlo
        # value and its oracle are one number computed by different
        # arithmetic, and the standard error is about 0: the rows differ in
        # their last bits alone
        fields = dict(fields)
        abar = fields.pop("abar")
        model = {"kind": "bounded_factor", "abar": abar, "bbar": [0.0], "m": [[1.0]],
                 "eta": fields.pop("eta"), "sigma": fields.pop("sigma")}
        out = tmp_path / "r"
        cfg = write_config(tmp_path, model=model, out=str(out), **fields)
        assert main([experiment, "--config", cfg]) == 0
        assert "0 failed" in capsys.readouterr().out
        rows = out.with_suffix(".csv").read_text().splitlines()[1:]
        assert rows and all(",true," in row for row in rows)

    def test_identical_products_have_a_standard_error_of_0(self, tmp_path, capsys):
        # with eta = 0 every trajectory's product is the same number, so the
        # sample has no spread at any n
        model = {"kind": "bounded_factor", "abar": [[1.0]], "bbar": [0.0], "m": [[1.0]],
                 "eta": 0.0, "sigma": 1.0}
        out = tmp_path / "r"
        assert main(["bounds", "--config", write_config(tmp_path, model=model, out=str(out))]) == 0
        header, *rows = out.with_suffix(".csv").read_text().splitlines()
        names = header.split(",")
        cells = [dict(zip(names, row.split(","))) for row in rows]
        assert [int(cell["n"]) for cell in cells] == [10, 50, 200]
        assert [float(cell["std_err"]) for cell in cells] == [0.0, 0.0, 0.0]

    @pytest.mark.parametrize("p,code", [
        ([[0, 1, 0], [0.5, 0, 0.5], [0, 1, 0]], 0),  # periodic: law [1/4, 1/2, 1/4]
        ([[1, 0, 0], [0, 1, 0], [0, 0, 1]], 2),  # every law is stationary
    ], ids=["periodic", "identity"])
    def test_td_chain_is_run_or_rejected_by_its_stationary_law(self, tmp_path, capsys, p, code):
        model = {
            "kind": "td_zero", "p": p, "rewards": [1.0, -0.5, 2.0],
            "phi": [[1.0, 0.0], [0.5, 1.0], [-0.5, 0.5]], "gamma": 0.9,
        }
        cfg = write_config(
            tmp_path, model=model, alphas=[0.05], ns=[50], n_traj=20, out=str(tmp_path / "td"),
        )
        assert main(["simulate", "--config", cfg]) == code
        err = capsys.readouterr().err
        assert ("no unique stationary law" in err) == (code == 2)

    @pytest.mark.parametrize("experiment,key,value", [
        ("clt", "eta", float("nan")),
        ("simulate", "sigma", float("inf")),
        ("wasserstein", "bbar", [float("nan")]),
    ])
    def test_non_finite_model_parameter_exits_two(
        self, tmp_path, capsys, experiment, key, value
    ):
        # json reads NaN and Infinity, so a config file can carry them
        model = {"kind": "bounded_factor", "abar": [[1.0]], "bbar": [0.0], "m": [[1.0]],
                 "eta": 0.5, "sigma": 1.0, key: value}
        cfg = write_config(tmp_path, model=model, out=str(tmp_path / "r"))
        assert main([experiment, "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert f"config error: model kind 'bounded_factor': {key}" in err

    @pytest.mark.parametrize("experiment", ["bounds", "clt"])
    @pytest.mark.parametrize("model", [
        # 2 q_a - 1 = 2e-13: the mean matrix is not Hurwitz
        {"kind": "biased_rademacher", "q_a": 0.5000000000001},
        # the atom abar + eta*m = 1e308 + 1e308 overflows
        {"kind": "bounded_factor", "abar": [[1e308]], "bbar": [0.0], "m": [[1e308]],
         "eta": 1.0, "sigma": 1.0},
    ], ids=["pm1-not-hurwitz", "factor-overflow"])
    def test_a_model_without_a_lyapunov_witness_exits_two(
        self, tmp_path, capsys, experiment, model
    ):
        cfg = write_config(tmp_path, model=model, out=str(tmp_path / "r"))
        assert main([experiment, "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: model")
        assert "Traceback" not in err

    @pytest.mark.parametrize("experiment", ["bounds", "clt", "simulate", "wasserstein"])
    def test_a_law_with_an_overflowing_atom_exits_two_without_warnings(
        self, tmp_path, capsys, experiment
    ):
        # every value a model derives is a sum over its atoms: one atom
        # abar + eta*m that overflows is named where the model is built,
        # before any of them is computed
        model = {"kind": "bounded_factor", "abar": [[1e308]], "bbar": [0.0], "m": [[1e308]],
                 "eta": 1.0, "sigma": 1.0}
        cfg = write_config(tmp_path, model=model, out=str(tmp_path / "r"))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main([experiment, "--config", cfg]) == 2
        assert [str(w.message) for w in caught] == []
        err = capsys.readouterr().err
        assert err == (
            "config error: model kind 'bounded_factor': the law of A has non-finite entries\n"
        )
        assert not (tmp_path / "r.csv").exists()

    def test_unreadable_config_exits_two(self, tmp_path, capsys):
        assert main(["clt", "--config", str(tmp_path / "absent.json")]) == 2
        assert "cannot read config file" in capsys.readouterr().err

    def test_malformed_json_exits_two(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{nope")
        assert main(["clt", "--config", str(path)]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_non_object_json_exits_two(self, tmp_path, capsys):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        assert main(["clt", "--config", str(path)]) == 2
        assert "single JSON object" in capsys.readouterr().err

    def test_experiment_mismatch_exits_two(self, tmp_path, capsys):
        cfg = write_config(tmp_path, experiment="clt")
        assert main(["bounds", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert "experiment='clt'" in err
        assert "'bounds'" in err

    def test_output_prefix_in_a_missing_directory_exits_two_before_running(
        self, tmp_path, capsys, monkeypatch
    ):
        missing = tmp_path / "missing"
        ran = []
        monkeypatch.setattr(cli, "run", ran.append)
        assert main(["rademacher", "--out", str(missing / "x"), "--format", "both"]) == 2
        err = capsys.readouterr().err
        assert f"config error: out: {str(missing)!r} is not an existing directory" in err
        assert ran == []
        assert list(tmp_path.iterdir()) == []

    def test_output_prefix_naming_a_directory_exits_two_before_running(
        self, tmp_path, capsys, monkeypatch
    ):
        # "<dir>/" would write "<dir>/.csv", and "." would write "..csv"
        monkeypatch.chdir(tmp_path)
        ran = []
        monkeypatch.setattr(cli, "run", ran.append)
        for out in (f"{tmp_path}/", f"{tmp_path}/.csv", f"{tmp_path}/..json", "."):
            assert main(["rademacher", "--out", out, "--format", "both"]) == 2
            err = capsys.readouterr().err
            assert f"config error: out {out!r} names a directory, not a file prefix" in err
        assert ran == []
        assert list(tmp_path.iterdir()) == []


class TestOverridesAndOutputs:
    def test_flags_override_file_values(self, tmp_path):
        cfg = write_config(
            tmp_path,
            alphas=[0.1], ns=[20], n_traj=300,
            seed=1, out=str(tmp_path / "file_prefix"), format="csv",
        )
        flag_out = str(tmp_path / "flag_prefix")
        assert (
            main(
                [
                    "wasserstein", "--config", cfg,
                    "--seed", "2", "--out", flag_out, "--format", "json",
                ]
            )
            == 0
        )
        assert not (tmp_path / "file_prefix.csv").exists()
        payload = json.loads((tmp_path / "flag_prefix.json").read_text())
        assert payload["rows"][0]["seed"] >= 2

    def test_config_file_is_optional(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["rosenthal", "--workers", "1"]) == 0
        assert (tmp_path / "lsalab_results.csv").exists()

    def test_both_formats_agree_on_rows(self, tmp_path):
        cfg = write_config(
            tmp_path,
            alphas=[0.1], ns=[400], deltas=[0.1],
            out=str(tmp_path / "r"), format="both",
        )
        assert main(["rademacher", "--config", cfg]) == 0
        csv_rows = (tmp_path / "r.csv").read_text().splitlines()[1:]
        payload = json.loads((tmp_path / "r.json").read_text())
        assert len(csv_rows) == len(payload["rows"])
        for line, entry in zip(csv_rows, payload["rows"]):
            assert float(line.split(",")[-6]) == entry["empirical"]

    def test_failure_rows_are_strict_json(self, tmp_path):
        # alpha = 5 blows up, so the failure row's empirical cell is nan
        cfg = write_config(
            tmp_path,
            alphas=[5.0], ns=[400], n_traj=10,
            out=str(tmp_path / "r"), format="both",
        )
        with np.errstate(all="ignore"):
            assert main(["simulate", "--config", cfg]) == 3

        def reject(constant):
            raise ValueError(f"{constant} is not JSON")

        payload = json.loads((tmp_path / "r.json").read_text(), parse_constant=reject)
        assert payload["rows"][0]["empirical"] is None
        assert (tmp_path / "r.csv").read_text().splitlines()[1].split(",")[3] == "nan"

    def test_empty_grid_writes_header_only(self, tmp_path, capsys):
        cfg = write_config(tmp_path, alphas=[], out=str(tmp_path / "none"))
        assert main(["clt", "--config", cfg]) == 0
        body = (tmp_path / "none.csv").read_text()
        assert body.count("\n") == 1
        assert "0 rows, 0 passed, 0 failed" in capsys.readouterr().out

    def test_worker_flag_leaves_bytes_unchanged(self, tmp_path):
        results = {}
        for workers in (1, 8):
            out = str(tmp_path / f"w{workers}")
            cfg = write_config(
                tmp_path, name=f"cfg{workers}.json",
                alphas=[0.1], ns=[10, 50], ps=[2.0], n_traj=2000,
                seed=3, out=out,
            )
            assert main(["bounds", "--config", cfg, "--workers", str(workers)]) == 0
            results[workers] = (tmp_path / f"w{workers}.csv").read_bytes()
        assert results[1] == results[8]


def _fresh_process(code: str, *args: str) -> subprocess.CompletedProcess:
    """``code`` run to its end in a fresh interpreter on this package."""
    src = str(Path(lsalab.__file__).resolve().parent.parent)
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-c", code, *args], capture_output=True, text=True, check=False,
        env={**os.environ, "PYTHONPATH": path},
    )


def _fresh_python(code: str, *args: str) -> str:
    """Standard output of ``code`` run in a fresh interpreter on this package."""
    done = _fresh_process(code, *args)
    done.check_returncode()
    return done.stdout.strip()


def test_cli_import_does_not_load_scipy_stats():
    # scipy.stats costs about a second of cold start and the CLI needs none of it
    code = "import sys, lsalab.cli; print('scipy.stats' in sys.modules)"
    assert _fresh_python(code) == "False"


def test_rademacher_run_does_not_load_scipy_stats(tmp_path):
    # the exact binomial tail is an integer sum, not scipy.stats' CDF
    code = (
        "import sys, lsalab.cli; code = lsalab.cli.main(sys.argv[1:]); "
        "print(code, 'scipy.stats' in sys.modules)"
    )
    out = _fresh_python(code, "rademacher", "--out", str(tmp_path / "r"))
    assert out.splitlines()[-1] == "0 False"


def test_rosenthal_run_does_not_load_numpy_ma(tmp_path):
    # np.unique imports numpy.ma on its first call; the bsum lengths are
    # grouped without it
    code = (
        "import sys, lsalab.cli; code = lsalab.cli.main(sys.argv[1:]); "
        "print(code, 'numpy.ma' in sys.modules)"
    )
    out = _fresh_python(code, "rosenthal", "--out", str(tmp_path / "r"))
    assert out.splitlines()[-1] == "0 False"


def test_only_the_cli_freezes_the_heap(tmp_path):
    # main freezes what start-up left alive before it runs; the library's
    # run leaves the collector alone
    cfg = write_config(tmp_path, alphas=[0.25], qs=[2], rhos=[0.5], n_traj=3,
                       out=str(tmp_path / "r"))
    code = (
        "import gc, sys, lsalab.cli; code = lsalab.cli.main(sys.argv[1:]); "
        "print(code, gc.get_freeze_count() > 0)"
    )
    assert _fresh_python(code, "rosenthal", "--config", cfg).splitlines()[-1] == "0 True"
    code = (
        "import gc; from lsalab.experiments import ExperimentConfig, run; "
        "rows = run(ExperimentConfig(experiment='rosenthal', alphas=(0.25,), qs=(2,), "
        "rhos=(0.5,), n_traj=3)); print(len(rows) > 0, gc.get_freeze_count())"
    )
    assert _fresh_python(code) == "True 0"


def test_cli_import_loads_no_scipy_module():
    # scipy.special alone is about 0.3 s of cold start
    code = "import sys, lsalab.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    assert _fresh_python(code) == "[]"


# Which scipy modules are loaded when experiments.run is entered and after
# the CLI returns, as JSON on the last line of output.
_SPECIAL_PROBE = """
import json, sys
import lsalab.cli as cli

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

seen = {}
inner = cli.run

def run(config):
    seen["at_run"] = scipy_modules()
    return inner(config)

cli.run = run
seen["code"] = cli.main(sys.argv[1:])
seen["after"] = scipy_modules()
seen["heavy"] = sorted(m for m in sys.modules if m in (
    "scipy.special._support_alternative_backends", "numpy.f2py", "numpy.testing"))
print(json.dumps(seen))
"""


@pytest.mark.parametrize(
    "experiment, fields, needs_special",
    [
        ("lyapunov", dict(n_traj=3), True),
        ("simulate", dict(alphas=[0.1], ns=[20], n_traj=20), True),
        ("clt", dict(alphas=[0.1], n_traj=200), True),
        ("bounds", dict(alphas=[0.1], ns=[10], ps=[2.0], n_traj=200), False),
        ("wasserstein", dict(alphas=[0.1], ns=[20], n_traj=50), False),
        ("rosenthal", dict(alphas=[0.25], qs=[2], rhos=[0.5], n_traj=3), False),
        ("rademacher", dict(alphas=[0.1], ns=[400], deltas=[0.1]), False),
    ],
)
def test_scipy_special_loads_before_run_only_where_used(
    tmp_path, experiment, fields, needs_special
):
    # the Gaussian runs load scipy.special's compiled ufuncs alone: the
    # package __init__ (0.3 s, via its array-API layer numpy.f2py and
    # numpy.testing) never runs; the other runs load no scipy module at all
    cfg = write_config(tmp_path, out=str(tmp_path / "out"), **fields)
    out = _fresh_python(_SPECIAL_PROBE, experiment, "--config", cfg)
    seen = json.loads(out.splitlines()[-1])
    assert seen["code"] in (0, 3)
    assert seen["heavy"] == []
    if needs_special:
        assert "scipy.special._ufuncs" in seen["at_run"]
        assert "scipy.special" not in seen["after"]
    else:
        assert seen["at_run"] == seen["after"] == []
