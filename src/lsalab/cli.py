"""Command-line driver.

    lsalab <experiment> --config cfg.json [--seed N] [--workers N]
                        [--out PATH] [--format csv|json|both]

The config file is a single JSON object of ExperimentConfig fields; flags
override the corresponding file values.  Exit status: 0 when every row
passes, 2 when the config fails validation or the output prefix names a
directory that does not exist (all problems are printed to stderr, before
any unit runs), 3 when any row fails.

Once the config is valid, ``main`` moves every object alive at that point
(numpy, ``scipy.special`` where the experiment loads it, lsalab's own
modules) into the cyclic collector's permanent generation with
``gc.freeze``.  The collections during the run and the render, and the last
one at exit, then scan only what the run made, and in pool workers forked
after the freeze the collector no longer writes to those objects' pages.
``experiments.run``, the library entry point, leaves the collector alone.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import time

from lsalab.experiments import (
    EXPERIMENT_NAMES,
    config_from_dict,
    resolve,
    run,
    validate,
    write_outputs,
)

_FLAG_OVERRIDES = ("seed", "workers", "out", "format")


def _int_or_text(text: str) -> int | str:
    """int(text), or the text itself for config_from_dict to report with the rest."""
    try:
        return int(text)
    except ValueError:
        return text


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lsalab",
        description=(
            "Run a verification experiment for the fixed-stepsize linear "
            "stochastic recursion and write per-grid-point verdict rows."
        ),
    )
    sub = parser.add_subparsers(dest="experiment", required=True, metavar="experiment")
    for name in EXPERIMENT_NAMES:
        one = sub.add_parser(name, help=f"run the {name} experiment")
        one.add_argument("--config", metavar="PATH", help="JSON config file")
        one.add_argument("--seed", type=_int_or_text, help="override the run seed")
        one.add_argument("--workers", type=_int_or_text, help="override the worker count")
        one.add_argument("--out", metavar="PATH", help="override the output prefix")
        # validate, not argparse, rejects a bad format, beside every other problem
        one.add_argument("--format", help="override the output format: csv, json or both")
    return parser


def _load_config_file(path: str) -> tuple[dict | None, str | None]:
    try:
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        return None, f"cannot read config file: {exc}"
    except json.JSONDecodeError as exc:
        return None, f"config file is not valid JSON: {exc}"
    if not isinstance(data, dict):
        return None, "config file must hold a single JSON object"
    return data, None


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    errors: list[str] = []
    data: dict = {}
    if args.config:
        loaded, problem = _load_config_file(args.config)
        if problem:
            print(f"config error: {problem}", file=sys.stderr)
            return 2
        data = loaded
    file_experiment = data.get("experiment")
    if file_experiment is not None and file_experiment != args.experiment:
        errors.append(
            f"config file sets experiment={file_experiment!r} but the command "
            f"line asks for {args.experiment!r}"
        )
    data["experiment"] = args.experiment
    for name in _FLAG_OVERRIDES:
        value = getattr(args, name)
        if value is not None:
            data[name] = value

    config, structural = config_from_dict(data)
    errors.extend(structural)
    # Structurally broken fields fall back to defaults, so semantic
    # validation still runs and the user sees every problem at once.
    errors.extend(validate(resolve(config)))
    # checked before any unit runs, so a bad prefix does not cost the run
    directory = os.path.dirname(config.out)
    if directory and not os.path.isdir(directory):
        errors.append(f"out: {directory!r} is not an existing directory")
    if errors:
        for problem in errors:
            print(f"config error: {problem}", file=sys.stderr)
        return 2

    gc.freeze()
    started = time.perf_counter()
    rows = run(config)
    wall_time_s = time.perf_counter() - started
    paths = write_outputs(config, rows, wall_time_s)

    for row in rows:
        if row.note:
            coords = ", ".join(f"{k}={v}" for k, v in row.params if v != "")
            print(f"note [{coords}]: {row.note}", file=sys.stderr)
    failed = sum(1 for row in rows if not row.passed)
    print(
        f"{args.experiment}: {len(rows)} rows, {len(rows) - failed} passed, "
        f"{failed} failed; wrote {', '.join(paths)}"
    )
    return 3 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
