"""Process-side half of the benchmark: one fresh interpreter per call.

    python3 perfbench/child.py run TIMING SPANS <lsalab arguments...>
        Runs ``lsalab.cli.main`` -- what the ``lsalab`` console script
        runs -- on the arguments and writes the monotonic-clock times at
        which ``experiments.run`` was entered and left to TIMING (JSON).
        SPANS is ``-`` for an untraced run, otherwise the prefix the span
        recorder writes to at exit.  Exits with the CLI's exit status.
    python3 perfbench/child.py import
        Prints the seconds ``import lsalab.cli`` takes in this fresh
        interpreter.
    python3 perfbench/child.py facts
        Prints library versions as JSON.

The package is imported from ``src/`` next to this directory; a run that
would pick up any other copy stops with exit status 2.
"""

import os
import sys
import time

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _check_source(module) -> None:
    here = os.path.realpath(os.path.dirname(os.path.dirname(module.__file__)))
    if here != os.path.realpath(_SRC):
        sys.stderr.write(f"lsalab imported from {here}, expected {_SRC}\n")
        sys.exit(2)


def _run(timing_path: str, spans_prefix: str, argv: list[str]) -> int:
    import lsalab.cli as cli

    _check_source(cli)
    recorder = None
    if spans_prefix != "-":
        from spans import Recorder

        recorder = Recorder()
        recorder.install()
    marks: dict[str, float] = {}
    inner_run = cli.run

    def timed_run(config):
        marks["run_start"] = time.monotonic()
        try:
            return inner_run(config)
        finally:
            marks["run_end"] = time.monotonic()

    cli.run = timed_run
    try:
        return cli.main(argv)
    finally:
        import json

        with open(timing_path, "w", encoding="utf-8") as handle:
            json.dump(marks, handle)
        if recorder is not None:
            recorder.dump(spans_prefix)


def _import_seconds() -> None:
    started = time.perf_counter()
    import lsalab.cli

    elapsed = time.perf_counter() - started
    _check_source(lsalab.cli)
    print(repr(elapsed))


def _facts() -> None:
    import json
    import platform

    import numpy
    import scipy

    import lsalab

    _check_source(lsalab)
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, ValueError):
        openblas = "unknown"
    print(json.dumps({
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": openblas,
        "lsalab": lsalab.__version__,
    }))


def main() -> int:
    if len(sys.argv) >= 4 and sys.argv[1] == "run":
        return _run(sys.argv[2], sys.argv[3], sys.argv[4:])
    if sys.argv[1:] == ["import"]:
        _import_seconds()
        return 0
    if sys.argv[1:] == ["facts"]:
        _facts()
        return 0
    sys.stderr.write(__doc__)
    return 2


if __name__ == "__main__":
    sys.exit(main())
