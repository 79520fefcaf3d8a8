"""Check that the working tree's ``lsalab`` writes what a git revision writes.

    python3 tools/same_outputs.py REV
    python3 tools/same_outputs.py --golden [REV]

Exports REV's ``src/`` with ``git archive`` into a temporary directory, then
runs the same ``lsalab`` invocations on it and on the working tree's
``src/``: the seven default runs at seeds 0, 2 and 3; every invocation of
the workloads in ``perfbench/workloads.py`` at seed 0 with ``--workers`` 1
and 2; and nine more, each at seed 0 with ``--workers`` 1 and 2:
``simulate`` and ``wasserstein`` on the TD(0) model of
``tests/test_engine.py::small_td``, since no default run or workload decodes
a TD(0) law; the same two at n = 5000 with 200 trajectories, whose paths of
a law without b words are drawn in windows of steps (four of 1250 steps for
``simulate``, which gathers the b rows, and two of 2500 for
``wasserstein``, which reads A alone); ``clt`` on a scalar bounded factor
with ``bbar != 0``, since none reads the noise covariance of a model with
``theta_star != 0``; ``clt`` at alpha 0.01 with 1500 trajectories, whose
7350-step paths are drawn in nine windows of steps; ``wasserstein`` with
8770 trajectories, whose reducer drive reads chunks of 4352, whole granules
of the reducer, where the 4385 that fit would split granule 17; ``simulate``
at alphas 3.0 and 0.1, n = 3000 and 40 trajectories, whose first unit blows
up and writes a note naming the trajectory and step (the second passes); and
``wasserstein`` at alpha 50, whose rows overflow to inf and nan cells.  All
run with ``--format both``.  For each
invocation it compares the CSV bytes, the JSON text with its
``wall_time_s`` value blanked, stdout and stderr with the output prefix
replaced by a placeholder, and the exit code.  It prints each invocation's
peak RSS (``ru_maxrss``, from ``os.wait4``) on REV and on the working tree
side by side, then every difference, and exits 1 if there is one, 0 if
there is none and 2 if REV cannot be exported.

All outputs go to the temporary directory and no bytecode is cached, so the
repository, ``perfbench/`` included, is left as it was.  A full check takes
about 20 s on two cores, two invocations at a time.

With ``--golden`` it instead runs only the seven default runs at seeds 0, 2
and 3, on REV's ``src/`` or, without REV, on the working tree's, and writes
``tests/golden_outputs.json``: a sha256 digest of each run's CSV bytes and
of its JSON text with ``wall_time_s`` blanked, and the numpy and scipy
versions that made them.  ``tests/test_golden_outputs.py`` recomputes the
digests in-process.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_SEEDS = (0, 2, 3)
WORKLOAD_SEED = 0
WORKERS = (1, 2)
LANES = 2
_MAIN = "import sys; from lsalab.cli import main; sys.exit(main())"
_WALL_TIME = re.compile(r'"wall_time_s": [^,\n]*')
GOLDEN = ROOT / "tests" / "golden_outputs.json"
# measured, not compared
PEAK_RSS = "peak RSS MiB"
# Runs sys.argv[2:] and writes its peak RSS in KiB, ru_maxrss from os.wait4,
# to the file sys.argv[1]; exits as the command did.  A spawned process's
# ru_maxrss also counts the peak of the process that spawned it, so each
# invocation is spawned by this small process, not by this tool, which holds
# every output it compares.
_LAUNCH = """
import os, signal, sys
pid = os.fork()
if pid == 0:
    os.execv(sys.argv[2], sys.argv[2:])
_, status, usage = os.wait4(pid, 0)
with open(sys.argv[1], "w") as f:
    f.write(str(usage.ru_maxrss))
code = os.waitstatus_to_exitcode(status)
if code < 0:
    signal.signal(-code, signal.SIG_DFL)
    os.kill(os.getpid(), -code)
sys.exit(code)
"""
TD_MODEL = {
    "kind": "td_zero", "p": [[0.2, 0.8], [0.6, 0.4]], "rewards": [1, -1],
    "phi": [[1, 0.2], [0.3, 1]], "gamma": 0.8,
}
# theta_star = 0.7 / 1.3; the noise covariance the model derives from its two
# atoms is the closed form 1 + 0.25 * (0.9 * theta_star)^2 plus one ulp
FACTOR_MODEL = {
    "kind": "bounded_factor", "abar": [[1.3]], "bbar": [0.7], "m": [[0.9]],
    "eta": 0.5, "sigma": 1.0,
}


# 7350 burn-in steps: more trajectories than a chunk's row floor, whose paths
# do not fit the chunk budget whole
LONG_HORIZON = {"alphas": [0.01], "n_traj": 1500}
# 5000 steps of TD(0), a law without b words, drawn in windows
TD_LONG_HORIZON = {"model": TD_MODEL, "alphas": [0.1], "ns": [5000], "n_traj": 200}
# two chunks of whole granules and a third, shorter one, where chunks of as
# many trajectories as fit would split a granule
SPLIT_GRANULES = {"n_traj": 8770}
# unit 0 blows up, and its note names the trajectory and step; unit 1 passes
DIVERGING = {"alphas": [3.0, 0.1], "ns": [3000], "n_traj": 40}
# rows that overflow to inf and nan cells
OVERFLOWING = {"alphas": [50], "ns": [50, 100], "n_traj": 5}


def blank_wall_time(json_text: str) -> str:
    return _WALL_TIME.sub('"wall_time_s": -', json_text)


def golden_entry(csv: bytes, blanked_json: str) -> dict[str, str]:
    """The digests of one default run: its CSV bytes and its blanked JSON."""
    return {
        "csv": hashlib.sha256(csv).hexdigest(),
        "json": hashlib.sha256(blanked_json.encode("utf-8")).hexdigest(),
    }


def golden_key(experiment: str, seed: int) -> str:
    return f"{experiment} seed={seed}"


def _jobs(defaults_only: bool = False) -> list[tuple[str, str, dict, int, int]]:
    """(label, experiment, config, seed, workers) of every invocation."""
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(ROOT))
    from perfbench.workloads import DEFAULT_RUNS, WORKLOADS

    jobs = [
        (f"{inv.label} seed={seed}", inv.experiment, inv.config, seed, 1)
        for inv in DEFAULT_RUNS
        for seed in DEFAULT_SEEDS
    ]
    if defaults_only:
        return jobs
    jobs += [
        (f"{workload.name}/{inv.label} workers={workers}", inv.experiment, inv.config,
         WORKLOAD_SEED, workers)
        for workload in WORKLOADS.values()
        for inv in workload.invocations
        for workers in WORKERS
    ]
    jobs += [
        (f"td_zero/{experiment} workers={workers}", experiment, {"model": TD_MODEL},
         WORKLOAD_SEED, workers)
        for experiment in ("simulate", "wasserstein")
        for workers in WORKERS
    ]
    jobs += [
        (f"td_zero_long/{experiment} workers={workers}", experiment, TD_LONG_HORIZON,
         WORKLOAD_SEED, workers)
        for experiment in ("simulate", "wasserstein")
        for workers in WORKERS
    ]
    jobs += [
        (f"bounded_factor/clt workers={workers}", "clt", {"model": FACTOR_MODEL},
         WORKLOAD_SEED, workers)
        for workers in WORKERS
    ]
    jobs += [
        (f"long_horizon/clt workers={workers}", "clt", LONG_HORIZON, WORKLOAD_SEED, workers)
        for workers in WORKERS
    ]
    jobs += [
        (f"{name}/{experiment} workers={workers}", experiment, config, WORKLOAD_SEED, workers)
        for name, experiment, config in (
            ("split_granules", "wasserstein", SPLIT_GRANULES),
            ("diverging", "simulate", DIVERGING),
            ("overflowing", "wasserstein", OVERFLOWING),
        )
        for workers in WORKERS
    ]
    return jobs


def _export(rev: str, dest: Path) -> None:
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", rev, "src"],
        capture_output=True, check=True,
    ).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def _outputs(src: Path, out: Path, job: tuple, config_path: Path | None) -> dict:
    """Run one invocation against ``src``; what it wrote, normalized."""
    _, experiment, _, seed, workers = job
    out.mkdir(parents=True)
    prefix = out / "run"
    argv = [
        sys.executable, "-c", _MAIN, experiment, "--seed", str(seed),
        "--workers", str(workers), "--out", str(prefix), "--format", "both",
    ]
    if config_path is not None:
        argv += ["--config", str(config_path)]
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    # one BLAS thread per process, as the benchmark runs them
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    rss_path = out / "peak_rss_kib"
    launch = [sys.executable, "-c", _LAUNCH, str(rss_path), *argv]
    done = subprocess.run(launch, cwd=out, env=env, capture_output=True, check=False)

    def read(path: Path) -> bytes | None:
        return path.read_bytes() if path.exists() else None

    json_text = read(prefix.with_suffix(".json"))
    return {
        "exit code": done.returncode,
        "csv": read(prefix.with_suffix(".csv")),
        "json": None if json_text is None else blank_wall_time(json_text.decode("utf-8")),
        "stdout": _normalized(done.stdout, out, src),
        "stderr": _normalized(done.stderr, out, src),
        PEAK_RSS: int(rss_path.read_text()) / 1024,
    }


def _normalized(text: bytes, out: Path, src: Path) -> bytes:
    """``text`` with the output directory and the source tree as placeholders."""
    return text.replace(bytes(out), b"<out>").replace(bytes(src), b"<src>")


def _run_jobs(jobs: list, sides: dict[str, str | None], tmp: Path) -> dict | None:
    """Each job's outputs on each side, keyed (job index, side).

    A side names a revision whose ``src/`` is exported, or None for the
    working tree's; None is returned if a revision cannot be exported.
    """
    roots = {}
    for side, rev in sides.items():
        if rev is None:
            roots[side] = ROOT / "src"
            continue
        (tmp / side).mkdir()
        try:
            _export(rev, tmp / side)
        except subprocess.CalledProcessError as exc:
            print(f"cannot export src/ of {rev!r}: {exc.stderr!r}", file=sys.stderr)
            return None
        roots[side] = tmp / side / "src"
    configs = []
    for i, (_, _, config, _, _) in enumerate(jobs):
        path = None
        if config:
            path = tmp / f"config-{i:02d}.json"
            path.write_text(json.dumps(config), encoding="utf-8")
        configs.append(path)
    tasks = [(i, side) for i in range(len(jobs)) for side in sides]

    def run(task: tuple[int, str]) -> dict:
        i, side = task
        return _outputs(roots[side], tmp / "out" / side / f"{i:02d}", jobs[i], configs[i])

    with ThreadPoolExecutor(max_workers=LANES) as pool:
        return dict(zip(tasks, pool.map(run, tasks)))


def _write_golden(rev: str | None) -> int:
    import numpy
    import scipy

    jobs = _jobs(defaults_only=True)
    with tempfile.TemporaryDirectory(prefix="same_outputs-") as tmp:
        results = _run_jobs(jobs, {"src": rev}, Path(tmp))
    if results is None:
        return 2
    runs = {}
    for i, (label, experiment, _, seed, _) in enumerate(jobs):
        out = results[i, "src"]
        if out["csv"] is None or out["json"] is None:
            print(f"{label} wrote no CSV or no JSON (exit code {out['exit code']})",
                  file=sys.stderr)
            return 1
        runs[golden_key(experiment, seed)] = golden_entry(out["csv"], out["json"])
    golden = {"numpy": numpy.__version__, "scipy": scipy.__version__, "runs": runs}
    GOLDEN.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote the digests of {len(runs)} default runs to {GOLDEN.relative_to(ROOT)}")
    return 0


def main(argv: list[str]) -> int:
    if argv[:1] == ["--golden"] and len(argv) <= 2:
        return _write_golden(argv[1] if len(argv) == 2 else None)
    if len(argv) != 1 or argv[0].startswith("-"):
        print(__doc__, file=sys.stderr)
        return 2
    (rev,) = argv
    jobs = _jobs()
    with tempfile.TemporaryDirectory(prefix="same_outputs-") as tmp:
        results = _run_jobs(jobs, {"rev": rev, "tree": None}, Path(tmp))
    if results is None:
        return 2
    print(f"peak RSS (MiB): {rev} | working tree | invocation")
    for i, job in enumerate(jobs):
        print(f"{results[i, 'rev'][PEAK_RSS]:8.1f} | {results[i, 'tree'][PEAK_RSS]:8.1f} | {job[0]}")
    differing = 0
    for i, job in enumerate(jobs):
        old, new = results[i, "rev"], results[i, "tree"]
        fields = [name for name in old if name != PEAK_RSS and old[name] != new[name]]
        if fields:
            differing += 1
            print(f"DIFFERS {job[0]}: {', '.join(fields)}")
            if "exit code" in fields:
                print(f"  exit code {old['exit code']} at {rev}, {new['exit code']} here")
    if differing:
        print(f"{differing} of {len(jobs)} invocations differ from {rev}")
        return 1
    print(f"all {len(jobs)} invocations write the same outputs as {rev}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
