"""Spawn ``lsalab`` invocations, time them and check what they wrote.

Each invocation is a fresh ``python3 perfbench/child.py run ...`` process.
Wall time runs from just before spawn to the reap; set-up time from spawn to
entry into ``experiments.run``; CPU time and peak RSS come from ``wait4``,
so they cover the process and the pool workers it waited for.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import re
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from workloads import EXACT_EXPERIMENTS, Invocation, expected_counts

CHILD = Path(__file__).resolve().parent / "child.py"
_CSV_TAIL = ["empirical", "std_err", "oracle", "bound", "pass", "seed"]
_SUMMARY = re.compile(r"^(\w+): (\d+) rows, (\d+) passed, (\d+) failed; wrote ")
# Post-phase jobs (reruns, defaults pass) run this many at a time.
LANES = 2


@dataclass
class Outcome:
    """Timing and checked results of one finished invocation."""

    label: str
    experiment: str
    workers: int
    exit_code: int
    wall_s: float
    setup_s: float
    run_s: float
    cpu_s: float
    peak_rss_mb: float
    units: int
    rows: int
    rows_failed: int = 0
    units_crashed: int = 0
    digest: str = ""
    problems: list[str] = field(default_factory=list)
    spans: str | None = None

    @property
    def units_failed(self) -> int:
        return self.units if self.problems else self.units_crashed


class Runner:
    """Starts invocations with a fixed environment and output directory."""

    def __init__(self, root: Path, out: Path, seed: int):
        self.root = root
        self.out = out
        self.seed = seed
        env = dict(os.environ)
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        src = str(root / "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        # One BLAS thread per process, so a 2-worker pool uses no more
        # compute threads than it has cores.
        for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            env[name] = "1"
        self.env = env

    def output(self, argv: list[str]) -> tuple[str, str]:
        """Run a helper child to completion; returns its stdout and stderr."""
        done = subprocess.run(
            [sys.executable, *argv], cwd=self.root, env=self.env,
            capture_output=True, text=True, check=False,
        )
        if done.returncode != 0:
            raise RuntimeError(f"{argv!r} exited {done.returncode}: {done.stderr.strip()}")
        return done.stdout, done.stderr

    def start(self, inv: Invocation, tag: str, workers: int, traced: bool) -> "Pending":
        prefix = self.out / f"{tag}-{inv.label}"
        argv = [
            sys.executable, str(CHILD), "run", f"{prefix}.timing.json",
            f"{prefix}.spans" if traced else "-",
            inv.experiment, "--seed", str(self.seed), "--out", str(prefix),
        ]
        if inv.config:
            config_path = prefix.with_suffix(".config.json")
            config_path.write_text(json.dumps(inv.config), encoding="utf-8")
            argv += ["--config", str(config_path)]
        if workers != 1:
            argv += ["--workers", str(workers)]
        if inv.format != "csv":
            argv += ["--format", inv.format]
        stdout = open(f"{prefix}.stdout", "wb")
        stderr = open(f"{prefix}.stderr", "wb")
        try:
            started = time.monotonic()
            proc = subprocess.Popen(argv, cwd=self.root, env=self.env, stdout=stdout, stderr=stderr)
        finally:
            stdout.close()
            stderr.close()
        return Pending(inv, prefix, workers, traced, proc, started)

    def run(self, inv: Invocation, tag: str, workers: int, traced: bool = False) -> Outcome:
        pending = self.start(inv, tag, workers, traced)
        return pending.finish(*_reap(pending.proc.pid), self.seed)

    def run_parallel(self, jobs: list[tuple[Invocation, str, int]]) -> list[Outcome]:
        """Run untraced jobs ``LANES`` at a time; outcomes in job order."""
        waiting = list(enumerate(jobs))
        live: dict[int, tuple[int, Pending]] = {}
        done: dict[int, Outcome] = {}
        try:
            while waiting or live:
                while waiting and len(live) < LANES:
                    index, (inv, tag, workers) = waiting.pop(0)
                    pending = self.start(inv, tag, workers, traced=False)
                    live[pending.proc.pid] = (index, pending)
                pid, status, usage, ended = _reap(-1)
                index, pending = live.pop(pid)
                done[index] = pending.finish(pid, status, usage, ended, self.seed)
        finally:
            for _, pending in live.values():
                pending.proc.kill()
                pending.proc.wait()
        return [done[i] for i in range(len(jobs))]


def _reap(pid: int):
    got, status, usage = os.wait4(pid, 0)
    return got, status, usage, time.monotonic()


@dataclass
class Pending:
    inv: Invocation
    prefix: Path
    workers: int
    traced: bool
    proc: subprocess.Popen
    started: float

    def finish(self, pid, status, usage, ended, seed) -> Outcome:
        code = os.waitstatus_to_exitcode(status)
        self.proc.returncode = code
        units, rows, _ = expected_counts(self.inv)
        outcome = Outcome(
            label=self.inv.label, experiment=self.inv.experiment, workers=self.workers,
            exit_code=code, wall_s=ended - self.started, setup_s=0.0, run_s=0.0,
            cpu_s=usage.ru_utime + usage.ru_stime, peak_rss_mb=usage.ru_maxrss / 1024.0,
            units=units, rows=rows,
            spans=f"{self.prefix}.spans" if self.traced else None,
        )
        try:
            marks = json.loads(Path(f"{self.prefix}.timing.json").read_text(encoding="utf-8"))
            outcome.setup_s = marks["run_start"] - self.started
            outcome.run_s = marks["run_end"] - marks["run_start"]
        except (OSError, ValueError, KeyError):
            outcome.problems.append("no timing marks (run not entered)")
        if code not in (0, 3):
            outcome.problems.append(f"exit code {code}")
        else:
            _check_outputs(self.inv, self.prefix, seed, code, outcome)
        return outcome


def _check_outputs(inv: Invocation, prefix: Path, seed: int, code: int, out: Outcome) -> None:
    """Check the CSV (and JSON) files against the config-derived counts."""
    problems = out.problems
    try:
        data = Path(f"{prefix}.csv").read_bytes()
    except OSError as exc:
        problems.append(f"no CSV: {exc}")
        return
    out.digest = hashlib.sha256(data).hexdigest()
    table = list(csv.reader(data.decode("utf-8").splitlines()))
    if not table:
        problems.append("empty CSV")
        return
    header, body = table[0], table[1:]
    if header[0] != "experiment" or header[-len(_CSV_TAIL):] != _CSV_TAIL:
        problems.append(f"unexpected CSV header {header}")
        return
    col = {name: i for i, name in enumerate(header)}
    if len(body) != out.rows:
        problems.append(f"{len(body)} CSV rows, expected {out.rows}")
    passes = []
    seeds = set()
    crashed = set()
    for row in body:
        if len(row) != len(header) or row[0] != inv.experiment:
            problems.append(f"malformed CSV row {row}")
            return
        if row[col["pass"]] not in ("true", "false"):
            problems.append(f"pass cell {row[col['pass']]!r}")
            return
        passes.append(row[col["pass"]] == "true")
        seeds.add(int(row[col["seed"]]))
        if math.isnan(float(row[col["std_err"]])):
            crashed.add(int(row[col["seed"]]))
    out.rows_failed = passes.count(False)
    out.units_crashed = len(crashed)
    # Unit i draws from seed + i, so every unit must have left rows.
    if seeds != {(seed + i) % 2**64 for i in range(out.units)}:
        problems.append("row seeds do not cover the planned units")
    if (code == 3) != (out.rows_failed > 0):
        problems.append(f"exit code {code} with {out.rows_failed} failed rows")
    if out.rows_failed and inv.experiment in EXACT_EXPERIMENTS:
        problems.append(f"{out.rows_failed} failed rows in an exact experiment")
    text = Path(f"{prefix}.stdout").read_text(encoding="utf-8", errors="replace")
    summary = [m for m in map(_SUMMARY.match, text.splitlines()) if m]
    if len(summary) != 1 or summary[0].groups() != (
        inv.experiment, str(len(body)), str(len(body) - out.rows_failed), str(out.rows_failed)
    ):
        problems.append("CLI summary line disagrees with the CSV")
    if inv.format == "both":
        try:
            payload = json.loads(Path(f"{prefix}.json").read_text(encoding="utf-8"))
            json_passes = [entry["pass"] for entry in payload["rows"]]
        except (OSError, ValueError, KeyError, TypeError) as exc:
            problems.append(f"unreadable JSON output: {exc}")
            return
        if json_passes != passes:
            problems.append("JSON rows disagree with the CSV")
