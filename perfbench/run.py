"""lsalab benchmark: end-to-end metrics, per-layer tracing, correctness checks.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere; the program is imported from ``src/`` of the checkout
this directory sits in, and every file is written under ``.perfbench_out/``
there.  Workloads are in ``workloads.py``; each runs its ``lsalab
<experiment>`` invocations one after another, one fresh process each, with
``--seed N`` passed to every one (closed loop, one client).

With ``--trace 0`` rounds of the workload repeat until S seconds have passed,
and between invocations the benchmark times a fixed reference computation
(``reference.py``).  On a shared host the speed a process gets drifts by tens
of percent over tens of seconds as other tenants come and go, and the drift
moves the program and the reference alike.  So
the end-to-end times ``wall_ref``, ``run_ref`` and ``cpu_ref`` are the
per-round sums over the workload's invocations, averaged over all rounds and
divided by the reference's mean time in the same run: the program's cost in
units of the reference (unit ``ref``).  ``setup_s`` is the same average in
plain seconds.  The plain seconds of every time, with the median and
quartiles of the per-round sums, are printed beside them.  ``peak_rss_mb``
is the median over rounds of the per-round maximum.  Failed rows and failed
units are reported as ``rows_passed_frac`` and ``units_ok_frac``, which stay
above zero on a healthy run.

With ``--trace 1`` untraced and traced rounds alternate for S seconds and
the per-layer metrics come from the traced rounds (spans recorded by
``spans.py``); ``many-units`` is traced at ``--workers 1`` so that every span
is recorded in the traced process, and its untraced comparison rounds run at
``--workers 1`` too.

Every run also checks each invocation's exit status (0 or 3), its CSV rows
against the config-derived counts, that no unit crashed and that the exact
experiments (``lyapunov``, ``rosenthal``) fail no row, and CSV digests across
rounds, and reruns invocations that use a worker pool at the other worker
count, requiring byte-identical CSV files.  A traced run also makes the
defaults pass: the seven default experiments once each at the seed, two at a
time, reporting rows, failed rows, digest and single-sample wall time
(informational).  It is left out of untraced runs so that they spend their
time measuring.

The last line of standard output is one JSON object with ``correct``,
``attempted`` and ``failed`` (work units) and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time
from pathlib import Path

from invoke import CHILD, Outcome, Runner
from reference import Yardstick
from workloads import DEFAULT_RUNS, WORKLOADS, Invocation, Workload, expected_counts

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"

UNITS = {
    "wall_ref": "ref", "setup_s": "s", "run_ref": "ref", "cpu_ref": "ref",
    "peak_rss_mb": "MiB", "rows_passed_frac": "ratio", "units_ok_frac": "ratio",
}
TIMES = ("wall_s", "setup_s", "run_s", "cpu_s")
IMPORT_SAMPLES = 3


def _spread(values: list[float]) -> tuple[float, float, float]:
    """(median, first quartile, third quartile)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3


def machine_facts(runner: Runner, seed: int) -> dict:
    facts = {"seed": seed, "nproc": len(os.sched_getaffinity(0))}
    cpuinfo = Path("/proc/cpuinfo").read_text(encoding="utf-8", errors="replace")
    facts["cpu"] = next(
        (line.split(":", 1)[1].strip() for line in cpuinfo.splitlines()
         if line.startswith("model name")), "unknown",
    )
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            caches[f"L{level}"] = size
    facts["caches"] = caches
    meminfo = Path("/proc/meminfo").read_text(encoding="utf-8", errors="replace")
    facts["mem_total"] = next(
        (line.split(":", 1)[1].strip() for line in meminfo.splitlines()
         if line.startswith("MemTotal")), "unknown",
    )
    stdout, _ = runner.output([str(CHILD), "facts"])
    facts.update(json.loads(stdout))
    facts["blas_threads"] = runner.env["OPENBLAS_NUM_THREADS"]
    return facts


def cpu_ticks() -> tuple[int, int]:
    """(all, stolen) CPU ticks of the host since boot, from /proc/stat.

    Steal is time the hypervisor gave the host's CPUs to other guests; a
    run measured while it is high reads slow for reasons outside the program.
    """
    ticks = [int(f) for f in Path("/proc/stat").read_text().split("\n", 1)[0].split()[1:9]]
    return sum(ticks), ticks[7]


def round_sums(outcomes: list[Outcome]) -> dict:
    return {
        "wall_s": sum(o.wall_s for o in outcomes),
        "setup_s": sum(o.setup_s for o in outcomes),
        "run_s": sum(o.run_s for o in outcomes),
        "cpu_s": sum(o.cpu_s for o in outcomes),
        "peak_rss_mb": max(o.peak_rss_mb for o in outcomes),
    }


def measure(runner: Runner, workload: Workload, seconds: float, traced: bool):
    """Repeat rounds for ``seconds``.

    Returns (untraced rounds, traced rounds, reference times); the reference
    computation is timed before every untraced invocation and after the last
    one of each round, so that every invocation lies between two samples, on
    as many processes at once as the workload's widest worker pool.
    """
    plain: list[list[Outcome]] = []
    spans: list[list[Outcome]] = []
    refs: list[float] = []
    # Traced rounds run at one worker so that every span is recorded in the
    # traced process (pool workers would keep theirs).
    invocations = [(inv, 1 if traced else inv.workers) for inv in workload.invocations]
    started = time.monotonic()
    with Yardstick(max(workers for _, workers in invocations)) as yardstick:
        # Start another round only while it would end, on average, less than
        # half a round past ``seconds``.
        while not plain or (time.monotonic() - started) * (1 + 0.5 / len(plain)) < seconds:
            k = len(plain)
            plain.append([])
            for inv, workers in invocations:
                refs.append(yardstick.sample())
                plain[-1].append(runner.run(inv, f"r{k}", workers))
            refs.append(yardstick.sample())
            if traced:
                spans.append([
                    runner.run(inv, f"t{k}", workers, traced=True)
                    for inv, workers in invocations
                ])
    return plain, spans, refs


def layer_metrics(runner: Runner, workload: Workload, plain, traced, problems: list[str]) -> dict:
    import layers

    by_label = {inv.label: inv for inv in workload.invocations}
    per_round = []
    for outcomes in traced:
        parts = []
        for o in outcomes:
            part = layers.analyze(o.spans)
            units, rows, steps = expected_counts(by_label[o.label])
            seen = (part["experiments.units"], part["rows"], part["engine.traj_steps"])
            if seen != (units, rows, steps):
                problems.append(
                    f"{o.label}: traced (units, rows, steps) {seen} != config-derived "
                    f"{(units, rows, steps)}"
                )
            if part["meter_errors"]:
                problems.append(f"{o.label}: {part['meter_errors']} span meters failed")
            parts.append(part)
        per_round.append(layers.round_metrics(parts))
    metrics = {key: statistics.median(r[key] for r in per_round) for key in per_round[0]}
    untraced = [round_sums(r) for r in plain]
    traced_sums = [round_sums(r) for r in traced]
    metrics["trace.untraced_run_s"] = statistics.median(r["run_s"] for r in untraced)
    metrics["trace.overhead_wall_s"] = (
        statistics.median(r["wall_s"] for r in traced_sums)
        - statistics.median(r["wall_s"] for r in untraced)
    )
    metrics["trace.overhead_run_s"] = metrics["trace.run_s"] - metrics["trace.untraced_run_s"]
    metrics.update(import_metrics(runner))
    return metrics


def import_metrics(runner: Runner) -> dict:
    """Import cost of ``lsalab.cli`` in fresh interpreters."""
    samples = [
        float(runner.output([str(CHILD), "import"])[0]) for _ in range(IMPORT_SAMPLES)
    ]
    _, stderr = runner.output(["-X", "importtime", "-c", "import lsalab.cli"])
    lines = [line for line in stderr.splitlines() if line.startswith("import time:")]
    entries = []
    for line in lines[1:]:  # the first line is the column header
        _, cumulative_us, module = (part.strip() for part in line[len("import time:"):].split("|"))
        entries.append((module, int(cumulative_us)))
    scipy_stats = [us for module, us in entries if module == "scipy.stats"]
    return {
        "cli.import_s": statistics.median(samples),
        "cli.import_scipy_stats_s": scipy_stats[0] / 1e6 if scipy_stats else 0.0,
        "cli.modules_loaded": len(entries),
    }


def mean_of_rounds(rounds: list[list[Outcome]]) -> dict:
    """Per-round sums of each time, averaged over the rounds."""
    sums = [round_sums(r) for r in rounds]
    return {key: statistics.fmean(s[key] for s in sums) for key in TIMES}


def e2e_metrics(rounds: list[list[Outcome]], refs: list[float], all_outcomes) -> dict:
    seconds = mean_of_rounds(rounds)
    ref = statistics.fmean(refs)
    metrics = {
        "wall_ref": seconds["wall_s"] / ref,
        "setup_s": seconds["setup_s"],
        "run_ref": seconds["run_s"] / ref,
        "cpu_ref": seconds["cpu_s"] / ref,
        "peak_rss_mb": statistics.median(round_sums(r)["peak_rss_mb"] for r in rounds),
    }
    first = rounds[0]
    rows = sum(o.rows for o in first)
    metrics["rows_passed_frac"] = (rows - sum(o.rows_failed for o in first)) / rows
    attempted = sum(o.units for o in all_outcomes)
    failed = sum(o.units_failed for o in all_outcomes)
    metrics["units_ok_frac"] = (attempted - failed) / attempted
    return metrics


def check_determinism(rounds: list[list[Outcome]], reruns: list[Outcome]) -> None:
    """Digests must repeat across rounds and across worker counts.

    A mismatching invocation gets a problem, so its units count as failed.
    """
    reference = {o.label: o for o in rounds[0]}
    for o in [o for r in rounds[1:] for o in r] + reruns:
        ref = reference[o.label]
        if o.digest and ref.digest and o.digest != ref.digest:
            o.problems.append(
                f"CSV digest at workers={o.workers} differs from workers={ref.workers}"
                if o.workers != ref.workers else "CSV digest changed between rounds"
            )


def report(workload: Workload, metrics: dict, rounds: list[list[Outcome]], refs) -> None:
    print(f"end-to-end ({len(rounds)} rounds):")
    for key, value in metrics.items():
        print(f"  {key:18s} {value:12.6g} {UNITS[key]}")
    med, q1, q3 = _spread(refs)
    print(f"reference computation ({len(refs)} samples; 1 ref = their mean): "
          f"mean {statistics.fmean(refs):.6g} s, median {med:.6g} [{q1:.6g}, {q3:.6g}] s")
    sums = [round_sums(r) for r in rounds]
    seconds = mean_of_rounds(rounds)
    print("plain seconds per round (mean, then median [q1, q3]):")
    for key in TIMES:
        med, q1, q3 = _spread([s[key] for s in sums])
        print(f"  {key:18s} {seconds[key]:12.6g} s      {med:.6g} [{q1:.6g}, {q3:.6g}]")
    units, _, steps = (sum(c) for c in zip(*map(expected_counts, workload.invocations)))
    print(f"  units_per_s        {units / seconds['run_s']:12.6g} 1/s ({units} units per round)")
    if steps:
        print(f"  traj_steps_per_s   {steps / seconds['run_s']:12.6g} 1/s ({steps} steps per round)")


def post_phase(runner: Runner, workload: Workload, traced: bool):
    """Worker-count reruns, plus the defaults pass on traced runs.

    Jobs run two at a time.  Returns (reruns, defaults pass outcomes).
    """
    jobs = [
        (inv, "x", inv.workers if traced else 1)
        for inv in workload.invocations if inv.workers != 1
    ]
    if traced:
        jobs += [(inv, "d", 1) for inv in DEFAULT_RUNS]
    jobs.sort(key=lambda job: -_cost_hint(job[0]))
    finished = runner.run_parallel(jobs)
    reruns = [o for o, job in zip(finished, jobs) if job[1] == "x"]
    defaults = [o for o, job in zip(finished, jobs) if job[1] == "d"]
    return reruns, defaults


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not (ROOT / "src" / "lsalab" / "cli.py").is_file():
        print(f"perfbench: no lsalab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    out = OUT / workload.name
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    runner = Runner(ROOT, out, args.seed)

    facts = machine_facts(runner, args.seed)  # also fills the bytecode cache
    print(f"perfbench {workload.name}: seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("facts: " + json.dumps(facts, sort_keys=True))

    ticks_before = cpu_ticks()
    plain, traced, refs = measure(runner, workload, args.seconds, bool(args.trace))
    ticks_after = cpu_ticks()
    stolen = (ticks_after[1] - ticks_before[1]) / max(ticks_after[0] - ticks_before[0], 1)
    print(f"host CPU steal while measuring: {100.0 * stolen:.1f}%")
    reruns, defaults = post_phase(runner, workload, bool(args.trace))
    check_determinism(plain + traced, reruns)
    all_outcomes = [o for r in plain + traced for o in r] + reruns + defaults

    print("invocations (first round):")
    for o in plain[0]:
        print(
            f"  {o.label:20s} workers={o.workers} units={o.units} rows={o.rows} "
            f"rows_failed={o.rows_failed} wall={o.wall_s:.3f}s setup={o.setup_s:.3f}s "
            f"run={o.run_s:.3f}s sha256={o.digest[:16]}"
        )
    for o in reruns:
        print(f"  rerun {o.label} at workers={o.workers}: sha256={o.digest[:16]}")

    trace_problems: list[str] = []
    if args.trace:
        print("defaults pass (informational, one sample each, two at a time):")
        for o in sorted(defaults, key=lambda o: o.label):
            print(
                f"  {o.experiment:12s} rows={o.rows:5d} rows_failed={o.rows_failed} "
                f"wall={o.wall_s:.3f}s sha256={o.digest[:16]}"
            )
        metrics = layer_metrics(runner, workload, plain, traced, trace_problems)
        print(f"per-layer ({len(traced)} traced rounds, medians):")
        for key, value in metrics.items():
            print(f"  {key:32s} {value:.6g}")
        units = {key: _layer_unit(key) for key in metrics}
    else:
        metrics = e2e_metrics(plain, refs, all_outcomes)
        report(workload, metrics, plain, refs)
        units = UNITS
    # A crashed unit fails only its own unit in ``failed``, but any crash
    # makes the run incorrect.
    problems = [f"{o.label}: {p}" for o in all_outcomes for p in o.problems] + [
        f"{o.label}: {o.units_crashed} units crashed (std_err NaN)"
        for o in all_outcomes if o.units_crashed
    ] + trace_problems
    for p in problems:
        print(f"problem: {p}")

    result = {
        "correct": not problems,
        "attempted": sum(o.units for o in all_outcomes),
        "failed": sum(o.units_failed for o in all_outcomes),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def _cost_hint(inv: Invocation) -> float:
    """Rough relative cost, to start the longest post-phase jobs first."""
    units, _, steps = expected_counts(inv)
    return steps + 1000.0 * units


def _layer_unit(key: str) -> str:
    if key.endswith("_ms_p50") or key.endswith("_ms_p99") or key.endswith("_ms_d8"):
        return "ms"
    if key.endswith("_per_s"):
        return "1/s"
    if key.endswith(("_s", ".s")):
        return "s"
    if key.endswith("_bytes"):
        return "bytes"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
