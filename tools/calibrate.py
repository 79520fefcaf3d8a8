"""Measure the false-alarm rate of the Monte Carlo verdicts over many seeds.

    python3 tools/calibrate.py OUT.json

Runs the default ``bounds``, ``wasserstein`` and ``clt`` configs in-process,
on the working tree's ``src/``, at seeds 0..SEEDS-1 (SEEDS = 100).  For
every row with ``std_err > 0`` and an oracle it forms

    z = (empirical - oracle) / std_err,

which is standard normal if the row's standard error is right.  For each row
key (the experiment and the row's coordinates) OUT.json holds:

- the seeds whose z lies outside the ``SE_MULT`` band, beside the count
  expected under normality (2 * P(Z > SE_MULT), about 6.3e-5 a row at
  SE_MULT = 4) and the binomial probability of seeing at least that many;
- z's mean, standard deviation, minimum and maximum;
- the Kolmogorov-Smirnov p-value of the z-scores against N(0, 1);
- ``flagged``: the KS or the band-failure p-value is below ``FLAG_P``.

Statistics are per key only.  For a fixed key the SEEDS seeds give the unit
seeds ``seed + index`` of distinct streams, so its z-scores are independent.
Rows of different keys or experiments can read the same streams (a unit's
seed is the run seed plus its index), so the keys are not pooled into one
family-wise rate.  The run takes about 20 s in one process on a shared
2-vCPU host.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np
import scipy
from scipy import stats

ROOT = Path(__file__).resolve().parent.parent
EXPERIMENTS = ("bounds", "wasserstein", "clt")
# run seeds 0..SEEDS-1 of each experiment
SEEDS = 100
# per key: a KS or band-failure p-value below this flags the key
FLAG_P = 1e-3


def row_key(row) -> str:
    coords = ", ".join(f"{name}={value}" for name, value in row.params if value != "")
    return f"{row.experiment} {coords}"


def z_scores() -> dict[str, list[tuple[int, float]]]:
    """(seed, z) of every row with a standard error and an oracle, by row key."""
    from lsalab.experiments import ExperimentConfig, resolve, run

    by_key: dict[str, list[tuple[int, float]]] = {}
    for experiment in EXPERIMENTS:
        for seed in range(SEEDS):
            for row in run(resolve(ExperimentConfig(experiment=experiment, seed=seed))):
                if row.oracle is not None and row.std_err > 0.0:
                    z = (row.empirical - row.oracle) / row.std_err
                    by_key.setdefault(row_key(row), []).append((seed, z))
    return by_key


def summary(pairs: list[tuple[int, float]], se_mult: float) -> dict:
    """One key's calibration entry from its (seed, z) pairs."""
    z = np.array([value for _, value in pairs])
    rate = 2.0 * stats.norm.sf(se_mult)
    failing = [seed for seed, value in pairs if abs(value) > se_mult]
    fail_p = float(stats.binom.sf(len(failing) - 1, len(z), rate))
    ks_p = float(stats.kstest(z, "norm").pvalue)
    return {
        "rows": len(z),
        "failing_seeds": failing,
        "expected_failures": len(z) * rate,
        "failures_p": fail_p,
        "z_mean": float(np.mean(z)),
        "z_sd": float(np.std(z, ddof=1)),
        "z_min": float(np.min(z)),
        "z_max": float(np.max(z)),
        "ks_p": ks_p,
        "flagged": ks_p < FLAG_P or fail_p < FLAG_P,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", help="path of the JSON file to write")
    args = parser.parse_args(argv)
    # the working tree's lsalab, whether or not another one is installed
    sys.path.insert(0, str(ROOT / "src"))
    from lsalab.experiments import SE_MULT

    started = time.perf_counter()
    by_key = z_scores()
    keys = {key: summary(pairs, SE_MULT) for key, pairs in by_key.items()}
    report = {
        "experiments": list(EXPERIMENTS),
        "seeds": SEEDS,
        "se_mult": SE_MULT,
        "nominal_rate_per_row": 2.0 * stats.norm.sf(SE_MULT),
        "flag_p": FLAG_P,
        "independence": "per key only; keys and experiments share unit streams",
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "elapsed_s": round(time.perf_counter() - started, 1),
        "keys": keys,
    }
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(f"{'key':<36} {'rows':>4} {'fail':>4} {'z mean':>7} {'z sd':>6} {'z min':>7} "
          f"{'KS p':>9}  flag")
    for key, entry in keys.items():
        print(
            f"{key:<36} {entry['rows']:>4} {len(entry['failing_seeds']):>4} "
            f"{entry['z_mean']:>7.2f} {entry['z_sd']:>6.2f} {entry['z_min']:>7.2f} "
            f"{entry['ks_p']:>9.2g}  {'FLAG' if entry['flagged'] else ''}"
        )
    print(f"wrote {args.out} ({report['elapsed_s']} s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
