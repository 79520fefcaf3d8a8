"""The yardstick for host speed: a fixed computation timed between invocations.

On a shared host the speed a process gets drifts by tens of percent over tens
of seconds as other tenants come and go.  The drift moves the program and
this computation alike, so the benchmark reports the program's times in units
of the computation's mean time in the same run.

    python3 perfbench/reference.py
        Helper mode: for every line read on standard input, time the
        computation once and print the seconds.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time

import numpy as np

# Size of the computation, about 0.3 s on a 2-vCPU Xeon VM.
STEPS = 45000
PASSES = 1600


def seconds() -> float:
    """Seconds the computation takes in this process.

    An 8x8 matrix iteration stepped in the interpreter, the shape of the
    engine's per-trajectory loops, and vectorized passes over a 256 KiB
    array, the shape of its chunked paths, whose arrays also stay in a core's
    own caches.  It uses numpy only, never lsalab, so no change to the
    program moves it.
    """
    started = time.perf_counter()
    a = np.eye(8) + np.arange(64.0).reshape(8, 8) / 6400.0
    b = np.ones(8)
    x = np.zeros(8)
    for _ in range(STEPS):
        x = x - 0.01 * (a @ x - b)
    v = np.linspace(0.0, 1.0, 1 << 15)
    for _ in range(PASSES):
        v = np.sqrt(v * v + 1.0) - 0.5
    elapsed = time.perf_counter() - started
    if not np.isfinite(x.sum() + v.sum()):
        raise RuntimeError("reference computation lost precision")
    return elapsed


class Yardstick:
    """Times the computation on ``lanes`` processes at once.

    This process and ``lanes - 1`` helpers run it together, so a workload
    that keeps ``lanes`` cores busy is measured against a reference that
    does too.  A sample is the mean of their times.
    """

    def __init__(self, lanes: int):
        self.helpers: list[subprocess.Popen] = []
        try:
            for _ in range(lanes - 1):
                self.helpers.append(subprocess.Popen(
                    [sys.executable, __file__], stdin=subprocess.PIPE,
                    stdout=subprocess.PIPE, text=True,
                ))
            self.sample()  # imports and first-touch costs stay out of the samples
        except BaseException:
            self.close()
            raise

    def sample(self) -> float:
        for helper in self.helpers:
            helper.stdin.write("\n")
            helper.stdin.flush()
        own = seconds()
        times = [own]
        for helper in self.helpers:
            line = helper.stdout.readline()
            if not line:
                raise RuntimeError(f"reference helper exited with {helper.wait()}")
            times.append(float(line))
        return statistics.fmean(times)

    def close(self) -> None:
        for helper in self.helpers:
            helper.stdin.close()
        for helper in self.helpers:
            helper.wait()

    def __enter__(self) -> "Yardstick":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _serve() -> None:
    for _ in sys.stdin:
        print(repr(seconds()), flush=True)


if __name__ == "__main__":
    _serve()
