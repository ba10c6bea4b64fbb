"""One workload in one fresh process: set-up, timed rounds, checks.

    python3 bench/worker.py WORKLOAD SEED SECONDS TRACE SETUP_ONLY

Started by run.py.  Prints "ready" when set-up ends (run.py times the
set-up from the process start to that line).  With SETUP_ONLY=1 it then
exits.  Otherwise it makes the inputs from the seed and runs whole
rounds, one operation after another, for SECONDS give or take half a
round: it starts another round while at least half of it, at the mean
round time so far, would fall within SECONDS.  Each time
the operations have taken another SECONDS / SETUP_STARTS, it prints
"setup" between two operations and waits, outside the timing, for the
line "go": run.py makes one more set-up start in the meantime, so that
the set-up starts are spread over the run like the operations.  After
each round it checks every output of that round.  The last line it
prints is a JSON object with the raw figures.  With TRACE=1 it spends
half the time untraced and half traced, never pauses, and reports the
per-layer figures and the tracing overhead instead of the latencies.
"""

from __future__ import annotations

import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(ROOT / "src"))

import dmt.engine  # noqa: E402  (the package under test, from src/)
import dmt.semantics  # noqa: E402
import dmt.syntax  # noqa: E402
import dmt.tableau  # noqa: E402

import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

CLI_RUNS = 5
WARMUP_SECONDS = 1.0
SETUP_STARTS = 10


def warm_up(workload, ops):
    """Run operations untimed for WARMUP_SECONDS, so that the timed rounds
    do not start on an idle processor."""
    end = time.perf_counter() + WARMUP_SECONDS
    while time.perf_counter() < end:
        for op in ops:
            workload.run(op)
            if time.perf_counter() >= end:
                return


class Tally:
    """Rounds run, operations failed and wrong outputs, across phases."""

    def __init__(self):
        self.rounds = 0
        self.failed = 0
        self.problems = []


def request_setup_start():
    """Let run.py make one set-up start; return when it has ended."""
    print("setup", flush=True)
    if sys.stdin.readline() != "go\n":
        raise SystemExit("run.py did not answer")


def run_rounds(workload, ops, seconds, tally, pause_every=math.inf):
    """At least one round, and another while at least half of it would
    fall within `seconds` of operations; returns (latencies, round
    times).  Checks each round's outputs.  Whenever the operations have
    taken another `pause_every` seconds, a set-up start is made between
    two operations."""
    latencies, round_times = [], []
    clock = time.perf_counter
    run = workload.run
    taken, next_pause = 0.0, pause_every
    while not round_times or \
            sum(round_times) + statistics.mean(round_times) / 2 < seconds:
        outputs = []
        for op in ops:
            start = clock()
            out = run(op)
            elapsed = clock() - start
            latencies.append(elapsed)
            outputs.append(out)
            taken += elapsed
            if taken >= next_pause:
                request_setup_start()
                next_pause += pause_every
        round_times.append(sum(latencies[-len(ops):]))
        tally.rounds += 1
        for op, out in zip(ops, outputs):
            failed, problem = workload.check(op, out)
            tally.failed += failed
            if problem:
                tally.problems.append(problem)
    return latencies, round_times


def cli_cold_start(workload):
    """Median wall time of fresh `python -m dmt.cli` runs, exit codes
    checked."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    times = []
    for _ in range(CLI_RUNS):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "dmt.cli", *workload.cli_command],
            cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL, timeout=60)
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise RuntimeError(f"dmt {' '.join(workload.cli_command)} "
                               f"exited with {proc.returncode}")
    return statistics.median(times)


def main(argv):
    name, seed, seconds, trace, setup_only = argv
    seed, seconds = int(seed), float(seconds)
    workload = WORKLOADS[name](dmt)
    workload.setup()
    print("ready", flush=True)
    if setup_only == "1":
        return 0

    ops = workload.inputs(seed)
    warm_up(workload, ops)
    tally = Tally()
    if trace == "1":
        # half the time untraced, half traced: the difference per round is
        # the tracing overhead
        _, plain = run_rounds(workload, ops, seconds / 2, tally)
        tracer = tracing.Tracer()
        tracer.install(dmt.syntax, dmt.tableau, dmt.semantics, dmt.engine)
        try:
            _, traced = run_rounds(workload, ops, seconds / 2, tally)
        finally:
            tracer.uninstall()
        metrics = tracing.layer_metrics(tracer, len(traced))
        overhead = statistics.mean(traced) - statistics.mean(plain)
        metrics["trace.round_s"] = (statistics.mean(traced), "s")
        metrics["trace.overhead_s"] = (overhead, "s")
        metrics["trace.overhead_ratio"] = (
            overhead / statistics.mean(plain), "ratio")
        metrics["cli.cold_start_s"] = (cli_cold_start(workload), "s")
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"trace-{name}.tsv")
    else:
        latencies, round_times = run_rounds(workload, ops, seconds, tally,
                                            seconds / SETUP_STARTS)
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        q = workload.tail_percentile
        metrics = {
            "ops_per_s": (len(latencies) / sum(round_times), "1/s"),
            "latency_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
            "latency_tail_ms": (statistics.quantiles(
                latencies, n=100, method="inclusive")[q - 1] * 1e3, "ms"),
            "peak_rss_mb": (peak_kb / 1024, "MB"),
        }
    result = {"rounds": tally.rounds, "attempted": tally.rounds * len(ops),
              "failed": tally.failed, "problems": tally.problems[:20],
              "tail_percentile": workload.tail_percentile,
              "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
