"""Time-to-verdict benchmark for `dmt`, end to end and layer by layer.

    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S]
                         [--trace 0|1]

Runs from the root of a checkout and imports the package from src/.
Each workload runs in fresh processes (bench/worker.py): one client in a
closed loop, one operation after another.  --seconds defaults to
`run_seconds` of BENCHMARK.json.  Without --trace, `setup_s` is the
median set-up time of the worker that runs the operations and of the
fresh workers started while it pauses (about SETUP_STARTS of
worker.py, spread over the run); each is timed from process creation to the end of
its warm-up.  With --trace 1 the worker reports the per-layer figures
instead.  The last line printed for a workload is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--workload all runs the four workloads one after another and prints one
such line for each.  The exit code is not 0 when a worker fails.
"""

from __future__ import annotations

import argparse
import json
import os
import queue
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
NAMES = ("decide", "entail", "oracle", "modelcheck")
SETUP_TIMEOUT = 60


class BenchError(RuntimeError):
    pass


def run_timeout(seconds):
    """How long one workload may take: a round may run past `seconds`,
    and the traced run times two halves of at least one round each."""
    return 4 * seconds + 60


class Worker:
    """A worker process and the lines it prints, read by a thread so that
    every wait for a line has a deadline."""

    def __init__(self, name, seed, seconds, trace, setup_only):
        self.name = name
        args = [sys.executable, str(WORKER), name, str(seed), str(seconds),
                str(trace), str(int(setup_only))]
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(args, cwd=ROOT, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True,
                                     start_new_session=True)
        self.lines = queue.Queue()
        self.reader = threading.Thread(target=self._read)
        self.reader.start()

    def _read(self):
        for line in self.proc.stdout:
            self.lines.put(line)
        self.lines.put("")          # end of output

    def readline(self, deadline):
        try:
            return self.lines.get(
                timeout=max(0.0, deadline - time.perf_counter()))
        except queue.Empty:
            raise BenchError(f"{self.name}: worker timed out") from None

    def ready(self):
        """Seconds from process creation to the end of set-up."""
        line = self.readline(time.perf_counter() + SETUP_TIMEOUT)
        if line != "ready\n":
            self.stop()
            raise BenchError(f"{self.name}: worker set-up failed "
                             f"(exit code {self.proc.returncode})")
        return time.perf_counter() - self.started

    def answer(self):
        self.proc.stdin.write("go\n")
        self.proc.stdin.flush()

    def wait(self, deadline):
        """The exit code, once the worker has ended."""
        try:
            return self.proc.wait(max(0.0, deadline - time.perf_counter()))
        except subprocess.TimeoutExpired:
            raise BenchError(f"{self.name}: worker timed out") from None

    def stop(self):
        """End the worker and whatever it started; wait for all of it."""
        if self.proc.poll() is None:
            os.killpg(self.proc.pid, signal.SIGKILL)
        self.proc.wait()
        self.reader.join()
        self.proc.stdin.close()
        self.proc.stdout.close()


def setup_start(name, seed):
    """One fresh worker that only sets up; its set-up time."""
    worker = Worker(name, seed, 0, 0, setup_only=True)
    try:
        elapsed = worker.ready()
        if worker.wait(time.perf_counter() + SETUP_TIMEOUT) != 0:
            raise BenchError(f"{name}: set-up worker failed")
        return elapsed
    finally:
        worker.stop()


def run_workload(name, seed, seconds, trace):
    deadline = time.perf_counter() + run_timeout(seconds)
    worker = Worker(name, seed, seconds, trace, setup_only=False)
    try:
        setups = [worker.ready()]
        line = worker.readline(deadline)
        while line == "setup\n":
            setups.append(setup_start(name, seed))
            worker.answer()
            line = worker.readline(deadline)
        code = worker.wait(deadline)
        if code != 0 or not line:
            raise BenchError(f"{name}: worker exited with {code}")
    finally:
        worker.stop()
    raw = json.loads(line)
    metrics = {k: {"value": v, "unit": unit}
               for k, (v, unit) in raw["metrics"].items()}
    if not trace:
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
        print(f"{name}: {len(setups)} set-up starts", file=sys.stderr)
    for problem in raw["problems"]:
        print(f"{name}: WRONG: {problem}", file=sys.stderr)
    print(f"{name}: {raw['rounds']} rounds, latency_tail_ms is "
          f"p{raw['tail_percentile']}", file=sys.stderr)
    return {"correct": not raw["problems"], "attempted": raw["attempted"],
            "failed": raw["failed"], "metrics": metrics}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds is None:
        with open(ROOT / "BENCHMARK.json") as fh:
            args.seconds = json.load(fh)["run_seconds"]
    names = NAMES if args.workload == "all" else (args.workload,)
    results = []
    try:
        for name in names:
            results.append(run_workload(name, args.seed, args.seconds,
                                        args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for name, result in zip(names, results):
        if len(names) > 1:
            print(name)
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
