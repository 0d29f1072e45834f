"""One benchmark process: set up a workload, then run, check and time it.

run.py starts this file in a fresh interpreter.  With --setup-only it stops
once the workload is ready for its first timed operation; the timed run
starts such processes itself and times them for setup_s.  Otherwise it warms
up, runs whole rounds in a closed loop on one thread and prints one JSON line
with the counts and the metrics of the run.  With --trace 1 it runs every operation untraced and
traced, adds one probe call into every layer, and prints the per-layer
metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import checks
import hostspeed
import layers
import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
MIN_OPS = 100  # so that ten samples lie beyond the 90th percentile
IMPORT_SAMPLES = 5
SETUP_SAMPLES = 10


def _import_program():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import relay_bounds
    import relay_bounds.cli

    if Path(relay_bounds.__file__).resolve().parent != src / "relay_bounds":
        raise SystemExit(f"relay_bounds was imported from {relay_bounds.__file__}, not from {src}")
    return relay_bounds


class Loop:
    """Closed-loop runner: latencies, failures and check results of the operations.

    Given a HostSpeed, it times the reference kernel before each operation
    (outside the operation's timing) and keeps each operation's start.
    """

    def __init__(self, failure: type, op_base: int = 0, speed: hostspeed.HostSpeed | None = None) -> None:
        self.failure = failure
        self.op_base = op_base  # first operation id given to the tracer
        self.speed = speed
        self.started: list[float] = []
        self.latency: list[float] = []
        self.labels: list[str] = []
        self.failed = 0
        self.check_errors: list[str] = []

    def run_ops(self, ops, tr=None) -> None:
        for op in ops:
            if tr is not None:
                tr.current_op = self.op_base + len(self.latency)
            if self.speed is not None:
                self.speed.sample()
            t0 = perf_counter()
            try:
                out = op.run()
            except self.failure:
                out = self.failure
            self.started.append(t0)
            self.latency.append(perf_counter() - t0)
            self.labels.append(op.label)
            if out is self.failure:
                self.failed += 1
                continue
            try:
                op.check(out)
            except checks.CheckFailed as exc:
                self.check_errors.append(f"{op.label}: {exc}")

    def run_rounds(self, ops, seconds: float, min_ops: int, between) -> None:
        """Attempt whole rounds for `seconds` and `min_ops`; call `between(elapsed)` after each operation."""
        start = perf_counter()
        while True:
            for op in ops:
                self.run_ops([op])
                between(perf_counter() - start)
            if perf_counter() - start >= seconds and len(self.latency) >= min_ops:
                return


class SetupClock:
    """setup_s samples: fresh interpreters timed until the workload is ready.

    The samples are taken at even intervals through the timed run, between
    operations and outside their timings, so that their median spans the
    run and not one moment of the host's load.
    """

    def __init__(self, cmd: list[str], env: dict, seconds: float, speed: hostspeed.HostSpeed) -> None:
        self.cmd, self.env, self.speed = cmd, env, speed
        self.interval = seconds / SETUP_SAMPLES
        self.started: list[float] = []
        self.samples: list[float] = []

    def sample(self) -> None:
        self.speed.sample()
        t0 = perf_counter()
        with subprocess.Popen(self.cmd, env=self.env, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = perf_counter() - t0
            proc.stdout.read()
            code = proc.wait()
        self.speed.sample()
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up failed with exit code {code}")
        self.started.append(t0)
        self.samples.append(elapsed)

    def between(self, elapsed: float) -> None:
        if len(self.samples) < SETUP_SAMPLES and elapsed >= len(self.samples) * self.interval:
            self.sample()

    def fill(self) -> None:
        while len(self.samples) < SETUP_SAMPLES:
            self.sample()


def _end_to_end(loop: Loop, latency: list[float], peak_rss_kb: int, setup: list[float]) -> dict:
    lat_ms = sorted(1e3 * x for x in latency)
    passed = len(latency) - loop.failed - len(loop.check_errors)
    cuts = statistics.quantiles(lat_ms, n=10, method="inclusive")
    return {
        "ops_per_s": {"value": passed / sum(latency), "unit": "1/s"},
        "latency_p50_ms": {"value": statistics.median(lat_ms), "unit": "ms"},
        "latency_p90_ms": {"value": cuts[8], "unit": "ms"},
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_kb / 1024.0, "unit": "MB"},
    }


def _import_ms(env: dict) -> float:
    code = ("import time; t = time.perf_counter(); import relay_bounds.cli; "
            "print(time.perf_counter() - t)")
    samples = []
    for _ in range(IMPORT_SAMPLES):
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             stdout=subprocess.PIPE, text=True).stdout
        samples.append(1e3 * float(out))
    return statistics.median(samples)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out-dir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    rb = _import_program()
    out_dir = Path(args.out_dir)
    env = dict(os.environ)
    child_rss = workloads.PeakRss()
    wl = workloads.build(args.workload, rb, args.seed, out_dir, env, child_rss)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    speed = hostspeed.HostSpeed()
    clock = SetupClock([sys.executable, __file__, *sys.argv[1:], "--setup-only"], env, args.seconds, speed)
    clock.sample()  # untimed: fills the file cache and writes bytecode
    clock.started.clear()
    clock.samples.clear()
    warm = Loop(rb.BoundsError, speed=speed)
    warm.run_ops(wl.warmup)
    if not args.trace:
        loop = Loop(rb.BoundsError, speed=speed)
        loop.run_rounds(wl.round, args.seconds, MIN_OPS, clock.between)
        clock.fill()
        peak_kb = child_rss.kb if args.workload == "cli-oneshot" else \
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = _end_to_end(loop, speed.correct(loop.started, loop.latency), peak_kb,
                              speed.correct(clock.started, clock.samples))
        # the uncorrected figures, for comparison with the host's speed
        raw = _end_to_end(loop, loop.latency, peak_kb, clock.samples)
        raw["slowdown"] = statistics.median(speed.took) / hostspeed.REFERENCE_S
        (out_dir / f"raw-{args.workload}-seed{args.seed}.json").write_text(json.dumps(raw, indent=1) + "\n")
    else:
        # every operation runs untraced and traced back to back, in turns
        # first, so that both see the same load on the host and their ratio
        # is the cost of tracing
        ops = wl.traced_round or wl.round
        loop = Loop(rb.BoundsError)
        untraced = Loop(rb.BoundsError)
        tr = tracer.Tracer()
        start, rounds = perf_counter(), 0
        while rounds == 0 or perf_counter() - start < args.seconds:
            for i, op in enumerate(ops):
                for traced in (i % 2 == 1, i % 2 == 0):
                    if not traced:
                        untraced.run_ops([op])
                        continue
                    tr.install(rb)
                    try:
                        loop.run_ops([op], tr)
                    finally:
                        tr.uninstall()
            rounds += 1
        n_loop = len(loop.latency)
        probe = Loop(rb.BoundsError, op_base=n_loop)
        tr.install(rb)
        try:
            probe.run_ops(workloads.probe(rb, out_dir, env), tr)
        finally:
            tr.uninstall()
        loop.check_errors += untraced.check_errors + probe.check_errors
        overhead = statistics.median(t / u for t, u in zip(loop.latency, untraced.latency)) - 1.0
        metrics = layers.per_layer(tr, n_loop, rounds, loop.labels + probe.labels,
                                   ROOT / "src" / "relay_bounds")
        metrics["cli.import_ms"] = {"value": _import_ms(env), "unit": "ms"}
        metrics["trace.overhead_pct"] = {"value": 100.0 * overhead, "unit": "%"}
        tr.write(out_dir / f"trace-{args.workload}-seed{args.seed}.json.gz",
                 {"labels": loop.labels + probe.labels, "first_probe_op": n_loop})
        loop.latency += untraced.latency
        loop.failed += untraced.failed
    for message in (warm.check_errors + loop.check_errors)[:10]:
        print(f"check failed: {message}", file=sys.stderr)
    print(json.dumps({
        "correct": not (warm.check_errors or loop.check_errors),
        "attempted": len(loop.latency),
        "failed": loop.failed,
        "metrics": metrics,
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
