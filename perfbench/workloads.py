"""The four workloads: their inputs, their operations and the check of each.

An operation is one call into the program, made in a closed loop; a round
is one pass over a workload's distinct operations, and a run attempts whole
rounds only, so the share of failed operations is the same in every run.
Inputs come from the benchmark seed and nothing else.  The program is
reached through module attributes at call time (`rb.dmc_relay.capacity_ub_cor2`),
so the traced run sees the same calls through its wrappers.
"""

from __future__ import annotations

import contextlib
import io
import os
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import checks

# Instance counts per verify-suite call.  A quantile that falls where the
# costs of two calls meet moves with every shift in their share of the slow
# samples, so the calls form three groups of clearly different cost: three
# light ones (9-13 ms), lemma4 alone in the middle (about 24 ms) and three
# heavy ones (35-45 ms).  The middle group holds ranks 3/7 to 4/7 of the
# samples, so the median is the median of the lemma4 calls, and the 90th
# percentile lies within the heavy group.
SUITE_CALLS = (
    ("mossel", "mossel_suite", 50),
    ("mossel-q0", "mossel_q0_suite", 50),
    ("borell-exp", "borell_suite", 300),
    ("lemma4", "relay_oracle_suite", 95),
    ("ou-q0", "ou_q0_suite", 55),
    ("quantizer", "quantizer_oracle_suite", 125),
    ("semigroup", "semigroup_suite", 75),
)
TABLE_POINTS = 512
CLI_CHANNEL = ((0.7, 0.2, 0.1), (0.1, 0.8, 0.1), (0.2, 0.2, 0.6))
CLI_C0 = 0.2
CLI_VERIFY = ("lemma4", 40)


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], None]


@dataclass
class Workload:
    name: str
    round: list[Op]
    warmup: list[Op]
    # the traced run replaces subprocesses by in-process calls it can trace
    traced_round: list[Op] = field(default_factory=list)


def reference_channels() -> list[tuple[np.ndarray, float]]:
    """The discrete channel set: 60 draws of default_rng(1), a BSC and a 16x16 channel.

    Draws 12 and 39 make capacity_ub_cor2 raise ConvergenceError on every
    call.  The set does not depend on the benchmark seed, because the same
    law fails on other draws at other seeds (draws 41, 53 and 8 at seeds 3, 4
    and 6), which would change the share of failed operations between runs.
    """
    rng = np.random.default_rng(1)
    out = []
    for _ in range(60):
        kx = int(rng.integers(2, 7))
        ky = int(rng.integers(2, 7))
        conc = float(rng.uniform(0.2, 2.0))
        w = rng.dirichlet(np.full(ky, conc), size=kx)
        out.append((w, float(rng.uniform(0.01, 1.0))))
    out.append((np.array([[0.89, 0.11], [0.11, 0.89]]), 0.3))
    out.append((np.random.default_rng(16).dirichlet(np.ones(16), size=16), 0.5))
    return out


def _dmc_op(rb, w: np.ndarray, c0: float) -> Op:
    channel = rb.dmc_relay.DiscreteChannel(w)

    def check(rep) -> None:
        checks.check_dmc(w, c0, {
            "alpha": rep.alpha, "penalty": rep.penalty, "cutset": rep.cutset,
            "cor2_bound": rep.cor2_bound, "argmax_input": rep.argmax_input.probs,
        })

    return Op(f"dmc k={w.shape[0]}", lambda: rb.dmc_relay.capacity_ub_cor2(channel, c0), check)


def _fig1_op(rb, h1_max: float) -> Op:
    return Op(
        "fig1",
        lambda: rb.gaussian_relay.emit_fig1_curves(h1_max, TABLE_POINTS),
        lambda t: checks.check_fig1(h1_max, TABLE_POINTS, t.columns, t.rows),
    )


def _fig2_op(rb, snr: float, c0_max: float) -> Op:
    return Op(
        "fig2",
        lambda: rb.gaussian_relay.emit_fig2_curves(snr, c0_max, TABLE_POINTS),
        lambda t: checks.check_fig2(snr, c0_max, TABLE_POINTS, t.columns, t.rows),
    )


def _report_op(rb, snr: float, c0: float) -> Op:
    def check(rep) -> None:
        checks.check_gaussian(snr, c0, {
            "snr": snr, "c0": c0, "cutset": rep.cutset, "lemma2": rep.lemma2_bound,
            "lemma3": rep.lemma3_bound, "relaxed": rep.relaxed_baseline, "best": rep.best,
        })

    params = rb.gaussian_relay.GaussianRelayParams(power=snr, noise=1.0, relay_rate=c0)
    return Op("report", lambda: rb.gaussian_relay.report(params), check)


def _records(recs) -> list[dict]:
    return [{"suite": r.suite, "index": r.index, "instance": r.instance,
             "margin": r.margin, "pass": r.passed} for r in recs]


def _suite_op(rb, suite: str, fn: str, n: int, seeds) -> Op:
    """One suite call per operation; each call draws the next seed from `seeds`."""
    return Op(
        suite,
        lambda: _records(getattr(rb.rhc_verify, fn)(n, next(seeds))),
        lambda recs: checks.check_records(suite, n, recs),
    )


def _cli_ops(rb, seed: int, out_dir: Path, env: dict, peak: PeakRss | None) -> list[Op]:
    """The cli round: subprocesses, or in-process cli.main calls where `peak` is None."""
    rng = np.random.default_rng((seed, 4))
    snr, c0 = float(rng.uniform(0.2, 2.0)), float(rng.uniform(0.05, 0.5))
    h1_max = float(rng.uniform(2.0, 4.0))
    snr2, c0_max = float(rng.uniform(0.3, 0.7)), float(rng.uniform(0.2, 0.35))
    channel_path = out_dir / "cli-channel.csv"
    suite, n = CLI_VERIFY
    # the dmc process, the dearest, runs twice per round: a third of the
    # operations, so that the 90th percentile lies high in its group (see
    # SUITE_CALLS)
    dmc = ("dmc", ["dmc", "--channel", str(channel_path), "--c0", repr(CLI_C0)],
           lambda res: checks.check_dmc_cli(CLI_CHANNEL, CLI_C0, *res))
    argvs = [
        ("gaussian", ["gaussian", "--snr", repr(snr), "--c0", repr(c0)],
         lambda res: checks.check_gaussian_cli(snr, c0, *res)),
        dmc,
        ("curves", ["curves", "--figure", "1", "--h1-max", repr(h1_max), "--points", str(TABLE_POINTS)],
         lambda res: checks.check_table_csv("fig1", (h1_max,), TABLE_POINTS, *res)),
        dmc,
        ("curves", ["curves", "--figure", "2", "--snr", repr(snr2), "--c0-max", repr(c0_max),
                    "--points", str(TABLE_POINTS)],
         lambda res: checks.check_table_csv("fig2", (snr2, c0_max), TABLE_POINTS, *res)),
        ("verify", ["verify", "--suite", suite, "--instances", str(n), "--seed", str(seed)],
         lambda res: checks.check_verify_cli(suite, n, *res)),
    ]
    ops = []
    for command, argv, check in argvs:
        if peak is None:
            run = _in_process(rb, argv, out_dir / f"cli-{command}.out")
        else:
            run = _subprocess(argv, env, peak)
        ops.append(Op(f"cli {command}", run, check))
    return ops


class PeakRss:
    """Largest peak resident set, in KiB, of the program's child processes."""

    def __init__(self) -> None:
        self.kb = 0


def _subprocess(argv: list[str], env: dict, peak: PeakRss):
    def run():
        proc = subprocess.Popen([sys.executable, "-m", "relay_bounds", *argv], env=env,
                                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        with proc.stdout:
            out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)  # reaps the child and reads its rusage
        proc.returncode = os.waitstatus_to_exitcode(status)
        peak.kb = max(peak.kb, usage.ru_maxrss)
        return proc.returncode, out

    return run


def _in_process(rb, argv: list[str], path: Path):
    def run():
        with contextlib.redirect_stderr(io.StringIO()):
            code = rb.cli.main(argv + ["--output", str(path)])
        return code, path.read_text()

    return run


def write_cli_channel(out_dir: Path) -> None:
    lines = [",".join(repr(v) for v in row) for row in CLI_CHANNEL]
    (out_dir / "cli-channel.csv").write_text("\n".join(lines) + "\n")


def build(name: str, rb, seed: int, out_dir: Path, env: dict, peak: PeakRss) -> Workload:
    if name == "dmc-bounds":
        ops = [_dmc_op(rb, w, c0) for w, c0 in reference_channels()]
        order = np.random.default_rng((seed, 1)).permutation(len(ops))
        ops = [ops[i] for i in order]
        return Workload(name, ops, ops[:6])
    if name == "gaussian-curves":
        # fig1 tables cost about half a fig2 table; four of the seven per round
        # keep the median in the fig1 group, as for SUITE_CALLS
        jitter = 1.0 + np.random.default_rng((seed, 2)).uniform(-0.02, 0.02, size=10)
        ops = [
            _fig1_op(rb, 3.0 * jitter[0]),
            _fig2_op(rb, 0.5 * jitter[1], 0.27 * jitter[2]),
            _fig1_op(rb, 50.0 * jitter[3]),
            _fig2_op(rb, 0.1 * jitter[4], 5.0 * jitter[5]),
            _fig1_op(rb, 3.0 * jitter[6]),
            _fig2_op(rb, 10.0 * jitter[7], 2.0 * jitter[8]),
            _fig1_op(rb, 50.0 * jitter[9]),
        ]
        return Workload(name, ops, ops)
    if name == "verify-suites":
        seeds = iter(range(seed * 1_000_000, (seed + 1) * 1_000_000))
        ops = [_suite_op(rb, suite, fn, n, seeds) for suite, fn, n in SUITE_CALLS]
        return Workload(name, ops, ops)
    if name == "cli-oneshot":
        write_cli_channel(out_dir)
        ops = _cli_ops(rb, seed, out_dir, env, peak)
        return Workload(name, ops, ops, _cli_ops(rb, seed, out_dir, env, None))
    raise ValueError(f"unknown workload {name!r}")


def probe(rb, out_dir: Path, env: dict) -> list[Op]:
    """One traced call into every layer, for per-layer metrics a workload does not reach."""
    write_cli_channel(out_dir)
    w16, c16 = reference_channels()[-1]
    seeds = iter(range(10**9, 10**9 + 100))
    return (
        [_fig1_op(rb, 3.0), _fig2_op(rb, 0.5, 0.27), _report_op(rb, 0.5, 0.1),
         _dmc_op(rb, np.array(CLI_CHANNEL), CLI_C0), _dmc_op(rb, w16, c16)]
        + [_suite_op(rb, suite, fn, 5, seeds) for suite, fn, _ in SUITE_CALLS]
        + _cli_ops(rb, 1, out_dir, env, None)
    )


WORKLOADS = ("dmc-bounds", "gaussian-curves", "verify-suites", "cli-oneshot")
