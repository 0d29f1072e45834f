"""Per-layer metrics from the spans of a traced run.

Each metric is taken from the spans of the workload's own traced rounds.
Where a workload never reaches a layer, the metric comes from the probe
that follows those rounds (one call into every layer), so every traced run
reports every metric; the trace file keeps which spans were which.
Times are medians per call; counts are per round of the workload, or per
probe pass.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from tracer import LAYERS

INVERSES = ("scalar_bounds.gauss_gap_inverse", "scalar_bounds.bdd_gap_inverse",
            "scalar_bounds.lemma3_h2max")
TABLES = ("gaussian_relay.emit_fig1_curves", "gaussian_relay.emit_fig2_curves")
DMC_SOLVES = ("dmc_relay.capacity_ub_cor2", "dmc_relay.cutset_dmc")
SUITES = {
    "mossel": "mossel_suite", "mossel-q0": "mossel_q0_suite", "borell-exp": "borell_suite",
    "ou-q0": "ou_q0_suite", "lemma4": "relay_oracle_suite", "quantizer": "quantizer_oracle_suite",
    "semigroup": "semigroup_suite",
}
KERNELS = ("apply_semisimple", "brute_force_entropy_gap", "gaussian_quantizer_gap")
CLI_COMMANDS = ("gaussian", "dmc", "curves", "verify")


class Spans:
    """Columns of a Tracer as arrays, with each span's time in direct children."""

    def __init__(self, tr, op_labels: list[str]) -> None:
        self.names = list(tr.names)
        col = lambda a: np.frombuffer(a, dtype=a.typecode).astype(np.int64)
        self.name = col(tr.name_id)
        self.dur = col(tr.end) - col(tr.start)
        self.parent = col(tr.parent)
        self.op = col(tr.op)
        self.tag = col(tr.tag)
        self.label = np.array(op_labels, dtype=object)[self.op]
        self.error = np.zeros(self.name.size, dtype=bool)
        self.error[[int(i) for i, e in tr.errors.items() if e == "ConvergenceError"]] = True
        child = self.parent >= 0
        self.child_time = np.zeros(self.name.size)
        np.add.at(self.child_time, self.parent[child], self.dur[child])
        scalar = child & np.isin(self.name, self.ids(n for n in self.names if n.startswith("scalar_bounds.")))
        self.scalar_child_time = np.zeros(self.name.size)
        np.add.at(self.scalar_child_time, self.parent[scalar], self.dur[scalar])

    def ids(self, names) -> list[int]:
        return [self.names.index(n) for n in names if n in self.names]

    def named(self, *names) -> np.ndarray:
        return np.isin(self.name, self.ids(names))


def per_layer(tr, n_loop: int, rounds: int, op_labels: list[str], src: Path) -> dict:
    """Every per-layer metric except cli.import_ms and trace.overhead_pct."""
    s = Spans(tr, op_labels)
    in_loop = s.op < n_loop
    out: dict = {}

    def put(metric: str, unit: str, mask: np.ndarray, value) -> None:
        """Record value(selection, per) from loop spans, or from probe spans if the loop has none."""
        for part, per in ((mask & in_loop, rounds), (mask & ~in_loop, 1)):
            if part.any():
                out[metric] = {"value": float(value(part, per)), "unit": unit}
                return
        raise RuntimeError(f"no spans for {metric}")

    count = lambda sel, per: sel.sum() / per
    median_us = lambda sel, per: np.median(s.dur[sel]) / 1e3
    median_ms = lambda sel, per: np.median(s.dur[sel]) / 1e6

    put("scalar_bounds.calls", "count", s.named(*INVERSES), count)
    put("scalar_bounds.inverse_us", "us", s.named(*INVERSES), median_us)
    put("gaussian_relay.fig1_ms", "ms", s.named(TABLES[0]), median_ms)
    put("gaussian_relay.fig2_ms", "ms", s.named(TABLES[1]), median_ms)
    put("gaussian_relay.self_ms", "ms", s.named(*TABLES),
        lambda sel, per: np.median(s.dur[sel] - s.scalar_child_time[sel]) / 1e6)
    put("gaussian_relay.report_us", "us", s.named("gaussian_relay.report"), median_us)
    solves = s.named(*DMC_SOLVES)
    cor2 = s.named(DMC_SOLVES[0])
    put("dmc_relay.cor2_ms", "ms", cor2, median_ms)
    put("dmc_relay.cor2_ms_k_le3", "ms", cor2 & (s.tag <= 3), median_ms)
    put("dmc_relay.cor2_ms_k_ge4", "ms", cor2 & (s.tag >= 4), median_ms)
    put("dmc_relay.calls", "count", solves, count)
    put("dmc_relay.convergence_errors", "count", solves, lambda sel, per: (sel & s.error).sum() / per)
    for suite, fn in SUITES.items():
        put(f"rhc_verify.{suite}_us", "us", s.named(f"rhc_verify.{fn}"),
            lambda sel, per: np.median(s.dur[sel] / s.tag[sel]) / 1e3)
    put("rhc_verify.apply_semisimple_calls", "count", s.named("rhc_verify.apply_semisimple"), count)
    for kernel in KERNELS:
        put(f"rhc_verify.{kernel}_us", "us", s.named(f"rhc_verify.{kernel}"), median_us)
    main = s.named("cli.main")
    for command in CLI_COMMANDS:
        put(f"cli.{command}_ms", "ms", main & (s.label == f"cli {command}"), median_ms)
    put("cli.self_ms", "ms", main, lambda sel, per: np.median(s.dur[sel] - s.child_time[sel]) / 1e6)
    for module in LAYERS:
        with open(src / f"{module}.py") as fh:
            out[f"{module}.src_lines"] = {"value": sum(1 for _ in fh), "unit": "lines"}
    return out
