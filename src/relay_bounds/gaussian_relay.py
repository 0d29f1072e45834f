"""Capacity upper bounds for the symmetric Gaussian primitive relay channel.

The source X (average power P) reaches the relay Z and the destination Y
through independent Gaussian channels of per-link noise variance N; the relay
forwards a noiseless message of rate C0 nats per channel use.  With
gamma = P/N, the bounds evaluated here are

    cutset   = min{ 0.5*ln(1+2*gamma), 0.5*ln(1+gamma) + C0 }
    lemma2   = min{ 0.5*ln(1+2*gamma), 0.5*ln(1+gamma) + C0 - c^{-1}(C0) }
    lemma3   = min{ 0.5*ln(1+2*gamma), 0.5*ln(1+gamma) + 0.5*ln(1+2*C0) }
    relaxed  = min{ 0.5*ln(1+2*gamma), 0.5*ln(1+gamma) + C0 - r^{-1}(C0) }

where c is the closed-form Gaussian entropy-gap bound and r(h) = h + sqrt(2h)
is its relaxed baseline.  One array function forms the broadcast cut and the
four second branches over an array of C0: `report` is its one-point case,
and the fig2 table takes its cutset, lemma2, lemma3 and lemma3_unclipped
columns from it.  The module also emits the two reference curve tables used
by the CLI (gap tradeoff h1 -> h2, and capacity bound vs C0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .scalar_bounds import (
    gauss_gap_inverse,
    lemma3_gap,
    lemma3_h2max,
    relaxed_gap_inverse,
    require_rate,
)

MAX_POINTS = 100_000  # grid points of a curve table; memory grows linearly with the count


@dataclass(frozen=True)
class GaussianRelayParams:
    """Average power constraint, per-link noise variance, and relay rate C0."""

    power: float
    noise: float
    relay_rate: float

    def __post_init__(self) -> None:
        for name in ("power", "noise", "snr"):  # finite inputs can still overflow snr
            _require_positive(getattr(self, name), name)
        require_rate(self.relay_rate, "relay_rate")

    @property
    def snr(self) -> float:
        return self.power / self.noise


@dataclass(frozen=True)
class GaussianBoundReport:
    """All four capacity upper bounds, in nats, and their minimum `best`.

    Each field is an upper value to within 2 ulp: it lies within 2 ulp of
    the exact value of its closed form, and may sit that far below it.
    """

    cutset: float
    lemma2_bound: float
    lemma3_bound: float
    relaxed_baseline: float

    @property
    def best(self) -> float:
        return min(self.cutset, self.lemma2_bound, self.lemma3_bound, self.relaxed_baseline)


@dataclass(frozen=True, eq=False)  # the array field compares and hashes by identity
class CurveTable:
    """Column-labelled table produced by the curve emitters.

    `rows` is one read-only (n_points, len(columns)) float64 array; the CLI
    prints its values byte for byte as it would print the same Python floats.
    """

    columns: tuple[str, ...]
    rows: np.ndarray


def _require_positive(value: float, name: str) -> None:
    if not (math.isfinite(value) and value > 0.0):
        raise DomainError(f"{name} must be positive and finite, got {value!r}")


def _bounds(snr: float, c0: np.ndarray) -> tuple[float, np.ndarray]:
    """The broadcast cut 0.5*ln(1+2*snr), and 0.5*ln(1+snr) + relay term at each C0.

    The second is a (4, len(c0)) array whose rows hold the cutset, lemma2,
    lemma3 and relaxed relay terms; each bound is the smaller of the two.
    """
    direct = 0.5 * math.log1p(snr)
    relay = direct + c0
    # one float call per C0: perfbench's tracer test pins one span per row (ROADMAP 1b, 4)
    lemma2 = relay - np.array([gauss_gap_inverse(c) for c in c0.tolist()])
    sums = np.stack((relay, lemma2, direct + lemma3_gap(c0), relay - relaxed_gap_inverse(c0)))
    return 0.5 * math.log1p(2.0 * snr), sums


def report(params: GaussianRelayParams) -> GaussianBoundReport:
    """Evaluate all four bounds at one point."""
    cut, sums = _bounds(params.snr, np.array([params.relay_rate], dtype=float))
    return GaussianBoundReport(*np.minimum(cut, sums[:, 0]).tolist())


def _grid(top: float, name: str, n_points: int) -> np.ndarray:
    """n_points uniform points from 0 to a positive top."""
    top = require_rate(top, name)
    if top <= 0.0:
        raise DomainError(f"{name} must be positive")
    if not 2 <= n_points <= MAX_POINTS:
        raise DomainError(f"n_points must lie in 2..{MAX_POINTS}, got {n_points}")
    return top * np.arange(n_points) / (n_points - 1)


def _table(columns: tuple[str, ...], *values: np.ndarray) -> CurveTable:
    rows = np.stack(values, axis=1)
    rows.setflags(write=False)
    return CurveTable(columns=columns, rows=rows)


def emit_fig1_curves(h1_max: float, n_points: int) -> CurveTable:
    """Gap-tradeoff table: columns h1, h2_relaxed, h2_lemma3.

    h2_relaxed follows the reference thin curve 2*h1 + sqrt(2*h1); h2_lemma3
    is the implicit-bound maximum, which stays below the thin curve.
    """
    h1 = _grid(h1_max, "h1_max", n_points)
    thin = 2.0 * h1 + np.sqrt(2.0 * h1)
    return _table(("h1", "h2_relaxed", "h2_lemma3"), h1, thin, lemma3_h2max(h1))


def emit_fig2_curves(snr: float, c0_max: float, n_points: int) -> CurveTable:
    """Capacity-bound table over a uniform C0 grid.

    Columns: c0, cutset, relaxed, lemma2, lemma3, lemma3_unclipped.  The
    `relaxed` column reproduces the reference baseline curve exactly (the
    parametric map C0 = 2r + sqrt(2r) |-> C0 - r + 0.5*ln(1+snr), unclipped);
    `lemma3` is clipped at the broadcast cut while `lemma3_unclipped` is not.
    The cutset, lemma2 and lemma3 entries are `report` at their row's C0.
    """
    _require_positive(snr, "snr")
    c0 = _grid(c0_max, "c0_max", n_points)
    cut, sums = _bounds(snr, c0)
    bounds = np.minimum(cut, sums)
    s = 2.0 * c0 / (1.0 + np.sqrt(1.0 + 4.0 * c0))  # 2r + sqrt(2r) = c0 at r = s^2/2
    relaxed = sums[0] - 0.5 * s * s  # the unclipped cutset sum less r
    columns = ("c0", "cutset", "relaxed", "lemma2", "lemma3", "lemma3_unclipped")
    return _table(columns, c0, bounds[0], relaxed, bounds[1], bounds[2], sums[2])
