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
is its relaxed baseline.  The module also emits the two reference curve
tables used by the CLI (gap tradeoff h1 -> h2, and capacity bound vs C0).
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


@dataclass(frozen=True)
class GaussianRelayParams:
    """Average power constraint, per-link noise variance, and relay rate C0."""

    power: float
    noise: float
    relay_rate: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.power) and self.power > 0.0):
            raise DomainError(f"power must be positive and finite, got {self.power!r}")
        if not (math.isfinite(self.noise) and self.noise > 0.0):
            raise DomainError(f"noise must be positive and finite, got {self.noise!r}")
        require_rate(self.relay_rate, "relay_rate")

    @property
    def snr(self) -> float:
        return self.power / self.noise


@dataclass(frozen=True)
class GaussianBoundReport:
    """All four capacity upper bounds plus their minimum, in nats."""

    cutset: float
    lemma2_bound: float
    lemma3_bound: float
    relaxed_baseline: float
    best: float

    def __post_init__(self) -> None:
        fields = (self.cutset, self.lemma2_bound, self.lemma3_bound, self.relaxed_baseline)
        if any(not math.isfinite(v) or v < 0.0 for v in fields):
            raise DomainError(f"bound values must be nonnegative and finite, got {fields}")
        if self.best != min(fields):
            raise DomainError("best must equal the minimum of the four bounds")


@dataclass(frozen=True)
class CurveTable:
    """Column-labelled numeric table produced by the curve emitters."""

    columns: tuple[str, ...]
    rows: tuple[tuple[float, ...], ...]


def _broadcast_cut(snr: float) -> float:
    return 0.5 * math.log1p(2.0 * snr)


def _direct_link(snr: float) -> float:
    return 0.5 * math.log1p(snr)


def cutset_bound(params: GaussianRelayParams) -> float:
    """Classical cutset bound min{0.5*ln(1+2g), 0.5*ln(1+g) + C0}."""
    g = params.snr
    return min(_broadcast_cut(g), _direct_link(g) + params.relay_rate)


def capacity_ub_lemma2(params: GaussianRelayParams) -> float:
    """Bound with the variational entropy-gap penalty: C0 - c^{-1}(C0)."""
    g = params.snr
    c0 = params.relay_rate
    return min(_broadcast_cut(g), _direct_link(g) + c0 - gauss_gap_inverse(c0))


def capacity_ub_lemma3(params: GaussianRelayParams) -> float:
    """Bound with the logarithmic gap term: 0.5*ln(1+g) + 0.5*ln(1+2*C0)."""
    g = params.snr
    return min(_broadcast_cut(g), _direct_link(g) + lemma3_gap(params.relay_rate))


def capacity_ub_relaxed(params: GaussianRelayParams) -> float:
    """Baseline bound with the relaxed-gap penalty: C0 - r^{-1}(C0), r(h)=h+sqrt(2h)."""
    g = params.snr
    c0 = params.relay_rate
    return min(_broadcast_cut(g), _direct_link(g) + c0 - relaxed_gap_inverse(c0))


def report(params: GaussianRelayParams) -> GaussianBoundReport:
    """Evaluate all four bounds and their minimum."""
    values = (
        cutset_bound(params),
        capacity_ub_lemma2(params),
        capacity_ub_lemma3(params),
        capacity_ub_relaxed(params),
    )
    return GaussianBoundReport(
        cutset=values[0],
        lemma2_bound=values[1],
        lemma3_bound=values[2],
        relaxed_baseline=values[3],
        best=min(values),
    )


def _table(columns: tuple[str, ...], *values) -> CurveTable:
    rows = np.column_stack(values).tolist()
    return CurveTable(columns=columns, rows=tuple(map(tuple, rows)))


def emit_fig1_curves(h1_max: float, n_points: int) -> CurveTable:
    """Gap-tradeoff table: columns h1, h2_relaxed, h2_lemma3.

    h2_relaxed follows the reference thin curve 2*h1 + sqrt(2*h1); h2_lemma3
    is the implicit-bound maximum, which stays below the thin curve.
    """
    h1_max = require_rate(h1_max, "h1_max")
    if h1_max <= 0.0:
        raise DomainError("h1_max must be positive")
    if n_points < 2:
        raise DomainError("n_points must be at least 2")
    h1 = h1_max * np.arange(n_points) / (n_points - 1)
    thin = 2.0 * h1 + np.sqrt(2.0 * h1)
    return _table(("h1", "h2_relaxed", "h2_lemma3"), h1, thin, lemma3_h2max(h1))


def emit_fig2_curves(snr: float, c0_max: float, n_points: int) -> CurveTable:
    """Capacity-bound table over a uniform C0 grid.

    Columns: c0, cutset, relaxed, lemma2, lemma3, lemma3_unclipped.  The
    `relaxed` column reproduces the reference baseline curve exactly (the
    parametric map C0 = 2r + sqrt(2r) |-> C0 - r + 0.5*ln(1+snr), unclipped);
    `lemma3` is clipped at the broadcast cut while `lemma3_unclipped` is not.
    Each `lemma2` entry is `capacity_ub_lemma2` at its row's C0.
    """
    if not (math.isfinite(snr) and snr > 0.0):
        raise DomainError(f"snr must be positive and finite, got {snr!r}")
    c0_max = require_rate(c0_max, "c0_max")
    if c0_max <= 0.0:
        raise DomainError("c0_max must be positive")
    if n_points < 2:
        raise DomainError("n_points must be at least 2")

    cut_cap = _broadcast_cut(snr)
    direct = _direct_link(snr)
    c0 = c0_max * np.arange(n_points) / (n_points - 1)
    s = 2.0 * c0 / (1.0 + np.sqrt(1.0 + 4.0 * c0))  # 2r + sqrt(2r) = c0 at r = s^2/2
    # capacity_ub_lemma2 inlined: a GaussianRelayParams per row would more than double the cost
    lemma2 = [min(cut_cap, direct + c - gauss_gap_inverse(c)) for c in c0.tolist()]
    unclipped = direct + 0.5 * np.log1p(2.0 * c0)
    return _table(
        ("c0", "cutset", "relaxed", "lemma2", "lemma3", "lemma3_unclipped"),
        c0,
        np.minimum(cut_cap, direct + c0),
        direct + c0 - 0.5 * s * s,
        lemma2,
        np.minimum(cut_cap, unclipped),
        unclipped,
    )
