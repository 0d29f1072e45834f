"""Acceptance suite.

Each test evaluates one numbered acceptance criterion at its stated tolerance
and prints a PASS/FAIL line (run with `pytest -s` to see every line).

Criterion 5a is one-sided: it asks for gauss_gap_closed(1e-8)/sqrt(2e-8) in
[1.0, 1.01], because sqrt(2h) + h/2 <= c(h) for every h > 0.  The reason is
x/(1 - e^{-x}) >= 1 + x/2 for x > 0, so t + h/(1 - e^{-2t}) >= t + h/(2t) + h/2
>= sqrt(2h) + h/2 for every t > 0; the ratio approaches 1 from above.
"""

import math
import time

import numpy as np
import pytest

from oracles import (
    bdd_gap_variational,
    gauss_gap_relaxed,
    gauss_gap_variational,
    grid_relay_bounds,
)
from relay_bounds.dmc_relay import DiscreteChannel, capacity_ub_cor2
from relay_bounds.gaussian_relay import (
    GaussianRelayParams,
    emit_fig1_curves,
    emit_fig2_curves,
    report,
)
from relay_bounds.rhc_verify import (
    borell_critical_time,
    check_borell_exponential,
    gaussian_quantizer_gap,
    mossel_suite,
    relay_oracle_suite,
)
from relay_bounds.scalar_bounds import bdd_gap_closed, gauss_gap_closed, lemma3_h2max

HALF_LN_15 = 0.5 * math.log(1.5)
HALF_LN_2 = 0.5 * math.log(2.0)


def _line(criterion: str, ok: bool, detail: str) -> bool:
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'} {detail}")
    return ok


def _invert_thin_baseline(c0: float) -> float:
    """Independent bisection of 2r + sqrt(2r) = c0 (oracle for criterion 1)."""
    if c0 == 0.0:
        return 0.0
    lo, hi = 0.0, c0
    for _ in range(300):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            return mid
        if 2.0 * mid + math.sqrt(2.0 * mid) < c0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_criterion_1_fig2_reproduction():
    start = time.perf_counter()
    table = emit_fig2_curves(0.5, 0.27, 512)
    worst_cutset = worst_unclipped = worst_thin = 0.0
    for c0, cutset, relaxed, _, _, unclipped in table.rows:
        worst_cutset = max(worst_cutset, abs(cutset - min(HALF_LN_2, c0 + HALF_LN_15)))
        worst_unclipped = max(
            worst_unclipped, abs(unclipped - (0.5 * math.log(1.0 + 2.0 * c0) + HALF_LN_15))
        )
        expected_thin = c0 - _invert_thin_baseline(c0) + HALF_LN_15
        worst_thin = max(worst_thin, abs(relaxed - expected_thin))
    elapsed = time.perf_counter() - start
    ok = (
        worst_cutset <= 1e-12
        and worst_unclipped <= 1e-12
        and worst_thin <= 1e-12
        and elapsed < 1.0
    )
    assert _line(
        "01",
        ok,
        f"fig2 deviations cutset={worst_cutset:.2e} unclipped={worst_unclipped:.2e} "
        f"thin={worst_thin:.2e} in {elapsed:.3f}s",
    )


def test_criterion_2_fig1_reproduction():
    start = time.perf_counter()
    table = emit_fig1_curves(3.0, 512)
    worst_thin = 0.0
    thick_below_thin = True
    for h1, thin, thick in table.rows:
        worst_thin = max(worst_thin, abs(thin - (2.0 * h1 + math.sqrt(2.0 * h1))))
        thick_below_thin &= thick <= thin + 1e-12
    # the thick curve parametrically: h1(r) = r - 0.5*ln(1+2r) must invert back
    worst_thick = 0.0
    for r in np.linspace(1e-4, 4.1, 400):
        h1 = r - 0.5 * math.log1p(2.0 * r)
        if h1 > 3.0:
            break
        worst_thick = max(worst_thick, abs(lemma3_h2max(h1) - r))
    elapsed = time.perf_counter() - start
    ok = worst_thin <= 1e-12 and worst_thick <= 1e-8 and thick_below_thin and elapsed < 1.0
    assert _line(
        "02",
        ok,
        f"fig1 thin dev={worst_thin:.2e} thick dev={worst_thick:.2e} "
        f"thick<=thin={thick_below_thin} in {elapsed:.3f}s",
    )


def test_criterion_3_closed_vs_variational():
    start = time.perf_counter()
    grid = np.logspace(-8, 2, 41)
    worst_gauss = max(abs(gauss_gap_closed(h) - gauss_gap_variational(h)) for h in grid)
    worst_bdd = max(
        abs(bdd_gap_closed(h, a) - bdd_gap_variational(h, a))
        for a in (1.01, 1.5, 2.0, 5.0, 50.0)
        for h in grid
    )
    elapsed = time.perf_counter() - start
    ok = worst_gauss <= 1e-8 and worst_bdd <= 1e-8 and elapsed < 5.0
    assert _line(
        "03",
        ok,
        f"gauss dev={worst_gauss:.2e} bounded-density dev={worst_bdd:.2e} in {elapsed:.3f}s",
    )


def test_criterion_4_strict_improvement():
    grid = np.logspace(math.log10(1.000001e-6), 2, 200)
    strict = all(gauss_gap_closed(h) < gauss_gap_relaxed(h) for h in grid)
    margin = min(gauss_gap_relaxed(h) - gauss_gap_closed(h) for h in grid)
    assert _line("04", strict, f"closed < relaxed on grid h>1e-6, min margin={margin:.2e}")


def test_criterion_5_asymptotics():
    r_small = gauss_gap_closed(1e-8) / math.sqrt(2e-8)
    r_large = gauss_gap_closed(1e6) / 1e6
    r_imp_small = lemma3_h2max(1e-8) / 1e-4
    r_imp_large = lemma3_h2max(1e6) / 1e6
    ok_a = 1.0 <= r_small <= 1.01
    ok_b = 1.0 <= r_large <= 1.01
    ok_c = 0.99 <= r_imp_small <= 1.01
    ok_d = 1.0 <= r_imp_large <= 1.01
    _line("05a", ok_a, f"gauss small-h ratio={r_small!r} required [1.0, 1.01]")
    _line("05b", ok_b, f"gauss large-h ratio={r_large!r} required [1.0, 1.01]")
    _line("05c", ok_c, f"implicit small-h ratio={r_imp_small!r} required [0.99, 1.01]")
    _line("05d", ok_d, f"implicit large-h ratio={r_imp_large!r} required [1.0, 1.01]")
    names = ("05a", "05b", "05c", "05d")
    failed = [name for name, ok in zip(names, (ok_a, ok_b, ok_c, ok_d)) if not ok]
    assert not failed, f"criterion 5 sub-checks failed: {', '.join(failed)}"


def test_criterion_6_borell_equality_case():
    rng = np.random.default_rng(20240806)
    worst_eq = 0.0
    all_signs = True
    for _ in range(100):
        lam = float(rng.uniform(0.1, 2.0)) * (1.0 if rng.random() < 0.5 else -1.0)
        x = float(rng.uniform(-3.0, 3.0))
        q = float(rng.uniform(-2.0, 0.8))
        p = float(rng.uniform(q + 0.05, min(q + 2.0, 0.999)))
        t_critical = borell_critical_time(p, q)
        worst_eq = max(worst_eq, abs(check_borell_exponential(lam, x, p, q, t_critical)))
        all_signs &= check_borell_exponential(lam, x, p, q, 1.1 * t_critical) > 0.0
        all_signs &= check_borell_exponential(lam, x, p, q, 0.9 * t_critical) < 0.0
    ok = worst_eq <= 1e-12 and all_signs
    assert _line(
        "06", ok, f"critical-time |margin| max={worst_eq:.2e}, signs at 1.1t/0.9t ok={all_signs}"
    )


def test_criterion_7_mossel_suite():
    start = time.perf_counter()
    records = mossel_suite(10_000, 20250810)
    elapsed = time.perf_counter() - start
    min_margin = min(r.margin for r in records)
    ok = min_margin >= -1e-12 and elapsed < 30.0
    assert _line(
        "07", ok, f"10^4 instances, min margin={min_margin:.2e} in {elapsed:.1f}s"
    )


def test_criterion_8_relay_oracle():
    records = relay_oracle_suite(200, 18)
    min_margin = min(r.margin for r in records)
    ok = all(r.margin >= -1e-9 for r in records)
    assert _line("08", ok, f"200 relay instances, min c_alpha(h1)-h2 = {min_margin:.2e}")


def test_criterion_9_quantizer_oracle():
    rng = np.random.default_rng(909)
    worst_gap = worst_log = math.inf
    ok = True
    for _ in range(50):
        k = int(rng.integers(2, 5))
        xs = np.sort(rng.uniform(-3.0, 3.0, size=k))
        while np.any(np.diff(xs) < 1e-3):
            xs = np.sort(rng.uniform(-3.0, 3.0, size=k))
        taus = np.sort(rng.uniform(-3.0, 3.0, size=int(rng.integers(1, 4))))
        while np.any(np.diff(taus) < 1e-3):
            taus = np.sort(rng.uniform(-3.0, 3.0, size=taus.size))
        h1, h2 = gaussian_quantizer_gap(xs, taus)
        gap_margin = gauss_gap_closed(h1) + 1e-6 - h2
        log_margin = 0.5 * math.log1p(2.0 * h2) + 1e-6 - (h2 - h1)
        worst_gap = min(worst_gap, gap_margin)
        worst_log = min(worst_log, log_margin)
        ok &= gap_margin >= 0.0 and log_margin >= 0.0
    assert _line(
        "09", ok, f"50 quantizers, slack gap={worst_gap:.2e} log={worst_log:.2e}"
    )


# How far a simplex-grid maximum may sit below the true one at the step
# counts of criterion 10 (5.5e-6 at most on its draws)
GRID_ALLOWANCE = 1e-5


def test_criterion_10_bound_dominance():
    pytest.importorskip("mpmath")
    rng = np.random.default_rng(1010)
    ok_gauss = True
    for _ in range(100):
        params = GaussianRelayParams(
            power=float(rng.uniform(0.02, 20.0)),
            noise=1.0,
            relay_rate=float(rng.uniform(0.0, 3.0)),
        )
        rep = report(params)
        l2 = rep.lemma2_bound
        rl = rep.relaxed_baseline
        cs = rep.cutset
        l3 = rep.lemma3_bound
        ok_gauss &= l2 <= rl + 1e-12 and rl <= cs + 1e-12 and l3 <= cs + 1e-12
    # dmc: each certificate sits above its grid maximum by at most the grid
    # allowance, so cor2_bound exceeds the grid's cutset maximum by no more
    ok_dmc, below = True, 0
    for _ in range(50):
        kx = int(rng.integers(2, 4))
        ky = int(rng.integers(2, 5))
        rows = rng.dirichlet(np.ones(ky), size=kx)
        channel = DiscreteChannel(rows / rows.sum(axis=1, keepdims=True))
        c0 = float(rng.uniform(0.01, 1.0))
        rep = capacity_ub_cor2(channel, c0)
        grid_cor2, grid_cutset = grid_relay_bounds(channel, c0, 2000 if kx == 2 else 200)
        ok_dmc &= grid_cor2 <= rep.cor2_bound <= grid_cor2 + GRID_ALLOWANCE
        ok_dmc &= grid_cutset <= rep.cutset <= grid_cutset + GRID_ALLOWANCE
        below += rep.cor2_bound < grid_cutset - GRID_ALLOWANCE
    ok = ok_gauss and ok_dmc
    assert _line(
        "10",
        ok,
        f"gaussian ordering over 100 draws={ok_gauss}, dmc against grid maxima over 50="
        f"{ok_dmc}, strictly below the cutset: {below}",
    )
