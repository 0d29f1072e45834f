"""Tests for the Gaussian relay capacity bounds and curve emission."""

import math
import re

import numpy as np
import pytest

from oracles import baseline_curve_inverse
from relay_bounds.errors import DomainError
from relay_bounds.gaussian_relay import (
    MAX_POINTS,
    GaussianBoundReport,
    GaussianRelayParams,
    emit_fig1_curves,
    emit_fig2_curves,
    report,
)
from relay_bounds.scalar_bounds import lemma3_gap, lemma3_h2max

HALF_LN_2 = 0.5 * math.log(2.0)  # 0.346574...
HALF_LN_15 = 0.5 * math.log(1.5)  # 0.202733...


def params(snr: float, c0: float) -> GaussianRelayParams:
    return GaussianRelayParams(power=snr, noise=1.0, relay_rate=c0)


def within_ulps(got: float, want: float, n: int) -> bool:
    return abs(got - want) <= n * math.ulp(want)


class TestParams:
    def test_snr_accessor(self):
        p = GaussianRelayParams(power=3.0, noise=2.0, relay_rate=0.1)
        assert p.snr == 1.5

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"power": 0.0, "noise": 1.0, "relay_rate": 0.1},
            {"power": 1.0, "noise": -1.0, "relay_rate": 0.1},
            {"power": 1.0, "noise": 1.0, "relay_rate": -0.1},
            {"power": math.inf, "noise": 1.0, "relay_rate": 0.1},
            # each finite, but the ratio overflows to inf or underflows to 0
            {"power": 1e308, "noise": 1e-10, "relay_rate": 0.1},
            {"power": 1e-300, "noise": 1e100, "relay_rate": 0.1},
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(DomainError):
            GaussianRelayParams(**kwargs)


class TestCutset:
    def test_saturated_branch(self):
        # any relay rate above 0.5*ln(4/3) leaves only the broadcast cut
        assert report(params(0.5, 0.20)).cutset == pytest.approx(HALF_LN_2, abs=1e-15)
        assert report(params(0.5, 0.20)).cutset == pytest.approx(0.346574, abs=1e-5)

    def test_relay_limited_branch(self):
        assert report(params(0.5, 0.1)).cutset == pytest.approx(0.1 + HALF_LN_15, abs=1e-15)
        assert report(params(0.5, 0.1)).cutset == pytest.approx(0.302732, abs=1e-5)

    def test_zero_relay_rate(self):
        assert report(params(3.0, 0.0)).cutset == pytest.approx(0.5 * math.log(4.0), abs=1e-15)


class TestLemma2Bound:
    def test_zero_relay_rate(self):
        assert report(params(2.0, 0.0)).lemma2_bound == pytest.approx(
            0.5 * math.log(3.0), abs=1e-12
        )

    def test_strictly_below_cutset(self):
        p = params(0.5, 0.05)
        assert report(p).lemma2_bound < report(p).cutset

    def test_saturates_at_large_relay_rate(self):
        assert report(params(0.5, 10.0)).lemma2_bound == pytest.approx(HALF_LN_2, abs=1e-12)


class TestLemma3Bound:
    def test_reference_value(self):
        assert report(params(0.5, 0.1)).lemma3_bound == pytest.approx(
            HALF_LN_15 + 0.5 * math.log(1.2), abs=1e-15
        )
        assert report(params(0.5, 0.1)).lemma3_bound == pytest.approx(0.293891, abs=1e-5)

    def test_zero_relay_rate(self):
        assert report(params(1.0, 0.0)).lemma3_bound == pytest.approx(
            0.5 * math.log(2.0), abs=1e-15
        )

    def test_clipped_by_broadcast_cut(self):
        # second branch 0.5*ln(1.5) + 0.5*ln(1.4) ~ 0.371 exceeds the cut
        assert report(params(0.5, 0.2)).lemma3_bound == pytest.approx(HALF_LN_2, abs=1e-15)


class TestRelaxedBound:
    def test_zero_relay_rate(self):
        assert report(params(0.5, 0.0)).relaxed_baseline == pytest.approx(HALF_LN_15, abs=1e-15)

    def test_dominates_lemma2_everywhere(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            p = params(float(rng.uniform(0.05, 10.0)), float(rng.uniform(0.0, 2.0)))
            assert report(p).lemma2_bound <= report(p).relaxed_baseline + 1e-12


class TestReport:
    def test_best_is_lemma3_at_reference_point(self):
        rep = report(params(0.5, 0.1))
        assert rep.best == rep.lemma3_bound
        assert rep.best == pytest.approx(0.293891, abs=1e-5)

    def test_all_bounds_coincide_without_relay(self):
        rep = report(params(0.5, 0.0))
        assert (
            rep.cutset
            == rep.lemma2_bound
            == rep.lemma3_bound
            == rep.relaxed_baseline
            == pytest.approx(HALF_LN_15, abs=1e-15)
        )

    def test_all_bounds_saturate(self):
        rep = report(params(0.5, 0.27))
        assert rep.best == pytest.approx(HALF_LN_2, abs=1e-12)
        assert rep.cutset == rep.lemma2_bound == rep.lemma3_bound == rep.relaxed_baseline

    def test_best_is_the_minimum(self):
        assert GaussianBoundReport(1.0, 0.5, 0.75, 0.6).best == 0.5

    def test_every_field_within_2_ulp_of_its_50_digit_closed_form(self):
        mp = pytest.importorskip("mpmath")
        rng = np.random.default_rng(5)
        snrs = np.exp(rng.uniform(math.log(1e-3), math.log(1e3), 1000))
        c0s = np.exp(rng.uniform(math.log(1e-6), math.log(1e2), 1000))
        with mp.workdps(50):
            for snr, c0 in zip(snrs.tolist(), c0s.tolist()):
                g, c = mp.mpf(snr), mp.mpf(c0)
                cut = mp.log1p(2 * g) / 2
                direct = mp.log1p(g) / 2
                u = mp.lambertw(mp.exp(1 + 2 * c)).real - 1  # u + ln(1+u) = 2*C0
                s = 2 * c / (mp.sqrt(2 + 4 * c) + mp.sqrt(2))  # s^2 + sqrt(2)*s = C0
                exact = {
                    "cutset": direct + c,
                    "lemma2_bound": direct + c - u * u / (2 * (1 + u)),
                    "lemma3_bound": direct + mp.log1p(2 * c) / 2,
                    "relaxed_baseline": direct + c - s * s,
                }
                rep = report(params(snr, c0))
                for field, value in exact.items():
                    want = min(cut, value)
                    got = getattr(rep, field)
                    assert abs(got - want) <= 2 * math.ulp(float(want)), (snr, c0, field)


class TestOrderingAndMonotonicity:
    def test_bound_ordering_random(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            p = params(float(rng.uniform(0.02, 20.0)), float(rng.uniform(0.0, 3.0)))
            rep = report(p)
            l2, rl, cs, l3 = rep.lemma2_bound, rep.relaxed_baseline, rep.cutset, rep.lemma3_bound
            assert l2 <= rl + 1e-12
            assert rl <= cs + 1e-12
            assert l3 <= cs + 1e-12
            assert max(l2, rl, l3, cs) <= 0.5 * math.log1p(2.0 * p.snr) + 1e-12

    def test_monotone_in_relay_rate(self):
        grid = np.linspace(0.0, 2.0, 81)
        reps = [report(params(0.8, c0)) for c0 in grid]
        for field in ("cutset", "lemma2_bound", "lemma3_bound", "relaxed_baseline"):
            values = [getattr(rep, field) for rep in reps]
            assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))


class Test012Baseline:
    def test_baseline_curve_inverse(self):
        # 2r + sqrt(2r) = 0.11 at r = 0.005
        assert baseline_curve_inverse(0.11) == pytest.approx(0.005, abs=1e-15)
        assert baseline_curve_inverse(0.0) == 0.0

    def test_round_trip(self):
        for r in np.linspace(0.0, 0.5, 23):
            c0 = 2.0 * r + math.sqrt(2.0 * r)
            assert baseline_curve_inverse(c0) == pytest.approx(r, abs=1e-12)


class TestFig1Curves:
    def test_structure_and_endpoints(self):
        tbl = emit_fig1_curves(3.0, 4)
        assert tbl.columns == ("h1", "h2_relaxed", "h2_lemma3")
        assert tbl.rows.dtype == np.float64 and tbl.rows.shape == (4, 3)
        assert not tbl.rows.flags.writeable
        assert tuple(tbl.rows[0].tolist()) == (0.0, 0.0, 0.0)
        assert tbl.rows[-1][0] == 3.0
        assert tbl.rows[-1][1] == pytest.approx(6.0 + math.sqrt(6.0), abs=1e-12)

    def test_thick_below_thin(self):
        tbl = emit_fig1_curves(3.0, 200)
        for _, thin, thick in tbl.rows:
            assert thick <= thin + 1e-12

    def test_two_point_grid(self):
        tbl = emit_fig1_curves(3.0, 2)
        assert len(tbl.rows) == 2
        assert tbl.rows[0][0] == 0.0 and tbl.rows[1][0] == 3.0

    @pytest.mark.parametrize("h1_max,n", [(3.0, 512), (2.5, 97)])
    def test_lemma3_column_equals_float_calls(self, h1_max, n):
        tbl = emit_fig1_curves(h1_max, n)
        assert tbl.rows.dtype == np.float64 and tbl.rows.shape == (n, 3)
        assert not tbl.rows.flags.writeable
        for h1, _, thick in tbl.rows.tolist():
            assert thick == lemma3_h2max(h1)

    def test_relaxed_column_matches_per_point_formula(self):
        for i, (h1, thin, _) in enumerate(emit_fig1_curves(3.0, 512).rows):
            assert h1 == 3.0 * i / 511
            assert within_ulps(thin, 2.0 * h1 + math.sqrt(2.0 * h1), 2)

    def test_invalid_grid(self):
        with pytest.raises(DomainError):
            emit_fig1_curves(3.0, 1)
        with pytest.raises(DomainError):
            emit_fig1_curves(0.0, 10)

    def test_point_count_is_capped(self):
        assert MAX_POINTS == 100_000
        message = f"n_points must lie in 2..{MAX_POINTS}, got {MAX_POINTS + 1}"
        with pytest.raises(DomainError, match=re.escape(message)):
            emit_fig1_curves(3.0, MAX_POINTS + 1)
        with pytest.raises(DomainError, match=re.escape(message)):
            emit_fig2_curves(0.5, 0.27, MAX_POINTS + 1)


class TestCurveTable:
    def test_rows_are_one_read_only_float_array(self):
        for emit in (lambda: emit_fig1_curves(3.0, 97), lambda: emit_fig2_curves(0.5, 0.27, 97)):
            tbl = emit()
            assert tbl.rows.dtype == np.float64 and tbl.rows.shape == (97, len(tbl.columns))
            with pytest.raises(ValueError, match="read-only"):
                tbl.rows[0, 0] = 1.0
            # eq=False: the array field compares and hashes by identity
            other = emit()
            assert (tbl == other) is False and tbl != other
            assert tbl == tbl
            assert len({tbl}) == 1 and len({tbl, other}) == 2
        h1, _, thick = emit_fig1_curves(3.0, 97).rows.T
        assert thick.tobytes() == lemma3_h2max(h1).tobytes()


class TestFig2Curves:
    def test_structure(self):
        tbl = emit_fig2_curves(0.5, 0.27, 8)
        assert tbl.columns == ("c0", "cutset", "relaxed", "lemma2", "lemma3", "lemma3_unclipped")
        first = tbl.rows[0]
        assert first[0] == 0.0
        for value in first[1:]:
            assert value == pytest.approx(HALF_LN_15, abs=1e-15)

    def test_cutset_saturation_region(self):
        tbl = emit_fig2_curves(0.5, 0.27, 64)
        for row in tbl.rows:
            c0, cutset = row[0], row[1]
            if c0 >= 0.5 * math.log(4.0 / 3.0):
                assert cutset == pytest.approx(HALF_LN_2, abs=1e-15)

    def test_reference_value_in_lemma3_column(self):
        tbl = emit_fig2_curves(0.5, 0.2, 3)
        mid = tbl.rows[1]  # c0 = 0.1
        assert mid[0] == pytest.approx(0.1, abs=1e-15)
        assert mid[4] == pytest.approx(0.293891, abs=1e-5)

    def test_columns_monotone_in_c0(self):
        tbl = emit_fig2_curves(0.5, 0.27, 128)
        for col in range(1, 6):
            values = [row[col] for row in tbl.rows]
            assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("snr,c0_max,n", [(0.5, 0.27, 512), (0.4, 0.3, 512), (3.0, 2.0, 65)])
    def test_lemma2_column_equals_scalar_bound(self, snr, c0_max, n):
        for row in emit_fig2_curves(snr, c0_max, n).rows:
            assert row[3] == report(params(snr, row[0])).lemma2_bound

    @pytest.mark.parametrize("snr,c0_max,n", [(0.5, 0.27, 512), (0.4, 0.3, 512), (3.0, 2.0, 65)])
    def test_columns_match_per_point_formulas(self, snr, c0_max, n):
        direct = 0.5 * math.log1p(snr)
        tbl = emit_fig2_curves(snr, c0_max, n)
        assert tbl.rows.dtype == np.float64 and tbl.rows.shape == (n, 6)
        assert not tbl.rows.flags.writeable
        for i, row in enumerate(tbl.rows.tolist()):
            c0 = row[0]
            assert c0 == c0_max * i / (n - 1)
            rep = report(params(snr, c0))
            assert (row[1], row[4]) == (rep.cutset, rep.lemma3_bound)
            assert within_ulps(row[2], direct + c0 - baseline_curve_inverse(c0), 2)
            assert row[5] == direct + lemma3_gap(c0)
