"""Tests for the entropy-gap bound functions and their inverses."""

import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import (
    bdd_gap_variational,
    gauss_gap_relaxed,
    gauss_gap_variational,
    lemma3_h2max_all_entries,
    log1p_excess_where,
)
from relay_bounds import gaussian_relay, rhc_verify
from relay_bounds.dmc_relay import DiscreteChannel, InputDistribution, capacity_ub_cor2
from relay_bounds.errors import DomainError
from relay_bounds.rhc_verify import stationary_measure
from relay_bounds.scalar_bounds import (
    RATE_CAP,
    _log1p_excess,
    bdd_gap_closed,
    bdd_gap_inverse,
    gauss_gap_closed,
    gauss_gap_inverse,
    lemma3_gap,
    lemma3_h2max,
    relaxed_gap_inverse,
    require_alpha,
    require_law,
    require_real,
    require_reals,
    require_table,
)

# golden-section value of min_t {t + 0.5/(1 - e^{-2t})}, frozen from the
# variational oracle; analytically ln(phi) + phi/2 with phi the golden ratio
C_AT_HALF = 1.2902288194345508

LOG_GRID = np.logspace(-8, 2, 41)
ALPHAS = (1.01, 1.5, 2.0, 5.0, 50.0)

rates = st.floats(min_value=0.0, max_value=1e3, allow_nan=False, allow_infinity=False)
positive_rates = st.floats(min_value=1e-9, max_value=1e3, allow_nan=False)


class TestGaussGap:
    def test_zero(self):
        assert gauss_gap_closed(0.0) == 0.0

    def test_small_h_matches_sqrt_asymptotic(self):
        h = 1e-8
        assert gauss_gap_closed(h) / math.sqrt(2.0 * h) == pytest.approx(1.0, rel=1e-2)

    def test_frozen_value_at_half(self):
        assert gauss_gap_closed(0.5) == pytest.approx(C_AT_HALF, abs=1e-12)

    @pytest.mark.parametrize("h", [0.5, 1.0, 10.0])
    def test_matches_variational_oracle(self, h):
        assert abs(gauss_gap_closed(h) - gauss_gap_variational(h)) <= 1e-9

    def test_closed_vs_oracle_on_log_grid(self):
        for h in LOG_GRID:
            assert abs(gauss_gap_closed(h) - gauss_gap_variational(h)) <= 1e-8

    def test_variational_zero_is_infimum(self):
        assert gauss_gap_variational(0.0) == 0.0

    @given(rates)
    def test_dominates_identity(self, h):
        assert gauss_gap_closed(h) >= h

    @given(positive_rates)
    def test_below_relaxed(self, h):
        assert gauss_gap_closed(h) < gauss_gap_relaxed(h)

    @given(st.tuples(rates, rates))
    def test_monotone(self, pair):
        a, b = sorted(pair)
        assert gauss_gap_closed(a) <= gauss_gap_closed(b)

    @pytest.mark.parametrize("bad", [-1.0, float("nan"), float("inf"), -1e-12])
    def test_domain_errors(self, bad):
        with pytest.raises(DomainError):
            gauss_gap_closed(bad)

    def test_rate_cap(self):
        with pytest.raises(DomainError):
            gauss_gap_closed(2e15)


class TestRelaxedGap:
    @pytest.mark.parametrize("h,expected", [(0.0, 0.0), (2.0, 4.0), (0.5, 1.5)])
    def test_values(self, h, expected):
        assert gauss_gap_relaxed(h) == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("c0,expected", [(0.0, 0.0), (4.0, 2.0), (1.5, 0.5)])
    def test_inverse_values(self, c0, expected):
        assert relaxed_gap_inverse(c0) == pytest.approx(expected, abs=1e-12)

    @given(rates)
    def test_round_trip(self, h):
        assert relaxed_gap_inverse(gauss_gap_relaxed(h)) == pytest.approx(
            h, abs=1e-9 * max(1.0, h)
        )

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            gauss_gap_relaxed(-0.1)
        with pytest.raises(DomainError):
            relaxed_gap_inverse(-0.1)


class TestGaussGapInverse:
    def test_zero(self):
        assert gauss_gap_inverse(0.0) == 0.0

    def test_round_trip_point(self):
        c = gauss_gap_closed(0.3)
        assert gauss_gap_inverse(c) == pytest.approx(0.3, rel=1e-14)

    def test_residual_at_one(self):
        h = gauss_gap_inverse(1.0)
        assert abs(gauss_gap_closed(h) - 1.0) <= 1e-10

    def test_round_trips_on_grid(self):
        for h in LOG_GRID:
            assert abs(gauss_gap_inverse(gauss_gap_closed(h)) - h) <= 1e-9

    def test_gauss_is_the_alpha_three_halves_case(self):
        # c = c_{3/2}: both the bound and its inverse, bit for bit, across the rate range
        rates = 10.0 ** np.random.default_rng(32).uniform(-300.0, 15.0, 100_000)
        for x in [0.0, RATE_CAP, *rates.tolist()]:
            assert gauss_gap_inverse(x) == bdd_gap_inverse(x, 1.5), x
            assert gauss_gap_closed(x) == bdd_gap_closed(x, 1.5), x


class TestImplicitBound:
    @pytest.mark.parametrize(
        "h2,expected",
        [(0.0, 0.0), (0.5, 0.5 * math.log(2.0)), ((math.e**2 - 1.0) / 2.0, 1.0)],
    )
    def test_gap_values(self, h2, expected):
        assert lemma3_gap(h2) == pytest.approx(expected, abs=1e-12)

    def test_h2max_zero(self):
        assert lemma3_h2max(0.0) == 0.0

    def test_h2max_round_trip(self):
        h1 = 1.0 - 0.5 * math.log(3.0)  # g(1.0)
        assert lemma3_h2max(h1) == pytest.approx(1.0, rel=1e-14)

    def test_h2max_round_trips_on_grid(self):
        for h2 in np.logspace(-6, 3, 31):
            h1 = h2 - 0.5 * math.log1p(2.0 * h2)
            assert abs(lemma3_h2max(h1) - h2) <= 1e-9

    @given(st.tuples(rates, rates))
    def test_monotone(self, pair):
        a, b = sorted(pair)
        assert lemma3_gap(a) <= lemma3_gap(b)
        assert lemma3_h2max(a) <= lemma3_h2max(b) + 1e-10

    def test_large_argument(self):
        # g(h2) = 3 solves near h2 = 3 + 0.5*ln(1+2*h2)
        h2 = lemma3_h2max(3.0)
        assert h2 - 0.5 * math.log1p(2.0 * h2) == pytest.approx(3.0, abs=1e-9)


class TestBddGap:
    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_zero(self, alpha):
        assert bdd_gap_closed(0.0, alpha) == 0.0

    def test_alpha_one_is_identity(self):
        assert bdd_gap_closed(0.7, 1.0) == 0.7
        assert bdd_gap_inverse(0.4, 1.0) == 0.4

    def test_matches_oracle_alpha2(self):
        assert abs(bdd_gap_closed(0.3, 2.0) - bdd_gap_variational(0.3, 2.0)) <= 1e-9

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_closed_vs_oracle_on_log_grid(self, alpha):
        for h in LOG_GRID:
            assert abs(bdd_gap_closed(h, alpha) - bdd_gap_variational(h, alpha)) <= 1e-8

    @pytest.mark.parametrize("h", [1e-3, 1.0, 1e6])
    def test_expansion_continuous_at_rate_cap(self, h):
        # the expansion takes over where h/(2(alpha-1)) leaves the range of c
        eps = h / (2.0 * RATE_CAP)
        direct = bdd_gap_closed(h, 1.0 + eps * 1.001)
        expanded = bdd_gap_closed(h, 1.0 + eps * 0.999)
        assert expanded == pytest.approx(direct, rel=1e-15)
        assert expanded <= direct

    def test_tiny_alpha_minus_one_expansion(self):
        # the expansion branch must stay continuous with the direct formula
        direct = bdd_gap_closed(0.3, 1.0 + 1e-11)
        expanded = bdd_gap_closed(0.3, 1.0 + 1e-13)
        assert direct == pytest.approx(0.3, abs=1e-8)
        assert expanded == pytest.approx(0.3, abs=1e-10)
        assert expanded >= 0.3

    @given(rates, st.floats(min_value=1.0, max_value=1e3, allow_nan=False))
    def test_dominates_identity(self, h, alpha):
        assert bdd_gap_closed(h, alpha) >= h - 1e-12 * max(1.0, h)

    @given(st.tuples(rates, rates), st.sampled_from(ALPHAS))
    def test_monotone_in_h(self, pair, alpha):
        a, b = sorted(pair)
        assert bdd_gap_closed(a, alpha) <= bdd_gap_closed(b, alpha) + 1e-12

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            bdd_gap_closed(-0.1, 2.0)
        with pytest.raises(DomainError):
            bdd_gap_closed(0.1, 0.99)

    @pytest.mark.parametrize("alpha", [math.inf, -math.inf, math.nan])
    def test_alpha_must_be_finite(self, alpha):
        with pytest.raises(DomainError, match=f"alpha must be finite, got {alpha!r}"):
            require_alpha(alpha)


class TestBddGapInverse:
    def test_zero(self):
        assert bdd_gap_inverse(0.0, 3.0) == 0.0

    def test_round_trip_point(self):
        c = bdd_gap_closed(0.2, 3.0)
        assert bdd_gap_inverse(c, 3.0) == pytest.approx(0.2, rel=1e-14)

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_round_trips_on_grid(self, alpha):
        for h in np.logspace(-6, 2, 17):
            c = bdd_gap_closed(h, alpha)
            assert abs(bdd_gap_inverse(c, alpha) - h) <= 1e-9


class TestInverseAccuracy:
    """Relative error of the inverses against 50-digit roots of their defining equations."""

    GRID = np.logspace(-12, 12, 49)
    REL = 4 * 4e-16

    @staticmethod
    def root(f, lo, hi):
        mp = pytest.importorskip("mpmath")
        with mp.workdps(50):
            return mp.findroot(f, (mp.mpf(lo), mp.mpf(hi)), solver="anderson")

    @staticmethod
    def c_mp(h):
        import mpmath as mp

        s = mp.sqrt(h * h + 2 * h)
        return mp.log1p(h + s) / 2 + (h + s) / 2

    def assert_close(self, got, want):
        assert abs(got - want) <= self.REL * abs(want), (got, want)

    def test_gauss_gap_inverse(self):
        for c0 in self.GRID:
            c0 = float(c0)
            want = self.root(lambda h: self.c_mp(h) - c0, 0.0, c0)  # c(h) >= h
            self.assert_close(gauss_gap_inverse(c0), want)

    @pytest.mark.parametrize("alpha", ALPHAS + (1.0 + 1e-13,))
    def test_bdd_gap_inverse(self, alpha):
        import mpmath as mp

        for c0 in self.GRID:
            c0 = float(c0)
            with mp.workdps(50):
                eps = mp.mpf(alpha) - 1
                want = self.root(lambda h: 2 * eps * self.c_mp(h / (2 * eps)) - c0, 0.0, c0)
            self.assert_close(bdd_gap_inverse(c0, alpha), want)

    def test_lemma3_h2max_float_and_array(self):
        import mpmath as mp

        got = lemma3_h2max(self.GRID)
        assert isinstance(got, np.ndarray) and got.shape == self.GRID.shape
        for h1, h2 in zip(self.GRID.tolist(), got.tolist()):
            lo = max(h1, math.sqrt(h1))  # g(h2) = h2 - ln(1+2h2)/2 <= min(h2, h2^2)
            hi = 2.0 * h1 + 2.0 * math.sqrt(h1) + 1.0  # g(hi) >= h1
            want = self.root(lambda x: x - mp.log1p(2 * x) / 2 - h1, lo, hi)
            self.assert_close(h2, want)
            scalar = lemma3_h2max(h1)
            assert isinstance(scalar, float) and scalar == h2

    def test_lemma3_h2max_near_series_switch(self):
        import mpmath as mp

        # v = 2*h2 crosses the series threshold 0.1 of the residual here
        for v in np.linspace(0.02, 0.5, 97).tolist():
            h1 = 0.5 * (v - math.log1p(v))
            want = self.root(lambda x: x - mp.log1p(2 * x) / 2 - h1, math.sqrt(h1), 1.0)
            self.assert_close(lemma3_h2max(h1), want)

    def test_lemma3_h2max_keeps_shape_and_validates(self):
        grid = np.array([[0.0, 0.5], [1.0, 2.0]])
        assert lemma3_h2max(grid).shape == (2, 2)
        assert lemma3_h2max(grid)[0, 0] == 0.0
        for bad in (-1e-3, float("nan"), 2e15):
            with pytest.raises(DomainError):
                lemma3_h2max(np.array([0.1, bad]))


def assert_same_bits(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def either_side(x: float) -> np.ndarray:
    """x, its neighbours within 4 ulps, and x scaled by 1 -/+ 1e-12, 1e-9, 1e-6 and 1e-3."""
    near = [x]
    lo = hi = x
    for _ in range(4):
        lo, hi = math.nextafter(lo, 0.0), math.nextafter(hi, math.inf)
        near += [lo, hi]
    near += [x * (1.0 + s * r) for r in (1e-12, 1e-9, 1e-6, 1e-3) for s in (-1.0, 1.0)]
    return np.array(near)


class TestHalleyLoopOracle:
    """`lemma3_h2max` steps only its moving entries; the loop that steps all agrees bit for bit."""

    @pytest.mark.parametrize("h1_max", [top * s for top in (3.0, 50.0) for s in (0.98, 1.0, 1.02)])
    def test_benchmark_fig1_grids(self, h1_max):
        h1 = h1_max * np.arange(512) / 511
        assert_same_bits(lemma3_h2max(h1), lemma3_h2max_all_entries(h1))

    def test_log_uniform_rates(self):
        rng = np.random.default_rng(2024)
        h1 = np.exp(rng.uniform(math.log(1e-300), math.log(1e15), 100_000))
        assert_same_bits(lemma3_h2max(h1), lemma3_h2max_all_entries(h1))

    def test_either_side_of_the_branch_switches(self):
        # v = 0.1 switches the residual to its series, and y = 2*h1 = 2 the initial guess
        v_switch = 0.5 * (0.1 - math.log1p(0.1))
        h1 = np.concatenate((either_side(v_switch), either_side(1.0), [0.0, RATE_CAP]))
        got = lemma3_h2max(h1)
        assert_same_bits(got, lemma3_h2max_all_entries(h1))
        for x, want in zip(h1.tolist(), got.tolist()):
            assert lemma3_h2max(x) == want

    def test_log1p_excess_equals_both_branches_formed_everywhere(self):
        rng = np.random.default_rng(7)
        v = np.concatenate((
            [0.0, 0.1, RATE_CAP],
            either_side(0.1),
            np.exp(rng.uniform(math.log(1e-300), math.log(1e16), 100_000)),
            rng.uniform(0.0, 0.2, 10_000),
        ))
        assert_same_bits(_log1p_excess(v), log1p_excess_where(v))
        for part in (v[v < 0.1], v[v >= 0.1], v[:0]):
            assert_same_bits(_log1p_excess(part), log1p_excess_where(part))


@pytest.mark.parametrize("fn", [lemma3_gap, relaxed_gap_inverse])
def test_float_or_array_entries_equal_float_calls(fn):
    grid = np.concatenate(([0.0], np.logspace(-12, 15, 55))).reshape(8, 7)
    got = fn(grid)
    assert isinstance(got, np.ndarray) and got.shape == grid.shape
    for x, y in zip(grid.ravel().tolist(), got.ravel().tolist()):
        scalar = fn(x)
        assert isinstance(scalar, float) and scalar == y
    for bad in (-1e-3, math.nan, 2e15):
        with pytest.raises(DomainError):
            fn(np.array([0.1, bad]))


class TestAsymptotics:
    def test_gauss_small_h(self):
        assert gauss_gap_closed(1e-8) / math.sqrt(2e-8) == pytest.approx(1.0, rel=1e-2)

    def test_gauss_large_h(self):
        assert gauss_gap_closed(1e6) / 1e6 == pytest.approx(1.0, rel=1e-2)

    def test_implicit_small_h1(self):
        assert lemma3_h2max(1e-8) / 1e-4 == pytest.approx(1.0, rel=1e-2)

    def test_implicit_large_h1(self):
        assert lemma3_h2max(1e6) / 1e6 == pytest.approx(1.0, rel=1e-2)


# Each law-taking constructor or kernel, as a map from a 3-symbol law to its checked copy.
LAW_TAKERS = {
    "channel rows": lambda law: DiscreteChannel(np.array([law, np.full(3, 1 / 3)])).matrix[0],
    "input law": lambda law: InputDistribution(law).probs,
    "semigroup factor": lambda law: stationary_measure((law,)),
}


class TestLawAndTableChecks:
    @pytest.mark.parametrize("take", LAW_TAKERS.values(), ids=LAW_TAKERS.keys())
    def test_constructors_share_the_law_rule(self, take):
        bad_laws = (
            [math.nan, 0.5, 0.5],
            [-0.25, 0.5, 0.75],
            [1.0 + 5e-13, 0.0, 0.0],  # sums to 1 within 1e-12, but an entry exceeds 1
            [0.25, 0.25, 0.5 + 2e-12],
        )
        for law in bad_laws:
            with pytest.raises(DomainError):
                take(np.array(law))
        law = np.array([0.25, 0.25, 0.5 + 5e-13])
        stored = take(law)
        assert np.array_equal(stored, law)
        law[0] = 0.0
        assert stored[0] == 0.25
        assert not stored.flags.writeable

    @pytest.mark.parametrize("check", [require_law, require_table])
    def test_empty_or_scalar_raise_domain_error(self, check):
        for values in (np.empty(0), np.empty((2, 0)), []):
            with pytest.raises(DomainError):
                check(values)
        with pytest.raises(DomainError):
            require_law(1.0)

    def test_law_checks_every_last_axis_slice(self):
        assert require_law([[0.5, 0.5], [0.0, 1.0]]).shape == (2, 2)
        with pytest.raises(DomainError):
            require_law([[0.5, 0.5], [0.5, 0.6]])

    def test_law_copy_is_c_ordered(self):
        rows = np.random.default_rng(3).dirichlet(np.ones(3), size=3)
        law = require_law(np.asfortranarray(rows))
        assert law.flags.c_contiguous and np.array_equal(law, rows)

    def test_table_rejects_negative_or_non_finite(self):
        table = np.array([[0.0, 2.5], [1e300, 0.1]])
        assert require_table(table) is table
        for bad in (-1e-300, math.nan, math.inf, -math.inf):
            with pytest.raises(DomainError):
                require_table(np.array([1.0, bad]))


BSC = DiscreteChannel(np.array([[0.9, 0.1], [0.1, 0.9]]))

# Calls whose number is not an int or a float: (call, message naming the parameter)
NOT_REAL = {
    "c(True)": (lambda: gauss_gap_closed(True), "h must be a real number, got True"),
    "c('0.5')": (lambda: gauss_gap_closed("0.5"), "h must be a real number, got '0.5'"),
    "c('abc')": (lambda: gauss_gap_closed("abc"), "h must be a real number, got 'abc'"),
    "c(None)": (lambda: gauss_gap_closed(None), "h must be a real number, got None"),
    "c^-1([0.5])": (lambda: gauss_gap_inverse([0.5]), "c0 must be a real number, got [0.5]"),
    "lemma3_h2max('0.5')": (lambda: lemma3_h2max("0.5"), "h1 must be a real number, got '0.5'"),
    "lemma3_gap bools": (
        lambda: lemma3_gap(np.array([True])), "h2 must be a real number, got array([ True])"
    ),
    "relaxed inverse None": (lambda: relaxed_gap_inverse(None), "c0 must be a real number"),
    "c_alpha alpha=True": (lambda: bdd_gap_closed(0.5, True), "alpha must be a real number, got True"),
    "c_alpha^-1 alpha=np.True_": (
        lambda: bdd_gap_inverse(0.5, np.True_), f"alpha must be a real number, got {np.True_!r}"
    ),
    "cor2 c0=True": (lambda: capacity_ub_cor2(BSC, True), "c0 must be a real number, got True"),
    "cor2 alpha_override='2'": (
        lambda: capacity_ub_cor2(BSC, 0.1, alpha_override="2"),
        "alpha_override must be a real number, got '2'",
    ),
    "gaussian power='1'": (
        lambda: gaussian_relay.GaussianRelayParams("1", 1, 0.1),
        "power must be a real number, got '1'",
    ),
    "gaussian relay_rate='0.1'": (
        lambda: gaussian_relay.GaussianRelayParams(1, 1, "0.1"),
        "relay_rate must be a real number, got '0.1'",
    ),
    "fig2 snr=True": (
        lambda: gaussian_relay.emit_fig2_curves(True, 0.3, 8), "snr must be a real number, got True"
    ),
    "borell lam=True": (
        lambda: rhc_verify.check_borell_exponential(True, 0, 0.5, 0, 1),
        "lam must be a real number, got True",
    ),
    "borell p='0.5'": (
        lambda: rhc_verify.check_borell_exponential(1.0, 0.0, "0.5", 0.0, 1.0),
        "p must be a real number, got '0.5'",
    ),
    "borell critical q=None": (
        lambda: rhc_verify.borell_critical_time(0.5, None), "q must be a real number, got None"
    ),
    "mossel critical p='0.5'": (
        lambda: rhc_verify.mossel_critical_time("0.5", 0.0), "p must be a real number, got '0.5'"
    ),
    "lp_norm p=True": (
        lambda: rhc_verify.lp_norm(np.ones(2), np.full(2, 0.5), True),
        "p must be a real number, got True",
    ),
    "ou_apply y='0'": (
        lambda: rhc_verify.ou_apply(np.exp, 0.0, "0", 1.0), "y must be a real number, got '0'"
    ),
    "quantizer thresholds of bools": (
        lambda: rhc_verify.gaussian_quantizer_gap([0.0, 1.0], [True]),
        "thresholds must be a real number, got [True]",
    ),
}

# Calls on ints and floats, each a function of the arguments that the test varies
REAL_CALLS = {
    "c": (gauss_gap_closed, (2,)),
    "c^-1": (gauss_gap_inverse, (2,)),
    "c_alpha": (bdd_gap_closed, (1, 3)),
    "c_alpha^-1": (bdd_gap_inverse, (1, 3)),
    "lemma3_h2max": (lemma3_h2max, (3,)),
    "relaxed inverse": (relaxed_gap_inverse, (3,)),
    "gaussian report": (
        lambda *a: gaussian_relay.report(gaussian_relay.GaussianRelayParams(*a)).best, (2, 1, 1)
    ),
    "borell": (rhc_verify.check_borell_exponential, (1, 0, 0, -1, 1)),
    "borell critical": (rhc_verify.borell_critical_time, (0, -2)),
    "mossel critical": (rhc_verify.mossel_critical_time, (0, -2)),
}


class TestRealNumberRule:
    """One rule for a number: an int or a float, Python's or numpy's, or any other
    numbers.Real, given as itself or as a 0-d array; never a bool, a string or None.
    Every other value raises DomainError naming its parameter, in both forms."""

    @pytest.mark.parametrize("call, message", NOT_REAL.values(), ids=NOT_REAL.keys())
    def test_other_values_raise_domain_error(self, call, message):
        with pytest.raises(DomainError, match=re.escape(message)):
            call()

    @pytest.mark.parametrize(
        "kind", [np.float64, np.float32, np.int64, np.int16, int, Fraction, np.array],
        ids=["float64", "float32", "int64", "int16", "int", "Fraction", "0-d array"],
    )
    @pytest.mark.parametrize("fn, args", REAL_CALLS.values(), ids=REAL_CALLS.keys())
    def test_numpy_and_python_numbers_give_their_float_calls(self, fn, args, kind):
        typed = [kind(a) for a in args]
        assert_same_bits(fn(*typed), fn(*map(float, typed)))

    def test_the_scalar_and_array_forms(self):
        for value in (1, 2.5, np.int32(-3), np.float16(0.5), np.float64(math.nan), Fraction(1, 3),
                      np.array(1.0), np.array(-3), 2**64):
            got = require_real(value, "v")
            assert type(got) is float
            assert_same_bits(got, float(value))
            assert_same_bits(require_reals(value, "v"), float(value))
        for bad in (True, np.False_, "1", None, 1j, [1.0], np.array(True), np.array(Fraction(1, 3))):
            with pytest.raises(DomainError, match=re.escape(f"v must be a real number, got {bad!r}")):
                require_real(bad, "v")
        table = np.arange(6.0).reshape(2, 3)
        assert require_reals(table, "v") is table
        assert require_reals([1, 2], "v").dtype == np.float64
        for bad in ([True, False], ["1"], None, [1j], np.array(True), [Fraction(1, 3)]):
            with pytest.raises(DomainError, match="v must be a real number"):
                require_reals(bad, "v")
