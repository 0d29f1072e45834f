"""Tests for semigroup operators, norm inequalities, and entropy-gap oracles."""

import math
import re
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    borell_suite_per_instance,
    k_ary_symmetric,
    lemma4_suite_per_instance,
    lp_norm_mp,
    mossel_q0_suite_per_instance,
    mossel_suite_per_instance,
    ou_q0_suite_per_instance,
    quantizer_suite_per_instance,
    relay_code,
    relay_entropy_gap_mp,
    semigroup_suite_per_instance,
    semisimple_dense,
    stream,
)
from relay_bounds import rhc_verify
from relay_bounds.dmc_relay import DiscreteChannel, InputDistribution
from relay_bounds.errors import DimensionError, DomainError
from relay_bounds.rhc_verify import (
    SUITES,
    apply_semisimple,
    borell_critical_time,
    borell_suite,
    brute_force_entropy_gap,
    check_borell_exponential,
    check_mossel,
    check_ou_q0,
    gaussian_quantizer_gap,
    lp_norm,
    mossel_critical_time,
    mossel_q0_margin,
    mossel_q0_suite,
    mossel_suite,
    ou_apply,
    ou_q0_suite,
    quantizer_oracle_suite,
    relay_oracle_suite,
    semigroup_suite,
    stationary_measure,
)
from relay_bounds.scalar_bounds import bdd_gap_closed, gauss_gap_closed, require_law

# The fair coin's factors, and the time at which e^{-t} = 1/2
FAIR_COIN, LN2 = (np.array([0.5, 0.5]),), math.log(2.0)


def trapezoid(step):
    """The trapezoid rule against N(0, 1) at this step over [-9, 9]: nodes, and
    weights phi(v) normalized to sum to 1."""
    nodes = np.arange(-round(9.0 / step), round(9.0 / step) + 1) * step
    weights = np.exp(-0.5 * nodes * nodes)
    return nodes, weights / weights.sum()


def use_trapezoid(monkeypatch, step):
    """Patch the trapezoid rule at this step in for the module's one rule."""
    nodes, weights = trapezoid(step)
    monkeypatch.setattr(rhc_verify, "_GRID", nodes)
    monkeypatch.setattr(rhc_verify, "_GRID_WEIGHTS", weights)


def random_semigroup(rng, n=None, t=None):
    """n factor laws (1..3 drawn unless given) over one drawn 2..4 symbols, and a time."""
    n = n or int(rng.integers(1, 4))
    k = int(rng.integers(2, 5))
    t = float(rng.uniform(0.0, 3.0)) if t is None else t
    return tuple(rng.dirichlet(np.ones(k)) for _ in range(n)), t


def table_shape(factors):
    return tuple(len(d) for d in factors)


# Each semigroup kernel as a call on (factors, time); the table is never reached
# when the semigroup is rejected.  stationary_measure takes no time.
SEMIGROUP_KERNELS = {
    "apply_semisimple": apply_semisimple,
    "stationary_measure": lambda factors, time, f: stationary_measure(factors),
    "check_mossel": lambda factors, time, f: check_mossel(factors, time, f, 0.5, 0.5),
    "mossel_q0_margin": mossel_q0_margin,
}
TIMED_KERNELS = {k: v for k, v in SEMIGROUP_KERNELS.items() if k != "stationary_measure"}
each_kernel = pytest.mark.parametrize("kernel", SEMIGROUP_KERNELS.values(), ids=SEMIGROUP_KERNELS)
each_timed_kernel = pytest.mark.parametrize("kernel", TIMED_KERNELS.values(), ids=TIMED_KERNELS)


class TestTypes:
    @each_kernel
    def test_semigroup_validation(self, kernel):
        f = np.full(2, 0.5)
        with pytest.raises(DomainError, match="factor 0 must sum to 1"):
            kernel((np.array([0.6, 0.6]),), 1.0, f)
        with pytest.raises(DomainError, match=re.escape("at most 4 tensor factors")):
            kernel(tuple(np.full(2, 0.5) for _ in range(5)), 1.0, f)

    @each_timed_kernel
    def test_semigroup_time_validation(self, kernel):
        for bad in (-0.1, math.nan):
            with pytest.raises(DomainError, match=re.escape(f"time must be >= 0, got {bad!r}")):
                kernel((np.array([0.5, 0.5]),), bad, np.full(2, 0.5))

    @each_timed_kernel
    @pytest.mark.parametrize(
        "bad, stack",
        [("0.5", ()), (True, ()), (np.array([True, False]), (2,)), (None, ())],
        ids=["str", "bool", "bool-array", "None"],
    )
    def test_semigroup_time_must_be_real(self, kernel, bad, stack):
        factors, f = (np.full(stack + (2,), 0.5),), np.full(stack + (2,), 0.5)
        with pytest.raises(DomainError, match=re.escape(f"time must be a real number, got {bad!r}")):
            kernel(factors, bad, f)

    @each_timed_kernel
    def test_integer_times_act_as_their_floats(self, kernel):
        f = np.array([0.25, 0.75])
        for t in (1, np.int64(1), np.uint8(1)):
            assert _bits(kernel(FAIR_COIN, t, f)) == _bits(kernel(FAIR_COIN, 1.0, f))

    def test_quadrature_constants(self):
        nodes, weights = rhc_verify._GRID, rhc_verify._GRID_WEIGHTS
        assert nodes.shape == weights.shape == (73,)
        assert not nodes.flags.writeable and not weights.flags.writeable
        assert weights.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(weights >= 0.0)
        # second moment of a standard normal
        assert float(weights @ nodes**2) == pytest.approx(1.0, abs=1e-12)

    def test_trapezoid_grid(self):
        nodes, weights = trapezoid(0.25)
        assert _bits(rhc_verify._GRID) == _bits(nodes) and nodes[0] == -9.0 and nodes[-1] == 9.0
        assert _bits(rhc_verify._GRID_WEIGHTS) == _bits(weights)
        assert np.all(np.diff(nodes) == 0.25)

    def test_array_dataclasses_compare_and_hash_by_identity(self):
        w = np.array([[0.9, 0.1], [0.2, 0.8]])

        def build():
            return [DiscreteChannel(w), InputDistribution(np.array([0.3, 0.7]))]

        for a, b in zip(build(), build()):
            assert (a == b) is False and a != b
            assert a == a
            assert len({a}) == 1 and len({a, b}) == 2


# Each input check that valid calls never reach: (call, error, message).
INVALID_CALLS = {
    **{
        f"{name} without factors": (
            lambda kernel=kernel: kernel((), 1.0, np.full(2, 0.5)),
            DomainError, "semigroup needs at least one factor",
        )
        for name, kernel in SEMIGROUP_KERNELS.items()
    },
    **{
        f"{name} on an empty array": (
            lambda kernel=kernel: kernel(np.empty((0, 2)), 1.0, np.full(2, 0.5)),
            DomainError, "semigroup needs at least one factor",
        )
        for name, kernel in SEMIGROUP_KERNELS.items()
    },
    "lp_norm shapes": (
        lambda: lp_norm(np.ones(3), np.full(2, 0.5), 0.5),
        DimensionError, "function shape (3,) != measure shape (2,)",
    ),
    "lp_norm index shape": (
        lambda: lp_norm(np.ones((2, 2)), np.full((2, 2), 0.5), np.array([0.5, 0.5, 0.5])),
        DimensionError, "indices of shape (3,) do not fit tables (2, 2)",
    ),
    "lp_norm measure sum": (
        lambda: lp_norm(np.ones(2), np.array([0.5, 0.6]), 0.5),
        DomainError, "measure must sum to 1",
    ),
    "lp_norm index above 1": (
        lambda: lp_norm(np.ones(2), np.full(2, 0.5), 1.5),
        DomainError, "norm index must be finite and <= 1, got 1.5",
    ),
    "lp_norm negative f": (
        lambda: lp_norm(np.array([-1.0, 1.0]), np.full(2, 0.5), 0.5),
        DomainError, "f must be a nonempty table of finite nonnegative entries",
    ),
    "lp_norm negative measure": (
        lambda: lp_norm(np.ones(2), np.array([-0.5, 1.5]), 0.5),
        DomainError, "measure must be a nonempty table of finite nonnegative entries",
    ),
    "check_mossel below the critical time": (
        lambda: check_mossel(FAIR_COIN, 0.5, np.ones(2), 0.5, 0.0),
        DomainError, f"time 0.5 is below the critical time {LN2!r}",
    ),
    "check_mossel p >= 1": (
        lambda: check_mossel(FAIR_COIN, LN2, np.ones(2), 1.5, 0.5),
        DomainError, "need finite q <= p < 1, got p=1.5, q=0.5",
    ),
    "check_mossel index shape": (
        lambda: check_mossel(FAIR_COIN, LN2, np.ones(2), np.array([0.5, 0.5]), 0.5),
        DimensionError, "expected a float or an array of shape (), got (2,)",
    ),
    "check_mossel table shape": (
        lambda: check_mossel(FAIR_COIN, LN2, np.ones(3), 0.5, 0.5),
        DimensionError, "table shape (3,) does not match (2,)",
    ),
    "check_mossel negative f": (
        lambda: check_mossel(FAIR_COIN, LN2, np.array([-1.0, 1.0]), 0.5, 0.5),
        DomainError, "table must be a nonempty table of finite nonnegative entries",
    ),
    "ou_apply t=-1": (
        lambda: ou_apply(np.exp, 0.0, 0.0, -1.0), DomainError, "time must be >= 0, got -1.0"
    ),
    "ou_apply t=nan": (
        lambda: ou_apply(np.exp, 0.0, 0.0, math.nan), DomainError, "time must be >= 0, got nan"
    ),
    "borell q=p": (
        lambda: check_borell_exponential(1.0, 0.0, 0.5, 0.5, 1.0),
        DomainError, "need q < p < 1, got p=0.5, q=0.5",
    ),
    "borell q>p": (
        lambda: check_borell_exponential(1.0, 0.0, 0.2, 0.7, 1.0),
        DomainError, "need q < p < 1, got p=0.2, q=0.7",
    ),
    "borell t<0": (
        lambda: check_borell_exponential(1.0, 0.0, 0.5, -0.5, -0.1),
        DomainError, "time must be >= 0, got -0.1",
    ),
    "borell critical q=p": (
        lambda: borell_critical_time(0.5, 0.5), DomainError, "need q < p < 1, got p=0.5, q=0.5"
    ),
    "borell critical q>p": (
        lambda: borell_critical_time(0.2, 0.7), DomainError, "need q < p < 1, got p=0.2, q=0.7"
    ),
    "quantizer empty": (
        lambda: gaussian_quantizer_gap([], []),
        DomainError, "constellation must be a nonempty finite vector",
    ),
    "quantizer inf": (
        lambda: gaussian_quantizer_gap([0.0, math.inf], [0.0]),
        DomainError, "constellation must be a nonempty finite vector",
    ),
    "quantizer nan": (
        lambda: gaussian_quantizer_gap([[0.0, math.nan]], [[0.0]]),
        DomainError, "constellation must be a nonempty finite vector",
    ),
}


@pytest.mark.parametrize("call, error, message", INVALID_CALLS.values(), ids=INVALID_CALLS.keys())
def test_invalid_input_raises_its_message(call, error, message):
    with pytest.raises(error, match=re.escape(message)), np.errstate(over="ignore"):
        call()


class TestSemigroupAction:
    def test_identity_when_time_is_zero(self):
        f = np.array([1.0, 0.0])
        out = apply_semisimple(FAIR_COIN, 0.0, f)
        assert np.array_equal(out, f)

    def test_full_averaging_limit(self):
        f = np.array([1.0, 0.0])
        out = apply_semisimple(FAIR_COIN, 1e3, f)
        assert np.allclose(out, 0.5, atol=1e-12)

    def test_half_mix_example(self):
        # e^{-t} = 1/2 mixes (1, 0) into (3/4, 1/4) under the fair coin
        f = np.array([1.0, 0.0])
        out = apply_semisimple(FAIR_COIN, LN2, f)
        assert np.allclose(out, [0.75, 0.25], atol=1e-15)

    def test_an_array_of_laws_is_one_factor_per_row(self):
        f = np.array([[1.0, 0.25], [0.0, 0.5]])
        laws = np.full((2, 2), 0.5)
        got = apply_semisimple(laws, 1.0, f)
        assert _bits(got) == _bits(apply_semisimple(tuple(laws), 1.0, f))

    def test_unital_and_positive(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            factors, t = random_semigroup(rng)
            ones = np.ones(table_shape(factors))
            assert np.allclose(apply_semisimple(factors, t, ones), 1.0, atol=1e-12)
            f = rng.random(table_shape(factors))
            assert np.all(apply_semisimple(factors, t, f) >= 0.0)

    def test_semigroup_law(self):
        rng = np.random.default_rng(6)
        for _ in range(25):
            factors, _ = random_semigroup(rng)
            t1, t2 = rng.uniform(0.0, 2.0, size=2)
            f = rng.random(table_shape(factors))
            two = apply_semisimple(factors, t1, apply_semisimple(factors, t2, f))
            one = apply_semisimple(factors, t1 + t2, f)
            assert np.allclose(two, one, atol=1e-12)

    def test_stationarity(self):
        rng = np.random.default_rng(8)
        for _ in range(25):
            factors, t = random_semigroup(rng)
            mu = stationary_measure(factors)
            f = rng.random(table_shape(factors))
            before = float((mu * f).sum())
            after = float((mu * apply_semisimple(factors, t, f)).sum())
            assert after == pytest.approx(before, abs=1e-12)

    @pytest.mark.parametrize("t", [0.0, 0.3, 5.0, 50.0])
    def test_matches_dense_oracle(self, t):
        rng = np.random.default_rng(int(t * 10))
        for _ in range(30):
            n = int(rng.integers(1, 5))
            factors = tuple(rng.dirichlet(np.ones(int(rng.integers(2, 7)))) for _ in range(n))
            f = rng.random(table_shape(factors))
            want = semisimple_dense(factors, t) @ f.ravel()
            got = apply_semisimple(factors, t, f)
            np.testing.assert_allclose(got.ravel(), want, rtol=1e-14, atol=0.0)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            apply_semisimple(FAIR_COIN, LN2, np.ones(3))

    def test_rejects_bad_tables(self):
        for table in ([1.0, -0.5], [1.0, math.nan], [1.0, math.inf]):
            with pytest.raises(DomainError):
                apply_semisimple(FAIR_COIN, LN2, np.array(table))
        with pytest.raises(DimensionError):
            apply_semisimple(FAIR_COIN, LN2, np.ones((2, 2)))

    def test_leaves_argument_unchanged(self):
        rng = np.random.default_rng(9)
        for t in (0.0, 0.7):
            factors, _ = random_semigroup(rng, n=3, t=t)
            f = rng.random(table_shape(factors))
            before = f.copy()
            out = apply_semisimple(factors, t, f)
            assert out is not f
            assert np.array_equal(f, before)

    def test_a_table_at_the_float_maximum_stays_there(self):
        # rounding took this smoothing of a finite table to inf
        factors, t = (np.array([0.761919682243704, 0.23808031775629612]),), 2.1334286339692494
        top = np.finfo(float).max
        assert apply_semisimple(factors, t, np.full(2, top)).tolist() == [top, top]
        # p = q on a constant table: both norms are the constant
        assert check_mossel(factors, t, np.full(2, top), 0.5, 0.5) == 0.0

    @settings(max_examples=100, deadline=None)
    @given(
        shape=st.lists(st.integers(2, 6), min_size=1, max_size=4),
        top=st.floats(2.0**1000, np.finfo(float).max),
        spread=st.sampled_from([0.0, 1e-15]) | st.floats(0.0, 1.0),
        zeros=st.booleans(),
        time=st.sampled_from([0.0, 1e3]) | st.floats(0.0, 5.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_tables_near_the_float_maximum_stay_within_their_range(
        self, shape, top, spread, zeros, time, seed
    ):
        rng = np.random.default_rng(seed)
        factors = tuple(rng.dirichlet(np.ones(k)) for k in shape)
        f = top * (1.0 - spread * rng.random(shape))
        if zeros:
            f[rng.random(shape) < 0.1] = 0.0
        f.flat[rng.integers(f.size)] = top
        out = apply_semisimple(factors, time, f)
        assert np.isfinite(out).all()
        if top > 2.0**1023:  # smoothed at half scale and clipped to the range of f
            assert f.min() <= out.min() and out.max() <= top
        else:  # smoothed as it is: rounding may leave the range by a few ulp
            eps = 64 * np.finfo(float).eps
            assert f.min() * (1.0 - eps) <= out.min() and out.max() <= top * (1.0 + eps)
        # in a stack, a row far below the float maximum is smoothed as its own call smooths it
        table = np.stack([f, f * 2.0**-200])
        laws = tuple(np.stack([d, d]) for d in factors)
        rows = apply_semisimple(laws, np.full(2, time), table)
        assert _bits(rows[0]) == _bits(out)
        assert _bits(rows[1]) == _bits(apply_semisimple(factors, time, table[1]))


class TestLpNorm:
    MU = np.array([0.5, 0.5])

    @pytest.mark.parametrize("p", [1.0, 0.5, 0.0, -1.0, -2.0])
    def test_constants(self, p):
        f = np.full(2, 0.7)
        assert lp_norm(f, self.MU, p) == pytest.approx(0.7, rel=1e-12)

    def test_p1_is_expectation(self):
        f = np.array([0.2, 0.8])
        assert lp_norm(f, self.MU, 1.0) == pytest.approx(0.5, abs=1e-15)

    def test_geometric_mean(self):
        f = np.array([math.e, math.e**3])
        assert lp_norm(f, self.MU, 0.0) == pytest.approx(math.e**2, rel=1e-12)

    def test_zero_conventions(self):
        f = np.array([0.0, 1.0])
        assert lp_norm(f, self.MU, 0.0) == 0.0
        assert lp_norm(f, self.MU, -0.5) == 0.0
        assert lp_norm(f, self.MU, 0.5) == pytest.approx(0.25, abs=1e-15)

    def test_zero_off_support_ignored(self):
        f = np.array([0.0, 2.0])
        mu = np.array([0.0, 1.0])
        assert lp_norm(f, mu, 0.0) == pytest.approx(2.0, rel=1e-12)

    def test_rejects_p_above_one(self):
        with pytest.raises(DomainError):
            lp_norm(np.ones(2), self.MU, 1.5)

    @pytest.mark.parametrize("p", [-math.inf, math.nan])
    def test_rejects_non_finite_p(self, p):
        with pytest.raises(DomainError, match="finite and <= 1"):
            lp_norm(np.ones(2), self.MU, p)

    @pytest.mark.parametrize(
        "value, p",
        [
            (0.01, -200.0),  # vals**p overflows to inf
            (10.0, -400.0),  # vals**p underflows to 0
            (1e-5, -5000.0),
        ],
    )
    def test_large_negative_index_of_a_constant(self, value, p):
        f = np.full(4, value)
        assert lp_norm(f, np.full(4, 0.25), p) == pytest.approx(value, rel=1e-12)

    def test_large_negative_index_tends_to_the_minimum(self):
        f = np.array([0.01, 0.02, 0.5, 3.0])
        mu = np.array([0.1, 0.2, 0.3, 0.4])
        got = lp_norm(f, mu, -800.0)
        assert got == pytest.approx(0.01 * 0.1 ** (-1.0 / 800.0), rel=1e-12)

    @pytest.mark.parametrize("p", [1e-10, -1e-10, 1e-14, -1e-14, 1e-300, -1e-300, 5e-324])
    def test_index_near_zero(self, p):
        # ||f||_p = exp(E[ln f] + p Var(ln f) / 2 + O(p^2)) as p -> 0
        f, mu = np.array([0.5, 2.0, 1.3]), np.array([0.2, 0.5, 0.3])
        logs = np.log(f)
        mean = float(np.dot(mu, logs))
        var = float(np.dot(mu, (logs - mean) ** 2))
        got = lp_norm(f, mu, p)
        assert got == pytest.approx(math.exp(mean + p * var / 2.0), rel=4e-15, abs=0.0)
        if abs(p) <= 1e-14:  # p Var(ln f) / 2 is below 4e-15
            assert got == pytest.approx(1.331962519898846, rel=4e-15, abs=0.0)
        assert lp_norm(f, mu, 0.0) == pytest.approx(1.331962519898846, rel=4e-15, abs=0.0)

    def test_norm_far_from_its_scale(self):
        # e^{L/p} leaves the float range here, while s * e^{L/p} does not
        pytest.importorskip("mpmath")
        for f in ([1e-300, 1e300, 1.0], [1e-300, 1e-300, 1e300], [5e-324, 1.7e308, 1.0]):
            f, mu = np.array(f), np.array([0.2, 0.5, 0.3])
            for p in (-1e-3, -1e-8, -1e-300, 1e-300, 1e-3):
                want = float(lp_norm_mp(f, mu, p))
                assert lp_norm(f, mu, p) == pytest.approx(want, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize(
        "p", [1.0, 0.5, 0.1, 1e-3, 1e-8, 0.0, -1e-8, -0.5, -1.0, -2.0, -50.0, -800.0]
    )
    def test_matches_a_50_digit_oracle(self, p):
        mpmath = pytest.importorskip("mpmath")
        for seed in range(200):
            rng = np.random.default_rng((7, seed))
            shape = tuple(rng.integers(2, 5, size=int(rng.integers(1, 4))))
            mu = np.ones(1)
            for k in shape:
                mu = np.multiply.outer(mu, rng.dirichlet(np.ones(k))).ravel()
            f = rng.random(shape)
            if rng.random() < 0.25:
                f = np.where(rng.random(shape) < 0.3, 0.0, f)
            if rng.random() < 0.25:
                f = f * rng.uniform(0.5, 2.0)
            got, want = lp_norm(f, mu.reshape(shape), p), lp_norm_mp(f, mu, p)
            support = f.ravel()[mu > 0.0]
            s = support.max() if p > 0.0 else support.min() if p < 0.0 else 1.0
            # One rounding in L moves the norm s * exp(L / p) by |L / p| =
            # |ln(norm / s)| roundings; a zero of f at a small p > 0 makes that
            # large (about 600 at p = 1e-3).  Below the least normal float a
            # float holds fewer digits.
            spread = abs(float(mpmath.log(want / s))) if want > 0 else 0.0
            allowed = 4e-15 * max(1.0, spread / 4.0) * max(want, sys.float_info.min)
            assert abs(mpmath.mpf(got) - want) <= allowed, (seed, got, want)

    def test_rejects_bad_measure(self):
        with pytest.raises(DomainError):
            lp_norm(np.ones(2), np.array([0.5, 0.6]), 0.5)
        with pytest.raises(DomainError):
            lp_norm(np.ones(2), np.array([-0.5, 1.5]), 0.5)

    @pytest.mark.parametrize("p", [0.5, 0.0, -1.0])
    def test_rejects_negative_or_non_finite_function(self, p):
        for bad in (-1.0, math.nan, math.inf):
            with pytest.raises(DomainError):
                lp_norm(np.array([bad, 1.0]), self.MU, p)


class TestMossel:
    def test_constant_margin_zero(self):
        f = np.full(2, 0.3)  # log 3 is the critical time for (p, q) = (0.5, -0.5)
        assert check_mossel(FAIR_COIN, math.log(3.0), f, 0.5, -0.5) == pytest.approx(0.0, abs=1e-14)

    def test_precondition_violation(self):
        f = np.ones(2)
        with pytest.raises(DomainError):
            check_mossel(FAIR_COIN, 0.01, f, 0.5, -0.5)  # below critical time
        with pytest.raises(DomainError):
            check_mossel(FAIR_COIN, LN2, f, 1.5, 0.5)  # p >= 1

    def test_random_suite_margins(self):
        records = mossel_suite(800, 20240811)
        assert all(r.passed for r in records)
        assert min(r.margin for r in records) >= -1e-12

    def test_suite_exercises_boundaries(self):
        records = mossel_suite(400, 7)
        criticals = [r for r in records if r.instance["t"] == r.instance["critical"]]
        jensen = [r for r in records if r.instance["p"] == r.instance["q"]]
        assert criticals and jensen

    def test_jensen_baseline_any_time(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            factors, t = random_semigroup(rng)
            f = rng.random(table_shape(factors))
            p = float(rng.uniform(0.05, 0.95))
            assert check_mossel(factors, t, f, p, p) >= -1e-12

    def test_jensen_baseline_full_averaging(self):
        # t -> infinity limit is the conditional-expectation operator
        rng = np.random.default_rng(14)
        for _ in range(25):
            factors, t = random_semigroup(rng, t=50.0)
            f = rng.random(table_shape(factors))
            p = float(rng.uniform(0.05, 0.95))
            assert check_mossel(factors, t, f, p, p) >= -1e-12

    def test_q0_margin(self):
        records = mossel_q0_suite(300, 99)
        assert all(r.passed for r in records)

    def test_q0_rejects_f_above_one_before_smoothing(self, monkeypatch):
        def fail(*args):
            raise AssertionError("a rejected table was smoothed")

        monkeypatch.setattr(rhc_verify, "_smooth", fail)
        with pytest.raises(DomainError, match=re.escape("f taking values in [0, 1]")):
            mossel_q0_margin(FAIR_COIN, LN2, np.array([0.5, 1.5]))

    @pytest.mark.parametrize(
        "margin",
        [
            lambda factors, f: check_mossel(factors, 1.5, f, 0.5, -0.5),
            lambda factors, f: mossel_q0_margin(factors, 1.0, f),
        ],
        ids=["check_mossel", "mossel_q0_margin"],
    )
    def test_margins_check_each_law_once(self, monkeypatch, margin):
        checked = []

        def counting(values, name="law"):
            checked.append(name)
            return require_law(values, name)

        monkeypatch.setattr(rhc_verify, "require_law", counting)
        factors, _ = random_semigroup(np.random.default_rng(3), n=3)
        margin(factors, np.full(table_shape(factors), 0.5))
        assert checked == ["factor 0", "factor 1", "factor 2"]

    def test_q0_all_ones_is_tight(self):
        assert mossel_q0_margin(FAIR_COIN, LN2, np.ones(2)) == pytest.approx(0.0, abs=1e-12)

    def test_determinism(self):
        a = mossel_suite(50, 3)
        b = mossel_suite(50, 3)
        assert [r.margin for r in a] == [r.margin for r in b]

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"p": 0.5}, "p and q"),
            ({"q": 0.2}, "p and q"),
            ({"t": "bogus"}, "t must be None, 'critical' or a number"),
            ({"n": 0}, "n must lie in 1..4, got 0"),
            ({"n": 5}, "n must lie in 1..4, got 5"),
            ({"n": 2.5}, "n must lie in 1..4"),
            ({"n": True}, "n must lie in 1..4, got True"),
            ({"n": np.True_}, "n must lie in 1..4, got np.True_"),
            ({"t": True, "p": 0.5, "q": 0.5}, "t must be None, 'critical' or a number, got True"),
            ({"t": 0.5}, "a numeric t needs p and q"),
            ({"t": 0.5, "p": 0.5, "q": 0.0}, "below the critical time"),
            ({"t": math.nan, "p": 0.5, "q": 0.0}, "below the critical time"),
            ({"p": 0.5, "q": -math.inf}, "need finite q <= p < 1"),
            ({"p": 0.3, "q": 0.5}, "need finite q <= p < 1"),
        ],
    )
    def test_bad_keywords_raise_before_any_draw(self, monkeypatch, kwargs, message):
        def no_draw(*args, **kw):
            raise AssertionError("mossel_suite drew an instance")

        monkeypatch.setattr(rhc_verify, "_random_semigroup", no_draw)
        with pytest.raises(DomainError, match=re.escape(message)):
            mossel_suite(3, 1, **kwargs)

    def test_instances_above_the_cap_raise_before_any_draw(self, monkeypatch):
        def no_draw(*args, **kw):
            raise AssertionError("mossel_suite drew an instance")

        monkeypatch.setattr(rhc_verify, "_random_semigroup", no_draw)
        cap = rhc_verify.MAX_INSTANCES
        assert cap == 100_000
        with pytest.raises(DomainError, match=f"at most {cap} instances per suite, got {cap + 1}"):
            mossel_suite(cap + 1, 0)
        for suite in SUITES.values():
            with pytest.raises(DomainError, match="instances per suite"):
                suite(cap + 1, 0)

    def test_fixed_norm_indices_are_used(self):
        records = mossel_suite(20, 1, p=0.5, q=-800.0)
        assert {(r.instance["p"], r.instance["q"]) for r in records} == {(0.5, -800.0)}
        assert all(r.passed for r in records)


class TestOuAction:
    def test_unital(self):
        assert ou_apply(lambda u: np.ones_like(u), 1.2, -0.7, 0.5) == pytest.approx(
            1.0, abs=1e-14
        )

    def test_time_zero(self):
        assert ou_apply(lambda u: u**2, 0.3, 2.0, 0.0) == pytest.approx(4.0, abs=1e-12)

    @pytest.mark.parametrize("lam", [-2.0, -0.5, 1.0, 2.0])
    def test_exponential_closed_form(self, lam):
        x, y, t = 0.4, -0.3, 0.8
        got = ou_apply(lambda u: np.exp(lam * u), x, y, t)
        mean = math.exp(-t) * y + (1.0 - math.exp(-t)) * x
        expected = math.exp(lam * mean + lam * lam * (1.0 - math.exp(-2.0 * t)) / 2.0)
        assert got == pytest.approx(expected, abs=1e-8)

    def test_ou_q0_margins(self):
        records = ou_q0_suite(30, 12)
        assert all(r.passed for r in records)

    @pytest.mark.parametrize("shape", [(), (5,), (3, 4)])
    def test_array_y_matches_float_calls(self, shape):
        def f(u):
            return 0.1 + 0.9 / (1.0 + np.exp(-1.7 * (u - 0.2)))

        ys = np.random.default_rng(3).uniform(-3.0, 3.0, size=shape)
        got = ou_apply(f, 0.4, ys, 0.8)
        assert np.shape(got) == shape
        for idx in np.ndindex(shape):
            assert np.asarray(got)[idx] == ou_apply(f, 0.4, float(ys[idx]), 0.8)
        assert type(ou_apply(f, 0.4, 0.5, 0.8)) is float

    @pytest.mark.parametrize("size", [73, 145])
    def test_matches_one_dot_per_point(self, size, monkeypatch):
        if size != 73:
            use_trapezoid(monkeypatch, 0.125)
        nodes, weights = rhc_verify._GRID, rhc_verify._GRID_WEIGHTS
        assert len(nodes) == size

        def f(u):
            return 0.05 + 0.95 / (1.0 + np.exp(-2.3 * (u + 0.4)))

        x, t = -0.6, 0.35
        ys = np.random.default_rng(size).uniform(-4.0, 4.0, size=(7, 11))
        got = ou_apply(f, x, ys, t)
        sd = math.sqrt(-math.expm1(-2.0 * t))
        for idx in np.ndindex(ys.shape):
            mean = math.exp(-t) * float(ys[idx]) + -math.expm1(-t) * x
            assert got[idx] == np.dot(weights, f(mean + sd * nodes))

    def test_ou_q0_rejects_bad_inputs(self):
        with pytest.raises(DomainError):
            check_ou_q0(lambda u: np.minimum(np.abs(u), 1.0), 0.0, 0.0)

    @pytest.mark.parametrize("low, high", [(0.5, 1.5), (-0.2, 0.9), (0.5, math.nan)])
    def test_ou_q0_rejects_f_outside_unit_interval(self, low, high):
        # the mean of np.where(u > 0, 1.5, 0.5) lies in [0, 1]; its values do not
        with pytest.raises(DomainError):
            check_ou_q0(lambda u: np.where(u > 0.0, high, low), 0.0, 0.5)


class TestExpect:
    """`_expect` sums each row of a stack as np.dot(_GRID_WEIGHTS, row) sums
    it, bit for bit: rows of the grid the suites run (73 nodes) and of its
    halved step (145 nodes)."""

    @pytest.mark.parametrize("m", [73, 145])
    @pytest.mark.parametrize("rows", [1, 2, 37, 300])
    def test_rows_equal_their_own_dot(self, m, rows, monkeypatch):
        if m != 73:
            use_trapezoid(monkeypatch, 0.125)
        weights = rhc_verify._GRID_WEIGHTS
        assert weights.size == m
        rng = np.random.default_rng(1000 * m + rows)
        values = rng.normal(size=(rows, m)) * 10.0 ** rng.integers(-5, 6, size=(rows, 1))
        got = rhc_verify._expect(values)
        assert got.shape == (rows,)
        assert _bits(got) == _bits([np.dot(weights, row) for row in values])
        assert _bits(rhc_verify._expect(values.reshape(1, rows, m))) == _bits([got])
        one = rhc_verify._expect(values[0])
        assert one.shape == () and _bits([one]) == _bits(got[:1])


class TestBorell:
    def test_zero_at_critical_time(self):
        for p, q in [(0.5, -0.5), (0.9, 0.1), (-0.2, -1.7)]:
            t = borell_critical_time(p, q)
            assert abs(check_borell_exponential(1.3, 0.7, p, q, t)) <= 1e-12

    def test_sign_characterizes_time(self):
        p, q = 0.4, -0.8
        t = borell_critical_time(p, q)
        assert check_borell_exponential(1.0, 0.0, p, q, 1.1 * t) > 0.0
        assert check_borell_exponential(1.0, 0.0, p, q, 0.9 * t) < 0.0

    def test_lambda_zero(self):
        assert check_borell_exponential(0.0, 2.0, 0.5, -0.5, 3.0) == 0.0

    def test_monotone_in_time(self):
        p, q = 0.3, -0.4
        ts = np.linspace(0.0, 2.0, 40)
        margins = [check_borell_exponential(1.0, 0.5, p, q, t) for t in ts]
        assert all(b >= a for a, b in zip(margins, margins[1:]))

    def test_suite(self):
        at_critical = borell_suite(100, 1)
        assert max(abs(r.margin) for r in at_critical) <= 1e-12
        assert all(r.margin > 0 for r in borell_suite(100, 1, t_factor=1.1))
        assert all(r.margin < 0 for r in borell_suite(100, 1, t_factor=0.9))


BSC = k_ary_symmetric(2, 0.2).matrix


class TestBruteForceGap:
    def test_single_cell_partition(self):
        bsc = k_ary_symmetric(2, 0.1).matrix
        assert brute_force_entropy_gap(bsc, ((0, 1), (1, 0)), np.zeros(4, dtype=int)) == (0.0, 0.0)

    def test_noiseless_identity_partition(self):
        h1, h2 = brute_force_entropy_gap(np.eye(2), ((0, 0), (1, 1)), np.arange(4))
        assert h1 == 0.0
        assert h2 == 0.0

    def test_bsc_blocklength_two(self):
        bsc = k_ary_symmetric(2, 0.1).matrix
        h1, h2 = brute_force_entropy_gap(bsc, ((0, 0), (1, 1)), np.array([0, 0, 1, 1]))
        assert 0.0 < h1 < h2  # relay message noisier at the destination
        assert h2 <= bdd_gap_closed(h1, 1.8)

    def test_repeated_codewords_merge(self):
        pytest.importorskip("mpmath")
        bsc = k_ary_symmetric(2, 0.3).matrix
        code = (bsc, ((0,), (0,), (1,)), np.array([0, 1]))
        h1, h2 = brute_force_entropy_gap(*code)
        # the oracle conditions on the two distinct codewords, with masses 2/3 and 1/3
        want = relay_entropy_gap_mp(*code)
        assert abs(h1 - want[0]) <= 1e-15 and abs(h2 - want[1]) <= 1e-15
        assert h1 > 0.0 and h2 > 0.0

    def test_oracle_suite(self):
        records = relay_oracle_suite(200, 2024)
        assert all(r.passed for r in records)
        assert min(r.margin for r in records) >= -1e-9

    def test_matches_a_50_digit_oracle(self):
        pytest.importorskip("mpmath")
        records = relay_oracle_suite(320, 12345)
        for r in records:
            h1, h2 = relay_entropy_gap_mp(*relay_code(12345, r.index))
            assert abs(r.instance["h1"] - h1) <= 1e-15, r
            assert abs(r.instance["h2"] - h2) <= 1e-15, r

    def test_one_occupied_cell_gives_exact_zeros(self):
        # the relay message is then constant: H(I|X^n) = H(I|Y^n) = 0, and
        # c_alpha has infinite slope at 0, so a rounding residue in h1 alone
        # would show in the margin 1e8 times enlarged
        single = 0
        for seed in (12345, 1, 7):
            for r in relay_oracle_suite(1000, seed):
                if len(set(relay_code(seed, r.index)[2].tolist())) == 1:
                    single += 1
                    got = (r.instance["h1"], r.instance["h2"], r.margin)
                    assert _bits(got) == _bits([0.0, 0.0, 0.0]), r
        assert single > 800
        # the first such code of the default seed, in a call of its own
        codes = (relay_code(12345, i) for i in range(1000))
        w, book, part = next(code for code in codes if len(set(code[2].tolist())) == 1)
        h1, h2 = brute_force_entropy_gap(w, book, part)
        assert _bits([h1, h2]) == _bits([0.0, 0.0])

    def test_rejects_invalid_codes(self):
        with pytest.raises(DomainError):
            brute_force_entropy_gap(BSC, ((0, 5),), np.zeros(4, dtype=int))
        with pytest.raises(DomainError):
            brute_force_entropy_gap(BSC, ((0, 1),), np.zeros(3, dtype=int))
        with pytest.raises(DomainError):
            brute_force_entropy_gap(BSC, ((0, 1, 0, 1),), np.zeros(16, dtype=int))
        # a cell label must lie below the number of relay observations (4 here)
        with pytest.raises(DomainError):
            brute_force_entropy_gap(BSC, ((0, 1),), np.array([0, 1, 2, 4]))
        # a fractional symbol or cell label is rejected, not truncated to another code
        with pytest.raises(DomainError):
            brute_force_entropy_gap(BSC, ((0.9, 1.7),), np.array([0, 1, 2, 3]))
        with pytest.raises(DomainError):
            brute_force_entropy_gap(BSC, ((0, 1),), np.array([0.5, 1.9, 2.2, 3.99]))
        # the top label 3 is accepted: I = Z^2 has entropy 2 H(0.2), given X^2 or Y^2
        h = -0.2 * math.log(0.2) - 0.8 * math.log(0.8)
        got = brute_force_entropy_gap(BSC, ((0, 1),), np.array([0, 1, 2, 3]))
        assert got == (pytest.approx(h, abs=1e-15), pytest.approx(h, abs=1e-15))
        # lengths are checked before symbols, with the same messages
        with pytest.raises(DomainError, match="share one blocklength"):
            brute_force_entropy_gap(BSC, ((0, 1), (0.5,)), np.zeros(4, dtype=int))
        with pytest.raises(DomainError, match="codeword symbols must be integers"):
            brute_force_entropy_gap(BSC, ((0, 1), (0.5, 1)), np.zeros(4, dtype=int))
        with pytest.raises(DomainError, match="index the 2-ary input alphabet"):
            brute_force_entropy_gap(BSC, ((0, 1), (-1, 1)), np.zeros(4, dtype=int))
        with pytest.raises(DomainError, match="1..8 messages"):
            brute_force_entropy_gap(BSC, np.zeros((9, 1), dtype=int), np.zeros(2, dtype=int))
        # the channel is checked as DiscreteChannel checks it
        with pytest.raises(DomainError, match="sum to 1"):
            brute_force_entropy_gap([[0.5, 0.6], [0.5, 0.5]], ((0,),), np.zeros(2, dtype=int))
        with pytest.raises(DomainError, match="at least 2x2"):
            brute_force_entropy_gap([[0.5, 0.5]], ((0,),), np.zeros(2, dtype=int))
        # a stack needs a codebook and a partition per channel
        stack = np.stack([BSC, BSC])
        with pytest.raises(DomainError, match="does not fit"):
            brute_force_entropy_gap(stack, ((0,),), np.zeros((2, 2), dtype=int))
        with pytest.raises(DomainError, match="each of the 2 relay observations"):
            brute_force_entropy_gap(stack, np.zeros((2, 1, 1), dtype=int), np.zeros(2, dtype=int))

    def test_accepts_bool_and_integral_float_codes(self):
        w, part = BSC.copy(), np.array([0, 1, 1, 0])
        book = np.array([[True, False], [True, True]])
        got = brute_force_entropy_gap(w, book, part)
        assert got == brute_force_entropy_gap(BSC, ((1, 0), (1, 1)), [0, 1, 1, 0])
        # the caller's arrays are neither changed nor frozen
        assert w.flags.writeable and book.flags.writeable and part.flags.writeable
        assert (w == BSC).all() and part.tolist() == [0, 1, 1, 0] and book[0, 0]
        flags = brute_force_entropy_gap(BSC, ((0.0, 1.0),), np.array([True, False, True, True]))
        assert flags == brute_force_entropy_gap(BSC, ((0, 1),), np.array([1, 0, 1, 1]))


class TestQuantizerGap:
    def test_single_cell(self):
        h1, h2 = gaussian_quantizer_gap([-1.0, 1.0], [])
        assert h1 == 0.0 and h2 == 0.0

    def test_separated_constellation_determines_cell(self):
        h1, h2 = gaussian_quantizer_gap([-8.0, 8.0], [0.0])
        assert h1 <= 1e-10 and h2 <= 1e-10

    def test_unit_constellation_inequalities(self):
        h1, h2 = gaussian_quantizer_gap([-1.0, 1.0], [0.0])
        assert h2 <= gauss_gap_closed(h1) + 1e-6
        assert h2 - h1 <= 0.5 * math.log1p(2.0 * h2) + 1e-6

    def test_exact_h1(self):
        h1, _ = gaussian_quantizer_gap([-1.0, 1.0], [0.0])
        miss = 0.5 * math.erfc(1.0 / math.sqrt(2.0))
        expected = -miss * math.log(miss) - (1 - miss) * math.log(1 - miss)
        assert h1 == pytest.approx(expected, abs=1e-14)

    def test_quadrature_convergence(self, monkeypatch):
        coarse = gaussian_quantizer_gap([-1.0, 0.5, 2.0], [-0.3, 1.0])
        use_trapezoid(monkeypatch, 0.125)
        fine = gaussian_quantizer_gap([-1.0, 0.5, 2.0], [-0.3, 1.0])
        assert abs(coarse[1] - fine[1]) <= 1e-9

    def test_threshold_validation(self):
        with pytest.raises(DomainError):
            gaussian_quantizer_gap([-1.0, 1.0], [0.5, 0.5])

    def test_oracle_suite(self):
        records = quantizer_oracle_suite(50, 77)
        assert all(r.passed for r in records)


class TestStructuralSuite:
    def test_semigroup_suite(self):
        records = semigroup_suite(150, 5)
        assert all(r.passed for r in records)

    def test_checks_each_law_once_per_shape_group(self, monkeypatch):
        checked = []

        def counting(values, name="law"):
            checked.append(name)
            return require_law(values, name)

        monkeypatch.setattr(rhc_verify, "require_law", counting)
        records = semigroup_suite(300, 4)
        # the groups of one block, in the order their first draws come
        groups = dict.fromkeys((r.instance["n"], r.instance["alphabet"]) for r in records)
        assert len(groups) > 1
        assert checked == [f"factor {i}" for n, _ in groups for i in range(n)]


def _stacked_factors(rng, shape, n_rows):
    """Factor laws of a stack of n_rows semigroups of one table shape, and each row's own."""
    factors = tuple(rng.dirichlet(np.ones(k), size=n_rows) for k in shape)
    return factors, [tuple(d[b] for d in factors) for b in range(n_rows)]


def _bits(x) -> bytes:
    return np.asarray(x, dtype=float).tobytes()


PER_INSTANCE = {
    mossel_suite: mossel_suite_per_instance,
    mossel_q0_suite: mossel_q0_suite_per_instance,
    borell_suite: borell_suite_per_instance,
    ou_q0_suite: ou_q0_suite_per_instance,
    relay_oracle_suite: lemma4_suite_per_instance,
    quantizer_oracle_suite: quantizer_suite_per_instance,
    semigroup_suite: semigroup_suite_per_instance,
}


class TestStacks:
    @settings(max_examples=60, deadline=None)
    @given(
        shape=st.lists(st.integers(2, 6), min_size=1, max_size=4),
        times=st.lists(
            st.sampled_from([0.0, 1e3]) | st.floats(0.0, 5.0), min_size=1, max_size=8
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_semigroup_stack_matches_its_rows_bit_for_bit(self, shape, times, seed):
        rng = np.random.default_rng(seed)
        factors, rows = _stacked_factors(rng, shape, len(times))
        f = rng.random((len(times), *shape))
        smoothed = apply_semisimple(factors, np.array(times), f)
        mu = stationary_measure(factors)
        assert smoothed.shape == mu.shape == f.shape == (len(times), *shape)
        for b, row in enumerate(rows):
            assert _bits(smoothed[b]) == _bits(apply_semisimple(row, times[b], f[b]))
            assert _bits(mu[b]) == _bits(stationary_measure(row))

    @settings(max_examples=60, deadline=None)
    @given(
        k=st.integers(2, 4),
        n_taus=st.integers(0, 3),
        n_rows=st.integers(1, 8),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_quantizer_stack_matches_its_rows_bit_for_bit(self, k, n_taus, n_rows, seed):
        rng = np.random.default_rng(seed)
        xs = np.sort(rng.uniform(-3.0, 3.0, size=(n_rows, k)), axis=1)
        taus = np.sort(rng.uniform(-3.0, 3.0, size=(n_rows, n_taus)), axis=1)
        h1, h2 = gaussian_quantizer_gap(xs, taus)
        assert h1.shape == h2.shape == (n_rows,)
        for b in range(n_rows):
            one = gaussian_quantizer_gap(xs[b], taus[b])
            assert all(type(h) is float for h in one)
            assert _bits([h1[b], h2[b]]) == _bits(one)
        if n_taus == 0:
            assert not h1.any() and not h2.any()

    @each_kernel
    def test_rejects_a_bad_row_law(self, kernel):
        with pytest.raises(DomainError, match="factor 0 must sum to 1"):
            kernel((np.array([[0.5, 0.5], [0.6, 0.6]]),), np.array([1.0, 1.0]), np.ones((2, 2)))

    @each_kernel
    def test_rejects_factor_stacks_of_different_depth(self, kernel):
        for factors in [
            (np.full((2, 2), 0.5), np.full((3, 2), 0.5)),
            (np.full((2, 2), 0.5), np.full(2, 0.5)),
            (np.full((2, 2, 2), 0.5),),
        ]:
            with pytest.raises(DomainError, match="stacks of them of one depth"):
                kernel(factors, np.ones(2), np.ones((2, 2)))

    @each_timed_kernel
    def test_rejects_a_time_array_for_one_semigroup(self, kernel):
        for time in ([0.5], np.array([0.5])):
            with pytest.raises(DimensionError, match=re.escape("time shape (1,) does not match")):
                kernel((np.array([0.5, 0.5]),), time, np.full(2, 0.5))

    @each_timed_kernel
    def test_rejects_times_that_do_not_fit_the_stack(self, kernel):
        factors, f = (np.full((2, 3), 1.0 / 3.0),), np.full((2, 3), 0.5)
        for time in (np.ones(3), np.ones((2, 1)), 1.0, np.ones(5)):
            with pytest.raises(DimensionError, match="does not match the stack"):
                kernel(factors, time, f)
        for time in ([1.0, -1.0], [math.nan, 1.0]):
            with pytest.raises(DomainError, match=re.escape(f"time must be >= 0, got {time!r}")):
                kernel(factors, time, f)
        # a list that fits the stack is taken as its array
        want = kernel(factors, np.array([2.0, 3.0]), f)
        assert _bits(kernel(factors, [2.0, 3.0], f)) == _bits(want)

    def test_rejects_a_table_stack_of_the_wrong_shape(self):
        factors, _ = _stacked_factors(np.random.default_rng(1), (2, 3), 2)
        for shape in [(2, 3), (3, 2, 3), (2, 3, 2), (1, 2, 3)]:
            with pytest.raises(DimensionError):
                apply_semisimple(factors, np.array([0.5, 1.0]), np.ones(shape))

    def test_margin_stacks_match_their_rows_bit_for_bit(self):
        rng = np.random.default_rng(11)
        # (p, q): a zero of f at p <= 0, p = 0, a moment out of range at q = -800,
        # numpy's sqrt and reciprocal exponents 0.5 and -1, and the Jensen baseline
        pairs = [(-0.5, -1.0), (0.0, -0.5), (0.0, 0.0), (0.5, -800.0), (0.5, -1.0),
                 (0.5, 0.5), (-1.0, -1.0), (0.9, -1.7), (0.99, 0.3), (0.5, -800.0)]
        p, q = np.array(pairs).T
        times = [mossel_critical_time(a, b) * 1.3 for a, b in pairs]
        times[3] = mossel_critical_time(0.5, -800.0)
        factors, rows = _stacked_factors(rng, (3, 2), len(times))
        f = rng.uniform(0.01, 0.5, size=(len(pairs), 3, 2))
        f[0, 1, 0] = f[1, 2, 1] = f[6, 0, 0] = 0.0
        margins = check_mossel(factors, np.array(times), f, p, q)
        assert margins.shape == (len(pairs),)
        for b, row in enumerate(rows):
            one = check_mossel(row, times[b], f[b], pairs[b][0], pairs[b][1])
            assert _bits(margins[b]) == _bits(one)
        smoothed = apply_semisimple(factors, np.array(times), f)
        mu = stationary_measure(factors)
        big = np.array([0.01, 1e4])  # f**-800 overflows, then underflows
        for table in (f, smoothed, np.broadcast_to(big[None, None, :], f.shape)):
            for index in (p, q, np.linspace(-2.0, 1.0, len(pairs))):
                norms = lp_norm(table, mu, index)
                for b in range(len(pairs)):
                    assert _bits(norms[b]) == _bits(lp_norm(table[b], mu[b], float(index[b])))
        # one float index for the whole stack, and the q = 0 margin
        for a, b in [(0.5, -1.0), (0.5, -800.0), (0.0, -0.5)]:
            got = check_mossel(factors, np.full(len(pairs), 10.0), f, a, b)
            assert [_bits(x) for x in got] == [
                _bits(check_mossel(row, 10.0, f[i], a, b)) for i, row in enumerate(rows)
            ]
        ones = np.where(f > 0.3, 1.0, f)
        got = mossel_q0_margin(factors, np.abs(times) + 0.1, ones)
        for b, row in enumerate(rows):
            one = mossel_q0_margin(row, abs(times[b]) + 0.1, ones[b])
            assert _bits(got[b]) == _bits(one)

    @settings(max_examples=40, deadline=None)
    @given(
        shape=st.lists(st.integers(2, 6), min_size=1, max_size=3),
        pairs=st.lists(
            st.lists(st.sampled_from([0.5, -1.0, 0.0, -800.0, 1e-300, -1e-300])
                     | st.floats(-3.0, 0.99),
                     min_size=2, max_size=2),
            min_size=1, max_size=8,
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_mossel_stack_matches_its_rows_bit_for_bit(self, shape, pairs, seed):
        rng = np.random.default_rng(seed)
        p, q = np.max(pairs, axis=1), np.min(pairs, axis=1)
        times = [mossel_critical_time(a, b) * rng.uniform(1.0, 2.0) for a, b in zip(p, q)]
        factors, rows = _stacked_factors(rng, shape, len(times))
        f = rng.random((len(pairs), *shape))
        f[rng.random(f.shape) < 0.1] = 0.0
        margins = check_mossel(factors, np.array(times), f, p, q)
        g = 0.01 + 0.99 * f
        q0 = mossel_q0_margin(factors, np.array(times) + 0.1, g)
        for b, row in enumerate(rows):
            one = check_mossel(row, times[b], f[b], float(p[b]), float(q[b]))
            assert _bits(margins[b]) == _bits(one)
            assert _bits(q0[b]) == _bits(mossel_q0_margin(row, float(times[b]) + 0.1, g[b]))

    def test_margin_stacks_with_a_zero_in_the_measure(self):
        laws = np.array([[0.0, 0.4, 0.6], [0.2, 0.3, 0.5], [0.5, 0.5, 0.0]])
        factors = (laws, laws[::-1].copy())
        rows = [(laws[b], laws[2 - b]) for b in range(3)]
        f = np.random.default_rng(2).uniform(0.0, 1.0, size=(3, 3, 3))
        f[:, 0, 0] = 0.0
        mu = stationary_measure(factors)
        for p in ([0.5, 0.0, -2.0], [-1.0, -0.3, 0.7]):
            norms = lp_norm(f, mu, np.array(p))
            want = [_bits(lp_norm(f[b], mu[b], pb)) for b, pb in enumerate(p)]
            assert [_bits(x) for x in norms] == want
        got = mossel_q0_margin(factors, np.full(3, 0.8), f)
        want = [_bits(mossel_q0_margin(row, 0.8, f[b])) for b, row in enumerate(rows)]
        assert [_bits(x) for x in got] == want
        # off the support f**p overflows, and must not reach the norm
        f0, mu0 = np.array([[1e-10, 0.5, 2.0]]), np.array([[0.0, 0.5, 0.5]])
        assert lp_norm(f0, mu0, np.array([-50.0]))[0] == lp_norm(f0[0, 1:], mu0[0, 1:], -50.0)
        # a zero of the measure drops out of the sum, as it does off the support:
        # both margins match 50-digit sums over the support alone
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(5)
        mu1 = rng.dirichlet(np.ones(216))
        mu1[::7] = 0.0
        mu1 /= mu1.sum()
        f1 = rng.uniform(0.1, 2.0, size=216)
        for p in (0.3, -1.3, 0.7, -0.2):
            want = lp_norm_mp(f1, mu1, p)
            got = lp_norm(f1, mu1, p)
            assert lp_norm(f1[None], mu1[None], np.array([p]))[0] == got
            assert abs(got - want) <= 4e-15 * want
        for _ in range(8):
            law = rng.dirichlet(np.ones(6))
            law[rng.integers(0, 6)] = 0.0
            pair = (law / law.sum(), law[::-1] / law.sum())
            f2 = rng.uniform(0.0, 1.0, size=table_shape(pair))
            mu2 = stationary_measure(pair).ravel()
            support = mu2 > 0.0
            with mpmath.workdps(50):
                w = [mpmath.mpf(float(v)) for v in mu2[support]]
                mass = mpmath.fsum(w)
                smoothed = apply_semisimple(pair, 0.7, f2).ravel()[support]
                lhs = mpmath.fsum(a * mpmath.log(float(v)) for a, v in zip(w, smoothed)) / mass
                mean = mpmath.fsum(a * float(v) for a, v in zip(w, f2.ravel()[support])) / mass
                penalty = (1 + 1 / mpmath.mpf(0.7)) * mpmath.log(min(mean, 1))
                got = mossel_q0_margin(pair, 0.7, f2)
                assert abs(got - (lhs - penalty)) <= 4e-15 * (abs(lhs) + abs(penalty))

    def test_margin_stacks_check_every_row(self):
        factors, _ = _stacked_factors(np.random.default_rng(1), (2,), 2)
        times, f = np.array([0.5, 1.0]), np.full((2, 2), 0.5)
        with pytest.raises(DomainError, match="below the critical time"):
            check_mossel(factors, times, f, 0.5, np.array([0.2, -5.0]))
        with pytest.raises(DomainError, match="need finite q <= p < 1"):
            check_mossel(factors, times, f, np.array([0.5, 0.1]), 0.2)
        with pytest.raises(DimensionError):
            check_mossel(factors, times, f, np.array([0.5, 0.5, 0.5]), 0.2)
        with pytest.raises(DomainError, match="f taking values in"):
            mossel_q0_margin(factors, times, np.array([[0.5, 0.5], [0.5, 1.5]]))
        with pytest.raises(DomainError, match="positive mass"):
            mossel_q0_margin(factors, times, np.array([[0.5, 0.5], [0.0, 0.0]]))
        with pytest.raises(DomainError, match="t > 0"):
            mossel_q0_margin(factors, [1.0, 0.0], f)
        mu = stationary_measure(factors)
        with pytest.raises(DomainError, match="finite and <= 1, got 1.5"):
            lp_norm(f, mu, np.array([0.5, 1.5]))
        for index in (np.ones((2, 1)), np.ones(3)):
            with pytest.raises(DimensionError):
                lp_norm(f, mu, index)
        with pytest.raises(DimensionError):
            lp_norm(f[0], mu[0], np.ones(2))

    def test_relay_stack_matches_its_rows_bit_for_bit(self):
        groups: dict = {}
        for seed in (12345, 1, 7):
            for idx in range(1000):
                code = relay_code(seed, idx)
                groups.setdefault((code[0].shape, code[1].shape), []).append(code)
        assert len(groups) == 24
        for codes in groups.values():
            h1, h2 = brute_force_entropy_gap(*(np.stack(column) for column in zip(*codes)))
            assert h1.shape == h2.shape == (len(codes),)
            for b, code in enumerate(codes):
                one = brute_force_entropy_gap(*code)
                assert all(type(h) is float for h in one)
                assert _bits([h1[b], h2[b]]) == _bits(one)

    def test_rejects_a_quantizer_row_with_equal_thresholds(self):
        xs = np.array([[-1.0, 1.0], [-1.0, 1.0]])
        with pytest.raises(DomainError, match="strictly increasing"):
            gaussian_quantizer_gap(xs, np.array([[-0.5, 0.5], [0.5, 0.5]]))
        with pytest.raises(DomainError, match="as deep as the constellation"):
            gaussian_quantizer_gap(xs, np.array([0.0]))

    @pytest.mark.parametrize("n", [1, 7, 200])
    @pytest.mark.parametrize("seed", range(5))
    def test_suites_match_their_per_instance_loops(self, n, seed):
        for suite, loop in PER_INSTANCE.items():
            assert repr(suite(n, seed)) == repr(loop(n, seed)), suite.__name__

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"t": "critical"},
            {"p": 0.5, "q": -1.0},
            {"p": 0.5, "q": -800.0},
            {"p": 0.5, "q": 0.5},
            {"p": 0.0, "q": -1.0, "t": "critical"},
            {"n": 1},
            {"n": 4, "p": -1.0, "q": -1.0, "t": 0.3},
        ],
    )
    def test_mossel_keywords_match_the_per_instance_loop(self, kwargs):
        for seed in (0, 1):
            got = mossel_suite(150, seed, **kwargs)
            assert repr(got) == repr(mossel_suite_per_instance(150, seed, **kwargs))

    def test_blocks_leave_the_records_unchanged(self, monkeypatch):
        whole = {name: repr(suite(40, 3)) for name, suite in SUITES.items()}
        monkeypatch.setattr(rhc_verify, "_BLOCK", 16)
        assert {name: repr(suite(40, 3)) for name, suite in SUITES.items()} == whole
        for name, suite in SUITES.items():
            assert whole[name] == repr(PER_INSTANCE[suite](40, 3)), name

    def test_one_kernel_call_per_shape_group(self, monkeypatch):
        calls = []

        def counting(kernel):
            def wrapper(*args):
                calls.append(kernel.__name__)
                return kernel(*args)

            return wrapper

        # every smoothing runs through `_smooth`: the semigroup suite reaches it
        # by apply_semisimple, the margins directly after their one check
        for name in ("_smooth", "brute_force_entropy_gap", "gaussian_quantizer_gap"):
            monkeypatch.setattr(rhc_verify, name, counting(getattr(rhc_verify, name)))
        records = semigroup_suite(300, 4)
        shapes = {(r.instance["n"], r.instance["alphabet"]) for r in records}
        assert calls == ["_smooth"] * 4 * len(shapes)
        for suite in (mossel_suite, mossel_q0_suite):
            calls.clear()
            records = suite(300, 4)
            shapes = {(r.instance["n"], r.instance["alphabet"]) for r in records}
            assert calls == ["_smooth"] * len(shapes)
        calls.clear()
        records = quantizer_oracle_suite(300, 4)
        shapes = {(len(r.instance["constellation"]), len(r.instance["thresholds"]))
                  for r in records}
        assert calls == ["gaussian_quantizer_gap"] * len(shapes)
        calls.clear()
        records = relay_oracle_suite(1000, 4)
        groups = {(len(r.instance["channel"][0]), r.instance["n"], len(r.instance["codebook"]))
                  for r in records}
        assert calls == ["brute_force_entropy_gap"] * len(groups) and len(groups) == 24
        # borell-exp and ou-q0 evaluate row by row, through none of these kernels
        calls.clear()
        borell_suite(300, 4)
        ou_q0_suite(300, 4)
        assert calls == []


class TestSuiteRegistry:
    @pytest.mark.parametrize("name", list(SUITES))
    def test_records_carry_registry_name(self, name):
        records = SUITES[name](3, 1)
        assert [r.suite for r in records] == [name] * 3
        assert [r.index for r in records] == [0, 1, 2]

    def test_mossel_at_critical_time(self):
        records = mossel_suite(200, 12345, t="critical")
        assert all(r.instance["t"] == r.instance["critical"] for r in records)
        assert all(r.passed for r in records)

    @pytest.mark.parametrize("name", list(SUITES))
    @pytest.mark.parametrize(
        "count, seed",
        [(-3, 1), (5, -1), (2.5, 1), (5, 1.0), ("5", 1), (5, None), (5, (1, 2)), (True, 1),
         (5, False)],
    )
    def test_rejects_a_bad_count_or_seed_before_the_first_draw(
        self, name, count, seed, monkeypatch
    ):
        def no_draw(*args):
            raise AssertionError("seeded the streams")

        # the streams of a call are keyed here, before its first draw
        with monkeypatch.context() as patch:
            patch.setattr(np.random, "SeedSequence", no_draw)
            with pytest.raises(DomainError, match="count and seed must be integers >= 0"):
                SUITES[name](count, seed)
        assert SUITES[name](0, 1) == []
        assert SUITES[name](np.int64(0), np.uint32(7)) == []


    @pytest.mark.parametrize("t_factor", [-1.0, -1, -1e-300, math.nan, "2", None, 1j, True])
    def test_borell_rejects_a_bad_t_factor_before_the_first_draw(self, t_factor, monkeypatch):
        def no_draw(*args):
            raise AssertionError("seeded the streams")

        monkeypatch.setattr(np.random, "SeedSequence", no_draw)
        message = f"t_factor must be a real number >= 0, got {t_factor!r}"
        with pytest.raises(DomainError, match=re.escape(message)):
            borell_suite(5, 1, t_factor=t_factor)

    @pytest.mark.parametrize("t_factor", [0, 0.0, 2, np.float64(1.5), np.int64(3)])
    def test_borell_takes_any_real_t_factor_at_least_zero(self, t_factor):
        records = borell_suite(3, 1, t_factor=t_factor)
        assert [r.instance["t"] for r in records] == [
            t_factor * r.instance["critical"] for r in records
        ]


class TestStreams:
    """The streams `_run` draws from, against numpy's Philox constructor, and
    the batched calls the suites draw and check with, against the calls they
    replace, on the suites' generator."""

    @pytest.mark.parametrize(
        "seed",
        [0, 1, 12345, 2**32 - 1, 2**32, 2**64 + 3, 2**100 + 7, np.uint32(7), np.int64(2**40 + 1)],
        ids=repr,
    )
    def test_draws_are_those_of_the_philox_constructor(self, seed, monkeypatch):
        def draw(rng):
            # a 32-bit draw (half of a word) and two words, three of a Philox
            # block's four: a half word and a word are left for the next load to clear
            return int(rng.integers(1, 4)), rng.random(2)

        def evaluate(ks, us):
            return {"k": ks, "u": us}, np.zeros(len(ks))

        def record(rng):
            k, u = draw(rng)
            return {"k": k, "u": u.tolist()}

        records = rhc_verify._run("streams", 0.0, 1030, seed, draw, evaluate)
        assert [r.instance for r in records] == [record(stream(seed, i)) for i in range(1030)]

        class Drawn(Exception):
            pass

        indices = iter(range(100_000))

        def last(rng):  # ends the run at its last draw, before any record is built
            if next(indices) == 99_999:
                raise Drawn(record(rng))
            return ()

        monkeypatch.setattr(rhc_verify, "_BLOCK", 100_000)  # one block: no evaluation
        with pytest.raises(Drawn) as drawn:
            rhc_verify._run("streams", 0.0, 100_000, seed, last, evaluate)
        assert drawn.value.args[0] == record(stream(seed, 99_999))

    @pytest.mark.parametrize("name", list(SUITES))
    def test_a_record_does_not_depend_on_the_instance_count(self, name):
        assert repr(SUITES[name](2000, 3)[1500]) == repr(SUITES[name](1501, 3)[1500])

    @pytest.mark.parametrize("k", range(2, 7))
    @pytest.mark.parametrize("n", range(1, 5))
    def test_dirichlet_rows_are_separate_draws(self, k, n):
        for seed in range(20):
            batch, single = stream(seed, k * n), stream(seed, k * n)
            rows = batch.dirichlet(np.ones(k), size=n)
            laws = [single.dirichlet(np.ones(k)) for _ in range(n)]
            assert rows.shape == (n, k)
            assert [_bits(r) for r in rows] == [_bits(d) for d in laws]
            assert _bits(batch.random()) == _bits(single.random())

    def test_two_uniforms_are_two_scalar_draws(self):
        for seed in range(200):
            batch, single = stream(seed, 0), stream(seed, 0)
            pair = batch.uniform(0.0, 2.0, size=2).tolist()
            assert pair == [single.uniform(0.0, 2.0), single.uniform(0.0, 2.0)]
            assert all(type(x) is float for x in pair)
            assert _bits(batch.random()) == _bits(single.random())

    @pytest.mark.parametrize("shape", [(2,), (4, 3), (2, 3, 2), (2, 2, 2, 2)])
    @pytest.mark.parametrize("stack", [(), (1,), (7,)])
    def test_mossel_margin_is_the_difference_of_its_norms(self, shape, stack):
        rng = np.random.default_rng(len(shape) * 10 + sum(stack))
        rows = math.prod(stack)
        factors = tuple(rng.dirichlet(np.ones(k), size=rows).reshape(stack + (k,)) for k in shape)
        pairs = np.sort(rng.uniform(-3.0, 0.99, size=(rows, 2)), axis=1)
        q, p = (pairs[:, i].reshape(stack) for i in (0, 1))
        time = np.reshape([mossel_critical_time(hi, lo) * 1.2 for lo, hi in pairs], stack)
        f = rng.random(stack + shape)
        f[rng.random(f.shape) < 0.1] = 0.0
        if not stack:
            p, q, time = float(p), float(q), float(time)
        got = check_mossel(factors, time, f, p, q)
        checked = rhc_verify._checked(factors, time)
        mu = rhc_verify._product(checked[0])
        want = lp_norm(rhc_verify._smooth(*checked, f), mu, q) - lp_norm(f, mu, p)
        assert type(got) is type(want)
        assert _bits(got) == _bits(want)


class TestQuadratureOrder:
    """The suites' margins on the halved step of the one trapezoid rule, at
    1,000 instances and seed 12345.

    Halving the step (145 nodes for 73) moves quantizer h2 by up to 5.3e-8
    and its margins by up to 2.5e-8 (index 363), and ou-q0 margins by up to
    3.3e-11 (index 951), each within its suite's tolerance (1e-6 and 1e-9).
    No pass flag changes: the smallest margins are 2.7e-5 (quantizer) and
    3.8e-4 (ou-q0).
    """

    @pytest.mark.parametrize(
        "suite, moves", [(quantizer_oracle_suite, 1e-7), (ou_q0_suite, 1e-9)],
        ids=["quantizer", "ou-q0"],
    )
    def test_a_finer_rule_keeps_every_pass_flag(self, suite, moves, monkeypatch):
        coarse = suite(1000, 12345)
        use_trapezoid(monkeypatch, 0.125)
        fine = suite(1000, 12345)
        assert [r.passed for r in fine] == [r.passed for r in coarse]
        assert all(r.passed for r in coarse)
        drift = max(abs(a.margin - b.margin) for a, b in zip(coarse, fine))
        assert 0.0 < drift <= moves < min(r.margin for r in coarse)
        if suite is quantizer_oracle_suite:
            h2 = [abs(a.instance["h2"] - b.instance["h2"]) for a, b in zip(coarse, fine)]
            assert max(h2) <= moves


class TestMutations:
    """A suite must fail once the bound it checks is shrunk toward h.

    Each bound c becomes h + s (c(h) - h), patched where the suite reads it.
    At 1,000 instances and seed 12345, s = 0.1 gives 32 lemma4 failures and
    414 quantizer failures, s = 0.15 gives 8 and 116, s = 0.2 gives 0 and 0.
    borell-exp fails once its critical time is shrunk to (1 - s) times itself:
    s = 1e-2 and 1e-6 fail all 1,000 instances, 1e-9 fails 994, 1e-12 fails
    55, and the smallest shrink that fails one is about 5.5e-13.  mossel,
    mossel-q0 and ou-q0 fail once their smoothing runs at (1 - s) times its
    time: s = 0.3 fails none of the three, s = 0.5 fails 6 mossel instances
    and s = 0.9 fails 659, 15 and 13.  The smallest shrinks that fail one are
    about 0.48, 0.84 and 0.86.  A uniform time scale keeps the semigroup law
    T_s T_t = T_(s+t), so it is no mutation of the semigroup suite; smoothing
    at time ** (1 - s) breaks the law: s = 0.5 down to 1e-6 fails 995
    instances, 1e-8 fails 994, 1e-10 fails 959 and 1e-12 none, and the
    smallest s that fails one is about 3.9e-12.
    """

    @pytest.mark.parametrize(
        "suite, bound",
        [(relay_oracle_suite, "bdd_gap_closed"), (quantizer_oracle_suite, "gauss_gap_closed")],
    )
    def test_a_shrunk_bound_fails(self, suite, bound, monkeypatch):
        assert all(r.passed for r in suite(1000, 12345))
        exact = getattr(rhc_verify, bound)
        monkeypatch.setattr(rhc_verify, bound, lambda h, *args: h + 0.1 * (exact(h, *args) - h))
        assert not all(r.passed for r in suite(1000, 12345))

    @pytest.mark.parametrize("shrink, failures", [(1e-2, 1000), (1e-9, 1)])
    def test_a_shrunk_borell_critical_time_fails(self, shrink, failures, monkeypatch):
        assert all(r.passed for r in borell_suite(1000, 12345))
        exact = rhc_verify.borell_critical_time
        monkeypatch.setattr(
            rhc_verify, "borell_critical_time", lambda p, q: (1.0 - shrink) * exact(p, q)
        )
        assert sum(not r.passed for r in borell_suite(1000, 12345)) >= failures

    @pytest.mark.parametrize(
        "suite, kernel, at",
        [
            (mossel_suite, "_smooth", 1),
            (mossel_q0_suite, "_smooth", 1),
            (ou_q0_suite, "ou_apply", 3),
        ],
    )
    def test_a_shrunk_smoothing_time_fails(self, suite, kernel, at, monkeypatch):
        # the kernel's time is its positional argument `at`; s = 0.9
        assert all(r.passed for r in suite(1000, 12345))
        exact = getattr(rhc_verify, kernel)

        def shrunk(*args):
            args = list(args)
            args[at] = (1.0 - 0.9) * args[at]
            return exact(*args)

        monkeypatch.setattr(rhc_verify, kernel, shrunk)
        assert not all(r.passed for r in suite(1000, 12345))

    @pytest.mark.parametrize("s, failures", [(1e-6, 995), (1e-10, 1)])
    def test_a_non_additive_time_fails(self, s, failures, monkeypatch):
        assert all(r.passed for r in semigroup_suite(1000, 12345))
        exact = rhc_verify._smooth
        monkeypatch.setattr(
            rhc_verify, "_smooth", lambda factors, time, f: exact(factors, time ** (1.0 - s), f)
        )
        assert sum(not r.passed for r in semigroup_suite(1000, 12345)) >= failures


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_mossel_margin_never_negative(idx):
    records = mossel_suite(1, 424242 + idx)
    assert records[0].margin >= -1e-12
