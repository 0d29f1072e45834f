"""Tests for the discrete-channel bound: alpha, mutual informations, optimizer."""

import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import (
    divergence_rows,
    grid_relay_bounds,
    i_inf_minimax_oracle,
    k_ary_symmetric,
    mutual_info,
    mutual_info_product,
    relay_objective_rows,
    simplex_grid,
    symmetric_channel_bounds,
    write_channel_csv,
)
from relay_bounds import cli, dmc_relay
from relay_bounds.dmc_relay import (
    DiscreteChannel,
    InputDistribution,
    alpha_of_channel,
    capacity_ub_cor2,
    product_channel,
)
from relay_bounds.errors import DimensionError, DomainError


def uniform(k: int) -> InputDistribution:
    return InputDistribution(np.full(k, 1.0 / k))


def binary_entropy_nats(p: float) -> float:
    return -p * math.log(p) - (1.0 - p) * math.log(1.0 - p)


def joint_entropy_mi(p: np.ndarray, w: np.ndarray) -> float:
    """Independent oracle: I(X;Y) = H(X) + H(Y) - H(X,Y) from the joint table."""
    joint = p[:, None] * w

    def ent(v):
        v = v[v > 0]
        return float(-(v * np.log(v)).sum())

    return ent(joint.sum(1)) + ent(joint.sum(0)) - ent(joint.reshape(-1))


def relay_objective(p: np.ndarray, w: DiscreteChannel, penalty: float) -> float:
    """The max-min objective through the public mutual informations."""
    dist = InputDistribution(p)
    return min(mutual_info_product(dist, w), mutual_info(dist, w) + penalty)


def random_law_channel(seed: int, draw: int) -> tuple[DiscreteChannel, float]:
    """Draw `draw` of the random channel law at default_rng(seed): kx, ky from
    2..6, rows Dirichlet(U(0.2, 2)) and c0 ~ U(0.01, 1)."""
    rng = np.random.default_rng(seed)
    for _ in range(draw + 1):
        kx = int(rng.integers(2, 7))
        ky = int(rng.integers(2, 7))
        conc = float(rng.uniform(0.2, 2.0))
        w = rng.dirichlet(np.full(ky, conc), size=kx)
        c0 = float(rng.uniform(0.01, 1.0))
    return DiscreteChannel(w), c0


def assert_symmetric_closed_form(rep, w: DiscreteChannel, c0: float) -> None:
    """The report matches `symmetric_channel_bounds`: cor2_bound and cutset
    within 1e-13, and the penalty within 1e-13 plus 1.6e-15*C0.  The penalty
    is C0 less an inverse of relative error at most 1.6e-15 (TestInverseAccuracy
    in test_scalar_bounds), which is up to 1.6e-15*C0 in absolute terms."""
    pytest.importorskip("mpmath")
    cor2, cutset, penalty = symmetric_channel_bounds(w, c0)
    assert abs(rep.cor2_bound - cor2) <= 1e-13, (rep.cor2_bound, cor2)
    assert abs(rep.cutset - cutset) <= 1e-13, (rep.cutset, cutset)
    assert abs(rep.penalty - penalty) <= 1e-13 + 1.6e-15 * c0, (rep.penalty, penalty)


# How far the maximum over simplex_grid(2, 2000) may sit below the true one,
# on the 2-input channels of TestCutsetDmc (7.0e-8 at most there)
GRID_ALLOWANCE = 1e-6

BSC = k_ary_symmetric(2, 0.1)
UNIFORM2 = uniform(2)
IDENTICAL_ROWS = DiscreteChannel(np.array([[0.3, 0.7], [0.3, 0.7]]))


class TestChannelType:
    def test_rejects_bad_rows(self):
        with pytest.raises(DomainError):
            DiscreteChannel(np.array([[0.9, 0.2], [0.1, 0.9]]))
        with pytest.raises(DomainError):
            DiscreteChannel(np.array([[1.1, -0.1], [0.5, 0.5]]))
        with pytest.raises(DomainError):
            DiscreteChannel(np.array([[1.0], [1.0]]))

    def test_frozen(self):
        with pytest.raises(ValueError):
            BSC.matrix[0, 0] = 0.5

    def test_input_distribution_validation(self):
        with pytest.raises(DomainError):
            InputDistribution(np.array([0.5, 0.6]))
        with pytest.raises(DomainError):
            InputDistribution(np.array([-0.1, 1.1]))
        with pytest.raises(DomainError, match=r"must be 1-d, got shape \(1, 2\)"):
            InputDistribution(np.array([[0.5, 0.5]]))

    def test_memory_order_does_not_change_the_report(self):
        # BLAS products round by memory order, so the channel is held C-ordered
        rows = np.random.default_rng(3).dirichlet(np.full(3, 0.2), size=3)
        f_ordered = rows[[0, 1, 2]][:, [0, 1, 2]]
        assert f_ordered.flags.f_contiguous and not f_ordered.flags.c_contiguous
        c0 = 0.021674612708990227
        reports = [capacity_ub_cor2(DiscreteChannel(m), c0) for m in (rows, f_ordered)]
        floats = ("alpha", "penalty", "cutset", "cor2_bound", "suboptimality_gap")
        first, second = (
            [getattr(r, f).hex() for f in floats] + [r.certified, r.argmax_input.probs.tobytes()]
            for r in reports
        )
        assert first == second


class TestAlpha:
    def test_bsc(self):
        assert alpha_of_channel(BSC) == pytest.approx(1.8, abs=1e-15)

    def test_identical_rows(self):
        assert alpha_of_channel(IDENTICAL_ROWS) == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_identity(self, k):
        assert alpha_of_channel(DiscreteChannel(np.eye(k))) == pytest.approx(k, abs=1e-15)

    def test_identical_rows_that_sum_below_one(self):
        # rows that require_law accepts may sum to 1 less an ulp; alpha is
        # still 1, and the bound must not reject it as a density peak below 1
        row = np.random.default_rng(0).dirichlet(np.ones(3))
        assert row.sum() < 1.0
        w = DiscreteChannel(np.tile(row, (4, 1)))
        assert alpha_of_channel(w) == 1.0
        rep = capacity_ub_cor2(w, 0.3)
        assert rep.alpha == 1.0 and rep.certified

    def test_at_least_one(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            rows = rng.dirichlet(np.ones(4), size=3)
            w = DiscreteChannel(rows / rows.sum(1, keepdims=True))
            assert alpha_of_channel(w) >= 1.0 - 1e-12


class TestIInfinity:
    """I_inf = ln(alpha), the order-infinity mutual information, against minimax over outputs."""

    def test_identical_rows(self):
        assert math.log(alpha_of_channel(IDENTICAL_ROWS)) == pytest.approx(0.0, abs=1e-15)

    def test_bsc(self):
        got = math.log(alpha_of_channel(BSC))
        assert got == pytest.approx(math.log(1.8), abs=1e-15)
        assert abs(got - i_inf_minimax_oracle(BSC)) <= 1e-6

    @pytest.mark.parametrize("k", [2, 3])
    def test_identity(self, k):
        w = DiscreteChannel(np.eye(k))
        got = math.log(alpha_of_channel(w))
        assert got == pytest.approx(math.log(k), abs=1e-15)
        assert abs(got - i_inf_minimax_oracle(w)) <= 1e-6

    def test_oracle_agreement_random(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            rows = rng.dirichlet(np.ones(3), size=2)
            w = DiscreteChannel(rows / rows.sum(1, keepdims=True))
            assert abs(math.log(alpha_of_channel(w)) - i_inf_minimax_oracle(w)) <= 1e-6


class TestMutualInfo:
    def test_independence(self):
        assert mutual_info(UNIFORM2, IDENTICAL_ROWS) == 0.0

    def test_identity_uniform(self):
        for k in (2, 3, 4):
            w = DiscreteChannel(np.eye(k))
            assert mutual_info(uniform(k), w) == pytest.approx(math.log(k), abs=1e-12)

    def test_bsc_uniform(self):
        expected = math.log(2.0) - binary_entropy_nats(0.1)
        assert mutual_info(UNIFORM2, BSC) == pytest.approx(expected, abs=1e-12)
        # cross-check through the joint-entropy decomposition
        oracle = joint_entropy_mi(UNIFORM2.probs, BSC.matrix)
        assert mutual_info(UNIFORM2, BSC) == pytest.approx(oracle, abs=1e-12)

    def test_bounds(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            rows = rng.dirichlet(np.ones(3), size=2)
            w = DiscreteChannel(rows / rows.sum(1, keepdims=True))
            p = InputDistribution(rng.dirichlet(np.ones(2)))
            mi = mutual_info(p, w)
            assert 0.0 <= mi <= min(math.log(2.0), math.log(3.0)) + 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            mutual_info(uniform(3), BSC)


class TestMutualInfoProduct:
    def test_independence(self):
        assert mutual_info_product(UNIFORM2, IDENTICAL_ROWS) == 0.0

    def test_identity_adds_nothing(self):
        w = DiscreteChannel(np.eye(3))
        p = uniform(3)
        assert mutual_info_product(p, w) == pytest.approx(math.log(3.0), abs=1e-12)

    def test_bsc_between_one_and_two_looks(self):
        mi = mutual_info(UNIFORM2, BSC)
        mi2 = mutual_info_product(UNIFORM2, BSC)
        assert mi <= mi2 <= 2.0 * mi

    def test_brute_force_joint_table(self):
        w2 = product_channel(BSC)
        oracle = joint_entropy_mi(UNIFORM2.probs, w2.matrix)
        assert mutual_info_product(UNIFORM2, BSC) == pytest.approx(oracle, abs=1e-10)

    def test_dominates_single_look(self):
        rng = np.random.default_rng(9)
        for _ in range(30):
            rows = rng.dirichlet(np.ones(3), size=2)
            w = DiscreteChannel(rows / rows.sum(1, keepdims=True))
            p = InputDistribution(rng.dirichlet(np.ones(2)))
            assert mutual_info_product(p, w) >= mutual_info(p, w) - 1e-12

    def test_product_of_rows_off_one_by_rounding_is_a_law(self):
        # each row sums to 1 + 9e-13, within LAW_TOL, but its square sums to
        # 1 + 1.8e-12, beyond it: W x W is renormalized before it is checked
        w = DiscreteChannel(CLI_CHANNEL.matrix + [9e-13, 0.0, 0.0])
        assert capacity_ub_cor2(w, 0.2).certified


class TestSimplexMachinery:
    def test_grid_counts(self):
        assert simplex_grid(2, 4).shape == (5, 2)
        assert simplex_grid(3, 10).shape == (66, 3)
        rows = simplex_grid(4, 6)
        assert rows.shape[0] == math.comb(6 + 3, 3)
        assert np.allclose(rows.sum(axis=1), 1.0)


class TestCor2Bound:
    def test_identical_rows_vanish(self):
        rep = capacity_ub_cor2(IDENTICAL_ROWS, 0.1)
        assert rep.cor2_bound == pytest.approx(0.0, abs=1e-12)
        assert rep.cutset == pytest.approx(0.0, abs=1e-12)

    def test_zero_relay_rate_gives_capacity(self):
        rep = capacity_ub_cor2(BSC, 0.0)
        expected = math.log(2.0) - binary_entropy_nats(0.1)
        assert rep.cor2_bound == pytest.approx(expected, abs=1e-8)
        assert rep.penalty == 0.0
        assert rep.cor2_bound == pytest.approx(rep.cutset, abs=1e-12)

    def test_strictly_below_cutset(self):
        rep = capacity_ub_cor2(BSC, 0.05)
        assert_symmetric_closed_form(rep, BSC, 0.05)
        cor2, cutset, _ = symmetric_channel_bounds(BSC, 0.05)
        assert cutset - cor2 > 5e-4  # 7.7e-4, far beyond the tolerances of the match
        assert rep.penalty > 0.0
        assert rep.certified

    def test_report_fields(self):
        rep = capacity_ub_cor2(BSC, 0.05)
        assert rep.alpha == pytest.approx(1.8, abs=1e-15)
        assert rep.argmax_input.probs.shape == (2,)
        assert rep.suboptimality_gap <= 1e-8

    def test_alpha_override(self):
        rep = capacity_ub_cor2(BSC, 0.05, alpha_override=2.5)
        baseline = capacity_ub_cor2(BSC, 0.05)
        assert rep.alpha == 2.5
        # larger alpha weakens the entropy-gap bound, so more relay rate survives
        assert rep.penalty >= baseline.penalty
        assert rep.cor2_bound >= baseline.cor2_bound - 1e-12
        with pytest.raises(DomainError):
            capacity_ub_cor2(BSC, 0.05, alpha_override=1.2)

    def test_grid_optimum_with_a_pure_noise_input(self):
        # the third input is pure noise, so the optimum (1/2, 1/2, 0) is a grid point
        w = np.array([[0.9, 0.1], [0.1, 0.9], [0.5, 0.5]])
        rep = capacity_ub_cor2(DiscreteChannel(w), 0.1)
        grid_best = relay_objective_rows(simplex_grid(3, 200), w, rep.penalty).max()
        assert rep.cor2_bound >= grid_best - 1e-12  # an upper value, to rounding
        assert rep.cor2_bound - grid_best <= 1e-8
        assert rep.certified

    def test_identical_rows_at_a_large_relay_rate_stay_at_zero(self):
        # alpha is 1 + 2^-52 and C0 - c_alpha^{-1}(C0) rounds to -ulp(C0);
        # a negative penalty would put the bound below the true maximum 0
        w = k_ary_symmetric(6, 5 / 6)
        rep = capacity_ub_cor2(w, 735.5361533464536)
        assert rep.penalty == 0.0
        assert abs(rep.cor2_bound) <= 1e-15 and abs(rep.cutset) <= 1e-15
        assert_symmetric_closed_form(rep, w, 735.5361533464536)

    @pytest.mark.parametrize("crossover", [0.1, 0.3])
    @pytest.mark.parametrize("c0", [1e9, 1e12, 1e15])
    def test_large_relay_rate_stays_at_joint_mi(self, crossover, c0):
        # the joint cut binds at the uniform input; a penalty this large must
        # not cost the lam = 1 certificate its precision
        w = k_ary_symmetric(2, crossover)
        joint = mutual_info_product(uniform(2), w)
        rep = capacity_ub_cor2(w, c0)
        for got in (rep.cutset, rep.cor2_bound):
            assert abs(got - joint) <= 1e-12
        assert_symmetric_closed_form(rep, w, c0)


class TestRegressionChannels:
    """Random-law channels with near-zero entries that the solver once failed on."""

    @pytest.mark.parametrize("seed,draw", [(1, 12), (1, 39), (3, 41), (4, 53), (6, 8)])
    def test_certified_upper_value(self, seed, draw):
        w, c0 = random_law_channel(seed, draw)
        rep = capacity_ub_cor2(w, c0)
        assert rep.certified
        # the documented GAP_TOL as a literal, so that a looser constant fails here
        assert rep.suboptimality_gap <= 1e-10
        laws = np.random.default_rng(seed).dirichlet(np.ones(w.n_inputs), size=2000)
        assert rep.cor2_bound >= relay_objective_rows(laws, w.matrix, rep.penalty).max()
        assert rep.cutset >= relay_objective_rows(laws, w.matrix, c0).max()


class TestStalledSolver:
    """On a budget of 50 steps the solver cannot finish seed 3's draw 41 (it
    stops at a gap of 3.07e-3), so the report stays uncertified: it is still
    an upper value with its gap stated, and the CLI exits 0.  On 10 steps seed
    4's draw 53 stalls with its cor2 certificate above the cutset one."""

    CHANNEL, C0 = random_law_channel(3, 41)

    def test_report_stays_below_its_cutset(self, monkeypatch):
        monkeypatch.setattr(dmc_relay, "_BUDGET", 50)
        w = self.CHANNEL
        rep = capacity_ub_cor2(w, self.C0)
        assert rep.cutset >= relay_objective(rep.argmax_input.probs, w, self.C0)
        assert not rep.certified
        value = relay_objective(rep.argmax_input.probs, w, rep.penalty)
        assert rep.suboptimality_gap == pytest.approx(rep.cor2_bound - value, abs=1e-12)

    def test_cli_exits_0(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setattr(dmc_relay, "_BUDGET", 50)
        path = str(tmp_path / "stalled.csv")
        w = self.CHANNEL
        write_channel_csv(path, w)
        assert cli.main(["dmc", "--channel", path, "--c0", repr(self.C0)]) == 0
        payload = json.loads(capsys.readouterr().out)
        law = np.array(payload["argmax_input"])
        assert payload["cutset"] >= relay_objective(law, w, self.C0)
        assert payload["certified"] is False

    def test_a_stalled_bound_is_capped_at_its_cutset(self, monkeypatch):
        # at 10 steps the cor2 certificate of seed 4's 4x4 draw 53 sits 1.2e-3
        # above the cutset one, which bounds the cor2 objective too
        monkeypatch.setattr(dmc_relay, "_BUDGET", 10)
        w, c0 = random_law_channel(4, 53)
        rep = capacity_ub_cor2(w, c0)
        assert rep.cor2_bound == rep.cutset
        assert rep.cor2_bound == pytest.approx(0.6431373740840252, rel=0.0, abs=1e-12)
        assert not rep.certified
        laws = np.random.default_rng(4).dirichlet(np.ones(w.n_inputs), size=2000)
        assert rep.cor2_bound >= relay_objective_rows(laws, w.matrix, rep.penalty).max()


class TestSolverSteps:
    """A bound on the solver's total steps over the channel set of perfbench's
    `dmc-bounds`: draws 0-59 of the random-law channel at seed 1, the
    BSC(0.11) at C0 0.3 and a 16x16 channel at C0 0.5.  They take 777 steps,
    and 892 with `_ROUNDING` at 1e-12 (every report still certified), so the
    test catches a slower solver that the reports alone do not show.  The
    bound has headroom, since BLAS and numpy versions may move a step."""

    def test_total_steps_stay_bounded(self, monkeypatch):
        solvers = []

        class Counted(dmc_relay._DualSolver):
            def __init__(self, w):
                super().__init__(w)
                solvers.append(self)

        monkeypatch.setattr(dmc_relay, "_DualSolver", Counted)
        channels = [random_law_channel(1, draw) for draw in range(60)] + [
            (k_ary_symmetric(2, 0.11), 0.3),
            (DiscreteChannel(np.random.default_rng(16).dirichlet(np.ones(16), size=16)), 0.5),
        ]
        for w, c0 in channels:  # one solver each, at the penalty and at C0
            assert capacity_ub_cor2(w, c0).certified
        assert len(solvers) == 62
        assert sum(dmc_relay._BUDGET - s.steps_left for s in solvers) <= 850


class TestNearDuplicateRows:
    """Rows 0-2 differ by under 1e-11, so the weighted solves level off near
    GAP_TOL: the lam = 1 walk dips under it only after 8,909 steps.  Each solve
    stops at GAP_TOL, the gap the report is certified against, and the full
    budget brings the bound to 0.70567484549 (a stopping gap of 1e-11 leaves
    the lam = 0 solve at 7.2e-11 for all 20,000 steps, and the report falls
    back on the cutset, 0.95628 at a gap of 0.263).  The walk reaches GAP_TOL
    by chance, so the test asks for the value and a gap of 1e-9, not for
    `certified`."""

    ROWS = [[1 - 1e-13, 1e-13], [1 - 8e-12, 8e-12], [1.0, 0.0], [0.04, 0.96], [0.0, 1.0]]
    C0 = 0.32628245749178686

    def test_full_budget_reaches_the_maximum(self):
        rep = capacity_ub_cor2(DiscreteChannel(np.array(self.ROWS)), self.C0)
        assert abs(rep.cor2_bound - 0.70567484549) <= 1e-9
        assert rep.suboptimality_gap <= 1e-9


class TestCutsetDmc:
    """The report's cutset field, max_p min{I(X;Y,Z), I(X;Y) + C0}, against
    closed forms and grid maxima the solver does not compute."""

    def test_zero_relay_rate(self):
        # both cuts reduce to the channel capacity: ln k - H(row) on symmetric
        # channels, and the grid maximum on a Z channel, whose optimal law is
        # not uniform, so the solver must move from its uniform start
        for w in (BSC, k_ary_symmetric(3, 0.2), k_ary_symmetric(5, 0.05)):
            rep = capacity_ub_cor2(w, 0.0)
            assert_symmetric_closed_form(rep, w, 0.0)
            k, row = w.n_inputs, w.matrix[0]
            assert abs(rep.cutset - (math.log(k) + float(row @ np.log(row)))) <= 1e-13
        z = DiscreteChannel(np.array([[1.0, 0.0], [0.4, 0.6]]))
        _, grid_cutset = grid_relay_bounds(z, 0.0, 2000)
        assert grid_cutset <= capacity_ub_cor2(z, 0.0).cutset <= grid_cutset + GRID_ALLOWANCE

    def test_large_relay_rate_hits_joint_mi(self):
        rep = capacity_ub_cor2(BSC, 50.0)
        assert_symmetric_closed_form(rep, BSC, 50.0)
        assert abs(rep.cutset - mutual_info_product(UNIFORM2, BSC)) <= 1e-13

    def test_dominates_cor2_random(self):
        # each certificate sits above its grid maximum by at most the allowance
        pytest.importorskip("mpmath")
        rng = np.random.default_rng(17)
        for _ in range(15):
            rows = rng.dirichlet(np.ones(3), size=2)
            w = DiscreteChannel(rows / rows.sum(1, keepdims=True))
            c0 = float(rng.uniform(0.01, 0.8))
            rep = capacity_ub_cor2(w, c0)
            grid_cor2, grid_cutset = grid_relay_bounds(w, c0, 2000)
            assert grid_cor2 <= rep.cor2_bound <= grid_cor2 + GRID_ALLOWANCE
            assert grid_cutset <= rep.cutset <= grid_cutset + GRID_ALLOWANCE


class TestSymmetricChannels:
    """k-ary symmetric channels match the uniform-law closed form and certify,
    from crossover 0 through the identical rows at (k-1)/k to crossover 1."""

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_matches_closed_form(self, data):
        k = data.draw(st.integers(min_value=2, max_value=6), label="k")
        # identical rows at (k-1)/k, and rows within 1e-9 of each other about it
        uniform_at = (k - 1) / k
        edges = st.sampled_from([0.0, 1.0, uniform_at, uniform_at - 1e-9, uniform_at + 1e-9])
        crossover = data.draw(st.one_of(edges, st.floats(0.0, 1.0)), label="crossover")
        c0 = data.draw(st.floats(0.0, 1e3), label="c0")
        w = k_ary_symmetric(k, crossover)
        rep = capacity_ub_cor2(w, c0)
        assert_symmetric_closed_form(rep, w, c0)
        assert rep.certified


class TestObjectiveStructure:
    def test_concavity(self):
        w = DiscreteChannel(np.array([[0.7, 0.2, 0.1], [0.1, 0.3, 0.6]]))
        rng = np.random.default_rng(23)
        for _ in range(200):
            p1 = rng.dirichlet(np.ones(2))
            p2 = rng.dirichlet(np.ones(2))
            lam = float(rng.random())
            mix = lam * p1 + (1.0 - lam) * p2
            lower = lam * relay_objective(p1, w, 0.08) + (1.0 - lam) * relay_objective(p2, w, 0.08)
            assert relay_objective(mix, w, 0.08) >= lower - 1e-10

    def test_permutation_equivariance(self):
        w = DiscreteChannel(np.array([[0.7, 0.2, 0.1], [0.1, 0.3, 0.6]]))
        swapped = DiscreteChannel(w.matrix[::-1])
        rep = capacity_ub_cor2(w, 0.15)
        rep_swapped = capacity_ub_cor2(swapped, 0.15)
        assert rep.cor2_bound == pytest.approx(rep_swapped.cor2_bound, abs=1e-9)
        assert rep.alpha == rep_swapped.alpha
        assert np.allclose(
            rep.argmax_input.probs, rep_swapped.argmax_input.probs[::-1], atol=1e-6
        )

    def test_determinism(self):
        a = capacity_ub_cor2(BSC, 0.07)
        b = capacity_ub_cor2(BSC, 0.07)
        assert a.cor2_bound == b.cor2_bound
        assert np.array_equal(a.argmax_input.probs, b.argmax_input.probs)


CLI_CHANNEL = DiscreteChannel(np.array([[0.7, 0.2, 0.1], [0.1, 0.8, 0.1], [0.2, 0.2, 0.6]]))
CHANNEL_16 = DiscreteChannel(np.random.default_rng(16).dirichlet(np.ones(16), size=16))


def benchmark_law_channel(data) -> tuple[np.ndarray, float]:
    """One draw of the benchmark's channel law: kx, ky from 2..6, rows
    Dirichlet(U(0.2, 2)) from a drawn seed, and c0 ~ U(0.01, 1)."""
    kx = data.draw(st.integers(2, 6), label="kx")
    ky = data.draw(st.integers(2, 6), label="ky")
    conc = data.draw(st.floats(0.2, 2.0), label="concentration")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    return rng.dirichlet(np.full(ky, conc), size=kx), data.draw(st.floats(0.01, 1.0), label="c0")


class TestEndpointChannels:
    """At lam = 0 the solver weighs only W, and at lam = 1 only W x W: the
    idle channel is never read, so poisoning it with NaN changes nothing."""

    @pytest.mark.parametrize("lam,idle", [(0.0, ("w2", "rowh2")), (1.0, ("w1", "rowh1"))])
    @pytest.mark.parametrize(
        "channel", [CLI_CHANNEL, random_law_channel(1, 50)[0]], ids=["cli3", "draw50"]
    )
    def test_idle_channel_is_never_read(self, lam, idle, channel):
        clean = dmc_relay._DualSolver(channel)._endpoint(lam)
        poisoned = dmc_relay._DualSolver(channel)
        for name in idle:
            setattr(poisoned, name, np.full_like(getattr(poisoned, name), np.nan))
        assert poisoned._endpoint(lam).tobytes() == clean.tobytes()


class TestStackedEvaluation:
    """A (B, k) stack of input laws gives in each row the (d, value) of its own
    1-D evaluation bit for bit, and that evaluation is the weighted sum
    lam*D2 + (1 - lam)*D1 of the two rows of `divergence_rows`, D1 alone at
    lam = 0 and D2 alone at lam = 1."""

    @pytest.mark.parametrize("lam", [0.0, 0.37, 1.0])
    @pytest.mark.parametrize("batch", [1, 23])
    @pytest.mark.parametrize("channel", [BSC, CHANNEL_16], ids=["2x2", "16x16"])
    def test_rows_match_their_own_evaluation(self, lam, batch, channel):
        solver = dmc_relay._DualSolver(channel)
        laws = np.random.default_rng(batch).dirichlet(np.ones(channel.n_inputs), size=batch)
        d, values = solver._evaluate(lam, laws)
        assert d.shape == laws.shape and values.shape == (batch,)
        for p, d_row, value in zip(laws, d, values):
            d_own, value_own = solver._evaluate(lam, p)
            assert d_row.tobytes() == d_own.tobytes()
            assert value == value_own
            d1 = divergence_rows(channel.matrix, p)
            d2 = divergence_rows(product_channel(channel).matrix, p)
            reference = {0.0: d1, 1.0: d2}.get(lam, lam * d2 + (1.0 - lam) * d1)
            assert d_own.tobytes() == reference.tobytes()
            assert value_own == p @ reference


class TestGoldenReports:
    """Every report field as float.hex and the argmax law entry by entry, as
    the one-trial-at-a-time line search with both cuts always formed gave
    them: the endpoint terms and the stacked line search must not move a bit.
    Recorded with numpy 2.4 and its bundled OpenBLAS on x86-64; a BLAS that
    sums in another order may move the last bits.  draw50 is the 5x2 channel
    with the heaviest line search of the benchmark's law (123 solver steps);
    the stalled channel (TestStalledSolver's 6x2 draw) runs on a budget of 50
    steps and stays uncertified."""

    CASES = {
        "bsc": (DiscreteChannel(np.array([[0.89, 0.11], [0.11, 0.89]])), 0.3),
        "cli3": (CLI_CHANNEL, 0.2),
        "16x16": (CHANNEL_16, 0.5),
        "draw50": random_law_channel(1, 50),
        "stalled": (TestStalledSolver.CHANNEL, TestStalledSolver.C0),
    }
    FIELDS = ("alpha", "penalty", "cutset", "cor2_bound", "suboptimality_gap", "certified")
    EXPECTED = {
        "bsc": (
            ("0x1.c7ae147ae147bp+0", "0x1.184514e5d21aap-2", "0x1.fa8330b63a51ap-2",
             "0x1.fa8330b63a51ap-2", "0x0.0p+0", True),
            ("0x1.0000000000000p-1", "0x1.0000000000000p-1"),
        ),
        "cli3": (
            ("0x1.0cccccccccccdp+1", "0x1.87cb4a9f39272p-3", "0x1.f4471f2ddeeb3p-2",
             "0x1.ed3024d85e329p-2", "0x1.0000000000000p-53", True),
            ("0x1.531e02894a3bbp-2", "0x1.877b9e775bc7dp-2", "0x1.25665eff59fc8p-2"),
        ),
        "16x16": (
            ("0x1.b48b9102c006cp+1", "0x1.e6c37d30d491dp-2", "0x1.d89072caea4b8p-1",
             "0x1.d89072caea4b8p-1", "0x1.2000000000000p-50", True),
            (
                "0x1.efe7b3087de90p-4", "0x1.81092b7ceedd1p-4", "0x1.79ca10c924227p-67",
                "0x1.7f8f2baa61845p-5", "0x1.75c3ef71d23e8p-3", "0x1.79ca10c924227p-67",
                "0x1.79ca10c924227p-67", "0x1.7055a911d5d48p-5", "0x1.a2fbf602acbd5p-4",
                "0x1.c53fd16498309p-3", "0x1.0dee84fffdffep-5", "0x1.79ca10c924227p-67",
                "0x1.c9f2b35fa921ap-4", "0x1.5a5e931a9ba09p-5", "0x1.79ca10c924227p-67",
                "0x1.79ca10c924227p-67",
            ),
        ),
        "draw50": (
            ("0x1.eee7fcf97bcf6p+0", "0x1.87bd80c399e19p-3", "0x1.4a3cb01652079p-1",
             "0x1.4a3cb01652048p-1", "0x1.cd00000000000p-45", True),
            (
                "0x1.7509e7575b9f6p-6", "0x1.f7d6133a960dep-2", "0x1.79ca10c924222p-67",
                "0x1.79ca10c924222p-67", "0x1.f0d94e4ff4383p-2",
            ),
        ),
        "stalled": (
            ("0x1.eed8da082cf3ap+0", "0x1.36908a22d8592p-1", "0x1.49a7ccbc446bcp-1",
             "0x1.49a7ccbc446bcp-1", "0x1.928a246a3d300p-9", False),
            (
                "0x1.b84308085e775p-67", "0x1.b84308085e775p-67", "0x1.c651d428e4434p-7",
                "0x1.fa1d07a15673bp-2", "0x1.f7b069bd626a5p-2", "0x1.b84308085e775p-67",
            ),
        ),
    }

    @pytest.mark.parametrize("name", list(CASES))
    def test_report_is_bit_identical(self, name, monkeypatch):
        if name == "stalled":
            monkeypatch.setattr(dmc_relay, "_BUDGET", 50)
        rep = capacity_ub_cor2(*self.CASES[name])
        fields = tuple(
            getattr(rep, f) if f == "certified" else getattr(rep, f).hex() for f in self.FIELDS
        )
        law = tuple(float(v).hex() for v in rep.argmax_input.probs)
        assert (fields, law) == self.EXPECTED[name]

    @pytest.mark.parametrize("name", list(CASES))
    def test_bound_is_the_certificate_at_the_reported_law(self, name, monkeypatch):
        # the certificate is formed from the divergence rows at the law reported
        # with it, unless the cutset certificate is smaller
        if name == "stalled":
            monkeypatch.setattr(dmc_relay, "_BUDGET", 50)
        channel, c0 = self.CASES[name]
        rep = capacity_ub_cor2(channel, c0)
        p = rep.argmax_input.probs
        d1 = divergence_rows(channel.matrix, p)
        d2 = divergence_rows(product_channel(channel).matrix, p)
        expected = min(dmc_relay._certificate(d1, d2, rep.penalty), rep.cutset)
        assert rep.cor2_bound.hex() == expected.hex()


class TestSolverProperties:
    """Invariants of the bound on draws of the benchmark's channel law.  The
    certificates are sums of rounded logarithms, so "equal" allows the
    solver's own rounding scale _ROUNDING."""

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_identical_rows_give_zero(self, data):
        rows, c0 = benchmark_law_channel(data)
        rep = capacity_ub_cor2(DiscreteChannel(np.tile(rows[0], (len(rows), 1))), c0)
        assert abs(rep.cor2_bound) <= dmc_relay._ROUNDING
        assert abs(rep.cutset) <= dmc_relay._ROUNDING

    @settings(max_examples=75, deadline=None)
    @given(st.data())
    def test_bound_is_nondecreasing_in_c0(self, data):
        # The maximum is nondecreasing in C0, since the penalty is.  The
        # objective at a reported law, cor2_bound less its gap, is a lower
        # value of the maximum at its C0, and cor2_bound an upper value at its own.
        rows, c0 = benchmark_law_channel(data)
        more = data.draw(st.lists(st.floats(0.01, 1.0), min_size=3, max_size=3), label="c0s")
        w = DiscreteChannel(rows)
        reports = [capacity_ub_cor2(w, rate) for rate in sorted([c0, *more])]
        for i, low in enumerate(reports):
            for high in reports[i + 1:]:
                floor = low.cor2_bound - low.suboptimality_gap - dmc_relay._ROUNDING
                assert high.cor2_bound >= floor, (low, high)

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_relabelling_moves_bounds_within_the_gap(self, data):
        # Each certificate sits between the true maximum and its objective,
        # so relabelling moves it by at most the larger gap.  The cutset's own
        # gap is not reported: rerun its solve as capacity_ub_cor2 does.
        rows, c0 = benchmark_law_channel(data)
        inputs = data.draw(st.permutations(range(rows.shape[0])), label="inputs")
        outputs = data.draw(st.permutations(range(rows.shape[1])), label="outputs")
        reports, cutset_gaps = [], []
        for matrix in (rows, rows[inputs][:, outputs]):
            w = DiscreteChannel(matrix)
            rep = capacity_ub_cor2(w, c0)
            solver = dmc_relay._DualSolver(w)
            solver.solve(rep.penalty)
            cutset, objective, _ = solver.solve(c0)
            assert cutset == rep.cutset
            reports.append(rep)
            cutset_gaps.append(cutset - objective)
        assume(all(rep.certified for rep in reports))
        a, b = reports
        gap = max(a.suboptimality_gap, b.suboptimality_gap)
        assert abs(a.cor2_bound - b.cor2_bound) <= gap + dmc_relay._ROUNDING
        assert abs(a.cutset - b.cutset) <= max(cutset_gaps) + dmc_relay._ROUNDING
