"""Capacity upper bound for primitive relay channels with bounded density.

For a discrete memoryless channel W = P(Y|X) = P(Z|X) the peak density ratio
is alpha = sum_y max_x W(y|x) (equivalently exp I_inf), and the capacity with
relay rate C0 satisfies

    C(C0) <= max_p min{ I(X;Y,Z),  I(X;Y) + C0 - c_alpha^{-1}(C0) }

where the outer maximum runs over input distributions p and c_alpha is the
bounded-density entropy-gap bound from scalar_bounds.  The cutset analogue
drops the penalty term.  By Sion's minimax theorem the max-min equals the
minimum over lam in [0, 1] of a weighted Blahut-Arimoto problem
max_p [lam I(X;Y,Z) + (1 - lam)(I(X;Y) + penalty)], and the output laws of any
input law give a closed-form upper bound on it.  Both bounds are reported as
that dual certificate, an upper value, from the divergence rows the solver
steps on, with the gap to the objective at the returned input law.  Since the
penalty is at most C0, the cutset certificate also bounds the corollary's
maximum; the reported bound is the smaller one.
Channel rows and input laws are checked by `scalar_bounds.require_law`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DomainError
from .scalar_bounds import bdd_gap_inverse, require_alpha, require_law, require_rate

_TINY = 1e-300


# eq=False here and below: array fields compare and hash by identity
@dataclass(frozen=True, eq=False)
class DiscreteChannel:
    """Row-stochastic |X| x |Y| transition matrix W(y|x)."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        shape = np.shape(self.matrix)
        if len(shape) != 2 or shape[0] < 2 or shape[1] < 2:
            raise DomainError(f"channel needs a 2-d matrix of at least 2x2, got shape {shape}")
        object.__setattr__(self, "matrix", require_law(self.matrix, "channel rows"))

    @property
    def n_inputs(self) -> int:
        return self.matrix.shape[0]

    @property
    def n_outputs(self) -> int:
        return self.matrix.shape[1]


@dataclass(frozen=True, eq=False)
class InputDistribution:
    """Probability vector over the channel input alphabet."""

    probs: np.ndarray

    def __post_init__(self) -> None:
        if np.ndim(self.probs) != 1:
            raise DomainError(f"input distribution must be 1-d, got shape {np.shape(self.probs)}")
        object.__setattr__(self, "probs", require_law(self.probs, "input distribution"))


@dataclass(frozen=True)
class DmcBoundReport:
    """Optimized discrete-channel bound with its cutset analogue.

    penalty = C0 - c_alpha^{-1}(C0) >= 0 is the residual relay contribution
    that replaces C0 in the cutset expression, so the improvement over the cutset
    bound is c_alpha^{-1}(C0).  cor2_bound and cutset are dual certificates,
    never below the true maxima, and cor2_bound is at most cutset, which
    bounds its maximum too.  suboptimality_gap = cor2_bound minus the
    objective at argmax_input, so it bounds how far cor2_bound can sit above
    the true maximum; certified means the gap is at most GAP_TOL = 1e-10.
    """

    alpha: float
    penalty: float
    cutset: float
    cor2_bound: float
    argmax_input: InputDistribution
    suboptimality_gap: float
    certified: bool


# ---------------------------------------------------------------------------
# alpha, I_inf, and the product channel
# ---------------------------------------------------------------------------


def alpha_of_channel(w: DiscreteChannel) -> float:
    """Peak density ratio alpha = sum_y max_x W(y|x); equals 1 iff all rows agree.

    It is at least any row's sum, which is 1 but for the rounding that
    `require_law` lets through, so a sum below 1 is taken as 1.
    """
    return max(float(w.matrix.max(axis=0).sum()), 1.0)


def _xlogx_rows(m: np.ndarray) -> np.ndarray:
    """Sums of W*ln(W) along the last axis, with the 0*ln(0) = 0 convention;
    a row of fewer than 8 entries is summed column by column (`_row_sums`)."""
    terms = np.maximum(m, _TINY)
    with np.errstate(divide="ignore", invalid="ignore"):
        np.log(terms, out=terms)  # in place: a stack of tables needs one buffer
        terms *= m
    terms[~(m > 0.0)] = 0.0  # NaN entries too
    return _row_sums(terms)


def _row_sums(a: np.ndarray) -> np.ndarray:
    """np.ascontiguousarray(a).sum(axis=-1), bit for bit: numpy adds a row of
    fewer than 8 entries left to right (longer ones in blocks of 8), so such
    rows are summed as column adds in that order, one vector add per column
    in place of a reduction per row."""
    width = a.shape[-1]
    if not 0 < width < 8:
        return np.ascontiguousarray(a).sum(axis=-1)
    total = a[..., 0].copy()
    for j in range(1, width):
        total += a[..., j]
    return total


def product_channel(w: DiscreteChannel) -> DiscreteChannel:
    """Two independent uses of W fed the same input: W2((y,z)|x) = W(y|x)W(z|x)."""
    m = w.matrix
    rows = np.einsum("xy,xz->xyz", m, m).reshape(w.n_inputs, -1)
    # rows sum to (row sum)^2; renormalize away the squared rounding residue
    rows = rows / rows.sum(axis=1, keepdims=True)
    return DiscreteChannel(rows)


# ---------------------------------------------------------------------------
# Dual Blahut-Arimoto solver
# ---------------------------------------------------------------------------

GAP_TOL = 1e-10  # a report is certified, and a weighted solve stops, at this gap
_MAX_STEP = 4.0  # cap on the Blahut-Arimoto step; larger ones mostly overshoot
# The 23 shortenings of a refused Newton step before it gives way: 2^-1 ... 2^-23
_SHORTENINGS = np.ldexp(1.0, -np.arange(1, 24))
_ROUNDING = 1e-14  # values closer than this are equal to rounding
# Every input keeps at least this mass: one dropped by mistake revives in a
# few dozen steps, and the mass left on an idle one is far below the gap.
_FLOOR = 1e-20
_BUDGET = 20000  # iterations per solver; past it the report stays uncertified


def _certificate(d1: np.ndarray, d2: np.ndarray, penalty: float) -> float:
    """min over lam in [0, 1] of max_x [lam*d2_x + (1 - lam)*(d1_x + penalty)].

    With d1, d2 the divergences D(W_x || q) at any output laws q, each line
    bounds lam*I(X;Y,Z) + (1 - lam)*(I(X;Y) + penalty) from above at every
    input law, so the minimum bounds the max-min objective.  The envelope is
    convex and piecewise linear: its minimum is at an end or a crossing.
    Each line is written d2 + (1 - lam)*(d1 + penalty - d2), which is d2
    exactly at lam = 1 however large the penalty, and the crossings come from
    d1 and d2 - d1, in which the penalty cancels.
    """
    excess = d2 - d1
    with np.errstate(divide="ignore", invalid="ignore"):
        cross = (d1[None, :] - d1[:, None]) / (excess[:, None] - excess[None, :])
    lams = np.concatenate(([0.0, 1.0], cross[(cross > 0.0) & (cross < 1.0)]))
    lines = d2[None, :] + (1.0 - lams)[:, None] * (d1 + penalty - d2)[None, :]
    return float(lines.max(axis=1).min())


def _divergence(w: np.ndarray, rowh: np.ndarray, p: np.ndarray) -> np.ndarray:
    """D(W_x || pW) for each row x of w (rowh: its sums of W ln W) at a law p, or at each
    (1, k) row of a stack; p @ W and ln(pW) @ W^T are gemv products, as for a lone law."""
    return rowh - np.log(np.maximum(p @ w, _TINY)) @ w.T


def _law(p: np.ndarray) -> np.ndarray:
    p = np.maximum(p, _FLOOR)
    return p / p.sum()


def _illinois(fn, f_a: float, f_b: float, max_iter: int) -> float:
    """Root of fn on [0, 1] by false position with Illinois halving.

    Needs fn(0) = f_a < 0 <= f_b = fn(1).  Stops after max_iter steps, at a
    root, when the bracket collapses or when fn returns None.
    """
    a, b, side, t = 0.0, 1.0, 0, 0.0
    for _ in range(max_iter):
        t = (a * f_b - b * f_a) / (f_b - f_a)
        f = fn(t)
        if f is None or abs(f) <= 1e-15 or b - a <= 1e-15:
            break
        if f < 0.0:
            a, f_a = t, f
            f_b *= 0.5 if side < 0 else 1.0
            side = -1
        else:
            b, f_b = t, f
            f_a *= 0.5 if side > 0 else 1.0
            side = 1
    return t


class _State(NamedTuple):
    """Input law p, d = lam*D2 + (1 - lam)*D1, the weighted value p.d and max(d)."""

    p: np.ndarray
    d: np.ndarray
    value: float
    top: float

    @property
    def gap(self) -> float:
        return self.top - self.value

    def improves(self, other: "_State") -> bool:
        """A higher value, or a smaller gap at a value equal to rounding: near
        the optimum a step gains in value only the square of its gain in gap."""
        if abs(self.value - other.value) > _ROUNDING:
            return self.value > other.value
        return self.gap < other.gap


class _DualSolver:
    """max_p min{I(X;Y,Z), I(X;Y) + penalty} through its Lagrange dual.

    By Sion's minimax theorem the maximum equals
        min over lam in [0, 1] of max_p [lam*I(X;Y,Z) + (1 - lam)*(I(X;Y) + penalty)],
    whose inner maximum is a weighted Blahut-Arimoto problem.  The slope of
    the outer function is I(X;Y,Z) - I(X;Y) - penalty at the inner maximizer,
    so a bracket on its sign localizes the optimal multiplier, and the witness
    is the mixture of the two bracketing maximizers on which both cuts agree.
    The maximizers at lam = 0 and 1 do not depend on the penalty, so one
    solver serves the bound and its cutset analogue.  Each weighted sum forms
    only its terms of nonzero weight, the joint one first: the endpoint
    solves never read the idle channel, and an interior lam gives the bits of
    lam*D2 + (1 - lam)*D1.
    """

    def __init__(self, w: DiscreteChannel):
        self.w1 = w.matrix
        self.w2 = product_channel(w).matrix
        self.rowh1 = _xlogx_rows(self.w1)
        self.rowh2 = _xlogx_rows(self.w2)
        self.steps_left = _BUDGET
        self._endpoints: dict[float, np.ndarray] = {}

    def _terms(self, lam: float) -> list[tuple[float, np.ndarray, np.ndarray]]:
        """(weight, channel, row sums of W ln W) of each cut with a nonzero
        weight, the joint one first: an endpoint never reads the idle channel."""
        terms = ((lam, self.w2, self.rowh2), (1.0 - lam, self.w1, self.rowh1))
        return [term for term in terms if term[0] != 0.0]

    def _evaluate(self, lam: float, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """d = lam*D2 + (1 - lam)*D1 and the value p.d, for one input law or a (B, k) stack.

        Each law goes through as a (1, k) row, so that every product of a stack
        row equals its own call's: (1,k) @ (k,m), (1,m) @ (m,k) and (1,k) @ (k,1).
        """
        rows = p[..., None, :]
        d = None
        for weight, w, rowh in self._terms(lam):
            term = _divergence(w, rowh, rows)
            if weight != 1.0:  # at an endpoint the one term is the divergence itself
                term *= weight
            d = term if d is None else d + term
        return d[..., 0, :], (rows @ d.swapaxes(-1, -2))[..., 0, 0]

    def _state(self, lam: float, p: np.ndarray) -> _State:
        d, value = self._evaluate(lam, p)
        return _State(p, d, float(value), float(d.max()))

    def _shortened_step(self, lam: float, x: _State, newton: np.ndarray) -> _State | None:
        """The first law (1 - t)*p + t*newton, t = 2^-1 ... 2^-23, that raises
        the value, or None; all of them are evaluated in one stacked pass."""
        t = _SHORTENINGS[:, None]
        trials = (1.0 - t) * x.p + t * newton
        d, values = self._evaluate(lam, trials)
        raised = np.flatnonzero(values > x.value)
        if not raised.size:
            return None
        i = raised[0]
        return _State(trials[i], d[i], float(values[i]), float(d[i].max()))

    def _newton_point(self, lam: float, x: _State) -> np.ndarray:
        """Newton maximizer of the weighted value on the face of near-optimal inputs.

        Inputs whose divergence trails the value by more than the gap leave
        the face.  The quadratic model is solved under sum(p) = 1 by least
        squares, since its Hessian -sum_i lam_i W_i diag(1/q_i) W_i^T is
        singular once the face has more inputs than independent rows.
        """
        face = x.d > x.value - x.gap
        at = self._state(lam, _law(np.where(face, x.p, 0.0)))
        n = int(face.sum())
        kkt = np.zeros((n + 1, n + 1))
        kkt[n, :n] = kkt[:n, n] = 1.0
        for weight, w, _ in self._terms(lam):
            on_face = w[face]
            kkt[:n, :n] += weight * (on_face / np.maximum(at.p @ w, _TINY)) @ on_face.T
        step = np.linalg.lstsq(kkt, np.append(at.d[face], 0.0), rcond=None)[0][:n]
        p = at.p.copy()
        p[face] = np.maximum(p[face] + step, 0.0)
        return _law(p)

    def weighted_argmax(self, lam: float, p: np.ndarray) -> np.ndarray:
        """Maximize lam*I(X;Y,Z) + (1 - lam)*I(X;Y) from the input law p.

        Each iteration keeps the better of a Blahut-Arimoto step
        p <- p*exp(s*d)/Z, which never lowers the value at s = 1, and a Newton
        step.  The full Newton step is tried first; if it is refused, its 23
        halvings toward p are evaluated as one stack, whose rows equal their
        one-at-a-time evaluations bit for bit, and the first that raises the
        value is taken.  Blahut-Arimoto alone crawls when rows nearly coincide
        or an optimal input has little mass; Newton alone can settle on a
        wrong face.  max_x d_x bounds the weighted maximum; the walk stops
        once it is within GAP_TOL of the value, the gap reports certify to.
        """
        x, step = self._state(lam, p), 1.0
        while self.steps_left > 0 and x.gap > GAP_TOL:
            self.steps_left -= 1
            best = self._state(lam, _law(x.p * np.exp(step * (x.d - x.top))))
            newton = self._newton_point(lam, x)
            trial = self._state(lam, newton)
            # the full step may narrow the gap instead of raising the value,
            # which is all it can do at the end; a shortened one must raise it
            if not (trial.value > x.value or trial.improves(x)):
                trial = self._shortened_step(lam, x, newton)
            if trial is not None and trial.improves(best):
                best = trial
            if best.value < x.value and step > 1.0:
                step = 1.0
                continue
            x, step = best, min(2.0 * step, _MAX_STEP)
        return x.p

    def _endpoint(self, lam: float) -> np.ndarray:
        if lam not in self._endpoints:
            k = self.w1.shape[0]
            self._endpoints[lam] = self.weighted_argmax(lam, np.full(k, 1.0 / k))
        return self._endpoints[lam]

    def solve(self, penalty: float) -> tuple[float, float, np.ndarray]:
        """(certificate, objective, input law) of the witness with the smallest gap."""
        best = (math.inf, 0.0, np.empty(0))

        def consider(p: np.ndarray) -> float:
            nonlocal best
            d1 = _divergence(self.w1, self.rowh1, p)
            d2 = _divergence(self.w2, self.rowh2, p)
            joint, direct = float(p @ d2), float(p @ d1) + penalty
            cert = _certificate(d1, d2, penalty)
            if cert - min(joint, direct) < best[0] - best[1]:
                best = (cert, min(joint, direct), p)
            return joint - direct

        lo = self._endpoint(0.0)
        s_lo = consider(lo)
        if s_lo >= 0.0:  # the direct cut binds alone at the I(X;Y) maximizer
            return best
        hi = self._endpoint(1.0)
        s_hi = consider(hi)
        if s_hi <= 0.0:  # the joint cut binds alone at the I(X;Y,Z) maximizer
            return best
        bracket = {False: (lo, s_lo), True: (hi, s_hi)}

        def kink_mixture() -> np.ndarray:
            (lo, s_lo), (hi, s_hi) = bracket[False], bracket[True]
            t = _illinois(lambda t: consider((1.0 - t) * lo + t * hi), s_lo, s_hi, 60)
            return (1.0 - t) * lo + t * hi

        mix = kink_mixture()

        def slope_at(lam: float) -> float | None:
            nonlocal mix
            if best[0] - best[1] <= GAP_TOL or self.steps_left <= 0:
                return None
            p = self.weighted_argmax(lam, mix)
            s = consider(p)
            bracket[s >= 0.0] = (p, s)
            mix = kink_mixture()
            return s

        _illinois(slope_at, s_lo, s_hi, _BUDGET)
        return best


def capacity_ub_cor2(
    w: DiscreteChannel,
    c0: float,
    *,
    alpha_override: float | None = None,
) -> DmcBoundReport:
    """Bounded-density capacity bound max_p min{I(X;YZ), I(X;Y) + C0 - c_a^{-1}(C0)}.

    alpha defaults to the channel's own peak ratio; pass alpha_override (no
    smaller) when the channel is only known through a density bound.  Both
    the bound and its cutset analogue are dual certificates, upper values on
    the true maxima.
    """
    c0 = require_rate(c0, "c0")
    own = alpha_of_channel(w)
    alpha = own if alpha_override is None else require_alpha(alpha_override, "alpha_override")
    if alpha < own - 1e-12:
        raise DomainError(f"alpha override {alpha} is below the channel's own peak ratio {own}")
    # c_alpha^{-1}(C0) <= C0, so a negative difference is the rounding of C0
    penalty = max(c0 - bdd_gap_inverse(c0, alpha), 0.0)
    solver = _DualSolver(w)
    cert, value, p = solver.solve(penalty)
    cutset, _, _ = solver.solve(c0)
    # The cor2 objective never exceeds the cutset one (the penalty is at most
    # C0), so the cutset certificate bounds it too when the solver stalls.
    cert = min(cert, cutset)
    gap = max(cert - value, 0.0)
    return DmcBoundReport(
        alpha=alpha,
        penalty=penalty,
        cutset=cutset,
        cor2_bound=cert,
        argmax_input=InputDistribution(p),
        suboptimality_gap=gap,
        certified=bool(gap <= GAP_TOL),
    )
