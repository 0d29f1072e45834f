"""Test-only oracles, written apart from the closed forms and solvers they check.

* golden-section minimizations of the variational definitions of c(h) and
  c_alpha(h), and the relaxed baseline h + sqrt(2h);
* the inverse of the baseline curve map r -> 2r + sqrt(2r);
* the implicit bound's largest h2 by the Halley loop that steps every entry
  on every pass, and v - log1p(v) with both branches formed everywhere;
* the mutual informations I(X;Y) and I(X;Y,Z) of an input law, the
  relay objective min{I(X;Y,Z), I(X;Y) + r} on a stack of input laws, and
  the divergence rows D(W_x || pW) of one input law;
* a simplex grid, the k-ary symmetric channel, and I_inf by minimax over
  output laws;
* the relay penalty C0 - c_alpha^{-1}(C0) from a 50-digit root (mpmath),
  the bounds of a channel whose symmetries take every input to every other,
  at the uniform law, and the bounds maximized over a simplex grid;
* the dense matrix of a semi-simple semigroup on flattened tables;
* the L^p norm of a table at 50 digits (mpmath);
* the exact entropies (h1, h2) of a small relay code at 50 digits (mpmath);
* the Gaussian quantizer's (h1, h2) with its posterior reduced one row per
  node, the order the library's column sweeps must reproduce bit for bit;
* the row of uniforms of each suite instance, built by numpy's Philox
  constructor at the row's counter; the seven suites as per-instance loops,
  each instance transformed from its row by scalar code and checked by one
  unstacked call, the way the suites ran before they drew by blocks and
  evaluated per shape group; and the relay code that `lemma4` draws from a row;
* a channel CSV writer, the inverse of `cli.read_channel_csv`.

They import only public names from relay_bounds.
"""

import math

import numpy as np

from relay_bounds.dmc_relay import (
    DiscreteChannel,
    InputDistribution,
    alpha_of_channel,
    product_channel,
)
from relay_bounds.errors import DimensionError
from relay_bounds.rhc_verify import (
    SuiteRecord,
    apply_semisimple,
    borell_critical_time,
    brute_force_entropy_gap,
    check_borell_exponential,
    check_mossel,
    check_ou_q0,
    gaussian_quantizer_gap,
    mossel_critical_time,
    mossel_q0_margin,
    stationary_measure,
)
from relay_bounds.scalar_bounds import (
    bdd_gap_closed,
    gauss_gap_closed,
    require_alpha,
    require_rate,
)

# Bracket width, relative to max(1, bracket end), and iteration budget of the
# golden-section search.
ABS_TOL = 1e-10
MAX_ITER = 200

_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


class ConvergenceError(RuntimeError):
    """The golden-section search exhausted its budget before reaching ABS_TOL."""


# ---------------------------------------------------------------------------
# Scalar entropy-gap oracles
# ---------------------------------------------------------------------------


def gauss_gap_variational(h: float) -> float:
    """Numerical oracle for c(h): minimize t + h/(1 - e^{-2t}) over t > 0.

    Uses golden-section search on a bracket found by geometric expansion; it
    never consults the closed form.
    """
    h = require_rate(h)
    if h == 0.0:
        return 0.0

    def objective(t: float) -> float:
        return t + h / -math.expm1(-2.0 * t)

    return _minimize_unimodal(objective)


def bdd_gap_variational(h: float, alpha: float) -> float:
    """Numerical oracle for c_alpha(h): minimize (alpha-1)*t + h/(1 - e^{-t})."""
    h = require_rate(h)
    alpha = require_alpha(alpha)
    if h == 0.0:
        return 0.0
    if alpha == 1.0:
        return h  # infimum as t -> infinity
    eps = alpha - 1.0

    def objective(t: float) -> float:
        return eps * t + h / -math.expm1(-t)

    return _minimize_unimodal(objective)


def gauss_gap_relaxed(h: float) -> float:
    """Relaxed Gaussian baseline h + sqrt(2h) (weaker than gauss_gap_closed)."""
    h = require_rate(h)
    return h + math.sqrt(2.0 * h)


def baseline_curve_inverse(c0: float) -> float:
    """Inverse of r -> 2r + sqrt(2r), the map of the fig2 `relaxed` column.

    This is NOT the inverse of the relaxed bound h + sqrt(2h): the baseline
    curve parametrizes the relay rate as C0 = 2r + sqrt(2r) and the capacity
    value as C0 - r + 0.5*ln(1+snr).  With s = sqrt(2r), s^2 + s = C0.
    """
    c0 = require_rate(c0, "c0")
    s = 2.0 * c0 / (1.0 + math.sqrt(1.0 + 4.0 * c0))  # stable quadratic root
    return 0.5 * s * s


def log1p_excess_where(v: np.ndarray) -> np.ndarray:
    """v - log1p(v), with both branches formed on every entry and one kept by np.where.

    The atanh series v*z - 2*(z^3/3 + ... + z^13/13), z = v/(2+v), below
    v = 0.1, and v - log1p(v) above.
    """
    z = v / (2.0 + v)
    z2 = z * z
    tail = 1 / 3 + z2 * (1 / 5 + z2 * (1 / 7 + z2 * (1 / 9 + z2 * (1 / 11 + z2 / 13))))
    return np.where(v < 0.1, v * z - 2.0 * z * z2 * tail, v - np.log1p(v))


def lemma3_h2max_all_entries(h1) -> np.ndarray:
    """Largest h2 with h2 - 0.5*ln(1 + 2*h2) = h1, every Halley pass over every entry.

    The same guesses, steps and stop rule (|step| <= 1e-6 * v) as the
    library's inverse, but each pass evaluates all entries and zeroes the
    step of those that have stopped.  h1 must be valid rates.
    """
    x = np.asarray(h1, dtype=float)
    y = 2.0 * x.ravel()
    v = np.zeros_like(y)
    pos = y > 0.0
    t = y[pos]
    q = np.sqrt(2.0 * t)
    w = np.where(t < 2.0, q + q * q * (1 / 3 + q / 36), t + np.log1p(t + np.log1p(t)))
    active = np.ones(t.shape, dtype=bool)
    for _ in range(8):
        f = log1p_excess_where(w) - t
        d1 = w / (1.0 + w)
        step = np.where(active, f / (d1 - 0.5 * f / (d1 * (1.0 + w) * (1.0 + w))), 0.0)
        w = w - step
        active &= np.abs(step) > 1e-6 * w
        if not active.any():
            break
    v[pos] = w
    return 0.5 * v.reshape(x.shape)


def _bracket_minimum(f, t0: float, max_expand: int) -> tuple[float, float]:
    """Bracket the minimizer of a unimodal f on (0, inf) by geometric expansion."""
    t1, f1 = t0, f(t0)
    t2 = 2.0 * t1
    f2 = f(t2)
    if f2 < f1:
        for _ in range(max_expand):
            t3 = 2.0 * t2
            f3 = f(t3)
            if f3 >= f2:
                return t1, t3
            t1, t2, f2 = t2, t3, f3
        raise ConvergenceError("bracket expansion failed while walking up")
    for _ in range(max_expand):
        t_low = 0.5 * t1
        f_low = f(t_low)
        if f_low >= f1:
            return t_low, t2
        t2, t1, f1 = t1, t_low, f_low
    raise ConvergenceError("bracket expansion failed while walking down")


def _minimize_unimodal(f, t0: float = 1e-6) -> float:
    """Golden-section minimum value of a unimodal f on (0, inf)."""
    lo, hi = _bracket_minimum(f, t0, max_expand=400)
    width_goal = ABS_TOL * max(1.0, hi)
    x1 = hi - _INV_GOLDEN * (hi - lo)
    x2 = lo + _INV_GOLDEN * (hi - lo)
    f1, f2 = f(x1), f(x2)
    for _ in range(MAX_ITER):
        if hi - lo <= width_goal:
            return min(f1, f2)
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _INV_GOLDEN * (hi - lo)
            f1 = f(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _INV_GOLDEN * (hi - lo)
            f2 = f(x2)
    raise ConvergenceError(
        f"golden-section search did not reach bracket width {width_goal} "
        f"within {MAX_ITER} iterations"
    )


# ---------------------------------------------------------------------------
# Discrete-channel oracles
# ---------------------------------------------------------------------------


def xlogx_sum(m: np.ndarray) -> np.ndarray:
    """Sums of m*ln(m) along the last axis with the 0*ln(0) = 0 convention,
    NaN entries counted as 0, by one `sum(axis=-1)`."""
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(m > 0.0, m * np.log(np.maximum(m, 1e-300)), 0.0)
    return terms.sum(axis=-1)


def mutual_info(p: InputDistribution, w: DiscreteChannel) -> float:
    """Single-letter mutual information I(X;Y) = H(Y) - H(Y|X) in nats, 0*ln(0) = 0."""
    probs = p.probs
    if probs.shape[0] != w.n_inputs:
        raise DimensionError(
            f"input distribution has {probs.shape[0]} entries, channel expects {w.n_inputs}"
        )
    q = probs @ w.matrix
    value = float(probs @ xlogx_sum(w.matrix)) - float(xlogx_sum(q))
    return max(value, 0.0)  # clamp -0.0 / rounding at independence


def mutual_info_product(p: InputDistribution, w: DiscreteChannel) -> float:
    """I(X;Y,Z) for the product observation (Y,Z) conditionally iid given X."""
    return mutual_info(p, product_channel(w))


def _mutual_info_rows(ps: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """I(X;Y) and I(X;Y,Z) for every input law in the rows of ps, each as
    H(output) - H(output | X), with the product channel formed here."""

    def mi(m):
        return ps @ xlogx_sum(m) - xlogx_sum(ps @ m)

    return mi(w), mi(np.einsum("xy,xz->xyz", w, w).reshape(w.shape[0], -1))


def relay_objective_rows(ps: np.ndarray, w: np.ndarray, r: float) -> np.ndarray:
    """min{I(X;Y,Z), I(X;Y) + r} for every input law in the rows of ps."""
    direct, joint = _mutual_info_rows(ps, w)
    return np.minimum(joint, direct + r)


def divergence_rows(w: np.ndarray, p: np.ndarray) -> np.ndarray:
    """D(W_x || pW) in nats for every row x of the matrix w, at the 1-D input law p.

    Each is sum_y W ln W less W ln(pW), with the products p @ W and W @ ln(pW)
    of 1-D numpy vectors and an output of no mass held at 1e-300.
    """
    return xlogx_sum(w) - w @ np.log(np.maximum(p @ w, 1e-300))


def simplex_grid(k: int, steps: int) -> np.ndarray:
    """All probability vectors with denominators `steps` on the k-simplex."""
    if k < 1 or steps < 1:
        raise ValueError("simplex_grid needs k >= 1 and steps >= 1")
    if k == 1:
        return np.ones((1, 1))
    if k == 2:
        i = np.arange(steps + 1)
        return np.stack([i, steps - i], axis=1) / steps
    if k == 3:
        i, j = np.meshgrid(np.arange(steps + 1), np.arange(steps + 1), indexing="ij")
        mask = i + j <= steps
        i, j = i[mask], j[mask]
        return np.stack([i, j, steps - i - j], axis=1) / steps
    if k == 4:
        rng_ = np.arange(steps + 1, dtype=np.int32)
        i, j, l = np.meshgrid(rng_, rng_, rng_, indexing="ij")
        mask = (i.astype(np.int64) + j + l) <= steps
        i, j, l = i[mask], j[mask], l[mask]
        return np.stack([i, j, l, steps - i - j - l], axis=1).astype(float) / steps
    raise ValueError("simplex_grid supports up to 4 symbols")


def k_ary_symmetric(k: int, crossover: float) -> DiscreteChannel:
    """k-input symmetric channel: each input kept w.p. 1 - crossover, else
    sent uniformly to one of the other k - 1 outputs."""
    m = np.full((k, k), crossover / (k - 1))
    np.fill_diagonal(m, 1.0 - crossover)
    return DiscreteChannel(m)


def relay_penalty_mp(w: DiscreteChannel, c0: float) -> float:
    """penalty = C0 - c_alpha^{-1}(C0) of the channel, from 50-digit values.

    alpha = sum_y max_x W(y|x) is summed at 50 digits, and the inverse is a
    root of the closed form c_alpha(h) = 2*eps * c(h/(2*eps)), eps = alpha - 1,
    with c(x) = ln(1 + x + s)/2 + (x + s)/2 and s = sqrt(x^2 + 2x).  Since
    c_alpha(h) >= h, the root lies in [0, C0].  Needs mpmath.
    """
    import mpmath as mp

    with mp.workdps(50):
        c0 = mp.mpf(c0)
        eps = mp.fsum(float(v) for v in w.matrix.max(axis=0)) - 1
        if c0 == 0 or eps == 0:
            return 0.0  # c_alpha(0) = 0, and c_1 is the identity

        def gap(h):
            x = h / (2 * eps)
            s = mp.sqrt(x * x + 2 * x)
            return eps * (mp.log1p(x + s) + x + s) - c0

        return float(c0 - mp.findroot(gap, (mp.mpf(0), c0), solver="anderson"))


def symmetric_channel_bounds(w: DiscreteChannel, c0: float) -> tuple[float, float, float]:
    """(cor2, cutset, penalty) of a channel whose symmetries take every input
    to every other, such as the BSC and the k-ary symmetric channel.

    There I(X;Y) and I(X;Y,Z) are concave in the input law and invariant
    under the symmetries, so min{I(X;Y,Z), I(X;Y) + r} is too, and averaging
    any maximizer over the symmetry group shows that the uniform law attains
    its maximum at every r.  The penalty is `relay_penalty_mp`.  Needs mpmath.
    """
    penalty = relay_penalty_mp(w, c0)
    uniform = np.full((1, w.n_inputs), 1.0 / w.n_inputs)
    direct, joint = (float(v[0]) for v in _mutual_info_rows(uniform, w.matrix))
    return min(joint, direct + penalty), min(joint, direct + c0), penalty


def grid_relay_bounds(w: DiscreteChannel, c0: float, steps: int) -> tuple[float, float]:
    """(cor2, cutset) objectives maximized over `simplex_grid(n_inputs, steps)`.

    Primal lower values of the two max-min bounds, which no certificate may
    fall below, with the penalty from `relay_penalty_mp`.  Needs mpmath.
    """
    laws = simplex_grid(w.n_inputs, steps)
    cor2 = relay_objective_rows(laws, w.matrix, relay_penalty_mp(w, c0)).max()
    return float(cor2), float(relay_objective_rows(laws, w.matrix, c0).max())


def i_inf_minimax_oracle(w: DiscreteChannel, grid_steps: int | None = None) -> float:
    """Independent minimax evaluation of I_inf.

    Minimizes over reference output laws Q the essential-sup ratio
    max_{x,y: W(y|x)>0} W(y|x)/Q(y), scanning a dense simplex grid plus the
    analytic optimum Q*(y) proportional to max_x W(y|x).  A law that puts no
    mass on an output some input reaches has an infinite ratio and is skipped.
    """
    m = w.matrix
    peak = m.max(axis=0)
    ny = w.n_outputs
    if grid_steps is None:
        grid_steps = {2: 4000, 3: 400, 4: 100}.get(ny, 40)
    qs = np.vstack([peak / peak.sum(), simplex_grid(ny, grid_steps)])
    reached = peak > 0.0
    qs = qs[np.all(qs[:, reached] > 0.0, axis=1)][:, reached]
    # max over x of W(y|x)/Q(y) is peak(y)/Q(y), rounded the same way
    return math.log(float((peak[reached] / qs).max(axis=1).min()))


def semisimple_dense(factors, t: float) -> np.ndarray:
    """Matrix of tensor_i [e^{-t} I + (1-e^{-t}) 1 P_i^T] on C-order flattened tables.

    The Kronecker product of one k x k matrix per factor P_i, first factor
    outermost, so `semisimple_dense(factors, t) @ f.ravel()` is T_t f.
    """
    keep = math.exp(-t)
    dense = np.ones((1, 1))
    for dist in factors:
        k = len(dist)
        simple = keep * np.eye(k) + (1.0 - keep) * np.outer(np.ones(k), dist)
        dense = np.kron(dense, simple)
    return dense


def lp_norm_mp(f, measure, p: float):
    """`rhc_verify.lp_norm` of one table at 50 digits, as an mpmath number.

    The plain definition E[f^p]^(1/p), exp(E[ln f]) at p = 0, and 0 for a
    zero of f on the support at p <= 0, under the measure normalised to mass
    1.  The working precision grows with 1/|p|, so that f^p - 1 keeps 50
    digits as p tends to 0.  Needs mpmath.
    """
    import mpmath

    weights = np.asarray(measure, dtype=float).ravel()
    support = weights > 0.0
    vals = [mpmath.mpf(float(v)) for v in np.asarray(f, dtype=float).ravel()[support]]
    extra = 0 if p == 0.0 else max(0, -math.floor(math.log10(abs(p))))
    with mpmath.workdps(60 + extra):
        wts = [mpmath.mpf(float(w)) for w in weights[support]]
        mass = mpmath.fsum(wts)
        if p <= 0.0 and any(v == 0 for v in vals):
            return mpmath.mpf(0)
        if p == 0.0:
            return mpmath.exp(mpmath.fsum(w * mpmath.log(v) for w, v in zip(wts, vals)) / mass)
        moment = mpmath.fsum(w * v**p for w, v in zip(wts, vals)) / mass
        return moment ** (1 / mpmath.mpf(p))


def relay_entropy_gap_mp(w, codebook, partition) -> tuple[float, float]:
    """`rhc_verify.brute_force_entropy_gap` of one code from 50-digit sums.

    The plain definitions, with each channel row normalised to mass 1 at 50
    digits: h1 = H(I|X^n)/n over the distinct codewords, each weighted by its
    share of the messages, and h2 = -sum P(i, y) ln P(i | y) / n over the
    joint law of the relay cell i and the observation sequence y.  Needs
    mpmath.
    """
    import mpmath as mp

    words = [tuple(word) for word in np.asarray(codebook, dtype=int).tolist()]
    cell_of = np.asarray(partition, dtype=int).tolist()
    with mp.workdps(50):
        rows = [[mp.mpf(float(v)) for v in row] for row in np.asarray(w, dtype=float)]
        rows = [[v / mp.fsum(row) for v in row] for row in rows]
        share: dict = {}
        for word in words:
            share[word] = share.get(word, 0) + mp.mpf(1) / len(words)
        seq, cells = {}, {}
        for word in share:
            law = [mp.mpf(1)]
            for symbol in word:
                law = [a * b for a in law for b in rows[symbol]]
            seq[word] = law
            cells[word] = {}
            for cell, mass in zip(cell_of, law):
                cells[word][cell] = cells[word].get(cell, 0) + mass
        h1 = -mp.fsum(
            share[word] * mass * mp.log(mass)
            for word in share
            for mass in cells[word].values()
            if mass > 0
        )
        joint: dict = {}
        for word, weight in share.items():
            for y, p_y in enumerate(seq[word]):
                for cell, p_cell in cells[word].items():
                    joint[cell, y] = joint.get((cell, y), 0) + weight * p_cell * p_y
        marginal: dict = {}
        for (_, y), mass in joint.items():
            marginal[y] = marginal.get(y, 0) + mass
        h2 = -mp.fsum(
            mass * mp.log(mass / marginal[y]) for (_, y), mass in joint.items() if mass > 0
        )
        n = len(words[0])
        return float(h1 / n), float(h2 / n)


def quantizer_gap_broadcast(xs, taus, nodes, weights) -> tuple[np.ndarray, np.ndarray]:
    """`rhc_verify.gaussian_quantizer_gap` of a (B, k) stack of constellations
    with (B, n) thresholds on the quadrature rule (nodes, weights), its
    posterior formed one row per node: one `max` and one `sum` reduction over
    each row's k inputs, and one `sum` over each entropy row's cells."""
    rows, k = xs.shape
    if taus.shape[-1] == 0:
        return np.zeros(rows), np.zeros(rows)
    edges = np.concatenate((np.full((rows, 1), -math.inf), taus, np.full((rows, 1), math.inf)), 1)
    z = -(edges[:, None, :] - xs[:, :, None]) / math.sqrt(2.0)
    cdf = 0.5 * np.reshape([math.erfc(v) for v in z.ravel().tolist()], z.shape)
    cell_given_x = np.clip(cdf[..., 1:] - cdf[..., :-1], 0.0, 1.0)
    h1 = np.mean(-xlogx_sum(cell_given_x), axis=-1)
    ys = (xs[:, :, None] + nodes).reshape(rows, -1)
    diff = ys[:, :, None] - xs[:, None, :]
    post = -0.5 * (diff * diff)
    post = np.exp(post - post.max(axis=-1, keepdims=True))
    post = post / post.sum(axis=-1, keepdims=True)
    terms = -xlogx_sum(post @ cell_given_x).reshape(-1, 1, len(nodes))
    # each node row against the weights as one BLAS dot, as `rhc_verify._expect`
    h2 = np.matmul(terms, weights[:, None]).reshape(rows, k).mean(axis=-1)
    return h1, h2


def stream_row(seed: int, idx: int, width: int) -> list[float]:
    """The width uniforms of suite instance idx at seed, as floats: Philox4x64
    keyed by the seed's SeedSequence, its counter's low word at idx*width/4."""
    key = np.random.SeedSequence(seed).generate_state(2, np.uint64)
    counter = [idx * width // 4, 0, 0, 0]
    return np.random.Generator(np.random.Philox(key=key, counter=counter)).random(width).tolist()


def _uniform(u: float, low: float, high: float) -> float:
    return low + (high - low) * u


def _spaced(us, low: float, high: float, gap: float) -> np.ndarray:
    """The uniforms us as sorted points gap apart: sorted on [low, high - (k-1) gap],
    the j-th then moved up by j gap."""
    top = high - (len(us) - 1) * gap
    return np.array([x + j * gap for j, x in enumerate(sorted(_uniform(u, low, top) for u in us))])


def _law(us) -> np.ndarray:
    """A Dirichlet(1) law: the exponentials -log1p(-u) over their sum."""
    e = -np.log1p(-np.array(us))
    return e / e.sum()


def _factors_and_table(us, n: int, k: int, zeroed: bool, scale: float):
    """n laws over k symbols, then a (k,)*n table of uniforms times scale, each entry
    set to 0 where the uniform at its place in the next k**n is below 0.3, if zeroed."""
    laws = tuple(_law(us[i * k : (i + 1) * k]) for i in range(n))
    size, shape = k**n, (k,) * n
    f = np.array(us[n * k : n * k + size]).reshape(shape) * scale
    if zeroed:
        f = np.where(np.array(us[n * k + size : n * k + 2 * size]).reshape(shape) < 0.3, 0.0, f)
    return laws, f


def relay_code(seed: int, idx: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The channel, codebook and partition that `relay_oracle_suite` draws from
    the row (seed, idx)."""
    u = stream_row(seed, idx, 52)
    ny, n, m = 2 + int(2 * u[0]), 1 + int(3 * u[1]), 1 + int(4 * u[2])
    if ny == 2:
        w = k_ary_symmetric(2, _uniform(u[3], 0.05, 0.45)).matrix
    else:
        w = np.array([_law(u[4:7]), _law(u[7:10])])
    book = np.array([[int(2 * x) for x in u[10 + j * n : 10 + (j + 1) * n]] for j in range(m)])
    n_z = ny**n
    cells = 1 + int(u[22] * min(8, n_z))
    return w, book, np.array([int(x * cells) for x in u[23 : 23 + n_z]])


def lemma4_suite_per_instance(n_instances: int, seed: int) -> list[SuiteRecord]:
    """`rhc_verify.relay_oracle_suite`, drawn and evaluated one instance at a time."""
    records = []
    for idx in range(n_instances):
        w, book, part = relay_code(seed, idx)
        h1, h2 = brute_force_entropy_gap(w, book, part)
        alpha = alpha_of_channel(DiscreteChannel(w))
        instance = {"channel": w.tolist(), "codebook": book.tolist(), "cells": int(part.max()) + 1,
                    "n": book.shape[1], "alpha": alpha, "h1": h1, "h2": h2}
        margin = bdd_gap_closed(h1, alpha) - h2
        records.append(SuiteRecord("lemma4", idx, instance, margin, margin >= -1e-9))
    return records


def borell_suite_per_instance(n_instances: int, seed: int, *, t_factor=1.0) -> list[SuiteRecord]:
    """`rhc_verify.borell_suite`, drawn and evaluated one instance at a time."""
    records = []
    for idx in range(n_instances):
        u = stream_row(seed, idx, 8)
        lam = _uniform(u[1], 0.1, 2.0) * (1.0 if u[0] < 0.5 else -1.0)
        x = _uniform(u[2], -3.0, 3.0)
        q = _uniform(u[3], -2.0, 0.8)
        p = _uniform(u[4], q + 0.05, min(q + 2.0, 0.999))
        critical = borell_critical_time(p, q)
        t = t_factor * critical
        margin = check_borell_exponential(lam, x, p, q, t)
        instance = {"lam": lam, "x": x, "p": p, "q": q, "t": t, "critical": critical}
        records.append(SuiteRecord("borell-exp", idx, instance, margin, margin >= -1e-12))
    return records


def ou_q0_suite_per_instance(n_instances: int, seed: int) -> list[SuiteRecord]:
    """`rhc_verify.ou_q0_suite`, drawn and evaluated one instance at a time."""
    records = []
    for idx in range(n_instances):
        u = stream_row(seed, idx, 8)
        a, b, floor = _uniform(u[0], 0.3, 3.0), _uniform(u[1], -2.0, 2.0), _uniform(u[2], 0.0, 0.2)

        def f(v, a=a, b=b, floor=floor):
            return floor + (1.0 - floor) / (1.0 + np.exp(-a * (v - b)))

        x, t = _uniform(u[3], -2.0, 2.0), _uniform(u[4], 0.05, 2.5)
        margin = check_ou_q0(f, x, t)
        instance = {"x": x, "t": t, "slope": a, "shift": b, "floor": floor}
        records.append(SuiteRecord("ou-q0", idx, instance, margin, margin >= -1e-9))
    return records


def mossel_suite_per_instance(
    n_instances: int, seed: int, *, n=None, t=None, p=None, q=None
) -> list[SuiteRecord]:
    """`rhc_verify.mossel_suite`, drawn and evaluated one instance at a time."""
    records = []
    for idx in range(n_instances):
        u = stream_row(seed, idx, 540)
        n_factors = 1 + int(3 * u[0]) if n is None else n
        k = 2 + int(3 * u[1])
        pp, qq = p, q
        if p is None:
            if u[2] < 0.1:
                pp = qq = _uniform(u[3], 0.05, 0.95)
            else:
                qq, pp = _spaced(u[4:6], -2.0, 1.0, 1e-6).tolist()
        critical = mossel_critical_time(pp, qq)
        time = t
        if t is None:
            extra = 0.0 if u[6] < 0.2 else _uniform(u[7], 0.0, 2.0)
            time = critical * (1.0 + extra) if critical > 0.0 else extra
        elif t == "critical":
            time = critical
        scale = _uniform(u[10], 0.5, 2.0) if u[9] < 0.25 else 1.0
        factors, f = _factors_and_table(u[11:], n_factors, k, u[8] < 0.25, scale)
        time = float(time)
        margin = check_mossel(factors, time, f, pp, qq)
        instance = {"n": n_factors, "alphabet": k, "p": float(pp), "q": float(qq),
                    "t": time, "critical": critical}
        records.append(SuiteRecord("mossel", idx, instance, margin, margin >= -1e-12))
    return records


def mossel_q0_suite_per_instance(n_instances: int, seed: int) -> list[SuiteRecord]:
    """`rhc_verify.mossel_q0_suite`, drawn and evaluated one instance at a time."""
    records = []
    for idx in range(n_instances):
        u = stream_row(seed, idx, 144)
        n, k = 1 + int(3 * u[0]), 2 + int(3 * u[1])
        factors, f = _factors_and_table(u[4:], n, k, u[3] < 0.3, 1.0)
        if not f.any():
            f[(0,) * n] = 0.5
        t = _uniform(u[2], 0.05, 3.0)
        margin = mossel_q0_margin(factors, t, f)
        instance = {"n": n, "alphabet": k, "t": t}
        records.append(SuiteRecord("mossel-q0", idx, instance, margin, margin >= -1e-12))
    return records


def semigroup_suite_per_instance(n_instances: int, seed: int) -> list[SuiteRecord]:
    """`rhc_verify.semigroup_suite`, drawn and evaluated one instance at a time."""
    records = []
    for idx in range(n_instances):
        u = stream_row(seed, idx, 148)
        n, k = 1 + int(3 * u[0]), 2 + int(3 * u[1])
        scale = _uniform(u[4], 0.5, 2.0) if u[3] < 0.25 else 1.0
        factors, f = _factors_and_table(u[7:], n, k, u[2] < 0.25, scale)
        t1, t2 = _uniform(u[5], 0.0, 2.0), _uniform(u[6], 0.0, 2.0)
        mu = stationary_measure(factors)
        two_step = apply_semisimple(factors, t1, apply_semisimple(factors, t2, f))
        one_step = apply_semisimple(factors, t1 + t2, f)
        dev_law = float(np.max(np.abs(two_step - one_step)))
        dev_stat = abs(float((mu * one_step).sum()) - float((mu * f).sum()))
        dev_unit = float(np.max(np.abs(apply_semisimple(factors, t1, np.ones(f.shape)) - 1.0)))
        margin = -max(dev_law, dev_stat, dev_unit, -float(one_step.min()))
        instance = {"n": n, "alphabet": k, "t1": t1, "t2": t2}
        records.append(SuiteRecord("semigroup", idx, instance, margin, margin >= -1e-12))
    return records


def quantizer_suite_per_instance(n_instances: int, seed: int) -> list[SuiteRecord]:
    """`rhc_verify.quantizer_oracle_suite`, drawn and evaluated one instance at a time."""
    records = []
    for idx in range(n_instances):
        u = stream_row(seed, idx, 12)
        k, n_taus = 2 + int(3 * u[0]), 1 + int(3 * u[1])
        xs = _spaced(u[2 : 2 + k], -3.0, 3.0, 1e-3)
        taus = _spaced(u[6 : 6 + n_taus], -3.0, 3.0, 1e-3)
        h1, h2 = gaussian_quantizer_gap(xs, taus)
        margin_gap = gauss_gap_closed(h1) - h2
        margin_log = 0.5 * math.log1p(2.0 * h2) - (h2 - h1)
        instance = {
            "constellation": xs.tolist(),
            "thresholds": taus.tolist(),
            "h1": h1,
            "h2": h2,
            "margin_gap": margin_gap,
            "margin_log": margin_log,
        }
        margin = min(margin_gap, margin_log)
        records.append(SuiteRecord("quantizer", idx, instance, margin, margin >= -1e-6))
    return records


def write_channel_csv(path: str, channel: DiscreteChannel) -> None:
    """One CSV row of shortest round-trip output probabilities per input symbol."""
    lines = [",".join(repr(float(v)) for v in row) for row in channel.matrix]
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")
