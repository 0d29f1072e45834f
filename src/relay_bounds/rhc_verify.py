"""Numerical verification of the reverse-hypercontractivity machinery.

This module checks, by exact enumeration on small alphabets and by Gaussian
quadrature, the inequalities that power the capacity bounds:

* semi-simple semigroups T_t = tensor_i [e^{-t} Id + (1-e^{-t}) P_i] satisfy
  ||T_t f||_q >= ||f||_p for q < p < 1 whenever t >= ln((1-q)/(1-p)),
  and the q=0 special case E[ln T_t f] >= (1 + 1/t) ln E[f] for f in [0,1]^n;
* the Ornstein-Uhlenbeck action T_{x,t} f(y) = E[f(e^{-t}y + (1-e^{-t})x
  + sqrt(1-e^{-2t}) V)] evaluated by the one fixed trapezoid rule that the
  quantizer entropies use too, each sum by the one private `_expect`; its
  exponential test functions have closed-form norms that exhibit the
  critical time t = 0.5*ln((1-q)/(1-p)) exactly;
* the entropy-gap bounds themselves, via exact relay-instance enumeration
  (discrete channels) and quantizer instances (Gaussian links at n = 1).

A semigroup is plain data: a tuple of factor laws P_i and a time t, which
`apply_semisimple(factors, time, f)`, `stationary_measure(factors)`,
`check_mossel(factors, time, f, p, q)` and `mossel_q0_margin(factors, time,
f)` take as they are; function tables are plain float arrays.  These kernels,
`ou_apply`, `check_ou_q0` and `gaussian_quantizer_gap` take one instance or a
stack of B same-shape instances along a new first axis, each row giving bit
for bit what its own call gives; `lp_norm` takes a stack of tables with a (B,)
array of indices.  Every call checks what it is given: factors and channels
by `scalar_bounds.require_law`, tables by `require_table`, and every number
(time, point, norm index) by the package's one rule, `require_real(s)`, which
takes ints and floats, not bools or strings.

`SUITES` names the seven randomized suites.  Each draws instance `index` as
an array transform of its row of K uniforms, those of
`Generator(Philox(key=key, counter=[index*K/4, 0, 0, 0])).random(K)` with
key = `SeedSequence(seed).generate_state(2, np.uint64)` and a width K that
the suite fixes, so any failure can be replayed from its record.  `_run`
draws a block of rows in one call and groups them by the shapes their leading
columns fix; a suite is one function of a group's rows, which returns their
fields and margins, and from those `_run` alone builds every record.
"""

from __future__ import annotations

import math
import numbers
from typing import Callable, NamedTuple

import numpy as np

from .dmc_relay import _row_sums, _xlogx_rows
from .errors import DimensionError, DomainError
from .scalar_bounds import (_number, bdd_gap_closed, gauss_gap_closed, require_law, require_real,
                            require_reals, require_table)

MAX_FACTORS = 4  # tensor factors of a semigroup (the `verify --n` range)
_MAX_ALPHABET = 6
_MAX_BLOCKLENGTH = 3
_MAX_MESSAGES = 8
# Instances per suite call; every record is held until the call returns.
MAX_INSTANCES = 100_000
# Instances a suite draws before it evaluates them.  It bounds the memory that
# drawn arrays and their stacks hold; the default 1,000 fit in one block.
_BLOCK = 1024

# The one rule against N(0, 1), that of `ou_apply`, `check_ou_q0` and the quantizer,
# read when called, so a test can patch another in: the trapezoid rule, step 0.25
# over [-9, 9] with weights phi(v) normalized to sum to 1, geometrically convergent
# in 1/step on their analytic, Gaussian-decaying integrands (Trefethen and Weideman).
_GRID = np.arange(-36, 37) * 0.25
_GRID_WEIGHTS = np.exp(-0.5 * _GRID * _GRID)
_GRID_WEIGHTS /= _GRID_WEIGHTS.sum()
_GRID.setflags(write=False)
_GRID_WEIGHTS.setflags(write=False)
# The bytes of one pass of the OU integrand, a (rows, points, m) float array: a
# sixth of a 2 MB per-core L2, so that its argument, f's values and their
# temporaries stay in the cache.  That is 8 rows of m x m at m = 73 and 2 at
# m = 145; a whole 55-row stack at m = 73 (2.3 MB) ran 10% slower than 8 rows
# and took 2 MB more memory.  A pass is cut across rows, so that each of f's
# per-row parameters is one value over m x m points: numpy broadcasts it far
# faster over long rows.
_PASS_BYTES = (2 << 20) // 6


def _expect(values: np.ndarray) -> np.ndarray:
    """Each row of values (its last axis) summed against `_GRID_WEIGHTS`, as
    np.dot(_GRID_WEIGHTS, row) sums it: numpy hands each (1, m) @ (m, 1) product
    to that BLAS dot, while a matrix-vector product may sum in another order."""
    out = np.matmul(values.reshape(-1, 1, _GRID_WEIGHTS.size), _GRID_WEIGHTS[:, None])
    return out.reshape(values.shape[:-1])


def _integers(values, name: str) -> np.ndarray:
    """Integer or bool values as they are, integral floats as ints; else a DomainError."""
    x = np.asarray(values)
    if x.dtype.kind in "biu":
        return x
    if x.dtype.kind == "f":
        with np.errstate(invalid="ignore"):  # NaN and inf cast to an integer they differ from
            ints = x.astype(int)
        if (ints == x).all():
            return ints
    raise DomainError(f"{name} must be integers, got {values!r}")


# ---------------------------------------------------------------------------
# Semigroup action and norms
# ---------------------------------------------------------------------------


def _laws(factors) -> tuple[np.ndarray, ...]:
    """Checked factor laws P_i: one law per factor, or (B, k_i) stacks of one depth B."""
    if len(factors) == 0:  # an (m, k) array is m factor laws, as tuple(array) is
        raise DomainError("semigroup needs at least one factor")
    if len(factors) > MAX_FACTORS:
        raise DomainError(f"at most {MAX_FACTORS} tensor factors are supported")
    factors = tuple(require_law(d, f"factor {i}") for i, d in enumerate(factors))
    stack = factors[0].shape[:-1]
    if any(
        d.shape[:-1] != stack or d.ndim > 2 or not 2 <= d.shape[-1] <= _MAX_ALPHABET
        for d in factors
    ):
        raise DomainError(
            f"factors must be vectors over 2..{_MAX_ALPHABET} symbols, or stacks of "
            f"them of one depth, got shapes {[d.shape for d in factors]}"
        )
    return factors


def _checked(factors, time) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
    """The semigroup tensor_i [e^{-t} Id + (1-e^{-t}) P_i] as checked laws and time.

    Either one law P_i per factor and a float time, or a stack of B semigroups
    of one shape: a (B, k_i) array of laws per factor and a (B,) array of
    times; the time comes back as a float array of the stack's shape, () for
    one semigroup.
    """
    factors = _laws(factors)
    t = require_reals(time, "time")
    stack = factors[0].shape[:-1]
    if t.shape != stack:
        raise DimensionError(f"time shape {t.shape} does not match the stack {stack}")
    if not (t >= 0.0).all():  # NaN fails too
        raise DomainError(f"time must be >= 0, got {time!r}")
    return factors, t


def apply_semisimple(factors, time, f: np.ndarray) -> np.ndarray:
    """Apply e^{-t} Id + (1-e^{-t}) P_i along every tensor axis.

    `factors` holds one law P_i over k_i symbols per tensor axis and `time`
    is t >= 0; a stack of B semigroups holds a (B, k_i) array of laws per
    factor and a (B,) array of times.  f must be a finite nonnegative table
    of shape (k_1, ..., k_n), or of shape (B, k_1, ..., k_n) for a stack,
    each row smoothed by its own semigroup exactly as an unstacked call
    smooths it.  f is left unchanged and a new table is returned.  Linear,
    positivity preserving, and unital (the all-ones table is fixed).
    """
    return _smooth(*_checked(factors, time), f)


def _smooth(factors, time, f) -> np.ndarray:
    """`apply_semisimple` on factors and time that `_checked` has returned."""
    out = require_table(f)
    stack = factors[0].shape[:-1]
    rows, shape = math.prod(stack), stack + tuple(d.shape[-1] for d in factors)
    if out.shape != shape:
        raise DimensionError(f"table shape {out.shape} does not match {shape}")
    # T_t f lies within [min f, max f], but rounding can leave it by a few ulp, past
    # the largest float: a row above 2^1023 is smoothed halved, clipped and doubled
    table = out.reshape(rows, -1)
    big = table.max(axis=1, keepdims=True) > 2.0**1023
    if big.any():
        half = np.where(big, 0.5 * table, table)
        low, high = half.min(axis=1, keepdims=True), half.max(axis=1, keepdims=True)
        smoothed = _smooth(factors, time, half.reshape(shape)).reshape(rows, -1)
        return np.where(big, 2.0 * np.clip(smoothed, low, high), smoothed).reshape(shape)
    t = np.reshape(time, (rows, 1, 1, 1))  # one coefficient per row
    keep, mix = np.exp(-t), -np.expm1(-t)
    pre, post = 1, out.size // rows
    for dist in factors:
        k = dist.shape[-1]
        post //= k
        # Each row as (axes before, this axis, axes after), averaged over this
        # axis by one (1, k) @ (k, pre*post) product: numpy hands each to the
        # BLAS gemv that np.dot(dist, ...) calls.  A matmul batched over `pre`
        # sums some entries in another order and moves margins by an ulp.
        view = out.reshape(rows, pre, k, post)
        flat = view.transpose(0, 2, 1, 3).reshape(rows, k, pre * post)
        avg = np.matmul(dist[..., None, :], flat)
        out = keep * view + mix * avg.reshape(rows, pre, 1, post)
        pre *= k
    return out.reshape(shape)


def stationary_measure(factors) -> np.ndarray:
    """Product table of the stationary measure tensor_i P_i, one per stack row."""
    return _product(_laws(factors))


def _product(factors) -> np.ndarray:
    """`stationary_measure` of factors that `_laws` or `_checked` has returned."""
    stack, table = factors[0].shape[:-1], factors[0]
    for i, dist in enumerate(factors[1:], 1):
        table = table[..., None] * dist.reshape(stack + (1,) * i + (-1,))
    return table


def lp_norm(f: np.ndarray, measure: np.ndarray, p: float | np.ndarray) -> float | np.ndarray:
    """L^p(Q) norm for p <= 1, with the p = 0 geometric-mean convention.

    s * exp(L / p), with L = ln E[e^{p x}] and x = ln(f / s) on the support of
    the measure; s is the largest value of f there for p > 0 and the least for
    p < 0, so that no power leaves the float range, and L = log1p(E[expm1(p x)])
    where E[e^{p x}] >= 1/2 keeps L / p accurate as p tends to 0.  At p = 0,
    s = 1 and the norm is exp(E[x]).  A zero of f on the support gives 0 at
    p <= 0.  A (B,) array p makes f and measure stacks of B tables along a new
    first axis and gives a (B,) array, each row equal to its own call bit for bit.
    Checks the tables, the measure's sum and the indices, then computes the
    norms by the unchecked `_lp_norm`.
    """
    values = require_table(f, "f")
    q = require_table(measure, "measure")
    if values.shape != q.shape:
        raise DimensionError(f"function shape {values.shape} != measure shape {q.shape}")
    index = require_reals(p, "p")
    if index.ndim > 1 or index.ndim == 1 and (values.ndim < 2 or values.shape[:1] != index.shape):
        raise DimensionError(f"indices of shape {index.shape} do not fit tables {values.shape}")
    rows = index.reshape(-1)
    values, q = values.reshape(len(rows), -1), q.reshape(len(rows), -1)
    # looser than LAW_TOL: the measure is a product of up to MAX_FACTORS laws
    if (np.abs(q.sum(axis=1) - 1.0) > 1e-9).any():
        raise DomainError("measure must sum to 1")
    bad = ~(np.isfinite(rows) & (rows <= 1.0))
    if bad.any():
        raise DomainError(f"norm index must be finite and <= 1, got {float(rows[bad][0])!r}")
    out = _lp_norm(values, q, rows)
    return out if index.ndim else float(out[0])


def _lp_norm(values: np.ndarray, measure: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """`lp_norm` of (B, m) tables and measures at a (B,) array of indices, unchecked.

    The caller has done the checks of `lp_norm`: finite nonnegative tables of
    one shape, measures summing to 1 and finite indices <= 1.
    """
    support = measure > 0.0
    top = np.where(support, values, 0.0).max(axis=1)
    least = np.where(support, values, math.inf).min(axis=1)
    # below the least normal float p x would be subnormal; the p -> 0 limit holds there
    limit = np.abs(rows) < np.finfo(float).tiny
    scale = np.where(limit, 1.0, np.where(rows > 0.0, top, least))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        x = np.where(support, np.log(values) - np.log(scale)[:, None], 0.0)
        px = rows[:, None] * x
        # E[x], E[expm1(p x)], E[e^{p x}]: a (1, m) @ (m, 3) product per row, as in a lone call
        terms = np.stack((x, np.expm1(px), np.exp(px)), axis=2)
        mean_x, mean_m1, mean_e = np.matmul(measure[:, None, :], terms).reshape(-1, 3).T
        log_mean = np.where(mean_e >= 0.5, np.log1p(mean_m1), np.log(mean_e))
        exponent = np.where(limit, mean_x, log_mean / rows)
        # e^{L/p} in halves: alone it can leave the float range where s e^{L/p} does not
        half = np.exp(exponent / 2.0)
        return np.where(scale > 0.0, scale * half * half, 0.0)  # s = 0: a zero of f on the support


def mossel_critical_time(p: float, q: float) -> float:
    """Critical semigroup time ln((1-q)/(1-p)) for finite norm indices q <= p < 1."""
    p, q = require_real(p, "p"), require_real(q, "q")
    if not -math.inf < q <= p < 1.0:
        raise DomainError(f"need finite q <= p < 1, got p={p}, q={q}")
    return math.log((1.0 - q) / (1.0 - p))


def check_mossel(
    factors, time, f: np.ndarray, p: float | np.ndarray, q: float | np.ndarray
) -> float | np.ndarray:
    """Margin ||T_t f||_q - ||f||_p for the semi-simple semigroup at any time t >= 0.

    Requires finite q <= p < 1; from t = ln((1-q)/(1-p)) on, reverse
    hypercontractivity makes the margin nonnegative (p = q is the Jensen
    baseline, critical time 0).  For a stack of B semigroups, f is a (B, k_1,
    ..., k_n) table stack, p and q are (B,) arrays, and the margins are a (B,)
    array, each equal to its row's own call bit for bit.
    """
    factors, time = _checked(factors, time)
    stack = factors[0].shape[:-1]
    p, q = require_reals(p, "p"), require_reals(q, "q")
    if p.shape != stack or q.shape != stack:
        raise DimensionError(f"p and q of shapes {p.shape}, {q.shape} do not fit the stack {stack}")
    bad = ~((-math.inf < q) & (q <= p) & (p < 1.0))  # NaN fails too
    if bad.any():
        mossel_critical_time(p[bad][0], q[bad][0])  # raises its message for the first such row
    smoothed = _smooth(factors, time, f)
    # the checks of lp_norm hold: one shape, a product of laws, indices checked above
    rows = math.prod(stack)
    mu = _product(factors).reshape(rows, -1)
    lhs = _lp_norm(smoothed.reshape(rows, -1), mu, q.reshape(-1))
    out = lhs - _lp_norm(np.asarray(f, dtype=float).reshape(rows, -1), mu, p.reshape(-1))
    return out if stack else float(out[0])


def mossel_q0_margin(factors, time, f: np.ndarray) -> float | np.ndarray:
    """Margin E[ln T_t f] - (1 + 1/t) ln E[f] for f in [0,1]^n, t > 0.

    A stack of B semigroups with a (B, k_1, ..., k_n) table stack gives a
    (B,) array of margins, each equal to its row's own call bit for bit.
    """
    factors, time = _checked(factors, time)
    times = np.reshape(time, -1)
    if (times <= 0.0).any():
        raise DomainError("the q=0 inequality needs t > 0")
    f = np.asarray(f, dtype=float)
    if (f > 1.0 + 1e-12).any():
        raise DomainError("the q=0 inequality needs f taking values in [0, 1]")
    smoothed = _smooth(factors, time, f).reshape(len(times), -1)
    mu = _product(factors).reshape(len(times), -1)
    # one flat row per instance, so that each sum runs as over its own table
    means = (mu * f.reshape(len(times), -1)).sum(axis=1)
    if (means <= 0.0).any():
        raise DomainError("f must have positive mass under the stationary measure")
    with np.errstate(divide="ignore"):
        logs = np.where(mu > 0.0, np.log(smoothed), 0.0)
    # one (1, m) @ (m, 1) product per row, so that a stack row sums as its own call does
    lhs = np.matmul(mu[:, None, :], logs[:, :, None]).reshape(-1)
    out = lhs - (1.0 + 1.0 / times) * np.log(np.minimum(means, 1.0))
    # T_t f vanished on the support: ln E[f] finite while lhs is -inf cannot happen for t>0
    out[lhs == -math.inf] = math.inf
    return out if np.ndim(time) else float(out[0])


# ---------------------------------------------------------------------------
# Ornstein-Uhlenbeck action and Borell margins
# ---------------------------------------------------------------------------


def _ou_rows(x, t, params) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
    """Finite points x, real times t and f's parameters as (B,) float arrays;
    floats are a stack of one."""
    xs, ts = require_reals(x, "x"), require_reals(t, "time")
    ps = [np.asarray(p, dtype=float) for p in params]
    if ts.ndim > 1 or ts.size == 0 or any(a.shape != ts.shape for a in [xs, *ps]):
        raise DimensionError(f"x, t and f's parameters must be floats or nonempty (B,) "
                             f"arrays, got shapes {[np.shape(a) for a in (x, t, *params)]}")
    if not np.isfinite(xs).all():
        raise DomainError(f"x must be finite, got {x!r}")
    return xs.reshape(-1), ts.reshape(-1), [a.reshape(-1) for a in ps]


def ou_apply(
    f: Callable[..., np.ndarray],
    x: float | np.ndarray,
    y: float | np.ndarray,
    t: float | np.ndarray,
    *params: float | np.ndarray,
) -> float | np.ndarray:
    """Quadrature value of T_{x,t} f(y) = E[f(e^{-t}y + (1-e^{-t})x + sd*V)].

    f(points, *params) must act entrywise on a numpy array of points, which
    it may overwrite and return; sd = sqrt(1 - e^{-2t}); V takes the
    trapezoid nodes `_GRID`.  A float y gives a float; an array gives an
    array of its shape, each entry exactly as its float call gives it, since
    `_expect` sums each entry's quadrature row by its own dot.  (B,) arrays
    x, t and params are a stack of B actions on a (B, ...) array y, each row
    equal to its own float call bit for bit.  f gets the points of a few rows
    at a time, one (rows, ...) buffer of at most `_PASS_BYTES`, with each
    parameter as a (rows, 1, ...) array of those rows' values.
    """
    xs, ts, ps = _ou_rows(x, t, params)
    if not (ts >= 0.0).all():  # NaN fails too
        raise DomainError(f"time must be >= 0, got {t!r}")
    y = require_reals(y, "y")
    if np.ndim(t) and y.shape[:1] != ts.shape:
        raise DimensionError(f"points of shape {y.shape} do not fit the stack {ts.shape}")
    times = ts.tolist()  # each row's scalars by `math`, as its float call forms them
    keep = np.array([[math.exp(-s)] for s in times])
    mix = np.array([[-math.expm1(-s)] for s in times])
    sd = np.array([[math.sqrt(-math.expm1(-2.0 * s))] for s in times])
    points = y.reshape(len(times), -1)
    if points.size == 0:
        return np.empty(y.shape)
    mean = keep * points + mix * xs[:, None]
    spread = sd * _GRID
    (size, n), m = points.shape, _GRID.size
    step = max(1, _PASS_BYTES // (8 * n * m))  # rows in a pass
    args = np.empty((min(step, size), n, m))
    ps = [a.reshape(-1, 1, 1) for a in ps]
    out = np.empty((size, n))
    for r in range(0, size, step):
        arg = args[: min(step, size - r)]
        np.add(mean[r : r + step, :, None], spread[r : r + step, None, :], out=arg)
        values = f(arg, *(a[r : r + step] for a in ps))
        out[r : r + step] = _expect(np.asarray(values, dtype=float))
    return out.reshape(y.shape) if y.ndim else float(out[0, 0])


def check_ou_q0(
    f: Callable[..., np.ndarray],
    x: float | np.ndarray,
    t: float | np.ndarray,
    *params: float | np.ndarray,
) -> float | np.ndarray:
    """Margin E[ln T_{x,t} f] - (1 + 1/(2t)) ln E[f] for f in [0,1], by quadrature.

    Both expectations run against the stationary measure N(x, 1), on x + `_GRID`.
    f(points, *params) is as in `ou_apply`: (B,) arrays x, t and params are
    a stack of B margins, a (B,) array, each equal to its own float call bit
    for bit.  The smoothing is one `ou_apply` call.
    """
    xs, ts, ps = _ou_rows(x, t, params)
    if not (ts > 0.0).all():
        raise DomainError("the q=0 inequality needs t > 0")
    ys = xs[:, None] + _GRID
    vals = np.asarray(f(ys.copy(), *(a[:, None] for a in ps)), dtype=float)
    mean = _expect(vals)
    if not (np.all((vals >= 0.0) & (vals <= 1.0 + 1e-12)) and (mean > 0.0).all()):
        raise DomainError("f must map the quadrature nodes into [0, 1] with positive mass")
    smoothed = ou_apply(f, xs, ys, ts, *ps)
    if np.any(smoothed <= 0.0):
        raise DomainError("T_t f vanished at a quadrature node; use f with positive mass")
    log_mean = np.array([math.log(min(v, 1.0)) for v in mean.tolist()])
    out = _expect(np.log(smoothed)) - (1.0 + 0.5 / ts) * log_mean
    return out if np.ndim(t) else float(out[0])


def check_borell_exponential(lam: float, x: float, p: float, q: float, t: float) -> float:
    """Log-margin ln||T_{x,t} f||_q - ln||f||_p for f(u) = e^{lam*u}.

    Under the stationary measure N(x, 1) both norms are explicit:
        ln||f||_p        = lam*x + p*lam^2/2
        ln||T_t f||_q    = lam*x + lam^2*((1-e^{-2t}) + q*e^{-2t})/2
    so the margin is lam^2*((1-e^{-2t}) + q*e^{-2t} - p)/2, which is zero
    exactly at the critical time t = 0.5*ln((1-q)/(1-p)) and increasing in t.
    """
    # floats are real and skip the calls: 0.37 us a call, not 1.7 (timeit, 2 CPUs);
    # a benchmark borell_suite call makes 300
    if not type(lam) is type(x) is type(p) is type(q) is type(t) is float:
        lam, x, p, q, t = map(require_real, (lam, x, p, q, t), ("lam", "x", "p", "q", "time"))
    if not -math.inf < q < p < 1.0:
        raise DomainError(f"need finite q < p < 1, got p={p}, q={q}")
    if not t >= 0.0:  # NaN fails too
        raise DomainError(f"time must be >= 0, got {t!r}")
    if not (math.isfinite(lam) and math.isfinite(x)):
        raise DomainError(f"lam and x must be finite, got lam={lam!r}, x={x!r}")
    lhs = lam * x + 0.5 * lam * lam * (-math.expm1(-2.0 * t) + q * math.exp(-2.0 * t))
    rhs = lam * x + 0.5 * lam * lam * p
    return lhs - rhs


def borell_critical_time(p: float, q: float) -> float:
    """Critical OU time 0.5*ln((1-q)/(1-p)) for finite norm indices q < p < 1."""
    p, q = require_real(p, "p"), require_real(q, "q")
    if not -math.inf < q < p < 1.0:
        raise DomainError(f"need finite q < p < 1, got p={p}, q={q}")
    return 0.5 * math.log((1.0 - q) / (1.0 - p))


# ---------------------------------------------------------------------------
# Exact entropy-gap oracles
# ---------------------------------------------------------------------------


def brute_force_entropy_gap(
    channel, codebook, partition
) -> tuple[float, float] | tuple[np.ndarray, np.ndarray]:
    """Exact (h1, h2) = ((1/n)H(I|X^n), (1/n)H(I|Y^n)) by full enumeration.

    A relay code on the (kx, ny) channel W: the (m, n) codebook holds one
    codeword per message, messages are uniform, Y^n and Z^n are
    conditionally iid given the codeword, and the relay message I is the
    cell that the (ny^n,) partition gives Z^n, its observations enumerated
    in C order (last symbol fastest).  Symbols and cells are integers, bools
    or integral floats, cells in 0..ny^n - 1.  A (B, kx, ny) channel with a
    (B, m, n) codebook and a (B, ny^n) partition is a stack of B codes and
    gives two (B,) arrays, each entry equal to its row's own call bit for
    bit.  Each entropy is that of a law normalized by its own sum (the cell
    law of a codeword, the law of I given Y^n), so a code whose relay
    message has one occupied cell gives exact zeros.
    """
    w = require_law(channel, "channel rows")
    if w.ndim not in (2, 3) or min(w.shape[-2:]) < 2:
        raise DomainError(f"channel must be a matrix of at least 2x2, or a stack, got {w.shape}")
    stack, (kx, ny) = w.shape[:-2], w.shape[-2:]
    try:
        book = np.asarray(codebook)
    except ValueError:  # ragged
        raise DomainError("all codewords must share one blocklength") from None
    if book.ndim != w.ndim or book.shape[:-2] != stack:
        raise DomainError(f"codebook of shape {book.shape} does not fit channel {w.shape}")
    m, n = book.shape[-2:]
    if not 1 <= m <= _MAX_MESSAGES:
        raise DomainError(f"codebook must hold 1..{_MAX_MESSAGES} messages, got {m}")
    if not 1 <= n <= _MAX_BLOCKLENGTH:
        raise DomainError(f"blocklength must be 1..{_MAX_BLOCKLENGTH}, got {n}")
    book = _integers(book, "codeword symbols").astype(int, copy=False)
    if book.min() < 0 or book.max() >= kx:
        raise DomainError(f"codeword symbols must index the {kx}-ary input alphabet")
    n_z = ny**n
    part = _integers(partition, "partition cells").astype(int, copy=False)
    if part.shape != stack + (n_z,):
        raise DomainError(f"partition must assign a cell to each of the {n_z} relay observations")
    # a cell per observation at most: the one-hot cell table below is n_z wide
    if part.min() < 0 or part.max() >= n_z:
        raise DomainError(f"partition cells must be integers in 0..{n_z - 1}")

    w, book, part = w.reshape(-1, kx, ny), book.reshape(-1, m, n), part.reshape(-1, n_z)
    rows = np.arange(len(w))[:, None]
    # the law of Y^n, and of Z^n, given each codeword: a product over its symbols
    seq = w[rows, book[..., 0]]
    for j in range(1, n):
        seq = (seq[..., None] * w[rows, book[..., j]][..., None, :]).reshape(len(w), m, -1)
    cell_given_word = seq @ (part[..., None] == np.arange(n_z)).astype(float)
    laws = cell_given_word / cell_given_word.sum(axis=-1, keepdims=True)
    # m P(y, i), one row per y; each row over its sum m P(y) is the law of I given y
    joint = np.swapaxes(seq, 1, 2) @ cell_given_word
    mass = joint.sum(axis=-1)
    given_y = joint / np.where(mass > 0.0, mass, 1.0)[..., None]
    # 0.0 - x, not -x, so that an exact zero is +0.0
    h1 = 0.0 - np.mean(_xlogx_rows(laws), axis=-1) / n
    h2 = 0.0 - (mass * _xlogx_rows(given_y)).sum(axis=-1) / (m * n)
    return (h1, h2) if stack else (float(h1[0]), float(h2[0]))


# math.erfc entrywise; the result is an object array, cast it to float
_erfc = np.frompyfunc(math.erfc, 1, 1)


def gaussian_quantizer_gap(
    constellation, thresholds
) -> tuple[float, float] | tuple[np.ndarray, np.ndarray]:
    """Exact-h1 / quadrature-h2 pair for a one-shot Gaussian relay quantizer.

    X is uniform on the constellation (noise variance 1, points pre-scaled),
    Z = X + N(0,1) is quantized by the sorted thresholds into I, and
    Y = X + N(0,1) independently.  h1 = H(I|X) comes from normal CDF
    differences; h2 = H(I|Y) integrates the posterior entropy over Y = x_c + V
    on the nodes x_c + `_GRID` of each point x_c.  A (B, k) constellation with
    (B, n) thresholds is a stack of B quantizers and gives two (B,) arrays,
    each entry equal to its row's own call bit for bit.  The posterior is
    formed input-first, and each node's normalizer and each entropy row of
    fewer than 8 cells is summed column by column, first to last, the order
    in which numpy sums such a row: the bits of one `sum` per row.
    """
    xs = require_reals(constellation, "constellation")
    taus = require_reals(thresholds, "thresholds")
    if xs.ndim not in (1, 2) or xs.shape[-1] < 1 or not np.all(np.isfinite(xs)):
        raise DomainError("constellation must be a nonempty finite vector, or a stack of them")
    if taus.shape[:-1] != xs.shape[:-1] or taus.ndim != xs.ndim or not np.all(np.isfinite(taus)):
        raise DomainError(
            "thresholds must be a finite vector, or a stack as deep as the constellation's"
        )
    if np.any(np.diff(taus) <= 0.0):
        raise DomainError("thresholds must be strictly increasing")
    stacked = xs.ndim == 2
    if taus.shape[-1] == 0:  # a single quantizer cell carries no information
        return (np.zeros(len(xs)), np.zeros(len(xs))) if stacked else (0.0, 0.0)

    xs, taus = xs.reshape(-1, xs.shape[-1]), taus.reshape(-1, taus.shape[-1])
    rows, k = xs.shape
    # P(I = i | X = x) via Phi differences, columns are quantizer cells; Phi is
    # exactly 0 and 1 at the outer edges -inf and inf
    inner = 0.5 * _erfc(-(taus[:, None, :] - xs[:, :, None]) / math.sqrt(2.0)).astype(float)
    cdf = np.concatenate((np.zeros((rows, k, 1)), inner, np.ones((rows, k, 1))), axis=2)
    cell_given_x = np.clip(cdf[..., 1:] - cdf[..., :-1], 0.0, 1.0)
    h1 = np.mean(-_xlogx_rows(cell_given_x), axis=-1)

    # h2: for Y = x_c + v, the posterior over inputs is a softmax of -(y-x)^2/2,
    # (rows, k, k*m) input-first: a step over the k inputs is one vector op
    ys = (xs[:, :, None] + _GRID).reshape(rows, 1, -1)
    # in place, so that a stack holds few tables of k*m nodes at once
    post = ys - xs[:, :, None]
    post *= post
    post *= -0.5
    post -= post.max(axis=1, keepdims=True)
    np.exp(post, out=post)
    post /= _row_sums(post.transpose(0, 2, 1))[:, None, :]
    # back to C order (rows, k*m, k): BLAS products round by memory order
    cell_given_y = np.ascontiguousarray(post.transpose(0, 2, 1)) @ cell_given_x
    del post
    # each point's expectation over its own nodes, then their mean over the k points
    h2 = _expect(-_xlogx_rows(cell_given_y).reshape(rows, k, -1)).mean(axis=-1)
    return (h1, h2) if stacked else (float(h1[0]), float(h2[0]))


# ---------------------------------------------------------------------------
# Randomized suites (one row of uniforms per instance)
# ---------------------------------------------------------------------------


class SuiteRecord(NamedTuple):
    """One verified instance: descriptor, margin, and pass flag."""

    suite: str
    index: int
    instance: dict
    margin: float
    passed: bool


def _each(*columns: np.ndarray) -> zip:
    """The rows of same-length columns, each a tuple of Python objects."""
    return zip(*(c.tolist() for c in columns))


def _run(
    suite: str,
    tol: float,
    n_instances: int,
    seed: int,
    width: int,
    shape: tuple[tuple[int, int], ...],
    group: Callable[..., tuple[dict, list | np.ndarray]],
) -> list[SuiteRecord]:
    """Records of the instances drawn from the rows of uniforms of seed, in index order.

    Row i of the (n_instances, width) uniforms of `Generator(Philox(key=key))`
    is `Generator(Philox(key=key, counter=[i*width/4, 0, 0, 0])).random(width)`,
    as Philox gives four words per counter step and width is a multiple of 4;
    each block of _BLOCK rows is one `random((B, width))` call.  Column j holds
    the integer low + floor(count*u) of shape[j] = (low, count).  The rows
    whose integers agree form a group, and `group(rows, *integers)` returns
    (fields, margins) for its (B, width) rows: each field in record order a
    value the group shares or a (B, ...) array or list of B rows, and margins a
    (B,) array or list.  A margin of at least -tol passes.
    """
    if not all(_number(v, numbers.Integral) and v >= 0 for v in (n_instances, seed)):
        raise DomainError(f"count and seed must be integers >= 0, got {n_instances!r}, {seed!r}")
    if n_instances > MAX_INSTANCES:
        raise DomainError(f"at most {MAX_INSTANCES} instances per suite, got {n_instances}")
    records = []
    key = np.random.SeedSequence(seed).generate_state(2, np.uint64)
    rng = np.random.Generator(np.random.Philox(key=key))
    low, count = np.array(shape, dtype=int).reshape(-1, 2).T
    for start in range(0, n_instances, _BLOCK):
        u = rng.random((min(_BLOCK, n_instances - start), width))
        groups: dict = {}
        for i, ints in enumerate(((u[:, : len(low)] * count).astype(int) + low).tolist()):
            groups.setdefault(tuple(ints), []).append(i)
        drawn = [None] * len(u)
        for ints, members in groups.items():
            fields, margins = group(u[members], *ints)
            margins, *columns = (v.tolist() if type(v) is np.ndarray else v if type(v) is list
                                 else [v] * len(members) for v in (margins, *fields.values()))
            instances = [dict(zip(fields, values)) for values in zip(*columns)]
            for i, instance, margin in zip(members, instances, map(float, margins)):
                drawn[i] = SuiteRecord(suite, start + i, instance, margin, margin >= -tol)
        records += drawn
    return records


def _uniform(u: np.ndarray, low, high) -> np.ndarray:
    """Uniforms u on [0, 1) mapped onto [low, high), by a multiply and an add."""
    return low + (high - low) * u


def _spaced(u: np.ndarray, low: float, high: float, gap: float) -> np.ndarray:
    """The (B, k) uniforms u as k sorted points per row in [low, high], each
    at least gap above the last.  They are sorted on [low, high - (k-1) gap]
    and the j-th is moved up by j gap: a map with unit Jacobian, so the law
    is that of uniforms redrawn until they lie gap apart (Devroye 1986)."""
    k = u.shape[1]
    return np.sort(_uniform(u, low, high - (k - 1) * gap), axis=1) + gap * np.arange(k)


def _dirichlet(u: np.ndarray, k: int) -> np.ndarray:
    """Dirichlet(1) laws over k symbols from (B, n*k) uniforms: a (B, n, k)
    array of -log1p(-u), exponential variables, normalized per law."""
    e = -np.log1p(-u.reshape(len(u), -1, k))
    return e / e.sum(axis=2, keepdims=True)


def _factors_and_table(u, n: int, k: int, zeroed: np.ndarray, scale: np.ndarray):
    """n Dirichlet(1) laws over k symbols from the first n*k columns of u, and a
    (k,)*n table of the next k**n uniforms times `scale`; the k**n after those
    set each entry to 0 with probability 0.3 in the rows where `zeroed` holds."""
    size, shape, rows = k**n, (len(u),) + (k,) * n, (-1,) + (1,) * n
    laws = _dirichlet(u[:, : n * k], k).transpose(1, 0, 2).copy()
    f = u[:, n * k : n * k + size].reshape(shape) * scale.reshape(rows)
    zero = zeroed.reshape(rows) & (u[:, n * k + size : n * k + 2 * size].reshape(shape) < 0.3)
    return tuple(laws), np.where(zero, 0.0, f)


def mossel_suite(
    n_instances: int,
    seed: int,
    *,
    n: int | None = None,
    t: float | str | None = None,
    p: float | None = None,
    q: float | None = None,
) -> list[SuiteRecord]:
    """Randomized reverse-hypercontractivity margins for semi-simple semigroups.

    n (1..MAX_FACTORS), t and the pair (p, q) (finite, q <= p < 1) are drawn
    per instance unless given.  t="critical" puts every instance at its
    critical time ln((1-q)/(1-p)); a numeric t needs p and q and may not lie
    below that time.  Bad keywords raise DomainError before the first draw.
    """
    if n is not None and not (_number(n, numbers.Real) and n in range(1, MAX_FACTORS + 1)):
        raise DomainError(f"n must lie in 1..{MAX_FACTORS}, got {n!r}")
    if (p is None) != (q is None):
        raise DomainError("p and q fix the norm indices together; give both or neither")
    critical = None if p is None else mossel_critical_time(p, q)
    if not (t is None or t == "critical" or _number(t, numbers.Real)):
        raise DomainError(f"t must be None, 'critical' or a number, got {t!r}")
    if isinstance(t, numbers.Real) and critical is None:
        raise DomainError("a numeric t needs p and q: each pair has its own critical time")
    if isinstance(t, numbers.Real) and not t >= critical:
        raise DomainError(f"t={t!r} is below the critical time ln((1-q)/(1-p)) = {critical!r}")

    # columns: n, k, the Jensen baseline's coin and index, the pair q < p, the
    # time's coin and extra, the zeros' coin, the scale's coin and value, then
    # the factor laws, the table and its zeros: 539 at n = MAX_FACTORS, k = 4
    def group(u, n_factors, k):
        if p is None:  # 10% Jensen baselines p = q, else p - q >= 1e-6
            jensen, same = u[:, 2] < 0.1, _uniform(u[:, 3], 0.05, 0.95)
            pair = _spaced(u[:, 4:6], -2.0, 1.0, 1e-6)
            pp, qq = np.where(jensen, same, pair[:, 1]), np.where(jensen, same, pair[:, 0])
        else:
            pp, qq = np.full(len(u), float(p)), np.full(len(u), float(q))
        critical = np.array([mossel_critical_time(a, b) for a, b in _each(pp, qq)])
        if t is None:  # 20% of draws sit exactly at the critical time (0 for p = q)
            extra = np.where(u[:, 6] < 0.2, 0.0, _uniform(u[:, 7], 0.0, 2.0))
            time = np.where(critical > 0.0, critical * (1.0 + extra), extra)
        else:
            time = critical if t == "critical" else np.full(len(u), float(t))
        scale = np.where(u[:, 9] < 0.25, _uniform(u[:, 10], 0.5, 2.0), 1.0)
        factors, f = _factors_and_table(u[:, 11:], n_factors, k, u[:, 8] < 0.25, scale)
        fields = {"n": n_factors, "alphabet": k, "p": pp, "q": qq, "t": time, "critical": critical}
        return fields, check_mossel(factors, time, f, pp, qq)

    shape = ((1, 3) if n is None else (n, 1), (2, 3))
    return _run("mossel", 1e-12, n_instances, seed, 540, shape, group)


def mossel_q0_suite(n_instances: int, seed: int) -> list[SuiteRecord]:
    """q = 0 specialization margins E[ln T_t f] - (1 + 1/t) ln E[f] on [0,1] tables."""

    # columns: n, k, t, the zeros' coin, then the factor laws, the table and its zeros
    def group(u, n, k):
        factors, f = _factors_and_table(u[:, 4:], n, k, u[:, 3] < 0.3, np.ones(len(u)))
        f[(~f.reshape(len(f), -1).any(axis=1),) + (0,) * n] = 0.5  # no all-zero table
        t = _uniform(u[:, 2], 0.05, 3.0)
        return {"n": n, "alphabet": k, "t": t}, mossel_q0_margin(factors, t, f)

    return _run("mossel-q0", 1e-12, n_instances, seed, 144, ((1, 3), (2, 3)), group)


def borell_suite(n_instances: int, seed: int, *, t_factor: float = 1.0) -> list[SuiteRecord]:
    """Closed-form Borell margins for exponential functions at t_factor >= 0 times critical."""
    if not (_number(t_factor, numbers.Real) and t_factor >= 0.0):  # NaN fails too
        raise DomainError(f"t_factor must be a real number >= 0, got {t_factor!r}")

    def group(u):  # columns: the sign of lam, |lam|, x, q, p
        lam = _uniform(u[:, 1], 0.1, 2.0) * np.where(u[:, 0] < 0.5, 1.0, -1.0)
        x, q = _uniform(u[:, 2], -3.0, 3.0), _uniform(u[:, 3], -2.0, 0.8)
        p = _uniform(u[:, 4], q + 0.05, np.minimum(q + 2.0, 0.999))
        critical = np.array([borell_critical_time(a, b) for a, b in _each(p, q)])
        t = t_factor * critical
        fields = {"lam": lam, "x": x, "p": p, "q": q, "t": t, "critical": critical}
        return fields, [check_borell_exponential(*row) for row in _each(lam, x, p, q, t)]

    return _run("borell-exp", 1e-12, n_instances, seed, 8, (), group)


def _squashed(v: np.ndarray, slope, shift, floor) -> np.ndarray:
    """floor + (1 - floor) / (1 + e^{-slope (v - shift)}), the ou-q0 test
    function, evaluated in place: v is overwritten and returned."""
    v -= shift
    v *= -slope
    np.exp(v, out=v)
    v += 1.0
    np.divide(1.0 - floor, v, out=v)
    v += floor
    return v


def ou_q0_suite(n_instances: int, seed: int) -> list[SuiteRecord]:
    """Quadrature margins for the OU q = 0 inequality on squashed test functions."""

    def group(u):  # columns: slope, shift, floor, x, t
        low, high = np.array([0.3, -2.0, 0.0, -2.0, 0.05]), np.array([3.0, 2.0, 0.2, 2.0, 2.5])
        slope, shift, floor, x, t = _uniform(u[:, :5], low, high).T
        fields = {"x": x, "t": t, "slope": slope, "shift": shift, "floor": floor}
        return fields, check_ou_q0(_squashed, x, t, slope, shift, floor)

    return _run("ou-q0", 1e-9, n_instances, seed, 8, (), group)


def relay_oracle_suite(n_instances: int, seed: int) -> list[SuiteRecord]:
    """End-to-end check h2 <= c_alpha(h1) on exactly enumerated relay instances."""

    # columns: the channel's outputs (2, a BSC, or 3), n, m, the BSC crossover,
    # the 2x3 channel's laws, the m*n codeword symbols, the cell count, the cells
    def group(u, ny, n, m):
        if ny == 2:
            c = _uniform(u[:, 3], 0.05, 0.45)
            w = np.stack((1.0 - c, c, c, 1.0 - c), axis=1).reshape(-1, 2, 2)
        else:
            w = _dirichlet(u[:, 4:10], 3)
        book = (u[:, 10 : 10 + m * n] * 2).astype(int).reshape(-1, m, n)
        n_z = ny**n
        cells = (u[:, 22] * min(_MAX_MESSAGES, n_z)).astype(int) + 1
        part = (u[:, 23 : 23 + n_z] * cells[:, None]).astype(int)
        h1, h2 = brute_force_entropy_gap(w, book, part)
        alpha = w.max(axis=1).sum(axis=1)  # alpha_of_channel of each row
        fields = {"channel": w, "codebook": book, "cells": part.max(axis=1) + 1,
                  "n": n, "alpha": alpha, "h1": h1, "h2": h2}
        return fields, [bdd_gap_closed(a, b) - c for a, b, c in _each(h1, alpha, h2)]

    return _run("lemma4", 1e-9, n_instances, seed, 52, ((2, 2), (1, 3), (1, 4)), group)


def quantizer_oracle_suite(n_instances: int, seed: int) -> list[SuiteRecord]:
    """Gaussian quantizer margins against both scalar entropy-gap bounds."""

    def group(u, k, n_taus):  # columns: k, n_taus, then the points and thresholds, 1e-3 apart
        xs = _spaced(u[:, 2 : 2 + k], -3.0, 3.0, 1e-3)
        taus = _spaced(u[:, 6 : 6 + n_taus], -3.0, 3.0, 1e-3)
        h1, h2 = gaussian_quantizer_gap(xs, taus)
        gap = [gauss_gap_closed(a) - b for a, b in _each(h1, h2)]
        log = [0.5 * math.log1p(2.0 * b) - (b - a) for a, b in _each(h1, h2)]
        fields = {"constellation": xs, "thresholds": taus, "h1": h1, "h2": h2,
                  "margin_gap": gap, "margin_log": log}
        return fields, list(map(min, gap, log))

    return _run("quantizer", 1e-6, n_instances, seed, 12, ((2, 3), (1, 3)), group)


def semigroup_suite(n_instances: int, seed: int) -> list[SuiteRecord]:
    """Structural margins: semigroup law, stationarity, unitality, positivity."""

    # columns: n, k, the zeros' coin, the scale's coin and value, t1, t2, then
    # the factor laws, the table and its zeros
    def group(u, n, k):
        scale = np.where(u[:, 3] < 0.25, _uniform(u[:, 4], 0.5, 2.0), 1.0)
        factors, f = _factors_and_table(u[:, 7:], n, k, u[:, 2] < 0.25, scale)
        t1, t2 = _uniform(u[:, 5], 0.0, 2.0), _uniform(u[:, 6], 0.0, 2.0)
        # the public kernel checks the drawn laws once; the other smoothings
        # run on the same arrays through its body, as the margins' do
        unit = apply_semisimple(factors, t1, np.ones(f.shape))
        two_step = _smooth(factors, t1, _smooth(factors, t2, f))
        one_step = _smooth(factors, t1 + t2, f)
        # one flat row per instance, so that each sum runs as over its own table
        mu = _product(factors)
        mu, flat, two_step, one_step, unit = (
            a.reshape(len(f), -1) for a in (mu, f, two_step, one_step, unit)
        )
        dev_law = np.abs(two_step - one_step).max(axis=1)
        dev_stat = np.abs((mu * one_step).sum(axis=1) - (mu * flat).sum(axis=1))
        dev_unit = np.abs(unit - 1.0).max(axis=1)
        # Python's max, not np.maximum: it keeps the first of tied zeros, -0.0 included
        margins = [-max(row) for row in _each(dev_law, dev_stat, dev_unit, -one_step.min(axis=1))]
        return {"n": n, "alphabet": k, "t1": t1, "t2": t2}, margins

    return _run("semigroup", 1e-12, n_instances, seed, 148, ((1, 3), (2, 3)), group)


# Every suite by its `relay-bounds verify --suite` name, in the order
# `--suite all` runs them.
SUITES: dict[str, Callable[..., list[SuiteRecord]]] = {
    "mossel": mossel_suite,
    "mossel-q0": mossel_q0_suite,
    "borell-exp": borell_suite,
    "ou-q0": ou_q0_suite,
    "lemma4": relay_oracle_suite,
    "quantizer": quantizer_oracle_suite,
    "semigroup": semigroup_suite,
}
