"""Entropy-gap bound functions for relay-style side information.

All quantities are entropy rates in nats per channel use.  The module
evaluates, in closed form, the functions that bound the destination-side
conditional entropy rate ``h2`` of a relay message in terms of the
source-side rate ``h1``:

* Gaussian observation pair:   h2 <= c(h1) where
      c(h) = min_{t>0} { t + h / (1 - e^{-2t}) }
           = 0.5*ln(1 + h + sqrt(h^2 + 2h)) + 0.5*(h + sqrt(h^2 + 2h))
* relaxed Gaussian baseline:   h2 <= h1 + sqrt(2*h1)
* implicit Gaussian bound:     h2 - h1 <= 0.5*ln(1 + 2*h2)
* bounded-density channels:    h2 <= c_alpha(h1) = 2*(alpha-1) * c(h1 / (2*(alpha-1)))
  where c_alpha(h) = min_{t>0} { (alpha-1)*t + h / (1 - e^{-t}) } and
  alpha >= 1 is the peak output-density ratio of the channel.

The closed forms are checked against golden-section minimizations of the
variational objectives, which are test code (tests/oracles.py).  The
inverses are closed forms through the Wright omega function and the W_{-1}
branch of Lambert W (Corless et al. 1996): c_alpha^{-1}(c0) = eps*v^2/(1+v)
with eps = alpha-1 and 1+v = omega(1 + c0/eps), whose alpha = 3/2 case is
c^{-1}, and the implicit bound's largest h2 is v/2 with
1+v = -W_{-1}(-e^{-1-2*h1}).
A few Halley steps take each root to double precision, so the inverses are
accurate in relative terms at every rate.  `lemma3_gap`, `relaxed_gap_inverse`
and `lemma3_h2max` take a float or an array: a float gives a float, an array
an array of its shape whose entries equal the float calls, and an entry that
is NaN, negative or above RATE_CAP is rejected as a float would be.  The
require_* functions check the inputs of every layer: real numbers, rates,
density ratios, probability laws and nonnegative tables.  Everything here is a pure function;
there is no shared mutable state.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

from .errors import DomainError

# Entropy rates above this are rejected: the closed forms are still finite
# there, but the bounds stop being meaningful long before and capping keeps
# every intermediate quantity comfortably inside IEEE double range.
RATE_CAP = 1e15

# A probability law may miss a total of 1 by this much: rounding, not mass.
LAW_TOL = 1e-12

# A Halley step cubes the relative error, so one this small (relative to the
# root) lands within rounding; a one-ulp stop could cycle between neighbours.
_STEP_STOP = 1e-6

# numbers.Real with its common members first, which isinstance tries in turn:
# an int then takes about 170 ns, numbers.Real alone about 300 (timeit, 2 CPUs)
_REAL = (float, int, np.floating, np.integer, numbers.Real)


def _number(value, kind) -> bool:
    """Whether value is an instance of kind, a numbers ABC or a tuple, and not a bool."""
    return isinstance(value, kind) and not isinstance(value, bool)


def require_real(value, name: str) -> float:
    """value as a float if it is a numbers.Real but not a bool (an int or a float, Python's
    or numpy's, or a Fraction) or a 0-d int or float array; else DomainError, also for an
    int or a Fraction past the float range."""
    if _number(value, _REAL) or (
        isinstance(value, np.ndarray) and value.shape == () and value.dtype.kind in "iuf"
    ):
        try:
            return float(value)
        except OverflowError:
            raise DomainError(f"{name} exceeds the float range") from None
    raise DomainError(f"{name} must be a real number, got {value!r}")


def require_reals(values, name: str) -> np.ndarray:
    """values as a float array if they hold ints or floats, or are one real number; a list
    or tuple is taken entry by entry, so a bool in it is refused as a bool alone is, and
    must nest to one length per axis; else DomainError."""
    if isinstance(values, (list, tuple)):
        for value in values:
            require_reals(value, name)
        try:
            return np.array(values, dtype=float)
        except ValueError:  # the entries are real, so only a ragged nesting is left
            raise DomainError(f"{name} must nest to one length per axis, got {values!r}") from None
    x = np.asarray(values)
    if x.dtype.kind not in "iuf":  # a Fraction, or an int past 64 bits, has object dtype
        x = np.asarray(require_real(values, name))
    return x.astype(float, copy=False)


def require_rate(value: float, name: str = "h") -> float:
    """Validate a nonnegative, finite entropy rate in nats."""
    # a float is real and skips the call: 85 ns, not 190 (timeit, 2 CPUs), 512 per fig2 table
    x = value if type(value) is float else require_real(value, name)
    if math.isnan(x) or math.isinf(x):
        raise DomainError(f"{name} must be finite, got {value!r}")
    if x < 0.0:
        raise DomainError(f"{name} must be nonnegative, got {x}")
    if x > RATE_CAP:
        raise DomainError(f"{name}={x} exceeds the supported range (<= {RATE_CAP} nats)")
    return x


def _rates(values, name: str) -> np.ndarray:
    """The values as a float array, each entry checked as `require_rate` checks a float."""
    x = require_reals(values, name)
    bad = ~((x >= 0.0) & (x <= RATE_CAP))  # NaN fails both comparisons
    if bad.any():
        require_rate(x[bad].flat[0], name)
    return x


def _like(x: np.ndarray) -> float | np.ndarray:
    """A float for a 0-d result, else the array: the float-or-array return."""
    return float(x) if x.ndim == 0 else x


def require_alpha(value: float, name: str = "alpha") -> float:
    """Validate a peak density ratio (must be >= 1)."""
    a = value if type(value) is float else require_real(value, name)  # as in require_rate
    if math.isnan(a) or math.isinf(a):
        raise DomainError(f"{name} must be finite, got {value!r}")
    if a < 1.0:
        raise DomainError(f"{name} must be >= 1 (density peak over a probability measure), got {a}")
    return a


def require_law(values, name: str = "law") -> np.ndarray:
    """A read-only float copy of a probability law, or of a stack of laws.

    Every entry must be finite and in [0, 1], and every slice along the last
    axis must sum to 1 within LAW_TOL.
    """
    # C order whatever the input's: BLAS products round by memory order
    x = np.array(values, dtype=float, order="C")
    # NaN fails both comparisons, and an infinity fails one
    if not (x.ndim and x.size and 0.0 <= x.min() and x.max() <= 1.0):
        raise DomainError(f"{name} must be a nonempty table of finite entries in [0, 1]")
    if np.abs(x.sum(axis=-1) - 1.0).max() > LAW_TOL:
        raise DomainError(f"{name} must sum to 1 within {LAW_TOL} along its last axis")
    x.setflags(write=False)
    return x


def require_table(values, name: str = "table") -> np.ndarray:
    """The values as a float array, after checking that they are finite and nonnegative."""
    x = np.asarray(values, dtype=float)
    if not (x.size and 0.0 <= x.min() and x.max() < math.inf):
        raise DomainError(f"{name} must be a nonempty table of finite nonnegative entries")
    return x


# ---------------------------------------------------------------------------
# Gaussian entropy-gap bound
# ---------------------------------------------------------------------------


def gauss_gap_closed(h: float) -> float:
    """Closed-form Gaussian entropy-gap bound c(h).

    c(h) = 0.5*ln(1 + h + sqrt(h^2 + 2h)) + 0.5*(h + sqrt(h^2 + 2h)),
    strictly increasing with c(0) = 0, c(h) >= h, and small-h behaviour
    c(h) = sqrt(2h) + h/2 + O(h^{3/2}).
    """
    h = require_rate(h)
    if h == 0.0:
        return 0.0
    s = math.sqrt(h) * math.sqrt(h + 2.0)  # sqrt(h^2 + 2h) without underflow at small h
    return 0.5 * math.log1p(h + s) + 0.5 * (h + s)


def gauss_gap_inverse(c0: float) -> float:
    """Solve c(h) = c0 for h in closed form: c is c_{3/2}, so this is
    `bdd_gap_inverse(c0, 1.5)`, h = u^2 / (2(1+u)) where u + ln(1+u) = 2*c0."""
    return _gap_inverse(require_rate(c0, "c0"), 0.5)


def relaxed_gap_inverse(c0: float | np.ndarray) -> float | np.ndarray:
    """Closed-form inverse of h -> h + sqrt(2h), of a float or an array."""
    x = _rates(c0, "c0")
    # positive root s of s^2 + sqrt(2) s = c0 with s = sqrt(h), written in a
    # cancellation-free form
    s = 2.0 * x / (np.sqrt(2.0 + 4.0 * x) + math.sqrt(2.0))
    return _like(s * s)


# ---------------------------------------------------------------------------
# Implicit Gaussian bound  h2 - h1 <= 0.5*ln(1 + 2*h2)
# ---------------------------------------------------------------------------


def lemma3_gap(h2: float | np.ndarray) -> float | np.ndarray:
    """Largest allowed excess h2 - h1 at destination rate h2: 0.5*ln(1 + 2*h2)."""
    return _like(0.5 * np.log1p(2.0 * _rates(h2, "h2")))


def lemma3_h2max(h1: float | np.ndarray) -> float | np.ndarray:
    """Largest h2 compatible with source rate h1 under the implicit bound.

    Inverts g(h2) = h2 - 0.5*ln(1 + 2*h2): h2 = v/2 where v >= 0 solves
    v - ln(1+v) = 2*h1.
    """
    x = _rates(h1, "h1")
    y = 2.0 * x.ravel()
    v = np.zeros_like(y)
    pos = y > 0.0
    v[pos] = _solve_minus_log1p(y[pos])
    return _like(0.5 * v.reshape(x.shape))


# ---------------------------------------------------------------------------
# Bounded-density entropy-gap bound
# ---------------------------------------------------------------------------


def bdd_gap_closed(h: float, alpha: float) -> float:
    """Closed-form bounded-density entropy-gap bound c_alpha(h).

    With eps = alpha-1, t -> 2t in the variational form gives the exact
    identity c_alpha(h) = 2*eps * c(h/(2*eps)); where h/(2*eps) exceeds the
    range of c, h + eps*(1 + ln(h/eps)) is exact to double precision (the
    error is O(eps^2/h)).  alpha = 1 is the exact limit c_1(h) = h.
    """
    h = require_rate(h)
    alpha = require_alpha(alpha)
    eps = alpha - 1.0
    if h == 0.0 or eps == 0.0:
        return h
    half_beta = h / (2.0 * eps)
    if half_beta > RATE_CAP:
        return h + eps * (1.0 + math.log(h / eps))
    return 2.0 * eps * gauss_gap_closed(half_beta)


def bdd_gap_inverse(c0: float, alpha: float) -> float:
    """Solve c_alpha(h) = c0 for h in closed form: h = eps * v^2 / (1+v).

    With eps = alpha-1 and 1+v = 1 + b + sqrt(b^2 + 2b) at b = h/(2*eps),
    c_alpha(h) = 2*eps * c(b) = eps*(v + ln(1+v)), so v + ln(1+v) = c0/eps.
    """
    c0 = require_rate(c0, "c0")
    alpha = require_alpha(alpha)
    if c0 == 0.0:
        return 0.0
    eps = alpha - 1.0
    if eps == 0.0:
        return c0  # c_1 is the identity
    return _gap_inverse(c0, eps)


# ---------------------------------------------------------------------------
# Solver internals
# ---------------------------------------------------------------------------


def _gap_inverse(c0: float, eps: float) -> float:
    """c_alpha^{-1}(c0) = eps * u^2/(1+u) at c0 >= 0 and eps = alpha-1 > 0, where
    u + log1p(u) = y = c0/eps: Halley steps on the concave u + log1p(u) - y from
    y/2 (y < 1) or from y - log1p(y - log1p(y)), at most three anywhere in
    double range; y = 0 stops at u = 0 on a first step of 0."""
    y = c0 / eps
    u = 0.5 * y if y < 1.0 else y - math.log1p(y - math.log1p(y))
    for _ in range(8):
        f = u + math.log1p(u) - y
        d1 = 1.0 + 1.0 / (1.0 + u)
        step = f / (d1 + 0.5 * f / (d1 * (1.0 + u) * (1.0 + u)))
        u -= step
        if abs(step) <= _STEP_STOP * u:
            break
    return eps * (u * u / (1.0 + u))


def _log1p_excess(v: np.ndarray) -> np.ndarray:
    """v - log1p(v) for a 1-d v >= 0; below 0.1 by a series that does not cancel.

    With z = v/(2+v), log1p(v) = 2*atanh(z), so v - log1p(v) = v*z - 2*(z^3/3 + z^5/5 + ...).
    The series is formed only on the entries below 0.1, and replaces the
    plain difference there.
    """
    out = v - np.log1p(v)
    near = np.flatnonzero(v < 0.1)
    if near.size:
        w = v[near]
        z = w / (2.0 + w)
        z2 = z * z
        tail = 1 / 3 + z2 * (1 / 5 + z2 * (1 / 7 + z2 * (1 / 9 + z2 * (1 / 11 + z2 / 13))))
        out[near] = w * z - 2.0 * z * z2 * tail
    return out


def _solve_minus_log1p(y: np.ndarray) -> np.ndarray:
    """The roots v > 0 of v - log1p(v) = y > 0, for a 1-d y, entry by entry.

    Halley steps on the convex v - log1p(v) - y from q + q^2/3 + q^3/36 with
    q = sqrt(2y) (y < 2) or from y + log1p(y + log1p(y)), each guess formed
    only on its own entries.  An entry stops once its step is at most
    _STEP_STOP * v, and a pass evaluates only the entries still moving, so
    no entry depends on the others.
    """
    v = np.empty_like(y)
    low = y < 2.0
    q = np.sqrt(2.0 * y[low])
    v[low] = q + q * q * (1 / 3 + q / 36)
    t = y[~low]
    v[~low] = t + np.log1p(t + np.log1p(t))
    live = np.arange(y.size)
    for _ in range(8):
        w = v[live]
        f = _log1p_excess(w) - y[live]
        p = 1.0 + w
        d1 = w / p
        step = f / (d1 - 0.5 * f / (d1 * p * p))
        w = w - step
        v[live] = w
        live = live[np.abs(step) > _STEP_STOP * w]
        if not live.size:
            break
    return v
