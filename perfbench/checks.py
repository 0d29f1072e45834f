"""Output checks for the benchmark, computed apart from relay_bounds.

Nothing here imports relay_bounds.  Every expected value is rebuilt from its
definition with math and numpy, so a wrong program cannot also make its own
check pass.  Every check raises CheckFailed with the reason.

The scalar gap functions are written from the variational definitions.  For
c_alpha(h) = min_t {(alpha-1)t + h/(1-e^{-t})}, the stationary point
u = e^t solves (u-1)^2/u = beta with beta = h/(alpha-1), and substituting it
back gives c_alpha(h) = (alpha-1)(ln u + u - 1).  The Gaussian c(h) is
c_2(2h)/2 by the change of variable s = 2t.
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np


class CheckFailed(Exception):
    """An output of the program disagrees with its independent recomputation."""


def _require(ok, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


# Tolerances.  The program's scalar inverses stop on an absolute residual of
# 1e-10, and its discrete optimizer certifies to 1e-6; rounding in the
# recomputations below is many orders smaller than either.
INVERSE_RESIDUAL = 2e-10
ROUNDING = 1e-12
CERTIFICATE_LIMIT = 1e-6
# cor2_bound against the objective at the reported argmax: a solver that
# reports its dual value keeps them apart by its own gap, far below this
WITNESS_GAP = 1e-9
# a bound equal to the broadcast cut to a few ulps counts as clipped
CLIP_TOL = 1e-14


def gap_c(h):
    """Gaussian entropy-gap bound c(h) = min_t {t + h/(1-e^{-2t})}."""
    h = np.asarray(h, dtype=float)
    v = h + np.sqrt(h) * np.sqrt(h + 2.0)  # u - 1 for the substituted problem
    return 0.5 * (np.log1p(v) + v)


def gap_c_alpha(h: float, alpha: float) -> float:
    """Bounded-density gap bound c_alpha(h) = min_t {(alpha-1)t + h/(1-e^{-t})}."""
    eps = alpha - 1.0
    if eps == 0.0:
        return float(h)
    beta = h / eps
    v = 0.5 * beta + math.sqrt(beta) * math.sqrt(1.0 + 0.25 * beta)
    return eps * (math.log1p(v) + v)


def _kl_rows(w: np.ndarray, q: np.ndarray) -> np.ndarray:
    """D(W(.|x) || q) for every row x, with 0 ln 0 = 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(w > 0.0, w * (np.log(w) - np.log(q)[None, :]), 0.0)
    return terms.sum(axis=1)


def dual_certificate(w: np.ndarray, p: np.ndarray, penalty: float) -> float:
    """Upper bound on max_p min{I(X;YZ), I(X;Y) + penalty} from the output laws of p.

    For every input law p' and every lambda in [0, 1], the min is at most
    lambda I(X;YZ) + (1-lambda)(I(X;Y) + penalty), and I(p') <= max_x D(W_x||q)
    for any output law q.  With q1, q2 the output laws of p, the bound
    f(lambda) = max_x [lambda D2_x + (1-lambda)(D1_x + penalty)] is convex and
    piecewise linear in lambda, so its minimum over [0, 1] lies at an end or
    where two of its lines cross; all of those are evaluated.
    """
    k = w.shape[0]
    w2 = (w[:, :, None] * w[:, None, :]).reshape(k, -1)
    a = _kl_rows(w2, p @ w2)  # line value at lambda = 1
    b = _kl_rows(w, p @ w) + penalty  # line value at lambda = 0
    slope = a - b
    i, j = np.triu_indices(k, 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        cross = (b[j] - b[i]) / (slope[i] - slope[j])
    lams = np.concatenate(([0.0, 1.0], cross[np.isfinite(cross) & (cross > 0.0) & (cross < 1.0)]))
    return float((b[None, :] + lams[:, None] * slope[None, :]).max(axis=1).min())


# ---------------------------------------------------------------------------
# Discrete channel bound
# ---------------------------------------------------------------------------


def check_dmc(w, c0: float, report: dict) -> None:
    """Check a capacity_ub_cor2 report (or the dmc CLI payload) for channel w."""
    w = np.asarray(w, dtype=float)
    p = np.asarray(report["argmax_input"], dtype=float)
    _require(p.shape == (w.shape[0],), f"argmax has shape {p.shape}, channel {w.shape}")
    _require(np.all(p >= 0.0) and abs(p.sum() - 1.0) <= 1e-9, "argmax is not a probability law")

    alpha = float(w.max(axis=0).sum())
    _require(abs(report["alpha"] - alpha) <= ROUNDING * alpha, f"alpha {report['alpha']} != {alpha}")
    penalty = float(report["penalty"])
    h = c0 - penalty
    _require(h >= -ROUNDING, f"penalty {penalty} exceeds c0 {c0}")
    resid = gap_c_alpha(max(h, 0.0), alpha) - c0
    _require(abs(resid) <= INVERSE_RESIDUAL, f"c_alpha(c0 - penalty) - c0 = {resid}")

    cor2 = float(report["cor2_bound"])
    w2 = (w[:, :, None] * w[:, None, :]).reshape(w.shape[0], -1)
    joint = float(p @ _kl_rows(w2, p @ w2))
    direct = float(p @ _kl_rows(w, p @ w)) + penalty
    value = min(joint, direct)
    _require(abs(value - cor2) <= WITNESS_GAP, f"objective at argmax {value} != cor2_bound {cor2}")
    cert = dual_certificate(w, p, penalty)
    _require(cert >= cor2 - ROUNDING, f"dual certificate {cert} below cor2_bound {cor2}")
    _require(cert - cor2 <= CERTIFICATE_LIMIT, f"dual certificate {cert} exceeds cor2_bound {cor2} by more than {CERTIFICATE_LIMIT}")
    _require(cor2 <= report["cutset"] + ROUNDING, f"cor2_bound {cor2} above cutset {report['cutset']}")


def check_dmc_cli(w, c0: float, returncode: int, stdout: str) -> None:
    _require(returncode == 0, f"dmc exited with {returncode}")
    payload = json.loads(stdout)
    check_dmc(w, c0, payload)
    alpha = float(np.asarray(w).max(axis=0).sum())
    _require(abs(payload["i_infinity"] - math.log(alpha)) <= ROUNDING, "i_infinity != ln(alpha)")
    _require(payload["suboptimality_gap"] >= 0.0, "negative suboptimality gap")


# ---------------------------------------------------------------------------
# Gaussian bounds and curve tables
# ---------------------------------------------------------------------------


def _on_grid(values: np.ndarray, top: float) -> bool:
    """values is the uniform grid 0..top, to rounding."""
    want = top * np.arange(values.size) / (values.size - 1)
    return bool(np.allclose(values, want, rtol=0.0, atol=ROUNDING * top))


def _check_lemma2(snr: float, c0: np.ndarray, lemma2: np.ndarray) -> None:
    """lemma2 = min{bc, direct + c0 - c^{-1}(c0)}, checked without inverting c."""
    bc = 0.5 * math.log1p(2.0 * snr)
    direct = 0.5 * math.log1p(snr)
    _require(np.all(lemma2 <= bc + CLIP_TOL), "lemma2 above the broadcast cut")
    clipped = np.abs(lemma2 - bc) <= CLIP_TOL
    h = direct + c0 - lemma2  # the c^{-1}(c0) that lemma2 implies where it does not clip
    free = ~clipped
    _require(np.all(h[free] >= -ROUNDING), "lemma2 above direct + c0")
    resid = gap_c(np.maximum(h[free], 0.0)) - c0[free]
    _require(
        np.all(np.abs(resid) <= INVERSE_RESIDUAL),
        f"c(h) - c0 reaches {np.abs(resid).max() if resid.size else 0.0} on unclipped lemma2 rows",
    )
    # a clipped row needs direct + c0 - c^{-1}(c0) >= bc, i.e. c(direct + c0 - bc) >= c0
    room = direct + c0[clipped] - bc
    _require(np.all(room >= 0.0), "lemma2 clipped where direct + c0 is below the broadcast cut")
    _require(
        np.all(gap_c(room) >= c0[clipped] - INVERSE_RESIDUAL),
        "lemma2 clipped where the unclipped bound lies below the broadcast cut",
    )


def check_fig1(h1_max: float, n: int, columns, rows) -> None:
    _require(tuple(columns) == ("h1", "h2_relaxed", "h2_lemma3"), f"fig1 columns {columns}")
    t = np.asarray(rows, dtype=float)
    _require(t.shape == (n, 3), f"fig1 table has shape {t.shape}")
    h1, thin, h2 = t.T
    _require(_on_grid(h1, h1_max), "fig1 h1 grid differs from the uniform grid")
    _require(np.allclose(thin, 2.0 * h1 + np.sqrt(2.0 * h1), rtol=ROUNDING, atol=0.0), "h2_relaxed != 2h1 + sqrt(2h1)")
    resid = h2 - 0.5 * np.log1p(2.0 * h2) - h1
    _require(np.all(np.abs(resid) <= INVERSE_RESIDUAL), f"h2 - ln(1+2h2)/2 - h1 reaches {np.abs(resid).max()}")


def check_fig2(snr: float, c0_max: float, n: int, columns, rows) -> None:
    _require(
        tuple(columns) == ("c0", "cutset", "relaxed", "lemma2", "lemma3", "lemma3_unclipped"),
        f"fig2 columns {columns}",
    )
    t = np.asarray(rows, dtype=float)
    _require(t.shape == (n, 6), f"fig2 table has shape {t.shape}")
    c0, cutset, relaxed, lemma2, lemma3, unclipped = t.T
    _require(_on_grid(c0, c0_max), "fig2 c0 grid differs from the uniform grid")
    bc = 0.5 * math.log1p(2.0 * snr)
    direct = 0.5 * math.log1p(snr)
    close = lambda got, want: np.allclose(got, want, rtol=0.0, atol=ROUNDING)
    _require(close(cutset, np.minimum(bc, direct + c0)), "cutset column")
    _require(close(unclipped, direct + 0.5 * np.log1p(2.0 * c0)), "lemma3_unclipped column")
    _require(close(lemma3, np.minimum(bc, unclipped)), "lemma3 column")
    s = 2.0 * c0 / (1.0 + np.sqrt(1.0 + 4.0 * c0))  # s^2 + s = c0, baseline r = s^2/2
    _require(close(relaxed, direct + c0 - 0.5 * s * s), "relaxed column")
    _check_lemma2(snr, c0, lemma2)
    _require(np.all(lemma2 <= cutset), "lemma2 above cutset")


def check_table_csv(kind: str, params: tuple, n: int, returncode: int, stdout: str) -> None:
    _require(returncode == 0, f"curves exited with {returncode}")
    lines = list(csv.reader(io.StringIO(stdout)))
    rows = [[float(x) for x in line] for line in lines[1:]]
    (check_fig1 if kind == "fig1" else check_fig2)(*params, n, lines[0], rows)


def check_gaussian(snr: float, c0: float, r: dict) -> None:
    """Check a Gaussian bound report given as the dict the gaussian CLI prints."""
    _require(r["snr"] == snr and r["c0"] == c0, "echoed parameters")
    bc = 0.5 * math.log1p(2.0 * snr)
    direct = 0.5 * math.log1p(snr)
    close = lambda got, want: abs(got - want) <= ROUNDING
    _require(close(r["cutset"], min(bc, direct + c0)), "cutset")
    _require(close(r["lemma3"], min(bc, direct + 0.5 * math.log1p(2.0 * c0))), "lemma3")
    s = 2.0 * c0 / (math.sqrt(2.0) + math.sqrt(2.0 + 4.0 * c0))  # s^2 + sqrt(2)s = c0, r = s^2
    _require(close(r["relaxed"], min(bc, direct + c0 - s * s)), "relaxed")
    _check_lemma2(snr, np.array([c0]), np.array([r["lemma2"]]))
    _require(r["best"] == min(r["cutset"], r["lemma2"], r["lemma3"], r["relaxed"]), "best")


def check_gaussian_cli(snr: float, c0: float, returncode: int, stdout: str) -> None:
    _require(returncode == 0, f"gaussian exited with {returncode}")
    payload = json.loads(stdout)
    _require(payload["units"] == "nats", "units")
    check_gaussian(snr, c0, payload)


# ---------------------------------------------------------------------------
# Verification suites
# ---------------------------------------------------------------------------

SUITE_TOL = {
    "mossel": 1e-12,
    "mossel-q0": 1e-12,
    "borell-exp": 1e-12,
    "ou-q0": 1e-9,
    "lemma4": 1e-9,
    "quantizer": 1e-6,
    "semigroup": 1e-12,
}


def _phi(u: float) -> float:
    return 0.5 * math.erfc(-u / math.sqrt(2.0))


def _entropy(p) -> float:
    return -sum(x * math.log(x) for x in p if x > 0.0)


def _check_record(suite: str, rec: dict) -> None:
    inst, margin = rec["instance"], rec["margin"]
    if suite == "borell-exp":
        lam, p, q, t = inst["lam"], inst["p"], inst["q"], inst["t"]
        _require(abs(inst["critical"] - 0.5 * math.log((1.0 - q) / (1.0 - p))) <= ROUNDING, "borell critical time")
        want = 0.5 * lam * lam * (-math.expm1(-2.0 * t) + q * math.exp(-2.0 * t) - p)
        _require(abs(margin - want) <= ROUNDING, f"borell margin {margin} != {want}")
        if t == inst["critical"]:
            _require(abs(margin) <= ROUNDING, f"borell margin {margin} not 0 at the critical time")
    elif suite == "lemma4":
        alpha = float(np.asarray(inst["channel"]).max(axis=0).sum())
        _require(abs(inst["alpha"] - alpha) <= ROUNDING * alpha, "lemma4 alpha")
        cap = math.log(inst["cells"]) / inst["n"] + ROUNDING
        _require(0.0 <= inst["h1"] <= cap and 0.0 <= inst["h2"] <= cap, "lemma4 entropies out of range")
        want = gap_c_alpha(inst["h1"], alpha) - inst["h2"]
        _require(abs(margin - want) <= ROUNDING, f"lemma4 margin {margin} != {want}")
    elif suite == "quantizer":
        xs, taus = inst["constellation"], inst["thresholds"]
        edges = [-math.inf] + list(taus) + [math.inf]
        h1 = sum(_entropy([_phi(hi - x) - _phi(lo - x) for lo, hi in zip(edges, edges[1:])]) for x in xs) / len(xs)
        _require(abs(inst["h1"] - h1) <= ROUNDING, f"quantizer h1 {inst['h1']} != {h1}")
        h1, h2 = inst["h1"], inst["h2"]
        m_gap = float(gap_c(h1)) - h2
        m_log = 0.5 * math.log1p(2.0 * h2) - (h2 - h1)
        _require(abs(min(m_gap, m_log) - margin) <= ROUNDING, f"quantizer margin {margin} != {min(m_gap, m_log)}")
    elif suite == "mossel":
        p, q = inst["p"], inst["q"]
        critical = math.log((1.0 - q) / (1.0 - p))
        _require(q <= p < 1.0 and abs(inst["critical"] - critical) <= ROUNDING, "mossel indices")
        _require(inst["t"] >= critical - ROUNDING, "mossel time below the critical time")
    elif suite == "semigroup":
        _require(margin <= 0.0, "semigroup margin is minus a deviation, so never positive")


def check_records(suite: str, n: int, records) -> None:
    """Check one suite call: n records, indices 0..n-1, all passing, margins recomputed."""
    _require(len(records) == n, f"{suite}: {len(records)} records, expected {n}")
    tol = SUITE_TOL[suite]
    for i, rec in enumerate(records):
        _require(rec["suite"] == suite, f"record {i} is from suite {rec['suite']}")
        _require(rec["index"] == i, f"{suite}: record {i} has index {rec['index']}")
        _require(rec["pass"] == True, f"{suite}: instance {i} did not pass")  # noqa: E712, numpy bools too
        _require(math.isfinite(rec["margin"]) and rec["margin"] >= -tol, f"{suite}: margin {rec['margin']}")
        _check_record(suite, rec)


def check_verify_cli(suite: str, n: int, returncode: int, stdout: str) -> None:
    _require(returncode == 0, f"verify exited with {returncode}")
    check_records(suite, n, [json.loads(line) for line in stdout.splitlines()])
