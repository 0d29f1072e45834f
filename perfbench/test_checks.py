"""The benchmark's output checks accept the program's outputs and reject corrupted ones.

Run from the root of the source tree:  python3 -m pytest perfbench -q
"""

import copy
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from relay_bounds import cli, dmc_relay, gaussian_relay, rhc_verify  # noqa: E402

CHANNELS = {
    "bsc": (np.array([[0.89, 0.11], [0.11, 0.89]]), 0.3),
    "3x3": (np.array(workloads.CLI_CHANNEL), workloads.CLI_C0),
    "draw0": workloads.reference_channels()[0],
    "4x3": (np.array([[0.6, 0.3, 0.1], [0.1, 0.7, 0.2], [0.2, 0.1, 0.7], [0.3, 0.3, 0.4]]), 0.4),
}


def dmc_report(name):
    w, c0 = CHANNELS[name]
    rep = dmc_relay.capacity_ub_cor2(dmc_relay.DiscreteChannel(w), c0)
    return w, c0, {"alpha": rep.alpha, "penalty": rep.penalty, "cutset": rep.cutset,
                   "cor2_bound": rep.cor2_bound, "argmax_input": rep.argmax_input.probs.copy()}


def rejects(check, *args):
    with pytest.raises(checks.CheckFailed):
        check(*args)


def test_gap_functions_match_their_variational_definitions():
    t = np.geomspace(1e-6, 60.0, 400_001)
    for h in (1e-6, 0.01, 0.3, 2.0, 40.0):
        assert checks.gap_c(h) == pytest.approx((t + h / -np.expm1(-2.0 * t)).min(), rel=1e-7)
        for alpha in (1.05, 1.8, 4.0):
            want = ((alpha - 1.0) * t + h / -np.expm1(-t)).min()
            assert checks.gap_c_alpha(h, alpha) == pytest.approx(want, rel=1e-7)


@pytest.mark.parametrize("name", sorted(CHANNELS))
def test_dmc_accepts_program_output(name):
    checks.check_dmc(*dmc_report(name))


@pytest.mark.parametrize("name", sorted(CHANNELS))
def test_dual_certificate_bounds_every_input_law(name):
    w, c0, rep = dmc_report(name)
    cert = checks.dual_certificate(w, rep["argmax_input"], rep["penalty"])
    w2 = (w[:, :, None] * w[:, None, :]).reshape(w.shape[0], -1)
    for p in np.random.default_rng(0).dirichlet(np.full(w.shape[0], 0.5), size=200):
        value = min(p @ checks._kl_rows(w2, p @ w2), p @ checks._kl_rows(w, p @ w) + rep["penalty"])
        assert value <= cert + 1e-12


@pytest.mark.parametrize("name", sorted(CHANNELS))
def test_dmc_rejects_corrupted_output(name):
    w, c0, rep = dmc_report(name)
    for key, change in [
        ("cor2_bound", lambda v: v - 1e-4),
        ("cor2_bound", lambda v: v + 1e-4),
        ("penalty", lambda v: v + 1e-8),
        ("alpha", lambda v: v * (1 + 1e-9)),
        ("cutset", lambda v: rep["cor2_bound"] - 1e-6),
    ]:
        bad = copy.deepcopy(rep)
        bad[key] = change(bad[key])
        rejects(checks.check_dmc, w, c0, bad)


def test_dmc_rejects_a_consistent_but_suboptimal_witness():
    w, c0, rep = dmc_report("4x3")
    p = np.array([0.7, 0.1, 0.1, 0.1])
    w2 = (w[:, :, None] * w[:, None, :]).reshape(4, -1)
    bad = dict(rep, argmax_input=p, cor2_bound=min(
        p @ checks._kl_rows(w2, p @ w2), p @ checks._kl_rows(w, p @ w) + rep["penalty"]))
    rejects(checks.check_dmc, w, c0, bad)


def test_dmc_cli_requires_exit_zero_and_ln_alpha(tmp_path):
    path = tmp_path / "out.json"
    workloads.write_cli_channel(tmp_path)
    c0 = workloads.CLI_C0
    argv = ["dmc", "--channel", str(tmp_path / "cli-channel.csv"), "--c0", repr(c0)]
    assert cli.main(argv + ["--output", str(path)]) == 0
    text = path.read_text()
    checks.check_dmc_cli(workloads.CLI_CHANNEL, c0, 0, text)
    rejects(checks.check_dmc_cli, workloads.CLI_CHANNEL, c0, 1, text)
    payload = json.loads(text)
    payload["i_infinity"] += 1e-9
    rejects(checks.check_dmc_cli, workloads.CLI_CHANNEL, c0, 0, json.dumps(payload))


FIG2 = [(0.5, 0.27), (0.1, 5.0), (10.0, 2.0)]


def table(fig, *params):
    t = (gaussian_relay.emit_fig1_curves if fig == 1 else gaussian_relay.emit_fig2_curves)(*params, 512)
    return list(t.columns), np.array(t.rows)


@pytest.mark.parametrize("h1_max", [3.0, 50.0])
def test_fig1_accepts_and_rejects(h1_max):
    cols, rows = table(1, h1_max)
    checks.check_fig1(h1_max, 512, cols, rows)
    for j, shift in [(2, 1e-8), (2, -1e-8), (1, 1e-8), (0, 1e-6)]:
        bad = rows.copy()
        bad[:, j] += shift
        rejects(checks.check_fig1, h1_max, 512, cols, bad)


@pytest.mark.parametrize("snr,c0_max", FIG2)
def test_fig2_accepts_and_rejects(snr, c0_max):
    cols, rows = table(2, snr, c0_max)
    checks.check_fig2(snr, c0_max, 512, cols, rows)
    for j in range(1, 6):
        for shift in (1e-8, -1e-8):
            bad = rows.copy()
            bad[:, j] += shift
            rejects(checks.check_fig2, snr, c0_max, 512, cols, bad)


def test_fig2_lemma2_shift_is_caught_on_a_single_row():
    cols, rows = table(2, 0.5, 0.27)
    lemma2 = cols.index("lemma2")
    for i in (1, 100, 300, 511):
        for shift in (1e-8, -1e-8):
            bad = rows.copy()
            bad[i, lemma2] += shift
            rejects(checks.check_fig2, 0.5, 0.27, 512, cols, bad)


def test_fig2_clipping_covers_partial_and_almost_total():
    shares = []
    for snr, c0_max in FIG2:
        cols, rows = table(2, snr, c0_max)
        lemma2 = rows[:, cols.index("lemma2")]
        shares.append(np.mean(lemma2 == 0.5 * math.log1p(2.0 * snr)))
    assert 0.05 < shares[0] < 0.95 and max(shares[1:]) > 0.9


def test_gaussian_report_accepts_and_rejects():
    snr, c0 = 0.7, 0.15
    rep = gaussian_relay.report(gaussian_relay.GaussianRelayParams(power=snr, noise=1.0, relay_rate=c0))
    r = {"snr": snr, "c0": c0, "cutset": rep.cutset, "lemma2": rep.lemma2_bound,
         "lemma3": rep.lemma3_bound, "relaxed": rep.relaxed_baseline, "best": rep.best}
    checks.check_gaussian(snr, c0, r)
    for key in ("cutset", "lemma2", "lemma3", "relaxed", "best"):
        rejects(checks.check_gaussian, snr, c0, dict(r, **{key: r[key] + 1e-8}))


def suite_records(suite, n=30, seed=3):
    fn = dict((s, f) for s, f, _ in workloads.SUITE_CALLS)[suite]
    return workloads._records(getattr(rhc_verify, fn)(n, seed))


@pytest.mark.parametrize("suite", list(checks.SUITE_TOL))
def test_records_accept_and_reject(suite):
    recs = suite_records(suite)
    checks.check_records(suite, 30, recs)
    flipped = copy.deepcopy(recs)
    flipped[7]["pass"] = False
    rejects(checks.check_records, suite, 30, flipped)
    rejects(checks.check_records, suite, 30, recs[:-1])
    rejects(checks.check_records, suite, 30, recs[1:] + recs[:1])
    rejects(checks.check_records, "mossel" if suite != "mossel" else "semigroup", 30, recs)


@pytest.mark.parametrize("suite,field,shift", [
    ("borell-exp", "margin", 1e-9),
    ("borell-exp", "instance.t", 1e-6),
    ("borell-exp", "instance.p", 1e-6),
    ("lemma4", "margin", 1e-9),
    ("lemma4", "instance.h2", 1e-9),
    ("lemma4", "instance.alpha", 1e-6),
    ("quantizer", "margin", 1e-9),
    ("quantizer", "instance.h1", 1e-9),
    ("mossel", "instance.critical", 1e-6),
])
def test_records_reject_recomputed_fields(suite, field, shift):
    recs = suite_records(suite)
    bad = copy.deepcopy(recs)
    target = bad[4]
    if field.startswith("instance."):
        target = target["instance"]
        field = field.split(".", 1)[1]
    target[field] += shift
    rejects(checks.check_records, suite, 30, bad)


def test_verify_cli_parses_jsonl(tmp_path):
    path = tmp_path / "v.jsonl"
    assert cli.main(["verify", "--suite", "lemma4", "--instances", "12", "--seed", "5",
                     "--output", str(path)]) == 0
    checks.check_verify_cli("lemma4", 12, 0, path.read_text())
    rejects(checks.check_verify_cli, "lemma4", 12, 3, path.read_text())
    rejects(checks.check_verify_cli, "lemma4", 13, 0, path.read_text())


def test_curves_cli_csv(tmp_path):
    path = tmp_path / "c.csv"
    assert cli.main(["curves", "--figure", "2", "--snr", "0.4", "--c0-max", "0.3",
                     "--points", "512", "--output", str(path)]) == 0
    text = path.read_text()
    checks.check_table_csv("fig2", (0.4, 0.3), 512, 0, text)
    lines = text.splitlines()
    cells = lines[200].split(",")
    cells[3] = repr(float(cells[3]) + 1e-8)
    lines[200] = ",".join(cells)
    rejects(checks.check_table_csv, "fig2", (0.4, 0.3), 512, 0, "\n".join(lines) + "\n")


def test_tracer_wraps_layer_boundaries_and_restores_them():
    import relay_bounds
    from relay_bounds import scalar_bounds

    import tracer

    originals = (gaussian_relay.emit_fig2_curves, gaussian_relay.gauss_gap_inverse,
                 scalar_bounds.gauss_gap_closed)
    tr = tracer.Tracer()
    tr.install(relay_bounds)
    try:
        assert scalar_bounds.gauss_gap_closed is originals[2]  # called inside its layer only
        gaussian_relay.emit_fig2_curves(0.5, 0.27, 8)
    finally:
        tr.uninstall()
    assert (gaussian_relay.emit_fig2_curves, gaussian_relay.gauss_gap_inverse,
            scalar_bounds.gauss_gap_closed) == originals
    names = [tr.names[i] for i in tr.name_id]
    assert names[0] == "gaussian_relay.emit_fig2_curves"
    assert names.count("scalar_bounds.gauss_gap_inverse") == 8
    assert all(p == 0 for p in tr.parent[1:])


def test_host_slowdown_is_the_median_kernel_time_near_each_interval():
    import hostspeed

    speed = hostspeed.HostSpeed()
    speed.at = [0.0, 1.0, 2.0, 3.0, 10.0]
    speed.took = [r * hostspeed.REFERENCE_S for r in (1.0, 2.0, 4.0, 8.0, 1.5)]
    got = speed.correct([2.0, 10.0, 0.0], [0.5, 0.2, 0.1])
    assert got == pytest.approx([0.5 / 4.0, 0.2 / 1.5, 0.1 / 1.5])
    speed = hostspeed.HostSpeed()
    speed.sample()
    assert speed.took[0] > 0 and speed.at[0] > 0
