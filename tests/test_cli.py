"""CLI tests: flags, exit codes, deterministic output, CSV round trips."""

import argparse
import functools
import hashlib
import json
import math
import re

import numpy as np
import pytest

from oracles import k_ary_symmetric, write_channel_csv
from relay_bounds import rhc_verify
from relay_bounds.cli import _json_line, build_parser, main, read_channel_csv
from relay_bounds.dmc_relay import DiscreteChannel
from relay_bounds.scalar_bounds import bdd_gap_closed, gauss_gap_closed


@pytest.fixture
def bsc_file(tmp_path):
    path = tmp_path / "bsc.csv"
    write_channel_csv(str(path), k_ary_symmetric(2, 0.1))
    return str(path)


def run_to_file(tmp_path, argv, name="out.txt"):
    out = tmp_path / name
    code = main(argv + ["--output", str(out)])
    return code, out.read_bytes()


def csv_and_json(argv, capsys):
    """The one-row CSV report of argv as (header, cells), and its JSON payload."""
    assert main(argv) == 0
    payload = json.loads(capsys.readouterr().out)
    assert main(argv + ["--format", "csv"]) == 0
    header, cells, end = capsys.readouterr().out.split("\n")
    assert end == ""
    return header.split(","), cells.split(","), payload


class TestGaussianCommand:
    def test_reference_report(self, capsys):
        assert main(["gaussian", "--snr", "0.5", "--c0", "0.1"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["lemma3"] == pytest.approx(0.293891, abs=1e-5)
        assert payload["best"] == payload["lemma3"]
        assert payload["units"] == "nats"

    def test_no_relay_rate_collapses_bounds(self, capsys):
        assert main(["gaussian", "--snr", "0.5", "--c0", "0"]) == 0
        payload = json.loads(capsys.readouterr().out)
        expected = 0.5 * math.log(1.5)
        for key in ("cutset", "lemma2", "lemma3", "relaxed", "best"):
            assert payload[key] == pytest.approx(expected, abs=1e-12)

    def test_saturation(self, capsys):
        assert main(["gaussian", "--snr", "0.5", "--c0", "10"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["best"] == pytest.approx(0.5 * math.log(2.0), abs=1e-12)

    def test_power_noise_form(self, capsys):
        assert main(["gaussian", "--power", "1.0", "--noise", "2.0", "--c0", "0.1"]) == 0
        assert json.loads(capsys.readouterr().out)["snr"] == 0.5

    def test_conflicting_flags_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["gaussian", "--snr", "0.5", "--power", "1", "--noise", "1", "--c0", "0.1"])
        assert exc.value.code == 2

    def test_missing_flags_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["gaussian", "--power", "1", "--c0", "0.1"])
        assert exc.value.code == 2

    def test_invalid_snr_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["gaussian", "--snr", "-0.5", "--c0", "0.1"])
        assert exc.value.code == 2

    def test_overflowing_snr_exit_2(self, capsys):
        # power and noise are each finite, but power/noise overflows to inf
        with pytest.raises(SystemExit) as exc:
            main(["gaussian", "--power", "1e308", "--noise", "1e-10", "--c0", "0.1"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: relay-bounds gaussian") and "snr must be positive" in err

    def test_csv_matches_json(self, capsys):
        header, cells, payload = csv_and_json(["gaussian", "--snr", "3", "--c0", "0.4"], capsys)
        assert header == list(payload) and cells == [str(v) for v in payload.values()]
        assert cells[-1] == "nats"

    def test_bits_conversion(self, capsys):
        assert main(["gaussian", "--snr", "0.5", "--c0", "0.1"]) == 0
        nats = json.loads(capsys.readouterr().out)
        assert main(["gaussian", "--snr", "0.5", "--c0", "0.1", "--bits"]) == 0
        bits = json.loads(capsys.readouterr().out)
        assert bits["units"] == "bits"
        assert bits["best"] == pytest.approx(nats["best"] / math.log(2.0), rel=1e-12)


class TestDmcCommand:
    def test_bsc_capacity_at_zero_rate(self, bsc_file, capsys):
        assert main(["dmc", "--channel", bsc_file, "--c0", "0"]) == 0
        payload = json.loads(capsys.readouterr().out)
        hb = -0.1 * math.log(0.1) - 0.9 * math.log(0.9)
        assert payload["cor2_bound"] == pytest.approx(math.log(2.0) - hb, abs=1e-7)
        assert payload["alpha"] == pytest.approx(1.8, abs=1e-12)

    def test_identical_rows_all_zero(self, tmp_path, capsys):
        path = tmp_path / "flat.csv"
        path.write_text("0.3,0.7\n0.3,0.7\n")
        assert main(["dmc", "--channel", str(path), "--c0", "0.2"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["cor2_bound"] == pytest.approx(0.0, abs=1e-12)
        assert payload["cutset"] == pytest.approx(0.0, abs=1e-12)

    def test_strict_improvement(self, bsc_file, capsys):
        assert main(["dmc", "--channel", bsc_file, "--c0", "0.05"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["cor2_bound"] < payload["cutset"]

    @staticmethod
    def channel_error(path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["dmc", "--channel", str(path), "--c0", "0.1"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: relay-bounds dmc ")
        return err

    def test_csv_matches_json(self, capsys, tmp_path):
        path = tmp_path / "sym3.csv"
        path.write_text("0.8,0.1,0.1\n0.1,0.8,0.1\n0.1,0.1,0.8\n")
        argv = ["dmc", "--channel", str(path), "--c0", "0.3", "--bits"]
        header, cells, payload = csv_and_json(argv, capsys)
        flat = {}
        for key, value in payload.items():
            flat.update({f"{key}_{i}": v for i, v in enumerate(value)} if key == "argmax_input"
                        else {key: value})
        assert header == list(flat) and cells == [str(v) for v in flat.values()]
        assert {"argmax_input_0", "argmax_input_1", "argmax_input_2"} <= set(header)
        assert flat["certified"] is True and flat["units"] == "bits"

    def test_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "gaps.csv"
        path.write_text("\n0.9,0.1\n\n , \n0.2,0.8\n\n")
        assert read_channel_csv(str(path)).matrix.tolist() == [[0.9, 0.1], [0.2, 0.8]]

    def test_non_numeric_entry_exit_2(self, tmp_path, capsys):
        path = tmp_path / "word.csv"
        path.write_text("0.9,0.1\n\nx,0.5\n")
        assert f"{path}:3: non-numeric entry" in self.channel_error(path, capsys)

    def test_only_blank_lines_exit_2(self, tmp_path, capsys):
        path = tmp_path / "blank.csv"
        path.write_text("\n  \n\n")
        assert f"{path}: no channel rows found" in self.channel_error(path, capsys)

    def test_malformed_rows_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("0.9,0.2\n0.1,0.9\n")
        assert "must sum to 1" in self.channel_error(path, capsys)

    def test_negative_entry_exit_2(self, tmp_path, capsys):
        path = tmp_path / "neg.csv"
        path.write_text("1.1,-0.1\n0.5,0.5\n")
        assert "entries in [0, 1]" in self.channel_error(path, capsys)

    def test_missing_file_exit_2(self, tmp_path, capsys):
        path = tmp_path / "nope.csv"
        err = self.channel_error(path, capsys)
        assert f"--channel: [Errno 2] No such file or directory: '{path}'" in err

    def test_negative_c0_exit_2(self, bsc_file):
        with pytest.raises(SystemExit) as exc:
            main(["dmc", "--channel", bsc_file, "--c0", "-0.5"])
        assert exc.value.code == 2

    def test_bad_tol_exit_2(self, bsc_file):
        # no subcommand takes --tol: the scalar inverses are closed forms
        for argv in (
            ["gaussian", "--snr", "0.5", "--c0", "0.1"],
            ["dmc", "--channel", bsc_file, "--c0", "0.1"],
            ["curves", "--figure", "2"],
        ):
            with pytest.raises(SystemExit) as exc:
                main(argv + ["--tol", "1e-10"])
            assert exc.value.code == 2

    @pytest.mark.parametrize(
        "flags",
        [
            ["--c0", "nan"],
            ["--c0", "1e16"],
            ["--c0", "0.1", "--alpha-override", "0.5"],
            ["--c0", "0.1", "--alpha-override", "1.5"],  # the BSC(0.1) has alpha 1.8
        ],
    )
    def test_bad_rate_or_alpha_exit_2(self, bsc_file, flags, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["dmc", "--channel", bsc_file, *flags])
        assert exc.value.code == 2
        assert capsys.readouterr().err.startswith("usage: relay-bounds dmc ")

    def test_i_infinity_is_the_channels_own_alpha_not_the_override(self, bsc_file, capsys):
        assert main(["dmc", "--channel", bsc_file, "--c0", "0.05", "--alpha-override", "2.5"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["alpha"] == 2.5
        assert payload["i_infinity"] == pytest.approx(math.log(1.8), abs=1e-15)

    @pytest.mark.parametrize("flag", [["--seed", "3"], ["--starts", "4"], ["--grid-check"]])
    def test_solver_knobs_gone(self, bsc_file, flag):
        with pytest.raises(SystemExit) as exc:
            main(["dmc", "--channel", bsc_file, "--c0", "0.1"] + flag)
        assert exc.value.code == 2


class TestCurvesCommand:
    def test_fig2_headers_and_values(self, tmp_path):
        code, blob = run_to_file(
            tmp_path,
            ["curves", "--figure", "2", "--snr", "0.5", "--c0-max", "0.27", "--points", "4"],
        )
        assert code == 0
        lines = blob.decode().splitlines()
        assert lines[0] == "c0,cutset,relaxed,lemma2,lemma3,lemma3_unclipped"
        assert len(lines) == 5
        first = [float(v) for v in lines[1].split(",")]
        assert first[0] == 0.0
        assert all(v == pytest.approx(0.5 * math.log(1.5), abs=1e-12) for v in first[1:])

    def test_fig1_headers(self, tmp_path):
        code, blob = run_to_file(tmp_path, ["curves", "--figure", "1", "--h1-max", "3"])
        assert code == 0
        lines = blob.decode().splitlines()
        assert lines[0] == "h1,h2_relaxed,h2_lemma3"
        assert len(lines) == 513  # default 512 grid points

    def test_two_point_grid(self, tmp_path):
        code, blob = run_to_file(
            tmp_path, ["curves", "--figure", "1", "--h1-max", "3", "--points", "2"]
        )
        assert code == 0
        lines = blob.decode().splitlines()
        assert len(lines) == 3
        assert lines[1].startswith("0.0,")
        assert lines[2].startswith("3.0,")

    def test_lf_line_endings(self, tmp_path):
        _, blob = run_to_file(
            tmp_path, ["curves", "--figure", "1", "--points", "8"]
        )
        assert b"\r" not in blob

    def test_json_format(self, capsys):
        assert main(["curves", "--figure", "1", "--points", "3", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["columns"] == ["h1", "h2_relaxed", "h2_lemma3"]
        assert len(payload["rows"]) == 3

    def test_bad_grid_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["curves", "--figure", "1", "--points", "1"])
        assert exc.value.code == 2

    def test_points_above_the_cap_exit_2(self, tmp_path, capsys):
        target = tmp_path / "curve.csv"
        with pytest.raises(SystemExit) as exc:
            main(["curves", "--figure", "1", "--points", "100001", "--output", str(target)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: relay-bounds curves ")
        assert "n_points must lie in 2..100000, got 100001" in err
        assert not target.exists()


class TestVerifyCommand:
    def test_default_small_run_passes(self, tmp_path):
        code, blob = run_to_file(
            tmp_path, ["verify", "--suite", "mossel", "--instances", "50"], "rep.jsonl"
        )
        assert code == 0
        records = [json.loads(line) for line in blob.decode().splitlines()]
        assert len(records) == 50
        assert all(r["pass"] for r in records)
        assert all(r["margin"] >= -1e-12 for r in records)

    def test_norm_indices_near_zero_run(self, tmp_path):
        argv = ["verify", "--suite", "mossel", "--p", "1e-200", "--q", "1e-200",
                "--instances", "50"]
        code, blob = run_to_file(tmp_path, argv, "rep.jsonl")
        assert code == 0
        records = [json.loads(line) for line in blob.decode().splitlines()]
        assert len(records) == 50 and all(r["pass"] for r in records)

    def test_unwritable_output_exits_1_before_any_suite(self, tmp_path, capsys, monkeypatch):
        called = []
        for suite in rhc_verify.SUITES.values():
            monkeypatch.setattr(rhc_verify, suite.__name__, lambda *a, **k: called.append(a))
        target = tmp_path / "missing" / "rep.jsonl"
        assert main(["verify", "--instances", "3", "--output", str(target)]) == 1
        assert called == []
        assert capsys.readouterr().err.startswith("error: ")

    def test_each_suite_is_written_as_it_returns(self, tmp_path, monkeypatch):
        target = tmp_path / "rep.jsonl"
        _, whole = run_to_file(tmp_path, ["verify", "--instances", "3"], "whole.jsonl")
        seen = []
        q0 = rhc_verify.mossel_q0_suite

        def second(*args, **kwargs):
            seen.append(target.read_bytes())
            return q0(*args, **kwargs)

        monkeypatch.setattr(rhc_verify, "mossel_q0_suite", second)
        assert main(["verify", "--instances", "3", "--output", str(target)]) == 0
        assert seen == [b"".join(whole.splitlines(keepends=True)[:3])]
        assert target.read_bytes() == whole

    def test_instances_not_capped(self, tmp_path):
        code, blob = run_to_file(
            tmp_path, ["verify", "--suite", "ou-q0", "--instances", "250"], "rep.jsonl"
        )
        assert code == 0
        assert len(blob.decode().splitlines()) == 250

    @pytest.mark.parametrize("suite", ["all", "lemma4"])
    def test_instances_above_the_cap_exit_2(self, tmp_path, capsys, suite):
        target = tmp_path / "rep.jsonl"
        argv = ["verify", "--suite", suite, "--instances", "100001", "--output", str(target)]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: relay-bounds verify ")
        assert "at most 100000 instances per suite, got 100001" in err
        assert not target.exists()

    def test_borell_critical(self, tmp_path):
        code, blob = run_to_file(
            tmp_path,
            ["verify", "--suite", "borell-exp", "--instances", "40", "--t", "critical"],
            "rep.jsonl",
        )
        assert code == 0
        records = [json.loads(line) for line in blob.decode().splitlines()]
        assert all(abs(r["margin"]) <= 1e-12 for r in records)

    def test_borell_below_critical_exit_3(self, tmp_path):
        code, _ = run_to_file(
            tmp_path,
            ["verify", "--suite", "borell-exp", "--instances", "10", "--t-factor", "0.9"],
            "rep.jsonl",
        )
        assert code == 3

    def test_jensen_baseline_flags(self, tmp_path):
        code, blob = run_to_file(
            tmp_path,
            [
                "verify", "--suite", "mossel", "--n", "1",
                "--t", "0", "--p", "0.5", "--q", "0.5", "--instances", "20",
            ],
            "rep.jsonl",
        )
        assert code == 0
        records = [json.loads(line) for line in blob.decode().splitlines()]
        assert all(r["instance"]["t"] == 0.0 for r in records)

    def test_mossel_t_critical(self, tmp_path):
        code, blob = run_to_file(
            tmp_path,
            ["verify", "--suite", "mossel", "--instances", "200", "--t", "critical"],
            "rep.jsonl",
        )
        assert code == 0
        records = [json.loads(line) for line in blob.decode().splitlines()]
        assert len(records) == 200
        assert all(r["instance"]["t"] == r["instance"]["critical"] for r in records)

    @pytest.mark.parametrize(
        "flags",
        [
            ["--suite", "borell-exp", "--t", "0.01"],
            ["--suite", "borell-exp", "--t", "critical", "--t-factor", "0.9"],
            ["--suite", "lemma4", "--p", "0.5"],
            ["--suite", "mossel", "--t-factor", "0.9"],
            ["--suite", "mossel", "--p", "0.5"],
            ["--t", "critical", "--t-factor", "0.9"],
        ],
    )
    def test_unread_flag_exit_2(self, tmp_path, flags):
        with pytest.raises(SystemExit) as exc:
            main(["verify", *flags, "--instances", "3", "--output", str(tmp_path / "r")])
        assert exc.value.code == 2
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("suite", [["--suite", "mossel"], []])
    def test_fixed_t_needs_p_and_q(self, tmp_path, capsys, suite):
        # each drawn (p, q) has its own critical time, so a fixed t fails some draw
        with pytest.raises(SystemExit) as exc:
            main(["verify", *suite, "--t", "0.5", "--instances", "50",
                  "--output", str(tmp_path / "r")])
        assert exc.value.code == 2
        assert "a numeric t needs p and q" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("suite", [["--suite", "mossel"], []])
    def test_t_below_critical_exit_2(self, tmp_path, capsys, suite):
        with pytest.raises(SystemExit) as exc:
            main(["verify", *suite, "--t", "0.5", "--p", "0.5", "--q", "0.0",
                  "--instances", "5", "--output", str(tmp_path / "r")])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"critical time ln((1-q)/(1-p)) = {math.log(2.0)!r}" in err
        assert "failures" not in err  # no suite summary: nothing ran
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("suite", [["--suite", "mossel"], []])
    @pytest.mark.parametrize("n", ["0", "-1", "5"])
    def test_n_out_of_range_exit_2(self, tmp_path, capsys, suite, n):
        with pytest.raises(SystemExit) as exc:
            main(["verify", *suite, "--n", n, "--instances", "3",
                  "--output", str(tmp_path / "r")])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: relay-bounds verify ")
        assert f"n must lie in 1..{rhc_verify.MAX_FACTORS}, got {n}" in err
        assert "failures" not in err  # no suite summary: nothing ran
        assert not (tmp_path / "r").exists()

    def test_n_at_the_factor_limit_runs(self, tmp_path):
        n = str(rhc_verify.MAX_FACTORS)
        code, blob = run_to_file(
            tmp_path, ["verify", "--suite", "mossel", "--n", n, "--instances", "5"], "rep.jsonl"
        )
        assert code == 0
        records = [json.loads(line) for line in blob.decode().splitlines()]
        assert [r["instance"]["n"] for r in records] == [rhc_verify.MAX_FACTORS] * 5

    @pytest.mark.parametrize("p, q", [("1", "0.5"), ("0.3", "0.5"), ("nan", "0.5")])
    def test_bad_norm_indices_exit_2(self, tmp_path, p, q):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--suite", "mossel", "--p", p, "--q", q, "--instances", "5",
                  "--output", str(tmp_path / "r")])
        assert exc.value.code == 2
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize(
        "flags, kwargs",
        [
            ([], {}),
            (["--t", "critical"], {}),
            (["--t-factor", "0.9"], {"t_factor": 0.9}),
        ],
    )
    def test_borell_exp_gets_only_the_flags_given(self, monkeypatch, tmp_path, flags, kwargs):
        calls, borell_suite = [], rhc_verify.borell_suite

        @functools.wraps(borell_suite)  # cli reaches the suite by its module attribute's name
        def suite(n_instances, seed, **kw):
            calls.append(kw)
            return borell_suite(n_instances, seed, **kw)

        monkeypatch.setattr(rhc_verify, "borell_suite", suite)
        monkeypatch.setitem(rhc_verify.SUITES, "borell-exp", suite)
        out = str(tmp_path / "r")
        main(["verify", "--suite", "borell-exp", *flags, "--instances", "3", "--output", out])
        # the flag check at zero instances, then the run
        assert calls == [kwargs, kwargs]

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--t-factor", "-1"], "t_factor must be a real number >= 0, got -1.0"),
            (["--t-factor", "nan"], "t_factor must be a real number >= 0, got nan"),
            (["--suite", "borell-exp", "--t-factor", "-1"], "t_factor must be a real number >= 0"),
            (["--p=0.5", "--q=-inf"], "need finite q <= p < 1, got p=0.5, q=-inf"),
            (["--p", "0.5"], "p and q fix the norm indices together"),
        ],
    )
    def test_bad_values_exit_2_before_any_suite(self, tmp_path, capsys, flags, message):
        with pytest.raises(SystemExit) as exc:
            main(["verify", *flags, "--instances", "3", "--output", str(tmp_path / "r")])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: relay-bounds verify ")
        assert message in err
        assert "failures" not in err  # no suite summary: nothing ran
        assert not (tmp_path / "r").exists()

    def test_t_factor_inf_runs(self, tmp_path):
        argv = ["verify", "--suite", "borell-exp", "--instances", "5", "--t-factor", "inf"]
        code, blob = run_to_file(tmp_path, argv, "rep.jsonl")
        assert code == 0
        assert len(blob.decode().splitlines()) == 5

    @pytest.mark.parametrize("t_factor", ["inf", "1"])
    def test_every_line_is_strict_json(self, tmp_path, t_factor):
        def reject(token):
            raise ValueError(f"{token} is not JSON")

        argv = ["verify", "--suite", "borell-exp", "--instances", "5", "--t-factor", t_factor]
        code, blob = run_to_file(tmp_path, argv, "rep.jsonl")
        assert code == 0
        records = [json.loads(line, parse_constant=reject) for line in blob.decode().splitlines()]
        assert len(records) == 5
        for r in records:
            # an infinite time is the string "inf"; a finite one stays a number
            t = r["instance"]["t"]
            assert t == "inf" if t_factor == "inf" else t == r["instance"]["critical"]
            assert type(r["margin"]) is float and r["pass"] is True

    @pytest.mark.parametrize(
        "value, text",
        [
            (math.inf, '"inf"'),
            (-math.inf, '"-inf"'),
            (math.nan, '"nan"'),
            ({"a": [1.0, [math.inf, 2]], "b": -math.inf}, '{"a": [1.0, ["inf", 2]], "b": "-inf"}'),
        ],
    )
    def test_non_finite_floats_are_written_as_strings(self, value, text):
        assert _json_line({"x": value}) == '{"x": ' + text + '}\n'

    def test_large_negative_q_has_no_false_failures(self, tmp_path, capsys):
        argv = ["verify", "--suite", "mossel", "--p=0.5", "--q=-800", "--instances", "200"]
        code, blob = run_to_file(tmp_path, argv, "rep.jsonl")
        assert code == 0
        records = [json.loads(line) for line in blob.decode().splitlines()]
        assert len(records) == 200 and all(r["pass"] for r in records)
        assert capsys.readouterr().err.splitlines()[-1] == "200 instances, 0 failures"

    @pytest.mark.parametrize(
        "suite, flags",
        [
            ("mossel", ["--n", "1", "--t", "0", "--p", "0.5", "--q", "0.5"]),
            ("mossel", ["--t", "critical"]),
            ("borell-exp", ["--t-factor", "1.1"]),
        ],
    )
    def test_all_passes_flags_to_their_suite(self, tmp_path, suite, flags):
        n = ["--instances", "4"]
        _, alone = run_to_file(tmp_path, ["verify", "--suite", suite, *n, *flags], "a.jsonl")
        _, every = run_to_file(tmp_path, ["verify", *n, *flags], "b.jsonl")
        mine = [line for line in every.splitlines() if json.loads(line)["suite"] == suite]
        assert mine == alone.splitlines()

    @pytest.mark.parametrize("count", ["0", "-2"])
    def test_instances_below_one_exit_2(self, tmp_path, count):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--instances", count, "--output", str(tmp_path / "r")])
        assert exc.value.code == 2

    def test_suite_choices_are_the_registry(self):
        parser = build_parser()
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        verify = sub.choices["verify"]
        suite = next(a for a in verify._actions if a.dest == "suite")
        assert list(suite.choices) == ["all", *rhc_verify.SUITES]

    def test_all_runs_registry_in_order(self, tmp_path):
        code, blob = run_to_file(tmp_path, ["verify", "--instances", "2"], "rep.jsonl")
        assert code == 0
        records = [json.loads(line) for line in blob.decode().splitlines()]
        assert [(r["suite"], r["index"]) for r in records] == [
            (name, i) for name in rhc_verify.SUITES for i in range(2)
        ]

    def test_summary_matches_report(self, tmp_path, capsys):
        code, blob = run_to_file(tmp_path, ["verify", "--instances", "30"], "rep.jsonl")
        assert code == 0
        records = [json.loads(line) for line in blob.decode().splitlines()]
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == len(rhc_verify.SUITES) + 1
        pattern = re.compile(
            r"(\S+): (\d+) instances, (\d+) failures, min margin (\S+) at index (\d+)"
            r"(?:, tightness (\S+))?, \d+\.\d{3} s"
        )
        for name, line in zip(rhc_verify.SUITES, lines):
            got = pattern.fullmatch(line)
            assert got is not None, line
            mine = [r for r in records if r["suite"] == name]
            worst = min(mine, key=lambda r: r["margin"])
            assert got.group(1) == name
            assert int(got.group(2)) == len(mine) == 30
            assert int(got.group(3)) == sum(not r["pass"] for r in mine)
            assert float(got.group(4)) == worst["margin"]
            assert int(got.group(5)) == worst["index"]
            # the entropy-gap suites alone give their largest (h2 - h1)/(c(h1) - h1)
            assert (got.group(6) is None) == (name not in ("lemma4", "quantizer"))
        assert lines[-1] == f"{len(records)} instances, 0 failures"

    @pytest.mark.parametrize("name", ["lemma4", "quantizer"])
    @pytest.mark.parametrize("seed", [1, 7, 12345])
    def test_summary_gives_the_largest_tightness(self, tmp_path, capsys, name, seed):
        argv = ["verify", "--suite", name, "--instances", "300", "--seed", str(seed)]
        code, blob = run_to_file(tmp_path, argv, "rep.jsonl")
        assert code == 0
        ratios = []
        for line in blob.decode().splitlines():
            inst = json.loads(line)["instance"]
            h1, h2 = inst["h1"], inst["h2"]
            c = bdd_gap_closed(h1, inst["alpha"]) if name == "lemma4" else gauss_gap_closed(h1)
            if c > h1:  # h1 = 0 gives c = h1 = h2 = 0, no ratio
                ratios.append((h2 - h1) / (c - h1))
        line = capsys.readouterr().err.splitlines()[0]
        got = re.search(r", tightness (\S+), ", line)
        # the line takes c(h1) - h1 as (h2 - h1) + (c(h1) - h2): equal to rounding
        assert got is not None and math.isclose(float(got.group(1)), max(ratios), rel_tol=1e-14), line
        assert 0.0 < max(ratios) <= 1.0  # h2 <= c(h1) holds

    def test_summary_tightness_is_nan_without_a_gap(self, tmp_path, capsys):
        # instance 0 at seed 7 has h1 = 0, so c(h1) = h1 and it gives no ratio
        argv = ["verify", "--suite", "lemma4", "--instances", "1", "--seed", "7"]
        code, blob = run_to_file(tmp_path, argv, "rep.jsonl")
        assert code == 0 and json.loads(blob)["instance"]["h1"] == 0.0
        assert ", tightness nan, " in capsys.readouterr().err.splitlines()[0]

    def test_summary_counts_failures(self, tmp_path, capsys):
        argv = ["verify", "--suite", "borell-exp", "--instances", "10", "--t-factor", "0.9"]
        code, _ = run_to_file(tmp_path, argv, "rep.jsonl")
        assert code == 3
        first, last = capsys.readouterr().err.splitlines()
        assert first.startswith("borell-exp: 10 instances, 10 failures, min margin ")
        assert last == "10 instances, 10 failures"

    def test_seed_determinism(self, tmp_path):
        argv = ["verify", "--suite", "lemma4", "--instances", "25", "--seed", "7"]
        _, first = run_to_file(tmp_path, argv, "a.jsonl")
        _, second = run_to_file(tmp_path, argv, "b.jsonl")
        assert first == second

    def test_env_seed_fallback(self, tmp_path, monkeypatch):
        argv = ["verify", "--suite", "lemma4", "--instances", "10"]
        monkeypatch.setenv("RELAY_BOUNDS_SEED", "99")
        _, via_env = run_to_file(tmp_path, argv, "env.jsonl")
        monkeypatch.delenv("RELAY_BOUNDS_SEED")
        _, via_flag = run_to_file(tmp_path, argv + ["--seed", "99"], "flag.jsonl")
        assert via_env == via_flag

    @pytest.mark.parametrize("env,flag", [(None, "-5"), ("-3", None), ("x1", None)])
    def test_bad_seed_exit_2(self, tmp_path, monkeypatch, capsys, env, flag):
        argv = ["verify", "--suite", "lemma4", "--instances", "2", "--output", str(tmp_path / "r")]
        if env is None:
            monkeypatch.delenv("RELAY_BOUNDS_SEED", raising=False)
        else:
            monkeypatch.setenv("RELAY_BOUNDS_SEED", env)
        with pytest.raises(SystemExit) as exc:
            main(argv + (["--seed", flag] if flag else []))
        assert exc.value.code == 2
        assert capsys.readouterr().err.startswith("usage: relay-bounds verify")
        assert not (tmp_path / "r").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["gaussian", "--snr", "0.5", "--power", "1", "--noise", "1", "--c0", "0.1"],
        ["dmc", "--channel", "{bsc}", "--c0", "-0.5"],
        ["curves", "--figure", "1", "--points", "1"],
        ["verify", "--suite", "lemma4", "--p", "0.5"],
        ["dmc", "--channel", "{missing}", "--c0", "0.1"],
        ["dmc", "--channel", "{malformed}", "--c0", "0.1"],
        ["dmc", "--channel", "{undecodable}", "--c0", "0.1"],
        ["verify", "--t", "bogus"],
    ],
)
def test_flag_errors_print_the_subcommand_usage(bsc_file, tmp_path, capsys, argv):
    malformed = tmp_path / "malformed.csv"
    malformed.write_text("0.5,0.5\n0.5\n")  # rows of two lengths
    undecodable = tmp_path / "undecodable.csv"
    undecodable.write_bytes(b"0.5,\xc0\xff\n")  # not UTF-8
    files = {"bsc": bsc_file, "missing": tmp_path / "missing.csv", "malformed": malformed,
             "undecodable": undecodable}
    argv = [a.format(**files) for a in argv]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().err.startswith(f"usage: relay-bounds {argv[0]} ")


@pytest.mark.parametrize(
    "argv",
    [
        ["gaussian", "--snr", "0.5", "--c0", "0.1"],
        ["dmc", "--channel", "{bsc}", "--c0", "0.05"],
        ["curves", "--figure", "1", "--points", "3"],
        ["verify", "--suite", "borell-exp", "--instances", "1"],
    ],
    ids=lambda argv: argv[0],
)
def test_unwritable_output_exit_1(bsc_file, tmp_path, capsys, argv):
    target = tmp_path / "no" / "such" / "dir" / "f.out"
    assert main([a.format(bsc=bsc_file) for a in argv] + ["--output", str(target)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err[-1] == f"error: [Errno 2] No such file or directory: '{target}'"


def test_package_root_holds_only_the_error_types():
    import types

    import relay_bounds
    from relay_bounds import errors

    assert relay_bounds.BoundsError is errors.BoundsError
    assert relay_bounds.DomainError is errors.DomainError
    assert relay_bounds.DimensionError is errors.DimensionError
    public = {
        name
        for name, value in vars(relay_bounds).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == {"BoundsError", "DomainError", "DimensionError"}


class TestDeterminismAndRoundTrip:
    # sha256 of stdout at fixed flags: a change that moves any bit of these
    # tables or of the report fails here, and must say so and re-pin them
    @pytest.mark.parametrize(
        "argv,digest",
        [
            (
                "curves --figure 1 --h1-max 3 --points 512",
                "d13b2056ef9f579eb85531173a402aedfa7fe84e442362db4c01717c598e37b5",
            ),
            (
                "curves --figure 2 --snr 0.5 --c0-max 0.27 --points 512",
                "45f3845ab8ba528c02986fc49c434780daca73458918ef3e28e5fa75714125e4",
            ),
            (
                "gaussian --snr 0.5 --c0 0.1",
                "aed9b73db724d485a06cf96abe7796b281e66c297c65e14da5c6f7464a693051",
            ),
            (  # the json writer and the bits scale, which the csv tables above do not take
                "curves --figure 2 --snr 3 --c0-max 2 --points 97 --format json --bits",
                "e29f41b033751118adcec95dcc486365a500fc4afbca3d4421f9055470a64bbd",
            ),
            (
                "curves --figure 1 --h1-max 2.7 --points 300 --bits",
                "94b9773d67662c2a84d883d9ca456ba6be6ad640afe57e897ebc89657218f01e",
            ),
        ],
    )
    def test_golden_stdout(self, capsys, argv, digest):
        assert main(argv.split()) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest

    def test_golden_verify_stdout(self, capsys, monkeypatch):
        # the default run: every suite at its default count and seed, as JSONL
        monkeypatch.delenv("RELAY_BOUNDS_SEED", raising=False)
        assert main(["verify"]) == 0
        digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert digest == "9874c7b24f0a45bfeb850fc601745ef737db0eb8ae7b931ad735e6e1271f6854"

    @pytest.mark.parametrize(
        "argv,digest",
        [
            (  # four factors per draw, a path the default run does not take
                "verify --suite mossel --n 4 --instances 500 --seed 3",
                "31f5fb58ea631d8dd0738aeb5f49497ad27caca7f6a071874b5a9c1e66708570",
            ),
            (  # two 1,024-draw blocks and a partial third
                "verify --suite semigroup --instances 2000 --seed 7",
                "b574277916dd6b27363cafeedb7c45d6eb6ff4c7efb612186e6e151f6b434a92",
            ),
            (  # three blocks of the quantizer; its smallest margin is 4.2e-6
                "verify --suite quantizer --instances 3000 --seed 7",
                "fc8d3368e6dc11c7796805ee1f01b56beb9905828f88ceaa13aad7f113d50a10",
            ),
            (  # five lemma4 blocks, every (channel, n, messages) group
                "verify --suite lemma4 --instances 5000 --seed 7",
                "14a2fa231ac7e193b3181dc875afd5e3c2cf763cab743a104e4ce1c2f3c71619",
            ),
        ],
    )
    def test_golden_verify_suite_stdout(self, capsys, argv, digest):
        assert main(argv.split()) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest

    def test_golden_dmc_stdout(self, capsys, tmp_path):
        path = tmp_path / "chan3.csv"
        path.write_text("0.7,0.2,0.1\n0.1,0.8,0.1\n0.2,0.2,0.6\n")
        assert main(["dmc", "--channel", str(path), "--c0", "0.2"]) == 0
        digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert digest == "afa9ecfce05824070d7817936654470bdc5b45a9618ade5fb082c29d38c90f1e"

    def test_byte_identical_curves(self, tmp_path):
        argv = ["curves", "--figure", "2", "--points", "64"]
        _, first = run_to_file(tmp_path, argv, "a.csv")
        _, second = run_to_file(tmp_path, argv, "b.csv")
        assert first == second

    def test_byte_identical_dmc(self, tmp_path, bsc_file):
        argv = ["dmc", "--channel", bsc_file, "--c0", "0.05"]
        _, first = run_to_file(tmp_path, argv, "a.json")
        _, second = run_to_file(tmp_path, argv, "b.json")
        assert first == second

    def test_channel_csv_round_trip(self, tmp_path):
        rng = np.random.default_rng(31)
        rows = rng.dirichlet(np.ones(4), size=3)
        channel = DiscreteChannel(rows / rows.sum(axis=1, keepdims=True))
        path = tmp_path / "chan.csv"
        write_channel_csv(str(path), channel)
        parsed = read_channel_csv(str(path))
        assert np.array_equal(parsed.matrix, channel.matrix)
