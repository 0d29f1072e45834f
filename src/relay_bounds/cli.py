"""Command-line front end: bound reports, curve tables, verification suites.

Exit codes: 0 success, 1 numeric failure, 2 flag or input-file errors,
3 verification margin failure.  All rates are nats unless --bits is given
(display-only conversion).  Output is deterministic for fixed flags and seed;
floats are printed with the shortest round-trip decimal representation.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys

import numpy as np

from . import dmc_relay, gaussian_relay, rhc_verify
from .errors import BoundsError, DomainError
from .gaussian_relay import CurveTable, GaussianRelayParams

DEFAULT_SEED = 12345
SEED_ENV_VAR = "RELAY_BOUNDS_SEED"
_LN2 = math.log(2.0)

_SUITES = (
    "mossel",
    "mossel-q0",
    "borell-exp",
    "ou-q0",
    "lemma4",
    "quantizer",
    "semigroup",
)


def _fmt(x: float) -> str:
    return repr(float(x))


def _resolve_seed(args: argparse.Namespace) -> int:
    if getattr(args, "seed", None) is not None:
        return args.seed
    env = os.environ.get(SEED_ENV_VAR)
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise DomainError(f"{SEED_ENV_VAR} must be an integer, got {env!r}") from exc
    return DEFAULT_SEED


def _unit_scale(args: argparse.Namespace) -> float:
    return 1.0 / _LN2 if getattr(args, "bits", False) else 1.0


def _write_text(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    with open(path, "w", newline="") as fh:
        fh.write(text)


def _report_text(payload: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(payload) + "\n"
    flat: dict[str, object] = {}
    for key, value in payload.items():
        if isinstance(value, (list, tuple)):
            for i, v in enumerate(value):
                flat[f"{key}_{i}"] = v
        else:
            flat[key] = value
    header = ",".join(flat)
    cells = ",".join(_fmt(v) if isinstance(v, float) else str(v) for v in flat.values())
    return header + "\n" + cells + "\n"


def _table_text(table: CurveTable, fmt: str, scale: float) -> str:
    if fmt == "json":
        rows = [
            {name: value * scale for name, value in zip(table.columns, row)}
            for row in table.rows
        ]
        return json.dumps({"columns": list(table.columns), "rows": rows}) + "\n"
    lines = [",".join(table.columns)]
    for row in table.rows:
        lines.append(",".join(_fmt(value * scale) for value in row))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Channel CSV
# ---------------------------------------------------------------------------


def read_channel_csv(path: str) -> dmc_relay.DiscreteChannel:
    """Parse a channel file: one CSV row of output probabilities per input symbol."""
    rows: list[list[float]] = []
    with open(path, newline="") as fh:
        for lineno, record in enumerate(csv.reader(fh), start=1):
            if not record or all(not cell.strip() for cell in record):
                continue
            try:
                rows.append([float(cell) for cell in record])
            except ValueError as exc:
                raise DomainError(f"{path}:{lineno}: non-numeric entry in {record}") from exc
    if not rows:
        raise DomainError(f"{path}: no channel rows found")
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise DomainError(f"{path}: rows have inconsistent lengths {sorted(widths)}")
    return dmc_relay.DiscreteChannel(np.array(rows))


def write_channel_csv(path: str, channel: dmc_relay.DiscreteChannel) -> None:
    lines = [",".join(_fmt(v) for v in row) for row in channel.matrix]
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_gaussian(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    if args.snr is not None:
        if args.power is not None or args.noise is not None:
            parser.error("--snr and --power/--noise are mutually exclusive")
        power, noise = args.snr, 1.0
    else:
        if args.power is None or args.noise is None:
            parser.error("provide either --snr or both --power and --noise")
        power, noise = args.power, args.noise
    try:
        params = GaussianRelayParams(power=power, noise=noise, relay_rate=args.c0)
    except DomainError as exc:
        parser.error(str(exc))
    rep = gaussian_relay.report(params)
    scale = _unit_scale(args)
    payload = {
        "power": params.power,
        "noise": params.noise,
        "snr": params.snr,
        "c0": params.relay_rate * scale,
        "cutset": rep.cutset * scale,
        "lemma2": rep.lemma2_bound * scale,
        "lemma3": rep.lemma3_bound * scale,
        "relaxed": rep.relaxed_baseline * scale,
        "best": rep.best * scale,
        "units": "bits" if args.bits else "nats",
    }
    _write_text(args.output, _report_text(payload, args.format))
    return 0


def cmd_dmc(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    try:
        channel = read_channel_csv(args.channel)
    except (OSError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.c0 < 0.0:
        parser.error("--c0 must be nonnegative")
    rep = dmc_relay.capacity_ub_cor2(channel, args.c0, alpha_override=args.alpha_override)
    scale = _unit_scale(args)
    payload = {
        "alpha": rep.alpha,
        "i_infinity": dmc_relay.i_infinity(channel) * scale,
        "c0": args.c0 * scale,
        "penalty": rep.penalty * scale,
        "cutset": rep.cutset * scale,
        "cor2_bound": rep.cor2_bound * scale,
        "argmax_input": [float(v) for v in rep.argmax_input.probs],
        "suboptimality_gap": rep.suboptimality_gap * scale,
        "certified": rep.certified,
        "units": "bits" if args.bits else "nats",
    }
    _write_text(args.output, _report_text(payload, args.format))
    return 0


def cmd_curves(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    try:
        if args.figure == 1:
            table = gaussian_relay.emit_fig1_curves(args.h1_max, args.points)
        else:
            table = gaussian_relay.emit_fig2_curves(args.snr, args.c0_max, args.points)
    except DomainError as exc:
        parser.error(str(exc))
    text = _table_text(table, args.format, _unit_scale(args))
    try:
        _write_text(args.output, text)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def _parse_time_flag(raw: str | None, parser: argparse.ArgumentParser) -> float | str | None:
    if raw is None or raw == "critical":
        return raw
    try:
        return float(raw)
    except ValueError:
        parser.error(f"--t expects a number or 'critical', got {raw!r}")


def cmd_verify(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    seed = _resolve_seed(args)
    t_value = _parse_time_flag(args.t, parser)
    t_factor = args.t_factor
    if t_value == "critical":
        t_factor = 1.0
        t_value = None
    suites = list(_SUITES) if args.suite == "all" else [args.suite]
    n = args.instances
    records: list[rhc_verify.SuiteRecord] = []
    for suite in suites:
        if suite == "mossel":
            records += rhc_verify.mossel_suite(
                n, seed, n=args.n, t=t_value, p=args.p, q=args.q
            )
        elif suite == "mossel-q0":
            records += rhc_verify.mossel_q0_suite(n, seed)
        elif suite == "borell-exp":
            records += rhc_verify.borell_suite(n, seed, t_factor=t_factor)
        elif suite == "ou-q0":
            records += rhc_verify.ou_q0_suite(n, seed)
        elif suite == "lemma4":
            records += rhc_verify.relay_oracle_suite(n, seed)
        elif suite == "quantizer":
            records += rhc_verify.quantizer_oracle_suite(n, seed)
        elif suite == "semigroup":
            records += rhc_verify.semigroup_suite(n, seed)
    lines = []
    for rec in records:
        lines.append(
            json.dumps(
                {
                    "suite": rec.suite,
                    "index": rec.index,
                    "instance": rec.instance,
                    "margin": rec.margin,
                    "pass": rec.passed,
                }
            )
        )
    _write_text(args.output, "\n".join(lines) + "\n")
    failures = [r for r in records if not r.passed]
    print(
        f"{len(records)} instances, {len(failures)} failures", file=sys.stderr
    )
    return 3 if failures else 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="relay-bounds",
        description="Capacity upper bounds for the symmetric primitive relay channel",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--bits", action="store_true", help="display rates in bits")
        p.add_argument("--format", choices=("csv", "json"), default="json")
        p.add_argument("--output", default=None, help="write to this path instead of stdout")

    g = sub.add_parser("gaussian", help="Gaussian relay bound report")
    g.add_argument("--snr", type=float, default=None, help="signal-to-noise ratio P/N")
    g.add_argument("--power", type=float, default=None, help="average power constraint P")
    g.add_argument("--noise", type=float, default=None, help="per-link noise variance N")
    g.add_argument("--c0", type=float, required=True, help="relay rate in nats")
    add_common(g)
    g.set_defaults(func=cmd_gaussian)

    d = sub.add_parser("dmc", help="discrete channel bound report")
    d.add_argument("--channel", required=True, help="CSV file, one row per input symbol")
    d.add_argument("--c0", type=float, required=True, help="relay rate in nats")
    d.add_argument("--alpha-override", type=float, default=None, dest="alpha_override")
    add_common(d)
    d.set_defaults(func=cmd_dmc)

    c = sub.add_parser("curves", help="emit reference curve tables")
    c.add_argument("--figure", type=int, choices=(1, 2), required=True)
    c.add_argument("--h1-max", type=float, default=3.0, dest="h1_max")
    c.add_argument("--snr", type=float, default=0.5)
    c.add_argument("--c0-max", type=float, default=0.27, dest="c0_max")
    c.add_argument("--points", type=int, default=512, help="grid resolution")
    add_common(c)
    c.set_defaults(func=cmd_curves, format="csv")

    v = sub.add_parser("verify", help="run the numerical verification suites")
    v.add_argument("--suite", choices=("all",) + _SUITES, default="all")
    v.add_argument("--instances", type=int, default=1000)
    v.add_argument("--seed", type=int, default=None)
    v.add_argument("--t-factor", type=float, default=1.0, dest="t_factor",
                   help="scale the critical time in the borell-exp suite")
    v.add_argument("--t", default=None, help="fixed semigroup time, or 'critical'")
    v.add_argument("--n", type=int, default=None, help="fixed tensor dimension (mossel)")
    v.add_argument("--p", type=float, default=None, help="fixed norm index p (mossel)")
    v.add_argument("--q", type=float, default=None, help="fixed norm index q (mossel)")
    v.add_argument("--output", default=None, help="JSON-lines report path")
    v.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, parser)
    except BoundsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run() -> None:
    raise SystemExit(main())
