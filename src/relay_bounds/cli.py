"""Command-line front end: bound reports, curve tables, verification suites.

Exit codes: 0 success, 1 the output could not be written, 2 flag or
input-file errors (every DomainError, printed with the subcommand's usage),
3 verification margin failure.  All rates are nats unless --bits is given
(display-only conversion).  Output is deterministic for fixed flags and seed;
floats are printed with the shortest round-trip decimal representation.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import math
import os
import sys
import time

import numpy as np

from . import dmc_relay, gaussian_relay, rhc_verify
from .errors import BoundsError, DomainError
from .gaussian_relay import CurveTable, GaussianRelayParams

DEFAULT_SEED = 12345
SEED_ENV_VAR = "RELAY_BOUNDS_SEED"
_LN2 = math.log(2.0)


def _fmt(x: float) -> str:
    return repr(float(x))


def _resolve_seed(args: argparse.Namespace) -> int:
    """--seed, else the SEED_ENV_VAR variable, else DEFAULT_SEED; each must be an integer >= 0."""
    source, raw = "--seed", args.seed
    if raw is None:
        source, raw = SEED_ENV_VAR, os.environ.get(SEED_ENV_VAR, DEFAULT_SEED)
    try:
        seed = int(raw)
    except ValueError:
        raise DomainError(f"{source} must be an integer, got {raw!r}") from None
    if seed < 0:
        raise DomainError(f"{source} must be nonnegative, got {seed}")
    return seed


def _unit_scale(args: argparse.Namespace) -> float:
    return 1.0 / _LN2 if args.bits else 1.0


def _sink(path: str | None):
    """The output of a subcommand as a context manager: stdout, left open, or the file at path."""
    return contextlib.nullcontext(sys.stdout) if path is None else open(path, "w", newline="")


# json.dumps's encoder, but one that raises on a non-finite float, which JSON cannot hold
_STRICT_JSON = json.JSONEncoder(allow_nan=False)


def _finite(value):
    """value with each non-finite float, nested in dicts and lists too, as "inf", "-inf" or "nan"."""
    if isinstance(value, float) and not math.isfinite(value):
        return repr(value)
    if isinstance(value, dict):
        return {key: _finite(v) for key, v in value.items()}
    if isinstance(value, list):
        return [_finite(v) for v in value]
    return value


def _json_line(payload: dict) -> str:
    """payload as one line of strict JSON, non-finite floats as strings (see `_finite`)."""
    try:
        return _STRICT_JSON.encode(payload) + "\n"
    except ValueError:
        return _STRICT_JSON.encode(_finite(payload)) + "\n"


def _write_text(path: str | None, text: str) -> None:
    with _sink(path) as out:
        out.write(text)


def _csv_text(columns, rows) -> str:
    """A header line and one line per row; floats in shortest round-trip form."""
    lines = [columns, *([_fmt(v) if isinstance(v, float) else str(v) for v in row] for row in rows)]
    return "".join(",".join(line) + "\n" for line in lines)


def _report_text(payload: dict, fmt: str) -> str:
    if fmt == "json":
        return _json_line(payload)
    flat: dict[str, object] = {}
    for key, value in payload.items():
        if isinstance(value, (list, tuple)):
            for i, v in enumerate(value):
                flat[f"{key}_{i}"] = v
        else:
            flat[key] = value
    return _csv_text(list(flat), [flat.values()])


def _table_text(table: CurveTable, fmt: str, scale: float) -> str:
    rows = (table.rows * scale).tolist()  # the same IEEE product per value as a float row
    if fmt == "json":
        named = [dict(zip(table.columns, row)) for row in rows]
        return _json_line({"columns": list(table.columns), "rows": named})
    return _csv_text(table.columns, rows)


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


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_gaussian(args: argparse.Namespace) -> int:
    if args.snr is not None:
        if args.power is not None or args.noise is not None:
            raise DomainError("--snr and --power/--noise are mutually exclusive")
        power, noise = args.snr, 1.0
    else:
        if args.power is None or args.noise is None:
            raise DomainError("provide either --snr or both --power and --noise")
        power, noise = args.power, args.noise
    params = GaussianRelayParams(power=power, noise=noise, relay_rate=args.c0)
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


def cmd_dmc(args: argparse.Namespace) -> int:
    try:
        channel = read_channel_csv(args.channel)
    except (OSError, UnicodeDecodeError) as exc:  # the channel file is an input
        raise DomainError(f"--channel: {exc}") from exc
    rep = dmc_relay.capacity_ub_cor2(channel, args.c0, alpha_override=args.alpha_override)
    scale = _unit_scale(args)
    payload = {
        "alpha": rep.alpha,
        # order-infinity mutual information: ln of the channel's own alpha, not the override
        "i_infinity": math.log(dmc_relay.alpha_of_channel(channel)) * scale,
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


def cmd_curves(args: argparse.Namespace) -> int:
    if args.figure == 1:
        table = gaussian_relay.emit_fig1_curves(args.h1_max, args.points)
    else:
        table = gaussian_relay.emit_fig2_curves(args.snr, args.c0_max, args.points)
    _write_text(args.output, _table_text(table, args.format, _unit_scale(args)))
    return 0


def _time_flag(raw: str) -> float | str:
    if raw == "critical":
        return raw
    try:
        return float(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expects a number or 'critical', got {raw!r}") from None


def _suite_kwargs(args: argparse.Namespace, names: list[str]) -> dict[str, dict]:
    """Suite keyword arguments from the verify flags, by suite name.

    A flag that no selected suite reads is an error, and so is a set of mossel
    flags that `rhc_verify.check_mossel_keywords` rejects.
    """
    readers = (
        ("--n", args.n, {"mossel"}),
        ("--t", args.t, {"mossel", "borell-exp"} if args.t == "critical" else {"mossel"}),
        ("--p", args.p, {"mossel"}),
        ("--q", args.q, {"mossel"}),
        ("--t-factor", args.t_factor, {"borell-exp"}),
    )
    for flag, value, suites in readers:
        if value is not None and not suites.intersection(names):
            raise DomainError(f"{flag} is read only by --suite {' or '.join(sorted(suites))}")
    if args.t == "critical" and args.t_factor is not None:
        raise DomainError("--t critical puts borell-exp at its critical time; drop --t-factor")
    # checked here, not left to borell-exp: that suite runs third under --suite all
    if args.t_factor is not None and not args.t_factor >= 0.0:
        raise DomainError(f"--t-factor must be at least 0, got {args.t_factor!r}")
    kwargs = {
        "mossel": {"n": args.n, "t": args.t, "p": args.p, "q": args.q},
        "borell-exp": {"t_factor": 1.0 if args.t_factor is None else args.t_factor},
    }
    if "mossel" in names:
        rhc_verify.check_mossel_keywords(**kwargs["mossel"])
    return kwargs


def cmd_verify(args: argparse.Namespace) -> int:
    if args.instances < 1:
        raise DomainError("--instances must be at least 1")
    if args.instances > rhc_verify.MAX_INSTANCES:
        raise DomainError(
            f"at most {rhc_verify.MAX_INSTANCES} instances per suite, got {args.instances}"
        )
    names = list(rhc_verify.SUITES) if args.suite == "all" else [args.suite]
    kwargs = _suite_kwargs(args, names)
    seed = _resolve_seed(args)
    # every flag is checked, so the output opens before the first suite and
    # takes each suite's lines as it returns: one suite's records at a time
    with _sink(args.output) as out:
        total = failures = 0
        for name in names:
            # Reach the suite through the module attribute, not the SUITES entry,
            # so that a wrapper installed on the module (a tracer) sees the call.
            suite = getattr(rhc_verify, rhc_verify.SUITES[name].__name__)
            start = time.perf_counter()
            batch = suite(args.instances, seed, **kwargs.get(name, {}))
            elapsed = time.perf_counter() - start
            worst = min(batch, key=lambda r: r.margin)
            failed = sum(not r.passed for r in batch)
            print(
                f"{name}: {len(batch)} instances, {failed} failures, "
                f"min margin {worst.margin!r} at index {worst.index}, {elapsed:.3f} s",
                file=sys.stderr,
            )
            out.writelines(
                _json_line({"suite": rec.suite, "index": rec.index, "instance": rec.instance,
                            "margin": rec.margin, "pass": rec.passed})
                for rec in batch
            )
            out.flush()
            total += len(batch)
            failures += failed
    print(f"{total} instances, {failures} failures", file=sys.stderr)
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
    g.set_defaults(func=cmd_gaussian, command_parser=g)

    d = sub.add_parser("dmc", help="discrete channel bound report")
    d.add_argument("--channel", required=True, help="CSV file, one row per input symbol")
    d.add_argument("--c0", type=float, required=True, help="relay rate in nats")
    d.add_argument("--alpha-override", type=float, default=None, dest="alpha_override")
    add_common(d)
    d.set_defaults(func=cmd_dmc, command_parser=d)

    c = sub.add_parser("curves", help="emit reference curve tables")
    c.add_argument("--figure", type=int, choices=(1, 2), required=True)
    c.add_argument("--h1-max", type=float, default=3.0, dest="h1_max")
    c.add_argument("--snr", type=float, default=0.5)
    c.add_argument("--c0-max", type=float, default=0.27, dest="c0_max")
    c.add_argument(
        "--points", type=int, default=512, help=f"grid points, 2..{gaussian_relay.MAX_POINTS}"
    )
    add_common(c)
    c.set_defaults(func=cmd_curves, command_parser=c, format="csv")

    v = sub.add_parser("verify", help="run the numerical verification suites")
    v.add_argument("--suite", choices=("all", *rhc_verify.SUITES), default="all")
    v.add_argument(
        "--instances", type=int, default=1000,
        help=f"instances per suite, 1..{rhc_verify.MAX_INSTANCES}",
    )
    v.add_argument("--seed", type=int, default=None)
    v.add_argument("--t-factor", type=float, default=None, dest="t_factor",
                   help="borell-exp time as a multiple of its critical time (default 1)")
    v.add_argument("--t", type=_time_flag, default=None,
                   help="fixed mossel semigroup time, or 'critical': each mossel instance "
                        "at ln((1-q)/(1-p)) and borell-exp at 0.5*ln((1-q)/(1-p))")
    v.add_argument("--n", type=int, default=None,
                   help=f"fixed tensor dimension, 1..{rhc_verify.MAX_FACTORS} (mossel)")
    v.add_argument("--p", type=float, default=None, help="fixed norm index p (mossel)")
    v.add_argument("--q", type=float, default=None, help="fixed norm index q (mossel)")
    v.add_argument("--output", default=None, help="JSON-lines report path")
    v.set_defaults(func=cmd_verify, command_parser=v)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except DomainError as exc:
        args.command_parser.error(str(exc))
    except (BoundsError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run() -> None:
    raise SystemExit(main())
