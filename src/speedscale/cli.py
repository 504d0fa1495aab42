"""Command-line front end: simulate, lowerbound, verify, game.

Exit codes: 0 success, 1 a verification suite failed, 2 usage or input error.
Every integer the command line holds, in an option, `fixed:K` or a generator
parameter, is read by `_decimal_int`: ASCII decimal digits only.
CSV cells are formatted as '%.12g' ('.' decimals, 12 significant digits, nan
and inf spelled out); the timestamp header line can be suppressed with
--no-header for byte-identical reruns.

numpy is imported only where a command needs it: `lowerbound`, every `verify`
suite but `mincran`, and `simulate --gen random|heavy-tail`. Without numpy
these exit 2 with an error.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys
from datetime import datetime, timezone

from . import analysis
from .adversary import (DELTA, PHI_PLUS_1, SQRT2_PLUS_1, adversary_finalize,
                        alpha2_game_ratio, eval_lower_bound, gen_alpha2_lb_instance,
                        gen_sqrt2_lb_instance, run_adversarial_game)
from .analysis import VerificationError, competitive_report
from .model import InstanceFormatError, ModelError, PowerLaw, read_instance
from .policies import POLICIES, FixedCountPolicy, get_policy


class UsageError(Exception):
    pass


def _fmt(value) -> str:
    if isinstance(value, float):
        return format(value, ".12g")
    return "" if value is None else str(value)


def _write_csv(path: str, columns, body: list[str], header: bool, tool: str) -> None:
    """Write the column line and then the body lines, each already formatted."""
    lines = []
    if header:
        stamp = datetime.now(timezone.utc).isoformat(timespec="seconds")
        lines.append(f"# speedscale {tool} generated={stamp}")
    lines.append(",".join(columns))
    lines.extend(body)
    _write_text(path, "\n".join(lines) + "\n")


def _write_text(path: str, text: str) -> None:
    if path in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


GENERATOR_KEYS = {"random": ("n",), "heavy-tail": ("n",),
                  "alpha2-lb": ("z", "k"), "sqrt2-lb": ("k",)}


_DECIMAL = re.compile(r"-?[0-9]+")


def _decimal_int(raw: str) -> int:
    """The integer `raw` spells in ASCII decimal digits, with an optional minus sign.

    int() alone also reads "1_0" as 10, and takes " 2", "+3" and non-ASCII
    digits; those raise the ValueError int() raises for text it cannot read.
    """
    if not _DECIMAL.fullmatch(raw):
        raise ValueError(f"invalid literal for int() with base 10: {raw!r}")
    return int(raw)


def _int_option(raw: str) -> int:
    """argparse type of every integer option: `_decimal_int`, refused in argparse's words for int."""
    try:
        return _decimal_int(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {raw!r}") from None


def _int_param(params: dict[str, str], key: str, default: int, lo: int, hi: float = math.inf) -> int:
    raw = params.get(key)
    if raw is None:
        return default
    try:
        value = _decimal_int(raw)
    except ValueError:
        raise UsageError(f"generator parameter {key} must be an integer, got {raw!r}") from None
    if not lo <= value <= hi:
        bound = f">= {lo}" if hi == math.inf else f"in {lo}..{hi}"
        raise UsageError(f"generator parameter {key} must be {bound}, got {value}")
    return value


def _parse_gen(spec: str, alpha: float, seed: int):
    name, _, raw = spec.partition(":")
    if name not in GENERATOR_KEYS:
        raise UsageError(f"unknown generator {name!r}; valid: {', '.join(GENERATOR_KEYS)}")
    params: dict[str, str] = {}
    if raw:
        for part in raw.split(","):
            key, _, val = part.partition("=")
            key = key.strip()
            if not val:
                raise UsageError(f"bad generator parameter {part!r} in {spec!r}")
            if key not in GENERATOR_KEYS[name]:
                raise UsageError(f"unknown parameter {key!r} for generator {name}; "
                                 f"valid: {', '.join(GENERATOR_KEYS[name])}")
            params[key] = val.strip()
    cost = PowerLaw(alpha)
    try:
        if name in ("random", "heavy-tail"):
            import numpy as np
            rng = np.random.default_rng(seed)
            return analysis.random_instance(rng, cost, n_max=_int_param(params, "n", 30, 1),
                                            label=f"{name}:seed={seed}",
                                            heavy_tail=name == "heavy-tail")
        if name == "alpha2-lb":
            if "z" not in params:
                raise UsageError("alpha2-lb generator needs z=<int>")
            z = _int_param(params, "z", 0, 1)
            template = gen_alpha2_lb_instance(z)
            k = _int_param(params, "k", max(1, math.floor(DELTA * z)), 1, 2 * z)
        else:
            template = gen_sqrt2_lb_instance(alpha)
            k = _int_param(params, "k", 2, 1, len(template.values))
        return adversary_finalize(template, range(k))
    except ModelError as exc:
        raise UsageError(str(exc)) from exc


def _parse_policy(name: str):
    if name.startswith("fixed:"):
        try:
            return FixedCountPolicy(_decimal_int(name.split(":", 1)[1]))
        except (ValueError, ModelError) as exc:
            raise UsageError(f"bad fixed policy {name!r}: {exc}") from exc
    try:
        return get_policy(name)
    except ModelError as exc:
        raise UsageError(str(exc)) from exc


def _parse_alphas(raw: str) -> list[float]:
    out = []
    for part in raw.split(","):
        part = part.strip()
        if part:
            try:
                alpha = float(part)
            except ValueError:
                raise UsageError(f"bad alpha value {part!r}") from None
            if not math.isfinite(alpha):
                raise UsageError(f"alpha values must be finite, got {part!r}")
            out.append(alpha)
    if not out:
        raise UsageError("no alpha values given")
    return out


REPORT_COLUMNS = ["label", "alpha", "policy", "off", "alg", "ratio", "max_lcr"]


def cmd_simulate(args) -> int:
    if bool(args.instance) == bool(args.gen):
        raise UsageError("exactly one input source required: --instance or --gen")
    if args.alpha < 1.0:
        raise UsageError(f"--alpha must be >= 1, got {args.alpha}")
    if args.seed < 0:
        raise UsageError(f"--seed must be >= 0, got {args.seed}")
    policy = _parse_policy(args.policy)
    if args.instance:
        instance = read_instance(args.instance)
    else:
        instance = _parse_gen(args.gen, args.alpha, args.seed)
    cost = PowerLaw(args.alpha)
    report = competitive_report(instance, policy, cost)
    row = report.to_row()
    row.update({"alpha": args.alpha, "policy": policy.name})
    if args.format == "json":
        obj = report.to_obj()
        obj.update({"alpha": args.alpha, "policy": policy.name})
        _write_text(args.out, json.dumps(obj, indent=2) + "\n")
    else:
        line = ",".join(_fmt(row.get(c)) for c in REPORT_COLUMNS)
        _write_csv(args.out, REPORT_COLUMNS, [line], not args.no_header, "simulate")
    return 0


LOWERBOUND_COLUMNS = ["alpha", "z", "x", "k_star", "value"]


def cmd_lowerbound(args) -> int:
    alphas = _parse_alphas(args.alpha)
    for alpha in alphas:
        if alpha < 2.0:
            raise UsageError(f"lowerbound needs alpha >= 2, got {alpha}")
    as_json = args.format == "json"
    points, summaries, body = [], [], []
    for alpha in sorted(alphas):
        curve, best = eval_lower_bound(PowerLaw(alpha), args.z_max, args.x_grid)
        if as_json:
            columns = [curve[name].tolist() for name in LOWERBOUND_COLUMNS[1:]]
            points.extend({"alpha": alpha, "z": z, "x": x, "k_star": k, "value": value}
                          for z, x, k, value in zip(*columns))
            points.append({"alpha": alpha, "z": None, "x": None, "k_star": None, "value": best})
            summaries.append({"alpha": alpha, "best": best})
        else:
            tag = _fmt(alpha)
            # each row's 'alpha,z,' is written into the format once per z, and
            # one '%' fills x, k_star and value; '%d' and '%.12g' give the
            # strings _fmt gives for ints and floats
            columns = [curve[name].tolist() for name in LOWERBOUND_COLUMNS[2:]]
            cells = [None] * (len(columns) * len(curve))
            for offset, column in enumerate(columns):
                cells[offset::len(columns)] = column
            rows = ("\n".join([f"{tag},{z},%.12g,%d,%.12g"] * args.x_grid)
                    for z in curve["z"][::args.x_grid].tolist())
            body.append("\n".join(rows) % tuple(cells))
            body.append(f"{tag},,,,{_fmt(best)}")
    if as_json:
        _write_text(args.out, json.dumps({"summaries": summaries, "points": points}, indent=2) + "\n")
    else:
        _write_csv(args.out, LOWERBOUND_COLUMNS, body, not args.no_header, "lowerbound")
    return 0


VERIFY_SUITES = ("mincran", "hbound", "smallm", "alpha2lcr", "subadd", "oracle")


def cmd_verify(args) -> int:
    if args.samples < 1:
        raise UsageError(f"--samples must be >= 1, got {args.samples}")
    if args.seed < 0:
        raise UsageError(f"--seed must be >= 0, got {args.seed}")
    suites = VERIFY_SUITES if args.suite == "all" else (args.suite,)
    lines = []
    failed = None
    for suite in suites:
        try:
            detail = _run_suite(suite, args)
            lines.append(f"[PASS] {suite}: {detail}")
        except VerificationError as exc:
            lines.append(f"[FAIL] {suite}: {exc}")
            failed = exc
            break
    _write_text(args.out, "\n".join(lines) + "\n")
    if failed is not None:
        return 1
    return 0


def _run_suite(suite: str, args) -> str:
    # numpy is imported by the suites that use it: mincran runs without it
    if suite == "mincran":
        delta = DELTA + args.inject_delta
        parts = []
        for z in (10, 100, 10_000):
            k_star, value = analysis.verify_mincran(z, delta=delta)
            parts.append(f"z={z}: k*={k_star:.6g} value={value:.9g}")
        return "; ".join(parts)
    if suite == "hbound":
        import numpy as np

        worst = 0.0
        for alpha in np.arange(2.0, 6.0 + 1e-9, 0.25):
            report = analysis.verify_h_bound(float(alpha), 100)
            worst = max(worst, report["max_theta"])
        return f"theta <= {worst:.9g} <= 1/2, non-increasing in alpha on [2, 6]"
    if suite == "smallm":
        import numpy as np

        grid = [round(a, 2) for a in np.arange(2.5, 4.0 + 1e-9, 0.05)]
        report = analysis.verify_small_m_cases(grid, seed=args.seed)
        worst = max(r["bound"] for r in report["rows"])
        return f"{len(report['rows'])} case bounds <= {worst:.9g} <= phi+1={PHI_PLUS_1:.6f}"
    if suite == "alpha2lcr":
        report = analysis.verify_alpha2_lcr_cases(range(1, 61))
        worst = max(r["bound"] for r in report["rows"])
        return f"m=1..60 candidate bounds <= {worst:.9g} <= phi+1"
    if suite == "subadd":
        report = analysis.verify_subadditivity(samples=args.samples, seed=args.seed)
        return f"{report['samples']} pairs, worst slack {report['worst_slack']:.3g} <= 1e-6"
    if suite == "oracle":
        report = analysis.verify_oracle_equivalence(samples=args.samples, seed=args.seed)
        return f"{report['samples']} instances, worst |flow - brute| = {report['worst_diff']:.3g} <= 1e-6"
    raise UsageError(f"unknown suite {suite!r}")


def cmd_game(args) -> int:
    if args.alpha < 2.0:
        raise UsageError(f"game needs alpha >= 2, got {args.alpha}")
    if args.z is not None and args.z < 1:
        raise UsageError(f"--z must be >= 1, got {args.z}")
    if (args.z is None) != args.sqrt2:
        raise UsageError("exactly one of --z or --sqrt2 required")
    policy = _parse_policy(args.policy)
    cost = PowerLaw(args.alpha)
    if args.sqrt2:
        if args.alpha <= 2.0:
            raise UsageError("--sqrt2 needs alpha > 2")
        template = gen_sqrt2_lb_instance(args.alpha)
    else:
        template = gen_alpha2_lb_instance(args.z)
    report = run_adversarial_game(policy, template, cost)
    k_chosen = len(report.per_slot_lcr) and report.per_slot_lcr[0].i_chosen
    if args.sqrt2:
        predicted = SQRT2_PLUS_1
    elif args.alpha == 2.0 and k_chosen:
        predicted = alpha2_game_ratio(args.z, k_chosen)
    else:
        predicted = math.nan
    lines = [
        f"template: {template.label}",
        f"policy: {policy.name}",
        f"slot1_count: {k_chosen}",
        f"off: {_fmt(report.off_profit)}",
        f"alg: {_fmt(report.alg_profit)}",
        f"ratio: {_fmt(report.ratio)}",
        f"predicted: {_fmt(predicted)}",
    ]
    _write_text(args.out, "\n".join(lines) + "\n")
    return 0


POLICY_HELP = "|".join(sorted(POLICIES)) + "|fixed:K"


@functools.lru_cache(maxsize=None)  # built once per process; parse_args leaves it as it was
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="speedscale",
        description="Online speed scaling with hidden deadlines: simulation, "
                    "lower-bound games and curves, and bound verification.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seed=False, table=False):
        if seed:
            p.add_argument("--seed", type=_int_option, default=0)
        p.add_argument("--out", default="-", help="output path, '-' for stdout")
        if table:
            p.add_argument("--format", choices=("csv", "json"), default="csv")
            p.add_argument("--no-header", action="store_true",
                           help="suppress the timestamp header line for byte-identical reruns")

    p = sub.add_parser("simulate", help="run a policy on an instance and report the ratio")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--policy", required=True, help=POLICY_HELP)
    p.add_argument("--instance", help="instance file (JSON lines)")
    p.add_argument("--gen", help="generator spec, e.g. alpha2-lb:z=100 or random:n=20")
    common(p, seed=True, table=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("lowerbound", help="numeric lower-bound curve over the construction family")
    p.add_argument("--alpha", required=True, help="comma-separated list, e.g. 2,2.5,3")
    p.add_argument("--z-max", type=_int_option, default=200)
    p.add_argument("--x-grid", type=_int_option, default=64)
    common(p, table=True)
    p.set_defaults(func=cmd_lowerbound)

    p = sub.add_parser("verify", help="run numeric verification suites")
    p.add_argument("suite", choices=VERIFY_SUITES + ("all",))
    p.add_argument("--samples", type=_int_option, default=1000)
    p.add_argument("--inject-delta", type=float, default=0.0,
                   help="negative-control offset added to the golden-section target")
    common(p, seed=True)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("game", help="play the adaptive deadline game against a policy")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--policy", required=True, help=POLICY_HELP)
    p.add_argument("--z", type=_int_option, default=None, help="batch size parameter of the alpha=2 template")
    p.add_argument("--sqrt2", action="store_true", help="use the 4-job construction (alpha > 2)")
    common(p)
    p.set_defaults(func=cmd_game)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InstanceFormatError as exc:
        print(f"error: bad instance file: {exc}", file=sys.stderr)
        return 2
    except VerificationError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 1
    except ModelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ModuleNotFoundError as exc:
        if exc.name != "numpy":
            raise
        print(f"error: {args.command} needs numpy, which cannot be imported", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
