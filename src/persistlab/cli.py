"""Batch command-line driver: every pipeline behind one reproducible surface.

Each run writes a single self-describing table (CSV by default, JSON mirror
on request) whose header embeds the command, all parameters, the seed, and
the package version; `--plot` additionally emits a static SVG chart next to
the table.  Identical configurations produce byte-identical data payloads.
"""

from __future__ import annotations

import argparse
import math
import sys

from . import __version__
from .games import prob_no_internal_equilibria
from .gp import DEFAULT_KERNEL, estimate_exponent
from .kernel import mn_asymptotic, mn_exact, mn_via_legendre
from .mc import (
    autocorr_convergence_report,
    estimate_persistence,
    negligible_interval_report,
    ratio_sequence,
)
from .report import csv_text, json_text, svg_text, write_text

__all__ = ["run", "main", "build_parser"]

# options that change only where or how fast the output is written
_UNRECORDED = ("workers", "format", "out", "plot")


def _header(args: argparse.Namespace) -> dict:
    """The run's reproducibility header: the package version and every
    option of the command except _UNRECORDED, leaving out unset ones."""
    cfg = {"version": __version__}
    for name, value in vars(args).items():
        if name in _UNRECORDED or value is None or value == ():
            continue
        if isinstance(value, tuple):
            value = ",".join(
                f"{v:g}" if isinstance(v, float) else str(v) for v in value
            )
        cfg[name] = value
    return cfg


def _int_list(text: str) -> tuple[int, ...]:
    try:
        values = tuple(int(v) for v in text.replace(" ", "").split(",") if v)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad integer list {text!r}") from exc
    if not values:
        raise argparse.ArgumentTypeError("empty list")
    return values


def _float_list(text: str) -> tuple[float, ...]:
    try:
        values = tuple(float(v) for v in text.replace(" ", "").split(",") if v)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad number list {text!r}") from exc
    if not values:
        raise argparse.ArgumentTypeError("empty list")
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="persistlab",
        description="Sign-persistence laboratory for weighted random polynomials.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, *, samples=None, uses_workers=True):
        p.add_argument("--seed", type=int, default=0)
        if samples is not None:
            p.add_argument("--samples", type=int, default=samples)
        if uses_workers:
            p.add_argument("--workers", type=int, default=1)
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--out", metavar="PATH", default=None)
        p.add_argument("--plot", action="store_true")

    p = sub.add_parser("mn-check", help="three-way kernel evaluation table")
    p.add_argument("--n", type=int, required=True)
    add_common(p, uses_workers=False)

    p = sub.add_parser("persist", help="Monte Carlo persistence probability")
    p.add_argument("--n", type=int)
    p.add_argument("--n-list", type=_int_list, default=())
    p.add_argument(
        "--interval", choices=("full", "low", "high", "main"), default="full"
    )
    p.add_argument("--delta", type=float, default=0.25)
    add_common(p, samples=100_000)

    p = sub.add_parser("ratio", help="normalized ratio sequence vs. the exponent")
    p.add_argument("--n-list", type=_int_list, required=True)
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--delta", type=float, default=0.25)
    p.add_argument("--horizons", type=_float_list,
                   default=tuple(float(t) for t in range(3, 13)))
    add_common(p)

    p = sub.add_parser("gp-exponent", help="survival exponent of the limit process")
    p.add_argument("--horizons", type=_float_list,
                   default=tuple(float(t) for t in range(3, 13)))
    p.add_argument("--delta", type=float, default=0.25)
    add_common(p, samples=200_000, uses_workers=False)

    p = sub.add_parser("negligible", help="edge-interval contribution report")
    p.add_argument("--n-list", type=_int_list, required=True)
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--delta", type=float, default=0.25)
    add_common(p)

    p = sub.add_parser("game", help="random games with no internal equilibria")
    p.add_argument("--n", type=int)
    p.add_argument("--n-list", type=_int_list, default=())
    add_common(p, samples=10_000)

    p = sub.add_parser("b1-report", help="autocorrelation limit-gap diagnostics")
    p.add_argument("--n-list", type=_int_list, required=True)
    add_common(p, uses_workers=False)

    return parser


def _ns(args: argparse.Namespace) -> tuple[int, ...]:
    if args.n_list:
        return args.n_list
    if args.n is not None:
        return (args.n,)
    raise ValueError("one of --n or --n-list is required")


# --- command implementations; each returns (fieldnames, rows, plotspec) ---


def _cmd_mn_check(args: argparse.Namespace):
    n = args.n
    fields = (
        "x",
        "log_exact",
        "log_legendre",
        "log_asymptotic",
        "legendre_rel_err",
        "asymptotic_rel_err",
    )
    rows = []
    lo = n ** (-1.0 / 6.0)
    for k in range(1, 10):
        x = k / 10.0
        exact = mn_exact(n, x).log_abs
        leg = mn_via_legendre(n, x).log_abs
        row = {
            "x": x,
            "log_exact": exact,
            "log_legendre": leg,
            "legendre_rel_err": abs(math.expm1(leg - exact)),
            "log_asymptotic": None,
            "asymptotic_rel_err": None,
        }
        if lo < x < 1.0 / lo:
            asym = mn_asymptotic(n, x).log_abs
            row["log_asymptotic"] = asym
            row["asymptotic_rel_err"] = abs(math.expm1(asym - exact))
        rows.append(row)
    plot = ("x", ("legendre_rel_err", "asymptotic_rel_err"),
            f"kernel evaluation routes, n={n}", "x", "relative error")
    return fields, rows, plot


def _cmd_persist(args: argparse.Namespace):
    fields = (
        "n",
        "interval",
        "samples",
        "successes",
        "p_hat",
        "ci_low",
        "ci_high",
        "ratio",
    )
    rows = []
    for n in _ns(args):
        est = estimate_persistence(
            n,
            args.interval,
            args.samples,
            seed=args.seed,
            workers=args.workers,
            step=args.delta,
        )
        ratio = None
        if est.log_usable() and n > 0:
            ratio = -est.log_p / (math.pi * math.sqrt(n))
        rows.append(
            {
                "n": n,
                "interval": args.interval,
                "samples": est.samples,
                "successes": est.successes,
                "p_hat": est.p_hat,
                "ci_low": est.ci_low,
                "ci_high": est.ci_high,
                "ratio": ratio,
            }
        )
    plot = ("n", ("p_hat",), "persistence probability", "n", "p")
    return fields, rows, plot


def _cmd_ratio(args: argparse.Namespace):
    fit, _ = estimate_exponent(
        DEFAULT_KERNEL,
        args.horizons,
        args.delta,
        200_000,
        seed=(args.seed, 0xEC),
    )
    points, dropped = ratio_sequence(
        args.n_list,
        samples=args.samples,
        seed=args.seed,
        workers=args.workers,
        step=args.delta,
    )
    fields = (
        "n",
        "samples",
        "successes",
        "p_hat",
        "ratio",
        "ratio_ci_low",
        "ratio_ci_high",
        "b_hat",
        "b_stderr",
        "gap",
    )
    rows = []
    for pt in points:
        rows.append(
            {
                "n": pt.n,
                "samples": pt.estimate.samples,
                "successes": pt.estimate.successes,
                "p_hat": pt.estimate.p_hat,
                "ratio": pt.ratio,
                "ratio_ci_low": pt.ci_low,
                "ratio_ci_high": pt.ci_high,
                "b_hat": fit.b_hat,
                "b_stderr": fit.stderr,
                "gap": abs(pt.ratio - fit.b_hat),
            }
        )
    for n, est in dropped:
        rows.append(
            {
                "n": n,
                "samples": est.samples,
                "successes": est.successes,
                "p_hat": est.p_hat,
                "ratio": None,
                "ratio_ci_low": None,
                "ratio_ci_high": None,
                "b_hat": fit.b_hat,
                "b_stderr": fit.stderr,
                "gap": None,
            }
        )
    plot = ("n", ("ratio", "b_hat"), "ratio sequence vs. exponent", "n", "ratio")
    return fields, rows, plot


def _cmd_gp_exponent(args: argparse.Namespace):
    fit, estimates = estimate_exponent(
        DEFAULT_KERNEL,
        args.horizons,
        args.delta,
        args.samples,
        seed=args.seed,
    )
    fields = (
        "horizon",
        "samples",
        "successes",
        "p_hat",
        "ci_low",
        "ci_high",
        "log_p",
        "log_p_stderr",
        "b_hat",
        "b_stderr",
        "intercept",
    )
    rows = []
    for horizon, est in estimates:
        usable = est.log_usable()
        rows.append(
            {
                "horizon": horizon,
                "samples": est.samples,
                "successes": est.successes,
                "p_hat": est.p_hat,
                "ci_low": est.ci_low,
                "ci_high": est.ci_high,
                "log_p": est.log_p if usable else None,
                "log_p_stderr": est.log_p_stderr if usable else None,
                "b_hat": fit.b_hat,
                "b_stderr": fit.stderr,
                "intercept": fit.intercept,
            }
        )
    plot = ("horizon", ("log_p",), "survival decay", "T", "log p")
    return fields, rows, plot


def _cmd_negligible(args: argparse.Namespace):
    rows_out = []
    fields = (
        "n",
        "interval",
        "samples",
        "successes",
        "p_hat",
        "ci_low",
        "ci_high",
        "neg_log_p_over_sqrt_n",
    )
    for row in negligible_interval_report(
        args.n_list,
        samples=args.samples,
        seed=args.seed,
        workers=args.workers,
        step=args.delta,
    ):
        est = row.estimate
        rows_out.append(
            {
                "n": row.n,
                "interval": row.kind,
                "samples": est.samples,
                "successes": est.successes,
                "p_hat": est.p_hat,
                "ci_low": est.ci_low,
                "ci_high": est.ci_high,
                "neg_log_p_over_sqrt_n": row.normalized,
            }
        )
    plot = ("n", ("neg_log_p_over_sqrt_n",), "edge-interval contribution",
            "n", "-log p / sqrt(n)")
    return fields, rows_out, plot


def _cmd_game(args: argparse.Namespace):
    fields = ("players", "samples", "no_equilibria", "p_hat", "ci_low", "ci_high")
    rows = []
    for players in _ns(args):
        est = prob_no_internal_equilibria(
            players,
            args.samples,
            seed=(args.seed, players),
            workers=args.workers,
        )
        rows.append(
            {
                "players": players,
                "samples": est.samples,
                "no_equilibria": est.successes,
                "p_hat": est.p_hat,
                "ci_low": est.ci_low,
                "ci_high": est.ci_high,
            }
        )
    plot = ("players", ("p_hat",), "games with no internal equilibrium",
            "players", "probability")
    return fields, rows, plot


def _cmd_b1_report(args: argparse.Namespace):
    fields = ("n", "lag", "sup_gap")
    rows = [
        {"n": r.n, "lag": r.lag, "sup_gap": r.sup_gap}
        for r in autocorr_convergence_report(args.n_list)
    ]
    plot = ("lag", ("sup_gap",), "autocorrelation limit gap", "lag", "sup gap")
    return fields, rows, plot


_DISPATCH = {
    "mn-check": _cmd_mn_check,
    "persist": _cmd_persist,
    "ratio": _cmd_ratio,
    "gp-exponent": _cmd_gp_exponent,
    "negligible": _cmd_negligible,
    "game": _cmd_game,
    "b1-report": _cmd_b1_report,
}


def run(args: argparse.Namespace) -> int:
    """Execute one parsed command line; returns the process exit status."""
    if args.command not in _DISPATCH:
        raise ValueError(f"unknown command {args.command!r}")
    if args.plot and not args.out:
        raise ValueError("--plot requires --out")
    fields, rows, plotspec = _DISPATCH[args.command](args)
    header = _header(args)
    if args.format == "json":
        text = json_text(fields, rows, header)
    else:
        text = csv_text(fields, rows, header, timestamp=args.out is not None)
    if args.out:
        write_text(args.out, text)
        if args.plot:
            x_field, y_fields, title, xlabel, ylabel = plotspec
            xs = [row[x_field] for row in rows]
            series = {y: [row.get(y) for row in rows] for y in y_fields}
            out = args.out
            stem = out[: out.rfind(".")] if "." in out.rsplit("/", 1)[-1] else out
            write_text(stem + ".svg", svg_text(xs, series, title, xlabel, ylabel))
    else:
        sys.stdout.write(text)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return run(args)
    except (ValueError, ArithmeticError, RuntimeError) as exc:
        print(f"persistlab: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
