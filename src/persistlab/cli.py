"""Batch command-line driver: every pipeline behind one reproducible surface.

Each run writes a single self-describing table (CSV by default, JSON mirror
on request) whose header embeds the command, all parameters (the seed of a
sampling command among them), and the package version; `--plot` additionally emits a static SVG chart next to
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
        if name in _UNRECORDED or value is None:
            continue
        if isinstance(value, tuple):
            value = ",".join(
                f"{v:g}" if isinstance(v, float) else str(v) for v in value
            )
        cfg[name] = value
    return cfg


def _list(kind):
    """argparse type of a comma-separated, non-empty list of `kind` values."""

    def parse(text: str) -> tuple:
        try:
            values = tuple(kind(v) for v in text.replace(" ", "").split(",") if v)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(
                f"bad {kind.__name__} list {text!r}"
            ) from exc
        if not values:
            raise argparse.ArgumentTypeError("empty list")
        return values

    return parse


_HORIZONS = tuple(float(t) for t in range(3, 13))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="persistlab",
        description="Sign-persistence laboratory for weighted random polynomials.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_output(p):
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--out", metavar="PATH", default=None)
        p.add_argument("--plot", action="store_true")

    def add_sampling(p, samples, *, pooled=True):
        p.add_argument("--samples", type=int, default=samples)
        p.add_argument("--seed", type=int, default=0)
        if pooled:
            p.add_argument("--workers", type=int, default=1)
        add_output(p)

    def add_ns(p):
        ns = p.add_mutually_exclusive_group(required=True)
        ns.add_argument("--n", type=int)
        ns.add_argument("--n-list", type=_list(int))

    p = sub.add_parser("mn-check", help="three-way kernel evaluation table")
    p.add_argument("--n", type=int, required=True)
    add_output(p)

    p = sub.add_parser("persist", help="Monte Carlo persistence probability")
    add_ns(p)
    p.add_argument(
        "--interval", choices=("full", "low", "high", "main"), default="full"
    )
    p.add_argument("--delta", type=float, default=0.25)
    add_sampling(p, 100_000)

    p = sub.add_parser("ratio", help="normalized ratio sequence vs. the exponent")
    p.add_argument("--n-list", type=_list(int), required=True)
    p.add_argument("--delta", type=float, default=0.25)
    p.add_argument("--horizons", type=_list(float), default=_HORIZONS)
    add_sampling(p, None)

    p = sub.add_parser("gp-exponent", help="survival exponent of the limit process")
    p.add_argument("--horizons", type=_list(float), default=_HORIZONS)
    p.add_argument("--delta", type=float, default=0.25)
    add_sampling(p, 200_000, pooled=False)

    p = sub.add_parser("negligible", help="edge-interval contribution report")
    p.add_argument("--n-list", type=_list(int), required=True)
    p.add_argument("--delta", type=float, default=0.25)
    add_sampling(p, None)

    p = sub.add_parser("game", help="random games with no internal equilibria")
    add_ns(p)
    add_sampling(p, 10_000)

    p = sub.add_parser("b1-report", help="autocorrelation limit-gap diagnostics")
    p.add_argument("--n-list", type=_list(int), required=True)
    add_output(p)

    return parser


def _ns(args: argparse.Namespace) -> tuple[int, ...]:
    return args.n_list or (args.n,)


def _estimate_row(est, **cells) -> dict:
    """One table row: the estimate's counts, p_hat and Wilson bounds, then
    the command's own cells; each writer keeps only its command's fields."""
    return {
        "samples": est.samples,
        "successes": est.successes,
        "p_hat": est.p_hat,
        "ci_low": est.ci_low,
        "ci_high": est.ci_high,
        **cells,
    }


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
        rows.append(_estimate_row(est, n=n, interval=args.interval, ratio=ratio))
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
    fitted = {"b_hat": fit.b_hat, "b_stderr": fit.stderr}
    rows = [
        _estimate_row(
            pt.estimate,
            n=pt.n,
            ratio=pt.ratio,
            ratio_ci_low=pt.ci_low,
            ratio_ci_high=pt.ci_high,
            gap=abs(pt.ratio - fit.b_hat),
            **fitted,
        )
        for pt in points
    ]
    # dropped n (below the success floor) leave the ratio cells empty
    rows += [_estimate_row(est, n=n, **fitted) for n, est in dropped]
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
            _estimate_row(
                est,
                horizon=horizon,
                log_p=est.log_p if usable else None,
                log_p_stderr=est.log_p_stderr if usable else None,
                b_hat=fit.b_hat,
                b_stderr=fit.stderr,
                intercept=fit.intercept,
            )
        )
    plot = ("horizon", ("log_p",), "survival decay", "T", "log p")
    return fields, rows, plot


def _cmd_negligible(args: argparse.Namespace):
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
    rows = [
        _estimate_row(
            row.estimate,
            n=row.n,
            interval=row.kind,
            neg_log_p_over_sqrt_n=row.normalized,
        )
        for row in negligible_interval_report(
            args.n_list,
            samples=args.samples,
            seed=args.seed,
            workers=args.workers,
            step=args.delta,
        )
    ]
    plot = ("n", ("neg_log_p_over_sqrt_n",), "edge-interval contribution",
            "n", "-log p / sqrt(n)")
    return fields, rows, plot


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
        rows.append(_estimate_row(est, players=players, no_equilibria=est.successes))
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
