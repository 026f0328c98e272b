"""persistlab benchmark: one workload per process, end to end or traced.

Run from the repository root:

    python3 perfbench/run.py --workload game --seed 1 --seconds 31 --trace 0
    python3 perfbench/run.py --workload game --seed 1 --seconds 31 --trace 1
    python3 perfbench/selfcheck.py

Each workload is a closed loop with one caller: call i starts when call i-1
has returned, and is seeded with (seed, i).  --seconds is the length of the
whole run, set-up probes included.  Untraced runs (--trace 0) report the
end-to-end metrics (game's call timings scaled to the machine speed measured
in the same run, see speed.py); traced runs (--trace 1) wrap the calls the
package modules make into each other (see spans.py), write the spans under
perfbench/out/ and report per-layer metrics.  Every result is checked: per
call for shape and range, pooled over the run against the reference data
in references.json, and the first call is run twice and must give
a bit-identical result.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

from spans import LAYERS, Tracer, summarize
from speed import Speed

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETUP_REPEATS = 3  # fresh interpreters per run; setup_s is their median
THROUGHPUT_BLOCKS = 20  # samples_per_s is the median over this many blocks of calls
ALPHA = 1e-4  # two-sided false-failure rate of each pooled reference check
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


# ---------------------------------------------------------------- workloads


class Persist:
    """mc.estimate_persistence(n, interval) at a fixed number of polynomials."""

    unit = "polynomials"
    scaled = False
    min_size = 1000  # the smallest sample count estimate_persistence accepts

    def __init__(self, n, interval, workers, size, tail_pct, min_calls):
        self.n, self.interval, self.workers, self.size = n, interval, workers, size
        self.tail_pct, self.min_calls = tail_pct, min_calls

    def describe(self, size: int, workers: int) -> str:
        return (
            f"mc.estimate_persistence({self.n}, {self.interval!r}, {size}, "
            f"workers={workers})"
        )

    def call(self, seed: int, i: int, size: int, workers: int):
        from persistlab import mc

        return mc.estimate_persistence(
            self.n, self.interval, size, seed=(seed, i), workers=workers
        )

    def samples(self, result) -> int:
        return result.samples

    def check(self, result, size: int, ref: dict) -> str | None:
        error = _check_estimate(result, size)
        if error is None and ref["check"] == "zero" and result.successes != 0:
            error = f"{result.successes} successes where p is about 1e-10"
        return error

    def pooled(self, results: list, ref: dict) -> str:
        successes = sum(r.successes for _, r in results)
        samples = sum(r.samples for _, r in results)
        if ref["check"] == "zero":
            if successes:
                raise CheckFailed(f"{successes} successes in {samples} samples")
            return f"0 successes in {samples} samples"
        return two_sample(successes, samples, ref)


class Exponent:
    """gp.estimate_exponent over horizons 3..12 at grid step 0.25."""

    unit = "paths x horizons"
    workers = 1
    scaled = False
    min_size = 1000  # the smallest path count estimate_survival accepts
    horizons = tuple(float(t) for t in range(3, 13))
    step = 0.25

    def __init__(self, size, tail_pct, min_calls):
        self.size, self.tail_pct, self.min_calls = size, tail_pct, min_calls

    def describe(self, size: int, workers: int) -> str:
        return (
            f"gp.estimate_exponent(DEFAULT_KERNEL, horizons 3..12, step "
            f"{self.step}, {size} paths per horizon)"
        )

    def call(self, seed: int, i: int, size: int, workers: int):
        from persistlab import gp

        return gp.estimate_exponent(
            gp.DEFAULT_KERNEL, self.horizons, self.step, size, seed=(seed, i)
        )

    def samples(self, result) -> int:
        return sum(est.samples for _, est in result[1])

    def check(self, result, size: int, ref: dict) -> str | None:
        fit, estimates = result
        if [t for t, _ in estimates] != list(self.horizons):
            return "estimates do not cover the requested horizons"
        for _, est in estimates:
            error = _check_estimate(est, size)
            if error is not None:
                return error
        if not (math.isfinite(fit.b_hat) and fit.stderr > 0.0):
            return f"bad fit b={fit.b_hat} stderr={fit.stderr}"
        return None

    def pooled(self, results: list, ref: dict) -> str:
        from persistlab import gp

        points = []
        for k, horizon in enumerate(self.horizons):
            s = sum(r[1][k][1].successes for _, r in results)
            n = sum(r[1][k][1].samples for _, r in results)
            if s >= 10:
                p = s / n
                points.append((horizon, math.log(p), math.sqrt((1.0 - p) / (n * p))))
        fit = gp.fit_exponent(points)
        z = statistics.NormalDist().inv_cdf(1.0 - ALPHA / 2.0)
        lo, hi = ref["b"] - ref["halfwidth"], ref["b"] + ref["halfwidth"]
        detail = (
            f"pooled b = {fit.b_hat:.5f} +/- {fit.stderr:.5f} against "
            f"[{lo:.3f}, {hi:.3f}]"
        )
        if fit.b_hat + z * fit.stderr < lo or fit.b_hat - z * fit.stderr > hi:
            raise CheckFailed(detail)
        return detail


class Game:
    """games.prob_no_internal_equilibria for players 2, 3, 4 and 5, as one
    `game --n-list 2,3,4,5` command runs them; the four estimates are one call.

    Timing the four together keeps call durations unimodal: a median over
    calls of four different sizes would fall between two of them."""

    unit = "games"
    players = (2, 3, 4, 5)
    workers = 1
    scaled = True  # call timings scaled to the machine speed, see speed.py
    min_size = 1  # one game per player

    def __init__(self, size, tail_pct, min_calls):
        self.size, self.tail_pct, self.min_calls = size, tail_pct, min_calls

    def describe(self, size: int, workers: int) -> str:
        return (
            f"games.prob_no_internal_equilibria(players 2,3,4,5, {size} each, "
            f"workers={workers})"
        )

    def call(self, seed: int, i: int, size: int, workers: int):
        from persistlab import games

        return tuple(
            games.prob_no_internal_equilibria(
                players, size, seed=(seed, i, players), workers=workers
            )
            for players in self.players
        )

    def samples(self, result) -> int:
        return sum(est.samples for est in result)

    def check(self, result, size: int, ref: dict) -> str | None:
        for est in result:
            error = _check_estimate(est, size)
            if error is not None:
                return error
        return None

    def pooled(self, results: list, ref: dict) -> str:
        k = self.players.index(ref["players"])
        successes = sum(r[k].successes for _, r in results)
        samples = sum(r[k].samples for _, r in results)
        from scipy.stats import binomtest

        pvalue = binomtest(successes, samples, ref["p"]).pvalue
        detail = f"p({ref['players']}) = {successes}/{samples} against {ref['p']}: p-value {pvalue:.3g}"
        if pvalue < ALPHA:
            raise CheckFailed(detail)
        return detail


# Call sizes are those of real callers.  full-n144: 2 * 10^5 polynomials,
# between the CLI's persist default (10^5) and criterion 7's budget at this n
# (10^7).  low-n100: 5000, the budget criterion 8's auto_budget chose at this
# n.  edge-n10000: 10^4, the second pilot decade auto_budget runs at this n
# (10^3, 10^4, 10^5).  gp-exponent: 5 * 10^4 paths per horizon, a quarter of
# the CLI's gp-exponent default.  game: 10^4 games per player count, the CLI's
# game default.  At these sizes pool start-up, scanner and truncation set-up
# are a few percent of a call or less.
# A 31 s run then makes about 4 (edge-n10000) to 450 (low-n100) calls, so
# call_tail_s is a fixed percentile per workload: p90 where a run makes
# enough calls for ten of them to lie beyond it, p75 where it does not.  A
# percentile that moved with the call count would move whenever a change made
# calls faster.  min_calls keeps the statistics defined on a slow machine;
# for full-n144 it also keeps the pooled check able to reject a run with no
# successes (six calls, 1.2 * 10^6 samples).
# low-n100 is not one of BENCHMARK.json's workloads: its wall-clock timings
# spread 0.09-0.19 (IQR over median of ten runs) on a 2-vCPU VM, most of it
# between processes, and neither longer runs nor the reference kernel of
# speed.py narrowed that.  It stays here to be run by hand for its Sturm
# fallback tail and its traced split, and selfcheck.py still runs it.
WORKLOADS = {
    "full-n144": Persist(144, "full", 2, 200_000, tail_pct=75, min_calls=6),
    "low-n100": Persist(100, "low", 1, 5000, tail_pct=90, min_calls=100),
    "edge-n10000": Persist(10_000, "low", 1, 10_000, tail_pct=75, min_calls=3),
    "gp-exponent": Exponent(50_000, tail_pct=75, min_calls=4),
    "game": Game(10_000, tail_pct=75, min_calls=4),
}


# ---------------------------------------------------------------- checks


class CheckFailed(Exception):
    """A pooled result disagrees with its reference."""


def two_sample_pvalue(successes: int, samples: int, ref: dict) -> float:
    """Two-sided p-value of the hypothesis that the run and the reference
    draw from one rate: given the pooled count k, the run's share of it is
    Binomial(k, samples / (samples + reference samples)).

    scipy is imported here, not at the top: the set-up probes import this
    module, and set-up time is the package's own imports."""
    from scipy.stats import binomtest

    total = successes + ref["successes"]
    return binomtest(successes, total, samples / (samples + ref["samples"])).pvalue


def two_sample(successes: int, samples: int, ref: dict) -> str:
    pvalue = two_sample_pvalue(successes, samples, ref)
    detail = (
        f"pooled {successes}/{samples} against reference "
        f"{ref['successes']}/{ref['samples']}: two-sample p-value {pvalue:.3g}"
    )
    if pvalue < ALPHA:
        raise CheckFailed(detail)
    return detail


def _check_estimate(est, size: int) -> str | None:
    if est.samples != size:
        return f"{est.samples} samples, asked for {size}"
    if not 0 <= est.successes <= est.samples:
        return f"successes {est.successes} outside 0..{est.samples}"
    if est.p_hat != est.successes / est.samples:
        return f"p_hat {est.p_hat} is not successes / samples"
    if not est.ci_low <= est.p_hat <= est.ci_high:
        return f"p_hat {est.p_hat} outside its CI [{est.ci_low}, {est.ci_high}]"
    return None


# ---------------------------------------------------------------- calls


@dataclass
class Call:
    index: int
    start: float
    end: float
    samples: int
    result: object
    error: str | None

    @property
    def seconds(self) -> float:
        return self.end - self.start


def run_call(wl, seed: int, i: int, size: int, workers: int, ref: dict) -> Call:
    start = time.perf_counter()
    try:
        result = wl.call(seed, i, size, workers)
    except Exception as exc:  # a failed call is counted and the loop goes on
        end = time.perf_counter()
        traceback.print_exc(file=sys.stderr)
        return Call(i, start, end, 0, None, f"{type(exc).__name__}: {exc}")
    end = time.perf_counter()
    return Call(i, start, end, wl.samples(result), result, wl.check(result, size, ref))


def closed_loop(wl, seed, size, workers, ref, deadline, min_calls, speed):
    """Calls 0, 1, ... while the next call, at the median duration so far,
    ends before `deadline`, and at least `min_calls` of them.  A `speed`
    probe ticks before every call and once after the last."""
    calls: list[Call] = []
    while True:
        if speed is not None:
            speed.tick()
        if len(calls) >= min_calls:
            expected = statistics.median(c.seconds for c in calls)
            if time.perf_counter() + expected > deadline:
                return calls
        calls.append(run_call(wl, seed, len(calls), size, workers, ref))


def pooled_check(wl, calls: list[Call], ref: dict) -> str:
    """Checks the run's pooled result; a disagreement fails every call."""
    good = [(c.index, c.result) for c in calls if c.error is None]
    try:
        if not good:
            raise CheckFailed("no call returned a usable result")
        return "ok: " + wl.pooled(good, ref)
    except (CheckFailed, ValueError) as exc:
        for c in calls:
            c.error = c.error or f"pooled check failed: {exc}"
        return f"FAILED: {exc}"


# ---------------------------------------------------------------- metrics


def tail(durations: list[float], pct: int) -> tuple[float, int]:
    """Nearest-rank percentile of the call durations, and how many calls lie
    beyond it."""
    ordered = sorted(durations)
    rank = math.ceil(pct / 100.0 * len(ordered))
    return ordered[rank - 1], len(ordered) - rank


def block_throughput(samples: list[int], seconds: list[float]) -> tuple[float, int]:
    """Median over contiguous blocks of calls of samples per second the
    calls took (the reference kernel runs between calls, outside them).

    A rare slow call (the Sturm fallback of low-n100 takes seconds, one to
    four times a run) changes one block, not the median; the printed tail
    line reports it instead.
    """
    n = len(samples)
    blocks = min(THROUGHPUT_BLOCKS, n)
    rates = []
    for b in range(blocks):
        part = slice(b * n // blocks, (b + 1) * n // blocks)
        rates.append(sum(samples[part]) / sum(seconds[part]))
    return statistics.median(rates), blocks


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest worker it has waited for.

    Forked pool workers share the parent's pages, so summing every worker
    would count those pages several times."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers) / 1024.0


def setup_probe(name: str, seed: int) -> None:
    """Body of one set-up measurement: import, then one minimal call."""
    import_package()
    wl = WORKLOADS[name]
    wl.call(seed, 0, wl.min_size, wl.workers)
    print("done", flush=True)


def setup_seconds(name: str, seed: int) -> float:
    """Wall time from starting a fresh interpreter to its first result."""
    code = (
        f"import sys; sys.path.insert(0, {str(BENCH_DIR)!r}); import run; "
        f"run.setup_probe({name!r}, {seed})"
    )
    start = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, "-c", code], stdout=subprocess.PIPE, text=True
    ) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
    if proc.returncode != 0 or line.strip() != "done":
        raise RuntimeError(f"set-up probe exited with {proc.returncode}")
    return elapsed


# ---------------------------------------------------------------- environment


def import_package() -> None:
    """Put this checkout's src/ first on the path and import persistlab from it."""
    src = ROOT / "src"
    if not (src / "persistlab" / "__init__.py").is_file():
        raise SystemExit(f"error: no persistlab sources under {src}")
    sys.path.insert(0, str(src))
    import persistlab

    if Path(persistlab.__file__).resolve().parent != (src / "persistlab").resolve():
        raise SystemExit(f"error: imported persistlab from {persistlab.__file__}")


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _blas() -> str:
    import numpy

    try:
        info = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{info['name']} {info['version']}"
    except (TypeError, KeyError):
        return "unknown"


def machine_record(args) -> dict:
    import numpy
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "blas": _blas(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": _git_commit(),
    }


# ---------------------------------------------------------------- runs


def _line(name: str, value, unit: str, note: str = "") -> None:
    text = f"{value:.6g}" if isinstance(value, float) else str(value)
    print(f"  {name:<34} {text:>14} {unit:<10} {note}".rstrip())


def _report_failures(calls: list[Call]) -> int:
    failed = [c for c in calls if c.error is not None]
    for c in failed[:5]:
        print(f"  call {c.index} failed: {c.error}")
    return len(failed)


def run_untraced(args, wl, ref, deadline) -> tuple[bool, int, int, dict]:
    """The closed loop ends by `deadline`; the set-up probes run after it."""
    size = wl.min_size if args.minimal else wl.size
    first = run_call(wl, args.seed, 0, size, wl.workers, ref)  # cold; repeated below
    speed = Speed() if wl.scaled else None
    # Counts the Sturm fallback; it fires about once per 10^6 samples, so the
    # wrapper costs nothing measurable.
    with Tracer([("persistlab.mc", "count_roots_in", "roots.count_roots_in")]) as sturm:
        calls = closed_loop(
            wl, args.seed, size, wl.workers, ref, deadline, wl.min_calls, speed
        )
    if repr(first.result) != repr(calls[0].result):
        calls[0].error = calls[0].error or "call 0 is not bit-identical to its first run"
    pooled = pooled_check(wl, calls, ref)
    rss = peak_rss_mb()  # before the set-up probes, which are children too
    setups = [setup_seconds(args.workload, args.seed) for _ in range(SETUP_REPEATS)]

    counts = [c.samples for c in calls]
    wall = [c.seconds for c in calls]
    scale = speed.factors(len(calls)) if speed is not None else [1.0] * len(calls)
    durations = [d * f for d, f in zip(wall, scale)]
    rate, blocks = block_throughput(counts, durations)
    tail_s, beyond = tail(durations, wl.tail_pct)
    samples = sum(counts)
    slowest = max(calls, key=lambda c: c.seconds)
    sturm_s = [end - start for *_, start, end in sturm.spans]

    print(f"workload {args.workload}: {wl.describe(size, wl.workers)}")
    print(f"  {len(calls)} calls, {samples} {wl.unit}, seed {args.seed}")
    print(f"  check: {pooled}")
    if speed is not None:
        kernel_s = speed.samples()
        print(
            f"  speed: kernel {statistics.median(kernel_s) * 1e3:.3f} ms (median of "
            f"{len(kernel_s)}); call durations scaled by {min(scale):.3f} to "
            f"{max(scale):.3f}.  Wall clock: samples_per_s "
            f"{block_throughput(counts, wall)[0]:.6g}, call_p50_s "
            f"{statistics.median(wall):.6g}, call_tail_s {tail(wall, wl.tail_pct)[0]:.6g}"
        )
    failed = _report_failures(calls)
    metrics = {
        "samples_per_s": (rate, "1/s", f"median of {blocks} blocks of calls"),
        "call_p50_s": (statistics.median(durations), "s", f"{len(calls)} calls"),
        "call_tail_s": (
            tail_s,
            "s",
            f"p{wl.tail_pct} of {len(calls)} calls, {beyond} beyond",
        ),
        "setup_s": (
            statistics.median(setups),
            "s",
            "median of " + ", ".join(f"{s:.3f}" for s in setups),
        ),
        "peak_rss_mb": (rss, "MB", "this process plus its largest worker"),
    }
    for name, (value, unit, note) in metrics.items():
        _line(name, value, unit, note)
    _line("error_frac", failed / len(calls), "frac", f"{failed} failed of {len(calls)}")
    print(
        f"  tail: slowest call {slowest.seconds:.3f} s (call {slowest.index}); "
        f"roots.count_roots_in.calls {len(sturm_s)}"
        + (f", slowest {max(sturm_s):.3f} s" if sturm_s else "")
    )
    result = {name: {"value": v, "unit": u} for name, (v, u, _) in metrics.items()}
    return failed == 0, len(calls), failed, result


def run_traced(args, wl, ref, deadline) -> tuple[bool, int, int, dict]:
    """Each call runs traced at workers=1 and at once again untraced: the
    results must agree, and the wall-time difference is the trace overhead.
    A pooled workload also runs each call at its own worker count.  Running
    the variants of one call back to back keeps a drift in machine speed out
    of their ratios; call 0 warms up and is left out of them.  Calls go on
    while the next round, as long as the last one, ends before `deadline`."""
    size = wl.min_size if args.minimal else wl.size
    tracer = Tracer()
    traced, replay, pool = [], [], []
    round_s = 0.0
    while len(traced) < 2 or time.perf_counter() + round_s < deadline:
        start = time.perf_counter()
        i = tracer.call_id = len(traced)
        with tracer:
            traced.append(run_call(wl, args.seed, i, size, 1, ref))
        replay.append(run_call(wl, args.seed, i, size, 1, ref))
        if wl.workers > 1:
            pool.append(run_call(wl, args.seed, i, size, wl.workers, ref))
        round_s = time.perf_counter() - start
    replay, pool = replay[1:], pool[1:]
    agree = 0
    for t, u in zip(traced[1:], replay):
        if repr(t.result) == repr(u.result):
            agree += 1
        else:
            t.error = t.error or "traced and untraced results differ"
    for t, p in zip(traced[1:], pool):
        if p.error is not None:
            t.error = t.error or f"workers={wl.workers}: {p.error}"
    pooled = pooled_check(wl, traced, ref)

    traced_wall = sum(c.seconds for c in traced[1:])
    replay_wall = sum(c.seconds for c in replay)
    speedup = replay_wall / sum(c.seconds for c in pool) if pool else 0.0

    out = BENCH_DIR / "out"
    out.mkdir(exist_ok=True)
    spans_path = out / f"spans-{args.workload}-seed{args.seed}.csv"
    tracer.write(spans_path, json.dumps(machine_record(args)))

    samples = sum(c.samples for c in traced)
    per = 1e6 / samples
    by_name, layer_self = summarize(tracer.spans)

    def calls_of(name):
        return by_name.get(name, (0, 0.0))[0]

    def secs_of(name):
        return by_name.get(name, (0, 0.0))[1]

    escalations = calls_of("polys.BinomialPolynomial")
    uses_mc = calls_of("mc.estimate_persistence") > 0
    count, secs, frac = "1/Msample", "s/Msample", "frac"
    metrics = {
        "mc.escalations": (escalations * per, count),
        "mc.scan_decided_frac": (1.0 - escalations / samples if uses_mc else 0.0, frac),
        "mc.pool_speedup": (speedup, "ratio"),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (layer_self[layer] * per, secs)
    for name in (
        "roots.is_persistent",
        "roots.count_roots_in",
        "roots.no_positive_roots",
        "polys.eval_f",
        "kernel.mn_exact",
    ):
        metrics[f"{name}.calls"] = (calls_of(name) * per, count)
        metrics[f"{name}.s"] = (secs_of(name) * per, secs)
    metrics["roots.count_positive_roots.calls"] = (
        calls_of("roots.count_positive_roots") * per,
        count,
    )
    for name in ("logscale.log_binomial_row", "gp.estimate_survival", "gp.required_truncation"):
        metrics[f"{name}.s"] = (secs_of(name) * per, secs)
    wall = sum(c.seconds for c in traced)
    metrics["trace.overhead_frac"] = ((traced_wall - replay_wall) / replay_wall, frac)

    print(f"workload {args.workload} (traced): {wl.describe(size, 1)}")
    print(
        f"  {len(traced)} traced calls, {samples} {wl.unit}, {len(tracer.spans)} spans "
        f"written to {spans_path.relative_to(ROOT)}"
    )
    print(f"  check: {pooled}")
    print(f"  replay: {agree} of {len(replay)} untraced calls match the traced results")
    failed = _report_failures(traced)
    print("  self time by layer, share of traced wall time:")
    for layer in LAYERS:
        print(f"    {layer:<9} {layer_self[layer] / wall:7.1%}")
    for name, (value, unit) in metrics.items():
        _line(name, value, unit)
    result = {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}
    return failed == 0, len(traced), failed, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument(
        "--minimal",
        action="store_true",
        help="use the smallest legal call size (for selfcheck.py)",
    )
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be nonnegative and --seconds positive")

    refs = json.loads((BENCH_DIR / "references.json").read_text())
    started = time.perf_counter()
    deadline = started + args.seconds
    import_package()
    import_s = time.perf_counter() - started
    print(f"import persistlab: {import_s:.3f} s")
    print("machine:", json.dumps(machine_record(args)))
    wl, ref = WORKLOADS[args.workload], refs[args.workload]
    if args.trace:
        outcome = run_traced(args, wl, ref, deadline)
    else:
        # The set-up probes run after the loop (a probe before it would count
        # in peak_rss_mb); each takes about an import and a small call.
        probes_s = SETUP_REPEATS * 1.2 * (import_s + 0.4)
        outcome = run_untraced(args, wl, ref, deadline - probes_s)
    correct, attempted, failed, metrics = outcome
    print(
        json.dumps(
            {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
