"""Self-check of the benchmark at the smallest legal call size.

Run from the repository root:

    python3 perfbench/selfcheck.py

For every workload of run.py (those of BENCHMARK.json and low-n100, which
is run by hand only) it runs run.py once untraced and once traced, each with
--minimal for one second, and checks that

* the last line is a JSON object with exactly the keys correct, attempted,
  failed and metrics, every call passed its checks, and the metrics are the
  end-to-end (untraced) or per-layer (traced) ones of BENCHMARK.json, each
  with its unit;
* the untraced run prints error_frac with its unit;
* in the traced run, replaying the traced calls untraced gave the same
  results for every call.

It also feeds the pooled reference checks made-up counts at the fewest
samples a run makes: a run with no successes, or with half or twice the
reference rate where the run sees enough successes to tell, must fail, and a
run at the reference rate must pass.  For full-n144 it prints the chance that
the check rejects a rate of p/2, p/4 or 2p.

Last, it copies BENCHMARK.json and perfbench/ into a directory without the
package sources and checks that run.py fails there without a result line.
Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import run as bench  # noqa: E402


def run(args: list[str], cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=180,
    )


def check_run(workload: str, trace: int, expected: dict[str, str]) -> list[str]:
    proc = run(
        ["--workload", workload, "--seed", "1", "--seconds", "1", "--trace", str(trace), "--minimal"],
        ROOT,
    )
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit code {proc.returncode}\n{proc.stderr[-2000:]}"]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
        problems.append(f"{where}: correct={result['correct']} failed={result['failed']}")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected:
        problems.append(f"{where}: metrics {got} differ from BENCHMARK.json {expected}")
    text = "\n".join(lines[:-1])
    if trace == 0 and not re.search(r"^\s+error_frac\s+\S+ frac\b", text, re.M):
        problems.append(f"{where}: no error_frac line with its unit")
    if trace == 1:
        replay = re.search(r"replay: (\d+) of (\d+) untraced calls match", text)
        if not replay or replay.group(1) != replay.group(2) or replay.group(2) == "0":
            problems.append(f"{where}: traced and untraced results disagree or were not compared")
    print(f"{where}: {'ok' if not problems else 'FAILED'} ({result['attempted']} calls)")
    return problems


def _fails(check, *args) -> bool:
    try:
        check(*args)
    except bench.CheckFailed:
        return True
    return False


def _rejection_chance(samples: int, p: float, ref: dict) -> float:
    """Chance that the two-sample check fails a run of `samples` at rate p."""
    from scipy.stats import binom

    mean = samples * p
    hi = int(mean + 12.0 * mean**0.5 + 20)
    return sum(
        binom.pmf(s, samples, p)
        for s in range(hi + 1)
        if bench.two_sample_pvalue(s, samples, ref) < bench.ALPHA
    )


def check_reference_tests() -> list[str]:
    refs = json.loads((BENCH_DIR / "references.json").read_text())
    problems = []
    for name in ("full-n144", "low-n100"):
        wl, ref = bench.WORKLOADS[name], refs[name]
        samples = wl.min_calls * wl.size
        p = ref["successes"] / ref["samples"]
        cases = {"no successes": (0, True), "reference rate": (round(samples * p), False)}
        if name == "low-n100":
            cases["half the rate"] = (round(samples * p / 2), True)
            cases["twice the rate"] = (round(samples * p * 2), True)
        for label, (successes, should_fail) in cases.items():
            if _fails(bench.two_sample, successes, samples, ref) != should_fail:
                problems.append(f"{name}: {label} ({successes}/{samples}) not judged right")
        if name == "full-n144":
            chances = ", ".join(
                f"{f:g}p {_rejection_chance(samples, p * f, ref):.3f}" for f in (0.5, 0.25, 2.0)
            )
            print(f"{name} pooled check at {samples} samples rejects: {chances}")
    game, ref = bench.WORKLOADS["game"], refs["game"]
    samples = game.min_calls * game.size
    for label, successes, should_fail in (
        ("p = 1/2", samples // 2, False),
        ("p = 0.48", round(0.48 * samples), True),
    ):
        est = type("Est", (), {"successes": successes, "samples": samples})
        result = tuple(est if k == 2 else None for k in game.players)
        if _fails(game.pooled, [(0, result)], ref) != should_fail:
            problems.append(f"game: {label} not judged right")
    print(f"reference checks on made-up counts: {'ok' if not problems else 'FAILED'}")
    return problems


def check_without_sources() -> list[str]:
    bare = BENCH_DIR / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(
            BENCH_DIR, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__")
        )
        proc = run(["--workload", "game", "--seed", "1", "--seconds", "1", "--trace", "0"], bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    printed_result = '"correct"' in proc.stdout
    ok = proc.returncode != 0 and not printed_result
    print(f"without sources: {'ok' if ok else 'FAILED'} (exit code {proc.returncode})")
    return [] if ok else ["run.py succeeded or printed a result without the sources"]


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    listed = {w["name"] for w in spec["workloads"]}
    if not listed <= set(bench.WORKLOADS):
        problems.append(f"BENCHMARK.json names workloads run.py lacks: {sorted(listed)}")
    for workload in bench.WORKLOADS:
        for trace in (0, 1):
            problems += check_run(workload, trace, units[trace])
    problems += check_reference_tests()
    problems += check_without_sources()
    for p in problems:
        print("problem:", p)
    print("selfcheck:", "FAILED" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
