import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import persistlab
from persistlab import __version__, engine
from persistlab.cli import main


def read_payload(path):
    """Data lines of a CSV output (comments stripped)."""
    with open(path, "rb") as fh:
        return b"\n".join(
            line for line in fh.read().split(b"\n") if not line.startswith(b"#")
        )


def parse_csv(path):
    with open(path) as fh:
        lines = [l.rstrip("\n") for l in fh if not l.startswith("#")]
    header = lines[0].split(",")
    rows = []
    for line in lines[1:]:
        if line:
            rows.append(dict(zip(header, line.split(","))))
    return rows


def test_mn_check(tmp_path):
    out = tmp_path / "mn.csv"
    assert main(["mn-check", "--n", "25", "--out", str(out)]) == 0
    rows = parse_csv(out)
    assert [float(r["x"]) for r in rows] == pytest.approx(
        [k / 10 for k in range(1, 10)]
    )
    for r in rows:
        assert float(r["legendre_rel_err"]) < 1e-9
    windowed = [r for r in rows if r["asymptotic_rel_err"]]
    assert windowed, "some grid points must fall in the closed-form window"
    for r in windowed:
        assert 25 ** (-1 / 6) < float(r["x"])


def test_persist_quarter(tmp_path):
    out = tmp_path / "p.csv"
    code = main(
        ["persist", "--n", "1", "--samples", "20000", "--seed", "7", "--out", str(out)]
    )
    assert code == 0
    (row,) = parse_csv(out)
    assert abs(float(row["p_hat"]) - 0.25) < 0.02
    assert float(row["ci_low"]) < 0.25 < float(row["ci_high"])


def test_persist_stdout(capsys):
    assert main(["persist", "--n", "0", "--samples", "2000", "--seed", "1"]) == 0
    text = capsys.readouterr().out
    assert "p_hat" in text
    assert "# command: persist" in text


def test_persist_rerun_payload_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["persist", "--n", "4", "--samples", "20000", "--seed", "3", "--workers", "2"]
    assert len(engine._blocks(3, 20_000)) >= 2  # two units cross the pool
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert read_payload(a) == read_payload(b)
    # the worker count changes neither the estimate nor the JSON config
    one = tmp_path / "one.csv"
    assert main(args[:-1] + ["1", "--out", str(one)]) == 0
    assert read_payload(one) == read_payload(a)
    one, two = tmp_path / "one.json", tmp_path / "two.json"
    assert main(args[:-1] + ["1", "--format", "json", "--out", str(one)]) == 0
    assert main(args + ["--format", "json", "--out", str(two)]) == 0
    assert one.read_bytes() == two.read_bytes()


def test_persist_json(tmp_path):
    out = tmp_path / "p.json"
    assert main(
        [
            "persist",
            "--n-list",
            "1,2",
            "--samples",
            "2000",
            "--format",
            "json",
            "--out",
            str(out),
        ]
    ) == 0
    payload = json.loads(out.read_text())
    assert payload["config"]["command"] == "persist"
    assert [r["n"] for r in payload["records"]] == [1, 2]


def test_gp_exponent(tmp_path):
    out = tmp_path / "gp.json"
    code = main(
        [
            "gp-exponent",
            "--horizons",
            "3,4,5,6,7",
            "--samples",
            "5000",
            "--seed",
            "11",
            "--format",
            "json",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    b_hat = payload["records"][0]["b_hat"]
    assert 0.2 < b_hat < 0.4
    assert payload["records"][0]["b_stderr"] > 0


def test_game_command(tmp_path):
    out = tmp_path / "g.csv"
    assert main(
        ["game", "--n-list", "2,3", "--samples", "4000", "--seed", "5", "--out", str(out)]
    ) == 0
    rows = parse_csv(out)
    two = next(r for r in rows if r["players"] == "2")
    assert float(two["ci_low"]) <= 0.5 <= float(two["ci_high"])


def test_b1_report(tmp_path):
    out = tmp_path / "b1.csv"
    assert main(["b1-report", "--n-list", "1000,10000", "--out", str(out)]) == 0
    rows = parse_csv(out)
    lags = {float(r["lag"]) for r in rows}
    assert lags == {0.5, 1.0, 2.0, 3.0}
    by_pair = {(r["n"], r["lag"]): float(r["sup_gap"]) for r in rows}
    assert by_pair[("10000", "1.0")] <= by_pair[("1000", "1.0")]


def test_negligible_command(tmp_path):
    out = tmp_path / "neg.csv"
    assert main(
        [
            "negligible",
            "--n-list",
            "36",
            "--samples",
            "4000",
            "--seed",
            "2",
            "--out",
            str(out),
        ]
    ) == 0
    rows = parse_csv(out)
    assert {r["interval"] for r in rows} == {"low", "high"}


def test_plot_emission(tmp_path):
    out = tmp_path / "mn.csv"
    assert main(["mn-check", "--n", "10", "--out", str(out), "--plot"]) == 0
    svg = (tmp_path / "mn.svg").read_text()
    assert svg.startswith("<svg")


def test_plot_requires_out():
    assert main(["mn-check", "--n", "10", "--plot"]) == 1


def test_usage_error_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["persist", "--interval", "everything"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


def test_missing_n_is_runtime_error(capsys):
    assert main(["persist", "--samples", "2000"]) == 1
    assert "error" in capsys.readouterr().err


_COLD_PATH = """
import sys
import persistlab.cli
from persistlab import games, gp, logscale, mc

def loaded(prefix):
    return sorted(m for m in sys.modules if (m + ".").startswith(prefix + "."))

for n, interval in ((144, mc.FULL_AXIS), (100, mc.LOW_INTERVAL)):
    mc.estimate_persistence(n, interval, 1000, seed=1)
gp.estimate_exponent(gp.DEFAULT_KERNEL, [3.0, 4.0, 5.0, 6.0], 0.25, 1000, 1)
for players in range(2, 6):
    games.prob_no_internal_equilibria(players, 1000, seed=1)
assert loaded("scipy") == [], loaded("scipy")
assert loaded("concurrent.futures") == [], loaded("concurrent.futures")

# 20000 games are two units (five blocks), so workers=2 starts the pool
pooled = games.prob_no_internal_equilibria(3, 20000, seed=2, workers=2)
assert loaded("concurrent.futures") != []
assert pooled == games.prob_no_internal_equilibria(3, 20000, seed=2)
mc.estimate_persistence_splitting(16, mc.LOW_INTERVAL, replicates=2, seed=1)
logscale.signed_log_sum([0.0, 1.0], [1.0, -1.0])
assert loaded("scipy.stats") == [], loaded("scipy.stats")
"""


def test_cold_path_loads_no_scipy():
    # scipy.special takes about 0.3 s to import and scipy.stats 0.7 s; the
    # import and the first estimate of each pipeline need neither, nor a
    # process pool.  Splitting and signed_log_sum may load scipy.special.
    src = str(Path(persistlab.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    subprocess.run([sys.executable, "-c", _COLD_PATH], env=env, check=True, timeout=120)


def test_traced_names_resolve():
    # the benchmark's tracer wraps module attributes by name; one that a
    # module stops importing would fail only the traced benchmark run
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [
        (module, attr)
        for module, attr, _ in spans.BOUNDARIES
        if not hasattr(importlib.import_module(module), attr)
    ]
    assert spans.BOUNDARIES and missing == []


def test_version_flag():
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


# every command's reproducibility header: the version and the options that
# change the output, never --workers, --format, --out or --plot
_HEADERS = [
    (
        ["mn-check", "--n", "25"],
        {"command": "mn-check", "n": 25, "seed": 0},
    ),
    (
        ["persist", "--n-list", "1,2", "--samples", "2000", "--seed", "3",
         "--interval", "low", "--delta", "0.125", "--workers", "2"],
        {"command": "persist", "n_list": "1,2", "samples": 2000, "seed": 3,
         "interval": "low", "delta": 0.125},
    ),
    (
        ["persist", "--n", "3", "--samples", "2000"],
        {"command": "persist", "n": 3, "samples": 2000, "seed": 0,
         "interval": "full", "delta": 0.25},
    ),
    (
        ["ratio", "--n-list", "1,4", "--samples", "2000", "--seed", "1",
         "--horizons", "3,4.5,6,7", "--workers", "2"],
        {"command": "ratio", "n_list": "1,4", "samples": 2000, "seed": 1,
         "delta": 0.25, "horizons": "3,4.5,6,7"},
    ),
    (
        ["gp-exponent", "--horizons", "3,4,5,6", "--samples", "2000",
         "--seed", "11"],
        {"command": "gp-exponent", "horizons": "3,4,5,6", "samples": 2000,
         "seed": 11, "delta": 0.25},
    ),
    (
        ["negligible", "--n-list", "4", "--seed", "2", "--delta", "0.2"],
        {"command": "negligible", "n_list": "4", "seed": 2, "delta": 0.2},
    ),
    (
        ["game", "--n", "3", "--samples", "100", "--seed", "5", "--workers", "2"],
        {"command": "game", "n": 3, "samples": 100, "seed": 5},
    ),
    (
        ["b1-report", "--n-list", "100"],
        {"command": "b1-report", "n_list": "100", "seed": 0},
    ),
]


@pytest.mark.parametrize(
    "args, expected",
    _HEADERS,
    ids=[f"{args[0]}-{k}" for k, (args, _) in enumerate(_HEADERS)],
)
def test_header_records_every_output_option(tmp_path, args, expected):
    expected = dict(expected, version=__version__)
    csv_out, json_out = tmp_path / "h.csv", tmp_path / "h.json"
    assert main(args + ["--out", str(csv_out), "--plot"]) == 0
    assert main(args + ["--format", "json", "--out", str(json_out)]) == 0
    comments = [
        line
        for line in csv_out.read_text().splitlines()
        if line.startswith("#") and not line.startswith("# generated: ")
    ]
    assert comments == [f"# {key}: {expected[key]}" for key in sorted(expected)]
    assert json.loads(json_out.read_text())["config"] == expected
