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


@pytest.mark.parametrize("command", ["persist", "game"])
def test_n_and_n_list_are_exclusive_and_required(tmp_path, capsys, command):
    out = tmp_path / "t.csv"
    for ns in ([], ["--n", "3", "--n-list", "1,2"]):
        with pytest.raises(SystemExit) as exc:
            main([command, *ns, "--samples", "1000", "--out", str(out)])
        assert exc.value.code == 2
        assert "--n" in capsys.readouterr().err
        assert not out.exists()


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
        {"command": "mn-check", "n": 25},
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
        {"command": "b1-report", "n_list": "100"},
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


# every command's payload at the header sizes above, and a ratio run whose
# n = 144 falls below the success floor.  Counts, p_hat and the Wilson
# bounds come from the counts by IEEE-exact operations and are pinned
# exactly; every other float passes through log or exp, which may move by an
# ulp between libm builds, and is compared to 1e-12 relative
_EXACT = {"x", "n", "interval", "horizon", "players", "lag", "samples",
          "successes", "no_equilibria", "p_hat", "ci_low", "ci_high"}
_PAYLOADS = [
    (
        ["mn-check", "--n", "25"],
        """\
x,log_exact,log_legendre,log_asymptotic,legendre_rel_err,asymptotic_rel_err
0.1,3.155139161909237,3.155139161909237,,0.0,
0.2,7.231634946685087,7.2316349466851015,,1.4210854715202105e-14,
0.3,11.106856566593244,11.10685656659325,,5.3290705182007656e-15,
0.4,14.740598221934087,14.740598221934096,,8.881784197001292e-15,
0.5,18.146626811277557,18.146626811277564,,7.105427357601027e-15,
0.6,21.34633042462334,21.346330424623343,21.350647867496765,3.552713678800507e-15,0.004326776457479163
0.7,24.360757013992792,24.3607570139928,24.36542824022131,7.105427357601027e-15,0.004682153413581794
0.8,27.208869602212246,27.208869602212246,27.21374164974643,0.0,0.004883935255780355
0.9,29.907307097915425,29.907307097915435,29.9122784167023,1.065814103640156e-14,0.004983696294461125
""",
    ),
    (
        ["persist", "--n-list", "1,2", "--samples", "2000", "--seed", "3",
         "--interval", "low", "--delta", "0.125"],
        """\
n,interval,samples,successes,p_hat,ci_low,ci_high,ratio
1,low,2000,753,0.3765,0.3555216996238141,0.39795181105465527,0.31093694805594524
2,low,2000,650,0.325,0.304825368785213,0.3458455977632255,0.2529731510590471
""",
    ),
    (
        ["ratio", "--n-list", "1,4", "--samples", "2000", "--seed", "1",
         "--horizons", "3,4.5,6,7"],
        """\
n,samples,successes,p_hat,ratio,ratio_ci_low,ratio_ci_high,b_hat,b_stderr,gap
1,2000,513,0.2565,0.43310090275916907,0.4096703322591711,0.4571422740152768,0.2962407285694268,0.001981871342798254,0.13686017418974228
4,2000,188,0.094,0.3763155757972541,0.35484000817136896,0.3980965438011942,0.2962407285694268,0.001981871342798254,0.08007484722782732
""",
    ),
    (
        ["ratio", "--n-list", "1,144", "--samples", "2000", "--seed", "2",
         "--horizons", "3,4,5,6"],
        """\
n,samples,successes,p_hat,ratio,ratio_ci_low,ratio_ci_high,b_hat,b_stderr,gap
1,2000,473,0.2365,0.4589414446849577,0.4341982113810812,0.48429547874494405,0.2986631882645521,0.0024950909391341005,0.16027825642040555
144,2000,0,0.0,,,,0.2986631882645521,0.0024950909391341005,
""",
    ),
    (
        ["gp-exponent", "--horizons", "3,4,5,6", "--samples", "2000",
         "--seed", "11"],
        """\
horizon,samples,successes,p_hat,ci_low,ci_high,log_p,log_p_stderr,b_hat,b_stderr,intercept
3.0,2000,416,0.208,0.19078001256254865,0.22633954304970297,-1.5702171992808192,0.04363308554120547,0.2585089391783351,0.024832127654922074,-0.7918397613296595
4.0,2000,320,0.16,0.14458705229539107,0.17671653985586086,-1.8325814637483102,0.05123475382979799,0.2585089391783351,0.024832127654922074,-0.7918397613296595
5.0,2000,257,0.1285,0.11454272443866984,0.14388164169130105,-2.0518263746468626,0.05823272777105317,0.2585089391783351,0.024832127654922074,-0.7918397613296595
6.0,2000,187,0.0935,0.08150853615947415,0.10705002328018448,-2.369793842687496,0.06962466217431651,0.2585089391783351,0.024832127654922074,-0.7918397613296595
""",
    ),
    (
        ["negligible", "--n-list", "4", "--seed", "2", "--delta", "0.2"],
        """\
n,interval,samples,successes,p_hat,ci_low,ci_high,neg_log_p_over_sqrt_n
4,low,1000,260,0.26,0.23376861850763092,0.2880682255654355,0.6735368239833046
4,high,1000,271,0.271,0.2443667197375407,0.2993859356488436,0.652818229051218
""",
    ),
    (
        ["game", "--n", "3", "--samples", "100", "--seed", "5"],
        """\
players,samples,no_equilibria,p_hat,ci_low,ci_high
3,100,43,0.43,0.33733298524110106,0.5278461045078768
""",
    ),
    (
        ["b1-report", "--n-list", "100"],
        """\
n,lag,sup_gap
100,0.5,0.00030164707011448577
100,1.0,0.001060656522819503
100,2.0,0.0024600405436892014
100,3.0,0.00207102422553411
""",
    ),
]


@pytest.mark.parametrize(
    "args, expected",
    _PAYLOADS,
    ids=[f"{args[0]}-{k}" for k, (args, _) in enumerate(_PAYLOADS)],
)
def test_payload_is_pinned(tmp_path, args, expected):
    out = tmp_path / "p.csv"
    assert main(args + ["--out", str(out)]) == 0
    got = read_payload(out).decode().splitlines()
    want = expected.splitlines()
    assert got[0] == want[0] and len(got) == len(want)
    columns = want[0].split(",")
    for got_line, want_line in zip(got[1:], want[1:]):
        for column, g, w in zip(columns, got_line.split(","), want_line.split(",")):
            if column in _EXACT or not w:
                assert g == w, (column, want_line)
            else:
                # the kernel routes' relative errors are ulp-sized differences
                assert float(g) == pytest.approx(float(w), rel=1e-12, abs=1e-13), (
                    column,
                    want_line,
                )
