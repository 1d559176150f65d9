"""End-to-end command-line behavior: exit codes, wire formats, determinism."""

import json
import operator
import re
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest

from zqgeom import _census, cli, harness
from zqgeom.ring import Modulus


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "zqgeom", *args], capture_output=True, text=True
    )


def test_verify_lemmas_writes_json_and_exits_clean(tmp_path):
    out = tmp_path / "rep.json"
    res = run_cli("verify-lemmas", "--p", "3", "--l", "2", "--out", str(out))
    assert res.returncode == 0
    rep = json.loads(out.read_text())
    assert rep["schema"] == 1
    assert rep["kind"] == "lemmas"
    assert rep["aggregate"]["failed"] == 0


def test_verify_lemmas_csv_to_stdout():
    res = run_cli("verify-lemmas", "--p", "3", "--l", "1", "--format", "csv")
    assert res.returncode == 0
    assert res.stdout.splitlines()[0] == "trial,set_size,statistic,bound,pass"


def test_experiment_pass_and_fail_exit_codes():
    ok = run_cli("experiment", "--kind", "t2", "--p", "3", "--l", "1", "--set", "full")
    assert ok.returncode == 0
    # two points span no triangles, so the area statistic is 0 < 2
    bad = run_cli(
        "experiment", "--kind", "v2", "--p", "3", "--l", "2",
        "--set", "random:2", "--seed", "0",
    )
    assert bad.returncode == 1


def test_experiment_t2_full_csv_golden():
    res = run_cli(
        "experiment", "--kind", "t2", "--p", "3", "--l", "1",
        "--set", "full", "--format", "csv",
    )
    assert res.returncode == 0
    assert res.stdout == "trial,set_size,statistic,bound,pass\n0,9,21,14,true\n"


@pytest.mark.parametrize(
    "args",
    [
        ("experiment", "--kind", "bogus", "--p", "3", "--l", "1", "--set", "full"),
        ("experiment", "--kind", "t2", "--p", "3", "--l", "2", "--set", "random:99999"),
        ("experiment", "--kind", "t2", "--p", "3", "--l", "1", "--set", "nope:1"),
        ("experiment", "--kind", "t2", "--p", "3", "--l", "1", "--set", "random:1_0"),
        ("verify-lemmas", "--p", "4", "--l", "1"),
        ("verify-lemmas", "--p", "1009", "--l", "1"),
        ("gen-set", "--p", "3", "--l", "1", "--d", "2", "--size", "10", "--full"),
        ("nonsense",),
        (),
    ],
)
def test_usage_and_config_errors_exit_2(args):
    res = run_cli(*args)
    assert res.returncode == 2
    assert res.stderr != ""


@pytest.mark.parametrize(
    "args, prog",
    [
        (("experiment", "--kind", "t2", "--p", "3", "--l", "1", "--set", "full", "--bogus", "1"),
         "zqgeom experiment"),
        (("verify-lemmas", "--p", "3", "--l", "1", "--bogus", "1"), "zqgeom verify-lemmas"),
        (("gen-set", "--p", "3", "--l", "1", "--full", "--bogus", "1"), "zqgeom gen-set"),
        (("--bogus", "1"), "zqgeom"),
    ],
)
def test_unrecognized_arguments_are_reported_by_the_parser_that_read_them(capsys, args, prog):
    # a subcommand is parsed by its own parser, which names itself in the error
    code, out, err = _in_process(capsys, list(args))
    assert (code, out) == (2, "")
    if prog == "zqgeom":  # no command: the top-level parser reads "1" as one
        assert err.endswith("zqgeom: error: argument command: invalid choice: '1' (choose from "
                            "'verify-lemmas', 'experiment', 'gen-set')\n")
    else:
        assert err.endswith(f"{prog}: error: unrecognized arguments: --bogus 1\n")


def test_product_source_above_the_cap_exits_2(tmp_path):
    # the c in Z_3^9 with 9 not dividing c: 2 v(c) <= 2 < 9, so no product is 0,
    # A.A never holds all of Z_q, and its 17496**2 products are refused up front
    base = tmp_path / "base.txt"
    base.write_text("q=19683 d=1\n" + "".join(f"{c}\n" for c in range(19683) if c % 9))
    run = ("experiment", "--kind", "dotprod", "--p", "3", "--l", "9", "--d", "2")
    res = run_cli(*run, "--set", f"product:{base}")
    assert res.returncode == 2
    assert "Traceback" not in res.stderr
    spent, more = map(int, re.search(
        r"dot products of A\^2 with \|A\| = 17496: (\d+) operations spent, and (\d+) more "
        f"would pass the {_census._OP_CAP}-operation budget", res.stderr).groups())
    assert (spent, more) == (0, 17496**2) == (0, 306110016)
    # the whole of Z_3^9 as A: A.A is all of Z_q within the first block of products
    whole = tmp_path / "whole.txt"
    whole.write_text("q=19683 d=1\n" + "".join(f"{c}\n" for c in range(19683)))
    res = run_cli(*run, "--set", f"product:{whole}", "--format", "csv")
    assert res.returncode == 0
    assert res.stdout.splitlines()[1] == f"0,{19683**2},19683,9841.5,true"


def test_product_source_beyond_the_point_cap_runs_as_a_sumset(tmp_path):
    # Z_9^12 has 9**12 points, far past FULL_GRID_CAP, but A.A sums stay cheap
    base = tmp_path / "base.txt"
    base.write_text("q=9 d=1\n" + "".join(f"{c}\n" for c in range(9)))
    res = run_cli(
        "experiment", "--kind", "dotprod", "--p", "3", "--l", "2", "--d", "12",
        "--set", f"product:{base}", "--format", "csv",
    )
    assert res.returncode == 0
    assert res.stdout.splitlines()[1] == f"0,{9**12},9,4.5,true"


def test_product_source_past_sys_maxsize_reports_its_exact_size(tmp_path):
    # 3**40 >= 2**63, so len() of the set would overflow
    base = tmp_path / "base.txt"
    base.write_text("q=3 d=1\n0\n1\n2\n")
    argv = ("experiment", "--kind", "dotprod", "--p", "3", "--l", "1", "--d", "40",
            "--set", f"product:{base}")
    csv = run_cli(*argv, "--format", "csv")
    assert csv.returncode == 0, csv.stderr
    assert csv.stdout.splitlines()[1] == "0,12157665459056928801,3,1.5,true"
    (trial,) = json.loads(run_cli(*argv).stdout)["trials"]
    assert trial["set_size"] == 3**40 and trial["statistic"] == 3


def test_t2_census_past_the_op_cap_is_refused_before_counting():
    # 2000 points in Z_997^2 are far below the covering size, and 2000**3 > _OP_CAP
    start = time.perf_counter()
    res = subprocess.run(
        [sys.executable, "-m", "zqgeom", "experiment", "--kind", "t2",
         "--p", "997", "--l", "1", "--set", "random:2000"],
        capture_output=True, text=True, timeout=30,
    )
    assert time.perf_counter() - start < 8
    assert res.returncode == 2
    assert "Traceback" not in res.stderr
    assert "n = 2000" in res.stderr and str(2000**3) in res.stderr
    assert str(_census._OP_CAP) in res.stderr


_HUGE_P = str(2**61 - 1)


@pytest.mark.parametrize(
    "argv",
    [
        ["verify-lemmas", "--p", _HUGE_P, "--l", "1"],
        ["experiment", "--kind", "t2", "--p", _HUGE_P, "--l", "1", "--set", "random:5"],
        ["gen-set", "--p", _HUGE_P, "--l", "1", "--size", "3"],
        ["verify-lemmas", "--p", "3", "--l", "100000000"],
        ["experiment", "--kind", "dotprod", "--p", "3", "--l", "2", "--d", "3000000",
         "--set", "full"],
        ["experiment", "--kind", "dotprod", "--p", "3", "--l", "1", "--d", "100000000",
         "--set", "random:5"],
        ["gen-set", "--p", "3", "--l", "1", "--d", "100000000", "--full"],
        ["gen-set", "--p", "3", "--l", "1", "--d", "100000000", "--size", "5"],
    ],
    ids=["lemmas-p", "experiment-p", "gen-set-p", "lemmas-l", "dotprod-threshold-d",
         "random-d", "gen-set-full-d", "gen-set-size-d"],
)
def test_out_of_range_p_l_and_d_are_refused_at_once(capsys, argv):
    # each was refused only after a trial division to sqrt(p), a power p**l
    # or q**d, or an exact root with millions of digits
    start = time.perf_counter()
    assert cli.main(argv) == 2
    assert time.perf_counter() - start < 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and ("cap" in err or "digits" in err)


@pytest.mark.parametrize(
    "residues, p, l, d, code",
    [((1, 2), 3, 2, 6000, 0), ((1, 2), 3, 2, 6100, 2),
     (range(11), 11, 1, 4000, 0), (range(11), 11, 1, 5000, 2)],
    ids=["threshold-below", "threshold-past", "size-below", "size-past"],
)
def test_product_runs_past_the_integer_string_limit_exit_2(capsys, tmp_path, residues, p, l,
                                                           d, code):
    # at Z_9, d = 6100 puts the threshold 3**(9151/2) past 4300 digits; at
    # Z_11 with all of Z_11 as A, d = 5000 does so for the set size 11**5000
    base = tmp_path / "base.txt"
    base.write_text(f"q={p**l} d=1\n" + "".join(f"{c}\n" for c in residues))
    argv = ["experiment", "--kind", "dotprod", "--p", str(p), "--l", str(l), "--d", str(d),
            "--set", f"product:{base}"]
    assert cli.main(argv) == code
    if code == 2:
        err = capsys.readouterr().err
        assert f"d = {d}" in err and f"{sys.get_int_max_str_digits()} decimal digits" in err


def test_trials_past_the_byte_budget_exit_2_before_any_trial():
    # 10**9 trials at _TRIAL_BYTES each pass the budget; under the address
    # space limit, a run that allocated the records could not get this far
    res = run_cli_limited(
        "experiment", "--kind", "t2", "--p", "3", "--l", "1", "--set", "full",
        "--trials", "1000000000",
    )
    assert res.returncode == 2 and res.stdout == ""
    assert res.stderr == (f"error: 1000000000 trials would hold about "
                          f"{10**9 * harness._TRIAL_BYTES} bytes of records, past the "
                          f"{_census._CENSUS_BYTES}-byte budget\n")


# the CSV rows of dotprod over the full grid, as the row-block scan of the listed grid
# gave them before the full grid was read as the product of A = Z_q
_FULL_GRID_DOTPROD = {
    (3, 1, 2): "0,9,3,1.5,true",
    (3, 1, 3): "0,27,3,1.5,true",
    (3, 1, 4): "0,81,3,1.5,true",
    (3, 2, 2): "0,81,9,4.5,true",
}


@pytest.mark.parametrize("p, l, d", list(_FULL_GRID_DOTPROD), ids=str)
def test_dotprod_over_the_full_grid_meets_the_hypothesis(capsys, tmp_path, p, l, d):
    grid = ["--p", str(p), "--l", str(l), "--d", str(d)]
    run = ["experiment", "--kind", "dotprod", *grid]
    assert cli.main([*run, "--set", "full", "--format", "csv"]) == 0
    csv = capsys.readouterr().out
    assert csv == f"trial,set_size,statistic,bound,pass\n{_FULL_GRID_DOTPROD[p, l, d]}\n"
    assert cli.main([*run, "--set", "full"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["aggregate"]["all_meet_hypothesis"] is True
    assert report["trials"][0]["meets_threshold"] is True
    # the same points from a file form a listed set: the same statistic, by the scan,
    # but no product, so the hypothesis is not met
    path = tmp_path / "grid.txt"
    assert cli.main(["gen-set", *grid, "--full", "--out", str(path)]) == 0
    assert cli.main([*run, "--set", f"file:{path}"]) == 0
    listed = json.loads(capsys.readouterr().out)
    assert listed["trials"][0]["statistic"] == report["trials"][0]["statistic"]
    assert listed["aggregate"]["all_meet_hypothesis"] is False


def test_set_files_past_the_point_cap_exit_2(capsys, monkeypatch, tmp_path):
    monkeypatch.setattr(harness, "FULL_GRID_CAP", 3)
    path = tmp_path / "set.txt"
    path.write_text("q=9 d=2\n0,0\n0,1\n0,2\n")
    run = ["experiment", "--kind", "v2", "--p", "3", "--l", "2", "--set", f"file:{path}"]
    assert _in_process(capsys, run)[0] == 1
    path.write_text("q=9 d=2\n0,0\n0,1\n0,2\n0,3\n")
    assert _in_process(capsys, run) == (
        2, "", "error: line 5: the set file lists more than the 3-point cap\n")


_INTEGER_OPTIONS = [
    ("experiment", opt) for opt in ("--p", "--l", "--d", "--trials", "--seed")
] + [("gen-set", opt) for opt in ("--p", "--l", "--d", "--size", "--seed", "--trial")]


@pytest.mark.parametrize("token", ["1_0", "\u0661\u0662", " 7", "7 "])
@pytest.mark.parametrize("command, option", _INTEGER_OPTIONS)
def test_integer_options_refuse_what_set_files_refuse(capsys, command, option, token):
    args = {"--p": "3", "--l": "1", "--d": "2", option: token}
    if command == "experiment":
        argv = ["experiment", "--kind", "dotprod", "--set", "random:3"]
    else:
        argv = ["gen-set"] + ([] if option == "--size" else ["--size", "3"])
    for key, value in args.items():
        argv += [key, value]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert f"{token!r} is not a decimal integer" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text",
    [
        "q=27 q=9 d=2\n1,2\n",  # a header key set twice
        "q=9 d=0_2\n1,2\n",     # underscore in a header integer
        "q=9 d=2\n0_1,2\n",     # underscore in a residue
        "q=9 d=2\n\u0661,2\n",   # a non-ASCII digit
    ],
    ids=["duplicate-key", "header-underscore", "row-underscore", "non-ascii-digit"],
)
def test_lenient_pointset_files_exit_2(tmp_path, text):
    path = tmp_path / "set.txt"
    path.write_text(text, encoding="utf-8")
    res = run_cli(
        "experiment", "--kind", "t2", "--p", "3", "--l", "2", "--set", f"file:{path}",
    )
    assert res.returncode == 2
    assert res.stderr.startswith("error: line ")
    assert "Traceback" not in res.stderr


def test_gen_set_then_feed_back_as_product(tmp_path):
    out = tmp_path / "base.txt"
    res = run_cli(
        "gen-set", "--p", "3", "--l", "2", "--d", "1",
        "--size", "7", "--seed", "3", "--out", str(out),
    )
    assert res.returncode == 0
    text = out.read_text()
    assert text.startswith("q=9 d=1\n")
    assert len(text.strip().splitlines()) == 8
    fed = run_cli(
        "experiment", "--kind", "dotprod", "--p", "3", "--l", "2",
        "--set", f"product:{out}", "--format", "csv",
    )
    assert fed.returncode == 0
    lines = fed.stdout.splitlines()
    assert lines[0] == "trial,set_size,statistic,bound,pass"
    assert lines[1].split(",")[1] == "49"


def test_gen_set_full_writes_whole_grid(tmp_path):
    out = tmp_path / "grid.txt"
    res = run_cli("gen-set", "--p", "3", "--l", "1", "--d", "2", "--full", "--out", str(out))
    assert res.returncode == 0
    assert len(out.read_text().strip().splitlines()) == 10


@pytest.mark.parametrize(
    "kind, source, builds",
    [("t2", "file", 1), ("v2", "product", 1), ("t2", "full", 1), ("v2", "random:30", 3)],
)
def test_fixed_set_sources_are_built_and_counted_once_per_run(
    capsys, monkeypatch, tmp_path, kind, source, builds
):
    (tmp_path / "file").write_text(
        harness.format_pointset(harness.random_subset(Modulus(7, 1), 2, 30, seed=1))
    )
    (tmp_path / "product").write_text("q=7 d=1\n0\n2\n3\n5\n")
    calls = {"set": 0, "statistic": 0}

    def counted(name, f):
        def call(*args):
            calls[name] += 1
            return f(*args)

        return call

    monkeypatch.setattr(harness, "generate_set", counted("set", harness.generate_set))
    monkeypatch.setattr(
        harness, "_experiment_statistic", counted("statistic", harness._experiment_statistic)
    )
    if source in ("file", "product"):
        source = f"{source}:{tmp_path / source}"
    code, out, _ = _in_process(capsys, [
        "experiment", "--kind", kind, "--p", "7", "--l", "1", "--set", source,
        "--trials", "3", "--format", "csv",
    ])
    rows = [line.split(",", 1)[1] for line in out.splitlines()[1:]]
    assert code in (0, 1) and len(rows) == 3
    assert calls == {"set": builds, "statistic": builds}
    if builds == 1:
        assert rows[0] == rows[1] == rows[2]


def _without_wall_time(text):
    return "\n".join(ln for ln in text.splitlines() if "wall_time_s" not in ln)


def test_reports_byte_identical_modulo_wall_time(tmp_path):
    args = (
        "experiment", "--kind", "v2", "--p", "3", "--l", "2",
        "--set", "random:12", "--trials", "3", "--seed", "9",
    )
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    first = run_cli(*args, "--out", str(a))
    second = run_cli(*args, "--out", str(b))
    assert first.returncode == second.returncode
    assert _without_wall_time(a.read_text()) == _without_wall_time(b.read_text())
    # CSV reports carry no timing at all
    c1 = run_cli(*args, "--format", "csv")
    c2 = run_cli(*args, "--format", "csv")
    assert c1.stdout == c2.stdout


# verify-lemmas reports captured before the lemma checks were vectorized
GOLDEN = Path(__file__).parent / "golden"
_WALL = re.compile(r'"wall_time_s": [0-9.e+-]+')


@pytest.mark.parametrize("q", [27, 81, 121, 125, 243, 587, 593, 625, 729])
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_verify_lemmas_matches_the_golden_reports(capsys, q, fmt):
    m = Modulus.from_q(q)
    assert cli.main(["verify-lemmas", "--p", str(m.p), "--l", str(m.l), "--format", fmt]) == 0
    got = capsys.readouterr().out
    want = (GOLDEN / f"lemmas_z{q}.{fmt}").read_text()
    if fmt == "json":
        got, want = _WALL.sub('"wall_time_s": 0', got), _WALL.sub('"wall_time_s": 0', want)
        # every pass flag is statistic <cmp> bound, skipped rows included
        compare = {"eq": operator.eq, "le": operator.le, "ge": operator.ge}
        for row in json.loads(got)["checks"]:
            assert row["pass"] == compare[row["cmp"]](row["statistic"], row["bound"])
    assert got == want


# experiment reports captured before t2 took the orbit total and product
# sets took the sumset path; bases come from gen-set at fixed seeds
EXPERIMENT_BASES = {
    "base_z49.txt": ("--p", "7", "--l", "2", "--size", "31", "--seed", "5"),
    "base_z9.txt": ("--p", "3", "--l", "2", "--size", "6", "--seed", "5"),
}
EXPERIMENTS = {
    "t2_z9_full": ("--kind", "t2", "--p", "3", "--l", "2", "--set", "full"),
    "t2_z27_full": ("--kind", "t2", "--p", "3", "--l", "3", "--set", "full"),
    "t2_z11_random79_x2": ("--kind", "t2", "--p", "11", "--l", "1", "--set", "random:79",
                           "--trials", "2", "--seed", "7"),
    "dotprod_z49_a2": ("--kind", "dotprod", "--p", "7", "--l", "2", "--d", "2",
                       "--set", "product:base_z49.txt"),
    "dotprod_z9_a4": ("--kind", "dotprod", "--p", "3", "--l", "2", "--d", "4",
                      "--set", "product:base_z9.txt"),
}


@pytest.mark.parametrize("name", list(EXPERIMENTS))
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_experiments_match_the_golden_reports(capsys, monkeypatch, tmp_path, name, fmt):
    monkeypatch.chdir(tmp_path)
    for base, args in EXPERIMENT_BASES.items():
        assert cli.main(["gen-set", "--d", "1", *args, "--out", base]) == 0
    assert cli.main(["experiment", *EXPERIMENTS[name], "--format", fmt]) == 0
    got = capsys.readouterr().out
    want = (GOLDEN / f"experiment_{name}.{fmt}").read_text()
    assert _WALL.sub('"wall_time_s": 0', got) == _WALL.sub('"wall_time_s": 0', want)


# -- the threshold frontier, each run under a 3 GB address-space limit -------

_ADDRESS_SPACE = 3 * 2**30


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (_ADDRESS_SPACE, _ADDRESS_SPACE))


def run_cli_limited(*args):
    return subprocess.run(
        [sys.executable, "-m", "zqgeom", *args],
        capture_output=True, text=True, preexec_fn=_limit_address_space,
    )


@pytest.mark.parametrize("p, l, classes", [(3, 4, 408801), (3, 6, 298015761)])
def test_t2_full_grid_at_the_frontier(p, l, classes):
    res = run_cli_limited(
        "experiment", "--kind", "t2", "--p", str(p), "--l", str(l),
        "--set", "full", "--format", "csv",
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines()[1].split(",")[:3] == ["0", str((p**l) ** 2), str(classes)]


def test_dotprod_cube_at_the_z243_threshold(tmp_path):
    base = tmp_path / "base.txt"
    assert cli.main([
        "gen-set", "--p", "3", "--l", "5", "--d", "1", "--size", "169",
        "--seed", "1", "--out", str(base),
    ]) == 0
    res = run_cli_limited(
        "experiment", "--kind", "dotprod", "--p", "3", "--l", "5", "--d", "3",
        "--set", f"product:{base}", "--format", "csv",
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines()[1].split(",")[:2] == ["0", str(169**3)]


def _t2_limited(p, l, n):
    return run_cli_limited(
        "experiment", "--kind", "t2", "--p", str(p), "--l", str(l),
        "--set", f"random:{n}", "--seed", "7", "--format", "csv",
    )


# below the covering size 2q**2/3 and far past the n**3 census, these run
# the orbit cover; every pair orbit is realized, so each count is T(q)

def test_t2_at_the_z121_threshold():
    res = _t2_limited(11, 2, 9495)
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines()[1].split(",")[:3] == ["0", "9495", "1625041"]


def test_t2_at_the_z169_threshold():
    res = _t2_limited(13, 2, 17519)
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines()[1].split(",")[:3] == ["0", "17519", "5231241"]


def test_t2_at_the_z101_threshold():
    res = _t2_limited(101, 1, 3160)
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines()[1].split(",")[:3] == ["0", "3160", "1040605"]


def test_t2_on_a_z103_band_counts_every_orbit_by_its_certificate(tmp_path):
    # Z_103 x {0..66}: the least member (0, t) of an orbit fails the
    # certificate for t > 30, but some member of every orbit passes it;
    # slicing with the least members first would pass the op cap
    band = tmp_path / "band.txt"
    rows = (f"{x},{y}\n" for x in range(103) for y in range(67))
    band.write_text("q=103 d=2\n" + "".join(rows))
    res = run_cli_limited(
        "experiment", "--kind", "t2", "--p", "103", "--l", "1", "--set", f"file:{band}",
        "--format", "csv",
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines()[1].split(",")[:3] == ["0", "6901", "1082221"]


def test_t2_at_the_z289_threshold():
    # its windows touch about 4.1e8 cells, but each is charged the 11137
    # digits of 30 bits it shifts and masks, not q**2 = 83521 cells: the
    # cover spends 82189175 operations, inside the cap
    res = _t2_limited(17, 2, 46848)
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines()[1].split(",")[:3] == ["0", "46848", "25651081"]


def test_t2_at_the_z361_threshold():
    # the orbit scan, |SO_2| q**2 = 380 * 361**2 = 49521980, then the two
    # real FFTs, 2 q**2 q.bit_length() = 2345778, then the windows, all
    # inside the cap
    res = _t2_limited(19, 2, 70438)
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines()[1].split(",")[:3] == ["0", "70438", "44699761"]


def test_t2_at_the_z841_threshold_is_refused_before_counting():
    # the orbit scan alone would turn |SO_2| q**2 = 812 * 841**2 vectors
    res = _t2_limited(29, 2, 332022)
    assert res.returncode == 2
    assert "Traceback" not in res.stderr
    assert "n = 332022 points: 0 operations spent, and 574312172 more would pass" in res.stderr
    assert str(_census._OP_CAP) in res.stderr


def test_v2_on_a_strip_stops_at_the_op_cap(tmp_path):
    # every area of Z_169 x 13 Z_169 is a multiple of 13, so the scan never
    # saturates; its n**3 = 1.06e10 values are cut off at the cap
    strip = tmp_path / "strip.txt"
    rows = (f"{x},{13 * y}\n" for x in range(169) for y in range(13))
    strip.write_text("q=169 d=2\n" + "".join(rows))
    start = time.perf_counter()
    res = run_cli_limited(
        "experiment", "--kind", "v2", "--p", "13", "--l", "2", "--set", f"file:{strip}",
    )
    assert time.perf_counter() - start < 30
    assert res.returncode == 2
    assert "Traceback" not in res.stderr
    assert re.search(r"the triangle area scan: \d+ operations spent, and \d+ more would pass "
                     f"the {_census._OP_CAP}-operation budget", res.stderr)


def test_t2_census_past_its_byte_budget_is_refused_before_counting():
    # 584 points pass the n**3 cap, but their sparse pair keys would not fit memory
    res = run_cli_limited(
        "experiment", "--kind", "t2", "--p", "727", "--l", "1", "--set", "random:584",
    )
    assert res.returncode == 2
    assert "Traceback" not in res.stderr
    assert "n = 584" in res.stderr and f"over the {2**30}-byte budget" in res.stderr


@pytest.mark.parametrize("p", [2147483647, 2147483629], ids=["3-mod-4", "1-mod-4"])
def test_t2_at_the_largest_primes_counts_without_a_group_table(tmp_path, p):
    # a group table at either prime would take 16 GiB; the keys need none.
    # The three side norms differ and are units: 1 class of x = y = z, 9 of
    # two equal vertices and 6 orderings of the triangle.  Three points miss
    # the theorem's bound, so the run exits 1, with the count and no traceback
    path = tmp_path / "three.txt"
    path.write_text(f"q={p} d=2\n1,2\n5,9\n100,7\n")
    res = run_cli_limited(
        "experiment", "--kind", "t2", "--p", str(p), "--l", "1", "--set", f"file:{path}",
        "--format", "csv",
    )
    assert res.returncode == 1 and res.stderr == ""
    assert res.stdout.splitlines()[1].split(",")[:3] == ["0", "3", "16"]


def _in_process(capsys, argv):
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


def test_one_process_runs_commands_like_fresh_processes(capsys, tmp_path):
    # the parser is built once per process; nothing may carry over between
    # calls, so each call matches the same command run in a fresh process
    experiment = ["experiment", "--kind", "v2", "--p", "3", "--l", "2",
                  "--set", "random:12", "--trials", "2", "--seed", "4", "--format", "csv"]
    calls = [
        ["verify-lemmas", "--p", "3", "--l", "2", "--format", "csv"],
        experiment,
        ["gen-set", "--p", "3", "--l", "2", "--size", "5", "--seed", "2", "--out", "{out}"],
        ["experiment", "--kind", "t2", "--p", "3", "--l", "1"],  # no --set: exit 2
        experiment,
    ]
    codes = []
    for argv in calls:
        here, fresh = tmp_path / "here.txt", tmp_path / "fresh.txt"
        code, out, err = _in_process(capsys, [a.format(out=here) for a in argv])
        res = run_cli(*[a.format(out=fresh) for a in argv])
        assert (code, out, err) == (res.returncode, res.stdout, res.stderr), argv
        if "--out" in argv:
            assert here.read_text() == fresh.read_text() != ""
        codes.append(code)
    assert codes[0] == codes[2] == 0 and codes[3] == 2
    assert cli._build_parser() is cli._build_parser()


def test_cli_paths_never_import_numpy_ma():
    # a bare np.unique imports numpy.ma on first use, about 10 ms per process
    script = (
        "import contextlib, io, sys\n"
        "from zqgeom import cli\n"
        "runs = [\n"
        "    ['experiment', '--kind', 't2', '--p', '7', '--l', '1', '--set', 'random:5'],\n"
        "    ['experiment', '--kind', 't2', '--p', '11', '--l', '1', '--set', 'random:79'],\n"
        "    ['experiment', '--kind', 't2', '--p', '13', '--l', '1', '--set', 'random:102'],\n"
        "    ['experiment', '--kind', 't2', '--p', '3', '--l', '2', '--set', 'random:7'],\n"
        "    ['experiment', '--kind', 't2', '--p', '3', '--l', '2', '--set', 'full'],\n"
        "    ['experiment', '--kind', 'v2', '--p', '5', '--l', '2', '--set', 'random:280'],\n"
        "    ['experiment', '--kind', 'dotprod', '--p', '7', '--l', '1', '--set', 'random:20'],\n"
        "    ['verify-lemmas', '--p', '3', '--l', '3'],\n"
        "]\n"
        "for argv in runs:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert cli.main(argv) in (0, 1), argv\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    res = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout == "False\n"
