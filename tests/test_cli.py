"""End-to-end command-line behavior: exit codes, wire formats, determinism."""

import json
import operator
import re
import subprocess
import sys
from pathlib import Path

import pytest

from zqgeom import cli
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


def test_product_source_above_the_cap_exits_2(tmp_path):
    base = tmp_path / "base.txt"
    base.write_text("q=9 d=1\n" + "".join(f"{c}\n" for c in range(9)))
    res = run_cli(
        "experiment", "--kind", "dotprod", "--p", "3", "--l", "2", "--d", "12",
        "--set", f"product:{base}",
    )
    assert res.returncode == 2
    assert "cap" in res.stderr and "Traceback" not in res.stderr


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


@pytest.mark.parametrize("q", [27, 81, 121, 125, 243])
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
