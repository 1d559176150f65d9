"""The benchmark's workloads: seeded inputs, ops, and the check of each op.

`build(zq, name, seed, tmp)` is called during worker set-up.  It makes
every input from `seed` and returns the ops in their fixed order.  An op's
`run` is what gets timed; its `check` runs afterwards, untimed, and
returns the list of mismatches against the stored golden values or an
independent oracle (empty when the output is correct).
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

import numpy as np

import oracles

GOLDEN = json.loads((Path(__file__).parent / "golden.json").read_text())


@dataclass
class Op:
    label: str
    tag: str  # lemma, t2, v2, dotprod, fft, naive, rotation
    run: Callable[[], Any]
    check: Callable[[Any], list[str]]
    argv: list[str] | None = None  # the CLI arguments, for CLI ops


def op_seed(seed: int, i: int) -> int:
    """Seed handed to the program for op i; distinct ops get unrelated streams."""
    return (seed * 1_000_003 + i * 7_919) % (2**31)


def cli_call(zq, argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = zq.cli.main(argv)
        except SystemExit as exc:  # argparse exits 2 on usage errors
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue()


def _report(result, want_exit: int) -> tuple[dict | None, list[str]]:
    code, text = result
    if code != want_exit:
        return None, [f"exit code {code}, expected {want_exit}"]
    try:
        return json.loads(text), []
    except ValueError:
        return None, ["stdout is not a JSON report"]


def _compare(what: str, got: list, want: list) -> list[str]:
    if len(got) != len(want):
        return [f"{len(got)} {what}, expected {len(want)}"]
    return [
        f"{what} {i}: got {g}, expected {w}"
        for i, (g, w) in enumerate(zip(got, want))
        if list(g) != list(w)
    ][:3]


def _golden(workload: str, label: str) -> dict:
    # a missing entry fails the op rather than the set-up
    return GOLDEN.get(workload, {}).get(label, {"exit": None, "trials": None, "checks": None})


def _trial_rows(report: dict) -> list:
    return [[t["set_size"], t["statistic"], t["pass"]] for t in report["trials"]]


def _check_golden_experiment(golden: dict):
    def check(result):
        report, errors = _report(result, golden["exit"])
        return errors or _compare("trial", _trial_rows(report), golden["trials"])

    return check


def _pl(q: int) -> tuple[int, int]:
    p = next(d for d in range(3, q + 1, 2) if q % d == 0)
    l, rest = 0, q
    while rest % p == 0:
        rest //= p
        l += 1
    return (p, l) if rest == 1 else (0, 0)


def _exp_argv(kind, p, l, source, trials, seed, d=2) -> list[str]:
    return [
        "experiment", "--kind", kind, "--p", str(p), "--l", str(l), "--d", str(d),
        "--set", source, "--trials", str(trials), "--seed", str(seed),
    ]


# ---------------------------------------------------------------------------
# lemma-ladder: the exhaustive suite; no randomness, so the seed is unused

LEMMA_MODULI = ((3, 4), (11, 2), (5, 3), (3, 5))


def lemma_ladder(zq, seed, tmp):
    ops = []
    for p, l in LEMMA_MODULI:
        label = f"verify-lemmas Z_{p**l}"
        golden = _golden("lemma-ladder", label)

        def check(result, golden=golden):
            report, errors = _report(result, golden["exit"])
            if errors:
                return errors
            rows = [
                [c["name"], c["statistic"], c["universe"], c["pass"], c["skipped"]]
                for c in report["checks"]
            ]
            return _compare("check", rows, golden["checks"])

        argv = ["verify-lemmas", "--p", str(p), "--l", str(l)]
        ops.append(Op(label, "lemma", lambda argv=argv: cli_call(zq, argv), check, argv))
    return ops


# ---------------------------------------------------------------------------
# threshold-stats: each statistic at its size threshold; outputs saturate,
# so the golden values hold for every seed

def threshold_stats(zq, seed, tmp):
    specs = [
        ("t2", 3, 2, "full", 1, 2),
        ("t2", 11, 1, "random:79", 2, 2),
        ("t2", 13, 1, "random:104", 1, 2),
        ("v2", 5, 2, "random:280", 1, 2),
        ("v2", 3, 3, "random:421", 1, 2),
        ("dotprod", 7, 2, ("product", 31), 1, 2),
        ("dotprod", 3, 2, ("product", 6), 1, 4),
    ]
    ops = []
    for i, (kind, p, l, source, trials, d) in enumerate(specs):
        s = op_seed(seed, i)
        if isinstance(source, tuple):
            # a one-dimensional base A, written by gen-set; the op expands A^d
            path = os.path.join(tmp, f"base{i}.txt")
            code, _ = cli_call(zq, [
                "gen-set", "--p", str(p), "--l", str(l), "--d", "1",
                "--size", str(source[1]), "--seed", str(s), "--out", path,
            ])
            if code != 0:
                raise RuntimeError(f"gen-set failed for op {i}")
            label = f"{kind} Z_{p**l} A^{d} |A|={source[1]}"
            source = f"product:{path}"
        else:
            label = f"{kind} Z_{p**l} {source} x{trials}"
        argv = _exp_argv(kind, p, l, source, trials, s, d)
        golden = _golden("threshold-stats", label)
        ops.append(Op(label, kind, lambda argv=argv: cli_call(zq, argv),
                      _check_golden_experiment(golden), argv))
    return ops


# ---------------------------------------------------------------------------
# small-set-sweep: every odd prime power up to 729, ascending, one modulus per
# op, kinds in rotation; small sets, so outputs depend on the seed and are
# checked against oracles computed from the same seeded sets

SWEEP_MAX_Q = 729
SWEEP = {"t2": (5, 1), "v2": (12, 4), "dotprod": (16, 4)}  # kind: (set size, trials)
KINDS = ("t2", "v2", "dotprod")


def sweep_moduli() -> list[tuple[int, int, int]]:
    out = []
    for q in range(3, SWEEP_MAX_Q + 1, 2):
        p, l = _pl(q)
        if p:
            out.append((q, p, l))
    return out


def _sweep_check(kind, p, l, size, trials, seed):
    def check(result):
        q = p**l
        rows = []
        for trial in range(trials):
            pts = oracles.random_points(q, 2, size, seed, trial)
            stat = oracles.STATISTIC[kind](q, pts)
            rows.append([len(pts), stat, Fraction(stat) >= oracles.bound(kind, p, l)])
        want_exit = 0 if all(r[2] for r in rows) else 1
        report, errors = _report(result, want_exit)
        return errors or _compare("trial", _trial_rows(report), rows)

    return check


def small_set_sweep(zq, seed, tmp):
    ops = []
    for i, (q, p, l) in enumerate(sweep_moduli()):
        kind = KINDS[i % 3]
        size, trials = SWEEP[kind]
        size = min(size, q * q)
        s = op_seed(seed, i)
        argv = _exp_argv(kind, p, l, f"random:{size}", trials, s)
        ops.append(Op(f"{kind} Z_{q} random:{size} x{trials}", kind,
                      lambda argv=argv: cli_call(zq, argv),
                      _sweep_check(kind, p, l, size, trials, s), argv))
    return ops


# ---------------------------------------------------------------------------
# spectra: the Fourier layer and the library-only counters, called directly

FFT_GRIDS = ((3, 5, 2, 3000), (3, 6, 2, 6000), (3, 4, 3, 6000), (3, 3, 4, 6000))
NAIVE_GRIDS = ((3, 3, 2, 240), (5, 2, 2, 200), (3, 2, 3, 240), (5, 1, 4, 200))
SETS_PER_GRID = 2
ROTATION_MODULUS = (3, 3)
ROTATION_SET = 200
ROTATIONS = 8


def _fft_op(zq, m, d, pts, seed):
    def run():
        f = zq.fourier.GridFunction.indicator(m, d, pts)
        fhat = zq.fourier.forward(f)
        back = zq.fourier.inverse(fhat)
        return f.values, fhat.values, back.values, zq.fourier.plancherel_gap(f)

    def check(out):
        return oracles.check_transform(m.q, d, pts, *out, seed)

    return run, check


def _naive_op(zq, m, d, pts):
    def run():
        f = zq.fourier.GridFunction.indicator(m, d, pts)
        fhat = zq.fourier.forward_naive(f)
        back = zq.fourier.inverse_naive(fhat)
        return f.values, fhat.values, back.values, zq.fourier.forward(f).values

    def check(out):
        return oracles.check_naive(m.q, d, pts, *out)

    return run, check


def _rotation_op(zq, m, E, index):
    def run():
        group = zq.orthogroup.so2_elements(m)
        theta = group[index % len(group)]
        table = zq.configsets.rotation_correlation(E, theta)
        lhs, rhs = zq.configsets.moment_bound(table, 4)
        return (theta.a, theta.b), table, lhs, rhs

    def check(out):
        return oracles.check_rotation(m.q, E.points, *out)

    return run, check


def spectra(zq, seed, tmp):
    Modulus, random_subset = zq.ring.Modulus, zq.harness.random_subset
    ops = []
    for p, l, d, n in FFT_GRIDS:
        m = Modulus(p, l)
        for k in range(SETS_PER_GRID):
            pts = random_subset(m, d, n, seed, k).points
            run, check = _fft_op(zq, m, d, pts, op_seed(seed, k))
            ops.append(Op(f"fft Z_{m.q}^{d} n={n} #{k}", "fft", run, check))
    for p, l, d, n in NAIVE_GRIDS:
        m = Modulus(p, l)
        pts = random_subset(m, d, n, seed, 0).points
        run, check = _naive_op(zq, m, d, pts)
        ops.append(Op(f"naive Z_{m.q}^{d} n={n}", "naive", run, check))
    m = Modulus(*ROTATION_MODULUS)
    E = random_subset(m, 2, ROTATION_SET, seed, 0)
    rng = np.random.default_rng(seed)
    for index in rng.integers(0, 2**31, size=ROTATIONS):
        run, check = _rotation_op(zq, m, E, int(index))
        ops.append(Op(f"rotation Z_{m.q} n={ROTATION_SET} #{int(index)}", "rotation",
                      run, check))
    return ops


OPS_BY_WORKLOAD = {
    "lemma-ladder": lemma_ladder,
    "threshold-stats": threshold_stats,
    "small-set-sweep": small_set_sweep,
    "spectra": spectra,
}


def build(zq, name: str, seed: int, tmp: str) -> list[Op]:
    return OPS_BY_WORKLOAD[name](zq, seed, tmp)
